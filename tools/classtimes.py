"""Times of each job class of one benchmark workload.

    python3 tools/classtimes.py --root DIR --workload W --seed K --rounds N

Runs one warm-up job, then every job of rounds 0 .. N-1 under seed K of
workload W in `DIR/cdhbench/workloads.py`, against the library in
`DIR/src`, through `measure`, `run_job` and `op_times` of
`DIR/cdhbench/run.py`, as an untraced benchmark run does: build, verify
and eval, each timed and scaled to the reference kernel, and checked
outside the timed region.  A failed operation, and one skipped after a
failed build, counts as +inf.

Prints each job class (a job's label) with its job count and its median
build, verify and eval seconds.  Then, for each operation, it names the
class of the job at the nearest-rank p50 and p75 of all jobs, as
`run.py` ranks them, with that job's place among its class and the classes
of the jobs ranked just below and above it.  A rank next to a job of
another class sits on the edge of its class.  Nothing under `cdhbench/` is
changed.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from pathlib import Path

OPS = ("build", "verify", "eval")
RANKS = (("p50", 0.5), ("p75", 0.75))


def rank_lines(rows: list) -> list:
    """For each operation and rank, the class at that rank of `rows`, a
    list of (label, times) pairs."""
    lines = []
    for op in OPS:
        ordered = sorted(rows, key=lambda row: row[1][op])
        for name, q in RANKS:
            i = max(0, math.ceil(q * len(ordered)) - 1)
            label = ordered[i][0]
            place = sum(1 for row in ordered[:i + 1] if row[0] == label)
            size = sum(1 for row in ordered if row[0] == label)
            below = ordered[i - 1][0] if i > 0 else "-"
            above = ordered[i + 1][0] if i + 1 < len(ordered) else "-"
            lines.append(f"{op:6s} {name} {label}: rank {i + 1} of {len(ordered)}, "
                         f"{place} of its {size}, between {below} and {above}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, required=True, help="checkout whose src/ and cdhbench/ run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error(f"--rounds must be at least 1, not {args.rounds}")
    root = args.root.resolve()
    if not (root / "src" / "cdhkit").is_dir() or not (root / "cdhbench" / "workloads.py").is_file():
        sys.exit(f"{root} holds no src/cdhkit or cdhbench/workloads.py")
    sys.path[:0] = [str(root / "src"), str(root / "cdhbench")]
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # as cdhbench/run.py: some values pass the default limit
    import run
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}: one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    run.run_job(wl, wl.warmup())
    results = [r for index in range(args.rounds)
               for r in run.measure(wl, wl.round(args.seed, index))[0]]
    by_op = {op: run.op_times(results, op) for op in OPS}
    rows = [(r.label, {op: by_op[op][k] for op in OPS}) for k, r in enumerate(results)]

    print(f"# {args.workload} seed={args.seed}: {args.rounds} rounds, {len(rows)} jobs, "
          f"median scaled seconds per class")
    print(f"{'class':12s} {'jobs':>4s}" + "".join(f" {op:>10s}" for op in OPS))
    for label in sorted({label for label, _ in rows}):
        mine = [times for name, times in rows if name == label]
        cells = "".join(f" {statistics.median(t[op] for t in mine):10.5f}" for op in OPS)
        print(f"{label:12s} {len(mine):4d}{cells}")
    print("\n".join(rank_lines(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
