"""Times of each job class of one benchmark workload.

    python3 tools/classtimes.py --root DIR --workload W --seed K --rounds N
    python3 tools/classtimes.py --root DIR --base DIR --pairs P \
        --workload W --seed K --rounds N

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

With `--base`, the base checkout and the `--root` checkout (the head) are
timed in turn, P pairs of runs, the base first in even pairs and the head
first in odd ones.  Each run is a subprocess of its own, since both
checkouts import `cdhkit`.  It prints each class's job count per side and,
for build, verify and eval, the base's and the head's median over all the
pairs' jobs and their ratio, head over base.  Then, for each operation, the
nearest-rank p50 and p75 of all jobs of one run, as `run.py` reports them:
each side's median over its runs, their ratio and the number of pairs
whose head run ranks lower than its base run.  Where a percentile sits on
the edge between two classes, it can move further than either class's
median, which only this view shows.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

OPS = ("build", "verify", "eval")
RANKS = (("p50", 0.5), ("p75", 0.75))


def _rank_index(n: int, q: float) -> int:
    """The nearest-rank place, from 0, of quantile q among n sorted values."""
    return max(0, math.ceil(q * n) - 1)


def rank_lines(rows: list) -> list:
    """For each operation and rank, the class at that rank of `rows`, a
    list of (label, times) pairs."""
    lines = []
    for op in OPS:
        ordered = sorted(rows, key=lambda row: row[1][op])
        for name, q in RANKS:
            i = _rank_index(len(ordered), q)
            label = ordered[i][0]
            place = sum(1 for row in ordered[:i + 1] if row[0] == label)
            size = sum(1 for row in ordered if row[0] == label)
            below = ordered[i - 1][0] if i > 0 else "-"
            above = ordered[i + 1][0] if i + 1 < len(ordered) else "-"
            lines.append(f"{op:6s} {name} {label}: rank {i + 1} of {len(ordered)}, "
                         f"{place} of its {size}, between {below} and {above}")
    return lines


def job_rows(root: Path, workload: str, seed: int, rounds: int) -> list:
    """(label, {op: scaled seconds}) for every job of the rounds, timed in
    this process against `root`'s library and benchmark code."""
    sys.path[:0] = [str(root / "src"), str(root / "cdhbench")]
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # as cdhbench/run.py: some values pass the default limit
    import run
    import workloads

    if workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {workload!r}: one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    run.run_job(wl, wl.warmup())
    results = [r for index in range(rounds) for r in run.measure(wl, wl.round(seed, index))[0]]
    by_op = {op: run.op_times(results, op) for op in OPS}
    return [(r.label, {op: by_op[op][k] for op in OPS}) for k, r in enumerate(results)]


def class_medians(rows: list) -> dict:
    """{label: (job count, {op: median seconds})} of `rows`."""
    out = {}
    for label in sorted({label for label, _ in rows}):
        mine = [times for name, times in rows if name == label]
        out[label] = (len(mine), {op: statistics.median(t[op] for t in mine) for op in OPS})
    return out


def run_ranks(rows: list) -> dict:
    """{(op, rank name): the nearest-rank percentile of all of one run's
    jobs} of that run's `rows`."""
    out = {}
    for op in OPS:
        times = sorted(t[op] for _, t in rows)
        for name, q in RANKS:
            out[(op, name)] = times[_rank_index(len(times), q)]
    return out


def rank_summary(base_runs: list, head_runs: list) -> dict:
    """{(op, rank name): (base median, head median, head wins)}: each side's
    median over its runs of `run_ranks`, and the pairs, run i of each side,
    whose head percentile is below the base's."""
    base = [run_ranks(rows) for rows in base_runs]
    head = [run_ranks(rows) for rows in head_runs]
    return {key: (statistics.median(b[key] for b in base),
                  statistics.median(h[key] for h in head),
                  sum(h[key] < b[key] for b, h in zip(base, head)))
            for key in base[0]}


def child_rows(root: Path, args) -> list:
    """`job_rows` of `root`, run in a subprocess of this script."""
    cmd = [sys.executable, __file__, "--root", str(root), "--workload", args.workload,
           "--seed", str(args.seed), "--rounds", str(args.rounds), "--rows"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return [tuple(row) for row in json.loads(out)]


def compare(base: Path, head: Path, args) -> None:
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            runs[side].append(child_rows(base if side == "base" else head, args))
    med = {side: class_medians([row for rows in runs[side] for row in rows]) for side in runs}
    print(f"# {args.workload} seed={args.seed}: {args.pairs} pairs of {args.rounds} rounds, "
          f"base {base.name}, head {head.name}; median scaled seconds per class")
    print(f"{'class':12s} {'jobs':>9s}" + "".join(
        f" {op + ' base':>12s} {op + ' head':>12s} {'ratio':>6s}" for op in OPS))
    for label in sorted(set(med["base"]) | set(med["head"])):
        (nb, b), (nh, h) = (med[side].get(label, (0, None)) for side in ("base", "head"))
        cells = "".join(
            f" {'-':>12s} {'-':>12s} {'-':>6s}" if b is None or h is None
            else f" {b[op]:12.6f} {h[op]:12.6f} {h[op] / b[op] if b[op] else math.nan:6.3f}"
            for op in OPS)
        print(f"{label:12s} {nb:4d} {nh:4d}{cells}")
    print(f"\n# nearest-rank percentiles of all jobs of a run: median over runs, "
          f"pairs whose head run is lower")
    print(f"{'op':6s} {'rank':4s} {'base':>10s} {'head':>10s} {'ratio':>6s} {'wins':>7s}")
    for (op, name), (b, h, wins) in rank_summary(runs["base"], runs["head"]).items():
        ratio = h / b if b else math.nan
        print(f"{op:6s} {name:4s} {b:10.6f} {h:10.6f} {ratio:6.3f} {wins:3d} of {args.pairs}")


def _checkout(root: Path) -> Path:
    root = root.resolve()
    if not (root / "src" / "cdhkit").is_dir() or not (root / "cdhbench" / "workloads.py").is_file():
        sys.exit(f"{root} holds no src/cdhkit or cdhbench/workloads.py")
    return root


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, required=True, help="checkout whose src/ and cdhbench/ run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--base", type=Path, help="a second checkout, timed in turn with --root")
    ap.add_argument("--pairs", type=int, default=1, help="pairs of runs with --base")
    ap.add_argument("--rows", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error(f"--rounds must be at least 1, not {args.rounds}")
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, not {args.pairs}")
    root = _checkout(args.root)
    if args.base is not None:
        compare(_checkout(args.base), root, args)
        return 0
    rows = job_rows(root, args.workload, args.seed, args.rounds)
    if args.rows:
        print(json.dumps(rows))
        return 0

    print(f"# {args.workload} seed={args.seed}: {args.rounds} rounds, {len(rows)} jobs, "
          f"median scaled seconds per class")
    print(f"{'class':12s} {'jobs':>4s}" + "".join(f" {op:>10s}" for op in OPS))
    for label, (count, times) in class_medians(rows).items():
        print(f"{label:12s} {count:4d}" + "".join(f" {times[op]:10.5f}" for op in OPS))
    print("\n".join(rank_lines(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
