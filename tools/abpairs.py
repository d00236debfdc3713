"""Alternating A/B runs of one benchmark workload on two checkouts.

    python3 tools/abpairs.py --base DIR --head DIR --workload W --pairs N \
        --seconds S --seed K

Runs `DIR/cdhbench/run.py --trace 0` on the base and the head checkout in
turn, N pairs of them, the base first in even pairs and the head first in
odd ones, so that a slow spell of the host falls on both sides alike.  Each
run uses its own checkout's library and benchmark code.  Writes
`BENCH_<workload>.json`: every pair's end-to-end metrics, each side's
median and interquartile range per metric, the number of pairs the head
wins per metric, and each side's `git rev-parse HEAD` with a flag for
uncommitted changes; a checkout is named by its directory's name, not its
path.  A metric's direction and its bound, a fraction of the base median,
are those of the head checkout's `BENCHMARK.json`.  Quartiles are those of
`statistics.quantiles` (exclusive method).

Each metric gets one no-regression verdict:
  worse       the head's median is worse than the base's by more than the
              bound;
  unresolved  not worse, but the base's interquartile range exceeds the
              bound, and not every head run beats every base run;
  ok          neither.

Each metric also gets a `gain` flag, true when the head wins at least nine
in ten of the pairs (a tie counts for neither side), and its median beats
the base's, in the metric's better direction, by more than the base's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line one untraced benchmark run prints last."""
    cmd = [sys.executable, str(root / "cdhbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def revision(root: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True).stdout.strip()
    return {"dir": root.name, "rev": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain"))}


def metric_specs(root: Path) -> dict:
    """Each end-to-end metric's entry in `root`'s BENCHMARK.json, by name."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def side_stats(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, specs: dict) -> dict:
    """Both sides' statistics and the verdict of every metric `specs` names."""
    out = {}
    for name, spec in specs.items():
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if spec["better"] == "lower" else -1
        b, h = side_stats(base), side_stats(head)
        room = spec["bound"] * abs(b["median"])
        if sign * (h["median"] - b["median"]) > room:
            verdict = "worse"
        elif b["iqr"] > room and max(sign * y for y in head) >= min(sign * x for x in base):
            verdict = "unresolved"
        else:
            verdict = "ok"
        wins = sum(sign * y < sign * x for x, y in zip(base, head))
        out[name] = {
            "better": spec["better"],
            "bound": spec["bound"],
            "base": b,
            "head": h,
            "change": (h["median"] - b["median"]) / b["median"] if b["median"] else None,
            "head_wins": wins,
            "beyond_base_iqr": abs(h["median"] - b["median"]) > b["iqr"],
            "verdict": verdict,
            "gain": 10 * wins >= 9 * len(pairs) and sign * (b["median"] - h["median"]) > b["iqr"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--head", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, not {args.pairs}")
    base, head = args.base.resolve(), args.head.resolve()
    for root in (base, head):
        if not (root / "cdhbench" / "run.py").is_file():
            sys.exit(f"{root} holds no cdhbench/run.py")

    pairs = []
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"order": list(order)}
        for side in order:
            pair[side] = run_once(base if side == "base" else head,
                                  args.workload, args.seed, args.seconds)
        pairs.append(pair)
        cells = " ".join(f"{k}={pair[s]['metrics'][k]['value']:.4g}"
                         for s in ("base", "head") for k in ("build_p50_s", "eval_p50_s"))
        print(f"pair {i + 1}/{args.pairs}: {cells}", file=sys.stderr)

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs_run": args.pairs,
        "base": revision(base),
        "head": revision(head),
        "summary": summarize(pairs, metric_specs(head)),
        "pairs": pairs,
    }
    Path(f"BENCH_{args.workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in doc["summary"].items():
        change = "n/a" if s["change"] is None else f"{s['change']:+.1%}"
        print(f"{name:14s} base {s['base']['median']:.5g} (iqr {s['base']['iqr']:.3g})  "
              f"head {s['head']['median']:.5g}  {change}  head wins {s['head_wins']}/{len(pairs)}"
              f"{'  beyond base iqr' if s['beyond_base_iqr'] else ''}  {s['verdict']}"
              f"  {'gain' if s['gain'] else 'no gain'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
