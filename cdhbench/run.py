"""cdhkit benchmark: one closed-loop caller per workload.

    python3 cdhbench/run.py --workload repair|chain|twist --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from `src/`.  One
caller runs whole rounds of seeded jobs (see `workloads.py`) back to back,
starting the next operation only when the previous one has ended, until
`--seconds` have passed; the round under way when the time runs out is
finished, so every run measures complete rounds.  An untraced run goes on
past `--seconds` until it has MIN_BUILDS builds, so that at least
TAIL_BEYOND of them lie beyond the tail percentile.  Every output is
checked; a failed check or an exception counts as a failed operation and the
run goes on.  A failed operation, and a verify or eval skipped after a
failed build, ranks above every success in the percentiles.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics.  With `--trace 1` each job runs twice, once untraced and
once under the span tracer of `tracer.py`; the JSON then holds the
per-layer metrics, the tracing overhead (traced minus untraced operation
time) and is marked incorrect if the two runs of a job disagree on output
size or failures.  The spans of every operation of the first job are
written to `.bench_out/`.

Set-up (fresh import of the library, the first round's inputs and one
warm-up job) is repeated SETUPS times and `setup_s` is its median; the
interpreter's own start is not included.

Reported times are wall-clock seconds scaled to a fixed machine speed: each
operation's time is multiplied by REF_SECONDS over the mean time of a fixed
Fraction kernel measured just before and just after it (`reference_time`).
Tracing times and counts are left unscaled.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
TAIL = 0.75
TAIL_BEYOND = 10
MIN_BUILDS = math.ceil(TAIL_BEYOND / (1 - TAIL))
# One call of `_kernel` on an idle 2-vCPU Intel Xeon host; the unit that
# every reported time is scaled to.
REF_SECONDS = 3.6e-4
# CPython's default limit on the decimal digits of an int converted to str
DIGIT_LIMIT = getattr(sys.int_info, "default_max_str_digits", 4300)

# name -> unit; the order is the order of the output
END_TO_END = {
    "setup_s": "s",
    "build_p50_s": "s",
    "build_tail_s": "s",
    "verify_p50_s": "s",
    "eval_p50_s": "s",
    "out_bits_gm": "bits",
    "out_kb_gm": "KiB",
    "rss_peak_mb": "MiB",
}


def _kernel():
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, i + 7)
    return total


def reference_time() -> float:
    """Shortest of three timings of a fixed Fraction-arithmetic kernel.

    Other tenants of the host slow it by up to 1.8x for tens of seconds at a
    time; the kernel slows with them, so the ratio of an operation's time to
    the kernel's, taken just before and after it, does not."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


@dataclasses.dataclass
class JobResult:
    label: str
    ops: list = dataclasses.field(default_factory=list)   # (kind, scaled seconds, error or None)
    bits: int = 0
    digits: int = 0
    kb: float = 0.0
    extras: dict = dataclasses.field(default_factory=dict)

    @property
    def failures(self) -> list:
        return [(kind, err) for kind, _, err in self.ops if err is not None]


def run_job(wl, job, tracer=None) -> JobResult:
    """Runs build, verify and eval of one job; stops after a failed build."""
    res = JobResult(job.label)
    inputs = wl.prepare(job)
    out = None
    steps = (
        ("build", lambda: wl.build(job, inputs), lambda v: wl.check_build(job, inputs, v)),
        ("verify", lambda: wl.verify(job, inputs, out), lambda v: wl.check_verify(job, inputs, out, v)),
        ("eval", lambda: wl.evaluate(job, inputs, out), lambda v: wl.check_eval(job, inputs, out, v)),
    )
    before = reference_time()
    for kind, fn, check in steps:
        value = err = None
        start = perf_counter()
        try:
            if tracer is None:
                value = fn()
            else:
                with tracer.op(kind):
                    value = fn()
        except Exception as exc:  # a failed operation is counted, never fatal
            err = type(exc).__name__
        seconds = perf_counter() - start
        if err is None:
            try:
                check(value)
            except Exception as exc:
                err = type(exc).__name__
        after = reference_time()
        res.ops.append((kind, seconds * 2 * REF_SECONDS / (before + after), err))
        before = after
        if kind == "build":
            if err is not None:
                return res
            out = value
    res.bits, res.digits, res.kb = wl.output_size(wl.sizes(job, inputs, out))
    res.extras = dict(job.extras)
    return res


def measure(wl, jobs, tracer=None, spans_for: int = 0) -> tuple:
    """Runs each job untraced and, given a tracer, once more traced; the
    tracer keeps the spans of the first `spans_for` jobs.

    Returns the untraced results, the traced results and the number of jobs
    whose two runs disagree on output size or failures."""
    plain, traced, mismatches = [], [], 0
    for index, job in enumerate(jobs):
        first = run_job(wl, dataclasses.replace(job, extras={}))
        plain.append(first)
        if tracer is None:
            continue
        tracer.keep_spans = index < spans_for
        tracer.install()
        try:
            again = run_job(wl, dataclasses.replace(job, extras={}), tracer)
        finally:
            tracer.uninstall()
        traced.append(again)
        if (again.bits, again.kb, again.failures) != (first.bits, first.kb, first.failures):
            mismatches += 1
    return plain, traced, mismatches


def setup(name: str, seed: int):
    """Fresh import of the library and the benchmark code, the first
    round's inputs and one warm-up job."""
    for mod in [m for m in sys.modules
                if m == "cdhkit" or m.startswith("cdhkit.") or m == "workloads"]:
        del sys.modules[mod]
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name]
    first = wl.round(seed, 0)
    run_job(wl, wl.warmup())
    return wl, first


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of `op_times`, in which failures are +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else math.inf


def op_times(results, kind) -> list:
    """One time per job; a failed operation enters as +inf, and so does a
    missing one (no verify or eval runs after a failed build)."""
    times = []
    for r in results:
        seconds, err = next(((s, e) for k, s, e in r.ops if k == kind), (math.inf, "skipped"))
        times.append(math.inf if err else seconds)
    return times


def geometric_mean(values) -> float:
    """Sizes span orders of magnitude between jobs; their geometric mean
    settles on fewer samples than their median."""
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def end_to_end(results, setup_times) -> dict:
    builds = op_times(results, "build")
    return {
        "setup_s": statistics.median(setup_times),
        "build_p50_s": percentile(builds, 0.5),
        "build_tail_s": percentile(builds, TAIL),
        "verify_p50_s": percentile(op_times(results, "verify"), 0.5),
        "eval_p50_s": percentile(op_times(results, "eval"), 0.5),
        "out_bits_gm": geometric_mean([r.bits for r in results if r.bits > 0]),
        "out_kb_gm": geometric_mean([r.kb for r in results if r.kb > 0]),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def summary(name, seed, results, rounds, traced: bool) -> str:
    """One comment line on the run; the tail is named only where
    `build_tail_s` is reported, that is without tracing."""
    builds = op_times(results, "build")
    ok = [s for s in builds if s != math.inf]
    beyond = len(builds) - math.ceil(TAIL * len(builds))
    tail = "" if traced else f"tail=p{round(TAIL * 100)} with {beyond} builds beyond it, "
    fails: dict = {}
    for r in results:
        for kind, err in r.failures:
            key = f"{r.label} {kind}: {err}"
            fails[key] = fails.get(key, 0) + 1
    rate = len(ok) / sum(ok) if ok else 0.0
    over = sum(1 for r in results if r.digits > DIGIT_LIMIT)
    return (f"# {name} seed={seed}: {rounds} rounds, {len(builds)} builds, {tail}"
            f"{rate:.3f} successful builds per build-second, failures={fails or 'none'}, "
            f"{over} outputs over {DIGIT_LIMIT} digits")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("repair", "chain", "twist"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cdhkit").is_dir():
        sys.exit(f"no library source at {src / 'cdhkit'}: run from a checkout of the repository")
    sys.path.insert(0, str(src))
    # some repair certificates hold values of more than DIGIT_LIMIT decimal
    # digits, which format_scalar cannot print under CPython's default
    # conversion limit; the summary line counts them
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    setup_times = []
    for _ in range(SETUPS):
        before = reference_time()
        start = perf_counter()
        wl, first = setup(args.workload, args.seed)
        seconds = perf_counter() - start
        setup_times.append(seconds * 2 * REF_SECONDS / (before + reference_time()))

    tracer = None
    if args.trace:
        import cdhkit
        from tracer import Tracer

        tracer = Tracer(cdhkit, clients=[sys.modules[type(wl).__module__]])
    results, traced, mismatches = [], [], 0
    deadline = perf_counter() + args.seconds
    rounds = 0
    min_builds = 0 if args.trace else MIN_BUILDS
    while perf_counter() < deadline or len(results) < min_builds:
        jobs = first if rounds == 0 else wl.round(args.seed, rounds)
        plain, again, differ = measure(wl, jobs, tracer, spans_for=1 if rounds == 0 else 0)
        results += plain
        traced += again
        mismatches += differ
        rounds += 1

    checks_failed = sum(1 for r in results for _, err in r.failures if err == "CheckFailed")
    print(summary(args.workload, args.seed, results, rounds, tracer is not None))
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(results, setup_times).items()}
    else:
        from layers import PER_LAYER, layer_metrics

        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        values = layer_metrics(tracer, traced, results)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        print(f"# traced: {len(tracer.spans)} spans of the first job written, "
              f"{mismatches} traced jobs disagreeing with their untraced run")
        checks_failed += sum(1 for r in traced for _, err in r.failures if err == "CheckFailed")
    print(json.dumps({
        "correct": checks_failed == 0 and mismatches == 0,
        "attempted": sum(len(r.ops) for r in results),
        "failed": sum(len(r.failures) for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
