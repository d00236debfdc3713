"""Output identity of the benchmark workloads: one sha256 per workload.

    python3 tools/outhash.py --root DIR [--seed N] [--rounds R]

Runs every job of rounds 0 .. R-1 (default 4) under seed N (default 1) of each
workload in `DIR/cdhbench/workloads.py`, against the library in `DIR/src`,
and hashes
what the job produces: the `sizes()` document (JSON, sorted keys), the
value `verify` returns (its verdicts, with rebuilt stages read through their
descriptors) and the values `evaluate` returns.  Two checkouts whose hashes
agree give the same outputs on these rounds; run the script once per
checkout, from either one.  Nothing is timed and nothing under `cdhbench/`
is changed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

# Fixed inputs: hashes compare across checkouts only on the same jobs.  The
# hashes recorded in ROADMAP.md are those of the default seed and rounds.
SEED = 1
ROUNDS = 4


def canon(obj):
    """A JSON-ready copy of `obj` that names no memory address: a value with
    a `descriptor()` becomes its descriptor, a dataclass its fields, and any
    other value its repr (Fractions, floats and symbol sequences print
    exactly)."""
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if hasattr(obj, "descriptor"):
        return canon(obj.descriptor())
    if dataclasses.is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return repr(obj)


def workload_hashes(root: Path, seed: int = SEED, rounds: int = ROUNDS) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "cdhbench")]
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # as cdhbench/run.py: some values pass the default limit
    import workloads

    out = {}
    for name, wl in workloads.WORKLOADS.items():
        h = hashlib.sha256()
        for index in range(rounds):
            for job in wl.round(seed, index):
                inputs = wl.prepare(job)
                built = wl.build(job, inputs)
                verified = wl.verify(job, inputs, built)
                evaluated = wl.evaluate(job, inputs, built)
                sizes = wl.sizes(job, inputs, built)
                for part in (sizes, canon(verified), canon(evaluated)):
                    h.update(json.dumps(part, sort_keys=True).encode())
                    h.update(b"\n")
        out[name] = h.hexdigest()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, required=True, help="checkout whose src/ and cdhbench/ run")
    ap.add_argument("--seed", type=int, default=SEED, help=f"workload seed (default {SEED})")
    ap.add_argument("--rounds", type=int, default=ROUNDS,
                    help=f"rounds 0 .. R-1 are hashed (default {ROUNDS})")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    root = args.root.resolve()
    if not (root / "src" / "cdhkit").is_dir() or not (root / "cdhbench" / "workloads.py").is_file():
        sys.exit(f"{root} holds no src/cdhkit or cdhbench/workloads.py")
    for name, digest in workload_hashes(root, args.seed, args.rounds).items():
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
