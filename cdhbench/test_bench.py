"""Checks of the benchmark itself: metric tables, seeding, failure counting
and the completeness of the trace.

    python3 -m pytest -q cdhbench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

import cdhkit  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from tracer import APPEND, Tracer  # noqa: E402

SEED = 7


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    specs = [j.spec for j in wl.round(SEED, 3)]
    assert specs == [j.spec for j in wl.round(SEED, 3)]
    assert specs != [j.spec for j in wl.round(SEED + 1, 3)]


class _Broken(workloads.Repair):
    def check_verify(self, job, inputs, result, verified):
        raise workloads.CheckFailed("forced")

    def evaluate(self, job, inputs, result):
        raise RecursionError("forced")


def test_failed_check_or_exception_counts_and_run_goes_on():
    wl = _Broken()
    res = run.run_job(wl, wl.round(SEED, 0)[0])
    assert [k for k, _, _ in res.ops] == ["build", "verify", "eval"]
    assert res.failures == [("verify", "CheckFailed"), ("eval", "RecursionError")]
    builds = run.op_times([res], "build")
    assert builds[0] > 0


class _BrokenBuild(workloads.Repair):
    def build(self, job, inputs):
        raise ValueError("forced")


def test_ops_skipped_after_a_failed_build_count_as_failed():
    ok = run.run_job(workloads.WORKLOADS["repair"], workloads.WORKLOADS["repair"].round(SEED, 0)[0])
    broken = run.run_job(_BrokenBuild(), _BrokenBuild().round(SEED, 0)[0])
    assert [k for k, _, _ in broken.ops] == ["build"]
    for kind in ("build", "verify", "eval"):
        times = run.op_times([ok, broken], kind)
        assert times[0] < float("inf") == times[1]


def test_failures_rank_above_successes():
    assert run.percentile([0.5, float("inf"), 0.1], 0.75) == float("inf")
    assert run.percentile([0.5, float("inf"), 0.1, 0.2], 0.5) == 0.2


def test_output_size_counts_bits_and_digits():
    doc = {"a": ["-1024/3", {"b": ("7/" + "9" * 5000, 2)}], "c": "x/y"}
    bits, digits, kb = workloads.Workload.output_size(doc)
    assert bits == int("9" * 5000).bit_length() and digits == 5000 and kb > 4


def test_spans_are_kept_only_for_chosen_jobs():
    wl = workloads.WORKLOADS["repair"]
    jobs = wl.round(SEED, 0)[:2]
    tracer = Tracer(cdhkit, clients=[workloads])
    run.measure(wl, jobs, tracer, spans_for=1)
    assert {op for *_, op in tracer.spans} == {0, 1, 2}
    assert len(tracer.ops) == 6 and tracer.calls["genpos.collision_repair_gpp"] == 2


def _traced(name, pick):
    wl = workloads.WORKLOADS[name]
    jobs = [j for j in wl.round(SEED, 0) if pick(j)]
    tracer = Tracer(cdhkit, clients=[workloads])
    plain, traced, mismatches = run.measure(wl, jobs, tracer, spans_for=len(jobs))
    return tracer, plain, traced, mismatches


def _check_spans(tracer):
    spans = {s[0]: s for s in tracer.spans}
    child = {}
    for span_id, name, start, end, parent, op in spans.values():
        assert start <= end
        if parent is None:
            assert name.startswith("op.")
            continue
        p = spans[parent]
        assert p[2] <= start and end <= p[3], f"{name} does not nest in {p[1]}"
        assert p[5] == op
        child[parent] = child.get(parent, 0.0) + (end - start)
    self_by_op = {}
    for span_id, name, start, end, parent, op in spans.values():
        own = (end - start) - child.get(span_id, 0.0)
        assert own >= -1e-9, f"negative self time in {name}"
        if parent is not None:
            self_by_op[op] = self_by_op.get(op, 0.0) + own
    for op_id, kind, wall, library in tracer.ops:
        assert self_by_op.get(op_id, 0.0) <= wall + 1e-9
        assert library == pytest.approx(self_by_op.get(op_id, 0.0), abs=1e-9)


def _appends_expected(traced) -> int:
    """Stages appended plus refused appends in build, stages re-appended in verify."""
    total = 0
    for r in traced:
        stages = r.extras.get("stages", r.extras.get("moves", 0))
        total += 2 * stages + r.extras.get("refused", 0)
    return total


def test_repair_trace_is_complete():
    tracer, plain, traced, mismatches = _traced("repair", lambda j: j.label in ("repair-6", "repair-8"))
    assert mismatches == 0 and not any(r.failures for r in plain + traced)
    _check_spans(tracer)
    assert tracer.calls[APPEND] == _appends_expected(traced)
    assert tracer.inside[f"{APPEND}@genpos.collision_repair_gpp"] == sum(r.extras["moves"] for r in traced)
    assert tracer.calls["homeos.compose"] == 0
    m = layer_metrics(tracer, traced, plain)
    assert m["genpos.build_self_s"] + m["spaces.build_self_s"] > 0.5 * m["trace.build_wall_s"]


def test_chain_trace_is_complete():
    tracer, plain, traced, mismatches = _traced("chain", lambda j: j.label in ("circle-10", "cantor-10"))
    assert mismatches == 0 and not any(r.failures for r in plain + traced)
    _check_spans(tracer)
    assert tracer.calls[APPEND] == _appends_expected(traced)
    assert tracer.raised[APPEND]["BoundViolation"] == sum(r.extras["refused"] for r in traced)
    m = layer_metrics(tracer, traced, plain)
    assert m["genpos.build_self_s"] == 0
    assert m["homeos.build_self_s"] + m["convergence.build_self_s"] > 0.5 * m["trace.build_wall_s"]


def test_twist_trace_is_complete():
    tracer, plain, traced, mismatches = _traced(
        "twist", lambda j: j.label in ("circle-8", "cantor-8") or j.label.startswith("disc"))
    assert mismatches == 0 and not any(r.failures for r in plain + traced)
    _check_spans(tracer)
    assert tracer.calls[APPEND] == 0
    assert tracer.calls["pairs.glue_pairs"] > 0
    assert tracer.inside["pairs.ConvenientPair.s@genpos.wgpp_transform"] > 0


def test_tracer_uninstall_restores_the_library():
    from cdhkit import convergence, homeos, spaces

    before = (homeos.compose, convergence.compose, spaces.CircleSpace.__dict__["metric"],
              workloads.collision_repair_gpp)
    tracer = Tracer(cdhkit, clients=[workloads])
    tracer.install()
    assert convergence.compose is homeos.compose is not before[0]
    assert workloads.collision_repair_gpp is not before[3]
    tracer.uninstall()
    assert (homeos.compose, convergence.compose, spaces.CircleSpace.__dict__["metric"],
            workloads.collision_repair_gpp) == before
