"""Per-layer metrics of a traced run, computed from the tracer's counts.

Counts and self times are means per traced job, so runs that finish a
different number of rounds stay comparable; `*_max` values are maxima over
the run.  Self time is span time minus the time of child spans;
`<module>.build_self_s` over `trace.build_wall_s` is the share of build
time spent in that module.  Times here are raw seconds of the traced run.
"""

from __future__ import annotations

import statistics

from cdhkit.convergence import ConvergenceCertificate
from cdhkit.homeos import FactorHomeo
from cdhkit.spaces import FactorSpace, ProductStage
from tracer import APPEND, TRACED_MODULES

# name -> unit; the order is the order of the output
PER_LAYER = {
    "spaces.coord_calls": "count",
    "spaces.coord_self_s": "s",
    "spaces.stage_evals": "count",
    "spaces.stage_evals_per_coord": "ratio",
    "spaces.metric_calls": "count",
    "spaces.seq_ops": "count",
    "spaces.pick_calls": "count",
    "homeos.compose_calls": "count",
    "homeos.compose_self_s": "s",
    "homeos.invert_calls": "count",
    "homeos.invert_self_s": "s",
    "homeos.apply_calls": "count",
    "homeos.apply_self_s": "s",
    "homeos.sup_disp_self_s": "s",
    "homeos.breaks_max": "count",
    "homeos.table_max": "count",
    "homeos.value_bits_max": "bits",
    "convergence.append_calls": "count",
    "convergence.append_self_s": "s",
    "convergence.compose_per_append": "ratio",
    "convergence.refused_appends": "count",
    "convergence.apply_self_s": "s",
    "convergence.reverify_self_s": "s",
    "convergence.lip_bits": "bits",
    "genpos.check_gp_calls": "count",
    "genpos.check_gp_self_s": "s",
    "genpos.repair_self_s": "s",
    "genpos.moves": "count",
    "genpos.collisions_per_move": "ratio",
    "genpos.shift_bits_max": "bits",
    "genpos.greedy_self_s": "s",
    "genpos.pick_accept_ratio": "ratio",
    "genpos.wgpp_self_s": "s",
    "genpos.focus_evals": "count",
    "genpos.regroup_self_s": "s",
    "genpos.chase_self_s": "s",
    "pairs.glue_calls": "count",
    "pairs.glue_self_s": "s",
    "pairs.charts_max": "count",
    "pairs.pair_evals": "count",
    "rationals.parse_calls": "count",
    "rationals.parse_self_s": "s",
    "rationals.format_self_s": "s",
    **{f"{m}.build_self_s": "s" for m in TRACED_MODULES},
    "trace.build_wall_s": "s",
    "errors.failed": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

CERT_APPLY = ("apply", "apply_inv", "partial", "partial_inv", "limit_eval", "limit_inv_eval")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced: list, untraced: list) -> dict:
    """`traced` and `untraced` are the JobResults of the same jobs."""
    jobs = max(1, len(traced))
    t = tracer

    def calls(names) -> float:
        return t.total_calls(names) / jobs

    def self_s(names) -> float:
        return t.total_self(names) / jobs

    def extra(key) -> list:
        return [r.extras[key] for r in traced if key in r.extras]

    coord = ["spaces.ProductPoint.coord"]
    stage_evals = t.names(attr=("image_coord", "preimage_coord"), base=ProductStage)
    metric = t.names(attr=("metric", "points_equal"), base=FactorSpace)
    seq = ["spaces.SymSeq.first_diff", "spaces.seq_zip"]
    pick = t.names(attr=("pick_in",), base=FactorSpace)
    invert = t.names(attr=("invert",), base=FactorHomeo)
    apply = t.names(attr=("apply",), base=FactorHomeo)
    disp = t.names(attr=("sup_displacement",), base=FactorHomeo) + ["homeos.sup_displacement"]
    cert_apply = t.names(attr=CERT_APPLY, base=ConvergenceCertificate)
    pair_evals = ["pairs.ConvenientPair.s", "pairs.ConvenientPair.t"]
    greedy_picks = sum(v for k, v in t.inside.items() if k.endswith("pick_in@genpos.greedy_dense_gp"))
    build_wall = sum(wall for _, kind, wall, _ in t.ops if kind == "build")
    traced_s = sum(s for r in traced for _, s, _ in r.ops)
    untraced_s = sum(s for r in untraced for _, s, _ in r.ops)
    return {
        "spaces.coord_calls": calls(coord),
        "spaces.coord_self_s": self_s(coord),
        "spaces.stage_evals": calls(stage_evals),
        "spaces.stage_evals_per_coord": _ratio(t.total_calls(stage_evals), t.total_calls(coord)),
        "spaces.metric_calls": calls(metric),
        "spaces.seq_ops": calls(seq),
        "spaces.pick_calls": calls(pick),
        "homeos.compose_calls": calls(["homeos.compose"]),
        "homeos.compose_self_s": self_s(["homeos.compose"]),
        "homeos.invert_calls": calls(invert),
        "homeos.invert_self_s": self_s(invert),
        "homeos.apply_calls": calls(apply),
        "homeos.apply_self_s": self_s(apply),
        "homeos.sup_disp_self_s": self_s(disp),
        "homeos.breaks_max": t.maxima["breaks"],
        "homeos.table_max": t.maxima["table"],
        "homeos.value_bits_max": t.maxima["value_bits"],
        "convergence.append_calls": calls([APPEND]),
        "convergence.append_self_s": self_s([APPEND]),
        "convergence.compose_per_append": _ratio(t.inside[f"homeos.compose@{APPEND}"],
                                                 t.calls[APPEND]),
        "convergence.refused_appends": t.raised[APPEND]["BoundViolation"] / jobs,
        "convergence.apply_self_s": self_s(cert_apply),
        "convergence.reverify_self_s": self_s(["convergence.reverify_ledger"]),
        "convergence.lip_bits": statistics.median(extra("lip_bits")) if extra("lip_bits") else 0,
        "genpos.check_gp_calls": calls(["genpos.check_general_position"]),
        "genpos.check_gp_self_s": self_s(["genpos.check_general_position"]),
        "genpos.repair_self_s": self_s(["genpos.collision_repair_gpp"]),
        "genpos.moves": t.inside[f"{APPEND}@genpos.collision_repair_gpp"] / jobs,
        "genpos.collisions_per_move": _ratio(sum(extra("initial_collisions")), sum(extra("moves"))),
        "genpos.shift_bits_max": max(extra("shift_bits"), default=0),
        "genpos.greedy_self_s": self_s(["genpos.greedy_dense_gp"]),
        "genpos.pick_accept_ratio": _ratio(sum(extra("placed")), greedy_picks),
        "genpos.wgpp_self_s": self_s(["genpos.wgpp_transform"]),
        "genpos.focus_evals": t.inside["pairs.ConvenientPair.s@genpos.wgpp_transform"] / jobs,
        "genpos.regroup_self_s": self_s(["genpos.block_regroup"]),
        "genpos.chase_self_s": self_s(["genpos.boundary_chase"]),
        "pairs.glue_calls": calls(["pairs.glue_pairs"]),
        "pairs.glue_self_s": self_s(["pairs.glue_pairs"]),
        "pairs.charts_max": t.maxima["charts"],
        "pairs.pair_evals": calls(pair_evals),
        "rationals.parse_calls": calls(["rationals.parse_scalar"]),
        "rationals.parse_self_s": self_s(["rationals.parse_scalar"]),
        "rationals.format_self_s": self_s(["rationals.format_scalar"]),
        **{f"{m}.build_self_s": t.module_self[(m, "build")] / jobs for m in TRACED_MODULES},
        "trace.build_wall_s": build_wall / jobs,
        "errors.failed": sum(len(r.failures) for r in traced) / jobs,
        "trace.overhead_s": (traced_s - untraced_s) / jobs,
        "trace.overhead_ratio": _ratio(traced_s, untraced_s),
    }
