"""General position: collision reports, greedy placement, repairs, float stages."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdhkit.convergence import ConvergenceCertificate, reverify_ledger
from cdhkit.errors import IndexRange, PreconditionError, UnsupportedOperation
from cdhkit.genpos import (
    CollarShrinkStage,
    ConditionalMoveStage,
    FloatConditionalStage,
    PartitionPlan,
    WgppStage,
    block_regroup,
    boundary_chase,
    box_contains,
    check_general_position,
    check_regrouped_general_position,
    collision_repair_gpp,
    conditional_move_from_descriptor,
    greedy_dense_gp,
    wgpp_transform,
    _build_move,
)
from cdhkit.homeos import realize_finite_bijection, small_ball_transporter
from cdhkit.pairs import ConvenientPair, group_pair, vnorm
from cdhkit.rationals import floor_pow2, parse_scalar
from cdhkit.spaces import (
    BAIRE,
    CANTOR,
    CIRCLE,
    LINE,
    CoordwiseStage,
    DiscSpace,
    ProductPoint,
    ProductSpace,
    SymSeq,
    _wrap1,
)

F = Fraction


def _colliding_points():
    space = ProductSpace([CIRCLE, LINE, CIRCLE])
    rows = [(F(0), F(0), F(1, 2)), (F(0), F(1, 4), F(1, 2)), (F(1), F(1, 4), F(3, 4)),
            (F(1, 8), F(0), F(3, 2))]
    return space, [space.point(dict(enumerate(r))) for r in rows]


def _greedy(factor):
    space = ProductSpace.uniform(factor, working_depth=8)
    return space, greedy_dense_gp(space, 10)


def _singleton_plan(space):
    return PartitionPlan(tuple((a,) for a in space.indices()), {}, (), space.working_depth)


# ---------------------------------------------------------------------------
# collision reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["colliding", "greedy-circle", "greedy-cantor"])
def test_singleton_blocks_report_equals_plain_report(kind):
    if kind == "colliding":
        space, points = _colliding_points()
    else:
        space, result = _greedy(CIRCLE if kind == "greedy-circle" else CANTOR)
        points = result.points
    plain = check_general_position(points)
    assert check_regrouped_general_position(points, _singleton_plan(space)) == plain


_MIXED = ProductSpace([CIRCLE, LINE, CANTOR, DiscSpace(1)])
_MIXED_VALUES = (st.fractions(-2, 2, max_denominator=4), st.fractions(-2, 2, max_denominator=4),
                 st.builds(SymSeq, st.lists(st.integers(0, 1), max_size=2).map(tuple),
                           st.integers(0, 1)),
                 st.sampled_from([0.0, 0.5, 0.5 + 1e-13]).map(lambda v: (v,)))


@given(st.lists(st.tuples(*_MIXED_VALUES), max_size=6))
@settings(max_examples=80, deadline=None)
def test_keyed_report_agrees_with_pairwise_points_equal(rows):
    points = [_MIXED.point(dict(enumerate(r))) for r in rows]
    report = check_general_position(points)
    pairs = [(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))]
    equal = [[_MIXED.factor(a).points_equal(rows[i][a], rows[j][a]) for a in range(4)]
             for i, j in pairs]
    assert report.collisions == tuple((i, j, a) for (i, j), eq in zip(pairs, equal)
                                      for a in range(4) if eq[a])
    assert report.disagreements == {p: tuple(a for a in range(4) if not eq[a])
                                    for p, eq in zip(pairs, equal)}


def test_report_lists_every_collision_of_hand_made_points():
    _, points = _colliding_points()
    report = check_general_position(points)
    # 1 == 0 and 3/2 == 1/2 on the circle
    assert report.collisions == ((0, 1, 0), (0, 1, 2), (0, 2, 0), (0, 3, 1), (0, 3, 2),
                                 (1, 2, 0), (1, 2, 1), (1, 3, 2))
    assert report.disagreements[(2, 3)] == (0, 1, 2)
    assert not report.in_general_position


def test_block_report_counts_a_block_once():
    _, points = _colliding_points()
    plan = PartitionPlan(((0, 2), (1,)), {}, (), 3)
    report = check_regrouped_general_position(points, plan)
    assert report.depth == 2
    assert report.disagreements[(0, 1)] == (1,)
    assert report.collisions == ((0, 1, 0), (0, 3, 1), (1, 2, 1))


def test_empty_point_set_is_in_general_position():
    space, _ = _colliding_points()
    empty = check_general_position([])
    assert empty.in_general_position and empty.collisions == ()
    assert check_regrouped_general_position([], _singleton_plan(space)) == empty


# ---------------------------------------------------------------------------
# greedy placement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factor", [CIRCLE, LINE, CANTOR, BAIRE], ids=lambda f: f.kind)
def test_greedy_points_hit_their_boxes_and_differ_everywhere(factor):
    space, result = _greedy(factor)
    assert len(result.points) == 10
    for point, box in zip(result.points, result.boxes):
        assert box_contains(space, box, point)
    for i, p in enumerate(result.points):
        for q in result.points[i + 1:]:
            for a in space.indices():
                assert not factor.points_equal(p.coord(a), q.coord(a))


@pytest.mark.parametrize("factor", [CIRCLE, CANTOR], ids=lambda f: f.kind)
def test_greedy_points_read_back_from_json(factor):
    space, result = _greedy(factor)
    twist = wgpp_transform(result.points, lambda a: group_pair(factor))
    for p in (result.points[3], twist.points[3]):
        back = ProductPoint.de(space, json.loads(json.dumps(p.ser())))
        assert all(factor.points_equal(back.coord(a), p.coord(a)) for a in space.indices())


@pytest.mark.parametrize("factor, digest", [
    (CIRCLE, "8d93061f75cf53440df8d44acd56c8d10ab45426063dcd13ba74531b2aeea534"),
    (CANTOR, "ef599099bdba85b71121470bcd37b1f8fef69c091bd356cc61a14fae80535eff"),
], ids=["circle", "cantor"])
def test_marker_roots_serialize_to_pinned_bytes(factor, digest):
    # greedy roots and their twisted images carry a marker base; their
    # JSON is pinned byte for byte and reads back to the same JSON
    space, result = _greedy(factor)
    twist = wgpp_transform(result.points, lambda a: group_pair(factor))
    objs = [p.ser() for p in result.points + twist.points]
    doc = json.dumps(objs)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
    assert [ProductPoint.de(space, obj).ser() for obj in json.loads(doc)] == objs


# ---------------------------------------------------------------------------
# wgpp twist and block regrouping
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from([CIRCLE, CANTOR]), st.permutations(range(10)), st.integers(2, 10),
       st.sets(st.integers(1, 7)), st.integers(2, 4))
def test_wgpp_twist_and_regrouping_keep_their_guarantees(factor, order, n, collapsed, blocks):
    space, result = _greedy(factor)
    # collapsed coordinates fall back to the common base value, so pairs agree there
    points = [space.point({a: result.points[k].coord(a) for a in space.indices()
                           if a not in collapsed}) for k in order[:n]]
    before = check_general_position(points)
    twist = wgpp_transform(points, lambda a: group_pair(factor))
    assert 0 not in twist.omega
    for (i, j), dis in before.disagreements.items():
        p, q = twist.points[i], twist.points[j]
        for a in space.indices():
            if (a in twist.omega) != (a in dis):
                assert not factor.points_equal(p.coord(a), q.coord(a)), (i, j, a)
    inverse = twist.stage.inverse()
    for p, moved in zip(points, twist.points):
        back = moved.apply_stage(inverse)
        assert all(factor.points_equal(back.coord(a), p.coord(a)) for a in space.indices())

    plan = block_regroup(twist.points, space, omega_star=twist.omega, block_count=blocks)
    assert sorted(a for block in plan.blocks for a in block) == list(space.indices())
    assert all(a >= b for b, block in enumerate(plan.blocks) for a in block)
    for ((i, j), b), w in plan.witnesses.items():
        assert w in plan.blocks[b]
        assert not factor.points_equal(twist.points[i].coord(w), twist.points[j].coord(w))


@pytest.mark.parametrize("factor, blocks, digest", [
    (CIRCLE, 2, "772d2dd1a40437bc2b3b133bd49d5852fbbec957f2238eef3f4fcbf68b112bd4"),
    (CIRCLE, 3, "0f28111a4848bed8f33ff472ac17cc25ca3f493054fbf20b1243977a4a550db7"),
    (CIRCLE, 4, "80e1c9ef13164b441078b351653be1ed13af06fec062f1bf075b7063a8f316b2"),
    (CANTOR, 2, "772d2dd1a40437bc2b3b133bd49d5852fbbec957f2238eef3f4fcbf68b112bd4"),
    (CANTOR, 3, "984489471342390d03ff6381f40a76766258aac3c9af44c3b72147aecc07982c"),
    (CANTOR, 4, "80e1c9ef13164b441078b351653be1ed13af06fec062f1bf075b7063a8f316b2"),
], ids=["circle-2", "circle-3", "circle-4", "cantor-2", "cantor-3", "cantor-4"])
def test_block_regroup_plans_are_pinned(factor, blocks, digest):
    # the blocks and omega* traces of a greedy twist are pinned byte for
    # byte; every (pair, block) has one witness, inside its block, where
    # the pair differs
    space, result = _greedy(factor)
    twist = wgpp_transform(result.points, lambda a: group_pair(factor))
    plan = block_regroup(twist.points, space, omega_star=twist.omega, block_count=blocks)
    doc = json.dumps([plan.blocks, plan.omega_star_traces])
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
    pairs = check_general_position(twist.points).disagreements
    assert sorted(plan.witnesses) == sorted((p, b) for p in pairs for b in range(blocks))
    for ((i, j), b), w in plan.witnesses.items():
        assert w in plan.blocks[b]
        assert not factor.points_equal(twist.points[i].coord(w), twist.points[j].coord(w))


def test_wgpp_refuses_a_non_injective_first_projection():
    space = ProductSpace([CIRCLE, CIRCLE, CIRCLE])
    # points 0 and 1 collide first, at coordinate 1; points 1 and 2 at coordinate 0 (5/4 = 1/4)
    rows = [(F(0), F(1, 8), F(0)), (F(1, 4), F(1, 8), F(1, 2)), (F(5, 4), F(3, 8), F(1, 3))]
    points = [space.point(dict(enumerate(r))) for r in rows]
    with pytest.raises(PreconditionError, match=r"coordinate 0 is not injective \(points 1, 2\)"):
        wgpp_transform(points, lambda a: group_pair(CIRCLE))


def test_wgpp_without_big_pairs_twists_every_nonzero_index():
    space = ProductSpace.uniform(CIRCLE, working_depth=12)
    points = [space.point({0: F(i, 8), 1: F(i % 2, 2)}) for i in range(8)]
    before = check_general_position(points)
    twist = wgpp_transform(points, lambda a: group_pair(CIRCLE))
    assert twist.omega == frozenset(range(1, 12))
    for (i, j), dis in before.disagreements.items():
        for a in space.indices():
            if (a in twist.omega) != (a in dis):
                assert not CIRCLE.points_equal(twist.points[i].coord(a),
                                               twist.points[j].coord(a)), (i, j, a)


def test_block_regroup_refuses_more_blocks_than_disagreements():
    space = ProductSpace([CIRCLE, CIRCLE, CIRCLE])
    # the two points differ at coordinate 0 only
    points = [space.point({0: F(0)}), space.point({0: F(1, 2)})]
    with pytest.raises(PreconditionError, match="fewer than 2 blocks"):
        block_regroup(points, space, block_count=2)


@pytest.mark.parametrize("blocks", [0, -1])
def test_block_regroup_refuses_a_block_count_below_one(blocks):
    space = ProductSpace([CIRCLE, CIRCLE, CIRCLE])
    points = [space.point({0: F(0), 1: F(0)}), space.point({0: F(1, 2), 1: F(1, 2)})]
    with pytest.raises(PreconditionError, match="block_count must be at least 1"):
        block_regroup(points, space, block_count=blocks)


def test_unfocused_exact_pair_is_refused():
    space = ProductSpace([CIRCLE] * 3)
    points = [space.point({0: F(i, 4), 1: F(i, 5), 2: F(i, 7)}) for i in range(4)]
    # x + 2y separates most second arguments but merges y and y + 1/2
    pair = ConvenientPair(s=lambda x, y: _wrap1(x + 2 * y), t=lambda x, y: _wrap1(x - 2 * y))
    with pytest.raises(PreconditionError, match="not focused"):
        wgpp_transform(points, lambda a: pair)


def test_unfocused_float_pair_is_refused():
    space = ProductSpace([DiscSpace(1), DiscSpace(2)])
    points = [space.point({0: (0.1 * i,), 1: (0.2, 0.1 * i)}) for i in range(3)]
    pair = ConvenientPair(s=lambda x, y: x, t=lambda x, y: x)
    with pytest.raises(PreconditionError, match="not focused"):
        wgpp_transform(points, lambda a: pair)


def test_focus_check_evaluates_each_pair_image_once():
    _, result = _greedy(CIRCLE)
    pair = group_pair(CIRCLE)
    s, calls = pair.s, []

    def counted(x, y):
        calls.append((x, y))
        return s(x, y)

    pair.s = counted
    twist = wgpp_transform(result.points, lambda a: pair)
    n = len(result.points)
    xs = {p.coord(a) for a in twist.omega for p in result.points}
    # one shared s: each distinct x is checked once, against the n ys
    assert calls and len(calls) <= len(xs) * n
    assert len(set(calls)) == len(calls)


def _twisted_columns():
    """Eight circle points that differ only at coordinate 0: every nonzero
    index is twisted, and columns 3 and 5 hold 1/2 where the others hold 0."""
    space = ProductSpace.uniform(CIRCLE, working_depth=8)
    return [space.point({0: F(i, 8), 3: F(1, 2), 5: F(1, 2)}) for i in range(8)]


def test_focus_memo_keys_each_check_by_the_pairs_s():
    # columns 1 and 2 are identical; only index 2's pair merges y and y + 1/2
    def family(a):
        k = 2 if a == 2 else 1
        return ConvenientPair(s=lambda x, y: _wrap1(x + k * y), t=lambda x, y: _wrap1(x - k * y))

    with pytest.raises(PreconditionError, match="at index 2 is not focused"):
        wgpp_transform(_twisted_columns(), family)


def test_a_shared_unfocused_pair_is_refused_at_its_first_index():
    # unfocused at x = 1/2 only, which columns 3 and 5 hold
    def s(x, y):
        return _wrap1(x + (2 * y if x == F(1, 2) else y))

    pair = ConvenientPair(s=s, t=lambda x, y: x)
    with pytest.raises(PreconditionError, match="at index 3 is not focused"):
        wgpp_transform(_twisted_columns(), lambda a: pair)


# ---------------------------------------------------------------------------
# collision repair
# ---------------------------------------------------------------------------

def test_repair_history_strictly_decreases_to_general_position():
    space, points = _colliding_points()
    result = collision_repair_gpp(points, space)
    history = result.collision_history
    assert history[0] == len(check_general_position(points).collisions)
    assert all(b < a for a, b in zip(history, history[1:]))
    assert history[-1] == 0
    assert result.moves == result.certificate.stage_count == len(history) - 1
    assert check_general_position(result.points).in_general_position


def test_repair_refuses_a_countable_product():
    space = ProductSpace.uniform(CIRCLE, working_depth=4)
    with pytest.raises(PreconditionError, match="finite product"):
        collision_repair_gpp([space.point(), space.point({0: F(1, 2)})], space)


def test_repair_refuses_a_cantor_factor():
    space = ProductSpace([CIRCLE, CANTOR])
    with pytest.raises(UnsupportedOperation, match="not cantor"):
        collision_repair_gpp([space.point(), space.point({0: F(1, 2)})], space)


def test_repair_refuses_identical_points():
    space = ProductSpace([CIRCLE, LINE])
    with pytest.raises(PreconditionError, match="identical"):
        collision_repair_gpp([space.point({0: F(1, 4)}), space.point({0: F(5, 4)})], space)


_GRID = st.integers(-16, 31).map(lambda k: F(k, 16))


@st.composite
def _dyadic_repair_inputs(draw):
    kinds = draw(st.lists(st.sampled_from([CIRCLE, LINE]), min_size=2, max_size=4))
    space = ProductSpace(kinds)
    rows = draw(st.lists(st.tuples(*[_GRID] * len(kinds)), min_size=2, max_size=8,
                         unique_by=lambda r: tuple(_wrap1(v) if f is CIRCLE else v
                                                   for f, v in zip(kinds, r))))
    return space, [space.point(dict(enumerate(r))) for r in rows]


def _is_pow2(x: Fraction) -> bool:
    x = abs(x)
    return x > 0 and x == floor_pow2(x)


@given(_dyadic_repair_inputs())
@settings(max_examples=60, deadline=None)
def test_repair_replays_its_history_and_keeps_dyadic_data_dyadic(inputs):
    space, points = inputs
    result = collision_repair_gpp(points, space)
    stages = result.certificate.stages
    pts = list(points)
    assert len(check_general_position(pts).collisions) == result.collision_history[0]
    for k, stage in enumerate(stages, 1):
        # the move's target is a fresh value of its coordinate
        factor = space.factor(stage.alpha)
        target = stage.u_center + stage.shift
        assert not any(factor.points_equal(p.coord(stage.alpha), target) for p in pts)
        pts = [p.apply_stage(stage) for p in pts]
        assert len(check_general_position(pts).collisions) == result.collision_history[k]
    assert check_general_position(pts).in_general_position
    assert all(_is_pow2(stage.shift) for stage in stages)
    assert all(_is_pow2(F(1, p.coord(a).denominator))
               for p in result.points for a in space.indices())


@pytest.mark.parametrize("n", [8, 16])
def test_circle4_repair_keeps_values_printable(n):
    space = ProductSpace([CIRCLE] * 4)
    points = [space.point({0: F(i, n - 1), 1: F(i % 2, 3)}) for i in range(n)]
    result = collision_repair_gpp(points, space)
    assert check_general_position(result.points).in_general_position
    json.dumps(result.certificate.describe())  # ValueError past the int-to-str digit limit
    assert max(stage.shift.denominator.bit_length() for stage in result.certificate.stages) <= 64


def test_long_move_ledger_stays_short_and_re_verifies():
    # moves sized by the repair's own builder, each from the certificate so far
    rng = random.Random(7)
    space = ProductSpace([CIRCLE, LINE] * 3)
    pts = [space.point({a: F(rng.randrange(8), 8) for a in range(6)}) for _ in range(16)]
    cert = ConvergenceCertificate(space)
    for _ in range(240):
        alpha, beta = rng.sample(range(6), 2)
        cert = cert.append(_build_move(space, pts, rng.randrange(len(pts)), alpha, beta, cert))
    # the unrounded product of the stages' bounds passes 20,000 bits, and
    # printing it raises ValueError past the int-to-str digit limit
    doc = json.loads(json.dumps(cert.describe()))
    for entry in doc["ledger"][1:]:
        # cond2_value = lip_inv * cond1_value, lip_inv rounded up to m/2^e
        lip = parse_scalar(entry["cond2_value"]) / parse_scalar(entry["cond1_value"])
        assert lip.numerator < 1 << 32 and lip.denominator <= 1 << 32
    stages = [conditional_move_from_descriptor(space, d) for d in doc["stages"]]
    verdicts = reverify_ledger(space, stages, doc["ledger"])
    assert len(verdicts) == len(stages) and all(v["ok"] for v in verdicts)


def test_gated_moves_refuse_a_gate_they_cannot_invert_or_certify():
    space = ProductSpace([LINE, LINE])
    desc = ConditionalMoveStage(space, 0, 1, 0, F(1, 4), F(3, 16), 0, F(1, 4)).descriptor()
    assert conditional_move_from_descriptor(space, desc).descriptor() == desc
    # gated on itself the move is not monotone; a gate radius <= 0 gives a
    # Lipschitz bound of 0 or divides by zero
    for bad, match in [({"beta": 0}, "gated on itself"),
                       ({"gate_radius": "-1/4"}, "not positive"),
                       ({"gate_radius": "0/1"}, "not positive")]:
        with pytest.raises(PreconditionError, match=match):
            conditional_move_from_descriptor(space, {**desc, **bad})
    discs = ProductSpace([DiscSpace(2), DiscSpace(1)])
    with pytest.raises(PreconditionError, match="gated on itself"):
        FloatConditionalStage(discs, 0, 0, (0.0, 0.0), 0.25, (0.01, 0.0), (0.0, 0.0), 0.25)
    with pytest.raises(PreconditionError, match="not positive"):
        FloatConditionalStage(discs, 0, 1, (0.0, 0.0), 0.25, (0.01, 0.0), (0.0,), 0.0)
    # a shift as long as the bump radius folds the disc; a radius of 0 divides by zero
    for u_radius, shift in [(0.1, (0.1, 0.0)), (0.1, (0.0, -0.3)), (0.0, (0.0, 0.0))]:
        with pytest.raises(PreconditionError, match="inside the bump radius"):
            FloatConditionalStage(discs, 0, 1, (0.0, 0.0), u_radius, shift, (0.0,), 0.25)


def test_malformed_conditional_move_descriptors_raise_typed_errors():
    space = ProductSpace([CIRCLE, LINE])
    desc = ConditionalMoveStage(space, 1, 0, 0, F(1, 4), F(1, 8), 0, F(1, 4)).descriptor()
    missing = {k: v for k, v in desc.items() if k != "u_radius"}
    for bad, cause in [(missing, KeyError), ({**desc, "shift": "x"}, ValueError),
                       ({**desc, "shift": "1/0"}, ZeroDivisionError),
                       ({**desc, "alpha": "1"}, TypeError)]:
        with pytest.raises(PreconditionError, match="malformed") as info:
            conditional_move_from_descriptor(space, bad)
        assert isinstance(info.value.__cause__, cause)
    with pytest.raises(IndexRange):  # CdhErrors pass unchanged
        conditional_move_from_descriptor(space, {**desc, "alpha": 2})


def test_repair_compares_coordinates_per_move_not_per_pair(monkeypatch):
    rng = random.Random(3)
    space = ProductSpace([CIRCLE, LINE, CIRCLE, LINE])
    rows: set = set()
    while len(rows) < 8:
        rows.add(tuple(F(rng.randrange(4), 4) for _ in range(4)))
    points = [space.point(dict(enumerate(r))) for r in sorted(rows)]
    calls = []
    for cls in (type(CIRCLE), type(LINE)):
        for name in ("points_equal", "metric"):
            def counted(self, x, y, _f=getattr(cls, name)):
                calls.append(1)
                return _f(self, x, y)
            monkeypatch.setattr(cls, name, counted)
    result = collision_repair_gpp(points, space)
    assert result.moves > 4
    # two gaps per point and move (bump and gate radii), no pairwise tests
    assert len(calls) <= 2 * result.moves * len(points)


def test_repair_outputs_are_pinned():
    # the certificate document and the repaired points of a seeded
    # circle/line repair, bit for bit
    rng = random.Random(11)
    space = ProductSpace([CIRCLE, LINE, LINE, CIRCLE])
    rows: list = []
    while len(rows) < 8:
        row = tuple(F(rng.randrange(8), 8) for _ in range(4))
        if row not in rows:
            rows.append(row)
    result = collision_repair_gpp([space.point(dict(enumerate(r))) for r in rows], space)
    assert result.moves == 12
    doc = json.dumps({"certificate": result.certificate.describe(),
                      "points": [p.ser() for p in result.points]})
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "af6126214ea4013d5c43ec87b7f8279717b9d3c09e61319489ba55a5d573711f")


# ---------------------------------------------------------------------------
# boundary chase
# ---------------------------------------------------------------------------

_CHASE_SPACE = ProductSpace([DiscSpace(1), DiscSpace(2), DiscSpace(2)])
# three points share coordinate 0; the last lies on the sphere at coordinate 1
_CHASE_ROWS = [((0.2,), (0.1, 0.0), (0.0, 0.3)),
               ((0.2,), (-0.4, 0.2), (0.0, 0.3)),
               ((0.2,), (0.1, 0.0), (0.5, -0.5)),
               ((-0.3,), (1.0, 0.0), (0.2, 0.2))]


def _chase_points(rows):
    return [_CHASE_SPACE.point(dict(enumerate(r))) for r in rows]


def test_boundary_chase_pulls_points_inside_and_separates_coordinate_0():
    space, points = _CHASE_SPACE, _chase_points(_CHASE_ROWS)
    result = boundary_chase(points, space)
    shrink, *moves = result.stages
    assert isinstance(shrink, CollarShrinkStage)
    assert moves and all(isinstance(s, FloatConditionalStage) for s in moves)
    for p in result.points:
        assert all(vnorm(p.coord(a)) < 1.0 - space.factor(a).tolerance for a in space.indices())
    for i, p in enumerate(result.points):
        for q in result.points[i + 1:]:
            assert not space.factor(0).points_equal(p.coord(0), q.coord(0))
    back = result.points
    for stage in reversed(result.stages):
        back = [p.apply_stage(stage.inverse()) for p in back]
    for p, q in zip(back, points):
        assert all(space.factor(a).metric(p.coord(a), q.coord(a)) <= 1e-12 for a in space.indices())


def test_boundary_chase_outputs_are_pinned():
    # the chase's stage descriptors, the chased coordinates and the
    # coordinates mapped back through the float inverses, bit for bit
    space, points = _CHASE_SPACE, _chase_points(_CHASE_ROWS)
    result = boundary_chase(points, space)
    back = result.points
    for stage in reversed(result.stages):
        back = [p.apply_stage(stage.inverse()) for p in back]
    out = ([s.descriptor() for s in result.stages],
           [[p.coord(a) for a in space.indices()] for p in result.points + back])
    assert len(result.stages) == 3
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "ec988241619445cc9b90bb95b7555a0849bef67c25b8714ba8745ccd2b216d6c")


def test_boundary_chase_leaves_interior_injective_input_alone():
    points = _chase_points([_CHASE_ROWS[0], ((-0.5,), (0.3, 0.3), (0.0, 0.0))])
    result = boundary_chase(points, _CHASE_SPACE)
    assert result.stages == [] and result.points == points


def test_boundary_chase_refusals():
    twins = _chase_points([_CHASE_ROWS[0], _CHASE_ROWS[0]])
    with pytest.raises(PreconditionError, match="identical"):
        boundary_chase(twins, _CHASE_SPACE)
    space = ProductSpace([CIRCLE, DiscSpace(2)])
    with pytest.raises(UnsupportedOperation):
        boundary_chase([space.point()], space)


# ---------------------------------------------------------------------------
# float stages: fixed-point inverses
# ---------------------------------------------------------------------------

def test_float_conditional_stage_round_trip():
    space = ProductSpace([DiscSpace(2), DiscSpace(1)])
    stage = FloatConditionalStage(space, 0, 1, (0.1, 0.0), 0.3, (0.05, 0.02), (0.2,), 0.4)
    rng = random.Random(3)
    moved_any = False
    for _ in range(50):
        u = (0.1 + rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
        p = space.point({0: u, 1: (0.2 + rng.uniform(-0.3, 0.3),)})
        image = p.apply_stage(stage)
        back = image.apply_stage(stage.inverse())
        moved_any |= space.factor(0).metric(image.coord(0), u) > 1e-3
        for a in space.indices():
            assert space.factor(a).metric(back.coord(a), p.coord(a)) <= 1e-12
    assert moved_any


# ---------------------------------------------------------------------------
# baire realizer: suffix offsets undone by the inverse
# ---------------------------------------------------------------------------

def test_baire_bijection_with_suffix_offsets_round_trips():
    sigma = {
        SymSeq((1, 2, 3), 0): SymSeq((2, 5), 7),
        SymSeq((4,), -1): SymSeq((0, 0, 9), 0),
        SymSeq((0, -3), 2): SymSeq((5, 1, 1, 1), 1),
    }
    h = realize_finite_bijection(BAIRE, sigma)
    assert h.masks  # the suffixes really are translated
    h_inv = h.invert()
    for x, y in sigma.items():
        assert h.apply(x) == y
        assert h_inv.apply(y) == x
    rng = random.Random(5)
    for _ in range(100):
        z = SymSeq(tuple(rng.randint(-3, 6) for _ in range(rng.randint(0, 6))), rng.randint(-2, 2))
        assert h_inv.apply(h.apply(z)) == z
        assert h.apply(h_inv.apply(z)) == z


# ---------------------------------------------------------------------------
# canonical circle points: every stage keeps circle values in [0, 1)
# ---------------------------------------------------------------------------

_UNIT = st.integers(0, 63).map(lambda k: F(k, 64))
_RADIUS = st.integers(1, 32).map(lambda k: F(k, 64))
_INSIDE = st.integers(-63, 63).map(lambda k: F(k, 64))


@st.composite
def _circle_stages(draw):
    """A canonical point of circle^3 and one stage of each exact kind that
    acts on circle coordinates; the point sits inside the move's bump and
    gate, so the move shifts it."""
    space = ProductSpace([CIRCLE] * 3)
    alpha, beta, other = draw(st.permutations(range(3)))
    u_c, g_c = draw(_UNIT), draw(_UNIT)
    r_u, r_v = draw(_RADIUS), draw(_RADIUS)
    move = ConditionalMoveStage(space, alpha, beta, u_c, r_u, r_u * draw(_INSIDE), g_c, r_v)
    point = space.point({alpha: u_c + r_u * draw(_INSIDE), beta: g_c + r_v * draw(_INSIDE),
                         other: draw(_UNIT)})
    twist = WgppStage(frozenset({1, 2}), {1: group_pair(CIRCLE), 2: group_pair(CIRCLE)})
    center, target = draw(_UNIT), draw(_UNIT)
    delta = CIRCLE.metric(center, target) + draw(_RADIUS)
    n = draw(st.integers(1, 3))  # three points always fit one orientation
    keys = draw(st.lists(_UNIT, min_size=n, max_size=n, unique=True))
    values = draw(st.lists(_UNIT, min_size=n, max_size=n, unique=True))
    maps = CoordwiseStage({0: small_ball_transporter(CIRCLE, center, target, delta),
                           2: realize_finite_bijection(CIRCLE, dict(zip(keys, values)))})
    return point, [move, twist, maps]


@given(_circle_stages())
@settings(max_examples=150, deadline=None)
def test_stages_send_canonical_circle_points_to_canonical_points(inputs):
    point, stages = inputs
    for stage in stages:
        for image in (point.apply_stage(stage), point.apply_stage(stage.inverse())):
            assert all(0 <= image.coord(a) < 1 for a in range(3)), stage.descriptor()
