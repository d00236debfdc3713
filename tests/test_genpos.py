"""General position: collision reports, greedy placement, repairs, float stages."""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdhkit.convergence import ConvergenceCertificate, reverify_ledger
from cdhkit.errors import IndexRange, PreconditionError, SpaceMismatch, UnsupportedOperation
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
    product_boxes,
    wgpp_transform,
    _MOVE_SCALARS,
    _agreeing,
    _ball,
    _build_move,
    _clearance,
    _gate_index,
    _gated_move,
    _in_ball,
    _neighbours,
)
from cdhkit.homeos import realize_finite_bijection, small_ball_transporter
from cdhkit.pairs import ConvenientPair, group_pair, vnorm
from cdhkit.rationals import floor_pow2, format_scalar, parse_scalar, pow2
from cdhkit.spaces import (
    BAIRE,
    CANTOR,
    CIRCLE,
    FLOAT_TOLERANCE,
    LINE,
    CoordwiseStage,
    DiscSpace,
    ProductPoint,
    ProductSpace,
    ProductStage,
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
                 # 0.5 ~ 0.5 + 9e-10 ~ 0.5 + 1.8e-9, but the ends lie 1.8e-9 apart:
                 # tolerance equality is not transitive
                 st.sampled_from([0.0, 0.5, 0.5 + 1e-13, 0.5 + 9e-10, 0.5 + 1.8e-9])
                 .map(lambda v: (v,)))


@given(st.lists(st.tuples(*_MIXED_VALUES), max_size=6), st.integers(1, 5),
       st.lists(st.integers(0, 4), min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_report_agrees_with_pairwise_points_equal(rows, count, owner):
    points = [_MIXED.point(dict(enumerate(r))) for r in rows]
    pairs = [(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))]
    equal = [[_MIXED.factor(a).points_equal(rows[i][a], rows[j][a]) for a in range(4)]
             for i, j in pairs]
    drawn = tuple(tuple(a for a in range(4) if owner[a] % count == b) for b in range(count))
    # blocks may be empty: a pair agrees at every index of an empty block
    for blocks, report in [
        (tuple((a,) for a in range(4)), check_general_position(points)),
        (drawn, check_regrouped_general_position(points, PartitionPlan(drawn, {}, (), 4))),
    ]:
        same = [[all(eq[a] for a in block) for block in blocks] for eq in equal]
        assert report.collisions == tuple((i, j, b) for (i, j), sm in zip(pairs, same)
                                          for b in range(len(blocks)) if sm[b])
        assert report.disagreements == {p: tuple(b for b in range(len(blocks)) if not sm[b])
                                        for p, sm in zip(pairs, same)}


def test_general_position_check_keys_sequence_values_instead_of_comparing_pairs(monkeypatch):
    _, result = _greedy(CANTOR)
    points = result.points
    calls = []

    def counted(self, other, _eq=SymSeq.__eq__):
        calls.append(1)
        return _eq(self, other)

    monkeypatch.setattr(SymSeq, "__eq__", counted)
    assert check_general_position(points).in_general_position
    # pairwise tests would make 45 pairs x 8 indices = 360 calls
    assert len(calls) <= len(points) * 8


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


@pytest.mark.parametrize("blocks", [2.5, "2", True, None], ids=repr)
def test_block_regroup_refuses_a_block_count_that_is_not_an_int(blocks):
    # 2.5 raised a bare TypeError from range, "2" one from a comparison, and
    # True was taken as one block
    space = ProductSpace([CIRCLE, CIRCLE, CIRCLE])
    points = [space.point({0: F(0), 1: F(0)}), space.point({0: F(1, 2), 1: F(1, 2)})]
    with pytest.raises(PreconditionError, match=re.escape(f"block_count {blocks!r} is not an int")):
        block_regroup(points, space, block_count=blocks)


@pytest.mark.parametrize("count", [1.5, "3", True, -1], ids=repr)
def test_greedy_refuses_a_count_that_is_not_an_int_of_at_least_0(count):
    space = ProductSpace.uniform(CIRCLE, working_depth=8)
    refusal = re.escape(f"point count {count!r} is not an int >= 0")
    with pytest.raises(PreconditionError, match=refusal):
        greedy_dense_gp(space, count)
    assert greedy_dense_gp(space, 0).points == []


@pytest.mark.parametrize("count", [1.5, True, "3", -1, None], ids=repr)
def test_product_boxes_refuses_a_count_that_is_not_an_int_of_at_least_0(count):
    # 1.5 gave 2 boxes, True 1 box, and "3" raised a bare TypeError
    space = ProductSpace.uniform(CIRCLE, working_depth=8)
    with pytest.raises(PreconditionError, match=re.escape(f"box count {count!r} is not an int >= 0")):
        product_boxes(space, count)
    assert product_boxes(space, 0) == [] and len(product_boxes(space, 2)) == 2


def _greedy_by_rebuilt_sets(space, count):
    """The greedy loop that rebuilds every index's set of values, and the
    union of supports, for each new point."""
    boxes = product_boxes(space, count)
    points = []
    for k in range(count):
        box = boxes[k]
        relevant = set(box) | {a for p in points for a in p.support()}
        overrides = {}
        for a in sorted(relevant):
            factor = space.factor(a)
            avoid = {p.coord(a) for p in points}
            target = box.get(a)
            if target is None:
                if factor.marker(k) not in avoid:
                    continue
                target = factor.basic_open(0)
            overrides[a] = next(v for v in (factor.pick_in(target, salt)
                                             for salt in range(len(avoid) + 1)) if v not in avoid)
        points.append(ProductPoint(space, k, overrides))
    return points


_GREEDY_FACTORS = st.sampled_from([CIRCLE, LINE, CANTOR, BAIRE])


@st.composite
def _greedy_spaces(draw):
    if draw(st.booleans()):
        return ProductSpace.uniform(draw(_GREEDY_FACTORS), working_depth=draw(st.integers(1, 10)))
    return ProductSpace(draw(st.lists(_GREEDY_FACTORS, min_size=1, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(_greedy_spaces(), st.integers(0, 24))
def test_greedy_equals_the_loop_that_rebuilds_its_sets(space, count):
    # the same markers and the same overrides, index for index in the same order
    expected = _greedy_by_rebuilt_sets(space, count)
    points = greedy_dense_gp(space, count).points
    assert [p.marker for p in points] == [p.marker for p in expected] == list(range(count))
    assert [list(p.overrides.items()) for p in points] == \
        [list(p.overrides.items()) for p in expected]


def _witnesses_by_scanning(report, block_count):
    """block_regroup's witness walk, each owned disagreement found by
    scanning the pair's whole disagreement tuple; None where it refuses."""
    owner, witnesses = {}, {}
    for b in reversed(range(block_count)):
        for p, dis in report.disagreements.items():
            owned = [a for a in dis if owner.get(a) == b]
            if owned:
                w = min(owned)
            else:
                free = [a for a in dis if a not in owner and a >= b]
                if not free:
                    return None
                w = max(free)
                owner[w] = b
            witnesses[(p, b)] = w
    return witnesses


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), st.data())
def test_block_regroup_witnesses_equal_a_scan_of_every_disagreement(depth, data):
    space = ProductSpace([CIRCLE] * depth)
    palette = [F(0), F(1, 2), F(1, 4)]
    rows = data.draw(st.lists(st.lists(st.sampled_from(palette), min_size=depth, max_size=depth),
                              min_size=2, max_size=7, unique_by=tuple))
    blocks = data.draw(st.integers(1, 4))
    points = [space.point(dict(enumerate(r))) for r in rows]
    report = check_general_position(points)
    expected = _witnesses_by_scanning(report, blocks)
    if min(len(d) for d in report.disagreements.values()) < blocks or expected is None:
        with pytest.raises(PreconditionError):
            block_regroup(points, space, block_count=blocks)
        return
    assert block_regroup(points, space, block_count=blocks).witnesses == expected


def test_block_regroup_witnesses_of_greedy_twists_equal_the_scan():
    for factor in (CIRCLE, CANTOR):
        space = ProductSpace.uniform(factor, working_depth=24)
        twist = wgpp_transform(greedy_dense_gp(space, 24).points, lambda a: group_pair(factor))
        report = check_general_position(twist.points)
        for blocks in (2, 3, 4):
            plan = block_regroup(twist.points, space, omega_star=twist.omega, block_count=blocks)
            assert plan.witnesses == _witnesses_by_scanning(report, blocks)


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


def test_focus_check_evaluates_each_pair_image_once(monkeypatch):
    space, result = _greedy(CIRCLE)
    pair = group_pair(CIRCLE)
    s, focus, images, staging = pair.s, [], [], []

    def counted(x, y):
        (images if staging else focus).append((x, y))
        return s(x, y)

    image_coord = WgppStage.image_coord

    def staged(stage, get, alpha):
        staging.append(alpha)
        try:
            return image_coord(stage, get, alpha)
        finally:
            staging.pop()

    monkeypatch.setattr(WgppStage, "image_coord", staged)
    pair.s = counted
    twist = wgpp_transform(result.points, lambda a: pair)
    n = len(result.points)
    xs = {p.coord(a) for a in twist.omega for p in result.points}
    # the focus check shares one s: each distinct x is checked once, against the n ys
    assert focus and len(focus) <= len(xs) * n
    assert len(set(focus)) == len(focus)
    # the twist stage: one image per twisted coordinate of each point, made
    # as the stage is applied, and none on a read
    assert len(images) == len(twist.omega) * n
    for p in twist.points:
        for a in space.indices():
            p.coord(a)
    assert len(images) == len(twist.omega) * n


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
    # an int 1 is stored as the circle point 0, which it equals
    with pytest.raises(PreconditionError, match="identical"):
        collision_repair_gpp([space.point({0: 1, 1: F(1, 3)}), space.point({1: F(1, 3)})], space)
    with pytest.raises(PreconditionError, match="bool True at index 0"):
        space.point({0: True, 1: F(1, 3)})


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


def test_gated_moves_refuse_data_outside_their_proofs():
    # a circle bump past 1/2 wraps past the antipode: its "inverse" sent the
    # image 14/25 of 9/20 to 7/15; a line gate past 1 outgrows the capped
    # line metric: lip_backward_bound() read 4 where a pair gives about 6.23
    bad = [(ProductSpace([CIRCLE, LINE]), (0, 1, F(0), F(1), F(1, 5), F(0), F(1, 4)),
            "circle bump radius 1 is above 1/2"),
           (ProductSpace([LINE] * 6), (0, 5, F(0), F(1, 2), F(1, 4), F(0), F(8)),
            "line gate radius 8 is above 1")]
    for space, args, match in bad:
        with pytest.raises(PreconditionError, match=match):
            ConditionalMoveStage(space, *args)
        desc = {"stage": "conditional-move", "alpha": args[0], "beta": args[1],
                **{name: format_scalar(x) for name, x in zip(_MOVE_SCALARS, args[2:])}}
        with pytest.raises(PreconditionError, match=match):
            conditional_move_from_descriptor(space, desc)
    # the widest data the proofs cover still builds
    for space, args in [(ProductSpace([CIRCLE, LINE]), (0, 1, 0, F(1, 2), F(1, 4), 0, 1)),
                        (ProductSpace([LINE, CIRCLE]), (0, 1, 0, F(3), F(1, 4), 0, F(3)))]:
        ConditionalMoveStage(space, *args)


@pytest.mark.parametrize("scalar", [0.1, True, False, "1/4", None, 1.0])
def test_an_exact_gated_move_takes_only_int_or_fraction_scalars(scalar):
    space = ProductSpace([CIRCLE, LINE])
    args = [F(1, 2), F(1, 4), F(1, 8), F(0), F(1, 4)]
    for k in range(len(args)):
        with pytest.raises(PreconditionError, match="is not exact"):
            ConditionalMoveStage(space, 0, 1, *args[:k], scalar, *args[k + 1:])


def test_a_float_gated_move_refuses_coordinates_that_are_not_disc_coordinates():
    args = ((0.0,), 0.25, (0.01,), (0.0,), 0.25)
    for factors in [(CIRCLE, DiscSpace(1)), (DiscSpace(1), LINE)]:
        with pytest.raises(PreconditionError, match="needs disc coordinates"):
            FloatConditionalStage(ProductSpace(factors), 0, 1, *args)
    with pytest.raises(PreconditionError, match="needs circle or line coordinates"):
        ConditionalMoveStage(ProductSpace([DiscSpace(1), LINE]), 0, 1, 0, F(1, 4), 0, 0, F(1, 4))


_OFFSET = st.integers(-80, 80).map(lambda k: F(k, 64))   # in radii, from a center
_STEP = st.one_of(st.integers(-16, 16).map(lambda k: F(k, 256)),
                  st.integers(-160, 160).map(lambda k: F(k, 64)))   # in radii


@st.composite
def _accepted_move_and_pairs(draw):
    """An exact move of a product of three circle or line factors, with
    radii up to the widest its constructor accepts (a circle bump 1/2, a
    line gate 1) and wider elsewhere, and pairs of points near its bump and
    gate.  The second point steps off the first at one index, by a nudge or
    a stride of some radii: d* sums over the indices, so a Lipschitz bound
    that holds for such pairs holds for all.

    Half the moves are targeted at the line gate's cap: a line gate at
    least 3/4 of its cap wide, two indices past the bump, and pairs that
    stride past 1 off the gate center, with the first point at the image of
    the bump center.  A line gate wider than 1 fails there, where the
    capped line metric sees less of the stride than the gate weight does."""
    kinds = draw(st.lists(st.sampled_from([CIRCLE, LINE]), min_size=3, max_size=3))
    targeted = draw(st.booleans())
    if targeted:
        alpha, beta, other = 0, 2, 1
        kinds[beta] = LINE
    else:
        alpha, beta, other = draw(st.permutations(range(3)))
    space = ProductSpace(kinds)
    u_cap = F(1, 2) if kinds[alpha] is CIRCLE else F(2)
    v_cap = F(2) if kinds[beta] is CIRCLE else F(1)
    r_u = u_cap * draw(st.integers(1, 64)) / 64
    r_v = v_cap * draw(st.integers(48 if targeted else 1, 64)) / 64
    u_c, g_c, shift = draw(_OFFSET), draw(_OFFSET), r_u * draw(_INSIDE)
    move = ConditionalMoveStage(space, alpha, beta, u_c, r_u, shift, g_c, r_v)
    radius = {alpha: r_u, beta: r_v, other: F(1, 2)}
    pairs = []
    for _ in range(draw(st.integers(1, 15))):
        if targeted:
            x = {alpha: u_c + shift, beta: g_c, other: draw(_UNIT)}
            stride = 1 + r_v * draw(st.integers(1, 64)) / 64
            y = {**x, beta: g_c + draw(st.sampled_from([stride, -stride]))}
        else:
            x = {alpha: u_c + r_u * draw(_OFFSET), beta: g_c + r_v * draw(_OFFSET),
                 other: draw(_UNIT)}
            a = draw(st.sampled_from(range(3)))
            y = {**x, a: x[a] + radius[a] * draw(_STEP)}
        pairs.append((space.point(x), space.point(y)))
    return space, move, pairs


@given(_accepted_move_and_pairs())
@settings(max_examples=300, deadline=None)
def test_an_accepted_move_keeps_its_certified_bounds_in_the_product_metric(inputs):
    space, move, pairs = inputs
    inverse = move.inverse()
    disp, lip = move.sup_displacement(), move.lip_backward_bound()
    for x, y in pairs:
        for p in (x, y):
            image = p.apply_stage(move)
            back = image.apply_stage(inverse)
            assert [back.coord(a) for a in range(3)] == [p.coord(a) for a in range(3)]
            assert space.metric(image, p) <= disp
        pulled = space.metric(x.apply_stage(inverse), y.apply_stage(inverse))
        assert pulled <= lip * space.metric(x, y)


def test_malformed_conditional_move_descriptors_raise_typed_errors():
    space = ProductSpace([CIRCLE, LINE])
    desc = ConditionalMoveStage(space, 1, 0, 0, F(1, 4), F(1, 8), 0, F(1, 4)).descriptor()
    missing = {k: v for k, v in desc.items() if k != "u_radius"}
    for bad, cause in [(missing, KeyError), ({**desc, "shift": "x"}, ValueError),
                       ({**desc, "shift": "1/0"}, ZeroDivisionError)]:
        with pytest.raises(PreconditionError, match="malformed") as info:
            conditional_move_from_descriptor(space, bad)
        assert isinstance(info.value.__cause__, cause)
    # "alpha": true would load as coordinate 1 and be written back as true
    for name, value in [("alpha", "1"), ("alpha", True), ("beta", False), ("beta", 0.0)]:
        with pytest.raises(PreconditionError, match="are not both ints"):
            conditional_move_from_descriptor(space, {**desc, name: value})
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
        "2cdf0e7d3189e21bd93be5e9070f7e87dd25881ceb9e587c12356453d41cd9dd")


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
        assert all(vnorm(p.coord(a)) < 1.0 - FLOAT_TOLERANCE for a in space.indices())
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


# ---------------------------------------------------------------------------
# moved indices and the exact move's bump test
# ---------------------------------------------------------------------------

_CLCL = ProductSpace([CIRCLE, LINE, CIRCLE, LINE])


class _RotateByLine(ProductStage):
    """Rotates circle coordinate 2 by line coordinate 3, and raises when it
    is read at another coordinate."""

    moved_indices = frozenset({2})

    def image_coord(self, get, alpha):
        assert alpha == 2, f"read at coordinate {alpha}, outside its moved set"
        return _wrap1(get(2) + get(3))

    def preimage_coord(self, get, alpha):
        assert alpha == 2, f"read at coordinate {alpha}, outside its moved set"
        return _wrap1(get(2) - get(3))


@st.composite
def _mixed_stage(draw):
    kind = draw(st.sampled_from(["move", "coordwise", "twist", "rotate"]))
    if kind == "move":
        alpha, beta = draw(st.permutations(range(4)))[:2]
        r_u = draw(st.integers(1, 80).map(lambda k: F(k, 64)))
        if _CLCL.factor(alpha) is CIRCLE and r_u > F(1, 2):
            # a circle bump this wide is refused; the line keeps the wide radii
            with pytest.raises(PreconditionError, match="circle bump radius"):
                ConditionalMoveStage(_CLCL, alpha, beta, 0, r_u, 0, 0, F(1, 4))
            r_u /= 4
        stage = ConditionalMoveStage(_CLCL, alpha, beta, draw(_UNIT), r_u,
                                     r_u * draw(_INSIDE), draw(_UNIT), draw(_RADIUS))
    elif kind == "coordwise":
        c, t = draw(_UNIT), draw(_UNIT)
        stage = CoordwiseStage({
            0: small_ball_transporter(CIRCLE, c, t, CIRCLE.metric(c, t) + F(1, 8)),
            3: small_ball_transporter(LINE, c, t, abs(c - t) + F(1, 8))})
    elif kind == "twist":
        stage = WgppStage(frozenset({1, 2}), {1: group_pair(LINE), 2: group_pair(CIRCLE)})
    else:
        stage = _RotateByLine()
    return stage.inverse() if draw(st.booleans()) else stage


@given(st.lists(_UNIT, min_size=4, max_size=4), st.lists(_mixed_stage(), max_size=12),
       st.permutations(range(4)))
@settings(max_examples=200, deadline=None)
def test_coord_equals_a_replay_that_calls_every_stage(coords, stages, order):
    point = _CLCL.point(dict(enumerate(coords)))
    values = list(point.overrides[a] for a in range(4))
    for stage in stages:
        point = point.apply_stage(stage)
        values = [stage.image_coord(values.__getitem__, a) if a in stage.moved_indices
                  else values[a] for a in range(4)]
    assert [point.coord(a) for a in order] == [values[a] for a in order]


def test_stages_declare_the_indices_they_move():
    move = ConditionalMoveStage(_CLCL, 2, 1, 0, F(1, 4), F(1, 8), 0, F(1, 4))
    twist = WgppStage(frozenset({1, 3}), {1: group_pair(LINE), 3: group_pair(LINE)})
    maps = CoordwiseStage({0: small_ball_transporter(CIRCLE, F(0), F(1, 32), F(1, 8))})
    shrink = CollarShrinkStage(F(1, 16), (0, 2))
    discs = ProductSpace([DiscSpace(2), DiscSpace(1)])
    float_move = FloatConditionalStage(discs, 0, 1, (0.0, 0.0), 0.25, (0.01, 0.0), (0.0,), 0.25)
    for stage, moved in [(move, {2}), (twist, {1, 3}), (maps, {0}), (shrink, {0, 2}),
                         (float_move, {0})]:
        assert stage.moved_indices == moved
        assert stage.inverse().moved_indices == moved
        assert stage.inverse().inverse() is stage


def test_a_twist_refuses_an_index_without_a_pair():
    with pytest.raises(PreconditionError, match=r"no pair for twisted indices \[2, 3\]"):
        WgppStage(frozenset({1, 2, 3}), {1: group_pair(LINE)})
    with pytest.raises(PreconditionError, match="index 0 cannot be twisted"):
        WgppStage(frozenset({0}), {0: group_pair(LINE)})


@pytest.mark.parametrize("bad", ["x", -1, 1.0, True], ids=repr)
def test_a_twist_refuses_an_index_that_is_not_an_int_of_at_least_1(bad):
    # True would twist coordinate 1 while the descriptor wrote [true]
    refusal = re.escape(f"twisted indices [{bad!r}] are not ints >= 1")
    with pytest.raises(PreconditionError, match=refusal):
        WgppStage(frozenset({bad}), {bad: group_pair(LINE)})


_EDGES = [F(k, 16) for k in range(16)] + [F(-1, 8), F(5, 4), F(33, 16)]
_RADII = [F(1, 16), F(1, 8), F(1, 4), F(3, 8), F(7, 16), F(1, 2), F(9, 16), F(3, 4), F(1),
          F(3, 2)]


def _rel(factor, u, c):
    """u - c, taken in [-1/2, 1/2) on the circle: the bump's signed offset,
    by the Fraction formula the move's integer offset replaced."""
    d = u - c
    return _wrap1(d + F(1, 2)) - F(1, 2) if factor is CIRCLE else d


@pytest.mark.parametrize("factor", [CIRCLE, LINE], ids=["circle", "line"])
def test_the_comparison_bump_test_equals_the_distance_test(factor):
    # the centers include bumps that cross 0 and centers a loaded descriptor
    # may carry outside [0, 1); u runs over a grid holding every c -+ r
    space = ProductSpace([factor, LINE])
    us = [F(k, 32) for k in range(32)]
    if factor is LINE:
        us += [F(k, 32) for k in range(-80, 0)] + [F(k, 32) for k in range(32, 112)]
    for c in _EDGES:
        for r in _RADII:
            if factor is CIRCLE and r > F(1, 2):
                # the bump would wrap past the antipode; the line keeps the wide radii
                with pytest.raises(PreconditionError, match="circle bump radius"):
                    ConditionalMoveStage(space, 0, 1, c, r, r / 2, 0, F(1, 4))
                continue
            move = ConditionalMoveStage(space, 0, 1, c, r, r / 2, 0, F(1, 4))
            for u in us:
                assert move._in_bump(u) == (abs(_rel(factor, u, c)) < r), (c, r, u)
            for edge in (c - r, c + r):
                u = _wrap1(edge) if factor is CIRCLE else edge
                assert not move._in_bump(u), (c, r, u)


def _arc_distance(factor, v, c):
    """The distance the gate's tent reads: the arc length on the circle, the
    uncapped |v - c| on the line."""
    if factor is CIRCLE:
        f = _wrap1(v - c)
        return min(f, 1 - f)
    return abs(v - c)


@pytest.mark.parametrize("factor", [CIRCLE, LINE], ids=["circle", "line"])
def test_the_comparison_gate_test_equals_the_distance_test(factor):
    # circle gates below, at and above 1/2, up to the 2 the move-bounds
    # property draws; line gates up to their cap of 1
    space = ProductSpace([LINE, factor])
    vs = [F(k, 32) for k in range(32)]
    if factor is LINE:
        vs += [F(k, 32) for k in range(-80, 0)] + [F(k, 32) for k in range(32, 112)]
    for c in _EDGES:
        for r in _RADII + [F(2)]:
            if factor is LINE and r > 1:
                with pytest.raises(PreconditionError, match="line gate radius"):
                    ConditionalMoveStage(space, 0, 1, 0, F(1, 4), F(1, 8), c, r)
                continue
            move = ConditionalMoveStage(space, 0, 1, 0, F(1, 4), F(1, 8), c, r)
            edges = [_wrap1(e) if factor is CIRCLE else e for e in (c - r, c + r)]
            for v in vs + edges:
                dist = _arc_distance(factor, v, c)
                assert _in_ball(v, move._gate_ball, factor is CIRCLE) == (dist < r), (c, r, v)
                n, d = move.gate(v)
                assert F(n, d) == max(F(0), 1 - dist / r), (c, r, v)
                assert type(n) is int and type(d) is int and d > 0


def _move_in_fractions(move, u, v):
    """The gate weight at v and the image and preimage of u, by the
    Fraction formulas the integer kernel replaced, kept as a reference."""
    u_factor, v_factor = move.space.factor(move.alpha), move.space.factor(move.beta)
    c, r, s = move.u_center, move.u_radius, move.shift
    w = max(F(0), 1 - abs(_rel(v_factor, v, move.gate_center)) / move.gate_radius)
    rel = _rel(u_factor, u, c)
    if w == 0 or abs(rel) >= r:
        return w, u, u
    ws = w * s
    back = r * (rel - ws) / (r + ws) if rel <= ws else r * (rel - ws) / (r - ws)

    def out(x):
        return _wrap1(c + x) if u_factor is CIRCLE else c + x

    return w, out(rel + (1 - abs(rel) / r) * ws), out(back)


def _bounds_in_fractions(move):
    """lip_backward_bound and sup_displacement by their Fraction formulas."""
    s = abs(move.shift)
    k = move.u_radius / (move.u_radius - s)
    lip = k + s * k / move.gate_radius * pow2(move.beta - move.alpha)
    return lip, pow2(-move.alpha) * s


def _fractions_in(lo, hi):
    """Fractions in [lo, hi] over dyadic and non-dyadic denominators."""
    return st.sampled_from([1, 2, 3, 7, 12, 64, 81]).flatmap(
        lambda d: st.integers(math.ceil(lo * d), math.floor(hi * d)).map(lambda n: F(n, d)))


@st.composite
def _move_and_values(draw):
    """An exact move of two or three circle or line factors, on data that
    need not be dyadic: centers outside [0, 1), as a loaded descriptor may
    carry, negative shifts, circle bumps up to 1/2, line gates up to 1 and
    circle gates up to 2.  With it come (u, v) pairs about its bump and
    gate: exactly at c -+ r, inside, and anywhere, so that some v lie
    past the gate, where the weight is 0."""
    kinds = draw(st.lists(st.sampled_from([CIRCLE, LINE]), min_size=2, max_size=3))
    alpha, beta = draw(st.permutations(range(len(kinds))))[:2]
    r_u = draw(_fractions_in(0, F(1, 2) if kinds[alpha] is CIRCLE else 2).filter(bool))
    r_v = draw(_fractions_in(0, 2 if kinds[beta] is CIRCLE else 1).filter(bool))
    shift = r_u * draw(_fractions_in(-1, 1).filter(lambda t: abs(t) < 1))
    u_c, g_c = draw(_fractions_in(-2, 3)), draw(_fractions_in(-2, 3))
    move = ConditionalMoveStage(ProductSpace(kinds), alpha, beta, u_c, r_u, shift, g_c, r_v)

    def near(factor, c, r):
        x = draw(st.one_of(st.sampled_from([c - r, c + r]),
                           _fractions_in(-1, 1).map(lambda t: c + r * t),
                           _fractions_in(-3, 3)))
        return _wrap1(x) if factor is CIRCLE else x

    values = [(near(kinds[alpha], u_c, r_u), near(kinds[beta], g_c, r_v))
              for _ in range(draw(st.integers(1, 8)))]
    return move, values


@given(_move_and_values())
@example((ConditionalMoveStage(ProductSpace([CIRCLE, CIRCLE]), 0, 1, F(-7, 3), F(2, 7), F(-1, 12),
                               F(22, 7), F(2)),
          [(F(2, 3) - F(2, 7), F(1, 7)), (F(8, 21), F(5, 7)), (F(2, 3), F(1, 7))]))
@example((ConditionalMoveStage(ProductSpace([LINE, LINE, CIRCLE]), 1, 0, F(-5, 3), F(3, 2),
                               F(-4, 3), F(7, 12), F(1)),
          [(F(-1, 6), F(1, 3)), (F(-19, 6), F(-5, 12)), (F(-5, 3), F(19, 12)), (F(-13, 81), F(0))]))
@settings(max_examples=400, deadline=None)
def test_the_integer_move_matches_the_fraction_formulas(inputs):
    move, values = inputs
    lip, disp = _bounds_in_fractions(move)
    assert move.lip_backward_bound() == lip and move.sup_displacement() == disp
    for u, v in values:
        w, image, pre = _move_in_fractions(move, u, v)
        n, d = move.gate(v)
        assert F(n, d) == w and type(n) is int and type(d) is int and d > 0, (u, v)
        at = {move.alpha: u, move.beta: v}.get
        assert move.image_coord(at, move.alpha) == image, (u, v)
        assert move.preimage_coord(at, move.alpha) == pre, (u, v)
        moved = {move.alpha: image, move.beta: v}.get
        assert move.preimage_coord(moved, move.alpha) == u, (u, v)


def test_columns_that_mix_ints_and_fractions_read_alike():
    # ProductSpace.point keeps an int coordinate an int: {0: 0} stays the int 0
    assert _agreeing(CIRCLE, [0, F(0), F(1, 2), 0]) == {(0, 1), (0, 3), (1, 3)}
    assert _agreeing(LINE, [1, F(-1), F(1)]) == {(0, 2)}
    assert _in_ball(0, _ball(F(0), F(1, 4), True), True)
    assert _in_ball(1, _ball(F(3, 4), F(1, 2), False), False)
    assert not _in_ball(1, _ball(0, F(1), False), False)
    assert _neighbours([0, 1, F(1, 3), 2], F(1, 3), False) == [1, 0]
    assert _neighbours([0, F(1, 3)], 0, True) == [F(1, 3), F(1, 3)]
    space = ProductSpace([CIRCLE, LINE, CIRCLE])
    pts = [space.point({0: 0, 1: 1, 2: F(1, 3)}), space.point({0: F(0), 1: F(1), 2: F(2, 3)}),
           space.point({0: F(1, 2), 1: 1, 2: 0})]
    assert type(pts[0].coord(0)) is int and type(pts[2].coord(2)) is int
    result = collision_repair_gpp(pts, space)
    assert result.moves == 3 and result.collision_history == [4, 3, 1, 0]
    cert = result.certificate
    back = cert.apply_inv(cert.apply(pts[0]))
    assert [back.coord(a) for a in range(3)] == [0, 1, F(1, 3)]


_SIXTY_FOURTHS = st.integers(0, 63).map(lambda k: F(k, 64))
_LINE_SIXTEENTHS = st.integers(-40, 40).map(lambda k: F(k, 16))


@st.composite
def _clearance_column(draw):
    """A circle or line column of canonical values about a center: values
    on both sides of it, on one side only (on the circle the neighbours
    then wrap past 0), or none but copies of the center."""
    factor = draw(st.sampled_from([CIRCLE, LINE]))
    grid = _SIXTY_FOURTHS if factor is CIRCLE else _LINE_SIXTEENTHS
    center = draw(grid)
    values = draw(st.lists(grid, max_size=9))
    side = draw(st.sampled_from(["both", "above", "below", "none"]))
    if side != "both":
        values = [v for v in values if side == "above" and v > center
                  or side == "below" and v < center]
    values = draw(st.permutations(values + [center] * draw(st.integers(0, 3))))
    cap = draw(st.sampled_from([F(1, 2), F(1, 4), F(1, 16)]))
    return factor, values, center, cap


@given(_clearance_column())
@example((CIRCLE, [F(1, 64), F(30, 64), F(60, 64)], F(60, 64), F(1, 2)))
@example((CIRCLE, [F(40, 64), F(2, 64), F(60, 64)], F(2, 64), F(1, 2)))
@example((CIRCLE, [F(0), F(0)], F(0), F(1, 4)))
@example((LINE, [F(-1, 16), F(3), F(1, 8), F(-7, 4)], F(1, 8), F(1, 16)))
@settings(max_examples=400, deadline=None)
def test_the_clearance_measures_two_neighbours_and_equals_the_brute_force_minimum(column):
    factor, values, center, cap = column
    brute = min([cap] + [d for d in (factor.metric(v, center) for v in values) if d > 0]) / 2
    calls = []

    class Counting(type(factor)):
        def metric(self, x, y):
            calls.append(x)
            return super().metric(x, y)

    assert _clearance(Counting(), (v for v in values), center, cap) == brute
    assert len(calls) <= 2


def test_the_closed_form_backward_bound_equals_the_old_expression():
    space = ProductSpace([CIRCLE, LINE, CIRCLE])
    accepted = 0
    for alpha, beta in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2)]:
        for r_u in _RADII:
            for t in (F(0), F(1, 64), F(1, 2), F(-3, 4), F(15, 16), F(1)):
                for r_v in _RADII + [F(2)]:
                    try:
                        move = ConditionalMoveStage(space, alpha, beta, F(1, 3), r_u, t * r_u,
                                                    F(5, 4), r_v)
                    except PreconditionError:
                        continue
                    s = abs(move.shift)
                    m = 1 - s / r_u
                    old = max(F(1), 1 / m) + (s / m) / r_v * pow2(beta - alpha)
                    assert move.lip_backward_bound() == old, (alpha, beta, r_u, t, r_v)
                    accepted += 1
    assert accepted > 400


@pytest.mark.parametrize("factors", [(CIRCLE, LINE), (LINE, CIRCLE)], ids=["circle", "line"])
def test_a_point_outside_the_bump_never_reads_the_gate(factors):
    space = ProductSpace(factors)
    move = ConditionalMoveStage(space, 0, 1, F(1, 2), F(1, 8), F(1, 16), 0, F(1, 4))

    def reading(u):
        def get(a):
            if a == 1:
                raise AssertionError("the gate coordinate was read")
            return u
        return get

    for u in (F(0), F(3, 8), F(5, 8), F(7, 8)):
        for stage in (move, move.inverse()):
            assert stage.image_coord(reading(u), 0) == u
    with pytest.raises(AssertionError, match="gate coordinate was read"):
        move.image_coord(reading(F(1, 2)), 0)


def test_gated_moves_refuse_sequence_coordinates():
    space = ProductSpace([CANTOR, CIRCLE, LINE, BAIRE])
    for alpha, beta, kind in [(0, 1, "cantor"), (1, 0, "cantor"), (2, 3, "baire")]:
        with pytest.raises(PreconditionError, match=f"not the {kind} coordinate"):
            ConditionalMoveStage(space, alpha, beta, 0, F(1, 4), F(1, 8), 0, F(1, 4))
    assert ConditionalMoveStage(space, 1, 2, 0, F(1, 4), F(1, 8), 0, F(1, 4)).moved_indices == {1}


def test_the_move_loader_refuses_a_number_in_a_scalar_slot():
    space = ProductSpace([CIRCLE, LINE])
    desc = ConditionalMoveStage(space, 0, 1, 0, F(1, 4), F(1, 8), 0, F(1, 4)).descriptor()
    for name in ("u_radius", "shift", "gate_center"):
        with pytest.raises(PreconditionError, match="malformed") as info:
            conditional_move_from_descriptor(space, {**desc, name: 0.25})
        assert isinstance(info.value.__cause__, AttributeError)


_EIGHTHS = st.integers(0, 15).map(lambda k: F(k, 8))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_built_move_fixes_the_points_it_leaves_out_and_gives_point_i_a_fresh_value(data):
    kinds = data.draw(st.lists(st.sampled_from([CIRCLE, LINE]), min_size=2, max_size=4))
    space = ProductSpace(kinds)
    rows = data.draw(st.lists(st.tuples(*[_EIGHTHS] * len(kinds)), min_size=1, max_size=7))
    pts = [space.point(dict(enumerate(r))) for r in rows]
    i = data.draw(st.integers(0, len(pts) - 1))
    alpha, beta = data.draw(st.permutations(range(len(kinds))))[:2]
    cap = data.draw(st.sampled_from([F(1, 2), F(1, 4), F(1, 16)]))
    t = data.draw(st.sampled_from([F(1, 2), F(-1, 2), F(3, 8), F(-1, 4), F(1, 64)]))
    stage = _gated_move(ConditionalMoveStage, space, pts, i, alpha, beta, cap, lambda r_u: t * r_u)
    moved = [p.apply_stage(stage) for p in pts]
    u_c, g_c, new = pts[i].coord(alpha), pts[i].coord(beta), moved[i].coord(alpha)
    for p, q in zip(pts, moved):
        # only a point agreeing with point i at alpha and at beta moves, and
        # every such point moves with it
        twin = p.coord(alpha) == u_c and p.coord(beta) == g_c
        assert all(q.coord(a) == p.coord(a) for a in space.indices() if a != alpha or not twin)
        assert (q.coord(alpha) == new) == twin


def test_the_gate_is_the_first_index_where_the_points_disagree():
    space = ProductSpace([CIRCLE, LINE, DiscSpace(1), DiscSpace(1)])
    p = space.point({0: F(1, 4), 2: (0.5,), 3: (0.5,)})
    # the circle values are one point, and the disc values at 2 agree within tolerance
    q = space.point({0: F(5, 4), 2: (0.5 + 1e-12,), 3: (0.25,)})
    assert _gate_index(space, [p, q], 0, 1) == 3
    with pytest.raises(PreconditionError, match="points 1 and 0 are identical"):
        _gate_index(space, [p, p], 1, 0)


def test_a_float_gated_move_refuses_coordinates_that_are_not_ints_of_the_product():
    discs = ProductSpace([DiscSpace(2), DiscSpace(1)])
    args = ((0.0, 0.0), 0.25, (0.01, 0.0), (0.0,), 0.25)
    for alpha, beta in [("x", 1), (True, 1), (0, False), (0, 1.0)]:
        with pytest.raises(PreconditionError, match="are not both ints"):
            FloatConditionalStage(discs, alpha, beta, *args)
    for alpha, beta in [(0, 2), (-1, 0)]:
        with pytest.raises(IndexRange):
            FloatConditionalStage(discs, alpha, beta, *args)


@pytest.mark.parametrize("eps, indices", [
    (1, (0,)), (2, (0,)), (0.1, (0,)), (F(0), (0,)), (F(1), (0,)), (F(-1, 16), (0,)),
    ("1/16", (0,)), (F(1, 16), (0, "a")), (F(1, 16), (True,)), (F(1, 16), (0, -1)),
    (F(1, 16), (1.0,)),
])
def test_a_collar_shrink_refuses_a_width_or_an_index_it_cannot_use(eps, indices):
    with pytest.raises(PreconditionError, match="collar"):
        CollarShrinkStage(eps, indices)


def test_operations_refuse_points_of_another_product():
    space = ProductSpace([CIRCLE, LINE])
    other = ProductSpace([LINE] * 3)
    pts = [space.point({0: F(1, 4), 1: F(1, 2)}), space.point({0: F(1, 4), 1: F(3, 4)})]
    with pytest.raises(SpaceMismatch):
        collision_repair_gpp(pts, other)
    with pytest.raises(SpaceMismatch):
        block_regroup(pts, other, block_count=1)
    for mixed in ([pts[0], other.point()], [other.point(), pts[0]]):
        with pytest.raises(SpaceMismatch):
            check_general_position(mixed)
    # an equal product built apart is the same product
    same = ProductSpace([CIRCLE, LINE])
    assert collision_repair_gpp(pts, same).moves == 1
    assert block_regroup(pts, same, block_count=1).blocks == ((0, 1),)
    discs = ProductSpace([DiscSpace(1), DiscSpace(1)])
    with pytest.raises(SpaceMismatch):
        boundary_chase([discs.point()], ProductSpace([DiscSpace(1)] * 3))
