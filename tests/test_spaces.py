"""Factor metrics, product points and the weighted product metric."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdhkit.errors import IndexRange, PreconditionError, SpaceMismatch, UnsupportedOperation
from cdhkit.homeos import PLCircleHomeo
from cdhkit.rationals import floor_pow2, pow2
from cdhkit.spaces import (
    BAIRE,
    CANTOR,
    CIRCLE,
    LINE,
    CoordwiseStage,
    DiscSpace,
    ProductPoint,
    ProductSpace,
    ProductStage,
    SymSeq,
    _LINE_LEVEL_CAP,
    _unpair,
    _wrap1,
    factor_from_descriptor,
    nat_tuple,
)

F = Fraction


# ---------------------------------------------------------------------------
# symbol sequences
# ---------------------------------------------------------------------------

def test_symseq_canonical_form():
    assert SymSeq((0, 1, 1), tail=1) == SymSeq((0,), tail=1)
    assert SymSeq((0, 0, 0), tail=0) == SymSeq((), tail=0)
    assert SymSeq((1, 0), tail=0).prefix == (1,)


def test_symseq_first_diff():
    a = SymSeq((0, 0, 1), 0)
    b = SymSeq((0, 1), 0)
    assert a.first_diff(b) == 1
    assert a.first_diff(a) is None
    assert SymSeq((), 0).first_diff(SymSeq((), 1)) == 0


def test_symseq_indexing():
    s = SymSeq((5, 3), tail=2)
    assert [s.at(i) for i in range(4)] == [5, 3, 2, 2]
    assert s.drop(1) == SymSeq((3,), 2)


# ---------------------------------------------------------------------------
# factor metrics
# ---------------------------------------------------------------------------

def test_cantor_metric_values():
    zero = SymSeq((), 0)
    assert CANTOR.metric(zero, zero) == 0
    assert CANTOR.metric(zero, SymSeq((1,), 0)) == 1
    assert CANTOR.metric(zero, SymSeq((0, 0, 1), 0)) == F(1, 4)
    assert CANTOR.metric(zero, SymSeq((), 1)) == 1


def test_circle_metric_wraps():
    assert CIRCLE.metric(F(1, 8), F(7, 8)) == F(1, 4)
    assert CIRCLE.metric(F(0), F(1, 2)) == F(1, 2)
    assert CIRCLE.metric(F(0), F(1)) == 0


def test_line_metric_capped():
    assert LINE.metric(F(0), F(5)) == 1
    assert LINE.metric(F(0), F(1, 3)) == F(1, 3)


def test_euclid_metric():
    disc = DiscSpace(2)
    assert disc.metric((0.0, 0.0), (0.6, 0.8)) == pytest.approx(1.0)


_seqs = st.builds(
    SymSeq,
    st.lists(st.integers(0, 1), max_size=6).map(tuple),
    st.integers(0, 1),
)


@settings(max_examples=200, deadline=None)
@given(_seqs, _seqs, _seqs)
def test_cantor_metric_axioms(a, b, c):
    d = CANTOR.metric
    assert d(a, b) == d(b, a)
    assert (d(a, b) == 0) == (a == b)
    assert d(a, c) <= d(a, b) + d(b, c)
    # ultrametric, in fact
    assert d(a, c) <= max(d(a, b), d(b, c))


_rats = st.fractions(min_value=-2, max_value=2, max_denominator=64)


@settings(max_examples=200, deadline=None)
@given(_rats, _rats, _rats)
def test_circle_metric_axioms(a, b, c):
    d = CIRCLE.metric
    assert d(a, b) == d(b, a)
    assert d(a, c) <= d(a, b) + d(b, c)
    assert d(a, a) == 0


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10**30), max_value=10**30))
def test_floor_pow2_brackets_its_argument(x):
    p = floor_pow2(x)
    assert p <= x < 2 * p
    assert p in (pow2(n) for n in range(-110, 110))


# ---------------------------------------------------------------------------
# group structures (sampled group axioms)
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(_seqs, _seqs, _seqs)
def test_cantor_group_axioms(a, b, c):
    g = CANTOR.group
    assert g.op(g.op(a, b), c) == g.op(a, g.op(b, c))
    assert g.op(a, g.identity) == a
    assert g.op(a, g.inv(a)) == g.identity


@settings(max_examples=100, deadline=None)
@given(_rats, _rats)
def test_circle_group_axioms(a, b):
    g = CIRCLE.group
    assert g.op(g.op(a, b), g.inv(b)) == g.op(a, CIRCLE.group.identity) % 1


# ---------------------------------------------------------------------------
# product points: coordinate evaluation
# ---------------------------------------------------------------------------

def _cantor_omega(depth=16):
    return ProductSpace.uniform(CANTOR, count=None, working_depth=depth)


def test_eval_coordinate_base_pattern():
    space = _cantor_omega()
    p = space.point()
    assert p.coord(5) == SymSeq((), 0)


def test_eval_coordinate_override_lookup():
    space = _cantor_omega()
    v = SymSeq((1, 0, 1), 0)
    p = space.point({3: v})
    assert p.coord(3) == v
    assert p.coord(2) == SymSeq((), 0)


class _XorStage(ProductStage):
    """Hand-built oracle stage: xor every coordinate by a fixed factor point."""

    def __init__(self, c):
        self.c = c

    def image_coord(self, get, alpha):
        return CANTOR.group.op(get(alpha), self.c)

    def preimage_coord(self, get, alpha):
        return CANTOR.group.op(get(alpha), self.c)


def test_eval_coordinate_through_xor_pipeline():
    space = _cantor_omega()
    c = SymSeq((1, 1, 0, 1), 0)
    p = space.point().apply_stage(_XorStage(c))
    # group-pair map applied by hand: zero xor c = c
    assert p.coord(0) == c
    assert p.coord(7) == c


def test_eval_coordinate_index_error():
    space = ProductSpace.uniform(CANTOR, count=3)
    with pytest.raises(IndexRange):
        space.point().coord(3)


def test_pipeline_round_trip_via_inverse_stage():
    space = _cantor_omega()
    c = SymSeq((0, 1, 1), 0)
    stage = _XorStage(c)
    p = space.point({2: SymSeq((1,), 0)})
    q = p.apply_stage(stage).apply_stage(stage.inverse())
    for a in range(8):
        assert q.coord(a) == p.coord(a)


class _CountingStage(_XorStage):
    """_XorStage that counts its image_coord calls per index."""

    def __init__(self, c):
        super().__init__(c)
        self.calls = {}

    def image_coord(self, get, alpha):
        self.calls[alpha] = self.calls.get(alpha, 0) + 1
        return super().image_coord(get, alpha)


def test_child_of_an_evaluated_point_evaluates_one_level():
    space = _cantor_omega(depth=6)
    ancestors = [_CountingStage(SymSeq((k % 2, 1), 0)) for k in range(5)]
    p = space.point({1: SymSeq((1,), 0)})
    for stage in ancestors:
        p = p.apply_stage(stage)
    for a in space.indices():
        p.coord(a)
    child_stage = _CountingStage(SymSeq((0, 0, 1), 0))
    child = p.apply_stage(child_stage)
    for _ in range(2):
        for a in space.indices():
            child.coord(a)
    assert child_stage.calls == {a: 1 for a in space.indices()}
    assert all(stage.calls == {a: 1 for a in space.indices()} for stage in ancestors)


class _MarkerShift(ProductStage):
    """Multiplies every coordinate by its factor's first marker point."""

    def __init__(self, space):
        self.space = space

    def image_coord(self, get, alpha):
        f = self.space.factor(alpha)
        return f.group.op(get(alpha), f.marker(1))


@pytest.mark.parametrize("marker", [None, 3], ids=["default", "marker"])
def test_root_fallbacks_read_as_on_a_fresh_root(marker):
    space = ProductSpace([CANTOR, BAIRE, CIRCLE, LINE, CIRCLE, CANTOR])
    over = {2: F(1, 3)}
    root = ProductPoint(space, marker, over)
    staged = root.apply_stage(_MarkerShift(space)).apply_stage(_MarkerShift(space))
    for _ in range(3):
        for a in space.indices():
            f = space.factor(a)
            expected = over.get(a, f.base_point() if marker is None else f.marker(marker))
            assert root.coord(a) == ProductPoint(space, marker, over).coord(a) == expected
            assert staged.coord(a) == f.group.op(f.group.op(expected, f.marker(1)), f.marker(1))


def test_point_refuses_an_index_outside_the_product():
    space = ProductSpace([CIRCLE, LINE])
    for over, bad in [({7: F(1, 4)}, 7), ({2: F(0)}, 2), ({-1: F(1, 4)}, -1),
                      ({0: F(1, 4), 1: F(1, 2), 5: F(5, 4)}, 5)]:
        with pytest.raises(IndexRange, match=f"index {bad} outside product of 2 factors"):
            space.point(over)
    countable = ProductSpace.uniform(CIRCLE, working_depth=4)
    with pytest.raises(IndexRange, match="index -1 outside"):
        countable.point({-1: F(1, 4)})
    assert countable.point({40: F(1, 4)}).coord(40) == F(1, 4)


def test_point_refuses_a_float_on_an_exact_factor():
    for factor in (CANTOR, BAIRE, CIRCLE, LINE):
        space = ProductSpace([DiscSpace(1), factor])
        refusal = f"float 0.25 at index 1 on the exact {factor.kind} factor"
        with pytest.raises(PreconditionError, match=refusal):
            space.point({0: (0.5,), 1: 0.25})
    assert ProductSpace([DiscSpace(1)]).point({0: (0.25,)}).coord(0) == (0.25,)


class _GatedRotation(ProductStage):
    """Rotates circle coordinate 1 by the value of coordinate 0, so every
    level of a pipeline reads a second coordinate."""

    def image_coord(self, get, alpha):
        return CIRCLE.group.op(get(1), get(0)) if alpha == 1 else get(alpha)

    def preimage_coord(self, get, alpha):
        return CIRCLE.group.op(get(1), CIRCLE.group.inv(get(0))) if alpha == 1 else get(alpha)


@pytest.mark.parametrize("stage", [
    CoordwiseStage({0: PLCircleHomeo([(F(0), F(1, 7))]), 2: PLCircleHomeo([(F(0), F(2, 5))])}),
    _GatedRotation(),
], ids=["coordwise", "gated"])
def test_round_trip_through_2000_stages(stage):
    space = ProductSpace.uniform(CIRCLE, count=3)
    start = space.point({0: F(1, 7), 1: F(1, 3), 2: F(1, 2)})
    p = start
    for _ in range(2000):
        p = p.apply_stage(stage)
    # coordinate 1 first: its levels read coordinate 0 before it is cached
    forward = [p.coord(a) for a in (1, 0, 2)]
    if isinstance(stage, CoordwiseStage):
        expected = [F(1, 3), F(2001 % 7, 7), F(1, 2)]
    else:
        expected = [F(1, 3) + F(2000 % 7, 7) - 1, F(1, 7), F(1, 2)]
    assert forward == expected
    inverse = stage.inverse()
    for _ in range(2000):
        p = p.apply_stage(inverse)
    assert [p.coord(a) for a in space.indices()] == [start.coord(a) for a in space.indices()]
    assert repr(p) == "ProductPoint(support=(0, 1, 2), stages=4000)"


# ---------------------------------------------------------------------------
# product metric
# ---------------------------------------------------------------------------

def test_distance_identical_points():
    space = _cantor_omega()
    p = space.point()
    lo, hi = space.distance(p, p, depth=10)
    assert lo == 0
    assert hi == pow2(-9)  # 2^-(M-1) with M=10


def test_distance_hand_summed_series():
    # two points in cantor^omega differing exactly at indices 0 (bit 0) and 2 (bit 1)
    space = _cantor_omega()
    x = space.point({0: SymSeq((1,), 0), 2: SymSeq((0, 1), 0)})
    y = space.point()
    lo, hi = space.distance(x, y, depth=8)
    # hand sum: 2^-0 * 2^-0  +  2^-2 * 2^-1  = 1 + 1/8
    expected = F(1) + F(1, 8)
    assert lo == expected
    assert lo <= expected <= hi


def test_distance_truncation_bound():
    space = _cantor_omega(depth=32)
    x = space.point({20: SymSeq((1,), 0)})
    y = space.point()
    lo, hi = space.distance(x, y, depth=4)
    assert lo == 0
    assert hi == pow2(-3)


def test_distance_tail_bound_covers_larger_later_factors():
    # circle, circle, then disc(1) (diameter 2) from index 2 on; only index 0
    # is evaluated, so the tail must allow for the discs' diameter
    space = ProductSpace(lambda a: CIRCLE if a < 2 else DiscSpace(1), working_depth=1)
    x = space.point({1: F(0), **{a: (-1.0,) for a in range(2, 5)}})
    y = space.point({1: F(1, 2), **{a: (1.0,) for a in range(2, 5)}})
    lo, hi = space.distance(x, y)
    assert lo == 0
    # the first five terms alone: 2^-1 * 1/2 + (2^-2 + 2^-3 + 2^-4) * 2
    assert hi >= F(9, 8)


def test_distance_nesting_refinement():
    space = _cantor_omega(depth=32)
    x = space.point({1: SymSeq((1, 1), 0), 9: SymSeq((0, 0, 1), 0)})
    y = space.point({1: SymSeq((1, 0), 0)})
    prev = None
    for depth in (2, 4, 8, 16, 32):
        lo, hi = space.distance(x, y, depth=depth)
        if prev is not None:
            plo, phi = prev
            assert plo <= lo and hi <= phi
        prev = (lo, hi)


def test_distance_space_mismatch():
    a = ProductSpace.uniform(CANTOR, count=2)
    b = ProductSpace.uniform(CANTOR, count=3)
    with pytest.raises(SpaceMismatch):
        a.distance(a.point(), b.point())


def test_finite_product_exact_metric():
    space = ProductSpace(factors=[CANTOR, CIRCLE])
    x = space.point({0: SymSeq((1,), 0), 1: F(1, 4)})
    y = space.point()
    assert space.metric_exact(x, y) == F(1) + F(1, 2) * F(1, 4)


def test_distance_of_float_factors_carries_their_tolerance():
    disc = DiscSpace(2)
    space = ProductSpace([disc, disc])
    x = space.point({0: (0.1, 0.2), 1: (0.3, 0.0)})
    y = space.point({0: (0.4, -0.2), 1: (0.3, 0.0)})
    lo, hi = space.distance(x, y)
    tol = F(disc.tolerance)
    estimate = F(disc.metric((0.1, 0.2), (0.4, -0.2)))
    assert lo == estimate - tol < hi == estimate + tol + tol / 2
    with pytest.raises(UnsupportedOperation):
        space.metric_exact(x, y)


# ---------------------------------------------------------------------------
# pi-base enumeration and picking
# ---------------------------------------------------------------------------

def test_cantor_basic_opens_enumerate_all_prefixes():
    seen = {CANTOR.basic_open(n).prefix for n in range(15)}
    assert seen == {
        (), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1),
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    }


def test_pick_in_lands_in_box_with_distinct_salts():
    for space, rng in ((CANTOR, range(12)), (BAIRE, range(12)), (CIRCLE, range(12)), (LINE, range(12))):
        box = space.basic_open(5)
        picks = [space.pick_in(box, salt) for salt in rng]
        for p in picks:
            assert box.contains(p)
        assert len({space.ser_point(p) if not hasattr(p, "prefix") else p for p in picks}) == len(picks)


def test_unpair_inverts_the_cantor_pairing_exactly():
    for z in [*range(200_000), 10**400, 10**400 + 1]:
        x, y = _unpair(z)
        w = x + y
        assert x >= 0 and y >= 0 and z == w * (w + 1) // 2 + y
    # indices past the float range enumerate as well; a line interval's
    # level is the first component, so keep it small there
    assert nat_tuple(10**400) and BAIRE.basic_open(10**400).prefix
    w = 10**200
    box = LINE.basic_open(w * (w + 1) // 2 + w - 1)  # level 1, position w - 1
    assert box.hi - box.lo == 1 and box.lo == F(w // 2 - 1, 2)


def test_line_basic_open_refuses_a_level_past_its_cap():
    # index (j+1)(j+2)/2 is the first at level j + 1; the refusal comes
    # before any shift, so no 2^j is built for a level j past the cap
    cap = _LINE_LEVEL_CAP
    assert LINE.basic_open(cap * (cap + 1) // 2).lo == F(-1, 1 << cap)  # level cap, position 0
    for n in (10**400, (cap + 1) * (cap + 2) // 2):
        with pytest.raises(PreconditionError, match="exceeds"):
            LINE.basic_open(n)


@pytest.mark.parametrize("factor", [CANTOR, BAIRE, CIRCLE, LINE], ids=lambda f: f.kind)
def test_markers_are_distinct_factor_points(factor):
    markers = [factor.marker(k) for k in range(64)]
    assert len(set(markers)) == 64
    assert factor.marker(0) != factor.base_point()


def test_a_disc_has_no_markers():
    with pytest.raises(UnsupportedOperation, match="no marker points for kind disc"):
        DiscSpace(2).marker(0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_circle_overrides_are_stored_in_the_unit_interval():
    space = ProductSpace([CIRCLE, CIRCLE, CIRCLE, LINE])
    p = space.point({0: F(5, 4), 1: F(-3, 4), 2: 1, 3: F(5, 4)})
    assert [p.coord(a) for a in range(4)] == [F(1, 4), F(1, 4), 0, F(5, 4)]
    assert p.ser()["overrides"] == {"0": "1/4", "1": "1/4", "2": "0/1", "3": "5/4"}


def test_wrap1_returns_a_canonical_argument_itself():
    for x in (F(0), F(1, 2), F(63, 64), F(10**40 - 1, 10**40), 0):
        assert _wrap1(x) is x
    assert _wrap1(F(5, 4)) == F(1, 4) and _wrap1(F(-3, 4)) == F(1, 4) and _wrap1(1) == 0


def test_point_serialization_round_trip_bit_exact():
    space = _cantor_omega()
    p = space.point({0: SymSeq((1, 0, 1), 0), 5: SymSeq((0, 1), 1)})
    obj = p.ser()
    q = ProductPoint.de(space, obj)
    for a in range(10):
        assert q.coord(a) == p.coord(a)
    assert q.ser() == obj


def test_line_and_baire_points_round_trip_through_json():
    space = ProductSpace([LINE, BAIRE])
    p = space.point({0: F(-7, 3), 1: SymSeq((3, 0, 12, 2), 5)})
    obj = p.ser()
    assert obj["overrides"] == {"0": "-7/3", "1": {"prefix": [3, 0, 12, 2], "tail": 5}}
    q = ProductPoint.de(space, json.loads(json.dumps(obj)))
    assert (q.coord(0), q.coord(1)) == (F(-7, 3), SymSeq((3, 0, 12, 2), 5))
    assert q.ser() == obj
    # baire symbols are integers: the group adds them and negates for the inverse
    for x in (SymSeq((0, -3), 2), SymSeq((4,), -1), BAIRE.group.inv(SymSeq((1, 5), 2))):
        p = space.point({1: x})
        q = ProductPoint.de(space, json.loads(json.dumps(p.ser())))
        assert q.coord(1) == x and q.ser() == p.ser()


@pytest.mark.parametrize("factor, value", [
    (CANTOR, {"prefix": "10", "tail": 0}),        # string symbols
    (BAIRE, {"prefix": [1, "2"], "tail": 0}),
    (CANTOR, {"prefix": [1, 0], "tail": "0"}),    # a tail that is no int
    (BAIRE, {"prefix": [1, 0], "tail": 0.0}),
    (CANTOR, {"prefix": [True, 0], "tail": 0}),   # bools are not symbols
    (CANTOR, {"prefix": [1, 0], "tail": True}),
    (CANTOR, {"prefix": [1, 2], "tail": 0}),      # cantor symbols are 0 and 1
    (CANTOR, {"prefix": [5], "tail": 0}),
    (CANTOR, {"prefix": [0, 1], "tail": 7}),
    (CANTOR, {"prefix": [0, -1], "tail": 0}),
    (BAIRE, {"prefix": [False, 2], "tail": 0}),
], ids=["cantor-str", "baire-str", "cantor-str-tail", "baire-float-tail", "cantor-bool",
        "cantor-bool-tail", "cantor-2", "cantor-5", "cantor-tail-7", "cantor-negative",
        "baire-bool"])
def test_sequence_points_with_foreign_symbols_are_refused(factor, value):
    space = ProductSpace([CIRCLE, factor])
    obj = {"base": {"kind": "default"}, "overrides": {"1": value}}
    with pytest.raises(PreconditionError, match="malformed point") as info:
        ProductPoint.de(space, obj)
    assert isinstance(info.value.__cause__, ValueError)
    assert ProductPoint.de(space, {**obj, "overrides": {"1": {"prefix": [1, 0], "tail": 1}}}
                           ).coord(1) == SymSeq((1, 0), 1)


def test_malformed_factor_descriptors_raise_typed_errors():
    for desc, cause in [("circle", TypeError), (None, TypeError), ({}, KeyError),
                        ({"kind": "disc", "dim": 0}, ValueError),
                        ({"kind": "disc", "dim": "2"}, TypeError),
                        ({"kind": "disc", "dim": 1.5}, TypeError),
                        ({"kind": ["circle"]}, TypeError)]:
        with pytest.raises(PreconditionError, match="malformed") as info:
            factor_from_descriptor(desc)
        assert isinstance(info.value.__cause__, cause)
    assert factor_from_descriptor({"kind": "disc", "dim": 2}) == DiscSpace(2)
    with pytest.raises(UnsupportedOperation, match="unknown factor kind 'torus'"):
        factor_from_descriptor({"kind": "torus"})


def test_malformed_points_raise_typed_errors():
    circles = ProductSpace([CIRCLE, CIRCLE])
    obj = {"base": {"kind": "marker", "index": 3}, "overrides": {"0": "1/4"}}
    assert ProductPoint.de(circles, obj).coord(1) == F(1, 8)
    for bad, cause in [({**obj, "base": {"kind": "constant"}}, ValueError),
                       ({**obj, "base": {"kind": "marker"}}, KeyError),
                       ({"overrides": {}}, KeyError),
                       ({**obj, "overrides": {"x": "1/4"}}, ValueError),
                       ({**obj, "overrides": {"0": "1/0"}}, ZeroDivisionError),
                       ({**obj, "overrides": {"0": 3}}, AttributeError),
                       ({**obj, "overrides": []}, AttributeError),
                       ({**obj, "base": {"kind": "marker", "index": "3"}}, ValueError),
                       ({**obj, "base": {"kind": "marker", "index": True}}, ValueError),
                       # a negative index would alias another marker
                       ({**obj, "base": {"kind": "marker", "index": -1}}, ValueError),
                       ([], TypeError)]:
        with pytest.raises(PreconditionError, match="malformed point") as info:
            ProductPoint.de(circles, bad)
        assert isinstance(info.value.__cause__, cause)
    with pytest.raises(IndexRange):  # CdhErrors pass unchanged
        ProductPoint.de(circles, {**obj, "overrides": {"2": "1/4"}})
