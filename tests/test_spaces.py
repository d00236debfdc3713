"""Factor metrics, product points and the weighted product metric."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from operator import add, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdhkit.errors import IndexRange, PreconditionError, SpaceMismatch, UnsupportedOperation
from cdhkit.homeos import PLCircleHomeo
from cdhkit.rationals import bound_exponent, floor_pow2, pow2
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
    IntervalOpen,
    SymSeq,
    _LINE_LEVEL_CAP,
    _MARKER_MEMO,
    _dyadic,
    _unpair,
    _wrap1,
    factor_from_descriptor,
    nat_tuple,
    seq_zip,
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
    # one prefix, two tails
    assert SymSeq((2,), 0).first_diff(SymSeq((2,), 1)) == 1


def test_symseq_indexing():
    s = SymSeq((5, 3), tail=2)
    assert [s.at(i) for i in range(4)] == [5, 3, 2, 2]
    assert [s.take(n) for n in (-3, -1, 0, 1, 2, 4)] == [(), (), (), (5,), (5, 3), (5, 3, 2, 2)]
    assert s.drop(1) == SymSeq((3,), 2)


# per-symbol references, read through `at()`, for the whole-prefix kernel

def _take_ref(x, n):
    return tuple(x.at(i) for i in range(n))


def _first_diff_ref(x, y):
    n = max(x.stab, y.stab)
    for i in range(n):
        if x.at(i) != y.at(i):
            return i
    return n if x.tail != y.tail else None


def _zip_ref(x, y, op):
    n = max(x.stab, y.stab)
    return SymSeq(tuple(op(x.at(i), y.at(i)) for i in range(n)), op(x.tail, y.tail))


@st.composite
def _seq_pairs(draw):
    """A sequence factor and two of its points: unrelated, sharing a stem
    (prefixes of different lengths), or on one prefix with their own tails."""
    factor = draw(st.sampled_from([CANTOR, BAIRE]))
    symbols = st.integers(0, 1) if factor is CANTOR else st.integers(-3, 3)
    words = st.lists(symbols, max_size=5).map(tuple)
    stem, mode = draw(words), draw(st.sampled_from(["apart", "stem", "tails"]))
    x = SymSeq(stem + draw(words), draw(symbols))
    if mode == "apart":
        y = SymSeq(draw(words), draw(symbols))
    elif mode == "stem":
        y = SymSeq(stem + draw(words), draw(symbols))
    else:
        y = SymSeq(x.prefix, draw(symbols))
    return factor, x, y


@settings(max_examples=300, deadline=None)
@given(_seq_pairs())
def test_the_sequence_kernel_matches_a_per_symbol_reference(case):
    factor, x, y = case
    for n in range(-2, max(x.stab, y.stab) + 4):
        assert x.take(n) == _take_ref(x, n) and type(x.take(n)) is tuple
    assert x.first_diff(y) == _first_diff_ref(x, y)
    assert y.first_diff(x) == _first_diff_ref(y, x)
    op = xor if factor is CANTOR else add
    assert seq_zip(x, y, op) == factor.group.op(x, y) == _zip_ref(x, y, op)
    if factor is BAIRE:
        assert BAIRE.group.inv(x) == _zip_ref(SymSeq((), 0), x, lambda _, v: -v)


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


def _bound_exponent_by_halving(eps):
    """The halving loop `bound_exponent` replaced, kept as a reference."""
    n, value = 0, F(1)
    while value >= eps:
        value /= 2
        n += 1
    return n


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(0, 4, max_denominator=1 << 80), st.integers(1, 9),
                 st.integers(-90, 3).map(pow2)).filter(lambda eps: eps > 0))
def test_bound_exponent_matches_the_halving_loop(eps):
    n = bound_exponent(eps)
    assert n == _bound_exponent_by_halving(eps)
    assert pow2(-n) < eps and (n == 0 or pow2(-(n - 1)) >= eps)
    # a float eps is read at its exact binary value
    assert bound_exponent(float(eps)) == _bound_exponent_by_halving(F(float(eps)))


@pytest.mark.parametrize("eps", [F(0), 0, F(-1, 3), -2])
def test_bound_exponent_refuses_an_eps_not_positive(eps):
    with pytest.raises(PreconditionError, match="eps must be positive"):
        bound_exponent(eps)


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
    """Hand-built oracle stage: xor each coordinate of `_cantor_omega`'s
    default working depth by a fixed factor point."""

    moved_indices = frozenset(range(16))

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
    root = space.point({0: SymSeq((1,), 0)})
    # the stage lists index 3 as moved: applying it reads index 3 of the root
    with pytest.raises(IndexRange, match="index 3 outside product of 3 factors"):
        root.apply_stage(_XorStage(SymSeq((1,), 0)))
    inside = _XorStage(SymSeq((1,), 0))
    inside.moved_indices = frozenset(space.indices())
    staged = root.apply_stage(inside)
    for p in (space.point(), staged):
        for alpha in (3, -1):
            with pytest.raises(IndexRange, match=f"index {alpha} outside product of 3 factors"):
                p.coord(alpha)


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
    once = {a: 1 for a in _XorStage.moved_indices}
    ancestors = [_CountingStage(SymSeq((k % 2, 1), 0)) for k in range(5)]
    p = space.point({1: SymSeq((1,), 0)})
    for stage in ancestors:
        p = p.apply_stage(stage)
    # each stage ran once at each of its moved indices as it was applied,
    # also at indices 6-15, which nothing reads
    assert all(stage.calls == once for stage in ancestors)
    child_stage = _CountingStage(SymSeq((0, 0, 1), 0))
    child = p.apply_stage(child_stage)
    assert child_stage.calls == once
    # reads call no stage
    for _ in range(2):
        for a in space.indices():
            p.coord(a)
            child.coord(a)
    assert child_stage.calls == once
    assert all(stage.calls == once for stage in ancestors)


class _MarkerShift(ProductStage):
    """Multiplies every coordinate by its factor's first marker point."""

    def __init__(self, space):
        self.space = space
        self.moved_indices = frozenset(space.indices())

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


@pytest.mark.parametrize("bad", [0.5, 2.5, 1.0, True, False, "1", None, F(1)], ids=repr)
def test_factor_refuses_an_index_that_is_not_an_int(bad):
    for space in (ProductSpace([CIRCLE, LINE]), ProductSpace.uniform(CIRCLE, working_depth=4)):
        with pytest.raises(IndexRange, match=re.escape(f"index {bad!r} outside product")):
            space.factor(bad)
    # a read that no cache or override answers reaches `factor`; 1.0, True
    # and Fraction(1) equal the overridden index 1 and read it
    p = ProductSpace.uniform(CIRCLE, working_depth=4).point({1: F(1, 3)})
    if bad != 1:
        with pytest.raises(IndexRange, match="outside product"):
            p.coord(bad)


def test_point_refuses_an_index_outside_the_product():
    space = ProductSpace([CIRCLE, LINE])
    # an index is an int: True == 1 but would serialize as the key "True"
    for over, bad in [({7: F(1, 4)}, "7"), ({2: F(0)}, "2"), ({-1: F(1, 4)}, "-1"),
                      ({0: F(1, 4), 1: F(1, 2), 5: F(5, 4)}, "5"), ({True: F(1, 4)}, "True"),
                      ({0.0: F(1, 4)}, "0.0"), ({"1": F(1, 4)}, "'1'"),
                      ({F(0): F(0)}, "Fraction")]:
        with pytest.raises(IndexRange, match=f"index {bad}.* outside product of 2 factors"):
            space.point(over)
    countable = ProductSpace.uniform(CIRCLE, working_depth=4)
    for bad in (-1, False, 2.0):
        with pytest.raises(IndexRange, match=f"index {bad} outside"):
            countable.point({bad: F(1, 4)})
    assert countable.point({40: F(1, 4)}).coord(40) == F(1, 4)


def test_point_refuses_a_float_on_an_exact_factor():
    for factor in (CANTOR, BAIRE, CIRCLE, LINE):
        space = ProductSpace([DiscSpace(1), factor])
        refusal = f"float 0.25 at index 1 on the exact {factor.kind} factor"
        with pytest.raises(PreconditionError, match=refusal):
            space.point({0: (0.5,), 1: 0.25})
    assert ProductSpace([DiscSpace(1)]).point({0: (0.25,)}).coord(0) == (0.25,)


def test_a_disc_point_is_a_tuple_of_dim_floats():
    space = ProductSpace([DiscSpace(2), DiscSpace(2)])
    for value, kind in [("x", "str"), ((0.5,), "tuple"), ((0.5, 0.0, 0.0), "tuple"),
                        ([0.5, 0.0], "list"), ((0.5, 0), "tuple"), ((0.5, True), "tuple")]:
        with pytest.raises(PreconditionError, match=f"{kind} .* at index 1 on the disc factor"):
            space.point({0: (0.0, 0.0), 1: value})
    assert space.point().coord(0) == (0.0, 0.0)
    p = space.point({1: (0.5, -0.25)})
    assert ProductPoint.de(space, json.loads(json.dumps(p.ser()))).coord(1) == (0.5, -0.25)
    for bad in ([0.5], [0.5, 0.0, 0.0]):
        with pytest.raises(PreconditionError, match="malformed point") as info:
            ProductPoint.de(space, {"base": {"kind": "default"}, "overrides": {"1": bad}})
        assert isinstance(info.value.__cause__, ValueError)


def test_point_refuses_a_bool():
    # True == 1 as a value, but 1 is not a canonical circle point: a stored
    # bool would not share a key with the 0 it equals on the circle
    for factor in (CANTOR, BAIRE, CIRCLE, LINE, DiscSpace(1)):
        space = ProductSpace([LINE, factor])
        for v in (True, False):
            with pytest.raises(PreconditionError, match=f"bool {v} at index 1"):
                space.point({0: F(1, 3), 1: v})


@pytest.mark.parametrize("factor, value, kind", [
    (CANTOR, 1, "int"),
    (CANTOR, F(1, 2), "Fraction"),
    (BAIRE, (1, 2), "tuple"),
    (LINE, "1/2", "str"),
    (CIRCLE, SymSeq((1,), 0), "SymSeq"),
    (CANTOR, SymSeq((2,), 0), "SymSeq"),      # cantor symbols are 0 and 1
    (CANTOR, SymSeq((1,), -1), "SymSeq"),
    (BAIRE, SymSeq((0.5,), 0), "SymSeq"),     # baire symbols are ints
    (BAIRE, SymSeq(("1", 2), 0), "SymSeq"),
    (CANTOR, SymSeq((1.0,), 0), "SymSeq"),    # a float, a bool or a Fraction equal
    (CANTOR, SymSeq((F(1),), 0), "SymSeq"),   # to a symbol is not one
    (CANTOR, SymSeq((0,), 1.0), "SymSeq"),
    (BAIRE, SymSeq((True,), 0), "SymSeq"),
    (BAIRE, SymSeq((3,), True), "SymSeq"),
    (CANTOR, SymSeq(([1],), 0), "SymSeq"),    # an unhashable symbol
], ids=["cantor-int", "cantor-fraction", "baire-tuple", "line-str", "circle-symseq",
        "cantor-symbol-2", "cantor-tail-minus-1", "baire-float-symbol", "baire-str-symbol",
        "cantor-float-symbol", "cantor-fraction-symbol", "cantor-float-tail",
        "baire-bool-symbol", "baire-bool-tail", "cantor-list-symbol"])
def test_point_refuses_an_override_of_another_kind(factor, value, kind):
    good = {CANTOR: SymSeq((1, 0), 1), BAIRE: SymSeq((-4, 7), 2), CIRCLE: 3, LINE: F(-5, 2)}
    # on a mixed and on a uniform product
    for space, first in [(ProductSpace([LINE, factor]), F(1, 3)),
                         (ProductSpace.uniform(factor, working_depth=4), good[factor])]:
        with pytest.raises(PreconditionError,
                           match=f"{kind} .* at index 1 on the exact {factor.kind} factor"):
            space.point({0: first, 1: value})
        # each kind's own points pass
        p = space.point({0: first, 1: good[factor]})
        assert p.coord(1) == (0 if factor is CIRCLE else good[factor])


class _GatedRotation(ProductStage):
    """Rotates circle coordinate 1 by the value of coordinate 0, so every
    level of a pipeline reads a second coordinate."""

    moved_indices = frozenset({1})

    def image_coord(self, get, alpha):
        return CIRCLE.group.op(get(1), get(0))

    def preimage_coord(self, get, alpha):
        return CIRCLE.group.op(get(1), CIRCLE.group.inv(get(0)))


@pytest.mark.parametrize("key", ["x", -1, True, 1.0, None, (0,)])
def test_a_coordwise_stage_refuses_a_key_that_is_not_an_index(key):
    h = PLCircleHomeo([(F(0), F(1, 7))])
    with pytest.raises(PreconditionError, match="coordinatewise indices .* are not ints >= 0"):
        CoordwiseStage({0: h, key: h})


def test_a_coordwise_stage_and_its_inverse_describe_their_indices():
    h = PLCircleHomeo([(F(0), F(1, 7))])
    stage = CoordwiseStage({2: h, 0: h})
    assert stage.descriptor() == {"stage": "coordwise", "indices": [0, 2]}
    assert stage.inverse().descriptor() == {"stage": "inverse", "of": stage.descriptor()}


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

def test_distance_hand_summed_series():
    # two points of cantor^8 differing exactly at indices 0 (bit 0) and 2 (bit 1)
    space = ProductSpace.uniform(CANTOR, count=8)
    x = space.point({0: SymSeq((1,), 0), 2: SymSeq((0, 1), 0)})
    y = space.point()
    # hand sum: 2^-0 * 2^-0  +  2^-2 * 2^-1  = 1 + 1/8
    assert space.metric(x, y) == F(1) + F(1, 8)
    assert space.metric(x, x) == 0


def test_a_finite_product_takes_no_working_depth():
    for depth in (1, 2, 8):
        with pytest.raises(ValueError, match="a finite one takes none"):
            ProductSpace.uniform(CANTOR, count=8, working_depth=depth)
    with pytest.raises(ValueError, match="a finite one takes none"):
        ProductSpace([CIRCLE, LINE], working_depth=1)
    # its working depth is its count, so the metric and the descriptor
    # cover every factor
    space = ProductSpace.uniform(CANTOR, count=8)
    assert space.indices() == range(8)
    x = space.point({7: SymSeq((1,), 0)})
    assert space.metric(x, space.point()) == pow2(-7)
    assert ProductSpace([CIRCLE, LINE]).descriptor() == {
        "count": 2, "working_depth": 2, "factors": [{"kind": "circle"}, {"kind": "line"}]}


@pytest.mark.parametrize("depth, error, refusal", [
    (None, ValueError, "a countable product needs a working depth"),
    (0, ValueError, "working depth 0 is below 1"),
    (-1, ValueError, "working depth -1 is below 1"),
    (True, TypeError, "working depth True is not an int"),
    (2.5, TypeError, "working depth 2.5 is not an int"),
    (4.0, TypeError, "working depth 4.0 is not an int"),
    ("4", TypeError, "working depth '4' is not an int"),
])
def test_a_countable_product_needs_an_int_working_depth_of_at_least_1(depth, error, refusal):
    with pytest.raises(error, match=refusal):
        ProductSpace.uniform(CIRCLE, working_depth=depth)
    space = ProductSpace.uniform(CIRCLE, working_depth=1)
    assert space.indices() == range(1)
    assert space.descriptor() == {"count": None, "working_depth": 1,
                                  "factors": [{"kind": "circle"}]}


def test_distance_space_mismatch():
    a = ProductSpace.uniform(CANTOR, count=2)
    b = ProductSpace.uniform(CANTOR, count=3)
    with pytest.raises(SpaceMismatch, match="point 1 lives in another product"):
        a.metric(a.point(), b.point())
    with pytest.raises(SpaceMismatch, match="point 0 lives in another product"):
        a.metric(b.point(), a.point())
    c, d = ProductSpace([CIRCLE, LINE]), ProductSpace([CIRCLE, CIRCLE])
    assert c != d
    for one, twin in [(c, ProductSpace([CIRCLE, LINE])),
                      (ProductSpace.uniform(CIRCLE, working_depth=4),
                       ProductSpace(lambda a: CIRCLE, working_depth=4))]:
        assert one == twin and hash(one) == hash(twin)
    with pytest.raises(SpaceMismatch, match="point 0 lives in another product"):
        c.metric(d.point({1: F(3, 4)}), c.point())


def test_finite_product_exact_metric():
    space = ProductSpace(factors=[CANTOR, CIRCLE])
    x = space.point({0: SymSeq((1,), 0), 1: F(1, 4)})
    y = space.point()
    assert space.metric(x, y) == F(1) + F(1, 2) * F(1, 4)


def test_metric_refuses_a_float_or_a_countable_product():
    disc = DiscSpace(2)
    space = ProductSpace([disc, disc])
    with pytest.raises(UnsupportedOperation, match="finitely many exact factors"):
        space.metric(space.point(), space.point())
    countable = _cantor_omega()
    with pytest.raises(UnsupportedOperation, match="finitely many exact factors"):
        countable.metric(countable.point(), countable.point())


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


def _enumerated_dyadics(count: int) -> list:
    """1/2, 1/4, 3/4, 1/8, ...: level L's odd numerators over 2^L in turn."""
    out, level = [], 1
    while len(out) < count:
        out += [F(m, 1 << level) for m in range(1, 1 << level, 2)]
        level += 1
    return out[:count]


def test_dyadic_closed_form_equals_the_enumeration():
    n = 1 << 12
    assert [_dyadic(k) for k in range(n)] == _enumerated_dyadics(n)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=200)


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, st.fractions(min_value=F(1, 100), max_value=2, max_denominator=200),
       st.integers(0, 5000), st.booleans())
def test_integer_pick_in_equals_the_fraction_formula(lo, width, salt, ints):
    hi = lo + width
    if ints:  # int ends read as their Fractions
        lo, hi = math.floor(lo), math.floor(lo) + max(1, math.ceil(width))
    point = lo + (hi - lo) * _dyadic(salt)
    line = LINE.pick_in(IntervalOpen(lo, hi), salt)
    circle = CIRCLE.pick_in(IntervalOpen(lo, hi, wrap=True), salt)
    assert type(line) is F and type(circle) is F
    assert line == point
    assert circle == _wrap1(point) and 0 <= circle < 1


def test_integer_pick_in_equals_the_fraction_formula_on_basic_opens():
    for n in range(200):
        for factor in (CIRCLE, LINE):
            box = factor.basic_open(n)
            for salt in range(0, 300, 7):
                point = box.lo + (box.hi - box.lo) * _dyadic(salt)
                assert factor.pick_in(box, salt) == (_wrap1(point) if box.wrap else point)


@pytest.mark.parametrize("factor", [CANTOR, BAIRE], ids=lambda f: f.kind)
def test_sequence_markers_are_built_once_below_the_memo_bound(factor):
    # every coordinate of a marker root reads one shared marker
    root = ProductPoint(ProductSpace.uniform(factor, working_depth=8), 5, {})
    assert all(root.coord(a) is factor.marker(5) for a in range(8))
    for k in (0, 1, _MARKER_MEMO - 1, _MARKER_MEMO, 3 * _MARKER_MEMO):
        fresh = SymSeq(factor._salt_tuple(k), 0)
        assert factor.marker(k) == fresh
        assert (factor.marker(k) is factor.marker(k)) == (k < _MARKER_MEMO)
    assert len(factor._markers) <= _MARKER_MEMO


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
    q = ProductSpace.uniform(CIRCLE, count=4).point({0: F(5, 4), 1: F(-3, 4), 2: 1, 3: F(1, 3)})
    assert [q.coord(a) for a in range(4)] == [F(1, 4), F(1, 4), 0, F(1, 3)]


def test_wrap1_returns_a_canonical_argument_itself():
    for x in (F(0), F(1, 2), F(63, 64), F(10**40 - 1, 10**40), 0):
        assert _wrap1(x) is x
    assert _wrap1(F(5, 4)) == F(1, 4) and _wrap1(F(-3, 4)) == F(1, 4) and _wrap1(1) == 0


def _wrap_in_fractions(x):
    """x mod 1 by the Fraction formula the integer circle kernels replaced,
    kept as a reference."""
    return F(x) - math.floor(x)


# raw values: ints, values outside [0, 1), negatives, denominators up to 2^80
_raw_circle_values = st.one_of(
    st.integers(-5, 5),
    st.fractions(-5, 5, max_denominator=64),
    st.fractions(-5, 5, max_denominator=1 << 80),
)


@settings(max_examples=300, deadline=None)
@given(_raw_circle_values, _raw_circle_values)
def test_circle_kernels_match_their_fraction_formulas(x, y):
    f = _wrap_in_fractions(F(x) - F(y))
    assert CIRCLE.group.op(x, y) == _wrap_in_fractions(F(x) + F(y))
    assert CIRCLE.group.inv(x) == _wrap_in_fractions(-F(x))
    assert CIRCLE.metric(x, y) == min(f, 1 - f)
    assert CIRCLE.points_equal(x, y) is (f == 0)
    assert _wrap1(x) == _wrap_in_fractions(x)
    # a value and its shift by whole turns are one point
    assert CIRCLE.points_equal(x, x + 3) and CIRCLE.points_equal(x - 2, x)


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


_SYMBOLS = st.sampled_from([0, 1, 2, -1, True, False, 1.0, 0.0, F(1), "1", None])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([CANTOR, BAIRE]), st.lists(_SYMBOLS, max_size=4), _SYMBOLS)
def test_a_sequence_point_is_stored_exactly_when_its_serialization_loads(factor, prefix, tail):
    # one symbol rule: an override is accepted iff the loader takes it back
    x = SymSeq(tuple(prefix), tail)
    try:
        loaded = factor.de_point(factor.ser_point(x))
    except ValueError:
        loaded = None
    assert factor.is_point(x) == (loaded is not None)
    space = ProductSpace([LINE, factor])
    if loaded is None:
        with pytest.raises(PreconditionError):
            space.point({1: x})
    else:
        p = space.point({1: x})
        q = ProductPoint.de(space, json.loads(json.dumps(p.ser())))
        assert loaded == x and q.coord(1) == x and q.ser() == p.ser()


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


def test_point_loader_reads_only_the_index_keys_ser_writes():
    space = ProductSpace([LINE] * 12)
    obj = {"base": {"kind": "default"}, "overrides": {"10": "1/4", "0": "-1/2"}}
    assert ProductPoint.de(space, obj).ser() == obj
    # "1_0" would load as index 10, and "+1" with "1" as one override
    for overrides in [{"1_0": "1/4"}, {"+1": "1/4", "1": "1/2"}, {"01": "1/4"}, {" 1": "1/4"},
                      {"1 ": "1/4"}, {"-0": "1/4"}, {"\uff11": "1/4"}, {"": "1/4"}, {1: "1/4"}]:
        with pytest.raises(PreconditionError, match="malformed point") as info:
            ProductPoint.de(space, {**obj, "overrides": overrides})
        assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("dim, error", [(True, TypeError), (False, TypeError), (2.0, TypeError),
                                        ("2", TypeError), (0, ValueError), (-1, ValueError)])
def test_disc_refuses_a_dimension_that_is_not_an_int_of_at_least_one(dim, error):
    with pytest.raises(error):
        DiscSpace(dim)
    with pytest.raises(PreconditionError, match="malformed factor descriptor"):
        factor_from_descriptor({"kind": "disc", "dim": dim})
