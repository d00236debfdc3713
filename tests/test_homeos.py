"""Exact homeomorphism algebra: composition, displacement, realizers."""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdhkit import homeos
from cdhkit.errors import OrderViolation, PreconditionError, SpaceMismatch, UnsupportedOperation
from cdhkit.homeos import (
    CylinderHomeo,
    PLCircleHomeo,
    PLLineHomeo,
    compose,
    homeo_from_descriptor,
    identity_for,
    realize_finite_bijection,
    small_ball_transporter,
    sup_distance,
)
from cdhkit.rationals import pow2
from cdhkit.spaces import BAIRE, CANTOR, CIRCLE, LINE, DiscSpace, SymSeq, _wrap1

F = Fraction


def _random_cylinder_homeo(rng: random.Random, depth: int) -> CylinderHomeo:
    cylinders = list(itertools.product((0, 1), repeat=depth))
    shuffled = cylinders[:]
    rng.shuffle(shuffled)
    table = dict(zip(cylinders, shuffled))
    masks = {}
    for c in rng.sample(cylinders, k=min(2, len(cylinders))):
        masks[c] = SymSeq((rng.randint(0, 1), rng.randint(0, 1)), rng.randint(0, 1))
    return CylinderHomeo(CANTOR, depth, table, masks)


def _random_seq(rng: random.Random, length: int = 6) -> SymSeq:
    return SymSeq(tuple(rng.randint(0, 1) for _ in range(length)), rng.randint(0, 1))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_identity_law_cylinder():
    rng = random.Random(1)
    h = _random_cylinder_homeo(rng, 3)
    left = compose(identity_for(CANTOR), h)
    right = compose(h, identity_for(CANTOR))
    for _ in range(64):
        x = _random_seq(rng)
        assert left.apply(x) == h.apply(x) == right.apply(x)


def test_compose_depth2_swaps_enumerated_by_hand():
    # swap(00<->01) then swap(01<->10): 00->10, 01->00, 10->01, 11->11
    a = CylinderHomeo(CANTOR, 2, {(0, 0): (0, 1), (0, 1): (0, 0)})
    b = CylinderHomeo(CANTOR, 2, {(0, 1): (1, 0), (1, 0): (0, 1)})
    c = compose(a, b)
    expected = {(0, 0): (1, 0), (0, 1): (0, 0), (1, 0): (0, 1), (1, 1): (1, 1)}
    for cyl, image in expected.items():
        x = SymSeq(cyl + (1, 1), 0)
        assert c.apply(x) == SymSeq(image + (1, 1), 0)


def test_compose_pl_with_inverse_is_identity():
    h = PLLineHomeo([(F(0), F(0)), (F(1, 4), F(1, 2)), (F(1), F(1))])
    round_trip = compose(h, h.invert())
    assert round_trip.sup_displacement() == 0


def test_compose_matches_pointwise_application():
    rng = random.Random(7)
    for _ in range(10):
        g = _random_cylinder_homeo(rng, 2)
        h = _random_cylinder_homeo(rng, 3)
        c = compose(g, h)
        for _ in range(32):
            x = _random_seq(rng)
            assert c.apply(x) == h.apply(g.apply(x))


def test_compose_displacement_triangle_bound():
    rng = random.Random(11)
    for _ in range(20):
        g = _random_cylinder_homeo(rng, 3)
        h = _random_cylinder_homeo(rng, 3)
        assert compose(g, h).sup_displacement() <= g.sup_displacement() + h.sup_displacement()


def test_group_law_exact_zero_displacement():
    rng = random.Random(3)
    for _ in range(10):
        h = _random_cylinder_homeo(rng, 3)
        assert compose(h, h.invert()).sup_displacement() == 0
        assert compose(h.invert(), h).sup_displacement() == 0


def test_baire_compose_equal_depth():
    g = CylinderHomeo(BAIRE, 1, {(0,): (5,), (5,): (0,)})
    h = CylinderHomeo(BAIRE, 1, {(5,): (7,), (7,): (5,)})
    c = compose(g, h)
    assert c.apply(SymSeq((0, 2), 0)) == SymSeq((7, 2), 0)
    with pytest.raises(UnsupportedOperation):
        compose(g, CylinderHomeo(BAIRE, 2, {(1, 1): (1, 2), (1, 2): (1, 1)}))


# ---------------------------------------------------------------------------
# sup-displacement
# ---------------------------------------------------------------------------

def test_sup_displacement_identity():
    assert identity_for(CANTOR).sup_displacement() == 0
    assert identity_for(CIRCLE).sup_displacement() == 0
    assert identity_for(LINE).sup_displacement() == 0


def test_sup_displacement_deep_permutation():
    # fixes all depth-3 prefixes, permutes deeper: a depth-3-agreeing pair
    # maps apart at index 3, so the sup is exactly 2^-3
    h = CylinderHomeo(CANTOR, 4, {(0, 1, 0, 0): (0, 1, 0, 1), (0, 1, 0, 1): (0, 1, 0, 0)})
    assert h.sup_displacement() == pow2(-3)


def test_sup_displacement_mask_only():
    h = CylinderHomeo(CANTOR, 2, {}, {(1, 1): SymSeq((0, 0, 1), 0)})
    # first changed position is 2 + 2
    assert h.sup_displacement() == pow2(-4)


def test_sup_displacement_line_plateau_shift():
    h = PLLineHomeo([
        (F(0), F(0)), (F(1, 4), F(1, 4) + F(1, 8)),
        (F(1, 2), F(1, 2) + F(1, 8)), (F(1), F(1)),
    ])
    assert h.sup_displacement() == F(1, 8)


def test_sup_displacement_circle_rotation():
    rot = PLCircleHomeo([(F(0), F(1, 3))], 1)
    assert rot.sup_displacement() == F(1, 3)
    half = PLCircleHomeo([(F(0), F(1, 2))], 1)
    assert half.sup_displacement() == F(1, 2)


def test_circle_displacement_detects_interior_half_crossing():
    # lift runs from 0 up by 3/4 then back: g = L(t)-t crosses 1/2 inside
    h = PLCircleHomeo([(F(0), F(0)), (F(1, 4), F(9, 10))], 1)
    assert h.sup_displacement() == F(1, 2)


def _arc_sup_in_fractions(gaps):
    """The Fraction formula `homeos._arc_sup` replaced, kept as a reference."""
    half = F(1, 2)
    for g0, g1 in zip(gaps, gaps[1:]):
        if g0 != g1:
            lo, hi = (g0, g1) if g0 < g1 else (g1, g0)
            if math.floor(lo - half) + 1 + half <= hi:
                return half
    best = F(0)
    for g in gaps:
        if g:
            f = _wrap1(g)
            best = max(best, min(f, 1 - f))
    return best


_gap_values = st.one_of(
    st.integers(-4, 4).map(F),                                # integers
    st.integers(-4, 4).map(lambda k: F(2 * k + 1, 2)),        # exact half-integers
    st.fractions(-3, 3, max_denominator=64),
    st.fractions(-3, 3, max_denominator=1 << 80),             # large denominators
    st.integers(-4, 4).flatmap(                               # a hair off a half-integer
        lambda k: st.sampled_from((F(2 * k + 1, 2) - pow2(-70), F(2 * k + 1, 2) + pow2(-70)))),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_gap_values, st.integers(1, 1 << 40)), min_size=1, max_size=8))
def test_arc_sup_matches_the_fraction_formula(gaps):
    # `_arc_sup` reads unreduced pairs: each gap n/d is passed as (k*n, k*d)
    pairs = [(k * g.numerator, k * g.denominator) for g, k in gaps]
    assert homeos._arc_sup(pairs) == _arc_sup_in_fractions([g for g, _ in gaps])


@pytest.mark.parametrize("factor", [CANTOR, BAIRE, CIRCLE, LINE])
def test_each_kind_shares_one_identity(factor):
    e = identity_for(factor)
    assert identity_for(factor) is e
    h = {CANTOR: _random_cylinder_homeo(random.Random(2), 2),
         BAIRE: CylinderHomeo(BAIRE, 1, {(0,): (4,), (4,): (0,)}),
         CIRCLE: small_ball_transporter(CIRCLE, F(1, 3), F(3, 8), F(1, 8)),
         LINE: small_ball_transporter(LINE, F(-2), F(-2) + F(1, 32), F(1, 16))}[factor]
    d = h.sup_displacement()
    # the shared identity comes out of composing, inverting and measuring as
    # it went in
    for m in (compose(e, h), compose(h, e), compose(h, h.invert()), e.invert()):
        assert sup_distance(m, e) == sup_distance(e, m)
    assert h.sup_displacement() == d
    assert e.sup_displacement() == 0
    assert identity_for(factor) is e


# ---------------------------------------------------------------------------
# circle / line PL mechanics
# ---------------------------------------------------------------------------

def test_circle_lift_round_trip_exact():
    h = PLCircleHomeo([(F(0), F(1, 8)), (F(1, 2), F(3, 4))], 1)
    hi = h.invert()
    rng = random.Random(5)
    for _ in range(100):
        x = F(rng.randint(0, 127), 128)
        assert hi.apply(h.apply(x)) == x
        assert h.apply(hi.apply(x)) == x


def test_circle_orientation_reversing_round_trip():
    h = PLCircleHomeo([(F(0), F(1, 4)), (F(1, 3), F(0))], -1)
    hi = h.invert()
    for k in range(24):
        x = F(k, 24)
        assert hi.apply(h.apply(x)) == x


@st.composite
def _circle_maps(draw) -> PLCircleHomeo:
    """PL circle maps of either orientation whose lift starts anywhere in
    [-3, 3], so lifts with L(0) outside [0, 1) are covered."""
    inner = st.fractions(min_value=0, max_value=1, max_denominator=64).filter(lambda x: 0 < x < 1)
    xs = sorted({F(0)} | set(draw(st.lists(inner, max_size=5))))
    s = draw(st.sampled_from((1, -1)))
    gaps = draw(st.lists(st.integers(1, 20), min_size=len(xs), max_size=len(xs)))
    ys = [draw(st.fractions(min_value=-3, max_value=3, max_denominator=97))]
    for g in gaps[:-1]:
        ys.append(ys[-1] + s * F(g, sum(gaps)))
    return PLCircleHomeo(list(zip(xs, ys)), s)


@settings(max_examples=120, deadline=None)
@given(_circle_maps(), st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=60),
                                max_size=6))
def test_circle_invert_round_trips_exactly(h, ts):
    hi = h.invert()
    assert hi.orientation == h.orientation
    assert hi.breaks[0][0] == 0
    for t in ts + [x for x, _ in h.breaks] + [y for _, y in h.breaks]:
        assert hi.lift_at(h.lift_at(t)) == t
        assert h.lift_at(hi.lift_at(t)) == t
        assert CIRCLE.points_equal(hi.apply(h.apply(t)), t)


@st.composite
def _line_maps(draw) -> PLLineHomeo:
    """PL line maps with two to six breaks; a value drawn as its own
    abscissa may leave a segment fixed."""
    xs = sorted(set(draw(st.lists(st.fractions(-4, 4, max_denominator=64), min_size=2, max_size=6))))
    assume(len(xs) >= 2)
    inner = st.fractions(xs[0], xs[-1], max_denominator=1 << 20).filter(lambda y: xs[0] < y < xs[-1])
    ys = sorted(draw(st.one_of(st.just(x), inner)) for x in xs[1:-1])
    assume(len(set(ys)) == len(ys))
    return PLLineHomeo(list(zip(xs, [xs[0], *ys, xs[-1]])))


_SEGMENT_POINTS = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=1 << 40))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_circle_maps(), _line_maps()), st.lists(_SEGMENT_POINTS, max_size=4))
@example(PLCircleHomeo([(F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(5, 8)), (F(3, 4), F(7, 8))], 1),
         [])  # identity, sloped and translation segments
@example(PLLineHomeo([(F(-1), F(-1)), (F(0), F(0)), (F(1), F(3, 2)), (F(2), F(2))]), [F(1, 2), 3])
def test_segments_evaluate_through_one_kept_form(m, ts):
    ends = list(m.breaks[1:])
    if isinstance(m, PLCircleHomeo):
        ends.append((F(1), m.breaks[0][1] + m.orientation))
    for i, ((x0, y0), (x1, y1)) in enumerate(zip(m.breaks, ends)):
        # Fraction and int t, on the segment and off it
        for t in [x0, (2 * x0 + x1) / 3, x1, math.floor(x0), *ts]:
            first = m._on(i, t)
            assert first == m._on(i, t) == y0 + (t - x0) * (y1 - y0) / (x1 - x0)
            n, d = m._at(i, t.numerator, t.denominator)
            assert d > 0 and F(n, d) == first
            if x0 == y0 and x1 == y1:
                assert first is t


def _arcs_of(m) -> list:
    """m's moved arcs, which it keeps as pairs of points, as pairs of
    Fractions."""
    return [(F(*a), F(*b)) for a, b in m._arcs]


def _segment_ends(m) -> list:
    ends = list(m.breaks[1:])
    if isinstance(m, PLCircleHomeo):
        ends.append((F(1), m.breaks[0][1] + m.orientation))
    return list(zip(m.breaks, ends))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_circle_maps(), _line_maps()),
       st.lists(st.one_of(_SEGMENT_POINTS, st.fractions(-5, 5, max_denominator=1 << 80)), max_size=6))
def test_segment_search_and_apply_match_the_fraction_formulas(m, ts):
    xs = [x for x, _ in m.breaks]
    segments = _segment_ends(m)
    for t in [*xs, *(x - F(1, 1 << 70) for x in xs), *ts]:
        r = t - math.floor(t) if isinstance(m, PLCircleHomeo) else t
        i = bisect.bisect_right(xs, r) - 1
        assert m._seg(r.numerator, r.denominator) == i
        if isinstance(m, PLCircleHomeo):
            (x0, y0), (x1, y1) = segments[i]
            lift = y0 + (r - x0) * (y1 - y0) / (x1 - x0) + math.floor(t) * m.orientation
            assert m.lift_at(t) == lift
            assert m.apply(t) == lift - math.floor(lift)
        elif 0 <= i < len(segments):
            (x0, y0), (x1, y1) = segments[i]
            assert m.apply(t) == y0 + (t - x0) * (y1 - y0) / (x1 - x0)
        else:
            assert m.apply(t) is t


def _form_in_fractions(m, i: int) -> tuple:
    """The Fraction formula the integer `_form` replaced, kept as a
    reference: m = slope and e = intercept in lowest terms, over their lcm."""
    (x0, y0), (x1, y1) = _segment_ends(m)[i]
    slope = (y1 - y0) / (x1 - x0)
    e = y0 - slope * x0
    g = math.gcd(slope.denominator, e.denominator)
    return (slope.numerator * (e.denominator // g), e.numerator * (slope.denominator // g),
            slope.denominator // g * e.denominator)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_circle_maps(), _line_maps()))
@example(PLCircleHomeo([(F(0), F(-5, 2)), (F(1, 3), F(-3)), (F(2, 3), F(-13, 4))], -1))  # negative
@example(PLCircleHomeo([(F(0), F(7, 3)), (F(1, 2), F(11, 4))], 1))  # past two turns
@example(PLCircleHomeo([(F(0), F(-2)), (F(1, 4), F(-7, 4))], 1))  # whole turns off the identity
@example(PLLineHomeo([(F(-3), F(-3)), (F(-1, 2), F(-1, 2)), (F(1, 3), F(2)), (F(5), F(5))]))
def test_integer_forms_match_the_fraction_formula(m):
    for i in range(len(_segment_ends(m))):
        form = m._form(i)
        assert form == _form_in_fractions(m, i)
        assert form[2] > 0 and math.gcd(*form) == 1
        assert (form is homeos._IDENTITY_FORM) == (form == (1, 0, 1))


def _checked_pairs(n: int, added) -> list:
    """The pairs a constructor compares: all, or those next to an added break."""
    if added is None:
        return list(range(n - 1))
    return sorted({k for a in added for k in (a - 1, a) if 0 <= k < n - 1})


def _line_refusal(breaks, pairs):
    """The Fraction comparisons the integer line constructor replaced, kept
    as a reference: the message it raises, or None."""
    for k in pairs:
        (x0, y0), (x1, y1) = breaks[k], breaks[k + 1]
        if not (x0 < x1 and y0 < y1):
            return "breakpoints must be strictly increasing"
    if breaks and (breaks[0][0] != breaks[0][1] or breaks[-1][0] != breaks[-1][1]):
        return "PL line maps must be the identity outside their breakpoints"
    return None


def _circle_refusal(breaks, s, pairs):
    """As `_line_refusal`, for the circle constructor and orientation s."""
    if not breaks or breaks[0][0] != 0:
        return "circle breakpoints must start at 0"
    if not breaks[-1][0] < 1 or any(not breaks[k][0] < breaks[k + 1][0] for k in pairs):
        return "circle breakpoints must increase within [0, 1)"
    ys = [(breaks[k][1], breaks[k + 1][1]) for k in pairs] + [(breaks[-1][1], breaks[0][1] + s)]
    for y0, y1 in ys:
        if s == 1 and not y0 < y1:
            return "lift must strictly increase"
        if s == -1 and not y0 > y1:
            return "lift must strictly decrease"
    return None


_EDIT_VALUES = st.one_of(st.integers(-3, 3).map(F), st.fractions(-3, 3, max_denominator=32),
                         st.fractions(-3, 3, max_denominator=1 << 70))


@st.composite
def _edited_breaks(draw):
    """(breaks, orientation, added): the breaks of a valid PL map of either
    kind, then maybe one edit a constructor must refuse (two breaks
    swapped, a value repeated from the neighbour, a value moved anywhere),
    and None or some positions to pass as the composite's added breaks."""
    m = draw(st.one_of(_circle_maps(), _line_maps()))
    pts = list(m.breaks)
    edit = draw(st.sampled_from(("none", "swap", "repeat", "move")))
    if edit != "none" and len(pts) >= 2:
        k = draw(st.integers(0, len(pts) - 2))
        if edit == "swap":
            pts[k], pts[k + 1] = pts[k + 1], pts[k]
        elif edit == "repeat":
            pts[k + 1] = draw(st.sampled_from(((pts[k][0], pts[k + 1][1]), (pts[k + 1][0], pts[k][1]))))
        else:
            k = draw(st.integers(0, len(pts) - 1))
            pts[k] = (draw(st.one_of(st.just(pts[k][0]), _EDIT_VALUES)),
                      draw(st.one_of(st.just(pts[k][1]), _EDIT_VALUES)))
    s = m.orientation if isinstance(m, PLCircleHomeo) else draw(st.sampled_from((1, -1)))
    positions = st.lists(st.integers(0, max(len(pts) - 1, 0)), unique=True, max_size=3).map(sorted)
    return tuple(pts), s, draw(st.one_of(st.none(), positions))


@settings(max_examples=400, deadline=None)
@given(_edited_breaks())
@example((((F(0), F(0)), (F(1, 2), F(1, 2))), -1, None))  # the closing pair decreases
@example((((F(0), F(1, 2)), (F(1, 4), F(5, 4))), 1, [1]))  # the closing pair ties, added path
@example(((), 1, []))
def test_integer_constructor_checks_match_the_fraction_comparisons(case):
    breaks, s, added = case
    pairs = _checked_pairs(len(breaks), added)
    given = breaks if added is None else homeos._as_breaks(breaks)  # a composite passes points
    for build, message in ((lambda: PLLineHomeo(given, _added=added), _line_refusal(breaks, pairs)),
                           (lambda: PLCircleHomeo(given, s, _added=added),
                            _circle_refusal(breaks, s, pairs))):
        if message is None:
            assert build().breaks == breaks
        else:
            with pytest.raises(ValueError) as refused:
                build()
            assert str(refused.value) == message


def _circle_through_in_fractions(pts: list, s: int) -> PLCircleHomeo:
    """The Fraction formula of `_circle_through`'s wrap segment, kept as a
    reference."""
    if pts[0][0] != 0:
        (x0, y0), (x1, y1) = pts[-1], pts[0]
        fixed = s == 1 and x0 == y0 and x1 == y1
        pts = [(F(0), F(0) if fixed else y1 - x1 * (y1 - y0 + s) / (x1 - x0 + 1))] + pts
    return PLCircleHomeo(pts, s)


@settings(max_examples=200, deadline=None)
@given(_circle_maps())
@example(PLCircleHomeo([(F(0), F(-5, 2)), (F(1, 3), F(-3)), (F(2, 3), F(-13, 4))], -1))
@example(PLCircleHomeo([(F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(5, 8))], 1))
def test_circle_inverse_matches_the_sorted_fraction_anchors(h):
    # each break (x, y) lands at (y - n, x - s*n), n = floor(y); the anchors
    # sorted by abscissa through Fraction comparisons, then interpolated
    s = h.orientation
    pts = sorted(((y - math.floor(y), x - s * math.floor(y)) for x, y in h.breaks), key=lambda p: p[0])
    ref = _circle_through_in_fractions(pts, s)
    assert (h._inverse().breaks, h._inverse().orientation) == (ref.breaks, s)


def _line_transporter_in_fractions(center, target, delta) -> PLLineHomeo:
    """The Fraction construction of the line transporter, kept as a
    reference: a bump of radius r, padded by `_realize_line`."""
    gap = abs(target - center)
    r = (gap + delta) / 2 if gap < delta else gap + 1
    return homeos._realize_line({center - r: center - r, center: target, center + r: center + r})


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(-3, 3), st.fractions(-4, 4, max_denominator=1 << 20)),
       st.one_of(st.integers(-3, 3), st.fractions(-8, 8, max_denominator=1 << 20)),
       st.one_of(st.integers(1, 3), st.fractions(F(1, 1 << 12), 4, max_denominator=1 << 20)))
def test_line_transporter_is_the_padded_bump_built_in_fractions(center, shift, delta):
    target = center + shift
    d = LINE.metric(center, target)
    if d >= delta:
        with pytest.raises(PreconditionError) as refused:
            small_ball_transporter(LINE, center, target, delta)
        assert str(refused.value) == f"target at distance {d} is outside the {F(delta)}-ball"
    elif d == 0:
        assert small_ball_transporter(LINE, center, target, delta) is identity_for(LINE)
    else:
        h = small_ball_transporter(LINE, center, target, delta)
        assert h.breaks == _line_transporter_in_fractions(center, target, F(delta)).breaks


@pytest.mark.parametrize("center, target, delta, distance", [
    (F(0), F(1, 4), F(1, 8), "1/4"), (F(7, 8), F(1, 8), F(1, 4), "1/4"),
    (F(1, 3), F(1, 3) + 5, F(1, 2), "0"), (3, F(1, 2), F(1, 2), "1/2")])
def test_circle_transporter_refusals_name_the_distance(center, target, delta, distance):
    if distance == "0":
        assert small_ball_transporter(CIRCLE, center, target, delta) is identity_for(CIRCLE)
        return
    with pytest.raises(PreconditionError, match=f"target at distance {distance} is outside the "
                                                f"{F(delta)}-ball"):
        small_ball_transporter(CIRCLE, center, target, delta)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(_circle_maps(), _circle_maps()), st.tuples(_line_maps(), _line_maps())),
       st.integers(-3, 3))
def test_sup_distance_matches_the_fraction_formula_at_merged_breaks(maps, shift):
    f, g = maps
    xs = sorted({x for x, _ in f.breaks} | {x for x, _ in g.breaks})
    if isinstance(f, PLCircleHomeo):
        # the lift of g moved by whole turns is the same circle map
        g = PLCircleHomeo([(x, y + shift) for x, y in g.breaks], g.orientation)
        want = _arc_sup_in_fractions([f.lift_at(x) - g.lift_at(x) for x in xs + [F(1)]])
    else:
        # stretched by 2^shift, so that gaps pass the cap of 1
        g = PLLineHomeo([(x * pow2(shift), y * pow2(shift)) for x, y in g.breaks])
        xs = sorted(set(xs) | {x for x, _ in g.breaks})
        want = min(max((abs(f.apply(x) - g.apply(x)) for x in xs), default=F(0)), F(1))
    assert sup_distance(f, g) == sup_distance(g, f) == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(_circle_maps(), _line_maps()))
@example(small_ball_transporter(CIRCLE, F(1, 1024), F(-1, 512), F(1, 64)))
@example(PLCircleHomeo([(F(0), F(3, 4)), (F(1, 2), F(1, 4))], -1))
def test_pl_displacement_read_off_the_breaks_is_the_distance_to_the_identity(m):
    e = identity_for(m.space)
    assert m.sup_displacement() == sup_distance(m, e) == sup_distance(e, m)


def test_line_pl_apply_and_invert_exact():
    h = PLLineHomeo([(F(-1), F(-1)), (F(0), F(1, 2)), (F(1), F(1))])
    assert h.apply(F(-1, 2)) == F(-1, 4)
    assert h.apply(F(2)) == F(2)
    assert h.invert().apply(h.apply(F(1, 3))) == F(1, 3)


_QUARTERS = [(F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)), (F(3, 4), F(3, 4))]


@pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
def test_pl_constructors_check_every_pair(at):
    xs = [x for x, _ in _QUARTERS]
    bad_x = xs[:]
    bad_x[at], bad_x[at + 1] = bad_x[at + 1], bad_x[at]
    if at:  # the circle's first break stays at 0
        with pytest.raises(ValueError, match="within \\[0, 1\\)"):
            PLCircleHomeo(list(zip(bad_x, xs)), 1)
    with pytest.raises(ValueError, match="strictly increasing"):
        PLLineHomeo(list(zip(bad_x, bad_x)))
    bad_y = xs[:]
    bad_y[at + 1] = bad_y[at]
    with pytest.raises(ValueError, match="lift must strictly increase"):
        PLCircleHomeo(list(zip(xs, bad_y)), 1)
    with pytest.raises(ValueError, match="lift must strictly decrease"):
        PLCircleHomeo(list(zip(xs, [-y for y in bad_y])), -1)
    with pytest.raises(ValueError, match="strictly increasing"):
        PLLineHomeo(list(zip(xs, bad_y)) + [(F(1), F(1))])


def test_circle_constructor_checks_the_closing_pair():
    # the last lift value must stay below L(0) + 1, or above L(0) - 1 when
    # the map reverses orientation
    with pytest.raises(ValueError, match="lift must strictly increase"):
        PLCircleHomeo(_QUARTERS[:-1] + [(F(3, 4), F(1))], 1)
    with pytest.raises(ValueError, match="lift must strictly decrease"):
        PLCircleHomeo([(x, -y) for x, y in _QUARTERS[:-1]] + [(F(3, 4), F(-1))], -1)


@pytest.mark.parametrize("corrupt", ["x-order", "y-order"])
@pytest.mark.parametrize("factor, centers", [(LINE, (F(0), F(1, 16))), (CIRCLE, (F(1, 4), F(5, 16)))],
                         ids=["line", "circle"])
def test_a_composite_checks_the_pairs_at_its_added_breaks(monkeypatch, factor, centers, corrupt):
    g, h = (small_ball_transporter(factor, c, c + F(1, 64), F(1, 8)) for c in centers)
    merge = homeos._compose_breaks

    def corrupted(*args):
        pts, added, *rest = merge(*args)
        assert added and len(added) < len(pts)  # some breaks are h's own
        # the circle's first break stays at 0, the line's stays fixed
        a = next(a for a in added if 2 <= a < len(pts) - 1)
        if corrupt == "x-order":
            pts[a - 1], pts[a] = pts[a], pts[a - 1]
        else:
            pts[a] = (pts[a][0], pts[a + 1][1])
        return (pts, added, *rest)

    compose(g, h)
    monkeypatch.setattr(homeos, "_compose_breaks", corrupted)
    with pytest.raises(ValueError, match="increas"):
        compose(g, h)


@pytest.mark.parametrize("bad", [0.1, True], ids=["float", "bool"])
def test_pl_constructors_refuse_floats_and_bools(bad):
    with pytest.raises(ValueError, match="not exact"):
        PLCircleHomeo([(F(0), bad)])
    with pytest.raises(ValueError, match="not exact"):
        PLCircleHomeo([(F(0), F(0)), (bad, F(1, 2))])
    with pytest.raises(ValueError, match="not exact"):
        PLLineHomeo([(bad, bad), (F(2), F(3)), (F(4), F(4))])
    # ints are exact and read as Fractions
    assert PLLineHomeo([(0, 0), (1, 2), (3, 3)]).breaks[1] == (F(1), F(2))


@pytest.mark.parametrize("bad", [F(1), (F(0), F(0), F(1)), "01", None],
                         ids=["value", "triple", "str", "none"])
def test_pl_constructors_refuse_a_break_that_is_not_a_pair(bad):
    for build in (lambda: PLLineHomeo([bad]), lambda: PLCircleHomeo([bad]),
                  lambda: PLLineHomeo([(0, 0), bad, (1, 1)])):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == f"break {bad!r} is not a pair (x, y)"


@pytest.mark.parametrize("bad", [1, "1", "01", ["0", "0", "1"], ["0"]],
                         ids=["number", "str", "str-of-two", "triple", "single"])
def test_descriptors_refuse_a_break_that_is_not_a_pair(bad):
    for desc in ({"type": "pl_line", "breaks": [["0", "0"], bad, ["1", "1"]]},
                 {"type": "pl_circle", "breaks": [bad], "orientation": 1}):
        with pytest.raises(PreconditionError, match="is not a pair") as info:
            homeo_from_descriptor(desc)
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == f"break {bad!r} is not a pair (x, y)"


@pytest.mark.parametrize("bad", ["1/2", Decimal("0.5")], ids=["str", "decimal"])
def test_pl_constructors_take_only_ints_and_fractions(bad):
    with pytest.raises(ValueError, match="not exact: an int or a Fraction is needed"):
        PLLineHomeo([(0, 0), (bad, F(3, 4)), (1, 1)])
    with pytest.raises(ValueError, match="not exact: an int or a Fraction is needed"):
        PLCircleHomeo([(F(0), bad)])
    # a loaded map parses its strings before it builds the map
    h = PLLineHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
    assert homeo_from_descriptor(h.descriptor()).breaks == h.breaks


@pytest.mark.parametrize("op", [compose, sup_distance])
def test_compose_and_sup_distance_refuse_an_argument_that_is_not_a_map(op):
    h = small_ball_transporter(CIRCLE, F(1, 3), F(3, 8), F(1, 8))
    for args in ((h, None), (None, h), (h, h.breaks), (F(1, 2), h)):
        with pytest.raises(PreconditionError, match="is not a FactorHomeo"):
            op(*args)


@pytest.mark.parametrize("h", [
    CylinderHomeo(CANTOR, 2, {(0, 0): (1, 1), (1, 1): (0, 0)}, {(0, 1): SymSeq((1,), 0)}),
    small_ball_transporter(LINE, F(2), F(2) + F(1, 32), F(1, 16)),
    small_ball_transporter(CIRCLE, F(0), F(1, 16), F(1, 8)),
], ids=["cylinder", "pl-line", "pl-circle"])
def test_inverse_is_built_once_and_linked_back(h):
    hi = h.invert()
    assert h.invert() is hi
    assert hi.invert() is h


def test_line_composite_has_no_padding_breaks():
    rng = random.Random(12)
    for _ in range(100):
        g, h = (small_ball_transporter(LINE, c, c + F(rng.randrange(1, 8), 64), F(1, 4))
                for c in (F(rng.randrange(-32, 32), 16), F(rng.randrange(-32, 32), 16)))
        gh = compose(g, h)
        assert len(gh.breaks) <= len(g.breaks) + len(h.breaks)
        xs = [x for x, _ in g.breaks + h.breaks + gh.breaks]
        for t in xs + [x + d for x in xs for d in (F(-1, 7), F(1, 7))]:
            assert gh.apply(t) == h.apply(g.apply(t))
    assert compose(identity_for(LINE), g).breaks == compose(g, identity_for(LINE)).breaks == g.breaks


def _interpolated(h, t: Fraction) -> Fraction:
    """h's lift (circle) or h (line) at t, interpolated on the segment that
    holds t: the reference evaluation."""
    if isinstance(h, PLLineHomeo):
        if not h.breaks or not h.breaks[0][0] < t < h.breaks[-1][0]:
            return t
        i = max(i for i, (x, _) in enumerate(h.breaks) if x <= t)
        x0, y0, x1, y1 = *h.breaks[i], *h.breaks[i + 1]
        return y0 + (t - x0) * (y1 - y0) / (x1 - x0)
    n = t.numerator // t.denominator
    closed = h.breaks + ((F(1), h.breaks[0][1] + h.orientation),)
    i = max(i for i, (x, _) in enumerate(h.breaks) if x <= t - n)
    x0, y0, x1, y1 = *closed[i], *closed[i + 1]
    return y0 + (t - n - x0) * (y1 - y0) / (x1 - x0) + n * h.orientation


def _check_composite(g, h, ts):
    """compose(g, h) equals the composite built from the candidate set
    {0} | {g's breaks} | g^-1({h's breaks}), each candidate interpolated
    through g and then h, or, where those breaks are the identity moved by
    whole turns, the shared identity; it agrees pointwise with h after g,
    and its condition-(2) distance with the conjugate's displacement."""
    gh = compose(g, h)
    g_inv = g.invert()
    cands = {x for x, _ in g.breaks} | {g_inv.apply(u) for u, _ in h.breaks}
    if isinstance(g, PLCircleHomeo):
        cands.add(F(0))
    built = tuple((t, _interpolated(h, _interpolated(g, t))) for t in sorted(cands))
    turns = 0  # the whole turns by which gh's lift lies below h's after g's
    if gh is identity_for(CIRCLE) and gh.breaks != built:
        turns = built[0][1]
        assert turns.denominator == 1 and all(y - t == turns for t, y in built)
    else:
        assert gh.breaks == built
    xs = [x for x, _ in g.breaks + h.breaks + gh.breaks]
    for t in ts + xs + [x + F(1, 7) for x in xs]:
        assert _interpolated(gh, t) + turns == _interpolated(h, _interpolated(g, t))
        for m in (g, h, gh):
            assert (m.apply(t) if isinstance(m, PLLineHomeo) else m.lift_at(t)) == _interpolated(m, t)
    d = sup_distance(gh.invert(), g_inv)
    assert d == compose(gh, g_inv).sup_displacement()
    for t in ts + xs:
        assert gh.space.metric(gh.invert().apply(t), g_inv.apply(t)) <= d
    # gh may hold some of h's break tuples; a copy with fresh, equal-valued
    # breaks is at the same distance from every map
    copy = [(x, y) for x, y in gh.breaks]
    fresh = PLLineHomeo(copy) if isinstance(gh, PLLineHomeo) else PLCircleHomeo(copy, gh.orientation)
    assert not {id(b) for b in fresh._pts} & {id(b) for b in gh._pts + h._pts}
    for m in (h, g, g_inv):
        assert sup_distance(gh, m) == sup_distance(fresh, m) == sup_distance(m, gh)


@st.composite
def _circle_transporters(draw) -> PLCircleHomeo:
    """Small-ball circle transporters, their supports across 0 or not, some
    inverted, some with the lift moved by whole turns so that L(0) lies
    outside [0, 1); at delta = 3/4 the half turn, a rotation."""
    center = draw(st.fractions(0, 1, max_denominator=64).filter(lambda v: v < 1))
    delta = draw(st.sampled_from((F(1, 32), F(1, 8), F(1, 2), F(3, 4))))
    u = draw(st.fractions(-1, 1, max_denominator=16).filter(lambda v: abs(v) < 1))
    shift = F(1, 2) if delta == F(3, 4) and draw(st.booleans()) else delta * u
    h = small_ball_transporter(CIRCLE, center, _wrap1(center + shift), delta)
    if draw(st.booleans()):
        h = h.invert()
    turns = draw(st.integers(-2, 2))
    return PLCircleHomeo([(x, y + turns) for x, y in h.breaks], 1) if turns else h


def _circle_composites():
    """Circle maps of either kind, and composites of up to three transporters."""
    chains = st.lists(_circle_transporters(), min_size=1, max_size=3)
    return st.one_of(_circle_maps(), chains.map(lambda hs: functools.reduce(compose, hs)))


@settings(max_examples=200, deadline=None)
@given(_circle_composites(), _circle_composites(),
       st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=60), max_size=6))
def test_circle_compose_evaluates_only_what_it_must(g, h, ts):
    _check_composite(g, h, ts)


def test_line_compose_evaluates_only_what_it_must():
    rng = random.Random(21)

    def transporter():
        c = F(rng.randrange(-32, 32), 16)
        return small_ball_transporter(LINE, c, c + F(rng.randrange(-15, 16), 64), F(1, 2))

    for _ in range(150):
        g = identity_for(LINE)
        for _ in range(rng.randrange(4)):
            g = compose(g, transporter())
        ts = [F(rng.randrange(-80, 80), rng.randrange(1, 24)) for _ in range(6)]
        _check_composite(g, transporter(), ts)
        _check_composite(transporter(), g, ts)


def test_a_composite_that_is_the_identity_moved_by_whole_turns_is_the_identity():
    # the half turn twice: every break of the composite would read (x, x + 1)
    h = small_ball_transporter(CIRCLE, F(0), F(1, 2), F(3, 4))
    hh = compose(h, h)
    assert hh is identity_for(CIRCLE)
    assert hh._arcs == []
    assert hh.sup_displacement() == 0
    # so a later composition keeps the other map's breaks as they are
    g = small_ball_transporter(CIRCLE, F(1, 3), F(3, 8), F(1, 8))
    assert compose(hh, g).breaks == g.breaks
    # a composite that keeps a break of h, or moves by less than a turn, is not
    assert compose(g, g.invert()) is not identity_for(CIRCLE)
    assert compose(h, small_ball_transporter(CIRCLE, F(0), F(1, 4), F(3, 4))) is not identity_for(CIRCLE)


def _line_composites():
    """Line maps, and composites of up to three line transporters."""
    def transporter(args):
        c, u, delta = args
        return small_ball_transporter(LINE, c, c + delta * u, delta)

    one = st.tuples(st.fractions(-2, 2, max_denominator=32),
                    st.fractions(-1, 1, max_denominator=16).filter(lambda v: 0 < abs(v) < 1),
                    st.sampled_from((F(1, 16), F(1, 4), F(1), F(3)))).map(transporter)
    chains = st.lists(one, min_size=1, max_size=3)
    return st.one_of(_line_maps(), chains.map(lambda hs: functools.reduce(compose, hs)))


_COMPOSABLE = st.one_of(st.tuples(_circle_composites(), _circle_composites()),
                        st.tuples(_line_composites(), _line_composites()))


def _whole_as_int(v: Fraction):
    return v.numerator if v.denominator == 1 else v


@st.composite
def _realized_maps(draw):
    """realize_finite_bijection on one to three points: increasing data on
    the line, any data on the circle."""
    if draw(st.booleans()):
        xs = draw(st.lists(st.fractions(-2, 2, max_denominator=16), min_size=1, max_size=3, unique=True))
        ys = draw(st.lists(st.fractions(-2, 2, max_denominator=16), min_size=len(xs), max_size=len(xs),
                           unique=True))
        return realize_finite_bijection(LINE, dict(zip(sorted(xs), sorted(ys))))
    inside = st.fractions(0, 1, max_denominator=16).filter(lambda v: v < 1)
    xs = draw(st.lists(inside, min_size=1, max_size=3, unique=True))
    ys = draw(st.lists(inside, min_size=len(xs), max_size=len(xs), unique=True))
    return realize_finite_bijection(CIRCLE, dict(zip(xs, ys)))


@settings(max_examples=200, deadline=None)
@given(_COMPOSABLE, _realized_maps())
def test_every_built_map_keeps_its_breaks_as_points_in_lowest_terms(maps, realized):
    g, h = maps  # constructors from Fractions, transporters, composites and inverses
    gh = compose(g, h)
    orientation = [h.orientation] if isinstance(h, PLCircleHomeo) else []
    from_ints = type(h)([(_whole_as_int(x), _whole_as_int(y)) for x, y in h.breaks], *orientation)
    for m in (g, h, gh, g.invert(), gh.invert(), homeo_from_descriptor(gh.descriptor()), from_ints,
              realized):
        for n, d in itertools.chain.from_iterable(m._pts):
            assert type(n) is type(d) is int and d > 0 and math.gcd(n, d) == 1
        assert m.breaks == tuple((F(*x), F(*y)) for x, y in m._pts)
    # h's breaks off g's moved arcs are kept as h's own tuples, which the
    # 0-gap shortcut of the merged-break walk reads
    arcs = _arcs_of(g)
    for p in h._pts:
        if not any(a <= F(*p[0]) <= b for a, b in arcs):
            assert any(q is p for q in gh._pts)


@settings(max_examples=300, deadline=None)
@given(_COMPOSABLE)
@example((PLCircleHomeo([(F(0), F(1, 2))]), small_ball_transporter(CIRCLE, F(1, 3), F(3, 8), F(1, 8))))
@example((realize_finite_bijection(CIRCLE, {F(0): F(0), F(1, 3): F(2, 3), F(2, 3): F(1, 3)}),
          small_ball_transporter(CIRCLE, F(1, 3), F(3, 8), F(1, 8))))
def test_composite_distance_reads_the_full_walks_value_off_the_moved_arcs(maps):
    g, h = maps
    gh = compose(g, h)
    assert homeos.composite_distance(g, h, gh) == sup_distance(gh, h)


def _segments(m) -> int:
    return len(m.breaks) if isinstance(m, PLCircleHomeo) else max(len(m.breaks) - 1, 0)


@settings(max_examples=300, deadline=None)
@given(_COMPOSABLE, st.booleans())
def test_every_form_a_composite_takes_over_is_the_form_it_would_build(maps, built):
    g, h = maps
    if built:  # h holds every form, so each kept segment can take one over
        for i in range(_segments(h)):
            h._form(i)
    gh = compose(g, h)
    taken = [(i, f) for i, f in enumerate(gh._forms) if f is not None]
    if gh is h or gh is identity_for(gh.space):
        return
    fresh = type(gh)(gh.breaks, *([gh.orientation] if isinstance(gh, PLCircleHomeo) else []))
    for i, form in taken:
        assert form in h._forms
        assert fresh._form(i) == form
        # its two ends are h's breaks, one after the other
        ends = _segment_ends(gh)[i]
        assert any(ends == e for e in _segment_ends(h))


@pytest.mark.parametrize("factor, centers", [(CIRCLE, (F(1, 4), F(3, 4))), (LINE, (F(-1), F(1)))],
                         ids=["circle", "line"])
def test_a_composite_takes_over_the_forms_of_the_segments_it_keeps(factor, centers):
    g, h = (small_ball_transporter(factor, c, c + F(1, 64), F(1, 8)) for c in centers)
    for i in range(_segments(h)):
        h._form(i)
    gh = compose(g, h)
    # g's support lies apart from h's: every segment of h is kept whole, and
    # the composite holds its form as the same object
    kept = [i for i, b in enumerate(gh.breaks) if b in h.breaks and gh.breaks.index(b) == i]
    pairs = [(gh.breaks[i], gh.breaks[i + 1]) for i in range(len(gh.breaks) - 1)]
    taken = {k for k, (a, b) in enumerate(pairs) if a in h.breaks and b in h.breaks
             and h.breaks.index(b) == h.breaks.index(a) + 1}
    assert kept and taken
    for k in taken:
        assert gh._forms[k] is h._forms[h.breaks.index(gh.breaks[k])]
    assert all(gh._forms[k] is None for k in range(len(pairs)) if k not in taken)
    if factor is CIRCLE:  # the closing segment runs from h's last break to 1
        assert gh._forms[-1] is h._forms[-1]


def _random_baire_homeo(rng: random.Random, depth: int) -> CylinderHomeo:
    cylinders = list(itertools.product(range(3), repeat=depth))
    shuffled = cylinders[:]
    rng.shuffle(shuffled)
    masks = {c: SymSeq((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(-2, 2))
             for c in rng.sample(cylinders, k=2)}
    return CylinderHomeo(BAIRE, depth, dict(zip(cylinders, shuffled)), masks)


def _distance_through_apply(space, f, g, depth, symbols, rng) -> Fraction:
    """max of d(f(x), g(x)) over one x with a random suffix in every
    depth-`depth` cylinder on the given symbols."""
    best = Fraction(0)
    for c in itertools.product(symbols, repeat=depth):
        x = SymSeq(c + tuple(rng.choice(symbols) for _ in range(4)), rng.choice(symbols))
        best = max(best, space.metric(f.apply(x), g.apply(x)))
    return best


def test_sup_distance_of_cylinder_maps():
    rng = random.Random(8)
    for _ in range(20):
        f, g = _random_cylinder_homeo(rng, 3), _random_cylinder_homeo(rng, 2)
        d = sup_distance(f, g)
        assert d == sup_distance(g, f)
        assert sup_distance(f, identity_for(CANTOR)) == f.sup_displacement()
        for _ in range(16):
            x = _random_seq(rng)
            assert CANTOR.metric(f.apply(x), g.apply(x)) <= d
        # the distance is constant on each depth-3 cylinder, so one point in
        # every cylinder attains it
        assert d == _distance_through_apply(CANTOR, f, g, 3, (0, 1), rng)
    for _ in range(20):
        # baire maps compare at equal depth; symbol 3 reaches unlisted cylinders
        f, g = _random_baire_homeo(rng, 2), _random_baire_homeo(rng, 2)
        d = sup_distance(f, g)
        assert d == sup_distance(g, f)
        assert d == _distance_through_apply(BAIRE, f, g, 2, range(4), rng)


def test_sup_displacement_of_a_depth_2_baire_map():
    swap = CylinderHomeo(BAIRE, 2, {(1, 1): (1, 2), (1, 2): (1, 1)})
    assert swap.sup_displacement() == Fraction(1, 2)
    shift = CylinderHomeo(BAIRE, 2, {}, {(0, 3): SymSeq((0, 0, 5), 0)})
    assert shift.sup_displacement() == Fraction(1, 16)
    assert identity_for(BAIRE).sup_displacement() == 0


def test_sup_distance_refuses_mixed_kinds():
    with pytest.raises(SpaceMismatch):
        sup_distance(identity_for(CIRCLE), identity_for(LINE))
    with pytest.raises(SpaceMismatch):
        sup_distance(identity_for(CANTOR), identity_for(BAIRE))


# ---------------------------------------------------------------------------
# realize_finite_bijection
# ---------------------------------------------------------------------------

def test_realize_identity_bijection():
    x = SymSeq((1, 0), 0)
    h = realize_finite_bijection(CANTOR, {x: x})
    assert h.sup_displacement() == 0


def test_realize_cantor_swap_of_constant_tails():
    zeros = SymSeq((), 0)
    ones = SymSeq((), 1)
    h = realize_finite_bijection(CANTOR, {zeros: ones, ones: zeros})
    assert h.apply(zeros) == ones
    assert h.apply(ones) == zeros
    assert h.invert().apply(ones) == zeros


def test_realize_cantor_general_points_exact():
    rng = random.Random(9)
    pts = []
    while len(pts) < 6:
        cand = _random_seq(rng, 5)
        if cand not in pts:
            pts.append(cand)
    sigma = {pts[i]: pts[(i + 1) % 3] for i in range(3)}
    sigma.update({pts[3]: pts[4], pts[4]: pts[5], pts[5]: pts[3]})
    h = realize_finite_bijection(CANTOR, sigma)
    for x, y in sigma.items():
        assert h.apply(x) == y
        assert h.invert().apply(y) == x


def test_realize_baire_points_exact():
    a, b = SymSeq((3, 1), 0), SymSeq((0, 7), 2)
    h = realize_finite_bijection(BAIRE, {a: b, b: a})
    assert h.apply(a) == b and h.apply(b) == a


def test_realize_line_monotone_instance():
    sigma = {F(0): F(1, 4), F(1): F(3, 2), F(2): F(7, 4)}
    h = realize_finite_bijection(LINE, sigma)
    for k, v in sigma.items():
        assert h.apply(k) == v
    assert h.apply(F(-10)) == F(-10)


def test_realize_line_rejects_swap():
    with pytest.raises(OrderViolation):
        realize_finite_bijection(LINE, {F(0): F(1), F(1): F(0)})


def test_realize_line_rejects_three_point_scramble():
    with pytest.raises(OrderViolation):
        realize_finite_bijection(LINE, {F(0): F(0), F(1): F(2), F(2): F(1)})


def test_realize_circle_three_points_both_orientations():
    sigma = {F(0): F(1, 8), F(1, 3): F(1, 2), F(2, 3): F(3, 4)}
    h = realize_finite_bijection(CIRCLE, sigma)
    for k, v in sigma.items():
        assert h.apply(k) == v
    # reversing request: 3 points are always cyclically compatible one way
    sigma_rev = {F(0): F(1, 2), F(1, 4): F(1, 4), F(1, 2): F(0)}
    h2 = realize_finite_bijection(CIRCLE, sigma_rev)
    for k, v in sigma_rev.items():
        assert h2.apply(k) == v


def test_realize_circle_incompatible_four_points():
    # transposing two of four equally spaced points breaks the cyclic order
    sigma = {F(0): F(0), F(1, 4): F(1, 2), F(1, 2): F(1, 4), F(3, 4): F(3, 4)}
    with pytest.raises(OrderViolation):
        realize_finite_bijection(CIRCLE, sigma)


def test_realize_circle_takes_exactly_the_order_keeping_or_reversing_data():
    # all 3! bijections of three points; of four points the 4 rotations and
    # 4 reflections of the cyclic order, and none of the other 16
    for pts, answered in (([F(0), F(1, 3), F(2, 3)], 6), ([F(0), F(1, 4), F(1, 2), F(3, 4)], 8)):
        realized = 0
        for image in itertools.permutations(pts):
            sigma = dict(zip(pts, image))
            try:
                h = realize_finite_bijection(CIRCLE, sigma)
            except OrderViolation:
                continue
            assert all(h.apply(k) == v for k, v in sigma.items())
            assert {x for x, _ in h.breaks} <= {0, *pts}
            realized += 1
        assert realized == answered


def test_realize_circle_builds_a_reversing_map_through_its_pairs():
    # no reflection composed in: the breaks sit at 0 and at the sources
    h = realize_finite_bijection(CIRCLE, {F(1, 8): F(3, 4), F(1, 3): F(1, 2), F(2, 3): F(1, 3)})
    assert h.orientation == -1
    assert [x for x, _ in h.breaks] == [0, F(1, 8), F(1, 3), F(2, 3)]


@pytest.mark.parametrize("fixed, lift0, arcs", [
    # the short way from 0 to 9/10, down by 1/10, reads 1/5 and 1/2 as fixed
    ((F(1, 5), F(1, 2)), F(-1, 10), [(0, F(1, 5)), (F(1, 2), 1)]),
    # here it would read 19/20 and 97/100 a turn down: a turn up pins them
    ((F(19, 20), F(97, 100)), F(9, 10), [(0, F(19, 20)), (F(97, 100), 1)]),
])
def test_realize_circle_pins_the_lift_at_its_fixed_pairs(fixed, lift0, arcs):
    h = realize_finite_bijection(CIRCLE, {F(0): F(9, 10), **{x: x for x in fixed}})
    assert h.breaks == ((0, lift0), *((x, x) for x in fixed))
    assert _arcs_of(h) == arcs


def test_realize_rejects_non_injective():
    with pytest.raises(PreconditionError):
        realize_finite_bijection(CANTOR, {
            SymSeq((0,), 0): SymSeq((1,), 0),
            SymSeq((1,), 0): SymSeq((1,), 0),
        })


def test_realize_refuses_circle_duplicates_mod_1():
    for sigma, what in [({0: F(1, 4), 1: F(1, 2)}, "duplicate source"),
                        ({0: F(1, 4), F(1, 2): F(5, 4)}, "not injective")]:
        with pytest.raises(PreconditionError, match=what):
            realize_finite_bijection(CIRCLE, sigma)
    h = realize_finite_bijection(CIRCLE, {F(5, 4): F(-1, 2)})  # read mod 1
    assert h.apply(F(1, 4)) == F(1, 2)


@pytest.mark.parametrize("factor, sigma", [
    (CIRCLE, {0.25: F(1, 2)}),
    (CIRCLE, {F(1, 4): 0.5}),
    (LINE, {0.25: F(1, 2)}),
    (LINE, {F(1, 4): True}),
    (CANTOR, {(0, 1): SymSeq((1,), 0)}),
    (BAIRE, {SymSeq((1,), 0): F(1, 2)}),
    (CANTOR, {SymSeq((1,), 0): SymSeq((2,), 0)}),
], ids=["circle-float-source", "circle-float-target", "line-float", "line-bool",
        "cantor-tuple", "baire-fraction", "cantor-symbol-2"])
def test_realize_refuses_points_of_another_kind(factor, sigma):
    with pytest.raises(PreconditionError, match=f"exact {factor.kind} factor"):
        realize_finite_bijection(factor, sigma)


def test_realize_refuses_a_disc_before_reading_sigma():
    for sigma in ({(0.0,): [0.5], (0.5,): [0.0]}, None):
        with pytest.raises(UnsupportedOperation, match="no finite-bijection realizer"):
            realize_finite_bijection(DiscSpace(1), sigma)


# ---------------------------------------------------------------------------
# small_ball_transporter
# ---------------------------------------------------------------------------

def test_transporter_center_equals_target():
    h = small_ball_transporter(CANTOR, SymSeq((1,), 0), SymSeq((1,), 0), F(1, 2))
    assert h.sup_displacement() == 0


def test_transporter_cantor_swap_within_ball():
    center = SymSeq((), 0)          # 000...
    target = SymSeq((0, 0, 1), 0)   # 001000...
    h = small_ball_transporter(CANTOR, center, target, F(1, 2))
    assert h.apply(center) == target
    assert h.sup_displacement() == pow2(-2)
    # support within the ball of radius 2^-2: points outside [00] are fixed
    for outside in (SymSeq((1,), 0), SymSeq((0, 1), 0), SymSeq((1, 1, 1), 1)):
        assert h.apply(outside) == outside


def test_transporter_circle_bump():
    h = small_ball_transporter(CIRCLE, F(0), F(1, 16), F(1, 8))
    assert h.apply(F(0)) == F(1, 16)
    assert h.sup_displacement() < F(1, 8)
    # identity outside the (-1/8, 1/8) arc
    for x in (F(1, 4), F(1, 2), F(7, 8)):
        assert h.apply(x) == x


def test_transporter_line_bump():
    h = small_ball_transporter(LINE, F(2), F(2) + F(1, 32), F(1, 16))
    assert h.apply(F(2)) == F(2) + F(1, 32)
    assert h.apply(F(3)) == F(3)
    assert h.sup_displacement() <= F(1, 16)


def test_transporter_with_a_ball_wider_than_the_metric():
    # delta beyond the metric's range: the ball is the whole factor
    h = small_ball_transporter(CIRCLE, F(0), F(1, 2), F(3, 4))
    assert h.apply(F(0)) == F(1, 2)
    assert h.sup_displacement() == F(1, 2)
    # the line metric caps at 1, so the bump reaches past the 5 it moves by
    h = small_ball_transporter(LINE, F(0), F(5), F(2))
    assert h.apply(F(0)) == F(5)
    assert h.sup_displacement() == 1
    assert all(h.apply(x) == x for x in (F(-6), F(-10), F(6), F(10)))


@st.composite
def _circle_transporter_args(draw):
    """(center, target, delta) of a circle transporter: delta below and
    above 1/2, the half turn, centers and targets outside [0, 1), and
    supports [c - r, c + r] that touch 0 from above (c - r = 0) or from
    below (c + r = 1)."""
    delta = draw(st.fractions(F(1, 64), F(1), max_denominator=64))
    cap = min(delta, F(1, 2))
    if delta > F(1, 2) and draw(st.booleans()):
        d = F(1, 2)
    else:
        d = cap * draw(st.fractions(0, 1, max_denominator=32).filter(lambda u: 0 < u < 1))
    r = (d + cap) / 2
    c = draw(st.one_of(st.sampled_from((r, 1 - r)),
                       st.fractions(0, 1, max_denominator=128).filter(lambda v: v < 1)))
    sign = draw(st.sampled_from((1, -1)))
    return c + draw(st.integers(-2, 2)), c + sign * d + draw(st.integers(-2, 2)), delta


@settings(max_examples=300, deadline=None)
@given(_circle_transporter_args())
def test_circle_transporter_is_the_realized_bump_through_its_anchors(args):
    center, target, delta = args
    d = CIRCLE.metric(center, target)
    if d == F(1, 2):
        ref = homeos._realize_circle({center: target})
    else:
        r = (d + min(delta, F(1, 2))) / 2
        ref = homeos._realize_circle({center - r: center - r, center: target, center + r: center + r})
    h = small_ball_transporter(CIRCLE, center, target, delta)
    assert (h.breaks, h.orientation) == (ref.breaks, ref.orientation)


@pytest.mark.parametrize("turns", [-2, 0, 1])
def test_circle_transporter_realizes_only_a_support_that_reaches_0(turns):
    # d = 1/24 and r = 1/12: the support [1/4, 5/12] lies inside (0, 1)
    h = small_ball_transporter(CIRCLE, F(1, 3) + turns, F(3, 8) - turns, F(1, 8))
    assert h.breaks == ((0, 0), (F(1, 4), F(1, 4)), (F(1, 3), F(3, 8)), (F(5, 12), F(5, 12)))
    # d = 1/32 and r = 5/64: the support reaches below 0, so its anchors
    # turn to 1/32, 7/64 and 61/64, and 0 lies on the segment from
    # (-3/64, -3/64) to (1/32, 1/16)
    h = small_ball_transporter(CIRCLE, F(1, 32) + turns, F(1, 16), F(1, 8))
    assert h.breaks == ((0, F(3, 160)), (F(1, 32), F(1, 16)), (F(7, 64), F(7, 64)),
                        (F(61, 64), F(61, 64)))


@st.composite
def _transporter_near_0(draw):
    """(center, target, delta, support) of a circle transporter with d < 1/2:
    centers within r of 0 or of 1, targets on either side, whole turns added
    to both; support is [c - r, c + r] mod 1 as intervals of [0, 1]."""
    delta = draw(st.fractions(F(1, 64), F(1), max_denominator=64))
    cap = min(delta, F(1, 2))
    d = cap * draw(st.fractions(0, 1, max_denominator=32).filter(lambda u: 0 < u < 1))
    r = (d + cap) / 2
    c = draw(st.sampled_from((0, 1))) + r * draw(st.fractions(-1, 1, max_denominator=64))
    t = c + draw(st.sampled_from((d, -d)))
    lo, hi = _wrap1(c) - r, _wrap1(c) + r
    support = [(0, hi), (lo + 1, 1)] if lo < 0 else [(0, hi - 1), (lo, 1)] if hi > 1 else [(lo, hi)]
    return c + draw(st.integers(-2, 2)), t + draw(st.integers(-2, 2)), delta, support


def _assert_pinned(h, support):
    """Every break fixed mod 1 reads y == x, and the moved arcs lie in the
    support, a list of intervals of [0, 1]."""
    assert all(y == x for x, y in h.breaks if _wrap1(y - x) == 0)
    merged = []
    for a, b in sorted(support):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(b, merged[-1][1]))
        else:
            merged.append((a, b))
    assert all(any(lo <= a and b <= hi for lo, hi in merged) for a, b in _arcs_of(h))


@settings(max_examples=300, deadline=None)
@given(_transporter_near_0(), _transporter_near_0())
@example((F(1, 1024), F(-1, 512), F(1, 64), [(0, F(21, 2048)), (F(2031, 2048), 1)]),
         (F(1, 2), F(1, 2) + F(1, 64), F(1, 8), [(F(55, 128), F(73, 128))]))
def test_circle_transporter_lift_is_pinned_off_its_support(first, second):
    (c, t, delta, support), (c2, t2, delta2, support2) = first, second
    h, g = small_ball_transporter(CIRCLE, c, t, delta), small_ball_transporter(CIRCLE, c2, t2, delta2)
    for m in (h, h.invert()):
        _assert_pinned(m, support)
        assert _arcs_of(m) != [(0, 1)]
    _assert_pinned(compose(h, g), support + support2)
    _assert_pinned(compose(g.invert(), h), support + support2)


def test_circle_transporter_whose_target_wraps_below_0_keeps_its_lift():
    h = small_ball_transporter(CIRCLE, F(1, 1024), F(-1, 512), F(1, 64))
    assert h.breaks == ((0, F(-51, 19456)), (F(1, 1024), F(-1, 512)),
                        (F(21, 2048), F(21, 2048)), (F(2031, 2048), F(2031, 2048)))
    assert _arcs_of(h) == [(0, F(21, 2048)), (F(2031, 2048), 1)]


def test_transporter_rejects_target_outside_ball():
    with pytest.raises(PreconditionError):
        small_ball_transporter(CIRCLE, F(0), F(1, 4), F(1, 8))


_SYMBOLS = {CANTOR: (0, 1), BAIRE: (-2, -1, 0, 1, 2)}


@st.composite
def _transporter_cases(draw):
    """(factor, center, target, delta, probes), the target inside the open
    delta-ball around the center; among the probes are points at distance
    exactly delta and beyond it."""
    factor = draw(st.sampled_from((CANTOR, BAIRE, CIRCLE, LINE)))
    if factor in _SYMBOLS:
        symbols = _SYMBOLS[factor]
        sym = st.sampled_from(symbols)

        def seq(head=()):
            return SymSeq(tuple(head) + tuple(draw(st.lists(sym, max_size=6))), draw(sym))

        center = seq()
        j = draw(st.integers(0, 6))
        # the target agrees with the center on j + 1 symbols; probe i leaves
        # it at position i <= j, at distance 2^-i >= 2^-j
        probes = [seq(center.take(i) + (draw(st.sampled_from(
            [s for s in symbols if s != center.at(i)])),)) for i in range(j + 1)]
        return factor, center, seq(center.take(j + 1)), pow2(-j), probes + [seq(), seq()]
    # deltas beyond the metric's range (1/2 on the circle, 1 on the line) too
    delta = draw(st.fractions(F(1, 64), F(1) if factor is CIRCLE else F(4), max_denominator=64))
    u = draw(st.fractions(-1, 1, max_denominator=16).filter(lambda v: abs(v) < 1))
    if factor is CIRCLE:
        center = draw(st.fractions(0, 1, max_denominator=64).filter(lambda v: v < 1))
        wrap = _wrap1
    else:
        center = draw(st.fractions(-4, 4, max_denominator=64))
        wrap = F
    spread = st.fractions(1, 3, max_denominator=16)
    probes = [wrap(center + sign * delta * draw(spread)) for sign in (1, -1)]
    probes += [wrap(center + sign * delta) for sign in (1, -1)]
    probes += [wrap(center + draw(st.fractions(-2, 2, max_denominator=64))) for _ in range(2)]
    return factor, center, wrap(center + delta * u), delta, probes


@settings(max_examples=150, deadline=None)
@given(_transporter_cases())
def test_transporter_keeps_its_documented_promises(case):
    factor, center, target, delta, probes = case
    h = small_ball_transporter(factor, center, target, delta)
    assert h.apply(center) == target
    for p in probes:
        if factor.metric(p, center) >= delta:
            assert h.apply(p) == p
    assert h.sup_displacement() < delta


@pytest.mark.parametrize("factor, center, target, delta, message", [
    (LINE, 0.25, 0.26, F(1, 8), "exact line factor"),
    (CIRCLE, 0.25, 0.26, F(1, 8), "exact circle factor"),
    (CIRCLE, F(1, 4), True, F(1, 8), "exact circle factor"),
    (CANTOR, (0, 1), SymSeq((0, 1), 0), F(1, 8), "exact cantor factor"),
    (LINE, F(1, 4), F(1, 3), 0.5, "delta 0.5 is not exact"),
    (CIRCLE, F(1, 4), F(1, 3), True, "delta True is not exact"),
], ids=["line-float", "circle-float", "circle-bool", "cantor-tuple", "float-delta", "bool-delta"])
def test_transporter_refuses_inexact_input(factor, center, target, delta, message):
    with pytest.raises(PreconditionError, match=message):
        small_ball_transporter(factor, center, target, delta)
    # ints are exact
    assert small_ball_transporter(LINE, 0, F(1, 16), 1).apply(F(0)) == F(1, 16)


def test_transporter_disc_boundary_center_rejected():
    # transporters are exact maps: a disc is refused before any work, at its
    # boundary or not
    disc = DiscSpace(2)
    with pytest.raises(UnsupportedOperation, match="no transporter for kind disc"):
        small_ball_transporter(disc, None, None, None)
    with pytest.raises(UnsupportedOperation, match="no transporter for kind disc"):
        small_ball_transporter(disc, (1.0, 0.0), (0.9, 0.0), 0.5)
    with pytest.raises(UnsupportedOperation, match="no transporter for kind disc"):
        small_ball_transporter(disc, (0.1, 0.0), (0.12, 0.01), 0.1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_homeo_descriptor_round_trip():
    rng = random.Random(13)
    h = _random_cylinder_homeo(rng, 3)
    h2 = homeo_from_descriptor(h.descriptor())
    for _ in range(50):
        x = _random_seq(rng)
        assert h2.apply(x) == h.apply(x)

    pl = PLLineHomeo([(F(0), F(0)), (F(1, 3), F(1, 2)), (F(1), F(1))])
    pl2 = homeo_from_descriptor(pl.descriptor())
    assert pl2.apply(F(1, 6)) == pl.apply(F(1, 6))

    circ = PLCircleHomeo([(F(0), F(1, 8)), (F(1, 2), F(5, 8))], 1)
    circ2 = homeo_from_descriptor(circ.descriptor())
    assert circ2.apply(F(1, 4)) == circ.apply(F(1, 4))


def test_cylinder_descriptor_rebuilds_baire_and_refuses_other_kinds():
    h = CylinderHomeo(BAIRE, 1, {(0,): (5,), (5,): (0,)}, {(2,): SymSeq((1,), -1)})
    desc = h.descriptor()
    h2 = homeo_from_descriptor(desc)
    assert h2.space == BAIRE and h2.descriptor() == desc
    for x in (SymSeq((0, 4), 3), SymSeq((2, -7), 0), SymSeq((9,), 1)):
        assert h2.apply(x) == h.apply(x)
    with pytest.raises(SpaceMismatch):
        homeo_from_descriptor({**desc, "kind": "circle"})
    # a kind that names no factor is a typed error, not a KeyError or ValueError
    with pytest.raises(PreconditionError, match="disc descriptor needs its 'dim'"):
        homeo_from_descriptor({**desc, "kind": "disc"})
    with pytest.raises(UnsupportedOperation, match="unknown factor kind 'torus'"):
        homeo_from_descriptor({**desc, "kind": "torus"})


def _cyl(depth, table=(), masks=()):
    return {"type": "cylinder", "kind": "cantor", "depth": depth,
            "table": [list(r) for r in table], "masks": [list(r) for r in masks]}


@pytest.mark.parametrize("desc, message", [
    (_cyl(2, [[[0], [1]], [[1], [0]]]), "table prefixes must have the declared depth"),
    (_cyl(1, masks=[[[0, 1], {"prefix": [1], "tail": 0}]]), "mask prefixes must have the declared depth"),
    (_cyl(1, [[[0], [1]]]), "not a bijection"),
    (_cyl(-1), "depth must be an int >= 0"),
    (_cyl(True), "depth must be an int >= 0"),
    (_cyl("2"), "depth must be an int >= 0"),
    (_cyl(1, masks=[[[0], {"prefix": "10", "tail": 0}]]), "not a cantor symbol"),
    (_cyl(1, masks=[[[0], {"prefix": [1, 2], "tail": 0}]]), "not a cantor symbol"),
    ({**_cyl(1, masks=[[[0], {"prefix": [True], "tail": -2}]]), "kind": "baire"}, "not a baire symbol"),
    ({"type": "pl_line", "breaks": [["0", "0"], ["1/2", "3/4"], ["1/4", "1"]]}, "strictly increasing"),
    ({"type": "pl_line", "breaks": [["0", "1/4"], ["1", "1"]]}, "identity outside"),
    ({"type": "pl_circle", "breaks": [["0", "0"]], "orientation": 2}, "orientation must be"),
    ({"type": "pl_circle", "breaks": [["0", "0"]], "orientation": True}, "orientation must be"),
    ({"type": "pl_circle", "breaks": [["0", "0"]], "orientation": 1.0}, "orientation must be"),
    ({"type": "pl_circle", "breaks": [["0", "0"], ["1", "1/2"]], "orientation": 1}, "within \\[0, 1\\)"),
    ({"type": "pl_circle", "breaks": [["0", "0"], ["1/2", "1/4"], ["1/4", "1/2"]], "orientation": 1},
     "within \\[0, 1\\)"),
    ({"type": "pl_circle", "breaks": [["0", "1/2"], ["1/2", "1/4"]], "orientation": 1},
     "lift must strictly increase"),
], ids=["table-depth", "mask-depth", "not-bijective", "depth-negative", "depth-bool", "depth-str",
        "mask-str", "mask-cantor-2", "mask-bool", "line-not-increasing", "line-ends-moved",
        "circle-orientation", "circle-orientation-bool", "circle-orientation-float",
        "circle-break-at-1", "circle-breaks-unordered", "circle-lift-decreases"])
def test_descriptors_the_constructors_refuse_raise_typed_errors(desc, message):
    with pytest.raises(PreconditionError, match=message) as info:
        homeo_from_descriptor(desc)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("kind, bad", [("cantor", 2), ("cantor", True), ("cantor", 0.5),
                                       ("baire", 0.5), ("baire", True), ("baire", "1")])
def test_cylinder_prefixes_holding_non_symbols_are_refused(kind, bad):
    # table keys and values and mask keys are read by the symbol rule
    for desc in (_cyl(1, [[[0], [bad]], [[bad], [0]]]), _cyl(1, [[[bad], [1]], [[1], [bad]]]),
                 _cyl(1, masks=[[[bad], {"prefix": [1], "tail": 0}]])):
        with pytest.raises(PreconditionError, match=f"not a {kind} symbol prefix") as info:
            homeo_from_descriptor({**desc, "kind": kind})
        assert isinstance(info.value.__cause__, ValueError)
    good = {**_cyl(1, [[[0], [1]], [[1], [0]]]), "kind": kind}
    h = homeo_from_descriptor(good)
    assert h.descriptor() == good and h.apply(SymSeq((0, 1), 0)) == SymSeq((1, 1), 0)


@pytest.mark.parametrize("space, table, masks, message", [
    (CANTOR, {(2,): (0,), (0,): (2,)}, {}, "not a cantor symbol prefix"),
    (CANTOR, {(0,): (1,), (1,): (0,)}, {(2,): SymSeq((1,), 0)}, "not a cantor symbol prefix"),
    (CANTOR, {(True,): (0,), (0,): (True,)}, {}, "not a cantor symbol prefix"),
    (CANTOR, {(0,): (1,), (1,): (0,)}, {(0,): "ab"}, "is not a cantor sequence"),
    (CANTOR, {}, {(0,): SymSeq((2,), 0)}, "is not a cantor sequence"),
    (CANTOR, {}, {(0,): (1, 0)}, "is not a cantor sequence"),
    (BAIRE, {(0.5,): (1,), (1,): (0.5,)}, {}, "not a baire symbol prefix"),
    (BAIRE, {}, {(0,): [3]}, "is not a baire sequence"),
], ids=["table-2", "mask-key-2", "table-bool", "mask-str", "mask-symbol-2", "mask-tuple",
        "baire-table-float", "baire-mask-list"])
def test_cylinder_constructor_refuses_symbols_and_masks_not_of_its_kind(space, table, masks, message):
    with pytest.raises(ValueError, match=message):
        CylinderHomeo(space, 1, table, masks)


def test_cylinder_constructor_takes_any_int_baire_mask_and_identity_entries():
    h = CylinderHomeo(BAIRE, 1, {(3,): (3,)}, {(0,): SymSeq((-2, 5), -1)})
    assert h.table == {} and h.apply(SymSeq((0, 1), 0)) == SymSeq((0, -1, 5), -1)


def test_maps_built_from_valid_maps_skip_the_symbol_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("symbols checked again")

    g = CylinderHomeo(CANTOR, 1, {(0,): (1,), (1,): (0,)}, {(0,): SymSeq((1,), 0)})
    h = CylinderHomeo(CANTOR, 2, {(0, 0): (0, 1), (0, 1): (0, 0)})
    a, b = SymSeq((0, 1, 1), 0), SymSeq((1, 0), 1)
    monkeypatch.setattr(homeos, "_check_cylinder_data", refuse)
    gh = compose(g, h)
    assert gh.apply(a) == h.apply(g.apply(a))
    assert g.lift(3).apply(a) == g.apply(a) and g.invert().apply(g.apply(a)) == a
    assert realize_finite_bijection(CANTOR, {a: b, b: a}).apply(a) == b
    with pytest.raises(AssertionError, match="checked again"):
        CylinderHomeo(CANTOR, 1, {(0,): (1,), (1,): (0,)})


def test_malformed_homeo_descriptors_raise_typed_errors():
    circ = PLCircleHomeo([(F(0), F(1, 8)), (F(1, 2), F(5, 8))], 1).descriptor()
    for desc, cause in [({"type": "pl_line"}, KeyError),
                        ({**circ, "breaks": circ["breaks"][1:]}, ValueError),  # starts at 1/2
                        ({**circ, "breaks": [["x", "0/1"]]}, ValueError),
                        ({**circ, "breaks": [["0/1", "1/0"]]}, ZeroDivisionError),
                        ({**circ, "orientation": -1}, ValueError),
                        ({**circ, "breaks": 3}, TypeError),
                        # JSON numbers are not scalar strings
                        ({**circ, "breaks": [[0, 0.125]]}, AttributeError),
                        ({**circ, "breaks": [["0", True]]}, AttributeError)]:
        with pytest.raises(PreconditionError, match="malformed") as info:
            homeo_from_descriptor(desc)
        assert isinstance(info.value.__cause__, cause)
    # CdhErrors pass unchanged (cylinder kinds: see the test above)
    with pytest.raises(UnsupportedOperation, match="'spiral'"):
        homeo_from_descriptor({"type": "spiral"})
