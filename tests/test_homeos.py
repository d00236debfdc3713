"""Exact homeomorphism algebra: composition, displacement, realizers."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_line_pl_apply_and_invert_exact():
    h = PLLineHomeo([(F(-1), F(-1)), (F(0), F(1, 2)), (F(1), F(1))])
    assert h.apply(F(-1, 2)) == F(-1, 4)
    assert h.apply(F(2)) == F(2)
    assert h.invert().apply(h.apply(F(1, 3))) == F(1, 3)


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
    x0, y0, x1, y1 = h._segment(t - n)
    return y0 + (t - n - x0) * (y1 - y0) / (x1 - x0) + n * h.orientation


def _check_composite(g, h, ts):
    """compose(g, h) equals the composite built from the candidate set
    {0} | {g's breaks} | g^-1({h's breaks}), each candidate interpolated
    through g and then h; it agrees pointwise with h after g, and its
    condition-(2) distance with the conjugate's displacement."""
    gh = compose(g, h)
    g_inv = g.invert()
    cands = {x for x, _ in g.breaks} | {g_inv.apply(u) for u, _ in h.breaks}
    if isinstance(g, PLCircleHomeo):
        cands.add(F(0))
    assert gh.breaks == tuple((t, _interpolated(h, _interpolated(g, t))) for t in sorted(cands))
    xs = [x for x, _ in g.breaks + h.breaks + gh.breaks]
    for t in ts + xs + [x + F(1, 7) for x in xs]:
        assert _interpolated(gh, t) == _interpolated(h, _interpolated(g, t))
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
    assert not {id(b) for b in fresh.breaks} & {id(b) for b in gh.breaks + h.breaks}
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
            realized += 1
        assert realized == answered


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
    (_cyl(1, masks=[[[0], {"prefix": "10", "tail": 0}]]), "not a cantor symbol"),
    (_cyl(1, masks=[[[0], {"prefix": [1, 2], "tail": 0}]]), "not a cantor symbol"),
    ({**_cyl(1, masks=[[[0], {"prefix": [True], "tail": -2}]]), "kind": "baire"}, "not a baire symbol"),
    ({"type": "pl_line", "breaks": [["0", "0"], ["1/2", "3/4"], ["1/4", "1"]]}, "strictly increasing"),
    ({"type": "pl_line", "breaks": [["0", "1/4"], ["1", "1"]]}, "identity outside"),
    ({"type": "pl_circle", "breaks": [["0", "0"]], "orientation": 2}, "orientation must be"),
    ({"type": "pl_circle", "breaks": [["0", "0"], ["1", "1/2"]], "orientation": 1}, "within \\[0, 1\\)"),
    ({"type": "pl_circle", "breaks": [["0", "0"], ["1/2", "1/4"], ["1/4", "1/2"]], "orientation": 1},
     "within \\[0, 1\\)"),
    ({"type": "pl_circle", "breaks": [["0", "1/2"], ["1/2", "1/4"]], "orientation": 1},
     "lift must strictly increase"),
], ids=["table-depth", "mask-depth", "not-bijective", "mask-str", "mask-cantor-2", "mask-bool",
        "line-not-increasing", "line-ends-moved",
        "circle-orientation", "circle-break-at-1", "circle-breaks-unordered", "circle-lift-decreases"])
def test_descriptors_the_constructors_refuse_raise_typed_errors(desc, message):
    with pytest.raises(PreconditionError, match=message) as info:
        homeo_from_descriptor(desc)
    assert isinstance(info.value.__cause__, ValueError)


def test_malformed_homeo_descriptors_raise_typed_errors():
    circ = PLCircleHomeo([(F(0), F(1, 8)), (F(1, 2), F(5, 8))], 1).descriptor()
    for desc, cause in [({"type": "pl_line"}, KeyError),
                        ({**circ, "breaks": circ["breaks"][1:]}, ValueError),  # starts at 1/2
                        ({**circ, "breaks": [["x", "0/1"]]}, ValueError),
                        ({**circ, "breaks": [["0/1", "1/0"]]}, ZeroDivisionError),
                        ({**circ, "orientation": -1}, ValueError),
                        ({**circ, "breaks": 3}, TypeError)]:
        with pytest.raises(PreconditionError, match="malformed") as info:
            homeo_from_descriptor(desc)
        assert isinstance(info.value.__cause__, cause)
    # CdhErrors pass unchanged (cylinder kinds: see the test above)
    with pytest.raises(UnsupportedOperation, match="'spiral'"):
        homeo_from_descriptor({"type": "spiral"})
