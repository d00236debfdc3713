"""Convenient pairs: group pairs, the wrap construction, local and glued pairs."""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from cdhkit.errors import PreconditionError, UnsupportedOperation
from cdhkit.pairs import (
    glue_pairs,
    group_pair,
    local_pair,
    radial,
    radial_inv,
    vnorm,
    vsub,
    wrap_map,
)
from cdhkit.spaces import CANTOR, CIRCLE, SymSeq


def _rand_ball(dim, rng, max_r=0.999):
    v = [rng.gauss(0, 1) for _ in range(dim)]
    norm = vnorm(v) or 1.0
    return tuple(c / norm * max_r * rng.random() ** (1.0 / dim) for c in v)


def _rand_sphere(dim, rng):
    v = [rng.gauss(0, 1) for _ in range(dim)]
    norm = vnorm(v) or 1.0
    return tuple(c / norm for c in v)


def _rand_seq(rng, length=8):
    return SymSeq(tuple(rng.randint(0, 1) for _ in range(length)), 0)


# ---------------------------------------------------------------------------
# group pairs
# ---------------------------------------------------------------------------

def test_group_pair_identity_element():
    pair = group_pair(CANTOR)
    x = SymSeq((1, 0, 1), 0)
    assert pair.s(x, SymSeq((), 0)) == x


def test_group_pair_round_trip_bit_exact():
    pair = group_pair(CANTOR)
    rng = random.Random(0)
    for _ in range(1000):
        x, y = _rand_seq(rng), _rand_seq(rng)
        assert pair.s(pair.t(x, y), y) == x
        assert pair.t(pair.s(x, y), y) == x


def test_group_pair_focus_by_cancellation():
    pair = group_pair(CANTOR)
    rng = random.Random(1)
    for _ in range(300):
        x, y, y2 = _rand_seq(rng), _rand_seq(rng), _rand_seq(rng)
        if y != y2:
            assert pair.s(x, y) != pair.s(x, y2)


def test_group_pair_circle():
    pair = group_pair(CIRCLE)
    from fractions import Fraction as F

    assert pair.s(F(3, 4), F(1, 2)) == F(1, 4)
    assert pair.t(pair.s(F(1, 3), F(1, 7)), F(1, 7)) == F(1, 3)
    # one shared s per factor, which the focus check keys its memo by; fresh pairs
    again = group_pair(CIRCLE)
    assert again.s is pair.s and again is not pair


def test_group_pair_requires_group():
    from cdhkit.spaces import DiscSpace

    with pytest.raises(PreconditionError):
        group_pair(DiscSpace(2))


# ---------------------------------------------------------------------------
# wrap map
# ---------------------------------------------------------------------------

def test_wrap_map_boundary_is_zero():
    phi = wrap_map(1, 2)
    assert phi((1.0,)) == (0.0, 0.0)
    assert phi((-1.0,)) == (0.0, 0.0)
    phi2 = wrap_map(2, 3)
    rng = random.Random(2)
    for _ in range(50):
        y = _rand_sphere(2, rng)
        assert vnorm(phi2(y)) < 1e-12


def test_wrap_map_norm_bounded_by_one():
    rng = random.Random(3)
    phi = wrap_map(2, 3)
    for _ in range(10_000):
        y = _rand_ball(2, rng)
        assert vnorm(phi(y)) <= 1.0 + 1e-12


def test_wrap_map_injectivity_sampling_oracle():
    # pre-build oracle: distinct interior arguments give distinct values
    rng = random.Random(4)
    phi = wrap_map(2, 3)
    for _ in range(10_000):
        y1, y2 = _rand_ball(2, rng, 0.995), _rand_ball(2, rng, 0.995)
        if vnorm(vsub(y1, y2)) >= 1e-3:
            assert vnorm(vsub(phi(y1), phi(y2))) > 1e-12


def test_wrap_map_dimension_guard():
    with pytest.raises(PreconditionError):
        wrap_map(2, 2)


# ---------------------------------------------------------------------------
# radial chart
# ---------------------------------------------------------------------------

def test_radial_homeo_fixed_point_and_formula():
    assert radial((0.0, 0.0)) == (0.0, 0.0)
    assert radial((0.5, 0.0)) == (1.0, 0.0)
    assert radial_inv((1.0, 0.0)) == (0.5, 0.0)


def test_radial_homeo_round_trip():
    rng = random.Random(5)
    for _ in range(2000):
        x = _rand_ball(3, rng, 1.0 - 1e-6)
        back = radial_inv(radial(x))
        assert vnorm(vsub(back, x)) < 1e-12


def test_radial_homeo_boundary_rejected():
    with pytest.raises(PreconditionError):
        radial((1.0, 0.0))


def test_radial_inverse_is_one_lipschitz():
    # finite-difference oracle used before trusting the 2^-k closeness bound
    rng = random.Random(6)
    for _ in range(20_000):
        u = tuple(rng.uniform(-5, 5) for _ in range(2))
        v = tuple(rng.uniform(-5, 5) for _ in range(2))
        du = vnorm(vsub(u, v))
        if du < 1e-9:
            continue
        assert vnorm(vsub(radial_inv(u), radial_inv(v))) <= du * (1 + 1e-9)


# ---------------------------------------------------------------------------
# local pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (3, 2)])
def test_local_pair_round_trip(m, n):
    rng = random.Random(7)
    pair = local_pair(m, n, 3)
    for _ in range(500):
        x, y = _rand_ball(m, rng), _rand_ball(n, rng)
        assert vnorm(vsub(pair.s(pair.t(x, y), y), x)) <= 1e-9
        assert vnorm(vsub(pair.t(pair.s(x, y), y), x)) <= 1e-9


def test_local_pair_boundary_fixity_in_x():
    pair = local_pair(2, 1, 0)
    rng = random.Random(8)
    for _ in range(200):
        x = _rand_sphere(2, rng)
        y = _rand_ball(1, rng)
        assert pair.s(x, y) == x
        assert pair.t(x, y) == x


def test_local_pair_boundary_fixity_in_y():
    pair = local_pair(2, 1, 0)
    rng = random.Random(9)
    for _ in range(200):
        x = _rand_ball(2, rng)
        y = (1.0,) if rng.random() < 0.5 else (-1.0,)
        assert vnorm(vsub(pair.s(x, y), x)) <= 1e-12


def test_local_pair_focus_separates_second_arguments():
    pair = local_pair(2, 1, 4)
    rng = random.Random(10)
    for _ in range(2000):
        x = _rand_ball(2, rng)
        y1, y2 = _rand_ball(1, rng), _rand_ball(1, rng)
        if vnorm(vsub(y1, y2)) >= 1e-3:
            assert vnorm(vsub(pair.s(x, y1), pair.s(x, y2))) > 1e-12


def test_local_pair_within_2k_of_projection():
    rng = random.Random(11)
    grid = [(_rand_ball(2, rng), _rand_ball(1, rng)) for _ in range(400)]
    sups = []
    for k in range(9):
        pair = local_pair(2, 1, k)
        sups.append(max(vnorm(vsub(pair.s(x, y), x)) for x, y in grid))
        assert sups[-1] <= 2.0 ** (-k) + 1e-9
    for a, b in zip(sups, sups[1:]):
        assert b <= a + 1e-12


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2)])
def test_local_pair_2k_bound_at_extremal_points(m, n):
    # |phi(0)| = 1, so at x = 0 the displacement is |h^-1(2^-k phi(0))| = 2^-k/(1+2^-k);
    # on the ray through -phi(0) it peaks at |h(x)| = 2^-(k+1); it never passes 2^-k
    origin, y0 = (0.0,) * m, (0.0,) * n
    ys = [y0, (1.0 - 1e-9,) + (0.0,) * (n - 1), (0.0,) * (n - 1) + (-(1.0 - 1e-6),)]
    rays = [(1.0,) + (0.0,) * (m - 1), (-1.0,) + (0.0,) * (m - 1),
            tuple(c / math.sqrt(m) for c in (1.0,) * m)]
    for k in range(9):
        pair = local_pair(m, n, k)
        bound = 2.0 ** (-k)
        r_peak = bound / 2 / (1 + bound / 2)
        radii = [0.0, r_peak, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9]
        for move in (pair.s, pair.t):
            assert abs(vnorm(vsub(move(origin, y0), origin)) - bound / (1 + bound)) <= 1e-15
            for ray in rays:
                for r in radii:
                    x = tuple(r * c for c in ray)
                    for y in ys:
                        assert vnorm(vsub(move(x, y), x)) <= bound
        # that peak comes within a factor 1+2^-(k+1) of 2^-k
        x = (r_peak,) + (0.0,) * (m - 1)
        assert vnorm(vsub(pair.s(x, y0), x)) >= bound / (1 + bound / 2) - 1e-15


# ---------------------------------------------------------------------------
# glued pairs
# ---------------------------------------------------------------------------

def test_glue_empty_set_gives_projection():
    pair = glue_pairs(("euclid", 2), ("euclid", 1), [])
    assert pair.s((3.0, 4.0), (5.0,)) == (3.0, 4.0)
    assert not pair.charts


def test_glue_single_point_single_chart():
    pair = glue_pairs(("euclid", 2), ("euclid", 1), [(0.0, 0.0, 0.25)])
    assert len(pair.charts) == 1
    # outside the chart closure the map IS the projection, exactly
    far = (5.0, 5.0)
    assert pair.s(far, (0.25,)) == far
    assert pair.s((0.0, 0.0), (9.0,)) == (0.0, 0.0)


def test_glue_round_trip_and_focus_small_set():
    rng = random.Random(12)
    pts = [
        (0.0, 0.0, 0.0),
        (1.0, 0.5, 0.5),
        (-1.0, 0.25, -0.75),
        (0.5, -1.0, 0.9),
    ]
    pair = glue_pairs(("euclid", 2), ("euclid", 1), pts)
    for _ in range(500):
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        y = (rng.uniform(-2, 2),)
        assert vnorm(vsub(pair.s(pair.t(x, y), y), x)) <= 1e-9
    # focus on the projections, verified pairwise (the builder asserts this
    # too; recheck here)
    a_pts = {p[:2] for p in pts}
    b_pts = {p[2:] for p in pts}
    for a in a_pts:
        bs = sorted(b_pts)
        for i, b1 in enumerate(bs):
            for b2 in bs[i + 1:]:
                assert vnorm(vsub(pair.s(a, b1), pair.s(a, b2))) > 1e-12


def test_glue_charts_run_over_distinct_projections_in_first_occurrence_order():
    # points 0 and 1 share their X projection (-0.0 == 0.0), points 1 and 2
    # their Y projection
    pts = [(0.0, 0.0, 0.0), (-0.0, 0.0, 0.5), (1.0, 0.5, 0.5), (-1.0, 0.25, -0.75)]
    pair = glue_pairs(("euclid", 2), ("euclid", 1), pts)
    xs = [(0.0, 0.0), (1.0, 0.5), (-1.0, 0.25)]
    ys = [(0.0,), (0.5,), (-0.75,)]
    assert len(pair.charts) == len(xs) * len(ys)
    assert [(ch.a_center, ch.b_center) for ch in pair.charts] == [(a, b) for a in xs for b in ys]
    assert all(math.copysign(1.0, ch.a_center[0]) == 1.0 for ch in pair.charts[:3])
    rng = random.Random(16)
    queries = [((rng.uniform(-2, 2), rng.uniform(-2, 2)), (rng.uniform(-2, 2),))
               for _ in range(200)]
    for ch in pair.charts:
        for _ in range(20):
            x = tuple(c + ch.a_radius * d for c, d in zip(ch.a_center, _rand_ball(2, rng)))
            y = tuple(c + ch.b_radius * d for c, d in zip(ch.b_center, _rand_ball(1, rng)))
            queries.append((x, y))
    for x, y in queries:
        assert vnorm(vsub(pair.s(pair.t(x, y), y), x)) <= 1e-9
        assert vnorm(vsub(pair.t(pair.s(x, y), y), x)) <= 1e-9


def test_glue_chart_displacement_bounded_by_chart_number():
    pts = [(0.0, 0.0, 0.0), (1.0, 0.5, 0.5)]
    pair = glue_pairs(("euclid", 2), ("euclid", 1), pts)
    rng = random.Random(13)
    for ch in pair.charts:
        for _ in range(200):
            dx = _rand_ball(2, rng)
            dy = _rand_ball(1, rng)
            x = tuple(c + ch.a_radius * d for c, d in zip(ch.a_center, dx))
            y = tuple(c + ch.b_radius * d for c, d in zip(ch.b_center, dy))
            moved = pair.s(x, y)
            assert vnorm(vsub(moved, x)) <= 2.0 ** (-ch.number) + 1e-12


def test_glue_rejects_boundary_points():
    with pytest.raises(PreconditionError):
        glue_pairs(("disc", 2), ("euclid", 1), [(1.0, 0.0, 0.3)])


def test_glue_disc_model():
    pts = [(0.2, 0.1, 0.0), (-0.4, 0.3, 0.5)]
    pair = glue_pairs(("disc", 2), ("disc", 1), pts)
    rng = random.Random(14)
    for _ in range(300):
        x, y = _rand_ball(2, rng), _rand_ball(1, rng)
        assert vnorm(vsub(pair.s(pair.t(x, y), y), x)) <= 1e-9


def test_glue_refuses_a_set_it_cannot_focus_on_with_a_typed_error():
    # chart radii shrink as 2^-(i*|B|): on seven points two focused images
    # fall within the focus margin
    for n in (5, 6, 7):
        rng = random.Random(3)
        pts = [tuple(rng.uniform(-0.6, 0.6) for _ in range(3)) for _ in range(n)]
        if n < 7:
            assert len(glue_pairs(("disc", 2), ("disc", 1), pts).charts) == n * n
        else:
            with pytest.raises(UnsupportedOperation, match="focused on 7 points"):
                glue_pairs(("disc", 2), ("disc", 1), pts)


def test_glue_disc_outputs_are_pinned():
    # the s and t values of a seeded five-point disc pair, bit for bit, at
    # seeded queries: random ones and twenty inside every chart
    rng = random.Random(15)
    pts = [_rand_ball(2, rng, 0.9) + _rand_ball(1, rng, 0.9) for _ in range(5)]
    pair = glue_pairs(("disc", 2), ("disc", 1), pts)
    queries = [(_rand_ball(2, rng), _rand_ball(1, rng)) for _ in range(100)]
    for ch in pair.charts:
        for _ in range(20):
            x = tuple(c + ch.a_radius * d for c, d in zip(ch.a_center, _rand_ball(2, rng)))
            y = tuple(c + ch.b_radius * d for c, d in zip(ch.b_center, _rand_ball(1, rng)))
            queries.append((x, y))
    out = [(pair.s(x, y), pair.t(x, y)) for x, y in queries]
    assert len(pair.charts) == 25
    assert sum(s != x for (s, _), (x, _) in zip(out, queries)) == 501
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "b93524f53a5386f975c752d7156829014ac196b87f9aeaf2460c163e8f79d650")
