"""Convenient pairs: mutually cancelling map pairs on X x Y.

A convenient pair (s, t) satisfies s(t(x,y),y) = x and t(s(x,y),y) = x;
it is focused on (A, B) when s separates distinct second arguments from B
at every first argument from A.  Group factors give exact pairs
(s = x*y, t = x*y^-1).  Disc factors get the perturbation-of-projection
family: wrap the small disc into a sphere offset phi, push it onto the
open ball through the radial chart h, and damp by 2^-k:

    s_k(x, y) = h^-1(h(x) + 2^-k phi(y)),   t_k with the opposite sign,

extended by the identity on the boundary.  Gluing scaled copies of these
over a finite chart family yields a global pair for (R^m or D^m) x
(R^n or D^n) that equals the projection outside the charts and is focused
on the projections of a given finite set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import PreconditionError
from .rationals import pow2
from .spaces import FactorSpace

BOUNDARY_SNAP = 1e-12
_RADIUS_BITS = 40       # chart radii are floored to multiples of 2^-40
_FOCUS_MARGIN = 1e-12   # the least gap between focused images


# ---------------------------------------------------------------------------
# vector helpers (plain tuples; scalar code keeps the library dependency-free)
# ---------------------------------------------------------------------------

def vnorm(x) -> float:
    return math.sqrt(sum(c * c for c in x))


def vadd(a, b):
    return tuple(u + v for u, v in zip(a, b))


def vsub(a, b):
    return tuple(u - v for u, v in zip(a, b))


def vscale(a, s: float):
    return tuple(u * s for u in a)


# ---------------------------------------------------------------------------
# pair objects
# ---------------------------------------------------------------------------

@dataclass
class ConvenientPair:
    """Forward maps as closures; on exact factors they keep points canonical.

    `s` and `t` must be pure: the same arguments give the same value, and
    nothing they read changes.  The focus check of `genpos.wgpp_transform`
    relies on it to evaluate each `s` once per distinct first argument."""

    s: Callable
    t: Callable


def group_pair(factor: FactorSpace) -> ConvenientPair:
    """s(x,y) = x*y and t(x,y) = x*y^-1 for a group factor; exact, focused
    on the whole factor (cancellation separates second arguments).  `s` is
    the factor's shared group operation, so every pair of one factor has
    the same `s`.  The pair itself is built fresh on every call, so a caller
    may reassign its fields."""
    g = factor.group
    if g is None:
        raise PreconditionError(f"factor kind {factor.kind} declares no group structure")
    return ConvenientPair(
        s=g.op,
        t=lambda x, y: g.op(x, g.inv(y)),
    )


# ---------------------------------------------------------------------------
# the wrap map and the radial chart
# ---------------------------------------------------------------------------

def wrap_map(n: int, m: int) -> Callable:
    """Continuous phi: D^n -> R^m, injective on the open ball, identically
    zero on the boundary sphere, norm at most 1.

    Realized as a closed sphere wrap: psi(y) = (-cos(pi r), sin(pi r) y/r)
    lands on S^n; phi halves it and recenters so the boundary value is the
    origin, then pads with zeros up to dimension m.
    """
    if not 1 <= n < m:
        raise PreconditionError("wrap map needs 1 <= n < m")

    def phi(y):
        r = vnorm(y)
        if r >= 1.0 - BOUNDARY_SNAP / 10:
            return (0.0,) * m
        c = -math.cos(math.pi * r)
        if r == 0.0:
            head = (c,) + (0.0,) * n
        else:
            s = math.sin(math.pi * r)
            head = (c,) + tuple(s * u / r for u in y)
        out = ((head[0] - 1.0) / 2.0,) + tuple(u / 2.0 for u in head[1:])
        return out + (0.0,) * (m - n - 1)

    return phi


def radial(x):
    """The chart h(x) = x/(1-|x|) from the open ball onto R^m."""
    r = vnorm(x)
    if r >= 1.0:
        raise PreconditionError("radial chart is undefined on the boundary sphere")
    return vscale(x, 1.0 / (1.0 - r))


def radial_inv(x):
    """h^-1(x) = x/(1+|x|); it is 1-Lipschitz, which the closeness bounds
    below rely on."""
    return vscale(x, 1.0 / (1.0 + vnorm(x)))


# ---------------------------------------------------------------------------
# local pairs on (D^m, D^n)
# ---------------------------------------------------------------------------

def local_pair(m: int, n: int, k: int) -> ConvenientPair:
    """The damped wrap perturbation of the projection on (D^m, D^n):
    a convenient pair focused on (B^m, B^n), fixing the boundary of the
    product pointwise, and within 2^-k of the projection everywhere.

    The bound: x = h^-1(h(x)) and h^-1 is 1-Lipschitz, so |s_k(x, y) - x|
    <= 2^-k |phi(y)| <= 2^-k, because |phi| <= 1 with equality at y = 0;
    the same holds for t_k.
    """
    if not 1 <= n < m:
        raise PreconditionError("local pairs need 1 <= n < m")
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    phi = wrap_map(n, m)
    scale = 2.0 ** (-k)

    def _move(x, y, sign):
        if vnorm(x) >= 1.0 - BOUNDARY_SNAP:
            return x
        p = phi(y)
        if all(c == 0.0 for c in p):
            return x
        return radial_inv(vadd(radial(x), vscale(p, sign * scale)))

    return ConvenientPair(
        s=lambda x, y: _move(x, y, +1.0),
        t=lambda x, y: _move(x, y, -1.0),
    )


# ---------------------------------------------------------------------------
# glued global pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    number: int
    a_center: tuple
    a_radius: float
    b_center: tuple
    b_radius: float
    local_index: int


@dataclass
class GluedPair(ConvenientPair):
    charts: tuple = ()


def _dyadic_floor(x: float) -> Fraction:
    if x <= 0:
        return Fraction(0)
    return Fraction(math.floor(x * (1 << _RADIUS_BITS)), 1 << _RADIUS_BITS)


def _separation_radii(points: Sequence[tuple], kind: str, label: str):
    """Rational radii <= (1/3) min(distance to other points, gap to the
    boundary of a disc)."""
    radii = {}
    for i, p in enumerate(points):
        dmin = 1.0 - vnorm(p) if kind == "disc" else math.inf
        for j, q in enumerate(points):
            if i != j:
                dmin = min(dmin, vnorm(vsub(p, q)))
        r = _dyadic_floor(min(dmin / 3.0, 1.0))
        if r == 0:
            raise PreconditionError(
                f"{label} projections too close to separate with rational-radius balls "
                f"(offending point #{i}: {p})"
            )
        radii[i] = r
    return radii


def glue_pairs(x_desc: tuple, y_desc: tuple, points: Sequence[tuple]) -> GluedPair:
    """Global convenient pair for (X, Y), X in {R^m, D^m}, Y in {R^n, D^n},
    focused on the projections of the finite set `points`.

    Charts cover the full projection grid pi_X[D] x pi_Y[D]: one product
    ball per grid pair, with disjoint closures.  Mixed pairs (x from one
    point, y from another) then always meet a chart, which is what the
    focus property needs.  Outside every chart both maps return their
    first argument unchanged (the projection), bit-for-bit.
    """
    x_kind, m = x_desc
    y_kind, n = y_desc
    if not 1 <= n < m:
        raise PreconditionError("glued pairs need 1 <= n < m")
    for kind in (x_kind, y_kind):
        if kind not in ("euclid", "disc"):
            raise PreconditionError(f"unsupported manifold model {kind!r}")

    points = [(tuple(map(float, p[:m])), tuple(map(float, p[m:]))) for p in points]
    for idx, (px, py) in enumerate(points):
        if x_kind == "disc" and vnorm(px) >= 1.0 - BOUNDARY_SNAP:
            raise PreconditionError(f"point #{idx} lies on the boundary of X")
        if y_kind == "disc" and vnorm(py) >= 1.0 - BOUNDARY_SNAP:
            raise PreconditionError(f"point #{idx} lies on the boundary of Y")

    a_pts = list(dict.fromkeys(p for p, _ in points))
    b_pts = list(dict.fromkeys(q for _, q in points))
    a_radii = _separation_radii(a_pts, x_kind, "X")
    b_radii = _separation_radii(b_pts, y_kind, "Y")

    # Chart i*|B|+j pairs the i-th X-ball with the j-th Y-ball and uses the
    # local pair of index j; shrinking the X-radius to 2^-(i*|B|) makes the
    # chart displacement at most 2^-(i*|B|) * 2^-j = 2^-k, the required
    # closeness to the projection, while keeping the same-X charts' images
    # separated by a fixed fraction of the radius.
    charts = []
    for i, a in enumerate(a_pts):
        r_a = min(a_radii[i], pow2(-(i * len(b_pts))))
        for j, b in enumerate(b_pts):
            charts.append(
                Chart(
                    number=i * len(b_pts) + j,
                    a_center=a,
                    a_radius=float(r_a),
                    b_center=b,
                    b_radius=float(b_radii[j]),
                    local_index=j,
                )
            )
    charts = tuple(charts)

    locals_by_index = {j: local_pair(m, n, j) for j in range(len(b_pts))}

    def _glued(x, y, forward: bool):
        for ch in charts:
            dx = vsub(x, ch.a_center)
            if vnorm(dx) >= ch.a_radius:
                continue
            dy = vsub(y, ch.b_center)
            if vnorm(dy) >= ch.b_radius:
                continue
            pair = locals_by_index[ch.local_index]
            xm = vscale(dx, 1.0 / ch.a_radius)
            ym = vscale(dy, 1.0 / ch.b_radius)
            moved = pair.s(xm, ym) if forward else pair.t(xm, ym)
            return vadd(ch.a_center, vscale(moved, ch.a_radius))
        return x

    glued = GluedPair(
        s=lambda x, y: _glued(x, y, True),
        t=lambda x, y: _glued(x, y, False),
        charts=charts,
    )
    _audit_charts(glued)
    _verify_focus(glued, a_pts, b_pts)
    return glued


def _audit_charts(pair: GluedPair):
    for i, c1 in enumerate(pair.charts):
        for c2 in pair.charts[i + 1:]:
            a_gap = vnorm(vsub(c1.a_center, c2.a_center)) - (c1.a_radius + c2.a_radius)
            b_gap = vnorm(vsub(c1.b_center, c2.b_center)) - (c1.b_radius + c2.b_radius)
            if a_gap <= 0 and b_gap <= 0:
                raise AssertionError(
                    f"chart closures {c1.number} and {c2.number} intersect"
                )


def _verify_focus(pair: GluedPair, a_pts, b_pts):
    for a in a_pts:
        for i, b1 in enumerate(b_pts):
            for b2 in b_pts[i + 1:]:
                v1, v2 = pair.s(a, b1), pair.s(a, b2)
                if vnorm(vsub(v1, v2)) <= _FOCUS_MARGIN:
                    raise AssertionError(
                        f"focus failure at x={a}: images of {b1} and {b2} collide"
                    )
