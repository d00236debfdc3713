"""Exact, composable homeomorphisms per factor kind.

Three representations:

  CylinderHomeo  cantor/baire: a bijection of depth-d cylinders together
                 with an eventually-constant per-cylinder suffix translation
                 (symbolwise xor for bits, integer offset for baire).  The
                 pure cylinder table preserves suffixes; the translation
                 part is what lets a finite object carry points like
                 000... onto 111... exactly, which finite-bijection
                 realization requires.
  PLLineHomeo /  circle/line: rational piecewise-linear data, exactly
  PLCircleHomeo  invertible and composable, exact sup-displacement.
  FloatHomeo     Euclidean kinds: forward/backward closures with an
                 advertised round-trip tolerance; displacement is only
                 what the construction declares, never estimated.

`compose(g, h)` evaluates as h-after-g, matching the stage composition
H_n = h_n o ... o h_0 used by the convergence certificates.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from math import floor
from typing import Callable, Iterable, Optional

from .errors import (
    OrderViolation,
    PreconditionError,
    SpaceMismatch,
    UnsupportedOperation,
)
from .rationals import ZERO, format_scalar, parse_scalar, pow2
from .spaces import (
    BAIRE,
    CANTOR,
    CIRCLE,
    LINE,
    BallSpace,
    CantorSpace,
    BaireSpace,
    CircleSpace,
    DiscSpace,
    FactorSpace,
    LineSpace,
    SymSeq,
    _wrap1,
    _point_key,
)

_COMPOSE_SIZE_CAP = 1 << 18


class FactorHomeo:
    """Invertible self-map of one factor."""

    space: FactorSpace

    def apply(self, x):
        raise NotImplementedError

    def invert(self) -> "FactorHomeo":
        raise NotImplementedError

    def sup_displacement(self):
        """max_x d(h(x), x); a Fraction for exact kinds."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def is_identity(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Cylinder homeomorphisms (cantor / baire)
# ---------------------------------------------------------------------------

_ZERO_MASK = SymSeq((), 0)


class CylinderHomeo(FactorHomeo):
    """depth-d cylinder bijection + per-source-cylinder suffix translation.

    table maps depth-d prefixes to depth-d prefixes (a permutation of the
    listed set; unlisted prefixes are fixed).  masks[src] is the symbolwise
    translation applied to the suffix of points entering through src.
    """

    def __init__(self, space, depth: int, table: dict, masks: Optional[dict] = None):
        if not isinstance(space, (CantorSpace, BaireSpace)):
            raise SpaceMismatch("cylinder homeomorphisms need a sequence kind")
        self.space = space
        self.depth = depth
        table = {tuple(k): tuple(v) for k, v in table.items() if tuple(k) != tuple(v)}
        masks = {
            tuple(k): (m if isinstance(m, SymSeq) else SymSeq(*m))
            for k, m in (masks or {}).items()
        }
        masks = {k: m for k, m in masks.items() if m != _ZERO_MASK}
        for k, v in table.items():
            if len(k) != depth or len(v) != depth:
                raise ValueError("table prefixes must have the declared depth")
        for k in masks:
            if len(k) != depth:
                raise ValueError("mask prefixes must have the declared depth")
        if set(table) != set(table.values()):
            raise ValueError("cylinder table is not a bijection")
        self.table = table
        self.masks = masks

    # -- evaluation ---------------------------------------------------------
    def apply(self, x: SymSeq) -> SymSeq:
        c = x.take(self.depth)
        c2 = self.table.get(c, c)
        rest = x.drop(self.depth)
        m = self.masks.get(c)
        if m is not None:
            rest = self.space.group.op(rest, m)
        return SymSeq(c2 + rest.prefix, rest.tail)

    def invert(self) -> "CylinderHomeo":
        inv = self.space.group.inv
        inv_table = {v: k for k, v in self.table.items()}
        inv_masks = {self.table.get(src, src): inv(m) for src, m in self.masks.items()}
        return CylinderHomeo(self.space, self.depth, inv_table, inv_masks)

    def is_identity(self) -> bool:
        return not self.table and not self.masks

    # -- exact metrics --------------------------------------------------------
    def sup_displacement(self) -> Fraction:
        """Every point of a source cylinder moves by the same amount, so the
        sup is a max over listed cylinders of 2^-(first changed position)."""
        best = None
        for c in set(self.table) | set(self.masks):
            c2 = self.table.get(c, c)
            j = None
            for i in range(self.depth):
                if c[i] != c2[i]:
                    j = i
                    break
            if j is None:
                m = self.masks.get(c)
                if m is not None:
                    k = next((i for i, s in enumerate(m.prefix) if s != 0), None)
                    if k is not None:
                        j = self.depth + k
                    elif m.tail != 0:
                        j = self.depth + m.stab
            if j is not None and (best is None or j < best):
                best = j
        return ZERO if best is None else pow2(-best)

    # -- structure ------------------------------------------------------------
    def lift(self, depth: int) -> "CylinderHomeo":
        if depth == self.depth:
            return self
        if depth < self.depth:
            raise ValueError("can only lift to a greater depth")
        if not isinstance(self.space, CantorSpace):
            raise UnsupportedOperation(
                "lifting enumerates all cylinder extensions; only the binary "
                "alphabet is finite — compose baire maps at equal depth or as a chain"
            )
        delta = depth - self.depth
        touched = set(self.table) | set(self.masks)
        if len(touched) << delta > _COMPOSE_SIZE_CAP:
            raise UnsupportedOperation("lifted cylinder table would be too large")
        table, masks = {}, {}
        for c in touched:
            c2 = self.table.get(c, c)
            m = self.masks.get(c, _ZERO_MASK)
            head = m.take(delta)
            rest = m.drop(delta)
            for ext in itertools.product((0, 1), repeat=delta):
                src = c + ext
                # the cantor group law, symbolwise xor, on the extension
                dst = c2 + tuple(e ^ h for e, h in zip(ext, head))
                if src != dst:
                    table[src] = dst
                if rest != _ZERO_MASK:
                    masks[src] = rest
        return CylinderHomeo(self.space, depth, table, masks)

    def descriptor(self) -> dict:
        return {
            "type": "cylinder",
            "kind": self.space.kind,
            "depth": self.depth,
            "table": sorted([list(k), list(v)] for k, v in self.table.items()),
            "masks": sorted(
                [list(k), {"prefix": list(m.prefix), "tail": m.tail}]
                for k, m in self.masks.items()
            ),
        }


def _compose_cylinder(g: CylinderHomeo, h: CylinderHomeo) -> CylinderHomeo:
    """h after g, materialized at the common depth."""
    if g.space != h.space:
        raise SpaceMismatch("cylinder maps on different spaces")
    depth = max(g.depth, h.depth)
    if g.depth != h.depth:
        g, h = g.lift(depth), h.lift(depth)
    op = g.space.group.op
    g_inv_table = {v: k for k, v in g.table.items()}
    sources = set(g.table) | set(g.masks)
    for mid in set(h.table) | set(h.masks):
        sources.add(g_inv_table.get(mid, mid))
    table, masks = {}, {}
    for c in sources:
        mid = g.table.get(c, c)
        dst = h.table.get(mid, mid)
        m1 = g.masks.get(c, _ZERO_MASK)
        m2 = h.masks.get(mid, _ZERO_MASK)
        m = op(m1, m2)
        if c != dst:
            table[c] = dst
        if m != _ZERO_MASK:
            masks[c] = m
    return CylinderHomeo(g.space, depth, table, masks)


# ---------------------------------------------------------------------------
# Piecewise-linear homeomorphisms of the line
# ---------------------------------------------------------------------------

class PLLineHomeo(FactorHomeo):
    """Strictly increasing rational PL map, identity outside its breakpoints."""

    def __init__(self, breaks: Iterable[tuple] = ()):
        breaks = tuple((Fraction(x), Fraction(y)) for x, y in breaks)
        self.space = LINE
        for (x0, y0), (x1, y1) in zip(breaks, breaks[1:]):
            if not (x0 < x1 and y0 < y1):
                raise ValueError("breakpoints must be strictly increasing")
        if breaks:
            if breaks[0][0] != breaks[0][1] or breaks[-1][0] != breaks[-1][1]:
                raise ValueError("PL line maps must be the identity outside their breakpoints")
        self.breaks = breaks
        self._xs = [b[0] for b in breaks]

    def apply(self, t: Fraction) -> Fraction:
        if not self.breaks or t <= self.breaks[0][0] or t >= self.breaks[-1][0]:
            return t
        i = bisect_right(self._xs, t) - 1
        (x0, y0), (x1, y1) = self.breaks[i], self.breaks[i + 1]
        return y0 + (t - x0) * (y1 - y0) / (x1 - x0)

    def invert(self) -> "PLLineHomeo":
        return PLLineHomeo(tuple((y, x) for x, y in self.breaks))

    def is_identity(self) -> bool:
        return all(x == y for x, y in self.breaks)

    def sup_displacement(self) -> Fraction:
        """h(x)-x is PL, so the extreme lives at a breakpoint; the metric
        min(|.|, 1) caps the value."""
        if not self.breaks:
            return ZERO
        return min(max(abs(y - x) for x, y in self.breaks), Fraction(1))

    def descriptor(self) -> dict:
        return {
            "type": "pl_line",
            "breaks": [[format_scalar(x), format_scalar(y)] for x, y in self.breaks],
        }


def _compose_pl_line(g: PLLineHomeo, h: PLLineHomeo) -> PLLineHomeo:
    if g.is_identity():
        return h
    if h.is_identity():
        return g
    g_inv = g.invert()
    xs = {x for x, _ in g.breaks} | {g_inv.apply(x) for x, _ in h.breaks}
    lo = min(xs.union(x for x, _ in h.breaks)) - 1
    hi = max(xs.union(x for x, _ in h.breaks)) + 1
    xs |= {lo, hi}
    pts = tuple((x, h.apply(g.apply(x))) for x in sorted(xs))
    return PLLineHomeo(pts)


# ---------------------------------------------------------------------------
# Piecewise-linear homeomorphisms of the circle
# ---------------------------------------------------------------------------

class PLCircleHomeo(FactorHomeo):
    """Rational PL circle map stored as one period of its lift.

    breaks = ((x_0, L(x_0)), ..., (x_{k-1}, L(x_{k-1}))) with x_0 = 0 and
    0 <= x_i < 1 strictly increasing; the closing value L(1) = L(0) + s is
    implied, where s = +1 (orientation-preserving) or -1 (reversing).
    """

    def __init__(self, breaks: Iterable[tuple], orientation: int = 1):
        breaks = tuple((Fraction(x), Fraction(y)) for x, y in breaks)
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if not breaks or breaks[0][0] != 0:
            raise ValueError("circle breakpoints must start at 0")
        for (x0, _), (x1, _) in zip(breaks, breaks[1:]):
            if not (0 <= x0 < x1 < 1):
                raise ValueError("circle breakpoints must increase within [0, 1)")
        ys = [y for _, y in breaks] + [breaks[0][1] + orientation]
        for y0, y1 in zip(ys, ys[1:]):
            if orientation == 1 and not y0 < y1:
                raise ValueError("lift must strictly increase")
            if orientation == -1 and not y0 > y1:
                raise ValueError("lift must strictly decrease")
        self.space = CIRCLE
        self.breaks = breaks
        self.orientation = orientation
        self._xs = [b[0] for b in breaks]

    def _segment(self, frac: Fraction):
        i = bisect_right(self._xs, frac) - 1
        x0, y0 = self.breaks[i]
        if i + 1 < len(self.breaks):
            x1, y1 = self.breaks[i + 1]
        else:
            x1, y1 = Fraction(1), self.breaks[0][1] + self.orientation
        return x0, y0, x1, y1

    def lift_at(self, t: Fraction) -> Fraction:
        n = t.numerator // t.denominator
        frac = t - n
        x0, y0, x1, y1 = self._segment(frac)
        return y0 + (frac - x0) * (y1 - y0) / (x1 - x0) + n * self.orientation

    def apply(self, p: Fraction) -> Fraction:
        return _wrap1(self.lift_at(_wrap1(p)))

    def invert(self) -> "PLCircleHomeo":
        """Each break (x, y) lies on the inverse lift as (y - n, x - s*n),
        n = floor(y), s the orientation; the break at 0 is interpolated."""
        s = self.orientation
        pts = sorted((y - floor(y), x - s * floor(y)) for x, y in self.breaks)
        return _circle_through(pts, s)

    def is_identity(self) -> bool:
        return self.orientation == 1 and all(x == y for x, y in self.breaks)

    def sup_displacement(self) -> Fraction:
        """Arc distance of L(t)-t to 0; per segment the maximum is 1/2 when
        the segment image crosses a half-integer, else it sits at an end."""
        ys = [y for _, y in self.breaks] + [self.breaks[0][1] + self.orientation]
        xs = self._xs + [Fraction(1)]
        best = ZERO
        half = Fraction(1, 2)
        for i in range(len(xs) - 1):
            g0 = ys[i] - xs[i]
            g1 = ys[i + 1] - xs[i + 1]
            lo, hi = sorted((g0, g1))
            # does (lo, hi) contain k + 1/2 for an integer k?
            k = (lo - half).numerator // (lo - half).denominator + 1
            if lo <= k + half <= hi:
                return half
            for g in (g0, g1):
                f = _wrap1(g)
                best = max(best, min(f, 1 - f))
        return best

    def descriptor(self) -> dict:
        return {
            "type": "pl_circle",
            "orientation": self.orientation,
            "breaks": [[format_scalar(x), format_scalar(y)] for x, y in self.breaks],
        }


def _compose_pl_circle(g: PLCircleHomeo, h: PLCircleHomeo) -> PLCircleHomeo:
    g_inv = g.invert()
    cands = {Fraction(0)} | {x for x, _ in g.breaks}
    cands |= {g_inv.apply(x) for x, _ in h.breaks}
    pts = [(t, h.lift_at(g.lift_at(t))) for t in sorted(cands)]
    return PLCircleHomeo(pts, g.orientation * h.orientation)


# ---------------------------------------------------------------------------
# Float homeomorphisms (Euclidean kinds)
# ---------------------------------------------------------------------------

class FloatHomeo(FactorHomeo):
    """Forward/backward closure pair on a disc/ball domain.

    `reach` is the sup of |h(x) - x| that the construction declares, if it
    declares one; `sup_displacement` reports it twice, as a float safety
    margin, and refuses a map without one.
    """

    def __init__(self, space, forward: Callable, backward: Callable,
                 tolerance: float = 1e-9, label: str = "float-homeo",
                 reach: Optional[float] = None):
        self.space = space
        self.forward = forward
        self.backward = backward
        self.tolerance = tolerance
        self.label = label
        self.reach = reach

    def apply(self, x):
        return self.forward(x)

    def invert(self) -> "FloatHomeo":
        """Swaps the maps: sup |h^-1(y) - y| = sup |x - h(x)|, so `reach` carries over."""
        return FloatHomeo(self.space, self.backward, self.forward,
                          self.tolerance, f"{self.label}^-1", self.reach)

    def sup_displacement(self) -> float:
        if self.reach is None:
            raise UnsupportedOperation(f"{self.label} declares no displacement bound")
        return self.reach * 2.0

    def descriptor(self) -> dict:
        return {"type": "float", "label": self.label, "tolerance": self.tolerance,
                "kind": self.space.kind, "dim": getattr(self.space, "dim", None)}


# ---------------------------------------------------------------------------
# Composition and identities
# ---------------------------------------------------------------------------

def identity_for(factor: FactorSpace) -> FactorHomeo:
    if isinstance(factor, (CantorSpace, BaireSpace)):
        return CylinderHomeo(factor, 0, {})
    if isinstance(factor, CircleSpace):
        return PLCircleHomeo(((Fraction(0), Fraction(0)),), 1)
    if isinstance(factor, LineSpace):
        return PLLineHomeo(())
    if isinstance(factor, (DiscSpace, BallSpace)):
        return FloatHomeo(factor, lambda x: x, lambda x: x, 0.0, label="identity", reach=0.0)
    raise UnsupportedOperation(f"no identity for kind {factor.kind}")


def compose(g: FactorHomeo, h: FactorHomeo) -> FactorHomeo:
    """The map x -> h(g(x)) (h after g)."""
    if g.space != h.space:
        raise SpaceMismatch(f"cannot compose {g.space.kind} with {h.space.kind}")
    if isinstance(g, CylinderHomeo) and isinstance(h, CylinderHomeo):
        return _compose_cylinder(g, h)
    if isinstance(g, PLLineHomeo) and isinstance(h, PLLineHomeo):
        return _compose_pl_line(g, h)
    if isinstance(g, PLCircleHomeo) and isinstance(h, PLCircleHomeo):
        return _compose_pl_circle(g, h)
    raise UnsupportedOperation("cannot compose these homeomorphism kinds")


def homeo_from_descriptor(desc: dict) -> FactorHomeo:
    t = desc["type"]
    if t == "cylinder":
        space = CANTOR if desc["kind"] == "cantor" else BAIRE
        table = {tuple(k): tuple(v) for k, v in desc["table"]}
        masks = {
            tuple(k): SymSeq(tuple(m["prefix"]), m["tail"]) for k, m in desc["masks"]
        }
        return CylinderHomeo(space, desc["depth"], table, masks)
    if t == "pl_line":
        return PLLineHomeo(
            tuple((parse_scalar(x), parse_scalar(y)) for x, y in desc["breaks"])
        )
    if t == "pl_circle":
        return PLCircleHomeo(
            tuple((parse_scalar(x), parse_scalar(y)) for x, y in desc["breaks"]),
            desc["orientation"],
        )
    raise UnsupportedOperation(f"cannot rebuild homeomorphism of type {t!r}")


# ---------------------------------------------------------------------------
# Homogeneity toolkit: finite-bijection realizers
# ---------------------------------------------------------------------------

def realize_finite_bijection(factor: FactorSpace, sigma: dict) -> FactorHomeo:
    """A homeomorphism h with h(x) = sigma(x) exactly for every key x.

    Guaranteed for the sequence kinds; the ordered kinds answer only when
    the data respects their (cyclic) order and raise OrderViolation
    otherwise.
    """
    keys = list(sigma)
    vals = list(sigma.values())
    if len({_point_key(factor, v) for v in vals}) != len(vals):
        raise PreconditionError("sigma is not injective")
    if len({_point_key(factor, k) for k in keys}) != len(keys):
        raise PreconditionError("sigma has duplicate source points")
    if all(factor.points_equal(k, sigma[k]) for k in keys):
        return identity_for(factor)
    if isinstance(factor, (CantorSpace, BaireSpace)):
        return _realize_seq(factor, sigma)
    if isinstance(factor, LineSpace):
        return _realize_line(sigma)
    if isinstance(factor, CircleSpace):
        return _realize_circle(sigma)
    raise UnsupportedOperation(
        f"finite bijections are only guaranteed realizable on sequence kinds, not {factor.kind}"
    )


def _realize_seq(factor, sigma: dict) -> CylinderHomeo:
    depth = 1
    for group in (list(sigma), list(sigma.values())):
        for a, b in itertools.combinations(group, 2):
            j = a.first_diff(b)
            if j is None:
                raise PreconditionError("sigma has duplicate points")
            depth = max(depth, j + 1)
    table = {}
    masks = {}
    g = factor.group
    for x, y in sigma.items():
        cx, cy = x.take(depth), y.take(depth)
        table[cx] = cy
        offs = g.op(y.drop(depth), g.inv(x.drop(depth)))
        if offs != _ZERO_MASK:
            masks[cx] = offs
    # close the partial injection to a permutation of the touched prefixes
    touched = sorted(set(table) | set(table.values()))
    unmatched_src = [c for c in touched if c not in table]
    unmatched_dst = [c for c in touched if c not in set(table.values())]
    for s, d in zip(unmatched_src, unmatched_dst):
        if s != d:
            table[s] = d
    return CylinderHomeo(factor, depth, table, masks)


def _realize_line(sigma: dict) -> PLLineHomeo:
    items = sorted(sigma.items())
    ys = [v for _, v in items]
    if any(y1 <= y0 for y0, y1 in zip(ys, ys[1:])):
        bad = next(((items[i], items[i + 1]) for i in range(len(ys) - 1) if ys[i + 1] <= ys[i]))
        raise OrderViolation("line bijections must be strictly increasing", witness=bad)
    pts = [p for kv in items for p in kv]
    lo, hi = min(pts) - 1, max(pts) + 1
    return PLLineHomeo([(lo, lo)] + items + [(hi, hi)])


def _realize_circle(sigma: dict) -> PLCircleHomeo:
    items = sorted((_wrap1(k), _wrap1(v)) for k, v in sigma.items())
    try:
        return _circle_increasing(items)
    except OrderViolation:
        pass
    # try the orientation-reversing reading: reflect the targets first
    reflected = [(x, _wrap1(-y)) for x, y in items]
    base = _circle_increasing(reflected)
    reflection = PLCircleHomeo(((Fraction(0), Fraction(0)),), -1)
    return _compose_pl_circle(base, reflection)


def _circle_increasing(items) -> PLCircleHomeo:
    """Orientation-preserving PL map through cyclically ordered pairs."""
    if len(items) == 1:
        (x, y) = items[0]
        return PLCircleHomeo(((Fraction(0), _wrap1(y - x)),), 1)
    lifts = [items[0][1]]
    for _, y in items[1:]:
        w = _wrap1(y - lifts[-1])
        if w == 0:
            raise OrderViolation("duplicate target on the circle", witness=y)
        lifts.append(lifts[-1] + w)
    if lifts[-1] >= lifts[0] + 1:
        raise OrderViolation(
            "cyclic order of targets is incompatible with an orientation-preserving map",
            witness=items,
        )
    return _circle_through([(x, y) for (x, _), y in zip(items, lifts)], 1)


def _circle_through(pts: list, orientation: int) -> PLCircleHomeo:
    """PL circle map through (x, lift) pairs sorted in [0, 1); fills in 0 on the wrap segment."""
    if pts[0][0] != 0:
        x_prev, y_prev = pts[-1][0] - 1, pts[-1][1] - orientation
        x_next, y_next = pts[0]
        v0 = y_prev + (0 - x_prev) * (y_next - y_prev) / (x_next - x_prev)
        pts = [(Fraction(0), v0)] + pts
    return PLCircleHomeo(pts, orientation)


# ---------------------------------------------------------------------------
# Homogeneity toolkit: small-support transporters
# ---------------------------------------------------------------------------

def small_ball_transporter(factor: FactorSpace, center, target, delta) -> FactorHomeo:
    """h(center) = target with supp(h) inside the delta-ball around center
    and sup-displacement below delta."""
    d = factor.metric(center, target)
    if factor.exact:
        delta = Fraction(delta)
        if d >= delta:
            raise PreconditionError(f"target at distance {d} is outside the {delta}-ball")
    else:
        if d >= float(delta):
            raise PreconditionError("target outside the delta-ball")
    if factor.points_equal(center, target):
        return identity_for(factor)
    if isinstance(factor, (CantorSpace, BaireSpace)):
        # the two-point swap realizer moves only the cylinder around their
        # first difference, which sits inside the open ball
        return _realize_seq(factor, {center: target, target: center})
    if isinstance(factor, CircleSpace):
        r = (d + min(delta, Fraction(1, 2))) / 2
        anchors = {
            _wrap1(center - r): _wrap1(center - r),
            center: target,
            _wrap1(center + r): _wrap1(center + r),
        }
        return _realize_circle(anchors)
    if isinstance(factor, LineSpace):
        r = (d + delta) / 2
        return _realize_line({center - r: center - r, center: target, center + r: center + r})
    if isinstance(factor, (DiscSpace, BallSpace)):
        return _euclid_transporter(factor, center, target, float(delta))
    raise UnsupportedOperation(f"no transporter for kind {factor.kind}")


def _euclid_transporter(factor, center, target, delta: float) -> FloatHomeo:
    gap = 1.0 - factor.metric(center, factor.base_point())
    if gap <= factor.tolerance:
        raise UnsupportedOperation("no small-support move at a boundary point of the disc")
    d = factor.metric(center, target)
    r = min(delta, gap) * 0.5 + d * 0.5
    if not d < r:
        raise PreconditionError("target too far for an interior transporter")
    shift = tuple(t - c for t, c in zip(target, center))

    def lam(x):
        u = factor.metric(x, center)
        return max(0.0, 1.0 - u / r)

    def forward(x):
        w = lam(x)
        return tuple(a + w * s for a, s in zip(x, shift))

    def backward(y):
        return _undo_shift(factor.metric, y, shift, lam)

    # x moves by w(x) * shift with w <= 1 = w(center): the sup is |shift| = d
    return FloatHomeo(factor, forward, backward, 1e-12, f"transporter(r={r:.3g})", reach=d)


def _undo_shift(metric: Callable, y: tuple, shift: tuple, weight: Callable) -> tuple:
    """The x with x + weight(x) * shift = y, by fixed-point iteration from y;
    stops when a step moves less than 1e-15, or after 200 steps."""
    x = y
    for _ in range(200):
        w = weight(x)
        nxt = tuple(b - w * s for b, s in zip(y, shift))
        if metric(nxt, x) < 1e-15:
            return nxt
        x = nxt
    return x
