"""Exact, composable homeomorphisms per factor kind.

Two representations:

  CylinderHomeo  cantor/baire: a bijection of depth-d cylinders together
                 with an eventually-constant per-cylinder suffix translation
                 (symbolwise xor for bits, integer offset for baire).  The
                 pure cylinder table preserves suffixes; the translation
                 part is what lets a finite object carry points like
                 000... onto 111... exactly, which finite-bijection
                 realization requires.
  PLLineHomeo /  circle/line: rational piecewise-linear data, exactly
  PLCircleHomeo  invertible and composable.

Every map is exact: it evaluates, composes and measures in Fractions and
symbol sequences, and its descriptor rebuilds it.

`compose(g, h)` evaluates as h-after-g, matching the stage composition
H_n = h_n o ... o h_0 used by the convergence certificates.  On the PL kinds
it is local in its first argument: a break of h where g is the identity is
taken over as the same tuple, and only h's breaks inside g's moved arcs are
mapped through g^-1.  `sup_distance(f, g)` is sup_x d(f(x), g(x)), read off
the data of f and g without composing them; every map's displacement is its
distance to the identity.

Maps are immutable: nothing assigns to their fields after construction.  So
`invert()` builds a map's inverse once, keeps it, and links it back to the
map, and h.invert().invert() is h; a PL map reads its moved arcs off its
breaks once; and maps may share break tuples, which `sup_distance` reads as
gaps of 0.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from math import floor
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .errors import (
    OrderViolation,
    PreconditionError,
    SpaceMismatch,
    UnsupportedOperation,
)
from .rationals import ZERO, format_scalar, parse_scalar, pow2
from .spaces import (
    CIRCLE,
    LINE,
    CantorSpace,
    BaireSpace,
    CircleSpace,
    FactorSpace,
    LineSpace,
    SymSeq,
    _load_symseq,
    _wrap1,
    factor_from_descriptor,
)

_COMPOSE_SIZE_CAP = 1 << 18


class FactorHomeo:
    """Invertible self-map of one factor."""

    space: FactorSpace
    _inv: Optional["FactorHomeo"] = None

    def apply(self, x):
        raise NotImplementedError

    def invert(self) -> "FactorHomeo":
        """h^-1, built on first use and kept; its own inverse is h."""
        if self._inv is None:
            self._inv = self._inverse()
            self._inv._inv = self
        return self._inv

    def _inverse(self) -> "FactorHomeo":
        raise NotImplementedError

    def sup_displacement(self) -> Fraction:
        """max_x d(h(x), x), a Fraction."""
        return sup_distance(self, identity_for(self.space))

    def descriptor(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Cylinder homeomorphisms (cantor / baire)
# ---------------------------------------------------------------------------

_ZERO_MASK = SymSeq((), 0)


class CylinderHomeo(FactorHomeo):
    """depth-d cylinder bijection + per-source-cylinder suffix translation.

    table maps depth-d prefixes to depth-d prefixes (a permutation of the
    listed set; unlisted prefixes are fixed).  masks[src], a SymSeq, is the
    symbolwise translation applied to the suffix of points entering through
    src.
    """

    def __init__(self, space, depth: int, table: dict, masks: Optional[dict] = None):
        if not isinstance(space, (CantorSpace, BaireSpace)):
            raise SpaceMismatch("cylinder homeomorphisms need a sequence kind")
        self.space = space
        self.depth = depth
        table = {tuple(k): tuple(v) for k, v in table.items() if tuple(k) != tuple(v)}
        masks = {tuple(k): m for k, m in (masks or {}).items() if m != _ZERO_MASK}
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

    def _inverse(self) -> "CylinderHomeo":
        inv = self.space.group.inv
        inv_table = {v: k for k, v in self.table.items()}
        inv_masks = {self.table.get(src, src): inv(m) for src, m in self.masks.items()}
        return CylinderHomeo(self.space, self.depth, inv_table, inv_masks)

    # -- structure ------------------------------------------------------------
    def lift(self, depth: int) -> "CylinderHomeo":
        """The same map at a greater depth; a map that lists nothing lifts on
        every kind."""
        if depth == self.depth:
            return self
        if depth < self.depth:
            raise ValueError("can only lift to a greater depth")
        touched = set(self.table) | set(self.masks)
        if not touched:
            return CylinderHomeo(self.space, depth, {})
        if not isinstance(self.space, CantorSpace):
            raise UnsupportedOperation(
                "lifting enumerates all cylinder extensions; only the binary "
                "alphabet is finite — compose baire maps at equal depth or as a chain"
            )
        delta = depth - self.depth
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
        breaks = _as_breaks(breaks)
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
        return _on_segment(t, x0, y0, x1, y1)

    def _inverse(self) -> "PLLineHomeo":
        return PLLineHomeo(tuple((y, x) for x, y in self.breaks))

    @cached_property
    def _arcs(self) -> list:
        return _moved_arcs(self.breaks)

    def descriptor(self) -> dict:
        return {
            "type": "pl_line",
            "breaks": [[format_scalar(x), format_scalar(y)] for x, y in self.breaks],
        }


def _compose_pl_line(g: PLLineHomeo, h: PLLineHomeo) -> PLLineHomeo:
    """h after g, with breaks at g's breaks and at g^-1 of h's breaks.

    Nothing is evaluated through g: at a break (x, y) of g the composite is
    h(y), and at g^-1(u) for a break (u, v) of h it is v.

    No padding is needed at either end.  Let p be h's first break.  The
    least candidate c is g's first break, so g(c) = c <= g(g^-1(p)) = p, or
    else c = g^-1(p) lies below g's first break, where g is the identity,
    so c = p.  Either way g and h both fix c and everything below it.  The
    same holds for the greatest candidate and everything above it.
    """
    g_inv = g.invert()
    return PLLineHomeo(_compose_breaks(
        g, h, [(x, h.apply(y)) for x, y in g.breaks],
        lambda b: (g_inv.apply(b[0]), b[1])))


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
        breaks = _as_breaks(breaks)
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if not breaks or breaks[0][0] != 0:
            raise ValueError("circle breakpoints must start at 0")
        if not breaks[-1][0] < 1:
            raise ValueError("circle breakpoints must increase within [0, 1)")
        for (x0, _), (x1, _) in zip(breaks, breaks[1:]):
            if not x0 < x1:
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
        if not n:
            return _on_segment(t, *self._segment(t))
        frac = t - n
        return _on_segment(frac, *self._segment(frac)) + n * self.orientation

    def apply(self, p: Fraction) -> Fraction:
        return _wrap1(self.lift_at(p))

    def _inverse(self) -> "PLCircleHomeo":
        """Each break (x, y) lies on the inverse lift as (y - n, x - s*n),
        n = floor(y), s the orientation; the break at 0 is interpolated."""
        s = self.orientation
        pts = []
        for x, y in self.breaks:
            n = floor(y)
            pts.append((y - n, x - s * n) if n else (y, x))
        pts.sort(key=itemgetter(0))
        return _circle_through(pts, s)

    @cached_property
    def _arcs(self) -> list:
        return _moved_arcs(self.breaks + ((Fraction(1), self.breaks[0][1] + self.orientation),))

    def descriptor(self) -> dict:
        return {
            "type": "pl_circle",
            "orientation": self.orientation,
            "breaks": [[format_scalar(x), format_scalar(y)] for x, y in self.breaks],
        }


def _compose_pl_circle(g: PLCircleHomeo, h: PLCircleHomeo) -> PLCircleHomeo:
    """h after g, with breaks at g's breaks and at g^-1 of h's breaks.

    Nothing is evaluated through g.  At a break (x, Y) of g the composite is
    L_h(Y).  For a break (u, v) of h let t' = L_{g^-1}(u) and n = floor(t'):
    the break sits at t = t' - n, where L_g(t) = u - s_g*n, so the composite
    is v - s_h*s_g*n (s_g, s_h the orientations).
    """
    s = g.orientation * h.orientation
    g_inv = g.invert()

    def through(b):
        t = g_inv.lift_at(b[0])
        n = t.numerator // t.denominator
        return t - n, b[1] - s * n

    return PLCircleHomeo(_compose_breaks(
        g, h, [(x, h.lift_at(y)) for x, y in g.breaks], through), s)


def _as_breaks(breaks: Iterable) -> tuple:
    """The breaks as a tuple of pairs of Fractions; a pair that already is
    one is kept as it is, so that maps can share it."""
    out = []
    for b in breaks:
        x, y = b
        if not (type(b) is tuple and type(x) is Fraction and type(y) is Fraction):
            b = (Fraction(x), Fraction(y))
        out.append(b)
    return tuple(out)


def _moved_arcs(pts) -> list:
    """Closed intervals [a, b], increasing and disjoint, outside which the PL
    function through pts (and the identity beyond them) is the identity: the
    maximal runs of segments whose two ends are not both fixed.  A reversing
    circle map fixes no segment, so its one arc is the whole circle."""
    arcs = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 == y0 and x1 == y1:
            continue
        if arcs and arcs[-1][1] == x0:
            arcs[-1] = (arcs[-1][0], x1)
        else:
            arcs.append((x0, x1))
    return arcs


def _compose_breaks(g, h, new: list, through: Callable) -> list:
    """The break list of h after g: `new`, g's breaks with the composite's
    values, extended by h's breaks inside g's moved arcs sent through g^-1
    by `through`, merged with h's other breaks as they are, since g^-1 fixes
    their abscissas.  Where two candidates share an abscissa their values
    agree and one is kept."""
    xs, hb = h._xs, h.breaks
    kept, start = [], 0
    for a, b in g._arcs:
        lo, hi = bisect_left(xs, a, start), bisect_right(xs, b, start)
        kept += hb[start:lo]
        new += map(through, hb[lo:hi])
        start = hi
    kept += hb[start:]
    new.sort(key=itemgetter(0))
    pts, i = [], 0
    for p in new:
        if pts and pts[-1][0] == p[0]:
            continue
        j = bisect_left(kept, p[0], i, key=itemgetter(0))
        pts += kept[i:j]
        if j < len(kept) and kept[j][0] == p[0]:
            pts.append(kept[j])
            i = j + 1
        else:
            pts.append(p)
            i = j
    pts += kept[i:]
    return pts


def _on_segment(t, x0, y0, x1, y1) -> Fraction:
    """The value at t of the segment from (x0, y0) to (x1, y1): the stored
    value at x0, an added offset on a translation segment, else interpolated."""
    if t == x0:
        return y0
    dx, dy = x1 - x0, y1 - y0
    if dx != dy:
        return y0 + (t - x0) * dy / dx
    return t if x0 == y0 else t + (y0 - x0)


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


def sup_distance(f: FactorHomeo, g: FactorHomeo):
    """sup_x d(f(x), g(x)) for two exact maps of one factor."""
    if f.space != g.space:
        raise SpaceMismatch(f"cannot compare {f.space.kind} with {g.space.kind}")
    if isinstance(f, CylinderHomeo) and isinstance(g, CylinderHomeo):
        return _cylinder_distance(f, g)
    if isinstance(f, PLLineHomeo) and isinstance(g, PLLineHomeo):
        # f - g is PL and 0 outside the breaks; the metric min(|.|, 1) caps it
        gaps = _gaps_at_merged_breaks(f, g, f.apply, g.apply)
        return min(max(map(abs, gaps), default=ZERO), Fraction(1))
    if isinstance(f, PLCircleHomeo) and isinstance(g, PLCircleHomeo):
        gaps = _gaps_at_merged_breaks(f, g, f.lift_at, g.lift_at)
        gaps.append(gaps[0] + f.orientation - g.orientation)  # at 1
        return _arc_sup(gaps)
    raise UnsupportedOperation("cannot compare these homeomorphism kinds")


def _cylinder_distance(f: CylinderHomeo, g: CylinderHomeo) -> Fraction:
    """At a common depth each map sends a listed cylinder c to one cylinder
    and adds one mask to the suffix, so d(f(x), g(x)) is the same for every x
    in c: 2^-j, j the first position where the image prefixes differ or, when
    they agree, depth + the first position where the masks differ."""
    depth = max(f.depth, g.depth)
    f, g = f.lift(depth), g.lift(depth)
    best = None
    for c in set(f.table) | set(f.masks) | set(g.table) | set(g.masks):
        a, b = f.table.get(c, c), g.table.get(c, c)
        if a != b:
            j = next(i for i in range(depth) if a[i] != b[i])
        else:
            j = f.masks.get(c, _ZERO_MASK).first_diff(g.masks.get(c, _ZERO_MASK))
            if j is None:
                continue
            j += depth
        if best is None or j < best:
            best = j
    return ZERO if best is None else pow2(-best)


def _gaps_at_merged_breaks(f, g, f_at: Callable, g_at: Callable) -> list:
    """f - g at the sorted union of both maps' break abscissas; each map is
    evaluated only at the other's breaks, and f - g is linear in between.

    A break both maps hold as one tuple has gap 0 and is not compared.  A
    run of such breaks is listed as one 0: f - g is 0 across the run, so the
    list still holds the same segments and their ends."""
    fb, gb = f.breaks, g.breaks
    gaps = []
    i = j = 0
    run = False
    while i < len(fb) and j < len(gb):
        p, q = fb[i], gb[j]
        if p is q:
            if not run:
                gaps.append(ZERO)
                run = True
            i += 1
            j += 1
            continue
        run = False
        (x, y), (u, v) = p, q
        if x == u:
            gaps.append(y - v)
            i += 1
            j += 1
        elif x < u:
            gaps.append(y - g_at(x))
            i += 1
        else:
            gaps.append(f_at(u) - v)
            j += 1
    gaps.extend(y - g_at(x) for x, y in fb[i:])
    gaps.extend(f_at(u) - v for u, v in gb[j:])
    return gaps


def _arc_sup(gaps: list) -> Fraction:
    """Largest arc distance to 0 of a function linear between consecutive
    gaps: 1/2 when a segment crosses a half-integer, else it sits at an end."""
    half = Fraction(1, 2)
    for g0, g1 in zip(gaps, gaps[1:]):
        if g0 != g1:
            lo, hi = (g0, g1) if g0 < g1 else (g1, g0)
            # the least half-integer above lo; lo itself is checked at the ends
            if floor(lo - half) + 1 + half <= hi:
                return half
    best = ZERO
    for g in gaps:
        if g:
            f = _wrap1(g)
            best = max(best, min(f, 1 - f))
    return best


def homeo_from_descriptor(desc: dict) -> FactorHomeo:
    """The map a descriptor names; a malformed one raises a CdhError, a
    PreconditionError where reading or building it fails otherwise."""
    try:
        t = desc["type"]
        if t == "cylinder":
            space = factor_from_descriptor({"kind": desc["kind"]})
            table = {tuple(k): tuple(v) for k, v in desc["table"]}
            binary = desc["kind"] == "cantor"
            masks = {tuple(k): _load_symseq(m, binary) for k, m in desc["masks"]}
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
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise PreconditionError(f"malformed homeomorphism descriptor: {e!r}") from e
    raise UnsupportedOperation(f"cannot rebuild homeomorphism of type {t!r}")


# ---------------------------------------------------------------------------
# Homogeneity toolkit: finite-bijection realizers
# ---------------------------------------------------------------------------

def realize_finite_bijection(factor: FactorSpace, sigma: dict) -> FactorHomeo:
    """A homeomorphism h with h(x) = sigma(x) exactly for every key x.

    Guaranteed for the sequence kinds.  The circle takes data that keeps or
    reverses the cyclic order, so every bijection of at most three points;
    the line takes increasing data only, because a PL line map is the
    identity outside a bounded interval.  Other data raise OrderViolation.
    Circle values are read mod 1.  Repeated sources or targets
    raise PreconditionError, a factor of no exact kind UnsupportedOperation.
    """
    if not isinstance(factor, (CantorSpace, BaireSpace, CircleSpace, LineSpace)):
        raise UnsupportedOperation(f"no finite-bijection realizer for kind {factor.kind}")
    n = len(sigma)
    if isinstance(factor, CircleSpace):
        sigma = {_wrap1(k): _wrap1(v) for k, v in sigma.items()}
    if len(sigma) != n:
        raise PreconditionError("sigma has duplicate source points")
    if len(set(sigma.values())) != n:
        raise PreconditionError("sigma is not injective")
    if all(k == v for k, v in sigma.items()):
        return identity_for(factor)
    if isinstance(factor, (CantorSpace, BaireSpace)):
        return _realize_seq(factor, sigma)
    if isinstance(factor, LineSpace):
        return _realize_line(sigma)
    return _realize_circle(sigma)


def _realize_seq(factor, sigma: dict) -> CylinderHomeo:
    depth = 1
    for group in (list(sigma), list(sigma.values())):
        for a, b in itertools.combinations(group, 2):
            depth = max(depth, a.first_diff(b) + 1)
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
    if not factor.exact:
        raise UnsupportedOperation(f"no transporter for kind {factor.kind}")
    d = factor.metric(center, target)
    delta = Fraction(delta)
    if d >= delta:
        raise PreconditionError(f"target at distance {d} is outside the {delta}-ball")
    if factor.points_equal(center, target):
        return identity_for(factor)
    if isinstance(factor, (CantorSpace, BaireSpace)):
        # the two-point swap realizer moves only the cylinder around their
        # first difference, which sits inside the open ball
        return _realize_seq(factor, {center: target, target: center})
    if isinstance(factor, CircleSpace):
        if d == Fraction(1, 2):
            # the anchors center -+ r would coincide; as d < delta, the ball
            # is the whole circle, and the rotation by 1/2 stays inside it
            return _realize_circle({center: target})
        r = (d + min(delta, Fraction(1, 2))) / 2
        return _realize_circle({center - r: center - r, center: target, center + r: center + r})
    if isinstance(factor, LineSpace):
        # the metric caps at 1, so a gap of delta or more means delta > 1:
        # the ball is the whole line, and any bump wider than the gap fits
        gap = abs(target - center)
        r = (gap + delta) / 2 if gap < delta else gap + 1
        return _realize_line({center - r: center - r, center: target, center + r: center + r})
    raise UnsupportedOperation(f"no transporter for kind {factor.kind}")

