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
mapped through g^-1.  A circle composite that would be the identity moved
by whole turns is the shared identity.  `sup_distance(f, g)` is
sup_x d(f(x), g(x)), read off the data of f and g without composing them;
every map's displacement is its distance to the identity.
`composite_distance(g, h, gh)` gives sup_distance(gh, h) for gh =
compose(g, h) from the breaks inside g's moved arcs alone, since gh is h
off them.

Maps are immutable: nothing assigns to their fields after construction.  So
`invert()` builds a map's inverse once, keeps it, and links it back to the
map, and h.invert().invert() is h; a PL map reads its moved arcs off its
breaks once; and maps may share break tuples, which `sup_distance` reads as
gaps of 0.  For the same reason a PL map reads each segment through an
integer form, built on first use and kept, and a composite takes over the
form of every segment of h it keeps whole, built or not.

The PL kinds compare, search and interpolate on numerators and
denominators, and build one Fraction per value they return or store:
- the segment search compares p * x_d with x_n * q, and a form is read off
  its ends' integers and reduced by one gcd;
- `apply`, `lift_at` and the composite's new breaks wrap a circle value
  by `%`;
- the constructors compare consecutive breaks by cross-multiplying, the
  circle's closing pair against L(0) + s too;
- `compose` finds each moved arc's breaks of h by the segment search,
  sorts its candidates on exact integer keys and places them among the
  kept breaks by the same search;
- a circle inverse takes its anchors in the order the lift's floors give,
  with no sort, and `_circle_through` and the circle and line transporters
  compute on integers over one denominator;
- the break walk of `sup_distance` gives its gaps as unreduced integer
  pairs, which `_arc_sup` and the line cap read without building a
  Fraction until the result.
A composite's constructor compares only the break pairs the composition
added, since every other pair is one its second map's constructor checked
(see `_compose_breaks`).  `identity_for` returns one shared map per kind.

Transporters, realizers and inverses build circle maps in `_circle_through`
from anchors (x, L(x)) whose fixed points read L(x) = x, so a fixed part does
too and `_arcs` and `compose` keep to the support; so does a composite of maps
whose lift displacements sum to less than 1.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Optional

from .errors import (
    OrderViolation,
    PreconditionError,
    SpaceMismatch,
    UnsupportedOperation,
)
from .rationals import HALF, ONE, ZERO, format_scalar, parse_scalar, pow2
from .spaces import (
    BAIRE,
    CANTOR,
    CIRCLE,
    LINE,
    CantorSpace,
    BaireSpace,
    CircleSpace,
    FactorSpace,
    LineSpace,
    SymSeq,
    _are_symbols,
    _check_points,
    _is_number,
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
    src.  A depth that is not an int >= 0 (a bool included), a table or
    mask prefix holding a symbol that is not one of the kind's, and a mask
    that is not a SymSeq of the kind's symbols raise ValueError.  The maps
    built here from valid maps or checked points pass `_checked` to skip the
    symbol checks.
    """

    def __init__(self, space, depth: int, table: dict, masks: Optional[dict] = None, *,
                 _checked: bool = False):
        if not isinstance(space, (CantorSpace, BaireSpace)):
            raise SpaceMismatch("cylinder homeomorphisms need a sequence kind")
        if type(depth) is not int or depth < 0:
            raise ValueError(f"cylinder depth must be an int >= 0, not {depth!r}")
        self.space = space
        self.depth = depth
        masks = masks or {}
        if not _checked:
            table = {tuple(k): tuple(v) for k, v in table.items()}
            masks = {tuple(k): m for k, m in masks.items()}
            _check_cylinder_data(space, table, masks)
        table = {k: v for k, v in table.items() if k != v}
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

    def _inverse(self) -> "CylinderHomeo":
        inv = self.space.group.inv
        inv_table = {v: k for k, v in self.table.items()}
        inv_masks = {self.table.get(src, src): inv(m) for src, m in self.masks.items()}
        return CylinderHomeo(self.space, self.depth, inv_table, inv_masks, _checked=True)

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
            return CylinderHomeo(self.space, depth, {}, _checked=True)
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
        return CylinderHomeo(self.space, depth, table, masks, _checked=True)

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
    return CylinderHomeo(g.space, depth, table, masks, _checked=True)


def _check_cylinder_data(space, table: dict, masks: dict) -> None:
    """Refuse, with ValueError, a table or mask prefix that holds a symbol
    not of `space`'s kind, and a mask that is not one of its points."""
    for p in (*table, *table.values(), *masks):
        if not _are_symbols(p, 0, space.binary):
            raise ValueError(f"{list(p)} is not a {space.kind} symbol prefix")
    for m in masks.values():
        if not space.is_point(m):
            raise ValueError(f"mask {m!r} is not a {space.kind} sequence")


# ---------------------------------------------------------------------------
# Piecewise-linear homeomorphisms: the shared evaluator
# ---------------------------------------------------------------------------

class _PLHomeo(FactorHomeo):
    """A rational PL map read segment by segment: segment i runs from break
    i to the next break or, on the circle, to the closing point
    (1, L(0) + s).

    Every evaluation reads integers.  `_seg` finds a segment by comparing
    p * x_d with x_n * q for t = p/q and each abscissa x = x_n/x_d, and
    `_form` gives the segment's integer form, so a value is one Fraction,
    built at the end, or a pair of ints that nothing reduces."""

    @cached_property
    def _xs(self) -> list:
        """Each break's abscissa as its pair of ints (numerator,
        denominator), built on first use; a composite is given its own."""
        return [(x.numerator, x.denominator) for x, _ in self.breaks]

    def _seg(self, p: int, q: int, lo: int = 0) -> int:
        """bisect_right over the break abscissas from index lo at t = p/q,
        minus 1: the last segment starting at or below t, lo - 1 below every
        break from lo."""
        xs = self._xs
        hi = len(xs)
        while lo < hi:
            mid = (lo + hi) >> 1
            xn, xd = xs[mid]
            if p * xd < xn * q:
                hi = mid
            else:
                lo = mid + 1
        return lo - 1

    def _span(self, a: Fraction, b: Fraction, lo: int) -> tuple:
        """The indices (i, j), from lo, of the breaks whose abscissas lie in
        [a, b]: bisect_left at a and bisect_right at b, found by `_seg`."""
        p, q = a.numerator, a.denominator
        i = self._seg(p, q, lo)
        if i < lo or self._xs[i] != (p, q):
            i += 1
        return i, self._seg(b.numerator, b.denominator, i) + 1

    def _form(self, i: int) -> tuple:
        """Segment i's integer form (a, b, c), built on first use and kept:
        the segment is m*t + e = (a*t + b)/c, so at t = p/q its value is
        (a*p + b*q)/(c*q).  An identity segment has the shared form
        `_IDENTITY_FORM`.

        The form is the one primitive triple with c > 0 (m = a/c and
        e = b/c in lowest terms give c = lcm of their denominators, and no
        prime divides a, b and c), so it is read off the ends' numerators
        and denominators as any integer triple through them, divided by
        the gcd of its three entries."""
        form = self._forms[i]
        if form is None:
            x0, y0 = self.breaks[i]
            if i + 1 < len(self.breaks):
                x1, y1 = self.breaks[i + 1]
                p1, q1, r1, s1 = x1.numerator, x1.denominator, y1.numerator, y1.denominator
            else:  # the circle's closing point (1, L(0) + s)
                y1 = self.breaks[0][1]
                p1 = q1 = 1
                s1 = y1.denominator
                r1 = y1.numerator + self.orientation * s1
            form = _segment_form(x0.numerator, x0.denominator, y0.numerator, y0.denominator,
                                 p1, q1, r1, s1)
            if form == _IDENTITY_FORM:
                form = _IDENTITY_FORM
            self._forms[i] = form
        return form

    def _at(self, i: int, p: int, q: int) -> tuple:
        """The value at p/q on segment i as an unreduced pair (n, d), d > 0."""
        a, b, c = self._form(i)
        return a * p + b * q, c * q

    def _on(self, i: int, t: Fraction) -> Fraction:
        """The value at t, an int or a Fraction, on segment i, as one
        Fraction; t itself on an identity segment."""
        form = self._form(i)
        if form is _IDENTITY_FORM:
            return t
        a, b, c = form
        q = t.denominator
        return Fraction(a * t.numerator + b * q, c * q)

    def sup_displacement(self) -> Fraction:
        """The distance to the identity, read off the breaks alone: the
        identity's value at a break x is x, so the gaps `sup_distance` walks
        are y - x at each break (x, y), and on the circle L(1) - 1 at the
        closing point, the gap at 0 plus s - 1."""
        gaps = [_minus(y.numerator, y.denominator, x.numerator, x.denominator)
                for x, y in self.breaks]
        if isinstance(self, PLLineHomeo):
            return _line_sup(gaps)
        n, d = gaps[0]
        gaps.append((n + (self.orientation - 1) * d, d))
        return _arc_sup(gaps)


_IDENTITY_FORM = (1, 0, 1)


def _segment_form(p0: int, q0: int, r0: int, s0: int, p1: int, q1: int, r1: int, s1: int) -> tuple:
    """The primitive form (a, b, c), c > 0, of the line through
    (p0/q0, r0/s0) and (p1/q1, r1/s1), p0/q0 < p1/q1, q0, q1, s0, s1 > 0.

    On the line, y = r0/s0 + (t - p0/q0) * dy/dx with dx = (p1*q0 - p0*q1)/(q0*q1)
    and dy = (r1*s0 - r0*s1)/(s0*s1); over the denominator dx*q0*q1*s0*s1 its
    value is (a*t + b)/c with a = q0*q1*DY, b = r0*s1*DX - p0*q1*DY and
    c = DX*s0*s1, for DX and DY the numerators of dx and dy."""
    dx = p1 * q0 - p0 * q1
    dy = (r1 * s0 - r0 * s1) * q1
    a, b, c = dy * q0, r0 * s1 * dx - p0 * dy, dx * s0 * s1
    g = gcd(a, b, c)
    return a // g, b // g, c // g


def _lt(a, b) -> bool:
    """a < b for two ints or Fractions, on their numerators and denominators."""
    return a.numerator * b.denominator < b.numerator * a.denominator


def _same(a, b) -> bool:
    """a == b for two ints or Fractions, each in lowest terms."""
    return a.numerator == b.numerator and a.denominator == b.denominator


def _pairs_to_check(n: int, added) -> Iterable[int]:
    """The k whose consecutive pair (k, k + 1) of n breaks a PL constructor
    compares: every one, or, given the sorted positions `added` of the
    breaks a composite added, the pairs that hold one (see
    `_compose_breaks`)."""
    if added is None:
        return range(n - 1)
    return sorted({k for a in added for k in (a - 1, a) if 0 <= k < n - 1})


# ---------------------------------------------------------------------------
# Piecewise-linear homeomorphisms of the line
# ---------------------------------------------------------------------------

class PLLineHomeo(_PLHomeo):
    """Strictly increasing rational PL map, identity outside its breakpoints.

    A float or bool in a break raises ValueError."""

    def __init__(self, breaks: Iterable[tuple] = (), *, _added=None, _forms=None, _xs=None):
        breaks = _as_breaks(breaks) if _added is None else breaks
        self.space = LINE
        for k in _pairs_to_check(len(breaks), _added):
            (x0, y0), (x1, y1) = breaks[k], breaks[k + 1]
            if not (_lt(x0, x1) and _lt(y0, y1)):
                raise ValueError("breakpoints must be strictly increasing")
        if breaks:
            if not (_same(*breaks[0]) and _same(*breaks[-1])):
                raise ValueError("PL line maps must be the identity outside their breakpoints")
        self.breaks = breaks
        if _xs is not None:
            self._xs = _xs
        self._forms = [None] * len(breaks) if _forms is None else _forms

    def apply(self, t: Fraction) -> Fraction:
        i = self._seg(t.numerator, t.denominator)
        if i < 0 or i == len(self.breaks) - 1:
            return t
        return self._on(i, t)

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
    pts, added, forms, xs = _compose_breaks(
        g, h, [(x, h.apply(y)) for x, y in g.breaks],
        lambda b: (g_inv.apply(b[0]), b[1]))
    return PLLineHomeo(tuple(pts), _added=added, _forms=forms, _xs=xs)


# ---------------------------------------------------------------------------
# Piecewise-linear homeomorphisms of the circle
# ---------------------------------------------------------------------------

class PLCircleHomeo(_PLHomeo):
    """Rational PL circle map stored as one period of its lift.

    breaks = ((x_0, L(x_0)), ..., (x_{k-1}, L(x_{k-1}))) with x_0 = 0 and
    0 <= x_i < 1 strictly increasing; the closing value L(1) = L(0) + s is
    implied, where s = +1 (orientation-preserving) or -1 (reversing).  An
    orientation other than the int 1 or -1 (a bool or a float included),
    and a float or bool in a break, raise ValueError.
    """

    def __init__(self, breaks: Iterable[tuple], orientation: int = 1, *, _added=None,
                 _forms=None, _xs=None):
        breaks = _as_breaks(breaks) if _added is None else breaks
        if type(orientation) is not int or orientation not in (1, -1):
            raise ValueError(f"orientation must be the int +1 or -1, not {orientation!r}")
        if not breaks or breaks[0][0].numerator != 0:
            raise ValueError("circle breakpoints must start at 0")
        x = breaks[-1][0]
        if not x.numerator < x.denominator:
            raise ValueError("circle breakpoints must increase within [0, 1)")
        pairs = _pairs_to_check(len(breaks), _added)
        for k in pairs:
            if not _lt(breaks[k][0], breaks[k + 1][0]):
                raise ValueError("circle breakpoints must increase within [0, 1)")
        # each pair of lift values (n0/d0, n1/d1), the closing pair ending at
        # L(0) + s; s * (n1*d0 - n0*d1) > 0 when the lift moves the way s does
        ys = [(y0.numerator, y0.denominator, y1.numerator, y1.denominator)
              for y0, y1 in ((breaks[k][1], breaks[k + 1][1]) for k in pairs)]
        y0, y1 = breaks[-1][1], breaks[0][1]
        ys.append((y0.numerator, y0.denominator, y1.numerator + orientation * y1.denominator,
                   y1.denominator))
        for n0, d0, n1, d1 in ys:
            if orientation * (n1 * d0 - n0 * d1) <= 0:
                raise ValueError("lift must strictly increase" if orientation == 1
                                 else "lift must strictly decrease")
        self.space = CIRCLE
        self.breaks = breaks
        self.orientation = orientation
        if _xs is not None:
            self._xs = _xs
        self._forms = [None] * len(breaks) if _forms is None else _forms


    def lift_at(self, t: Fraction) -> Fraction:
        """L(t) = L(t - n) + s*n, n = floor(t), s the orientation."""
        q = t.denominator
        n, p = divmod(t.numerator, q)
        i = self._seg(p, q)
        if not n:
            return self._on(i, t)
        a, d = self._at(i, p, q)
        return Fraction(a + n * self.orientation * d, d)

    def apply(self, t: Fraction) -> Fraction:
        """L(t) mod 1; t itself where it lies in [0, 1) on an identity
        segment."""
        q = t.denominator
        p = t.numerator % q
        i = self._seg(p, q)
        form = self._form(i)
        if form is _IDENTITY_FORM:
            return t if p == t.numerator else Fraction(p, q)
        a, b, c = form
        d = c * q
        return Fraction((a * p + b * q) % d, d)

    def _inverse(self) -> "PLCircleHomeo":
        """Each break (x, y) lies on the inverse lift as (y - n, x - s*n),
        n = floor(y), s the orientation; the break at 0 is interpolated.

        No sort is needed.  The lift values run strictly from L(0) towards
        L(0) + s, so their floors take two values at most, n_0 and then
        n_0 + s.  A value of the second run lies, mod 1, on the other side
        of L(0) mod 1 from the first run; so by abscissa the anchors are
        the second run and then the first (s = 1), or each run reversed,
        the first and then the second (s = -1)."""
        s = self.orientation
        pts, m, n0 = [], None, None
        for k, (x, y) in enumerate(self.breaks):
            d = y.denominator
            n = y.numerator // d
            if n0 is None:
                n0 = n
            elif m is None and n != n0:
                m = k
            pts.append((Fraction(y.numerator - n * d, d),
                        Fraction(x.numerator - s * n * x.denominator, x.denominator))
                       if n else (y, x))
        if m is not None:
            pts = pts[m:] + pts[:m] if s == 1 else pts[:m][::-1] + pts[m:][::-1]
        elif s == -1:
            pts.reverse()
        return _circle_through(pts, s)

    @cached_property
    def _arcs(self) -> list:
        y = self.breaks[0][1]
        closing = ONE, Fraction(y.numerator + self.orientation * y.denominator, y.denominator)
        return _moved_arcs(self.breaks + (closing,))

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

    A composite that keeps no break of h and whose every break reads
    (x, x + n) for one int n, with orientation 1, is the identity moved by
    whole turns, and the shared identity is returned: so its `_arcs` is
    empty and no later composition maps a break through it.
    """
    s = g.orientation * h.orientation
    g_inv = g.invert()

    def through(b):
        u = b[0]  # in [0, 1)
        p, q = u.numerator, u.denominator
        a, d = g_inv._at(g_inv._seg(p, q), p, q)
        n = a // d
        return Fraction(a - n * d, d), b[1] - s * n

    pts, added, forms, xs = _compose_breaks(g, h, [(x, h.lift_at(y)) for x, y in g.breaks], through)
    if s == 1 and len(added) == len(pts) and _whole_turn(pts):
        return identity_for(CIRCLE)
    return PLCircleHomeo(tuple(pts), s, _added=added, _forms=forms, _xs=xs)


def _whole_turn(pts: list) -> bool:
    """Whether every break reads (x, x + n), for one int n: a lift of the
    identity moved by n whole turns."""
    lift0 = pts[0][1]  # at x = 0
    if lift0.denominator != 1:
        return False
    n = lift0.numerator
    return all(x.denominator == y.denominator and y.numerator - x.numerator == n * x.denominator
               for x, y in pts)


def _as_breaks(breaks: Iterable) -> tuple:
    """The breaks as a tuple of pairs of Fractions; a pair that already is
    one is kept as it is, so that maps can share it.  A value that is not an
    int or a Fraction (a bool, a float, a str or a Decimal) raises
    ValueError, as `ProductSpace.point` refuses it on an exact factor."""
    out = []
    for b in breaks:
        x, y = b
        if not (type(b) is tuple and type(x) is Fraction and type(y) is Fraction):
            if not (_is_number(x) and _is_number(y)):
                raise ValueError(f"break {b!r} is not exact: an int or a Fraction is needed")
            b = (Fraction(x), Fraction(y))
        out.append(b)
    return tuple(out)


def _moved_arcs(pts) -> list:
    """Closed intervals [a, b], increasing and disjoint, outside which the PL
    function through pts (and the identity beyond them) is the identity: the
    maximal runs of segments whose two ends are not both fixed, a fixed end
    read as x == y on numerators and denominators.  A reversing circle map
    fixes no segment, so its one arc is the whole circle."""
    arcs = []
    fixed = [x.numerator == y.numerator and x.denominator == y.denominator for x, y in pts]
    last = -2  # the last moved segment
    for k in range(len(pts) - 1):
        if fixed[k] and fixed[k + 1]:
            continue
        if last == k - 1:
            arcs[-1] = (arcs[-1][0], pts[k + 1][0])
        else:
            arcs.append((pts[k][0], pts[k + 1][0]))
        last = k
    return arcs


def _compose_breaks(g, h, new: list, through: Callable) -> tuple:
    """The break list of h after g, the sorted positions in it of the
    breaks it adds, the forms it takes over from h and its abscissas as
    pairs of ints, as `_xs` holds them.  Each break is a
    pair of Fractions, one of h's or built from Fractions here, so the
    composite's constructor skips `_as_breaks`.  `new` holds g's breaks with
    the composite's values; it is extended by h's breaks inside g's moved
    arcs sent through g^-1 by `through`, and merged with h's other breaks,
    which are kept as they are, since g^-1 fixes their abscissas.  Where two
    candidates share an abscissa their values agree and one is kept; the
    rest are added.

    Every search and comparison reads integers.  `_span` finds each arc's
    breaks of h by `_seg`.  `new` is sorted on exact integer keys: for
    abscissas with denominators below 2^m, two distinct ones differ by more
    than 2^-2m, so floor(x * 2^2m) orders them and ties only equal ones.  A
    candidate is placed among the kept breaks by `_seg` on h and a bisection
    of the kept breaks' indices in h.

    So the composite's constructor compares only the consecutive pairs that
    hold an added break, and still checks every pair.  Two kept breaks that
    are adjacent in the list are adjacent in h's breaks, so h's constructor
    has compared them, with the same values, and on the circle with the
    composite's orientation.  For if h's breaks between them inside an arc
    [a, b] of g were left out, then a, a break of g, would lie strictly
    between the two, with no kept break at a, and a break at a would have
    been added between them.  On the circle, g preserves orientation when
    any break is kept: a reversing map fixes no segment, so its moved arc is
    the whole circle, and s_g * s_h is s_h.

    For the same reason a segment whose two ends are h's breaks i and i + 1,
    both kept, is h's segment i, and the composite takes over its form as h
    holds it, built or None; on the circle so does the closing segment when
    the first and last breaks are h's."""
    xs, hb = h._xs, h.breaks
    kept, kxs, src, start = [], [], [], 0  # src: each kept break's index in h
    for a, b in g._arcs:
        lo, hi = h._span(a, b, start)
        kept += hb[start:lo]
        kxs += xs[start:lo]
        src += range(start, lo)
        new += map(through, hb[lo:hi])
        start = hi
    kept += hb[start:]
    kxs += xs[start:]
    src += range(start, len(hb))
    if len(new) > 1:
        m = 2 * max(x.denominator.bit_length() for x, _ in new)
        new.sort(key=lambda b: (b[0].numerator << m) // b[0].denominator)
    pts, pxs, added, at, i = [], [], [], [], 0  # at: each break's index in h, -1 if added
    key = None
    for p in new:
        n, d = p[0].numerator, p[0].denominator
        if (n, d) == key:
            continue
        key = n, d
        if i < len(kept) and kxs[i][0] * d <= n * kxs[i][1]:
            u = h._seg(n, d, src[i])  # h's last break at or below p
            j = bisect_right(src, u, i)  # kept[:j] lie at or below p
            pts += kept[i:j]
            pxs += kxs[i:j]
            at += src[i:j]
            i = j
            if src[j - 1] == u and xs[u] == key:
                continue
        added.append(len(pts))
        pts.append(p)
        pxs.append(key)
        at.append(-1)
    pts += kept[i:]
    pxs += kxs[i:]
    at += src[i:]
    hf = h._forms
    forms = [hf[u] if u >= 0 and v == u + 1 else None for u, v in zip(at, at[1:])]
    closes = isinstance(h, PLCircleHomeo) and at[0] == 0 and at[-1] == len(hb) - 1
    forms.append(hf[-1] if closes else None)
    return pts, added, forms, pxs


# ---------------------------------------------------------------------------
# Composition and identities
# ---------------------------------------------------------------------------

_IDENTITIES = {"cantor": CylinderHomeo(CANTOR, 0, {}), "baire": CylinderHomeo(BAIRE, 0, {}),
               "circle": PLCircleHomeo(((Fraction(0), Fraction(0)),), 1), "line": PLLineHomeo(())}


def identity_for(factor: FactorSpace) -> FactorHomeo:
    """The identity of an exact factor: each kind has one, built once and
    returned by every call."""
    h = _IDENTITIES.get(factor.kind)
    if h is None:
        raise UnsupportedOperation(f"no identity for kind {factor.kind}")
    return h


def _check_maps(*maps) -> None:
    """Refuse, with PreconditionError, an argument that is not a map."""
    for m in maps:
        if not isinstance(m, FactorHomeo):
            raise PreconditionError(f"a {type(m).__name__} is not a FactorHomeo")


def compose(g: FactorHomeo, h: FactorHomeo) -> FactorHomeo:
    """The map x -> h(g(x)) (h after g); an argument that is not a
    FactorHomeo raises PreconditionError."""
    _check_maps(g, h)
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
    """sup_x d(f(x), g(x)) for two exact maps of one factor; an argument
    that is not a FactorHomeo raises PreconditionError."""
    _check_maps(f, g)
    if f.space != g.space:
        raise SpaceMismatch(f"cannot compare {f.space.kind} with {g.space.kind}")
    if isinstance(f, CylinderHomeo) and isinstance(g, CylinderHomeo):
        return _cylinder_distance(f, g)
    if isinstance(f, PLLineHomeo) and isinstance(g, PLLineHomeo):
        # f - g is PL and 0 outside the breaks; the metric min(|.|, 1) caps it
        return _line_sup(_gaps_at_merged_breaks(f, g))
    if isinstance(f, PLCircleHomeo) and isinstance(g, PLCircleHomeo):
        gaps = _gaps_at_merged_breaks(f, g)
        # at 1; equal orientations leave gaps[0] as it is
        n, d = gaps[0]
        gaps.append(gaps[0] if f.orientation == g.orientation
                    else (n + (f.orientation - g.orientation) * d, d))
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


def _gaps_at_merged_breaks(f, g, i: int = 0, i1: Optional[int] = None, j: int = 0,
                           j1: Optional[int] = None) -> list:
    """f - g at the sorted union of f's breaks i..i1-1 and g's breaks
    j..j1-1 (by default all of them), each gap an unreduced pair (n, d) of
    ints with d > 0; each map is evaluated only at the other's breaks, and
    f - g is linear in between.

    The walk needs no search: a break of one map strictly between the
    other's breaks k - 1 and k lies on the other's segment k - 1, and so do
    the breaks left over once the other's range is used up.  Past the
    other's last break that is a circle map's closing segment; below its
    first break or from its last a line map is the identity.

    A break both maps hold as one tuple has gap 0 and is not compared.  A
    run of such breaks is listed as one 0: f - g is 0 across the run, so the
    list still holds the same segments and their ends."""
    fb, gb = f.breaks, g.breaks
    i1 = len(fb) if i1 is None else i1
    j1 = len(gb) if j1 is None else j1
    gaps = []
    run = False
    while i < i1 and j < j1:
        p, q = fb[i], gb[j]
        if p is q:
            if not run:
                gaps.append((0, 1))
                run = True
            i += 1
            j += 1
            continue
        run = False
        (x, y), (u, v) = p, q
        xn, xd, un, ud = x.numerator, x.denominator, u.numerator, u.denominator
        if xn == un and xd == ud:
            gaps.append(_minus(y.numerator, y.denominator, v.numerator, v.denominator))
            i += 1
            j += 1
        elif xn * ud < un * xd:
            gaps.append(_minus(y.numerator, y.denominator, *(g._at(j - 1, xn, xd) if j else (xn, xd))))
            i += 1
        else:
            gaps.append(_minus(*(f._at(i - 1, un, ud) if i else (un, ud)), v.numerator, v.denominator))
            j += 1
    gaps.extend(_minus(y.numerator, y.denominator, *_on_segment(g, j - 1, x.numerator, x.denominator))
                for x, y in fb[i:i1])
    gaps.extend(_minus(*_on_segment(f, i - 1, u.numerator, u.denominator), v.numerator, v.denominator)
                for u, v in gb[j:j1])
    return gaps


def _on_segment(m, k: int, n: int, d: int) -> tuple:
    """m at n/d, which lies on m's segment k, as an unreduced pair; a line
    map is the identity below its first break and from its last."""
    if k < 0 or k == len(m.breaks) - 1 and isinstance(m, PLLineHomeo):
        return n, d
    return m._at(k, n, d)


def composite_distance(g: FactorHomeo, h: FactorHomeo, gh: FactorHomeo) -> Fraction:
    """sup_distance(gh, h), bit for bit, for gh = compose(g, h).  On the PL
    kinds it is read off the breaks inside g's moved arcs only, unless g
    reverses the circle or its one arc is the whole circle.

    Why that is the whole sup.  Off g's moved arcs g is the identity, on the
    lift too: every segment there has two fixed ends x = L_g(x).  The
    composite's lift is L_h o L_g (at a break of g its value is L_h(L_g(x)),
    and at g^-1(u) for a break (u, v) of h it is v), so gh and h are the
    same map there, and gh - h, read as `sup_distance` reads it, is 0 at
    every break outside the arcs.  Both maps are linear between the merged
    breaks, and `_line_sup` and `_arc_sup` read only the set of gaps at
    those breaks.  So the full walk's set is the set at the breaks inside
    the arcs together with 0: at least one break of g, an end of an arc,
    is fixed when an arc is not the whole circle, and a line map's arcs
    are bounded.  A 0 is added to the gaps read inside the arcs, and the
    value is bit for bit the full walk's.  A circle arc [a, 1] ends at the
    closing point, where the gap is the gap at 0 when the orientations
    agree; the walk reads the gap at 0 in the arc [0, b] when g moves 0, and
    it is 0 when g fixes 0.  A reversing g moves every segment, so both
    fall-backs are the whole circle."""
    _check_maps(g, h, gh)
    if not isinstance(g, _PLHomeo) or not (type(g) is type(h) is type(gh)):
        return sup_distance(gh, h)
    arcs = g._arcs
    if isinstance(g, PLCircleHomeo) and (g.orientation == -1 or len(arcs) == 1 and (
            arcs[0][0].numerator == 0 and arcs[0][1].numerator == arcs[0][1].denominator)):
        return sup_distance(gh, h)
    gaps = [(0, 1)]
    i = j = 0
    for a, b in arcs:
        i, i1 = gh._span(a, b, i)
        j, j1 = h._span(a, b, j)
        gaps += _gaps_at_merged_breaks(gh, h, i, i1, j, j1)
        i, j = i1, j1
    return _line_sup(gaps) if isinstance(g, PLLineHomeo) else _arc_sup(gaps)


def _minus(a: int, b: int, c: int, d: int) -> tuple:
    """a/b - c/d, for b, d > 0, as the unreduced pair (a*d - c*b, b*d)."""
    return a * d - c * b, b * d


def _line_sup(gaps: list) -> Fraction:
    """min(max |n/d|, 1) over the gap pairs, found on integers."""
    best_n, best_d = 0, 1
    for n, d in gaps:
        n = abs(n)
        if n * best_d > best_n * d:
            best_n, best_d = n, d
    if best_n >= best_d:
        return ONE
    return Fraction(best_n, best_d) if best_n else ZERO


def _arc_sup(gaps: list) -> Fraction:
    """Largest arc distance to 0 of a function linear between consecutive
    gaps, each an unreduced pair (n, d) with d > 0: 1/2 when a segment
    crosses a half-integer, else it sits at an end.

    Both steps read n/d through floor division and the remainder mod d,
    which scale with the pair, so a pair need not be reduced.  For d > 0,
    k(n/d) = (2n - d) // 2d is the m for which m + 1/2 is the greatest
    half-integer up to n/d.  A segment crosses a half-integer above its
    lower end, which the ends cover, iff its two end gaps have different k;
    so some segment does iff the gaps do not all share one k.

    Otherwise the arc distance of n/d is a/d, a = min(n mod d, d - n mod d),
    and the largest is found by comparing a*d' with a'*d on integers; it is
    built as a Fraction once, at the end."""
    if len({(2 * n - d) // (2 * d) for n, d in gaps}) > 1:
        return HALF
    best_a, best_d = 0, 1
    for n, d in gaps:
        a = n % d
        if 2 * a > d:
            a = d - a
        if a * best_d > best_a * d:
            best_a, best_d = a, d
    return Fraction(best_a, best_d) if best_a else ZERO


def homeo_from_descriptor(desc: dict) -> FactorHomeo:
    """The map a descriptor names; a malformed one raises a CdhError, a
    PreconditionError where reading or building it fails otherwise."""
    try:
        t = desc["type"]
        if t == "cylinder":
            space = factor_from_descriptor({"kind": desc["kind"]})
            binary = desc["kind"] == "cantor"
            table = {tuple(k): tuple(v) for k, v in desc["table"]}
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
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
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
    Circle values are read mod 1.  Repeated sources or targets, and a point
    not of the factor's exact kind, raise PreconditionError, a factor of no
    exact kind UnsupportedOperation.
    """
    if not isinstance(factor, (CantorSpace, BaireSpace, CircleSpace, LineSpace)):
        raise UnsupportedOperation(f"no finite-bijection realizer for kind {factor.kind}")
    _check_points(factor, itertools.chain(sigma, sigma.values()))
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
    return CylinderHomeo(factor, depth, table, masks, _checked=True)


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
    if len(items) == 1:
        return PLCircleHomeo(((ZERO, _wrap1(items[0][1] - items[0][0])),), 1)
    try:
        return _circle_monotone(items, 1)
    except OrderViolation:
        return _circle_monotone(items, -1)


def _circle_monotone(items: list, s: int) -> PLCircleHomeo:
    """The PL map through pairs with distinct targets, sorted by source in
    [0, 1), whose lift increases (s = 1) or decreases (s = -1), else
    OrderViolation.  The first lift is x0 + ((y0 - x0 + 1/2) mod 1) - 1/2 and
    each next one the nearest in direction s; then whole turns pin L(x) = x
    at a fixed pair, and for s = 1 at all: x < x' < x + 1 gives x < L(x') < x + 1."""
    x0, y0 = items[0]
    lifts = [x0 + (y0 - x0 + HALF) % 1 - HALF]
    for _, y in items[1:]:
        lifts.append(lifts[-1] + s * _wrap1(s * (y - lifts[-1])))
    if s * (lifts[-1] - lifts[0]) >= 1:
        kept = "kept" if s == 1 else "kept or reversed"
        raise OrderViolation(f"cyclic order of targets is not {kept}", witness=items)
    k = next((x - v for (x, y), v in zip(items, lifts) if x == y), 0)
    return _circle_through([(x, v + k) for (x, _), v in zip(items, lifts)], s)


def _circle_through(pts: list, orientation: int) -> PLCircleHomeo:
    """The PL circle map through (x, L(x)) anchors sorted in [0, 1), and
    through 0 on the wrap segment.  When the lift increases and the first
    and last anchors are fixed, that segment is the identity and L(0) = 0
    is not interpolated."""
    if pts[0][0].numerator:
        (x0, y0), (x1, y1) = pts[-1], pts[0]
        if orientation == 1 and _same(x0, y0) and _same(x1, y1):
            lift0 = ZERO
        else:
            # L(0) = y1 - x1 * (y1 - y0 + s) / (x1 - x0 + 1), on the ends'
            # numerators and denominators
            p0, q0, r0, s0 = x0.numerator, x0.denominator, y0.numerator, y0.denominator
            p1, q1, r1, s1 = x1.numerator, x1.denominator, y1.numerator, y1.denominator
            rise = r1 * s0 - r0 * s1 + orientation * s0 * s1
            run = p1 * q0 - p0 * q1 + q0 * q1
            lift0 = Fraction(r1 * s0 * run - p1 * q0 * rise, s0 * s1 * run)
        pts = [(ZERO, lift0)] + pts
    return PLCircleHomeo(pts, orientation)


# ---------------------------------------------------------------------------
# Homogeneity toolkit: small-support transporters
# ---------------------------------------------------------------------------

def small_ball_transporter(factor: FactorSpace, center, target, delta) -> FactorHomeo:
    """h(center) = target with supp(h) inside the delta-ball around center
    and sup-displacement below delta.  A factor of no exact kind raises
    UnsupportedOperation; then a point not of its exact kind, or a delta
    that is not an int or a Fraction, raises PreconditionError.

    On the circle, with c and t the center and the target mod 1 at distance
    d, h is the bump fixing c -+ r, r = (d + min(delta, 1/2))/2, and sending
    c to t: the map through (c - r, c - r), (c, t) and (c + r, c + r), each
    anchor turned into [0, 1) and t lifted the short way from c, so L(x) = x
    off the support.  The half turn, d = 1/2, is the rotation by 1/2."""
    if not factor.exact:
        raise UnsupportedOperation(f"no transporter for kind {factor.kind}")
    _check_points(factor, (center, target))
    if type(delta) not in (int, Fraction):
        raise PreconditionError(f"delta {delta!r} is not exact: an int or a Fraction is needed")
    if isinstance(factor, (CircleSpace, LineSpace)):
        return _pl_transporter(factor, center, target, delta)
    d = factor.metric(center, target)
    delta = Fraction(delta)
    if d >= delta:
        raise PreconditionError(f"target at distance {d} is outside the {delta}-ball")
    if d == 0:
        return identity_for(factor)
    if isinstance(factor, (CantorSpace, BaireSpace)):
        # the two-point swap realizer moves only the cylinder around their
        # first difference, which sits inside the open ball
        return _realize_seq(factor, {center: target, target: center})
    raise UnsupportedOperation(f"no transporter for kind {factor.kind}")


def _pl_transporter(factor, center, target, delta) -> FactorHomeo:
    """`small_ball_transporter` on the circle and the line, on integers.

    Every value is an integer over one denominator Q, four times the lcm of
    the three given denominators: the center C, the target T, delta and
    the distance are then multiples of 4, so the radius r is an integer
    too.  One Fraction is built per stored value.  On the line, r is
    (gap + delta)/2 for a gap below delta; a larger gap means delta > 1, as
    the metric caps at 1, so the ball is the whole line and r = gap + 1
    fits.  The line map is padded by one on each side, as `_realize_line`
    pads its bumps."""
    q = 4 * lcm(center.denominator, target.denominator, delta.denominator)
    c = center.numerator * (q // center.denominator)
    t = target.numerator * (q // target.denominator)
    room = delta.numerator * (q // delta.denominator)
    circle = isinstance(factor, CircleSpace)
    if circle:
        c, t = c % q, t % q
        gap = (c - t) % q
        dist = min(gap, q - gap)
    else:
        gap = abs(t - c)
        dist = min(gap, q)
    if dist >= room:
        raise PreconditionError(f"target at distance {Fraction(dist, q)} is outside the "
                                f"{Fraction(delta)}-ball")
    if dist == 0:
        return identity_for(factor)

    def anchor(x, y):
        fx = Fraction(x, q)
        return (fx, fx) if x == y else (fx, Fraction(y, q))

    if not circle:
        r = (gap + room) // 2 if gap < room else gap + q
        lo, hi = c - r, c + r
        return PLLineHomeo(tuple(anchor(x, y) for x, y in (
            (lo - q, lo - q), (lo, lo), (c, t), (hi, hi), (hi + q, hi + q))))
    if 2 * dist == q:
        # the anchors center -+ r would coincide; as d < delta, the ball is
        # the whole circle, and the rotation by 1/2 stays inside it
        return PLCircleHomeo(((ZERO, HALF),))
    r = (dist + min(room, q // 2)) // 2
    lo, hi = c - r, c + r
    # t = c + e with |e| <= d < r, so t past hi or below lo is a turn off
    if lo < 0:
        pts = [(c, t - q if t > hi else t), (hi, hi), (lo + q, lo + q)]
    elif hi >= q:
        pts = [(hi - q, hi - q), (lo, lo), (c, t + q if t < lo else t)]
    else:
        pts = [(lo, lo), (c, t), (hi, hi)]
    return _circle_through([anchor(x, y) for x, y in pts], 1)
