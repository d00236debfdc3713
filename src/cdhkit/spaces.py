"""Factor spaces, product spaces and product points.

Factor kinds and their standardized admissible complete metrics (diameter
at most 1, except the disc's):

  cantor   bit sequences,        d(x,y) = 2^-min{i : x_i != y_i}
  baire    integer sequences,    same formula
  circle   R/Z,                  d(x,y) = min(|x-y|, 1-|x-y|)
  line     R,                    d(x,y) = min(|x-y|, 1)
  disc(m)  closed unit ball of R^m, Euclidean (diameter 2)

Exact kinds (cantor, baire, circle, line) never touch floats: their points
are eventually-constant symbol sequences or rationals, their metric values
are Fractions.  Disc points are float tuples compared with a tolerance.
Exact points are canonical (a SymSeq strips trailing tail symbols, a circle
point lies in [0, 1)), so `==` and `hash` decide point equality and a value
is its own key.  `FactorSpace.points_equal` is for float values, which need
a tolerance, and for raw values, such as a circle value outside [0, 1).

Every certified product bound is stated in d* = sum_a 2^-a d_a, which
`ProductSpace.metric` returns exactly on finite products of exact factors.

A product point is a root or one product stage applied to a parent point.
A root sits at every factor's base point, or at every factor's k-th marker
point, outside finitely many overrides.  A point holds its overrides, the
coordinates its stages moved and the base or marker values read so far.
Applying a stage evaluates it at once, exactly at its moved indices and
once at each, even where nothing reads the value later, so reads call no
stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt
from operator import add, xor
from typing import Callable, Iterable, Optional, Sequence

from .errors import IndexRange, PreconditionError, SpaceMismatch, UnsupportedOperation
from .rationals import ONE, ZERO, format_scalar, parse_scalar, pow2

FLOAT_TOLERANCE = 1e-9
_LINE_LEVEL_CAP = 1 << 16  # the deepest level of a line basic open


# ---------------------------------------------------------------------------
# Eventually-constant symbol sequences (points of cantor/baire factors)
# ---------------------------------------------------------------------------

class SymSeq:
    """An infinite symbol sequence equal to `tail` from position len(prefix) on.

    Canonical form strips trailing prefix symbols equal to the tail, so two
    SymSeq are equal as sequences iff their fields are equal.

    The ops read whole prefixes, not one symbol at a time: `take(n)` is the
    first n symbols, the prefix cut or padded with the tail, and () when
    n <= 0; `first_diff` is the first position where two sequences differ,
    None when they are equal; `seq_zip(a, b, op)` applies `op` position by
    position, to both prefixes padded to the longer one and to the tails.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: Sequence[int] = (), tail: int = 0):
        prefix = tuple(prefix)
        k = len(prefix)
        while k > 0 and prefix[k - 1] == tail:
            k -= 1
        self.prefix = prefix[:k]
        self.tail = tail

    def at(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.tail

    @property
    def stab(self) -> int:
        """Position from which the sequence is constant."""
        return len(self.prefix)

    def take(self, n: int) -> tuple:
        return _pad(self, n)[:n] if n > 0 else ()  # a slice end below 0 drops symbols

    def drop(self, n: int) -> "SymSeq":
        return SymSeq(self.prefix[n:], self.tail)

    def __eq__(self, other):
        return (
            isinstance(other, SymSeq)
            and self.prefix == other.prefix
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.prefix, self.tail))

    def __repr__(self):
        body = "".join(str(s) if type(s) is int and 0 <= s <= 9 else f"({s!r})"
                       for s in self.prefix)
        return f"SymSeq[{body}|{self.tail}...]"

    def first_diff(self, other: "SymSeq") -> Optional[int]:
        """First index where the sequences differ, None if equal."""
        n = max(len(self.prefix), len(other.prefix))
        a, b = _pad(self, n), _pad(other, n)
        if a != b:
            for i, (u, v) in enumerate(zip(a, b)):
                if u != v:
                    return i
        return n if self.tail != other.tail else None


def _pad(x: SymSeq, n: int) -> tuple:
    """x's prefix padded with its tail to length n, if it is shorter."""
    return x.prefix + (x.tail,) * (n - len(x.prefix))


def seq_zip(a: SymSeq, b: SymSeq, op: Callable[[int, int], int]) -> SymSeq:
    n = max(len(a.prefix), len(b.prefix))
    return SymSeq(tuple(map(op, _pad(a, n), _pad(b, n))), op(a.tail, b.tail))


_INT = frozenset((int,))
_BITS = frozenset((0, 1))


def _are_symbols(prefix: tuple, tail, binary: bool) -> bool:
    """Whether the tail and each symbol of the prefix are sequence symbols:
    ints (a bool is not one), and 0 or 1 where `binary`; baire symbols and
    masks may be any int.  The types are tested first, so an unhashable
    value is refused."""
    return (type(tail) is int and _INT.issuperset(map(type, prefix))
            and (not binary or (tail in _BITS and _BITS.issuperset(prefix))))


def _load_symseq(obj, binary: bool) -> SymSeq:
    """The SymSeq a {"prefix", "tail"} object names.  A symbol that
    `_are_symbols` refuses raises ValueError."""
    prefix, tail = tuple(obj["prefix"]), obj["tail"]
    if not _are_symbols(prefix, tail, binary):
        bad = next(v for v in (*prefix, tail) if not _are_symbols((), v, binary))
        raise ValueError(f"{bad!r} is not a {'cantor' if binary else 'baire'} symbol")
    return SymSeq(prefix, tail)


def bin_tuple(n: int) -> tuple:
    """Bijection from naturals to finite bit tuples (0 -> ())."""
    bits = []
    k = n + 1
    while k > 1:
        bits.append(k & 1)
        k >>= 1
    return tuple(reversed(bits))


def _unpair(z: int) -> tuple[int, int]:
    # inverse Cantor pairing: w is the largest with w(w+1)/2 <= z
    w = (isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    y = z - t
    x = w - y
    return x, y


def nat_tuple(n: int) -> tuple:
    """Bijection from naturals to finite tuples of naturals (0 -> ())."""
    out = []
    while n > 0:
        head, n = _unpair(n - 1)
        out.append(head)
    return tuple(out)


# ---------------------------------------------------------------------------
# Basic opens (pi-base elements)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderOpen:
    """All sequences extending `prefix`."""

    prefix: tuple

    def contains(self, p: SymSeq) -> bool:
        return p.take(len(self.prefix)) == self.prefix


@dataclass(frozen=True)
class IntervalOpen:
    """Open rational interval; on the circle, an arc taken mod 1."""

    lo: Fraction
    hi: Fraction
    wrap: bool = False

    def contains(self, x: Fraction) -> bool:
        if not self.wrap:
            return self.lo < x < self.hi
        width = self.hi - self.lo
        rel = (x - self.lo) % 1
        return 0 < rel < width


# ---------------------------------------------------------------------------
# Factor spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupOps:
    identity: object
    op: Callable
    inv: Callable


class FactorSpace:
    """Interface of a factor kind; instances are value objects.  Exact
    points are canonical, so `==` is point equality; `points_equal` also
    takes raw values, such as a circle value outside [0, 1)."""

    kind: str = "?"
    exact: bool = True
    group: Optional[GroupOps] = None

    def descriptor(self) -> dict:
        return {"kind": self.kind}

    def __eq__(self, other):
        return isinstance(other, FactorSpace) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(tuple(sorted(self.descriptor().items())))

    def __repr__(self):
        return f"<factor {self.kind}>"

    # -- points ------------------------------------------------------------
    def base_point(self):
        raise NotImplementedError

    def points_equal(self, x, y) -> bool:
        return x == y

    def is_point(self, x) -> bool:
        """Whether x is a value this kind stores as a point: a SymSeq of
        symbols `_are_symbols` accepts on the sequence kinds; an int or a
        Fraction (a bool or a float is not one) on the circle and the line,
        a circle value in [0, 1) or not; a tuple of `dim` floats on a disc."""
        raise NotImplementedError

    def metric(self, x, y):
        raise NotImplementedError

    def ser_point(self, x):
        raise NotImplementedError

    def de_point(self, obj):
        raise NotImplementedError

    # -- pi-base -----------------------------------------------------------
    def basic_open(self, n: int):
        raise UnsupportedOperation(f"{self.kind} has no enumerated pi-base")

    def pick_in(self, box, salt: int):
        """Deterministic point of `box`; distinct salts give distinct points."""
        raise UnsupportedOperation(f"{self.kind} has no point picker")

    def marker(self, k: int):
        """The k-th marker point; distinct k give distinct points."""
        raise UnsupportedOperation(f"no marker points for kind {self.kind}")


_NUMBERS = frozenset((Fraction, int))


_MARKER_MEMO = 256  # sequence markers a factor keeps, k < _MARKER_MEMO


class _SeqSpace(FactorSpace):
    """Shared machinery of the sequence kinds."""

    binary = False  # whether the symbols are 0 and 1

    def __init__(self):
        self._markers: dict = {}

    def base_point(self):
        return SymSeq((), 0)

    def is_point(self, x) -> bool:
        return type(x) is SymSeq and _are_symbols(x.prefix, x.tail, self.binary)

    def metric(self, x: SymSeq, y: SymSeq) -> Fraction:
        j = x.first_diff(y)
        return ZERO if j is None else pow2(-j)

    def ser_point(self, x: SymSeq):
        return {"prefix": list(x.prefix), "tail": x.tail}

    def de_point(self, obj):
        return _load_symseq(obj, self.binary)

    def pick_in(self, box: CylinderOpen, salt: int) -> SymSeq:
        # trailing non-tail symbol keeps distinct salts canonically distinct
        return SymSeq(box.prefix + self._salt_tuple(salt), 0)

    def marker(self, k: int) -> SymSeq:
        """Built once for each k < _MARKER_MEMO and then shared: a SymSeq is
        not changed once built, and every coordinate of a marker root reads
        the same marker."""
        v = self._markers.get(k)
        if v is None:
            v = SymSeq(self._salt_tuple(k), 0)
            if k < _MARKER_MEMO:
                self._markers[k] = v
        return v

    def _salt_tuple(self, salt: int) -> tuple:
        raise NotImplementedError


class CantorSpace(_SeqSpace):
    kind = "cantor"
    binary = True
    group = GroupOps(
        identity=SymSeq((), 0),
        op=lambda a, b: seq_zip(a, b, xor),
        inv=lambda a: a,
    )

    def basic_open(self, n: int) -> CylinderOpen:
        return CylinderOpen(bin_tuple(n))

    def _salt_tuple(self, salt: int) -> tuple:
        return bin_tuple(salt) + (1,)


class BaireSpace(_SeqSpace):
    kind = "baire"
    group = GroupOps(
        identity=SymSeq((), 0),
        op=lambda a, b: seq_zip(a, b, add),
        inv=lambda a: seq_zip(SymSeq((), 0), a, lambda _, v: -v),
    )

    def basic_open(self, n: int) -> CylinderOpen:
        return CylinderOpen(nat_tuple(n))

    def _salt_tuple(self, salt: int) -> tuple:
        return (salt + 1,)


def _wrap1(x: Fraction) -> Fraction:
    """The representative of x mod 1 in [0, 1); x itself if it is one."""
    n, d = x.numerator, x.denominator
    return x if 0 <= n < d else Fraction(n % d, d)


def _circle_op(a: Fraction, b: Fraction) -> Fraction:
    """a + b mod 1, read off the numerators and denominators."""
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    d = q * s
    return Fraction((p * s + r * q) % d, d)


def _circle_inv(a: Fraction) -> Fraction:
    """-a mod 1."""
    d = a.denominator
    return Fraction(-a.numerator % d, d)


def _circle_gap(x: Fraction, y: Fraction) -> tuple:
    """x - y mod 1 as an unreduced pair (n, d), 0 <= n < d."""
    d = x.denominator * y.denominator
    return (x.numerator * y.denominator - y.numerator * x.denominator) % d, d


def _is_number(x) -> bool:
    return type(x) in _NUMBERS


class CircleSpace(FactorSpace):
    kind = "circle"
    is_point = staticmethod(_is_number)
    group = GroupOps(
        identity=Fraction(0),
        op=_circle_op,
        inv=_circle_inv,
    )

    def base_point(self):
        return Fraction(0)

    def metric(self, x: Fraction, y: Fraction) -> Fraction:
        n, d = _circle_gap(x, y)
        return Fraction(min(n, d - n), d)

    def points_equal(self, x, y):
        return _circle_gap(x, y)[0] == 0

    def ser_point(self, x):
        return format_scalar(x)

    def de_point(self, obj):
        return _wrap1(parse_scalar(obj))

    def basic_open(self, n: int) -> IntervalOpen:
        # dyadic arcs (k/2^j, (k+2)/2^j) mod 1, enumerated level by level
        j = 1
        while n >= (1 << j):
            n -= 1 << j
            j += 1
        lo = Fraction(n, 1 << j)
        return IntervalOpen(lo, lo + pow2(-j + 1), wrap=True)

    def pick_in(self, box: IntervalOpen, salt: int) -> Fraction:
        return _interval_pick(box, salt, True)

    def marker(self, k: int) -> Fraction:
        return _dyadic(k)


class LineSpace(FactorSpace):
    kind = "line"
    is_point = staticmethod(_is_number)
    group = GroupOps(identity=Fraction(0), op=lambda a, b: a + b, inv=lambda a: -a)

    def base_point(self):
        return Fraction(0)

    def metric(self, x: Fraction, y: Fraction) -> Fraction:
        return min(abs(x - y), ONE)

    def ser_point(self, x):
        return format_scalar(x)

    def de_point(self, obj):
        return parse_scalar(obj)

    def basic_open(self, n: int) -> IntervalOpen:
        """Interval n, at level j and position r where (j, r) unpairs n.  A
        level above _LINE_LEVEL_CAP = 2^16 raises PreconditionError."""
        j, r = _unpair(n)
        if j > _LINE_LEVEL_CAP:
            raise PreconditionError(f"line interval level {j} exceeds {_LINE_LEVEL_CAP}")
        k = (r + 1) // 2 if r % 2 else -(r // 2)
        lo = Fraction(k - 1, 1 << j)
        return IntervalOpen(lo, lo + pow2(-j + 1))

    def pick_in(self, box: IntervalOpen, salt: int) -> Fraction:
        return _interval_pick(box, salt, False)

    def marker(self, k: int) -> Fraction:
        return _dyadic(k)


def _dyadic(n: int) -> Fraction:
    """Enumerates the dyadic rationals of (0,1) level by level, for n >= 0:
    1/2, 1/4, 3/4, 1/8, ...  Level L holds the 2^(L-1) values (2j + 1)/2^L,
    j < 2^(L-1), at n = 2^(L-1) - 1 + j, so in closed form L is the bit
    length of n + 1 and the value is (2n + 3 - 2^L)/2^L (`_dyadic_pair`)."""
    m, L = _dyadic_pair(n)
    return Fraction(m, 1 << L)


def _dyadic_pair(n: int) -> tuple:
    """(m, L) with _dyadic(n) = m/2^L, m odd."""
    L = (n + 1).bit_length()
    return 2 * n + 3 - (1 << L), L


def _interval_pick(box: IntervalOpen, salt: int, wrap: bool) -> Fraction:
    """lo + (hi - lo) _dyadic(salt) for box = (lo, hi), taken in [0, 1)
    where `wrap`, as one Fraction: with lo = a/b, hi = c/d and
    _dyadic(salt) = m/2^L, (a d 2^L + (c b - a d) m) / (b d 2^L)."""
    a, b, c, d = box.lo.numerator, box.lo.denominator, box.hi.numerator, box.hi.denominator
    m, L = _dyadic_pair(salt)
    num, den = (a * d << L) + (c * b - a * d) * m, b * d << L
    return Fraction(num % den if wrap else num, den)


class DiscSpace(FactorSpace):
    """Closed unit ball of R^m, whose Euclidean metric has diameter 2.
    A dimension that is not an int (a bool is not one) raises TypeError,
    and one below 1 ValueError."""

    kind = "disc"
    exact = False

    def __init__(self, dim: int):
        if type(dim) is not int:
            raise TypeError(f"disc dimension {dim!r} is not an int")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim

    def descriptor(self):
        return {"kind": self.kind, "dim": self.dim}

    def base_point(self):
        return (0.0,) * self.dim

    def is_point(self, x) -> bool:
        return type(x) is tuple and len(x) == self.dim and all(type(c) is float for c in x)

    def metric(self, x, y) -> float:
        return sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))

    def points_equal(self, x, y):
        return self.metric(x, y) <= FLOAT_TOLERANCE

    def ser_point(self, x):
        return [float(c) for c in x]

    def de_point(self, obj):
        x = tuple(float(c) for c in obj)
        if len(x) != self.dim:
            raise ValueError(f"a disc({self.dim}) point has {self.dim} coordinates, not {len(x)}")
        return x


CANTOR = CantorSpace()
BAIRE = BaireSpace()
CIRCLE = CircleSpace()
LINE = LineSpace()

_FACTOR_KINDS = {"cantor": CANTOR, "baire": BAIRE, "circle": CIRCLE, "line": LINE}


def _check_points(factor: FactorSpace, points: Iterable, index: Optional[int] = None):
    """Refuse, with PreconditionError, a point that `factor.is_point`
    refuses; the message names the product index, if one is given."""
    for p in points:
        if not factor.is_point(p):
            where = "" if index is None else f" at index {index}"
            raise PreconditionError(f"{type(p).__name__} {p!r}{where} on the "
                                    f"{'exact ' if factor.exact else ''}{factor.kind} "
                                    f"factor is not one of its points")


def _check_space(points, space) -> None:
    """Raise SpaceMismatch unless every point lives in `space`."""
    for i, p in enumerate(points):
        if p.space is not space and p.space != space:
            raise SpaceMismatch(f"point {i} lives in another product")


def factor_from_descriptor(desc: dict) -> FactorSpace:
    """The factor a descriptor names.  A kind that names none raises
    UnsupportedOperation, and a descriptor that cannot be read raises
    PreconditionError with the cause chained."""
    try:
        kind = desc["kind"]
        if kind in _FACTOR_KINDS:
            return _FACTOR_KINDS[kind]
        if kind == "disc":
            if "dim" not in desc:
                raise PreconditionError("a disc descriptor needs its 'dim'")
            return DiscSpace(desc["dim"])
    except (KeyError, TypeError, ValueError) as e:
        raise PreconditionError(f"malformed factor descriptor: {e!r}") from e
    raise UnsupportedOperation(f"unknown factor kind {kind!r}")


# ---------------------------------------------------------------------------
# Product spaces
# ---------------------------------------------------------------------------

class ProductSpace:
    """A finite or countable product with the weighted-sum metric

        d*(x, y) = sum_a 2^-a d_a(x(a), y(a)).

    Its working depth is the length of `indices()`, the index range that
    every exhaustive check runs over; `factor` alone decides which indices
    are in the product.
    """

    def __init__(self, factors: Sequence[FactorSpace] | Callable[[int], FactorSpace],
                 working_depth: Optional[int] = None):
        """A factor list gives a finite product, whose working depth is its
        count; a function of the index a countable one, which needs a
        working depth.  A missing or an extra depth raises ValueError, a
        depth that is not an int (a bool is not one) TypeError, and one
        below 1 ValueError."""
        if callable(factors):
            self._factor_fn, self.count = factors, None
        else:
            factors = tuple(factors)
            self._factor_fn, self.count = (lambda a: factors[a]), len(factors)
        if (working_depth is None) == (self.count is None):
            raise ValueError("a countable product needs a working depth, a finite one takes none")
        if working_depth is None:
            working_depth = self.count
        elif type(working_depth) is not int:
            raise TypeError(f"working depth {working_depth!r} is not an int")
        elif working_depth < 1:
            raise ValueError(f"working depth {working_depth} is below 1")
        self.working_depth = working_depth

    @classmethod
    def uniform(cls, factor: FactorSpace, count: Optional[int] = None,
                working_depth: Optional[int] = None) -> "ProductSpace":
        return cls((lambda a: factor) if count is None else [factor] * count,
                   working_depth=working_depth)

    def __eq__(self, other):
        if not isinstance(other, ProductSpace):
            return NotImplemented
        return self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash((self.count, self.working_depth))

    def factor(self, alpha: int) -> FactorSpace:
        """The factor at index alpha.  An alpha that is not an int of the
        product (a bool is not one) raises IndexRange."""
        if (type(alpha) is not int or alpha < 0
                or (self.count is not None and alpha >= self.count)):
            raise IndexRange(f"index {alpha!r} outside product of {self.count} factors")
        return self._factor_fn(alpha)

    def indices(self) -> range:
        """The first `working_depth` indices: all of a finite product's."""
        return range(self.working_depth)

    def point(self, overrides: Optional[dict] = None) -> "ProductPoint":
        """A root at the base point outside `overrides`; an int or Fraction
        on a circle factor is stored as its representative in [0, 1).  An
        index that is not an int of the product (a bool is not one) raises
        IndexRange, and an override that its factor's `is_point` refuses
        raises PreconditionError."""
        over = dict(overrides or {})
        for a, v in over.items():
            f = self.factor(a)
            if not f.is_point(v):
                _check_points(f, (v,), a)
            if isinstance(f, CircleSpace) and v.numerator // v.denominator:
                over[a] = _wrap1(v)
        return ProductPoint(self, None, over)

    # -- metric ------------------------------------------------------------
    def metric(self, x: "ProductPoint", y: "ProductPoint") -> Fraction:
        """Exact d*(x, y), summed over every index of a finite product of
        exact factors; a countable or float product raises
        UnsupportedOperation, and a point of another product SpaceMismatch."""
        if self.count is None or not all(self.factor(a).exact for a in self.indices()):
            raise UnsupportedOperation("the product metric needs finitely many exact factors")
        _check_space((x, y), self)
        return sum((pow2(-a) * self.factor(a).metric(x.coord(a), y.coord(a))
                    for a in self.indices()), ZERO)

    def descriptor(self) -> dict:
        return {
            "count": self.count,
            "working_depth": self.working_depth,
            "factors": [self.factor(a).descriptor() for a in self.indices()],
        }


# ---------------------------------------------------------------------------
# Product stages and points
# ---------------------------------------------------------------------------

class ProductStage:
    """An invertible map of the product, evaluated coordinate-wise.

    `get` is a callable alpha -> factor point giving the input point's
    coordinates; a stage may consult several of them (not just alpha).

    `moved_indices`, a finite frozenset that every stage sets, holds each
    index that the stage or its inverse may move.  `image_coord` and
    `preimage_coord` are defined only at its indices, and
    `ProductPoint.apply_stage` calls `image_coord` exactly at its
    `moved_indices`, once each.

    A stage that can ride a convergence certificate also certifies its
    d*-displacement and a Lipschitz bound of its inverse; the others raise
    UnsupportedOperation there.
    """

    moved_indices: frozenset

    def image_coord(self, get: Callable[[int], object], alpha: int):
        """Coordinate alpha of the image; canonical where `get` gives canonical points."""
        raise NotImplementedError

    def preimage_coord(self, get: Callable[[int], object], alpha: int):
        raise NotImplementedError

    def inverse(self) -> "ProductStage":
        return _InverseStage(self)

    def apply(self, point: "ProductPoint") -> "ProductPoint":
        return point.apply_stage(self)

    def sup_displacement(self) -> Fraction:
        """Certified sup_x d*(h(x), x)."""
        raise UnsupportedOperation(f"{type(self).__name__} certifies no displacement bound")

    def lip_backward_bound(self) -> Fraction:
        """Certified Lipschitz bound of the inverse in d*."""
        raise UnsupportedOperation(f"{type(self).__name__} certifies no Lipschitz bound")

    def descriptor(self) -> dict:
        return {"stage": type(self).__name__}


class _InverseStage(ProductStage):
    def __init__(self, stage: ProductStage):
        self.stage = stage
        self.moved_indices = stage.moved_indices

    def image_coord(self, get, alpha):
        return self.stage.preimage_coord(get, alpha)

    def preimage_coord(self, get, alpha):
        return self.stage.image_coord(get, alpha)

    def inverse(self):
        return self.stage

    def descriptor(self):
        return {"stage": "inverse", "of": self.stage.descriptor()}


class CoordwiseStage(ProductStage):
    """Applies one factor homeomorphism at each index it maps.  A key that
    is not an int >= 0 (a bool is not one) raises PreconditionError."""

    def __init__(self, maps: dict):
        self.maps = dict(maps)
        bad = [a for a in self.maps if type(a) is not int or a < 0]
        if bad:
            raise PreconditionError(f"coordinatewise indices {bad!r} are not ints >= 0")
        self.moved_indices = frozenset(self.maps)

    def image_coord(self, get, alpha):
        return self.maps[alpha].apply(get(alpha))

    def preimage_coord(self, get, alpha):
        return self.maps[alpha].invert().apply(get(alpha))

    def descriptor(self):
        return {
            "stage": "coordwise",
            "indices": sorted(self.maps),
        }


def _index_key(key) -> int:
    """The index that an override key of `ProductPoint.ser()` names; any
    other key raises ValueError."""
    if type(key) is str and key.isascii() and key.isdigit() and str(int(key)) == key:
        return int(key)
    raise ValueError(f"override key {key!r} is not an index as ser() writes it")


class ProductPoint:
    """A root or the image of a point under one product stage.  A root with
    `marker` None sits at every factor's base point outside its overrides,
    one with `marker` k at every factor's k-th marker point; staged points
    keep their root's marker and overrides and count their stages.

    A point holds its coordinates in a dict.  `apply_stage` copies the
    parent's and evaluates the stage once at each of its `moved_indices`,
    even one that nothing reads later; any other coordinate is the root's
    base or marker value, which `coord` builds on first read and keeps.
    Reads call no stage, and points are immutable in value.
    """

    __slots__ = ("space", "marker", "overrides", "stage_count", "_coords")

    def __init__(self, space: ProductSpace, marker: Optional[int], overrides: dict):
        """A root.  Keeps `overrides`, canonical, as it is:
        `ProductSpace.point` canonicalizes, a staged point shares its
        root's, and no point changes them."""
        self.space = space
        self.marker = marker
        self.overrides = overrides
        self.stage_count = 0
        self._coords = dict(overrides)

    def coord(self, alpha: int):
        """Coordinate alpha; exact for exact kinds.  An index that the point
        does not hold is its root's base or marker value: an index outside
        the product makes `ProductSpace.factor` raise IndexRange there.  The
        read tests no type first, so a non-int equal to a held index, such
        as 1.0 or True, reads that index."""
        try:
            return self._coords[alpha]
        except KeyError:
            f = self.space.factor(alpha)
            v = f.base_point() if self.marker is None else f.marker(self.marker)
            self._coords[alpha] = v
            return v

    def apply_stage(self, stage: ProductStage) -> "ProductPoint":
        """The image under `stage`, whose `image_coord` is called here,
        exactly once at each of its `moved_indices`; a stage that reads an
        index outside the product raises IndexRange here."""
        moved = {a: stage.image_coord(self.coord, a) for a in stage.moved_indices}
        p = object.__new__(ProductPoint)
        p.space, p.marker, p.overrides = self.space, self.marker, self.overrides
        p.stage_count = self.stage_count + 1
        p._coords = {**self._coords, **moved}
        return p

    def support(self) -> tuple:
        return tuple(sorted(self.overrides))

    def ser(self) -> dict:
        """Serializes base + overrides; a staged point records its coordinates
        on the evaluated range, a faithful copy when its stages act there."""
        over = self.overrides
        if self.stage_count:
            over = {a: self.coord(a) for a in self.space.indices()}
        return {
            "base": ({"kind": "default"} if self.marker is None
                     else {"kind": "marker", "index": self.marker}),
            "overrides": {
                str(a): self.space.factor(a).ser_point(v)
                for a, v in sorted(over.items())
            },
        }

    @staticmethod
    def de(space: ProductSpace, obj: dict) -> "ProductPoint":
        """Reads `ser()` output back; a document that cannot be read raises
        PreconditionError with the cause chained.  An override key must be
        an index as `ser()` writes it, a decimal numeral with no sign, no
        leading zero and nothing around it."""
        try:
            base = obj["base"]
            if base["kind"] == "default":
                marker = None
            elif base["kind"] == "marker":
                marker = base["index"]
                if type(marker) is not int or marker < 0:
                    raise ValueError(f"marker index {marker!r} is not a non-negative int")
            else:
                raise ValueError(f"unknown base kind {base['kind']!r}")
            overrides = {}
            for key, v in obj["overrides"].items():
                a = _index_key(key)
                overrides[a] = space.factor(a).de_point(v)
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise PreconditionError(f"malformed point: {e!r}") from e
        return ProductPoint(space, marker, overrides)

    def __repr__(self):
        return f"ProductPoint(support={self.support()}, stages={self.stage_count})"
