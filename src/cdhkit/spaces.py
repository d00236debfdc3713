"""Factor spaces, product spaces and lazily evaluated product points.

Factor kinds and their standardized admissible complete metrics (diameter
at most 1, except the disc, which is flagged):

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
is its own key; `FactorSpace.points_equal` stays for raw values from callers.

A product point is a root or one product stage applied to a parent point.
A root sits at every factor's base point, or at every factor's k-th marker
point, outside finitely many overrides.  Coordinates are evaluated on
demand and memoized per level (a root memoizes its base or marker
values), so evaluation is pure and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt
from typing import Callable, Optional, Sequence

from .errors import IndexRange, PreconditionError, SpaceMismatch, UnsupportedOperation
from .rationals import ZERO, format_scalar, parse_scalar, pow2

FLOAT_TOLERANCE = 1e-9
_LINE_LEVEL_CAP = 1 << 16  # the deepest level of a line basic open


# ---------------------------------------------------------------------------
# Eventually-constant symbol sequences (points of cantor/baire factors)
# ---------------------------------------------------------------------------

class SymSeq:
    """An infinite symbol sequence equal to `tail` from position len(prefix) on.

    Canonical form strips trailing prefix symbols equal to the tail, so two
    SymSeq are equal as sequences iff their fields are equal.
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
        return tuple(self.at(i) for i in range(n))

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
        body = "".join(str(s) if 0 <= s <= 9 else f"({s})" for s in self.prefix)
        return f"SymSeq[{body}|{self.tail}...]"

    def first_diff(self, other: "SymSeq") -> Optional[int]:
        """First index where the sequences differ, None if equal."""
        n = max(self.stab, other.stab)
        for i in range(n):
            if self.at(i) != other.at(i):
                return i
        if self.tail != other.tail:
            return n
        return None


def seq_zip(a: SymSeq, b: SymSeq, op: Callable[[int, int], int]) -> SymSeq:
    n = max(a.stab, b.stab)
    return SymSeq(tuple(op(a.at(i), b.at(i)) for i in range(n)), op(a.tail, b.tail))


def _load_symseq(obj, binary: bool) -> SymSeq:
    """The SymSeq a {"prefix", "tail"} object names.  A symbol that is not
    an int (a bool included), or not 0 or 1 where `binary`, raises
    ValueError; baire symbols and masks may be any int."""
    prefix, tail = tuple(obj["prefix"]), obj["tail"]
    for v in (*prefix, tail):
        if type(v) is not int or (binary and v >> 1):
            raise ValueError(f"{v!r} is not a {'cantor' if binary else 'baire'} symbol")
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
    diameter: Fraction = Fraction(1)
    group: Optional[GroupOps] = None
    tolerance: float = FLOAT_TOLERANCE

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


class _SeqSpace(FactorSpace):
    """Shared machinery of the sequence kinds."""

    def base_point(self):
        return SymSeq((), 0)

    def metric(self, x: SymSeq, y: SymSeq) -> Fraction:
        j = x.first_diff(y)
        return ZERO if j is None else pow2(-j)

    def ser_point(self, x: SymSeq):
        return {"prefix": list(x.prefix), "tail": x.tail}

    def de_point(self, obj):
        return _load_symseq(obj, self.kind == "cantor")

    def pick_in(self, box: CylinderOpen, salt: int) -> SymSeq:
        # trailing non-tail symbol keeps distinct salts canonically distinct
        return SymSeq(box.prefix + self._salt_tuple(salt), 0)

    def marker(self, k: int) -> SymSeq:
        return SymSeq(self._salt_tuple(k), 0)

    def _salt_tuple(self, salt: int) -> tuple:
        raise NotImplementedError


class CantorSpace(_SeqSpace):
    kind = "cantor"
    group = GroupOps(
        identity=SymSeq((), 0),
        op=lambda a, b: seq_zip(a, b, lambda u, v: u ^ v),
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
        op=lambda a, b: seq_zip(a, b, lambda u, v: u + v),
        inv=lambda a: seq_zip(SymSeq((), 0), a, lambda _, v: -v),
    )

    def basic_open(self, n: int) -> CylinderOpen:
        return CylinderOpen(nat_tuple(n))

    def _salt_tuple(self, salt: int) -> tuple:
        return (salt + 1,)


def _wrap1(x: Fraction) -> Fraction:
    """The representative of x mod 1 in [0, 1); x itself if it is one."""
    q = x.numerator // x.denominator
    return x - q if q else x


class CircleSpace(FactorSpace):
    kind = "circle"
    group = GroupOps(
        identity=Fraction(0),
        op=lambda a, b: _wrap1(a + b),
        inv=lambda a: _wrap1(-a),
    )

    def base_point(self):
        return Fraction(0)

    def metric(self, x: Fraction, y: Fraction) -> Fraction:
        f = _wrap1(x - y)
        return min(f, 1 - f)

    def points_equal(self, x, y):
        return _wrap1(x - y) == 0

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
        width = box.hi - box.lo
        return _wrap1(box.lo + width * _dyadic(salt))

    def marker(self, k: int) -> Fraction:
        return _dyadic(k)


class LineSpace(FactorSpace):
    kind = "line"
    group = GroupOps(identity=Fraction(0), op=lambda a, b: a + b, inv=lambda a: -a)

    def base_point(self):
        return Fraction(0)

    def metric(self, x: Fraction, y: Fraction) -> Fraction:
        return min(abs(x - y), Fraction(1))

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
        return box.lo + (box.hi - box.lo) * _dyadic(salt)

    def marker(self, k: int) -> Fraction:
        return _dyadic(k)


def _dyadic(n: int) -> Fraction:
    """Enumerates the dyadic rationals of (0,1): 1/2, 1/4, 3/4, 1/8, ..."""
    level = 1
    while n >= (1 << (level - 1)):
        n -= 1 << (level - 1)
        level += 1
    return Fraction(2 * n + 1, 1 << level)


class DiscSpace(FactorSpace):
    """Closed unit ball of R^m.  Diameter 2: the flagged metric exception."""

    kind = "disc"
    exact = False
    diameter = Fraction(2)

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim

    def descriptor(self):
        return {"kind": self.kind, "dim": self.dim}

    def base_point(self):
        return (0.0,) * self.dim

    def metric(self, x, y) -> float:
        return sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))

    def points_equal(self, x, y):
        return self.metric(x, y) <= self.tolerance

    def ser_point(self, x):
        return [float(c) for c in x]

    def de_point(self, obj):
        return tuple(float(c) for c in obj)


CANTOR = CantorSpace()
BAIRE = BaireSpace()
CIRCLE = CircleSpace()
LINE = LineSpace()

_FACTOR_KINDS = {"cantor": CANTOR, "baire": BAIRE, "circle": CIRCLE, "line": LINE}


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
            if type(desc["dim"]) is not int:
                raise TypeError(f"disc dimension {desc['dim']!r} is not an int")
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

    Countable products carry a working depth: the index range every
    exhaustive check runs over.
    """

    def __init__(self, factors: Sequence[FactorSpace] | Callable[[int], FactorSpace],
                 working_depth: Optional[int] = None):
        """A factor list gives a finite product, a function of the index a
        countable one, which needs a working depth."""
        if callable(factors):
            self._factor_fn, self.count = factors, None
        else:
            factors = tuple(factors)
            self._factor_fn, self.count = (lambda a: factors[a]), len(factors)
        self.working_depth = working_depth if working_depth is not None else self.count
        if self.working_depth is None:
            raise ValueError("countable products need a working depth")
        # bounds the diameter of every factor past the working depth
        self._tail_diameter = DiscSpace.diameter

    @classmethod
    def uniform(cls, factor: FactorSpace, count: Optional[int] = None,
                working_depth: Optional[int] = None) -> "ProductSpace":
        space = cls((lambda a: factor) if count is None else [factor] * count,
                    working_depth=working_depth)
        space._tail_diameter = factor.diameter
        return space

    def __eq__(self, other):
        if not isinstance(other, ProductSpace):
            return NotImplemented
        if self.count != other.count or self.working_depth != other.working_depth:
            return False
        return all(self.factor(a) == other.factor(a) for a in self.indices())

    def __hash__(self):
        return hash((self.count, self.working_depth))

    def factor(self, alpha: int) -> FactorSpace:
        if alpha < 0 or (self.count is not None and alpha >= self.count):
            raise IndexRange(f"index {alpha} outside product of {self.count} factors")
        return self._factor_fn(alpha)

    def indices(self, depth: Optional[int] = None) -> range:
        d = self.working_depth if depth is None else depth
        if self.count is not None:
            d = min(d, self.count)
        return range(d)

    def point(self, overrides: Optional[dict] = None) -> "ProductPoint":
        """A root at the base point outside `overrides`; an int or Fraction
        on a circle factor is stored as its representative in [0, 1).  An
        index outside the product raises IndexRange, and a float on an exact
        factor raises PreconditionError."""
        over = dict(overrides or {})
        if over:
            lo, hi = min(over), max(over)
            if lo < 0 or (self.count is not None and hi >= self.count):
                raise IndexRange(f"index {lo if lo < 0 else hi} outside product of "
                                 f"{self.count} factors")
        for a, v in over.items():
            # exact type tests: isinstance against the Fraction ABC is slow
            t = type(v)
            if t is Fraction or t is int:
                if v.numerator // v.denominator and isinstance(self.factor(a), CircleSpace):
                    over[a] = _wrap1(v)
            elif t is float and self.factor(a).exact:
                raise PreconditionError(f"float {v!r} at index {a} on the exact "
                                        f"{self.factor(a).kind} factor")
        return ProductPoint(self, None, over)

    # -- metric ------------------------------------------------------------
    def distance(self, x: "ProductPoint", y: "ProductPoint", depth: Optional[int] = None
                 ) -> tuple[Fraction, Fraction]:
        """Certified interval [lower, upper] containing d*(x, y).

        The truncation tail past index M contributes at most
        sum_{a>=M} 2^-a diam_a, which is 2^-(M-1) for diameter-1 factors.
        A countable product bounds diam_a by the largest diameter any factor
        kind declares, or by the factor's own when built by `uniform`.  A
        float metric value is widened by the factor's tolerance (lower end >= 0).
        """
        if x.space is not self and x.space != self:
            raise SpaceMismatch("x lives in a different product")
        if y.space is not self and y.space != self:
            raise SpaceMismatch("y lives in a different product")
        idx = self.indices(depth)
        lo = hi = ZERO
        for a in idx:
            f = self.factor(a)
            d = Fraction(f.metric(x.coord(a), y.coord(a)))  # exact value of a float estimate
            tol = ZERO if f.exact else Fraction(f.tolerance)
            lo += pow2(-a) * max(ZERO, d - tol)
            hi += pow2(-a) * (d + tol)
        tail = ZERO
        m = len(idx)
        if self.count is not None:
            for a in range(m, self.count):
                tail += pow2(-a) * self.factor(a).diameter
        else:
            tail = pow2(-(m - 1)) * self._tail_diameter
        return lo, hi + tail

    def metric_exact(self, x: "ProductPoint", y: "ProductPoint") -> Fraction:
        """Exact d* for finite products of exact factors."""
        if self.count is None or not all(self.factor(a).exact for a in range(self.count)):
            raise UnsupportedOperation("exact product metric needs finitely many exact factors")
        lo, hi = self.distance(x, y, depth=self.count)
        return lo

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
    """An invertible map of the product, evaluated coordinate-wise on demand.

    `get` is a callable alpha -> factor point giving the input point's
    coordinates; a stage may consult several of them (not just alpha).

    A stage that can ride a convergence certificate also certifies its
    d*-displacement and a Lipschitz bound of its inverse; the others raise
    UnsupportedOperation there.
    """

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

    def image_coord(self, get, alpha):
        return self.stage.preimage_coord(get, alpha)

    def preimage_coord(self, get, alpha):
        return self.stage.image_coord(get, alpha)

    def inverse(self):
        return self.stage

    def descriptor(self):
        return {"stage": "inverse", "of": self.stage.descriptor()}


class CoordwiseStage(ProductStage):
    """Applies one factor homeomorphism per listed index, identity elsewhere."""

    def __init__(self, maps: dict):
        self.maps = dict(maps)

    def image_coord(self, get, alpha):
        h = self.maps.get(alpha)
        x = get(alpha)
        return h.apply(x) if h is not None else x

    def inverse(self) -> "CoordwiseStage":
        return CoordwiseStage({a: h.invert() for a, h in self.maps.items()})

    def descriptor(self):
        return {
            "stage": "coordwise",
            "indices": sorted(self.maps),
        }


class ProductPoint:
    """A root (a base plus finitely many overrides) or one stage applied to
    a parent.  A root with `marker` None sits at every factor's base point
    outside its overrides, one with `marker` k at every factor's k-th marker
    point; staged points keep their root's marker and overrides.

    Immutable; coordinate evaluation is memoized and pure, so concurrent
    reads are safe and evaluation order never matters.
    """

    __slots__ = ("space", "marker", "overrides", "parent", "stage", "_cache")

    def __init__(self, space: ProductSpace, marker: Optional[int], overrides: dict):
        """Takes canonical overrides as they are; `ProductSpace.point` canonicalizes."""
        self.space = space
        self.marker = marker
        self.overrides = dict(overrides)
        self.parent: Optional[ProductPoint] = None
        self.stage: Optional[ProductStage] = None
        self._cache: dict = {}

    def coord(self, alpha: int):
        """Coordinate of the staged image; exact for exact kinds.  Evaluates
        down from the nearest ancestor holding alpha, whose staged ancestors
        hold it too, so reads nest per distinct coordinate, not per stage.
        A root reads its overrides first and memoizes its base or marker
        fallbacks, so each is built once per root."""
        if alpha < 0 or (self.space.count is not None and alpha >= self.space.count):
            raise IndexRange(f"index {alpha} outside the product")
        if self.stage is None:
            if alpha in self.overrides:
                return self.overrides[alpha]
            v = self._cache.get(alpha)
            if v is None:
                f = self.space.factor(alpha)
                v = f.base_point() if self.marker is None else f.marker(self.marker)
                self._cache[alpha] = v
            return v
        pending = []
        p = self
        while p.stage is not None and alpha not in p._cache:
            pending.append(p)
            p = p.parent
        for q in reversed(pending):
            q._cache[alpha] = q.stage.image_coord(q.parent.coord, alpha)
        return self._cache[alpha]

    def apply_stage(self, stage: ProductStage) -> "ProductPoint":
        p = ProductPoint(self.space, self.marker, self.overrides)
        p.parent = self
        p.stage = stage
        return p

    def support(self) -> tuple:
        return tuple(sorted(self.overrides))

    def ser(self) -> dict:
        """Serializes base + overrides; a staged point records its coordinates
        on the evaluated range, a faithful copy when its stages act there."""
        over = self.overrides
        if self.stage is not None:
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
        PreconditionError with the cause chained."""
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
            overrides = {
                int(a): space.factor(int(a)).de_point(v) for a, v in obj["overrides"].items()
            }
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise PreconditionError(f"malformed point: {e!r}") from e
        return ProductPoint(space, marker, overrides)

    def __repr__(self):
        stages, p = 0, self
        while p.stage is not None:
            stages, p = stages + 1, p.parent
        return f"ProductPoint(support={self.support()}, stages={stages})"
