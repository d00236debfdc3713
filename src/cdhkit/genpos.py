"""General-position machinery for product spaces.

Operations:

  check_general_position   exact pairwise disagreement report to a depth
  greedy_dense_gp          dense sequence hitting the enumerated basic boxes
                           with all pairs coordinate-distinct everywhere
  wgpp_transform           coordinate-wise convenient-pair twist making
                           previously-agreeing coordinates disagree
  block_regroup            partition of the index range with per-pair
                           injectivity witnesses inside every block
  collision_repair_gpp     certified sequence of two-coordinate conditional
                           moves separating all colliding pairs
  boundary_chase           collar shrink (a self-embedding) plus a
                           first-coordinate injectivity perturbation

One rule, `_agreeing`, decides which points of a column agree: exact
values share a bucket when equal, float values are compared pairwise.  The
collision reports, the repair's re-check of a moved column, the twist's
lemma and focus checks and the chase's search for a clash all use it.  An
exact value is read through one key, `_key`: (numerator, denominator) on a
circle or a line, (prefix, tail) on a sequence kind.  The buckets of
`_agreeing` and the avoid sets of `greedy_dense_gp` are keyed by it.

Both the repair and the chase move points with one gated move: a product
stage that shifts one coordinate inside a bump, scaled by a tent gate on a
second coordinate.  It has two kinds.  `ConditionalMoveStage` is exact on
circle/line data, with exact displacement and certified Lipschitz bounds,
which is what lets repair moves ride a convergence certificate on the
product; `FloatConditionalStage` is its float disc analogue for the chase.
The exact move reads integers: it decides by comparisons whether a point
is in its bump before it reads the gate coordinate, so a point outside the
bump costs no read of beta, and whether the gate coordinate is in its gate
before it computes the tent weight, and builds one Fraction per value it
returns.  `_gated_move` builds each move.  Repair gates it at the
pair's first index outside its collision index, the chase at `_gate_index`.

The collision reports, the repair, the chase and the regrouping refuse
points of more than one product, or of another product than the one they
are given, with SpaceMismatch.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from .convergence import ConvergenceCertificate
from .errors import (
    BudgetExceeded,
    PreconditionError,
    UnsupportedOperation,
)
from .pairs import ConvenientPair, vnorm
from .rationals import HALF, floor_pow2, format_scalar, parse_scalar, pow2
from .spaces import (
    FLOAT_TOLERANCE,
    BaireSpace,
    CantorSpace,
    CircleSpace,
    DiscSpace,
    FactorSpace,
    LineSpace,
    ProductPoint,
    ProductSpace,
    ProductStage,
    _check_space,
    _wrap1,
    nat_tuple,
)

F = Fraction


# ---------------------------------------------------------------------------
# collision reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollisionReport:
    disagreements: dict      # (i, j) -> tuple of the blocks where the pair differs
    collisions: tuple        # (i, j, b) triples where the pair agrees at block b

    @property
    def in_general_position(self) -> bool:
        return not self.collisions


def check_general_position(points: Sequence[ProductPoint]) -> CollisionReport:
    """Marks the set in general position to the working depth iff every pair
    differs at every evaluated index; exact for exact kinds."""
    blocks = [(a,) for a in points[0].space.indices()] if points else []
    return _collision_report(points, blocks)


def check_regrouped_general_position(points: Sequence[ProductPoint],
                                     plan: "PartitionPlan") -> CollisionReport:
    """General position of the block view: coordinates are the plan's blocks,
    two points differ at a block iff they differ somewhere inside it."""
    return _collision_report(points, plan.blocks)


_NUMBER_KEY = attrgetter("numerator", "denominator")
_SEQ_KEY = attrgetter("prefix", "tail")


def _own_key(v):
    return v


def _key(factor: FactorSpace) -> Callable:
    """The key of a canonical value: (numerator, denominator) on a circle
    or a line, where an int shares the key of its Fraction, (prefix, tail)
    on a sequence kind, and the value itself on any other kind.  Two exact
    values are the same point iff their keys are equal, and a key hashes and
    compares without a Python-level call.  A float value keys only the
    focus check's memo, where `==` is what it needs."""
    if isinstance(factor, (CircleSpace, LineSpace)):
        return _NUMBER_KEY
    if isinstance(factor, (CantorSpace, BaireSpace)):
        return _SEQ_KEY
    return _own_key


def _agreeing(factor: FactorSpace, values: Sequence) -> set:
    """The pairs (i, j), i < j, whose values are the same point.  Exact
    values are canonical, so agreeing values share a bucket, keyed by
    `_key`; float values are compared pairwise with `points_equal`, as a
    tolerance is not transitive."""
    if factor.exact:
        buckets: dict = {}
        for i, v in enumerate(map(_key(factor), values)):
            buckets.setdefault(v, []).append(i)
        return {p for bucket in buckets.values() for p in combinations(bucket, 2)}
    return {(i, j) for i, j in combinations(range(len(values)), 2)
            if factor.points_equal(values[i], values[j])}


def _collision_report(points, blocks) -> CollisionReport:
    """Pairwise report over `blocks` (index tuples, numbered by position).  A
    pair collides at a block when it agrees at every index of it, so at an
    empty block every pair collides.  Every used column is read once.
    Points of more than one product raise SpaceMismatch."""
    if not points:
        return CollisionReport({}, ())
    space = points[0].space
    _check_space(points, space)
    agree = {a: _agreeing(space.factor(a), [p.coord(a) for p in points])
             for a in {a for block in blocks for a in block}}
    pairs = list(combinations(range(len(points)), 2))
    hits = [set.intersection(*(agree[a] for a in block)) if block else pairs for block in blocks]
    collisions = sorted((i, j, b) for b, hit in enumerate(hits) for i, j in hit)
    dis = dict.fromkeys(pairs, tuple(range(len(blocks))))
    for i, j, b in collisions:
        dis[(i, j)] = tuple(c for c in dis[(i, j)] if c != b)
    return CollisionReport(dis, tuple(collisions))


# ---------------------------------------------------------------------------
# enumerated product boxes and the greedy construction
# ---------------------------------------------------------------------------

def product_boxes(space: ProductSpace, count: int) -> list:
    """First `count` members of the product pi-base: finite tuples of
    per-factor basic-open indices, supports clipped to the index set.  A
    count not an int >= 0 (a bool is not one) raises PreconditionError."""
    if type(count) is not int or count < 0:
        raise PreconditionError(f"box count {count!r} is not an int >= 0")
    boxes = []
    n = 0
    while len(boxes) < count:
        t = nat_tuple(n)
        n += 1
        if space.count is not None and len(t) > space.count:
            continue
        boxes.append({a: space.factor(a).basic_open(b) for a, b in enumerate(t)})
    return boxes


def box_contains(space: ProductSpace, box: dict, point: ProductPoint) -> bool:
    return all(b.contains(point.coord(a)) for a, b in box.items())


@dataclass
class GreedyResult:
    points: list
    boxes: list


def greedy_dense_gp(space: ProductSpace, count: int) -> GreedyResult:
    """Point n lands in enumerated box n; every pair of outputs differs at
    every coordinate (exactly, for exact kinds).

    Point n sits at every factor's n-th marker point outside finitely many
    adjusted indices, so its other coordinates differ from every other
    point's by construction; adjusted indices get explicitly checked
    override values.  A count not an int >= 0 raises PreconditionError.

    Point k looks at the indices of its box and of the running union of the
    earlier points' supports.  Each such index keeps one set of the `_key`s
    of the placed points' values there, filled when the index is first
    looked at and then given the key of each point placed after, so no set
    is rebuilt; picks try the same salts in the same order as against sets
    of the values.
    """
    if type(count) is not int or count < 0:
        raise PreconditionError(f"point count {count!r} is not an int >= 0")
    boxes = product_boxes(space, count)
    points: list[ProductPoint] = []
    avoid: dict = {}      # index -> (its factor's key, the placed points' keys there)
    support: set = set()  # the placed points' supports
    for k in range(count):
        box = boxes[k]
        overrides = {}
        for a in sorted(support.union(box)):
            factor = space.factor(a)
            if a not in avoid:
                key = _key(factor)
                avoid[a] = key, {key(p.coord(a)) for p in points}
            key, keys = avoid[a]
            target_box = box.get(a)
            if target_box is None:
                if key(factor.marker(k)) not in keys:
                    continue  # marker point already distinct, no override
                target_box = factor.basic_open(0)
            overrides[a] = _pick_avoiding(factor, target_box, key, keys)
        point = ProductPoint(space, k, overrides)
        if not box_contains(space, box, point):
            raise AssertionError(f"greedy point {k} missed its box")
        points.append(point)
        support.update(overrides)
        for a, (key, keys) in avoid.items():
            keys.add(key(point.coord(a)))
    return GreedyResult(points, boxes)


def _pick_avoiding(factor, box, key, avoid: set):
    """`pick_in` gives distinct points for distinct salts, so one of the
    len(avoid) + 1 salts tried has a key outside `avoid`."""
    for salt in range(len(avoid) + 1):
        v = factor.pick_in(box, salt)
        if key(v) not in avoid:
            return v
    raise AssertionError(f"pick_in gave fewer than {len(avoid) + 1} distinct points")


# ---------------------------------------------------------------------------
# weak general position transform
# ---------------------------------------------------------------------------

class WgppStage(ProductStage):
    """Coordinate-wise twist x(a) -> s_a(x(a), x(0)) at each a in omega, its
    `moved_indices`.  An omega that holds 0 (the inverse reads x(0) too) or
    any other index that is not an int >= 1 (a bool is not one), or an index
    without a pair, raises PreconditionError."""

    def __init__(self, omega: frozenset, pairs: dict):
        self.moved_indices = frozenset(omega)
        self.pairs = dict(pairs)
        if 0 in self.moved_indices:
            raise PreconditionError("index 0 cannot be twisted")
        bad = [a for a in self.moved_indices if type(a) is not int or a < 1]
        if bad:
            raise PreconditionError(f"twisted indices {bad!r} are not ints >= 1")
        missing = self.moved_indices.difference(self.pairs)
        if missing:
            raise PreconditionError(f"no pair for twisted indices {sorted(missing)}")

    def image_coord(self, get, alpha):
        return self.pairs[alpha].s(get(alpha), get(0))

    def preimage_coord(self, get, alpha):
        return self.pairs[alpha].t(get(alpha), get(0))

    def descriptor(self):
        return {"stage": "wgpp-twist", "omega": sorted(self.moved_indices)}


@dataclass
class WgppResult:
    stage: WgppStage
    points: list
    omega: frozenset
    report_before: CollisionReport


_TAIL_WINDOW = 8


def wgpp_transform(points: Sequence[ProductPoint],
                   pair_family: Callable[[int], ConvenientPair]) -> WgppResult:
    """Lemma-style twist: after the transform every pair disagrees at every
    listed coordinate where it previously agreed; disagreements at unlisted
    coordinates survive untouched; the inverse twist undoes it exactly."""
    if not points:
        raise PreconditionError("empty point list")
    space = points[0].space
    idx = list(space.indices())
    full_depth = len(idx)

    # pi_0 restricted to the set must be injective; block 0 of the report is (0,)
    report = check_general_position(points)
    clash = next((c for c in report.collisions if c[2] == 0), None)
    if clash:
        i, j, _ = clash
        raise PreconditionError(f"projection to coordinate 0 is not injective (points {i}, {j})")
    big = tuple(
        p for p, dis in report.disagreements.items()
        if dis and max(dis) >= full_depth - _TAIL_WINDOW
    )

    # split each cofinal disagreement set into two interleaved cofinal
    # halves, claimed pairwise disjointly in pair order; the twist keeps one
    # half, the untouched half keeps the pair's own disagreements.  With no
    # big pair nothing is claimed and every nonzero index is twisted.
    claimed: set = set()
    into_omega: set = set()
    for p in big:
        avail = [a for a in report.disagreements[p] if a not in claimed and a != 0]
        claimed.update(avail)
        # alternate from the deep end so both halves stay cofinal
        into_omega.update(avail[-1::-2])
    omega = frozenset(a for a in idx if a != 0 and (a not in claimed or a in into_omega))

    pairs = {}
    y_col = [p.coord(0) for p in points]
    checked: set = set()
    for a in sorted(omega):
        pair = pair_family(a)
        _check_focus(space.factor(a), pair, [p.coord(a) for p in points], y_col, a, checked)
        pairs[a] = pair

    stage = WgppStage(omega, pairs)
    moved = [p.apply_stage(stage) for p in points]

    # the lemma's two guarantees, asserted exactly on the finite set where
    # (a in omega) != (a in dis); a column is read once, if some pair needs it
    agree: dict = {}
    for (i, j), dis in report.disagreements.items():
        for a in sorted(omega.symmetric_difference(dis)):
            if a not in agree:
                agree[a] = _agreeing(space.factor(a), [p.coord(a) for p in moved])
            if (i, j) in agree[a]:
                raise AssertionError(f"twist failed to separate pair {(i, j)} at {a}" if a in omega
                                     else f"twist disturbed coordinate {a} of pair {(i, j)}")
    return WgppResult(stage, moved, omega, report)


def _check_focus(factor, pair: ConvenientPair, xs, ys, alpha: int, checked: set):
    """Every two ys are separated by s(x, .) for every x in xs; raises
    PreconditionError if not.  The ys are column 0, which the twist has
    checked to be injective, so a merge is any agreeing pair of images.

    The answer for one x depends only on `pair.s` and x: `s` is pure, and one
    twist passes the same ys to every call.  `checked` holds the (s, key)
    pairs, x read through `_key`, of the twist's earlier calls, which all
    passed (a failure ends the twist), so `pair.s` is evaluated once per y
    for each distinct pair and a failure is still raised at the first
    unfocused index."""
    s, key = pair.s, _key(factor)
    fresh: dict = {}
    for x in xs:
        fresh.setdefault((s, key(x)), x)
    xs = [x for k, x in fresh.items() if k not in checked]
    checked.update(fresh)
    for x in xs:
        if _agreeing(factor, [s(x, y) for y in ys]):
            raise PreconditionError(
                f"convenient pair at index {alpha} is not focused on the projections"
            )


# ---------------------------------------------------------------------------
# block regrouping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionPlan:
    blocks: tuple                 # tuple of sorted index tuples
    witnesses: dict               # (pair, block_index) -> witnessing index
    omega_star_traces: tuple      # per-block tuple of omega* indices
    depth: int


def block_regroup(points: Sequence[ProductPoint], space: ProductSpace,
                  omega_star: Optional[Iterable[int]] = None, *,
                  block_count: int) -> PartitionPlan:
    """Disjoint cover of the index range by blocks such that every pair of
    points disagrees inside every block, block ownership respects block(i)
    <= i, and every block meets omega* emptily or cofinally; a block_count
    that is not an int >= 1 raises PreconditionError."""
    depth = space.working_depth
    idx = list(space.indices())
    B = block_count
    if type(B) is not int:
        raise PreconditionError(f"block_count {B!r} is not an int")
    if B < 1:
        raise PreconditionError(f"block_count must be at least 1, not {B}")
    _check_space(points, space)
    report = check_general_position(points)
    for p, dis in report.disagreements.items():
        if len(dis) < B:
            raise PreconditionError(
                f"pair {p} has only {len(dis)} disagreements, fewer than {B} blocks"
            )

    owner: dict = {}
    witnesses = {}
    # witnesses: walk blocks from the top; each pair keeps the least
    # disagreement block b already owns, else claims its deepest free one
    # compatible with the ownership constraint b <= i.  Block b owns only
    # what its own walk claimed, kept ascending in `mine`, and `dis` is
    # ascending, so the first of `mine` in `dis` is the least owned
    # disagreement.  Later steps only give owners to unowned indices, so
    # every witness stays in its block.
    for b in reversed(range(B)):
        mine: list = []
        for p, dis in report.disagreements.items():
            for w in mine:
                if w in dis:
                    break
            else:
                w = next((a for a in reversed(dis) if a not in owner and a >= b), None)
                if w is None:
                    raise PreconditionError(
                        f"cannot give block {b} a disagreement witness for pair {p}"
                    )
                owner[w] = b
                insort(mine, w)
            witnesses[(p, b)] = w

    omega_star = sorted(set(omega_star or ()))
    in_range = set(idx)
    star_in_range = [a for a in omega_star if a in in_range]
    star_set = set(star_in_range)
    rank = 0
    for a in idx:
        if a in owner:
            continue
        if a in star_set:
            b = rank % B
            owner[a] = b if b <= a else a % B
            rank += 1
        else:
            owner[a] = a % B

    blocks = tuple(tuple(sorted(a for a in idx if owner[a] == b)) for b in range(B))
    traces = tuple(tuple(a for a in block if a in star_set) for block in blocks)
    _audit_plan(blocks, traces, star_in_range, B)
    return PartitionPlan(blocks, witnesses, traces, depth)


def _audit_plan(blocks, traces, star, B):
    covered = sorted(a for block in blocks for a in block)
    if covered != sorted(set(covered)):
        raise AssertionError("blocks overlap")
    for b, block in enumerate(blocks):
        for a in block:
            if b > a:
                raise AssertionError(f"block {b} owns index {a} < {b}")
    if star:
        gaps = [y - x for x, y in zip(star, star[1:])] or [1]
        slack = 2 * B * max(gaps)
        top = max(star)
        for trace in traces:
            if trace and top - max(trace) > slack:
                raise AssertionError("a block meets omega* but not cofinally")


# ---------------------------------------------------------------------------
# conditional two-coordinate moves (exact kinds)
# ---------------------------------------------------------------------------

def _ball(c: F, r: F, circle: bool) -> tuple:
    """(lo, hi, d), the ends c -+ r as lo/d and hi/d, for `_in_ball`: with
    c = a/b, taken in [0, 1) on the circle, and r = e/f, (af - eb, af + eb, bf)."""
    if circle:
        c = _wrap1(c)
    a, b, e, f = c.numerator, c.denominator, r.numerator, r.denominator
    return a * f - e * b, a * f + e * b, b * f


def _in_ball(u, ball: tuple, circle: bool) -> bool:
    """Whether a canonical u lies in the open ball `_ball(c, r, circle)`
    describes, by integer comparisons only: on the line |u - c| < r, on
    the circle |w(u - c)| < r, where w(d) = ((d + 1/2) mod 1) - 1/2.

    On the line this is lo < u < hi.  On the circle u and c lie in [0, 1),
    so d = u - c lies in (-1, 1), and the test is lo < u < hi (|d| < r), or
    u < hi - 1 (d < r - 1), or u > lo + 1 (d > 1 - r).  w(d) is d on
    [-1/2, 1/2), d - 1 above and d + 1 below it.  For r <= 1/2:
    - d in [-1/2, 1/2): |w(d)| = |d|, and neither other clause holds,
      as r - 1 <= -1/2 <= d < 1/2 <= 1 - r.
    - d >= 1/2: |w(d)| = 1 - d < r iff d > 1 - r; |d| < r <= 1/2 and
      d < r - 1 < 0 both fail.
    - d < -1/2: |w(d)| = d + 1 < r iff d < r - 1; |d| < r and
      d > 1 - r >= 1/2 both fail.
    So r = 1/2 holds every u but the antipode c + 1/2.  For r > 1/2 the
    ball is the whole circle, as |w(d)| <= 1/2 < r, and the test holds
    every u: |d| < r, or d >= r > 1 - r, or d <= -r < r - 1.
    """
    lo, hi, d = ball
    x, q = u.numerator * d, u.denominator
    if lo * q < x < hi * q:
        return True
    return circle and (x < (hi - d) * q or x > (lo + d) * q)


def _offset(u, c: F, circle: bool) -> tuple:
    """u - c as an unreduced pair (n, D), D = qb for u = p/q and c = a/b; on
    the circle n/D is w(u - c) of `_in_ball`, in [-1/2, 1/2)."""
    q, b = u.denominator, c.denominator
    n, D = u.numerator * b - c.numerator * q, q * b
    if circle:
        n -= (2 * n + D) // (2 * D) * D
    return n, D


class _GatedMove(ProductStage):
    """Moves coordinate alpha by a bump shift scaled with a tent gate on
    coordinate beta != alpha, which the move leaves alone, so the inverse
    reads the same gate.  Its `moved_indices` is {alpha}.  A kind supplies
    `gate(v)`, `_shift(u, w)` at gate weight w = gate(v) (an integer pair
    on the exact kind), its inverse `_unshift(u, w)` and may narrow
    `_in_bump(u)`.  The map sends the bump onto itself, so both directions
    return a u outside it before they read beta.  An alpha or a beta that
    is not an int (a bool is not one) raises PreconditionError, one outside
    the product IndexRange, and one whose factor is of none of the kind's
    `factor_classes` PreconditionError."""

    def __init__(self, space, factor_classes: tuple, alpha: int, beta: int, u_center,
                 u_radius, shift, gate_center, gate_radius):
        if type(alpha) is not int or type(beta) is not int:
            raise PreconditionError(f"move coordinates {alpha!r}, {beta!r} are not both ints")
        self._u_factor, self._gate_factor = space.factor(alpha), space.factor(beta)
        if not (isinstance(self._u_factor, factor_classes)
                and isinstance(self._gate_factor, factor_classes)):
            a = beta if isinstance(self._u_factor, factor_classes) else alpha
            kinds = " or ".join(c.kind for c in factor_classes)
            raise PreconditionError(f"a {type(self).__name__} needs {kinds} coordinates, "
                                    f"not the {space.factor(a).kind} coordinate {a}")
        if alpha == beta:
            raise PreconditionError(f"a move of coordinate {alpha} cannot be gated on itself")
        if not gate_radius > 0:
            raise PreconditionError(f"gate radius {gate_radius} is not positive")
        self.space = space
        self.alpha, self.beta = alpha, beta
        self.moved_indices = frozenset((alpha,))
        self.u_center, self.u_radius, self.shift = u_center, u_radius, shift
        self.gate_center, self.gate_radius = gate_center, gate_radius

    def _in_bump(self, u) -> bool:
        """Every u: the float kind moves a u outside its bump by 0.0 * shift,
        which keeps its outputs, down to the sign of a zero, as they are."""
        return True

    def image_coord(self, get, a):
        u = get(a)
        if not self._in_bump(u):
            return u
        return self._shift(u, self.gate(get(self.beta)))

    def preimage_coord(self, get, a):
        u = get(a)
        if not self._in_bump(u):
            return u
        return self._unshift(u, self.gate(get(self.beta)))


_MOVE_SCALARS = ("u_center", "u_radius", "shift", "gate_center", "gate_radius")


class ConditionalMoveStage(_GatedMove):
    """The gated move on rational circle/line data, exact.

    u-map at gate weight w: rel -> rel + (1 - |rel|/r_u) * w * shift inside
    the radius-r_u bump around the center, identity outside.  Its
    coordinates are circle or line coordinates.  A scalar that is not an int
    or a Fraction (a bool or a float is not one) raises PreconditionError,
    and so does data its inverse or its Lipschitz bound does not hold for: a
    circle bump radius above 1/2, whose bump wraps past the antipode, or a
    line gate radius above 1, past the cap of the line metric.
    """

    def __init__(self, space: ProductSpace, alpha: int, beta: int,
                 u_center: F, u_radius: F, shift: F,
                 gate_center: F, gate_radius: F):
        scalars = (u_center, u_radius, shift, gate_center, gate_radius)
        if bad := [x for x in scalars if type(x) is not F and type(x) is not int]:
            raise PreconditionError(f"move scalar {bad[0]!r} is not exact: "
                                    "an int or a Fraction is needed")
        # Fractions are kept as they are: loaded and built moves pass them
        super().__init__(space, (CircleSpace, LineSpace), alpha, beta,
                         *(x if type(x) is F else F(x) for x in scalars))
        self._circle_u = isinstance(self._u_factor, CircleSpace)
        self._circle_v = isinstance(self._gate_factor, CircleSpace)
        r, g, s = self.u_radius, self.gate_radius, self.shift
        # |s| >= r, r > 1/2 and g > 1 in integers, which spares a move Fraction comparisons
        if abs(s.numerator) * r.denominator >= r.numerator * s.denominator:
            raise PreconditionError("shift must stay inside the bump radius")
        if self._circle_u and 2 * r.numerator > r.denominator:
            raise PreconditionError(f"circle bump radius {r} is above 1/2")
        if not self._circle_v and g.numerator > g.denominator:
            raise PreconditionError(f"line gate radius {g} is above 1")

    # -- scalar machinery ----------------------------------------------------
    @cached_property
    def _bump(self) -> tuple:
        """`_ball` of the bump.  Built on first use: a move loaded to be
        re-checked evaluates no point."""
        return _ball(self.u_center, self.u_radius, self._circle_u)

    @cached_property
    def _gate_ball(self) -> tuple:
        """`_ball` of the gate, built on first use like `_bump`."""
        return _ball(self.gate_center, self.gate_radius, self._circle_v)

    def _in_bump(self, u) -> bool:
        """Whether |u - c_u| < r_u, for a canonical u (`_in_ball`)."""
        return _in_ball(u, self._bump, self._circle_u)

    def gate(self, v) -> tuple:
        """The tent weight 1 - dist(v, c_v) / r_v of a canonical v as an
        unreduced pair: (eD - |n|f, eD) for v - c_v = n/D (`_offset`) and
        r_v = e/f, and (0, 1), decided by `_in_ball` alone, outside the gate."""
        if not _in_ball(v, self._gate_ball, self._circle_v):
            return 0, 1
        n, D = _offset(v, self.gate_center, self._circle_v)
        e, f = self.gate_radius.numerator, self.gate_radius.denominator
        return e * D - abs(n) * f, e * D

    def _terms(self, u, w: tuple) -> tuple:
        """(n, D, e, f, g, m) with u - c_u = n/D (`_offset`), r_u = e/f and
        w shift = m/g: g = w_d s_d and m = w_n s_n for shift = s_n/s_d."""
        n, D = _offset(u, self.u_center, self._circle_u)
        r, s = self.u_radius, self.shift
        return n, D, r.numerator, r.denominator, w[1] * s.denominator, w[0] * s.numerator

    def _shift(self, u, w: tuple):
        """Image of u at gate weight w, in `_terms`: u moved by its bump weight
        (eD - |n|f)/(eD) times m/g, c_u + [neg + (eD - |n|f)m] / (Deg)."""
        if not w[0]:
            return u
        n, D, e, f, g, m = self._terms(u, w)
        return self._plus(n * e * g + (e * D - abs(n) * f) * m, D * e * g)

    def _unshift(self, u, w: tuple):
        """Preimage of u at gate weight w, in `_terms`: c_u + e num / (D den),
        num = ng - mD, den = eg + mf if num <= 0 and eg - mf otherwise."""
        if not w[0]:
            return u
        n, D, e, f, g, m = self._terms(u, w)
        num = n * g - m * D
        den = e * g + m * f if num <= 0 else e * g - m * f
        return self._plus(e * num, D * den)

    def _plus(self, n: int, d: int) -> F:
        """c_u + n/d, d > 0, as one Fraction, taken in [0, 1) on the circle."""
        c = self.u_center
        top, m = c.numerator * d + n * c.denominator, c.denominator * d
        return F(top % m if self._circle_u else top, m)

    # -- certified bounds --------------------------------------------------------
    def sup_displacement(self) -> F:
        return F(abs(self.shift.numerator), self.shift.denominator << self.alpha)

    def lip_backward_bound(self) -> F:
        """k + |s| k / r_v 2^(beta - alpha), k = r_u / (r_u - |s|): the
        inverse's slope bound 1/m in u, m = 1 - |s|/r_u the least slope of
        the bump, plus its gate cross term (|s|/m) / r_v weighted by
        2^(beta - alpha).  |s| < r_u, so 1/m >= 1 needs no max with 1.
        With r_u = e/f and |s| = s_n/s_d, k = e s_d / (e s_d - s_n f), and
        1 + |s| 2^t / r_v = (P + Q) / P for t = beta - alpha."""
        e, f = self.u_radius.numerator, self.u_radius.denominator
        s, sd = abs(self.shift.numerator), self.shift.denominator
        t = self.beta - self.alpha
        P = sd * self.gate_radius.numerator << max(-t, 0)
        Q = s * self.gate_radius.denominator << max(t, 0)
        return F(e * sd * (P + Q), (e * sd - s * f) * P)

    def descriptor(self):
        return {"stage": "conditional-move", "alpha": self.alpha, "beta": self.beta,
                **{name: format_scalar(getattr(self, name)) for name in _MOVE_SCALARS}}


def conditional_move_from_descriptor(space: ProductSpace, desc: dict) -> ConditionalMoveStage:
    """The move a descriptor names; a malformed one raises PreconditionError."""
    try:
        return ConditionalMoveStage(space, desc["alpha"], desc["beta"],
                                    *(parse_scalar(desc[name]) for name in _MOVE_SCALARS))
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise PreconditionError(f"malformed conditional-move descriptor: {e!r}") from e


# ---------------------------------------------------------------------------
# collision repair
# ---------------------------------------------------------------------------

@dataclass
class RepairResult:
    certificate: ConvergenceCertificate
    points: list
    moves: int
    collision_history: list


def collision_repair_gpp(points: Sequence[ProductPoint], space: ProductSpace) -> RepairResult:
    """Separates every colliding pair with small conditional moves.

    Each move fixes at least one (pair, coordinate) collision permanently and
    creates none (its support excludes every point with a different gate
    coordinate, and the fresh target value differs from every current value),
    so the collision count strictly decreases.  Move displacements are capped
    by 2^-step, keeping the total below 2 and the product certificate valid.

    A move changes coordinate alpha only, so the collision set is kept
    between moves and only column alpha is re-checked; one full check at the
    end guards against drift.  Moves follow (i, j, alpha) order.
    """
    if space.count is None:
        raise PreconditionError("collision repair needs a finite product")
    for a in space.indices():
        f = space.factor(a)
        if not isinstance(f, (CircleSpace, LineSpace)):
            raise UnsupportedOperation(
                f"repair moves are implemented for circle/line factors, not {f.kind}"
            )
    pts = list(points)
    _check_space(pts, space)
    collisions = set(check_general_position(pts).collisions)
    cert = ConvergenceCertificate(space)
    history = [len(collisions)]

    while collisions:
        i, j, alpha = min(collisions)
        # the gate is the first index where the pair disagrees
        beta = next((a for a in space.indices() if (i, j, a) not in collisions), None)
        if beta is None:
            raise PreconditionError(f"points {i} and {j} are identical")
        stage = _build_move(space, pts, i, alpha, beta, cert)
        cert = cert.append(stage)
        pts = [p.apply_stage(stage) for p in pts]
        # the move changes column alpha only: re-check just that
        left = {c for c in collisions if c[2] != alpha}
        left.update((x, y, alpha) for x, y in
                    _agreeing(space.factor(alpha), [p.coord(alpha) for p in pts]))
        if len(left) >= len(collisions):
            raise AssertionError("a repair move failed to reduce the collision count")
        collisions = left
        history.append(len(collisions))
    if not check_general_position(pts).in_general_position:
        raise AssertionError("the collision index drifted from the points")
    return RepairResult(cert, pts, cert.stage_count, history)


def _build_move(space, pts, i, alpha, beta, cert) -> ConditionalMoveStage:
    """Repair's stage k: clearance cap 1/2 and, as shift, the largest power of
    two at most min(r_u/2, 2^alpha min(2^-k, room)): its displacement
    2^-alpha |shift| fits the certificate's `displacement_room`.  A power of
    two keeps dyadic data dyadic, free of lip_inv's denominator."""
    room = min(pow2(-cert.stage_count), cert.displacement_room()) * pow2(alpha)
    return _gated_move(ConditionalMoveStage, space, pts, i, alpha, beta, HALF,
                       lambda r_u: floor_pow2(min(r_u / 2, room)))


def _gate_index(space, pts, i, j) -> int:
    """The first index at which points i and j disagree, by `_agreeing`;
    identical points raise PreconditionError."""
    for a in space.indices():
        if not _agreeing(space.factor(a), (pts[i].coord(a), pts[j].coord(a))):
            return a
    raise PreconditionError(f"points {i} and {j} are identical")


def _gated_move(kind, space, pts, i, alpha, beta, cap, shift_of) -> _GatedMove:
    """The `kind` move of point i's alpha value u_c by `shift_of(r_u)`, gated
    on its beta value g_c.  Radii from `_clearance` at `cap` leave every
    other alpha or beta value outside the bump or the gate, so only points
    agreeing with point i at both move.  If 0 < |shift| <= r_u/2, they alone
    hold its new value: other alpha values lie at least 2 r_u from u_c."""
    u_c, g_c = pts[i].coord(alpha), pts[i].coord(beta)
    r_u = _clearance(space.factor(alpha), (p.coord(alpha) for p in pts), u_c, cap)
    r_v = _clearance(space.factor(beta), (p.coord(beta) for p in pts), g_c, cap)
    return kind(space, alpha, beta, u_c, r_u, shift_of(r_u), g_c, r_v)


def _clearance(factor, values, center, cap):
    """Half the least of `cap` and the nonzero distances from `center` to
    `values`: the open ball of twice this radius about `center` holds no
    value but those equal to it.  On a circle or a line factor only
    `_neighbours` are measured, so there `values` and `center` must be
    canonical, as point coordinates are; a disc factor measures every value."""
    if not isinstance(factor, DiscSpace):
        values = _neighbours(values, center, isinstance(factor, CircleSpace))
    return min([cap] + [d for d in (factor.metric(v, center) for v in values) if d > 0]) / 2


def _neighbours(values, center, circle: bool) -> list:
    """The least value above `center` and the greatest below it, those that
    exist, each value sided by comparing v_n c_d with c_n v_d: every other
    value is at least as far from `center` as one of them.  On the circle,
    with every value in [0, 1), they are the cyclic successor and
    predecessor, wrapping past 0 when one side is empty: a value's forward
    arc from `center` is no shorter than the successor's, and its backward
    arc no shorter than the predecessor's."""
    cn, cd = center.numerator, center.denominator
    above, below = [], []
    for v in values:
        x, y = v.numerator * cd, cn * v.denominator
        if x > y:
            above.append(v)
        elif x < y:
            below.append(v)
    if circle and not (above and below):
        above = below = above or below
    return ([min(above)] if above else []) + ([max(below)] if below else [])


# ---------------------------------------------------------------------------
# boundary chase (disc products)
# ---------------------------------------------------------------------------

class CollarShrinkStage(ProductStage):
    """x -> (1 - eps) x on every listed disc coordinate: a self-embedding of
    the product (exactly invertible on its image), pulling the set off the
    pseudoboundary.  An eps that is not a Fraction in (0, 1), or an index
    that is not an int >= 0 (a bool is not one), raises PreconditionError."""

    def __init__(self, eps: F, indices: tuple):
        if not (isinstance(eps, F) and 0 < eps < 1):
            raise PreconditionError(f"collar width {eps!r} is not a Fraction in (0, 1)")
        bad = [a for a in indices if type(a) is not int or a < 0]
        if bad:
            raise PreconditionError(f"collar indices {bad!r} are not ints >= 0")
        self.eps = eps
        self.moved_indices = frozenset(indices)
        self._scale = 1.0 - float(eps)

    def image_coord(self, get, a):
        return tuple(c * self._scale for c in get(a))

    def preimage_coord(self, get, a):
        return tuple(c / self._scale for c in get(a))

    def descriptor(self):
        return {"stage": "collar-shrink", "eps": format_scalar(self.eps),
                "indices": sorted(self.moved_indices)}


class FloatConditionalStage(_GatedMove):
    """The gated move on disc data: shift coordinate alpha by a tent bump
    gated on coordinate beta.  Float path, tolerance semantics.  Its
    coordinates are disc coordinates."""

    def __init__(self, space, alpha: int, beta: int, u_center, u_radius: float,
                 shift, gate_center, gate_radius: float):
        super().__init__(space, (DiscSpace,), alpha, beta, tuple(u_center), float(u_radius),
                         tuple(shift), tuple(gate_center), float(gate_radius))
        if not vnorm(self.shift) < self.u_radius:
            raise PreconditionError("shift must stay inside the bump radius")

    def gate(self, v) -> float:
        d = self._gate_factor.metric(v, self.gate_center)
        return max(0.0, 1.0 - d / self.gate_radius)

    def _weight(self, u) -> float:
        d = self._u_factor.metric(u, self.u_center)
        return max(0.0, 1.0 - d / self.u_radius)

    def _shift(self, u, gate: float):
        w = gate * self._weight(u)
        return tuple(c + w * s for c, s in zip(u, self.shift))

    def _unshift(self, y, gate: float):
        """The x with x + gate * bump(x) * shift = y, by fixed-point iteration
        from y; stops when a step moves less than 1e-15, or after 200 steps."""
        x = y
        for _ in range(200):
            w = gate * self._weight(x)
            nxt = tuple(b - w * s for b, s in zip(y, self.shift))
            if self._u_factor.metric(nxt, x) < 1e-15:
                return nxt
            x = nxt
        return x

    def descriptor(self):
        return {"stage": "float-conditional-move", "alpha": self.alpha, "beta": self.beta}


@dataclass
class BoundaryChaseResult:
    stages: list
    points: list


_CHASE_EPS = F(1, 16)    # collar width
_CHASE_BUDGET = 64       # projection moves; nothing asserts that a move lowers the clash count


def boundary_chase(points: Sequence[ProductPoint], space: ProductSpace) -> BoundaryChaseResult:
    """Pulls a finite set off the pseudoboundary of a disc product and makes
    the first projection injective.

    The collar shrink is a self-embedding, not a surjection: no
    self-homeomorphism of a finite disc product can move boundary points
    inward, so the exactly-invertible-on-image map is what the operation
    returns.  A no-op path applies when the set is already interior with
    injective first projection.
    """
    if space.count is None:
        raise PreconditionError("boundary chase needs a finite product")
    for a in space.indices():
        if not isinstance(space.factor(a), DiscSpace):
            raise UnsupportedOperation("boundary chase expects disc factors")
    pts = list(points)
    _check_space(pts, space)
    stages: list[ProductStage] = []

    def interior(p):
        return all(vnorm(p.coord(a)) < 1.0 - FLOAT_TOLERANCE for a in space.indices())

    if not all(interior(p) for p in pts):
        shrink = CollarShrinkStage(_CHASE_EPS, tuple(space.indices()))
        stages.append(shrink)
        pts = [p.apply_stage(shrink) for p in pts]

    step = 0
    while True:
        clash = _agreeing(space.factor(0), [p.coord(0) for p in pts])
        if not clash:
            break
        if step >= _CHASE_BUDGET:
            raise BudgetExceeded(f"projection repair budget {_CHASE_BUDGET} exhausted")
        x, y = min(clash)
        u_c = pts[x].coord(0)
        room = min((1.0 - vnorm(u_c)) / 4, 2.0 ** (-step - 3))
        stage = _gated_move(FloatConditionalStage, space, pts, x, 0, _gate_index(space, pts, x, y),
                            0.25, lambda r_u: (min(r_u / 2, room),) + (0.0,) * (len(u_c) - 1))
        stages.append(stage)
        pts = [p.apply_stage(stage) for p in pts]
        step += 1
    return BoundaryChaseResult(stages, pts)
