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

Both the repair and the chase move points with one gated move: a product
stage that shifts one coordinate inside a bump, scaled by a tent gate on a
second coordinate.  It has two kinds.  `ConditionalMoveStage` is exact on
circle/line data, with exact displacement and certified Lipschitz bounds,
which is what lets repair moves ride a convergence certificate on the
product; `FloatConditionalStage` is its float disc analogue for the chase.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .convergence import ConvergenceCertificate
from .errors import (
    BudgetExceeded,
    PreconditionError,
    UnsupportedOperation,
)
from .pairs import ConvenientPair, vnorm
from .rationals import ZERO, floor_pow2, format_scalar, parse_scalar, pow2
from .spaces import (
    CircleSpace,
    DiscSpace,
    FactorSpace,
    LineSpace,
    ProductPoint,
    ProductSpace,
    ProductStage,
    _wrap1,
    nat_tuple,
)

F = Fraction


# ---------------------------------------------------------------------------
# collision reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollisionReport:
    depth: int
    disagreements: dict      # (i, j) -> tuple of indices where the pair differs
    collisions: tuple        # (i, j, alpha) triples where the pair agrees

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


def _keyed_column(factor: FactorSpace, values) -> tuple:
    """A column of canonical points as (same, column) for pair tests.  Circle
    and line values become small-int ids, equal iff the values are and faster
    to compare than Fractions; sequence values stay as they are.  So for exact
    kinds `same` is `==`; float values keep the tolerance test `points_equal`."""
    if isinstance(factor, (CircleSpace, LineSpace)):
        ids: dict = {}
        return operator.eq, [ids.setdefault(v, len(ids)) for v in values]
    return (operator.eq if factor.exact else factor.points_equal), list(values)


def _collision_report(points, blocks, cols=None) -> CollisionReport:
    """Pairwise report over `blocks` (index tuples, numbered by position);
    every used column is read and keyed once, unless `cols` (index ->
    `_keyed_column` of the points) already holds it."""
    if not points:
        return CollisionReport(0, {}, ())
    space = points[0].space
    cols = dict(cols or {})
    for a in {a for block in blocks for a in block} - cols.keys():
        cols[a] = _keyed_column(space.factor(a), [p.coord(a) for p in points])
    keyed = [[cols[a] for a in block] for block in blocks]
    dis, collisions = {}, []
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            where = []
            for b, block in enumerate(keyed):
                for same, col in block:
                    if not same(col[i], col[j]):
                        where.append(b)
                        break
                else:
                    collisions.append((i, j, b))
            dis[(i, j)] = tuple(where)
    return CollisionReport(len(blocks), dis, tuple(collisions))


# ---------------------------------------------------------------------------
# enumerated product boxes and the greedy construction
# ---------------------------------------------------------------------------

def product_boxes(space: ProductSpace, count: int) -> list:
    """First `count` members of the product pi-base: finite tuples of
    per-factor basic-open indices, supports clipped to the index set."""
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
    override values.
    """
    boxes = product_boxes(space, count)
    points: list[ProductPoint] = []
    for k in range(count):
        box = boxes[k]
        relevant = set(box) | {a for p in points for a in p.support()}
        overrides = {}
        for a in sorted(relevant):
            factor = space.factor(a)
            avoid = {p.coord(a) for p in points}
            target_box = box.get(a)
            if target_box is None:
                if factor.marker(k) not in avoid:
                    continue  # marker point already distinct, no override
                target_box = factor.basic_open(0)
            overrides[a] = _pick_avoiding(factor, target_box, avoid)
        point = ProductPoint(space, k, overrides)
        if not box_contains(space, box, point):
            raise AssertionError(f"greedy point {k} missed its box")
        points.append(point)
    return GreedyResult(points, boxes)


def _pick_avoiding(factor, box, avoid):
    """`pick_in` gives distinct points for distinct salts, so one of the
    len(avoid) + 1 salts tried lands outside `avoid`."""
    for salt in range(len(avoid) + 1):
        v = factor.pick_in(box, salt)
        if v not in avoid:
            return v
    raise AssertionError(f"pick_in gave fewer than {len(avoid) + 1} distinct points")


# ---------------------------------------------------------------------------
# weak general position transform
# ---------------------------------------------------------------------------

class WgppStage(ProductStage):
    """Coordinate-wise twist: s_a(x(a), x(0)) on the listed indices, identity
    elsewhere.  Index 0 is never listed, so the inverse can read the same
    second argument."""

    def __init__(self, omega: frozenset, pairs: dict):
        if 0 in omega:
            raise PreconditionError("index 0 cannot be twisted")
        self.omega = frozenset(omega)
        self.pairs = dict(pairs)

    def image_coord(self, get, alpha):
        if alpha in self.omega:
            return self.pairs[alpha].s(get(alpha), get(0))
        return get(alpha)

    def preimage_coord(self, get, alpha):
        if alpha in self.omega:
            return self.pairs[alpha].t(get(alpha), get(0))
        return get(alpha)

    def descriptor(self):
        return {"stage": "wgpp-twist", "omega": sorted(self.omega)}


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
    # (a in omega) != (a in dis); a column is read, and keyed, once
    cols: dict = {}
    for (i, j), dis in report.disagreements.items():
        for a in sorted(omega.symmetric_difference(dis)):
            if a not in cols:
                cols[a] = _keyed_column(space.factor(a), [p.coord(a) for p in moved])
            same, col = cols[a]
            if same(col[i], col[j]):
                raise AssertionError(f"twist failed to separate pair {(i, j)} at {a}" if a in omega
                                     else f"twist disturbed coordinate {a} of pair {(i, j)}")
    return WgppResult(stage, moved, omega, report)


def _check_focus(factor, pair: ConvenientPair, xs, ys, alpha: int, checked: set):
    """Every two distinct ys are separated by s(x, .) for every x in xs;
    raises PreconditionError if not.

    On an exact factor the answer for one x depends only on `pair.s` and x:
    `s` is pure, and one twist passes the same ys (column 0) to every call.
    `checked` holds the (s, x) keys of the twist's earlier calls, which all
    passed (a failure ends the twist), so `pair.s` is evaluated once per y
    for each distinct key and a failure is still raised at the first
    unfocused index.  Float factors compare the images pairwise at every x."""
    if factor.exact:  # canonical points: one y per value, each new (s, x) once
        ys = list(dict.fromkeys(ys))
        apart = len(ys) > 1
        s = pair.s
        xs = [x for x in dict.fromkeys(xs) if (s, x) not in checked]
        checked.update((s, x) for x in xs)
    else:  # tolerance equality is not transitive: compare float points pairwise
        apart = [(i, j) for i in range(len(ys)) for j in range(i + 1, len(ys))
                 if not factor.points_equal(ys[i], ys[j])]
    if not apart:
        return
    for x in xs:
        images = [pair.s(x, y) for y in ys]
        if factor.exact:
            merged = len(set(images)) < len(ys)
        else:
            merged = any(factor.points_equal(images[i], images[j]) for i, j in apart)
        if merged:
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
    points disagrees inside every block, block ownership respects
    block(i) <= i, and every block meets omega* emptily or cofinally."""
    depth = space.working_depth
    idx = list(space.indices())
    B = block_count
    if B < 1:
        raise PreconditionError(f"block_count must be at least 1, not {B}")
    report = check_general_position(points)
    for p, dis in report.disagreements.items():
        if len(dis) < B:
            raise PreconditionError(
                f"pair {p} has only {len(dis)} disagreements, fewer than {B} blocks"
            )

    owner: dict = {}
    witnesses = {}
    # witnesses: walk blocks from the top; each pair keeps a disagreement
    # block b already owns, else claims its deepest free one compatible with
    # the ownership constraint b <= i.  Later steps only give owners to
    # unowned indices, so every witness stays in its block.
    for b in reversed(range(B)):
        for p, dis in report.disagreements.items():
            w = next((a for a in dis if owner.get(a) == b), None)
            if w is None:
                w = next((a for a in reversed(dis) if a not in owner and a >= b), None)
                if w is None:
                    raise PreconditionError(
                        f"cannot give block {b} a disagreement witness for pair {p}"
                    )
                owner[w] = b
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

def _swrap(x: F) -> F:
    return _wrap1(x + F(1, 2)) - F(1, 2)


class _GatedMove(ProductStage):
    """Moves coordinate alpha by a bump shift scaled with a tent gate on
    coordinate beta != alpha, which the move leaves alone, so the inverse
    reads the same gate.  A kind supplies `gate(v)`, `_shift(u, w)` at gate
    weight w and its inverse `_unshift(u, w)`."""

    def __init__(self, space, alpha: int, beta: int, u_center, u_radius, shift,
                 gate_center, gate_radius):
        if alpha == beta:
            raise PreconditionError(f"a move of coordinate {alpha} cannot be gated on itself")
        if not gate_radius > 0:
            raise PreconditionError(f"gate radius {gate_radius} is not positive")
        self.space = space
        self.alpha, self.beta = alpha, beta
        self.u_center, self.u_radius, self.shift = u_center, u_radius, shift
        self.gate_center, self.gate_radius = gate_center, gate_radius

    def image_coord(self, get, a):
        if a != self.alpha:
            return get(a)
        return self._shift(get(self.alpha), self.gate(get(self.beta)))

    def preimage_coord(self, get, a):
        if a != self.alpha:
            return get(a)
        return self._unshift(get(self.alpha), self.gate(get(self.beta)))


_MOVE_SCALARS = ("u_center", "u_radius", "shift", "gate_center", "gate_radius")


class ConditionalMoveStage(_GatedMove):
    """The gated move on rational circle/line data, exact.

    u-map at gate weight w: rel -> rel + (1 - |rel|/r_u) * w * shift inside
    the radius-r_u bump around the center, identity outside.
    """

    def __init__(self, space: ProductSpace, alpha: int, beta: int,
                 u_center: F, u_radius: F, shift: F,
                 gate_center: F, gate_radius: F):
        if abs(shift) >= u_radius:
            raise PreconditionError("shift must stay inside the bump radius")
        super().__init__(space, alpha, beta, F(u_center), F(u_radius), F(shift),
                         F(gate_center), F(gate_radius))
        self._circle_u = isinstance(space.factor(alpha), CircleSpace)
        self._circle_v = isinstance(space.factor(beta), CircleSpace)

    # -- scalar machinery ----------------------------------------------------
    def _rel(self, u):
        d = u - self.u_center
        return _swrap(d) if self._circle_u else d

    def _out(self, u):
        return _wrap1(self.u_center + u) if self._circle_u else self.u_center + u

    def gate(self, v) -> F:
        d = v - self.gate_center
        dist = abs(_swrap(d)) if self._circle_v else abs(d)
        if dist >= self.gate_radius:
            return ZERO
        return 1 - dist / self.gate_radius

    def _shift(self, u, w: F):
        rel = self._rel(u)
        if abs(rel) >= self.u_radius or w == 0:
            return u
        return self._out(rel + (1 - abs(rel) / self.u_radius) * w * self.shift)

    def _unshift(self, u, w: F):
        rel = self._rel(u)
        if abs(rel) >= self.u_radius or w == 0:
            return u
        ws = w * self.shift
        if rel <= ws:
            back = self.u_radius * (rel - ws) / (self.u_radius + ws)
        else:
            back = self.u_radius * (rel - ws) / (self.u_radius - ws)
        return self._out(back)

    # -- certified bounds --------------------------------------------------------
    def sup_displacement(self) -> F:
        return pow2(-self.alpha) * abs(self.shift)

    def lip_backward_bound(self) -> F:
        m = 1 - abs(self.shift) / self.u_radius
        cross = (abs(self.shift) / m) / self.gate_radius * pow2(self.beta - self.alpha)
        return max(F(1), 1 / m) + cross

    def descriptor(self):
        return {"stage": "conditional-move", "alpha": self.alpha, "beta": self.beta,
                **{name: format_scalar(getattr(self, name)) for name in _MOVE_SCALARS}}


def conditional_move_from_descriptor(space: ProductSpace, desc: dict) -> ConditionalMoveStage:
    """The move a descriptor names; a malformed one raises PreconditionError."""
    try:
        return ConditionalMoveStage(space, desc["alpha"], desc["beta"],
                                    *(parse_scalar(desc[name]) for name in _MOVE_SCALARS))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
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
    idx = list(space.indices())
    cols = {a: _keyed_column(space.factor(a), [p.coord(a) for p in pts]) for a in idx}
    collisions = set(_collision_report(pts, [(a,) for a in idx], cols).collisions)
    cert = ConvergenceCertificate(space)
    history = [len(collisions)]

    while collisions:
        i, j, alpha = min(collisions)
        beta = next((a for a in idx if cols[a][1][i] != cols[a][1][j]), None)
        if beta is None:
            raise PreconditionError(f"points {i} and {j} are identical; repair impossible")
        stage = _build_move(space, pts, i, alpha, beta, cert)
        cert = cert.append(stage)
        pts = [p.apply_stage(stage) for p in pts]
        # the move changes column alpha only: re-key and re-check just that
        cols[alpha] = _keyed_column(space.factor(alpha), [p.coord(alpha) for p in pts])
        left = {c for c in collisions if c[2] != alpha}
        left.update((x, y, alpha) for x, y, _ in _collision_report(pts, [(alpha,)], cols).collisions)
        if len(left) >= len(collisions):
            raise AssertionError("a repair move failed to reduce the collision count")
        collisions = left
        history.append(len(collisions))
    if not check_general_position(pts).in_general_position:
        raise AssertionError("the collision index drifted from the points")
    return RepairResult(cert, pts, cert.stage_count, history)


def _build_move(space, pts, i, alpha, beta, cert) -> ConditionalMoveStage:
    """Stage k = cert.stage_count: moves point i's coordinate alpha, gated on
    beta, by a power of two at most min(r_u/2, cap * 2^alpha), where
    cap = min(2^-k, 2^-(k-1)/lip_inv).  Conditions (1) and (2) of the
    certificate read 2^-alpha |shift| <= 2^-(k-1) and
    lip_inv 2^-alpha |shift| <= 2^-(k-1); both hold at the cap and for every
    smaller shift, so snapping down to a power of two keeps them sound.  The
    power of two keeps dyadic data dyadic instead of passing on the
    denominator of lip_inv.

    The radii r_u and r_v come from `_clearance` with cap 1/2, so the bump
    leaves out every alpha-different point and the gate every beta-different
    one.  The target u_c + shift is fresh: every other value of coordinate
    alpha lies at distance 0 or at least 2 r_u from u_c, and
    0 < |shift| <= r_u/2."""
    u_c = pts[i].coord(alpha)
    g_c = pts[i].coord(beta)
    r_u = _clearance(space.factor(alpha), (p.coord(alpha) for p in pts), u_c, F(1, 2))
    r_v = _clearance(space.factor(beta), (p.coord(beta) for p in pts), g_c, F(1, 2))
    k = cert.stage_count
    cap = min(pow2(-k), pow2(-(k - 1)) / cert._lip_inv) if k >= 1 else F(1)
    shift = floor_pow2(min(r_u / 2, cap * pow2(alpha)))
    return ConditionalMoveStage(space, alpha, beta, u_c, r_u, shift, g_c, r_v)


def _clearance(factor, values, center, cap):
    """Half the least of `cap` and the nonzero distances from `center` to
    `values`: the open ball of twice this radius about `center` holds no
    value but those equal to it."""
    return min([cap] + [d for d in (factor.metric(v, center) for v in values) if d > 0]) / 2


# ---------------------------------------------------------------------------
# boundary chase (disc products)
# ---------------------------------------------------------------------------

class CollarShrinkStage(ProductStage):
    """x -> (1 - eps) x on every listed disc coordinate: a self-embedding of
    the product (exactly invertible on its image), pulling the set off the
    pseudoboundary."""

    def __init__(self, eps: F, indices: tuple):
        self.eps = F(eps)
        self.indices = frozenset(indices)
        self._scale = 1.0 - float(eps)

    def image_coord(self, get, a):
        x = get(a)
        if a in self.indices:
            return tuple(c * self._scale for c in x)
        return x

    def preimage_coord(self, get, a):
        x = get(a)
        if a in self.indices:
            return tuple(c / self._scale for c in x)
        return x

    def descriptor(self):
        return {"stage": "collar-shrink", "eps": format_scalar(self.eps),
                "indices": sorted(self.indices)}


class FloatConditionalStage(_GatedMove):
    """The gated move on disc data: shift coordinate alpha by a tent bump
    gated on coordinate beta.  Float path, tolerance semantics."""

    def __init__(self, space, alpha: int, beta: int, u_center, u_radius: float,
                 shift, gate_center, gate_radius: float):
        if not vnorm(shift) < u_radius:
            raise PreconditionError("shift must stay inside the bump radius")
        super().__init__(space, alpha, beta, tuple(u_center), float(u_radius), tuple(shift),
                         tuple(gate_center), float(gate_radius))

    def gate(self, v) -> float:
        d = self.space.factor(self.beta).metric(v, self.gate_center)
        return max(0.0, 1.0 - d / self.gate_radius)

    def _bump(self, u) -> float:
        d = self.space.factor(self.alpha).metric(u, self.u_center)
        return max(0.0, 1.0 - d / self.u_radius)

    def _shift(self, u, gate: float):
        w = gate * self._bump(u)
        return tuple(c + w * s for c, s in zip(u, self.shift))

    def _unshift(self, y, gate: float):
        """The x with x + gate * bump(x) * shift = y, by fixed-point iteration
        from y; stops when a step moves less than 1e-15, or after 200 steps."""
        metric = self.space.factor(self.alpha).metric
        x = y
        for _ in range(200):
            w = gate * self._bump(x)
            nxt = tuple(b - w * s for b, s in zip(y, self.shift))
            if metric(nxt, x) < 1e-15:
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
    stages: list[ProductStage] = []

    def interior(p):
        return all(
            vnorm(p.coord(a)) < 1.0 - float(space.factor(a).tolerance)
            for a in space.indices()
        )

    if not all(interior(p) for p in pts):
        shrink = CollarShrinkStage(_CHASE_EPS, tuple(space.indices()))
        stages.append(shrink)
        pts = [p.apply_stage(shrink) for p in pts]

    step = 0
    while True:
        clash = _collision_report(pts, [(0,)]).collisions
        if not clash:
            break
        if step >= _CHASE_BUDGET:
            raise BudgetExceeded(f"projection repair budget {_CHASE_BUDGET} exhausted")
        x, y, _ = clash[0]
        beta = next(
            (a for a in space.indices()
             if not space.factor(a).points_equal(pts[x].coord(a), pts[y].coord(a))),
            None,
        )
        if beta is None:
            raise PreconditionError(f"points {x} and {y} are identical")
        u_c = pts[x].coord(0)
        g_c = pts[x].coord(beta)
        r_u = _clearance(space.factor(0), (p.coord(0) for p in pts), u_c, 0.25)
        r_v = _clearance(space.factor(beta), (p.coord(beta) for p in pts), g_c, 0.25)
        margin = 1.0 - vnorm(u_c)
        shift_len = min(r_u / 2, margin / 4, 2.0 ** (-step - 3))
        shift = (shift_len,) + (0.0,) * (len(u_c) - 1)
        stage = FloatConditionalStage(space, 0, beta, u_c, r_u, shift, g_c, r_v)
        stages.append(stage)
        pts = [p.apply_stage(stage) for p in pts]
        step += 1
    return BoundaryChaseResult(stages, pts)
