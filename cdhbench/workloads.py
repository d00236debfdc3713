"""Seeded jobs of the cdhkit benchmark and the checks on their outputs.

A workload is an endless sequence of rounds.  Every round holds the same
size classes in the same numbers, so every complete round has the same mix,
and the classes are weighted so that each reported percentile falls inside
one class rather than on the edge between two.  Round `r` of seed `s` is
drawn from its own `random.Random`, so the same seed always gives the same
inputs.

Each job runs up to three operations, each returning a value that the
job's check inspects outside the timed region:

  build   the construction itself
  verify  re-checks the output from its JSON alone
  eval    applies the output map and its inverse and reads coordinates

A check raises `CheckFailed` when an output is wrong.  `sizes` measures
the output once every operation has run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from cdhkit.convergence import ConvergenceCertificate, reverify_ledger
from cdhkit.errors import BoundViolation
from cdhkit.genpos import (
    PartitionPlan,
    block_regroup,
    boundary_chase,
    check_general_position,
    check_regrouped_general_position,
    collision_repair_gpp,
    conditional_move_from_descriptor,
    greedy_dense_gp,
    wgpp_transform,
)
from cdhkit.homeos import homeo_from_descriptor, small_ball_transporter
from cdhkit.pairs import glue_pairs, group_pair
from cdhkit.rationals import pow2
from cdhkit.spaces import (
    CANTOR,
    CIRCLE,
    LINE,
    CoordwiseStage,
    DiscSpace,
    ProductSpace,
    SymSeq,
    factor_from_descriptor,
)

F = Fraction


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def check(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


class Workload:
    @staticmethod
    def output_size(doc) -> tuple:
        """(largest value in bits, largest value in decimal digits, KiB of
        JSON) of one build's output document."""
        return json_bits(doc), json_digits(doc), len(json.dumps(doc)) / 1024


@dataclass
class Job:
    """One seeded job: its size class, its input data and its operations."""

    label: str
    spec: dict
    extras: dict = field(default_factory=dict)


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def scalar_bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _rationals(obj):
    """(numerator digits, denominator digits) of every "num/den" string in a
    JSON document."""
    if isinstance(obj, dict):
        obj = obj.values()
    if isinstance(obj, str):
        num, sep, den = obj.partition("/")
        num = num.removeprefix("-")
        if sep and num.isdigit() and den.isdigit():
            yield num, den
    elif hasattr(obj, "__iter__"):
        for v in obj:
            yield from _rationals(v)


def json_bits(obj) -> int:
    """Largest numerator or denominator, in bits, of the "num/den" strings in
    a JSON document; 0 when it holds no rational value."""
    return max((max(int(n).bit_length(), int(d).bit_length()) for n, d in _rationals(obj)), default=0)


def json_digits(obj) -> int:
    """Like `json_bits`, in decimal digits."""
    return max((max(len(n), len(d)) for n, d in _rationals(obj)), default=0)


def coords(point, depth: int) -> list:
    return [point.coord(a) for a in range(depth)]


def same_coords(space, xs, ys) -> bool:
    return len(xs) == len(ys) and all(
        space.factor(a).points_equal(x, y) for a, (x, y) in enumerate(zip(xs, ys))
    )


def _dyadic(rng: random.Random, bits: int) -> Fraction:
    return F(rng.randrange(1 << bits), 1 << bits)


# ---------------------------------------------------------------------------
# repair: collision_repair_gpp on circle/line products
# ---------------------------------------------------------------------------

class Repair(Workload):
    """6 to 8 points in a 4-factor circle/line product, coordinates drawn
    from the eighths so that many pairs collide.  Seven and eight points
    come twice per round, which puts the median inside the 7-point class
    and the 75th percentile inside the 8-point class.  Nine points are left
    out: about one 9-point build in 3000 takes from seconds to minutes."""

    name = "repair"
    sizes_per_round = (6, 7, 7, 8, 8)
    factors = 4

    def round(self, seed: int, index: int) -> list:
        rng = round_rng(self.name, seed, index)
        jobs = []
        for n in self.sizes_per_round:
            kinds = tuple(rng.choice(("circle", "line")) for _ in range(self.factors))
            pts: list = []
            while len(pts) < n:
                p = tuple(F(rng.randrange(8), 8) for _ in range(self.factors))
                if p not in pts:
                    pts.append(p)
            # half the fresh points sit next to an input point, inside the moves' bumps
            fresh = [
                tuple(F(rng.randrange(64), 64) for _ in range(self.factors)),
                tuple(F(rng.randrange(64), 64) for _ in range(self.factors)),
            ] + [
                tuple((c + F(rng.choice((-3, -1, 1, 3)), 128)) % 1 for c in rng.choice(pts))
                for _ in range(2)
            ]
            jobs.append(Job(f"repair-{n}", {"kinds": kinds, "points": pts, "fresh": fresh}))
        return jobs

    def warmup(self) -> Job:
        return self.round(0, -1)[0]

    def prepare(self, job: Job):
        space = ProductSpace([CIRCLE if k == "circle" else LINE for k in job.spec["kinds"]])
        return space, [space.point(dict(enumerate(p))) for p in job.spec["points"]]

    def build(self, job: Job, inputs):
        space, points = inputs
        return collision_repair_gpp(points, space)

    def check_build(self, job: Job, inputs, result):
        space, points = inputs
        check(len(result.points) == len(points), "repair changed the number of points")
        check(check_general_position(result.points).in_general_position,
              "repaired points are not in general position")
        check(result.moves == result.certificate.stage_count, "move count disagrees with the certificate")

    def verify(self, job: Job, inputs, result):
        desc = json.loads(json.dumps(result.certificate.describe()))
        space = ProductSpace([factor_from_descriptor(f) for f in desc["space"]["factors"]])
        stages = [conditional_move_from_descriptor(space, d) for d in desc["stages"]]
        return stages, reverify_ledger(space, stages, desc["ledger"])

    def check_verify(self, job: Job, inputs, result, verified):
        stages, verdicts = verified
        check(len(verdicts) == len(stages), "re-verification stopped early")
        check(all(v["ok"] for v in verdicts), "a re-verified ledger entry differs")

    def evaluate(self, job: Job, inputs, result):
        space, _ = inputs
        cert = result.certificate
        out = []
        for p in job.spec["fresh"]:
            y = cert.apply(space.point(dict(enumerate(p))))
            image = coords(y, self.factors)
            out.append((list(p), image, coords(cert.apply_inv(y), self.factors)))
        return out

    def check_eval(self, job: Job, inputs, result, evaluated):
        space, _ = inputs
        for p, _image, back in evaluated:
            check(same_coords(space, back, p), "apply_inv(apply(x)) != x")

    def sizes(self, job: Job, inputs, result) -> dict:
        cert = result.certificate
        doc = {"certificate": cert.describe(), "points": [p.ser() for p in result.points]}
        lip = F(1)
        for stage in cert.stages:
            lip *= stage.lip_backward_bound()
        job.extras.update(
            moves=result.moves,
            initial_collisions=result.collision_history[0],
            shift_bits=max((json_bits(d) for d in doc["certificate"]["stages"]), default=0),
            lip_bits=scalar_bits(lip),
        )
        return doc


# ---------------------------------------------------------------------------
# chain: ConvergenceCertificate chains of small-ball transporters
# ---------------------------------------------------------------------------

MAX_REDRAWS = 64


class Chain(Workload):
    """Exact-circle chains of 10, 12, 12, 12, 16 and 16 stages plus one
    cantor chain of 10 cylinder swaps per round: the median falls inside the
    12-stage class and the 75th percentile inside the 16-stage class.
    Longer chains make a round so slow that a run finishes too few builds
    for a steady 75th percentile."""

    name = "chain"
    classes = (("circle", 10), ("circle", 12), ("circle", 12), ("circle", 12), ("circle", 16),
               ("circle", 16), ("cantor", 10))
    product_count = 3
    cantor_first_depth = 8

    def round(self, seed: int, index: int) -> list:
        rng = round_rng(self.name, seed, index)
        jobs = []
        for kind, n in self.classes:
            if kind == "circle":
                fresh = [_dyadic(rng, 10) for _ in range(4)]
            else:
                fresh = [SymSeq(tuple(rng.randrange(2) for _ in range(14)), rng.randrange(2))
                         for _ in range(4)]
            jobs.append(Job(f"{kind}-{n}", {"kind": kind, "stages": n,
                                            "stage_seed": rng.randrange(1 << 30), "fresh": fresh}))
        return jobs

    def warmup(self) -> Job:
        return self.round(0, -1)[0]

    def prepare(self, job: Job):
        return CIRCLE if job.spec["kind"] == "circle" else CANTOR

    def _draw(self, rng: random.Random, factor, k: int):
        if factor is CIRCLE:
            delta = pow2(-(k + 1))
            center = _dyadic(rng, 10)
            shift = delta * F(rng.randrange(1, 8), 8) * rng.choice((1, -1))
            return small_ball_transporter(CIRCLE, center, center + shift, delta)
        # a cylinder swap differing first at position j: displacement 2^-j,
        # shallower than the first stage's table so the materialised path runs
        j = self.cantor_first_depth if k == 0 else k - 1 + rng.randrange(2)
        stem = tuple(rng.randrange(2) for _ in range(j))
        a = SymSeq(stem + (0,) + tuple(rng.randrange(2) for _ in range(3)), 0)
        b = SymSeq(stem + (1,) + tuple(rng.randrange(2) for _ in range(3)), 0)
        return small_ball_transporter(CANTOR, a, b, pow2(1 - j))

    def build(self, job: Job, factor):
        rng = random.Random(job.spec["stage_seed"])
        cert = ConvergenceCertificate(factor)
        refused = 0
        while cert.stage_count < job.spec["stages"]:
            try:
                cert = cert.append(self._draw(rng, factor, cert.stage_count))
            except BoundViolation:
                refused += 1
                if refused > MAX_REDRAWS:
                    raise
        job.extras["refused"] = refused
        return cert

    def check_build(self, job: Job, factor, cert):
        check(cert.stage_count == job.spec["stages"], "chain has the wrong length")
        check(len(cert.entries) == cert.stage_count, "ledger length differs from the chain")

    def verify(self, job: Job, factor, cert):
        desc = json.loads(json.dumps(cert.describe()))
        stages = [homeo_from_descriptor(d) for d in desc["stages"]]
        return stages, reverify_ledger(factor_from_descriptor(desc["space"]), stages, desc["ledger"])

    def check_verify(self, job: Job, factor, cert, verified):
        stages, verdicts = verified
        check(len(verdicts) == len(stages), "re-verification stopped early")
        check(all(v["ok"] for v in verdicts), "a re-verified ledger entry differs")

    def evaluate(self, job: Job, factor, cert):
        out = {"points": []}
        for x in job.spec["fresh"]:
            y = cert.apply(x)
            lim = cert.limit_eval(x, pow2(-6))
            out["points"].append((x, y, cert.apply_inv(y), lim))
        space = ProductSpace.uniform(factor, count=self.product_count)
        stages = [CoordwiseStage({k % self.product_count: h}) for k, h in enumerate(cert.stages)]
        start = space.point(dict(enumerate(job.spec["fresh"][: self.product_count])))
        p = start
        for stage in stages:
            p = p.apply_stage(stage)
        out["forward"] = coords(p, self.product_count)
        for stage in reversed(stages):
            p = p.apply_stage(stage.inverse())
        out["back"] = coords(p, self.product_count)
        out["start"] = coords(start, self.product_count)
        return out

    def check_eval(self, job: Job, factor, cert, evaluated):
        for x, y, back, lim in evaluated["points"]:
            check(factor.points_equal(back, x), "apply_inv(apply(x)) != x")
            check(factor.metric(lim.value, y) <= lim.error_bound,
                  "limit_eval is outside its error bound")
        expected = list(evaluated["start"])
        for k, h in enumerate(cert.stages):
            a = k % self.product_count
            expected[a] = h.apply(expected[a])
        space = ProductSpace.uniform(factor, count=self.product_count)
        check(same_coords(space, evaluated["forward"], expected),
              "coordinatewise pipeline disagrees with the stages")
        check(same_coords(space, evaluated["back"], evaluated["start"]),
              "coordinatewise pipeline does not invert")

    def sizes(self, job: Job, factor, cert) -> dict:
        job.extras["stages"] = cert.stage_count
        return {"certificate": cert.describe()}


# ---------------------------------------------------------------------------
# twist: greedy_dense_gp, wgpp_transform, block_regroup and boundary_chase
# ---------------------------------------------------------------------------

DISC_FACTORS = (1, 2, 2, 2, 2, 2)


class Twist(Workload):
    """Per round: greedy placement of 8, 16 or 24 points in a countable
    circle or cantor product, each followed by the wgpp twist of the points
    in a seeded order and block regrouping into a seeded number of blocks;
    and two boundary chases of 4 or 5 points in disc(1) x disc(2)^5 followed
    by a glued-pair twist.  The class counts put the median inside the
    16-point cantor class and the 75th percentile inside the 16-point circle
    class.  A 24-point cantor job takes as long as a 16-point circle job
    give or take 50%, so it would blur that percentile."""

    name = "twist"
    exact_jobs = (("circle", 8), ("cantor", 8), ("cantor", 16), ("cantor", 16), ("cantor", 16),
                  ("circle", 16), ("circle", 16), ("circle", 24))
    depth = 24
    disc_points = (4, 5)
    discs_per_round = 2

    def round(self, seed: int, index: int) -> list:
        rng = round_rng(self.name, seed, index)
        jobs = []
        for kind, n in self.exact_jobs:
            order = list(range(n))
            rng.shuffle(order)
            jobs.append(Job(f"{kind}-{n}", {
                "kind": kind, "points": n, "order": order, "blocks": rng.randint(2, 4),
            }))
        for _ in range(self.discs_per_round):
            n = rng.choice(self.disc_points)
            jobs.append(Job(f"disc-{n}", {"kind": "disc", "points": self._disc_points(rng, n)}))
        return jobs

    def warmup(self) -> Job:
        return Job("cantor-8", {"kind": "cantor", "points": 8, "order": list(range(8)), "blocks": 4})

    @staticmethod
    def _disc_points(rng: random.Random, n: int) -> list:
        pts = []
        for i in range(n):
            on_sphere = rng.randrange(len(DISC_FACTORS)) if i % 2 == 0 else None
            p = []
            for a, dim in enumerate(DISC_FACTORS):
                v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
                r = 1.0 if a == on_sphere else rng.uniform(0.05, 0.9)
                norm = sum(c * c for c in v) ** 0.5
                p.append(tuple(c / norm * r for c in v))
            pts.append(p)
        return pts

    def prepare(self, job: Job):
        kind = job.spec["kind"]
        if kind == "disc":
            space = ProductSpace([DiscSpace(d) for d in DISC_FACTORS])
            return space, [space.point(dict(enumerate(p))) for p in job.spec["points"]]
        factor = CIRCLE if kind == "circle" else CANTOR
        return ProductSpace.uniform(factor, working_depth=self.depth), None

    def build(self, job: Job, inputs):
        space, points = inputs
        if job.spec["kind"] == "disc":
            chase = boundary_chase(points, space)
            moved = chase.points

            def family(a):
                return glue_pairs(("disc", 2), ("disc", 1), [p.coord(a) + p.coord(0) for p in moved])

            return {"chase": chase, "twist": wgpp_transform(moved, family)}
        factor = space.factor(0)
        placed = greedy_dense_gp(space, job.spec["points"])
        ordered = [placed.points[i] for i in job.spec["order"]]
        twist = wgpp_transform(ordered, lambda a: group_pair(factor))
        plan = block_regroup(twist.points, space, omega_star=twist.omega,
                             block_count=job.spec["blocks"])
        job.extras["placed"] = len(placed.points)
        return {"placed": placed, "twist": twist, "plan": plan}

    @staticmethod
    def _separated(space, points, indices) -> bool:
        return all(
            not space.factor(a).points_equal(p.coord(a), q.coord(a))
            for i, p in enumerate(points) for q in points[i + 1:] for a in indices
        )

    @staticmethod
    def _twist_lemma(space, twist) -> bool:
        """Pairs now differ wherever they agreed inside omega, and still
        differ wherever they differed outside it."""
        moved = twist.points
        for (i, j), dis in twist.report_before.disagreements.items():
            for a in space.indices():
                if (a in twist.omega) != (a in dis) and space.factor(a).points_equal(
                        moved[i].coord(a), moved[j].coord(a)):
                    return False
        return True

    def check_build(self, job: Job, inputs, out):
        space, points = inputs
        twist = out["twist"]
        check(self._twist_lemma(space, twist), "the twist broke its separation guarantee")
        if job.spec["kind"] == "disc":
            chased = out["chase"].points
            check(all(sum(c * c for c in p.coord(a)) < 1.0 for p in chased for a in space.indices()),
                  "chased point left on the boundary")
            check(self._separated(space, chased, (0,)), "first projection is not injective")
            return
        placed = out["placed"]
        check(len(placed.points) == job.spec["points"], "greedy placed the wrong number of points")
        check(check_general_position(placed.points).in_general_position,
              "greedy points agree at some coordinate")
        check(check_regrouped_general_position(twist.points, out["plan"]).in_general_position,
              "block view is not in general position")

    def _doc(self, space, out) -> dict:
        twist = out["twist"]
        depth = len(space.indices())
        doc = {
            "space": space.descriptor(),
            "stage": twist.stage.descriptor(),
            "points": [[space.factor(a).ser_point(p.coord(a)) for a in range(depth)]
                       for p in twist.points],
        }
        if "plan" in out:
            doc["blocks"] = [list(b) for b in out["plan"].blocks]
        else:
            doc["chase"] = [s.descriptor() for s in out["chase"].stages]
        return doc

    def verify(self, job: Job, inputs, out):
        desc = json.loads(json.dumps(self._doc(inputs[0], out)))
        factors = [factor_from_descriptor(f) for f in desc["space"]["factors"]]
        if desc["space"]["count"] is None:
            space = ProductSpace.uniform(factors[0], working_depth=desc["space"]["working_depth"])
        else:
            space = ProductSpace(factors)
        points = [space.point({a: space.factor(a).de_point(v) for a, v in enumerate(p)})
                  for p in desc["points"]]
        injective = self._separated(space, points, (0,))
        if "blocks" in desc:
            plan = PartitionPlan(tuple(tuple(b) for b in desc["blocks"]), {}, (), len(factors))
            return injective, check_regrouped_general_position(points, plan).in_general_position
        interior = all(sum(c * c for c in p.coord(a)) < 1.0 for p in points for a in space.indices())
        return injective, interior

    def check_verify(self, job: Job, inputs, out, verified):
        injective, placed = verified
        check(injective, "first projection read back from JSON is not injective")
        check(placed, "points read back from JSON are off the boundary or block view fails")

    def evaluate(self, job: Job, inputs, out):
        space, _ = inputs
        depth = len(space.indices())
        back = [p.apply_stage(out["twist"].stage.inverse()) for p in out["twist"].points]
        if job.spec["kind"] == "disc":
            for stage in reversed(out["chase"].stages):
                back = [p.apply_stage(stage.inverse()) for p in back]
        return [coords(p, depth) for p in back]

    def check_eval(self, job: Job, inputs, out, evaluated):
        space, points = inputs
        depth = len(space.indices())
        if points is None:
            points = [out["placed"].points[i] for i in job.spec["order"]]
        for p, back in zip(points, evaluated):
            check(same_coords(space, back, coords(p, depth)), "inverse twist does not recover the input")

    def sizes(self, job: Job, inputs, out) -> dict:
        return self._doc(inputs[0], out)


WORKLOADS = {w.name: w for w in (Repair(), Chain(), Twist())}
