"""Inductive convergence certificates: bound checks, limits, double limits."""

from __future__ import annotations

import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdhkit import convergence, homeos
from cdhkit.convergence import ConvergenceCertificate, double_limit_defect, reverify_ledger
from cdhkit.errors import (
    BoundViolation,
    CdhError,
    PreconditionError,
    SpaceMismatch,
    UnsupportedOperation,
)
from cdhkit.genpos import (
    CollarShrinkStage,
    ConditionalMoveStage,
    FloatConditionalStage,
    WgppStage,
    collision_repair_gpp,
    conditional_move_from_descriptor,
)
from cdhkit.homeos import (
    CylinderHomeo,
    compose,
    homeo_from_descriptor,
    identity_for,
    realize_finite_bijection,
    small_ball_transporter,
    sup_distance,
)
from cdhkit.pairs import group_pair
from cdhkit.rationals import parse_scalar, pow2
from cdhkit.spaces import (
    CANTOR,
    CIRCLE,
    LINE,
    CoordwiseStage,
    DiscSpace,
    ProductPoint,
    ProductSpace,
    ProductStage,
    SymSeq,
    factor_from_descriptor,
)

F = Fraction


def _sibling_swap(rng: random.Random, depth: int) -> CylinderHomeo:
    """Swap the two depth-(depth) extensions of a random depth-(depth-1) prefix."""
    c = tuple(rng.randint(0, 1) for _ in range(depth - 1))
    return CylinderHomeo(CANTOR, depth, {c + (0,): c + (1,), c + (1,): c + (0,)})


def _valid_certificate(rng: random.Random, length: int) -> ConvergenceCertificate:
    """Stage k moves inside a depth-k cylinder: displacement 2^-k <= 2^-(k-1)."""
    cert = ConvergenceCertificate(CANTOR)
    cert = cert.append(_sibling_swap(rng, 1))
    for k in range(1, length):
        cert = cert.append(_sibling_swap(rng, k + 1))
    return cert


def _random_seq(rng: random.Random, length: int = 16) -> SymSeq:
    return SymSeq(tuple(rng.randint(0, 1) for _ in range(length)), 0)


# ---------------------------------------------------------------------------
# append: acceptance and rejection
# ---------------------------------------------------------------------------

def test_append_identity_always_accepted():
    rng = random.Random(0)
    cert = _valid_certificate(rng, 5)
    for _ in range(3):
        cert = cert.append(identity_for(CANTOR))
    assert cert.stage_count == 8


def test_append_first_stage_unrestricted():
    # a displacement-1 stage is fine at index 0
    big = CylinderHomeo(CANTOR, 1, {(0,): (1,), (1,): (0,)})
    cert = ConvergenceCertificate(CANTOR).append(big)
    assert cert.entries[0].method == "exempt"


def test_append_accepts_exact_equality_bound():
    # appending at index 4 carries bound 2^-3; a depth-4 swap inside a fixed
    # depth-3 cylinder has displacement exactly 2^-3
    rng = random.Random(1)
    cert = _valid_certificate(rng, 4)  # stages 0..3
    h = CylinderHomeo(CANTOR, 4, {(0, 0, 0, 0): (0, 0, 0, 1), (0, 0, 0, 1): (0, 0, 0, 0)})
    assert h.sup_displacement() == pow2(-3)
    cert2 = cert.append(h)
    entry = cert2.entries[-1]
    assert entry.cond1_value == entry.bound == pow2(-3)


def test_append_rejects_bound_violation_with_witness():
    rng = random.Random(2)
    cert = _valid_certificate(rng, 4)
    # displacement 2^-2 > 2^-3
    h = CylinderHomeo(CANTOR, 3, {(0, 0, 0): (0, 0, 1), (0, 0, 1): (0, 0, 0)})
    with pytest.raises(BoundViolation) as info:
        cert.append(h)
    assert info.value.stage == 4
    assert info.value.value == pow2(-2)
    assert info.value.bound == pow2(-3)


def test_condition_two_checked_via_materialized_conjugate():
    # first stage swaps at depth 1, so the chain inverse is not an isometry on
    # depth-0 scales; a depth-1-level move at a later stage must be rejected by
    # condition (1) long before condition (2) matters -- craft a condition-(2)
    # failure instead: exchange two cylinders far apart under H_0^-1.
    h0 = CylinderHomeo(CANTOR, 2, {(0, 0): (1, 1), (1, 1): (0, 0)})
    cert = ConvergenceCertificate(CANTOR).append(h0)
    # candidate swaps (1,1,0)<->(1,1,1): displacement 2^-2 <= 2^-0, fine for (1).
    # Under conjugation by H_0 the moved pair pulls back to cylinder (0,0),
    # still displacement 2^-2, so this is accepted; check the ledger method.
    h1 = CylinderHomeo(CANTOR, 3, {(1, 1, 0): (1, 1, 1), (1, 1, 1): (1, 1, 0)})
    cert2 = cert.append(h1)
    assert cert2.entries[-1].method in ("exact", "exact-isometry")
    assert cert2.entries[-1].cond2_value == pow2(-2)


def test_mutation_of_valid_sequence_is_rejected():
    rng = random.Random(3)
    stages = []
    cert = ConvergenceCertificate(CANTOR)
    cert = cert.append(_sibling_swap(rng, 1))
    stages.append(cert.stages[0])
    for k in range(1, 8):
        h = _sibling_swap(rng, k + 1)
        cert = cert.append(h)
        stages.append(h)
    # flip stage 5 to a shallow swap: displacement 2^-3 > 2^-4
    mutant = list(stages)
    mutant[5] = _sibling_swap(rng, 4)
    rebuilt = ConvergenceCertificate(CANTOR)
    with pytest.raises(BoundViolation) as info:
        for h in mutant:
            rebuilt = rebuilt.append(h)
    assert info.value.stage == 5


# ---------------------------------------------------------------------------
# limit evaluation
# ---------------------------------------------------------------------------

def test_limit_eval_identity_stages():
    cert = ConvergenceCertificate(CANTOR)
    for _ in range(4):
        cert = cert.append(identity_for(CANTOR))
    x = SymSeq((1, 0, 1), 0)
    res = cert.limit_eval(x, F(1, 1000))
    assert res.value == x
    assert res.error_bound == 0


def test_limit_eval_truncation_bound_formula():
    rng = random.Random(4)
    cert = _valid_certificate(rng, 12)
    x = _random_seq(rng)
    eps = pow2(-6)
    res = cert.limit_eval(x, eps)
    # N is minimal with 2^-(N-1) < eps; eps = 2^-6 forces N = 8, bound 2^-7
    assert res.error_bound == pow2(-7)
    assert res.error_bound < eps
    # the reported value is the exact partial composition at N
    assert res.value == cert.partial(x, 8)
    # defect against the full composition is inside the bound
    assert CANTOR.metric(res.value, cert.apply(x)) <= res.error_bound


def test_limit_inv_eval_single_stage():
    h0 = CylinderHomeo(CANTOR, 1, {(0,): (1,), (1,): (0,)})
    cert = ConvergenceCertificate(CANTOR).append(h0)
    x = SymSeq((1, 1), 0)
    res = cert.limit_inv_eval(x, F(1, 10))
    assert res.value == h0.invert().apply(x)
    assert res.error_bound == 0


def test_an_empty_certificate_evaluates_its_limit_as_the_identity():
    cert = ConvergenceCertificate(CANTOR)
    assert cert.tail_residual() is None
    x = SymSeq((1, 0, 1), 0)
    for evaluate in (cert.limit_eval, cert.limit_inv_eval):
        res = evaluate(x, F(1, 10))
        assert (res.value, res.error_bound, res.tail_residual) == (x, 0, None)


@pytest.mark.parametrize("eps", [0, -1, F(-1, 8), 0.0])
def test_limit_eval_refuses_an_eps_that_is_not_positive(eps):
    empty = ConvergenceCertificate(CANTOR)
    cert = _valid_certificate(random.Random(4), 6)
    for c in (empty, cert):
        for evaluate in (c.limit_eval, c.limit_inv_eval):
            with pytest.raises(PreconditionError, match="eps must be positive"):
                evaluate(SymSeq((1,), 0), eps)


@pytest.mark.parametrize("eps", ["x", None, float("inf"), float("-inf"), float("nan"), True, False,
                                 [F(1, 8)]],
                         ids=["str", "none", "inf", "-inf", "nan", "true", "false", "list"])
def test_limit_eval_refuses_an_eps_that_is_not_a_finite_number(eps):
    empty = ConvergenceCertificate(CANTOR)
    cert = _valid_certificate(random.Random(4), 6)
    for c in (empty, cert):
        for evaluate in (c.limit_eval, c.limit_inv_eval):
            with pytest.raises(PreconditionError, match="eps must be a finite real number"):
                evaluate(SymSeq((1,), 0), eps)
            # a positive float is read as the Fraction it is
            assert evaluate(SymSeq((1,), 0), 0.125) == evaluate(SymSeq((1,), 0), F(1, 8))


def test_limit_round_trip_bound():
    rng = random.Random(5)
    cert = _valid_certificate(rng, 12)
    eps = pow2(-5)
    n_trunc = 7  # bound_exponent(2^-5) + 1
    for _ in range(200):
        x = _random_seq(rng)
        fwd = cert.limit_eval(x, eps)
        back = cert.limit_inv_eval(fwd.value, eps)
        assert CANTOR.metric(back.value, x) <= 4 * pow2(-n_trunc)


def test_monotone_refinement():
    rng = random.Random(6)
    cert = _valid_certificate(rng, 12)
    x = _random_seq(rng)
    coarse = cert.limit_eval(x, pow2(-4))
    fine = cert.limit_eval(x, pow2(-9))
    # the finer ball sits inside the coarser one
    assert CANTOR.metric(coarse.value, fine.value) <= coarse.error_bound


@pytest.mark.parametrize("upto", [-3, -2, 3, 4, True, False, 1.0, None])
def test_partials_refuse_an_upto_outside_the_stages(upto):
    cert = _valid_certificate(random.Random(4), 3)
    for partial in (cert.partial, cert.partial_inv):
        with pytest.raises(PreconditionError, match=r"upto must be an int in -1\.\.2"):
            partial(SymSeq((1, 0, 1), 0), upto)


def test_partials_take_every_upto_from_minus_one_to_the_last_stage():
    cert = _valid_certificate(random.Random(4), 3)
    x = SymSeq((1, 0, 1), 0)
    assert cert.partial(x, -1) == cert.partial_inv(x, -1) == x
    assert ConvergenceCertificate(CANTOR).partial(x, -1) == x
    for upto in range(3):
        y = cert.partial(x, upto)
        assert y == cert.stages[upto].apply(cert.partial(x, upto - 1))
        assert cert.partial_inv(y, upto) == x
    assert cert.partial(x, 2) == cert.apply(x)


def _inverse_walk(cert, x, upto):
    """H_upto^-1(x) through every stage inverse, from h_upto down to h_0."""
    for h in reversed(cert.stages[: upto + 1]):
        x = (h.inverse() if isinstance(h, ProductStage) else h.invert()).apply(x)
    return x


def _inverse_case(name):
    """A certificate, points to invert at, and which inverse partial it
    keeps: H_last^-1, an older one, or none."""
    rng = random.Random(8)
    cantor = [_random_seq(rng) for _ in range(4)]

    def moved(cert):
        # points inside each cylinder some stage moves
        return cantor + [SymSeq(c, 1) for h in cert.stages for c in h.table]

    if name == "circle":
        return _exact_circle_chain(12), [F(0), F(1, 3), F(17, 64), F(-5, 4), F(63, 64)], "kept"
    if name == "line":
        return _exact_line_chain(12), [F(0), F(-1, 3), F(17, 64), F(5, 4), F(-63, 64)], "kept"
    if name == "cantor":
        cert = _alternating_cantor_chain(12)
        return cert, moved(cert), "kept"
    if name == "cantor-isometry-last":
        cert = _alternating_cantor_chain(13)
        return cert, moved(cert), "older"
    space, repair = _circle_line_repair()
    xs = [space.point({0: F(1, 3), 1: F(-2, 5)}), space.point({0: F(1, 2), 1: F(1, 2)})]
    return repair.certificate, xs, "none"


@pytest.mark.parametrize("name", ["circle", "line", "cantor", "cantor-isometry-last", "product"])
def test_inverse_partials_equal_the_stage_walk_at_every_upto(name):
    cert, xs, mat = _inverse_case(name)
    last = cert.last_index
    assert mat == ("none" if cert._mat is None else "kept" if cert._mat[1] == last else "older")

    def value(p):
        # product points compare by their coordinates
        return tuple(p.coord(a) for a in range(p.space.count)) if isinstance(p, ProductPoint) else p

    for x in xs:
        walks = [value(_inverse_walk(cert, x, upto)) for upto in range(-1, last + 1)]
        for upto in range(-1, last + 1):
            assert value(cert.partial_inv(x, upto)) == walks[upto + 1], (name, upto)
        assert value(cert.apply_inv(x)) == walks[-1]
        for j in range(-2, last + 1):
            # eps = 2^-j cuts off at stage N = max(1, j + 2), or at the last one
            cut = min(max(1, j + 2), last)
            assert value(cert.limit_inv_eval(x, pow2(-j)).value) == walks[cut + 1], (name, j)
        for upto in (-2, last + 1, True, 1.0):
            with pytest.raises(PreconditionError, match="upto must be an int"):
                cert.partial_inv(x, upto)


# ---------------------------------------------------------------------------
# chain inequalities
# ---------------------------------------------------------------------------

def test_consecutive_partials_within_stage_bound():
    rng = random.Random(7)
    cert = _valid_certificate(rng, 10)
    for _ in range(50):
        x = _random_seq(rng)
        for n in range(cert.stage_count - 1):
            d = CANTOR.metric(cert.partial(x, n + 1), cert.partial(x, n))
            assert d <= pow2(-n)


def test_double_limit_inequality_exact():
    rng = random.Random(8)
    cert = _valid_certificate(rng, 12)
    for _ in range(50):
        x = _random_seq(rng)
        m = rng.randint(1, cert.last_index)
        n = rng.randint(1, cert.last_index)
        k = min(m, n)
        assert double_limit_defect(cert, m, n, x) <= pow2(-(k - 1))
    # the paper's sharper estimate for m > n: 2^-(m-1) + ... + 2^-n < 2^-(n-1)
    for _ in range(50):
        x = _random_seq(rng)
        n = rng.randint(1, cert.last_index - 1)
        m = rng.randint(n + 1, cert.last_index)
        assert double_limit_defect(cert, m, n, x) <= pow2(-(n - 1))


# ---------------------------------------------------------------------------
# ledger re-verification
# ---------------------------------------------------------------------------

def test_reverify_fresh_ledger_passes():
    rng = random.Random(9)
    cert = _valid_certificate(rng, 8)
    verdicts = reverify_ledger(CANTOR, cert.stages, cert.ledger())
    assert all(v["ok"] for v in verdicts)


def test_reverify_detects_edited_bound():
    rng = random.Random(10)
    cert = _valid_certificate(rng, 8)
    ledger = cert.ledger()
    ledger[3]["cond1_value"] = "1/1024"
    verdicts = reverify_ledger(CANTOR, cert.stages, ledger)
    assert not verdicts[3]["ok"]


def test_reverify_stops_at_a_violated_bound():
    cert = _exact_circle_chain(6)
    stages = list(cert.stages)
    # displacement about 1/4 > 2^-3, the condition-(1) bound of stage 4
    stages[4] = small_ball_transporter(CIRCLE, F(0), F(1, 4), F(1, 2))
    verdicts = reverify_ledger(CIRCLE, stages, cert.ledger())
    assert [v["ok"] for v in verdicts] == [True] * 4 + [False]
    assert verdicts[-1]["stage"] == 4
    assert "violation" in verdicts[-1]


def test_reverify_refuses_a_ledger_of_another_length():
    cert = _exact_circle_chain(4)
    ledger = cert.ledger()
    with pytest.raises(PreconditionError, match="4 stages but 2 ledger entries"):
        reverify_ledger(CIRCLE, cert.stages, ledger[:2])
    with pytest.raises(PreconditionError, match="4 stages but 5 ledger entries"):
        reverify_ledger(CIRCLE, cert.stages, ledger + [ledger[-1]])
    with pytest.raises(PreconditionError, match="3 stages but 4 ledger entries"):
        reverify_ledger(CIRCLE, cert.stages[:3], ledger)
    assert [v["ok"] for v in reverify_ledger(CIRCLE, cert.stages, ledger)] == [True] * 4


def test_reverify_refuses_stages_or_entries_that_are_not_lists():
    cert = _exact_circle_chain(2)
    ledger = cert.ledger()
    for stages, entries, names in [(cert.stages, 2, "tuple and int"),
                                   (cert.stages, None, "tuple and NoneType"),
                                   (None, ledger, "NoneType and list"),
                                   (cert.stages, {"0": ledger[0]}, "tuple and dict")]:
        with pytest.raises(PreconditionError, match=f"must be lists, not {names}"):
            reverify_ledger(CIRCLE, stages, entries)


# ---------------------------------------------------------------------------
# ledger methods: lipschitz (product stages), exact-isometry
# ---------------------------------------------------------------------------

def _circle_line_repair():
    space = ProductSpace([CIRCLE, LINE])
    points = [
        space.point({0: F(0), 1: F(0)}),
        space.point({0: F(0), 1: F(1, 2)}),
        space.point({0: F(1, 4), 1: F(1, 2)}),
    ]
    return space, collision_repair_gpp(points, space)


def test_double_limit_defect_of_a_product_repair_within_the_ledger():
    space = ProductSpace([CIRCLE, LINE, CIRCLE])
    points = [space.point({0: F(a, 4), 1: F(b, 2), 2: F(c, 4)})
              for a, b, c in [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (2, 1, 1)]]
    cert = collision_repair_gpp(points, space).certificate
    n = cert.last_index
    assert n >= 4
    xs = points + [space.point({0: F(1, 3), 1: F(-2, 5), 2: F(5, 7)})]
    for m in range(n + 1):
        # d(H_m^-1(y), H_n^-1(y)) telescopes over the condition-(2) values
        tail = sum((e.cond2_value for e in cert.entries[m + 1:]), F(0))
        for x in xs:
            assert double_limit_defect(cert, m, n, x) <= tail


def test_ledger_lipschitz_entries_of_a_product_repair():
    space, result = _circle_line_repair()
    cert = result.certificate
    assert 2 <= cert.stage_count <= 3
    lip = F(1)
    for k, (stage, entry) in enumerate(zip(cert.stages, cert.entries)):
        assert entry.method == ("exempt" if k == 0 else "lipschitz")
        assert entry.cond1_value == pow2(-stage.alpha) * abs(stage.shift)
        if k > 0:
            assert entry.cond2_value == lip * entry.cond1_value
            assert entry.cond1_value <= entry.bound == pow2(-(k - 1))
        lip *= stage.lip_backward_bound()
    desc = json.loads(json.dumps(cert.describe()))
    rebuilt = ProductSpace([factor_from_descriptor(f) for f in desc["space"]["factors"]])
    stages = [conditional_move_from_descriptor(rebuilt, d) for d in desc["stages"]]
    verdicts = reverify_ledger(rebuilt, stages, desc["ledger"])
    assert len(verdicts) == cert.stage_count
    assert all(v["ok"] for v in verdicts)


def test_ledger_exact_isometry_below_the_chain_depth():
    h0 = CylinderHomeo(CANTOR, 3, {(0, 0, 0): (1, 1, 1), (1, 1, 1): (0, 0, 0)})
    # moves only inside the depth-4 cylinder [0101]: displacement 2^-4 <= 2^-3
    h1 = CylinderHomeo(CANTOR, 5, {(0, 1, 0, 1, 0): (0, 1, 0, 1, 1),
                                   (0, 1, 0, 1, 1): (0, 1, 0, 1, 0)})
    cert = ConvergenceCertificate(CANTOR).append(h0).append(h1)
    entry = cert.entries[1]
    assert entry.method == "exact-isometry"
    assert entry.cond1_value == entry.cond2_value == pow2(-4)
    desc = json.loads(json.dumps(cert.describe()))
    stages = [homeo_from_descriptor(d) for d in desc["stages"]]
    verdicts = reverify_ledger(factor_from_descriptor(desc["space"]), stages, desc["ledger"])
    assert [v["ok"] for v in verdicts] == [True, True]


_LEDGER_KEYS = ["stage", "bound", "cond1_value", "cond2_value", "method"]


def _ledger_certificate(which: str):
    if which == "circle":
        return CIRCLE, _exact_circle_chain(6)
    if which == "cantor":
        h0 = CylinderHomeo(CANTOR, 3, {(0, 0, 0): (1, 1, 1), (1, 1, 1): (0, 0, 0)})
        h1 = CylinderHomeo(CANTOR, 5, {(0, 1, 0, 1, 0): (0, 1, 0, 1, 1),
                                       (0, 1, 0, 1, 1): (0, 1, 0, 1, 0)})
        h2 = CylinderHomeo(CANTOR, 4, {(1, 0, 0, 0): (1, 0, 0, 1), (1, 0, 0, 1): (1, 0, 0, 0)})
        cert = ConvergenceCertificate(CANTOR).append(h0).append(h1).append(h2)
        assert [e.method for e in cert.entries] == ["exempt", "exact-isometry", "exact"]
        return CANTOR, cert
    space, result = _circle_line_repair()
    return space, result.certificate


def _edited(key: str, value):
    if key == "method":
        return "exact" if value != "exact" else "lipschitz"
    return "1/3" if value != "1/3" else "1/5"


@pytest.mark.parametrize("which", ["circle", "cantor", "repair"])
def test_ledger_rows_state_one_bound_and_reverify_every_field(which):
    space, cert = _ledger_certificate(which)
    ledger = json.loads(json.dumps(cert.describe()))["ledger"]
    assert len(ledger) >= 2
    assert all(list(row) == _LEDGER_KEYS for row in ledger)
    assert ledger[0]["bound"] is None and ledger[0]["cond2_value"] is None
    assert ledger[0]["method"] == "exempt"
    for k, row in enumerate(ledger[1:], start=1):
        bound = parse_scalar(row["bound"])
        assert bound == pow2(-(k - 1)) == cert.entries[k].bound
        assert max(parse_scalar(row["cond1_value"]), parse_scalar(row["cond2_value"])) <= bound
    assert all(v["ok"] for v in reverify_ledger(space, cert.stages, ledger))
    for k, row in enumerate(ledger):
        for key in _LEDGER_KEYS[1:]:
            edited = [dict(r) for r in ledger]
            edited[k][key] = _edited(key, row[key])
            verdicts = reverify_ledger(space, cert.stages, edited)
            assert [v["ok"] for v in verdicts] == [i != k for i in range(len(ledger))], (k, key)


def _exact_circle_chain(length: int) -> ConvergenceCertificate:
    rng = random.Random(3)
    cert = ConvergenceCertificate(CIRCLE)
    while cert.stage_count < length:
        k = cert.stage_count
        delta = pow2(-(k + 1))
        center = F(rng.randrange(64), 64)
        try:
            cert = cert.append(small_ball_transporter(CIRCLE, center, center + delta / 2, delta))
        except BoundViolation:
            continue
    return cert


def test_an_exact_circle_append_builds_no_fraction_view():
    # `breaks` is a PL map's view of its points as Fractions, built on first
    # read and kept in the map's __dict__; no kernel of an append reads it
    rng = random.Random(3)
    cert = ConvergenceCertificate(CIRCLE)
    seen = []  # each stage, its inverse and each kept partial, read by later appends
    while cert.stage_count < 12:
        delta = pow2(-(cert.stage_count + 1))
        center = F(rng.randrange(64), 64)
        h = small_ball_transporter(CIRCLE, center, center + delta / 2, delta)
        try:
            cert = cert.append(h)
        except BoundViolation:
            continue
        seen += [h, h.invert(), cert._mat[0]]
    assert [e.method for e in cert.entries[1:]] == ["exact"] * 11
    assert not [m for m in seen if "breaks" in vars(m)]


def test_exact_entries_match_a_composition_from_stage_zero():
    cert = _exact_circle_chain(8)
    assert [e.method for e in cert.entries[1:]] == ["exact"] * 7
    acc = identity_for(CIRCLE)
    for h, entry in zip(cert.stages, cert.entries):
        if entry.method == "exact":
            conj = compose(compose(acc, h), acc.invert())
            assert entry.cond2_value == conj.sup_displacement()
        acc = compose(acc, h)


def test_exact_circle_chain_describes_the_recorded_document():
    doc = json.dumps(_exact_circle_chain(12).describe())
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "6a9a9ea579aac5e7beb5fc4ff113d36fd00db19edc800fc4ea2ba38a2e2c5f24")


def _exact_line_chain(length: int) -> ConvergenceCertificate:
    rng = random.Random(5)
    cert = ConvergenceCertificate(LINE)
    while cert.stage_count < length:
        k = cert.stage_count
        delta = pow2(-(k + 1))
        center = F(rng.randrange(-64, 64), 64)
        try:
            cert = cert.append(small_ball_transporter(LINE, center, center - delta / 3, delta))
        except BoundViolation:
            continue
    return cert


def test_exact_line_and_circle_chains_keep_their_recorded_outputs():
    # the descriptors and ledgers of both chains, with their full composites
    # and the inverses, which every PL kernel path builds and evaluates
    docs = []
    for cert in (_exact_line_chain(16), _exact_circle_chain(16)):
        total = functools.reduce(compose, cert.stages)
        probes = [F(k, 37) for k in range(-40, 41)]
        docs.append({**cert.describe(),
                     "composite": total.descriptor(),
                     "inverse": total.invert().descriptor(),
                     "values": [str(cert.apply(x)) for x in probes],
                     "inverse_values": [str(cert.apply_inv(x)) for x in probes]})
    doc = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "58fdb6e3f869adad9a894ca3319652acd22552275ad6407af0a4d2523b8891bb")


def _drawn_stage(rng: random.Random, factor, k: int, whole: bool):
    """A stage for index k as the chain workload draws it, a small-ball
    transporter with delta 2^-(k+1), sometimes inverted; with `whole`,
    stages 0 to 2 may be a half turn or a reversing circle map, whose moved
    arc is the whole circle."""
    if whole and factor is CIRCLE and k <= 2 and rng.random() < 0.5:
        c = F(rng.randrange(64), 64)
        if rng.random() < 0.5:
            return small_ball_transporter(CIRCLE, c, c + F(1, 2), F(3, 4))
        # c + 1/4 and c + 3/4 swap: the cyclic order reverses
        return realize_finite_bijection(CIRCLE, {c: c, c + F(1, 4): c + F(3, 4), c + F(1, 2): c + F(1, 2)})
    delta = pow2(-(k + 1))
    lo, hi = (0, 1 << 10) if factor is CIRCLE else (-(1 << 11), 1 << 11)
    center = F(rng.randrange(lo, hi), 1 << 10)
    h = small_ball_transporter(factor, center, center + delta * F(rng.randrange(1, 8), 8)
                               * rng.choice((1, -1)), delta)
    return h.invert() if rng.random() < 0.3 else h


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((CIRCLE, LINE)), st.integers(1, 40), st.integers(0, 1 << 30), st.booleans())
def test_condition_2_read_over_the_moved_arcs_is_the_full_walks_value(factor, length, seed, whole):
    rng = random.Random(seed)
    cert = ConvergenceCertificate(factor)
    while cert.stage_count < length:
        h = _drawn_stage(rng, factor, cert.stage_count, whole)
        if cert.stage_count:
            mat = cert._materialize()
            full = sup_distance(compose(h.invert(), mat), mat)
        try:
            cert = cert.append(h)
        except BoundViolation:
            continue
        if cert.stage_count > 1:
            assert cert.entries[-1].cond2_value == full
    desc = json.loads(json.dumps(cert.describe()))
    stages = [homeo_from_descriptor(d) for d in desc["stages"]]
    verdicts = reverify_ledger(factor_from_descriptor(desc["space"]), stages, desc["ledger"])
    assert len(verdicts) == length and all(v["ok"] for v in verdicts)


def _counted_compose(monkeypatch) -> list:
    """Counts compose calls, from the certificate and from inside homeos."""
    calls = []

    def counted(g, h):
        calls.append(1)
        return compose(g, h)

    monkeypatch.setattr(convergence, "compose", counted)
    monkeypatch.setattr(homeos, "compose", counted)
    return calls


def test_exact_chain_composes_each_partial_once(monkeypatch):
    stages = _exact_circle_chain(12).stages
    calls = _counted_compose(monkeypatch)
    cert = ConvergenceCertificate(CIRCLE)
    for h in stages:
        cert = cert.append(h)
    assert [e.method for e in cert.entries[1:]] == ["exact"] * 11
    # H_0^-1 is stage 0's own inverse, so no composition; then
    # H_{n+1}^-1 = H_n^-1 o h^-1 once per append and no conjugate
    assert len(calls) == len(stages) - 1


def test_exact_chain_builds_one_inverse_per_partial(monkeypatch):
    # rebuilt from their descriptors, the stages hold no inverse yet
    stages = [homeo_from_descriptor(h.descriptor()) for h in _exact_circle_chain(12).stages]
    calls = []
    circle_through = homeos._circle_through

    def counted(pts, orientation):
        calls.append(1)
        return circle_through(pts, orientation)

    monkeypatch.setattr(homeos, "_circle_through", counted)
    cert = ConvergenceCertificate(CIRCLE)
    for h in stages:
        cert = cert.append(h)
    assert [e.method for e in cert.entries[1:]] == ["exact"] * 11
    # only stage inverses build circle maps, each once and kept on its stage;
    # H_0^-1 is stage 0's, and no identity partial is built
    assert len(calls) == len(stages)


def test_exact_appends_touch_only_what_each_stage_moves(monkeypatch):
    stages = _exact_circle_chain(48).stages
    calls = []

    def counting(evaluate):
        def counted(*args):
            calls.append(1)
            return evaluate(*args)
        return counted

    # the two segment evaluators: `_at` for the merged-break walk and the
    # composite's breaks, `_on` for a value returned as a Fraction
    for name in ("_at", "_on"):
        monkeypatch.setattr(homeos.PLCircleHomeo, name, counting(getattr(homeos.PLCircleHomeo, name)))
    cert = ConvergenceCertificate(CIRCLE)
    for h in stages:
        cert = cert.append(h)
    assert [e.method for e in cert.entries[1:]] == ["exact"] * 47
    # H_n^-1 holds about 3n breaks, but a stage moves only the few inside
    # its support: a bounded number of evaluations per append, not O(n)
    assert 0 < len(calls) <= 12 * len(stages)


def _alternating_cantor_chain(length: int) -> ConvergenceCertificate:
    """Exact appends at odd stages, exact-isometry appends at even ones."""
    rng = random.Random(4)
    cert = ConvergenceCertificate(CANTOR).append(_sibling_swap(rng, 1))
    while cert.stage_count < length:
        k = cert.stage_count
        try:
            nxt = cert.append(_sibling_swap(rng, rng.randint(k, k + 3)))
        except BoundViolation:
            continue
        if nxt.entries[-1].method == ("exact" if k % 2 else "exact-isometry"):
            cert = nxt
    return cert


def test_alternating_chain_composes_onto_the_last_built_partial(monkeypatch):
    stages = _alternating_cantor_chain(13).stages
    calls = _counted_compose(monkeypatch)
    cert = ConvergenceCertificate(CANTOR)
    for h in stages:
        cert = cert.append(h)
    assert [e.method for e in cert.entries[1:]] == ["exact", "exact-isometry"] * 6
    # an isometry append passes H_m on: each exact append composes at most
    # the stage before it and h o H_n, and no conjugate
    assert len(calls) <= len(stages)
    # a swap refused by condition (1) builds nothing
    calls.clear()
    for _ in range(2):
        with pytest.raises(BoundViolation, match=r"condition \(1\)"):
            cert.append(_sibling_swap(random.Random(0), 1))
    assert calls == []


def test_append_refused_by_condition_2_keeps_its_partial(monkeypatch):
    h0 = CylinderHomeo(CANTOR, 2, {(0, 0): (0, 1), (0, 1): (0, 0)})
    h1 = CylinderHomeo(CANTOR, 2, {(0, 0): (1, 0), (1, 0): (0, 0)})
    cert = ConvergenceCertificate(CANTOR).append(h0).append(h1)
    assert cert.entries[1].method == "exact"
    # c1 = 1/2 passes the bound 1/2; the condition-(2) value is 1
    h2 = CylinderHomeo(CANTOR, 3, {(0, 0, 0): (0, 1, 0), (0, 1, 0): (0, 0, 0)})
    calls = _counted_compose(monkeypatch)
    for _ in range(2):
        with pytest.raises(BoundViolation, match=r"condition \(2\)"):
            cert.append(h2)
    # H_1 came with the certificate: each attempt composes h2 o H_1 alone
    assert len(calls) == 2


def test_over_cap_composition_is_refused_on_every_attempt(monkeypatch):
    monkeypatch.setattr(convergence, "_MATERIALIZE_CAP", 8)
    h0 = CylinderHomeo(CANTOR, 1, {(0,): (1,), (1,): (0,)})
    # moves inside one depth-4 cylinder: appended through the isometry path
    h1 = CylinderHomeo(CANTOR, 5, {(0, 0, 0, 0, 0): (0, 0, 0, 0, 1),
                                   (0, 0, 0, 0, 1): (0, 0, 0, 0, 0)})
    cert = ConvergenceCertificate(CANTOR).append(h0).append(h1)
    assert cert.entries[1].method == "exact-isometry"
    # displacement 1/2 > 2^-5 needs H_1 at depth 5: 32 table entries
    h2 = CylinderHomeo(CANTOR, 2, {(0, 0): (0, 1), (0, 1): (0, 0)})
    for _ in range(2):
        with pytest.raises(UnsupportedOperation, match="too large"):
            cert.append(h2)


def test_over_cap_composition_is_refused_after_an_exact_append(monkeypatch):
    monkeypatch.setattr(convergence, "_MATERIALIZE_CAP", 8)
    h0 = CylinderHomeo(CANTOR, 1, {(0,): (1,), (1,): (0,)})
    h1 = CylinderHomeo(CANTOR, 4, {(0, 0, 0, 0): (1, 0, 0, 0), (1, 0, 0, 0): (0, 0, 0, 0)})
    cert = ConvergenceCertificate(CANTOR).append(h0).append(h1)
    assert cert.entries[1].method == "exact"
    # the append built H_1 = h1 o h0 at depth 4: 14 table entries
    h2 = CylinderHomeo(CANTOR, 2, {(0, 0): (0, 1), (0, 1): (0, 0)})
    for _ in range(2):
        with pytest.raises(UnsupportedOperation, match="too large"):
            cert.append(h2)


# ---------------------------------------------------------------------------
# stages without certified bounds
# ---------------------------------------------------------------------------

_CIRCLE_LINE = ProductSpace([CIRCLE, LINE])
_DISCS = ProductSpace([DiscSpace(2), DiscSpace(1)])


@pytest.mark.parametrize("space, stage", [
    (_CIRCLE_LINE, CoordwiseStage({0: identity_for(CIRCLE)})),
    (_CIRCLE_LINE, WgppStage(frozenset({1}), {1: group_pair(LINE)})),
    (_DISCS, CollarShrinkStage(F(1, 16), (0, 1))),
    (_DISCS, FloatConditionalStage(_DISCS, 0, 1, (0.0, 0.0), 0.25, (0.01, 0.0), (0.0,), 0.25)),
], ids=["coordwise", "wgpp", "collar-shrink", "float-conditional"])
def test_append_uncertified_product_stage_raises_typed_error(space, stage):
    with pytest.raises(UnsupportedOperation, match=type(stage).__name__):
        ConvergenceCertificate(space).append(stage)
    if space is _CIRCLE_LINE:
        repair = _circle_line_repair()[1].certificate
        with pytest.raises(CdhError):
            repair.append(stage)


_MOVE = ConditionalMoveStage(_CIRCLE_LINE, 0, 1, 0, F(1, 4), F(1, 8), 0, F(1, 4))


@pytest.mark.parametrize("space, first, stage", [
    (CIRCLE, identity_for(CIRCLE), identity_for(LINE)),
    (CIRCLE, identity_for(CIRCLE), _MOVE),
    (_CIRCLE_LINE, _MOVE, small_ball_transporter(CIRCLE, F(0), F(1, 16), F(1, 8))),
], ids=["line-map-on-circle", "product-move-on-circle", "circle-map-on-product"])
def test_append_refuses_a_stage_on_another_space(space, first, stage):
    with pytest.raises(SpaceMismatch):
        ConvergenceCertificate(space).append(stage)
    with pytest.raises(SpaceMismatch):
        ConvergenceCertificate(space).append(first).append(stage)


@pytest.mark.parametrize("bad", [None, "h", F(1, 16), (F(0), F(1, 16))],
                         ids=["none", "str", "fraction", "tuple"])
def test_append_and_reverify_refuse_a_stage_that_is_not_a_map(bad):
    with pytest.raises(PreconditionError, match="stage 0 is a .* not a FactorHomeo or a ProductStage"):
        ConvergenceCertificate(CIRCLE).append(bad)
    cert = _exact_circle_chain(2)
    with pytest.raises(PreconditionError, match="stage 2 is a .* not a FactorHomeo or a ProductStage"):
        cert.append(bad)
    ledger = cert.ledger()
    with pytest.raises(PreconditionError, match="stage 1 is a .* not a FactorHomeo or a ProductStage"):
        reverify_ledger(CIRCLE, [cert.stages[0], bad], ledger)


def test_append_takes_a_stage_on_an_equal_space():
    cert = ConvergenceCertificate(ProductSpace([CIRCLE, LINE])).append(_MOVE)
    assert cert.stages == (_MOVE,)


@pytest.mark.parametrize("first_shift, condition", [(F(0), 1), (F(1, 4), 2)],
                         ids=["lip-1", "lip-above-1"])
def test_a_product_stage_may_fill_the_certificate_room_and_no_more(first_shift, condition):
    space = ProductSpace([LINE, LINE])
    cert = ConvergenceCertificate(space)
    assert cert.displacement_room() == 2  # stage 0 is exempt: the room binds nothing
    cert = cert.append(ConditionalMoveStage(space, 0, 1, 0, F(1, 2), first_shift, 0, F(1, 8)))
    room = cert.displacement_room()

    def move(displacement):  # alpha = 1 halves the shift
        return ConditionalMoveStage(space, 1, 0, 0, F(4), 2 * displacement, 0, F(1))

    entry = cert.append(move(room)).entries[-1]
    assert entry.cond1_value == room and max(entry.cond1_value, entry.cond2_value) == 1
    with pytest.raises(BoundViolation) as info:
        cert.append(move(room + F(1, 1 << 40)))
    assert info.value.condition == condition
