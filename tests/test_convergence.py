"""Inductive convergence certificates: bound checks, limits, double limits."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

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
    small_ball_transporter,
)
from cdhkit.pairs import group_pair
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
    assert entry.cond1_value == entry.cond1_bound == pow2(-3)


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
            assert entry.cond1_value <= entry.cond1_bound == pow2(-(k - 1))
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
        "72e8bf3be718e50414d7e4b2aa7bd082ed771b9cfc2cb6a412e15f4efe6a9a9c")


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
    # H_0 once, then H_{n+1} = h o H_n per append and no conjugate
    assert len(calls) <= len(stages)


def test_exact_chain_builds_one_inverse_per_partial(monkeypatch):
    stages = _exact_circle_chain(12).stages
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
    # the identity, H_0, then H_{n+1} once per append
    assert len(calls) <= len(stages) + 1


def test_exact_appends_touch_only_what_each_stage_moves(monkeypatch):
    stages = _exact_circle_chain(48).stages
    calls = []
    on_segment = homeos._on_segment

    def counted(*args):
        calls.append(1)
        return on_segment(*args)

    monkeypatch.setattr(homeos, "_on_segment", counted)
    cert = ConvergenceCertificate(CIRCLE)
    for h in stages:
        cert = cert.append(h)
    assert [e.method for e in cert.entries[1:]] == ["exact"] * 47
    # H_n^-1 holds about 3n breaks, but a stage moves only the few inside
    # its support: a bounded number of evaluations per append, not O(n)
    assert len(calls) <= 12 * len(stages)


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


def test_append_takes_a_stage_on_an_equal_space():
    cert = ConvergenceCertificate(ProductSpace([CIRCLE, LINE])).append(_MOVE)
    assert cert.stages == (_MOVE,)
