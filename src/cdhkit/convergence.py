"""Certified infinite compositions.

A certificate records a stage list (h_0, h_1, ..., h_n) together with the
two verified per-stage bounds that make the partial compositions
H_i = h_i o ... o h_0 a uniformly convergent sequence with a homeomorphism
limit:

  (1)  sup_x d(h_{i+1}(x), x)              <= 2^-i
  (2)  sup_x d(H_{i+1}^-1(x), H_i^-1(x))   <= 2^-i

Both conditions share one bound.  h_0 is exempt: the first stage may be
anything.  Appending verifies both conditions before extending: factor
stages exactly, product-space stages through certified Lipschitz bounds.
Each ledger row is {stage, bound, cond1_value, cond2_value, method}, with
stage k's bound 2^-(k-1) and, on the exempt row, no bound and no
condition-(2) value.  Every ledger value is a Fraction.

On the exact path a certificate keeps the inverse partial H_n^-1, not H_n:
condition (2) compares two inverse partials, and H_{n+1}^-1 = H_n^-1 o
h_{n+1}^-1 differs from H_n^-1 only where h_{n+1} moves, which is all a PL
composition has to touch.  So condition (2) of a PL stage is read over the
new stage's moved arcs only: off them the two partials are one map, and
the value is the one the walk over every break gives.  The exempt append
of a factor map keeps H_0^-1 = h_0^-1, so every later exact append starts
from a kept partial.
`partial_inv` reads H_m^-1(x) from the kept partial H_m^-1 in one
evaluation, and walks the stage inverses only at any other `upto`.

Limit evaluation truncates at the stage N where the geometric tail
2^-(N-1) drops below the requested precision; the returned value always
carries its guaranteed error bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isfinite
from numbers import Real
from typing import Optional

from .errors import BoundViolation, PreconditionError, SpaceMismatch, UnsupportedOperation
from .homeos import CylinderHomeo, FactorHomeo, compose, composite_distance
from .rationals import ONE, ZERO, bound_exponent, format_scalar, pow2
from .spaces import ProductStage

_MATERIALIZE_CAP = 1 << 16
_LIP_BITS = 32


@dataclass(frozen=True)
class BoundEntry:
    """Ledger row for one appended stage.  Conditions (1) and (2) share one
    `bound`, 2^-(stage-1), which is None on the exempt row 0; `ser` writes
    the row {stage, bound, cond1_value, cond2_value, method}."""

    stage: int
    bound: Optional[Fraction]
    cond1_value: Optional[Fraction]
    cond2_value: Optional[Fraction]
    method: str  # exact | exact-isometry | lipschitz | exempt

    def ser(self) -> dict:
        def s(v):
            return None if v is None else format_scalar(v)

        return {
            "stage": self.stage,
            "bound": s(self.bound),
            "cond1_value": s(self.cond1_value),
            "cond2_value": s(self.cond2_value),
            "method": self.method,
        }


@dataclass(frozen=True)
class EvalResult:
    value: object
    error_bound: Fraction
    tail_residual: Optional[Fraction]


class ConvergenceCertificate:
    """Immutable; `append` returns an extended certificate.

    Stages are factor homeomorphisms or product stages; both `apply` to a
    point and report `sup_displacement`.  Product stages invert through
    `inverse()` and add a Lipschitz bound of their inverse.
    """

    def __init__(self, space):
        self.space = space
        self.stages: tuple = ()
        self.entries: tuple = ()
        self._lip_inv = ONE  # certified, rounded-up Lipschitz bound for H_n^-1
        self._mat = None  # (H_m^-1, m): the last inverse partial an append built

    # -- bookkeeping ---------------------------------------------------------
    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def last_index(self) -> int:
        return len(self.stages) - 1

    def displacement_room(self) -> Fraction:
        """2^-(k-1) / max(1, lip_inv) for the next stage k: a product stage
        that moves no further passes conditions (1) and (2), whose values are
        its displacement and lip_inv times it.  Stage 0 is exempt."""
        return pow2(-(self.stage_count - 1)) / max(ONE, self._lip_inv)

    # -- application ----------------------------------------------------------
    def partial(self, x, upto: int):
        """H_upto(x) = (h_upto o ... o h_0)(x), exact for exact stages; x at
        upto -1, and PreconditionError for an upto not an int in -1..last_index."""
        for h in self._prefix(upto):
            x = h.apply(x)
        return x

    def partial_inv(self, x, upto: int):
        """H_upto^-1(x), with `partial`'s refusals; read from the kept
        inverse partial when it is H_upto^-1, else stage by stage."""
        stages = self._prefix(upto)
        if self._mat is not None and self._mat[1] == upto:
            return self._mat[0].apply(x)
        for h in reversed(stages):
            x = (h.inverse() if isinstance(h, ProductStage) else h.invert()).apply(x)
        return x

    def _prefix(self, upto: int) -> tuple:
        if type(upto) is not int or not -1 <= upto <= self.last_index:
            raise PreconditionError(f"upto must be an int in -1..{self.last_index}, not {upto!r}")
        return self.stages[: upto + 1]

    def apply(self, x):
        return self.partial(x, self.last_index)

    def apply_inv(self, x):
        return self.partial_inv(x, self.last_index)

    # -- appending with verification -------------------------------------------
    def append(self, h) -> "ConvergenceCertificate":
        """The certificate extended by h, once both conditions are verified;
        a violated one raises BoundViolation, and an h that is neither a
        FactorHomeo nor a ProductStage PreconditionError."""
        k = self.stage_count  # index of the new stage
        if not isinstance(h, (FactorHomeo, ProductStage)):
            raise PreconditionError(f"stage {k} is a {type(h).__name__}, not a FactorHomeo "
                                    f"or a ProductStage")
        c1 = h.sup_displacement()
        space = getattr(h, "space", None)
        if space is not self.space and space != self.space:
            raise SpaceMismatch(f"stage {k} lives on another space than the certificate")
        lip = self._lip_inv  # unused for factor stages
        if isinstance(h, ProductStage):
            lip = _round_up(lip * h.lip_backward_bound())
        nxt = None
        if k == 0:
            entry = BoundEntry(0, None, c1, None, "exempt")
            if isinstance(h, FactorHomeo):
                nxt = h.invert()  # H_0^-1, where every exact append starts
        else:
            bound = pow2(-(k - 1))
            if c1 > bound:
                raise BoundViolation(stage=k, condition=1, bound=bound, value=c1)
            c2, method, nxt = self._cond_values(h, c1)
            if c2 > bound:
                raise BoundViolation(stage=k, condition=2, bound=bound, value=c2)
            entry = BoundEntry(k, bound, c1, c2, method)
        cert = ConvergenceCertificate(self.space)
        cert.stages = self.stages + (h,)
        cert.entries = self.entries + (entry,)
        cert._lip_inv = lip
        cert._mat = self._mat if nxt is None else (nxt, k)
        return cert

    def _cond_values(self, h, c1):
        """Condition (2) value for appending h, given its condition (1) value
        c1, plus the method tag and, on the exact path, H_{n+1}^-1.

        On a PL stage the value is read off the merged breaks of H_{n+1}^-1
        and H_n^-1 inside the moved arcs of h^-1 only.  H_{n+1}^-1 =
        H_n^-1 o h^-1 is H_n^-1 off those arcs, so every merged break there
        has gap 0, and `composite_distance` proves the value equal to the
        walk over all of them; a reversing h or one whose arc is the whole
        circle takes that walk."""
        if isinstance(h, ProductStage):
            return self._lip_inv * c1, "lipschitz", None
        if isinstance(h, CylinderHomeo):
            t = max(s.depth for s in self.stages)  # all CylinderHomeos: one space
            if c1 <= pow2(-t):
                # every moved pair stays inside one depth-t cylinder, where the
                # chain inverse acts as an isometry: the conjugate displacement
                # equals the displacement itself
                return c1, "exact-isometry", None
        # exact factor stage: condition (2) is sup_y d(H_{n+1}^-1(y), H_n^-1(y)),
        # taken from the two inverse partials.  At y = H_{n+1}(x) the
        # distance is d(H_n^-1 h H_n(x), x), so this is the sup displacement
        # of the conjugate H_n^-1 o h o H_n, which no kind builds.
        # H_{n+1}^-1 goes to the extension's next append.
        mat = self._materialize()
        h_inv = h.invert()
        nxt = compose(h_inv, mat)
        return composite_distance(h_inv, mat, nxt), "exact", nxt

    def _materialize(self) -> FactorHomeo:
        """H_n^-1: the inverses of stages m+1..n composed under H_m^-1, the
        last inverse partial an append kept; the exempt append keeps H_0^-1."""
        acc, m = self._mat
        for h in self.stages[m + 1:]:
            acc = _capped(compose(h.invert(), acc))
        return _capped(acc)

    # -- limit evaluation -------------------------------------------------------
    def tail_residual(self) -> Optional[Fraction]:
        """What any bound-respecting extension could still move the limit by."""
        if self.stage_count == 0:
            return None
        return pow2(-(self.last_index - 1))

    def limit_eval(self, x, eps) -> EvalResult:
        """The limit at x within eps; an eps that is a bool, not a real
        number, a float that is not finite, or <= 0 raises
        PreconditionError, and a certificate with no stages returns x with
        error 0."""
        return self._limit(self.partial, x, eps)

    def limit_inv_eval(self, x, eps) -> EvalResult:
        """As `limit_eval`, for the inverse of the limit."""
        return self._limit(self.partial_inv, x, eps)

    def _limit(self, partial, x, eps) -> EvalResult:
        if isinstance(eps, bool) or not isinstance(eps, Real) or (
                isinstance(eps, float) and not isfinite(eps)):
            raise PreconditionError(f"eps must be a finite real number, not {eps!r}")
        N = bound_exponent(Fraction(eps)) + 1
        if self.stage_count == 0:
            return EvalResult(x, ZERO, None)
        if N <= self.last_index:
            return EvalResult(partial(x, N), pow2(-(N - 1)), self.tail_residual())
        return EvalResult(partial(x, self.last_index), ZERO, self.tail_residual())

    # -- export -----------------------------------------------------------------
    def ledger(self) -> list:
        return [e.ser() for e in self.entries]

    def describe(self) -> dict:
        return {
            "space": self.space.descriptor(),
            "stages": [h.descriptor() for h in self.stages],
            "ledger": self.ledger(),
        }


def _round_up(x: Fraction) -> Fraction:
    """x while its numerator and denominator fit in _LIP_BITS bits, else the
    least m/2^e >= x with m < 2^_LIP_BITS: sound for a bound, and short.  For
    b the difference of the bit lengths, x 2^(_LIP_BITS-b) lies in
    (2^(_LIP_BITS-1), 2^(_LIP_BITS+1)), so e is _LIP_BITS - b or one less."""
    n, d = x.numerator, x.denominator
    if max(n.bit_length(), d.bit_length()) <= _LIP_BITS:
        return x
    e = _LIP_BITS - (n.bit_length() - d.bit_length())
    m = ceil(x * pow2(e))
    if m >= 1 << _LIP_BITS:
        e -= 1
        m = ceil(x * pow2(e))
    return m * pow2(-e)


def _capped(mat: FactorHomeo) -> FactorHomeo:
    """`mat`, unless its cylinder table is too large to check exactly."""
    if isinstance(mat, CylinderHomeo) and len(mat.table) > _MATERIALIZE_CAP:
        raise UnsupportedOperation(
            "materialized composition too large for an exact condition-(2) "
            "check; use stages supported beyond the chain depth"
        )
    return mat


def double_limit_defect(cert: ConvergenceCertificate, m: int, n: int, x) -> Fraction:
    """d(H_m^-1(H_n(x)), x), the quantity the double-limit estimate bounds;
    the certificate soundness tests read it."""
    return cert.space.metric(cert.partial_inv(cert.partial(x, n), m), x)


def reverify_ledger(space, stages, entries) -> list:
    """Re-checks every recorded bound from the stages alone.

    `entries` are the recorded ledger dicts, as `ledger()` writes them.
    Returns a list of per-entry verdict dicts; every entry must reproduce the
    recorded values bit-exactly.  Raises PreconditionError, before replaying
    anything, when stages or entries are not lists or tuples or their counts differ.
    """
    if not isinstance(stages, (list, tuple)) or not isinstance(entries, (list, tuple)):
        raise PreconditionError(f"stages and ledger entries must be lists, not "
                                f"{type(stages).__name__} and {type(entries).__name__}")
    if len(stages) != len(entries):
        raise PreconditionError(f"{len(stages)} stages but {len(entries)} ledger entries")
    cert = ConvergenceCertificate(space)
    verdicts = []
    for h, recorded in zip(stages, entries):
        try:
            cert = cert.append(h)
            fresh = cert.entries[-1]
            verdicts.append({"stage": fresh.stage, "ok": fresh.ser() == recorded,
                             "method": fresh.method})
        except BoundViolation as e:
            verdicts.append({"stage": e.stage, "ok": False, "violation": str(e)})
            break
    return verdicts
