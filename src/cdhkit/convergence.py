"""Certified infinite compositions.

A certificate records a stage list (h_0, h_1, ..., h_n) together with the
two verified per-stage bounds that make the partial compositions
H_i = h_i o ... o h_0 a uniformly convergent sequence with a homeomorphism
limit:

  (1)  sup_x d(h_{i+1}(x), x)              <= 2^-i
  (2)  sup_x d(H_{i+1}^-1(x), H_i^-1(x))   <= 2^-i

h_0 is exempt: the first stage may be anything.  Appending verifies both
bounds before extending; exact kinds are checked exactly, product-space
stages through certified Lipschitz bounds, float stages through the
displacement their construction declares (tagged "sampled" in the ledger).

Limit evaluation truncates at the stage N where the geometric tail
2^-(N-1) drops below the requested precision; the returned value always
carries its guaranteed error bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BoundViolation, UnsupportedOperation
from .homeos import CylinderHomeo, FactorHomeo, FloatHomeo, compose, identity_for
from .rationals import ZERO, bound_exponent, format_scalar, pow2
from .spaces import ProductSpace, ProductStage

_MATERIALIZE_CAP = 1 << 16


@dataclass(frozen=True)
class BoundEntry:
    """Ledger row for one appended stage."""

    stage: int
    cond1_bound: Optional[Fraction]
    cond1_value: Optional[Fraction]
    cond2_bound: Optional[Fraction]
    cond2_value: Optional[Fraction]
    method: str  # exact | exact-isometry | lipschitz | sampled | exempt

    def ser(self) -> dict:
        def s(v):
            return None if v is None else format_scalar(v)

        return {
            "stage": self.stage,
            "cond1_bound": s(self.cond1_bound),
            "cond1_value": s(self.cond1_value),
            "cond2_bound": s(self.cond2_bound),
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
        self._lip_inv = Fraction(1)  # certified Lipschitz bound for H_n^-1 (product stages)
        self._mat = None          # materialized H_n, exact kinds only
        self._mat_inv = None
        self._inverses = None

    # -- bookkeeping ---------------------------------------------------------
    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def last_index(self) -> int:
        return len(self.stages) - 1

    def chain_table_depth(self) -> int:
        d = 0
        for h in self.stages:
            if isinstance(h, CylinderHomeo):
                d = max(d, h.depth)
        return d

    def _stage_inverses(self):
        if self._inverses is None:
            self._inverses = tuple(
                h.inverse() if isinstance(h, ProductStage) else h.invert() for h in self.stages
            )
        return self._inverses

    # -- application ----------------------------------------------------------
    def partial(self, x, upto: int):
        """H_upto(x) = (h_upto o ... o h_0)(x); exact for exact stages."""
        for h in self.stages[: upto + 1]:
            x = h.apply(x)
        return x

    def partial_inv(self, x, upto: int):
        for h in reversed(self._stage_inverses()[: upto + 1]):
            x = h.apply(x)
        return x

    def apply(self, x):
        return self.partial(x, self.last_index)

    def apply_inv(self, x):
        return self.partial_inv(x, self.last_index)

    # -- appending with verification -------------------------------------------
    def append(self, h) -> "ConvergenceCertificate":
        k = self.stage_count  # index of the new stage
        c1 = Fraction(h.sup_displacement())  # exact value of a float estimate
        lip = self._lip_inv  # unused for factor stages
        if isinstance(h, ProductStage):
            lip *= h.lip_backward_bound()
        mat = None
        if k == 0:
            entry = BoundEntry(0, None, c1, None, None, "exempt")
        else:
            bound = pow2(-(k - 1))
            c2, method, mat = self._cond_values(h, c1)
            if c1 > bound:
                raise BoundViolation(stage=k, condition=1, bound=bound, value=c1)
            if c2 > bound:
                raise BoundViolation(stage=k, condition=2, bound=bound, value=c2)
            entry = BoundEntry(k, bound, c1, bound, c2, method)
        cert = ConvergenceCertificate(self.space)
        cert.stages = self.stages + (h,)
        cert.entries = self.entries + (entry,)
        cert._lip_inv = lip
        cert._mat = mat
        return cert

    def _cond_values(self, h, c1):
        """Condition (2) value for appending h, given its condition (1) value
        c1, plus the method tag and, on the exact path, H_{n+1}."""
        if isinstance(h, ProductStage):
            return self._lip_inv * c1, "lipschitz", None
        if isinstance(h, FloatHomeo):
            # c1 is the declared reach, doubled; the tag predates that rule and
            # stays so that recorded ledgers re-verify byte for byte
            return c1 * 2, "sampled", None
        # exact factor stage: condition (2) equals sup displacement of
        # H_n^-1 o h o H_n.
        if isinstance(h, CylinderHomeo):
            t = self.chain_table_depth()
            if c1 <= pow2(-t):
                # every moved pair stays inside one depth-t cylinder, where the
                # chain inverse acts as an isometry: the conjugate displacement
                # equals the displacement itself
                return c1, "exact-isometry", None
        # H_{n+1} = h o H_n is built on the way and handed to the extension
        nxt = compose(self._materialize(), h)
        return compose(nxt, self._materialize_inv()).sup_displacement(), "exact", nxt

    def _materialize(self) -> FactorHomeo:
        """H_n: handed over by the exact append that made this certificate,
        else composed from stage 0."""
        if self._mat is None:
            acc = identity_for(self.stages[0].space if self.stages else self.space)
            for h in self.stages:
                acc = _capped(compose(acc, h))
            self._mat = acc
        return _capped(self._mat)

    def _materialize_inv(self) -> FactorHomeo:
        if self._mat_inv is None:
            self._mat_inv = self._materialize().invert()
        return self._mat_inv

    # -- limit evaluation -------------------------------------------------------
    def tail_residual(self) -> Optional[Fraction]:
        """What any bound-respecting extension could still move the limit by."""
        if self.stage_count == 0:
            return None
        return pow2(-(self.last_index - 1))

    def limit_eval(self, x, eps) -> EvalResult:
        return self._limit(self.partial, x, eps)

    def limit_inv_eval(self, x, eps) -> EvalResult:
        return self._limit(self.partial_inv, x, eps)

    def _limit(self, partial, x, eps) -> EvalResult:
        if self.stage_count == 0:
            return EvalResult(x, ZERO, None)
        N = bound_exponent(Fraction(eps)) + 1
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


def _capped(mat: FactorHomeo) -> FactorHomeo:
    """`mat`, unless its cylinder table is too large to check exactly."""
    if isinstance(mat, CylinderHomeo) and len(mat.table) > _MATERIALIZE_CAP:
        raise UnsupportedOperation(
            "materialized composition too large for an exact condition-(2) "
            "check; use stages supported beyond the chain depth"
        )
    return mat


def double_limit_defect(cert: ConvergenceCertificate, m: int, n: int, x) -> Fraction:
    """d(H_m^-1(H_n(x)), x), the quantity the double-limit estimate bounds."""
    y = cert.partial(x, n)
    z = cert.partial_inv(y, m)
    space = cert.space
    if isinstance(space, ProductSpace):
        return space.metric_exact(z, x)
    return space.metric(z, x)


def reverify_ledger(space, stages, entries) -> list:
    """Re-checks every recorded bound from the stages alone.

    Returns a list of per-entry verdict dicts; exact kinds must reproduce the
    recorded values bit-exactly.
    """
    cert = ConvergenceCertificate(space)
    verdicts = []
    for h, recorded in zip(stages, entries):
        try:
            cert = cert.append(h)
            fresh = cert.entries[-1]
            ok = fresh.ser() == recorded if isinstance(recorded, dict) else fresh == recorded
            verdicts.append({"stage": fresh.stage, "ok": bool(ok), "method": fresh.method})
        except BoundViolation as e:
            verdicts.append({"stage": e.stage, "ok": False, "violation": str(e)})
            break
    return verdicts
