"""Exact scalar arithmetic helpers.

All coordinate values, metric values and certified bounds in the exact
factor kinds are `fractions.Fraction` instances.  Nothing here ever
rounds; serialization is the "num/den" string form so that documents
round-trip bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def pow2(n: int) -> Fraction:
    """2**n as an exact Fraction, for any integer n."""
    if n >= 0:
        return Fraction(1 << n)
    return Fraction(1, 1 << (-n))


def floor_pow2(x: Fraction) -> Fraction:
    """Largest power of two <= x (x > 0), found from the bit lengths of x's
    numerator and denominator, which put log2 x within one of their
    difference."""
    if x <= 0:
        raise ValueError("x must be positive")
    p = pow2(x.numerator.bit_length() - x.denominator.bit_length())
    return p if p <= x else p / 2


def format_scalar(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_scalar(s: str) -> Fraction:
    num, _, den = s.partition("/")
    if not den:
        return Fraction(int(num))
    return Fraction(int(num), int(den))


def bound_exponent(eps: Fraction) -> int:
    """Smallest N >= 0 with 2**(-N) < eps; an eps <= 0 raises
    PreconditionError."""
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, not {eps}")
    # 2^-N < p/q iff 2^N > q/p iff 2^N > q // p, as 2^N is an int
    p, q = eps.as_integer_ratio()
    return (q // p).bit_length()
