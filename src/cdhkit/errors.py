"""Exception types shared across the package."""

from __future__ import annotations


class CdhError(Exception):
    """Base class for all library errors."""


class SpaceMismatch(CdhError):
    """Operands live in different spaces or factor kinds."""


class IndexRange(CdhError):
    """A coordinate index is outside the product's index set."""


class UnsupportedOperation(CdhError):
    """The requested construction is not available for this kind."""


class OrderViolation(CdhError):
    """A finite bijection is incompatible with the factor's order structure.

    `invariant` names the violated order invariant, `witness` the offending
    points.
    """

    def __init__(self, invariant: str, witness=None):
        super().__init__(f"order violation: {invariant}" + (f" (witness: {witness})" if witness else ""))
        self.invariant = invariant
        self.witness = witness


class BoundViolation(CdhError):
    """A certified bound failed.  Carries the stage index and the witness value."""

    def __init__(self, stage: int, condition: int, bound, value):
        super().__init__(
            f"stage {stage}: condition ({condition}) violated: value {value} exceeds bound {bound}"
        )
        self.stage = stage
        self.condition = condition
        self.bound = bound
        self.value = value


class PreconditionError(CdhError):
    """An operation's stated precondition does not hold for the input."""


class BudgetExceeded(CdhError):
    """An iterative construction ran out of its step budget."""
