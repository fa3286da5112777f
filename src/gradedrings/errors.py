"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class GradedRingError(Exception):
    """Base class for all library errors."""


class MalformedSpec(GradedRingError):
    """Ring construction recipe violates its invariants."""


class NotSubgroup(GradedRingError):
    """A declared grading component is not an additive subgroup."""


class NotDirectSum(GradedRingError):
    """Declared components do not decompose the carrier uniquely."""


class NotMultiplicative(GradedRingError):
    """Some product R_g * R_h escapes R_{gh}."""


class IdentityNotInRe(GradedRingError):
    """1 is missing from the identity-degree component."""


class NotAnIdeal(GradedRingError):
    """Element set fails the ideal axioms."""


class NotGraded(GradedRingError):
    """Ideal is not graded with respect to the given grading."""


class NotProper(GradedRingError):
    """Operation requires a proper ideal."""


class RingMismatch(GradedRingError):
    """Operands belong to different rings."""


class GroupMismatch(GradedRingError):
    """Operands are graded by different groups."""


class BudgetExceeded(GradedRingError):
    """An enumeration exceeded its configured cap."""


class InvalidSet(GradedRingError):
    """Multiplicative set fails its invariants."""


class HomomorphismError(GradedRingError):
    """Base for map-validation failures; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAdditive(HomomorphismError):
    pass


class NotMultiplicativeMap(HomomorphismError):
    pass


class UnitNotPreserved(HomomorphismError):
    pass


class NotDegreePreserving(HomomorphismError):
    pass


class KernelNotContained(GradedRingError):
    """Image transport requires the kernel inside the ideal."""


class NotSurjective(GradedRingError):
    """Image transport requires a surjective map."""


class ShapeMismatch(GradedRingError):
    """The verifier has no statement of the given id."""
