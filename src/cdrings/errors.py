"""Exception hierarchy shared across the package."""


class AlgebraError(Exception):
    """Base class for all errors raised by cdrings."""


class DimensionMismatch(AlgebraError):
    """Operands disagree on modulus, rank, or shape."""


class StageMismatch(AlgebraError):
    """An element or dataset belongs to a different tower stage."""


class EnumerationBudgetExceeded(AlgebraError):
    """An exhaustive sweep would visit more elements than allowed."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} elements, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class ModulusTooLarge(AlgebraError):
    """The modulus is too large for exact int64 arithmetic at this rank."""

    def __init__(self, modulus: int, rank: int, widest_sum: str):
        super().__init__(
            f"modulus {modulus} is too large for exact int64 arithmetic at rank {rank}:"
            f" {widest_sum} must stay below 2^63"
        )
        self.modulus = modulus
        self.rank = rank


class RankBudgetExceeded(AlgebraError):
    """A doubling tower would exceed the configured rank limit."""


class InvalidAlgebra(AlgebraError):
    """An algebra failed structural validation at a construction boundary."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class CertificationError(AlgebraError):
    """A doubling parameter failed one of its certificates."""


class NotCentral(CertificationError):
    """Parameter does not commute/associate with the whole algebra."""


class NotSymmetric(CertificationError):
    """Parameter is not fixed by the involution."""


class NotInvertible(CertificationError):
    """Parameter has no two-sided multiplicative inverse."""
