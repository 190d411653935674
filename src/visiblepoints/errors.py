"""Exception types shared across the package."""


class VisiblePointsError(Exception):
    """Base class for all package-specific errors."""


class PolynomialParseError(VisiblePointsError, ValueError):
    """The polynomial text does not conform to the c*U^i*V^j grammar."""


class ConstantPolynomial(VisiblePointsError, ValueError):
    """An operation that needs a nonconstant polynomial got a constant one."""


class DegenerateReduction(VisiblePointsError, ValueError):
    """Reducing a polynomial mod p left a constant (or zero) polynomial."""


class IdenticallyZero(VisiblePointsError, ValueError):
    """A univariate root search was asked about the zero polynomial.

    Callers decide what this means; for row counting it means every
    residue in the row satisfies the congruence.
    """


class HypothesisViolated(VisiblePointsError, ValueError):
    """An experiment precondition failed: the curve polynomial is not
    absolutely irreducible of degree > 1 modulo the prime in question."""


class BoxTooLarge(VisiblePointsError, ValueError):
    """A prime-averaged sweep was requested with T < 2*max(X, Y)."""


class GridOverflow(VisiblePointsError, ValueError):
    """A sweep that needs int64 values or p bins per tile is out of range."""


class NonFiniteParameter(VisiblePointsError, ValueError):
    """A real-valued parameter (the prime bound T, a box side) is not finite."""


class EmptyPlan(VisiblePointsError, ValueError):
    """A sweep series was invoked with no plan entries."""


class UsageError(VisiblePointsError, ValueError):
    """Invalid command-line arguments (bad flag combinations, non-prime p,
    box out of range)."""
