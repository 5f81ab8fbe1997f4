"""Exception types shared across the package."""


class AstuteError(Exception):
    """Base class for all errors raised by this package."""


class NotInvertible(AstuteError):
    """An element has no multiplicative inverse modulo b."""


class LeadingNotInvertible(AstuteError):
    """Polynomial division requires an invertible leading coefficient."""


class BudgetExceeded(AstuteError):
    """A configured size/node/time budget was hit."""


class NonIntegerResult(AstuteError):
    """An exact counting formula produced a non-integer; signals a bug."""


class NotPcrOrbit(AstuteError):
    """A cycle claimed to be a rotation-rule orbit is not one."""


class PreconditionViolated(AstuteError):
    """Inputs are outside the range an operation is defined for."""


class Inconclusive(AstuteError):
    """A verification could not finish within its budget."""
