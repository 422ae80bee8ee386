"""Exception types shared across the package."""


class InputValidationError(ValueError):
    """Raised when user-supplied data is malformed or incomplete."""


class ConstraintError(ValueError):
    """Raised when generator parameters violate a defining constraint or a
    search exceeds its budget; the message names the clause or the limit.
    """


class ContractViolationError(RuntimeError):
    """Raised when an operation is called outside its stated precondition."""


class InternalInvariantError(RuntimeError):
    """Raised when a result fails its own re-verification.

    This conditions maps to CLI exit code 3 and should never occur.
    """
