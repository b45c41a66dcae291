"""Exception hierarchy shared across the package."""


class StructuralError(ValueError):
    """Malformed data: bad Cayley table, index out of range, invalid JSON payload."""


class ContractViolation(ValueError):
    """A documented precondition was violated by the caller."""


class CapacityError(RuntimeError):
    """A configured size bound was exceeded."""


class NameLookupError(KeyError):
    """An automorphism or group name is not defined for the given object."""

    __str__ = Exception.__str__  # the message as it is, not quoted as KeyError's


class VerificationError(RuntimeError):
    """Two independent computations of the same quantity disagreed.

    This signals an internal bug, never bad user input, and is deliberately
    not recoverable: the package is a verification instrument and a silent
    disagreement would destroy its value.
    """
