"""Shared exception types.

Each module raises these rather than module-private variants so the CLI can
map them onto exit codes uniformly (usage errors vs resource errors vs
internal invariant failures).
"""


class UsageError(Exception):
    """Invalid parameters or contract violations by the caller."""


class ResourceError(Exception):
    """Work refused because it exceeds a configured budget or cap."""


class InternalError(Exception):
    """An internal self-check failed; results cannot be trusted."""


# permgroup
class GroupTooLarge(ResourceError):
    pass


class TrivialGroup(UsageError):
    pass


class NotTransitive(UsageError):
    pass


class DegreeTooLarge(ResourceError):
    pass


class IdentityElement(UsageError):
    pass


# polyarith
class NotPrime(UsageError):
    pass


class DegreeTooSmall(UsageError):
    pass


class CharacteristicTooSmall(UsageError):
    pass


class SubsetSumZero(UsageError):
    pass


class NotSquarefreeModP(UsageError):
    pass


class ToleranceUnreachable(InternalError):
    pass


# fourier
class TooLarge(ResourceError):
    pass


# galois
class DegreeOutOfRange(UsageError):
    pass


class RamifiedOnly(InternalError):
    pass


# counting
class BudgetExceeded(ResourceError):
    pass


class InsufficientData(UsageError):
    pass


class ZeroCount(UsageError):
    pass


class DivisionByZero(UsageError):
    pass
