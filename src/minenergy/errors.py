"""Exception hierarchy shared by all modules.

Every error carries an ``exit_code`` so the command line layer can map
failures onto its documented contract:

    0 success, 2 parse, 3 bad parameter, 4 precondition, 5 unreachable, 6 domain

``IllConditionedWarning`` is the one warning class: a result that is
computed but may be inaccurate.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ParseError(ToolkitError):
    """Malformed or missing input document."""

    exit_code = 2


class BadParameterError(ToolkitError):
    """A numeric or structural argument is outside its admissible set."""

    exit_code = 3


class PreconditionError(ToolkitError):
    """A mathematical precondition of the requested operation fails."""

    exit_code = 4


class UnreachableError(ToolkitError):
    """The requested state is not reachable / the value is +infinity."""

    exit_code = 5


class DomainError(ToolkitError):
    """A model datum lies outside its physical domain."""

    exit_code = 6


# -- bad parameter ------------------------------------------------------------

class HorizonNotPositive(BadParameterError):
    pass


class TooManySolutions(BadParameterError):
    pass


class LengthMismatch(BadParameterError):
    pass


# -- preconditions -------------------------------------------------------------

class NotStable(PreconditionError):
    """Some eigenvalue of the state operator has nonnegative real part."""


class NotDiagonalizable(PreconditionError):
    """Defective state operator; the decay envelope cannot be estimated."""


class NotSymmetric(PreconditionError):
    pass


class NotCoercive(PreconditionError):
    pass


class RankDeficient(PreconditionError):
    """Operation requires a full-rank infinite-horizon Gramian."""


class NotSpectral(PreconditionError):
    pass


class WrongForm(PreconditionError):
    pass


class GridMismatch(PreconditionError):
    pass


# -- unreachable ---------------------------------------------------------------

class NotReachable(UnreachableError):
    """Target outside range(Q_t), the finite-horizon reachable set (value
    +inf): raised by the membership gate ``Gramian.member`` of a horizon t."""


class NotInH(UnreachableError):
    """Vector outside range(Q_inf), the finite-energy reachability space:
    raised by the membership gate ``Gramian.member`` of the infinite horizon."""


# -- domain --------------------------------------------------------------------

class NegativeWeight(DomainError):
    pass


class BadBoundary(DomainError):
    pass


class OutOfDomain(DomainError):
    pass


class OutOfRange(DomainError):
    pass


# -- warnings ------------------------------------------------------------------

class IllConditionedWarning(RuntimeWarning):
    """A positive-definite solve whose matrix has a condition number above
    1/eps: the result may not be accurate."""
