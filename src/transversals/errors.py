"""Exception types shared across the package.

Contract violations raise one of these instead of a bare ValueError so
callers (and the CLI exit-code mapping) can tell input problems,
precondition failures, and exhausted budgets apart.
"""


class TransversalError(Exception):
    """Base class for all package errors."""


class InvalidTransversal(TransversalError):
    """A claimed transversal failed validation; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotNaturallyIndexed(TransversalError):
    """Operation requires the canonical vertex/color labelling."""


class NotRedIndependent(TransversalError):
    """The vertex set contains a red-adjacent pair."""


class NotMaximalRedIndependent(TransversalError):
    """The vertex set does not pick exactly one endpoint per matched pair."""


class NotLocallyDominating(TransversalError):
    """Some member has no in-set yellow or blue support where required."""


class DStarTooSmall(TransversalError):
    """Multiplication requires support depth at least 1."""


class WalkStuck(TransversalError):
    """The rotation walk reached a state violating its degree invariant.

    This signals an upstream bug (bad pruned digraph), never bad input.
    """


class GuaranteeViolated(TransversalError):
    """A result fell short of a bound the paper proves; signals an upstream bug."""


class RecolorConflict(TransversalError):
    """Recoloring produced a non-bijection; signals an upstream bug."""


class NoBlueEscape(TransversalError):
    """Alternating walk found a set member with no blue arc leaving the set."""


class BudgetExceeded(TransversalError):
    """Search budget exhausted after ``found`` results.

    ``partial`` holds the results found so far, or nothing when the search
    only counted them.
    """

    def __init__(self, message, partial=(), nodes=0, found=0):
        super().__init__(message)
        self.partial = list(partial)
        self.nodes = nodes
        self.found = found


class ResampleBudgetExceeded(TransversalError):
    """Sampler hit its resample cap before all bad events cleared."""

    def __init__(self, message, resamples=0, records=()):
        super().__init__(message)
        self.resamples = resamples
        self.records = list(records)


class DomainError(TransversalError):
    """Numeric parameter outside the range a formula is stated for."""


class InfeasibleDegree(TransversalError):
    """Requested degrees cannot be realized on this vertex count."""


class InfeasibleWitness(TransversalError):
    """Requested witness set/depth combination cannot be constructed."""


class GenerationFailed(TransversalError):
    """Randomized generator exhausted its retry budget."""
