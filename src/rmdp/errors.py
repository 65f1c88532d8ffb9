"""Exception types shared across the package.

Model-validation errors fire at construction time; solver errors fire
during a solve.  Everything derives from RmdpError so callers can catch
the whole family with one clause.
"""


class RmdpError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(RmdpError):
    """A model description failed validation."""


class NonStochasticRow(ModelError):
    """A transition row's probabilities do not sum to 1 within tolerance."""


class EmptyMask(ModelError):
    """A state has no admissible action."""


class DuplicateSuccessor(ModelError):
    """A transition row lists the same successor twice."""


class NegativeProbability(ModelError):
    """A transition probability is zero or negative."""


class InvalidPolicy(ModelError):
    """A policy selects an action outside the state's mask."""


class InvalidParams(ModelError):
    """Domain parameters are out of range or inconsistent."""


class DomainError(ModelError):
    """An argument lies outside a function's mathematical domain."""


class SolverError(RmdpError):
    """Base class for failures raised while solving."""


class NotReductive(SolverError):
    """The input does not satisfy the reductivity drift condition."""


class ScheduleMismatch(SolverError):
    """A level-set schedule references a state whose successors are unsolved."""


class DivergentSelfLoop(SolverError):
    """A self-loop with discount * probability = 1 makes the value infinite."""


class NonContractive(SolverError):
    """Undiscounted iteration on an absorbing class with nonzero rewards."""


class NonFiniteValue(SolverError):
    """A value overflowed to an infinity or a NaN during a solve."""


class MaxSweepsExceeded(SolverError):
    """An iterative solver hit its sweep budget before converging."""
