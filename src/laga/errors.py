"""Exception hierarchy shared across the package."""


class LagaError(Exception):
    """Base class for all errors raised by laga."""


class EdgeLevelMismatch(LagaError):
    """An edge does not travel exactly one layer down."""


class EmptySuccessor(LagaError):
    """A positive-level vertex has no out-edges in a graph that requires them."""


class MultipleMinimal(LagaError):
    """A graph flagged unique_minimal has |V_0| != 1."""


class MixedLevels(LagaError):
    """A vertex set spans more than one level."""


class ArgumentMismatch(LagaError):
    """A command's arguments do not fit its usage."""


class UnsupportedField(LagaError):
    """The requested finite field is not supported."""


class AmbientMismatch(LagaError):
    """Subspaces live in different ambient spaces or over different fields."""


class BudgetExceeded(LagaError):
    """An enumeration or matrix computation exceeds the configured budget."""


class KOutOfRange(LagaError):
    """A (vertex, length) pair has length outside 0..|v|."""


class NotUniform(LagaError):
    """The operation requires a uniform layered graph."""


class DimensionMismatch(LagaError):
    """Level dimensions of two graphs (or a map) do not match."""


class LevelMismatch(LagaError):
    """A level or vertex lies outside the graph or view, or two elements
    expected at the same level are not."""


class NonNestingViolated(LagaError):
    """The view is inconsistent with the non-nesting hypothesis."""


class ReconstructionFailed(LagaError):
    """A reconstruction step could not complete; message carries the diagnostic."""


class VerificationFailed(LagaError):
    """An internal cross-check failed; indicates a bug or unreachable configuration."""
