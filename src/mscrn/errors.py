"""Exception hierarchy for model construction, analysis and simulation."""


class MscrnError(Exception):
    """Base class for all toolkit errors."""


class ModelError(MscrnError):
    """Structural misuse of a model object (dimension mismatch, bad index)."""


class ValidationError(MscrnError):
    """A model violates an invariant (undeclared name, negative rate, ...)."""


class ParseError(MscrnError):
    """Syntax error in a model file, with a source span.

    The span is 1-based: ``line``, and columns ``col``..``end_col``
    (inclusive start, exclusive end) point inside the offending token.
    """

    def __init__(self, message, line, col, end_col=None):
        self.line = line
        self.col = col
        self.end_col = end_col if end_col is not None else col + 1
        super().__init__(f"line {line}, col {col}: {message}")


class RateEvaluationError(MscrnError):
    """A rate law produced a negative or non-finite value."""


class UnclassifiableError(MscrnError):
    """The scaling exponents do not define a one-, two- or three-scale system."""


class MixedAlphaError(MscrnError):
    """A conserved vector spans species with different abundance exponents."""


class TimescaleViolation(MscrnError):
    """A conserved quantity changes faster than the slow timescale."""


class OverlapError(MscrnError):
    """Reactions driving conserved quantities overlap the slow reaction set."""


class DegenerateEtaError(MscrnError):
    """Movement exponent equals the fast-reaction exponent (excluded case)."""


class HeterogeneousEtaError(MscrnError):
    """Species within one speed tier carry different movement exponents."""


class ReducibleChainError(MscrnError):
    """Movement chain has several closed classes; no unique equilibrium."""


class IsolatedSpeciesError(MscrnError):
    """A species has no movement at all in a multi-compartment model."""


class AnalyticUnavailable(MscrnError):
    """No closed-form stationary measure was detected; fall back explicitly."""


class NonErgodicSuspected(MscrnError):
    """Monte Carlo stationary estimate has too small an effective sample."""


class CaseUnavailable(MscrnError):
    """A required stationary object could not be produced for this case."""


class EventCapExceeded(MscrnError):
    """Simulation exceeded the configured maximum number of events."""


class OdeStepFailure(MscrnError):
    """Adaptive integrator could not meet tolerances at the minimum step."""


class NegativeRate(MscrnError):
    """State left the nonnegative orthant beyond tolerance during flow."""
