"""Exception types and diagnostic warning category shared across the package."""


class CondShapError(Exception):
    """Base class for all package errors."""


class InfiniteWeightCoalitionError(CondShapError, ValueError):
    """Kernel weight requested for the empty or full coalition.

    These coalitions carry infinite weight; callers impose them as the
    equality constraints of the least-squares problem instead.
    """


class EnumerationTooLargeError(CondShapError, ValueError):
    """Full coalition enumeration would exceed the configured cap."""


class DegenerateDesignError(CondShapError, ValueError):
    """The weighted normal matrix of the coalition design is singular."""

    def __init__(self, message: str, condition_number: float = float("inf")):
        super().__init__(f"{message} (condition number {condition_number:.3e})")
        self.condition_number = condition_number


class InvalidCovarianceError(CondShapError, ValueError):
    """A covariance matrix is not symmetric positive semi-definite."""


class DegenerateReferenceError(CondShapError, ValueError):
    """Skill score requested against a reference with zero error."""


class SchemaError(CondShapError, ValueError):
    """CSV or column schema mismatch.  Maps to exit code 2 in the CLI."""


class ConfigError(CondShapError, ValueError):
    """Invalid or unknown experiment configuration keys.  Exit code 2."""


class ModelProtocolError(CondShapError, RuntimeError):
    """External model protocol violation.  Maps to exit code 3 in the CLI."""


class EfficiencyViolationError(CondShapError, ValueError):
    """An explanation record failed the efficiency identity at write time."""


class QuadratureConvergenceError(CondShapError, RuntimeError):
    """Grid refinement did not stabilize the quadrature oracle."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


class DiagnosticWarning(UserWarning):
    """Non-fatal numerical diagnostics (regularization, fallbacks)."""
