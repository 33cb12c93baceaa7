"""Exception types raised across the package."""


class CavityPhaseError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(CavityPhaseError, ValueError):
    """Operands live on different Hilbert spaces or have incompatible shapes."""


class SingularDetuningError(CavityPhaseError, ValueError):
    """A closed-form expression was requested at zero detuning."""


class WrongCaseError(CavityPhaseError, ValueError):
    """The detuning sign does not match the requested evolution case
    (negative detuning for step one, positive for step two)."""


class InconsistentParametersError(CavityPhaseError, ValueError):
    """A parameter set violates hard protocol conditions.

    Carries the violated condition tags in ``tags``.
    """

    def __init__(self, message: str, tags: tuple[str, ...] = ()):
        super().__init__(message)
        self.tags = tags


class InfeasibleHardwareError(CavityPhaseError, ValueError):
    """A schedule requires a drive amplitude or qubit frequency the
    circuit cannot reach."""


class StepBudgetExceededError(CavityPhaseError, RuntimeError):
    """Adaptive propagation could not meet the tolerance within the step
    budget.  ``partial`` holds the diagnostics collected so far."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class TruncationWarning(UserWarning):
    """Population reached the top retained Fock level; results may be
    affected by the hard cavity truncation."""
