"""Exception hierarchy shared across the package.

Two families matter for the CLI exit-code contract: validation failures
(bad parameters or configuration, exit code 2) and numerical failures
(a computation that ran but produced an inconsistent or unusable result,
exit code 3).
"""


class FracspdeError(Exception):
    """Base class for all package errors."""


class ValidationError(FracspdeError):
    """Invalid input: violated type invariant, domain bound, or config."""


class ConstraintViolationError(ValidationError):
    """A domain-type invariant does not hold (e.g. alpha outside (0,2])."""


class ConfigurationError(ValidationError):
    """Inconsistent configuration (mixed ensembles, bad preset, ...)."""


class EllipticityError(ValidationError):
    """The diffusion coefficient is not bounded below by a > 0."""


class NumericalError(FracspdeError):
    """A computation produced a numerically unacceptable result."""


class TruncationError(NumericalError):
    """Grid resolution is insufficient for the requested kernel."""


class NoiseSynthesisError(NumericalError):
    """Spectral density is negative or undefined on the frequency band."""


class DivergenceError(NumericalError):
    """A spectral integral required to be finite diverges."""


class BlowUpError(NumericalError):
    """A solver trajectory left the stability envelope."""

    def __init__(self, message, step=None, replicate_id=None):
        super().__init__(message)
        self.step = step
        self.replicate_id = replicate_id


class PicardConvergenceError(NumericalError):
    """Fixed-point iteration did not converge within max_iter."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class NumericalConsistencyError(NumericalError):
    """Two routes to the same quantity disagree beyond tolerance."""


class AccuracyWarning(UserWarning):
    """Result is returned but may be less accurate than requested."""


class DegenerateLawWarning(UserWarning):
    """Sampled law is (numerically) a point mass."""
