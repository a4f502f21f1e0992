"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """A numerical routine (contour quadrature, root or minimum search) failed to converge."""


class InsufficientSamplesError(RuntimeError):
    """A Monte Carlo estimate is too noisy to be reported at the requested level."""


class InfeasibleTargetError(ValueError):
    """A requested operating point lies outside the attainable range."""


class ZeroSpectrumError(ValueError):
    """Every eigenmode of the channel is zero; no power can be allocated."""


class OverflowRegimeError(ArithmeticError):
    """A quantity left the floating-point range where the result is meaningful."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""
