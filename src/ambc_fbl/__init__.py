"""Finite-blocklength achievability and converse bounds, normal approximation,
and tag-error coupling for multiple-antenna ambient-backscatter channels.

The package exports what the command line, the README example and the
benchmark use; every other name is imported from its module."""

from .bounds_ach import achievability_rate
from .bounds_conv import converse_rate
from .channel import Fading, composite, draw_channel, eigen_spectrum
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleTargetError,
    InsufficientSamplesError,
    OverflowRegimeError,
    ZeroSpectrumError,
)
from .numerics import SeededRng
from .power import waterfill
from .tail import MixedRate

__version__ = "0.1.0"

# The CLI names load on first use (PEP 562), so ``python -m ambc_fbl.cli``
# does not find ``ambc_fbl.cli`` already imported by the package.
_CLI_NAMES = ("ExperimentConfig", "SweepResult", "SweepRow", "emit_csv", "main", "run_sweep")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
