"""Finite-blocklength achievability and converse bounds, normal approximation,
and tag-error coupling for multiple-antenna ambient-backscatter channels."""

from .asymptotics import (
    capacity,
    dispersion,
    normal_approximation,
    verify_sigma_maximizer,
)
from .bounds_ach import (
    AchievabilityResult,
    achievability_beta,
    achievability_rate,
    compute_c1,
    kappa_tau,
    sample_info_density,
)
from .bounds_conv import (
    ConverseConstants,
    ConverseResult,
    ball_volume_bound,
    converse_rate,
    np_beta_converse,
    pdf_sup_bound,
    sample_converse_density,
)
from .channel import (
    ChannelRealization,
    CompositePair,
    EigenSpectrum,
    Fading,
    composite,
    draw_channel,
    eigen_spectrum,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleTargetError,
    InsufficientSamplesError,
    OverflowRegimeError,
    ZeroSpectrumError,
)
from .numerics import (
    SeededRng,
    empirical_quantile,
    gaussian_q,
    gaussian_q_inv,
    log_bessel_i,
    log_gamma,
    product_gamma_pdf,
)
from .power import PowerAllocation, waterfill
from .tail import BetaEstimate, MixedRate
from .tag import (
    TagErrorModel,
    eps_given_tag_error,
    simulate_tag_error,
    tag_error_given_eps,
)

__version__ = "0.1.0"

# The CLI names load on first use (PEP 562), so ``python -m ambc_fbl.cli``
# does not find ``ambc_fbl.cli`` already imported by the package.
_CLI_NAMES = ("ExperimentConfig", "SweepResult", "SweepRow", "emit_csv", "main", "run_sweep")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
