"""Achievability side of the finite-blocklength analysis.

The lower bound on rate is log(kappa / beta) / n per tag symbol, where beta
is the type-II error of the optimal test between the unconditional output law
and the conditional law at type-I level 1 - eps + tau, and kappa is the
measure-matching constant lower-bounded by tau over a computable density-ratio
supremum.  Both ingredients are evaluated by Monte Carlo on the information
density: beta is read from one tilted sample of the output law
(``tail.TiltedSample``), shared with the converse, at thresholds taken from
a sample of the conditional law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import EigenSpectrum
from .errors import OverflowRegimeError
from .numerics import SeededRng, empirical_quantile, log_bessel_i
from .power import PowerAllocation, waterfill
from .tail import (
    BetaEstimate,
    LawParams,
    MixedRate,
    TiltedSample,
    mixed_rate,
    mode_gammas,
    sample_law,
)

_TAU_GRID_DIVISORS = (2, 4, 8, 16)
# the kappa constant's energy window [1+y-1/2, 1+y+1/2] per use, and its grid
_C1_HALF_WIDTH = 0.5
_C1_GRID_POINTS = 513


@dataclass(frozen=True)
class AchievabilityResult:
    """Achievability bound for one tag symbol ``d``: the tau that maximized
    the rate, its kappa_tau, the kappa constant c1 and the beta estimate."""

    rate_nats: float
    ci_rate_bits: float
    d: int
    tau: float
    kappa_tau: float
    c1: float
    estimate: BetaEstimate


def sample_info_density(
    n: int,
    g: EigenSpectrum,
    p: PowerAllocation,
    rng: SeededRng,
    num_samples: int = 100_000,
) -> np.ndarray:
    """Draw the information density under the conditional law."""
    return sample_law(n, mode_gammas(g, p), rng, num_samples)


def achievability_beta(
    eps: float, tau: float, tilted: TiltedSample, threshold: float
) -> BetaEstimate:
    """Estimate beta at type-I level 1 - eps + tau between the two laws.

    ``threshold`` is gamma_n, the empirical exceedance quantile of the
    conditional draws at that level (``empirical_quantile``, one pass for
    all four tau), and beta the upper tail of the output law there, read
    from ``tilted``.  The bound shares one such sample among its four tau:
    drawn on the symbol's ``rng.split(2)`` and tilted to the lowest
    threshold, that of tau = eps/2.
    """
    if not 0.0 < tau < eps < 1.0:
        raise ValueError("need 0 < tau < eps < 1")
    return tilted.beta(1.0 - eps + tau, threshold)


# ---------------------------------------------------------------------------
# the kappa constant
#
# The measure-matching constant is bounded through the ratio f of the exact
# densities of the per-mode received-energy statistics: under the conditional
# law the energy is half a noncentral chi-square with 2n degrees of freedom
# and noncentrality 2 n y, under the output law it is Gamma(n, 1 + y).  The
# supremum of f over an energy window around the common mean n (1 + y) gives
# the constant; it stays O(1) in n.
# ---------------------------------------------------------------------------


def log_energy_density_ratio(r, n: int, gamma: float):
    """log f(r): conditional-law energy density over output-law energy density.

    Both log-densities are assembled from ``math.lgamma`` and ``log_bessel_i``
    so the ratio is stable for blocklengths in the thousands.
    """
    if gamma <= 0:
        raise ValueError("requires g_j p_j > 0")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("energy must be positive")
    log_cond = (
        -r
        - n * gamma
        + 0.5 * (n - 1) * (np.log(r) - math.log(n * gamma))
        + log_bessel_i(n - 1, 2.0 * np.sqrt(n * gamma * r))
    )
    log_out = (
        -math.lgamma(n)
        - n * math.log1p(gamma)
        + (n - 1) * np.log(r)
        - r / (1.0 + gamma)
    )
    return log_cond - log_out


def compute_c1(n: int, y: float) -> float:
    """Density-ratio supremum over the per-use energy window [1+y-1/2, 1+y+1/2]
    of a mode with received SNR y = g_j p_j.

    Evaluated on a 513-point grid of the per-use energy c with r = c n.
    Raises ``OverflowRegimeError`` when the peak of log f is not finite or
    exceeds 700, which marks the regime where the kappa bound carries no
    information.
    """
    y = float(y)
    if y <= 0:
        raise ValueError("compute_c1 requires y = g_j p_j > 0")
    center = 1.0 + y
    c = np.linspace(center - _C1_HALF_WIDTH, center + _C1_HALF_WIDTH, _C1_GRID_POINTS)
    log_f = log_energy_density_ratio(c * n, n, y)
    peak = float(np.max(log_f))
    if not math.isfinite(peak) or peak > 700.0:
        raise OverflowRegimeError(f"log density ratio reached {peak:.1f}")
    return float(np.exp(peak))


def kappa_tau(tau: float, c1: float) -> float:
    """Lower bound tau / c1 on the measure-matching constant, clamped to 1."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    return min(tau / c1, 1.0)


# ---------------------------------------------------------------------------
# full bound
# ---------------------------------------------------------------------------


def _fixed_d_rate(
    n: int,
    g: EigenSpectrum,
    total_power: float,
    eps: float,
    rng: SeededRng,
    num_samples: int,
) -> AchievabilityResult:
    p = waterfill(g, total_power)
    gammas = mode_gammas(g, p)
    taus = [eps / k for k in _TAU_GRID_DIVISORS]
    # rng.split(0), once the output-law sample, is retired and left unused,
    # so the other streams stay bit-equal
    h_draws = sample_info_density(n, g, p, rng.split(1), num_samples)
    # one quantile pass over the conditional draws serves every tau
    thresholds = empirical_quantile(h_draws, [1.0 - eps + tau for tau in taus]).tolist()

    log_c1 = 0.0
    for y in gammas[gammas > 0]:
        log_c1 += math.log(compute_c1(n, y))
    c1_total = math.exp(log_c1)

    # the lowest threshold is that of taus[0] = eps/2, the largest tau
    tilted = TiltedSample(LawParams(n, gammas), rng.split(2), num_samples, thresholds[0])
    best = None
    for tau, threshold in zip(taus, thresholds):
        est = achievability_beta(eps, tau, tilted, threshold)
        kap = kappa_tau(tau, c1_total)
        rate = (math.log(kap) - est.log_beta) / n
        if best is None or rate > best[0]:
            best = (rate, tau, kap, est)
    rate, tau, kap, est = best
    # relative CI on beta maps to an absolute rate CI of ci_rel / n nats
    return AchievabilityResult(
        rate_nats=rate,
        ci_rate_bits=est.ci_rel / n / math.log(2),
        d=g.d,
        tau=tau,
        kappa_tau=kap,
        c1=c1_total,
        estimate=est,
    )


def achievability_rate(
    n: int,
    g_plus: EigenSpectrum,
    g_minus: EigenSpectrum,
    total_power: float,
    eps: float,
    rng: SeededRng,
    num_samples: int = 100_000,
) -> MixedRate:
    """Achievable-rate lower bound mixed over the equiprobable tag symbol.

    Per symbol: waterfill, sample the conditional information-density law
    for the thresholds and the tilted output law for beta, and search tau
    over {eps/2, eps/4, eps/8, eps/16} for the largest log(kappa/beta)/n.
    ``tail.mixed_rate`` evaluates the two symbols at the same time, on
    common random numbers.
    """
    return mixed_rate(_fixed_d_rate, n, g_plus, g_minus, total_power, eps, rng, num_samples)
