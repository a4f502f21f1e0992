"""Achievability side of the finite-blocklength analysis.

The lower bound on rate is log(kappa / beta) / n per tag symbol, where beta
is the type-II error of the optimal test between the unconditional output law
and the conditional law at type-I level 1 - eps + tau, and kappa is the
measure-matching constant lower-bounded by tau over a computable density-ratio
supremum.  Both ingredients are evaluated by Monte Carlo on the information
density; the law, the threshold and the tilted deep-tail estimator live in
``tail``, shared with the converse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .channel import EigenSpectrum
from .errors import OverflowRegimeError
from .numerics import SeededRng, log_bessel_i, log_gamma
from .power import PowerAllocation, waterfill
from .tail import (
    KIND_CONDITIONAL,
    KIND_OUTPUT,
    BetaEstimate,
    LawParams,
    MixedRate,
    estimate_beta,
    mix_tag_symbols,
    mode_gammas,
    run_calls,
    sample_law,
    threshold_with_ties,
)

_TAU_GRID_DIVISORS = (2, 4, 8, 16)
_MIN_RAW_EXCEEDANCES = 100
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
    kind: str,
    n: int,
    g: EigenSpectrum,
    p: PowerAllocation,
    rng: SeededRng,
    num_samples: int = 100_000,
) -> np.ndarray:
    """Draw the information density under the output or conditional law."""
    return sample_law(kind, n, mode_gammas(g, p), rng, num_samples)


def achievability_beta(
    output_draws: Optional[np.ndarray],
    conditional_draws: np.ndarray,
    eps: float,
    tau: float,
    law: Tuple[int, np.ndarray],
    rng: SeededRng,
    threshold: Optional[Tuple[float, float]] = None,
) -> BetaEstimate:
    """Estimate beta at type-I level 1 - eps + tau between the two laws.

    The threshold gamma_n is the empirical exceedance quantile of the
    conditional draws; beta is the exceedance fraction of the output draws.
    When fewer than 100 raw output draws exceed the threshold, or
    ``output_draws`` is None (no raw draws made), an exponentially tilted
    importance sampler estimates the tail: the output law of ``law`` =
    (blocklength, per-mode gammas), tilted so that its mean sits at gamma_n,
    with as many draws from ``rng`` as the conditional sample.
    ``threshold``, the (gamma_n, rho) pair that ``threshold_with_ties``
    returns for the conditional draws at this level, spares the quantile
    pass when the caller already made it for several tau at once.
    """
    if not 0.0 < tau < eps < 1.0:
        raise ValueError("need 0 < tau < eps < 1")
    if threshold is None:
        threshold = threshold_with_ties(conditional_draws, [1.0 - eps + tau])[0]
    params = LawParams(KIND_OUTPUT, *law)
    return estimate_beta(
        threshold, conditional_draws.size, output_draws, 0.0, _MIN_RAW_EXCEEDANCES, params, rng
    )


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

    Both log-densities are assembled from ``log_gamma`` and ``log_bessel_i``
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
        -log_gamma(float(n))
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
    h_draws = sample_info_density(KIND_CONDITIONAL, n, g, p, rng.split(1), num_samples)
    # one quantile pass over the conditional draws serves every tau
    thresholds = threshold_with_ties(h_draws, [1.0 - eps + tau for tau in taus])
    # The raw output-law estimate needs 100 exceedances (16 when the threshold
    # is an atom; with fewer its relative CI is above 0.5).  When the Chernoff
    # bound leaves less than one expected exceedance at the lowest threshold,
    # that of the largest tau, the raw estimate would be kept at any tau with
    # probability below 1/16! (1/100! without atoms), so the output draws are
    # skipped and every tau takes the tilted path, which reads no raw draws.
    lowest = thresholds[0][0]  # that of taus[0] = eps/2, the largest tau
    g_draws = None
    if math.log(num_samples) + LawParams(KIND_OUTPUT, n, gammas).log_tail_bound(lowest) >= 0.0:
        g_draws = sample_info_density(KIND_OUTPUT, n, g, p, rng.split(0), num_samples)

    log_c1 = 0.0
    for y in gammas[gammas > 0]:
        log_c1 += math.log(compute_c1(n, y))
    c1_total = math.exp(log_c1)

    best = None
    for i, (tau, threshold) in enumerate(zip(taus, thresholds)):
        est = achievability_beta(
            g_draws, h_draws, eps, tau, law=(n, gammas), rng=rng.split(2 + i), threshold=threshold
        )
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
    (and the output law unless a Chernoff bound shows the raw tail estimate
    cannot be used), search tau over {eps/2, eps/4, eps/8, eps/16} for the
    largest log(kappa/beta)/n.
    Both symbols reuse the same substreams (common random numbers), so equal
    spectra produce identical rates.  The two symbols are evaluated at the
    same time by ``tail.run_calls``; each reads only its own substreams, so
    the result does not depend on the CPU count.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return mix_tag_symbols(*run_calls([
        partial(_fixed_d_rate, n, g, total_power, eps, rng, num_samples)
        for g in (g_minus, g_plus)
    ]))
