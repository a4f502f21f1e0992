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
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .channel import EigenSpectrum
from .errors import InsufficientSamplesError, OverflowRegimeError
from .numerics import SeededRng, log_bessel_i, log_gamma
from .power import PowerAllocation, waterfill
from .tail import (
    KIND_CONDITIONAL,
    KIND_OUTPUT,
    LawParams,
    mode_gammas,
    sample_law,
    threshold_with_ties,
    tilted_log_tail,
)

_TAU_GRID_DIVISORS = (2, 4, 8, 16)
_MIN_RAW_EXCEEDANCES = 100


@dataclass(frozen=True)
class InfoDensityLaw:
    """Monte Carlo draws of the blocklength-n information density."""

    kind: str
    n: int
    g: EigenSpectrum
    p: PowerAllocation
    draws: np.ndarray


@dataclass(frozen=True)
class BetaEstimate:
    """Type-II error estimate with its threshold and accuracy diagnostics.

    ``log_beta`` is authoritative; ``beta`` itself can underflow to zero for
    large blocklengths.  ``ci_rel`` is the relative 95% half-width.
    """

    beta: float
    log_beta: float
    gamma_n: float
    ci_rel: float
    raw_exceedances: int
    tilted: bool


@dataclass(frozen=True)
class AchievabilityResult:
    rate_nats: float
    rate_bits: float
    beta: float
    log_beta: float
    gamma_n: float
    kappa_tau: float
    tau: float
    c1: float
    n: int
    eps: float
    d: Union[int, str]
    ci_rate_bits: float
    num_samples: int
    per_d: Optional[Tuple["AchievabilityResult", "AchievabilityResult"]] = None


def sample_info_density(
    kind: str,
    n: int,
    g: EigenSpectrum,
    p: PowerAllocation,
    rng: SeededRng,
    num_samples: int = 100_000,
) -> InfoDensityLaw:
    """Draw the information density under the output or conditional law."""
    draws = sample_law(kind, n, mode_gammas(g, p), rng, num_samples)
    return InfoDensityLaw(kind=kind, n=n, g=g, p=p, draws=draws)


def achievability_beta(
    g_law: InfoDensityLaw,
    h_law: InfoDensityLaw,
    eps: float,
    tau: float,
    rng: Optional[SeededRng] = None,
) -> BetaEstimate:
    """Estimate beta at type-I level 1 - eps + tau between the two laws.

    The threshold gamma_n is the empirical exceedance quantile of the
    conditional draws; beta is the exceedance fraction of the output draws.
    When fewer than 100 raw output draws exceed the threshold, an
    exponentially tilted importance sampler (tilted mean pinned at gamma_n,
    as many draws as the raw sample) re-estimates the tail; that path
    requires ``rng``.
    """
    if not 0.0 < tau < eps < 1.0:
        raise ValueError("need 0 < tau < eps < 1")
    if g_law.kind != KIND_OUTPUT or h_law.kind != KIND_CONDITIONAL:
        raise ValueError("pass the output-law draws first, conditional second")
    if g_law.n != h_law.n:
        raise ValueError("laws must share the blocklength")

    level = 1.0 - eps + tau
    gamma_n, rho = threshold_with_ties(h_law.draws, level)
    g = g_law.draws
    n_samples = g.size
    exceed = int((g > gamma_n).sum())
    hits = (g > gamma_n).astype(float) + rho * (g == gamma_n)

    if exceed >= _MIN_RAW_EXCEEDANCES or rho > 0:
        beta = float(hits.mean())
        se = float(hits.std() / math.sqrt(n_samples))
        ci_rel = 1.96 * se / beta if beta > 0 else math.inf
        if ci_rel <= 0.5:
            return BetaEstimate(
                beta=beta,
                log_beta=math.log(beta) if beta > 0 else -math.inf,
                gamma_n=gamma_n,
                ci_rel=ci_rel,
                raw_exceedances=exceed,
                tilted=False,
            )

    if rng is None:
        raise InsufficientSamplesError(
            f"only {exceed} raw exceedances and no rng for tilted re-estimation"
        )
    law = LawParams(KIND_OUTPUT, g_law.n, mode_gammas(g_law.g, g_law.p))
    log_beta, ci_rel = tilted_log_tail(law, gamma_n, 0.0, rng, n_samples)
    return BetaEstimate(
        beta=float(np.exp(log_beta)),
        log_beta=log_beta,
        gamma_n=gamma_n,
        ci_rel=ci_rel,
        raw_exceedances=exceed,
        tilted=True,
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


def compute_c1(
    n: int,
    g_j: float,
    p_j: float,
    delta: float = 0.5,
    grid_points: int = 513,
) -> float:
    """Density-ratio supremum over the energy window [1+y-delta, 1+y+delta].

    Evaluated on a grid of at least 512 points of the per-use energy c with
    r = c n.  Raises ``OverflowRegimeError`` when log f exceeds 700, which
    marks the regime where the kappa bound carries no information.
    """
    gamma = float(g_j) * float(p_j)
    if gamma <= 0:
        raise ValueError("compute_c1 requires g_j * p_j > 0")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if grid_points < 512:
        raise ValueError("grid must have at least 512 points")
    center = 1.0 + gamma
    lo = max(center - delta, 1e-9)
    c = np.linspace(lo, center + delta, grid_points)
    log_f = log_energy_density_ratio(c * n, n, gamma)
    peak = float(np.max(log_f))
    if peak > 700.0:
        raise OverflowRegimeError(f"log density ratio reached {peak:.1f}")
    return max(float(np.exp(peak)), 1e-300)


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
    tau_grid: Sequence[float],
    delta: float,
) -> AchievabilityResult:
    p = waterfill(g, total_power)
    gammas = mode_gammas(g, p)
    g_law = sample_info_density(KIND_OUTPUT, n, g, p, rng.split(0), num_samples)
    h_law = sample_info_density(KIND_CONDITIONAL, n, g, p, rng.split(1), num_samples)

    log_c1 = 0.0
    for y in gammas[gammas > 0]:
        log_c1 += math.log(compute_c1(n, y, 1.0, delta=delta))
    c1_total = math.exp(log_c1)

    best = None
    for i, tau in enumerate(tau_grid):
        est = achievability_beta(g_law, h_law, eps, tau, rng=rng.split(2 + i))
        kap = kappa_tau(tau, c1_total)
        rate = (math.log(kap) - est.log_beta) / n
        if best is None or rate > best[0]:
            best = (rate, tau, kap, est)
    rate, tau, kap, est = best
    # relative CI on beta maps to an absolute rate CI of ci_rel / n nats
    ci_bits = est.ci_rel / n / math.log(2)
    return AchievabilityResult(
        rate_nats=rate,
        rate_bits=rate / math.log(2),
        beta=est.beta,
        log_beta=est.log_beta,
        gamma_n=est.gamma_n,
        kappa_tau=kap,
        tau=tau,
        c1=c1_total,
        n=n,
        eps=eps,
        d=g.d,
        ci_rate_bits=ci_bits,
        num_samples=num_samples,
    )


def achievability_rate(
    n: int,
    g_plus: EigenSpectrum,
    g_minus: EigenSpectrum,
    total_power: float,
    eps: float,
    rng: SeededRng,
    num_samples: int = 100_000,
    tau_grid: Optional[Sequence[float]] = None,
    delta: float = 0.5,
) -> AchievabilityResult:
    """Achievable-rate lower bound mixed over the equiprobable tag symbol.

    Per symbol: waterfill, sample both information-density laws, search tau
    over {eps/2, eps/4, eps/8, eps/16} for the largest log(kappa/beta)/n.
    Both symbols reuse the same substreams (common random numbers), so equal
    spectra produce identical rates.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    taus = tuple(tau_grid) if tau_grid is not None else tuple(eps / k for k in _TAU_GRID_DIVISORS)
    res_minus = _fixed_d_rate(n, g_minus, total_power, eps, rng, num_samples, taus, delta)
    res_plus = _fixed_d_rate(n, g_plus, total_power, eps, rng, num_samples, taus, delta)
    rate = 0.5 * (res_minus.rate_nats + res_plus.rate_nats)
    ci = 0.5 * math.hypot(res_minus.ci_rate_bits, res_plus.ci_rate_bits)
    return AchievabilityResult(
        rate_nats=rate,
        rate_bits=rate / math.log(2),
        beta=math.nan,
        log_beta=math.nan,
        gamma_n=math.nan,
        kappa_tau=math.nan,
        tau=math.nan,
        c1=math.nan,
        n=n,
        eps=eps,
        d="mixed",
        ci_rate_bits=ci,
        num_samples=num_samples,
        per_d=(res_minus, res_plus),
    )
