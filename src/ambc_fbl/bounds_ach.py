"""Achievability side of the finite-blocklength analysis.

The lower bound on rate is log(kappa / beta) / n per tag symbol, where beta
is the type-II error of the optimal test between the unconditional output law
and the conditional law at type-I level 1 - eps + tau, and kappa is the
measure-matching constant lower-bounded by tau over a computable density-ratio
supremum.  The bound takes the converse's steps with its own levels and
constants: per tag symbol one ``tail.LawParams``, tilted by its
``pilot_tilt(eps / 2)``; one raw draw of both symbols on ``rng.split(0)``;
then per symbol the four tau thresholds from one weighted quantile pass
over its draws, a beta read per tau from the same draws, and
``tail.best_bound``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from .channel import EigenSpectrum
from .errors import OverflowRegimeError
from .numerics import SeededRng, log_bessel_i
from .tail import (
    BetaEstimate,
    MixedRate,
    SymbolBound,
    SymbolLaw,
    TiltedSample,
    best_bound,
    check_mc_args,
    draw_symbols,
    mixed_rate,
    symbol_laws,
)

_TAU_GRID_DIVISORS = (2, 4, 8, 16)
# the kappa constant's energy window [1+y-1/2, 1+y+1/2] per use, and its grid
_C1_HALF_WIDTH = 0.5
_C1_GRID_POINTS = 513


def sample_info_density(symbols: Sequence[SymbolLaw], rng: SeededRng, num_samples: int) -> list:
    """The bound's one raw draw, ``tail.draw_symbols``: each tag symbol's
    draws, tilted by its pilot, in the calling thread's kept arrays.  Kept
    as a trace seam, which ROADMAP item 3 retires."""
    return draw_symbols(symbols, rng, num_samples)


def achievability_beta(
    eps: float, tau: float, sample: TiltedSample, threshold: float
) -> BetaEstimate:
    """beta at type-I level 1 - eps + tau and threshold gamma_n, read from
    ``sample``: kept only as a trace seam, which ROADMAP item 3 retires."""
    if not 0.0 < tau < eps < 1.0:
        raise ValueError("need 0 < tau < eps < 1")
    return sample.beta(1.0 - eps + tau, threshold)


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


def _fixed_d_rate(n: int, symbol: SymbolLaw, draws: np.ndarray, eps: float) -> SymbolBound:
    law = symbol.law
    c1_total = math.exp(sum(math.log(compute_c1(n, y)) for y in law.gammas))
    taus = [eps / k for k in _TAU_GRID_DIVISORS]
    levels = [1.0 - eps + tau for tau in taus]
    sample = TiltedSample(law, symbol.theta, draws)
    candidates = [
        (level, math.log(kappa_tau(tau, c1_total)), achievability_beta(eps, tau, sample, x))
        for tau, level, x in zip(taus, levels, sample.thresholds(levels))
    ]
    return best_bound(n, symbol.g.d, candidates)


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

    After ``tail.check_mc_args``: per symbol, waterfill and the pilot tilt
    of eps / 2; one raw draw of both symbols' tilted information densities
    on ``rng.split(0)``; then ``tail.mixed_rate`` evaluates the two symbols
    at the same time, each reading its thresholds and beta from its own
    draws and searching tau over {eps/2, eps/4, eps/8, eps/16} for the
    largest log(kappa/beta)/n.
    """
    check_mc_args(eps, num_samples)
    symbols = symbol_laws(n, (g_minus, g_plus), total_power, eps / 2)
    draws = sample_info_density(symbols, rng.split(0), num_samples)
    return mixed_rate([partial(_fixed_d_rate, n, s, x, eps) for s, x in zip(symbols, draws)])
