"""Converse side: upper bound rate <= log(K m n / beta) / n per tag symbol.

beta is the type-II error of the optimal test between the conditional output
law and a product auxiliary channel whose per-mode outputs are CN(0, 1+g_j p_j);
K = K1 K2 combines a supremum of the auxiliary per-mode-energy density (a
product-of-gammas law evaluated by Mellin inversion) with the volume of the
ball that contains every admissible energy vector.  The law, the threshold
and the tilted deep-tail estimator live in ``tail``, shared with the
achievability side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Tuple

import numpy as np
from scipy import special

from .channel import EigenSpectrum
from .errors import ConvergenceError
from .numerics import SeededRng, brent_min, product_gamma_logpdf
from .power import PowerAllocation, waterfill
from .tail import (
    KIND_CONDITIONAL,
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

_MIN_EFFECTIVE_SAMPLES = 1000.0


@dataclass(frozen=True)
class ConverseConstants:
    """K = K1 K2 with K1 the density supremum scale and K2 the ball volume."""

    k1: float
    k2: float
    k: float
    m: int
    n: int


@dataclass(frozen=True)
class ConverseResult:
    """Converse bound for one tag symbol ``d``: the constant K = K1 K2 and
    the beta estimate."""

    rate_nats: float
    ci_rate_bits: float
    d: int
    k: float
    estimate: BetaEstimate


def sample_converse_density(
    n: int,
    g: EigenSpectrum,
    p: PowerAllocation,
    rng: SeededRng,
    num_samples: int = 100_000,
) -> np.ndarray:
    """Draws of the blocklength-n log likelihood ratio between the conditional
    law and the auxiliary product channel (the same statistic as the
    conditional information-density law)."""
    return sample_law(KIND_CONDITIONAL, n, mode_gammas(g, p), rng, num_samples)


def np_beta_converse(
    draws: np.ndarray,
    eps: float,
    law: Tuple[int, np.ndarray],
    rng: SeededRng,
) -> BetaEstimate:
    """Neyman-Pearson beta at level 1 - eps from log-likelihood-ratio draws.

    The optimal test thresholds the statistic at its empirical (1-eps)
    exceedance quantile eta (randomizing on atoms), and beta is estimated by
    the change-of-measure identity beta = E[exp(-S) 1{S >= eta}] over the
    conditional draws.  Deep in the tail the raw estimator starves, so when
    the effective sample count drops below 1000 the expectation is
    recomputed under the conditional law of ``law`` = (blocklength, per-mode
    gammas), exponentially tilted so that its mean sits at eta, with as many
    draws from ``rng`` as the raw sample.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    # exp(-S) turns conditional-law mass into auxiliary-channel mass
    threshold = threshold_with_ties(draws, [1.0 - eps])[0]
    params = LawParams(KIND_CONDITIONAL, *law)
    return estimate_beta(threshold, draws.size, draws, 1.0, _MIN_EFFECTIVE_SAMPLES, params, rng)


def ball_volume_bound(m: int, total_power: float) -> float:
    """Volume pi^(m/2) / Gamma(m/2 + 1) * (P + 1/2)^m of the ball of radius
    P + 1/2 that contains every admissible normalized energy vector."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if total_power <= 0:
        raise ValueError("total power must be positive")
    return float(
        np.pi ** (m / 2.0) / special.gamma(m / 2.0 + 1.0) * (total_power + 0.5) ** m
    )


@lru_cache(maxsize=256)
def _unit_scale_log_sup(m: int, n: int) -> float:
    """sup_z log pdf for the product of m iid Gamma(n, 1) variables.

    Brent's method on log z (``numerics.brent_min``, xtol 1e-10), inside a
    bracket grown in steps of 2 around the single-factor mode (n - 1)^m; the
    bulk of the product density is unimodal.  Each point is evaluated once
    (the minimizer re-reads the bracket ends), about 20 Mellin quadratures
    per (m, n).  Raises ``ConvergenceError`` when 60 steps find no bracket
    or the search does not converge.
    """
    u0 = m * math.log(max(n - 1, 1))
    seen = {}

    def neg(u: float) -> float:
        if u not in seen:
            seen[u] = -product_gamma_logpdf(math.exp(u), m, n, 1.0)
        return seen[u]

    lo, hi = u0 - 2.0, u0 + 2.0
    for _ in range(60):
        if neg(lo) > neg(u0) < neg(hi):
            break
        if neg(lo) <= neg(u0):
            lo -= 2.0
        if neg(hi) <= neg(u0):
            hi += 2.0
    else:
        raise ConvergenceError("could not bracket the density mode")
    _, neg_sup = brent_min(neg, lo, u0, hi, xtol=1e-10)
    return -neg_sup


def pdf_sup_bound(m: int, n: int, g: EigenSpectrum, p: PowerAllocation) -> float:
    """K1 = sup_z q(z) / (m n) for the auxiliary-channel energy-product density.

    The m per-mode energies are Gamma(n, theta_j) with theta_j =
    (1 + g_j p_j) / (2 n); distinct scales only move the product density by
    the total scale, so the supremum is the cached unit-scale supremum
    divided by prod theta_j.
    """
    gammas = mode_gammas(g, p)
    if gammas.size != m:
        raise ValueError("spectrum size does not match m")
    log_theta_prod = float(np.log((1.0 + gammas) / (2.0 * n)).sum())
    log_sup = _unit_scale_log_sup(m, n) - log_theta_prod
    return float(np.exp(log_sup - math.log(m * n)))


def converse_constants(
    m: int, n: int, g: EigenSpectrum, p: PowerAllocation, total_power: float
) -> ConverseConstants:
    k1 = pdf_sup_bound(m, n, g, p)
    k2 = ball_volume_bound(m, total_power)
    return ConverseConstants(k1=k1, k2=k2, k=k1 * k2, m=m, n=n)


def _fixed_d_rate(
    n: int,
    g: EigenSpectrum,
    total_power: float,
    eps: float,
    rng: SeededRng,
    num_samples: int,
) -> ConverseResult:
    p = waterfill(g, total_power)
    m = g.m
    consts = converse_constants(m, n, g, p, total_power)
    draws = sample_converse_density(n, g, p, rng.split(0), num_samples)
    est = np_beta_converse(draws, eps, law=(n, mode_gammas(g, p)), rng=rng.split(1))
    rate = (math.log(consts.k * m * n) - est.log_beta) / n
    return ConverseResult(
        rate_nats=rate,
        ci_rate_bits=est.ci_rel / n / math.log(2),
        d=g.d,
        k=consts.k,
        estimate=est,
    )


def converse_rate(
    n: int,
    g_plus: EigenSpectrum,
    g_minus: EigenSpectrum,
    total_power: float,
    eps: float,
    rng: SeededRng,
    num_samples: int = 100_000,
) -> MixedRate:
    """Converse upper bound mixed over the equiprobable tag symbol.

    Substreams are shared between the two symbols (common random numbers),
    matching the achievability side.  The two symbols are evaluated at the
    same time by ``tail.run_calls``, after the K1 supremum of their common
    (m, n) is cached, so a cold (m, n) is searched once; the result does not
    depend on the CPU count.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    _unit_scale_log_sup(g_minus.m, n)  # both symbols then read it from the cache
    return mix_tag_symbols(*run_calls([
        partial(_fixed_d_rate, n, g, total_power, eps, rng, num_samples)
        for g in (g_minus, g_plus)
    ]))
