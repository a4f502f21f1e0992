"""Converse side: upper bound rate <= log(K m n / beta) / n per tag symbol.

beta is the type-II error of the optimal test between the conditional output
law and a product auxiliary channel whose per-mode outputs are CN(0, 1+g_j p_j);
K = K1 K2 combines a supremum of the auxiliary per-mode-energy density (a
product-of-gammas law evaluated by Mellin inversion) with the volume of the
ball that contains every admissible energy vector.  beta is read from one
tilted sample of the output law (``tail.TiltedSample``), shared with the
achievability side, at a threshold taken from a sample of the conditional
law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .channel import EigenSpectrum
from .errors import ConvergenceError
from .numerics import SeededRng, empirical_quantile, product_gamma_logpdf
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
    return sample_law(n, mode_gammas(g, p), rng, num_samples)


def np_beta_converse(
    draws: np.ndarray,
    eps: float,
    law: Tuple[int, np.ndarray],
    rng: SeededRng,
) -> BetaEstimate:
    """Neyman-Pearson beta at level 1 - eps from log-likelihood-ratio draws.

    The optimal test thresholds the statistic at its empirical (1-eps)
    exceedance quantile eta, and beta is the upper tail at eta of the
    output law of ``law`` = (blocklength, per-mode gammas), read from one
    sample of as many draws from ``rng`` as ``draws``, tilted so that its
    mean sits at eta (untilted when eta lies at or below the law's mean).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    eta = empirical_quantile(draws, 1.0 - eps)
    return TiltedSample(LawParams(*law), rng, draws.size, eta).beta(1.0 - eps, eta)


def ball_volume_bound(m: int, total_power: float) -> float:
    """Volume pi^(m/2) / Gamma(m/2 + 1) * (P + 1/2)^m of the ball of radius
    P + 1/2 that contains every admissible normalized energy vector."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if total_power <= 0:
        raise ValueError("total power must be positive")
    return float(
        np.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0) * (total_power + 0.5) ** m
    )


@lru_cache(maxsize=256)
def _unit_scale_log_sup(m: int, n: int) -> float:
    """sup_z log q(z) for the density q of the product Z of m iid Gamma(n, 1).

    log Z is a sum of m independent log-gamma variables, each with a
    log-concave density, so the density of log Z is log-concave (Prekopa
    1973), and log q(e^u), that log-density minus u, is strictly concave in
    u = log z.  Its maximum is therefore the one stationary point, found by
    Newton's method on u from m log(n - 1), with both derivatives from a
    three-point central stencil of ``product_gamma_logpdf``, 1e-3 of the
    standard deviation sd = sqrt(m / (n - 1)) of log Z wide on each side.
    Once a step s falls below 1e-4 sd, the density is evaluated at the new
    iterate, whose Newton error O(s^2 / sd) costs O((s / sd)^4) in the log:
    three Mellin quadratures per step and one at the end, 4 to 10 per (m, n).
    Raises ``ConvergenceError`` on a non-finite stencil value, a stencil
    curvature >= 0, or 50 steps without convergence.
    """
    sd = math.sqrt(m / max(n - 1, 1))
    h = 1e-3 * sd

    def log_q(u: float) -> float:
        return product_gamma_logpdf(math.exp(u), m, n, 1.0)

    u = m * math.log(max(n - 1, 1))
    for _ in range(50):
        lo, mid, hi = log_q(u - h), log_q(u), log_q(u + h)
        if not all(map(math.isfinite, (lo, mid, hi))):
            raise ConvergenceError(f"K1 search met a non-finite log-density near log z = {u:g}")
        curvature = (hi - 2.0 * mid + lo) / (h * h)
        if curvature >= 0.0:
            raise ConvergenceError(f"K1 objective is not concave near log z = {u:g}")
        step = -(hi - lo) / (2.0 * h) / curvature
        u += step
        if abs(step) < 1e-4 * sd:
            return log_q(u)
    raise ConvergenceError("K1 search did not converge in 50 steps")


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

    ``tail.mixed_rate`` evaluates the two symbols at the same time, on
    common random numbers, after the K1 supremum of their common (m, n) is
    cached, so a cold (m, n) is searched once.
    """
    _unit_scale_log_sup(g_minus.m, n)  # both symbols then read it from the cache
    return mixed_rate(_fixed_d_rate, n, g_plus, g_minus, total_power, eps, rng, num_samples)
