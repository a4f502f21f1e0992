"""Converse side: upper bound rate <= log(K m n / beta) / n per tag symbol.

beta is the type-II error of the optimal test between the conditional output
law and a product auxiliary channel whose per-mode outputs are CN(0, 1+g_j p_j);
K = K1 K2 combines a supremum of the auxiliary per-mode-energy density (a
product-of-gammas law evaluated by Mellin inversion) with the volume of the
ball that contains every admissible energy vector.  The bound takes the
achievability's steps with its own level and constant: each tag symbol's
law is tilted by its ``pilot_tilt(eps)``, both symbols' draws come from
one raw draw on ``rng.split(0)``, and each symbol's threshold eta and beta
are read from its own draws.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .channel import EigenSpectrum
from .errors import ConvergenceError
from .numerics import SeededRng, product_gamma_logpdf
from .power import PowerAllocation
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
    mode_gammas,
    symbol_laws,
)


def sample_converse_density(
    symbols: Sequence[SymbolLaw], rng: SeededRng, num_samples: int
) -> list:
    """The bound's one raw draw, ``tail.draw_symbols``: each tag symbol's
    draws of the log likelihood ratio against the auxiliary channel, tilted
    by its pilot, in the calling thread's kept arrays.  Kept as a trace
    seam, which ROADMAP item 3 retires."""
    return draw_symbols(symbols, rng, num_samples)


def np_beta_converse(eps: float, sample: TiltedSample, eta: float) -> BetaEstimate:
    """Neyman-Pearson beta at level 1 - eps and threshold eta, read from
    ``sample``: kept only as a trace seam, which ROADMAP item 3 retires."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return sample.beta(1.0 - eps, eta)


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


def pdf_sup_bound(n: int, g: EigenSpectrum, p: PowerAllocation) -> float:
    """K1 = sup_z q(z) / (m n) for the auxiliary-channel energy-product
    density of the m = ``g.m`` modes.

    The m per-mode energies are Gamma(n, theta_j) with theta_j =
    (1 + g_j p_j) / (2 n); distinct scales only move the product density by
    the total scale, so the supremum is the cached unit-scale supremum
    divided by prod theta_j.
    """
    gammas = mode_gammas(g, p)
    log_theta_prod = float(np.log((1.0 + gammas) / (2.0 * n)).sum())
    log_sup = _unit_scale_log_sup(g.m, n) - log_theta_prod
    return float(np.exp(log_sup - math.log(g.m * n)))


def converse_constants(n: int, g: EigenSpectrum, p: PowerAllocation, total_power: float) -> float:
    """log(K m n) with K = K1 K2, the density supremum scale times the ball
    volume, and m = ``g.m``."""
    k = pdf_sup_bound(n, g, p) * ball_volume_bound(g.m, total_power)
    return math.log(k * g.m * n)


def _fixed_d_rate(
    n: int, symbol: SymbolLaw, draws: np.ndarray, total_power: float, eps: float
) -> SymbolBound:
    log_constant = converse_constants(n, symbol.g, symbol.p, total_power)
    sample = TiltedSample(symbol.law, symbol.theta, draws)
    (eta,) = sample.thresholds([1.0 - eps])
    candidate = (1.0 - eps, log_constant, np_beta_converse(eps, sample, eta))
    return best_bound(n, symbol.g.d, [candidate])


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

    After ``tail.check_mc_args`` and the K1 supremum of the symbols' common
    (m, n), cached so a cold (m, n) is searched once, and only for an
    accepted call: per symbol, waterfill and the pilot tilt of eps; one raw
    draw of both symbols on ``rng.split(0)``; then ``tail.mixed_rate``
    evaluates the two symbols at the same time, each reading eta and beta
    from its own draws.
    """
    check_mc_args(eps, num_samples)
    _unit_scale_log_sup(g_minus.m, n)  # both symbols then read it from the cache
    symbols = symbol_laws(n, (g_minus, g_plus), total_power, eps)
    draws = sample_converse_density(symbols, rng.split(0), num_samples)
    calls = [partial(_fixed_d_rate, n, s, x, total_power, eps) for s, x in zip(symbols, draws)]
    return mixed_rate(calls)
