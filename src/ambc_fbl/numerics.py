"""Deterministic special functions, splittable RNG streams, and empirical
distribution helpers.

Everything here is evaluated in log-domain wherever intermediate quantities can
overflow double precision (Bessel functions of large order, gamma functions of
large argument, Mellin-Barnes integrands).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConvergenceError

_MASK64 = (1 << 64) - 1

# largest product and shape the Mellin quadrature of ``product_gamma_logpdf``
# resolves; the converse evaluates it with copies = min(t, r), shape = n
MAX_GAMMA_COPIES = 8
MAX_GAMMA_SHAPE = 4096
# Mellin contour Re(s) of ``product_gamma_logpdf``, and the envelope tail,
# relative to the integrand at t = 0, at which that contour is truncated
_CONTOUR_OFFSET = 0.5
_CONTOUR_TAIL_TOL = 1e-12


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (bijective on 64-bit words)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SeededRng:
    """Handle to a reproducible, splittable random stream.

    A (seed, stream_id) pair keys a counter-based Philox generator, so the
    sample sequence depends only on the pair and never on thread or call
    order.  ``split`` derives statistically independent child streams with
    deterministic ids, which is what makes chunked Monte Carlo reductions
    reproducible for a fixed chunk layout.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError("stream_id must fit in 64 unsigned bits")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, index: int) -> "SeededRng":
        """Derive the ``index``-th child stream of this stream."""
        if index < 0:
            raise ValueError("split index must be nonnegative")
        child = _splitmix64(_splitmix64(self.stream_id) ^ (index + 1))
        return SeededRng(self.seed, child)


def empirical_quantile(draws: np.ndarray, level: float) -> float:
    """Value gamma with empirical exceedance fraction P[X >= gamma] = level.

    Linear interpolation between order statistics, so the result is a
    deterministic function of the sample.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if draws.size < 1:
        raise ValueError("cannot take a quantile of an empty sample")
    return float(np.quantile(draws, 1.0 - level))


def gaussian_q(x):
    """Upper tail of the standard normal, Q(x) = P[N(0,1) >= x]."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(x / np.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def gaussian_q_inv(p: float) -> float:
    """Inverse of ``gaussian_q`` on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"gaussian_q_inv requires p in (0, 1), got {p}")
    return float(-special.ndtri(p))


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_gamma requires x > 0")
    out = special.gammaln(x)
    return float(out) if out.ndim == 0 else out


def _log_ive_uniform(order: float, x: np.ndarray) -> np.ndarray:
    # Uniform large-order expansion of I_v(v z) with four correction terms.
    # Only invoked where scipy's scaled Bessel underflows, which requires the
    # order to be in the hundreds or more, or is NaN (x above ~1.07e9, where
    # the correction terms are O(1/x)); the truncation error there is far
    # below the 1e-8 contract.
    z = x / order
    t = 1.0 / np.sqrt(1.0 + z * z)
    eta = np.sqrt(1.0 + z * z) + np.log(z / (1.0 + np.sqrt(1.0 + z * z)))
    u1 = (3 * t - 5 * t**3) / 24.0
    u2 = (81 * t**2 - 462 * t**4 + 385 * t**6) / 1152.0
    u3 = (30375 * t**3 - 369603 * t**5 + 765765 * t**7 - 425425 * t**9) / 414720.0
    u4 = (
        4465125 * t**4
        - 94121676 * t**6
        + 349922430 * t**8
        - 446185740 * t**10
        + 185910725 * t**12
    ) / 39813120.0
    series = 1.0 + u1 / order + u2 / order**2 + u3 / order**3 + u4 / order**4
    return (
        order * eta
        - 0.5 * np.log(2 * np.pi * order)
        - 0.25 * np.log(1.0 + z * z)
        + np.log(series)
    )


def _log_i_series(order: float, x: np.ndarray) -> np.ndarray:
    # Ascending series in log-domain; converges fast for x below ~50.
    k = np.arange(0, 200, dtype=float)[:, None]
    xs = np.atleast_1d(x)[None, :]
    terms = (
        (order + 2 * k) * np.log(xs / 2.0)
        - special.gammaln(k + 1.0)
        - special.gammaln(order + k + 1.0)
    )
    return special.logsumexp(terms, axis=0)


def log_bessel_i(order: float, x):
    """ln I_order(x) for order >= 0 and x > 0, stable for huge arguments.

    Uses scipy's exponentially scaled Bessel where it does not underflow and
    switches to a series (small x) or the uniform large-order expansion
    otherwise, so the result stays accurate up to order, x ~ 1e6.
    """
    if order < 0:
        raise ValueError("log_bessel_i requires order >= 0")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any(x_arr <= 0):
        raise ValueError("log_bessel_i requires x > 0")

    with np.errstate(divide="ignore"):
        ive = special.ive(order, x_arr)
        out = np.where(ive > 0, np.log(np.maximum(ive, 1e-300)) + x_arr, -np.inf)
    # ive underflows when I_order(x) << e^x, i.e. order much larger than x,
    # and is NaN for x above about 1.07e9; both take the expansions below
    bad = ~(ive > 1e-280)
    if np.any(bad):
        small = bad & (x_arr < 50.0)
        if np.any(small):
            out[small] = _log_i_series(order, x_arr[small])
        large = bad & ~small
        if np.any(large):
            out[large] = _log_ive_uniform(order, x_arr[large])
    return float(out[0]) if scalar else out


def product_gamma_logpdf(z: float, copies: int, shape: int, scale: float) -> float:
    """ln of the density of a product of ``copies`` iid Gamma(shape, scale).

    Evaluated by Mellin inversion: the Mellin transform of the product is
    (scale^m)^(s-1) Gamma(shape + s - 1)^m / Gamma(shape)^m, and the density
    is recovered on the vertical contour Re(s) = 1/2, truncated adaptively
    until the envelope tail drops below 1e-12 of the integrand at the real
    axis.  All gamma factors stay in log-domain.
    """
    if not 1 <= copies <= MAX_GAMMA_COPIES:
        raise ValueError(f"copies must be between 1 and {MAX_GAMMA_COPIES}")
    if not 1 <= shape <= MAX_GAMMA_SHAPE:
        raise ValueError(f"shape must be between 1 and {MAX_GAMMA_SHAPE}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if z <= 0:
        raise ValueError("z must be positive")

    m = int(copies)
    n = float(shape)
    log_w = np.log(z) - m * np.log(scale)

    def parts(t: np.ndarray):
        s = _CONTOUR_OFFSET + 1j * t
        val = -s * log_w + m * special.loggamma(s + n - 1.0)
        return val.real, val.imag

    # Step size set by the fastest phase rotation at the contour base; the
    # integrand envelope is monotone decreasing in |t|.
    phase_rate = abs(m * special.digamma(_CONTOUR_OFFSET + n - 1.0) - log_w) + m + 1.0
    h = min(0.05, 2 * np.pi / (64.0 * phase_rate))
    big_t = 10.0
    l_zero, _ = parts(np.zeros(1))
    l_zero = float(l_zero[0])

    # The integrand is normalized to 1 at t = 0, so tolerances below are
    # absolute at that scale; values that sink into the 1e-11 noise floor are
    # cancellation-dominated tails and are reported as zero density.
    value = None
    for _ in range(80):
        t = np.arange(0.0, big_t + h, h)
        lv, ph = parts(t)
        integrand = np.exp(lv - l_zero) * np.cos(ph)
        value = float(np.trapezoid(integrand, dx=h))
        # envelope beyond T decays at least like exp(-(pi/2) m (t - T))
        tail = float(np.exp(lv[-1] - l_zero)) * 2.0 / (np.pi * m / 2.0)
        if tail < _CONTOUR_TAIL_TOL:
            break
        big_t *= 1.6
    else:
        raise ConvergenceError("Mellin contour truncation did not converge")

    # Step-halving until the quadrature is resolved at the integrand scale.
    for _ in range(14):
        h /= 2.0
        t = np.arange(0.0, big_t + h, h)
        lv, ph = parts(t)
        refined = float(np.trapezoid(np.exp(lv - l_zero) * np.cos(ph), dx=h))
        done = abs(refined - value) <= 1e-10
        value = refined
        if done:
            break
    else:
        raise ConvergenceError("Mellin contour quadrature did not converge")

    if value <= 1e-11:
        return -np.inf
    log_pref = -m * np.log(scale) - m * special.gammaln(n)
    return float(log_pref + l_zero + np.log(value / np.pi))


def product_gamma_pdf(z: float, copies: int, shape: int, scale: float) -> float:
    """Density of a product of ``copies`` iid Gamma(shape, scale) variables."""
    lp = product_gamma_logpdf(z, copies, shape, scale)
    return float(np.exp(lp)) if np.isfinite(lp) else 0.0
