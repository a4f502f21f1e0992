"""Deterministic special functions, splittable RNG streams, empirical
distribution helpers, and Brent's scalar minimum search.

Everything here is evaluated in log-domain wherever intermediate quantities can
overflow double precision (Bessel functions of large order, gamma functions of
large argument, Mellin-Barnes integrands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence, Tuple

import numpy as np

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
# Brent's minimum search: the absolute tolerance floor, golden ratio and
# iteration limit of scipy's minimize_scalar(method="brent"), whose steps it
# repeats
_MIN_TOL_FLOOR = 1.0e-11
_GOLDEN = 0.3819660
_MIN_MAXITER = 500


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


def standard_normals(streams: Sequence[SeededRng], size: int) -> np.ndarray:
    """``size`` standard normals from the start of each stream, one row per
    stream, each bit-equal to ``stream.generator().standard_normal(size)``.

    Philox is counter-based: a stream's whole state is its key (seed,
    stream_id) and its counter.  So one bit generator, re-keyed with the
    counter at 0 and an empty output buffer, replaces one construction per
    stream (each of which also seeds itself from OS entropy that the key then
    overrides).
    """
    bit_generator = np.random.Philox(0)
    gen = np.random.Generator(bit_generator)
    # a fresh state: counter 0, nothing buffered
    state = bit_generator.state
    out = np.empty((len(streams), size))
    for row, stream in zip(out, streams):
        state["state"]["key"] = np.array([stream.seed, stream.stream_id], dtype=np.uint64)
        bit_generator.state = state
        gen.standard_normal(out=row)
    return out


def empirical_quantile(draws: np.ndarray, level):
    """Value gamma with empirical exceedance fraction P[X >= gamma] = level.

    Linear interpolation between order statistics, so the result is a
    deterministic function of the sample.  An array of levels gives the
    array of thresholds from one pass over the sample, each bit-equal to
    the threshold of its level alone.
    """
    levels = np.asarray(level, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if draws.size < 1:
        raise ValueError("cannot take a quantile of an empty sample")
    gamma = np.quantile(draws, 1.0 - levels)
    return float(gamma) if gamma.ndim == 0 else gamma


def brent_min(f, lo: float, mid: float, hi: float, xtol: float) -> Tuple[float, float]:
    """(x, f(x)) at a local minimum of ``f`` inside the bracket lo < mid < hi,
    where f(mid) lies below f(lo) and f(hi).

    Brent's parabolic-interpolation minimizer (Brent 1973, ch. 5), step for
    step the one scipy's ``minimize_scalar(method="brent")`` runs on a given
    three-point bracket, with its absolute floor 1e-11 on the tolerance
    ``xtol * |x|``, golden ratio 0.3819660 and 500 iterations, so the
    minimum is bit-equal to scipy's.  ``f`` is called at lo, mid and hi
    first, then once per iteration.  Raises ``ConvergenceError`` when the
    bracket is not one, when the search ends on a NaN, or when 500
    iterations leave the minimum unresolved.
    """
    a, x, b = float(lo), float(mid), float(hi)
    if not a < x < b:
        raise ConvergenceError("minimum search bracket is not ordered")
    fa, fx, fb = f(a), f(x), f(b)
    if not (fx < fa and fx < fb):
        raise ConvergenceError("minimum search bracket does not enclose a minimum")
    w = v = x
    fw = fv = fx
    deltax = 0.0
    rat = 0.0
    for _ in range(_MIN_MAXITER):
        tol1 = xtol * abs(x) + _MIN_TOL_FLOOR
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < tol2 - 0.5 * (b - a):
            break
        if abs(deltax) <= tol1:
            # golden-section step into the larger part
            deltax = a - x if x >= xmid else b - x
            rat = _GOLDEN * deltax
        else:
            # parabolic step through x, w and v, if it is useful
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if p > tmp2 * (a - x) and p < tmp2 * (b - x) and abs(p) < abs(0.5 * tmp2 * dx_temp):
                rat = p / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = _GOLDEN * deltax
        if abs(rat) < tol1:
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = f(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
    else:
        raise ConvergenceError(f"minimum search did not converge in {_MIN_MAXITER} iterations")
    if math.isnan(x) or math.isnan(fx):
        raise ConvergenceError("minimum search ended on a NaN")
    return x, fx


def gaussian_q(x):
    """Upper tail of the standard normal, Q(x) = P[N(0,1) >= x], by ``math.erfc``."""
    if isinstance(x, float):
        return 0.5 * math.erfc(x / math.sqrt(2.0))
    out = np.vectorize(gaussian_q, otypes=[float])(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def gaussian_q_inv(p):
    """Inverse of ``gaussian_q`` on (0, 1) by ``NormalDist.inv_cdf``, elementwise over an array."""
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 < p) & (p < 1.0)):
        raise ValueError(f"gaussian_q_inv requires p in (0, 1), got {p}")
    out = -np.vectorize(NormalDist().inv_cdf, otypes=[float])(p)
    return float(out) if out.ndim == 0 else out


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    from scipy import special

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


def _log_ive_hankel(order: float, x: np.ndarray) -> np.ndarray:
    # Large-argument (Hankel) expansion
    #   I_v(x) ~ e^x / sqrt(2 pi x) sum_k (-1)^k a_k(v) / x^k,
    #   a_k(v) = prod_{j<=k} (4 v^2 - (2j - 1)^2) / (k! 8^k),
    # used where the order is small against x (v^2 <= x / 1000) and scipy's
    # scaled Bessel is NaN; the first omitted term is below 1e-18 there.
    mu = 4.0 * order * order
    term = np.ones_like(x)
    series = np.ones_like(x)
    for k in range(1, 5):
        term = -term * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        series = series + term
    return x - 0.5 * np.log(2 * np.pi * x) + np.log(series)


def _log_i_series(order: float, x: np.ndarray) -> np.ndarray:
    # Ascending series in log-domain; converges fast for x below ~50.
    from scipy import special

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
    switches to a series (small x), the large-argument expansion (order small
    against x, where scipy's scaled Bessel is NaN above x ~ 1.07e9) or the
    uniform large-order expansion otherwise, so the result stays accurate up
    to order, x ~ 1e6 and beyond x ~ 1e9.
    """
    from scipy import special

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
        hankel = bad & (1e3 * order * order <= x_arr)
        if np.any(hankel):
            out[hankel] = _log_ive_hankel(order, x_arr[hankel])
        large = bad & ~small & ~hankel
        if np.any(large):
            out[large] = _log_ive_uniform(order, x_arr[large])
    return float(out[0]) if scalar else out


def product_gamma_logpdf(z: float, copies: int, shape: int, scale: float) -> float:
    """ln of the density of a product of ``copies`` iid Gamma(shape, scale).

    Evaluated by Mellin inversion: the Mellin transform of the product is
    (scale^m)^(s-1) Gamma(shape + s - 1)^m / Gamma(shape)^m, and the density
    is recovered on the vertical contour Re(s) = 1/2, truncated where the
    envelope at the grid's last node puts the tail below 1e-12 of the
    integrand at the real axis (only that node is evaluated per trial
    truncation), then integrated by the trapezoid rule, halving the step
    until two passes agree to 1e-10; each halving evaluates only the new
    nodes.  All gamma factors stay in log-domain.
    """
    from scipy import special

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
    l_zero, _ = parts(np.zeros(1))
    l_zero = float(l_zero[0])

    def integrand(t: np.ndarray) -> np.ndarray:
        lv, ph = parts(t)
        return np.exp(lv - l_zero) * np.cos(ph)

    # Truncation: grow T until the envelope at the grid's last node is small;
    # beyond T it decays at least like exp(-(pi/2) m (t - T)).  Only that
    # node is evaluated per trial T.
    big_t = 10.0
    for _ in range(80):
        t = np.arange(0.0, big_t + h, h)
        lv_last, _ = parts(t[-1:])
        tail = float(np.exp(lv_last[0] - l_zero)) * 2.0 / (np.pi * m / 2.0)
        if tail < _CONTOUR_TAIL_TOL:
            break
        big_t *= 1.6
    else:
        raise ConvergenceError("Mellin contour truncation did not converge")

    # The integrand is normalized to 1 at t = 0, so tolerances below are
    # absolute at that scale; values that sink into the 1e-11 noise floor are
    # cancellation-dominated tails and are reported as zero density.
    y = integrand(t)
    value = float(np.trapezoid(y, dx=h))
    # Step-halving until the quadrature is resolved at the integrand scale;
    # the even nodes of the halved grid are the previous grid's nodes, so
    # only the odd ones are evaluated.
    for _ in range(14):
        h /= 2.0
        t = np.arange(0.0, big_t + h, h)
        halved = np.empty(t.size)
        halved[0::2] = y[: (t.size + 1) // 2]
        # a contiguous copy, so the new nodes run through the same ufunc
        # loops as a full grid
        halved[1::2] = integrand(t[1::2].copy())
        y = halved
        refined = float(np.trapezoid(y, dx=h))
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
