"""Deterministic special functions, splittable RNG streams and empirical
distribution helpers.

All of it is numpy and standard-library code, evaluated in log-domain
wherever intermediate quantities can overflow double precision (Bessel
functions of large order, gamma functions of large argument, Mellin-Barnes
integrands).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, InsufficientSamplesError

_MASK64 = (1 << 64) - 1

# ``product_gamma_logpdf``'s trapezoid: nodes evaluated per block, the node
# count past which it gives up, and the drop of the log-envelope below its
# peak at which it stops
_MELLIN_BLOCK = 32
_MELLIN_MAX_NODES = 4096
_MELLIN_TAIL = 40.0
# lowest order of ``log_bessel_i``'s uniform expansion, and its polynomials
# u_k(t) = t^k P_k(t^2), k = 1..5, as (P_k's coefficients from t^0 up, divisor)
_DEBYE_MIN_ORDER = 50.0
_DEBYE = (
    ((3, -5), 24),
    ((81, -462, 385), 1152),
    ((30375, -369603, 765765, -425425), 414720),
    ((4465125, -94121676, 349922430, -446185740, 185910725), 39813120),
    ((1519035525, -49286948607, 284499769554, -614135872350, 566098157625, -188699385875), 6688604160),
)
# lowest real part of the Stirling series of ``log_gamma_complex``,
# ``digamma`` and ``trigamma``, and their coefficients B_2k / (2k (2k - 1)),
# B_2k / (2k) and B_2k
_STIRLING_MIN = 12.0
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_DIGAMMA = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160)
_TRIGAMMA = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# the kept arrays of each thread, by slot
_KEPT = threading.local()
# the slots of ``kept_array``, each holding one step's array at a time: a
# draw's normals, chi-squares and per-mode term; then, over them, a sample
# read's weights, weighted CDF and half weights; and from SYMBOL_SLOT on, a
# bound's draws of its tag symbols
DRAW_SLOTS = (0, 1, 2)
WEIGHTS_SLOT, CDF_SLOT, HALF_SLOT = DRAW_SLOTS
SYMBOL_SLOT = 3


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


def kept_array(slot: int, size: int) -> np.ndarray:
    """The first ``size`` floats of the calling thread's kept array ``slot``.

    Each thread allocates a slot's array at its first use and regrows it
    only for a larger ``size``, so a warm Monte Carlo step allocates no
    array of its sample size; the contents are whatever the thread last
    wrote there.  ``tail.draw_tilted`` holds its variates in DRAW_SLOTS;
    a ``TiltedSample`` read its weights in WEIGHTS_SLOT, and
    ``empirical_quantile`` its weighted CDF and half weights in CDF_SLOT and
    HALF_SLOT; ``tail.draw_symbols`` a bound's draws of its tag symbols in
    SYMBOL_SLOT on, read by the symbols' steps until the thread's next
    bound call.
    """
    arrays = _KEPT.__dict__
    kept = arrays.get(slot)
    if kept is None or kept.size < size:
        kept = arrays[slot] = np.empty(size)
    return kept[:size]


def empirical_quantile(draws: np.ndarray, level, weights: np.ndarray):
    """Value gamma with weighted exceedance fraction P[X >= gamma] = level,
    from ``draws`` sorted ascending and their ``weights``, the likelihood
    ratios of the law measured to the law drawn.

    The weighted CDF of N draws reaches (w_1 + ... + w_k - w_k / 2) / N at
    the k-th smallest, the midpoint of its weight ((k - 1/2) / N with unit
    weights), and gamma is read where it reaches 1 - level, by linear
    interpolation between neighbouring order statistics, so the result is a
    deterministic function of the sample.  An array of levels gives the
    array of thresholds from one pass over the sample, each bit-equal to
    the threshold of its level alone.  The CDF is formed in the calling
    thread's kept arrays (``kept_array``), so ``weights`` must be in
    neither CDF_SLOT nor HALF_SLOT.  Raises ``InsufficientSamplesError`` for
    a level that the weighted CDF does not bracket.
    """
    levels = np.asarray(level, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if draws.size < 1:
        raise ValueError("cannot take a quantile of an empty sample")
    cdf = np.cumsum(weights, out=kept_array(CDF_SLOT, weights.size))
    cdf -= np.multiply(weights, 0.5, out=kept_array(HALF_SLOT, weights.size))
    cdf /= draws.size
    lower = 1.0 - levels
    if np.any(lower < cdf[0]) or np.any(lower > cdf[-1]):
        raise InsufficientSamplesError(
            f"weighted CDF from {cdf[0]:.3g} to {cdf[-1]:.3g} "
            f"misses lower-tail level {lower.tolist()}"
        )
    gamma = np.interp(lower, cdf, draws)
    return float(gamma) if gamma.ndim == 0 else gamma


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


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _log_ive_uniform(order, x: np.ndarray) -> np.ndarray:
    # ln(I_v(x) e^-x) by the uniform large-order (Debye) expansion of
    # I_v(v z), z = x / v, with five correction terms (Abramowitz & Stegun
    # 9.7.7; u_5 from the recurrence 9.3.10).  With s = sqrt(v^2 + x^2),
    # v eta(z) = s + v ln(x / (v + s)) and s - x = v^2 / (s + x), so the
    # scaled value carries no cancellation against e^x.  For v >= 50 the
    # first omitted term, u_6 / v^6, is below 3e-12.
    s = np.hypot(order, x)
    t2 = (order / s) ** 2
    # sum_{k>=1} u_k(t) / v^k = sum_k P_k(t^2) / s^k, by Horner's rule in 1 / s
    series = 0.0
    for coeffs, divisor in reversed(_DEBYE):
        series = (series + _horner(coeffs, t2) / divisor) / s
    log_prefactor = order * order / (s + x) + order * np.log(x / (order + s))
    return log_prefactor - 0.5 * np.log(2.0 * np.pi * s) + np.log1p(series)


def log_bessel_i(order: float, x):
    """ln I_order(x) for order >= 0 and x > 0, elementwise over an array x.

    One path for every (order, x): the uniform (Debye) expansion at the
    order shifted up by an integer to at least 50, where it is accurate to
    about 3e-12, then the backward recurrence I_{j-1} = (2j/x) I_j + I_{j+1}
    down to ``order``, run on the ratios I_j / I_{j-1}.  I is the minimal
    solution of that recurrence, so the backward direction damps the error
    of its starting ratio.  The result is accurate to about 2e-11 absolute,
    or a few ulp of the value where that is larger (x above about 1e5).
    """
    x = np.asarray(x, dtype=float)
    if order < 0 or np.any(x <= 0):
        raise ValueError("log_bessel_i requires order >= 0 and x > 0")
    steps = max(0, math.ceil(_DEBYE_MIN_ORDER - order))
    top = order + steps
    out = _log_ive_uniform(top, x)
    if steps:
        # I_{top+1} / I_top, then I_j / I_{j-1} for j = top, ..., order + 1
        ratio = np.exp(_log_ive_uniform(top + 1.0, x) - out)
        for j in top - np.arange(steps):
            ratio = 1.0 / (2.0 * j / x + ratio)
            out = out - np.log(ratio)
    out = x + out
    return float(out) if out.ndim == 0 else out


def log_gamma_complex(w):
    """ln Gamma(w) for complex w with Re w > 0, elementwise over an array,
    up to a multiple of 2 pi i in the imaginary part.

    The Stirling series with eight Bernoulli terms (first omitted term below
    1e-19), after Gamma(w) = Gamma(w + k) / (w (w + 1) ... (w + k - 1)) has
    shifted every real part to at least 12; the logarithm of that product,
    taken whole, is what leaves the branch open.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w.real <= 0):
        raise ValueError("log_gamma_complex requires Re w > 0")
    steps = max(0, math.ceil(_STIRLING_MIN - float(w.real.min())))
    shift = np.ones_like(w)
    for j in range(steps):
        shift *= w + j
    w = w + steps
    out = (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI + _horner(_STIRLING, 1.0 / (w * w)) / w
    return out - np.log(shift) if steps else out


def digamma(x: float) -> float:
    """psi(x) = d ln Gamma(x) / dx for real x > 0: the asymptotic series with
    eight Bernoulli terms, after the recurrence psi(x) = psi(x + 1) - 1/x has
    shifted x to at least 12."""
    if x <= 0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while x < _STIRLING_MIN:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - _horner(_DIGAMMA, inv2) * inv2


def trigamma(x: float) -> float:
    """psi'(x) = d psi(x) / dx for real x > 0: the asymptotic series with
    eight Bernoulli terms, after the recurrence psi'(x) = psi'(x + 1) + 1/x^2
    has shifted x to at least 12."""
    if x <= 0:
        raise ValueError("trigamma requires x > 0")
    acc = 0.0
    while x < _STIRLING_MIN:
        acc += 1.0 / (x * x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    return acc + (1.0 + (0.5 + _horner(_TRIGAMMA, inv2) / x) / x) / x


def _digamma_inverse(y: float) -> float:
    """The x > 0 with psi(x) = y, by Newton's method from Minka's start
    (2000), which leaves no step to reach x <= 0."""
    x = math.exp(y) + 0.5 if y >= -2.22 else -1.0 / (y - digamma(1.0))
    for _ in range(50):
        step = (digamma(x) - y) / trigamma(x)
        x -= step
        if abs(step) <= 1e-12 * x:
            return x
    raise ConvergenceError(f"no real saddle found for psi(x) = {y:g}")


def product_gamma_logpdf(z: float, copies: int, shape: int, scale: float) -> float:
    """ln of the density of a product of ``copies`` iid Gamma(shape, scale).

    Evaluated by Mellin inversion: the Mellin transform of the product is
    (scale^m)^(s-1) Gamma(shape + s - 1)^m / Gamma(shape)^m (the complex
    ln Gamma from ``log_gamma_complex``, whose 2 pi i ambiguity the m-th
    multiple and the cosine of the phase absorb).  With x = ln(z / scale^m),
    the inverse integrand exp(-s x) Gamma(shape + s - 1)^m is integrated on
    the vertical line through its real saddle, where v = shape - 1 + Re s
    solves m psi(v) = x (Daniels 1954): there its phase is stationary and
    its envelope falls monotonically in |Im s|.  One trapezoid pass with
    step min(1/2 / sqrt(m psi'(v)), v / 5), half the width of the peak and a
    fifth of the distance to the poles of Gamma, converges geometrically
    (Trefethen & Weideman 2014); it runs in blocks of 32 nodes until the
    envelope falls below e^-40 of its peak.  All gamma factors stay in
    log-domain.  Raises ``ConvergenceError`` past 4096 nodes, or if the sum
    is not positive.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if shape < 1:
        raise ValueError("shape must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if z <= 0:
        raise ValueError("z must be positive")

    m = int(copies)
    x = math.log(z) - m * math.log(scale)
    v = _digamma_inverse(x / m)
    c = v - shape + 1.0
    h = min(0.5 / math.sqrt(m * trigamma(v)), v / 5.0)

    # sum of Re exp(log f(k h) - log f(0)) over k >= 0
    total, k = 0.0, 0
    while True:
        t = h * np.arange(k, k + _MELLIN_BLOCK)
        log_f = m * log_gamma_complex(v + 1j * t) - (c + 1j * t) * x
        if k == 0:
            peak = float(log_f[0].real)
        total += float(np.sum(np.exp(log_f.real - peak) * np.cos(log_f.imag)))
        k += _MELLIN_BLOCK
        if log_f[-1].real - peak < -_MELLIN_TAIL:
            break
        if k >= _MELLIN_MAX_NODES:
            raise ConvergenceError(f"Mellin quadrature needs more than {_MELLIN_MAX_NODES} nodes")
    # the trapezoid rule gives the node at t = 0, whose term is 1, half weight
    value = h * (total - 0.5)
    if not value > 0.0:
        raise ConvergenceError("Mellin quadrature sum is not positive")
    return -m * math.log(scale) - m * math.lgamma(shape) + peak + math.log(value / math.pi)
