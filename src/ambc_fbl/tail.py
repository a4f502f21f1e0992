"""What both bounds share: the tail engine and the tag-symbol driver.

Both bounds need the Neyman-Pearson type-II error beta of one information
density X, and each beta is an upper tail of X under the output law: at
the conditional law's level-(1 - eps + tau) quantile for the kappa-beta
achievability bound, at its level-(1 - eps) quantile eta for the
meta-converse.  This module owns that law, the one beta estimator (a raw
change-of-measure mean, replaced by an exponentially tilted estimate of the
deep tail that raw Monte Carlo cannot reach), and ``mixed_rate``, which
evaluates a bound's two tag symbols at the same time through ``run_calls``
(one thread pool, shared with the sweep) and mixes them.  One tilted
sample serves several thresholds: the achievability bound draws one per
tag symbol, on its ``rng.split(2)``, tilted to the lowest threshold that
falls back, and every tau level that falls back reads it.

Per active mode j with y = g_j p_j > 0, X has the per-block contribution
  n (log(1+y) + 1) - s * W,   W ~ ncx2(2n, lam),
with lam = 2n(1+y)/y and s = y/2 under the output law: an exact identity
for the sum over the n per-use terms, obtained by splitting each complex
Gaussian into its real and imaginary parts.  Zero-power modes contribute
exactly zero.  The law tilted by theta (density times e^(theta x - K(theta)),
K the closed-form cumulant generating function) has noncentrality lam / a
and scale s / a, a = 1 + 2 theta s.  X is the log-likelihood ratio of the
conditional law to the output law, so K(1) = 0 and the conditional law is
the tilt by 1: noncentrality 2n/y and scale y/(2(1+y)).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from .channel import EigenSpectrum
from .errors import ConvergenceError, InsufficientSamplesError
from .numerics import SeededRng
from .power import PowerAllocation

KIND_OUTPUT = "output"  # information density drawn under the output law
KIND_CONDITIONAL = "conditional"  # drawn under the conditional law
_KIND_TILTS = {KIND_OUTPUT: 0.0, KIND_CONDITIONAL: 1.0}  # the tilt each kind is drawn from
# the tilt solve's iteration limit, and its step tolerance relative to 1 + |theta|
_TILT_MAXITER = 100
_TILT_XTOL = 1e-12


class LawParams:
    """The output law of the blocklength-n information density, and its
    exponential family of tilts."""

    def __init__(self, n: int, gammas: np.ndarray):
        active = np.asarray(gammas, dtype=float)
        active = active[active > 0]
        self.n = int(n)
        self.gammas = active
        self.const = n * (np.log1p(active) + 1.0)
        self.lam = 2.0 * n * (1.0 + active) / active
        self.scale = active / 2.0

    @property
    def degenerate(self) -> bool:
        return self.gammas.size == 0

    def theta_lower(self) -> float:
        # tilt validity: 1 + 2 theta * scale_j > 0 for every mode
        return -1.0 / (2.0 * self.scale.max())

    def cgf(self, theta: float) -> float:
        t = -theta * self.scale
        return float(
            theta * self.const.sum()
            + (self.lam * t / (1.0 - 2.0 * t) - self.n * np.log1p(-2.0 * t)).sum()
        )

    def cgf_derivatives(self, theta: float) -> Tuple[float, float]:
        """K'(theta) and K''(theta), the mean and variance of the law tilted
        by theta, in one pass: with a = 1 + 2 theta s per mode,
        K' = sum c - s (lam / a^2 + 2n / a) and K'' = sum 4 s^2 (lam / a^3 + n / a^2)."""
        s = self.scale
        a = 1.0 + 2.0 * theta * s
        mean = self.const.sum() - (s * (self.lam / a**2 + 2.0 * self.n / a)).sum()
        var = (4.0 * s**2 * (self.lam / a**3 + self.n / a**2)).sum()
        return float(mean), float(var)

    def tilt(self, theta: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-mode noncentrality lam / a and scale s / a of the tilt by theta."""
        a = 1.0 + 2.0 * theta * self.scale
        return self.lam / a, self.scale / a

    def sample(self, gen: np.random.Generator, size: int, theta: float = 0.0) -> np.ndarray:
        """``size`` draws from the law tilted by ``theta``."""
        out = np.zeros(size)
        for c, lam, s in zip(self.const, *self.tilt(theta)):
            w = gen.noncentral_chisquare(self.n, lam, size)
            w += gen.chisquare(self.n, size)
            # c - s * w, evaluated in place
            w *= s
            np.subtract(c, w, out=w)
            out += w
        return out

    def solve_tilt(self, target: float) -> float:
        """Tilt parameter whose tilted mean K'(theta) equals ``target``.

        Newton's method on K', from theta = 0, or, for a target below the
        mean, from the first of theta_lower (1 - 2^-k), k = 1, 2, ..., whose
        mean lies at or below it.  K' rises and is concave, so no step from
        below the root passes it; the search stops once a step falls below
        1e-12 (1 + |theta|).  Raises ``ValueError`` for a target at or above
        the supremum of the law, and ``ConvergenceError`` on a NaN or when
        100 halvings and steps leave the root unresolved.
        """
        if target >= float(self.const.sum()):
            raise ValueError("target above the supremum of the law")
        theta, below = 0.0, False
        for _ in range(_TILT_MAXITER):
            mean, var = self.cgf_derivatives(theta)
            below = below or not mean > target  # NaN counts as below, and fails the step
            if not below:
                theta = 0.5 * (theta + self.theta_lower())
                continue
            step = (target - mean) / var
            if math.isnan(step):
                raise ConvergenceError(f"tilt search met a NaN at theta = {theta}")
            theta += step
            if step <= _TILT_XTOL * (1.0 + abs(theta)):
                return theta
        raise ConvergenceError(f"tilt search did not converge in {_TILT_MAXITER} iterations")

    def log_tail_bound(self, threshold: float) -> float:
        """Chernoff bound on log P[X >= threshold]: the minimum over theta >= 0
        of cgf(theta) - theta * threshold, attained at the tilt whose mean is
        the threshold.  0 (the trivial bound) at or below the mean; -inf at
        or above the supremum of the law."""
        if threshold <= self.cgf_derivatives(0.0)[0]:
            return 0.0
        if threshold >= float(self.const.sum()):
            return -math.inf
        theta = self.solve_tilt(threshold)
        return self.cgf(theta) - theta * threshold


def mode_gammas(g: EigenSpectrum, p: PowerAllocation) -> np.ndarray:
    """Per-mode received SNRs g_j p_j."""
    return np.asarray(g.g, dtype=float) * np.asarray(p.p, dtype=float)


def sample_law(
    kind: str, n: int, gammas: np.ndarray, rng: SeededRng, num_samples: int
) -> np.ndarray:
    """Raw draws of the blocklength-n information density under ``kind``:
    the output law, or the conditional law, its tilt by 1."""
    if kind not in _KIND_TILTS:
        raise ValueError(f"unknown law kind {kind!r}")
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    if num_samples < 1000:
        raise ValueError("num_samples must be >= 1000")
    return LawParams(n, gammas).sample(rng.generator(), num_samples, _KIND_TILTS[kind])


class TiltedSample:
    """One importance sample that serves upper tails of the output law ``law``
    at several thresholds: ``size`` draws from ``rng`` of the law
    exponentially tilted so that its mean sits at the first threshold read,
    drawn at that first read.

    ``log_tail(threshold)`` gives log P[X >= threshold] under ``law``, with
    its relative 95% CI, from the draws reweighted by the likelihood ratio
    exp(cgf(theta) - theta X).  Every read must lie at or above the first,
    x_0 (one below raises ``ValueError``).  With x_0 above the law's mean, as in every deep tail, the tilt is
    positive and each weight there is at most exp(cgf(theta) - theta x_0),
    so the sample serves thresholds a fraction of a standard deviation
    above x_0 as well as x_0 itself.  Read once, it is the tilted estimate
    of one tail, as the converse reads it at eta; the achievability bound
    reads its four tau levels from one sample.  Raises
    ``InsufficientSamplesError`` when no draw reaches the threshold or the
    relative CI exceeds 0.5.
    """

    def __init__(self, law: LawParams, rng: SeededRng, size: int):
        self.law = law
        self._rng = rng
        self._size = size
        self._lowest = math.nan  # the first threshold read
        self._theta = 0.0
        self._draws: Optional[np.ndarray] = None

    def log_tail(self, threshold: float) -> Tuple[float, float]:
        if self._draws is None:
            self._lowest = threshold
            self._theta = self.law.solve_tilt(threshold)
            self._draws = self.law.sample(self._rng.generator(), self._size, self._theta)
        elif threshold < self._lowest:
            raise ValueError("a tilted sample reads no threshold below its first")
        theta, draws = self._theta, self._draws
        # cgf - theta x, and below its shift and exp, in place, so the draws
        # and this one buffer are the sample-sized arrays a read holds
        log_w = theta * draws
        np.subtract(self.law.cgf(theta), log_w, out=log_w)
        accepted = draws >= threshold
        if not accepted.any():
            raise InsufficientSamplesError("no tilted draw reached the threshold")
        mx = float(log_w[accepted].max())
        log_w -= mx
        # rejected draws weigh 0; their log weights can lie far above mx, and
        # exp would overflow on them
        log_w[~accepted] = -np.inf
        shifted = np.exp(log_w, out=log_w)
        mean = float(shifted.mean())
        ci_rel = 1.96 * float(shifted.std() / math.sqrt(self._size)) / mean
        if ci_rel > 0.5:
            raise InsufficientSamplesError(f"tilted estimate relative CI {ci_rel:.2f} > 0.5")
        return mx + math.log(mean), ci_rel


@dataclass(frozen=True)
class BetaEstimate:
    """Type-II error estimate with its threshold and accuracy diagnostics.

    ``log_beta`` is authoritative; ``beta`` itself can underflow to zero for
    large blocklengths.  ``ci_rel`` is the relative 95% half-width of the
    kept estimate and ``ess`` the effective sample size of the raw estimate
    (0.0 when no raw draws were made).  ``tilted`` marks the tilted path.
    Nothing sets ``lower_bound_only`` any more; it stays, always False,
    because ``perfbench/tracer.py`` reads it from every converse estimate.
    """

    beta: float
    log_beta: float
    threshold: float
    ci_rel: float
    ess: float
    tilted: bool
    lower_bound_only: bool = False


def estimate_beta(
    level: float,
    threshold: float,
    tail_draws: Optional[np.ndarray],
    draws_tilt: float,
    min_ess: float,
    tilted: TiltedSample,
) -> BetaEstimate:
    """beta = P[X > ``threshold``] under the output law ``tilted.law``, for
    the test of exceedance level ``level``: the raw mean of
    exp(-t X) 1{X > threshold} over ``tail_draws``, drawn from the tilt by
    t = ``draws_tilt`` (0 or 1, where cgf(t) = 0).

    The raw mean is kept when its effective sample size reaches ``min_ess``
    and its relative CI is at most 0.5.  Otherwise, or when ``tail_draws``
    is None (no raw draws made), the tail is read from ``tilted``, one
    tilted sample that the caller may share among several thresholds: the
    achievability bound's four tau share one, drawn on ``rng.split(2)`` and
    tilted to the lowest threshold that falls back.  A law without active
    modes has X = 0 under both hypotheses, so the test rejects at random
    and beta is ``level`` exactly, before any draw is read.
    """
    if tilted.law.degenerate:
        return BetaEstimate(level, math.log(level), threshold, 0.0, 0.0, tilted=False)
    ess = 0.0
    x = tail_draws
    if x is not None:
        # a zero tilt gives unit weights without a pass of exp over the draws
        w = np.exp(-draws_tilt * np.clip(x, -700, None)) if draws_tilt else 1.0
        weights = np.where(x > threshold, w, 0.0)
        total = float(weights.sum())
        sq = float((weights**2).sum())
        # subnormal weights can square to exactly zero; treat that as starvation
        ess = total**2 / sq if sq > 0 else 0.0
        if ess >= min_ess:
            mean = total / x.size
            ci_rel = 1.96 * float(weights.std() / math.sqrt(x.size)) / mean
            if ci_rel <= 0.5:
                return BetaEstimate(mean, math.log(mean), threshold, ci_rel, ess, tilted=False)
        del w, weights  # not held through the tilted estimate's own draws
    log_beta, ci_rel = tilted.log_tail(threshold)
    return BetaEstimate(float(np.exp(log_beta)), log_beta, threshold, ci_rel, ess, tilted=True)


@dataclass(frozen=True)
class MixedRate:
    """A bound mixed over the equiprobable tag symbol; ``per_d`` holds the
    per-symbol results for d = -1 and d = +1."""

    rate_nats: float
    rate_bits: float
    ci_rate_bits: float
    per_d: Tuple[Any, Any]


def mixed_rate(
    fixed_d_rate: Callable[..., Any],
    n: int,
    g_plus: EigenSpectrum,
    g_minus: EigenSpectrum,
    total_power: float,
    eps: float,
    rng: SeededRng,
    num_samples: int,
) -> MixedRate:
    """``fixed_d_rate(n, g, total_power, eps, rng, num_samples)`` for both
    tag symbols, evaluated at the same time by ``run_calls`` and mixed with
    equal weight through ``rate_nats`` and ``ci_rate_bits``.  Both read the
    same substreams of ``rng`` (common random numbers), so equal spectra
    give equal rates, and the result does not depend on the CPU count.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    res_minus, res_plus = run_calls(
        [partial(fixed_d_rate, n, g, total_power, eps, rng, num_samples) for g in (g_minus, g_plus)]
    )
    rate = 0.5 * (res_minus.rate_nats + res_plus.rate_nats)
    ci = 0.5 * math.hypot(res_minus.ci_rate_bits, res_plus.ci_rate_bits)
    return MixedRate(rate, rate / math.log(2), ci, (res_minus, res_plus))


# the process-wide pool of run_calls, created at first use
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shared_pool() -> Optional[ThreadPoolExecutor]:
    """The pool of (usable CPUs - 1) workers, or None with one usable CPU."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            cpus = _usable_cpus()
            if cpus < 2:
                return None
            _POOL = ThreadPoolExecutor(max_workers=cpus - 1, thread_name_prefix="ambc-fbl")
        return _POOL


def run_calls(calls: Sequence[Callable[[], Any]]) -> list:
    """Results of ``calls``, in list order, evaluated at the same time.

    Idle workers of one process-wide pool take calls from the queue; the
    calling thread runs every call that no worker has started yet itself,
    going on to later calls before it waits for any running one.  A call
    therefore never waits for queued work, so calls may nest (a sweep's
    bounds, each splitting its two tag symbols) without deadlock, and at
    most one thread per usable CPU computes.  With one usable CPU every
    call runs inline, in order, and no pool is created.

    A failing call stops every call after it in list order from starting;
    calls already running are waited for, and the exception of the first
    failing call in list order is raised, as in a serial run.
    """
    pool = _shared_pool() if len(calls) > 1 else None
    if pool is None:
        return [call() for call in calls]
    results: list = [None] * len(calls)
    errors = {}
    stop = len(calls)  # no call after this index starts
    lock = threading.Lock()

    def run(i: int) -> None:
        nonlocal stop
        if i > stop:
            return
        try:
            results[i] = calls[i]()
        except BaseException as exc:  # re-raised below, on the calling thread
            with lock:
                errors[i] = exc
                stop = min(stop, i)

    futures = [pool.submit(run, i) for i in range(len(calls))]
    started = []
    for i, future in enumerate(futures):
        if future.cancel():
            run(i)
        else:
            started.append(future)
    # a cancelled future counts as done only once a worker dequeues it
    wait(started)
    if errors:
        raise errors[min(errors)]
    return results
