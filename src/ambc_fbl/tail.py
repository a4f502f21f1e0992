"""What both bounds share: the law, the threshold-and-tilt step, the
per-symbol record and the mixture over the two tag symbols.

Both bounds need the Neyman-Pearson type-II error beta of one information
density X, and each beta is an upper tail of X under the output law: at
the conditional law's level-(1 - eps + tau) quantile for the kappa-beta
achievability bound, at its level-(1 - eps) quantile eta for the
meta-converse.  So each bound, per tag symbol, builds the ``LawParams`` of
its spectrum once, draws a conditional sample of it on its
``rng.split(0)``, and hands both to ``tilted_at_thresholds``: one quantile
pass over the draws for all the bound's levels, and one ``TiltedSample``
on its ``rng.split(1)``, the one beta estimator: a sample of the output
law, exponentially tilted so that its mean sits at the lowest threshold
(untilted when that threshold lies at or below the law's mean), of which
only the draws at or above that threshold are kept, sorted, so each read
is a binary search and one pass over the draws it accepts.  The bounds
differ only in their levels and constants: ``best_bound`` turns a bound's
(level, log constant, beta) candidates into its ``SymbolBound``, and
``mixed_rate`` evaluates the two tag symbols at the same time through
``run_calls`` (one thread pool, shared with the sweep) and mixes them.

Per active mode j with y = g_j p_j > 0, X has the per-block contribution
  n (log(1+y) + 1) - s * W,   W ~ ncx2(2n, lam),
with lam = 2n(1+y)/y and s = y/2 under the output law: an exact identity
for the sum over the n per-use terms, obtained by splitting each complex
Gaussian into its real and imaginary parts.  Every sample draws W as
chi2(2n - 1) + (Z + sqrt(lam))^2, one gamma and one normal draw per mode.
Zero-power modes contribute exactly zero.  The law tilted by theta (density
times e^(theta x - K(theta)), K the closed-form cumulant generating
function) has noncentrality lam / a and scale s / a, a = 1 + 2 theta s.  X
is the log-likelihood ratio of the conditional law to the output law, so
K(1) = 0 and the conditional law is the tilt by 1: noncentrality 2n/y and
scale y/(2(1+y)).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .channel import EigenSpectrum
from .errors import ConvergenceError, InsufficientSamplesError
from .numerics import SeededRng, empirical_quantile
from .power import PowerAllocation

# the tilt solve's iteration limit, and its step tolerance relative to 1 + |theta|
_TILT_MAXITER = 100
_TILT_XTOL = 1e-12


class LawParams:
    """The output law of the blocklength-n information density, and its
    exponential family of tilts."""

    def __init__(self, n: int, gammas: np.ndarray):
        if n < 1:
            raise ValueError("blocklength must be >= 1")
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
        """``size`` draws from the law tilted by ``theta``, with one gamma draw
        per mode: W = chi2(2n - 1) + (Z + sqrt(lam))^2, Z standard normal, is
        ncx2(2n, lam)."""
        out = np.zeros(size)
        for c, lam, s in zip(self.const, *self.tilt(theta)):
            w = gen.standard_normal(size)
            w += math.sqrt(lam)
            np.square(w, out=w)
            w += gen.chisquare(2 * self.n - 1, size)
            # out += c - s * w, in place in w
            w *= s
            np.subtract(c, w, out=w)
            out += w
        return out

    def solve_tilt(self, target: float) -> float:
        """Tilt parameter theta > 0 whose tilted mean K'(theta) equals
        ``target``, for a target between the law's mean and its supremum.

        Newton's method on K' from theta = 0.  K' rises and is concave, so
        no step passes the root; the search stops once a step falls below
        1e-12 (1 + |theta|).  Raises ``ValueError`` for a target at or below
        the mean or at or above the supremum of the law, and
        ``ConvergenceError`` on a NaN or when 100 steps leave the root
        unresolved.
        """
        if target >= float(self.const.sum()):
            raise ValueError("target above the supremum of the law")
        theta = 0.0
        mean, var = self.cgf_derivatives(theta)
        if target <= mean:
            raise ValueError("target at or below the mean of the law")
        for _ in range(_TILT_MAXITER):
            step = (target - mean) / var
            if math.isnan(step):
                raise ConvergenceError(f"tilt search met a NaN at theta = {theta}")
            theta += step
            if step <= _TILT_XTOL * (1.0 + abs(theta)):
                return theta
            mean, var = self.cgf_derivatives(theta)
        raise ConvergenceError(f"tilt search did not converge in {_TILT_MAXITER} iterations")


def mode_gammas(g: EigenSpectrum, p: PowerAllocation) -> np.ndarray:
    """Per-mode received SNRs g_j p_j."""
    return np.asarray(g.g, dtype=float) * np.asarray(p.p, dtype=float)


@dataclass(frozen=True)
class BetaEstimate:
    """Type-II error estimate with its threshold and accuracy diagnostics.

    ``log_beta`` is authoritative; ``beta`` itself can underflow to zero for
    large blocklengths.  ``ci_rel`` is the relative 95% half-width of the
    estimate, and ``tilted`` marks a sample drawn at a tilt theta > 0.
    Nothing sets ``lower_bound_only`` any more; it stays, always False,
    because ``perfbench/tracer.py`` reads it from every converse estimate.
    """

    beta: float
    log_beta: float
    threshold: float
    ci_rel: float
    tilted: bool
    lower_bound_only: bool = False


class TiltedSample:
    """The one beta estimator: ``size`` draws from ``rng`` of the output law
    ``law`` exponentially tilted by theta = solve_tilt(``lowest``) (0 when
    ``lowest`` lies at or below the law's mean), made at construction,
    which serve upper tails of ``law`` at ``lowest`` and every threshold
    above it.

    With ``lowest`` above the law's mean, as in every deep tail, the tilt
    puts the sample's mean at ``lowest``, and each weight at or above it is
    at most exp(cgf(theta) - theta * lowest), so the sample serves
    thresholds a fraction of a standard deviation above ``lowest`` as well
    as ``lowest`` itself: the achievability bound reads its four tau levels
    from one sample.  At or below the mean theta is 0 and the sample is
    plain output-law Monte Carlo.  A law without active modes takes no
    draws.

    Construction keeps only the draws at or above ``lowest``, sorted, with
    their log weights cgf(theta) - theta x; a read is then a binary search
    and one pass over the draws it accepts, never over the rejected ones.
    """

    def __init__(self, law: LawParams, rng: SeededRng, size: int, lowest: float):
        self._lowest = lowest
        self._size = size
        self.theta = 0.0
        self._kept: Optional[np.ndarray] = None
        if law.degenerate:
            return
        if lowest > law.cgf_derivatives(0.0)[0]:
            self.theta = law.solve_tilt(lowest)
        draws = law.sample(rng.generator(), size, self.theta)
        self._kept = draws[draws >= lowest]
        self._kept.sort()
        # with theta >= 0 the log weights fall as x rises, so the first
        # accepted draw of any read has the largest
        self._log_w = self.theta * self._kept
        np.subtract(law.cgf(self.theta), self._log_w, out=self._log_w)

    def beta(self, level: float, threshold: float) -> BetaEstimate:
        """beta = P[X >= ``threshold``] under ``law``, for the test of
        exceedance level ``level``, from the draws reweighted by the
        likelihood ratio exp(cgf(theta) - theta X), with its relative 95% CI.

        A law without active modes has X = 0 under both hypotheses, so the
        test rejects at random and beta is ``level`` exactly.  Raises
        ``ValueError`` for a threshold below ``lowest``, and
        ``InsufficientSamplesError`` when no draw reaches the threshold or
        the relative CI exceeds 0.5.
        """
        if self._kept is None:
            return BetaEstimate(level, math.log(level), threshold, 0.0, tilted=False)
        if threshold < self._lowest:
            raise ValueError("a tilted sample reads no threshold below its lowest")
        log_w = self._log_w[np.searchsorted(self._kept, threshold):]
        if log_w.size == 0:
            raise InsufficientSamplesError("no tilted draw reached the threshold")
        mx = float(log_w[0])
        shifted = np.exp(log_w - mx)
        # mean and population variance over all draws, each rejected draw
        # a weight of 0; the squares are summed in place, not by a BLAS dot,
        # which stalls when two threads call a multithreaded BLAS at once
        num = self._size
        mean = float(shifted.sum()) / num
        shifted -= mean
        np.square(shifted, out=shifted)
        var = (float(shifted.sum()) + (num - shifted.size) * mean**2) / num
        ci_rel = 1.96 * math.sqrt(var / num) / mean
        if ci_rel > 0.5:
            raise InsufficientSamplesError(f"tilted estimate relative CI {ci_rel:.2f} > 0.5")
        # at theta = 0 every weight is 1 and beta is the accepted fraction,
        # exactly
        return BetaEstimate(
            math.exp(mx) * mean, mx + math.log(mean), threshold, ci_rel, tilted=self.theta > 0
        )


def tilted_at_thresholds(
    law: LawParams, draws: np.ndarray, levels: Sequence[float], rng: SeededRng
) -> Tuple[list, TiltedSample]:
    """A bound's thresholds, the empirical exceedance quantiles of the
    conditional ``draws`` at its ``levels`` from one pass, and the one
    ``TiltedSample`` of as many draws from ``rng`` that serves them all,
    tilted to the lowest."""
    thresholds = empirical_quantile(draws, levels).tolist()
    return thresholds, TiltedSample(law, rng, draws.size, min(thresholds))


@dataclass(frozen=True)
class SymbolBound:
    """One bound for tag symbol ``d``: the rate (``log_constant`` - log beta) / n
    in nats, with its 95% CI in bits, from the ``estimate`` of beta at the
    type-I ``level`` that gave it.  The achievability's constant is kappa_tau
    at level 1 - eps + tau, the converse's is K m n at level 1 - eps."""

    rate_nats: float
    ci_rate_bits: float
    d: int
    level: float
    log_constant: float
    estimate: BetaEstimate


def best_bound(
    n: int, d: int, candidates: Iterable[Tuple[float, float, BetaEstimate]]
) -> SymbolBound:
    """The ``SymbolBound`` of the (level, log constant, estimate) candidate
    with the largest rate, the first of equal ones."""
    level, log_constant, est = max(candidates, key=lambda c: (c[1] - c[2].log_beta) / n)
    # a relative CI on beta maps to an absolute rate CI of ci_rel / n nats
    return SymbolBound(
        (log_constant - est.log_beta) / n, est.ci_rel / n / math.log(2), d, level, log_constant, est
    )


@dataclass(frozen=True)
class MixedRate:
    """A bound mixed over the equiprobable tag symbol; ``per_d`` holds the
    per-symbol bounds for d = -1 and d = +1."""

    rate_nats: float
    rate_bits: float
    ci_rate_bits: float
    per_d: Tuple[SymbolBound, SymbolBound]


def mixed_rate(
    fixed_d_rate: Callable[..., SymbolBound],
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

    Raises ``InsufficientSamplesError`` when num_samples * eps / 2 < 1: the
    lowest achievability threshold, the conditional sample's quantile at
    lower-tail level eps / 2, then has less than one draw expected below
    it, so it sits near the sample minimum, biased up, and beta is biased
    down.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if num_samples < 1000:
        raise ValueError("num_samples must be >= 1000")
    if num_samples * eps / 2 < 1:
        raise InsufficientSamplesError(
            f"mc_samples * eps / 2 = {num_samples * eps / 2:.3g} < 1: less than one "
            "conditional draw is expected below the lowest threshold"
        )
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
