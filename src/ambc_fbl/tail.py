"""What both bounds share: the law, the one raw draw per bound call and
the tilted sample it gives each tag symbol, the per-symbol record and the
mixture over the two tag symbols.

Both bounds read thresholds off the conditional law of one information
density X and, at each, a Neyman-Pearson type-II error beta, an upper tail
of X under the output law: at the conditional law's level-(1 - eps + tau)
exceedance quantile for the kappa-beta achievability bound, at its
level-(1 - eps) quantile eta for the meta-converse.  So each bound call
builds, per tag symbol, the ``SymbolLaw`` of its spectrum: its
``LawParams``, tilted by ``pilot_tilt`` of the bound's lowest lower-tail
level (eps / 2 for the achievability, eps for the converse), the tilt whose
mean is the normal approximation of the lowest threshold and so the
importance sampler for the thresholds and beta alike.  ``draw_symbols``
then makes the call's one raw draw on its ``rng.split(0)``, from which
each symbol forms its own tilted draws, exactly those of a sample of its
own on that stream.  A ``TiltedSample`` sorts a symbol's draws once, in
place; ``thresholds`` reads all the bound's levels in one weighted quantile
pass, and each ``beta`` read is a binary search and one pass over the
draws it accepts.  The bounds differ only in their levels and constants:
``best_bound`` turns a bound's (level, log constant, beta) candidates into
its ``SymbolBound``, and ``mixed_rate`` mixes the two tag symbols' bounds.
A bound call runs its two symbols in order, d = -1 then d = +1, on the
calling thread, and starts no thread.

Every array of ``num_samples`` floats lives in the per-thread arrays of
``numerics.kept_array``, allocated at a thread's first use and regrown
only for a larger ``num_samples``, so a warm bound call allocates none.
After a bound call the thread that ran it keeps 5 such arrays: its two
symbols' draws, and the draw's variates, reused by the reads for their
weights and weighted CDF.

Per active mode j with y = g_j p_j > 0, X has the per-block contribution
  n (log(1+y) + 1) - s * W,   W ~ ncx2(2n, lam),
with lam = 2n(1+y)/y and s = y/2 under the output law: an exact identity
for the sum over the n per-use terms, obtained by splitting each complex
Gaussian into its real and imaginary parts.  Every draw takes W as
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
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .channel import EigenSpectrum
from .errors import ConvergenceError, InsufficientSamplesError
from .numerics import (
    DRAW_SLOTS,
    SYMBOL_SLOT,
    WEIGHTS_SLOT,
    SeededRng,
    empirical_quantile,
    gaussian_q_inv,
    kept_array,
)
from .power import PowerAllocation, waterfill

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
        """``size`` draws from the law tilted by ``theta``: ``draw_tilted``
        for this law alone, into a fresh array."""
        out = np.empty(size)
        draw_tilted(gen, [self], [theta], [out])
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

    def pilot_tilt(self, level: float) -> float:
        """The tilt theta0 whose mean K'(theta0) is x0 = K'(1) - sqrt(K''(1))
        Q^-1(``level``), the normal approximation of the conditional law's
        quantile at lower-tail level ``level``, clamped to [0, 1]: 0 when x0
        <= K'(0), the output law's mean, and 1 when x0 >= K'(1)."""
        mean, var = self.cgf_derivatives(1.0)
        x0 = mean - math.sqrt(var) * gaussian_q_inv(level)
        if x0 <= self.cgf_derivatives(0.0)[0]:
            return 0.0
        return 1.0 if x0 >= mean else self.solve_tilt(x0)


def draw_tilted(
    gen: np.random.Generator,
    laws: Sequence[LawParams],
    thetas: Sequence[float],
    outs: Sequence[np.ndarray],
) -> None:
    """Fill each array of ``outs`` with draws of its law of ``laws`` (one
    blocklength) tilted by its theta of ``thetas``, all from one set of
    variates of ``gen``.

    Mode by mode, for as many modes as the law with most has, the draw
    takes N standard normals Z_j, then N chi2(2n - 1) variates C_j (twice
    a standard gamma of shape n - 1/2, bit-equal to ``chisquare(2n - 1)``),
    and adds c_j - s'_j (C_j + (Z_j + sqrt(lam'_j))^2) into the draws of
    each law with a mode j: W = C_j + (Z_j + sqrt(lam'_j))^2 is
    ncx2(2n, lam'_j), one gamma draw per mode.  A law reads the variates of
    its own leading modes, so its draws equal those of its own ``sample``
    on the same stream, whatever the other laws.  The variates and each
    mode's term live in the calling thread's kept arrays (DRAW_SLOTS of
    ``numerics.kept_array``), reused from mode to mode.
    """
    size = outs[0].size
    tilts = [law.tilt(theta) for law, theta in zip(laws, thetas)]
    normals, chi2, term = (kept_array(slot, size) for slot in DRAW_SLOTS)
    for out in outs:
        out.fill(0.0)
    for j in range(max(law.gammas.size for law in laws)):
        gen.standard_normal(out=normals)
        gen.standard_gamma(laws[0].n - 0.5, out=chi2)
        chi2 *= 2.0
        for law, (lam, s), out in zip(laws, tilts, outs):
            if j < lam.size:
                # out += c - s * (chi2 + (normals + sqrt(lam))^2), in term
                np.add(normals, math.sqrt(lam[j]), out=term)
                np.square(term, out=term)
                term += chi2
                term *= s[j]
                np.subtract(law.const[j], term, out=term)
                out += term


@dataclass(frozen=True)
class SymbolLaw:
    """Tag symbol ``g.d`` of a bound: its power allocation ``p``, its law
    and the tilt ``theta`` of the draws that its thresholds and beta read."""

    g: EigenSpectrum
    p: PowerAllocation
    law: LawParams
    theta: float


def symbol_laws(
    n: int, spectra: Sequence[EigenSpectrum], total_power: float, level: float
) -> list:
    """The ``SymbolLaw`` of each spectrum: waterfilled at ``total_power``,
    its law at blocklength n, tilted by the law's ``pilot_tilt(level)``."""
    out = []
    for g in spectra:
        p = waterfill(g, total_power)
        law = LawParams(n, mode_gammas(g, p))
        out.append(SymbolLaw(g, p, law, law.pilot_tilt(level)))
    return out


def draw_symbols(symbols: Sequence[SymbolLaw], rng: SeededRng, num_samples: int) -> list:
    """A bound's one raw draw: ``num_samples`` draws of each symbol's law,
    tilted by its theta, from ``rng`` by ``draw_tilted``, in the calling
    thread's kept arrays from SYMBOL_SLOT on.  They stay there, for the
    symbols' steps to sort and read, until the thread's next bound call."""
    outs = [kept_array(SYMBOL_SLOT + i, num_samples) for i in range(len(symbols))]
    draw_tilted(rng.generator(), [s.law for s in symbols], [s.theta for s in symbols], outs)
    return outs


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
    """A bound's one sample for one tag symbol: ``draws`` of ``law`` tilted
    by ``theta`` in [0, 1], sorted once in place and kept, from which its
    thresholds and every beta are read.  Each read forms its weights in the
    calling thread's kept arrays, so reads of several samples may
    interleave.

    As K(1) = 0, a draw x has the likelihood ratio exp((1 - theta) x +
    K(theta)) to the conditional law, by which ``thresholds`` weights it,
    and exp(K(theta) - theta x) to the output law, by which ``beta`` does.
    At theta = ``law.pilot_tilt`` of the bound's lowest lower-tail level
    the draws cluster at the lowest threshold, in the lower tail of the
    conditional law and the upper tail of the output law, where both
    weights stay moderate.  At theta = 1 the thresholds are plain sample
    quantiles, at theta = 0 beta is plain output-law Monte Carlo.
    """

    def __init__(self, law: LawParams, theta: float, draws: np.ndarray):
        self.theta = theta
        self._degenerate = law.degenerate
        draws.sort()
        self._draws = draws
        self._cgf = law.cgf(theta)

    def _log_weights(self, start: int) -> np.ndarray:
        """The output-law log weights K(theta) - theta x of the draws from
        index ``start`` on, in the calling thread's kept WEIGHTS_SLOT.  With
        theta >= 0 they fall as x rises, so the first is the largest."""
        draws = self._draws[start:]
        log_w = np.multiply(draws, self.theta, out=kept_array(WEIGHTS_SLOT, draws.size))
        return np.subtract(self._cgf, log_w, out=log_w)

    def thresholds(self, levels: Sequence[float]) -> list:
        """The thresholds with conditional exceedance probability
        ``levels``, from one weighted quantile pass over the draws."""
        weights = self._log_weights(0)
        weights += self._draws
        return empirical_quantile(self._draws, levels, np.exp(weights, out=weights)).tolist()

    def beta(self, level: float, threshold: float) -> BetaEstimate:
        """beta = P[X >= ``threshold``] under the output law, for the test
        of exceedance level ``level``, from the draws reweighted by the
        likelihood ratio exp(K(theta) - theta X), with its relative 95% CI.

        A law without active modes has X = 0 under both hypotheses, so the
        test rejects at random and beta is ``level`` exactly.  Raises
        ``InsufficientSamplesError`` when no draw reaches the threshold or
        the relative CI exceeds 0.5.
        """
        if self._degenerate:
            return BetaEstimate(level, math.log(level), threshold, 0.0, tilted=False)
        log_w = self._log_weights(int(np.searchsorted(self._draws, threshold)))
        if log_w.size == 0:
            raise InsufficientSamplesError("no tilted draw reached the threshold")
        mx = float(log_w[0])
        log_w -= mx
        shifted = np.exp(log_w, out=log_w)
        # mean and population variance over all draws, each rejected draw
        # a weight of 0; the squares are summed in place, not by a BLAS dot,
        # which stalls when two threads call a multithreaded BLAS at once
        num = self._draws.size
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


def check_mc_args(eps: float, num_samples: int) -> None:
    """Refuse eps outside (0, 1), fewer than 1000 samples, and num_samples *
    eps / 2 < 1 (``InsufficientSamplesError``): with unit weights, less than
    one draw expected below the lowest achievability threshold, a floor kept
    until ROADMAP item 2 measures one for the weighted quantile."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if num_samples < 1000:
        raise ValueError("num_samples must be >= 1000")
    if num_samples * eps / 2 < 1:
        raise InsufficientSamplesError(
            f"mc_samples * eps / 2 = {num_samples * eps / 2:.3g} < 1: less than one "
            "conditional draw is expected below the lowest threshold"
        )


def mixed_rate(minus: SymbolBound, plus: SymbolBound) -> MixedRate:
    """The bounds of tag symbols d = -1 and d = +1 mixed with equal weight
    through ``rate_nats`` and ``ci_rate_bits``.  A bound's two symbols read
    one draw of one substream (common random numbers), so equal spectra
    give equal rates.
    """
    rate = 0.5 * (minus.rate_nats + plus.rate_nats)
    ci = 0.5 * math.hypot(minus.ci_rate_bits, plus.ci_rate_bits)
    return MixedRate(rate, rate / math.log(2), ci, (minus, plus))
