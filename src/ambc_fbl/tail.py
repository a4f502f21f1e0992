"""What both bounds share: the tail engine and the tag-symbol mixture.

Both bounds need the Neyman-Pearson type-II error beta of one information
density, read at two type-I levels: 1 - eps + tau for the kappa-beta
achievability bound and 1 - eps for the meta-converse.  This module owns the
exponential-family law of that density, the tie-aware threshold of the
level-``level`` test, the one beta estimator (a raw change-of-measure mean,
replaced by an exponentially tilted estimate of the deep tail that raw Monte
Carlo cannot reach), and the equiprobable mixture of the per-symbol rates.

Per active mode j with y = g_j p_j > 0, the per-block contribution is
  n (log(1+y) + 1) - s * (X + Y),   X ~ ncx2(n, lam),  Y ~ chi2(n)
with (lam, s) = (2n(1+y)/y, y/2) under the output law and
(2n/y, y/(2(1+y))) under the conditional law.  This is an exact
distributional identity for the sum over the n per-use terms, obtained by
splitting each complex Gaussian into its real and imaginary parts.
Zero-power modes contribute exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from .channel import EigenSpectrum
from .errors import ConvergenceError, InsufficientSamplesError
from .numerics import SeededRng, brent_root, empirical_quantile
from .power import PowerAllocation

KIND_OUTPUT = "output"  # information density drawn under the output law
KIND_CONDITIONAL = "conditional"  # drawn under the conditional law


class LawParams:
    """Exponential family of the blocklength-n information density."""

    def __init__(self, kind: str, n: int, gammas: np.ndarray):
        if kind not in (KIND_OUTPUT, KIND_CONDITIONAL):
            raise ValueError(f"unknown law kind {kind!r}")
        active = np.asarray(gammas, dtype=float)
        active = active[active > 0]
        self.kind = kind
        self.n = int(n)
        self.gammas = active
        self.const = n * (np.log1p(active) + 1.0)
        if kind == KIND_OUTPUT:
            self.lam = 2.0 * n * (1.0 + active) / active
            self.scale = active / 2.0
        else:
            self.lam = 2.0 * n / active
            self.scale = active / (2.0 * (1.0 + active))

    @property
    def degenerate(self) -> bool:
        return self.gammas.size == 0

    def theta_lower(self) -> float:
        # tilt validity: 1 + theta * scale_j > 0 for every mode
        return -1.0 / (2.0 * self.scale.max())

    def cgf(self, theta: float) -> float:
        t = -theta * self.scale
        return float(
            theta * self.const.sum()
            + (self.lam * t / (1.0 - 2.0 * t) - self.n * np.log1p(-2.0 * t)).sum()
        )

    def cgf_mean(self, theta: float) -> float:
        t = -theta * self.scale
        return float(
            self.const.sum()
            - (self.scale * (self.lam / (1.0 - 2.0 * t) ** 2 + 2.0 * self.n / (1.0 - 2.0 * t))).sum()
        )

    def sample(self, gen: np.random.Generator, size: int, theta: float = 0.0) -> np.ndarray:
        out = np.zeros(size)
        t = -theta * self.scale
        for c, lam, ti, s in zip(self.const, self.lam, t, self.scale):
            w = gen.noncentral_chisquare(self.n, lam / (1.0 - 2.0 * ti), size)
            w += gen.chisquare(self.n, size)
            # c - s * w / (1 - 2 t), evaluated in place in the same order
            w *= s
            w /= 1.0 - 2.0 * ti
            np.subtract(c, w, out=w)
            out += w
        return out

    def solve_tilt(self, target: float) -> float:
        """Tilt parameter whose tilted mean equals ``target``.

        Brent's root search (``numerics.brent_root``, to 1e-12) on the tilted
        mean, over [0, hi] with hi doubled from 1 until it clears the target,
        or over (theta_lower, 0] for a target below the mean.  Raises
        ``ConvergenceError`` when hi passes 1e12 or the search fails.
        """
        base = self.cgf_mean(0.0)
        if target >= float(self.const.sum()):
            raise ValueError("target above the supremum of the law")
        if abs(target - base) < 1e-12:
            return 0.0
        if target > base:
            hi = 1.0
            while self.cgf_mean(hi) < target:
                hi *= 2.0
                if hi > 1e12:
                    raise ConvergenceError("tilt search diverged")
            return brent_root(lambda u: self.cgf_mean(u) - target, 0.0, hi, xtol=1e-12)
        lo = self.theta_lower()
        return brent_root(lambda u: self.cgf_mean(u) - target, lo * (1.0 - 1e-12), 0.0, xtol=1e-12)

    def log_tail_bound(self, threshold: float) -> float:
        """Chernoff bound on log P[X >= threshold]: the minimum over theta >= 0
        of cgf(theta) - theta * threshold, attained at the tilt whose mean is
        the threshold.  0 (the trivial bound) at or below the mean; -inf at
        or above the supremum of the law."""
        if self.degenerate or threshold <= self.cgf_mean(0.0):
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
    """Raw draws of the blocklength-n information density under ``kind``."""
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    if num_samples < 1000:
        raise ValueError("num_samples must be >= 1000")
    law = LawParams(kind, n, gammas)
    if law.degenerate:
        return np.zeros(num_samples)
    return law.sample(rng.generator(), num_samples)


def threshold_with_ties(draws: np.ndarray, levels: Sequence[float]) -> List[Tuple[float, float]]:
    """Thresholds and randomization weights of the level-``level`` exceedance
    tests, one per entry of ``levels``, from one quantile pass over ``draws``.

    Each (gamma, rho) has P[X > gamma] + rho P[X = gamma] = level on the
    empirical law; rho only matters when the sample has atoms.
    """
    out = []
    for level, gamma in zip(levels, empirical_quantile(draws, levels)):
        gamma = float(gamma)
        frac_gt = float((draws > gamma).mean())
        frac_eq = float((draws == gamma).mean())
        if frac_eq > 0:
            rho = min(max((level - frac_gt) / frac_eq, 0.0), 1.0)
        else:
            rho = 0.0
        out.append((gamma, rho))
    return out


def tilted_log_tail(
    law: LawParams, threshold: float, weight_rate: float, rng: SeededRng, size: int
) -> Tuple[float, float]:
    """log E[exp(-weight_rate X) 1{X >= threshold}] under ``law``, with its
    relative 95% CI.

    Draws ``size`` samples from the law exponentially tilted so that its mean
    sits at the threshold and reweights them by the likelihood ratio.  The
    achievability bound reads the output law's plain tail (``weight_rate``
    0); the converse reads the conditional law with weight exp(-X), which
    is the output-law tail by change of measure (``weight_rate`` 1).  Raises
    ``InsufficientSamplesError`` when the relative CI exceeds 0.5.
    """
    if law.degenerate:
        raise InsufficientSamplesError("degenerate law cannot be tilted")
    theta = law.solve_tilt(threshold)
    draws = law.sample(rng.generator(), size, theta)
    # cgf - theta x - weight_rate x, and below its shift and exp, in place,
    # so concurrent estimates hold fewer sample-sized buffers
    log_w = theta * draws
    np.subtract(law.cgf(theta), log_w, out=log_w)
    log_w -= weight_rate * draws
    accepted = draws >= threshold
    if not accepted.any():
        raise InsufficientSamplesError("no tilted draw reached the threshold")
    mx = float(log_w[accepted].max())
    log_w -= mx
    shifted = np.exp(log_w, out=log_w)
    shifted[~accepted] = 0.0
    mean = float(shifted.mean())
    ci_rel = 1.96 * float(shifted.std() / math.sqrt(size)) / mean
    if ci_rel > 0.5:
        raise InsufficientSamplesError(f"tilted estimate relative CI {ci_rel:.2f} > 0.5")
    return mx + math.log(mean), ci_rel


@dataclass(frozen=True)
class BetaEstimate:
    """Type-II error estimate with its threshold and accuracy diagnostics.

    ``log_beta`` is authoritative; ``beta`` itself can underflow to zero for
    large blocklengths.  ``ci_rel`` is the relative 95% half-width and
    ``ess`` the effective sample size of the raw estimate (0.0 when no raw
    draws were made; both NaN for a lower bound).  ``tilted`` marks the
    tilted path; ``lower_bound_only`` marks a value that only bounds beta
    from below.
    """

    beta: float
    log_beta: float
    threshold: float
    ci_rel: float
    ess: float
    tilted: bool
    lower_bound_only: bool = False


def estimate_beta(
    threshold: Tuple[float, float],
    size: int,
    tail_draws: Optional[np.ndarray],
    weight_rate: float,
    min_ess: float,
    law: Optional[LawParams] = None,
    rng: Optional[SeededRng] = None,
) -> BetaEstimate:
    """beta = E[exp(-weight_rate X) (1{X > gamma} + rho 1{X = gamma})] over
    ``tail_draws``, with (gamma, rho) = ``threshold`` as ``threshold_with_ties``
    returns it for a sample of ``size`` draws.

    The raw mean is kept when its effective sample size reaches ``min_ess``
    (or the sample has atoms, which no tilt resolves) and its relative CI is
    at most 0.5.  Otherwise, or when ``tail_draws`` is None (no raw draws
    made), the tail is re-estimated by ``tilted_log_tail`` under ``law``
    with ``size`` draws; without ``law`` or ``rng`` that raises
    ``InsufficientSamplesError``.
    """
    gamma, rho = threshold
    ess = 0.0
    x = tail_draws
    if x is not None:
        # a zero rate gives unit weights without a pass of exp over the draws
        w = np.exp(-weight_rate * np.clip(x, -700, None)) if weight_rate else 1.0
        weights = np.where(x > gamma, w, 0.0) + rho * np.where(x == gamma, w, 0.0)
        total = float(weights.sum())
        sq = float((weights**2).sum())
        # subnormal weights can square to exactly zero; treat that as starvation
        ess = total**2 / sq if sq > 0 else 0.0
        if (ess >= min_ess or rho > 0) and sq > 0:
            mean = total / x.size
            ci_rel = 1.96 * float(weights.std() / math.sqrt(x.size)) / mean
            if ci_rel <= 0.5:
                return BetaEstimate(mean, math.log(mean), gamma, ci_rel, ess, tilted=False)
        del w, weights  # not held through the tilted estimate's own draws
    if law is None or rng is None:
        raise InsufficientSamplesError(
            f"raw estimate has effective sample size {ess:.0f} and no law/rng for tilting"
        )
    log_beta, ci_rel = tilted_log_tail(law, gamma, weight_rate, rng, size)
    return BetaEstimate(float(np.exp(log_beta)), log_beta, gamma, ci_rel, ess, tilted=True)


@dataclass(frozen=True)
class MixedRate:
    """A bound mixed over the equiprobable tag symbol; ``per_d`` holds the
    per-symbol results for d = -1 and d = +1."""

    rate_nats: float
    rate_bits: float
    ci_rate_bits: float
    per_d: Tuple[Any, Any]


def mix_tag_symbols(res_minus: Any, res_plus: Any) -> MixedRate:
    """Equiprobable mixture of two per-symbol results, read through their
    ``rate_nats`` and ``ci_rate_bits``."""
    rate = 0.5 * (res_minus.rate_nats + res_plus.rate_nats)
    ci = 0.5 * math.hypot(res_minus.ci_rate_bits, res_plus.ci_rate_bits)
    return MixedRate(rate, rate / math.log(2), ci, (res_minus, res_plus))
