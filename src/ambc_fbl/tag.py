"""Tag-symbol detection by maximum ratio combining, and the affine coupling
between the source block-error probability and the tag bit-error probability."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CompositePair
from .errors import InfeasibleTargetError
from .numerics import SeededRng, gaussian_q

# eps within this of the [0, 1] ends after inversion is rounding, not infeasibility
_RESIDUE = 1e-12


@dataclass(frozen=True)
class TagErrorModel:
    """Scalar reduction of an MRC tag detector for one channel realization.

    ``norm_h1`` is the Frobenius norm of the backscatter path and
    ``cross_term`` the normalized real cross-correlation
    Re tr(h1^H h0) / ||h1||^2 that shifts the detection statistic when the
    source codeword is decoded incorrectly.
    """

    h0: np.ndarray
    h1: np.ndarray
    norm_h1: float
    cross_term: float

    @classmethod
    def from_channels(cls, h0: np.ndarray, h1: np.ndarray) -> "TagErrorModel":
        norm = float(np.linalg.norm(h1))
        if norm == 0.0:
            raise InfeasibleTargetError("tag link is absent (h1 = 0)")
        rho = float(np.real(np.trace(h1.conj().T @ h0))) / norm**2
        return cls(h0=h0, h1=h1, norm_h1=norm, cross_term=rho)

    @classmethod
    def from_pair(cls, pair: CompositePair) -> "TagErrorModel":
        return cls.from_channels(pair.h0, pair.h1)


def _endpoints(model: TagErrorModel):
    # tag error at eps = 0 and at eps = 1
    a = float(gaussian_q(math.sqrt(2.0) * model.norm_h1))
    arg = math.sqrt(2.0) * model.norm_h1
    b = 0.5 * float(gaussian_q(arg * (-1.0 + 2.0 * model.cross_term))) + 0.5 * float(
        gaussian_q(arg * (-1.0 - 2.0 * model.cross_term))
    )
    return a, b


def tag_error_given_eps(model: TagErrorModel, eps: float) -> float:
    """Tag bit-error probability for a source block-error probability eps.

    Affine in eps: (1-eps) times the correct-codeword mis-detection
    probability plus eps times the equiprobable mixture of the two shifted
    wrong-codeword terms.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    a, b = _endpoints(model)
    return (1.0 - eps) * a + eps * b


def eps_given_tag_error(model: TagErrorModel, eps_d: float) -> float:
    """Invert the affine eps -> eps_d map in closed form.

    Raises ``InfeasibleTargetError`` when the target lies outside the
    interval spanned by the eps = 0 and eps = 1 endpoints (for example below
    the floor set by the correct-codeword mis-detection probability).
    Numerical residue within ``_RESIDUE`` of the endpoints is clamped.
    """
    if not 0.0 <= eps_d <= 1.0:
        raise ValueError("eps_d must lie in [0, 1]")
    a, b = _endpoints(model)
    if a == b:
        if abs(eps_d - a) <= _RESIDUE:
            return 0.0
        raise InfeasibleTargetError(
            f"tag error is constant at {a:.3e} for this channel"
        )
    eps = (eps_d - a) / (b - a)
    if -_RESIDUE <= eps < 0.0:
        eps = 0.0
    if 1.0 < eps <= 1.0 + _RESIDUE:
        eps = 1.0
    if not 0.0 <= eps <= 1.0:
        lo, hi = min(a, b), max(a, b)
        raise InfeasibleTargetError(
            f"eps_d={eps_d:.3e} outside the attainable interval [{lo:.3e}, {hi:.3e}]"
        )
    return eps


def simulate_tag_error(
    model: TagErrorModel,
    eps: float,
    rng: SeededRng,
    trials: int = 100_000,
) -> float:
    """Empirical tag error rate over Monte Carlo symbol trials.

    Each trial draws a tag symbol, flips a coin of bias eps for whether the
    source codeword was decoded correctly, and runs the scalar detection law:
    z = d + w when correct, z = -d - 2 rho + w when wrong, with w the
    combined noise of variance 1 / (2 ||h1||^2).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = rng.generator()
    d = np.where(gen.random(trials) < 0.5, -1.0, 1.0)
    wrong = gen.random(trials) < eps
    w = gen.standard_normal(trials) / (math.sqrt(2.0) * model.norm_h1)
    z = np.where(wrong, -d - 2.0 * model.cross_term + w, d + w)
    d_hat = np.where(z >= 0.0, 1.0, -1.0)
    return float((d_hat != d).mean())
