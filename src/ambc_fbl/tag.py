"""Tag-symbol detection by maximum ratio combining, and the affine coupling
between the source block-error probability and the tag bit-error probability."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CompositePair
from .errors import InfeasibleTargetError
from .numerics import gaussian_q

# eps within this of the [0, 1] ends after inversion is rounding, not infeasibility
_RESIDUE = 1e-12


@dataclass(frozen=True)
class TagErrorModel:
    """Scalar reduction of an MRC tag detector for one channel realization,
    or for a batch of them (array fields, one entry per draw).

    ``norm_h1`` is the Frobenius norm of the backscatter path and
    ``cross_term`` the normalized real cross-correlation
    Re tr(h1^H h0) / ||h1||^2 that shifts the detection statistic when the
    source codeword is decoded incorrectly.  A model of one draw needs a tag
    link; a batch keeps a draw without one as norm 0.
    """

    norm_h1: float
    cross_term: float

    def __post_init__(self) -> None:
        if not isinstance(self.norm_h1, np.ndarray) and self.norm_h1 == 0.0:
            raise InfeasibleTargetError("tag link is absent (h1 = 0)")

    @classmethod
    def from_channels(cls, h0: np.ndarray, h1: np.ndarray) -> "TagErrorModel":
        """The model of h0 and h1, row by row over every leading draw axis.

        Each row is bit-equal to the model of that draw alone.  The norm sums
        squares as ``np.linalg.norm`` does (one dot product each of the real
        and imaginary parts).  The norm is squared by the C library's
        ``pow`` (``np.float_power``), as a scalar ``norm**2`` is: ``**`` on
        an array multiplies, which moves the last bit of about one draw in a
        thousand.
        """
        flat = h1.reshape(*h1.shape[:-2], -1)
        norm = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
        trace = np.trace(np.swapaxes(h1.conj(), -1, -2) @ h0, axis1=-2, axis2=-1).real
        # a draw without a tag link has norm 0 and no finite cross term
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = trace / np.float_power(norm, 2)
        return cls(norm_h1=norm, cross_term=rho)

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

