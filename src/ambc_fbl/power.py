"""Waterfilling power allocation over a channel eigen-spectrum."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .channel import EigenSpectrum
from .errors import OverflowRegimeError, ZeroSpectrumError


@dataclass(frozen=True)
class PowerAllocation:
    """Per-mode powers p_j = max(water_level - 1/g_j, 0) summing to total_power.

    With a leading draw axis, ``p`` holds one allocation per row and
    ``water_level`` one level per row; each row meets the budget.
    """

    p: np.ndarray
    water_level: Union[float, np.ndarray]
    total_power: float

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if np.any(p < 0):
            raise ValueError("allocated powers must be nonnegative")
        # relative to the budget above 1: at P = 1e8 the rounding of p.sum()
        # alone exceeds an absolute 1e-9
        if np.any(np.abs(p.sum(axis=-1) - self.total_power) > 1e-9 * max(1.0, self.total_power)):
            raise ValueError("allocation does not meet the power budget")
        object.__setattr__(self, "p", p)


def waterfill(g: Union[EigenSpectrum, np.ndarray], total_power: float) -> PowerAllocation:
    """Solve sum_j max(lambda - 1/g_j, 0) = P for the water level lambda.

    Closed form over sorted prefixes: with 1/g ascending, the k-mode water
    level is (P + sum of the k smallest 1/g_j) / k, and the active set is the
    largest k whose level clears its own inverse gain.

    Every leading axis of ``g`` is a draw axis, solved row by row with the
    arithmetic of a single row.  Raises ``ZeroSpectrumError`` when every gain
    of a row is zero, and ``OverflowRegimeError`` when P is below the
    rounding of a row's smallest inverse gain (P + 1/g_max == 1/g_max), so
    that no mode can take power.
    """
    gv = np.asarray(g.g if isinstance(g, EigenSpectrum) else g, dtype=float)
    if total_power <= 0:
        raise ValueError("total power must be positive")
    positive = gv > 0
    if not positive.any(axis=-1).all():
        raise ZeroSpectrumError("all eigenvalues are zero")

    with np.errstate(divide="ignore"):
        inv_all = 1.0 / gv
    # zero gains sort last as +inf and never join the active set
    inv = np.sort(np.where(positive, inv_all, np.inf), axis=-1)
    prefix = np.cumsum(inv, axis=-1)
    k = np.arange(1, gv.shape[-1] + 1)
    levels = (total_power + prefix) / k
    qualifies = levels > inv
    if not qualifies.any(axis=-1).all():
        raise OverflowRegimeError(
            f"total power {total_power:.3e} is below the rounding of the smallest inverse gain"
        )
    # the active set is the largest qualifying k
    last = gv.shape[-1] - 1 - np.argmax(qualifies[..., ::-1], axis=-1)
    lam = np.take_along_axis(levels, last[..., None], axis=-1)

    p = np.where(positive, np.maximum(lam - np.where(positive, inv_all, 1.0), 0.0), 0.0)
    # remove the accumulated rounding so the budget holds to 1e-9 relative;
    # a mode active by less than one ulp could be pushed below zero, so clamp
    active = p > 0
    shift = (total_power - p.sum(axis=-1, keepdims=True)) / active.sum(axis=-1, keepdims=True)
    p = np.maximum(np.where(active, p + shift, p), 0.0)
    lam = lam[..., 0]
    return PowerAllocation(
        p=p, water_level=lam if lam.ndim else float(lam), total_power=float(total_power)
    )
