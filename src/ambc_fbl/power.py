"""Waterfilling power allocation over a channel eigen-spectrum."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .channel import EigenSpectrum
from .errors import ZeroSpectrumError


@dataclass(frozen=True)
class PowerAllocation:
    """Per-mode powers p_j = max(water_level - 1/g_j, 0) summing to total_power."""

    p: np.ndarray
    water_level: float
    total_power: float

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if np.any(p < 0):
            raise ValueError("allocated powers must be nonnegative")
        # relative to the budget above 1: at P = 1e8 the rounding of p.sum()
        # alone exceeds an absolute 1e-9
        if abs(p.sum() - self.total_power) > 1e-9 * max(1.0, self.total_power):
            raise ValueError("allocation does not meet the power budget")
        object.__setattr__(self, "p", p)


def waterfill(g: Union[EigenSpectrum, np.ndarray], total_power: float) -> PowerAllocation:
    """Solve sum_j max(lambda - 1/g_j, 0) = P for the water level lambda.

    Closed form over sorted prefixes: with 1/g ascending, the k-mode water
    level is (P + sum of the k smallest 1/g_j) / k, and the active set is the
    largest k whose level clears its own inverse gain.
    """
    gv = np.asarray(g.g if isinstance(g, EigenSpectrum) else g, dtype=float)
    if total_power <= 0:
        raise ValueError("total power must be positive")
    positive = gv > 0
    if not positive.any():
        raise ZeroSpectrumError("all eigenvalues are zero")

    inv = np.sort(1.0 / gv[positive])
    prefix = np.cumsum(inv)
    lam = None
    for k in range(inv.size, 0, -1):
        cand = (total_power + prefix[k - 1]) / k
        if cand > inv[k - 1]:
            lam = cand
            break
    assert lam is not None  # k = 1 always qualifies: P + 1/g_max > 1/g_max

    with np.errstate(divide="ignore"):
        p = np.where(positive, np.maximum(lam - 1.0 / np.where(positive, gv, 1.0), 0.0), 0.0)
    # remove the accumulated rounding so the budget holds to 1e-9 relative;
    # a mode active by less than one ulp could be pushed below zero, so clamp
    active = p > 0
    p[active] += (total_power - p.sum()) / active.sum()
    p = np.maximum(p, 0.0)
    return PowerAllocation(p=p, water_level=float(lam), total_power=float(total_power))
