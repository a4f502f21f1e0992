"""Capacity, dispersion, the normal approximation, and the reference-variance
critical-point check."""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .channel import EigenSpectrum
from .numerics import gaussian_q_inv
from .power import PowerAllocation

_ArrayLike = Union[EigenSpectrum, np.ndarray]


def _as_gammas(g: _ArrayLike, p: Union[PowerAllocation, np.ndarray]) -> np.ndarray:
    gv = np.asarray(g.g if isinstance(g, EigenSpectrum) else g, dtype=float)
    pv = np.asarray(p.p if isinstance(p, PowerAllocation) else p, dtype=float)
    if gv.shape != pv.shape:
        raise ValueError("spectrum and allocation must have equal length")
    return gv * pv


def capacity(g: _ArrayLike, p) -> float:
    """Capacity sum_j log(1 + g_j p_j), in nats per channel use."""
    return float(np.log1p(_as_gammas(g, p)).sum())


def dispersion(g: _ArrayLike, p) -> float:
    """Channel dispersion in squared nats per channel use.

    Computed as sum_j y(y+2)/(1+y)^2 and cross-checked against the equivalent
    m - sum_j 1/(1+y)^2 form.
    """
    y = _as_gammas(g, p)
    first = float((y * (y + 2.0) / (1.0 + y) ** 2).sum())
    second = float(y.size - (1.0 / (1.0 + y) ** 2).sum())
    if abs(first - second) > 1e-12 * max(1.0, abs(first)):
        raise AssertionError("dispersion forms disagree beyond rounding")
    return first


def normal_approximation(capacity_nats: float, dispersion_v: float, n: int, eps: float) -> float:
    """C - sqrt(V/n) Qinv(eps), in nats; may be negative and is never clamped."""
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    if dispersion_v < 0:
        raise ValueError("dispersion must be nonnegative")
    if dispersion_v == 0:
        return capacity_nats
    return capacity_nats - math.sqrt(dispersion_v / n) * gaussian_q_inv(eps)


def verify_sigma_maximizer(g_j: float, p_j: float, tol: float = 1e-9) -> float:
    """Locate the interior critical point of the per-mode mean information
    density log s + y/s + (1/s - 1) as a function of the reference variance s.

    The critical point is the unique interior extremum of that display
    (numerically it is where the derivative vanishes); used as a test oracle
    for the reference-variance choice 1 + y, with y = g_j p_j.

    A grid scan, refined by scipy's bounded scalar minimizer.  Only
    ``selftest`` and the tests call it, so ``scipy.optimize`` is imported
    here and stays off the import path of the library and the CLI.
    """
    from scipy import optimize

    y = float(g_j) * float(p_j)
    if y <= 0:
        raise ValueError("requires g_j p_j > 0")

    def objective(s: float) -> float:
        return math.log(s) + y / s + (1.0 / s - 1.0)

    grid = np.linspace(0.05 * (1.0 + y), 10.0 * (1.0 + y), 2001)
    coarse = grid[int(np.argmin([objective(s) for s in grid]))]
    res = optimize.minimize_scalar(
        objective, bounds=(coarse * 0.5, coarse * 2.0), method="bounded", options={"xatol": tol}
    )
    return float(res.x)
