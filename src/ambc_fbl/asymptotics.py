"""Capacity, dispersion, the normal approximation, and the reference-variance
critical-point check."""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .channel import EigenSpectrum
from .errors import OverflowRegimeError
from .numerics import gaussian_q_inv
from .power import PowerAllocation

_ArrayLike = Union[EigenSpectrum, np.ndarray]


def _as_gammas(g: _ArrayLike, p: Union[PowerAllocation, np.ndarray]) -> np.ndarray:
    gv = np.asarray(g.g if isinstance(g, EigenSpectrum) else g, dtype=float)
    pv = np.asarray(p.p if isinstance(p, PowerAllocation) else p, dtype=float)
    if gv.shape != pv.shape:
        raise ValueError("spectrum and allocation must have equal length")
    return gv * pv


def _scalar(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def capacity(g: _ArrayLike, p):
    """Capacity sum_j log(1 + g_j p_j), in nats per channel use.

    Sums over the last axis: one value per draw for a spectrum with a
    leading draw axis, a float for a single one.
    """
    return _scalar(np.log1p(_as_gammas(g, p)).sum(axis=-1))


def dispersion(g: _ArrayLike, p):
    """Channel dispersion in squared nats per channel use.

    Computed as sum_j y(y+2)/(1+y)^2 and cross-checked against the equivalent
    m - sum_j 1/(1+y)^2 form.  Sums over the last axis, like ``capacity``.
    Raises ``OverflowRegimeError`` when the two forms disagree beyond
    rounding, which happens only when (1 + y)^2 overflows (y above about
    1e154) and the forms turn to NaN.
    """
    y = _as_gammas(g, p)
    with np.errstate(over="ignore", invalid="ignore"):
        first = (y * (y + 2.0) / (1.0 + y) ** 2).sum(axis=-1)
        second = y.shape[-1] - (1.0 / (1.0 + y) ** 2).sum(axis=-1)
    if not (np.abs(first - second) <= 1e-12 * np.maximum(1.0, np.abs(first))).all():
        raise OverflowRegimeError("dispersion forms disagree beyond rounding")
    return _scalar(first)


def normal_approximation(capacity_nats, dispersion_v, n, eps):
    """C - sqrt(V/n) Qinv(eps), in nats; may be negative and is never clamped.

    Broadcasts over arrays of its arguments; one ``gaussian_q_inv`` call
    serves every eps.  Returns a float when every argument is a scalar.
    """
    n = np.asarray(n)
    dispersion_v = np.asarray(dispersion_v, dtype=float)
    if np.any(n < 1):
        raise ValueError("blocklength must be >= 1")
    if np.any(dispersion_v < 0):
        raise ValueError("dispersion must be nonnegative")
    q = gaussian_q_inv(eps)
    na = np.where(dispersion_v == 0, capacity_nats, capacity_nats - np.sqrt(dispersion_v / n) * q)
    return _scalar(na)


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
