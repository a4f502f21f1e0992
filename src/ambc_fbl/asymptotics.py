"""Capacity, dispersion and the normal approximation."""

from __future__ import annotations

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

