"""Channel generation for the backscatter link: the direct source-receiver
matrix, the two tag hops, the composite channel per tag symbol, and its
eigen-spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import SeededRng

RAYLEIGH = "rayleigh"
RICIAN = "rician"


@dataclass(frozen=True)
class Fading:
    """Fading family of every link: Rayleigh, or Rician with a K-factor in dB."""

    kind: str
    k_factor_db: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in (RAYLEIGH, RICIAN):
            raise ValueError(f"unknown fading kind {self.kind!r}")
        if self.kind == RICIAN and self.k_factor_db is None:
            raise ValueError("rician fading requires k_factor_db")

    @classmethod
    def rayleigh(cls) -> "Fading":
        return cls(RAYLEIGH)

    @classmethod
    def rician(cls, k_factor_db: float) -> "Fading":
        return cls(RICIAN, float(k_factor_db))


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the three fading matrices plus the tag scattering efficiency."""

    h_sr: np.ndarray  # t x r
    h_sg: np.ndarray  # t x 1
    h_gr: np.ndarray  # 1 x r
    a_coeff: float
    fading: Fading

    def __post_init__(self) -> None:
        t, r = self.h_sr.shape
        if self.h_sg.shape != (t, 1):
            raise ValueError(f"h_sg must be {t}x1, got {self.h_sg.shape}")
        if self.h_gr.shape != (1, r):
            raise ValueError(f"h_gr must be 1x{r}, got {self.h_gr.shape}")
        if not 0.0 <= self.a_coeff <= 1.0:
            raise ValueError("a_coeff must lie in [0, 1]")

    @property
    def t(self) -> int:
        return self.h_sr.shape[0]

    @property
    def r(self) -> int:
        return self.h_sr.shape[1]


@dataclass(frozen=True)
class CompositePair:
    """Direct channel h0 and backscatter path h1 for a fixed tag symbol d."""

    h0: np.ndarray
    h1: np.ndarray
    d: int

    def __post_init__(self) -> None:
        if self.d not in (-1, 1):
            raise ValueError("tag symbol d must be -1 or +1")
        if self.h0.shape != self.h1.shape:
            raise ValueError("h0 and h1 must share a shape")

    def effective(self) -> np.ndarray:
        return self.h0 + self.d * self.h1


@dataclass(frozen=True)
class EigenSpectrum:
    """The m = min(t, r) largest eigenvalues of the composite Gram matrix."""

    g: np.ndarray
    d: int

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float)
        if np.any(np.diff(g) > 0):
            raise ValueError("spectrum must be sorted descending")
        if np.any(g < 0):
            raise ValueError("spectrum must be nonnegative")
        object.__setattr__(self, "g", g)

    @property
    def m(self) -> int:
        return self.g.size


def _cn_matrix(gen: np.random.Generator, shape) -> np.ndarray:
    # circularly symmetric complex Gaussian, unit variance per entry
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def draw_channel(
    rng: SeededRng,
    t: int,
    r: int,
    fading: Fading,
    a_coeff: float,
) -> ChannelRealization:
    """Draw an independent realization of all three links.

    Rayleigh entries are CN(0, 1).  Rician entries keep unit total variance:
    a deterministic phase-0 line-of-sight part of power K/(K+1) plus CN(0, 1)
    scatter of power 1/(K+1), with K the linear K-factor.
    """
    if t < 1 or r < 1:
        raise ValueError("antenna counts must be >= 1")
    gen = rng.generator()

    def link(shape):
        scatter = _cn_matrix(gen, shape)
        if fading.kind == RAYLEIGH:
            return scatter
        k = 10.0 ** (fading.k_factor_db / 10.0)
        return np.sqrt(k / (k + 1.0)) + np.sqrt(1.0 / (k + 1.0)) * scatter

    return ChannelRealization(
        h_sr=link((t, r)),
        h_sg=link((t, 1)),
        h_gr=link((1, r)),
        a_coeff=float(a_coeff),
        fading=fading,
    )


def composite(ch: ChannelRealization, d: int) -> CompositePair:
    """Composite decomposition for tag symbol d: h0 = direct, h1 = scaled tag path."""
    h1 = ch.a_coeff * (ch.h_sg @ ch.h_gr)
    return CompositePair(h0=ch.h_sr, h1=h1, d=int(d))


def eigen_spectrum(pair: CompositePair) -> EigenSpectrum:
    """Descending eigenvalues of (h0 + d h1)^H (h0 + d h1), m largest.

    The Gram matrix is positive semidefinite, so negative eigenvalues are
    solver noise and are clamped to zero.  Non-convergence of the
    Hermitian eigensolver propagates as ``numpy.linalg.LinAlgError``.
    """
    h = pair.effective()
    m = min(h.shape)
    gram = h.conj().T @ h
    ev = np.linalg.eigvalsh(gram)
    ev = np.sort(ev)[::-1][:m]
    return EigenSpectrum(g=np.maximum(ev, 0.0), d=pair.d)
