"""Reference implementations that the tests check the package against.

None of them is on a library or command-line path: the σ critical point
checks the reference-variance choice 1 + y, the product-gamma density checks
the converse's K1 constant, and the symbol-level simulation checks the
closed-form tag error.
"""

import math

import numpy as np
from scipy import optimize

from ambc_fbl.numerics import SeededRng, product_gamma_logpdf
from ambc_fbl.tag import TagErrorModel


def verify_sigma_maximizer(g_j: float, p_j: float, tol: float = 1e-9) -> float:
    """Locate the interior critical point of the per-mode mean information
    density log s + y/s + (1/s - 1) as a function of the reference variance s.

    The critical point is the unique interior extremum of that display
    (numerically it is where the derivative vanishes); used as a test oracle
    for the reference-variance choice 1 + y, with y = g_j p_j.

    A grid scan, refined by scipy's bounded scalar minimizer.
    """
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


def product_gamma_pdf(z: float, copies: int, shape: int, scale: float) -> float:
    """Density of a product of ``copies`` iid Gamma(shape, scale) variables."""
    return math.exp(product_gamma_logpdf(z, copies, shape, scale))


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
