import math

import numpy as np
import pytest

from ambc_fbl.channel import Fading, composite, draw_channel
from ambc_fbl.errors import InfeasibleTargetError
from ambc_fbl.numerics import SeededRng, gaussian_q
from ambc_fbl.tag import TagErrorModel, eps_given_tag_error, tag_error_given_eps
from oracles import simulate_tag_error


def mrc_statistic(y, x_est, h0, h1):
    """Combining statistic Re tr(h1^H x_est^H (y - x_est h0)) / ||h1||^2.

    The matrix-level MRC detector; ``simulate_tag_error`` runs its scalar law.
    """
    norm2 = float(np.linalg.norm(h1)) ** 2
    resid = y - x_est @ h0
    return float(np.real(np.trace(h1.conj().T @ (x_est.conj().T @ resid)))) / norm2


def mrc_detect(z):
    """Decision on the combining statistic; the measure-zero tie goes to +1."""
    return 1 if z >= 0.0 else -1


def _random_model(seed, scale=1.0):
    gen = np.random.default_rng(seed)
    h0 = (gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))) / math.sqrt(2)
    h1 = scale * (gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))) / math.sqrt(2)
    return TagErrorModel.from_channels(h0, h1)


class TestTagErrorGivenEps:
    def test_perfect_decoding_strong_link(self):
        h1 = np.full((1, 1), 10.0 + 0j)
        model = TagErrorModel.from_channels(np.ones((1, 1), complex), h1)
        assert tag_error_given_eps(model, 0.0) < 1e-40

    def test_perfect_decoding_exact_form(self):
        model = _random_model(0)
        expected = float(gaussian_q(math.sqrt(2.0) * model.norm_h1))
        assert tag_error_given_eps(model, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_always_wrong_with_orthogonal_channels(self):
        # zero cross term: the two shifted terms collapse symmetrically
        h1 = np.eye(2, dtype=complex)
        h0 = 1j * h1  # real part of the inner product vanishes
        model = TagErrorModel.from_channels(h0, h1)
        assert model.cross_term == pytest.approx(0.0, abs=1e-15)
        expected = 1.0 - float(gaussian_q(math.sqrt(2.0) * model.norm_h1))
        assert tag_error_given_eps(model, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_affine_in_eps(self):
        model = _random_model(1)
        f0 = tag_error_given_eps(model, 0.0)
        f1 = tag_error_given_eps(model, 0.5)
        f2 = tag_error_given_eps(model, 1.0)
        assert f2 - 2 * f1 + f0 == pytest.approx(0.0, abs=1e-16)

    def test_stays_within_endpoint_hull(self):
        model = _random_model(2)
        lo = min(tag_error_given_eps(model, 0.0), tag_error_given_eps(model, 1.0))
        hi = max(tag_error_given_eps(model, 0.0), tag_error_given_eps(model, 1.0))
        for eps in np.linspace(0, 1, 21):
            v = tag_error_given_eps(model, float(eps))
            assert lo - 1e-15 <= v <= hi + 1e-15


class TestEpsGivenTagError:
    def test_floor_endpoint(self):
        model = _random_model(3)
        floor = tag_error_given_eps(model, 0.0)
        assert eps_given_tag_error(model, floor) == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        for seed in range(10):
            model = _random_model(seed)
            for eps in (0.37, 0.05, 0.93):
                back = eps_given_tag_error(model, tag_error_given_eps(model, eps))
                assert back == pytest.approx(eps, abs=1e-12)

    def test_infeasible_below_floor(self):
        model = _random_model(4, scale=0.3)
        floor = tag_error_given_eps(model, 0.0)
        assert floor > 1e-3
        with pytest.raises(InfeasibleTargetError):
            eps_given_tag_error(model, 1e-3)

    def test_zero_tag_link_rejected(self):
        with pytest.raises(InfeasibleTargetError):
            TagErrorModel.from_channels(np.ones((1, 1), complex), np.zeros((1, 1), complex))


class TestMrcStatistic:
    def _noiseless(self, d):
        gen = np.random.default_rng(5)
        t, r = 2, 3
        h0 = (gen.standard_normal((t, r)) + 1j * gen.standard_normal((t, r))) / math.sqrt(2)
        h1 = (gen.standard_normal((t, r)) + 1j * gen.standard_normal((t, r))) / math.sqrt(2)
        x = np.eye(t, dtype=complex)  # orthonormal codeword columns
        y = x @ h0 + d * (x @ h1)
        return mrc_statistic(y, x, h0, h1)

    def test_noiseless_positive_symbol(self):
        assert self._noiseless(+1) == pytest.approx(1.0, rel=1e-12)

    def test_noiseless_negative_symbol(self):
        assert self._noiseless(-1) == pytest.approx(-1.0, rel=1e-12)

    def test_tie_resolves_positive(self):
        assert mrc_detect(0.0) == 1
        assert mrc_detect(-1e-12) == -1

    def test_matrix_statistic_agrees_with_scalar_law(self):
        # with orthonormal codeword columns the matrix statistic is d + noise
        # of variance 1 / (2 ||h1||^2); check the error rate it induces
        gen = np.random.default_rng(6)
        t, r = 2, 3
        h0 = (gen.standard_normal((t, r)) + 1j * gen.standard_normal((t, r))) / math.sqrt(2)
        h1 = (gen.standard_normal((t, r)) + 1j * gen.standard_normal((t, r))) / math.sqrt(2)
        model = TagErrorModel.from_channels(h0, h1)
        x = np.eye(t, dtype=complex)
        trials = 20_000
        errs = 0
        for _ in range(trials):
            w = (gen.standard_normal((t, r)) + 1j * gen.standard_normal((t, r))) / math.sqrt(2)
            y = x @ h0 + x @ h1 + w
            errs += mrc_detect(mrc_statistic(y, x, h0, h1)) != 1
        analytic = float(gaussian_q(math.sqrt(2.0) * model.norm_h1))
        se = math.sqrt(analytic * (1 - analytic) / trials)
        assert errs / trials == pytest.approx(analytic, abs=4 * se + 1e-4)


class TestSimulation:
    def test_matches_analytic_three_sigma(self):
        for seed in range(3):
            model = _random_model(100 + seed)
            eps = 0.07
            trials = 100_000
            emp = simulate_tag_error(model, eps, SeededRng(200 + seed), trials)
            ana = tag_error_given_eps(model, eps)
            se = math.sqrt(max(ana * (1 - ana), 1e-12) / trials)
            assert abs(emp - ana) <= 3 * se

    def test_from_composite_pair(self):
        ch = draw_channel(SeededRng(7), 2, 3, Fading.rayleigh(), 0.5)
        model = TagErrorModel.from_pair(composite(ch, +1))
        assert model.norm_h1 > 0
