import math
import warnings

import numpy as np
import pytest

from ambc_fbl.asymptotics import capacity, dispersion, normal_approximation
from ambc_fbl.errors import OverflowRegimeError
from ambc_fbl.numerics import SeededRng, gaussian_q_inv
from ambc_fbl.tail import LawParams
from oracles import verify_sigma_maximizer


class TestCapacity:
    def test_zero_power(self):
        assert capacity(np.array([3.0, 1.0]), np.array([0.0, 0.0])) == 0.0

    def test_single_mode(self):
        assert capacity(np.array([1.0]), np.array([1.0])) == pytest.approx(math.log(2))

    def test_additive_over_modes(self):
        g = np.array([4.0, 2.0, 0.5])
        p = np.array([0.5, 0.3, 0.2])
        assert capacity(g, p) == pytest.approx(float(np.log1p(g * p).sum()))


class TestDispersion:
    def test_zero_power(self):
        assert dispersion(np.array([2.0]), np.array([0.0])) == 0.0

    def test_high_snr_single_mode_limit(self):
        assert dispersion(np.array([1e6]), np.array([1.0])) == pytest.approx(1.0, abs=1e-5)

    def test_unit_mode(self):
        assert dispersion(np.array([1.0]), np.array([1.0])) == pytest.approx(0.75)

    def test_two_forms_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            m = int(rng.integers(1, 5))
            g = rng.uniform(0, 10, m)
            p = rng.uniform(0, 3, m)
            y = g * p
            first = dispersion(g, p)
            second = float(m - (1.0 / (1.0 + y) ** 2).sum())
            assert abs(first - second) <= 1e-12 * max(1.0, abs(first))

    def test_overflow_is_a_documented_error_without_warnings(self):
        # (1 + y)^2 overflows above y ~ 1e154 and both forms turn to NaN
        g = np.array([[1.0, 0.5], [1e200, 1.0]])
        p = np.ones((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRegimeError):
                dispersion(g, p)

    def test_rows_are_single_spectra(self):
        rng = np.random.default_rng(5)
        g, p = rng.uniform(0, 10, (50, 4)), rng.uniform(0, 3, (50, 4))
        assert list(dispersion(g, p)) == [dispersion(gi, pi) for gi, pi in zip(g, p)]
        assert list(capacity(g, p)) == [capacity(gi, pi) for gi, pi in zip(g, p)]

    def test_below_mode_count(self):
        g = np.array([5.0, 1.0, 0.1])
        p = np.array([1.0, 1.0, 1.0])
        assert 0 <= dispersion(g, p) < 3


class TestNormalApproximation:
    def test_symmetric_error_rate_gives_capacity(self):
        assert normal_approximation(1.5, 0.8, 100, 0.5) == pytest.approx(1.5)

    def test_zero_dispersion_gives_capacity(self):
        for n in (1, 10, 1000):
            assert normal_approximation(1.5, 0.0, n, 1e-3) == 1.5

    def test_hand_evaluated_composition(self):
        # high-precision factors: 1.2686 - sqrt(1.2/300) * 3.0902323
        expected = 1.2686 - math.sqrt(1.2 / 300) * gaussian_q_inv(1e-3)
        assert expected == pytest.approx(1.0731, abs=1e-4)
        assert normal_approximation(1.2686, 1.2, 300, 1e-3) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_blocklength(self):
        vals = [normal_approximation(1.0, 1.0, n, 1e-3) for n in (10, 30, 100, 300, 1000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_error_rate(self):
        vals = [normal_approximation(1.0, 1.0, 100, e) for e in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_broadcasts_over_draws_and_blocklengths(self):
        c, v, eps = np.array([1.0, 2.0, 0.5]), np.array([0.8, 0.0, 0.3]), np.array([1e-3, 0.1, 0.4])
        n = np.array([10, 300])[:, None]
        na = normal_approximation(c, v, n, eps)
        assert na.shape == (2, 3)
        for j, nj in enumerate((10, 300)):
            assert list(na[j]) == [normal_approximation(*args, nj, e) for *args, e in zip(c, v, eps)]

    def test_negative_values_returned_as_is(self):
        val = normal_approximation(0.01, 0.02, 8, 1e-3)
        assert val < 0
        g, p = np.array([1.0]), np.array([0.01])
        assert normal_approximation(capacity(g, p), dispersion(g, p), 8, 1e-3) < 0


class TestBerryEsseen:
    def test_lyapunov_ordering(self):
        g = np.array([2.0, 0.7])
        p = np.array([0.6, 0.4])
        params = LawParams(1, g * p)
        j = params.sample(SeededRng(2).generator(), 100_000, theta=1.0) - capacity(g, p)
        m2 = float((j**2).mean())
        m3 = float((np.abs(j) ** 3).mean())
        assert m2**0.5 <= m3 ** (1.0 / 3.0)


class TestSigmaCriticalPoint:
    @pytest.mark.parametrize("y,expected", [(1.0, 2.0), (3.0, 4.0)])
    def test_known_points(self, y, expected):
        assert verify_sigma_maximizer(y, 1.0) == pytest.approx(expected, abs=1e-6)

    def test_first_order_condition(self):
        y = 1.7
        s = verify_sigma_maximizer(y, 1.0)
        h = 1e-4

        def phi(v):
            return math.log(v) + y / v + 1.0 / v - 1.0

        deriv = (phi(s + h) - phi(s - h)) / (2 * h)
        assert abs(deriv) < 1e-8

    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            g = float(rng.uniform(0.05, 10.0))
            p = float(rng.uniform(0.05, 3.0))
            assert verify_sigma_maximizer(g, p) == pytest.approx(1.0 + g * p, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_sigma_maximizer(1.0, 0.0)

