import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from ambc_fbl.errors import ConvergenceError
from ambc_fbl.numerics import (
    SeededRng,
    empirical_quantile,
    gaussian_q,
    gaussian_q_inv,
    log_bessel_i,
    log_gamma,
    product_gamma_logpdf,
    product_gamma_pdf,
)

mpmath = pytest.importorskip("mpmath")


def _log_bessel_i_upper(order, x):
    """Log of a closed-form envelope that dominates I_order(x).

    The envelope is sqrt(pi/(8x)) e^x (1 + v^2/x^2)^(-1/4)
    exp(-v asinh(v/x) + x (sqrt(1 + v^2/x^2) - 1)) with v the order.
    """
    x = np.asarray(x, dtype=float)
    ratio = order / x
    root = np.sqrt(1.0 + ratio * ratio)
    return (
        0.5 * np.log(np.pi / (8.0 * x))
        - 0.25 * np.log1p(ratio * ratio)
        - order * np.arcsinh(ratio)
        + x * root
    )


def _mpmath_log_bessel_i(order, x):
    mpmath.mp.dps = 40
    return float(mpmath.log(mpmath.besseli(mpmath.mpf(order), mpmath.mpf(x), maxterms=10**7)))


# _mpmath_log_bessel_i(1e6, 1e6) at dps 40 (532831.97537295942814...), computed
# once by that call; live it takes minutes, so it runs only in the slow test
# test_huge_order_reference_matches_live_mpmath
_LOG_I_1E6_1E6 = 532831.9753729594


class TestSeededRng:
    def test_reproducible_across_instances(self):
        a = SeededRng(123, 5).generator().standard_normal(100)
        b = SeededRng(123, 5).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededRng(123, 0).generator().standard_normal(100)
        b = SeededRng(123, 1).generator().standard_normal(100)
        assert not np.allclose(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.3

    def test_split_deterministic_and_disjoint(self):
        root = SeededRng(9)
        kids = [root.split(i) for i in range(4)]
        assert kids[0] == root.split(0)
        assert len({k.stream_id for k in kids}) == 4
        grand = kids[0].split(1)
        assert grand.stream_id not in {k.stream_id for k in kids}

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(0).split(-1)


class TestGaussianQ:
    def test_symmetry_at_zero(self):
        assert gaussian_q(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_far_tail_decay(self):
        assert gaussian_q(10.0) < 1e-20

    def test_matches_tail_integral(self):
        # independent oracle: numerical integration of the normal density
        oracle, _ = integrate.quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), 1.2816, 30)
        assert oracle == pytest.approx(0.1000, abs=1e-4)
        assert gaussian_q(1.2816) == pytest.approx(oracle, abs=1e-12)

    def test_inverse_round_trip(self):
        # x -> p -> x: below x ~ -5.2 the probability sits so close to 1 that
        # one float64 ulp of p already moves the inverse by more than 1e-9,
        # so the tight tolerance applies where the composition is conditioned
        for x in np.linspace(-5.2, 6, 113):
            assert gaussian_q_inv(float(gaussian_q(x))) == pytest.approx(x, abs=1e-9)
        for x in np.linspace(-6, -5.2, 9):
            assert gaussian_q_inv(float(gaussian_q(x))) == pytest.approx(x, abs=5e-8)

    def test_forward_round_trip_relative(self):
        # p -> x -> p holds to 1e-10 relative across the whole range
        for p in np.logspace(-12, -0.001, 60):
            assert gaussian_q(gaussian_q_inv(float(p))) == pytest.approx(p, rel=1e-10)

    def test_inverse_antisymmetry(self):
        eps = 1e-3
        assert gaussian_q_inv(1 - eps) == pytest.approx(-gaussian_q_inv(eps), rel=1e-12)

    def test_inverse_deep_level_matches_bisection(self):
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gaussian_q(mid) > 1e-3:
                lo = mid
            else:
                hi = mid
        assert gaussian_q_inv(1e-3) == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert gaussian_q_inv(1e-3) == pytest.approx(3.0902, abs=1e-4)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_inverse_domain(self, p):
        with pytest.raises(ValueError):
            gaussian_q_inv(p)


class TestLogBesselI:
    def test_zero_argument_limit(self):
        # I_0 tends to 1 at the origin, so the log tends to 0
        assert log_bessel_i(0.0, 1e-12) == pytest.approx(0.0, abs=1e-10)
        with pytest.raises(ValueError):
            log_bessel_i(0.0, 0.0)
        with pytest.raises(ValueError):
            log_bessel_i(-1.0, 1.0)

    def test_order_one_matches_series_oracle(self):
        total = sum((1.0) ** (1 + 2 * k) / (math.factorial(k) * math.gamma(k + 2)) for k in range(40))
        assert total == pytest.approx(1.5906, abs=1e-4)
        assert log_bessel_i(1.0, 2.0) == pytest.approx(math.log(total), abs=1e-8)

    @pytest.mark.parametrize(
        "order,x",
        [
            (9.0, 50.0),
            (39.0, 181.0),
            (311.5, 50.0),
            (999.0, 200.0),
            (1999.0, 402.0),
            (1999.0, 5657.0),
            (5000.0, 1000.0),
            (100.0, 1e-3),
            (0.0, 1e6),
            (1e6, 1e6),
        ],
    )
    def test_accuracy_against_high_precision(self, order, x):
        if (order, x) == (1e6, 1e6):
            ref = _LOG_I_1E6_1E6
        else:
            ref = _mpmath_log_bessel_i(order, x)
        assert log_bessel_i(order, x) == pytest.approx(ref, abs=1e-8)

    def test_beyond_the_scaled_bessel_range(self):
        # scipy's scaled Bessel is NaN above x ~ 1.07e9; one ulp of the log
        # there is 2.4e-7, so the comparison is relative
        ref = _mpmath_log_bessel_i(7999.0, 1.6e9)
        assert log_bessel_i(7999.0, 1.6e9) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.slow
    def test_huge_order_reference_matches_live_mpmath(self):
        ref = _mpmath_log_bessel_i(1e6, 1e6)
        assert _LOG_I_1E6_1E6 == ref
        assert log_bessel_i(1e6, 1e6) == pytest.approx(ref, abs=1e-8)

    def test_envelope_dominates_at_reference_point(self):
        order = 5 * 32 / 16 - 1
        assert log_bessel_i(order, 50.0) <= _log_bessel_i_upper(order, 50.0)

    @pytest.mark.parametrize("order", [9.0, 19.0, 39.0])
    def test_envelope_dominates_on_grid(self, order):
        x = np.logspace(0, 3, 40)
        assert np.all(log_bessel_i(order, x) <= _log_bessel_i_upper(order, x))

    def test_vectorized_matches_scalar(self):
        x = np.array([0.5, 3.0, 40.0])
        vec = log_bessel_i(2.5, x)
        for xi, vi in zip(x, vec):
            assert log_bessel_i(2.5, float(xi)) == pytest.approx(vi, rel=1e-14)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_at_half_matches_high_precision(self):
        mpmath.mp.dps = 30
        ref = float(mpmath.log(mpmath.gamma(mpmath.mpf("0.5"))))
        assert log_gamma(0.5) == pytest.approx(ref, rel=1e-12)
        assert log_gamma(0.5) == pytest.approx(0.5723649, abs=1e-7)

    def test_stirling_gap_bounded(self):
        n = np.logspace(1, 4, 60)
        stirling = n * np.log(n) - n - 0.5 * np.log(n)
        gap = np.abs(log_gamma(n) - stirling)
        # gap tends to log sqrt(2 pi) ~ 0.9189
        assert np.all(gap < 1.0)
        assert gap[-1] == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.0)


class TestEmpiricalQuantile:
    def test_midpoint_interpolation(self):
        sample = np.array([1.0, 2.0, 3.0, 4.0])
        assert empirical_quantile(sample, 0.5) == pytest.approx(2.5)

    def test_median_of_normal_draws(self):
        draws = SeededRng(4).generator().standard_normal(100_000)
        assert empirical_quantile(draws, 0.5) == pytest.approx(0.0, abs=0.02)

    def test_deep_level_inside_range(self):
        draws = SeededRng(5).generator().standard_normal(100_000)
        eps, tau = 1e-3, 5e-4
        q = empirical_quantile(draws, 1 - eps + tau)
        assert draws.min() < q < draws.max()

    def test_errors(self):
        sample = np.array([1.0])
        with pytest.raises(ValueError):
            empirical_quantile(sample, 0.0)
        with pytest.raises(ValueError):
            empirical_quantile(np.array([]), 0.5)


class TestProductGammaPdf:
    def test_single_factor_reduces_to_gamma(self):
        for n, theta in [(3, 1.0), (8, 0.5), (100, 2.0)]:
            z = n * theta
            ref = stats.gamma.pdf(z, a=n, scale=theta)
            assert product_gamma_pdf(z, 1, n, theta) == pytest.approx(ref, rel=1e-6)

    def test_matches_meijer_g_oracle(self):
        # independent oracle: mpmath's Meijer-G evaluation
        mpmath.mp.dps = 30
        m, n, theta = 2, 3, 1.0
        for z in (1.0, 6.0, 20.0):
            pref = mpmath.mpf(theta) ** (-m) * mpmath.gamma(n) ** (-m)
            ref = float(pref * mpmath.meijerg([[], []], [[n - 1] * m, []], z / theta**m))
            assert product_gamma_pdf(z, m, n, theta) == pytest.approx(ref, rel=1e-7)

    def test_nonnegative_on_grid(self):
        for z in np.logspace(-3, 2.2, 40):
            assert product_gamma_pdf(float(z), 2, 3, 1.0) >= 0.0

    def test_normalization_three_factors(self):
        zs = np.linspace(1e-4, 600, 3001)
        pdf = np.array([product_gamma_pdf(float(z), 3, 8, 0.5) for z in zs])
        assert np.trapezoid(pdf, zs) == pytest.approx(1.0, abs=1e-3)

    def test_large_shape_regime(self):
        # converse-bound scales: shape equals the blocklength, and the bulk
        # of the product sits near (shape * scale)^copies
        theta = 1.0 / 1000.0
        assert product_gamma_logpdf(1.0, 2, 1000, theta) == pytest.approx(2.188, abs=0.01)
        # cross-check one point against the single-factor closed form at m=1
        one = product_gamma_logpdf(0.5, 1, 1000, theta / 2)
        assert one == pytest.approx(stats.gamma.logpdf(0.5, a=1000, scale=theta / 2), abs=1e-8)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            product_gamma_pdf(1.0, 0, 3, 1.0)
        with pytest.raises(ValueError):
            product_gamma_pdf(1.0, 9, 3, 1.0)
        with pytest.raises(ValueError):
            product_gamma_pdf(1.0, 2, 5000, 1.0)
        with pytest.raises(ValueError):
            product_gamma_pdf(-1.0, 2, 3, 1.0)
