import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from ambc_fbl import numerics
from ambc_fbl.cli import MIN_EPS
from ambc_fbl.numerics import (
    SeededRng,
    digamma,
    empirical_quantile,
    gaussian_q,
    gaussian_q_inv,
    log_bessel_i,
    log_gamma_complex,
    product_gamma_logpdf,
    trigamma,
)
from ambc_fbl.errors import ConvergenceError, InsufficientSamplesError
from oracles import product_gamma_pdf

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
        assert gaussian_q(0) == 0.5 and type(gaussian_q(0)) is float

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
        # p -> x -> p holds to 1e-10 relative across the whole range; abs=0
        # drops pytest's default 1e-12 absolute slack, which covers p itself
        for p in np.logspace(-12, -0.001, 60):
            assert gaussian_q(gaussian_q_inv(float(p))) == pytest.approx(p, rel=1e-10, abs=0)

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

    def test_matches_scipy_erfc(self):
        # Q has relative condition number about x^2, so the two erfc codes
        # may differ by that many ulp; below the smallest normal double
        # they are compared absolutely
        x = np.linspace(-38.0, 38.0, 7601)
        ref = 0.5 * special.erfc(x / np.sqrt(2.0))
        gap = np.abs(gaussian_q(x) - ref)
        tiny, ulp = np.finfo(float).tiny, np.finfo(float).eps
        normal = ref >= tiny
        assert np.all(gap[normal] <= 4 * ulp * (1.0 + x[normal] ** 2) * ref[normal])
        assert np.all(gap[~normal] <= tiny)

    def test_matches_high_precision_tail(self):
        # math.erfc keeps two ulp of its argument's exact value even where
        # scipy's erfc is off by hundreds
        for x in np.linspace(-38.0, 37.5, 303):
            exact = mpmath.erfc(mpmath.mpf(float(x / np.sqrt(2.0)))) / 2
            assert abs(gaussian_q(float(x)) - exact) <= 2 * np.finfo(float).eps * exact

    def test_inverse_matches_scipy_ndtri(self):
        p = np.logspace(np.log10(MIN_EPS), np.log10(1.0 - MIN_EPS), 4001)
        p = np.concatenate([p, 1.0 - p])
        ref = -special.ndtri(p)
        ulp = np.finfo(float).eps
        assert np.all(np.abs(gaussian_q_inv(p) - ref) <= 8 * ulp * np.maximum(np.abs(ref), 1.0))

    @pytest.mark.parametrize("f", [gaussian_q, gaussian_q_inv])
    def test_float_in_float_out_and_shapes_kept(self, f):
        for scalar in (0.3, np.float64(0.3), np.asarray(0.3)):
            assert type(f(scalar)) is float
        grid = np.full((2, 3), 0.3)
        out = f(grid)
        assert out.shape == (2, 3) and out.dtype == float
        assert np.all(out == f(0.3))
        assert f(np.empty(0)).shape == (0,)


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
        # x ~ 1e9 and above, where the log is near x itself; one ulp of the
        # log there is 2.4e-7, so the comparison is relative
        ref = _mpmath_log_bessel_i(7999.0, 1.6e9)
        assert log_bessel_i(7999.0, 1.6e9) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("order", [0.0, 0.5])
    def test_small_order_beyond_the_scaled_bessel_range(self, order):
        # small orders at such x run the recurrence down from order 50 or
        # 50.5 over ratios within 3e-8 of 1, without any warning
        ref = _mpmath_log_bessel_i(order, 2e9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_bessel_i(order, 2e9) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("order", [0.0, 0.5, 3.0, 49.0, 49.5, 50.0, 51.0, 200.0])
    def test_one_path_across_the_order_shift_and_the_decades(self, order):
        # orders below 50 take the expansion at order + k >= 50 and the
        # recurrence down; 50 and above take the expansion alone.  The bound
        # is 1e-10 absolute, or four ulp of the value where the double
        # spacing is coarser (x = 1e6 and 1e7, where log I is near x)
        x = np.logspace(-6, 7, 27)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = log_bessel_i(order, x)
            far = log_bessel_i(order, 2e9)
        for xi, value in zip(x, got):
            ref = _mpmath_log_bessel_i(order, xi)
            assert value == pytest.approx(ref, abs=max(1e-10, 4 * math.ulp(ref)), rel=0)
        assert far == pytest.approx(_mpmath_log_bessel_i(order, 2e9), rel=1e-12)

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


class TestLogGammaComplex:
    # the saddle lines of ``product_gamma_logpdf`` for factors of shape n:
    # w = v + i k h with Re w = v from n / 4 to 2 n, and the step
    # h = min(1/2 / sqrt(psi'(v)), v / 5) of a single factor
    K = np.array([0, 1, 4, 16, 64, 256])

    @pytest.mark.parametrize("n", [1, 2, 8, 100, 4096, 100_000])
    def test_matches_high_precision_on_the_k1_contour(self, n):
        mpmath.mp.dps = 30
        for v in (n / 4, max(n - 0.5, 0.5), 2.0 * n):
            w = v + 1j * min(0.5 / math.sqrt(trigamma(v)), v / 5.0) * self.K
            got = log_gamma_complex(w)
            for wi, value in zip(w, got):
                ref = mpmath.loggamma(mpmath.mpc(wi.real, wi.imag))
                assert value.real == pytest.approx(float(ref.real), rel=1e-10)
                # only cos of the phase is used, so it is compared mod 2 pi
                phase = math.remainder(float(mpmath.mpf(value.imag) - ref.imag), 2 * math.pi)
                assert abs(phase) < 1e-10
            assert digamma(v) == pytest.approx(float(mpmath.digamma(v)), rel=1e-14, abs=1e-15)

    def test_real_axis_matches_lgamma(self):
        for x in (0.5, 1.0, 3.0, 11.9, 12.0, 1e3):
            assert log_gamma_complex(x).real == pytest.approx(math.lgamma(x), rel=1e-14, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma_complex(np.array([1.0, -0.5 + 2j]))
        with pytest.raises(ValueError):
            digamma(0.0)


class TestTrigamma:
    # both sides of the recurrence's shift to 12
    @pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 3.7, 11.9, 12.0, 12.5, 100.0, 1e4, 1e6])
    def test_matches_high_precision(self, x):
        mpmath.mp.dps = 30
        assert trigamma(x) == pytest.approx(float(mpmath.psi(1, x)), rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain(self, x):
        with pytest.raises(ValueError, match="trigamma requires x > 0"):
            trigamma(x)


def _unit_weights(draws):
    """``draws`` sorted, with the unit weights of a sample of the law measured."""
    return np.sort(draws), np.ones(draws.size)


class TestEmpiricalQuantile:
    def test_midpoint_interpolation(self):
        draws, weights = _unit_weights(np.array([1.0, 2.0, 3.0, 4.0]))
        assert empirical_quantile(draws, 0.5, weights) == pytest.approx(2.5)

    def test_median_of_normal_draws(self):
        draws, weights = _unit_weights(SeededRng(4).generator().standard_normal(100_000))
        assert empirical_quantile(draws, 0.5, weights) == pytest.approx(0.0, abs=0.02)

    def test_deep_level_inside_range(self):
        draws, weights = _unit_weights(SeededRng(5).generator().standard_normal(100_000))
        eps, tau = 1e-3, 5e-4
        q = empirical_quantile(draws, 1 - eps + tau, weights)
        assert draws.min() < q < draws.max()

    def test_array_of_levels_equals_each_level_alone(self):
        # the achievability bound reads its four tau thresholds in one pass
        draws, weights = _unit_weights(SeededRng(6).generator().standard_normal(100_000))
        eps = 1e-3
        levels = [1 - eps + eps / k for k in (2, 4, 8, 16)]
        together = empirical_quantile(draws, levels, weights)
        assert together.tolist() == [empirical_quantile(draws, level, weights) for level in levels]

    def test_errors(self):
        sample = np.array([1.0])
        with pytest.raises(ValueError):
            empirical_quantile(sample, 0.0, np.ones(1))
        with pytest.raises(ValueError):
            empirical_quantile(sample, [0.5, 1.0], np.ones(1))
        with pytest.raises(ValueError):
            empirical_quantile(np.array([]), 0.5, np.array([]))

    def test_level_outside_the_weighted_cdf_raises(self):
        # the CDF of four unit weights runs from 1/8 to 7/8
        draws, weights = _unit_weights(np.array([1.0, 2.0, 3.0, 4.0]))
        assert empirical_quantile(draws, 7 / 8, weights) == 1.0
        assert empirical_quantile(draws, 1 / 8, weights) == 4.0
        for level in (0.9, 0.1):
            with pytest.raises(InsufficientSamplesError, match="misses lower-tail level"):
                empirical_quantile(draws, level, weights)
        # weights that sum to less than the level leave it unbracketed too
        with pytest.raises(InsufficientSamplesError):
            empirical_quantile(draws, 0.5, np.full(4, 0.1))

    def test_weighted_quantile_matches_the_tilted_law(self):
        # N(-2, 1) draws weighted by their likelihood ratio exp(2 x + 2) to
        # N(0, 1) read the N(0, 1) lower-tail quantiles, within 3 standard
        # errors of a plain sample quantile of as many draws
        num = 100_000
        draws = np.sort(SeededRng(7).generator().standard_normal(num) - 2.0)
        for level in (0.9999, 0.999, 0.99, 0.9):
            q = empirical_quantile(draws, level, np.exp(2.0 * draws + 2.0))
            se = math.sqrt(level * (1 - level) / num) / stats.norm.pdf(stats.norm.isf(level))
            assert abs(q - stats.norm.isf(level)) <= 3 * se


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

    @pytest.mark.parametrize("n", [8, 100, 2000, 4096, 100_000])
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_closed_forms_over_eight_sd(self, m, n):
        # m = 1: the gamma log-density; m = 2: 2 z^(n-1) K0(2 sqrt z) / Gamma(n)^2;
        # at 17 points over +-8 standard deviations of log Z
        mean, sd = m * special.digamma(n), math.sqrt(m * special.polygamma(1, n))
        tol = 1e-9 if n <= 4096 else 1e-8
        for u in mean + sd * np.linspace(-8.0, 8.0, 17):
            z = math.exp(u)
            if m == 1:
                ref = (n - 1) * u - z - math.lgamma(n)
            else:
                x = 2.0 * math.exp(u / 2.0)
                log_k0 = math.log(special.k0e(x)) - x
                ref = math.log(2.0) + (n - 1) * u + log_k0 - 2.0 * math.lgamma(n)
            assert product_gamma_logpdf(z, m, n, 1.0) == pytest.approx(ref, abs=tol)

    def test_node_cap_raises(self, monkeypatch):
        # the far left tail of 2 Gamma(3) factors needs more than one block
        assert math.isfinite(product_gamma_logpdf(1e-3, 2, 3, 1.0))
        monkeypatch.setattr(numerics, "_MELLIN_MAX_NODES", numerics._MELLIN_BLOCK)
        with pytest.raises(ConvergenceError, match="more than 32 nodes"):
            product_gamma_logpdf(1e-3, 2, 3, 1.0)
        assert math.isfinite(product_gamma_logpdf(1.0, 2, 1000, 1e-3))

    def test_preconditions(self):
        # copies = 0, z < 0, scale = 0, scale < 0, shape = 0
        cases = [(1.0, 0, 3, 1.0), (-1.0, 2, 3, 1.0), (1.0, 2, 3, 0.0), (1.0, 2, 3, -1.0), (1.0, 2, 0, 1.0)]
        for args in cases:
            with pytest.raises(ValueError):
                product_gamma_pdf(*args)
