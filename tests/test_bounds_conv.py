import math

import numpy as np
import pytest
from scipy import optimize, special, stats

from ambc_fbl import bounds_conv
from ambc_fbl.bounds_conv import (
    _unit_scale_log_sup,
    ball_volume_bound,
    converse_constants,
    converse_rate,
    np_beta_converse,
    pdf_sup_bound,
)
from ambc_fbl.channel import EigenSpectrum, Fading, composite, draw_channel, eigen_spectrum
from ambc_fbl.errors import ConvergenceError, InsufficientSamplesError
from ambc_fbl.numerics import SeededRng, product_gamma_logpdf
from ambc_fbl.power import PowerAllocation, waterfill
from ambc_fbl.tail import LawParams, TiltedSample
from oracles import product_gamma_pdf


def _setup(gains, powers, d=1):
    g = EigenSpectrum(g=np.asarray(gains, float), d=d)
    p = PowerAllocation(
        p=np.asarray(powers, float),
        water_level=float(max(powers) + 1.0),
        total_power=float(np.sum(powers)),
    )
    return g, p


def _beta(eps, law, rng, size):
    """``np_beta_converse`` at the (1 - eps) exceedance quantile eta, both
    read from the bound's one sample of ``law`` on ``rng``, tilted by the
    pilot of eta."""
    theta = law.pilot_tilt(eps)
    sample = TiltedSample(law, theta, law.sample(rng.generator(), size, theta))
    (eta,) = sample.thresholds([1 - eps])
    return np_beta_converse(eps, sample, eta)


class TestSampleConverseDensity:
    def test_mean_is_capacity(self):
        g, p = _setup([2.0, 0.5], [0.6, 0.4])
        draws = LawParams(120, g.g * p.p).sample(SeededRng(0).generator(), 50_000, 1.0)
        cap = float(np.log1p(g.g * p.p).sum())
        se = draws.std() / math.sqrt(draws.size)
        assert draws.mean() / 120 == pytest.approx(cap, abs=3 * se / 120)

    def test_per_use_variance_is_dispersion(self):
        gamma = 2.0
        g, p = _setup([gamma], [1.0])
        draws = LawParams(1, g.g * p.p).sample(SeededRng(1).generator(), 100_000, 1.0)
        target = 1.0 - 1.0 / (1.0 + gamma) ** 2
        assert draws.var() == pytest.approx(target, rel=0.05)

    def test_zero_power_degenerates(self):
        g, p = _setup([1.0], [0.0])
        draws = LawParams(10, g.g * p.p).sample(SeededRng(2).generator(), 2000, 1.0)
        assert draws.var() == 0.0
        assert np.all(draws == 0.0)


class TestNpBetaConverse:
    def test_identical_laws_return_the_level(self):
        # zero power makes the two hypotheses coincide
        for eps in (0.3, 0.1, 0.01):
            est = _beta(eps, LawParams(8, np.zeros(1)), SeededRng(0), 50_000)
            assert est.beta == pytest.approx(1 - eps, abs=2 / math.sqrt(50_000))

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 4.0])
    def test_single_use_matches_quadrature_oracle(self, gamma):
        n, eps = 1, 0.1
        g, p = _setup([gamma], [1.0])
        num = 100_000
        est = _beta(eps, LawParams(n, g.g * p.p), SeededRng(30), num)
        c = math.log1p(gamma) + 1.0
        law_h = stats.ncx2(2, 2 / gamma)
        law_g = stats.ncx2(2, 2 * (1 + gamma) / gamma)
        eta = c - gamma / (2 * (1 + gamma)) * law_h.ppf(1 - eps)
        beta_oracle = law_g.cdf((c - eta) * 2 / gamma)
        se = math.sqrt(beta_oracle * (1 - beta_oracle) / num)
        assert est.beta == pytest.approx(beta_oracle, abs=4 * se + 0.003)

    def test_monotone_in_level(self):
        g, p = _setup([1.0], [1.0])
        betas = [
            _beta(eps, LawParams(20, g.g * p.p), SeededRng(40), 50_000).log_beta
            for eps in (0.3, 0.1, 0.01)
        ]
        assert betas[0] < betas[1] < betas[2]

    def test_tilted_path_engages_at_large_blocklength(self):
        g, p = _setup([1.0], [1.0])
        est = _beta(1e-3, LawParams(1000, g.g * p.p), SeededRng(50), 20_000)
        assert est.tilted
        assert est.log_beta < -500
        assert est.ci_rel < 0.2

    def test_tilted_estimate_against_closed_form_deep_tail(self):
        # under the auxiliary channel the block statistic is the shifted,
        # scaled noncentral chi-square of the output law; evaluate its exact
        # tail at the estimator's own threshold
        gamma, n = 1.0, 100
        g, p = _setup([gamma], [1.0])
        est = _beta(1e-3, LawParams(n, g.g * p.p), SeededRng(52), 100_000)
        assert est.tilted
        c = n * (math.log1p(gamma) + 1.0)
        exact = stats.ncx2.cdf((c - est.threshold) * 2 / gamma, 2 * n, 2 * n * (1 + gamma) / gamma)
        assert est.log_beta == pytest.approx(math.log(exact), abs=3 * est.ci_rel)
        assert exact < 1e-15


class TestConverseConstants:
    def test_ball_volume_disk(self):
        # radius forced to one: the unit disk and unit ball volumes
        assert ball_volume_bound(2, 0.5) == pytest.approx(math.pi)
        assert ball_volume_bound(3, 0.5) == pytest.approx(4 * math.pi / 3)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_ball_volume_matches_scipy_gamma_form(self, m):
        # math.gamma is exact at the integers of even m and within a few
        # ulp of scipy's gamma at the half-integers of odd m
        for p in (0.5, 1.0, 31.6):
            ref = np.pi ** (m / 2.0) / special.gamma(m / 2.0 + 1.0) * (p + 0.5) ** m
            assert abs(ball_volume_bound(m, p) - ref) <= 4 * np.finfo(float).eps * ref
            if m % 2 == 0:
                assert ball_volume_bound(m, p) == ref
        assert type(ball_volume_bound(m, 1.0)) is float

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_ball_volume_versus_stirling_form(self, m):
        # the Stirling-style closed form under-estimates Gamma(m/2 + 1), so
        # the exact volume dominates that expression for every m here
        p = 1.0
        stirling_form = math.pi ** (m / 2) / (math.sqrt(m) * (m / 2) ** (m / 2)) * (p + 0.5) ** m
        assert ball_volume_bound(m, p) >= stirling_form

    def test_single_mode_sup_matches_gamma_mode(self):
        # closed form: the Gamma(n, theta) density peaks at (n-1) theta
        g, p = _setup([1.0], [1.0])
        for n in (50, 4096):
            theta = (1.0 + 1.0) / (2 * n)
            k1 = pdf_sup_bound(n, g, p)
            peak = stats.gamma.pdf((n - 1) * theta, a=n, scale=theta)
            assert k1 == pytest.approx(peak / (1 * n), rel=1e-6)

    @pytest.mark.parametrize("n", [8, 100, 2000, 4096, 100_000])
    def test_two_mode_sup_matches_bessel_k0_closed_form(self, n):
        # the product of two Gamma(n, 1) variables has density
        # 2 z^(n-1) K0(2 sqrt z) / Gamma(n)^2; maximize its log over u = log z
        def neg(u):
            x = 2.0 * math.exp(u / 2.0)
            log_k0 = math.log(special.k0e(x)) - x
            return -(math.log(2.0) + (n - 1) * u + log_k0 - 2.0 * special.gammaln(n))

        u0 = 2.0 * math.log(n - 1)
        res = optimize.minimize_scalar(
            neg, bounds=(u0 - 8.0, u0 + 4.0), method="bounded", options={"xatol": 1e-10}
        )
        assert _unit_scale_log_sup(2, n) == pytest.approx(-res.fun, abs=1e-9)

    @pytest.mark.parametrize("n", [8, 100, 4096, 100_000, 1_000_000])
    def test_single_mode_sup_matches_its_closed_form(self, n):
        # the Gamma(n, 1) log-density peaks at z = n - 1; the closed form is
        # taken at 30 digits, since (n - 1) ln(n - 1) alone rounds by 1e-9
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        ref = float((n - 1) * mpmath.log(n - 1) - (n - 1) - mpmath.loggamma(n))
        assert _unit_scale_log_sup(1, n) == pytest.approx(ref, abs=1e-9)

    def test_cold_search_quadrature_count(self, monkeypatch):
        calls = []
        quadrature = bounds_conv.product_gamma_logpdf

        def counted(*args):
            calls.append(args)
            return quadrature(*args)

        monkeypatch.setattr(bounds_conv, "product_gamma_logpdf", counted)
        _unit_scale_log_sup.cache_clear()
        _unit_scale_log_sup(2, 2000)
        assert 0 < len(calls) <= 10

    def test_sup_dominates_samples(self):
        g, p = _setup([3.0, 1.0], [0.7, 0.3])
        n = 64
        k1 = pdf_sup_bound(n, g, p)
        theta_eff = float(np.prod((1 + g.g * p.p) / (2 * n))) ** 0.5
        rng = np.random.default_rng(1)
        for z in rng.uniform(0.05, 3.0, 10) * theta_eff**2 * n * n:
            assert k1 * 2 * n >= product_gamma_pdf(float(z), 2, n, theta_eff) - 1e-12

    def test_three_mode_constant_finite(self):
        g, p = _setup([3.0, 1.0, 0.4], [0.5, 0.3, 0.2])
        k1 = pdf_sup_bound(128, g, p)
        assert 0 < k1 < math.inf
        log_constant = converse_constants(128, g, p, 1.0)
        assert log_constant == math.log(k1 * ball_volume_bound(3, 1.0) * 3 * 128)


class TestUnitScaleLogSup:
    """The K1 search: Newton's method on log q(e^u), concave in u = log z."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", [8, 100, 2000, 4096])
    def test_matches_bounded_scipy_oracle(self, m, n):
        # scipy's bounded search on the same quadrature, over 8 standard
        # deviations of log Z on each side of the Newton start
        def neg(u):
            return -product_gamma_logpdf(math.exp(u), m, n, 1.0)

        u0, sd = m * math.log(n - 1), math.sqrt(m / (n - 1))
        res = optimize.minimize_scalar(
            neg, bounds=(u0 - 8 * sd, u0 + 8 * sd), method="bounded", options={"xatol": 1e-10}
        )
        assert abs(res.x - u0) < 4 * sd
        assert _unit_scale_log_sup(m, n) == pytest.approx(-res.fun, abs=1e-9)

    @pytest.mark.parametrize(
        "log_q, message",
        [(lambda z, *_: math.log(z) ** 2, "not concave"), (lambda *_: math.nan, "non-finite")],
        ids=["convex", "nan"],
    )
    def test_bad_objective_raises(self, monkeypatch, log_q, message):
        monkeypatch.setattr(bounds_conv, "product_gamma_logpdf", log_q)
        _unit_scale_log_sup.cache_clear()
        with pytest.raises(ConvergenceError, match=message):
            _unit_scale_log_sup(2, 100)

    def test_step_limit_raises(self, monkeypatch):
        # log q(e^u) = -e^u is concave but has no maximum: every Newton
        # step moves u down by 1
        monkeypatch.setattr(bounds_conv, "product_gamma_logpdf", lambda z, *_: -z)
        _unit_scale_log_sup.cache_clear()
        with pytest.raises(ConvergenceError, match="did not converge in 50 steps"):
            _unit_scale_log_sup(2, 2000)


class TestConverseRate:
    def _spectra(self, seed, a=0.5):
        ch = draw_channel(SeededRng(seed), 2, 3, Fading.rayleigh(), a)
        return eigen_spectrum(composite(ch, +1)), eigen_spectrum(composite(ch, -1))

    def test_absent_tag_gives_identical_symbol_rates(self):
        sp, sm = self._spectra(8, a=0.0)
        res = converse_rate(100, sp, sm, 1.0, 1e-3, SeededRng(9), 20_000)
        r_minus, r_plus = res.per_d
        assert r_minus.rate_nats == r_plus.rate_nats
        for sub, spec in zip(res.per_d, (sm, sp)):
            assert sub.d == spec.d and sub.level == 1 - 1e-3
            assert sub.log_constant == converse_constants(100, spec, waterfill(spec, 1.0), 1.0)

    @pytest.mark.parametrize(
        "eps,num,error",
        [
            (0.0, 2000, ValueError),
            (1.0, 2000, ValueError),
            (1e-3, 999, ValueError),
            (1e-3, 1999, InsufficientSamplesError),  # the floor, num * eps / 2 < 1
        ],
    )
    def test_refused_call_searches_no_k1(self, eps, num, error):
        sp, sm = self._spectra(8)
        _unit_scale_log_sup.cache_clear()
        with pytest.raises(error):
            converse_rate(100, sp, sm, 1.0, eps, SeededRng(9), num)
        assert _unit_scale_log_sup.cache_info().misses == 0

    def test_tracks_capacity_at_large_blocklength(self):
        sp, sm = self._spectra(10)
        res = converse_rate(1000, sp, sm, 1.0, 1e-3, SeededRng(11), 50_000)
        cap = 0.0
        for spec in (sm, sp):
            alloc = waterfill(spec, 1.0)
            cap += 0.5 * float(np.log1p(spec.g * alloc.p).sum())
        assert abs(res.rate_nats - cap) <= 0.15 * cap

    def test_dominates_achievability(self):
        from ambc_fbl.bounds_ach import achievability_rate

        sp, sm = self._spectra(12)
        for n in (100, 500):
            ach = achievability_rate(n, sp, sm, 1.0, 1e-3, SeededRng(13), 20_000)
            conv = converse_rate(n, sp, sm, 1.0, 1e-3, SeededRng(14), 20_000)
            slack = (ach.ci_rate_bits + conv.ci_rate_bits) * math.log(2)
            assert ach.rate_nats <= conv.rate_nats + slack

    def test_three_mode_pipeline(self):
        # square 3x3 geometry exercises all three eigenmodes end to end
        from ambc_fbl.bounds_ach import achievability_rate

        ch = draw_channel(SeededRng(15), 3, 3, Fading.rayleigh(), 0.5)
        sp = eigen_spectrum(composite(ch, +1))
        sm = eigen_spectrum(composite(ch, -1))
        assert sp.m == 3
        ach = achievability_rate(200, sp, sm, 2.0, 1e-3, SeededRng(16), 20_000)
        conv = converse_rate(200, sp, sm, 2.0, 1e-3, SeededRng(17), 20_000)
        assert math.isfinite(ach.rate_bits) and math.isfinite(conv.rate_bits)
        slack = (ach.ci_rate_bits + conv.ci_rate_bits) * math.log(2)
        assert ach.rate_nats <= conv.rate_nats + slack
