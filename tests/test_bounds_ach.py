import math
import warnings

import numpy as np
import pytest
from scipy import stats

from ambc_fbl import bounds_ach, bounds_conv, tail
from ambc_fbl.bounds_ach import (
    MixedRate,
    achievability_beta,
    achievability_rate,
    compute_c1,
    kappa_tau,
    log_energy_density_ratio,
)
from ambc_fbl.bounds_conv import converse_rate
from ambc_fbl.channel import EigenSpectrum, Fading, composite, draw_channel, eigen_spectrum
from ambc_fbl.errors import InsufficientSamplesError
from ambc_fbl.numerics import SeededRng, empirical_quantile
from ambc_fbl.power import PowerAllocation, waterfill
from ambc_fbl.tail import LawParams, SymbolBound, TiltedSample


def _setup(gains, powers, d=1):
    g = EigenSpectrum(g=np.asarray(gains, float), d=d)
    p = PowerAllocation(
        p=np.asarray(powers, float),
        water_level=float(max(powers) + 1.0),
        total_power=float(np.sum(powers)),
    )
    return g, p


def _laws(gains, powers, n, seed, num=100_000):
    """Output-law draws, conditional-law draws and the law parameters."""
    g, p = _setup(gains, powers)
    law = (n, g.g * p.p)
    g_draws = LawParams(*law).sample(SeededRng(seed, 1).generator(), num, 0.0)
    h_draws = LawParams(*law).sample(SeededRng(seed, 2).generator(), num, 1.0)
    return g_draws, h_draws, law


def _one_sample(law, level, rng, size):
    """The bound's one sample of ``law`` on ``rng``, tilted by its pilot at
    lower-tail level ``level``."""
    theta = law.pilot_tilt(level)
    return TiltedSample(law, theta, law.sample(rng.generator(), size, theta))


def _beta(eps, tau, law, rng, size=100_000):
    """``achievability_beta`` at the threshold of level 1 - eps + tau, both
    read from one sample of the law (n, gammas) of its own."""
    sample = _one_sample(LawParams(*law), eps - tau, rng, size)
    (threshold,) = sample.thresholds([1 - eps + tau])
    return achievability_beta(eps, tau, sample, threshold)


def _direct_per_use(kind, n, gamma, gen, num):
    """Oracle sampler: the raw definition with fresh complex Gaussians."""
    z = (gen.standard_normal((num, n)) + 1j * gen.standard_normal((num, n))) / math.sqrt(2)
    if kind == "output":
        terms = math.log1p(gamma) + 1 - np.abs(math.sqrt(gamma) * z - math.sqrt(1 + gamma)) ** 2
    else:
        terms = math.log1p(gamma) + 1 - np.abs(math.sqrt(gamma) * z - 1) ** 2 / (1 + gamma)
    return terms.sum(axis=1)


def _sample(kind, n, g, p, rng, num):
    """Draws of the information density under the output law (the tilt
    by 0) or the conditional law (the tilt by 1)."""
    if kind == "output":
        return LawParams(n, g.g * p.p).sample(rng.generator(), num, 0.0)
    return LawParams(n, g.g * p.p).sample(rng.generator(), num, 1.0)


class TestSampleInfoDensity:
    def test_zero_power_draws_are_exactly_zero(self):
        g, p = _setup([2.0, 1.0], [0.0, 0.0])
        for kind in ("output", "conditional"):
            draws = _sample(kind, 50, g, p, SeededRng(0), 2000)
            assert draws.mean() == 0.0
            assert np.all(draws == 0.0)

    def test_conditional_mean_is_capacity(self):
        _, v, _ = _laws([1.0], [1.0], 100, seed=1)
        se = v.std() / math.sqrt(v.size)
        assert v.mean() / 100 == pytest.approx(math.log(2.0), abs=3 * se / 100)

    def test_per_use_variance_matches_dispersion(self):
        gamma = 1.5
        _, v, _ = _laws([gamma], [1.0], 1, seed=2)
        target = 1.0 - 1.0 / (1.0 + gamma) ** 2
        assert v.var() == pytest.approx(target, rel=0.05)

    def test_matches_direct_definition(self):
        # same law as summing n fresh per-use terms
        gamma, n, num = 1.3, 40, 30_000
        gen = np.random.default_rng(7)
        for kind in ("output", "conditional"):
            direct = _direct_per_use(kind, n, gamma, gen, num)
            g, p = _setup([gamma], [1.0])
            mine = _sample(kind, n, g, p, SeededRng(3, 7), num)
            se = math.hypot(direct.std(), mine.std()) / math.sqrt(num)
            assert mine.mean() == pytest.approx(direct.mean(), abs=4 * se)
            assert mine.std() == pytest.approx(direct.std(), rel=0.03)
            assert stats.ks_2samp(direct, mine).pvalue > 1e-5

    def test_output_mean_below_conditional_mean(self):
        g_draws, h_draws, _ = _laws([2.0, 0.5], [0.7, 0.3], 50, seed=4)
        se = math.hypot(g_draws.std(), h_draws.std()) / math.sqrt(g_draws.size)
        assert g_draws.mean() <= h_draws.mean() + 3 * se

    def test_preconditions(self):
        g, p = _setup([1.0], [1.0])
        with pytest.raises(ValueError):
            LawParams(0, g.g * p.p)
        for bound in (achievability_rate, converse_rate):
            with pytest.raises(ValueError, match="num_samples"):
                bound(10, g, g, 1.0, 0.1, SeededRng(0), 999)
            # less than one conditional draw expected below the lowest
            # threshold, at level eps / 2
            with pytest.raises(InsufficientSamplesError, match="less than one"):
                bound(10, g, g, 1.0, 1e-3, SeededRng(0), 1999)
            bound(10, g, g, 1.0, 1e-3, SeededRng(0), 2000)


class TestAchievabilityBeta:
    def test_identical_laws_give_the_level(self):
        # the output law's own level-L quantile as the threshold: beta is L,
        # read untilted at L = 0.92 (below the mean) and tilted at L = 0.3
        n, gamma, num = 20, 1.0, 100_000
        law = LawParams(n, np.array([gamma]))
        for eps, tau, tilt in ((0.1, 0.02, False), (0.8, 0.1, True)):
            level = 1 - eps + tau
            x = n * (math.log1p(gamma) + 1) - gamma / 2 * stats.ncx2.ppf(
                level, 2 * n, 2 * n * (1 + gamma) / gamma
            )
            # below the output law's mean the sample is untilted
            assert (x > law.cgf_derivatives(0.0)[0]) == tilt
            theta = law.solve_tilt(x) if tilt else 0.0
            tilted = TiltedSample(law, theta, law.sample(SeededRng(0).generator(), num, theta))
            est = achievability_beta(eps, tau, tilted, x)
            assert est.tilted == tilt
            assert est.beta == pytest.approx(level, abs=2 / math.sqrt(num))

    def test_law_without_active_modes_returns_the_level_exactly(self):
        # X = 0 under both hypotheses: the test rejects at random
        est = _beta(0.1, 0.02, (8, np.zeros(1)), SeededRng(0), 20_000)
        assert est.beta == 0.92
        assert not est.tilted

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 4.0])
    def test_single_use_matches_quadrature_oracle(self, gamma):
        # exact laws at n = 1: shifted and scaled noncentral chi-squares
        n, eps, tau = 1, 0.1, 0.025
        _, h_draws, law = _laws([gamma], [1.0], n, seed=6)
        est = _beta(eps, tau, law, SeededRng(60))
        c = math.log1p(gamma) + 1.0
        law_h = stats.ncx2(2, 2 / gamma)
        law_g = stats.ncx2(2, 2 * (1 + gamma) / gamma)
        gamma_n = c - gamma / (2 * (1 + gamma)) * law_h.ppf(1 - eps + tau)
        beta_oracle = law_g.cdf((c - gamma_n) * 2 / gamma)
        se = math.sqrt(beta_oracle * (1 - beta_oracle) / h_draws.size)
        # allow for threshold noise propagated from the conditional quantile
        assert est.beta == pytest.approx(beta_oracle, abs=4 * se + 0.003)

    def test_beta_increases_with_tau(self):
        # one sample, tilted to the lowest threshold, that of the largest tau
        _, _, law = _laws([1.0], [1.0], 30, seed=7)
        taus = (0.01, 0.03, 0.06, 0.09)
        sample = _one_sample(LawParams(*law), 0.1 - taus[-1], SeededRng(61), 100_000)
        thresholds = sample.thresholds([1 - 0.1 + tau for tau in taus])
        betas = [achievability_beta(0.1, tau, sample, x).beta for tau, x in zip(taus, thresholds)]
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))

    def test_tilted_path_matches_exact_tail(self):
        # deep tail, beyond raw Monte Carlo of the output law
        gamma, n = 1.0, 400
        _, _, law = _laws([gamma], [1.0], n, seed=8)
        est = _beta(1e-3, 2.5e-4, law, SeededRng(62))
        assert est.tilted
        assert est.log_beta < -100
        assert est.ci_rel < 0.1

    def test_tilted_estimate_against_closed_form_deep_tail(self):
        # for one mode the block law is exactly a shifted, scaled noncentral
        # chi-square with 2n degrees of freedom; evaluate the exact tail at
        # the estimator's own threshold so only the sampler is under test
        gamma, n = 1.0, 100
        _, _, law = _laws([gamma], [1.0], n, seed=88)
        est = _beta(1e-3, 2.5e-4, law, SeededRng(89))
        assert est.tilted
        c = n * (math.log1p(gamma) + 1.0)
        exact = stats.ncx2.cdf(
            (c - est.threshold) * 2 / gamma, 2 * n, 2 * n * (1 + gamma) / gamma
        )
        assert est.log_beta == pytest.approx(math.log(exact), abs=3 * est.ci_rel)
        assert exact < 1e-15  # genuinely beyond raw Monte Carlo reach

    def test_monotone_nonincreasing_in_blocklength(self):
        # fixed per-use threshold: the exceedance probability must fall with n
        from ambc_fbl.tail import LawParams

        gamma = 1.0
        rate = -1.0  # above the per-use mean log(2) - 2 of the output law
        vals = []
        for n in (50, 100, 200):
            params = LawParams(n, np.array([gamma]))
            theta = params.solve_tilt(rate * n)
            gen = SeededRng(63, n).generator()
            draws = params.sample(gen, 100_000, theta)
            logw = params.cgf(theta) - theta * draws
            acc = draws >= rate * n
            mx = logw[acc].max()
            vals.append(mx + math.log(np.exp(logw[acc] - mx).sum() / 100_000))
        assert vals[0] > vals[1] > vals[2]

    def test_tau_eps_validation(self):
        _, h_draws, law = _laws([1.0], [1.0], 10, seed=10, num=2000)
        threshold = float(h_draws.min())
        tilted = _one_sample(LawParams(*law), 0.1, SeededRng(0), 2000)
        with pytest.raises(ValueError):
            achievability_beta(0.1, 0.1, tilted, threshold)
        with pytest.raises(ValueError):
            achievability_beta(0.1, 0.2, tilted, threshold)


class TestComputeC1:
    def test_ratio_matches_direct_density_oracle(self):
        # implementation path (log-gamma + log-Bessel assembly) against
        # scipy's noncentral-chi-square and gamma densities
        n, gamma, c = 32, 0.5, 1.5
        r = c * n
        mine = float(log_energy_density_ratio(r, n, gamma))
        oracle = (
            math.log(2.0)
            + stats.ncx2.logpdf(2 * r, df=2 * n, nc=2 * n * gamma)
            - stats.gamma.logpdf(r, a=n, scale=1 + gamma)
        )
        assert abs(math.expm1(mine - oracle)) < 0.01

    def test_log_ratio_bounded_by_two_n(self):
        n, gamma = 128, 1.0
        c = np.linspace(1 + gamma - 0.5, 1 + gamma + 0.5, 513)
        log_f = log_energy_density_ratio(c * n, n, gamma)
        assert np.all(np.abs(log_f) < 2 * n)

    def test_ratio_in_scaled_bessel_underflow_regime(self):
        # large blocklength with a weak mode: the Bessel order dwarfs its
        # argument, where I e^-x has no representable value; pin against a
        # high-precision external evaluation
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        n, gamma = 2000, 0.05
        r = n * (1 + gamma)
        x = mpmath.mpf(2 * r)
        nc = mpmath.mpf(2 * n * gamma)
        log_cond = (
            -(x + nc) / 2
            + (mpmath.mpf(n) / 2 - mpmath.mpf(1) / 2) * mpmath.log(x / nc)
            + mpmath.log(mpmath.besseli(n - 1, mpmath.sqrt(nc * x), maxterms=10**7))
        )
        log_out = (
            (n - 1) * mpmath.log(mpmath.mpf(r))
            - mpmath.mpf(r) / (1 + mpmath.mpf(gamma))
            - mpmath.loggamma(n)
            - n * mpmath.log(1 + mpmath.mpf(gamma))
        )
        # the ncx2 prefactor 1/2 cancels the change-of-variables factor 2
        ref = float(log_cond - log_out)
        assert float(log_energy_density_ratio(r, n, gamma)) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("n", [64, 256])
    def test_finite_positive(self, n):
        c1 = compute_c1(n, 1.0)
        assert 0.0 < c1 < math.inf
        # the supremum sits near the shared mean energy and stays O(1) in n
        assert c1 == pytest.approx((1 + 1.0) / math.sqrt(1 + 2 * 1.0), rel=0.05)

    def test_beyond_the_scaled_bessel_range(self):
        # n g p = 8e8 puts the Bessel argument near 1.6e9, where the log of
        # I is near x itself; the supremum still follows the large-n form
        # (1 + y) / sqrt(1 + 2 y)
        y = 1e5
        assert compute_c1(8000, y) == pytest.approx((1 + y) / math.sqrt(1 + 2 * y), rel=1e-4)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            compute_c1(100, 0.0)


class TestKappaTau:
    def test_unit_constant(self):
        assert kappa_tau(0.5, 1.0) == 0.5

    def test_scaling(self):
        assert kappa_tau(1e-3, 10.0) == pytest.approx(1e-4)

    def test_clamped_to_probability(self):
        assert kappa_tau(0.9, 0.5) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            kappa_tau(0.0, 1.0)
        with pytest.raises(ValueError):
            kappa_tau(0.5, 0.0)


class TestAchievabilityRate:
    def _spectra(self, seed, a=0.5):
        ch = draw_channel(SeededRng(seed), 2, 3, Fading.rayleigh(), a)
        return eigen_spectrum(composite(ch, +1)), eigen_spectrum(composite(ch, -1))

    def test_absent_tag_gives_identical_symbol_rates(self):
        sp, sm = self._spectra(11, a=0.0)
        res = achievability_rate(100, sp, sm, 1.0, 1e-3, SeededRng(12), 20_000)
        r_minus, r_plus = res.per_d
        assert r_minus.rate_nats == r_plus.rate_nats
        assert res.rate_nats == r_plus.rate_nats

    def test_rate_below_capacity(self):
        sp, sm = self._spectra(13)
        for n in (100, 500):
            res = achievability_rate(n, sp, sm, 1.0, 1e-3, SeededRng(14), 20_000)
            caps = []
            for spec in (sm, sp):
                alloc = waterfill(spec, 1.0)
                caps.append(float(np.log1p(spec.g * alloc.p).sum()))
            cap = 0.5 * sum(caps)
            assert res.rate_nats <= cap + 3 * res.ci_rate_bits * math.log(2)

    def test_blocklength_20000_is_finite_below_capacity_without_warnings(self):
        sp, sm = self._spectra(13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = achievability_rate(20_000, sp, sm, 1.0, 1e-3, SeededRng(14), 20_000)
        cap = 0.0
        for spec in (sm, sp):
            alloc = waterfill(spec, 1.0)
            cap += 0.5 * float(np.log1p(spec.g * alloc.p).sum())
        assert math.isfinite(res.rate_nats)
        assert 0.0 < res.rate_nats < cap

    def test_large_blocklength_approaches_capacity(self):
        sp, sm = self._spectra(15)
        res = achievability_rate(2000, sp, sm, 1.0, 1e-3, SeededRng(16), 50_000)
        cap = 0.0
        for spec in (sm, sp):
            alloc = waterfill(spec, 1.0)
            cap += 0.5 * float(np.log1p(spec.g * alloc.p).sum())
        assert res.rate_nats >= 0.9 * cap

    def test_result_fields(self):
        sp, sm = self._spectra(17)
        res = achievability_rate(64, sp, sm, 1.0, 1e-3, SeededRng(18), 10_000)
        assert isinstance(res, MixedRate)
        assert res.rate_bits == pytest.approx(res.rate_nats / math.log(2))
        assert [sub.d for sub in res.per_d] == [-1, 1]
        for sub in res.per_d:
            assert isinstance(sub, SymbolBound)
            assert sub.level in [1 - 1e-3 + 1e-3 / k for k in (2, 4, 8, 16)]
            # the constant is kappa_tau <= 1
            assert sub.log_constant <= 0.0


class TestOutputDrawSkip:
    """The bound draws no output-law sample: its thresholds and every beta
    are read from one tilted sample, whose largest weight at or above a
    threshold x, exp(cgf(theta) - theta x), is a Chernoff bound on the
    tail at x."""

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("n", [8, 100, 1000])
    def test_chernoff_bound_dominates_exact_tail(self, gamma, n):
        # one mode: the information density is c - (gamma/2)(X + Y) with
        # X + Y ~ ncx2(2n, 2n(1+gamma)/gamma) under the output law
        law = LawParams(n, np.array([gamma]))
        c = n * (math.log1p(gamma) + 1.0)
        mean = law.cgf_derivatives(0.0)[0]
        for per_use in (-2.0, -1.0, 0.0, 0.5):
            threshold = per_use * n
            # the tilt to the threshold, clamped to 0 at or below the mean
            theta = law.solve_tilt(threshold) if threshold > mean else 0.0
            bound = law.cgf(theta) - theta * threshold
            exact = stats.ncx2.logcdf(
                (c - threshold) * 2 / gamma, 2 * n, 2 * n * (1 + gamma) / gamma
            )
            assert bound >= exact
            if math.isfinite(exact):
                # a Chernoff bound is loose by a subexponential factor only
                assert bound <= exact + 5.0

    @pytest.mark.parametrize("bound", [achievability_rate, converse_rate])
    def test_bound_draws_one_tilted_sample_per_symbol(
        self, monkeypatch, pin_cpus, bound
    ):
        pin_cpus(1)
        ch = draw_channel(SeededRng(19), 2, 3, Fading.rayleigh(), 0.5)
        sp, sm = eigen_spectrum(composite(ch, +1)), eigen_spectrum(composite(ch, -1))
        draws = []
        draw = tail.draw_tilted

        def recorded(gen, laws, thetas, outs):
            draws.append(list(thetas))
            return draw(gen, laws, thetas, outs)

        monkeypatch.setattr(tail, "draw_tilted", recorded)
        res = bound(100, sp, sm, 1.0, 1e-3, SeededRng(20), 20_000)
        # one raw draw per bound call, giving each symbol one sample,
        # tilted between the output law and the conditional law, for all of
        # the bound's thresholds and betas
        assert len(draws) == 1 and len(draws[0]) == 2
        assert all(0.0 <= theta <= 1.0 for theta in draws[0])
        assert all(sub.estimate.tilted for sub in res.per_d)


def _written_out(law, stream, num, theta, threshold):
    """log beta and its relative 95% CI at ``threshold``, as the
    importance-sampling sum over all ``num`` draws of the law tilted by
    ``theta`` on ``stream``, each rejected draw a weight of 0."""
    draws = law.sample(stream.generator(), num, theta)
    log_w = law.cgf(theta) - theta * draws[draws >= threshold]
    mx = log_w.max()
    weights = np.zeros(num)
    weights[: log_w.size] = np.exp(log_w - mx)
    mean = weights.mean()
    return mx + math.log(mean), 1.96 * weights.std() / math.sqrt(num) / mean


def _weighted_threshold(law, stream, num, theta, level):
    """The threshold of exceedance ``level`` under the conditional law,
    from ``num`` draws of the law tilted by ``theta`` on ``stream``, each
    weighted by its likelihood ratio exp((1 - theta) x + cgf(theta)) to
    the conditional law."""
    draws = np.sort(law.sample(stream.generator(), num, theta))
    return empirical_quantile(draws, level, np.exp((1 - theta) * draws + law.cgf(theta)))


class TestSharedTiltedSample:
    """The four tau of one tag symbol read their thresholds and tilted tails
    from one sample, tilted by the pilot of the lowest threshold, that of
    tau = eps/2."""

    LAWS = [([1.0], 100), ([1.0], 2000), ([2.0, 1.5], 100), ([2.0, 1.5], 2000)]

    @pytest.mark.parametrize("gains,n", LAWS)
    def test_largest_tau_keeps_its_own_estimate(self, monkeypatch, gains, n):
        seed, num = 21, 20_000
        ests = []
        beta = bounds_ach.achievability_beta

        def recorded(*args, **kwargs):
            ests.append(beta(*args, **kwargs))
            return ests[-1]

        monkeypatch.setattr(bounds_ach, "achievability_beta", recorded)
        g = EigenSpectrum(np.asarray(gains, float), 1)
        p = waterfill(g, 1.0)
        (symbol,) = tail.symbol_laws(n, [g], 1.0, 1e-3 / 2)
        (draws,) = tail.draw_symbols([symbol], SeededRng(seed).split(0), num)
        bounds_ach._fixed_d_rate(n, symbol, draws, 1e-3)
        law = LawParams(n, g.g * p.p)
        assert law.gammas.size == len(gains)
        assert len(ests) == 4 and all(est.tilted for est in ests)
        first = ests[0]
        # bit-equal to a sample of its own on the same stream, read once
        stream = SeededRng(seed).split(0)
        own = _one_sample(law, 1e-3 / 2, stream, num).beta(1 - 1e-3 / 2, first.threshold)
        assert (first.log_beta, first.ci_rel) == (own.log_beta, own.ci_rel)
        # every tau's sorted read is the importance-sampling sum written
        # out over all draws, to 1e-12 relative in beta and its CI, at the
        # threshold the conditional weights give
        theta = law.pilot_tilt(1e-3 / 2)
        levels = [1 - 1e-3 + 1e-3 / k for k in (2, 4, 8, 16)]
        for est, level in zip(ests, levels):
            log_beta, ci_rel = _written_out(law, stream, num, theta, est.threshold)
            assert abs(est.log_beta - log_beta) <= 1e-12
            assert est.ci_rel == pytest.approx(ci_rel, rel=1e-12)
            assert est.threshold == pytest.approx(
                _weighted_threshold(law, stream, num, theta, level), rel=1e-12, abs=1e-12
            )
        # and so is the converse's read at eta, on its own sample, tilted by
        # the pilot of eta
        (symbol,) = tail.symbol_laws(n, [g], 1.0, 1e-3)
        (draws,) = tail.draw_symbols([symbol], SeededRng(seed).split(0), num)
        est = bounds_conv._fixed_d_rate(n, symbol, draws, 1.0, 1e-3).estimate
        theta = law.pilot_tilt(1e-3)
        assert est.tilted and est.threshold == pytest.approx(
            _weighted_threshold(law, stream, num, theta, 1 - 1e-3), rel=1e-12, abs=1e-12
        )
        log_beta, ci_rel = _written_out(law, stream, num, theta, est.threshold)
        assert abs(est.log_beta - log_beta) <= 1e-12
        assert est.ci_rel == pytest.approx(ci_rel, rel=1e-12)

    @pytest.mark.parametrize("gains,n", LAWS)
    def test_reads_do_not_depend_on_their_order(self, gains, n):
        law = LawParams(n, np.asarray(gains, float))
        sample = _one_sample(law, 1e-3 / 2, SeededRng(22, 0), 20_000)
        levels = [1 - 1e-3 + 1e-3 / k for k in (2, 4, 8, 16)]
        thresholds = sample.thresholds(levels)
        forward = [sample.beta(*read) for read in zip(levels, thresholds)]
        backward = [sample.beta(*read) for read in reversed(list(zip(levels, thresholds)))]
        assert forward == backward[::-1]

    def test_other_taus_agree_with_samples_of_their_own(self):
        # 12 comparisons (4 laws, 3 tau each): the family-wise 95% band
        # (Bonferroni, z = 2.87) of the difference of two independent
        # estimates, each with its relative 95% half-width ci_rel
        z_ratio = 2.87 / 1.96
        eps, num = 1e-3, 100_000
        levels = [1 - eps + eps / k for k in (2, 4, 8, 16)]
        for seed, (gains, n) in enumerate(self.LAWS):
            law = LawParams(n, np.asarray(gains, float))
            shared = _one_sample(law, eps / 2, SeededRng(seed, 1), num)
            thresholds = shared.thresholds(levels)
            for i, (level, threshold) in enumerate(zip(levels[1:], thresholds[1:])):
                est = shared.beta(level, threshold)
                # a sample tilted to this threshold itself
                theta = law.solve_tilt(threshold)
                draws = law.sample(SeededRng(seed, 2 + i).generator(), num, theta)
                own = TiltedSample(law, theta, draws).beta(level, threshold)
                assert abs(est.log_beta - own.log_beta) <= z_ratio * math.hypot(est.ci_rel, own.ci_rel)
                # no weight above the lowest threshold is large: the CI
                # hardly grows over that of the sample's own threshold
                assert est.ci_rel <= 1.1 * own.ci_rel
