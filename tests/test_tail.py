"""The tail engine's one law and its tilt solve, and the shared pool:
``tail.run_calls`` and the bounds that split their two tag symbols over it."""

import math
import sys
import threading
import time
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize, stats

from ambc_fbl import bounds_ach, bounds_conv, tail
from ambc_fbl.bounds_ach import achievability_rate
from ambc_fbl.bounds_conv import converse_rate
from ambc_fbl.channel import Fading, composite, draw_channel, eigen_spectrum
from ambc_fbl.cli import ExperimentConfig, run_sweep
from ambc_fbl.errors import ConvergenceError
from ambc_fbl.numerics import SeededRng, gaussian_q
from ambc_fbl.power import waterfill
from ambc_fbl.tail import LawParams, TiltedSample, mode_gammas, run_calls

_NS = (8, 100, 2000, 20_000)


def _laws(m):
    """Output laws with ``m`` modes of random received SNR, one per n."""
    rng = np.random.default_rng(11 + m)
    for n in _NS:
        yield LawParams(n, rng.exponential(2.0, m) * 10 ** rng.uniform(-1, 1.5))


class TestOneLaw:
    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_derivatives_match_finite_differences_of_the_cgf(self, m, theta):
        # a factor-2 slip in the n term of K'' moves K'' by a third or more
        for law in _laws(m):
            mean, var = law.cgf_derivatives(theta)
            # steps that balance rounding against truncation, in units of
            # the tilt scale 1 / max(s)
            h = 1e-5 / law.scale.max()
            slope = (law.cgf(theta + h) - law.cgf(theta - h)) / (2 * h)
            assert mean == pytest.approx(slope, rel=1e-8, abs=1e-8 * law.n)
            h = 1e-3 / law.scale.max()
            k = [law.cgf(theta + j * h) for j in (-1, 0, 1)]
            assert var == pytest.approx((k[2] - 2 * k[1] + k[0]) / h**2, rel=1e-4)

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_conditional_law_is_the_tilt_by_one(self, m):
        for law in _laws(m):
            assert abs(law.cgf(1.0)) <= 1e-12 * law.n * m
            y = law.gammas
            lam, scale = law.tilt(1.0)
            np.testing.assert_allclose(lam, 2 * law.n / y, rtol=1e-15, atol=0)
            np.testing.assert_allclose(scale, y / (2 * (1 + y)), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kind", ["output", "conditional"])
    def test_law_without_active_modes_samples_zeros(self, kind):
        if kind == "output":
            draws = LawParams(16, np.zeros(2)).sample(SeededRng(3).generator(), 1000, 0.0)
        else:
            draws = LawParams(16, np.zeros(2)).sample(SeededRng(3).generator(), 1000, 1.0)
        assert np.array_equal(draws, np.zeros(1000))


class TestSolveTilt:
    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_matches_brentq(self, m):
        for law in _laws(m):
            mean, sup = law.cgf_derivatives(0.0)[0], float(law.const.sum())

            def excess(u):
                return law.cgf_derivatives(u)[0] - target

            for frac in (0.1, 0.6, 0.99):
                target = mean + frac * (sup - mean)
                hi = 1.0
                while excess(hi) < 0:
                    hi *= 2.0
                theta = law.solve_tilt(target)
                oracle = optimize.brentq(excess, 0.0, hi, xtol=1e-14)
                assert theta > 0.0
                assert abs(theta - oracle) <= 1e-11 * (1 + abs(theta))

                # at or below the mean one Newton step from theta = 0 would
                # return a wrong theta <= 0
                target = mean - frac * abs(mean) * 0.1
                for below in (mean, target):
                    with pytest.raises(ValueError, match="at or below the mean"):
                        law.solve_tilt(below)

    def test_nan_raises(self):
        law = LawParams(100, np.array([1.0, 0.5]))
        with pytest.raises(ConvergenceError, match="NaN"):
            law.solve_tilt(math.nan)

    def test_target_at_the_supremum_raises(self):
        law = LawParams(100, np.array([1.0]))
        with pytest.raises(ValueError, match="supremum"):
            law.solve_tilt(float(law.const.sum()))


class TestTiltedDraw:
    """``LawParams.sample`` draws each mode's W ~ ncx2(2n, lam) as
    chi2(2n - 1) + (Z + sqrt(lam))^2, one gamma draw."""

    @pytest.mark.parametrize("n", [1, 8, 2000])
    @pytest.mark.parametrize("y", [0.01, 1.0, 100.0])
    def test_matches_the_noncentral_chi_square(self, n, y):
        # one mode: the output law (theta = 0) has lam = 2n(1+y)/y, and the
        # conditional law (theta = 1) lam = 2n/y; W = (c - X) / s
        law = LawParams(n, np.array([y]))
        for theta in (0.0, 1.0):
            lam, scale = law.tilt(theta)
            x = law.sample(SeededRng(23).generator(), 20_000, theta)
            w = (law.const[0] - x) / scale[0]
            # 18 tests at a fixed seed: a family-wise 1 % level
            assert stats.kstest(w, stats.ncx2(2 * n, lam[0]).cdf).pvalue > 0.01 / 18

    @pytest.mark.parametrize("n", [1, 8, 2000])
    @pytest.mark.parametrize("y", [0.01, 1.0, 100.0])
    def test_tilted_mean_sits_at_the_lowest_threshold(self, n, y):
        # the pilot, the normal approximation of the lowest threshold, at
        # the lower-tail level whose pilot lies halfway from the output to
        # the conditional mean, or five standard deviations below the latter
        law = LawParams(n, np.array([y]))
        out_mean = law.cgf_derivatives(0.0)[0]
        mean, var = law.cgf_derivatives(1.0)
        lowest = max(0.5 * (out_mean + mean), mean - 5.0 * math.sqrt(var))
        theta = law.pilot_tilt(gaussian_q((mean - lowest) / math.sqrt(var)))
        assert 0.0 < theta < 1.0
        num = 20_000
        draws = law.sample(SeededRng(24).generator(), num, theta)
        sd = math.sqrt(law.cgf_derivatives(theta)[1])
        assert abs(draws.mean() - lowest) <= 4.0 * sd / math.sqrt(num)


class TestSortedReads:
    def test_untilted_read_is_the_accepted_fraction(self):
        # at theta = 0 every weight is 1, and beta is the fraction k / N of
        # draws at or above the threshold
        law = LawParams(100, np.array([1.0, 0.5]))
        mean, var = law.cgf_derivatives(0.0)
        num = 20_000
        draws = np.sort(law.sample(SeededRng(25).generator(), num, 0.0))
        # handed over in descending order: the sample sorts its draws
        # itself, in place, so it gets a copy
        sample = TiltedSample(law, 0.0, draws[::-1].copy())
        # the k-th largest draw, for the first k from N / 4 with exp(log(k / N)) != k / N
        k = next(k for k in range(num // 4, num) if math.exp(math.log(k / num)) != k / num)
        for threshold in (mean - math.sqrt(var), mean, draws[num - k]):
            est = sample.beta(0.5, threshold)
            p = int((draws >= threshold).sum()) / num
            assert not est.tilted
            assert est.beta == p and est.log_beta == math.log(p)
            assert est.ci_rel == pytest.approx(1.96 * math.sqrt((1 - p) / (p * num)), rel=1e-12)


_CLAMP_NUM = 100_000


def _conditional_threshold(n, y, level):
    """The one-mode conditional law's threshold x with P[X >= x] = ``level``,
    x = c - s W for W ~ ncx2(2n, 2n / y), and the standard error of a plain
    sample quantile of ``_CLAMP_NUM`` draws at it."""
    c, s, lam = n * (math.log1p(y) + 1), y / (2 * (1 + y)), 2 * n / y
    w = stats.ncx2.isf(1 - level, 2 * n, lam)
    se = math.sqrt(level * (1 - level) / _CLAMP_NUM) * s / stats.ncx2.pdf(w, 2 * n, lam)
    return c - s * w, se


class TestPilotClamps:
    """A bound's sample, tilted by the pilot of its lowest lower-tail level
    (eps / 2 for the achievability, eps for the converse), at the two clamps
    of the pilot tilt: its weighted thresholds lie within 3 standard errors
    of a plain sample quantile of the exact ones."""

    @staticmethod
    def _check(n, y, pilot, levels, theta):
        law = LawParams(n, np.array([y]))
        assert law.pilot_tilt(pilot) == theta
        draws = law.sample(SeededRng(26).generator(), _CLAMP_NUM, theta)
        for level, x in zip(levels, TiltedSample(law, theta, draws).thresholds(levels)):
            exact, se = _conditional_threshold(n, y, level)
            assert abs(x - exact) <= 3 * se

    def test_pilot_below_the_output_mean_samples_the_output_law(self):
        # at n = 8, y = 0.1 the conditional law's eps / 2 and eps quantiles
        # lie below the output law's mean
        eps = 1e-3
        self._check(8, 0.1, eps / 2, [1 - eps + eps / k for k in (2, 4, 8, 16)], 0.0)
        self._check(8, 0.1, eps, [1 - eps], 0.0)

    def test_level_above_a_half_samples_the_conditional_law(self):
        # the converse's pilot at eps = 0.7 lies above the conditional mean
        self._check(100, 1.0, 0.7, [0.3], 1.0)

    def test_law_without_active_modes_gives_the_level(self):
        law = LawParams(8, np.zeros(2))
        theta = law.pilot_tilt(1e-3)
        draws = law.sample(SeededRng(27).generator(), 2000, theta)
        sample = TiltedSample(law, theta, draws)
        (eta,) = sample.thresholds([1 - 1e-3])
        est = sample.beta(1 - 1e-3, eta)
        assert est.beta == 1 - 1e-3 and not est.tilted


class TestBenchmarkPointAccuracy:
    """The benchmark's point channel, the first draw of
    ``configs/rician_k10_0db.json``, has one active mode per tag symbol, so
    both bounds have exact rates from scipy's noncentral chi-square."""

    N = 100
    SEEDS = range(16)

    @staticmethod
    def _exact_rate(n, spec, total_power, eps):
        """(achievability, converse) of one tag symbol in nats: the
        thresholds from ``ncx2.isf`` under the conditional law, log beta
        from ``ncx2.logcdf`` under the output law, and the library's
        constants."""
        p = waterfill(spec, total_power)
        gammas = mode_gammas(spec, p)
        (y,) = gammas[gammas > 0]
        c, s1, s0 = n * (math.log1p(y) + 1), y / (2 * (1 + y)), y / 2

        def log_beta(lower):
            x = c - s1 * stats.ncx2.isf(lower, 2 * n, 2 * n / y)
            return stats.ncx2.logcdf((c - x) / s0, 2 * n, 2 * n * (1 + y) / y)

        c1 = bounds_ach.compute_c1(n, y)
        ach = max(
            (math.log(bounds_ach.kappa_tau(tau, c1)) - log_beta(eps - tau)) / n
            for tau in (eps / 2, eps / 4, eps / 8, eps / 16)
        )
        conv = (bounds_conv.converse_constants(n, spec, p, total_power) - log_beta(eps)) / n
        return ach, conv

    def test_seed_means_within_three_standard_errors_and_spread_below_a_millibit(self):
        config = Path(__file__).resolve().parents[1] / "configs" / "rician_k10_0db.json"
        cfg = ExperimentConfig.from_json_file(config)
        ch = draw_channel(SeededRng(cfg.seed).split(0), cfg.t, cfg.r, cfg.fading_spec, cfg.a_coeff)
        sp, sm = eigen_spectrum(composite(ch, +1)), eigen_spectrum(composite(ch, -1))
        n, eps, power = self.N, cfg.eps, cfg.total_power
        per_d = [self._exact_rate(n, spec, power, eps) for spec in (sm, sp)]
        exact = [0.5 * (a + b) / math.log(2) for a, b in zip(*per_d)]
        # the benchmark's split: stream 2n for the achievability, 2n + 1
        # for the converse, of each MC seed
        rates = np.array([
            (
                achievability_rate(n, sp, sm, power, eps, mc.split(2 * n), cfg.mc_samples).rate_bits,
                converse_rate(n, sp, sm, power, eps, mc.split(2 * n + 1), cfg.mc_samples).rate_bits,
            )
            for mc in map(SeededRng, self.SEEDS)
        ])
        for side, rate in zip(rates.T, exact):
            sd = side.std(ddof=1)
            assert abs(side.mean() - rate) <= 3 * sd / math.sqrt(side.size)
            assert sd <= 0.001


class _Leaves:
    """Calls that sleep briefly and count how many of them run at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.active = 0
        self.most = 0
        self.started = []

    def __call__(self, value, delay=0.01):
        with self.lock:
            self.active += 1
            self.most = max(self.most, self.active)
            self.started.append(value)
        time.sleep(delay)
        with self.lock:
            self.active -= 1
        return value


class TestRunCalls:
    def test_results_come_back_in_list_order(self, pin_cpus):
        pin_cpus(3)
        leaves = _Leaves()
        # later calls finish first
        calls = [partial(leaves, i, 0.002 * (8 - i)) for i in range(8)]
        assert run_calls(calls) == list(range(8))
        assert sorted(leaves.started) == list(range(8))

    def test_first_failure_in_list_order_is_raised_and_stops_later_calls(self, pin_cpus):
        pin_cpus(2)
        leaves = _Leaves()
        failed = threading.Event()
        after_failure = []

        def fail(i, delay):
            time.sleep(delay)
            failed.set()
            raise ValueError(f"call {i} failed")

        def call(i):
            if failed.is_set():
                after_failure.append(i)
            return leaves(i)

        calls = [partial(call, i) for i in range(12)]
        calls[3] = partial(fail, 3, 0.0)
        with pytest.raises(ValueError, match="call 3 failed"):
            run_calls(calls)
        assert all(i < 3 for i in after_failure)
        assert len(leaves.started) < 11

        # a later call that fails sooner does not mask an earlier failure
        failed.clear()
        with pytest.raises(ValueError, match="call 0 failed"):
            run_calls([partial(fail, 0, 0.05), partial(fail, 1, 0.0)])

    def test_one_cpu_runs_every_call_inline_without_a_pool(self, pin_cpus):
        pin_cpus(1)
        threads = run_calls([threading.get_ident] * 4)
        assert threads == [threading.get_ident()] * 4
        assert tail._POOL is None

    def test_nested_calls_finish_with_one_computing_thread_per_cpu(self, pin_cpus):
        # more workers than cores and a short switch interval: a lost update
        # of the stop index or a wait on queued work would show here
        pin_cpus(4)
        leaves = _Leaves()

        def outer(i):
            return run_calls([partial(leaves, (i, j), 0.001) for j in range(3)])

        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=lambda: out.append(run_calls(
                [partial(outer, i) for i in range(16)])), daemon=True)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert out == [[[(i, j) for j in range(3)] for i in range(16)]]
        assert len(leaves.started) == len(set(leaves.started)) == 48
        assert 1 <= leaves.most <= 4

    def test_sweep_runs_at_most_one_leaf_per_cpu(self, pin_cpus, monkeypatch):
        pin_cpus(2)
        leaves = _Leaves()

        def leaf(n, symbol, draws, *rest):
            leaves((n, symbol.g.d), 0.01)
            return SimpleNamespace(rate_nats=1.0, ci_rate_bits=0.0)

        monkeypatch.setattr(bounds_ach, "_fixed_d_rate", leaf)
        monkeypatch.setattr(bounds_conv, "_fixed_d_rate", leaf)
        cfg = ExperimentConfig(
            t=2, r=3, fading="rayleigh", a_coeff=0.5, snr_db=0.0, eps=1e-3,
            n_grid=[16, 32], mc_samples=2000, channel_draws=3, seed=5,
        )
        run_sweep(cfg)
        # 3 draws x 2 blocklengths x 2 bounds x 2 tag symbols
        assert len(leaves.started) == 24
        assert leaves.most == 2


class TestSymbolsAtOnce:
    """Both bounds evaluate their two tag symbols through ``run_calls``."""

    @staticmethod
    def _spectra():
        # both tag symbols have two active modes at P = 1
        ch = draw_channel(SeededRng(12), 2, 3, Fading.rayleigh(), 0.5)
        spectra = eigen_spectrum(composite(ch, +1)), eigen_spectrum(composite(ch, -1))
        assert all((waterfill(s, 1.0).p > 0).sum() == 2 for s in spectra)
        return spectra

    @pytest.mark.parametrize("bound", [achievability_rate, converse_rate])
    def test_per_symbol_results_do_not_depend_on_the_cpu_count(self, bound, pin_cpus):
        sp, sm = self._spectra()
        results = []
        for cpus in (1, 2):
            pin_cpus(cpus)
            results.append(bound(100, sp, sm, 1.0, 1e-3, SeededRng(7), 20_000))
        one, two = results
        # rates, tau, kappa, K and every BetaEstimate field, bit for bit
        assert one.per_d == two.per_d
        assert [sub.d for sub in two.per_d] == [-1, 1]
        assert (one.rate_bits, one.ci_rate_bits) == (two.rate_bits, two.ci_rate_bits)

    def test_cold_converse_searches_k1_once(self, pin_cpus, monkeypatch):
        sp, sm = self._spectra()
        calls = []
        pdf = bounds_conv.product_gamma_logpdf

        def counted(*args):
            calls.append(args)
            return pdf(*args)

        monkeypatch.setattr(bounds_conv, "product_gamma_logpdf", counted)
        counts = []
        for cpus in (1, 2):
            pin_cpus(cpus)
            bounds_conv._unit_scale_log_sup.cache_clear()
            calls.clear()
            converse_rate(300, sp, sm, 1.0, 1e-3, SeededRng(7), 2000)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def _spectra_with_modes(seed, total_power):
    """The two tag symbols' spectra of a 2 x 3 Rayleigh draw, and their
    active-mode counts (d = -1, d = +1) at ``total_power``."""
    ch = draw_channel(SeededRng(seed), 2, 3, Fading.rayleigh(), 0.5)
    sp, sm = eigen_spectrum(composite(ch, +1)), eigen_spectrum(composite(ch, -1))
    return sp, sm, [int((waterfill(s, total_power).p > 0).sum()) for s in (sm, sp)]


# (seed, total power, active modes of d = -1 and d = +1): unequal, then equal counts
_MODE_COUNTS = [(5, 0.3, [1, 2]), (12, 1.0, [2, 2])]
# each bound's module, the lower-tail level of its pilot and the arguments
# of its per-symbol step after the draws
_BOUNDS = {
    "achievability": (
        bounds_ach, achievability_rate, lambda eps: eps / 2, lambda power, eps: (eps,)
    ),
    "converse": (bounds_conv, converse_rate, lambda eps: eps, lambda power, eps: (power, eps)),
}


class TestOneRawDraw:
    """Each bound call draws its variates once, for both tag symbols, and
    each symbol reads exactly the draws of its own sample on the stream."""

    @pytest.mark.parametrize("seed,total_power,modes", _MODE_COUNTS)
    @pytest.mark.parametrize("name", sorted(_BOUNDS))
    def test_symbol_bounds_equal_their_own_samples(self, name, seed, total_power, modes, pin_cpus):
        module, bound, pilot_level, step_args = _BOUNDS[name]
        sp, sm, counts = _spectra_with_modes(seed, total_power)
        assert counts == modes
        pin_cpus(2)
        n, eps, num, rng = 100, 1e-3, 20_000, SeededRng(31)
        res = bound(n, sp, sm, total_power, eps, rng, num)
        for g, sub in zip((sm, sp), res.per_d):
            # the per-symbol sample of the previous layout: the symbol's own
            # law, drawn alone on rng.split(0), then sorted and read
            p = waterfill(g, total_power)
            law = LawParams(n, mode_gammas(g, p))
            theta = law.pilot_tilt(pilot_level(eps))
            draws = law.sample(rng.split(0).generator(), num, theta)
            symbol = tail.SymbolLaw(g, p, law, theta)
            assert sub == module._fixed_d_rate(n, symbol, draws, *step_args(total_power, eps))

    @pytest.mark.parametrize("seed,total_power,modes", _MODE_COUNTS)
    def test_sample_is_the_shared_draw(self, seed, total_power, modes):
        sp, sm, _ = _spectra_with_modes(seed, total_power)
        laws = [LawParams(100, mode_gammas(g, waterfill(g, total_power))) for g in (sm, sp)]
        thetas = [0.3, 0.7]
        outs = [np.empty(5000), np.empty(5000)]
        tail.draw_tilted(SeededRng(32).generator(), laws, thetas, outs)
        for law, theta, out in zip(laws, thetas, outs):
            assert np.array_equal(law.sample(SeededRng(32).generator(), 5000, theta), out)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sample_matches_the_two_draws_per_mode(self, m):
        # the draw written out: per mode, W = (Z + sqrt(lam))^2 + chi2(2n - 1)
        law = next(_laws(m))
        theta = 0.4
        gen = SeededRng(33).generator()
        expected = np.zeros(5000)
        for c, lam, s in zip(law.const, *law.tilt(theta)):
            w = (gen.standard_normal(5000) + math.sqrt(lam)) ** 2
            w += gen.chisquare(2 * law.n - 1, 5000)
            expected += c - s * w
        assert np.array_equal(law.sample(SeededRng(33).generator(), 5000, theta), expected)


class TestKeptArrays:
    """A bound call's arrays of ``num_samples`` floats live in its threads'
    kept arrays, so a warm call allocates none."""

    @pytest.mark.parametrize("name", sorted(_BOUNDS))
    def test_warm_call_allocates_no_sample_sized_array(self, name, pin_cpus):
        _, bound, _, _ = _BOUNDS[name]
        sp, sm, _ = _spectra_with_modes(12, 1.0)
        pin_cpus(1)
        num = 20_000
        bound(100, sp, sm, 1.0, 1e-3, SeededRng(34), num)
        tracemalloc.start()
        try:
            bound(100, sp, sm, 1.0, 1e-3, SeededRng(35), num)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < num * 8

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_concurrent_calls_equal_serial_ones(self, cpus, pin_cpus):
        # two threads on different n, spectra and sample sizes, so each
        # thread's kept arrays (and the pool worker's) change shape between
        # calls; a short switch interval interleaves them
        pin_cpus(cpus)
        jobs = []
        for seed, total_power, num in ((5, 0.3, 20_000), (12, 1.0, 7000)):
            sp, sm, _ = _spectra_with_modes(seed, total_power)
            jobs.append([
                partial(bound, n, sp, sm, total_power, 1e-3, SeededRng(36 + i), num + 1000 * i)
                for i, n in enumerate((100, 1000, 300))
                for bound in (achievability_rate, converse_rate)
            ])
        serial = [[call() for call in calls] for calls in jobs]
        start = threading.Barrier(len(jobs))
        results = [None] * len(jobs)

        def run(k):
            start.wait()
            results[k] = [call() for call in jobs[k]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial
