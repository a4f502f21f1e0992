"""The tail engine's one law and its tilt solve, and the shared pool:
``tail.run_calls`` and the bounds that split their two tag symbols over it."""

import math
import sys
import threading
import time
from functools import partial
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
from ambc_fbl.numerics import SeededRng
from ambc_fbl.power import waterfill
from ambc_fbl.tail import LawParams, TiltedSample, run_calls

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
            draws = bounds_ach.sample_info_density(LawParams(16, np.zeros(2)), SeededRng(3), 1000)
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
        law = LawParams(n, np.array([y]))
        mean, var = law.cgf_derivatives(0.0)
        # halfway to the supremum, or two standard deviations up
        lowest = mean + min(2.0 * math.sqrt(var), 0.5 * (float(law.const.sum()) - mean))
        num = 20_000
        sample = TiltedSample(law, SeededRng(24), num, lowest)
        assert sample.theta > 0.0
        draws = law.sample(SeededRng(24).generator(), num, sample.theta)
        sd = math.sqrt(law.cgf_derivatives(sample.theta)[1])
        assert abs(draws.mean() - lowest) <= 4.0 * sd / math.sqrt(num)


class TestSortedReads:
    def test_untilted_read_is_the_accepted_fraction(self):
        # at or below the output law's mean theta is 0, every weight is 1,
        # and beta is the fraction k / N of draws at or above the threshold
        law = LawParams(100, np.array([1.0, 0.5]))
        mean, var = law.cgf_derivatives(0.0)
        num = 20_000
        sample = TiltedSample(law, SeededRng(25), num, mean - math.sqrt(var))
        assert sample.theta == 0.0
        draws = np.sort(law.sample(SeededRng(25).generator(), num, 0.0))
        # the k-th largest draw, for the first k from N / 4 with exp(log(k / N)) != k / N
        k = next(k for k in range(num // 4, num) if math.exp(math.log(k / num)) != k / num)
        for threshold in (mean - math.sqrt(var), mean, draws[num - k]):
            est = sample.beta(0.5, threshold)
            p = int((draws >= threshold).sum()) / num
            assert not est.tilted
            assert est.beta == p and est.log_beta == math.log(p)
            assert est.ci_rel == pytest.approx(1.96 * math.sqrt((1 - p) / (p * num)), rel=1e-12)


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

        def leaf(n, g, total_power, eps, rng, num_samples):
            leaves((n, g.d), 0.01)
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
