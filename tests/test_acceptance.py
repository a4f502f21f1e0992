"""Acceptance gate: every criterion below prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from ambc_fbl.asymptotics import capacity, dispersion
from ambc_fbl.bounds_ach import achievability_beta, achievability_rate, sample_info_density
from ambc_fbl.bounds_conv import converse_rate, np_beta_converse, sample_converse_density
from ambc_fbl.channel import EigenSpectrum, Fading, composite, draw_channel, eigen_spectrum
from ambc_fbl.cli import ExperimentConfig, emit_csv, run_sweep
from ambc_fbl.numerics import SeededRng, empirical_quantile, gaussian_q_inv
from ambc_fbl.power import PowerAllocation, waterfill
from ambc_fbl.tag import TagErrorModel, eps_given_tag_error, tag_error_given_eps
from ambc_fbl.tail import LawParams, TiltedSample, tilted_at_thresholds
from oracles import product_gamma_pdf, simulate_tag_error, verify_sigma_maximizer

EPS = 1e-3
POWER = 1.0  # 0 dB


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _draw_mixture_stats(fading, n_draws, seed):
    """Mean capacity plus the dispersion backoff scale, averaged over draws."""
    root = SeededRng(seed)
    caps, backoffs = [], []
    for k in range(n_draws):
        ch = draw_channel(root.split(k), 2, 3, fading, 0.5)
        per_d = []
        for d in (-1, +1):
            spec = eigen_spectrum(composite(ch, d))
            alloc = waterfill(spec, POWER)
            per_d.append((capacity(spec, alloc), dispersion(spec, alloc)))
        caps.append(0.5 * (per_d[0][0] + per_d[1][0]))
        backoffs.append(0.5 * (math.sqrt(per_d[0][1]) + math.sqrt(per_d[1][1])))
    return np.array(caps), np.array(backoffs)


class TestCriterion1CapacityRayleigh:
    def test_mean_capacity(self):
        start = time.monotonic()
        caps, _ = _draw_mixture_stats(Fading.rayleigh(), 1000, seed=101)
        elapsed = time.monotonic() - start
        mean_bits = caps.mean() / math.log(2)
        ok = abs(mean_bits - 1.83) <= 0.1 and elapsed <= 60
        _report(
            "criterion 1 (Rayleigh mean capacity 1.83 +- 0.1 bits)",
            ok,
            f"measured {mean_bits:.3f} bits over 1000 draws in {elapsed:.1f}s",
        )
        assert elapsed <= 60
        assert abs(mean_bits - 1.83) <= 0.1


class TestCriterion2CapacityRician:
    def test_mean_capacity(self):
        start = time.monotonic()
        caps, _ = _draw_mixture_stats(Fading.rician(10.0), 1000, seed=102)
        elapsed = time.monotonic() - start
        mean_bits = caps.mean() / math.log(2)
        ok = abs(mean_bits - 2.09) <= 0.1 and elapsed <= 60
        _report(
            "criterion 2 (Rician mean capacity 2.09 +- 0.1 bits)",
            ok,
            f"measured {mean_bits:.3f} bits over 1000 draws in {elapsed:.1f}s",
        )
        assert elapsed <= 60
        assert abs(mean_bits - 2.09) <= 0.1


class TestCriterion3NinetyPercentBlocklength:
    @pytest.mark.parametrize(
        "fading,window,label",
        [
            (Fading.rayleigh(), (200, 400), "Rayleigh"),
            (Fading.rician(10.0), (100, 300), "Rician"),
        ],
    )
    def test_crossing_blocklength(self, fading, window, label):
        caps, backoffs = _draw_mixture_stats(fading, 1000, seed=103)
        c_bar = caps.mean()
        z_bar = backoffs.mean() * gaussian_q_inv(EPS)
        # mean normal approximation crosses 0.9 * mean capacity at
        # n* = (z / (0.1 C))^2
        n_star = (z_bar / (0.1 * c_bar)) ** 2
        ok = window[0] <= n_star <= window[1]
        _report(
            f"criterion 3 ({label} 90%-capacity blocklength in {window})",
            ok,
            f"crossing at n = {n_star:.0f}",
        )
        assert ok


class TestCriterion4Sandwich:
    def test_bounds_order_and_normal_approx_between(self):
        n_grid = (100, 200, 500, 1000, 2000)
        order_ok = 0
        order_total = 0
        na_between = 0
        na_total = 0
        root = SeededRng(104)
        for k in range(20):
            ch = draw_channel(root.split(k), 2, 3, Fading.rayleigh(), 0.5)
            spec_p = eigen_spectrum(composite(ch, +1))
            spec_m = eigen_spectrum(composite(ch, -1))
            na_parts = []
            for spec in (spec_m, spec_p):
                alloc = waterfill(spec, POWER)
                na_parts.append((capacity(spec, alloc), dispersion(spec, alloc)))
            for n in n_grid:
                ach = achievability_rate(
                    n, spec_p, spec_m, POWER, EPS, root.split(k).split(2 * n), 100_000
                )
                conv = converse_rate(
                    n, spec_p, spec_m, POWER, EPS, root.split(k).split(2 * n + 1), 100_000
                )
                slack = ach.ci_rate_bits + conv.ci_rate_bits
                order_total += 1
                if ach.rate_bits <= conv.rate_bits + slack:
                    order_ok += 1
                if n >= 300:
                    na = 0.5 * sum(
                        c - math.sqrt(v / n) * gaussian_q_inv(EPS) for c, v in na_parts
                    ) / math.log(2)
                    na_total += 1
                    if ach.rate_bits - slack <= na <= conv.rate_bits + slack:
                        na_between += 1
        frac = na_between / na_total
        ok = order_ok == order_total and frac >= 0.8
        _report(
            "criterion 4 (achievability <= converse, normal approx between)",
            ok,
            f"order {order_ok}/{order_total}, normal approx between in {100 * frac:.0f}% "
            f"of n >= 300 cases",
        )
        assert order_ok == order_total
        assert frac >= 0.8


def _oracle_laws(gamma):
    c = math.log1p(gamma) + 1.0
    law_h = stats.ncx2(2, 2 / gamma)
    law_g = stats.ncx2(2, 2 * (1 + gamma) / gamma)
    scale_h = gamma / (2 * (1 + gamma))
    scale_g = gamma / 2
    return c, law_h, scale_h, law_g, scale_g


class TestCriterion5BetaOracles:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 4.0])
    def test_achievability_estimator(self, gamma):
        n, eps, tau, num = 1, 0.1, 0.025, 200_000
        g = EigenSpectrum(g=np.array([gamma]), d=1)
        p = PowerAllocation(p=np.array([1.0]), water_level=2.0, total_power=1.0)
        h_draws = sample_info_density(LawParams(n, g.g * p.p), SeededRng(105, 2), num)
        lowest = empirical_quantile(h_draws, 1 - eps + tau)
        tilted = TiltedSample(LawParams(n, g.g * p.p), SeededRng(105, 3), num, lowest)
        est = achievability_beta(eps, tau, tilted, lowest)

        c, law_h, scale_h, law_g, scale_g = _oracle_laws(gamma)
        gamma_n = c - scale_h * law_h.ppf(1 - eps + tau)
        beta_oracle = law_g.cdf((c - gamma_n) / scale_g)
        # MC error of the estimate plus the propagated threshold error
        se_beta = math.sqrt(beta_oracle * (1 - beta_oracle) / num)
        dens_h = scale_h * law_h.pdf((c - gamma_n) / scale_h) / scale_h
        dens_g = law_g.pdf((c - gamma_n) / scale_g) / scale_g
        level = 1 - eps + tau
        se_thr = dens_g * math.sqrt(level * (1 - level) / num) / max(dens_h / scale_h, 1e-12)
        se = math.hypot(se_beta, se_thr)
        ok = abs(est.beta - beta_oracle) <= 3 * se
        _report(
            f"criterion 5a (achievability beta oracle, g*p={gamma})",
            ok,
            f"estimate {est.beta:.5f}, oracle {beta_oracle:.5f}, 3se {3 * se:.5f}",
        )
        assert ok

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 4.0])
    def test_converse_estimator(self, gamma):
        n, eps, num = 1, 0.1, 200_000
        g = EigenSpectrum(g=np.array([gamma]), d=1)
        p = PowerAllocation(p=np.array([1.0]), water_level=2.0, total_power=1.0)
        law = LawParams(n, g.g * p.p)
        draws = sample_converse_density(law, SeededRng(106, 1), num)
        (eta,), tilted = tilted_at_thresholds(law, draws, [1 - eps], SeededRng(106, 2))
        est = np_beta_converse(eps, tilted, eta)

        c, law_h, scale_h, law_g, scale_g = _oracle_laws(gamma)
        eta = c - scale_h * law_h.ppf(1 - eps)
        beta_oracle = law_g.cdf((c - eta) / scale_g)
        se_beta = math.sqrt(beta_oracle * (1 - beta_oracle) / num)
        dens_h = law_h.pdf((c - eta) / scale_h) / scale_h
        dens_g = law_g.pdf((c - eta) / scale_g) / scale_g
        se_thr = dens_g * math.sqrt(eps * (1 - eps) / num) / max(dens_h, 1e-12)
        se = math.hypot(se_beta, se_thr)
        ok = abs(est.beta - beta_oracle) <= 3 * se
        _report(
            f"criterion 5b (converse beta oracle, g*p={gamma})",
            ok,
            f"estimate {est.beta:.5f}, oracle {beta_oracle:.5f}, 3se {3 * se:.5f}",
        )
        assert ok


class TestCriterion6IdentitySuite:
    def test_dispersion_identity(self):
        rng = np.random.default_rng(107)
        worst = 0.0
        for _ in range(10_000):
            m = int(rng.integers(1, 5))
            y = rng.uniform(0, 10, m) * rng.uniform(0, 3, m)
            first = float((y * (y + 2) / (1 + y) ** 2).sum())
            second = float(m - (1 / (1 + y) ** 2).sum())
            worst = max(worst, abs(first - second) / max(1.0, abs(first)))
        ok = worst <= 1e-12
        _report("criterion 6a (dispersion two-form identity)", ok, f"worst {worst:.2e}")
        assert ok

    def test_waterfilling_feasibility_and_slackness(self):
        rng = np.random.default_rng(108)
        worst = 0.0
        ok = True
        for _ in range(10_000):
            m = int(rng.integers(1, 6))
            g = rng.uniform(1e-3, 30, m)
            total = float(rng.uniform(0.01, 30))
            alloc = waterfill(g, total)
            worst = max(worst, abs(alloc.p.sum() - total))
            active = alloc.p > 0
            ok &= bool(
                np.all(np.abs(alloc.p[active] - (alloc.water_level - 1 / g[active])) <= 1e-9)
            )
            ok &= bool(np.all(alloc.water_level <= 1 / g[~active] + 1e-12))
        ok = ok and worst <= 1e-9
        _report("criterion 6b (waterfilling on 1e4 instances)", ok, f"worst budget gap {worst:.1e}")
        assert ok

    def test_reference_variance_critical_point(self):
        rng = np.random.default_rng(109)
        worst = 0.0
        for _ in range(100):
            g = float(rng.uniform(0.05, 10))
            p = float(rng.uniform(0.05, 3))
            worst = max(worst, abs(verify_sigma_maximizer(g, p) - (1 + g * p)))
        ok = worst <= 1e-6
        _report("criterion 6c (variance critical point = 1 + g p)", ok, f"worst {worst:.1e}")
        assert ok

    def test_tag_affine_round_trip(self):
        gen = np.random.default_rng(110)
        worst = 0.0
        for _ in range(50):
            h0 = (gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))) / math.sqrt(2)
            h1 = (gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))) / math.sqrt(2)
            model = TagErrorModel.from_channels(h0, h1)
            eps = float(gen.uniform(0.01, 0.99))
            back = eps_given_tag_error(model, tag_error_given_eps(model, eps))
            worst = max(worst, abs(back - eps))
        ok = worst <= 1e-12
        _report("criterion 6d (tag coupling round trip)", ok, f"worst {worst:.1e}")
        assert ok

    def test_beta_of_identical_laws_is_the_level(self):
        # the output law's own level-L quantile (one mode, from the scipy
        # ncx2 ppf) as the threshold: beta is L, read untilted at L = 0.92,
        # below the law's mean, and tilted at L = 0.3, above it
        n, gamma, num = 20, 1.0, 100_000
        law = LawParams(n, np.array([gamma]))
        gaps = []
        for eps, tau in ((0.1, 0.02), (0.8, 0.1)):
            level = 1 - eps + tau
            x = n * (math.log1p(gamma) + 1) - gamma / 2 * stats.ncx2.ppf(
                level, 2 * n, 2 * n * (1 + gamma) / gamma
            )
            tilted = TiltedSample(law, SeededRng(111, 3), num, x)
            est = achievability_beta(eps, tau, tilted, x)
            gaps.append((tilted.theta, abs(est.beta - level)))
        ok = gaps[0][0] == 0.0 < gaps[1][0] and max(gap for _, gap in gaps) <= 2 / math.sqrt(num)
        _report(
            "criterion 6e (beta at the output law's own quantile equals the level)",
            ok,
            ", ".join(f"theta {theta:.3f} gap {gap:.2e}" for theta, gap in gaps),
        )
        assert ok

        eps = 0.1
        (eta,), tilted = tilted_at_thresholds(
            LawParams(20, np.zeros(1)), np.zeros(num), [1 - eps], SeededRng(111, 4)
        )
        degenerate = np_beta_converse(eps, tilted, eta)
        gap2 = abs(degenerate.beta - (1 - eps))
        ok2 = gap2 <= 2 / math.sqrt(num)
        _report("criterion 6f (degenerate converse beta equals its level)", ok2, f"gap {gap2:.2e}")
        assert ok2


class TestCriterion7ProductGammaPdf:
    def test_histogram_normalization_and_reduction(self):
        gen = np.random.default_rng(412)
        n_mc = 10**6
        products = gen.gamma(3.0, 1.0, n_mc) * gen.gamma(3.0, 1.0, n_mc)
        width = 0.05
        edges = np.arange(1.0, 12.0 + width, width)
        counts, _ = np.histogram(products, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        worst_z = 0.0
        for count, center in zip(counts, centers):
            p_bin = count / n_mc
            se = math.sqrt(max(p_bin * (1 - p_bin), 1e-12) / n_mc)
            pdf_val = product_gamma_pdf(float(center), 2, 3, 1.0)
            z = abs(pdf_val * width - p_bin) / (se if se > 0 else 1.0)
            worst_z = max(worst_z, z)
        hist_ok = worst_z <= 3.0

        zs = np.linspace(1e-4, 80, 2001)
        pdf = np.array([product_gamma_pdf(float(z), 2, 3, 1.0) for z in zs])
        mass = float(np.trapezoid(pdf, zs))
        mass_ok = abs(mass - 1.0) <= 1e-3

        rel = abs(
            product_gamma_pdf(8.0, 1, 8, 1.0) / stats.gamma.pdf(8.0, a=8, scale=1.0) - 1.0
        )
        gamma_ok = rel <= 1e-6

        ok = hist_ok and mass_ok and gamma_ok
        _report(
            "criterion 7 (product-gamma density vs MC histogram, mass, reduction)",
            ok,
            f"worst bin z {worst_z:.2f}, mass {mass:.6f}, single-factor rel err {rel:.1e}",
        )
        assert hist_ok
        assert mass_ok
        assert gamma_ok


class TestCriterion8Determinism:
    def test_byte_identical_sweeps(self, tmp_path):
        config = ExperimentConfig.from_dict(
            dict(
                t=2,
                r=3,
                fading="rayleigh",
                a_coeff=0.5,
                snr_db=0.0,
                eps=1e-3,
                n_grid=[16, 32],
                mc_samples=2000,
                channel_draws=3,
                seed=113,
            )
        )
        blobs = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            emit_csv(run_sweep(config), path)
            blobs.append(path.read_bytes())
        ok = blobs[0] == blobs[1]
        _report("criterion 8 (byte-identical repeated sweeps)", ok, f"{len(blobs[0])} bytes")
        assert ok


class TestCriterion9MrcSimulation:
    def test_simulation_matches_analytic(self):
        gen = np.random.default_rng(114)
        trials = 100_000
        worst = 0.0
        ok = True
        for k in range(20):
            h0 = (gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))) / math.sqrt(2)
            h1 = 0.5 * (gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))) / math.sqrt(2)
            model = TagErrorModel.from_channels(h0, h1)
            eps = 0.05
            emp = simulate_tag_error(model, eps, SeededRng(315, k), trials)
            ana = tag_error_given_eps(model, eps)
            se = math.sqrt(max(ana * (1 - ana), 1e-12) / trials)
            z = abs(emp - ana) / se
            worst = max(worst, z)
            ok &= z <= 3.0
        _report("criterion 9 (MRC simulation vs analytic tag error)", ok, f"worst z {worst:.2f}")
        assert ok
