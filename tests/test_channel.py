import math

import numpy as np
import pytest

from ambc_fbl.channel import (
    ChannelRealization,
    CompositePair,
    Fading,
    composite,
    draw_channel,
    eigen_spectrum,
)
from ambc_fbl.numerics import SeededRng


def _draw(seed, t=2, r=3, fading=None, a=0.5):
    fading = fading or Fading.rayleigh()
    return draw_channel(SeededRng(seed), t, r, fading, a)


class TestDrawChannel:
    def test_rayleigh_moments(self):
        ch = _draw(0, t=250, r=400)
        entries = ch.h_sr.ravel()
        n = entries.size
        assert abs(entries.mean()) < 3 / math.sqrt(n)
        assert abs((np.abs(entries) ** 2).mean() - 1.0) < 3 / math.sqrt(n)

    def test_rician_strong_los_limit(self):
        ch = _draw(1, t=20, r=20, fading=Fading.rician(200.0))
        assert np.max(np.abs(ch.h_sr - 1.0)) < 1e-8

    def test_rician_scatter_power_split(self):
        ch = _draw(2, t=250, r=400, fading=Fading.rician(10.0))
        scatter = ch.h_sr - math.sqrt(10.0 / 11.0)
        n = scatter.size
        assert abs((np.abs(scatter) ** 2).mean() - 1.0 / 11.0) < 3 / math.sqrt(n)

    @pytest.mark.parametrize("fading", [Fading.rayleigh(), Fading.rician(10.0)])
    @pytest.mark.parametrize("t, r", [(1, 1), (2, 3), (4, 1), (8, 8)])
    def test_one_normal_call_reads_the_stream_like_six(self, t, r, fading):
        # the reference: one standard_normal call per real or imaginary
        # block, in the order h_sr, h_sg, h_gr
        for seed in range(10):
            gen = SeededRng(seed).generator()
            links = []
            for shape in ((t, r), (t, 1), (1, r)):
                scatter = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
                if fading.kind == "rician":
                    k = 10.0 ** (fading.k_factor_db / 10.0)
                    scatter = np.sqrt(k / (k + 1.0)) + np.sqrt(1.0 / (k + 1.0)) * scatter
                links.append(scatter)
            ch = draw_channel(SeededRng(seed), t, r, fading, 0.5)
            for got, want in zip((ch.h_sr, ch.h_sg, ch.h_gr), links):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    def test_shapes_and_validation(self):
        ch = _draw(3)
        assert ch.h_sr.shape == (2, 3)
        assert ch.h_sg.shape == (2, 1)
        assert ch.h_gr.shape == (1, 3)
        with pytest.raises(ValueError):
            draw_channel(SeededRng(0), 0, 3, Fading.rayleigh(), 0.5)
        with pytest.raises(ValueError):
            Fading("rician")
        with pytest.raises(ValueError):
            ChannelRealization(ch.h_sr, ch.h_sg, ch.h_gr, 1.5, ch.fading)


class TestBatchDraw:
    def test_batch_rows_are_the_draws(self):
        streams = [SeededRng(seed) for seed in range(4)]
        batch = draw_channel(streams, 2, 3, Fading.rayleigh(), 0.5)
        assert batch.h_sr.shape == (4, 2, 3)
        for i, stream in enumerate(streams):
            ch = draw_channel(stream, 2, 3, Fading.rayleigh(), 0.5)
            for d in (-1, +1):
                assert np.array_equal(composite(batch, d).h1[i], composite(ch, d).h1)
        # a sequence of one stream is a batch of one, not the single draw
        assert draw_channel(streams[:1], 2, 3, Fading.rayleigh(), 0.5).h_sr.shape == (1, 2, 3)


class TestComposite:
    def test_zero_scattering_kills_tag_path(self):
        ch = _draw(4, a=0.0)
        pair = composite(ch, +1)
        assert np.all(pair.h1 == 0)

    def test_scalar_product(self):
        ch = ChannelRealization(
            h_sr=np.ones((1, 1), complex),
            h_sg=np.ones((1, 1), complex),
            h_gr=np.ones((1, 1), complex),
            a_coeff=0.5,
            fading=Fading.rayleigh(),
        )
        pair = composite(ch, -1)
        assert pair.h1[0, 0] == pytest.approx(0.5)
        assert pair.effective()[0, 0] == pytest.approx(0.5)

    def test_tag_path_is_rank_one(self):
        pair = composite(_draw(5), +1)
        s = np.linalg.svd(pair.h1, compute_uv=False)
        assert s[1] < 1e-12
        assert s[0] > 0

    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            composite(_draw(6), 0)


class TestEigenSpectrum:
    def test_identity_channel(self):
        pair = CompositePair(h0=np.eye(2, dtype=complex), h1=np.zeros((2, 2), complex), d=1)
        np.testing.assert_allclose(eigen_spectrum(pair).g, [1.0, 1.0])

    def test_diagonal_channel(self):
        pair = CompositePair(
            h0=np.diag([2.0, 3.0]).astype(complex), h1=np.zeros((2, 2), complex), d=1
        )
        np.testing.assert_allclose(eigen_spectrum(pair).g, [9.0, 4.0])

    def test_matches_svd_oracle(self):
        pair = composite(_draw(7), -1)
        s = np.linalg.svd(pair.effective(), compute_uv=False)
        np.testing.assert_allclose(eigen_spectrum(pair).g, np.sort(s**2)[::-1], atol=1e-9)

    def test_frobenius_identity(self):
        for seed in range(20):
            pair = composite(_draw(seed), +1 if seed % 2 else -1)
            spec = eigen_spectrum(pair)
            frob = np.linalg.norm(pair.effective()) ** 2
            assert spec.g.sum() == pytest.approx(frob, rel=1e-9)

    def test_tag_symbol_changes_spectrum_unless_absent(self):
        ch = _draw(8)
        g_plus = eigen_spectrum(composite(ch, +1)).g
        g_minus = eigen_spectrum(composite(ch, -1)).g
        assert not np.allclose(g_plus, g_minus)

        ch0 = _draw(8, a=0.0)
        np.testing.assert_array_equal(
            eigen_spectrum(composite(ch0, +1)).g, eigen_spectrum(composite(ch0, -1)).g
        )

    def test_nonnegative_after_clamp(self):
        for seed in range(10):
            spec = eigen_spectrum(composite(_draw(seed, t=3, r=3), +1))
            assert np.all(spec.g >= 0)

