"""The batched set-up pass against the per-draw scalar calls it replaces.

Every layer of the set-up (the channel draw, the tag model, spectra,
waterfilling, capacity, dispersion, the normal approximation) runs on arrays
with a leading draw axis; each row must equal, bit for bit, what the same
layer returns for that draw alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambc_fbl import cli, tag
from ambc_fbl.asymptotics import capacity, dispersion, normal_approximation
from ambc_fbl.channel import Fading, composite, draw_channel, eigen_spectrum
from ambc_fbl.cli import ExperimentConfig
from ambc_fbl.errors import InfeasibleTargetError
from ambc_fbl.numerics import SeededRng
from ambc_fbl.power import waterfill

N_GRID = (8, 100, 2000)


def _channels(seed, count, t, r, fading, a):
    """One batched draw of ``count`` channels, and the same draws one stream
    at a time; each row of the batch must be its single draw, bit for bit."""
    streams = [SeededRng(seed).split(k) for k in range(count)]
    batch = draw_channel(streams, t, r, fading, a)
    channels = [draw_channel(stream, t, r, fading, a) for stream in streams]
    for i, ch in enumerate(channels):
        for got, want in ((batch.h_sr[i], ch.h_sr), (batch.h_sg[i], ch.h_sg), (batch.h_gr[i], ch.h_gr)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return batch, channels


def _per_draw(ch, power, eps):
    """The scalar path: one call of each layer per draw and tag symbol."""
    out = {}
    for d in (-1, +1):
        spec = eigen_spectrum(composite(ch, d))
        alloc = waterfill(spec, power)
        c, v = capacity(spec, alloc), dispersion(spec, alloc)
        na = [normal_approximation(c, v, n, eps) for n in N_GRID]
        out[d] = (spec.g, alloc.p, alloc.water_level, c, v, na)
    return out


def _assert_batch_equals_scalar(batch, channels, power, eps):
    n = np.array(N_GRID)[:, None]
    for d in (-1, +1):
        spec = eigen_spectrum(composite(batch, d))
        alloc = waterfill(spec, power)
        c, v = capacity(spec, alloc), dispersion(spec, alloc)
        na = normal_approximation(c, v, n, np.array(eps))
        for i, ch in enumerate(channels):
            g1, p1, lam1, c1, v1, na1 = _per_draw(ch, power, eps[i])[d]
            assert np.array_equal(spec.g[i], g1)
            assert np.array_equal(alloc.p[i], p1)
            assert alloc.water_level[i] == lam1
            assert c[i] == c1 and v[i] == v1
            assert list(na[:, i]) == na1


class TestBatchDraw:
    @pytest.mark.parametrize("fading", [Fading.rayleigh(), Fading.rician(10.0)])
    @pytest.mark.parametrize("t, r", [(1, 1), (1, 3), (3, 1), (2, 3), (8, 8)])
    def test_rows_equal_single_draws(self, t, r, fading):
        _channels(13, 50, t, r, fading, 0.5)

    def test_tag_models_equal_per_draw(self):
        # the 3000 draws of the benchmark's closed-form sweep, as the sweep
        # draws them
        root = SeededRng(20260808)
        streams = [root.split(k).split(0) for k in range(3000)]
        batch = draw_channel(streams, 2, 3, Fading.rayleigh(), 0.5)
        models = tag.TagErrorModel.from_pair(composite(batch, +1))
        for k, stream in enumerate(streams):
            model = tag.TagErrorModel.from_pair(composite(draw_channel(stream, 2, 3, Fading.rayleigh(), 0.5), +1))
            assert models.norm_h1[k] == model.norm_h1
            assert models.cross_term[k] == model.cross_term

    def test_draws_without_a_tag_link_stay_in_the_batch(self):
        batch, channels = _channels(14, 4, 2, 3, Fading.rayleigh(), 0.5)
        h1 = composite(batch, +1).h1.copy()
        h1[1] = 0
        models = tag.TagErrorModel.from_channels(batch.h_sr, h1)
        assert models.norm_h1[1] == 0.0
        # a model of that draw alone is refused, so the sweep skips it
        with pytest.raises(InfeasibleTargetError, match="tag link is absent"):
            tag.TagErrorModel(models.norm_h1[1], models.cross_term[1])
        for k in (0, 2, 3):
            model = tag.TagErrorModel.from_pair(composite(channels[k], +1))
            assert (models.norm_h1[k], models.cross_term[k]) == (model.norm_h1, model.cross_term)


class TestBatchEqualsScalar:
    @pytest.mark.parametrize(
        "t, r, fading, snr_db",
        [
            (1, 3, Fading.rayleigh(), 0.0),  # m = 1
            (3, 1, Fading.rician(10.0), 5.0),  # m = 1
            (8, 8, Fading.rayleigh(), 10.0),
            (2, 3, Fading.rician(10.0), 0.0),
            (4, 4, Fading.rician(3.0), 20.0),
        ],
    )
    def test_layers(self, t, r, fading, snr_db):
        batch, channels = _channels(11, 40, t, r, fading, 0.5)
        eps = list(np.linspace(1e-4, 0.3, len(channels)))
        _assert_batch_equals_scalar(batch, channels, 10.0 ** (snr_db / 10.0), eps)

    def test_inactive_modes_at_minus_10_db(self):
        batch, channels = _channels(12, 40, 3, 4, Fading.rayleigh(), 0.7)
        _assert_batch_equals_scalar(batch, channels, 0.1, [1e-3] * len(channels))
        idle = waterfill(eigen_spectrum(composite(batch, +1)), 0.1).p == 0
        assert idle.any() and not idle.all(axis=-1).any()

    def test_set_up_pass_with_skipped_draws(self):
        # the sweep's own pass, against the loop it replaced: a per-draw
        # channel, tag conversion and scalar curves, skipping what the tag
        # target cannot reach
        config = ExperimentConfig.from_dict(
            dict(t=2, r=3, fading="rayleigh", a_coeff=0.5, snr_db=0.0, eps_d=0.1,
                 n_grid=list(N_GRID), channel_draws=60, seed=5,
                 curves=["capacity", "normal_approx"])
        )
        root = SeededRng(config.seed)
        setup = cli._set_up(config, root)
        kept, eps = [], []
        for k in range(config.channel_draws):
            ch = draw_channel(root.split(k).split(0), 2, 3, Fading.rayleigh(), 0.5)
            try:
                e = tag.eps_given_tag_error(tag.TagErrorModel.from_pair(composite(ch, +1)), 0.1)
            except InfeasibleTargetError:
                continue
            kept.append((k, ch))
            eps.append(min(max(e, 1e-12), 1.0 - 1e-12))
        assert 0 < len(kept) < config.channel_draws
        assert setup.draws == [k for k, _ in kept]
        assert setup.eps == eps
        assert setup.skipped == config.channel_draws - len(kept)
        ln2 = math.log(2)
        for i, (_, ch) in enumerate(kept):
            per_d = _per_draw(ch, 1.0, eps[i])
            for d in (-1, +1):
                assert np.array_equal(setup.spectra[d].g[i], per_d[d][0])
            cap = 0.5 * (per_d[-1][3] + per_d[+1][3])
            assert list(setup.curves["capacity"][:, i]) == [cap / ln2] * len(N_GRID)
            na = [0.5 * (a + b) / ln2 for a, b in zip(per_d[-1][5], per_d[+1][5])]
            assert list(setup.curves["normal_approx"][:, i]) == na


@settings(max_examples=100, deadline=None)
@given(
    t=st.integers(1, 8),
    r=st.integers(1, 8),
    snr_db=st.floats(-10.0, 30.0),
    a=st.floats(0.0, 1.0),
    k_factor_db=st.none() | st.floats(-10.0, 20.0),
    eps=st.floats(1e-9, 0.5, exclude_max=True),
    seed=st.integers(0, 2**32),
)
def test_batch_equals_scalar_and_na_below_capacity(t, r, snr_db, a, k_factor_db, eps, seed):
    fading = Fading.rayleigh() if k_factor_db is None else Fading.rician(k_factor_db)
    batch, channels = _channels(seed, 3, t, r, fading, a)
    _assert_batch_equals_scalar(batch, channels, 10.0 ** (snr_db / 10.0), [eps] * len(channels))
    config = ExperimentConfig.from_dict(
        dict(t=t, r=r, fading=fading.kind, k_factor_db=k_factor_db, a_coeff=a, snr_db=snr_db,
             eps=eps, n_grid=list(N_GRID), seed=seed, curves=["capacity", "normal_approx"])
    )
    _, curves = cli._closed_form(config, batch, [eps] * len(channels))
    assert np.all(curves["normal_approx"] <= curves["capacity"])
