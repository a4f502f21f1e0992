import numpy as np
import pytest

from ambc_fbl.errors import OverflowRegimeError, ZeroSpectrumError
from ambc_fbl.power import PowerAllocation, waterfill


def _bisect_level(g, total):
    """Independent oracle: bisection on the water level."""
    g = np.asarray(g, float)
    lo, hi = 0.0, total + (1.0 / g[g > 0]).max() + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(mid - 1.0 / g[g > 0], 0.0).sum() < total:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestWaterfillExamples:
    def test_symmetric_modes(self):
        alloc = waterfill(np.array([1.0, 1.0]), 2.0)
        assert alloc.water_level == pytest.approx(2.0)
        np.testing.assert_allclose(alloc.p, [1.0, 1.0])

    def test_two_active_modes_match_bisection(self):
        g = np.array([4.0, 1.0])
        alloc = waterfill(g, 1.0)
        assert alloc.water_level == pytest.approx(_bisect_level(g, 1.0), abs=1e-9)
        assert alloc.water_level == pytest.approx(1.125)
        np.testing.assert_allclose(alloc.p, [0.875, 0.125], atol=1e-12)

    def test_weak_mode_shut_off(self):
        g = np.array([10.0, 0.01])
        alloc = waterfill(g, 0.5)
        np.testing.assert_allclose(alloc.p, [0.5, 0.0], atol=1e-12)
        assert _bisect_level(g, 0.5) < 1.0 / g[1]

    def test_errors(self):
        with pytest.raises(ZeroSpectrumError):
            waterfill(np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            PowerAllocation(p=np.array([-0.1, 1.1]), water_level=1.0, total_power=1.0)


class TestWaterfillBatch:
    def test_rows_solved_independently(self):
        g = np.array([[4.0, 1.0], [1.0, 1.0], [10.0, 0.01], [3.0, 0.0]])
        alloc = waterfill(g, 1.0)
        for row, gains in zip(alloc.p, g):
            assert np.array_equal(row, waterfill(gains, 1.0).p)
        assert alloc.water_level.shape == (4,)

    def test_power_below_the_rounding_of_the_inverse_gain(self):
        # at -170 dB, P + 1/g_max == 1/g_max: no mode can take power
        with pytest.raises(OverflowRegimeError):
            waterfill(np.array([1.0, 0.5]), 1e-17)
        with pytest.raises(OverflowRegimeError):
            waterfill(np.array([[1e-3], [1e-20], [1.0]]), 1e-12)

    def test_batch_with_any_all_zero_row_raises_zero_spectrum_error(self):
        g = np.array([[1.0, 0.5], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroSpectrumError):
            waterfill(g, 1.0)


class TestWaterfillProperties:
    def test_feasibility_and_slackness(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            m = int(rng.integers(1, 5))
            g = rng.uniform(1e-3, 20.0, m)
            if rng.random() < 0.2:
                g[rng.integers(0, m)] = 0.0
            if not (g > 0).any():
                continue
            total = float(rng.uniform(0.05, 20.0))
            alloc = waterfill(g, total)
            assert abs(alloc.p.sum() - total) <= 1e-9
            active = alloc.p > 0
            np.testing.assert_allclose(
                alloc.p[active], alloc.water_level - 1.0 / g[active], atol=1e-9
            )
            idle = (~active) & (g > 0)
            assert np.all(alloc.water_level <= 1.0 / g[idle] + 1e-12)

    @pytest.mark.parametrize("total", [1e8, 1e10])
    def test_high_snr_budget_holds_to_relative_rounding(self, total):
        # at P = 1e8 the rounding of p.sum() alone exceeds an absolute 1e-9
        rng = np.random.default_rng(3)
        for m in range(4, 9):
            for _ in range(50):
                g = rng.exponential(1.0, m) + 1e-3
                alloc = waterfill(g, total)
                assert abs(alloc.p.sum() - total) <= 1e-9 * total
                assert np.all(alloc.p >= 0.0)

    def test_allocation_sorted_with_gains(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = np.sort(rng.uniform(0.01, 10.0, 4))[::-1]
            alloc = waterfill(g, float(rng.uniform(0.1, 5.0)))
            assert np.all(np.diff(alloc.p) <= 1e-12)

    def test_rate_monotone_in_gain(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = rng.uniform(0.05, 10.0, 3)
            total = float(rng.uniform(0.1, 5.0))
            base = waterfill(g, total)
            rate0 = np.log1p(g * base.p).sum()
            j = int(rng.integers(0, 3))
            g2 = g.copy()
            g2[j] *= 1.0 + rng.uniform(0.01, 1.0)
            rate1 = np.log1p(g2 * waterfill(g2, total).p).sum()
            assert rate1 >= rate0 - 1e-12
