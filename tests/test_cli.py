import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest

import ambc_fbl
from ambc_fbl import bounds_ach, bounds_conv, cli
from ambc_fbl.cli import (
    CSV_HEADER,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    emit_csv,
    format_rows,
    main,
    run_sweep,
)
from ambc_fbl.errors import ConfigError, ConvergenceError, ZeroSpectrumError
from ambc_fbl.numerics import SeededRng


def _config(**overrides):
    base = dict(
        t=2,
        r=3,
        fading="rayleigh",
        a_coeff=0.5,
        snr_db=0.0,
        eps=1e-3,
        n_grid=[16, 32],
        mc_samples=2000,
        channel_draws=3,
        seed=77,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_round_trip(self):
        cfg = _config()
        again = ExperimentConfig.from_dict(asdict(cfg))
        assert again == cfg

    def test_power_conversion(self):
        assert _config(snr_db=0.0).total_power == pytest.approx(1.0)
        assert _config(snr_db=10.0).total_power == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(eps=None),
            dict(eps=1e-3, eps_d=1e-3),
            dict(n_grid=[4, 16]),
            dict(n_grid=[32, 16]),
            dict(n_grid=[16, 16]),
            dict(fading="nakagami"),
            dict(fading="rician"),
            dict(curves=["capacity", "bogus"]),
            dict(mc_samples=10),
            dict(aggregate="geomean"),
            dict(a_coeff=1.5),
            dict(snr_db="0"),
            dict(snr_db=None),
            dict(n_grid=[16, "a"]),
            dict(n_grid=[16, 5000]),
            dict(t=9, r=9),
            dict(t=2.0),
            dict(mc_samples=2000.0),
            dict(channel_draws=1.0),
            dict(seed=1.5),
            dict(seed=True),
            dict(snr_db=float("inf")),
            dict(fading="rician", k_factor_db="abc"),
            dict(fading="rician", k_factor_db="10"),
        ],
    )
    def test_rejects_bad_configs(self, overrides):
        with pytest.raises(ConfigError):
            _config(**overrides)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"bogus_key": 1})

    def test_rician_accepted_with_k_factor(self):
        cfg = _config(fading="rician", k_factor_db=10.0)
        assert cfg.fading_spec.k_factor_db == 10.0


class TestRunSweep:
    def test_rows_cover_grid_in_order(self):
        result = run_sweep(_config())
        assert [row.n for row in result.rows] == [16, 32]
        assert all(row.draws == 3 for row in result.rows)
        assert result.skipped_realizations == 0

    def test_unrequested_curves_are_nan_with_reason(self):
        result = run_sweep(_config(curves=["capacity", "normal_approx"]))
        row = result.rows[0]
        assert math.isfinite(row.capacity_bits)
        assert math.isfinite(row.na_bits)
        assert math.isnan(row.ach_bits)
        assert math.isnan(row.conv_bits)
        assert "achievability" in result.nan_reasons
        assert "converse" in result.nan_reasons

    def test_error_target_mode_skips_infeasible(self):
        # a tiny tag error target is out of reach for most realizations
        cfg = _config(eps=None, eps_d=1e-9, channel_draws=6, curves=["capacity"])
        result = run_sweep(cfg)
        assert result.skipped_realizations > 0

    def test_error_target_mode_produces_rates(self):
        # a loose tag error target converts per realization and feeds the
        # bounds; feasible draws yield finite rows
        cfg = _config(eps=None, eps_d=0.2, channel_draws=4)
        result = run_sweep(cfg)
        assert result.skipped_realizations < 4
        row = result.rows[0]
        assert math.isfinite(row.ach_bits)
        assert math.isfinite(row.conv_bits)
        assert row.ach_bits <= row.conv_bits + row.ach_ci + row.conv_ci

    def test_single_aggregate_uses_one_draw(self):
        result = run_sweep(_config(aggregate="single", curves=["capacity"]))
        assert all(row.draws == 1 for row in result.rows)


class TestBoundPool:
    """The (draw, n, bound) items of a sweep run on a thread pool."""

    # 3 draws x 4 blocklengths x 2 bounds
    GRID = dict(n_grid=[16, 32, 64, 128], channel_draws=3)

    def _stub_bounds(self, monkeypatch, pin_cpus, fail_rng=None):
        """Cheap stand-ins for both bounds that record their calls; the
        converse item whose substream is ``fail_rng`` raises."""
        calls = []
        lock = threading.Lock()

        def stub(curve):
            def bound(n, g_plus, g_minus, power, eps, rng, num_samples):
                with lock:
                    calls.append((curve, n, rng))
                if curve == "converse" and rng == fail_rng:
                    raise ConvergenceError(f"stub converse failed at n = {n}")
                time.sleep(0.02)
                return SimpleNamespace(rate_bits=float(n), ci_rate_bits=0.0)

            return bound

        monkeypatch.setattr(bounds_ach, "achievability_rate", stub("achievability"))
        monkeypatch.setattr(bounds_conv, "converse_rate", stub("converse"))
        pin_cpus(2)
        return calls

    @staticmethod
    def _substream(cfg, draw, n, bound):
        # run_sweep keys each item by (seed, draw, n, bound)
        return SeededRng(cfg.seed).split(draw).split(2 * n + (bound == "converse"))

    def test_rows_do_not_depend_on_the_worker_count(self, pin_cpus):
        # both bounds, four draws of which the tag target skips two
        cfg = _config(eps=None, eps_d=0.1, channel_draws=4, seed=1)
        results = []
        for workers in (1, 4):
            pin_cpus(workers)
            results.append(run_sweep(cfg))
        assert results[0].skipped_realizations == results[1].skipped_realizations == 2
        assert results[0].rows == results[1].rows
        rows = results[0].rows
        assert all(math.isfinite(row.ach_bits) and math.isfinite(row.conv_bits) for row in rows)

    def test_failing_item_exits_3_and_cancels_the_queue(
        self, monkeypatch, pin_cpus, tmp_path, capsys
    ):
        cfg = _config(**self.GRID)
        fail_rng = self._substream(cfg, 0, 16, "converse")
        calls = self._stub_bounds(monkeypatch, pin_cpus, fail_rng=fail_rng)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 3
        assert "stub converse failed at n = 16" in capsys.readouterr().err
        assert len(calls) < 3 * 4 * 2

    def test_later_set_up_failure_does_not_mask_an_earlier_item_failure(
        self, monkeypatch, pin_cpus
    ):
        cfg = _config(**self.GRID)
        draw = cli.draw_channel
        third = SeededRng(cfg.seed).split(2).split(0)

        def failing_draw(rng, *args):
            if rng == third:
                raise ZeroSpectrumError("stub set-up failure in draw 2")
            return draw(rng, *args)

        monkeypatch.setattr(cli, "draw_channel", failing_draw)
        # alone, the set-up failure is raised after the first two draws' items
        calls = self._stub_bounds(monkeypatch, pin_cpus)
        with pytest.raises(ZeroSpectrumError, match="draw 2"):
            run_sweep(cfg)
        per_draw = [(curve, n) for curve in ("achievability", "converse") for n in cfg.n_grid]
        assert sorted((curve, n) for curve, n, _ in calls) == sorted(2 * per_draw)
        # an item of draw 1 fails first in serial order
        self._stub_bounds(monkeypatch, pin_cpus, fail_rng=self._substream(cfg, 1, 64, "converse"))
        with pytest.raises(ConvergenceError, match="n = 64"):
            run_sweep(cfg)


class TestEmitCsv:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(SweepResult([], _config(), 0), path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_round_trip(self, tmp_path):
        rows = [
            SweepRow(16, 1.25, 1.0, 0.75, 1.5, 0.01, 0.02, 3),
            SweepRow(32, 1.5, 1.25, float("nan"), 1.6, float("nan"), 0.01, 3),
        ]
        path = tmp_path / "rows.csv"
        emit_csv(SweepResult(rows, _config(), 0), path)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert list(back[0]) == CSV_HEADER.split(",")
        for orig, rt in zip(rows, back):
            assert int(rt["n"]) == orig.n
            assert int(rt["draws"]) == orig.draws
            for field in ("capacity_bits", "na_bits", "ach_bits", "conv_bits", "ach_ci", "conv_ci"):
                a, b = getattr(orig, field), float(rt[field])
                assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, rel=1e-5)

    def test_metadata_sidecar_records_seed(self, tmp_path):
        cfg = _config(curves=["capacity"])
        result = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["seed"] == cfg.seed
        assert meta["config"]["seed"] == cfg.seed
        assert meta["skipped_realizations"] == 0
        assert isinstance(meta["git_describe"], str)


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        cfg = _config()
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            emit_csv(run_sweep(cfg), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    # CSV text of two small sweeps; a change that keeps every random stream
    # reproduces it byte for byte.  At -20 dB and eps = 0.3 both estimators
    # take the raw path (the converse also the tilted one); at 0 dB and
    # eps = 1e-3 both take the tilted path.
    PINNED = {
        "raw": (dict(snr_db=-20.0, eps=0.3, n_grid=[8, 16]), 'n,capacity_bits,na_bits,ach_bits,conv_bits,ach_ci,conv_ci,draws\n8,0.0932227,0.0036593,-0.211465,0.407001,0.0588339,0.0749506,2\n16,0.0932227,0.0298918,-0.0730538,0.278172,0.0540741,0.0656164,2\n'),
        "tilted": (dict(snr_db=0.0, eps=1e-3, n_grid=[16, 32]), 'n,capacity_bits,na_bits,ach_bits,conv_bits,ach_ci,conv_ci,draws\n16,2.98626,1.72366,1.34415,2.26555,0.966398,0.865685,2\n32,2.98626,2.09347,1.93217,2.40188,1.01976,1.08875,2\n'),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_recorded_csv(self, name):
        overrides, text = self.PINNED[name]
        assert format_rows(run_sweep(_config(channel_draws=2, **overrides)).rows) == text

    def test_raw_case_still_draws_the_output_sample(self, monkeypatch):
        from ambc_fbl import bounds_ach

        kinds, tilted = [], []
        sampler, beta = bounds_ach.sample_info_density, bounds_ach.achievability_beta

        def recorded_sampler(kind, *args):
            kinds.append(kind)
            return sampler(kind, *args)

        def recorded_beta(*args, **kwargs):
            est = beta(*args, **kwargs)
            tilted.append(est.tilted)
            return est

        monkeypatch.setattr(bounds_ach, "sample_info_density", recorded_sampler)
        monkeypatch.setattr(bounds_ach, "achievability_beta", recorded_beta)
        overrides = dict(self.PINNED["raw"][0], n_grid=[8])
        run_sweep(_config(channel_draws=2, curves=["achievability"], **overrides))
        # two draws, two tag symbols: a conditional and an output sample each
        assert kinds.count(bounds_ach.KIND_OUTPUT) == kinds.count(bounds_ach.KIND_CONDITIONAL) == 4
        assert tilted == [False] * 16

    def test_seed_changes_outputs(self, tmp_path):
        r1 = run_sweep(_config(seed=77, curves=["achievability"]))
        r2 = run_sweep(_config(seed=78, curves=["achievability"]))
        assert r1.rows[0].ach_bits != r2.rows[0].ach_bits


class TestMain:
    def test_sweep_and_point_commands(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(_config(curves=["capacity", "normal_approx"]))))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()

        assert main(["point", "--config", str(cfg_path), "--n", "64"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(CSV_HEADER)
        assert printed.strip().splitlines()[1].startswith("64,")

    def test_seed_override_changes_csv(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(_config(curves=["capacity"]))))
        outs = []
        for seed in ("5", "6"):
            out = tmp_path / f"s{seed}.csv"
            assert main(
                ["sweep", "--config", str(cfg_path), "--out", str(out), "--seed", seed]
            ) == 0
            outs.append(out.read_text())
        assert outs[0] != outs[1]

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.json"), "--out", "x.csv"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = asdict(_config())
        bad["eps_d"] = 0.5  # both error modes set
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        assert main(["sweep", "--config", str(cfg_path), "--out", "x.csv"]) == 2
        capsys.readouterr()

    def test_float_sample_count_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "float.json"
        cfg_path.write_text(json.dumps(dict(asdict(_config()), mc_samples=2000.0)))
        assert main(["sweep", "--config", str(cfg_path), "--out", "x.csv"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_converse_beyond_its_blocklength_limit_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "long.json"
        cfg_path.write_text(json.dumps(dict(asdict(_config()), n_grid=[16, 5000])))
        assert main(["sweep", "--config", str(cfg_path), "--out", "x.csv"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_module_entry_point_runs_without_runtime_warning(self):
        # the package must not import the cli module that ``-m`` then runs
        src = str(Path(ambc_fbl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "ambc_fbl.cli", "selftest"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_sweep_leaves_scipy_optimize_unloaded(self, tmp_path):
        # the library and the CLI load only scipy.special of scipy; the
        # optimizer package alone would add about 0.3 s to every process
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(
            json.dumps(
                asdict(
                    _config(
                        eps=0.3,
                        n_grid=[8, 16],
                        channel_draws=1,
                        curves=["capacity", "normal_approx", "achievability", "converse"],
                    )
                )
            )
        )
        out = tmp_path / "out.csv"
        argv = ["sweep", "--config", str(cfg_path), "--out", str(out)]
        script = (
            "import sys\n"
            "import ambc_fbl, ambc_fbl.cli\n"
            "from ambc_fbl.cli import main\n"
            f"code = main({argv!r})\n"
            "assert code == 0, code\n"
            "loaded = sorted(m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules)\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(ambc_fbl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().strip().splitlines()) == 3

    def test_high_snr_sweep_meets_the_power_budget(self, tmp_path, capsys):
        # at P = 1e8 the allocation's budget check must allow for rounding
        cfg = dict(
            t=4,
            r=4,
            fading="rayleigh",
            a_coeff=0.5,
            snr_db=80.0,
            eps=0.001,
            n_grid=[100],
            mc_samples=1000,
            channel_draws=20,
            seed=1,
            curves=["capacity", "normal_approx"],
        )
        cfg_path = tmp_path / "high_snr.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("100,")

    def test_package_exports_the_cli_names(self):
        from ambc_fbl import ExperimentConfig as exported_config
        from ambc_fbl import main as exported_main

        assert exported_main is main
        assert exported_config is ExperimentConfig
        with pytest.raises(AttributeError):
            ambc_fbl.no_such_name

    def test_tag_convert_prints_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(_config())))
        assert main(["tag-convert", "--config", str(cfg_path), "--grid", "0.2,1e-9"]) == 0
        out = capsys.readouterr().out
        assert "eps_d,eps,feasible" in out
        assert ",no" in out  # 1e-9 is below any realistic floor
