import csv
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    run_calls,
    run_sweep,
)
from ambc_fbl.channel import EigenSpectrum
from ambc_fbl.errors import ConfigError, ConvergenceError, ZeroSpectrumError
from ambc_fbl.numerics import SeededRng
from ambc_fbl.power import waterfill


def _run_fresh(script):
    """Run ``script`` in a new interpreter that imports this tree's package."""
    src = str(Path(ambc_fbl.__file__).resolve().parents[1])
    # a RuntimeWarning fails the script, as pytest's filterwarnings, which
    # does not reach a new interpreter, fails an in-process test
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


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
            # the retired aggregate key is unknown, whatever its value
            dict(aggregate="mean"),
            dict(aggregate="median"),
            dict(a_coeff=1.5),
            dict(snr_db="0"),
            dict(snr_db=None),
            dict(n_grid=[16, "a"]),
            dict(n_grid=[]),
            dict(t=0),
            dict(t=2.0),
            dict(mc_samples=2000.0),
            dict(channel_draws=1.0),
            dict(seed=1.5),
            dict(seed=True),
            dict(snr_db=float("inf")),
            dict(fading="rician", k_factor_db="abc"),
            dict(fading="rician", k_factor_db="10"),
            dict(fading="rician", k_factor_db=4000.0),
            dict(eps=1e-17),
            dict(n_grid=[16, 2**53 + 1], curves=["capacity", "normal_approx"]),
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

    def test_error_target_without_a_tag_link_skips_every_draw(self, tmp_path, capsys):
        # a_coeff = 0: no draw has a tag link, so every draw is skipped, the
        # rows are NaN with no draws and the sweep still exits 0
        cfg = _config(eps=None, eps_d=0.1, a_coeff=0.0, channel_draws=5,
                      curves=["capacity", "normal_approx"])
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [int(row["n"]) for row in rows] == list(cfg.n_grid)
        for row in rows:
            assert row["draws"] == "0"
            assert all(row[key] == "nan" for key in CSV_HEADER.split(",")[1:-1])
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["skipped_realizations"] == cfg.channel_draws
        # the table of one channel has no attainable interval to print
        capsys.readouterr()
        assert main(["tag-convert", "--config", str(cfg_path)]) == 3
        assert "tag link is absent" in capsys.readouterr().err

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

    def test_set_up_failure_raises_before_any_item(self, monkeypatch, pin_cpus):
        cfg = _config(**self.GRID)
        draw = cli.draw_channel
        third = SeededRng(cfg.seed).split(2).split(0)

        def failing_draw(streams, *args):
            # the set-up pass draws every channel in one batched call
            if third in streams:
                raise ZeroSpectrumError("stub set-up failure in draw 2")
            return draw(streams, *args)

        monkeypatch.setattr(cli, "draw_channel", failing_draw)
        # the set-up pass runs first, so its failure wins even over an item
        # of draw 1 that would fail
        for fail_rng in (None, self._substream(cfg, 1, 64, "converse")):
            calls = self._stub_bounds(monkeypatch, pin_cpus, fail_rng=fail_rng)
            with pytest.raises(ZeroSpectrumError, match="draw 2"):
                run_sweep(cfg)
            assert calls == []

    def test_zero_channel_fails_before_any_item(self, monkeypatch, pin_cpus):
        # with fixed eps no tag target skips the all-zero draw 2, so the
        # batched waterfilling fails on it before any item starts
        cfg = _config(**self.GRID)
        draw = cli.draw_channel
        third = SeededRng(cfg.seed).split(2).split(0)

        def zero_draw(streams, *args):
            batch = draw(streams, *args)
            row = streams.index(third)
            for h in (batch.h_sr, batch.h_sg, batch.h_gr):
                h[row] = 0
            return batch

        monkeypatch.setattr(cli, "draw_channel", zero_draw)
        calls = self._stub_bounds(monkeypatch, pin_cpus)
        with pytest.raises(ZeroSpectrumError, match="all eigenvalues are zero"):
            run_sweep(cfg)
        assert calls == []


class TestSweepThreads:
    """The sweep's pool, ``cli.run_calls``, lives only as long as its call."""

    def test_interrupt_starts_no_queued_call(self, pin_cpus):
        pin_cpus(2)
        interrupted = threading.Event()
        started_after = []

        def call(i):
            started_after.append(interrupted.is_set())
            if i == 0:
                time.sleep(0.2)
                interrupted.set()
                os.kill(os.getpid(), signal.SIGINT)
            else:
                # the other worker is inside a call, far from its end, when
                # the interrupt comes
                time.sleep(0.3)

        with pytest.raises(KeyboardInterrupt):
            run_calls([partial(call, i) for i in range(20)])
        time.sleep(0.5)
        # only the worker that sent the interrupt may take one more call
        # before the waiting caller sees it
        assert sum(started_after) <= 1

    def test_sweep_leaves_no_thread(self, monkeypatch, pin_cpus):
        pin_cpus(2)
        names = []
        bound = bounds_ach.achievability_rate

        def recorded(*args):
            names.append(threading.current_thread().name)
            return bound(*args)

        monkeypatch.setattr(bounds_ach, "achievability_rate", recorded)
        run_sweep(_config())
        assert any(name.startswith("ambc-fbl") for name in names)
        assert not [t for t in threading.enumerate() if t.name.startswith("ambc-fbl")]


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


class TestAggregate:
    """The CI of a row: the standard error of the mean over draws, from the
    sample sd (ddof 1), in quadrature with the mean MC half-width."""

    def test_two_draws(self):
        # mean 2, sample sd sqrt(2): between 1.96 sqrt(2) / sqrt(2) = 1.96;
        # MC sqrt(0.3^2 + 0.4^2) / 2 = 0.25
        center, ci = cli._aggregate(np.array([1.0, 3.0]), np.array([0.3, 0.4]))
        assert center == 2.0
        assert ci == pytest.approx(math.hypot(1.96, 0.25), rel=1e-15)

    def test_three_draws(self):
        # mean 7/3, squared deviations 42/9, sample variance 7/3:
        # between 1.96 sqrt(7/3) / sqrt(3) = 1.96 sqrt(7) / 3; MC 0.3 / 3
        values, cis = np.array([1.0, 2.0, 4.0]), np.array([0.1, 0.2, 0.2])
        center, ci = cli._aggregate(values, cis)
        assert center == pytest.approx(7 / 3, rel=1e-15)
        assert ci == pytest.approx(math.hypot(1.96 * math.sqrt(7) / 3, 0.1), rel=1e-15)

    def test_one_draw_has_only_its_mc_half_width(self):
        assert cli._aggregate(np.array([1.5]), np.array([0.2])) == (1.5, 0.2)


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        cfg = _config()
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            emit_csv(run_sweep(cfg), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    # CSV text of small sweeps (two draws unless a case says otherwise); a
    # change that keeps every random stream reproduces it byte for byte.  At
    # -20 dB and eps = 0.3 some thresholds lie at or below the output law's
    # mean, where the beta sample is drawn untilted; at 0 dB and eps = 1e-3
    # every sample is tilted.
    # The two closed-form cases pin the set-up pass over many draws: the tag
    # target skips 114 of its 300 draws, and the Rician draws at -10 dB
    # leave some eigenmodes without power.
    PINNED = {
        "low_snr": (dict(snr_db=-20.0, eps=0.3, n_grid=[8, 16]), 'n,capacity_bits,na_bits,ach_bits,conv_bits,ach_ci,conv_ci,draws\n8,0.0932227,0.0036593,-0.217993,0.404745,0.0727279,0.0959472,2\n16,0.0932227,0.0298918,-0.0720481,0.274391,0.0743449,0.0900258,2\n'),
        "tilted": (dict(snr_db=0.0, eps=1e-3, n_grid=[16, 32]), 'n,capacity_bits,na_bits,ach_bits,conv_bits,ach_ci,conv_ci,draws\n16,2.98626,1.72366,1.31583,2.25654,1.38196,1.33897,2\n32,2.98626,2.09347,1.89363,2.38665,1.47731,1.46885,2\n'),
        "closed_form_tag_target": (dict(eps=None, eps_d=0.1, channel_draws=300, n_grid=[100, 500, 2000], seed=20260808, curves=["capacity", "normal_approx"]), 'n,capacity_bits,na_bits,ach_bits,conv_bits,ach_ci,conv_ci,draws\n100,2.96406,2.72528,nan,nan,nan,nan,186\n500,2.96406,2.85728,nan,nan,nan,nan,186\n2000,2.96406,2.91067,nan,nan,nan,nan,186\n'),
        "closed_form_rician": (dict(fading="rician", k_factor_db=10.0, t=3, r=2, snr_db=-10.0, channel_draws=50, n_grid=[100, 500, 2000], curves=["capacity", "normal_approx"]), 'n,capacity_bits,na_bits,ach_bits,conv_bits,ach_ci,conv_ci,draws\n100,0.714686,0.392822,nan,nan,nan,nan,50\n500,0.714686,0.570744,nan,nan,nan,nan,50\n2000,0.714686,0.642715,nan,nan,nan,nan,50\n'),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_recorded_csv(self, name):
        overrides, text = self.PINNED[name]
        assert format_rows(run_sweep(_config(**{"channel_draws": 2, **overrides})).rows) == text

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

    # argv after the command's --config, the expected stderr message and,
    # for a config of the wrong shape, the config's overrides
    USAGE_ERRORS = {
        "grid_text": (["tag-convert", "--grid", "abc"], "--grid must be comma separated numbers"),
        "grid_empty": (["tag-convert", "--grid", ""], "--grid must be comma separated numbers"),
        "grid_empty_entry": (["tag-convert", "--grid", "0.1,,0.2"], "--grid must be comma separated"),
        "grid_above_1": (["tag-convert", "--grid", "1.5"], "--grid targets must be finite"),
        "grid_nan": (["tag-convert", "--grid", "nan"], "--grid targets must be finite"),
        "grid_minus_inf": (["tag-convert", "--grid", "0.1,-inf"], "--grid targets must be finite"),
        "out_dir_missing": (["sweep", "--out", "{tmp}/missing/x.csv"], "missing is not a directory"),
        "out_parent_is_a_file": (["sweep", "--out", "{tmp}/cfg.json/x.csv"], "cfg.json is not a directory"),
        "out_is_a_directory": (["sweep", "--out", "{tmp}"], "cannot write results to"),
        "point_curves_empty": (["point", "--n", "64", "--curves", ""], "at least one curve must be requested"),
        "sweep_curves_empty": (["sweep", "--out", "{tmp}/x.csv", "--curves", ""], "at least one curve"),
        "config_curves_string": (["point", "--n", "64"], "curves must be a JSON array, got 'capacity'",
                                 {"curves": "capacity"}),
        "config_n_grid_string": (["point", "--n", "64"], "n_grid must be a JSON array, got '100'",
                                 {"n_grid": "100"}),
        "config_n_grid_int": (["point", "--n", "64"], "n_grid must be a JSON array, got 100",
                              {"n_grid": 100}),
        "config_n_grid_null": (["sweep", "--out", "{tmp}/x.csv"], "n_grid must be a JSON array, got None",
                               {"n_grid": None}),
    }

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_usage_errors_exit_2_with_a_message(self, tmp_path, capsys, monkeypatch, case):
        argv, message, *overrides = self.USAGE_ERRORS[case]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(asdict(_config(curves=["capacity"])), **dict(*overrides))))
        sweeps = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg: sweeps.append(cfg) or run_sweep(cfg))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main([argv[0], "--config", str(cfg_path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert "eps_d,eps,feasible" not in captured.out
        # a --out that cannot be written is rejected before the sweep runs
        if case.startswith("out_"):
            assert sweeps == []

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.json"), "--out", "x.csv"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
        ids=["not_utf8", "nested_past_the_recursion_limit"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        assert main(["sweep", "--config", str(cfg_path), "--out", "x.csv"]) == 2
        assert "cannot read config" in capsys.readouterr().err

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

    def test_converse_runs_past_the_old_limits(self):
        # n = 5000 and min(t, r) = 9 were once refused by the validator
        assert _config(n_grid=[16, 5000]).n_grid == (16, 5000)
        cfg = _config(t=9, r=9, n_grid=[16], mc_samples=2000, channel_draws=1)
        g = EigenSpectrum(g=np.linspace(4.0, 0.5, 9), d=1)
        assert 0.0 < bounds_conv.pdf_sup_bound(5000, g, waterfill(g, 1.0)) < math.inf
        assert math.isfinite(bounds_conv.converse_constants(5000, g, waterfill(g, 1.0), 1.0))
        (row,) = run_sweep(cfg).rows
        assert math.isfinite(row.conv_bits) and row.ach_bits <= row.conv_bits

    def test_converse_past_its_numeric_range_exits_3(self, capsys):
        # at n = 2**53 the log-density's rounding swamps the K1 search's
        # stencil, which reports it instead of printing a number
        config = Path(__file__).resolve().parents[1] / "configs" / "rayleigh_0db.json"
        argv = ["point", "--config", str(config), "--n", str(2**53), "--curves", "converse"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "Traceback" not in err

    def test_module_entry_point_runs_without_runtime_warning(self):
        # the package must not import the cli module that ``-m`` then runs
        src = str(Path(ambc_fbl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        config = Path(__file__).resolve().parents[1] / "configs" / "rayleigh_tag_target.json"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "ambc_fbl.cli",
             "tag-convert", "--config", str(config)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    CLOSED_FORM = ["--curves", "capacity,normal_approx"]
    # the pinned "raw" case on one draw, so the bounds run but stay cheap
    ALL_CURVES = {"channel_draws": 1, "snr_db": -20.0, "eps": 0.3, "n_grid": [8, 16]}

    @pytest.mark.parametrize(
        "argv, overrides",
        [
            (None, {}),
            (["sweep", "--out", "out.csv", *CLOSED_FORM], {}),
            (["sweep", "--out", "out.csv", *CLOSED_FORM], {"eps": None, "eps_d": 0.1}),
            (["point", "--n", "100", *CLOSED_FORM], {}),
            (["tag-convert"], {}),
            (["sweep", "--out", "out.csv"], ALL_CURVES),
            (["point", "--n", "16"], ALL_CURVES),
        ],
        ids=["import", "sweep_eps", "sweep_eps_d", "point", "tag_convert", "sweep_all_curves", "point_all_curves"],
    )
    def test_closed_form_commands_leave_scipy_unloaded(self, tmp_path, argv, overrides):
        # Q, its inverse, log I, complex ln Gamma and the K1 Newton search
        # are numpy and standard-library code, so no command loads any scipy
        # module, the Monte Carlo bounds included
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(_config(**{"channel_draws": 20, **overrides}))))
        script = "import os, sys\nimport ambc_fbl\n"
        if argv is not None:
            argv = [argv[0], "--config", str(cfg_path), *argv[1:]]
            script += (
                f"os.chdir({str(tmp_path)!r})\n"
                "from ambc_fbl.cli import main\n"
                f"assert main({argv!r}) == 0\n"
            )
        script += (
            "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        _run_fresh(script)
        if argv is not None and argv[0] == "sweep":
            rows = (tmp_path / "out.csv").read_text().strip().splitlines()
            assert len(rows) == 1 + len(_config(**overrides).n_grid)

    def test_cold_all_curves_sweep_writes_the_recorded_csv(self, tmp_path):
        # the in-process pinned sweeps run after the tests imported scipy;
        # here no scipy module is loaded before or after, and with two
        # usable CPUs the bounds may first run on a pool worker thread
        overrides, text = TestDeterminism.PINNED["low_snr"]
        cfg_path = tmp_path / "low_snr.json"
        cfg_path.write_text(json.dumps(asdict(_config(channel_draws=2, **overrides))))
        out = tmp_path / "out.csv"
        argv = ["sweep", "--config", str(cfg_path), "--out", str(out)]
        _run_fresh(
            "import sys\n"
            "from ambc_fbl.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        assert out.read_text() == text

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

    @pytest.mark.parametrize("snr_db", [-170.0, 2000.0, 3100.0])
    def test_snr_outside_the_range_exits_2(self, tmp_path, capsys, snr_db):
        # without the range: -170 dB fails inside waterfilling, 2000 dB
        # overflows (1 + y)^2 in the dispersion, and 3100 dB overflows the
        # power conversion
        cfg_path = tmp_path / "snr.json"
        cfg_path.write_text(json.dumps(dict(asdict(_config()), snr_db=snr_db)))
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]
        assert main(argv + ["--curves", "capacity,normal_approx"]) == 2
        assert "snr_db must lie in [-100, 100]" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", [-100.0, 100.0])
    def test_snr_range_ends_give_rows(self, tmp_path, capsys, snr_db):
        cfg = _config(snr_db=snr_db, n_grid=[16], channel_draws=1)
        cfg_path = tmp_path / "snr.json"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        cells = out.read_text().strip().splitlines()[1].split(",")
        assert all(math.isfinite(float(x)) for x in cells)

    @pytest.mark.parametrize("k_factor_db", [-100.0, 100.0])
    def test_k_factor_range_ends_give_rows(self, tmp_path, capsys, k_factor_db):
        cfg = _config(fading="rician", k_factor_db=k_factor_db, n_grid=[16], channel_draws=1)
        cfg_path = tmp_path / "rician.json"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        cells = out.read_text().strip().splitlines()[1].split(",")
        assert all(math.isfinite(float(x)) for x in cells)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            # without the range, 10^(K/10) overflows in the channel draw
            (dict(fading="rician", k_factor_db=4000.0), "k_factor_db must lie in [-100, 100]"),
            # without the floor, 1 - eps rounds to 1 and no quantile exists
            (dict(eps=1e-17), "eps must be at least 1e-12"),
            # without the bound, the grid becomes an object array that the
            # closed-form curves cannot take the square root of
            (dict(n_grid=[8, 10**22]), "n_grid entries must be at most 2**53"),
        ],
    )
    @pytest.mark.parametrize("curves", [None, "converse"])
    def test_config_outside_the_ranges_exits_2(self, tmp_path, capsys, overrides, message, curves):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(asdict(_config()), **overrides)))
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]
        assert main(argv + (["--curves", curves] if curves else [])) == 2
        assert message in capsys.readouterr().err

    def test_blocklength_bound_gives_rows_and_a_point_above_it_exits_2(self, tmp_path, capsys):
        cfg = _config(n_grid=[8, 2**53], channel_draws=1, curves=["capacity", "normal_approx"])
        cfg_path = tmp_path / "long.json"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        cells = out.read_text().strip().splitlines()[2].split(",")
        assert cells[0] == str(2**53) and all(math.isfinite(float(x)) for x in cells[1:3])
        capsys.readouterr()
        assert main(["point", "--config", str(cfg_path), "--n", str(10**22)]) == 2
        assert "n_grid entries must be at most 2**53" in capsys.readouterr().err

    @pytest.mark.parametrize("curves", ["achievability", "converse", None])
    def test_eps_floor_starves_the_bounds(self, tmp_path, capsys, curves):
        # 2000 draws at eps = 1e-12 expect 1e-9 draws below the lowest
        # threshold; unguarded, the achievability read 1.92916 at n = 1000,
        # above the normal approximation's 1.78201
        cfg = _config(eps=1e-12, n_grid=[16], channel_draws=1)
        cfg_path = tmp_path / "eps.json"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]
        assert main(argv + (["--curves", curves] if curves else [])) == 3
        err = capsys.readouterr().err
        assert "less than one conditional draw" in err and "Traceback" not in err

    def test_eps_floor_gives_rows(self, tmp_path, capsys):
        cfg = _config(eps=1e-12, n_grid=[16], channel_draws=1, curves=["capacity", "normal_approx"])
        cfg_path = tmp_path / "eps.json"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        cells = out.read_text().strip().splitlines()[1].split(",")
        assert all(math.isfinite(float(x)) for x in cells[:3])

    def test_starved_deep_tail_exits_3(self, tmp_path, capsys):
        # 1e5 draws at eps = 1e-6 expect 0.05 draws below the lowest
        # threshold; unguarded, the achievability read 24.0174 with a CI of
        # 3.7e-5 at n = 2000, against an exact 23.9779
        cfg = dict(t=8, r=8, fading="rayleigh", a_coeff=0.5, snr_db=10.0, eps=1e-6,
                   n_grid=[500, 2000], mc_samples=100_000, channel_draws=1, seed=3)
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["point", "--config", str(cfg_path), "--n", "2000"]) == 3
        assert "mc_samples * eps / 2 = 0.05 < 1" in capsys.readouterr().err

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


@st.composite
def _envelope_configs(draw):
    """Configs from the documented envelope: 1-4 antennas a side, Rayleigh or
    Rician fading, an SNR from -10 to 30 dB, exactly one of eps / eps_d, one
    or two blocklengths from 8 to 2000 and one to six draws (so a batch can
    mix skipped and kept draws), with every curve."""
    cfg = dict(
        t=draw(st.integers(1, 4)),
        r=draw(st.integers(1, 4)),
        fading="rayleigh",
        a_coeff=draw(st.floats(0.0, 1.0)),
        snr_db=draw(st.floats(-10.0, 30.0)),
        n_grid=sorted(draw(st.sets(st.integers(8, 2000), min_size=1, max_size=2))),
        mc_samples=1000,
        channel_draws=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32)),
    )
    if draw(st.booleans()):
        cfg.update(fading="rician", k_factor_db=draw(st.floats(-10.0, 20.0)))
    if draw(st.booleans()):
        cfg["eps"] = 10 ** draw(st.floats(-6.0, math.log10(0.3)))
    else:
        cfg["eps_d"] = draw(st.floats(1e-4, 0.5))
    return cfg


class TestEnvelope:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(cfg=_envelope_configs())
    def test_sweep_gives_rows_or_a_documented_exit(self, cfg):
        # an escaping exception fails the example
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "out.csv"
            cfg_path.write_text(json.dumps(cfg))
            code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
            assert code in (0, 2, 3)
            if code == 0:
                rows = list(csv.DictReader(out.read_text().splitlines()))
                assert [int(row["n"]) for row in rows] == cfg["n_grid"]
                for row in rows:
                    ach, conv = float(row["ach_bits"]), float(row["conv_bits"])
                    if math.isfinite(ach) and math.isfinite(conv):
                        assert ach <= conv
