import csv
import json
import math
from dataclasses import asdict

import pytest

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
from ambc_fbl.errors import ConfigError


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

    def test_tag_convert_prints_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(asdict(_config())))
        assert main(["tag-convert", "--config", str(cfg_path), "--grid", "0.2,1e-9"]) == 0
        out = capsys.readouterr().out
        assert "eps_d,eps,feasible" in out
        assert ",no" in out  # 1e-9 is below any realistic floor
