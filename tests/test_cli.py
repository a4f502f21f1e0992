import json
import math

import pytest

from ambc_fbl.cli import (
    CSV_HEADER,
    ExperimentConfig,
    SweepRow,
    emit_csv,
    format_rows,
    main,
    parse_rows,
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
        again = ExperimentConfig.from_dict(cfg.to_dict())
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
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_round_trip(self, tmp_path):
        rows = [
            SweepRow(16, 1.25, 1.0, 0.75, 1.5, 0.01, 0.02, 3),
            SweepRow(32, 1.5, 1.25, float("nan"), 1.6, float("nan"), 0.01, 3),
        ]
        path = tmp_path / "rows.csv"
        emit_csv(rows, path)
        back = parse_rows(path.read_text())
        for orig, rt in zip(rows, back):
            assert rt.n == orig.n
            for field in ("capacity_bits", "na_bits", "ach_bits", "conv_bits"):
                a, b = getattr(orig, field), getattr(rt, field)
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

    def test_seed_changes_outputs(self, tmp_path):
        r1 = run_sweep(_config(seed=77, curves=["achievability"]))
        r2 = run_sweep(_config(seed=78, curves=["achievability"]))
        assert r1.rows[0].ach_bits != r2.rows[0].ach_bits


class TestMain:
    def test_sweep_and_point_commands(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_config(curves=["capacity", "normal_approx"]).to_dict()))
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
        cfg_path.write_text(json.dumps(_config(curves=["capacity"]).to_dict()))
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
        bad = _config().to_dict()
        bad["eps_d"] = 0.5  # both error modes set
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        assert main(["sweep", "--config", str(cfg_path), "--out", "x.csv"]) == 2
        capsys.readouterr()

    def test_converse_beyond_its_blocklength_limit_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "long.json"
        cfg_path.write_text(json.dumps(dict(_config().to_dict(), n_grid=[16, 5000])))
        assert main(["sweep", "--config", str(cfg_path), "--out", "x.csv"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_tag_convert_prints_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_config().to_dict()))
        assert main(["tag-convert", "--config", str(cfg_path), "--grid", "0.2,1e-9"]) == 0
        out = capsys.readouterr().out
        assert "eps_d,eps,feasible" in out
        assert ",no" in out  # 1e-9 is below any realistic floor
