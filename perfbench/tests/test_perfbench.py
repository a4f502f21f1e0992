"""Fast tests of the benchmark itself.

Run from the repository root:

    PYTHONDONTWRITEBYTECODE=1 python3 -m pytest -q -p no:cacheprovider perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# two of the four draws miss the tag-error target, so the tag skip path runs too
TINY = {
    "t": 2, "r": 3, "fading": "rayleigh", "a_coeff": 0.5, "snr_db": 0.0, "eps_d": 0.1,
    "n_grid": [16, 32], "mc_samples": 2000, "channel_draws": 4, "seed": 1,
}


def _run_child(tmp_path: Path, name: str, job: dict) -> dict:
    job = dict(job, result=str(tmp_path / f"{name}.result.json"),
               spans=str(tmp_path / f"{name}.spans.json"))
    job_path = tmp_path / f"{name}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(run.os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(job_path)],
                   env=env, cwd=tmp_path, check=True, timeout=120)
    result = json.loads(Path(job["result"]).read_text("utf-8"))
    if job["trace"]:
        result["spans"] = json.loads(Path(job["spans"]).read_text("utf-8"))
    return result


def _sweep(tmp_path: Path, name: str, trace: bool) -> dict:
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    out = tmp_path / f"{name}.csv"
    result = _run_child(tmp_path, name, {
        "kind": "sweep", "config": str(cfg), "trace": trace, "setup_only": False,
        "argv": ["sweep", "--config", str(cfg), "--out", str(out)],
    })
    meta = json.loads(out.with_name(out.name + ".meta.json").read_text("utf-8"))
    return dict(result, csv=out.read_text("utf-8"), skipped=meta["skipped_realizations"])


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    return _sweep(tmp, "plain", trace=False), _sweep(tmp, "traced", trace=True)


def test_smoke_run_calls_every_traced_function(tiny_runs):
    plain, traced = tiny_runs
    assert plain["exit_code"] == traced["exit_code"] == 0
    layer = tracer.summarize(traced["spans"], TINY["channel_draws"], traced["skipped"])
    uncalled = [name for name in tracer.traced_names() if layer[f"{name}.calls"] < 1]
    assert uncalled == []
    assert traced["skipped"] == 2
    assert layer["tag.eps_given_tag_error.errors"] == traced["skipped"]
    assert layer["tag.skipped_frac"] == pytest.approx(0.5)


def test_traced_csv_equals_untraced_and_passes_the_gate(tiny_runs):
    plain, traced = tiny_runs
    assert traced["csv"] == plain["csv"]
    assert gate.check_sweep(plain["csv"], TINY, run.CURVES_ALL, plain["skipped"]) == []


def test_traced_points_reach_the_bound_functions(tmp_path):
    cfg = dict(TINY, fading="rician", k_factor_db=10.0, eps=0.1, eps_d=None)
    (tmp_path / "points.json").write_text(json.dumps(cfg), encoding="utf-8")
    result = _run_child(tmp_path, "points", {
        "kind": "points", "config": str(tmp_path / "points.json"), "ns": [16, 32],
        "seeds": [0, 1], "trace": True, "setup_only": False,
    })
    assert [p[5] for p in result["points"]] == [None] * 4
    layer = tracer.summarize(result["spans"], channels=1, skipped=0)
    assert layer["bounds_ach.achievability_rate.calls"] == 4
    assert layer["bounds_conv.converse_rate.calls"] == 4
    assert {span[5] for span in result["spans"]} == {0, 1, 2, 3}


def test_self_time_excludes_child_spans():
    spans = [
        [0, "bounds_ach.achievability_rate", 0.0, 10.0, -1, 0, {}],
        [1, "bounds_ach.achievability_beta", 1.0, 4.0, 0, 0, {"tilted": True}],
        [2, "bounds_ach.achievability_beta", 5.0, 6.0, 0, 0, {"tilted": False}],
    ]
    layer = tracer.summarize(spans, channels=1, skipped=0)
    assert layer["bounds_ach.achievability_rate.self_s"] == pytest.approx(6.0)
    assert layer["bounds_ach.achievability_rate.total_s"] == pytest.approx(10.0)
    assert layer["bounds_ach.achievability_beta.calls"] == 2
    assert layer["bounds_ach.achievability_beta.tilted_frac"] == pytest.approx(0.5)


def _doctor(csv_text: str, edit) -> str:
    lines = csv_text.splitlines()
    cells = lines[1].split(",")
    edit(cells)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_gate_rejects_swapped_bounds(tiny_runs):
    csv_text = tiny_runs[0]["csv"]

    def swap(cells):
        cells[3], cells[4] = cells[4], cells[3]

    problems = gate.check_sweep(_doctor(csv_text, swap), TINY, run.CURVES_ALL, 2)
    assert any("ach_bits" in p and "conv_bits" in p for p in problems)


def test_gate_rejects_nan_row(tiny_runs):
    csv_text = tiny_runs[0]["csv"]

    def blank(cells):
        cells[1:7] = ["nan"] * 6

    problems = gate.check_sweep(_doctor(csv_text, blank), TINY, run.CURVES_ALL, 2)
    assert any("not finite" in p for p in problems)


def test_gate_rejects_missing_rows_and_draws(tiny_runs):
    csv_text = tiny_runs[0]["csv"]
    short = "\n".join(csv_text.splitlines()[:-1]) + "\n"
    assert gate.check_sweep(short, TINY, run.CURVES_ALL, 2)
    assert gate.check_sweep(csv_text, TINY, run.CURVES_ALL, skipped=1)


def test_gate_checks_points():
    assert gate.check_point(1.0, 1.5) == []
    assert gate.check_point(1.5, 1.0)
    assert gate.check_point(math.nan, 1.0)


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert spec["paths"] == [BENCH_DIR.name]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "sweep_mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
