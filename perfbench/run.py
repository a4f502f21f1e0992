#!/usr/bin/env python3
"""Benchmark of the ambc-fbl finite-blocklength calculator.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_mc --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload sweep_mc --seed 1 --seconds 50 --trace 1

Every repetition runs in a fresh interpreter (``child.py``) with one BLAS
thread, so imports and the ``lru_cache`` of the K1 constant are paid the way
a command-line user pays them.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of ``tracer.py``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON report with the
run's environment and details.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.dont_write_bytecode = True

import gate  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

CURVES_ALL = ("capacity", "normal_approx", "achievability", "converse")
MC_DRAWS = 1
# three points of the shipped 8-point grid keep a repetition near 3 s, so a
# run holds several and its median outlasts the machine's bursts
MC_N_GRID = [100, 500, 2000]
CLOSED_FORM_DRAWS = 3000
# at the shipped eps_d = 1e-3 nearly every Rayleigh draw is infeasible
CLOSED_FORM_EPS_D = 0.1
POINT_NS = (100, 1000, 4000)
POINT_MC_SEEDS = tuple(range(16))
# two repetitions (or traced pairs) at least, so every run checks that its
# outputs repeat
MIN_REPS = 2
MIN_SETUPS = 5
# the whole run must end within 180 s; children are killed past this
RUN_LIMIT_S = 160.0

SWEEPS = {
    "sweep_mc": {
        "config": "rayleigh_0db.json",
        "overrides": {"channel_draws": MC_DRAWS, "n_grid": MC_N_GRID},
        "curves": CURVES_ALL,
        "modes": (2, 2),
    },
    "sweep_closed_form": {
        "config": "rayleigh_tag_target.json",
        "overrides": {"channel_draws": CLOSED_FORM_DRAWS, "eps_d": CLOSED_FORM_EPS_D},
        "curves": ("capacity", "normal_approx"),
        "modes": None,
    },
}
WORKLOADS = tuple(SWEEPS)
POINTS_CONFIG = "rician_k10_0db.json"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "point_p50_s": "s",
    "point_p75_s": "s",
    "gap_bits": "bits",
    **{f"{side}_sd_bits.n{n}": "bits" for side in ("ach", "conv") for n in POINT_NS},
}


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _p75(values: List[float]) -> float:
    return float(statistics.quantiles(values, n=4, method="inclusive")[2])


def _steal_seconds() -> Optional[float]:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _derived_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Bench:
    """One benchmark run: generates the inputs, runs the repetitions, gates
    their outputs and reduces them to metrics."""

    def __init__(self, workload: str, seed: int, seconds: int, work: Path):
        import ambc_fbl

        self.lib = ambc_fbl
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.start = time.perf_counter()
        self.jobs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.rep_times = None
        self.config_seed = None
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            PYTHONDONTWRITEBYTECODE="1",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.points_config = self._points_config()
        self.spec = SWEEPS[workload]
        self.sweep_config = self._sweep_config()
        self.sweep_path = self._write("sweep.json", self.sweep_config)

    # -- inputs ---------------------------------------------------------------

    def _load_config(self, name: str) -> Dict:
        with open(CONFIGS / name, encoding="utf-8") as fh:
            return json.load(fh)

    def _active_modes(self, cfg, rng) -> tuple:
        lib = self.lib
        ch = lib.draw_channel(rng, cfg.t, cfg.r, cfg.fading_spec, cfg.a_coeff)
        return tuple(
            int((lib.waterfill(lib.eigen_spectrum(lib.composite(ch, d)), cfg.total_power).p > 0).sum())
            for d in (-1, +1)
        )

    def _write(self, name: str, data: Dict) -> str:
        path = self.work / name
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")
        return str(path)

    def _points_config(self) -> str:
        # The accuracy metrics are read on one fixed channel, the shipped
        # config's own first draw, with fixed MC seeds: a channel drawn from
        # the workload seed moves the seed-to-seed sd by 15-20 % between
        # channels, as much as any bound could allow (see README.md).
        return self._write("points.json", self._load_config(POINTS_CONFIG))

    def _sweep_config(self):
        data = self._load_config(self.spec["config"])
        data.update(self.spec["overrides"])
        cfg_seed = self.seed
        modes = self.spec["modes"]
        if modes is not None:
            # The MC work per draw grows with the number of active eigenmodes
            # (2, 3 or 4 over both tag symbols for a 0 dB Rayleigh draw), so
            # the workload keeps the first seed from its stream whose draws
            # all have ``modes`` active modes; ``run_sweep`` draws channel k
            # from SeededRng(seed).split(k).split(0).
            probe = self.lib.ExperimentConfig.from_dict(data)
            for index in range(1000):
                cfg_seed = _derived_seed(self.seed, index)
                root = self.lib.SeededRng(cfg_seed)
                if all(
                    self._active_modes(probe, root.split(k).split(0)) == modes
                    for k in range(data["channel_draws"])
                ):
                    break
            else:
                raise RuntimeError(f"no seed with active modes {modes}")
        data["seed"] = self.config_seed = cfg_seed
        return data

    # -- repetitions ----------------------------------------------------------

    def _spawn(self, job: Dict) -> Dict:
        """Run one child; return its timings, result and captured stderr."""
        self.jobs += 1
        tag = f"job{self.jobs}"
        job = dict(job, result=str(self.work / f"{tag}.result.json"),
                   spans=str(self.work / f"{tag}.spans.json"))
        job_path = self._write(f"{tag}.json", job)
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.start)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), job_path],
                cwd=self.work, env=self.env, capture_output=True, text=True,
                timeout=max(remaining, 1.0),
            )
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, stderr = None, "timed out"
        ended = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = {
            "ok": code == 0,
            "wall": ended - spawned,
            "cpu": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
            "stderr": stderr[-2000:],
            "job": job,
        }
        if code == 0:
            with open(job["result"], encoding="utf-8") as fh:
                res = json.load(fh)
            out.update(res=res, setup=res["ready"] - spawned, rss_mb=res["maxrss_kb"] / 1024.0)
        else:
            self.problems.append(f"{tag} exited with {code}: {stderr[-300:]}")
        return out

    def sweep_rep(self, trace: bool = False) -> Dict:
        out_csv = self.work / f"sweep{self.jobs + 1}.csv"
        argv = ["sweep", "--config", self.sweep_path, "--out", str(out_csv)]
        if self.spec["curves"] != CURVES_ALL:
            argv += ["--curves", ",".join(self.spec["curves"])]
        rep = self._spawn({"kind": "sweep", "config": self.sweep_path, "argv": argv,
                           "trace": trace, "setup_only": False})
        cfg = self.sweep_config
        ops = cfg["channel_draws"] * len(cfg["n_grid"])
        self.attempted += ops
        rep.update(ops=ops, digest=None, skipped=0)
        if rep["ok"] and rep["res"]["exit_code"] == 0:
            text = out_csv.read_bytes()
            meta = json.loads(out_csv.with_name(out_csv.name + ".meta.json").read_text("utf-8"))
            rep.update(csv=text, digest=hashlib.sha256(text).hexdigest(),
                       skipped=meta["skipped_realizations"])
            problems = gate.check_sweep(text.decode("utf-8"), cfg, self.spec["curves"], rep["skipped"])
        elif rep["ok"]:
            problems = [f"sweep exited with {rep['res']['exit_code']}: {rep['stderr'][-300:]}"]
        else:
            problems = ["sweep did not finish"]
        if problems:
            rep["ok"] = False
            self.failed += ops
            self.problems += problems
        return rep

    def points_rep(self, n: int) -> Dict:
        rep = self._spawn({"kind": "points", "config": self.points_config, "ns": [n],
                           "seeds": list(POINT_MC_SEEDS), "trace": False, "setup_only": False})
        ops = len(POINT_MC_SEEDS)
        self.attempted += ops
        if not rep["ok"]:
            self.failed += ops
            return rep
        points = rep["res"]["points"]
        for n, seed, ach, conv, _, error in points:
            problems = [error] if error else gate.check_point(ach, conv)
            if problems:
                rep["ok"] = False
                self.failed += 1
                self.problems += [f"point n={n} seed={seed}: {p}" for p in problems]
        return rep

    def setup_rep(self) -> float:
        rep = self._spawn({"kind": "sweep", "config": self.sweep_path,
                           "trace": False, "setup_only": True})
        return rep["setup"] if rep["ok"] else None

    # -- checks ---------------------------------------------------------------

    def check_repeats(self, reps: List[Dict]) -> None:
        """Identical code and seed must give identical bytes in every rep."""
        digests = {rep["digest"] for rep in reps if rep["digest"]}
        if len(digests) > 1:
            for rep in reps[1:]:
                if rep["digest"] != reps[0]["digest"]:
                    self.failed += rep["ops"]
            self.problems.append(f"outputs differ between repetitions: {sorted(digests)}")

    # -- runs -----------------------------------------------------------------

    def schedule(self, job, extras=()) -> tuple:
        """Run ``job`` over and over for ``seconds`` and each of the
        ``extras`` once, the k-th of m as soon as (k + 1/4) / m of the
        ``seconds`` have passed; return the results of both.  ``job`` runs
        at least MIN_REPS times, and past that only while one more, as long
        as the last, ends within ``seconds`` of the start.  The machine's
        speed drifts over tens of seconds, so every kind of sample is spread
        over the whole run, and their medians see the same drift."""
        reps, done, last = [], [], 0.0
        began = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - began
            over = len(reps) >= MIN_REPS and elapsed + last > self.seconds
            if len(done) < len(extras) and (
                    over or elapsed >= (len(done) + 0.25) / len(extras) * self.seconds):
                done.append(extras[len(done)]())
            elif over:
                return reps, done
            else:
                start = time.perf_counter()
                reps.append(job())
                last = time.perf_counter() - start

    def run_untraced(self) -> Dict[str, float]:
        # Every end-to-end metric is reported on every workload, so a run
        # also makes one point pass, one process per n.  One pass only:
        # repeating some n would change the mix of latencies point_p50_s and
        # point_p75_s are read from.
        reps, accuracy = self.schedule(
            self.sweep_rep, [lambda n=n: self.points_rep(n) for n in POINT_NS])
        self.rep_times = [[round(rep["wall"], 3), round(rep["cpu"], 3)] for rep in reps]
        setups = [rep["setup"] for rep in reps if rep["ok"]]
        self.check_repeats(reps)
        for _ in range(MIN_SETUPS - len(setups)):
            setup = self.setup_rep()
            if setup is not None:
                setups.append(setup)
        return self._end_to_end(reps, setups, accuracy)

    def _end_to_end(self, reps, setups, accuracy) -> Dict[str, float]:
        good = [rep for rep in reps if rep["ok"]]
        points_ok = [rep for rep in accuracy if rep["ok"]]
        if not good or not setups or not points_ok:
            return {}
        metrics = {
            "setup_s": _median(setups),
            "wall_s": _median([rep["wall"] for rep in good]),
            "cpu_s": _median([rep["cpu"] for rep in good]),
            "ops_per_s": _median([rep["ops"] / rep["wall"] for rep in good]),
            "peak_rss_mb": _median([rep["rss_mb"] for rep in good]),
            "ok_frac": 1.0 - self.failed / self.attempted,
        }
        points = [p for rep in points_ok for p in rep["res"]["points"]]
        latencies = [p[4] for p in points]
        metrics["point_p50_s"] = _median(latencies)
        metrics["point_p75_s"] = _p75(latencies)
        rates = {(n, seed): (ach, conv) for n, seed, ach, conv, _, _ in points}
        if len(rates) != len(POINT_NS) * len(POINT_MC_SEEDS):
            return {}
        metrics["gap_bits"] = statistics.fmean(conv - ach for ach, conv in rates.values())
        for n in POINT_NS:
            at_n = [rates[(n, seed)] for seed in POINT_MC_SEEDS]
            metrics[f"ach_sd_bits.n{n}"] = statistics.stdev(ach for ach, _ in at_n)
            metrics[f"conv_sd_bits.n{n}"] = statistics.stdev(conv for _, conv in at_n)
        return metrics

    def run_traced(self) -> Dict[str, float]:
        pairs, _ = self.schedule(lambda: (self.sweep_rep(), self.sweep_rep(trace=True)))
        for plain, traced in pairs:
            if plain["ok"] and traced["ok"] and plain["digest"] != traced["digest"]:
                self.failed += traced["ops"]
                self.problems.append("traced output differs from the untraced output")
        self.check_repeats([rep for pair in pairs for rep in pair])
        summaries, overheads = [], []
        channels = self.sweep_config["channel_draws"]
        for plain, traced in pairs:
            if not (plain["ok"] and traced["ok"]):
                continue
            with open(traced["job"]["spans"], encoding="utf-8") as fh:
                spans = json.load(fh)
            summaries.append(tracer.summarize(spans, channels, traced["skipped"]))
            overheads.append(traced["wall"] - plain["wall"])
        if not summaries:
            return {}
        metrics = {key: _median([s[key] for s in summaries]) for key in summaries[0]}
        metrics["trace.overhead_s"] = _median(overheads)
        return metrics

    def report(self) -> Dict:
        import numpy
        import scipy

        return {
            "workload": self.name,
            "seed": self.seed,
            "config_seed": self.config_seed,
            "elapsed_s": round(time.perf_counter() - self.start, 3),
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "rep_wall_cpu_s": self.rep_times,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SRC / "ambc_fbl" / "cli.py", CONFIGS / POINTS_CONFIG) if not p.is_file()]
    if missing:
        print(f"perfbench: run from a checkout of the repository; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    steal_before = _steal_seconds()
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        if args.trace:
            metrics, units = bench.run_traced(), tracer.PER_LAYER
        else:
            metrics, units = bench.run_untraced(), END_TO_END
        report = bench.report()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            (HERE / "_work").rmdir()

    steal_after = _steal_seconds()
    if steal_before is not None and steal_after is not None:
        report["steal_s"] = round(steal_after - steal_before, 2)
    complete = set(metrics) == set(units)
    if not complete:
        bench.problems.append("some metrics could not be measured")
    report["problems"] = bench.problems[:20]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": complete and bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
