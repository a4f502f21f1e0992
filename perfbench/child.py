"""One benchmark repetition, run in a fresh interpreter.

Usage: python3 child.py JOB.json

The job file names the work ("sweep" or "points"), its inputs, and where to
write the result.  The child reaches the program only through
``ambc_fbl.cli.main`` and the public library functions, and reports its own
timestamps (``time.perf_counter``, the system-wide monotonic clock, so the
parent can subtract its spawn time), exit status and peak RSS.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from tracer import Tracer


def _points(job, tracer, cli):
    import ambc_fbl as lib
    from ambc_fbl import SeededRng
    from ambc_fbl.errors import (
        ConvergenceError,
        InfeasibleTargetError,
        InsufficientSamplesError,
        OverflowRegimeError,
        ZeroSpectrumError,
    )

    # the failures the library documents for a single bound evaluation
    failures = (
        ConvergenceError,
        InfeasibleTargetError,
        InsufficientSamplesError,
        OverflowRegimeError,
        ZeroSpectrumError,
        FloatingPointError,
    )
    cfg = cli.ExperimentConfig.from_json_file(job["config"])
    ch = lib.draw_channel(SeededRng(cfg.seed).split(0), cfg.t, cfg.r, cfg.fading_spec, cfg.a_coeff)
    g_plus = lib.eigen_spectrum(lib.composite(ch, +1))
    g_minus = lib.eigen_spectrum(lib.composite(ch, -1))
    ready = time.perf_counter()
    if job["setup_only"]:
        return ready, {}
    if tracer:
        # installed after set-up; the calls below resolve through the
        # package, so they reach the wrappers
        tracer.install()
    points = []
    for n in job["ns"]:
        for seed in job["seeds"]:
            if tracer:
                tracer.run = len(points)
            mc = SeededRng(seed)
            start = time.perf_counter()
            try:
                ach = lib.achievability_rate(
                    n, g_plus, g_minus, cfg.total_power, cfg.eps, mc.split(2 * n), cfg.mc_samples
                )
                conv = lib.converse_rate(
                    n, g_plus, g_minus, cfg.total_power, cfg.eps, mc.split(2 * n + 1), cfg.mc_samples
                )
                rates, error = (ach.rate_bits, conv.rate_bits), None
            except failures as exc:
                rates, error = (None, None), f"{type(exc).__name__}: {exc}"
            points.append([n, seed, *rates, time.perf_counter() - start, error])
    return ready, {"points": points}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from ambc_fbl import cli

    tracer = Tracer() if job["trace"] else None
    if job["kind"] == "points":
        ready, out = _points(job, tracer, cli)
    else:
        cli.ExperimentConfig.from_json_file(job["config"])
        ready = time.perf_counter()
        out = {}
        if not job["setup_only"]:
            if tracer:
                tracer.install()
            out["exit_code"] = cli.main(job["argv"])
    out["ready"] = ready
    out["done"] = time.perf_counter()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
        tracer.dump(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
