"""Experiment orchestration: JSON configuration, blocklength sweeps averaged
over channel realizations, CSV emission with a JSON metadata sidecar, and the
command-line entry point (subcommands sweep, point, tag-convert)."""

from __future__ import annotations

import argparse
import json
import math
import numbers
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import asymptotics, bounds_ach, bounds_conv, tag
from .channel import (
    ChannelRealization,
    EigenSpectrum,
    Fading,
    composite,
    draw_channel,
    eigen_spectrum,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleTargetError,
    InsufficientSamplesError,
    OverflowRegimeError,
    ZeroSpectrumError,
)
from .numerics import SeededRng
from .power import waterfill

CURVES = ("capacity", "normal_approx", "achievability", "converse")
CSV_HEADER = "n,capacity_bits,na_bits,ach_bits,conv_bits,ach_ci,conv_ci,draws"

# the accepted transmit SNR in dB, P from 1e-10 to 1e10 in unit-noise units.
# Inside it, waterfilling resolves P against 1/g_max for every g_max above
# about 1e-6 (at g_max = 1, P + 1/g_max == 1/g_max below about -160 dB), and
# (1 + g p)^2 in the dispersion stays far from its overflow at g p ~ 1e154.
SNR_DB_RANGE = (-100.0, 100.0)
# the accepted Rician K-factor in dB, K from 1e-10 to 1e10; the conversion
# 10^(K/10) overflows a double above about 3083 dB
K_FACTOR_DB_RANGE = (-100.0, 100.0)
# the smallest eps, also the clamp of converted eps_d values: below about
# 1e-16, 1 - eps rounds to 1, where the bounds' quantiles do not exist
MIN_EPS = 1e-12
# the largest blocklength: the curves take n as a double, exact up to 2**53,
# and past 2**63 the grid no longer fits an int64 array
MAX_N = 2**53

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_NUMERIC_FAILURES = (
    ConvergenceError,
    InsufficientSamplesError,
    OverflowRegimeError,
    ZeroSpectrumError,
    InfeasibleTargetError,
    FloatingPointError,
)


def _integer(name: str, value) -> int:
    """``value`` as an int; floats (even integral ones) and booleans fail."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _check_range(name: str, value: float, bounds: Tuple[float, float]) -> None:
    if not bounds[0] <= value <= bounds[1]:
        raise ConfigError(f"{name} must lie in [{bounds[0]:g}, {bounds[1]:g}]")


@dataclass(frozen=True)
class ExperimentConfig:
    t: int
    r: int
    fading: str
    a_coeff: float
    snr_db: float
    n_grid: Tuple[int, ...]
    seed: int
    k_factor_db: Optional[float] = None
    eps: Optional[float] = None
    eps_d: Optional[float] = None
    mc_samples: int = 100_000
    channel_draws: int = 100
    curves: Tuple[str, ...] = CURVES

    def __post_init__(self) -> None:
        for name in ("t", "r", "mc_samples", "channel_draws", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("snr_db", "a_coeff", "eps", "eps_d", "k_factor_db"):
            value = getattr(self, name)
            if value is not None or name in ("snr_db", "a_coeff"):
                _check_real(name, value)
        _check_range("snr_db", self.snr_db, SNR_DB_RANGE)
        if self.k_factor_db is not None:
            _check_range("k_factor_db", self.k_factor_db, K_FACTOR_DB_RANGE)
        if self.t < 1 or self.r < 1:
            raise ConfigError("antenna counts must be >= 1")
        if self.fading not in ("rayleigh", "rician"):
            raise ConfigError(f"unknown fading {self.fading!r}")
        if self.fading == "rician" and self.k_factor_db is None:
            raise ConfigError("rician fading requires k_factor_db")
        if not 0.0 <= self.a_coeff <= 1.0:
            raise ConfigError("a_coeff must lie in [0, 1]")
        if (self.eps is None) == (self.eps_d is None):
            raise ConfigError("exactly one of eps / eps_d must be set")
        for name, value in (("eps", self.eps), ("eps_d", self.eps_d)):
            if value is not None and not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1)")
        if self.eps is not None and self.eps < MIN_EPS:
            raise ConfigError(f"eps must be at least {MIN_EPS:g}")
        for name in ("n_grid", "curves"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"{name} must be a JSON array, got {getattr(self, name)!r}")
        grid = tuple(_integer("n_grid entries", n) for n in self.n_grid)
        if not grid or any(n < 8 for n in grid):
            raise ConfigError("n_grid entries must be >= 8")
        if any(n > MAX_N for n in grid):
            raise ConfigError("n_grid entries must be at most 2**53")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.mc_samples < 1000:
            raise ConfigError("mc_samples must be >= 1000")
        if self.channel_draws < 1:
            raise ConfigError("channel_draws must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        curves = tuple(self.curves)
        unknown = set(curves) - set(CURVES)
        if unknown:
            raise ConfigError(f"unknown curves {sorted(unknown)}")
        if not curves:
            raise ConfigError("at least one curve must be requested")
        object.__setattr__(self, "curves", curves)

    @property
    def total_power(self) -> float:
        # 0 dB SNR is unit transmit power in unit-noise channel units
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def fading_spec(self) -> Fading:
        if self.fading == "rayleigh":
            return Fading.rayleigh()
        return Fading.rician(self.k_factor_db)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        # ValueError covers JSONDecodeError and UnicodeDecodeError; a deeply
        # nested document exhausts the parser's recursion
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class SweepRow:
    n: int
    capacity_bits: float
    na_bits: float
    ach_bits: float
    conv_bits: float
    ach_ci: float
    conv_ci: float
    draws: int


@dataclass(frozen=True)
class SweepResult:
    rows: List[SweepRow]
    config: ExperimentConfig
    skipped_realizations: int
    nan_reasons: Dict[str, str] = field(default_factory=dict)


@dataclass
class _SetUp:
    """The set-up pass over a sweep's draws: the kept draws' indices, their
    eps and spectra (one batch per tag symbol), capacity and the normal
    approximation in bits as (n, draw) arrays, and the skip count."""

    draws: List[int]
    eps: List[float]
    spectra: Dict[int, EigenSpectrum]
    curves: Dict[str, np.ndarray]
    skipped: int


def _closed_form(config: ExperimentConfig, batch: ChannelRealization, eps: List[float]):
    """Spectra, capacity and the normal approximation of every draw of the
    batch at once: one call of each layer per tag symbol, on arrays with a
    leading draw axis."""
    n = np.array(config.n_grid)[:, None]
    spectra, cap, na = {}, [], []
    for d in (-1, +1):
        spec = eigen_spectrum(composite(batch, d))
        alloc = waterfill(spec, config.total_power)
        c = asymptotics.capacity(spec, alloc)
        v = asymptotics.dispersion(spec, alloc)
        spectra[d] = spec
        cap.append(c)
        if "normal_approx" in config.curves:
            na.append(asymptotics.normal_approximation(c, v, n, np.array(eps)))
    ln2 = math.log(2)
    curves = {}
    if "capacity" in config.curves:
        cap_bits = 0.5 * (cap[0] + cap[1]) / ln2
        curves["capacity"] = np.repeat(cap_bits[None, :], n.size, axis=0)
    if na:
        curves["normal_approx"] = 0.5 * (na[0] + na[1]) / ln2
    return spectra, curves


def _set_up(config: ExperimentConfig, root: SeededRng) -> _SetUp:
    """Set up every draw of a sweep in one batched pass.

    Draw k is row k of one batched ``draw_channel`` call, on the stream
    ``root.split(k).split(0)``.  With ``eps_d``, the tag models of all draws
    come from one batched ``TagErrorModel.from_pair``, and each draw converts
    its target to its eps on its own; a draw that cannot reach the target,
    or has no tag link, is skipped.  The kept rows then run batched
    (``_closed_form``).  Any other numeric failure propagates at once.
    """
    streams = [root.split(k).split(0) for k in range(config.channel_draws)]
    batch = draw_channel(streams, config.t, config.r, config.fading_spec, config.a_coeff)
    if config.eps is not None:
        draws, eps = list(range(config.channel_draws)), [config.eps] * config.channel_draws
    else:
        draws, eps = [], []
        models = tag.TagErrorModel.from_pair(composite(batch, +1))
        for k, (norm, rho) in enumerate(zip(models.norm_h1.tolist(), models.cross_term.tolist())):
            try:
                eps_k = tag.eps_given_tag_error(tag.TagErrorModel(norm, rho), config.eps_d)
            except InfeasibleTargetError:
                continue
            draws.append(k)
            # endpoint targets map to 0 or 1 exactly; keep the bounds well defined
            eps.append(min(max(eps_k, MIN_EPS), 1.0 - MIN_EPS))
    skipped = config.channel_draws - len(draws)
    if not draws:
        return _SetUp(draws, eps, {}, {}, skipped)
    kept = replace(batch, h_sr=batch.h_sr[draws], h_sg=batch.h_sg[draws], h_gr=batch.h_gr[draws])
    spectra, curves = _closed_form(config, kept, eps)
    return _SetUp(draws, eps, spectra, curves, skipped)


def _aggregate(values: np.ndarray, cis: np.ndarray) -> Tuple[float, float]:
    """The mean of one curve's per-draw ``values`` at one n, and its 95%
    half-width: the standard error of the mean over draws, from the sample
    standard deviation, in quadrature with the per-draw Monte Carlo
    half-widths ``cis``, root-sum-squared and divided by the k draws."""
    k = values.size
    center = float(np.mean(values))
    between = 1.96 * float(values.std(ddof=1)) / math.sqrt(k) if k > 1 else 0.0
    mc = float(np.sqrt((cis**2).sum())) / k
    return center, math.hypot(between, mc)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_calls(calls: Sequence[Callable[[], Any]]) -> list:
    """Results of ``calls``, in list order, evaluated at the same time on
    a pool of min(usable CPUs, len(calls)) threads that ends with the call.
    The caller only waits, so at most one thread per usable CPU computes;
    with one worker the calls run inline, in order, and no thread starts.

    A failing call stops every call after it in list order from starting;
    calls already running are waited for, and the first failure in list
    order is raised, as in a serial run.  An interrupt of the waiting
    caller (``KeyboardInterrupt``) likewise starts no queued call.
    """
    workers = min(_usable_cpus(), len(calls))
    if workers < 2:
        return [call() for call in calls]
    stop = len(calls)  # no call after this index starts
    lock = threading.Lock()

    def run(i: int) -> Any:
        nonlocal stop
        if i > stop:
            return None
        try:
            return calls[i]()
        except BaseException:  # kept by the future, raised below in list order
            with lock:
                stop = min(stop, i)
            raise

    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="ambc-fbl") as pool:
        try:
            futures = [pool.submit(run, i) for i in range(len(calls))]
            wait(futures)
        except BaseException:
            # leaving the block waits for every queued call, so none may start
            stop = -1
            raise
    return [future.result() for future in futures]


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Sweep the blocklength grid, averaging rates over channel realizations.

    Realizations whose channel cannot attain a requested tag-error target are
    skipped and counted.  All randomness descends from (seed, draw index) so
    repeated runs are bit-identical.

    Every draw is set up first, in one batched pass on the calling thread
    (see ``_set_up``): channels, eps, spectra, capacity, dispersion and the
    normal approximation, each layer one call over all draws but the
    per-draw eps conversion.  The Monte Carlo bounds then run through
    ``run_calls`` as a fixed list of (draw, n, bound) items in serial
    order, each on its draw's spectra, on one thread pool made for the
    sweep: at most one thread per usable CPU computes, and none is left
    when the sweep returns.  Each item reads only its own random substream,
    so the rows do not depend on the CPU count or the scheduling.  A
    failure is raised as in a serial run of these two passes: a set-up
    failure before any item starts, else the first failing item in that
    order, after which no later item starts.
    """
    root = SeededRng(config.seed)
    setup = _set_up(config, root)
    bounds = [
        (curve, bound, offset)
        for curve, bound, offset in (
            ("achievability", bounds_ach.achievability_rate, 0),
            ("converse", bounds_conv.converse_rate, 1),
        )
        if curve in config.curves
    ]
    shape = (len(config.n_grid), len(setup.draws))
    rates = dict(setup.curves, **{curve: np.empty(shape) for curve, _, _ in bounds})
    cis = {curve: np.zeros(shape) for curve in config.curves}
    items = []
    if bounds:
        for i, (k, eps) in enumerate(zip(setup.draws, setup.eps)):
            g_plus = EigenSpectrum(setup.spectra[+1].g[i], +1)
            g_minus = EigenSpectrum(setup.spectra[-1].g[i], -1)
            rng = root.split(k)
            for j, n in enumerate(config.n_grid):
                for curve, bound, offset in bounds:
                    call = partial(
                        bound, n, g_plus, g_minus, config.total_power, eps,
                        rng.split(2 * n + offset), config.mc_samples,
                    )
                    items.append((curve, j, i, call))
    if items:
        results = run_calls([call for *_, call in items])
        for (curve, j, i, _), res in zip(items, results):
            rates[curve][j, i] = res.rate_bits
            cis[curve][j, i] = res.ci_rate_bits
    nan_reasons = {c: "curve not requested" for c in CURVES if c not in config.curves}
    if not setup.draws:
        rows = [
            SweepRow(n, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan, 0)
            for n in config.n_grid
        ]
        for c in config.curves:
            nan_reasons[c] = "all realizations infeasible for the tag error target"
        return SweepResult(rows, config, setup.skipped, nan_reasons)

    rows = []
    for j, n in enumerate(config.n_grid):
        agg = {curve: _aggregate(rates[curve][j], cis[curve][j]) for curve in config.curves}
        rows.append(
            SweepRow(
                n=n,
                capacity_bits=agg.get("capacity", (math.nan,))[0],
                na_bits=agg.get("normal_approx", (math.nan,))[0],
                ach_bits=agg.get("achievability", (math.nan,))[0],
                conv_bits=agg.get("converse", (math.nan,))[0],
                ach_ci=agg.get("achievability", (math.nan, math.nan))[1],
                conv_ci=agg.get("converse", (math.nan, math.nan))[1],
                draws=len(setup.draws),
            )
        )
    return SweepResult(rows, config, setup.skipped, nan_reasons)


def format_rows(rows: Sequence[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        cells = (row.capacity_bits, row.na_bits, row.ach_bits, row.conv_bits, row.ach_ci, row.conv_ci)
        lines.append(",".join([str(row.n), *("%.6g" % x for x in cells), str(row.draws)]))
    return "\n".join(lines) + "\n"


def _git_describe() -> str:
    import subprocess

    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def emit_csv(result: SweepResult, path: Union[str, Path]) -> None:
    """Write rows as UTF-8 CSV plus a JSON sidecar with the full provenance.

    The CSV bytes are a pure function of the rows; the sidecar records the
    configuration (including the seed), skip counts, and the repository
    version string.
    """
    path = Path(path)
    try:
        path.write_text(format_rows(result.rows), encoding="utf-8", newline="\n")
        meta = {
            "config": asdict(result.config),
            "seed": result.config.seed,
            "git_describe": _git_describe(),
            "skipped_realizations": result.skipped_realizations,
            "nan_reasons": result.nan_reasons,
        }
        meta_path = path.with_name(path.name + ".meta.json")
        meta_path.write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "curves", None) is not None:
        # "" requests no curve, which the validator rejects
        updates["curves"] = tuple(args.curves.split(",")) if args.curves else ()
    return replace(config, **updates) if updates else config


def _cmd_sweep(args) -> int:
    config = _apply_overrides(ExperimentConfig.from_json_file(args.config), args)
    out = Path(args.out)
    if not out.parent.is_dir():
        raise ConfigError(f"--out {args.out}: {out.parent} is not a directory")
    if out.is_dir():
        raise ConfigError(f"cannot write results to {args.out}: it is a directory")
    result = run_sweep(config)
    try:
        emit_csv(result, args.out)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"wrote {len(result.rows)} rows to {args.out} "
          f"(skipped {result.skipped_realizations} realizations)")
    return EXIT_OK


def _cmd_point(args) -> int:
    config = _apply_overrides(ExperimentConfig.from_json_file(args.config), args)
    config = replace(config, n_grid=(args.n,))
    result = run_sweep(config)
    sys.stdout.write(format_rows(result.rows))
    return EXIT_OK


def _cmd_tag_convert(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    if args.grid is not None:
        try:
            targets = [float(x) for x in args.grid.split(",")]
        except ValueError:
            raise ConfigError(f"--grid must be comma separated numbers, got {args.grid!r}") from None
        # NaN fails the comparison too
        if not all(0.0 <= x <= 1.0 for x in targets):
            raise ConfigError("--grid targets must be finite and lie in [0, 1]")
    else:
        targets = list(np.logspace(-6, -0.5, 12))
    rng = SeededRng(config.seed).split(0)
    ch = draw_channel(rng.split(0), config.t, config.r, config.fading_spec, config.a_coeff)
    model = tag.TagErrorModel.from_pair(composite(ch, +1))
    floor = tag.tag_error_given_eps(model, 0.0)
    ceil = tag.tag_error_given_eps(model, 1.0)
    print(f"# attainable tag error interval: [{min(floor, ceil):.6g}, {max(floor, ceil):.6g}]")
    print("eps_d,eps,feasible")
    for eps_d in targets:
        try:
            eps = tag.eps_given_tag_error(model, eps_d)
            print(f"{eps_d:.6g},{eps:.6g},yes")
        except InfeasibleTargetError:
            print(f"{eps_d:.6g},nan,no")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambc-fbl",
        description="Finite-blocklength rate bounds for multi-antenna backscatter channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a blocklength sweep and write CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--curves", help="comma separated subset of " + ",".join(CURVES))
    sweep.add_argument("--seed", type=int)
    sweep.set_defaults(func=_cmd_sweep)

    point = sub.add_parser("point", help="evaluate a single blocklength, print one row")
    point.add_argument("--config", required=True)
    point.add_argument("--n", type=int, required=True)
    point.add_argument("--curves")
    point.add_argument("--seed", type=int)
    point.set_defaults(func=_cmd_point)

    conv = sub.add_parser("tag-convert", help="tag-error to source-error table for a seeded channel")
    conv.add_argument("--config", required=True)
    conv.add_argument("--grid", help="comma separated tag error targets")
    conv.set_defaults(func=_cmd_tag_convert)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
