"""Experiment orchestration: JSON configuration, blocklength sweeps averaged
over channel realizations, CSV emission with a JSON metadata sidecar, and the
command-line entry point (subcommands sweep, point, tag-convert, selftest)."""

from __future__ import annotations

import argparse
import json
import math
import numbers
import operator
import subprocess
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import asymptotics, bounds_ach, bounds_conv, tag
from .channel import Fading, composite, draw_channel, eigen_spectrum
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleTargetError,
    InsufficientSamplesError,
    OverflowRegimeError,
    ZeroSpectrumError,
)
from .numerics import MAX_GAMMA_COPIES, MAX_GAMMA_SHAPE, SeededRng
from .power import waterfill
from .tail import run_calls

CURVES = ("capacity", "normal_approx", "achievability", "converse")
AGGREGATES = ("mean", "median", "single")
CSV_HEADER = "n,capacity_bits,na_bits,ach_bits,conv_bits,ach_ci,conv_ci,draws"

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
    aggregate: str = "mean"

    def __post_init__(self) -> None:
        for name in ("t", "r", "mc_samples", "channel_draws", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("snr_db", "a_coeff", "eps", "eps_d", "k_factor_db"):
            value = getattr(self, name)
            if value is not None or name in ("snr_db", "a_coeff"):
                _check_real(name, value)
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
        grid = tuple(_integer("n_grid entries", n) for n in self.n_grid)
        if not grid or any(n < 8 for n in grid):
            raise ConfigError("n_grid entries must be >= 8")
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
        # the converse's K1 constant is a product-of-gammas density with
        # min(t, r) factors of shape n
        if "converse" in curves and (
            grid[-1] > MAX_GAMMA_SHAPE or min(self.t, self.r) > MAX_GAMMA_COPIES
        ):
            raise ConfigError(
                f"the converse needs n <= {MAX_GAMMA_SHAPE} and min(t, r) <= {MAX_GAMMA_COPIES}"
            )
        if self.aggregate not in AGGREGATES:
            raise ConfigError(f"aggregate must be one of {AGGREGATES}")

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
        except (OSError, json.JSONDecodeError) as exc:
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


def _set_up_draw(config: ExperimentConfig, rng: SeededRng):
    """Set up one channel realization: its closed-form curves and its bounds.

    Returns ``(out, items)``.  ``out`` maps each requested curve to
    {n: (rate_bits, ci_bits)}, filled for capacity and the normal
    approximation; ``items`` lists one ``(curve, n, call)`` per requested
    Monte Carlo bound and blocklength, where ``call()`` evaluates the bound
    on its own random substream.  Raises ``InfeasibleTargetError`` when the
    realization cannot meet a requested tag error target.
    """
    ch = draw_channel(rng.split(0), config.t, config.r, config.fading_spec, config.a_coeff)
    pair_minus = composite(ch, -1)
    pair_plus = composite(ch, +1)
    spec_minus = eigen_spectrum(pair_minus)
    spec_plus = eigen_spectrum(pair_plus)
    power = config.total_power

    if config.eps is not None:
        eps = config.eps
    else:
        model = tag.TagErrorModel.from_pair(pair_plus)
        eps = tag.eps_given_tag_error(model, config.eps_d)
        # endpoint targets map to 0 or 1 exactly; keep the bounds well defined
        eps = min(max(eps, 1e-12), 1.0 - 1e-12)

    cv = []
    for spec in (spec_minus, spec_plus):
        alloc = waterfill(spec, power)
        c = asymptotics.capacity(spec, alloc)
        v = asymptotics.dispersion(spec, alloc)
        cv.append((c, v))

    out: Dict[str, Dict[int, Tuple[float, float]]] = {name: {} for name in config.curves}
    items = []
    ln2 = math.log(2)
    for n in config.n_grid:
        if "capacity" in out:
            cap = 0.5 * (cv[0][0] + cv[1][0])
            out["capacity"][n] = (cap / ln2, 0.0)
        if "normal_approx" in out:
            na = 0.5 * sum(
                asymptotics.normal_approximation(c, v, n, eps) for c, v in cv
            )
            out["normal_approx"][n] = (na / ln2, 0.0)
        if "achievability" in out:
            call = partial(
                bounds_ach.achievability_rate,
                n, spec_plus, spec_minus, power, eps, rng.split(2 * n), config.mc_samples,
            )
            items.append(("achievability", n, call))
        if "converse" in out:
            call = partial(
                bounds_conv.converse_rate,
                n, spec_plus, spec_minus, power, eps, rng.split(2 * n + 1), config.mc_samples,
            )
            items.append(("converse", n, call))
    return out, items


def _aggregate(values: np.ndarray, cis: np.ndarray, how: str) -> Tuple[float, float]:
    k = values.size
    if how == "single":
        return float(values[0]), float(cis[0])
    center = float(np.mean(values)) if how == "mean" else float(np.median(values))
    between = 1.96 * float(values.std()) / math.sqrt(k) if k > 1 else 0.0
    mc = float(np.sqrt((cis**2).sum())) / k
    return center, math.hypot(between, mc)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Sweep the blocklength grid, averaging rates over channel realizations.

    Realizations whose channel cannot attain a requested tag-error target are
    skipped and counted.  All randomness descends from (seed, draw index) so
    repeated runs are bit-identical.

    Every draw is set up on the calling thread first: channel, spectra, eps,
    capacity, dispersion and the normal approximation.  The Monte Carlo
    bounds then run through ``tail.run_calls`` as a fixed list of
    (draw, n, bound) items in serial order, each bound splitting its two
    tag symbols over the same pool, so at most one thread per usable CPU
    computes.  Each item reads only its own random substream, so the rows
    do not depend on the CPU count or the scheduling.  A failure is raised
    as in a serial run: the first failing item in that order wins, a
    set-up failure of a later draw counts as coming after the earlier
    draws' items, and no item after a failing one starts.
    """
    root = SeededRng(config.seed)
    n_draws = config.channel_draws if config.aggregate != "single" else 1
    per_draw = []
    items = []
    skipped = 0
    setup_failure = None
    for k in range(n_draws):
        try:
            out, draw_items = _set_up_draw(config, root.split(k))
        except InfeasibleTargetError:
            skipped += 1
            continue
        except _NUMERIC_FAILURES as exc:
            # raised once the earlier draws' items have run, as in a serial run
            setup_failure = exc
            break
        per_draw.append(out)
        items += [(out, curve, n, call) for curve, n, call in draw_items]
    if items:
        results = run_calls([call for _, _, _, call in items])
        for (out, curve, n, _), res in zip(items, results):
            out[curve][n] = (res.rate_bits, res.ci_rate_bits)
    if setup_failure is not None:
        raise setup_failure
    nan_reasons = {c: "curve not requested" for c in CURVES if c not in config.curves}
    if not per_draw:
        rows = [
            SweepRow(n, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan, 0)
            for n in config.n_grid
        ]
        for c in config.curves:
            nan_reasons[c] = "all realizations infeasible for the tag error target"
        return SweepResult(rows, config, skipped, nan_reasons)

    rows = []
    for n in config.n_grid:
        agg: Dict[str, Tuple[float, float]] = {}
        for curve in config.curves:
            vals = np.array([d[curve][n][0] for d in per_draw])
            cis = np.array([d[curve][n][1] for d in per_draw])
            agg[curve] = _aggregate(vals, cis, config.aggregate)
        rows.append(
            SweepRow(
                n=n,
                capacity_bits=agg.get("capacity", (math.nan,))[0],
                na_bits=agg.get("normal_approx", (math.nan,))[0],
                ach_bits=agg.get("achievability", (math.nan,))[0],
                conv_bits=agg.get("converse", (math.nan,))[0],
                ach_ci=agg.get("achievability", (math.nan, math.nan))[1],
                conv_ci=agg.get("converse", (math.nan, math.nan))[1],
                draws=len(per_draw),
            )
        )
    return SweepResult(rows, config, skipped, nan_reasons)


def _fmt(x: float) -> str:
    return "%.6g" % x


def format_rows(rows: Sequence[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.n),
                    _fmt(row.capacity_bits),
                    _fmt(row.na_bits),
                    _fmt(row.ach_bits),
                    _fmt(row.conv_bits),
                    _fmt(row.ach_ci),
                    _fmt(row.conv_ci),
                    str(row.draws),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _git_describe() -> str:
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
    if getattr(args, "curves", None):
        updates["curves"] = tuple(args.curves.split(","))
    if getattr(args, "aggregate", None):
        updates["aggregate"] = args.aggregate
    return replace(config, **updates) if updates else config


def _cmd_sweep(args) -> int:
    config = _apply_overrides(ExperimentConfig.from_json_file(args.config), args)
    result = run_sweep(config)
    emit_csv(result, args.out)
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
    rng = SeededRng(config.seed).split(0)
    ch = draw_channel(rng.split(0), config.t, config.r, config.fading_spec, config.a_coeff)
    model = tag.TagErrorModel.from_pair(composite(ch, +1))
    floor = tag.tag_error_given_eps(model, 0.0)
    ceil = tag.tag_error_given_eps(model, 1.0)
    print(f"# attainable tag error interval: [{min(floor, ceil):.6g}, {max(floor, ceil):.6g}]")
    print("eps_d,eps,feasible")
    if args.grid:
        targets = [float(x) for x in args.grid.split(",")]
    else:
        targets = list(np.logspace(-6, -0.5, 12))
    for eps_d in targets:
        try:
            eps = tag.eps_given_tag_error(model, eps_d)
            print(f"{eps_d:.6g},{eps:.6g},yes")
        except InfeasibleTargetError:
            print(f"{eps_d:.6g},nan,no")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    del args
    checks = []
    rng = np.random.default_rng(0)

    from .numerics import gaussian_q, gaussian_q_inv, product_gamma_pdf
    from scipy import stats

    # below x ~ -5.2 one ulp of the probability already moves the inverse
    # past 1e-9, so the tight check stops there
    x = np.linspace(-5.2, 6, 101)
    err = max(abs(gaussian_q_inv(float(gaussian_q(v))) - v) for v in x)
    checks.append(("gaussian q/qinv round trip", err < 1e-9, f"max err {err:.2e}"))

    ok, worst = True, 0.0
    for _ in range(1000):
        g = rng.uniform(0.01, 10, rng.integers(1, 5))
        power = rng.uniform(0.1, 10)
        alloc = waterfill(g, power)
        gap = abs(alloc.p.sum() - power)
        worst = max(worst, gap)
        ok &= gap <= 1e-9
        active = alloc.p > 0
        ok &= np.all(np.abs(alloc.p[active] - (alloc.water_level - 1 / g[active])) < 1e-9)
        ok &= np.all(alloc.water_level <= 1 / g[~active] + 1e-12)
    checks.append(("waterfilling feasibility and slackness", ok, f"max budget gap {worst:.1e}"))

    ok = True
    for _ in range(1000):
        y = rng.uniform(0, 5, rng.integers(1, 5))
        first = float((y * (y + 2) / (1 + y) ** 2).sum())
        second = float(y.size - (1 / (1 + y) ** 2).sum())
        ok &= abs(first - second) <= 1e-12 * max(1.0, first)
    checks.append(("dispersion two-form identity", ok, "1e4 draws" if ok else "mismatch"))

    ok = all(
        abs(asymptotics.verify_sigma_maximizer(y, 1.0) - (1 + y)) < 1e-6
        for y in rng.uniform(0.05, 8, 10)
    )
    checks.append(("reference-variance critical point", ok, "10 instances"))

    ok = True
    for _ in range(10):
        h0 = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2)
        h1 = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2)
        model = tag.TagErrorModel.from_channels(h0, h1)
        eps = rng.uniform(0.01, 0.99)
        back = tag.eps_given_tag_error(model, tag.tag_error_given_eps(model, eps))
        ok &= abs(back - eps) < 1e-12
    checks.append(("tag coupling affine round trip", ok, "10 channels"))

    # the raw path returns on the atom before it reads the law or the rng
    est = bounds_conv.np_beta_converse(np.zeros(20000), 0.1, (8, np.zeros(2)), SeededRng(0))
    checks.append(
        ("degenerate NP beta equals its level", abs(est.beta - 0.9) < 1e-12, f"beta {est.beta:.6f}")
    )

    v = product_gamma_pdf(3.0, 1, 3, 1.0)
    ref = float(stats.gamma.pdf(3.0, a=3, scale=1.0))
    checks.append(("product-gamma single-factor reduction", abs(v - ref) < 1e-8 * ref, f"{v:.8f}"))

    h0 = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2)
    h1 = 0.7 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2)
    model = tag.TagErrorModel.from_channels(h0, h1)
    emp = tag.simulate_tag_error(model, 0.05, SeededRng(5), 20000)
    ana = tag.tag_error_given_eps(model, 0.05)
    se = math.sqrt(max(ana * (1 - ana), 1e-12) / 20000)
    checks.append(
        ("tag detector simulation vs closed form", abs(emp - ana) <= 4 * se, f"{emp:.4f} vs {ana:.4f}")
    )

    all_ok = True
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_NUMERIC


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
    sweep.add_argument("--aggregate", choices=AGGREGATES)
    sweep.set_defaults(func=_cmd_sweep)

    point = sub.add_parser("point", help="evaluate a single blocklength, print one row")
    point.add_argument("--config", required=True)
    point.add_argument("--n", type=int, required=True)
    point.add_argument("--curves")
    point.add_argument("--seed", type=int)
    point.add_argument("--aggregate", choices=AGGREGATES)
    point.set_defaults(func=_cmd_point)

    conv = sub.add_parser("tag-convert", help="tag-error to source-error table for a seeded channel")
    conv.add_argument("--config", required=True)
    conv.add_argument("--grid", help="comma separated tag error targets")
    conv.set_defaults(func=_cmd_tag_convert)

    selftest = sub.add_parser("selftest", help="run quick invariant checks")
    selftest.set_defaults(func=_cmd_selftest)
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
