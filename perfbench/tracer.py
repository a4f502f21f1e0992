"""Outside-in tracer for the ambc_fbl modules.

The tracer wraps a fixed list of public functions and rebinds every module
attribute under ``ambc_fbl`` that holds the same function object, so calls
made through another module's import (``cli.waterfill``,
``bounds_conv.product_gamma_logpdf``, ...) are seen as well.  The program's
source is never modified.

Each wrapped call records one span ``(id, name, start, end, parent, run,
attrs)`` in memory; ``dump`` writes them out once, at the end of the run.
``summarize`` turns a span list into the per-layer metrics: call counts,
self time (duration minus the time covered by child spans), total time,
exceptions raised, and the estimator path read from returned estimates.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Dict, List, Sequence, Tuple

PACKAGE = "ambc_fbl"
# (module, function): the public functions traced, grouped by layer
TRACED: Tuple[Tuple[str, str], ...] = (
    ("cli", "run_sweep"),
    ("cli", "emit_csv"),
    ("channel", "draw_channel"),
    ("channel", "eigen_spectrum"),
    ("power", "waterfill"),
    ("asymptotics", "capacity"),
    ("asymptotics", "dispersion"),
    ("asymptotics", "normal_approximation"),
    ("tag", "eps_given_tag_error"),
    ("bounds_ach", "achievability_rate"),
    ("bounds_ach", "sample_info_density"),
    ("bounds_ach", "compute_c1"),
    ("bounds_ach", "achievability_beta"),
    ("bounds_conv", "converse_rate"),
    ("bounds_conv", "converse_constants"),
    ("bounds_conv", "sample_converse_density"),
    ("bounds_conv", "np_beta_converse"),
    ("numerics", "empirical_quantile"),
    ("numerics", "product_gamma_logpdf"),
)

# entry points whose inclusive time is reported next to their self time
TOTAL_TIMED = ("bounds_ach.achievability_rate", "bounds_conv.converse_rate")
# functions whose returned estimate says which estimator path it took
PATH_FLAGS = {
    "bounds_ach.achievability_beta": ("tilted",),
    "bounds_conv.np_beta_converse": ("tilted", "lower_bound_only"),
}
# how a flag is reported: the share of calls that took the tilted path, the
# count of calls that fell back to a lower bound
FLAG_METRICS = {"tilted": ("tilted_frac", "frac"), "lower_bound_only": ("lower_bound_only", "count")}


def traced_names() -> List[str]:
    return [f"{mod}.{fn}" for mod, fn in TRACED]


def _per_layer() -> Dict[str, str]:
    units = {}
    for name in traced_names():
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.errors": "count"})
        if name in TOTAL_TIMED:
            units[f"{name}.total_s"] = "s"
        for flag in PATH_FLAGS.get(name, ()):
            metric, unit = FLAG_METRICS[flag]
            units[f"{name}.{metric}"] = unit
    units.update({"power.waterfill.calls_per_draw": "calls/draw", "tag.skipped_frac": "frac",
                  "trace.overhead_s": "s"})
    return units


# every per-layer metric ``summarize`` reports, with its unit
PER_LAYER = _per_layer()


class Tracer:
    """Records spans around the traced functions of one interpreter."""

    def __init__(self):
        self.spans: List[list] = []
        self.run = 0
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for mod, fn in TRACED:
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            original = getattr(module, fn)
            wrapper = self._wrap(f"{mod}.{fn}", original)
            for holder in self._holders(original):
                self._undo.append((holder, fn, original))
                setattr(holder, fn, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _holders(self, original) -> List[object]:
        return [
            module
            for key, module in list(sys.modules.items())
            if module is not None
            and (key == PACKAGE or key.startswith(PACKAGE + "."))
            and any(value is original for value in vars(module).values())
        ]

    def _wrap(self, name: str, original):
        flags = PATH_FLAGS.get(name, ())
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            record = [span_id, name, clock(), 0.0, parent, self.run, {}]
            spans.append(record)
            stack.append(span_id)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                record[6]["error"] = type(exc).__name__
                raise
            finally:
                record[3] = clock()
                stack.pop()
            for flag in flags:
                record[6][flag] = bool(getattr(result, flag))
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        wrapper.__doc__ = original.__doc__
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def summarize(spans: Sequence[Sequence], channels: int, skipped: int) -> Dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    ``channels`` is the number of channel realizations the run evaluated and
    ``skipped`` how many of them the sweep skipped as infeasible; they scale
    ``power.waterfill.calls_per_draw`` and ``tag.skipped_frac``.  The
    ``trace.overhead_s`` entry is left at 0 for the caller to fill in.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    counts: Dict[Tuple[str, str], int] = {}
    for span, inner in zip(spans, child_time):
        name, duration, attrs = span[1], span[3] - span[2], span[6]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - inner
        for key, value in attrs.items():
            if value:
                counts[(name, key)] = counts.get((name, key), 0) + 1

    out: Dict[str, float] = {}
    for name in traced_names():
        n_calls = calls.get(name, 0)
        out[f"{name}.calls"] = n_calls
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.errors"] = counts.get((name, "error"), 0)
        if name in TOTAL_TIMED:
            out[f"{name}.total_s"] = total.get(name, 0.0)
        for flag in PATH_FLAGS.get(name, ()):
            hits = counts.get((name, flag), 0)
            metric, unit = FLAG_METRICS[flag]
            out[f"{name}.{metric}"] = (hits / n_calls if n_calls else 0.0) if unit == "frac" else hits
    out["power.waterfill.calls_per_draw"] = calls.get("power.waterfill", 0) / max(channels, 1)
    out["tag.skipped_frac"] = skipped / max(channels, 1)
    out["trace.overhead_s"] = 0.0
    return out
