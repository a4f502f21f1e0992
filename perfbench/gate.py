"""Correctness gate for the benchmark's outputs.

The gate reads the sweep CSV with the standard ``csv`` module rather than the
program's own parser, so a parser defect cannot hide a bad file.  Each
function returns a list of human-readable problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Sequence

COLUMNS = ("n", "capacity_bits", "na_bits", "ach_bits", "conv_bits", "ach_ci", "conv_ci", "draws")
# columns each requested curve must fill with finite values
CURVE_COLUMNS = {
    "capacity": ("capacity_bits",),
    "normal_approx": ("na_bits",),
    "achievability": ("ach_bits", "ach_ci"),
    "converse": ("conv_bits", "conv_ci"),
}


def check_sweep(csv_text: str, config: Dict, curves: Sequence[str], skipped: int) -> List[str]:
    """Problems with one sweep's CSV.

    ``config`` is the JSON config the sweep ran, ``curves`` the curves it was
    asked for and ``skipped`` the ``skipped_realizations`` count from its
    metadata sidecar.
    """
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if header is None or tuple(header) != COLUMNS:
        return [f"unexpected CSV header {header}"]
    rows = [dict(zip(COLUMNS, line)) for line in reader]
    problems = []
    grid = [str(n) for n in config["n_grid"]]
    if [row["n"] for row in rows] != grid:
        problems.append(f"rows {[row['n'] for row in rows]} do not match the grid {grid}")
    for row in rows:
        n = row["n"]
        try:
            values = {key: float(row[key]) for key in COLUMNS[1:-1]}
            draws = int(row["draws"])
        except (KeyError, ValueError):
            problems.append(f"n={n}: malformed row {row}")
            continue
        if draws + skipped != config["channel_draws"]:
            problems.append(
                f"n={n}: {row['draws']} draws + {skipped} skipped != {config['channel_draws']}"
            )
        for curve in curves:
            for key in CURVE_COLUMNS[curve]:
                if not math.isfinite(values[key]):
                    problems.append(f"n={n}: {key} is not finite")
        if {"achievability", "converse"} <= set(curves) and not values["ach_bits"] <= values["conv_bits"]:
            problems.append(f"n={n}: ach_bits {values['ach_bits']} > conv_bits {values['conv_bits']}")
        # with eps_d the per-draw eps can exceed 1/2, where NA rises above capacity
        fixed_eps = config.get("eps")
        if (
            fixed_eps is not None
            and fixed_eps < 0.5
            and {"capacity", "normal_approx"} <= set(curves)
            and not values["na_bits"] <= values["capacity_bits"]
        ):
            problems.append(f"n={n}: na_bits {values['na_bits']} > capacity_bits {values['capacity_bits']}")
    return problems


def check_point(ach_bits: float, conv_bits: float) -> List[str]:
    """Problems with one (seed, n) pair of bound evaluations."""
    if not (math.isfinite(ach_bits) and math.isfinite(conv_bits)):
        return [f"non-finite rate: ach {ach_bits}, conv {conv_bits}"]
    if not ach_bits <= conv_bits:
        return [f"ach_bits {ach_bits} > conv_bits {conv_bits}"]
    return []
