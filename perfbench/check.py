"""Output check applied to every `dp-la run` the benchmark makes."""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from workloads import Workload

# The fixed results.csv header; a change to it is a failed check, not a new format.
RESULT_COLUMNS = (
    "method", "epsilon", "seed", "acc_nonprivate", "acc_private", "utility_loss", "tpr",
    "fpr", "privacy_leakage", "true_revealed_records", "trr_rate", "wall_time_seconds",
    "status",
)
FIGURES = ("fig_utility_loss.csv", "fig_privacy_leakage.csv", "fig_trr.csv")
TOLERANCE = 1e-12


class OutputError(Exception):
    """The outputs of a run are wrong."""


def _rounding(value: float) -> float:
    """Largest error of ``value`` as written with 12 significant digits."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def _identity(name: str, row_no: int, lhs: float, terms: list[float], rhs: float) -> None:
    """lhs == rhs to TOLERANCE, allowing for the CSV's 12-digit rounding of each value."""
    slack = TOLERANCE + _rounding(lhs) + sum(_rounding(t) for t in terms)
    if abs(lhs - rhs) > slack:
        raise OutputError(f"row {row_no}: {name} identity off by {abs(lhs - rhs):.3g}")


def check_outputs(out_dir: Path, workload: Workload) -> str:
    """Check one run's outputs and return the sha256 of its results.csv.

    Every cell has status ok, results.csv has the fixed header and exactly the
    workload's cells in order, the metric identities hold, and the three
    figure series exist. Raises OutputError on the first violation.
    """
    results = out_dir / "results.csv"
    if not results.is_file():
        raise OutputError("results.csv is missing")
    payload = results.read_bytes()
    rows = list(csv.reader(payload.decode("utf-8").splitlines()))
    if not rows or tuple(rows[0]) != RESULT_COLUMNS:
        raise OutputError(f"results.csv header is {rows[0] if rows else None}")
    body = rows[1:]
    expected = workload.cells
    if len(body) != len(expected):
        raise OutputError(f"results.csv has {len(body)} rows for {len(expected)} cells")
    for row_no, (row, (method, epsilon, seed)) in enumerate(zip(body, expected), start=1):
        if len(row) != len(RESULT_COLUMNS):
            raise OutputError(f"row {row_no} has {len(row)} fields")
        rec = dict(zip(RESULT_COLUMNS, row))
        if rec["status"] != "ok":
            raise OutputError(f"row {row_no}: status {rec['status']!r}")
        try:
            coords = (rec["method"], float(rec["epsilon"]), int(rec["seed"]))
            acc_np, acc_p, loss, tpr, fpr, leak, trr_rate = (
                float(rec[k]) for k in ("acc_nonprivate", "acc_private", "utility_loss", "tpr",
                                        "fpr", "privacy_leakage", "trr_rate"))
            trr = int(rec["true_revealed_records"])
        except ValueError as exc:
            raise OutputError(f"row {row_no}: unparsable value ({exc})") from None
        if coords != (method, epsilon, seed):
            raise OutputError(f"row {row_no} is cell {coords}, expected {(method, epsilon, seed)}")
        _identity("utility_loss", row_no, loss, [acc_np, acc_p], acc_np - acc_p)
        _identity("privacy_leakage", row_no, leak, [tpr, fpr], tpr - fpr)
        _identity("trr_rate", row_no, trr_rate, [], trr / workload.members)
    for name in FIGURES:
        figure = out_dir / name
        if not figure.is_file() or not figure.read_text(encoding="utf-8").startswith("epsilon,"):
            raise OutputError(f"{name} is missing or has no header")
    return hashlib.sha256(payload).hexdigest()
