"""Stored outputs of a small grid, compared with a rerun on every test run.

``tests/reference/small_grid/`` holds a config (all three methods, three
epsilons, two seeds, a synth table of 400 rows) and what it wrote:
results.csv, the three figure CSVs, and summary.json's ``config_fingerprint``,
``groups`` and ``timings.per_cell`` without the wall times (each cell's
coordinates, status and fit diagnostics). ``stamp.json`` names the numpy,
BLAS and CPU features that wrote them. Where the running environment has that
stamp, the rerun must reproduce every byte and every fit diagnostic.
Elsewhere BLAS may sum in another order, so the cell coordinates, statuses
and fingerprint must be equal, and each metric within one row of each pool it
is computed from (members: victim_train; non-members and accuracies:
victim_test).

A deliberate refresh, and nothing else, regenerates the references, from the
root of a checkout:

    PYTHONPATH=src python tests/test_reference_outputs.py

Each refresh is noted in CHANGES.md.
"""

from __future__ import annotations

import csv
import json
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dp_la import model
from dp_la.experiment import emit_report, load_config, run_sweep

REFERENCE = Path(__file__).resolve().parent / "reference" / "small_grid"
FIGURES = {"fig_utility_loss.csv": "utility_loss", "fig_privacy_leakage.csv": "privacy_leakage",
           "fig_trr.csv": "trr_rate"}
CSVS = ("results.csv", *FIGURES)
SUMMARY_KEYS = ("config_fingerprint", "groups")


def environment_stamp() -> dict:
    """The numpy version, its BLAS and the CPU features its kernels may
    dispatch on; numpy before 1.26 cannot report the last two."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
        simd = config["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # show_config has no mode argument, or no such entry
        blas, simd = "unknown", []
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine(), "simd": simd}


def rerun(out: Path) -> tuple[int, int]:
    """The reference config's outputs, written to ``out``, and the smallest
    member and non-member pools of its cells."""
    results = run_sweep(load_config(REFERENCE / "config.json"))
    emit_report(results, out)
    reports = [row.report for row in results.rows if row.report is not None]
    return min(r.members for r in reports), min(r.nonmembers for r in reports)


def summary_part(summary_path: Path) -> dict:
    """The fingerprint, the groups and each cell's record of
    ``timings.per_cell`` without its wall time."""
    doc = json.loads(summary_path.read_text(encoding="utf-8"))
    part = {key: doc[key] for key in SUMMARY_KEYS}
    part["timings"] = {"per_cell": [
        {key: value for key, value in cell.items() if key != "wall_time_seconds"}
        for cell in doc["timings"]["per_cell"]]}
    return part


def tolerances(members: int, nonmembers: int) -> dict[str, float]:
    """How far each metric moves when one row of each pool it is computed
    from changes its outcome."""
    m, n = 1.0 / members, 1.0 / nonmembers
    return {"acc_nonprivate": n, "acc_private": n, "utility_loss": 2 * n, "tpr": m, "fpr": n,
            "privacy_leakage": m + n, "true_revealed_records": 1.0, "trr_rate": m}


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _differences(got: dict, want: dict, exact: tuple[str, ...], tolerance: dict[str, float],
                 where: str) -> list[str]:
    """Where two rows differ: in a key of ``exact``, in which keys they hold,
    or in a metric by more than its tolerance (CSV cells are compared as
    numbers, a blank only with a blank)."""
    if got.keys() != want.keys():
        return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
    found = [f"{where} {key}: {got[key]!r} != {want[key]!r}"
             for key in exact if got[key] != want[key]]
    for key, bound in tolerance.items():
        if key not in got or got[key] == want[key]:
            continue
        if "" in (got[key], want[key]) or abs(float(got[key]) - float(want[key])) > bound:
            found.append(f"{where} {key}: {got[key]!r} != {want[key]!r} (tolerance {bound:.4g})")
    return found


def compare_outputs(out: Path, reference: Path, members: int, nonmembers: int) -> list[str]:
    """Every difference between the outputs in ``out`` and the references
    beyond one row of each pool; an empty list when there is none."""
    tolerance = tolerances(members, nonmembers)
    found = []
    got, want = _read_csv(out / "results.csv"), _read_csv(reference / "results.csv")
    if len(got) != len(want):
        found.append(f"results.csv: {len(got)} rows != {len(want)}")
    exact = ("method", "epsilon", "seed", "wall_time_seconds", "status")
    for i, (a, b) in enumerate(zip(got, want), start=2):
        found += _differences(a, b, exact, tolerance, f"results.csv line {i}")
    for name, metric in FIGURES.items():
        got, want = _read_csv(out / name), _read_csv(reference / name)
        if len(got) != len(want):
            found.append(f"{name}: {len(got)} rows != {len(want)}")
        for i, (a, b) in enumerate(zip(got, want), start=2):
            methods = {key: tolerance[metric] for key in b if key != "epsilon"}
            found += _differences(a, b, ("epsilon",), methods, f"{name} line {i}")
    got, want = summary_part(out / "summary.json"), summary_part(reference / "summary.json")
    if got["config_fingerprint"] != want["config_fingerprint"]:
        found.append(f"summary.json config_fingerprint: {got['config_fingerprint']!r} != "
                     f"{want['config_fingerprint']!r}")
    if len(got["groups"]) != len(want["groups"]):
        found.append(f"summary.json groups: {len(got['groups'])} != {len(want['groups'])}")
    medians = {f"median_{key}": bound for key, bound in tolerance.items()}
    for i, (a, b) in enumerate(zip(got["groups"], want["groups"])):
        found += _differences(a, b, ("method", "epsilon", "n_ok"), medians,
                              f"summary.json group {i}")
    return found


def stamp_matches() -> bool:
    return json.loads((REFERENCE / "stamp.json").read_text(encoding="utf-8")) == environment_stamp()


def test_small_grid_matches_its_reference(tmp_path):
    members, nonmembers = rerun(tmp_path)
    if stamp_matches():
        for name in CSVS:
            assert (tmp_path / name).read_bytes() == (REFERENCE / name).read_bytes(), name
        assert summary_part(tmp_path / "summary.json") == summary_part(REFERENCE / "summary.json")
    assert compare_outputs(tmp_path, REFERENCE, members, nonmembers) == []


def test_reference_fit_diagnostics_see_a_changed_tolerance(tmp_path, monkeypatch):
    # a trainer that stops earlier writes the same cells with other diagnostics
    if not stamp_matches():
        pytest.skip("the references were written by another numpy, BLAS or CPU")
    monkeypatch.setattr(model, "_GRADIENT_TOL", 1e-6)
    rerun(tmp_path)
    got = summary_part(tmp_path / "summary.json")["timings"]["per_cell"]
    want = summary_part(REFERENCE / "summary.json")["timings"]["per_cell"]
    coordinates = ("method", "epsilon", "seed", "status")
    assert [[c[k] for k in coordinates] for c in got] == [[c[k] for k in coordinates] for c in want]
    assert got != want


def _write_csv(path: Path, rows: list[dict[str, str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# The reference grid's pools: a quarter of its 400 rows each.
POOL = 100


@pytest.mark.parametrize("name, row, column", [
    ("results.csv", 0, "tpr"), ("results.csv", 6, "acc_private"),
    ("results.csv", 7, "privacy_leakage"), ("fig_privacy_leakage.csv", 1, "input_perturbation"),
])
def test_comparator_allows_one_row_of_each_pool_and_no_more(tmp_path, name, row, column):
    # the comparison made where the stamp differs, run on the references
    # themselves: a metric moved by just under its tolerance passes, by just over fails
    bound = tolerances(POOL, POOL)[FIGURES.get(name, column)]
    for shift, differs in ((bound * 0.99, False), (bound * 1.01, True)):
        copy = tmp_path / str(differs)
        shutil.copytree(REFERENCE, copy)
        rows = _read_csv(copy / name)
        rows[row][column] = repr(float(rows[row][column]) + shift)
        _write_csv(copy / name, rows)
        assert bool(compare_outputs(copy, REFERENCE, POOL, POOL)) == differs, shift


@pytest.mark.parametrize("change", ["status", "seed", "fingerprint", "group_count", "median"])
def test_comparator_reports_what_no_tolerance_covers(tmp_path, change):
    copy = tmp_path / "reference"
    shutil.copytree(REFERENCE, copy)
    if change in ("status", "seed"):
        rows = _read_csv(copy / "results.csv")
        rows[0][change] = "failed:ValueError:x" if change == "status" else "3"
        _write_csv(copy / "results.csv", rows)
    else:
        doc = summary_part(copy / "summary.json")
        if change == "fingerprint":
            doc["config_fingerprint"] = "0" * 16
        elif change == "group_count":
            doc["groups"].pop()
        else:
            doc["groups"][0]["median_privacy_leakage"] += 0.5
        (copy / "summary.json").write_text(json.dumps(doc), encoding="utf-8")
    assert compare_outputs(copy, REFERENCE, POOL, POOL) != []


def regenerate() -> None:
    """Rewrite the reference outputs and the stamp from a rerun of the config."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        rerun(out)
        for name in CSVS:
            shutil.copyfile(out / name, REFERENCE / name)
        (REFERENCE / "summary.json").write_text(
            json.dumps(summary_part(out / "summary.json"), indent=2) + "\n", encoding="utf-8")
    (REFERENCE / "stamp.json").write_text(json.dumps(environment_stamp(), indent=2) + "\n",
                                          encoding="utf-8")
    print(f"wrote the references in {REFERENCE}")


if __name__ == "__main__":
    regenerate()
