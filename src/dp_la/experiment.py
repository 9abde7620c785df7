"""Sweep orchestration: configuration, deterministic (method, epsilon, seed)
grid execution, per-cell privacy audits, and report emission.

:func:`run_sweep` is the one walk of the grid, and it does each piece of work
once, at the level of the grid it depends on: per seed, then per method, then
per epsilon. Per seed, a :class:`SeedContext` holds the shadow-trained attack
with its threshold (fitted on the attack half of the seed's four-way split),
the victim rows (:class:`~dp_la.pipelines.Victim`) and the non-private
baseline's accuracy. Per (method, seed), :func:`~dp_la.pipelines.shared_part`
builds what no epsilon changes, and it is the only reader of the (method,
seed) pipeline stream: input perturbation's noise, objective perturbation's
noise direction and standard length, or the PATE teachers' votes with the
label release's standard noise. Per (method, epsilon, seed), :func:`run_cell`
does only its epsilon work (scale that draw and fit, or scale the label noise
and draw the audit's vote noise), computes the outputs the audit observes
once per part and runs the membership-inference attack on them.

A failure fails exactly the cells under it, each with status
``failed:<exception type>:<message>``: a context that cannot be built fails
every cell of its seed, and no shared part of that seed is attempted; a shared
part that cannot be built fails every cell of its (method, seed); a cell that
raises fails its own row. Cells only read what they share, so the order of a
seed's cells changes no result. In ``summary.json`` the seed's shared work,
its context and every shared part, is timed under ``timings.per_seed``; each
cell's own time and its released model's fit diagnostics (Newton iterations,
final gradient norm, stop reason) are under ``timings.per_cell``.

Every random stream is a substream of ``RngState(master_seed)`` labelled by
grid values, never by positions in the grid or by call order: the split by
``("split", seed)``, the pipeline stream by ``("pipeline", method, "seed",
seed)`` and each cell's audit stream by ``("audit", method, float(epsilon),
seed)``. So results do not depend on execution order, and adding, dropping or
reordering grid values never disturbs the cells that remain.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import platform
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from ._config import atomic_write, check_field_types, enum_member, read_json, reject_unknown_keys
from .data import (
    CsvSpec,
    Dataset,
    SynthSpec,
    TabularSchema,
    four_way_split,
    load_csv,
    preprocess,
    synth_generate,
)
from .mechanisms import RngState
from .model import TrainConfig, accuracy, predict, predict_proba, train
from .pipelines import (DpMethod, ObjectiveNoise, TeacherVotes, Victim, run_pipeline,
                        shared_part, victim_view)

__all__ = [
    "ExperimentConfig",
    "SweepCell",
    "CellResult",
    "SeedContext",
    "SeedTiming",
    "SweepResults",
    "load_config",
    "load_experiment_dataset",
    "build_seed_context",
    "run_cell",
    "run_sweep",
    "summarize",
    "emit_report",
    "refuse_existing_outputs",
    "RESULT_COLUMNS",
]

DEFAULT_EPSILONS = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0)
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

# The AuditReport attributes results.csv reports, in column order, and those
# summary.json takes medians of, in key order.
_REPORT_METRICS = ("acc_nonprivate", "acc_private", "utility_loss", "tpr", "fpr",
                   "privacy_leakage", "true_revealed_records", "trr_rate")
_SUMMARY_METRICS = ("utility_loss", "privacy_leakage", "true_revealed_records", "trr_rate")
RESULT_COLUMNS = ("method", "epsilon", "seed", *_REPORT_METRICS, "wall_time_seconds", "status")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep, as a config file states it. Every field determines the
    results, and :meth:`fingerprint` hashes them all, so for a synth source
    the config alone fixes every number a run writes; the outputs go where
    ``dp-la run --out`` says. For a CSV source it does not: the fingerprint
    hashes the ``path`` and ``schema`` strings, not the files they name, and
    a relative path resolves against the working directory."""

    data: SynthSpec | CsvSpec = field(default_factory=SynthSpec)
    methods: tuple[DpMethod, ...] = tuple(DpMethod)
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    delta: float = 1e-5
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    num_teachers: int = 10
    train: TrainConfig = field(default_factory=TrainConfig)
    inner_train_fraction: float = 0.5
    master_seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self, sizes=("num_teachers",))
        if not self.methods:
            raise ValueError("methods must be non-empty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must be distinct")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")
        if list(self.epsilons) != sorted(set(self.epsilons)):
            raise ValueError("epsilons must be strictly increasing")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not (0.0 < self.inner_train_fraction < 1.0):
            raise ValueError(
                f"inner_train_fraction must be in (0, 1), got {self.inner_train_fraction}")
        if self.num_teachers < 2:
            raise ValueError(f"num_teachers must be at least 2, got {self.num_teachers}")

    def canonical_json(self) -> str:
        """Every field, as compact JSON with sorted keys."""
        doc = asdict(self)
        doc["methods"] = [m.value for m in self.methods]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:16]


def _from_doc(cls: type, doc: dict, where: str):
    """``cls(**doc)`` after rejecting keys that are not fields of ``cls``."""
    reject_unknown_keys(doc, {f.name for f in fields(cls)}, where)
    return cls(**doc)


def _data_source(doc) -> SynthSpec | CsvSpec:
    """The config's ``data`` block: ``{"synth": {...}}`` or
    ``{"path": ..., "schema": ...}``."""
    reject_unknown_keys(doc, {"synth", "path", "schema"}, "data")
    if doc.keys() == {"synth"}:
        return _from_doc(SynthSpec, doc["synth"], "data.synth")
    if doc.keys() == {"path", "schema"}:
        return CsvSpec(**doc)
    raise ValueError("data must name exactly one source: a synth block, or a CSV path "
                     "with its schema path")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config JSON document; an unknown key at any level
    is an error, so a typo never silently falls back to a default. A key left
    out takes the dataclass's default, except ``data``: the document must name
    its data source. Every ValueError starts with ``path``."""
    with read_json(path) as kwargs:
        reject_unknown_keys(kwargs, {f.name for f in fields(ExperimentConfig)}, "config")
        kwargs["data"] = _data_source(kwargs.get("data", {}))
        if "train" in kwargs:
            kwargs["train"] = _from_doc(TrainConfig, kwargs["train"], "train")
        for key in ("methods", "epsilons", "seeds"):
            if key in kwargs:
                if not isinstance(kwargs[key], list):
                    raise ValueError(f"{key} must be a JSON list, got {kwargs[key]!r}")
                kwargs[key] = tuple(kwargs[key])
        if "methods" in kwargs:
            kwargs["methods"] = tuple(enum_member(DpMethod, m, "methods")
                                      for m in kwargs["methods"])
        return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class SweepCell:
    method: DpMethod
    epsilon: float
    seed: int


@dataclass(frozen=True)
class CellResult:
    """One cell's outcome. ``fit_iterations``, ``fit_gradient_norm`` and
    ``fit_stop`` are the released model's trainer diagnostics; None for
    prediction perturbation (it releases votes, not a fitted model) and
    failed cells."""

    cell: SweepCell
    report: audit_mod.AuditReport | None
    wall_time_seconds: float
    status: str
    fit_iterations: int | None = None
    fit_gradient_norm: float | None = None
    fit_stop: str | None = None


@dataclass(frozen=True)
class SeedTiming:
    """Wall time of one seed's shared work: its :class:`SeedContext` and each
    method's :func:`~dp_la.pipelines.shared_part`."""

    seed: int
    wall_time_seconds: float


@dataclass(frozen=True)
class SweepResults:
    rows: tuple[CellResult, ...]
    config_fingerprint: str
    seed_timings: tuple[SeedTiming, ...] = ()


def enumerate_cells(config: ExperimentConfig) -> list[SweepCell]:
    """Deterministic cell order: method, then epsilon ascending, then seed."""
    return [
        SweepCell(method, eps, seed)
        for method in config.methods
        for eps in config.epsilons
        for seed in config.seeds
    ]


def load_experiment_dataset(config: ExperimentConfig) -> Dataset:
    """The config's table, preprocessed; a target of one class is a ValueError."""
    if isinstance(config.data, SynthSpec):
        raw, schema = synth_generate(config.data)
    else:
        schema = TabularSchema.from_json(config.data.schema)
        raw = load_csv(config.data.path, schema)
    dataset = preprocess(raw, schema)
    if dataset.labels.min() == dataset.labels.max():
        raise ValueError(
            f"target column {schema.target_column!r} has one class: its positive_labels "
            f"{sorted(schema.positive_labels)} match {'every' if dataset.labels[0] else 'no'} row")
    return dataset


def _pipeline_rng(master: RngState, method: DpMethod, seed: int) -> RngState:
    """The DP pipeline's stream of one (method, seed); epsilon is not in the key."""
    return master.substream("pipeline", method.value, "seed", seed)


@dataclass(frozen=True)
class SeedContext:
    """What every cell of one seed shares, computed once per seed: the
    shadow-trained attack, the victim rows (a
    :class:`~dp_la.pipelines.Victim`) and the non-private baseline's
    accuracy on them. Cells only read it."""

    attack: audit_mod.AttackModel
    victim: Victim
    acc_nonprivate: float


def build_seed_context(config: ExperimentConfig, dataset: Dataset, seed: int) -> SeedContext:
    """The split of one seed, keyed by (master seed, seed), then the
    shadow-trained attack on its attack half, then the victim view of its
    victim half and the non-private baseline's accuracy. The shadow is fitted
    on attack_train, and the attack on the shadow's outputs on attack_train
    (members) and attack_test (non-members). The attack half is fitted before
    the victim rows are gathered, so its fits never run beside the victim's
    copies.
    """
    split = four_way_split(dataset, RngState(config.master_seed).substream("split", seed),
                           config.inner_train_fraction)

    members, nonmembers = split.attack_train, split.attack_test
    member_features, member_labels = dataset.features[members], dataset.labels[members]
    shadow = train(member_features, member_labels, config.train)
    attack = audit_mod.train_attack(
        predict_proba(shadow, member_features), member_labels,
        predict_proba(shadow, dataset.features[nonmembers]), dataset.labels[nonmembers],
        config.train)

    victim = victim_view(dataset, split)
    baseline = train(victim.train_features, victim.train_labels, config.train)
    acc_nonprivate = accuracy(predict(baseline, victim.test_features), victim.test_labels)
    return SeedContext(attack, victim, acc_nonprivate)


def _failed_status(exc: Exception) -> str:
    return f"failed:{type(exc).__name__}:{exc}"


def run_cell(
    config: ExperimentConfig,
    cell: SweepCell,
    context: SeedContext,
    shared: np.ndarray | ObjectiveNoise | TeacherVotes,
) -> CellResult:
    """One grid cell on its seed's context (from :func:`build_seed_context`)
    and its method's budget-free part ``shared`` (from
    :func:`~dp_la.pipelines.shared_part`): the epsilon-dependent part of the
    DP release, the shadow attack on it, metrics. The cell's wall time covers
    only this work. Its audit stream is keyed as the module docstring states."""
    start = time.perf_counter()
    try:
        audit_rng = RngState(config.master_seed).substream(
            "audit", cell.method.value, float(cell.epsilon), cell.seed)
        victim = context.victim
        release = run_pipeline(cell.method, victim, shared,
                               cell.method.budget(cell.epsilon, config.delta), config.train,
                               audit_rng)
        acc_private = accuracy(release.predictions, victim.test_labels)
        true_positives, false_positives = audit_mod.run_mia(
            context.attack, release.train_proba, victim.train_labels,
            release.test_proba, victim.test_labels)
        report = audit_mod.AuditReport(
            acc_private=acc_private, acc_nonprivate=context.acc_nonprivate,
            true_positives=true_positives, false_positives=false_positives,
            members=len(victim.train_labels), nonmembers=len(victim.test_labels))
        model = release.model
        fit = () if model is None else (model.iterations, model.gradient_norm, model.stop)
        return CellResult(cell, report, time.perf_counter() - start, "ok", *fit)
    except Exception as exc:  # cell failures are contained, not fatal
        return CellResult(cell, None, time.perf_counter() - start, _failed_status(exc))


def run_sweep(config: ExperimentConfig) -> SweepResults:
    """Walk the grid and contain its failures as the module docstring states;
    rows come back in :func:`enumerate_cells` order."""
    dataset = load_experiment_dataset(config)
    master, rows, timings = RngState(config.master_seed), {}, []
    for seed in config.seeds:
        start = time.perf_counter()
        try:
            context = build_seed_context(config, dataset, seed)
        except Exception as exc:  # contained like a cell failure
            context = exc
        shared_s = time.perf_counter() - start
        for method in config.methods:
            shared = context  # rebound per method: its own part or the failure above it
            if not isinstance(context, Exception):
                start = time.perf_counter()
                try:
                    shared = shared_part(method, context.victim, config.train,
                                         _pipeline_rng(master, method, seed), config.num_teachers)
                except Exception as exc:  # contained like a cell failure
                    shared = exc
                shared_s += time.perf_counter() - start
            for epsilon in config.epsilons:
                cell = SweepCell(method, epsilon, seed)
                rows[cell] = (CellResult(cell, None, 0.0, _failed_status(shared))
                              if isinstance(shared, Exception)
                              else run_cell(config, cell, context, shared))
        timings.append(SeedTiming(seed, shared_s))
        del context, shared  # freed before the next seed builds its own
    return SweepResults(tuple(rows[c] for c in enumerate_cells(config)),
                        config.fingerprint(), tuple(timings))


def _median(values: list[float]) -> float:
    """np.median's value for a non-empty list: the middle value, or the mean
    of the two middle values (np.median imports numpy.ma on first use)."""
    ordered, k = sorted(values), len(values) // 2
    return float(ordered[k] if len(values) % 2 else (ordered[k - 1] + ordered[k]) / 2.0)


def summarize(results: SweepResults) -> dict:
    """Per-(method, epsilon) medians over the seeds that completed.

    Groups with no successful cell are reported as missing rather than zero.
    """
    groups: dict[tuple[str, float], list[audit_mod.AuditReport]] = {}
    for row in results.rows:
        reports = groups.setdefault((row.cell.method.value, row.cell.epsilon), [])
        if row.report is not None:
            reports.append(row.report)

    summary = []
    for (method, epsilon), reports in groups.items():
        entry: dict = {"method": method, "epsilon": epsilon, "n_ok": len(reports)}
        if reports:
            entry.update({f"median_{name}": _median([getattr(r, name) for r in reports])
                          for name in _SUMMARY_METRICS})
        else:
            entry["missing"] = True
        summary.append(entry)
    return {"config_fingerprint": results.config_fingerprint, "groups": summary}


def _fmt(value: float) -> str:
    """Deterministic 12-significant-digit float formatting for CSV output; a
    count below 10**12 prints as ``str`` prints it."""
    return format(float(value), ".12g")


def _results_table(results: SweepResults) -> list[list[str]]:
    """results.csv as rows of cells, header first; a failed cell's metrics are blank."""
    table = [list(RESULT_COLUMNS)]
    for row in results.rows:
        cell, report = row.cell, row.report
        metrics = ([""] * len(_REPORT_METRICS) if report is None
                   else [_fmt(getattr(report, name)) for name in _REPORT_METRICS])
        # wall time is kept out of results.csv so reruns are byte-identical
        table.append([cell.method.value, _fmt(cell.epsilon), str(cell.seed), *metrics, "",
                      row.status])
    return table


def _fig_table(summary: dict, metric: str) -> list[list[str]]:
    """One row per epsilon, one column per method, of ``metric``'s medians; a
    (method, epsilon) group with no completed cell is blank."""
    table = {(g["method"], g["epsilon"]): g for g in summary["groups"]}
    methods = list(dict.fromkeys(method for method, _ in table))
    key = f"median_{metric}"
    rows = [["epsilon", *methods]]
    for eps in sorted({epsilon for _, epsilon in table}):
        groups = (table.get((m, eps), {}) for m in methods)
        rows.append([_fmt(eps), *(_fmt(g[key]) if key in g else "" for g in groups)])
    return rows


def _csv_text(table: list[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(table)
    return out.getvalue()


# Each figure-series CSV and the summary metric whose medians it plots.
_FIGURES = {"fig_utility_loss.csv": "utility_loss", "fig_privacy_leakage.csv": "privacy_leakage",
            "fig_trr.csv": "trr_rate"}
_REPORT_FILES = ("results.csv", *_FIGURES, "summary.json")


def refuse_existing_outputs(output_dir: str | Path, force: bool = False) -> None:
    """Raise FileExistsError if any of ``_REPORT_FILES`` already exists in
    ``output_dir``, unless ``force`` is set, and NotADirectoryError if the
    nearest existing path at or above ``output_dir`` is not a directory.
    ``dp-la run`` calls it before the sweep, so a refused run does no work;
    ``emit_report`` calls it again at write time."""
    out = Path(output_dir)
    nearest = next((p for p in (out, *out.parents) if p.exists()), None)
    if nearest is not None and not nearest.is_dir():
        raise NotADirectoryError(f"{nearest} is not a directory, so {out} cannot hold outputs")
    existing = [name for name in _REPORT_FILES if (out / name).exists()]
    if existing and not force:
        raise FileExistsError(
            f"refusing to overwrite {', '.join(sorted(existing))} in {out} (pass force/--force)"
        )


def emit_report(results: SweepResults, output_dir: str | Path, force: bool = False) -> list[Path]:
    """Write results.csv, the three figure-series CSVs and summary.json; the
    figure series and summary.json's groups are the per-(method, epsilon)
    medians of :func:`summarize`, which this computes from ``results``.

    Refuses to overwrite existing outputs unless ``force`` is set. Each file
    is written to a temporary name in ``output_dir`` and then renamed onto its
    own, so no output is ever left half-written.
    """
    summary = summarize(results)
    out = Path(output_dir)
    refuse_existing_outputs(out, force)
    out.mkdir(parents=True, exist_ok=True)

    summary_doc = dict(summary)
    # platform.platform() would spawn `uname -p` for a field it then drops
    summary_doc["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
    }
    summary_doc["timings"] = {
        "total_wall_time_seconds": sum(t.wall_time_seconds for t in results.seed_timings)
        + sum(r.wall_time_seconds for r in results.rows),
        "per_seed": [
            {"seed": t.seed, "wall_time_seconds": round(t.wall_time_seconds, 6)}
            for t in results.seed_timings
        ],
        "per_cell": [
            {
                "method": r.cell.method.value,
                "epsilon": r.cell.epsilon,
                "seed": r.cell.seed,
                "wall_time_seconds": round(r.wall_time_seconds, 6),
                "status": r.status,
                "fit_iterations": r.fit_iterations,
                "fit_gradient_norm": r.fit_gradient_norm,
                "fit_stop": r.fit_stop,
            }
            for r in results.rows
        ],
    }

    tables = [_results_table(results), *(_fig_table(summary, m) for m in _FIGURES.values())]
    contents = [*map(_csv_text, tables), json.dumps(summary_doc, indent=2) + "\n"]
    written = [out / name for name in _REPORT_FILES]
    for path, content in zip(written, contents):
        with atomic_write(path) as tmp:
            tmp.write_text(content, encoding="utf-8")
    return written
