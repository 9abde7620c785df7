"""Sweep orchestration: configuration, deterministic (method, epsilon, seed)
grid execution, per-cell privacy audits, and report emission.

Work is done once at the level of the grid it depends on: the sweep loops
seed, then method, then epsilon. Per seed, a :class:`SeedContext` holds the
shadow-trained attack with its threshold (fitted on the attack half of the
seed's four-way split), the victim rows (:class:`~dp_la.pipelines.Victim`)
and the non-private baseline's accuracy. Per (method, seed),
:func:`~dp_la.pipelines.shared_part` builds what no epsilon changes: input
perturbation's noise or the PATE teachers' votes; if it fails, only that
method's cells of the seed fail. Each cell then does only its epsilon work
(scale the noise and fit, fit objective perturbation, or draw vote and audit
noise), computes the outputs the audit observes once per part and runs the
membership-inference attack on them. Cells only read what they share, so the
order of a seed's cells changes no result; ``dp-la audit`` runs the sweep on
a config narrowed to its first method, epsilon and seed. In ``summary.json``
the seed's shared work is timed under ``timings.per_seed``; each cell's own
time and its released model's fit diagnostics (Newton iterations, final
gradient norm, stop reason) are under ``timings.per_cell``.

Every random stream is a substream of ``RngState(master_seed)`` labelled by
grid values, never by positions in the grid or by call order: the split by
``("split", seed)``, the pipeline stream by ``("pipeline", method, "seed",
seed)`` and each cell's audit stream by ``("audit", method, float(epsilon),
seed)``. So results do not depend on execution order, and adding, dropping or
reordering grid values never disturbs the cells that remain.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from .data import (
    Dataset,
    TabularSchema,
    _reject_unknown_keys,
    four_way_split,
    load_csv,
    preprocess,
    synth_generate,
)
from .mechanisms import RngState
from .model import TrainConfig, _check_field_types, accuracy, predict, predict_proba, train
from .pipelines import DpMethod, TeacherVotes, Victim, run_pipeline, shared_part, victim_view

__all__ = [
    "SynthSpec",
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

RESULT_COLUMNS = (
    "method",
    "epsilon",
    "seed",
    "acc_nonprivate",
    "acc_private",
    "utility_loss",
    "tpr",
    "fpr",
    "privacy_leakage",
    "true_revealed_records",
    "trr_rate",
    "wall_time_seconds",
    "status",
)


@dataclass(frozen=True)
class SynthSpec:
    n: int = 2000
    d_numeric: int = 5
    d_categorical: int = 2
    separation: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        _check_field_types(self)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# The config's "data" block names the data-source fields differently.
_DATA_FIELDS = {"synth": "synth", "path": "data_path", "schema": "schema_path"}


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: str | None = None
    schema_path: str | None = None
    synth: SynthSpec | None = field(default_factory=SynthSpec)
    methods: tuple[DpMethod, ...] = tuple(DpMethod)
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    delta: float = 1e-5
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    num_teachers: int = 10
    train: TrainConfig = field(default_factory=TrainConfig)
    inner_train_fraction: float = 0.5
    master_seed: int = 0
    output_dir: str = "dp_la_out"
    threads: int = 1  # accepted for existing configs; seeds always run serially

    def __post_init__(self) -> None:
        _check_field_types(self, {name: f"data.{key}" for key, name in _DATA_FIELDS.items()})
        if (self.data_path is None) == (self.synth is None):
            raise ValueError("config must specify exactly one of a CSV data path or a synth block")
        if (self.data_path is None) != (self.schema_path is None):
            raise ValueError("a CSV data path and a schema path go together")
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
        if self.threads < 1:
            raise ValueError("threads must be positive")

    def canonical_json(self) -> str:
        """Every field that determines the results, i.e. all but where they
        are written and ``threads``, which changes nothing."""
        doc = asdict(self)
        del doc["output_dir"], doc["threads"]
        doc["methods"] = [m.value for m in self.methods]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:16]


_CONFIG_KEYS = frozenset(
    {f.name for f in fields(ExperimentConfig)} - set(_DATA_FIELDS.values()) | {"data"}
)


def _from_doc(cls: type, doc: dict, where: str):
    """``cls(**doc)`` after rejecting keys that are not fields of ``cls``."""
    _reject_unknown_keys(doc, {f.name for f in fields(cls)}, where)
    return cls(**doc)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config JSON document; an unknown key at any level
    is an error, so a typo never silently falls back to a default. A key left
    out takes the dataclass's default."""
    kwargs = json.loads(Path(path).read_text(encoding="utf-8"))
    _reject_unknown_keys(kwargs, _CONFIG_KEYS, "config")
    data = kwargs.pop("data", {})
    _reject_unknown_keys(data, set(_DATA_FIELDS), "data")
    kwargs.update({_DATA_FIELDS[key]: value for key, value in data.items()})
    kwargs["synth"] = (_from_doc(SynthSpec, data["synth"], "data.synth")
                       if "synth" in data else None)
    if "train" in kwargs:
        kwargs["train"] = _from_doc(TrainConfig, kwargs["train"], "train")
    for key in ("methods", "epsilons", "seeds"):
        if key in kwargs:
            if not isinstance(kwargs[key], list):
                raise ValueError(f"{key} must be a JSON list, got {kwargs[key]!r}")
            kwargs[key] = tuple(kwargs[key])
    if "methods" in kwargs:
        kwargs["methods"] = tuple(DpMethod(m) for m in kwargs["methods"])
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
    if config.synth is not None:
        raw, schema = synth_generate(
            config.synth.n,
            config.synth.d_numeric,
            config.synth.d_categorical,
            config.synth.separation,
            config.synth.seed,
        )
    else:
        schema = TabularSchema.from_json(config.schema_path)
        raw = load_csv(config.data_path, schema)
    return preprocess(raw, schema)


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
    shadow = train(dataset.features[members], dataset.labels[members], config.train)
    attack = audit_mod.train_attack(
        predict_proba(shadow, dataset.features[members]), dataset.labels[members],
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
    shared: np.ndarray | TeacherVotes | None,
    pipeline_rng: RngState,
) -> CellResult:
    """One grid cell on its seed's context (from :func:`build_seed_context`)
    and its method's budget-free part ``shared`` (from
    :func:`~dp_la.pipelines.shared_part` on ``pipeline_rng``): the
    epsilon-dependent part of the DP release, the shadow attack on it,
    metrics. The cell's wall time covers only this work.

    The split is keyed by the seed's value and the pipeline stream by the
    (method, seed) values only, so cells along the epsilon axis of one seed
    share their underlying randomness and differ purely in the noise scale
    (common random numbers; trend curves are not polluted by resampling
    jitter). The audit's fresh vote noise is keyed by the cell's (method,
    epsilon, seed) values; ``float(epsilon)`` makes a JSON ``1`` and ``1.0``
    key the same stream.
    """
    start = time.perf_counter()
    try:
        audit_rng = RngState(config.master_seed).substream(
            "audit", cell.method.value, float(cell.epsilon), cell.seed)
        victim = context.victim
        release = run_pipeline(cell.method, victim, shared,
                               cell.method.budget(cell.epsilon, config.delta), config.train,
                               pipeline_rng, audit_rng)
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


def _failed_cells(cells: list[SweepCell], exc: Exception) -> list[CellResult]:
    return [CellResult(cell, None, 0.0, _failed_status(exc)) for cell in cells]


def _run_seed(
    config: ExperimentConfig, dataset: Dataset, seed: int, cells: list[SweepCell]
) -> tuple[list[CellResult], SeedTiming]:
    """Build one seed's context, then for each method its shared part, then
    run that method's cells of the seed. If the context cannot be built,
    every cell of the seed fails with its error; if a shared part cannot,
    only that method's cells do."""
    start = time.perf_counter()
    try:
        context = build_seed_context(config, dataset, seed)
    except Exception as exc:  # contained like a cell failure
        return _failed_cells(cells, exc), SeedTiming(seed, time.perf_counter() - start)
    shared_s = time.perf_counter() - start

    master, rows = RngState(config.master_seed), []
    for method in config.methods:
        method_cells = [c for c in cells if c.method is method]
        pipeline_rng = _pipeline_rng(master, method, seed)
        start = time.perf_counter()
        try:
            shared = shared_part(method, context.victim, config.train, pipeline_rng,
                                 config.num_teachers)
        except Exception as exc:  # contained like a cell failure
            rows += _failed_cells(method_cells, exc)
            continue
        finally:
            shared_s += time.perf_counter() - start
        rows += [run_cell(config, cell, context, shared, pipeline_rng) for cell in method_cells]
    return rows, SeedTiming(seed, shared_s)


def run_sweep(config: ExperimentConfig, dataset: Dataset | None = None) -> SweepResults:
    """Execute the full grid, one seed group after another; rows come back in
    cell order. ``config.threads`` is accepted but does not change scheduling."""
    if dataset is None:
        dataset = load_experiment_dataset(config)
    cells = enumerate_cells(config)
    groups = [
        _run_seed(config, dataset, seed, [c for c in cells if c.seed == seed])
        for seed in config.seeds
    ]
    by_cell = {row.cell: row for rows, _ in groups for row in rows}
    return SweepResults(
        rows=tuple(by_cell[c] for c in cells),
        config_fingerprint=config.fingerprint(),
        seed_timings=tuple(timing for _, timing in groups),
    )


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
    order: list[tuple[str, float]] = []
    for row in results.rows:
        key = (row.cell.method.value, row.cell.epsilon)
        if key not in groups:
            groups[key] = []
            order.append(key)
        if row.report is not None:
            groups[key].append(row.report)

    summary = []
    for method, epsilon in order:
        reports = groups[(method, epsilon)]
        entry: dict = {"method": method, "epsilon": epsilon, "n_ok": len(reports)}
        if reports:
            entry.update(
                median_utility_loss=_median([r.utility_loss for r in reports]),
                median_privacy_leakage=_median([r.privacy_leakage for r in reports]),
                median_true_revealed_records=_median([r.true_revealed_records for r in reports]),
                median_trr_rate=_median([r.trr_rate for r in reports]),
            )
        else:
            entry["missing"] = True
        summary.append(entry)
    return {"config_fingerprint": results.config_fingerprint, "groups": summary}


def _fmt(value: float) -> str:
    """Deterministic 12-significant-digit float formatting for CSV output."""
    return format(float(value), ".12g")


def _results_csv_lines(results: SweepResults) -> list[str]:
    lines = [",".join(RESULT_COLUMNS)]
    for row in results.rows:
        r = row.report
        values = [row.cell.method.value, _fmt(row.cell.epsilon), str(row.cell.seed)]
        if r is None:
            values += [""] * 8
        else:
            values += [
                _fmt(r.acc_nonprivate),
                _fmt(r.acc_private),
                _fmt(r.utility_loss),
                _fmt(r.tpr),
                _fmt(r.fpr),
                _fmt(r.privacy_leakage),
                str(r.true_revealed_records),
                _fmt(r.trr_rate),
            ]
        # wall time is kept out of results.csv so reruns are byte-identical
        values += ["", _csv_escape(row.status)]
        lines.append(",".join(values))
    return lines


def _csv_escape(value: str) -> str:
    if any(c in value for c in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _fig_series_lines(summary: dict, metric: str) -> list[str]:
    """One row per epsilon, one column per method, of ``metric``'s medians."""
    table = {(g["method"], g["epsilon"]): g for g in summary["groups"]}
    methods = list(dict.fromkeys(method for method, _ in table))
    epsilons = sorted({epsilon for _, epsilon in table})
    lines = [",".join(["epsilon"] + methods)]
    for eps in epsilons:
        cells = []
        for m in methods:
            g = table.get((m, eps))
            if g is None or g.get("missing"):
                cells.append("")
            else:
                cells.append(_fmt(g[f"median_{metric}"]))
        lines.append(",".join([_fmt(eps)] + cells))
    return lines


_REPORT_FILES = ("results.csv", "fig_utility_loss.csv", "fig_privacy_leakage.csv",
                 "fig_trr.csv", "summary.json")


def refuse_existing_outputs(output_dir: str | Path, force: bool = False) -> None:
    """Raise FileExistsError if any of ``_REPORT_FILES`` already exists in
    ``output_dir``, unless ``force`` is set. ``dp-la run`` calls it before the
    sweep, so a refused run does no work; ``emit_report`` calls it again at
    write time."""
    out = Path(output_dir)
    existing = [name for name in _REPORT_FILES if (out / name).exists()]
    if existing and not force:
        raise FileExistsError(
            f"refusing to overwrite {', '.join(sorted(existing))} in {out} (pass force/--force)"
        )


def emit_report(
    results: SweepResults,
    summary: dict,
    output_dir: str | Path,
    force: bool = False,
) -> list[Path]:
    """Write results.csv, summary.json and the three figure-series CSVs; the
    figure series are the per-(method, epsilon) medians of ``summary`` (see
    :func:`summarize`).

    Refuses to overwrite existing outputs unless ``force`` is set. Each file
    is written to a temporary name in ``output_dir`` and then renamed onto its
    own, so no output is ever left half-written.
    """
    out = Path(output_dir)
    refuse_existing_outputs(out, force)
    out.mkdir(parents=True, exist_ok=True)
    targets = {
        "results.csv": "\n".join(_results_csv_lines(results)) + "\n",
        "fig_utility_loss.csv": "\n".join(_fig_series_lines(summary, "utility_loss")) + "\n",
        "fig_privacy_leakage.csv": "\n".join(_fig_series_lines(summary, "privacy_leakage")) + "\n",
        "fig_trr.csv": "\n".join(_fig_series_lines(summary, "trr_rate")) + "\n",
    }

    summary_doc = dict(summary)
    summary_doc["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
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

    targets["summary.json"] = json.dumps(summary_doc, indent=2) + "\n"
    written = []
    for name, content in targets.items():
        path = out / name
        _write_atomic(path, content)
        written.append(path)
    return written


def _write_atomic(path: Path, content: str) -> None:
    """Write ``content`` to a temporary file beside ``path``, then rename it
    onto ``path``; the temporary file never outlives the call."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(content, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
