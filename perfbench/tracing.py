"""Outside-in instrumentation of the dp_la package.

Nothing here edits the package. A target is a function named by its defining
module and attribute; patching replaces that function in every dp_la module
that holds it, because modules import functions by name (``pipelines`` calls
its own binding of ``model._fit``). Each replacement knows its call site, so a
span records both the function and the module that called it.

A target that a later version renames or removes is listed as missing, and
every metric that needs it is left out of the result instead of failing.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

LAYERS = ("data", "model", "mechanisms", "pipelines", "audit", "experiment", "cli")

# (defining module, attribute, layer). ``load_config`` is the cli layer's
# config parse even though it lives in ``experiment``.
TARGETS = (
    ("dp_la.cli", "main", "cli"),
    ("dp_la.experiment", "load_config", "cli"),
    ("dp_la.experiment", "run_sweep", "experiment"),
    ("dp_la.experiment", "run_cell", "experiment"),
    ("dp_la.experiment", "load_experiment_dataset", "experiment"),
    ("dp_la.experiment", "summarize", "experiment"),
    ("dp_la.experiment", "emit_report", "experiment"),
    ("dp_la.data", "load_csv", "data"),
    ("dp_la.data", "synth_generate", "data"),
    ("dp_la.data", "preprocess", "data"),
    ("dp_la.data", "four_way_split", "data"),
    ("dp_la.model", "train", "model"),
    ("dp_la.model", "_fit", "model"),
    ("dp_la.model", "predict", "model"),
    ("dp_la.model", "predict_proba", "model"),
    ("dp_la.mechanisms", "RngState.__init__", "mechanisms"),
    ("dp_la.mechanisms", "sample_laplace", "mechanisms"),
    ("dp_la.mechanisms", "gaussian_sigma", "mechanisms"),
    ("dp_la.pipelines", "run_pipeline", "pipelines"),
    ("dp_la.pipelines", "input_perturb", "pipelines"),
    ("dp_la.pipelines", "objective_perturb_train", "pipelines"),
    ("dp_la.pipelines", "pate_train", "pipelines"),
    ("dp_la.pipelines", "pate_predict", "pipelines"),
    ("dp_la.pipelines", "pate_vote_fraction", "pipelines"),
    ("dp_la.audit", "train_attack", "audit"),
    ("dp_la.audit", "run_mia", "audit"),
)

# Calls that mark the start of the first sweep cell: every cell splits the
# data and fits models, whatever the sweep's structure.
CELL_START_TARGETS = (
    ("dp_la.experiment", "run_cell", "experiment"),
    ("dp_la.data", "four_way_split", "data"),
    ("dp_la.model", "train", "model"),
    ("dp_la.model", "_fit", "model"),
)
# Fallback mark when cells run in other processes: the dataset is ready.
DATASET_READY_TARGET = ("dp_la.experiment", "load_experiment_dataset", "experiment")

# The public entry points of a logical fit; a pate_train call is one fit per teacher.
FIT_ENTRIES = ("model.train", "pipelines.objective_perturb_train", "pipelines.pate_train")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def span_name(target: tuple[str, str, str]) -> str:
    module, attr, _ = target
    return f"{_short(module)}.{attr}"


class Patch:
    """Replaces targets with wrappers built by ``make_wrapper`` until ``restore``.

    ``make_wrapper(original, name, site, layer)`` returns the replacement.
    """

    def __init__(self, targets, make_wrapper: Callable) -> None:
        self.installed: list[str] = []
        self.layers: set[str] = set()
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        for target in targets:
            if not self._install(target, make_wrapper):
                self.missing.append(span_name(target))

    def _install(self, target, make_wrapper) -> bool:
        module_name, attr, layer = target
        name = span_name(target)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." in attr:  # a method: patch it on its class, shared by every importer
            cls_name, meth = attr.split(".", 1)
            owner = getattr(module, cls_name, None)
            original = getattr(owner, meth, None) if owner is not None else None
            if not callable(original):
                return False
            self._set(owner, meth, make_wrapper(original, name, _short(module_name), layer))
        else:
            original = getattr(module, attr, None)
            if not callable(original):
                return False
            holders = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "dp_la" or n.startswith("dp_la."))]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        site = _short(holder.__name__)
                        self._set(holder, key, make_wrapper(original, name, site, layer))
        self.installed.append(name)
        self.layers.add(layer)
        return True

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


class CellStartMarker:
    """The untraced run's only instrumentation: when the first cell and the
    dataset were reached. Each wrapper costs one comparison per call."""

    def __init__(self) -> None:
        self.first_cell: float | None = None
        self.dataset_ready: float | None = None

        def cell(original, name, site, layer):
            def wrapper(*args, **kwargs):
                if self.first_cell is None:
                    self.first_cell = time.monotonic()
                return original(*args, **kwargs)
            return wrapper

        def ready(original, name, site, layer):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if self.dataset_ready is None:
                    self.dataset_ready = time.monotonic()
                return result
            return wrapper

        self._patches = [Patch(CELL_START_TARGETS, cell), Patch([DATASET_READY_TARGET], ready)]

    def restore(self) -> None:
        for patch in self._patches:
            patch.restore()

    def record(self) -> dict:
        return {"first_cell": self.first_cell, "dataset_ready": self.dataset_ready}


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            h.update(f"{array.dtype.str}{array.shape}".encode())
            h.update(array.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _train_cfg(config) -> tuple:
    return (config.lam, config.epochs, config.learning_rate)


def _annotate_train(features, labels, config, *args, **kwargs) -> dict:
    key = _digest("train", np.asarray(features, dtype=float), np.asarray(labels),
                  _train_cfg(config))
    return {"fits": [key], "epochs": config.epochs}


def _annotate_erm(features, labels, budget, config, rng, *args, **kwargs) -> dict:
    key = _digest("erm", np.asarray(features, dtype=float), np.asarray(labels),
                  budget.epsilon, budget.delta, _train_cfg(config), repr(rng))
    return {"fits": [key], "epochs": config.epochs}


def _annotate_pate(features, labels, num_teachers, config, rng, *args, **kwargs) -> dict:
    key = _digest("pate", np.asarray(features, dtype=float), np.asarray(labels),
                  num_teachers, _train_cfg(config), repr(rng))
    return {"fits": [f"{key}:{i}" for i in range(num_teachers)],
            "epochs": config.epochs * num_teachers, "teachers": num_teachers}


def _annotate_pipeline(method, *args, **kwargs) -> dict:
    return {"method": getattr(method, "value", str(method))}


def _annotate_rows(ensemble, features, *args, **kwargs) -> dict:
    return {"rows": int(np.shape(features)[0])}


def _annotate_preprocess(raw, *args, **kwargs) -> dict:
    return {"rows": int(raw.n_rows)}


# Span annotations computed from call arguments before the span's clock starts,
# so hashing a fit's inputs is tracing overhead, not fit time.
ANNOTATORS = {
    "model.train": _annotate_train,
    "pipelines.objective_perturb_train": _annotate_erm,
    "pipelines.pate_train": _annotate_pate,
    "pipelines.run_pipeline": _annotate_pipeline,
    "pipelines.pate_predict": _annotate_rows,
    "pipelines.pate_vote_fraction": _annotate_rows,
    "data.preprocess": _annotate_preprocess,
}


@dataclass
class Span:
    id: int
    parent: int | None
    thread: int
    name: str
    site: str
    layer: str
    start: float
    end: float
    note: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per call of every target; spans stay in memory until ``record``."""

    def __init__(self, targets=TARGETS) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.main_thread = threading.get_ident()
        self._patch = Patch(targets, self._make_wrapper)

    @property
    def installed(self) -> list[str]:
        return self._patch.installed

    @property
    def missing(self) -> list[str]:
        return self._patch.missing

    def restore(self) -> None:
        self._patch.restore()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _make_wrapper(self, original, name, site, layer):
        annotate = ANNOTATORS.get(name)

        def wrapper(*args, **kwargs):
            note = None
            if annotate is not None:
                try:
                    note = annotate(*args, **kwargs)
                except (TypeError, AttributeError, ValueError, IndexError):
                    note = None  # the call itself reports bad arguments
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans.append(Span(span_id, parent, threading.get_ident(), name, site,
                                       layer, start, end, note))

        return wrapper

    def add_span(self, name: str, layer: str, start: float, end: float) -> None:
        """A span timed by the caller, such as the package import."""
        self.spans.append(Span(next(self._ids), None, threading.get_ident(), name, "bench",
                               layer, start, end))

    def record(self) -> dict:
        return {
            "installed": self.installed,
            "missing": self.missing,
            "layers": [layer for layer in LAYERS if layer in self._patch.layers],
            "main_thread": self.main_thread,
            "spans": [[s.id, s.parent, s.thread, s.name, s.site, s.layer, s.start, s.end, s.note]
                      for s in self.spans],
        }


def load_spans(record: dict) -> list[Span]:
    return [Span(*row) for row in record["spans"]]


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def span_metrics(record: dict, wall_s: float | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced run. Counts are exact; times in seconds.

    ``wall_s`` is the traced process's wall time, measured by its parent; it
    gives the share of wall time that no recorded span covers.
    """
    spans = load_spans(record)
    have = set(record["installed"])
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def ancestors(s: Span):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    def named(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    def outermost(group: list[Span], names: set[str]) -> list[Span]:
        return [s for s in group if not any(a.name in names for a in ancestors(s))]

    def total(group: list[Span]) -> float:
        return float(sum(s.duration for s in group))

    def noted(group: list[Span]) -> bool:
        """Whether every call's arguments were read; metrics built from them
        are left out otherwise."""
        return all(s.note for s in group)

    m: dict[str, float] = {}

    for layer in record["layers"]:
        own = [s for s in spans if s.layer == layer]
        m[f"{layer}.self_s"] = float(sum(s.duration - child_time[s.id] for s in own))
        m[f"{layer}.busy_s"] = total([s for s in own
                                      if not any(a.layer == layer for a in ancestors(s))])

    entries = outermost(named(*FIT_ENTRIES), set(FIT_ENTRIES))
    # Fits are also left out when none was seen: they ran in processes this
    # trace does not reach.
    if have.issuperset(FIT_ENTRIES) and entries and noted(entries):
        keys = [k for s in entries for k in s.note["fits"]]
        m["model.fit_calls"] = float(len(keys))
        m["model.fit_distinct_ratio"] = len(set(keys)) / len(keys)
        m["model.epochs"] = float(sum(s.note["epochs"] for s in entries))
        if "model._fit" in have:
            m["model.fit_s"] = total(named("model._fit"))
            if m["model.epochs"]:
                m["model.us_per_epoch"] = m["model.fit_s"] / m["model.epochs"] * 1e6
    if have.issuperset({"model.predict", "model.predict_proba"}):
        m["model.predict_calls"] = float(len(named("model.predict_proba")))
        names = {"model.predict", "model.predict_proba"}
        m["model.predict_s"] = total(outermost(named(*names), names))

    runs = named("pipelines.run_pipeline")
    if "pipelines.run_pipeline" in have and noted(runs):
        for method in ("input_perturbation", "objective_perturbation", "prediction_perturbation"):
            m[f"pipelines.{method}_s"] = total([s for s in runs if s.note["method"] == method])
    pate = named("pipelines.pate_train")
    if "pipelines.pate_train" in have and noted(pate):
        m["pipelines.teachers_trained"] = float(sum(s.note["teachers"] for s in pate))
    votes = named("pipelines.pate_predict", "pipelines.pate_vote_fraction")
    if have.issuperset({"pipelines.pate_predict", "pipelines.pate_vote_fraction"}) \
            and noted(votes):
        m["pipelines.vote_queries"] = float(sum(s.note["rows"] for s in votes))

    if "audit.train_attack" in have:
        m["audit.attack_fit_s"] = total(named("audit.train_attack"))
    if "audit.run_mia" in have:
        m["audit.mia_s"] = total(named("audit.run_mia"))
    if "model.train" in have:
        m["experiment.baseline_shadow_fit_s"] = total(
            [s for s in named("model.train") if s.site == "experiment"])

    if have.issuperset({"data.load_csv", "data.synth_generate"}):
        m["data.ingest_s"] = total(named("data.load_csv", "data.synth_generate"))
    prep = named("data.preprocess")
    if "data.preprocess" in have:
        m["data.preprocess_s"] = total(prep)
        if noted(prep):
            m["data.rows"] = float(sum(s.note["rows"] for s in prep))
    if "data.four_way_split" in have:
        m["data.split_calls"] = float(len(named("data.four_way_split")))
        m["data.split_s"] = total(named("data.four_way_split"))

    if "mechanisms.RngState.__init__" in have:
        rng = named("mechanisms.RngState.__init__")
        m["mechanisms.substreams"] = float(len(rng))
        m["mechanisms.rng_s"] = total(rng)

    if "experiment.run_cell" in have:
        cells = [s.duration for s in named("experiment.run_cell")]
        m["experiment.cells"] = float(len(cells))
        if cells:
            m["experiment.cell_s.p50"] = _percentile(cells, 50)
            m["experiment.cell_s.p90"] = _percentile(cells, 90)
    if have.issuperset({"experiment.summarize", "experiment.emit_report"}):
        names = {"experiment.summarize", "experiment.emit_report"}
        m["experiment.report_s"] = total(outermost(named(*names), names))
    if "experiment.load_config" in have:
        m["cli.config_s"] = total(named("experiment.load_config"))

    m["trace.spans"] = float(len(spans))
    if wall_s:
        covered = total([s for s in spans
                         if s.parent is None and s.thread == record["main_thread"]])
        m["trace.uncovered_share"] = max(0.0, wall_s - covered) / wall_s
    return m
