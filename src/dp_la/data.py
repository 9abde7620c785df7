"""Tabular data handling: schema-driven CSV ingestion, preprocessing
(min-max scaling, one-hot encoding, binary target mapping), the four-way
victim/attack split, and a synthetic two-cluster generator for desk-scale
experiments.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .mechanisms import RngState

__all__ = [
    "ColumnKind",
    "TabularSchema",
    "RawTable",
    "Dataset",
    "FourWaySplit",
    "load_csv",
    "preprocess",
    "four_way_split",
    "synth_generate",
    "write_raw_csv",
]


class ColumnKind(Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    TARGET = "target"
    DROP = "drop"


@dataclass(frozen=True)
class TabularSchema:
    """Declared roles of the CSV columns plus the positive target labels."""

    columns: tuple[tuple[str, ColumnKind], ...]
    positive_labels: frozenset[str]

    def __post_init__(self) -> None:
        targets = [name for name, kind in self.columns if kind is ColumnKind.TARGET]
        if len(targets) != 1:
            raise ValueError(f"schema must declare exactly one target column, got {targets}")
        if not self.positive_labels:
            raise ValueError("positive_labels must be non-empty")

    @property
    def target_column(self) -> str:
        return next(name for name, kind in self.columns if kind is ColumnKind.TARGET)

    def names_of(self, kind: ColumnKind) -> list[str]:
        return [name for name, k in self.columns if k is kind]

    @classmethod
    def from_json(cls, path: str | Path) -> "TabularSchema":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        columns = tuple((c["name"], ColumnKind(c["kind"])) for c in doc["columns"])
        return cls(columns=columns, positive_labels=frozenset(doc["positive_labels"]))

    def to_json(self, path: str | Path) -> None:
        doc = {
            "columns": [{"name": n, "kind": k.value} for n, k in self.columns],
            "positive_labels": sorted(self.positive_labels),
        }
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class RawTable:
    """Typed columns as ingested: numeric columns as float arrays, categorical
    and target columns as string lists."""

    numeric: dict[str, np.ndarray]
    categorical: dict[str, list[str]]
    target: list[str]
    n_rows: int


@dataclass(frozen=True)
class Dataset:
    """Preprocessed model matrix.

    Numeric features are min-max scaled to [0, 1]; each source categorical
    column expands to a one-hot block over its lexicographically sorted
    categories; labels are 1 iff the target value is in positive_labels.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    normalization_bounds: dict[str, tuple[float, float]]

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class FourWaySplit:
    """Disjoint covering row-index sets: victim halves train the audited model,
    attack halves train the shadow/attack models."""

    victim_train: np.ndarray
    victim_test: np.ndarray
    attack_train: np.ndarray
    attack_test: np.ndarray


def load_csv(path: str | Path, schema: TabularSchema) -> RawTable:
    """Ingest a headered CSV into typed columns.

    Raises with the offending column name when a schema column is missing or
    named twice in the header, and with the 1-based data row index when a row's
    cell count differs from the header's or a numeric cell fails to parse.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        rows = list(reader)

    col_index = {name: i for i, name in enumerate(header)}
    for name, kind in schema.columns:
        if kind is ColumnKind.DROP:
            continue
        if name not in col_index:
            raise ValueError(f"{path}: required column '{name}' not found in header")
        if header.count(name) > 1:
            raise ValueError(f"{path}: column '{name}' appears more than once in the header")

    numeric_names = schema.names_of(ColumnKind.NUMERIC)
    categorical_names = schema.names_of(ColumnKind.CATEGORICAL)
    target_name = schema.target_column

    numeric: dict[str, list[float]] = {n: [] for n in numeric_names}
    categorical: dict[str, list[str]] = {n: [] for n in categorical_names}
    target: list[str] = []

    for row_no, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
        for name in numeric_names:
            cell = row[col_index[name]]
            try:
                numeric[name].append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_no}, column '{name}': cannot parse {cell!r} as a number"
                ) from None
        for name in categorical_names:
            categorical[name].append(row[col_index[name]])
        target.append(row[col_index[target_name]])

    if not target:
        raise ValueError(f"{path}: no data rows")
    return RawTable(
        numeric={n: np.asarray(v, dtype=float) for n, v in numeric.items()},
        categorical=categorical,
        target=target,
        n_rows=len(target),
    )


def _minmax(values: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    lo, hi = bounds
    if hi <= lo:  # constant column maps to 0
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def preprocess(raw: RawTable, schema: TabularSchema) -> Dataset:
    """Build the model matrix: scaled numerics, one-hot categoricals, binary labels."""
    blocks: list[np.ndarray] = []
    names: list[str] = []
    bounds: dict[str, tuple[float, float]] = {}

    for name, kind in schema.columns:
        if kind is ColumnKind.NUMERIC:
            col = raw.numeric[name]
            if not np.all(np.isfinite(col)):
                raise ValueError(f"column '{name}' contains non-finite values")
            lo, hi = float(col.min()), float(col.max())
            bounds[name] = (lo, hi)
            blocks.append(_minmax(col, (lo, hi))[:, None])
            names.append(name)
        elif kind is ColumnKind.CATEGORICAL:
            col = raw.categorical[name]
            categories = sorted(set(col))
            index = {c: i for i, c in enumerate(categories)}
            block = np.zeros((raw.n_rows, len(categories)))
            for r, value in enumerate(col):
                block[r, index[value]] = 1.0
            blocks.append(block)
            names.extend(f"{name}={c}" for c in categories)

    labels = np.asarray([1 if t in schema.positive_labels else 0 for t in raw.target], dtype=int)
    features = np.hstack(blocks) if blocks else np.zeros((raw.n_rows, 0))
    return Dataset(
        features=features,
        labels=labels,
        feature_names=tuple(names),
        normalization_bounds=bounds,
    )


def _allocate(counts: list[int], fraction: float, total_target: int) -> list[int]:
    """Per-class allocation whose sum is exactly total_target (largest remainder,
    ties broken by class order)."""
    quotas = [c * fraction for c in counts]
    base = [int(np.floor(q)) for q in quotas]
    shortfall = total_target - sum(base)
    if shortfall < 0:
        raise ValueError("allocation target below the floor allocation")
    remainders = sorted(range(len(counts)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in remainders[:shortfall]:
        base[i] += 1
    return base


def four_way_split(dataset: Dataset, seed: int, inner_train_fraction: float = 0.5) -> FourWaySplit:
    """Label-stratified split into victim-train/test and attack-train/test.

    Rows are shuffled by ``seed``; the victim half receives any odd row, and
    within each half the train part receives any indivisible remainder.
    Deterministic per (dataset, seed).
    """
    n = dataset.n_rows
    if n < 8:
        raise ValueError(f"need at least 8 rows to build a four-way split, got {n}")
    if not (0.0 < inner_train_fraction < 1.0):
        raise ValueError(f"inner_train_fraction must be in (0, 1), got {inner_train_fraction}")

    rng = RngState(seed).substream("four-way-split").generator
    by_class: list[np.ndarray] = []
    for cls in (0, 1):
        idx = np.flatnonzero(dataset.labels == cls)
        by_class.append(rng.permutation(idx))

    counts = [len(idx) for idx in by_class]
    victim_per_class = _allocate(counts, 0.5, (n + 1) // 2)
    victim_idx = [idx[:k] for idx, k in zip(by_class, victim_per_class)]
    attack_idx = [idx[k:] for idx, k in zip(by_class, victim_per_class)]

    def inner_split(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        sizes = [len(p) for p in parts]
        total = sum(sizes)
        train_target = int(np.ceil(total * inner_train_fraction))
        train_per_class = _allocate(sizes, inner_train_fraction, train_target)
        train = np.concatenate([p[:k] for p, k in zip(parts, train_per_class)])
        test = np.concatenate([p[k:] for p, k in zip(parts, train_per_class)])
        return np.sort(train), np.sort(test)

    victim_train, victim_test = inner_split(victim_idx)
    attack_train, attack_test = inner_split(attack_idx)
    for part_name, part in (
        ("victim_train", victim_train),
        ("victim_test", victim_test),
        ("attack_train", attack_train),
        ("attack_test", attack_test),
    ):
        part_labels = dataset.labels[part]
        if part.size == 0 or np.unique(part_labels).size < 2:
            raise ValueError(f"dataset too small: part '{part_name}' lacks a row of each class")
    return FourWaySplit(victim_train, victim_test, attack_train, attack_test)


_CATEGORY_POOL = ("a", "b", "c")


def synth_generate(
    n: int,
    d_numeric: int,
    d_categorical: int,
    class_separation: float,
    seed: int,
) -> tuple[RawTable, TabularSchema]:
    """Two-Gaussian-cluster table with a balanced binary target.

    Numeric feature j is N(0, 1) for the negative class and
    N(class_separation, 1) for the positive class; categorical columns draw
    from three categories with class-dependent frequencies. Deterministic per
    argument tuple.
    """
    if n < 8:
        raise ValueError(f"n must be at least 8, got {n}")
    if d_numeric < 1:
        raise ValueError(f"d_numeric must be >= 1, got {d_numeric}")
    if d_categorical < 0:
        raise ValueError(f"d_categorical must be >= 0, got {d_categorical}")

    rng = RngState(seed).substream("synth").generator
    labels = np.zeros(n, dtype=int)
    labels[: n // 2] = 1
    labels = labels[rng.permutation(n)]

    numeric: dict[str, np.ndarray] = {}
    for j in range(d_numeric):
        base = rng.normal(0.0, 1.0, size=n)
        numeric[f"x{j}"] = base + class_separation * labels

    # Class-dependent category frequencies, fading to identical distributions
    # as class_separation -> 0 so that labels stay independent of all features.
    tilt = float(np.tanh(class_separation))
    freq_neg = np.array([0.5, 0.3, 0.2])
    freq_pos = (1.0 - tilt) * freq_neg + tilt * np.array([0.2, 0.3, 0.5])
    categorical: dict[str, list[str]] = {}
    for j in range(d_categorical):
        draws_neg = rng.choice(len(_CATEGORY_POOL), size=n, p=freq_neg)
        draws_pos = rng.choice(len(_CATEGORY_POOL), size=n, p=freq_pos)
        chosen = np.where(labels == 1, draws_pos, draws_neg)
        categorical[f"c{j}"] = [_CATEGORY_POOL[k] for k in chosen]

    target = ["pos" if v == 1 else "neg" for v in labels]
    columns = tuple(
        [(f"x{j}", ColumnKind.NUMERIC) for j in range(d_numeric)]
        + [(f"c{j}", ColumnKind.CATEGORICAL) for j in range(d_categorical)]
        + [("outcome", ColumnKind.TARGET)]
    )
    schema = TabularSchema(columns=columns, positive_labels=frozenset({"pos"}))
    raw = RawTable(numeric=numeric, categorical=categorical, target=target, n_rows=n)
    return raw, schema


def write_raw_csv(raw: RawTable, schema: TabularSchema, path: str | Path) -> None:
    """Emit an ingestable CSV; floats use repr so emission is byte-stable."""
    names = [name for name, kind in schema.columns if kind is not ColumnKind.DROP]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for r in range(raw.n_rows):
            row: list[str] = []
            for name, kind in schema.columns:
                if kind is ColumnKind.NUMERIC:
                    row.append(repr(float(raw.numeric[name][r])))
                elif kind is ColumnKind.CATEGORICAL:
                    row.append(raw.categorical[name][r])
                elif kind is ColumnKind.TARGET:
                    row.append(raw.target[r])
            writer.writerow(row)

