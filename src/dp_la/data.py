"""Tabular data handling: schema-driven CSV ingestion, preprocessing
(min-max scaling, one-hot encoding, binary target mapping), the four-way
victim/attack split, and a synthetic two-cluster generator for desk-scale
experiments.
"""

from __future__ import annotations

import csv
import gc
import json
from dataclasses import dataclass
from enum import Enum
from itertools import islice
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


def _reject_unknown_keys(doc: dict, known: frozenset[str] | set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _require_exact_keys(doc: dict, keys: set[str], where: str) -> None:
    _reject_unknown_keys(doc, keys, where)
    missing = sorted(keys - set(doc))
    if missing:
        raise ValueError(f"missing key(s) in {where}: {', '.join(missing)}")


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
        """Parse ``{"columns": [{"name": ..., "kind": ...}, ...],
        "positive_labels": [...]}``. A key missing or unknown at either level
        is an error, and ``positive_labels`` must be a list of strings."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        _require_exact_keys(doc, {"columns", "positive_labels"}, "schema")
        labels = doc["positive_labels"]
        if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
            raise ValueError("schema positive_labels must be a list of strings")
        if not isinstance(doc["columns"], list):
            raise ValueError("schema columns must be a list")
        columns = []
        for i, column in enumerate(doc["columns"]):
            _require_exact_keys(column, {"name", "kind"}, f"schema column {i}")
            columns.append((column["name"], ColumnKind(column["kind"])))
        return cls(columns=tuple(columns), positive_labels=frozenset(labels))

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

    The file is opened as UTF-8, with a leading byte-order mark (as Excel
    writes one) skipped, and streamed through ``csv.reader`` in blocks of
    ``_BLOCK_ROWS`` rows, so only one block is ever held as rows: peak memory
    is bounded by the block plus the columns built so far, not by the file.
    Each block is transposed into columns in one pass. A numeric block column
    is converted in one ``np.asarray(cells, dtype=float)`` call, which accepts
    exactly what Python's ``float()`` accepts, and each column's blocks are
    concatenated once at the end. Categorical and target cells go through one
    dict per column, so equal cells of a column are one shared ``str``.

    Errors, in the order they are checked: an empty file; a schema column
    missing from the header or named twice in it (with the column name); any
    row whose cell count differs from the header's, checked over the whole file
    (the first such 1-based data row is reported); a file with no data rows;
    and a numeric cell that fails to parse (the first bad row of the first
    such column, in schema order). Parse failures are recorded as the blocks
    go and raised only after the last row, so a short row is reported even
    when an earlier row holds a bad number.
    """
    # Ingest allocates one list per row and no reference cycles, so the
    # collector's passes over those lists find nothing. Pause it until the
    # last block is freed, then restore the state it had before the call.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _load_columns(Path(path), schema)
    finally:
        if collecting:
            gc.enable()


# Rows held at once while streaming a CSV. On a 200k x 10 file (11 MB) the
# peak RSS of a process running load_csv alone was 54 MiB at 4096 rows,
# 62 MiB at 16384 and 204 MiB when the whole file was read first (Python 3.11,
# numpy 2.4); load times were within run-to-run noise.
_BLOCK_ROWS = 4096


def _load_columns(path: Path, schema: TabularSchema) -> RawTable:
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None

        for name, kind in schema.columns:
            if kind is ColumnKind.DROP:
                continue
            if name not in header:
                raise ValueError(f"{path}: required column '{name}' not found in header")
            if header.count(name) > 1:
                raise ValueError(f"{path}: column '{name}' appears more than once in the header")

        width = len(header)
        categorical = schema.names_of(ColumnKind.CATEGORICAL)
        target = schema.target_column
        parts: dict[str, list[np.ndarray]] = {
            name: [] for name in schema.names_of(ColumnKind.NUMERIC)}
        texts: dict[str, list[str]] = {name: [] for name in [*categorical, target]}
        pools: dict[str, dict[str, str]] = {name: {} for name in texts}
        failures: dict[str, ValueError] = {}  # a numeric column's first parse error
        n_rows = 0
        while block := list(islice(reader, _BLOCK_ROWS)):
            if set(map(len, block)) != {width}:
                k = next(i for i, row in enumerate(block) if len(row) != width)
                raise ValueError(
                    f"{path}: row {n_rows + k + 1} has {len(block[k])} cells, expected {width}")
            # One transposing pass visits each row once; a pass per column
            # would visit every row once per column.
            columns = dict(zip(header, zip(*block)))
            for name, column in parts.items():
                if name not in failures:
                    try:
                        column.append(_parse_numeric(path, name, columns[name], n_rows))
                    except ValueError as exc:
                        failures[name] = exc
            for name, column in texts.items():
                cells = columns[name]
                column.extend(map(pools[name].setdefault, cells, cells))
            n_rows += len(block)
            del block, columns  # so the next block is read with none held

    if not n_rows:
        raise ValueError(f"{path}: no data rows")
    for name in parts:
        if name in failures:
            raise failures[name]
    return RawTable(
        numeric={name: np.concatenate(column) for name, column in parts.items()},
        categorical={name: texts[name] for name in categorical},
        target=texts[target],
        n_rows=n_rows,
    )


def _parse_numeric(path: Path, name: str, cells: tuple[str, ...], rows_before: int) -> np.ndarray:
    """One block of a numeric column as floats; on failure, rescan it to cite
    the first bad row. ``rows_before`` counts the data rows of earlier blocks."""
    try:
        return np.asarray(cells, dtype=float)
    except ValueError:
        for row_no, cell in enumerate(cells, start=rows_before + 1):
            try:
                float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_no}, column '{name}': cannot parse {cell!r} as a number"
                ) from None
        raise


def preprocess(raw: RawTable, schema: TabularSchema) -> Dataset:
    """Build the model matrix: scaled numerics, one-hot categoricals, binary labels.

    The matrix is allocated once and filled column by column: each min-max
    column is written in place, and each one-hot block is set by one index
    assignment from the rows' codes in the sorted vocabulary.
    """
    vocabularies = {name: sorted(set(raw.categorical[name]))
                    for name in schema.names_of(ColumnKind.CATEGORICAL)}
    width = len(schema.names_of(ColumnKind.NUMERIC)) + sum(map(len, vocabularies.values()))
    features = np.zeros((raw.n_rows, width))
    rows = np.arange(raw.n_rows)
    names: list[str] = []
    bounds: dict[str, tuple[float, float]] = {}

    for name, kind in schema.columns:
        offset = len(names)
        if kind is ColumnKind.NUMERIC:
            col = raw.numeric[name]
            if not np.all(np.isfinite(col)):
                raise ValueError(f"column '{name}' contains non-finite values")
            lo, hi = float(col.min()), float(col.max())
            bounds[name] = (lo, hi)
            if hi > lo:  # a constant column stays 0
                out = features[:, offset]
                np.subtract(col, lo, out=out)
                np.divide(out, hi - lo, out=out)
            names.append(name)
        elif kind is ColumnKind.CATEGORICAL:
            categories = vocabularies[name]
            index = {c: i for i, c in enumerate(categories)}
            codes = np.fromiter(map(index.__getitem__, raw.categorical[name]),
                                dtype=np.intp, count=raw.n_rows)
            features[rows, offset + codes] = 1.0
            names.extend(f"{name}={c}" for c in categories)

    labels = np.fromiter(map(schema.positive_labels.__contains__, raw.target),
                         dtype=int, count=raw.n_rows)
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
        columns: list[list[str]] = []
        for name, kind in schema.columns:
            if kind is ColumnKind.NUMERIC:
                columns.append([repr(float(v)) for v in raw.numeric[name]])
            elif kind is ColumnKind.CATEGORICAL:
                columns.append(raw.categorical[name])
            elif kind is ColumnKind.TARGET:
                columns.append(raw.target)
        writer.writerows(zip(*columns))
