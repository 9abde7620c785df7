"""Tabular data handling: schema-driven CSV ingestion, preprocessing
(min-max scaling, one-hot encoding, binary target mapping), the four-way
victim/attack split, a synthetic two-cluster generator for desk-scale
experiments, and the two data sources a config can name (:class:`SynthSpec`
and :class:`CsvSpec`).
"""

from __future__ import annotations

import csv
import gc
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .mechanisms import RngState
from .model import _check_field_types

__all__ = [
    "ColumnKind",
    "TabularSchema",
    "CodedColumn",
    "RawTable",
    "Dataset",
    "FourWaySplit",
    "SynthSpec",
    "CsvSpec",
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


@contextmanager
def _read_json(path: str | Path):
    """Yield the JSON document in the UTF-8 file ``path``. Every ValueError
    raised while reading it or inside the ``with`` block (a file that is not
    UTF-8 or not JSON, or a bad value in the document) is re-raised with the
    path as its prefix."""
    try:
        yield json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise ValueError(f"{path}: {exc}") from None


def _enum_member(enum: type[Enum], value, key: str):
    """The member of ``enum`` whose value is ``value``; otherwise a ValueError
    naming ``key`` and every allowed value."""
    try:
        return enum(value)
    except ValueError:
        allowed = ", ".join(repr(member.value) for member in enum)
        raise ValueError(f"{key} must be one of {allowed}, got {value!r}") from None


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
        names = [name for name, _ in self.columns]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"schema declares column(s) more than once: {repeated}")
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
        is an error, ``positive_labels`` must be a list of strings, and each
        column ``name`` a string. Every ValueError starts with ``path``."""
        with _read_json(path) as doc:
            _require_exact_keys(doc, {"columns", "positive_labels"}, "schema")
            labels = doc["positive_labels"]
            if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
                raise ValueError("schema positive_labels must be a list of strings")
            if not isinstance(doc["columns"], list):
                raise ValueError("schema columns must be a list")
            columns = []
            for i, column in enumerate(doc["columns"]):
                where = f"schema column {i}"
                _require_exact_keys(column, {"name", "kind"}, where)
                if not isinstance(column["name"], str):
                    raise ValueError(f"{where} name must be a string")
                columns.append((column["name"],
                                _enum_member(ColumnKind, column["kind"], f"{where} kind")))
            return cls(columns=tuple(columns), positive_labels=frozenset(labels))

    def to_json(self, path: str | Path) -> None:
        doc = {
            "columns": [{"name": n, "kind": k.value} for n, k in self.columns],
            "positive_labels": sorted(self.positive_labels),
        }
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


class CodedColumn(NamedTuple):
    """A categorical or target column: its distinct values, in the order
    they were first read, and per row the index of its value among them, in
    the smallest unsigned dtype that holds every index."""

    categories: tuple[str, ...]
    codes: np.ndarray

    def decode(self) -> list[str]:
        """The column's values, one string per row."""
        return [self.categories[k] for k in self.codes.tolist()]


@dataclass(frozen=True)
class RawTable:
    """Typed columns as ingested: numeric columns as float arrays,
    categorical and target columns as :class:`CodedColumn`."""

    numeric: dict[str, np.ndarray]
    categorical: dict[str, CodedColumn]
    target: CodedColumn
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

    The file is read as UTF-8, with a leading byte-order mark (as Excel
    writes one) skipped. The header line goes through ``csv.reader``; the
    rest is read in blocks of about ``_BLOCK_BYTES`` of whole lines, so peak
    memory is bounded by one block plus the columns built so far. Categorical
    and target columns are :class:`CodedColumn`, numbered in order of first
    appearance.

    A plain block (see :func:`_plain`) is split by numpy from the positions
    of its ``,`` and ``\\n`` bytes, with no Python object per row or text
    cell: each line is one row. Each cell the schema reads is gathered as
    little-endian 8-byte words, zero past its end, and a categorical or
    target cell is coded by equality of those words with its column's
    categories, which is equality of bytes since no cell holds a NUL.

    The first block that is not plain, or that holds a cell over
    ``8 * _FIELD_WORDS`` bytes, and every block after it go through
    ``csv.reader`` ``_BLOCK_ROWS`` rows at a time, since a quoted cell may
    span lines; so does the whole file when its header line holds ``"`` or
    ``\\r``. Each such block is transposed into columns in one pass, and each
    categorical cell costs one dict lookup. Both paths give the same table:
    on either, numeric cells are converted by Python's ``float()``, one
    array per block column, and each column's blocks are concatenated once.

    Errors, in the order they are checked: an empty file; a schema column
    missing from the header or named twice in it (with the column name); any
    row whose cell count differs from the header's, checked over the whole file
    (the first such 1-based data row is reported; a blank line is a row of 0
    cells); a file with no data rows; and a numeric cell that fails to parse
    (the first bad row of the first such column, in schema order). Parse
    failures are recorded as the blocks go and raised only after the last
    row, so a short row is reported even when an earlier row holds a bad
    number. A line the csv module cannot parse, such as a field over its size
    limit, or a byte that is not UTF-8, is reported with its line number when
    its block is read.
    """
    # The csv.reader path allocates one list per row and no reference
    # cycles, so the collector's passes over those lists find nothing. Pause
    # it until the last block is freed, then restore the state it had before.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _load_columns(Path(path), schema)
    finally:
        if collecting:
            gc.enable()


# Rows held at once by the csv.reader path. On a 200k x 10 file (11 MB) the
# peak RSS of a process running load_csv alone was 54 MiB at 4096 rows,
# 62 MiB at 16384 and 204 MiB when the whole file was read first (Python 3.11,
# numpy 2.4); load times were within run-to-run noise.
_BLOCK_ROWS = 4096

# Bytes read at once by the byte path; a block is the whole lines among them.
# On the 200k-row csv_ingest file, load_csv took a median 140 ms at 512 KiB,
# 189 ms at 128 KiB and 204 ms at 1 MiB, where its tracemalloc peak rose from
# 9.2 to 12.5 MiB (Python 3.11, numpy 2.4, one shared 2-vCPU VM).
_BLOCK_BYTES = 1 << 19

# The longest cell the byte path gathers, in 8-byte words. A block holding a
# longer one goes to csv.reader, which also owns the csv module's field limit.
_FIELD_WORDS = 8

# Categories of a column that a plain block's cells are compared with one by
# one; the cells that match none of them are coded by sorting their words.
_COMPARED = 8

# _BYTE_MASKS[n + 8 * (_FIELD_WORDS - i)] keeps, of word i of an n-byte cell,
# the bytes of the cell: all 8 of a word inside it, none of a word past its end.
_BYTE_MASKS = np.array([(1 << 8 * min(max(r - 8 * _FIELD_WORDS, 0), 8)) - 1
                        for r in range(16 * _FIELD_WORDS + 1)], dtype="<u8")


def _read_rows(path: Path, reader, count: int, lines_before: int = 0) -> list[list[str]]:
    """Up to ``count`` more rows of ``reader``, which started after line
    ``lines_before`` of the file. A line the csv module cannot parse, such as
    a field over its size limit, is a ValueError naming the file and the
    line. So is a byte that is not UTF-8; the decoder reads ahead of the
    parser, so the line given is only a lower bound for that byte's."""
    try:
        return list(islice(reader, count))
    except csv.Error as exc:
        raise ValueError(f"{path}: line {lines_before + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not UTF-8 after line {lines_before + reader.line_num}: {exc}") from None


def _header_text(line: bytes) -> str | None:
    """The first line of a file as text, or None where the header needs
    ``csv.reader`` on the file: it is empty, not UTF-8, or holds a ``"`` (a
    quoted cell may span lines) or a ``\\r``."""
    if b'"' in line or b"\r" in line:
        return None
    try:
        return line.decode("utf-8-sig") or None
    except UnicodeDecodeError:
        return None


def _plain(block: bytes) -> bool:
    """Whether ``csv.reader`` would read each line of ``block`` as one row cut
    at every ``,``: all its bytes are ASCII and none is ``"``, ``\\r`` or NUL."""
    return block.isascii() and not (b'"' in block or b"\r" in block or b"\0" in block)


def _line_blocks(fh):
    """The rest of the binary file ``fh`` as blocks of whole lines, each from
    one or more reads of ``_BLOCK_BYTES``; a last line without ``\\n`` gets one."""
    pending: list[bytes] = []  # the start of a line no read has ended yet
    while chunk := fh.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pending, memoryview(chunk)[:cut]])
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    if any(pending):
        yield b"".join([*pending, b"\n"])


def _load_columns(path: Path, schema: TabularSchema) -> RawTable:
    """:func:`load_csv` without the collector pause: the header, then each
    block by the byte path while blocks are plain, then ``csv.reader`` from
    the first block that is not, or from the top when the header needs it."""
    with path.open("rb") as fh:
        line = fh.readline()
        text = _header_text(line)
        if text is None:
            fh.seek(0)
            reader = csv.reader(io.TextIOWrapper(fh, "utf-8-sig", newline=""))
        else:
            reader = csv.reader([text])
        first = _read_rows(path, reader, 1)
        if not first:
            raise ValueError(f"{path}: file is empty")
        header = first[0]

        for name, kind in schema.columns:
            if kind is ColumnKind.DROP:
                continue
            if name not in header:
                raise ValueError(f"{path}: required column '{name}' not found in header")
            if header.count(name) > 1:
                raise ValueError(f"{path}: column '{name}' appears more than once in the header")

        table = _Columns(path, schema, header)
        lines_before = 0
        if text is not None:
            at = len(line)
            for block in _line_blocks(fh):
                if not (_plain(block) and table.add_plain(block)):
                    fh.seek(at)
                    reader = csv.reader(io.TextIOWrapper(fh, "utf-8", newline=""))
                    lines_before = 1 + table.n_rows  # the header and one line per row
                    break
                at += len(block)
        while block := _read_rows(path, reader, _BLOCK_ROWS, lines_before):
            table.add_rows(block)
            del block  # so the next block is read with none held
    return table.finish()


class _Codes(dict):
    """A column's categories mapped to their codes, numbered in order of
    first appearance: looking up a new category adds it."""

    def __missing__(self, category: str) -> int:
        self[category] = code = len(self)
        return code


def _compact(codes: np.ndarray, index: _Codes) -> np.ndarray:
    return codes.astype(np.min_scalar_type(len(index) - 1), copy=False)


class _Columns:
    """The columns of one CSV as its blocks arrive from either path."""

    def __init__(self, path: Path, schema: TabularSchema, header: list[str]) -> None:
        self.path = path
        self.width = len(header)
        self.at = {name: header.index(name)
                   for name, kind in schema.columns if kind is not ColumnKind.DROP}
        self.categorical = schema.names_of(ColumnKind.CATEGORICAL)
        self.target = schema.target_column
        self.numeric: dict[str, list[np.ndarray]] = {
            name: [] for name in schema.names_of(ColumnKind.NUMERIC)}
        self.coded: dict[str, tuple[list[np.ndarray], _Codes]] = {
            name: ([], _Codes()) for name in [*self.categorical, self.target]}
        self.failures: dict[str, ValueError] = {}  # a numeric column's first parse error
        self.n_rows = 0

    def _bad_row(self, k: int, cells: int) -> ValueError:
        """The error for row ``k`` of the current block, of ``cells`` cells."""
        return ValueError(f"{self.path}: row {self.n_rows + k + 1} has {cells} cells, "
                          f"expected {self.width}")

    def _add_numeric(self, name: str, cells) -> None:
        if name not in self.failures:
            try:
                self.numeric[name].append(_parse_numeric(self.path, name, cells, self.n_rows))
            except ValueError as exc:
                self.failures[name] = exc

    def add_rows(self, block: list[list[str]]) -> None:
        """Add a block of rows read by ``csv.reader``."""
        if set(map(len, block)) != {self.width}:
            k = next(i for i, row in enumerate(block) if len(row) != self.width)
            raise self._bad_row(k, len(block[k]))
        # One transposing pass visits each row once; a pass per column
        # would visit every row once per column.
        columns = list(zip(*block))
        for name in self.numeric:
            self._add_numeric(name, columns[self.at[name]])
        for name, (parts, index) in self.coded.items():
            cells = columns[self.at[name]]
            codes = np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))
            parts.append(_compact(codes, index))
        self.n_rows += len(block)

    def add_plain(self, block: bytes) -> bool:
        """Add a plain block (see :func:`_plain`) ending in ``\\n``; False, with
        nothing added, when one of its cells is too long to gather."""
        buf = np.frombuffer(block, dtype=np.uint8)
        delimiter = buf == ord(",")
        delimiter |= buf == ord("\n")
        ends = np.flatnonzero(delimiter)  # each cell's end: its ',' or '\n'
        starts = np.empty_like(ends)
        starts[0] = 0
        np.add(ends[:-1], 1, out=starts[1:])
        lengths = ends - starts
        if lengths.max() > min(8 * _FIELD_WORDS, csv.field_size_limit()):
            return False
        last = np.flatnonzero(buf[ends] == ord("\n"))  # each line's last cell
        counts = np.diff(last, prepend=-1)
        counts[(counts == 1) & (lengths[last] == 0)] = 0  # a blank line
        wrong = np.flatnonzero(counts != self.width)
        if wrong.size:
            raise self._bad_row(int(wrong[0]), int(counts[wrong[0]]))
        starts = starts.reshape(len(last), self.width)
        lengths = lengths.reshape(len(last), self.width)
        # Every 8 bytes from each offset of the block, as one little-endian
        # word; the zeros after the block let a cell's last word run past it.
        padded = np.zeros(len(block) + 8 * _FIELD_WORDS, dtype=np.uint8)
        padded[:len(block)] = buf
        words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
        for name in self.numeric:
            j = self.at[name]
            gathered = _gather(words, starts[:, j], lengths[:, j])
            cells = gathered.view(f"S{8 * gathered.shape[1]}").ravel()
            self._add_numeric(name, cells.tolist())
        for name, (parts, index) in self.coded.items():
            j = self.at[name]
            parts.append(_code(_gather(words, starts[:, j], lengths[:, j]), index))
        self.n_rows += len(last)
        return True

    def finish(self) -> RawTable:
        if not self.n_rows:
            raise ValueError(f"{self.path}: no data rows")
        for name in self.numeric:
            if name in self.failures:
                raise self.failures[name]
        coded = {name: CodedColumn(tuple(index), np.concatenate(parts))
                 for name, (parts, index) in self.coded.items()}
        return RawTable(
            numeric={name: np.concatenate(parts) for name, parts in self.numeric.items()},
            categorical={name: coded[name] for name in self.categorical},
            target=coded[self.target],
            n_rows=self.n_rows,
        )


def _gather(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The cells at ``starts`` of ``lengths`` bytes as a (cells, k) array of
    little-endian 8-byte words, with every byte past a cell's end zero."""
    k = max(1, -(-int(lengths.max()) // 8))
    out = np.empty((len(starts), k), dtype="<u8")
    for i in range(k):
        np.bitwise_and(words[starts + 8 * i], _BYTE_MASKS[lengths + 8 * (_FIELD_WORDS - i)],
                       out=out[:, i])
    return out


def _code(cells: np.ndarray, index: _Codes) -> np.ndarray:
    """Codes of one plain block's cells of a column, given as the words of
    :func:`_gather`; categories new to ``index`` are added to it in order of
    first appearance. Every category in ``index`` came from a plain block,
    so equal words are equal strings."""
    n, k = cells.shape
    # One plus the code of the compared category each cell equals, else 0.
    # The first _COMPARED categories have the codes below _COMPARED.
    hits = np.zeros(n, dtype=np.uint8)
    hit = np.empty(n, dtype=bool)
    for category, code in islice(index.items(), _COMPARED):
        key = category.encode()
        if len(key) <= 8 * k:
            key = np.frombuffer(key.ljust(8 * k, b"\0"), dtype="<u8")
            np.equal(cells[:, 0], key[0], out=hit)
            for i in range(1, k):
                hit &= cells[:, i] == key[i]
            hits += hit * np.uint8(code + 1)
    rest = np.flatnonzero(hits == 0)
    if not rest.size:
        return _compact(hits - np.uint8(1), index)
    # Sort the rest by their words, stably, so that the first row of each run
    # of equal words is that value's first appearance.
    order = rest[np.lexsort(cells[rest].T[::-1])]
    ordered = cells[order]
    new = np.ones(len(order), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    firsts = order[new]
    found = np.empty(len(firsts), dtype=np.intp)
    for value in np.argsort(firsts):
        found[value] = index[cells[firsts[value]].tobytes().rstrip(b"\0").decode("ascii")]
    codes = _compact(hits - np.uint8(1), index)
    codes[order] = found[np.cumsum(new) - 1]
    return codes


def _parse_numeric(path: Path, name: str, cells, rows_before: int) -> np.ndarray:
    """One block of a numeric column, a sequence of ``str`` or of ASCII
    ``bytes`` (which ``float()`` reads as the same ``str``), as floats; on
    failure, rescan it to cite the first bad row as ``str``. ``rows_before``
    counts the data rows of earlier blocks."""
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        for row_no, cell in enumerate(cells, start=rows_before + 1):
            try:
                float(cell)
            except ValueError:
                if isinstance(cell, bytes):
                    cell = cell.decode("ascii")
                raise ValueError(
                    f"{path}: row {row_no}, column '{name}': cannot parse {cell!r} as a number"
                ) from None
        raise


def preprocess(raw: RawTable, schema: TabularSchema) -> Dataset:
    """Build the model matrix: scaled numerics, one-hot categoricals, binary labels.

    The matrix is allocated once and filled column by column: each min-max
    column is written in place, and each one-hot block is set by one index
    assignment from the rows' codes, each mapped to its category's rank
    among the column's sorted categories. Labels are looked up once per
    target category.
    """
    width = len(schema.names_of(ColumnKind.NUMERIC)) + sum(
        len(raw.categorical[name].categories) for name in schema.names_of(ColumnKind.CATEGORICAL))
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
            categories, codes = raw.categorical[name]
            order = sorted(range(len(categories)), key=categories.__getitem__)
            rank = np.empty(len(order), dtype=np.intp)
            rank[order] = np.arange(len(order))
            features[rows, offset + rank[codes]] = 1.0
            names.extend(f"{name}={categories[k]}" for k in order)

    categories, codes = raw.target
    positive = np.array([c in schema.positive_labels for c in categories], dtype=int)
    return Dataset(
        features=features,
        labels=positive[codes],
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


def four_way_split(dataset: Dataset, rng: RngState,
                   inner_train_fraction: float = 0.5) -> FourWaySplit:
    """Label-stratified split into victim-train/test and attack-train/test.

    Rows are shuffled by ``rng``'s "four-way-split" substream; the victim half
    receives any odd row, and within each half the train part receives any
    indivisible remainder. Deterministic per (dataset, rng).
    """
    n = dataset.n_rows
    if n < 8:
        raise ValueError(f"need at least 8 rows to build a four-way split, got {n}")
    if not (0.0 < inner_train_fraction < 1.0):
        raise ValueError(f"inner_train_fraction must be in (0, 1), got {inner_train_fraction}")

    shuffle = rng.substream("four-way-split").generator
    by_class: list[np.ndarray] = []
    for cls in (0, 1):
        idx = np.flatnonzero(dataset.labels == cls)
        by_class.append(shuffle.permutation(idx))

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
        if part.size == 0 or part_labels.min() == part_labels.max():
            raise ValueError(f"dataset too small: part '{part_name}' lacks a row of each class")
    return FourWaySplit(victim_train, victim_test, attack_train, attack_test)


@dataclass(frozen=True)
class SynthSpec:
    """The synthetic table of :func:`synth_generate`, checked when built: the
    config's ``data.synth`` block and ``dp-la synth``'s flags both make one,
    and its defaults are theirs."""

    n: int = 2000
    d_numeric: int = 5
    d_categorical: int = 2
    separation: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        _check_field_types(self, sizes=("n", "d_numeric", "d_categorical"))
        if self.n < 8:
            raise ValueError(f"n must be at least 8, got {self.n}")
        if self.d_numeric < 1:
            raise ValueError(f"d_numeric must be >= 1, got {self.d_numeric}")
        if self.d_categorical < 0:
            raise ValueError(f"d_categorical must be >= 0, got {self.d_categorical}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # The model matrix has d_numeric columns and at most three one-hot
        # columns per categorical column.
        needed = 8 * self.n * (self.d_numeric + 3 * self.d_categorical)
        memory = _physical_memory()
        if memory is not None and needed > memory:
            raise ValueError(
                f"data.synth n, d_numeric and d_categorical make a model matrix of {needed} "
                f"bytes, more than this machine's {memory} bytes of memory")


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


@dataclass(frozen=True)
class CsvSpec:
    """A CSV table and its schema JSON, by path: the config's
    ``{"path": ..., "schema": ...}`` data block."""

    path: str
    schema: str

    def __post_init__(self) -> None:
        _check_field_types(self)


_CATEGORY_POOL = ("a", "b", "c")


def synth_generate(spec: SynthSpec) -> tuple[RawTable, TabularSchema]:
    """Two-Gaussian-cluster table with a balanced binary target.

    Numeric feature j is N(0, 1) for the negative class and
    N(spec.separation, 1) for the positive class; categorical columns draw
    from three categories with class-dependent frequencies and hold, as codes,
    those of the three that were drawn. The target's categories are
    ``("neg", "pos")``. Deterministic per spec.
    """
    n = spec.n
    rng = RngState(spec.seed).substream("synth").generator
    labels = np.zeros(n, dtype=int)
    labels[: n // 2] = 1
    labels = labels[rng.permutation(n)]

    numeric: dict[str, np.ndarray] = {}
    for j in range(spec.d_numeric):
        base = rng.normal(0.0, 1.0, size=n)
        numeric[f"x{j}"] = base + spec.separation * labels

    # Class-dependent category frequencies, fading to identical distributions
    # as the separation -> 0 so that labels stay independent of all features.
    tilt = float(np.tanh(spec.separation))
    freq_neg = np.array([0.5, 0.3, 0.2])
    freq_pos = (1.0 - tilt) * freq_neg + tilt * np.array([0.2, 0.3, 0.5])
    categorical: dict[str, CodedColumn] = {}
    for j in range(spec.d_categorical):
        draws_neg = rng.choice(len(_CATEGORY_POOL), size=n, p=freq_neg)
        draws_pos = rng.choice(len(_CATEGORY_POOL), size=n, p=freq_pos)
        chosen = np.where(labels == 1, draws_pos, draws_neg)
        # Only the categories drawn are the column's, as a read CSV's would be.
        drawn = np.bincount(chosen, minlength=len(_CATEGORY_POOL)) > 0
        recode = (np.cumsum(drawn) - 1).astype(np.uint8)
        categorical[f"c{j}"] = CodedColumn(
            tuple(c for c, d in zip(_CATEGORY_POOL, drawn) if d), recode[chosen])

    target = CodedColumn(("neg", "pos"), labels.astype(np.uint8))
    columns = tuple(
        [(f"x{j}", ColumnKind.NUMERIC) for j in range(spec.d_numeric)]
        + [(f"c{j}", ColumnKind.CATEGORICAL) for j in range(spec.d_categorical)]
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
                columns.append(raw.categorical[name].decode())
            elif kind is ColumnKind.TARGET:
                columns.append(raw.target.decode())
        writer.writerows(zip(*columns))
