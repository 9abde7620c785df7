"""Reading and checking config and schema files, and writing outputs whole.

A leaf of the package: it imports nothing from ``dp_la``, so the data,
trainer, experiment and command-line layers share it without depending on
one another. Its names are public here and private to the package: no
module outside ``dp_la`` imports them, and ``dp_la`` exports none of them.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import sys
from contextlib import contextmanager
from dataclasses import fields
from enum import Enum
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

# Each dataclass's annotations, evaluated once per class.
_type_hints = cache(get_type_hints)


def check_field_types(config, sizes: tuple[str, ...] = ()) -> None:
    """Raise ValueError naming the first field of the config dataclass
    ``config`` whose value, or for a ``tuple[T, ...]`` field each element, is
    not an instance of the class or union its annotation names (a bool is no
    number), or is a ``tuple[T, ...]`` field's value that is not a tuple, or
    is a float field's value that is not a finite float (JSON parses ``NaN``
    and ``Infinity``, and an integer may be too large for a float), or is a
    field in ``sizes`` (an int that sizes an array or a loop) above
    ``sys.maxsize``, numpy's largest dimension. Every field is checked, from
    the annotations of the class as evaluated in its module. The error names
    the field, which is its config key, and quotes its value, abbreviated by
    ``reprlib``, and the annotation as written. A float field's value is
    stored as a float, so ``1`` and ``1.0`` make one config; fields of other
    types are built by the config loader."""
    hints = _type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        is_tuple = get_origin(hints[f.name]) is tuple
        kind = get_args(hints[f.name])[0] if is_tuple else hints[f.name]
        values = value if is_tuple else (value,)
        # an int fills a float field (JSON writes 10.0 as 10)
        allowed = (int, float) if kind is float else kind
        if (is_tuple and not isinstance(value, tuple)
                or any(isinstance(v, bool) or not isinstance(v, allowed) for v in values)):
            raise ValueError(f"{f.name} must be {f.type}, got {reprlib.repr(value)}")
        if f.name in sizes and value > sys.maxsize:
            raise ValueError(f"{f.name} must be at most {sys.maxsize}, got {reprlib.repr(value)}")
        if kind is float:
            try:
                values = tuple(map(float, values))
            except OverflowError:  # an integer too large for a float
                values = (math.inf,)
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{f.name} must be finite, got {reprlib.repr(value)}")
            object.__setattr__(config, f.name, values if is_tuple else values[0])


def reject_unknown_keys(doc: dict, known: frozenset[str] | set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def require_exact_keys(doc: dict, keys: set[str], where: str) -> None:
    reject_unknown_keys(doc, keys, where)
    missing = sorted(keys - set(doc))
    if missing:
        raise ValueError(f"missing key(s) in {where}: {', '.join(missing)}")


@contextmanager
def read_json(path: str | Path):
    """Yield the JSON document in the UTF-8 file ``path``. Every ValueError
    raised while reading it or inside the ``with`` block (a file that is not
    UTF-8 or not JSON, or a bad value in the document) is re-raised with the
    path as its prefix."""
    try:
        yield json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise ValueError(f"{path}: {exc}") from None


def enum_member(enum: type[Enum], value, key: str):
    """The member of ``enum`` whose value is ``value``; otherwise a ValueError
    naming ``key`` and every allowed value."""
    try:
        return enum(value)
    except ValueError:
        allowed = ", ".join(repr(member.value) for member in enum)
        raise ValueError(f"{key} must be one of {allowed}, got {value!r}") from None


@contextmanager
def atomic_write(path: Path):
    """Yield a temporary path beside ``path`` to write; when the ``with``
    block ends without raising it is renamed onto ``path``, so ``path`` is
    never left half-written. The temporary file never outlives the block."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
