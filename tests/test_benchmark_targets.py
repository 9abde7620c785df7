"""The benchmark's tracer (perfbench/tracing.py) wraps dp_la functions by name.
A name that no longer resolves is not an error there: its metrics are left
out, and a lost cell-start mark silently moves where ``setup_s`` ends. So
every name it wraps must resolve to a callable here."""

import importlib
import sys
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    """tracing.py executed from its source, so nothing is written beside it."""
    module = types.ModuleType("perfbench_tracing")
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    try:
        exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


tracing = _load_tracing()
WRAPPED = sorted({(module, attr) for module, attr, _ in (
    *tracing.TARGETS, *tracing.CELL_START_TARGETS, tracing.DATASET_READY_TARGET)})


@pytest.mark.parametrize("module_name, attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_name_resolves_to_a_callable(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):  # "Class.method" names a method
        owner = getattr(owner, part)
    assert callable(owner)
