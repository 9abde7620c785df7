"""One fresh process of the benchmark: a `dp-la run` through ``dp_la.cli.main``.

    python perfbench/child.py mark  RECORD -- run --config CFG --out DIR --threads N
    python perfbench/child.py trace RECORD -- run ...
    python perfbench/child.py probe RECORD

``mark`` is the untraced run: it records only when the first cell started.
``trace`` wraps the package's functions and records a span per call. ``probe``
records the interpreter, numpy and BLAS versions and where dp_la was imported
from. Every mode writes its JSON record to RECORD when it ends; ``mark`` and
``trace`` exit with the code ``dp-la`` returned.
"""

import time

_STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _probe() -> dict:
    import numpy as np

    import dp_la

    blas = None
    config = getattr(np.__config__, "CONFIG", None)
    if isinstance(config, dict):
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "dp_la_file": str(Path(dp_la.__file__).resolve()),
        "nproc": os.cpu_count(),
        "blas_pin": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                     "MKL_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    mode, record_path = argv[0], Path(argv[1])
    if mode == "probe":
        record_path.write_text(json.dumps(_probe()), encoding="utf-8")
        return 0
    if mode not in ("mark", "trace") or argv[2:3] != ["--"]:
        raise SystemExit(f"usage: child.py mark|trace RECORD -- <dp-la arguments>; got {argv}")
    dp_args = argv[3:]

    import dp_la.cli

    imported = time.monotonic()
    import tracing

    if mode == "trace":
        probe = tracing.Tracer()
        probe.add_span("cli.import", "cli", _STARTED, imported)
    else:
        probe = tracing.CellStartMarker()
    try:
        code = dp_la.cli.main(dp_args)
    finally:
        probe.restore()
        record = probe.record()
        record["started"] = _STARTED
        record_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
