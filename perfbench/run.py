"""Benchmark of the `dp-la run` sweep, driven from outside the package.

Run from the root of a checkout (the directory holding ``src/dp_la``):

    python3 perfbench/run.py --workload default_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client runs one `dp-la run` at a time, each in a fresh process, until
``--seconds`` have passed (closed loop). BLAS is pinned to one thread so the
only parallelism is the workload's ``--threads``. Every run's outputs are
checked. ``--trace 0`` reports the end-to-end metrics: median over the runs,
with quartiles and run count printed above the result. ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics of the traced ones,
plus the tracing overhead.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` where
attempted and failed count sweep cells. Working files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import cycle, repeat
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from check import OutputError, check_outputs  # noqa: E402
from tracing import LAYERS, span_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_share": "share",
}

PER_LAYER_UNITS = {
    "model.fit_calls": "count",
    "model.fit_distinct_ratio": "ratio",
    "model.epochs": "count",
    "model.fit_s": "s",
    "model.us_per_epoch": "us",
    "model.predict_calls": "count",
    "model.predict_s": "s",
    "pipelines.input_perturbation_s": "s",
    "pipelines.objective_perturbation_s": "s",
    "pipelines.prediction_perturbation_s": "s",
    "pipelines.teachers_trained": "count",
    "pipelines.vote_queries": "count",
    "audit.attack_fit_s": "s",
    "audit.mia_s": "s",
    "experiment.baseline_shadow_fit_s": "s",
    "data.ingest_s": "s",
    "data.preprocess_s": "s",
    "data.rows": "count",
    "data.split_calls": "count",
    "data.split_s": "s",
    "mechanisms.substreams": "count",
    "mechanisms.rng_s": "s",
    "experiment.cells": "count",
    "experiment.cell_s.p50": "s",
    "experiment.cell_s.p90": "s",
    "experiment.report_s": "s",
    "cli.config_s": "s",
    **{f"{layer}.{kind}_s": "s" for layer in LAYERS for kind in ("busy", "self")},
    "trace.overhead_s": "s",
    "trace.uncovered_share": "share",
    "trace.spans": "count",
}

# Counts the program makes deterministically: every traced run must repeat them.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit == "count") \
    + ("model.fit_distinct_ratio",)

# Every invocation ends within 180 s: a run still going at this point is killed
# (and counts as failed), and no run starts that would likely end after it.
DEADLINE_S = 170.0
WORK_DIR = ".perfbench_work"
RECORDED = BENCH_DIR / "baseline.json"


@dataclass
class Run:
    mode: str  # "mark" (untraced) or "trace"
    wall_s: float
    rss_mb: float
    exit_code: int
    cells: int
    setup_s: float | None = None
    digest: str | None = None
    error: str | None = None
    layer: dict[str, float] = field(default_factory=dict)
    steal_s: float | None = None  # CPU time the hypervisor withheld from this VM meanwhile


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DP_LA_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    for pin in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pin] = "1"
    return env


def host_steal_s() -> float | None:
    """Steal time of all CPUs so far, from /proc/stat; None where unavailable.

    Printed beside the timings: a run on a contended host reads slower for
    reasons outside the program.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(args: list[str], root: Path, log: Path,
              timeout: float) -> tuple[float, float, int]:
    """Run ``child.py args`` to completion or ``timeout`` seconds; return
    (wall s, peak RSS MiB, exit code)."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), *args]
    with open(log, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=out,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        reaped = False
        try:
            # wait4, not Popen.wait: it returns this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            reaped = True
        finally:
            timer.cancel()
            if not reaped:  # interrupted, e.g. by SIGTERM: stop the child too
                proc.kill()
                os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_once(index: int, mode: str, workload: Workload, config: Path, work: Path,
             root: Path, deadline: float) -> Run:
    out, record_path = work / f"out{index}", work / f"record{index}.json"
    dp_args = ["run", "--config", str(config), "--out", str(out),
               "--threads", str(workload.threads)]
    steal_before = host_steal_s()
    spawned = time.monotonic()
    wall, rss, code = run_child([mode, str(record_path), "--", *dp_args], root,
                                work / f"log{index}.txt", deadline - spawned)
    run = Run(mode, wall, rss, code, cells=len(workload.cells))
    if steal_before is not None:
        run.steal_s = host_steal_s() - steal_before
    record = json.loads(record_path.read_text(encoding="utf-8")) if record_path.is_file() else None
    if mode == "mark" and record is not None:
        # the child stamps time.monotonic() too: CLOCK_MONOTONIC, shared by processes on Linux
        mark = record["first_cell"] or record["dataset_ready"]
        run.setup_s = None if mark is None else mark - spawned
    if code != 0:
        tail = (work / f"log{index}.txt").read_text(errors="replace")[-400:]
        run.error = f"dp-la run exited {code}: {tail.strip()}"
        return run
    try:
        run.digest = check_outputs(out, workload)
    except OutputError as exc:
        run.error = f"output check: {exc}"
        return run
    if mode == "trace":
        run.layer = span_metrics(record, wall)
    shutil.rmtree(out, ignore_errors=True)
    return run


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def stamp(root: Path, work: Path, workload: Workload, seed: int, timeout: float) -> dict:
    """Run stamp; also proves that dp_la imports from this checkout's src/."""
    record = work / "probe.json"
    _, _, code = run_child(["probe", str(record)], root, work / "probe.txt", timeout)
    if code != 0:
        raise BenchError(f"dp_la does not import from {root / 'src'}: "
                         + (work / "probe.txt").read_text(errors="replace")[-400:])
    probe = json.loads(record.read_text(encoding="utf-8"))
    if not Path(probe["dp_la_file"]).is_relative_to((root / "src").resolve()):
        raise BenchError(f"dp_la imported from {probe['dp_la_file']}, not from {root / 'src'}")
    return {"workload": workload.name, "seed": seed, "threads": workload.threads,
            "commit": _git_commit(root), "source_sha256": _source_digest(root), **probe}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(q2), float(q3)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = root / WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_stamp = stamp(root, work, workload, seed, timeout=60.0)
    config = workload.write_inputs(seed, work / "inputs")

    runs: list[Run] = []
    modes = cycle(("mark", "trace")) if trace else repeat("mark")
    started = time.monotonic()
    while True:
        runs.append(run_once(len(runs), next(modes), workload, config, work, root, deadline))
        now = time.monotonic()
        both_kinds = not trace or len(runs) >= 2
        if (now - started >= seconds and both_kinds) or now + runs[-1].wall_s > deadline:
            break

    digests = [r.digest for r in runs if r.digest is not None]
    for r in runs:
        if r.digest is not None and r.digest != digests[0]:
            r.error = f"results.csv differs between runs ({r.digest[:12]} vs {digests[0][:12]})"
    # Timings come from every run that reached a cell; a failed run completes no cell.
    marks = [r for r in runs if r.mode == "mark" and r.setup_s is not None]
    traced = [r for r in runs if r.mode == "trace" and r.error is None]
    attempted = sum(r.cells for r in runs)
    failed = sum(r.cells for r in runs if r.error is not None)

    samples: dict[str, list[float]] = {}
    if not trace:
        samples = {
            "wall_s": [r.wall_s for r in marks],
            "setup_s": [r.setup_s for r in marks],
            "cells_per_s": [(0 if r.error else r.cells) / (r.wall_s - r.setup_s)
                            for r in marks],
            "peak_rss_mb": [r.rss_mb for r in marks],
            "ok_share": [(attempted - failed) / attempted],
        }
    elif traced:
        names = set.intersection(*(set(r.layer) for r in traced))
        samples = {name: [r.layer[name] for r in traced] for name in PER_LAYER_UNITS
                   if name in names}
        if marks:
            samples["trace.overhead_s"] = [float(np.median([r.wall_s for r in traced])
                                                 - np.median([r.wall_s for r in marks]))]
    unstable = [name for name in EXACT_COUNTS if len(set(samples.get(name, ()))) > 1]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {name: dict(zip(("q1", "median", "q3"), _quartiles(values)),
                          n=len(values), unit=units[name])
               for name, values in samples.items() if values}

    recorded = {}
    if RECORDED.is_file():
        recorded = json.loads(RECORDED.read_text(encoding="utf-8"))["results_sha256"]
    expected = recorded.get(workload.name, {}).get(str(seed))
    digest = digests[0] if digests else None
    if digest is None or expected is None:
        digest_note = "not recorded for this seed" if digest else "no run produced one"
    else:
        digest_note = "matches the recorded seed-commit digest" if digest == expected \
            else f"differs from the recorded seed-commit digest {expected}"
    return {
        "stamp": run_stamp,
        "correct": not failed and not unstable,
        "attempted": attempted,
        "failed": failed,
        "unstable_counts": unstable,
        "metrics": metrics,
        "results_sha256": digest,
        "results_sha256_note": digest_note,
        "runs": [vars(r) for r in runs],
        "errors": sorted({r.error for r in runs if r.error}),
    }


def print_report(report: dict) -> None:
    s = report["stamp"]
    print(f"== {s['workload']}  seed={s['seed']}  threads={s['threads']}  "
          f"runs={len(report['runs'])}  cells attempted={report['attempted']} "
          f"failed={report['failed']}")
    print("stamp " + json.dumps(s, sort_keys=True))
    steal = [r["steal_s"] for r in report["runs"] if r["steal_s"] is not None]
    if steal:
        print(f"  host steal during runs: {sum(steal):.2f} s over "
              f"{sum(r['wall_s'] for r in report['runs']):.1f} s of runs")
    for name, m in report["metrics"].items():
        print(f"  {name:<36} {m['median']:>14.6g} {m['unit']:<6} "
              f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    print(f"  results.csv sha256 {report['results_sha256']} "
          f"({report['results_sha256_note']})")
    for error in report["errors"]:
        print(f"  FAILED: {error}")
    if report["unstable_counts"]:
        print(f"  FAILED: counts differ between traced runs: {report['unstable_counts']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd().resolve()
    if not (root / "src" / "dp_la" / "__init__.py").is_file():
        print(f"perfbench: no src/dp_la package under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            reports.append(measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                   root))
            print_report(reports[-1])
            (root / WORK_DIR / name / "report.json").write_text(
                json.dumps(reports[-1], indent=2) + "\n", encoding="utf-8")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    prefix = len(reports) > 1
    metrics = {(f"{r['stamp']['workload']}.{name}" if prefix else name):
               {"value": m["median"], "unit": m["unit"]}
               for r in reports for name, m in r["metrics"].items()}
    if not args.trace and any(set(r["metrics"]) != set(END_TO_END_UNITS) for r in reports):
        print("perfbench: no run gave every end-to-end metric", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
