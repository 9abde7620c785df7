"""Command-line interface.

Subcommands:
    run       execute a full (method, epsilon, seed) sweep from a config JSON
    synth     emit a synthetic CSV + schema pair
    check-dp  empirical epsilon-bound check on the built-in count query
    audit     run the sweep's first cell with a verbose audit breakdown

Exit codes: 0 success, 1 configuration error (a bad value, a missing input file or
an output in the way), 2 at least one sweep cell failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .data import synth_generate, write_raw_csv
from .experiment import (ExperimentConfig, emit_report, load_config, refuse_existing_outputs,
                         run_sweep, summarize)
from .mechanisms import PrivacyBudget, RngState, empirical_dp_check


def _count_above_half(values) -> float:
    """Built-in sensitivity-1 count query: how many records exceed 0.5."""
    return float(sum(1 for v in values if v > 0.5))


def _load_config(args: argparse.Namespace, **overrides) -> ExperimentConfig:
    """The ``--config`` file with ``--seed`` and every given (not None)
    override applied."""
    overrides["master_seed"] = args.seed
    return dataclasses.replace(load_config(args.config), **{
        key: value for key, value in overrides.items() if value is not None})


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args, output_dir=args.out, threads=args.threads)
    refuse_existing_outputs(config.output_dir, force=args.force)
    results = run_sweep(config)
    written = emit_report(results, summarize(results), config.output_dir, force=args.force)
    for path in written:
        print(f"wrote {path}")
    failed = [r for r in results.rows if r.status != "ok"]
    if failed:
        for r in failed:
            print(f"cell {r.cell.method.value} eps={r.cell.epsilon} seed={r.cell.seed}: {r.status}",
                  file=sys.stderr)
        return 2
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    raw, schema = synth_generate(args.n, args.numeric, args.categorical,
                                 args.separation, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "data.csv"
    schema_path = out / "schema.json"
    write_raw_csv(raw, schema, data_path)
    schema.to_json(schema_path)
    print(f"wrote {data_path}")
    print(f"wrote {schema_path}")
    return 0


def _cmd_check_dp(args: argparse.Namespace) -> int:
    budget = PrivacyBudget(epsilon=args.epsilon)
    # Neighbouring datasets for the count query: one record flipped.
    data = [0.0] * 5 + [1.0] * 5
    neighbour = [0.0] * 6 + [1.0] * 4
    report = empirical_dp_check(
        _count_above_half, data, neighbour, budget,
        bins=args.bins, trials=args.trials, rng=RngState(args.seed),
    )
    bound = math.exp(budget.epsilon) * report.tolerance_factor
    print(f"epsilon={budget.epsilon} trials={report.trials} eligible_bins={report.eligible_bins}")
    print(f"max_ratio={report.max_ratio:.6f} bound={bound:.6f} passed={report.passed}")
    return 0 if report.passed else 2


def _cmd_audit(args: argparse.Namespace) -> int:
    config = _load_config(args)
    # The sweep's first cell, run the way the sweep runs it: its eps_index and
    # seed_index stay 0, so its random streams and split are the full sweep's.
    results = run_sweep(dataclasses.replace(
        config, methods=config.methods[:1], epsilons=config.epsilons[:1], seeds=config.seeds[:1]))
    result = results.rows[0]
    cell = result.cell
    print(f"cell: method={cell.method.value} epsilon={cell.epsilon} seed={cell.seed}")
    print(f"status: {result.status}")
    if result.report is None:
        return 2
    r = result.report
    print(f"accuracy: non-private={r.acc_nonprivate:.4f} private={r.acc_private:.4f}")
    print(f"utility_loss: {r.utility_loss:.4f}")
    print(f"attack: tpr={r.tpr:.4f} fpr={r.fpr:.4f}")
    print(f"privacy_leakage: {r.privacy_leakage:.4f}")
    print(f"true_revealed_records: {r.true_revealed_records} (rate {r.trr_rate:.4f})")
    wall_time = results.seed_timings[0].wall_time_seconds + result.wall_time_seconds
    print(f"wall_time_seconds: {wall_time:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dp-la",
                                     description="Differentially private learning pipelines "
                                                 "with a membership-inference privacy audit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full sweep from a config JSON")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_run.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; seeds always run serially")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic CSV + schema pair")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--numeric", type=int, default=5)
    p_synth.add_argument("--categorical", type=int, default=2)
    p_synth.add_argument("--separation", type=float, default=1.0)
    p_synth.add_argument("--seed", type=int, default=7)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_check = sub.add_parser("check-dp", help="empirical epsilon bound check (count query)")
    p_check.add_argument("--epsilon", type=float, required=True)
    p_check.add_argument("--trials", type=int, default=100_000)
    p_check.add_argument("--bins", type=int, default=40)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check_dp)

    p_audit = sub.add_parser("audit", help="single-cell run with a verbose breakdown")
    p_audit.add_argument("--config", required=True)
    p_audit.add_argument("--seed", type=int, default=None)
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. A ValueError or OSError that escapes it (a bad value,
    a missing input file, an output that is in the way) is a config error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
