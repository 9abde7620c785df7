"""Command-line interface.

Subcommands:
    run       execute a full (method, epsilon, seed) sweep from a config JSON
    synth     write the CSV + schema pair of a config's data.synth table
    check-dp  empirical epsilon-bound check of the Laplace calibration on its one
              built-in release (a count plus Lap(1/epsilon)); runs no pipeline

Exit codes: 0 success; 1 usage or configuration error (a bad flag, a bad value,
a missing input file or an output in the way); 2 at least one sweep cell
failed, or ``check-dp``'s bound failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import SynthSpec, synth_generate, write_raw_csv
from .experiment import emit_report, load_config, refuse_existing_outputs, run_sweep
from .mechanisms import PrivacyBudget, RngState, empirical_dp_check


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    refuse_existing_outputs(args.out, force=args.force)
    results = run_sweep(config)
    written = emit_report(results, args.out, force=args.force)
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
    data = load_config(args.config).data
    if not isinstance(data, SynthSpec):
        raise ValueError(f"{args.config}: data must be a synth block for dp-la synth, "
                         "not a CSV path")
    raw, schema = synth_generate(data)
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
    report = empirical_dp_check(budget, trials=args.trials, rng=RngState(args.seed))
    print(f"epsilon={budget.epsilon} trials={args.trials} eligible_bins={report.eligible_bins}")
    print(f"max_ratio={report.max_ratio:.6f} bound={report.bound:.6f} passed={report.passed}")
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dp-la",
                                     description="Differentially private learning pipelines "
                                                 "with a membership-inference privacy audit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full sweep from a config JSON")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True, help="the output directory")
    p_run.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_run.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; seeds always run serially")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="write a config's synthetic table as CSV + schema")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_check = sub.add_parser("check-dp", help="empirical epsilon bound check (count query)")
    p_check.add_argument("--epsilon", type=float, required=True)
    p_check.add_argument("--trials", type=int, default=100_000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check_dp)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. A usage error (argparse's exit 2, which here means a
    failed cell) exits 1, like a ValueError or OSError that escapes the
    subcommand (a bad value, a missing input file, an output that is in the
    way); ``--help`` exits 0."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
