"""Command-line front end for the sweep runner.

Three subcommands: ``sweep`` evaluates a config and writes the result
table, ``validate`` runs the analytic and simulated routes side by side
and reports disagreements, and ``fit-cache`` precomputes the nearest-gain
fits a config will need.  All of them exit nonzero when anything was
flagged or failed, so they can gate CI jobs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .experiments import (emit_results, fill_fit_cache, load_config,
                          render_results, run_sweep)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML run config")
    parser.add_argument("--trials", type=int, default=None,
                        help="override both trial counts")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")


def _report(result) -> None:
    for value, scheme, metric, ana, mc, gap, margin in result.flagged:
        print(f"FLAG  {scheme} {metric} @ {value}: analytic {ana:.6g} vs "
              f"simulated {mc:.6g} (gap {gap:.3g} > margin {margin:.3g})",
              file=sys.stderr)
    for value, scheme, metric, message in result.failures:
        print(f"ERROR {scheme} {metric} @ {value}: {message}", file=sys.stderr)
    print(f"{len(result.rows)} rows, {len(result.flagged)} flagged, "
          f"{len(result.failures)} failed", file=sys.stderr)


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    result = run_sweep(config, source=args.source, trials=args.trials,
                       seed=args.seed)
    if result.rows and args.out is None:
        sys.stdout.write(render_results(result.rows, args.format))
    elif result.rows:
        emit_results(result.rows, args.format, args.out)
    _report(result)
    return 0 if result.clean else 1


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    result = run_sweep(config, source="both", trials=args.trials,
                       seed=args.seed)
    _report(result)
    return 0 if result.clean else 1


def _cmd_fit_cache(args) -> int:
    config = load_config(args.config)
    if args.out is not None:
        # --out is a path from the working directory, not from the config
        config = dataclasses.replace(config, fit_cache=args.out,
                                     config_dir=None)
    if config.fit_cache is None:
        print("config declares no fit_cache and no --out given",
              file=sys.stderr)
        return 1
    fitted = fill_fit_cache(config)
    print(f"fit cache at {config.fit_cache_path} covers {fitted} disk fits",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nomarelay",
        description="evaluate relay-chain outage, throughput and "
                    "efficiency sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep and emit the table")
    _add_common(p_sweep)
    p_sweep.add_argument("--out", default=None,
                         help="output path (default: stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json-lines"),
                         default="csv")
    p_sweep.add_argument("--source", choices=("analytic", "mc", "both"),
                         default="both")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate",
                           help="cross-check analytic against simulated rows")
    _add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_fit = sub.add_parser("fit-cache",
                           help="precompute nearest-gain fits for a config")
    p_fit.add_argument("--config", required=True, help="YAML run config")
    p_fit.add_argument("--out", default=None,
                       help="cache path (default: the config's fit_cache)")
    p_fit.set_defaults(func=_cmd_fit_cache)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
