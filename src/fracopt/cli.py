"""Command line entry point.

Each subcommand runs one experiment kind; defaults come from an optional
config file (flat key=value entries under [section] headers) and every
value can be overridden by a flag of the same name. The exit status is 1
when a control solve did not converge (its rows are still written and
named on stderr), else 0.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import RUNNERS, ExperimentConfig, _parse_list, load_config, run_experiment


def _add_common_flags(sp):
    sp.add_argument("--config", metavar="PATH", help="config file to start from")
    sp.add_argument("--out", metavar="DIR", help="output directory for CSV reports")
    sp.add_argument("--s", help="comma-separated fractional orders, e.g. 0.2,0.4")
    sp.add_argument("--gamma", type=float, help="temporal order in (0, 1]")
    sp.add_argument("--K", dest="K", help="time steps (comma list for conv-time)")
    sp.add_argument("--M", dest="M", help="cells per dimension (comma list for conv-space)")
    sp.add_argument("--T", dest="T", type=float, help="final time")
    sp.add_argument("--mu", type=float, help="regularization weight")
    sp.add_argument("--zeta", type=float, help="grading exponent override")
    sp.add_argument("--Y", dest="Y", help="cylinder height (comma list for truncation)")
    sp.add_argument("--tol", type=float, help="projected-gradient tolerance")
    sp.add_argument("--n", type=int, help="spatial dimension n >= 1 of Omega = (0,1)^n")
    sp.add_argument("--max-iter", type=int, dest="max_iter")
    sp.add_argument("--fit-last", type=int, dest="fit_last",
                    help="number of trailing levels for slope fits")


def build_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    updates = {"kind": args.kind}
    if args.s is not None:
        updates["s_list"] = _parse_list(args.s)
    if args.K is not None:
        ks = _parse_list(args.K, int)
        updates["K_list"] = ks
        updates["K"] = ks[0]
    if args.M is not None:
        ms = _parse_list(args.M, int)
        updates["M_list"] = ms
        updates["M"] = ms[0]
    if args.Y is not None:
        ys = _parse_list(args.Y)
        updates["Y_list"] = ys
        if len(ys) == 1:
            updates["Y"] = ys[0]
    for name in ("gamma", "T", "mu", "zeta", "tol", "n", "max_iter",
                 "fit_last", "out"):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    return dataclasses.replace(config, **updates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracopt",
        description="Solver and convergence harness for optimal control of "
                    "space-time fractional diffusion.")
    subs = parser.add_subparsers(dest="kind", required=True)
    for name in RUNNERS:
        sp = subs.add_parser(name)
        _add_common_flags(sp)
    args = parser.parse_args(argv)

    config = build_config(args)
    report = run_experiment(config)

    print(f"{config.kind}: {len(report.rows)} row(s) written to {config.out}/report.csv")
    for row in report.rows:
        bits = [f"{key}={row[key]:.12g}" if isinstance(row[key], float)
                else f"{key}={row[key]}"
                for key in ("case", "s", "M", "K", "Y", "err_control", "err_state")
                if row.get(key) is not None]
        print("  " + "  ".join(bits))
    for rate in report.slopes:
        print(f"  slope[{rate['quantity']}, s={rate['s']}] = {rate['slope']:.4f} "
              f"(levels={rate['levels_used']})")
    failed = [row for row in report.rows if not row.get("converged", True)]
    for row in failed:
        print(f"fracopt: not converged: case={row['case']} s={row['s']} M={row['M']}",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
