"""Command line entry point.

One parser: the positional ``kind`` names the experiment, ``--config``
reads an optional config file (flat key=value entries under [section]
headers), and every other flag is a setting of
:data:`~fracopt.harness.SETTINGS` that overrides the file's value for the
same key. The file's entries and the flags are checked once, together, so
a flag may complete a file that alone would be refused.

The ``fracopt`` console script is :func:`console`. Its exit status is

- 0 when every row was written and every control solve converged;
- 1 when a control solve did not converge (its rows are still written and
  named on stderr);
- 2 when the run is refused: a :class:`~fracopt.problem.ParameterError` (a
  setting out of range, refused before any solve, or a rate fit through
  errors that are not positive) ends it with the one line
  ``fracopt: error: ...`` on stderr, and a malformed command line with
  argparse's usage message.

:func:`main` raises the ParameterError instead, for callers that handle it.
"""
from __future__ import annotations

import argparse
import sys

from .harness import (RUNNERS, SETTINGS, ExperimentConfig, apply_settings, read_config,
                      run_experiment)
from .problem import ParameterError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracopt", allow_abbrev=False,     # a flag is spelled as its file key
        description="Solver and convergence harness for optimal control of "
                    "space-time fractional diffusion.")
    parser.add_argument("kind", choices=RUNNERS, help=SETTINGS["kind"][0])
    parser.add_argument("--config", metavar="PATH", help="config file to start from")
    for name, (help_text, _) in SETTINGS.items():
        if name != "kind":
            parser.add_argument("--" + name.replace("_", "-"), dest=name, help=help_text)
    args = vars(parser.parse_args(argv))

    path = args.pop("config")
    flags = {name: value for name, value in args.items() if value is not None}
    file_source = [(read_config(path), f"in {path}")] if path else []
    config = apply_settings(ExperimentConfig(), *file_source, (flags, "on the command line"))
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


def console(argv=None) -> int:
    """:func:`main` for the console script: a ParameterError becomes one line on stderr and status 2."""
    try:
        return main(argv)
    except ParameterError as err:
        print(f"fracopt: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console())
