"""Regenerate ``reference.json``: one untraced pass per workload from seed 0.

Usage (from the repository root): ``python3 bench/make_reference.py``.
Run it only when a change is meant to alter fracopt's answers. Every
reference solve must converge.
"""
from __future__ import annotations

import json

from run import BENCH_DIR, import_library, phase_tracer, run_pass


def main():
    import_library()
    import numpy as np
    from workloads import WORKLOADS

    reference = {}
    for name, workload in WORKLOADS.items():
        draws = workload.draw(np.random.default_rng(0))
        recs, wall = run_pass(workload, draws, phase_tracer(workload))
        reference[name] = {}
        for rec in recs:
            if rec["error"] is not None or not rec["outputs"]["converged"]:
                raise RuntimeError(f"{name} {rec['slot']}: reference solve failed\n"
                                   f"{rec['error'] or rec['outputs']}")
            reference[name][rec["slot"]] = rec["outputs"]
        print(f"{name}: {wall:.2f}s {reference[name]}", flush=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
