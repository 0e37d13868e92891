"""fracopt benchmark: one workload, measured for a fixed time, checked and reported.

Usage (from the repository root):

    python3 bench/run.py --workload control-be-2d --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory; nothing needs
to be installed. A run repeats passes of the workload (each with fresh
inputs from the seeded generator) until ``--seconds`` have elapsed and the
workload's minimum pass count is met. Every solve is checked against
``reference.json``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs each pass untraced and then traced on the same inputs,
checks the two give identical outputs, and reports the per-layer metrics.
The last line of standard output is the JSON result; a fuller record,
with the environment and the raw spans, goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import ALL_TARGETS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

RTOL = {"cost": 1e-10, "err_control": 1e-6, "err_state": 1e-6, "slope": 1e-8}


def import_library():
    """Import fracopt from this checkout's ``src/``, or exit with status 1."""
    sys.path.insert(0, str(SRC))
    try:
        import fracopt
    except ImportError as exc:
        sys.exit(f"bench: cannot import fracopt from {SRC}: {exc}")
    if not Path(fracopt.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: fracopt was imported from {fracopt.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas_version(np),
            "scipy_blas": blas_version(scipy),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset")}


def mismatches(rec, ref) -> list:
    """Names of the outputs of one solve that miss their reference values."""
    out = rec["outputs"]
    bad = []
    if out["converged"] != ref["converged"]:
        bad.append("converged")
    for key, want in ref.items():
        if key == "converged":
            continue
        got = out[key]
        pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
        if (isinstance(want, list) and len(got) != len(want)) or any(
                not math.isclose(g, w, rel_tol=RTOL[key], abs_tol=0.0) for g, w in pairs):
            bad.append(key)
    return bad


def judge(passes, reference) -> tuple:
    """Mark each solve; return (attempted, failed, correct)."""
    attempted = failed = 0
    correct = True
    for recs in passes:
        for rec in recs:
            attempted += 1
            if rec["error"] is not None:
                rec["failed"], rec["mismatch"] = True, ["raised"]
                correct = False
            else:
                rec["mismatch"] = mismatches(rec, reference[rec["slot"]])
                # A stalled solve is a failure whatever its outputs; a
                # converged solve that misses its reference is a wrong answer.
                rec["failed"] = bool(rec["mismatch"]) or not rec["outputs"]["converged"]
                if rec["outputs"]["converged"] and rec["mismatch"]:
                    correct = False
            failed += rec["failed"]
    return attempted, failed, correct


def slot_median_sum(workload, passes, key) -> float:
    """Sum over slots of the median over passes; robust to a minority of stalls."""
    total = 0.0
    for slot in workload.slots():
        vals = [r[key] for recs in passes for r in recs
                if r["slot"] == slot and not math.isnan(r[key])]
        total += statistics.median(vals) if vals else 0.0
    return total


def per_layer(workload, tracer, traced, plain_walls, traced_walls) -> tuple:
    """Per-layer metrics per traced pass, and the bases of its ratios and counts."""
    n = len(traced)
    recs = [r for recs in traced for r in recs if r["error"] is None]
    K = workload.K
    marches = tracer.count("evolution.state_march") + tracer.count("evolution.adjoint_march")
    n_int = recs[0]["n_interior"] if recs else 0
    evals = tracer.count("control.eval")
    bfgs_evals = tracer.count_under("control.eval", "control.bfgs")
    accepted = sum(r.get("accepted", 0) for r in recs)
    control_solves = tracer.count("control.bfgs")
    attempted = sum(len(p) for p in traced)
    failed = sum(r["failed"] for p in traced for r in p)
    seconds = {
        "mesh.build_s": tracer.total("mesh.build"),
        "assembly.stiffness_s": tracer.total("assembly.stiffness"),
        "assembly.quadrature_s": tracer.total("assembly.quadrature"),
        "assembly.time_average_s": tracer.total("assembly.time_average"),
        "evolution.forcing_loads_s": tracer.total("evolution.forcing_loads"),
        "evolution.system_setup_s": tracer.self_total("evolution.system_setup"),
        "evolution.initial_field_s": tracer.total("evolution.initial_field"),
        "evolution.state_march_s": tracer.total("evolution.state_march"),
        "evolution.adjoint_march_s": tracer.total("evolution.adjoint_march"),
        "oracle.data_eval_s": tracer.total("oracle.data_eval"),
        "control.problem_setup_s": tracer.self_total("control.problem_setup"),
        "control.eval_s": tracer.total("control.eval"),
        "control.bfgs_self_s": tracer.self_total("control.bfgs"),
        "control.final_eval_s": tracer.total_under("control.eval", "control.solve"),
        "harness.error_norms_s": tracer.total("harness.error_norms"),
    }
    counts = {
        "assembly.time_average_calls": tracer.count("assembly.time_average"),
        "evolution.state_march_calls": tracer.count("evolution.state_march"),
        "evolution.adjoint_march_calls": tracer.count("evolution.adjoint_march"),
        "oracle.data_eval_calls": tracer.count("oracle.data_eval"),
        "control.evals": evals,
        "control.bfgs_iters": sum(r.get("iterations", 0) for r in recs),
        "control.backtracks": bfgs_evals - control_solves - accepted,
    }
    computed = {
        "evolution.step_solves": marches * K,
        "evolution.l1_memory_madds": (marches * K * (K - 1) // 2 * n_int
                                      if workload.gamma < 1.0 else 0),
    }
    metrics = {k: (v / n, "s") for k, v in seconds.items()}
    metrics.update({k: (v / n, "count") for k, v in counts.items()})
    metrics.update({k: (v / n, "count") for k, v in computed.items()})
    metrics["control.accept_ratio"] = (accepted / evals if evals else 0.0, "ratio")
    metrics["control.pg_norm"] = (max((r["pg_norm"] for r in recs if "pg_norm" in r),
                                      default=0.0), "1")
    metrics["control.vi_residual"] = (max((r["vi_residual"] for r in recs
                                           if "vi_residual" in r), default=0.0), "1")
    metrics["harness.failed_share"] = (failed / attempted, "ratio")
    metrics["bench.trace_overhead_s"] = (statistics.median(traced_walls)
                                         - statistics.median(plain_walls), "s")
    bases = {"control.accept_ratio": {"accepted": accepted, "evals": evals},
             "harness.failed_share": {"failed": failed, "attempted": attempted},
             "computed": sorted(computed),
             "solves": [{"slot": r["slot"], "N": r["N"], "n_interior": r["n_interior"]}
                        for r in recs[:len(workload.slots())]]}
    return metrics, bases


def phase_tracer(workload):
    """The few spans an untraced pass needs, or None when it needs none."""
    phase = [t for t in ALL_TARGETS if t[0] in workload.phase_targets]
    return Tracer(phase) if phase else None


def run_pass(workload, draws, tracer):
    """One pass, with ``tracer``'s targets patched if given; returns (records, wall)."""
    t0 = perf_counter()
    if tracer is None:
        recs = workload.run_pass(draws)
    else:
        with tracer.installed():
            recs = workload.run_pass(draws, tracer)
    return recs, perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())[workload.name]
    env = environment()
    print("env " + json.dumps(env))

    tracer = Tracer(ALL_TARGETS) if args.trace else None
    rng = np.random.default_rng(args.seed)
    plain, traced, plain_walls, traced_walls = [], [], [], []
    min_passes = 1 if args.trace else workload.min_passes
    start = perf_counter()
    while True:
        draws = workload.draw(rng)
        recs, wall = run_pass(workload, draws, phase_tracer(workload))
        plain.append(recs)
        plain_walls.append(wall)
        if len(plain) == 1:
            # ru_maxrss only grows, and later passes raise it by an amount
            # that differs from run to run, so the peak of one pass is taken.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            recs, wall = run_pass(workload, draws, tracer)
            traced.append(recs)
            traced_walls.append(wall)
        if perf_counter() - start >= args.seconds and len(plain) >= min_passes:
            break
    measured_s = perf_counter() - start

    attempted, failed, correct = judge(plain + traced, reference)
    identical = all(a.get("digest") == b.get("digest") and a.get("outputs") == b.get("outputs")
                    for p, q in zip(plain, traced) for a, b in zip(p, q))
    correct = correct and identical
    for i, recs in enumerate(plain + traced):
        kind = "plain" if i < len(plain) else "traced"
        for r in recs:
            print(f"solve pass={i} {kind} {r['slot']} setup={r['setup_s']:.4f}s "
                  f"solve={r['solve_s']:.4f}s wall={r['wall_s']:.4f}s "
                  f"failed={r['failed']} mismatch={r['mismatch']} "
                  f"outputs={json.dumps(r.get('outputs'))}")
            if r["error"]:
                print(r["error"], file=sys.stderr)

    if args.trace:
        metrics, bases = per_layer(workload, tracer, traced, plain_walls, traced_walls)
        print(f"traced outputs identical to untraced: {identical}")
        print("computed (not measured): " + ", ".join(bases["computed"]))
    else:
        metrics = {k: (slot_median_sum(workload, plain, k), "s")
                   for k in ("setup_s", "solve_s", "wall_s")}
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        bases = {}
    print(f"passes={len(plain)} measured={measured_s:.2f}s attempted={attempted} "
          f"failed={failed} failed_share={failed / attempted:.4f} peak_rss={peak_mb:.1f}MB")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "result": result, "bases": bases,
              "failed_share": failed / attempted, "peak_rss_mb": peak_mb,
              "passes": {"plain": plain, "traced": traced},
              "walls": {"plain": plain_walls, "traced": traced_walls},
              "span_summary": tracer.summary() if tracer else {},
              "spans": tracer.spans if tracer else []}
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str))
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
