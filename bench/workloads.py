"""The four benchmark workloads and one measured pass of each.

A pass runs every solve of its workload once through fracopt's public API
and returns one record per solve ("slot"): set-up, solve and wall times,
the outputs that are checked against ``reference.json``, and the counts a
traced pass needs. Inputs come only from the seeded generator handed to
``draw``; fracopt receives nothing else that varies.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import traceback
from time import perf_counter

import numpy as np

from fracopt import control, harness, oracle

S_DEFAULT = 0.4
T_FINAL = 1.0
TOL = 1e-9


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class ControlWorkload:
    """Manufactured control problems solved from a seeded random start.

    One slot per ``mu``. The start control ``z0`` is uniform in the box
    ``[a, b]`` of the manufactured problem; everything else is fixed.
    """

    name: str
    gamma: float
    M: int
    K: int
    mus: tuple
    min_passes: int
    n: int = 2
    s: float = S_DEFAULT
    phase_targets: tuple = ()

    def slots(self):
        return [f"mu={mu:g}" for mu in self.mus]

    def draw(self, rng):
        return [rng.random((self.K, self.M ** self.n)) for _ in self.mus]

    def run_pass(self, draws, tracer=None) -> list:
        return [self._solve(mu, unit, tracer) for mu, unit in zip(self.mus, draws)]

    def _solve(self, mu, unit, tracer):
        rec = {"slot": f"mu={mu:g}", "error": None}
        t0 = perf_counter()
        try:
            mesh, params, grid = harness.build_setup(self.n, self.M, self.s, self.gamma,
                                                     T_FINAL, self.K)
            man = oracle.manufactured_problem(self.s, mu, T_FINAL, gamma=self.gamma, n=self.n)
            data = harness.manufactured_data(man, mu)
            if tracer is not None:
                data = dataclasses.replace(
                    data, forcing=tracer.wrap("oracle.data_eval", data.forcing),
                    desired_state=tracer.wrap("oracle.data_eval", data.desired_state))
            prob = control.ReducedProblem(data, params, mesh, grid)
            z0 = man.a + (man.b - man.a) * unit
            t1 = perf_counter()
            res = control.solve_control_problem(data, params, mesh, grid, z0=z0,
                                                tol=TOL, prob=prob)
            t2 = perf_counter()
            quad = prob.system.quad
            err_z = harness.l2Q_error(res.control.values, man.control, grid, mesh.omega,
                                      kind="control", quad=quad)
            err_u = harness.l2Q_error(res.state.traces, man.state, grid, mesh.omega,
                                      kind="state", quad=quad)
            p_means = np.stack([control.project_trace(res.adjoint.traces[k], prob.system)
                                for k in range(grid.K)])
            vi = control.vi_residual(res.control, p_means)
            t3 = perf_counter()
        except Exception:
            rec["error"] = traceback.format_exc()
            rec.update(setup_s=math.nan, solve_s=math.nan, wall_s=perf_counter() - t0)
            return rec
        rec.update(
            setup_s=t1 - t0, solve_s=t2 - t1, wall_s=t3 - t0,
            outputs={"converged": bool(res.converged), "cost": float(res.cost),
                     "err_control": err_z, "err_state": err_u},
            digest=_digest(res.control.values, res.state.traces, res.adjoint.traces),
            N=int(mesh.n_free), n_interior=int(prob.system.n_interior),
            iterations=int(res.iterations), accepted=len(res.cost_history) - 1,
            pg_norm=float(res.pg_norm), vi_residual=float(vi))
        return rec


@dataclasses.dataclass(frozen=True)
class TruncationWorkload:
    """``harness.run_truncation_study``: forward state solves only.

    The study is one slot. Its data are fixed by the study itself (a single
    sine mode as initial datum, no forcing, no control), so the seed draws
    nothing here.
    """

    name: str
    s: float
    M: int
    K: int
    heights: tuple
    min_passes: int
    n: int = 2
    gamma: float = 1.0
    phase_targets: tuple = ("evolution.system_setup", "evolution.solve_state",
                            "evolution.state_march")

    def slots(self):
        return ["study"]

    def draw(self, rng):
        return None

    def run_pass(self, draws, tracer) -> list:
        rec = {"slot": "study", "error": None}
        cfg = harness.ExperimentConfig(kind="truncation", s_list=(self.s,), gamma=self.gamma,
                                       T=T_FINAL, n=self.n, M=self.M, K=self.K,
                                       Y_list=self.heights)
        first = len(tracer.spans)
        t0 = perf_counter()
        try:
            report = harness.run_truncation_study(cfg)
            rows = [(r["Y"], r["N"], r["err_state"]) for r in report.rows]
            slope = report.slopes[0]["slope"]
        except Exception:
            rec["error"] = traceback.format_exc()
            rec.update(setup_s=math.nan, solve_s=math.nan, wall_s=perf_counter() - t0)
            return [rec]
        t1 = perf_counter()
        spans = tracer.spans[first:]

        def total(name):
            return sum(sp[2] - sp[1] for sp in spans if sp[0] == name)

        march = total("evolution.state_march")
        setup = total("evolution.system_setup") + total("evolution.solve_state") - march
        errs = [e for _, _, e in rows]
        rec.update(
            setup_s=setup, solve_s=march, wall_s=t1 - t0,
            outputs={"converged": True, "err_state": errs, "slope": float(slope)},
            digest=_digest(errs, [slope]),
            N=int(rows[0][1]), n_interior=(self.M - 1) ** self.n)
        return [rec]


WORKLOADS = {w.name: w for w in [
    # Sparse LU step solves dominate; no L1 memory (gamma = 1).
    ControlWorkload("control-be-2d", gamma=1.0, M=20, K=64, mus=(1.0,), min_passes=3),
    # O(K^2) L1 memory sum and Gauss-Jacobi Caputo loads dominate; LU is cheap.
    ControlWorkload("control-l1-long", gamma=0.5, M=12, K=1024, mus=(1.0,), min_passes=3),
    # Set-up (factorizations) and memory dominate; forward marches only.
    TruncationWorkload("truncation-2d", s=0.5, M=20, K=16,
                       heights=(1.0, 1.5, 2.0, 2.5, 3.0), min_passes=3),
    # The optimizer and its line search dominate; small mu can stall near 1e-9.
    ControlWorkload("control-mu-sweep", gamma=1.0, M=8, K=64,
                    mus=(0.3, 0.1, 0.03, 0.01), min_passes=5),
]}
