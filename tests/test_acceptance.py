"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them).
The spatial sweep (criteria 1, 2, 6) is shared through a module fixture.
Free parameters not pinned by a criterion (final time, grading exponent,
dimension for the truncation study) are set to the documented study
defaults: T = 0.5 and zeta = max(default_zeta, 3) for the spatial sweep,
the time study measures against an 8x-finer reference on the same mesh,
and the truncation study runs in n = 1 where the exponential range sits
far above the mesh-scaling noise floor.
"""
import math

import numpy as np
import pytest

from fracopt import (ControlBounds, CylinderSystem, FractionalParams, ProblemData,
                     TimeGrid, apply_discrete_caputo, caputo_weights, clamp,
                     select_truncation)
from fracopt.control import ReducedProblem, control_norm, project_trace, vi_residual
from fracopt.harness import (ExperimentConfig, build_setup, manufactured_data,
                             run_convergence_space, run_convergence_time,
                             run_truncation_study)
from fracopt.mesh import (build_cylinder, build_omega, default_zeta, graded_axis)
from fracopt.oracle import manufactured_problem, mode

from helpers import (build_test_mesh, cell_integrals, check_operator_symmetry, check_spd_rayleigh,
                     check_telescoping, check_weight_integrals, control_loads, nodal_adjoint_march,
                     nodal_solve_state, nodal_state_march, quad_values)

S_VALUES = (0.2, 0.4, 0.6, 0.8)


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def space_sweep():
    """Criteria 1/2/6 share this sweep: n=2, K=64, M in {4,6,8,12,16}."""
    reports = {}
    for s in S_VALUES:
        zeta = max(default_zeta(1.0 - 2.0 * s), 3.0)
        cfg = ExperimentConfig(kind="conv-space", s_list=(s,), K=64,
                               M_list=(4, 6, 8, 12, 16), T=0.5, zeta=zeta,
                               tol=1e-9)
        reports[s] = run_convergence_space(cfg)
    return reports


def test_criterion_1_spatial_control_rate(space_sweep):
    slopes = {}
    for s, rep in space_sweep.items():
        slopes[s] = next(r["slope"] for r in rep.slopes
                         if r["quantity"] == "err_control")
    ok = all(-0.45 <= sl <= -0.23 for sl in slopes.values())
    detail = "control-error slope vs N in [-0.45, -0.23]: " + ", ".join(
        f"s={s}: {sl:.3f}" for s, sl in slopes.items())
    _report(1, ok, detail)


def test_criterion_2_spatial_state_rate(space_sweep):
    slopes = {}
    for s, rep in space_sweep.items():
        slopes[s] = next(r["slope"] for r in rep.slopes
                         if r["quantity"] == "err_state")
    ok = all(-0.80 <= sl <= -0.53 for sl in slopes.values())
    detail = "state-error slope vs N in [-0.80, -0.53]: " + ", ".join(
        f"s={s}: {sl:.3f}" for s, sl in slopes.items())
    _report(2, ok, detail)


def test_criterion_3_temporal_rate():
    cfg = ExperimentConfig(kind="conv-time", s_list=(0.4,), K_list=(8, 16, 32, 64),
                           M=12, T=1.0, tol=1e-9)
    rep = run_convergence_time(cfg)
    slope = rep.slopes[0]["slope"]
    ok = -1.15 <= slope <= -0.85
    _report(3, ok, f"control-error slope vs K (M=12, gamma=1): {slope:.3f} "
                   "in [-1.15, -0.85]")


def test_criterion_4_truncation_decay():
    n = 1
    cfg = ExperimentConfig(kind="truncation", s_list=(0.5,), n=n, M=96, K=16,
                           Y_list=(1.0, 1.5, 2.0, 2.5, 3.0), T=1.0)
    rep = run_truncation_study(cfg)
    slope = rep.slopes[0]["slope"]
    bound = -0.8 * math.sqrt(n * math.pi ** 2) / 2.0
    errs = [r["err_state"] for r in rep.rows]
    ok = slope <= bound and all(b < a for a, b in zip(errs, errs[1:]))
    _report(4, ok, f"exponential decay slope {slope:.3f} <= {bound:.3f}, "
                   f"errors strictly decreasing over Y")


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_criterion_5_gradient_consistency(gamma):
    man = manufactured_problem(0.4, 1.0, 1.0, gamma=gamma, n=2)
    mesh, params, grid = build_setup(2, 4, 0.4, gamma, 1.0, 8)
    prob = ReducedProblem(manufactured_data(man, 1.0), params, mesh, grid)
    rng = np.random.default_rng(17)
    z = rng.uniform(0.1, 0.4, size=(grid.K, mesh.omega.n_cells))
    _, g, _, _ = prob.cost_and_gradient(z)
    worst = 0.0
    for _ in range(10):
        d = rng.standard_normal(z.shape)
        directional = prob.weight * float(np.sum(g * d))
        best = math.inf
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            fd = (prob.cost_and_gradient(z + eps * d)[0]
                  - prob.cost_and_gradient(z - eps * d)[0]) / (2.0 * eps)
            best = min(best, abs(fd - directional) / abs(directional))
        worst = max(worst, best)
    ok = worst <= 1e-5
    _report(5, ok, f"gamma={gamma}: best-eps central-difference agreement "
                   f"over 10 directions, worst relative error {worst:.2e} <= 1e-5")


def test_criterion_6_discrete_optimality(space_sweep):
    vis = [r["vi"] for rep in space_sweep.values() for r in rep.rows
           if r["converged"]]
    n_conv = len(vis)
    ok = n_conv == 20 and max(vis) <= 1e-8

    # explicit cellwise fixed-point check on one converged optimum
    from fracopt.control import solve_control_problem
    man = manufactured_problem(0.6, 1.0, 0.5, n=2)
    mesh, params, grid = build_setup(2, 8, 0.6, 1.0, 0.5, 16)
    data = manufactured_data(man, 1.0)
    prob = ReducedProblem(data, params, mesh, grid)
    res = solve_control_problem(data, params, mesh, grid, tol=1e-9, prob=prob)
    p_means = np.stack([project_trace(res.adjoint.traces[k], prob.system)
                        for k in range(grid.K)])
    target = clamp(-p_means / data.bounds.mu, man.a, man.b)
    gap = control_norm(res.control.values - target, grid, mesh.omega)
    ok = ok and res.converged and gap <= 1e-8
    _report(6, ok, f"vi_residual <= 1e-8 at all {n_conv}/20 converged optima "
                   f"(max {max(vis):.2e}); fixed-point gap {gap:.2e} <= 1e-8")


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_criterion_7_duality_identity(gamma):
    mesh, params = build_test_mesh(n=2, M=4, s=0.3)
    params = FractionalParams(params.s, gamma)
    grid = TimeGrid(T=1.0, K=6)
    system = CylinderSystem(mesh, params, grid)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(5):
        zeta = rng.standard_normal((grid.K, mesh.omega.n_cells))
        eta = rng.standard_normal((grid.K, mesh.omega.n_cells))
        V = nodal_state_march(system, np.zeros(system.n_interior),
                              control_loads(system, zeta))
        P = nodal_adjoint_march(system, control_loads(system, eta))
        lhs = grid.tau * float(np.sum(control_loads(system, eta) * V.traces[1:]))
        rhs = grid.tau * float(np.sum(zeta * cell_integrals(system, P.traces[:-1])))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    ok = worst <= 1e-10
    _report(7, ok, f"gamma={gamma}: (tr S0 zeta, eta) = (zeta, tr P(eta)) "
                   f"to {worst:.2e} <= 1e-10 over 5 random pairs")


def test_criterion_8_l1_exactness_on_linear():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(20):
        gamma = float(rng.uniform(0.05, 0.95))
        K = int(rng.integers(2, 60))
        tau = float(rng.uniform(0.005, 0.6))
        k = int(rng.integers(0, K - 1))
        w = caputo_weights(gamma, K, tau)
        hist = tau * np.arange(k + 1, dtype=float)
        c_new, h_known = apply_discrete_caputo(w, hist)
        got = c_new * (tau * (k + 1)) - h_known
        expected = (tau * (k + 1)) ** (1.0 - gamma) / math.gamma(2.0 - gamma)
        worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    ok = worst <= 1e-12
    _report(8, ok, f"L1 on phi^k = t_k returns t^(1-gamma)/Gamma(2-gamma) "
                   f"to {worst:.2e} <= 1e-12 (20 random cases)")


def test_criterion_9_oracle_agreement():
    T, K = 0.25, 512
    md = mode(1, 1)
    details = []
    ok = True
    for s in (0.3, 0.7):
        Y = select_truncation(16 ** 3, s, 2)
        lam_s = md.lam ** s
        errs = []
        for M in (4, 8, 16):
            params = FractionalParams(s, 1.0)
            mesh = build_cylinder(build_omega(2, M),
                                  graded_axis(M, Y, default_zeta(params.alpha)))
            grid = TimeGrid(T=T, K=K)
            zf = lambda x, t: np.zeros(np.atleast_2d(x).shape[0])
            data = ProblemData(forcing=zf, desired_state=zf,
                               initial=lambda x: md(x),
                               bounds=ControlBounds(-1.0, 1.0, 1.0))
            system = CylinderSystem(mesh, params, grid)
            traj = nodal_solve_state(system, data)
            quad = system.quad
            diff = quad_values(quad, traj.traces[-1]) - math.exp(-lam_s * T) * md(quad.points)
            errs.append(math.sqrt(float(quad.weights @ diff ** 2)))
        ok = ok and errs[0] > errs[1] > errs[2]
        details.append(f"s={s}: {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}")
    _report(9, ok, "final-time error vs exp(-lambda^s T) phi_11 decreases "
                   "monotonically over M in {4,8,16}: " + "; ".join(details))


def test_criterion_10_gamma_half_convergence():
    cfg = ExperimentConfig(s_list=(0.5,), gamma=0.5, T=1.0, tol=1e-9)
    from fracopt.harness import _control_solve
    errs = []
    for (M, K) in ((4, 8), (8, 16), (16, 32)):
        row, _, _ = _control_solve("c10", 0.5, cfg, M, K)
        assert row["converged"]
        errs.append(row["err_control"])
    ok = errs[0] > errs[1] > errs[2]
    _report(10, ok, "gamma=0.5 control error decreases monotonically over "
                    f"(M,K) in {{(4,8),(8,16),(16,32)}}: "
                    f"{errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}")


def test_criterion_11_unit_invariants():
    rng = np.random.default_rng(31)
    worst_wi = check_weight_integrals(rng, cases=10, tol=1e-10)
    mesh, params = build_test_mesh(n=2, M=5, s=0.25)
    A, _ = check_operator_symmetry(mesh, params, tol=1e-12)
    check_spd_rayleigh(A, rng, samples=100)
    mesh1, params1 = build_test_mesh(n=1, M=8, s=0.75)
    A1, _ = check_operator_symmetry(mesh1, params1, tol=1e-12)
    check_spd_rayleigh(A1, rng, samples=100)
    for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
        check_telescoping(gamma, 500)
    _report(11, True, "mesh/assembly/evolution invariants: weighted integrals "
                      f"vs oracle {worst_wi:.2e} <= 1e-10, symmetry <= 1e-12, "
                      "SPD Rayleigh, telescoping exact")
