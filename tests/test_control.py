import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fracopt import (ControlBounds, ProblemData, TimeGrid, build_omega, clamp,
                     l2_project, projected_bfgs, solve_control_problem, vi_residual)
from fracopt import control
from fracopt.control import ReducedProblem, control_norm, project_trace
from fracopt.harness import build_setup, manufactured_data
from fracopt.oracle import manufactured_problem
from fracopt.problem import ParameterError

from helpers import (nodal_adjoint, nodal_solve_state, nodal_state, reference_projected_bfgs,
                     step_average)


def test_clamp_examples():
    assert clamp(2.0, 0.0, 0.5) == 0.5
    assert clamp(-1.0, 0.0, 0.5) == 0.0
    vals = np.array([0.1, 0.3, 0.49])
    out = clamp(vals, 0.0, 0.5)
    assert np.array_equal(out, vals)
    assert np.array_equal(clamp(out, 0.0, 0.5), out)      # idempotent
    with pytest.raises(ParameterError):
        clamp(vals, 1.0, 0.5)


def test_l2_project_constants_and_centroid():
    om = build_omega(1, 2)
    grid = TimeGrid(T=1.0, K=3)
    const = l2_project(lambda x, t: np.full(np.atleast_2d(x).shape[0], 2.5), grid, om)
    assert np.allclose(const, 2.5, atol=1e-14)
    lin = l2_project(lambda x, t: np.atleast_2d(x)[:, 0], grid, om)
    # mean of x over [0, h] is h/2
    assert np.allclose(lin[:, 0], om.h / 2.0, atol=1e-14)
    assert np.allclose(lin[:, 1], 1.5 * om.h, atol=1e-14)


def test_l2_project_idempotent():
    rng = np.random.default_rng(2)
    om = build_omega(2, 3)
    grid = TimeGrid(T=1.0, K=4)
    vals = rng.uniform(-1.0, 1.0, size=(grid.K, om.n_cells))
    m = om.cells_per_dim

    def as_function(x, t):
        pts = np.atleast_2d(x)
        k = np.minimum(np.ceil(t / grid.tau - 1e-12).astype(int), grid.K) - 1
        ix = np.clip((pts[:, 0] * m).astype(int), 0, m - 1)
        iy = np.clip((pts[:, 1] * m).astype(int), 0, m - 1)
        return vals[k, ix * m + iy]

    twice = l2_project(as_function, grid, om)
    assert np.allclose(twice, vals, atol=1e-13)


def test_l2_project_preserves_admissibility():
    om = build_omega(2, 4)
    grid = TimeGrid(T=1.0, K=3)
    a, b = 0.0, 0.5
    f = lambda x, t: np.clip(np.sin(7 * np.atleast_2d(x)[:, 0] + t), a, b)
    proj = l2_project(f, grid, om)
    assert np.all(proj >= a - 1e-14) and np.all(proj <= b + 1e-14)


def reduced_cost(prob, zvals):
    return prob.cost_and_gradient(zvals)[0]


def _small_problem(s=0.5, gamma=1.0, M=4, K=6, n=2, mu=1.0, T=1.0):
    man = manufactured_problem(s, mu, T, gamma=gamma, n=n)
    mesh, params, grid = build_setup(n, M, s, gamma, T, K)
    data = manufactured_data(man, mu)
    return man, data, params, mesh, grid


def test_reduced_cost_zero_cases():
    man, data, params, mesh, grid = _small_problem()
    zero = lambda *args: np.zeros(np.atleast_2d(args[0]).shape[0])
    silent = ProblemData(forcing=zero, desired_state=zero,
                         initial=lambda x: zero(x), bounds=data.bounds)
    prob = ReducedProblem(silent, params, mesh, grid)
    assert reduced_cost(prob, np.zeros((grid.K, mesh.omega.n_cells))) == 0.0


def test_reduced_cost_double_path():
    man, data, params, mesh, grid = _small_problem(M=5, K=5)
    prob = ReducedProblem(data, params, mesh, grid)
    rng = np.random.default_rng(8)
    zvals = rng.uniform(0.0, 0.5, size=(grid.K, mesh.omega.n_cells))
    got = reduced_cost(prob, zvals)

    # independent recomputation: fresh state solve, norms via quadrature values
    traj = nodal_solve_state(prob.system, data, control=zvals)
    quad = prob.system.quad
    acc = 0.0
    for k in range(1, grid.K + 1):
        uvals = quad.values(traj.traces[k])
        udvals = step_average(data.desired_state, quad.points, k - 1, grid.tau)
        acc += grid.tau * float(quad.weights @ (uvals - udvals) ** 2)
    ref = 0.5 * acc + 0.5 * data.bounds.mu * grid.tau * mesh.omega.cell_volume \
        * float(np.sum(zvals ** 2))
    assert math.isclose(got, ref, rel_tol=1e-12)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_gradient_matches_finite_differences(gamma):
    man, data, params, mesh, grid = _small_problem(gamma=gamma, M=4, K=5)
    prob = ReducedProblem(data, params, mesh, grid)
    rng = np.random.default_rng(int(31 * gamma))
    z = rng.uniform(0.1, 0.4, size=(grid.K, mesh.omega.n_cells))
    zc = prob.new_control(z)
    g = prob.cost_and_gradient(zc.values)[1]
    for _ in range(3):
        d = rng.standard_normal(z.shape)
        directional = prob.weight * float(np.sum(g * d))
        best = math.inf
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            fd = (reduced_cost(prob, z + eps * d) - reduced_cost(prob, z - eps * d)) / (2 * eps)
            best = min(best, abs(fd - directional) / abs(directional))
        assert best <= 1e-5


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_cost_keeps_its_roundoff_below_the_line_search_allowance(gamma):
    # J is quadratic, so the trapezoid rule on the gradient gives its exact
    # change: what is left is roundoff, which must stay well below the
    # Armijo allowance (8 eps |J|) at the optimum, where it is decided
    man, data, params, mesh, grid = _small_problem(gamma=gamma, M=6, K=16, mu=1e-2)
    prob = ReducedProblem(data, params, mesh, grid)
    z = solve_control_problem(data, params, mesh, grid, tol=1e-10, prob=prob).control.values
    f, g = prob.cost_and_gradient(z)[:2]
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        s = rng.standard_normal(z.shape)
        s *= 1e-7 / math.sqrt(prob.weight * float(np.vdot(s, s)))
        f1, g1 = prob.cost_and_gradient(z + s)[:2]
        worst = max(worst, abs(f1 - f - 0.5 * prob.weight * float(np.vdot(g + g1, s))))
    assert worst <= 32 * np.finfo(float).eps * abs(f)


def test_no_forcing_matches_a_zero_forcing_callable(monkeypatch):
    man, data, params, mesh, grid = _small_problem(gamma=0.5, M=5, K=6)
    zero = lambda x, t: np.zeros(np.atleast_2d(x).shape[0])
    z = np.random.default_rng(6).uniform(man.a, man.b, (grid.K, mesh.omega.n_cells))
    ref = ReducedProblem(dataclasses.replace(data, forcing=zero), params, mesh, grid)
    ref = ref.cost_and_gradient(z)[:2]

    def refuse(*args, **kwargs):
        raise AssertionError("forcing loads were built for a None forcing")

    monkeypatch.setattr(control, "forcing_loads", refuse)
    prob = ReducedProblem(dataclasses.replace(data, forcing=None), params, mesh, grid)
    assert prob.b_f_hat is None
    f, g = prob.cost_and_gradient(z)[:2]
    assert math.isclose(f, ref[0], rel_tol=1e-15)
    assert np.abs(g - ref[1]).max() <= 1e-15 * np.abs(ref[1]).max()


def test_gradient_reduces_to_mu_z_when_tracking_vanishes():
    # make u_d the interpolant of the achieved state so the adjoint is zero
    man, data, params, mesh, grid = _small_problem(M=4, K=4)
    prob = ReducedProblem(data, params, mesh, grid)
    rng = np.random.default_rng(4)
    z = rng.uniform(0.0, 0.5, size=(grid.K, mesh.omega.n_cells))
    traj = nodal_state(prob, z)
    quad = prob.system.quad

    def u_d(x, t):
        k = np.minimum(np.ceil(t[:, 0] / grid.tau - 1e-12).astype(int), grid.K)
        return quad.values(traj.traces[k])

    matched = ProblemData(forcing=data.forcing, desired_state=u_d,
                          initial=data.initial, bounds=data.bounds)
    prob2 = ReducedProblem(matched, params, mesh, grid)
    g = prob2.cost_and_gradient(prob2.new_control(z).values)[1]
    scale = np.max(np.abs(z))
    assert np.max(np.abs(g - data.bounds.mu * z)) <= 1e-11 * scale


def _separable_toy(shape=(5, 9), weight=0.01):
    """No state coupling: f(z) = 1/2||z - u_d||^2 + mu/2 ||z||^2 in the weighted norm.

    Returns (fun_and_grad, bounds, u_d); the box-constrained minimizer is
    clamp(u_d/(1+mu)), and about half of it lies on the bounds.
    """
    rng = np.random.default_rng(12)
    mu = 0.7
    bounds = ControlBounds(-0.25, 0.3, mu)
    u_d = rng.uniform(-1.0, 1.0, size=shape)

    def fun_and_grad(z):
        f = 0.5 * weight * float(np.sum((z - u_d) ** 2)) \
            + 0.5 * mu * weight * float(np.sum(z ** 2))
        return f, (z - u_d) + mu * z

    return fun_and_grad, bounds, u_d


def test_projected_bfgs_separable_toy():
    fun_and_grad, bounds, u_d = _separable_toy()
    out = projected_bfgs(fun_and_grad, np.zeros_like(u_d), bounds, 0.01, tol=1e-12)
    expected = np.clip(u_d / (1.0 + bounds.mu), bounds.a, bounds.b)
    assert out["converged"]
    assert out["iterations"] <= 5
    assert np.max(np.abs(out["z"] - expected)) <= 1e-10


def test_projected_bfgs_records_the_final_projected_gradient_once():
    # an uphill gradient: every Armijo trial fails, so z never moves
    uphill = lambda z: (0.5 * float(np.sum(z * z)), -z)
    out = projected_bfgs(uphill, np.ones(4), ControlBounds(-10.0, 10.0, 1.0), 1.0)
    assert out["pg_history"] == [2.0]
    assert out["iterations"] == 1 and not out["converged"]
    # the iteration cap ends the loop after a step: the new iterate is measured
    fun_and_grad, bounds, u_d = _separable_toy()
    out = projected_bfgs(fun_and_grad, np.zeros_like(u_d), bounds, 0.01, tol=1e-12,
                         max_iter=1)
    pg = out["z"] - clamp(out["z"] - out["g"], bounds.a, bounds.b)
    assert out["iterations"] == 1 and not out["converged"]
    assert out["pg_history"] == [out["pg_history"][0], math.sqrt(0.01 * float(np.vdot(pg, pg)))]
    assert out["pg_history"][1] < out["pg_history"][0]


def _assert_same_run(got, ref):
    for key in ("z", "g"):
        assert np.array_equal(got[key], ref[key]), key
    for key in ("f", "pg_history", "cost_history", "iterations", "converged"):
        assert got[key] == ref[key], key


def test_projected_bfgs_matches_stored_restriction_oracle_on_toy():
    fun_and_grad, bounds, u_d = _separable_toy()
    runs = [opt(fun_and_grad, np.zeros_like(u_d), bounds, 0.01, tol=1e-12)
            for opt in (projected_bfgs, reference_projected_bfgs)]
    _assert_same_run(*runs)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("mu", [1.0, 1e-2])
def test_projected_bfgs_matches_stored_restriction_oracle(mu, gamma, seed):
    # rebuilding the free-set restrictions every iteration changes where
    # they live, not one floating-point operation of the iteration
    man, data, params, mesh, grid = _small_problem(gamma=gamma, M=6, K=16, mu=mu)
    prob = ReducedProblem(data, params, mesh, grid)
    rng = np.random.default_rng(seed)
    z0 = man.a + (man.b - man.a) * rng.random((grid.K, mesh.omega.n_cells))
    fun_and_grad = lambda z: prob.cost_and_gradient(z)[:2]
    runs = [opt(fun_and_grad, z0, data.bounds, prob.weight, tol=1e-10)
            for opt in (projected_bfgs, reference_projected_bfgs)]
    _assert_same_run(*runs)
    assert runs[0]["converged"]


# traced peak of projected_bfgs above its start on the 2**17-entry toy, in
# control-array sizes: 10.3 whole pairs only, 13.1 with stored restrictions
TOY_PEAK_ARRAYS = 11.5


def _traced_peak_arrays(opt, fun_and_grad, bounds, u_d):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = opt(fun_and_grad, np.zeros_like(u_d), bounds, 1.0 / u_d.size, tol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["converged"]
    return (peak - start) / u_d.nbytes


def test_projected_bfgs_keeps_no_restrictions_through_the_line_search():
    fun_and_grad, bounds, u_d = _separable_toy(shape=(256, 512), weight=1.0 / 2 ** 17)
    assert u_d.size == 2 ** 17
    active = np.abs(np.clip(u_d / (1.0 + bounds.mu), bounds.a, bounds.b)
                    - u_d / (1.0 + bounds.mu)) > 0.0
    assert 0.25 < active.mean() < 0.75
    assert _traced_peak_arrays(projected_bfgs, fun_and_grad, bounds, u_d) < TOY_PEAK_ARRAYS
    # the bound separates the two designs: the oracle keeps restrictions stored
    assert _traced_peak_arrays(reference_projected_bfgs, fun_and_grad, bounds,
                               u_d) > TOY_PEAK_ARRAYS


@pytest.mark.parametrize("kwargs", [{"tol": math.nan}, {"tol": -1.0}, {"max_iter": 0}],
                         ids=["tol-nan", "tol-negative", "max-iter-0"])
def test_solve_control_problem_rejects_unreachable_stopping_rule(kwargs):
    man, data, params, mesh, grid = _small_problem(M=4, K=8)
    with pytest.raises(ParameterError, match=next(iter(kwargs))):
        solve_control_problem(data, params, mesh, grid, **kwargs)


@pytest.mark.parametrize("other", ["data", "grid", "mesh", "params"])
def test_solve_control_problem_rejects_prob_of_other_inputs(other):
    man, data, params, mesh, grid = _small_problem(M=4, K=8)
    prob = ReducedProblem(data, params, mesh, grid)
    inputs = {"data": data, "params": params, "mesh": mesh, "grid": grid}
    inputs[other] = {
        # another box and mu: the solve would clamp to one and take its cost from the other
        "data": dataclasses.replace(data, bounds=ControlBounds(-0.1, 0.1, 1e-2)),
        "grid": TimeGrid(T=0.5, K=8),
        # an equal mesh that is another object
        "mesh": build_setup(2, 4, 0.5, 1.0, 1.0, 8)[0],
        "params": build_setup(2, 4, 0.6, 1.0, 1.0, 8)[1],
    }[other]
    with pytest.raises(ParameterError, match="prob was built"):
        solve_control_problem(prob=prob, **inputs)


def test_solve_control_problem_accepts_its_own_prob():
    # the call of the harness, the demos and the benchmark: prob built from the same inputs
    man, data, params, mesh, grid = _small_problem(M=4, K=8)
    prob = ReducedProblem(data, params, mesh, grid)
    res = solve_control_problem(data, params, mesh, grid, tol=1e-9, prob=prob)
    ref = solve_control_problem(data, params, mesh, grid, tol=1e-9)
    assert res.converged
    assert np.array_equal(res.control.values, ref.control.values)
    assert np.array_equal(res.state.traces, ref.state.traces)


def test_solve_control_problem_optimality():
    man, data, params, mesh, grid = _small_problem(M=4, K=8)
    res = solve_control_problem(data, params, mesh, grid, tol=1e-9)
    assert res.converged
    assert res.pg_norm <= 1e-9
    # admissible: the box leaves the optimal control unchanged
    assert np.array_equal(clamp(res.control.values, man.a, man.b), res.control.values)
    # monotone cost decrease along accepted steps (up to roundoff allowance)
    hist = np.asarray(res.cost_history)
    assert np.all(np.diff(hist) <= 32 * np.finfo(float).eps * np.abs(hist[:-1]))
    # vi residual at the optimum
    prob = ReducedProblem(data, params, mesh, grid)
    p_means = np.stack([project_trace(res.adjoint.traces[k], prob.system)
                        for k in range(grid.K)])
    assert vi_residual(res.control, p_means) <= 1e-8
    # fixed point of the projection formula
    target = clamp(-p_means / data.bounds.mu, man.a, man.b)
    gap = control_norm(res.control.values - target, grid, mesh.omega)
    assert gap <= 1e-8


def test_vi_residual_fixed_point_and_perturbation():
    man, data, params, mesh, grid = _small_problem(M=4, K=4)
    prob = ReducedProblem(data, params, mesh, grid)
    rng = np.random.default_rng(9)
    z = rng.uniform(0.0, 0.5, size=(grid.K, mesh.omega.n_cells))
    traj = nodal_state(prob, z)
    adj = nodal_adjoint(prob, traj)
    p_means = np.stack([project_trace(adj.traces[k], prob.system)
                        for k in range(grid.K)])
    fixed = clamp(-p_means / data.bounds.mu, man.a, man.b)
    zc = prob.new_control(fixed)
    assert vi_residual(zc, p_means) == 0.0
    # interior perturbation of l2(L2) size delta moves the residual by delta
    delta = 1e-3
    interior = (fixed > man.a + 0.05) & (fixed < man.b - 0.05)
    pert = np.where(interior, 1.0, 0.0)
    pert_norm = control_norm(pert, grid, mesh.omega)
    assert pert_norm > 0
    pert *= delta / pert_norm
    zp = prob.new_control(fixed + pert)
    assert math.isclose(vi_residual(zp, p_means), delta, rel_tol=1e-12)


def test_cost_strictly_convex_on_segments():
    man, data, params, mesh, grid = _small_problem(M=4, K=4)
    prob = ReducedProblem(data, params, mesh, grid)
    rng = np.random.default_rng(14)
    for _ in range(3):
        za = rng.uniform(0.0, 0.5, size=(grid.K, mesh.omega.n_cells))
        zb = rng.uniform(0.0, 0.5, size=(grid.K, mesh.omega.n_cells))
        fa, fb = reduced_cost(prob, za), reduced_cost(prob, zb)
        fm = reduced_cost(prob, 0.5 * (za + zb))
        assert fm < 0.5 * (fa + fb)


def test_unconstrained_interior_optimum_first_order():
    # wide bounds: optimum is interior, gradient vanishes, z = -Pi(tr p)/mu
    man, data, params, mesh, grid = _small_problem(M=4, K=6)
    wide = ProblemData(forcing=data.forcing, desired_state=data.desired_state,
                       initial=data.initial, bounds=ControlBounds(-50.0, 50.0, 1.0))
    prob = ReducedProblem(wide, params, mesh, grid)
    res = solve_control_problem(wide, params, mesh, grid, tol=1e-10, prob=prob)
    assert res.converged
    g = prob.cost_and_gradient(res.control.values)[1]
    assert control_norm(g, grid, mesh.omega) <= 1e-9
    p_means = np.stack([project_trace(res.adjoint.traces[k], prob.system)
                        for k in range(grid.K)])
    assert np.max(np.abs(res.control.values + p_means)) <= 1e-9


def test_vi_residual_pg_relation_other_mu():
    # invariant: at the optimum vi_residual <= 10 * tol also for mu != 1
    man, data, params, mesh, grid = _small_problem(M=3, K=4, mu=0.5)
    prob = ReducedProblem(data, params, mesh, grid)
    res = solve_control_problem(data, params, mesh, grid, tol=1e-9, prob=prob)
    assert res.converged
    p_means = np.stack([project_trace(res.adjoint.traces[k], prob.system)
                        for k in range(grid.K)])
    assert vi_residual(res.control, p_means) <= 10 * 1e-9
