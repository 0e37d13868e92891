"""The optimizer's modal cost and gradient against the nodal evaluation."""
import dataclasses
import math

import numpy as np
import pytest

from fracopt import CylinderSystem, TimeGrid, control, solve_control_problem
from fracopt.control import ReducedProblem
from fracopt.harness import build_setup, manufactured_data
from fracopt.oracle import manufactured_problem
from fracopt.problem import ParameterError

from helpers import (B_int, M_int, build_test_mesh, control_loads, nodal_cost_and_gradient,
                     rel_gap)


def make_problem(n, gamma, c):
    man = manufactured_problem(0.5, 1.0, 1.0, gamma=gamma, n=n)
    mesh, params, grid = build_setup(n, 8 if n == 1 else 4, 0.5, gamma, 1.0, 6)
    params = dataclasses.replace(params, reaction=c)
    return ReducedProblem(manufactured_data(man, 1.0), params, mesh, grid)


@pytest.mark.parametrize("c", [0.0, 0.7])
@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("n", [1, 2])
def test_modal_evaluation_matches_nodal(n, gamma, c):
    prob = make_problem(n, gamma, c)
    rng = np.random.default_rng(17)
    z = rng.uniform(-0.5, 1.0, size=(prob.grid.K, prob.mesh.omega.n_cells))
    cost, grad, _, _ = prob.cost_and_gradient(z)
    ref_cost, ref_grad, _, _ = nodal_cost_and_gradient(prob, z)
    assert math.isclose(cost, ref_cost, rel_tol=1e-13)
    assert rel_gap(grad, ref_grad) <= 1e-12

    res = solve_control_problem(prob.data, prob.params, prob.mesh, prob.grid, prob=prob)
    assert res.converged
    ref_cost, _, state, adj = nodal_cost_and_gradient(prob, res.control.values)
    assert math.isclose(res.cost, ref_cost, rel_tol=1e-13)
    assert rel_gap(res.state.traces, state.traces) <= 1e-12
    assert rel_gap(res.adjoint.traces, adj.traces) <= 1e-12


@pytest.mark.parametrize("M", [2, 5, 12])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_control_maps_match_sparse(n, M):
    mesh, params = build_test_mesh(n=n, M=M)
    system = CylinderSystem(mesh, params, TimeGrid(T=1.0, K=3))
    rng = np.random.default_rng(M)
    z = rng.standard_normal((3, mesh.omega.n_cells))
    p_hat = rng.standard_normal((3, system.n_interior))
    ref = system.to_modal((B_int(system) @ z.T).T)
    assert rel_gap(system.control_to_modal(z), ref) <= 1e-13
    ref = (B_int(system).T @ system.from_modal(p_hat).T).T
    assert rel_gap(system.modal_to_control(p_hat), ref) <= 1e-13
    # the nodal applies of the 1D factors against the assembled matrices
    x = rng.standard_normal((3, system.n_interior))
    assert rel_gap(system.mass(x), (M_int(system) @ x.T).T) <= 1e-13
    assert rel_gap(control_loads(system, z), (B_int(system) @ z.T).T) <= 1e-13
    assert rel_gap(system.cell_integrals(x), (B_int(system).T @ x.T).T) <= 1e-13


def test_solve_forms_nodal_traces_once(monkeypatch):
    prob = make_problem(2, 0.5, 0.0)
    calls = []
    from_modal = CylinderSystem.from_modal

    def counting(self, coeffs, out=None):
        calls.append(coeffs.shape)
        return from_modal(self, coeffs, out=out)

    monkeypatch.setattr(CylinderSystem, "from_modal", counting)
    res = solve_control_problem(prob.data, prob.params, prob.mesh, prob.grid, prob=prob)
    assert res.iterations > 1
    # the final state and the final adjoint
    assert len(calls) == 2


def test_each_evaluation_runs_one_state_and_one_adjoint_march(monkeypatch):
    prob = make_problem(2, 0.5, 0.0)
    calls = []

    def counted(name, fn):
        return lambda *args, **kw: calls.append(name) or fn(*args, **kw)

    for name in ("state_march", "adjoint_march"):
        monkeypatch.setattr(control, name, counted(name, getattr(control, name)))
    monkeypatch.setattr(ReducedProblem, "cost_and_gradient",
                        counted("eval", ReducedProblem.cost_and_gradient))
    res = solve_control_problem(prob.data, prob.params, prob.mesh, prob.grid, prob=prob)
    assert res.iterations > 1
    assert calls == ["eval", "state_march", "adjoint_march"] * (len(calls) // 3)


def test_result_belongs_to_returned_control_after_rejected_trial(monkeypatch):
    prob = make_problem(1, 0.5, 0.7)
    projected_bfgs = control.projected_bfgs

    def then_reject(fun_and_grad, z0, *args, **kwargs):
        raw = projected_bfgs(fun_and_grad, z0, *args, **kwargs)
        fun_and_grad(raw["z"] + 0.1)    # a line-search trial that was turned down
        return raw

    monkeypatch.setattr(control, "projected_bfgs", then_reject)
    res = solve_control_problem(prob.data, prob.params, prob.mesh, prob.grid, prob=prob)
    cost, _, state, adj = nodal_cost_and_gradient(prob, res.control.values)
    assert math.isclose(res.cost, cost, rel_tol=1e-13)
    assert rel_gap(res.state.traces, state.traces) <= 1e-12
    assert rel_gap(res.adjoint.traces, adj.traces) <= 1e-12


def test_control_of_wrong_shape_raises():
    prob = make_problem(1, 0.5, 0.0)
    K, n_cells = prob.grid.K, prob.mesh.omega.n_cells
    for shape in [(K - 1, n_cells), (K + 1, n_cells), (K, n_cells + 1), (K * n_cells,)]:
        with pytest.raises(ParameterError, match="shape"):
            prob.cost_and_gradient(np.zeros(shape))


def test_non_finite_start_control_raises():
    prob = make_problem(1, 1.0, 0.0)
    z0 = np.zeros((prob.grid.K, prob.mesh.omega.n_cells))
    z0[2, 3] = np.nan
    with pytest.raises(ParameterError, match="non-finite"):
        solve_control_problem(prob.data, prob.params, prob.mesh, prob.grid, z0=z0, prob=prob)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_cost_raises(bad):
    prob = make_problem(2, 0.5, 0.0)
    z = np.zeros((prob.grid.K, prob.mesh.omega.n_cells))
    z[-1, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ParameterError, match="not finite"):
        prob.cost_and_gradient(z)
