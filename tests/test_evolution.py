import dataclasses
import math
import sys

import numpy as np
import pytest

from fracopt import (ControlBounds, CylinderSystem, ProblemData, ReducedProblem, TimeGrid,
                     apply_discrete_caputo, caputo_weights, lambda_diagnostic, solve_state)
from fracopt import assembly, evolution, oracle
from fracopt.assembly import assemble_stiffness
from fracopt.control import l2_project, solve_control_problem
from fracopt.evolution import adjoint_march, state_march
from fracopt.oracle import manufactured_problem, mode
from fracopt.problem import ParameterError, make_params
from fracopt.harness import build_setup, l2Q_error, manufactured_data

from helpers import build_test_mesh, check_telescoping, extension_field, node_index, node_maps


def zero_f(x, t):
    return np.zeros(np.atleast_2d(x).shape[0])


def zero_u0(x):
    return np.zeros(np.atleast_2d(x).shape[0])


WIDE = ControlBounds(-10.0, 10.0, 1.0)


def test_caputo_weights_basics():
    w = caputo_weights(0.5, 8, 0.1)
    assert w.a[0] == 1.0
    assert math.isclose(w.a[1], math.sqrt(2) - 1.0, rel_tol=1e-15)
    assert math.isclose(w.scale, 1.0 / (math.gamma(1.5) * 0.1 ** 0.5), rel_tol=1e-15)


def test_caputo_weights_telescoping_small():
    # K = 4, gamma = 0.5: sum_{j<3}(a_j - a_{j+1}) + a_3 = 1
    w = caputo_weights(0.5, 4, 0.25)
    total = float(np.sum(w.diffs[:3]) + w.a[3])
    assert abs(total - 1.0) <= 1e-15


@pytest.mark.parametrize("gamma", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_caputo_weights_invariants(gamma):
    check_telescoping(gamma, 200)


def test_caputo_weights_invariants_large_K():
    check_telescoping(0.3, 10_000)
    check_telescoping(0.7, 10_000)


def test_caputo_weights_gamma_one_raises():
    with pytest.raises(ParameterError, match="delta"):
        caputo_weights(1.0, 4, 0.1)
    with pytest.raises(ParameterError, match="delta"):
        caputo_weights(0.0, 4, 0.1)


def test_discrete_caputo_constant_history():
    w = caputo_weights(0.35, 10, 0.2)
    hist = np.full(6, 3.7)
    c_new, h_known = apply_discrete_caputo(w, hist)
    assert abs(c_new * 3.7 - h_known) <= 1e-12


def test_discrete_caputo_exact_on_linear():
    rng = np.random.default_rng(21)
    for _ in range(20):
        gamma = float(rng.uniform(0.05, 0.95))
        K = int(rng.integers(2, 40))
        tau = float(rng.uniform(0.01, 0.5))
        k = int(rng.integers(0, K - 1))
        w = caputo_weights(gamma, K, tau)
        hist = tau * np.arange(k + 1, dtype=float)
        c_new, h_known = apply_discrete_caputo(w, hist)
        got = c_new * (tau * (k + 1)) - h_known
        expected = (tau * (k + 1)) ** (1.0 - gamma) / math.gamma(2.0 - gamma)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_discrete_caputo_near_one_matches_delta1():
    w = caputo_weights(0.999, 16, 1.0 / 16)
    t = np.arange(9) / 16.0
    hist = np.sin(t)
    c_new, h_known = apply_discrete_caputo(w, hist)
    new_value = math.sin(9 / 16.0)
    frac = c_new * new_value - h_known
    classical = (new_value - hist[-1]) * 16.0
    assert abs(frac - classical) <= 0.01 * abs(classical)


def test_discrete_caputo_empty_history():
    w = caputo_weights(0.5, 4, 0.1)
    with pytest.raises(ParameterError):
        apply_discrete_caputo(w, np.empty((0,)))


def full_initial_field(u0, mesh, params):
    """The harmonic extension of u0 embedded in all nodes (zero on Dirichlet ones).

    Its trace is CylinderSystem.initial_field; above y = 0 it is the modal
    profile psi of every mode.
    """
    system = CylinderSystem(mesh, params, TimeGrid(T=1.0, K=1))
    maps = node_maps(mesh)
    v = np.zeros(maps.n_nodes)
    v[maps.free_idx] = extension_field(system, u0)
    v[maps.trace_global[mesh.omega.interior_idx]] = system.initial_field(u0)
    return v


def test_initialize_state_zero():
    mesh, params = build_test_mesh(n=1, M=4, s=0.4)
    v = full_initial_field(zero_u0, mesh, params)
    assert np.all(v == 0.0)


def test_initialize_state_trace_and_decay():
    mesh, params = build_test_mesh(n=2, M=6, s=0.5)
    md = mode(1, 1)
    v = full_initial_field(lambda x: md(x), mesh, params)
    maps = node_maps(mesh)
    interior = mesh.omega.interior_idx
    got = v[maps.trace_global[interior]]
    assert np.allclose(got, md(mesh.omega.vertices[interior]), atol=1e-13)
    assert np.all(v[maps.dirichlet_mask] == 0.0)
    # discrete maximum-principle style check: values decay going up a column
    for vertex in interior[:5]:
        col = v[[node_index(mesh, vertex, m) for m in range(mesh.axis.M + 1)]]
        assert np.all(np.diff(np.abs(col)) <= 1e-13)


def test_initialize_state_energy_bounded_across_refinements():
    md = mode(1, 1)
    energies = []
    for M in (4, 8, 16):
        mesh, params = build_test_mesh(n=2, M=M, s=0.6)
        system = CylinderSystem(mesh, params, TimeGrid(T=1.0, K=1))
        vfree = extension_field(system, lambda x: md(x))
        energies.append(float(vfree @ (system.A_free @ vfree)))
    assert max(energies) <= 2.0 * min(energies)
    # Galerkin orthogonality of the extension solve: residual vanishes off the trace
    resid = system.A_free @ vfree
    mask = np.ones(mesh.n_free, dtype=bool)
    mask[node_maps(mesh).trace_free_pos] = False
    assert np.max(np.abs(resid[mask])) <= 1e-12 * np.max(np.abs(resid))


def test_system_marches_without_stiffness_and_assembles_it_on_demand(monkeypatch):
    mesh, params = build_test_mesh(n=2, M=5, s=0.4)
    params = make_params(params.s, 0.5)
    grid = TimeGrid(T=1.0, K=4)

    def refuse(*args, **kwargs):
        raise AssertionError("the modal march does not need the assembled stiffness")

    monkeypatch.setattr(evolution, "assemble_stiffness", refuse)
    system = CylinderSystem(mesh, params, grid, reaction=0.7)
    md = mode(1, 2)
    trace0 = system.initial_field(lambda x: md(x))
    loads = np.ones((grid.K, system.n_interior))
    state_march(system, trace0, loads)
    adjoint_march(system, loads)
    monkeypatch.undo()
    # A_free is assembled on first use, kept, and gives the assembled energy
    v0 = extension_field(system, lambda x: md(x))
    A = assemble_stiffness(mesh, params, c=0.7)
    assert math.isclose(float(v0 @ (system.A_free @ v0)), float(v0 @ (A @ v0)), rel_tol=1e-14)
    assert system.A_free is system.A_free


@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_system_assembles_no_omega_matrix(monkeypatch, n, gamma):
    def refuse(*args, **kwargs):
        raise AssertionError("the system applies 1D factors and assembles no 2D Omega matrix")

    # patched where they are defined and, should it import them, in evolution
    for module in (assembly, evolution):
        for name in ("omega_matrices", "control_load_matrix"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    # and no scipy.sparse or scipy.special anywhere on the way from data to
    # errors: an import of either raises, and no module binds one at import
    # time (tests/test_imports.py); the Gauss-Jacobi rule is rebuilt under it
    for name in ("scipy.sparse", "scipy.special"):
        monkeypatch.setitem(sys.modules, name, None)
    oracle._jacobi_rule.cache_clear()
    mesh, params = build_test_mesh(n=n, M=5, s=0.4)
    params = make_params(params.s, gamma)
    grid = TimeGrid(T=1.0, K=4)
    system = CylinderSystem(mesh, params, grid, reaction=0.7)
    md = mode(*([1] * n))
    trace0 = system.initial_field(lambda x: md(x))
    loads = system.control_loads(np.ones((grid.K, mesh.omega.n_cells)))
    state_march(system, trace0, loads)
    adjoint_march(system, system.mass(loads))
    for name in ("M_int", "B", "B_int", "B_int_T"):
        assert not hasattr(system, name)

    man = manufactured_problem(params.s, 1.0, 1.0, gamma=gamma, n=n)
    data = manufactured_data(man, 1.0)
    # builds its own ReducedProblem
    result = solve_control_problem(data, params, mesh, grid, max_iter=3)
    z = np.clip(l2_project(man.control, grid, mesh.omega), man.a, man.b)
    traj = solve_state(CylinderSystem(mesh, params, grid), data, control=z)
    l2Q_error(traj.traces, man.state, grid, mesh.omega)
    l2Q_error(result.control.values, man.control, grid, mesh.omega, kind="control")


def test_zero_data_zero_trajectories():
    for gamma in (1.0, 0.5):
        mesh, params = build_test_mesh(n=1, M=4, s=0.5)
        params = make_params(params.s, gamma)
        grid = TimeGrid(T=1.0, K=5)
        data = ProblemData(forcing=zero_f, desired_state=zero_f,
                           initial=zero_u0, bounds=WIDE)
        traj = solve_state(CylinderSystem(mesh, params, grid), data)
        assert np.all(traj.traces == 0.0)
        adj = ReducedProblem(data, params, mesh, grid).adjoint(traj)
        assert np.all(adj.traces == 0.0)


def test_backward_euler_monotone_decay():
    mesh, params = build_test_mesh(n=2, M=5, s=0.7)
    grid = TimeGrid(T=1.0, K=8)
    md = mode(1, 1)
    data = ProblemData(forcing=zero_f, desired_state=zero_f,
                       initial=lambda x: md(x), bounds=WIDE)
    system = CylinderSystem(mesh, params, grid)
    traj = solve_state(system, data)
    norms = [float(tr @ system.mass(tr)) for tr in traj.traces]
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


def test_state_matches_spectral_oracle_under_refinement():
    md = mode(1, 1)
    errs = []
    for (M, K) in ((4, 16), (8, 32)):
        mesh, params, grid = build_setup(2, M, 0.6, 1.0, 0.5, K, Y=1.5)
        data = ProblemData(forcing=zero_f, desired_state=zero_f,
                           initial=lambda x: md(x), bounds=WIDE)
        system = CylinderSystem(mesh, params, grid)
        traj = solve_state(system, data)
        lam_s = md.lam ** params.s
        exact = lambda x, t: np.exp(-lam_s * t) * md(x)
        errs.append(l2Q_error(traj.traces, exact, grid, mesh.omega, quad=system.quad))
    assert errs[1] < errs[0]


def test_adjoint_zero_when_state_matches_desired():
    mesh, params = build_test_mesh(n=2, M=4, s=0.5)
    grid = TimeGrid(T=1.0, K=4)
    md = mode(2, 2)
    data = ProblemData(forcing=lambda x, t: md(x) * np.cos(t),
                       desired_state=zero_f, initial=lambda x: md(x), bounds=WIDE)
    system = CylinderSystem(mesh, params, grid)
    traj = solve_state(system, data)

    def u_d(x, t):
        # piecewise-constant-in-time interpolant of the discrete trace
        k = np.minimum(np.ceil(t[:, 0] / grid.tau - 1e-12).astype(int), grid.K)
        return system.quad.values(traj.traces[k])

    data = dataclasses.replace(data, desired_state=u_d)
    adj = ReducedProblem(data, params, mesh, grid).adjoint(traj)
    assert np.max(np.abs(adj.traces)) <= 1e-12 * max(1.0, np.max(np.abs(traj.traces)))
    assert np.all(adj.traces[-1] == 0.0)


def test_adjoint_approximates_manufactured_adjoint():
    errs = []
    for (M, K) in ((4, 8), (8, 16)):
        man = manufactured_problem(0.5, 1.0, 1.0, n=2)
        mesh, params, grid = build_setup(2, M, 0.5, 1.0, 1.0, K)
        data = ProblemData(forcing=man.forcing, desired_state=man.desired_state,
                           initial=man.initial, bounds=WIDE)
        system = CylinderSystem(mesh, params, grid)
        z = np.clip(l2_project(man.control, grid, mesh.omega), man.a, man.b)
        traj = solve_state(system, data, control=z)
        adj = ReducedProblem(data, params, mesh, grid).adjoint(traj)
        # adjoint history is read at the left endpoints; compare step k with p(t_{k-1})
        shifted = np.vstack([adj.traces[1:], adj.traces[:1] * 0.0])
        err = l2Q_error(shifted, lambda x, t: man.adjoint(x, t), grid, mesh.omega,
                        quad=system.quad)
        errs.append(err)
    assert errs[1] < errs[0]


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_duality_identity(gamma):
    rng = np.random.default_rng(100 + int(10 * gamma))
    mesh, params = build_test_mesh(n=2, M=4, s=0.3)
    params = make_params(params.s, gamma)
    grid = TimeGrid(T=1.0, K=6)
    system = CylinderSystem(mesh, params, grid)
    for _ in range(5):
        zeta = rng.standard_normal((grid.K, mesh.omega.n_cells))
        eta = rng.standard_normal((grid.K, mesh.omega.n_cells))
        V = state_march(system, np.zeros(system.n_interior),
                        system.control_loads(zeta))
        P = adjoint_march(system, system.control_loads(eta))
        lhs = grid.tau * float(np.sum(system.control_loads(eta) * V.traces[1:]))
        rhs = grid.tau * float(np.sum(zeta * system.cell_integrals(P.traces[:-1])))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_stability_constant_across_refinements():
    md = mode(1, 1)
    ratios = []
    for M in (4, 6, 8):
        mesh, params, grid = build_setup(2, M, 0.4, 1.0, 1.0, 8 * M // 4, Y=1.5)
        f = lambda x, t: md(x) * (1.0 + t)
        data = ProblemData(forcing=f, desired_state=zero_f,
                           initial=lambda x: md(x), bounds=WIDE)
        system = CylinderSystem(mesh, params, grid)
        traj = solve_state(system, data)
        sq = np.einsum("ki,ki->k", traj.traces[1:], system.mass(traj.traces[1:]))
        lhs = math.sqrt(grid.tau * float(np.sum(sq)))
        # ||u0|| + ||f||_{l2(L2)} with ||f^k|| = |1 + t_k| * ||phi|| = 1 + t_k
        rhs = 1.0 + math.sqrt(grid.tau * float(np.sum((1.0 + grid.nodes[1:]) ** 2)))
        ratios.append(lhs / rhs)
    # bounded by one modest constant, with increments shrinking under refinement
    assert max(ratios) <= 1.25 * min(ratios)
    assert max(ratios) <= 5.0
    assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])


def test_lambda_diagnostic_identity_and_closed_form():
    grid = TimeGrid(T=2.0, K=8)
    trace_sq = np.linspace(1.0, 3.0, grid.K + 1)
    # gamma = 1: fractional integral degenerates to evaluation at T
    assert lambda_diagnostic(trace_sq, 1.0, grid) == trace_sq[-1]
    # constant squared norm: I^{1-gamma}(1)(T) = T^{1-gamma}/Gamma(2-gamma)
    for gamma in (0.25, 0.5, 0.75):
        got = lambda_diagnostic(np.ones(grid.K + 1), gamma, grid)
        expected = grid.T ** (1.0 - gamma) / math.gamma(2.0 - gamma)
        assert math.isclose(got, expected, rel_tol=1e-13)


def test_solve_state_rejects_data_of_another_reaction():
    mesh, params = build_test_mesh(n=1, M=4, s=0.5)
    grid = TimeGrid(T=1.0, K=5)
    md = mode(1)
    data = ProblemData(forcing=zero_f, desired_state=zero_f,
                       initial=lambda x: md(x), bounds=WIDE, reaction=0.7)
    with pytest.raises(ParameterError, match="reaction"):
        solve_state(CylinderSystem(mesh, params, grid), data)
    # the system of that reaction solves it, as the control problem's does
    system = CylinderSystem(mesh, params, grid, reaction=0.7)
    traj = solve_state(system, data)
    ref = ReducedProblem(data, params, mesh, grid).state(np.zeros((grid.K, mesh.omega.n_cells)))
    assert np.array_equal(traj.traces, ref.traces)


def test_solve_state_control_shape_mismatch():
    mesh, params = build_test_mesh(n=1, M=4, s=0.5)
    grid = TimeGrid(T=1.0, K=5)
    data = ProblemData(forcing=zero_f, desired_state=zero_f,
                       initial=zero_u0, bounds=WIDE)
    bad = np.zeros((grid.K + 1, mesh.omega.n_cells))
    with pytest.raises(ParameterError):
        solve_state(CylinderSystem(mesh, params, grid), data, control=bad)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("step", [0, 2, 5])
@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_marches_reject_non_finite_traces(gamma, step):
    # the first, a middle and the last step of the state march
    mesh, params = build_test_mesh(n=2, M=4, s=0.5)
    params = make_params(params.s, gamma)
    grid = TimeGrid(T=1.0, K=6)
    system = CylinderSystem(mesh, params, grid)
    loads = np.zeros((grid.K, system.n_interior))
    loads[step, 1] = np.nan
    with pytest.raises(ParameterError, match="state march"):
        state_march(system, np.zeros(system.n_interior), loads)
    with pytest.raises(ParameterError, match="adjoint march"):
        adjoint_march(system, loads)
    loads[step, 1] = np.inf
    with pytest.raises(ParameterError, match="adjoint march"):
        adjoint_march(system, loads)
    trace0 = np.zeros(system.n_interior)
    trace0[0] = np.nan
    with pytest.raises(ParameterError, match="state march"):
        state_march(system, trace0, np.zeros_like(loads))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_solve_state_rejects_non_finite_initial_datum_and_control():
    mesh, params = build_test_mesh(n=1, M=4, s=0.5)
    grid = TimeGrid(T=1.0, K=5)

    def nan_u0(x):
        out = np.zeros(np.atleast_2d(x).shape[0])
        out[1] = np.nan
        return out

    data = ProblemData(forcing=zero_f, desired_state=zero_f,
                       initial=nan_u0, bounds=WIDE)
    with pytest.raises(ParameterError, match="state march"):
        solve_state(CylinderSystem(mesh, params, grid), data)
    data = ProblemData(forcing=zero_f, desired_state=zero_f,
                       initial=zero_u0, bounds=WIDE)
    control = np.zeros((grid.K, mesh.omega.n_cells))
    control[3, 0] = np.nan
    with pytest.raises(ParameterError, match="state march"):
        solve_state(CylinderSystem(mesh, params, grid), data, control=control)
