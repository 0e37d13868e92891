"""Modal fast-diagonalization step solve against the assembled sparse path."""
import numpy as np
import pytest

from fracopt import CylinderSystem, TimeGrid
from fracopt.evolution import adjoint_march, state_march
from fracopt.problem import make_params

from helpers import (build_test_mesh, sparse_adjoint_march, sparse_initial_field,
                     sparse_state_march, sparse_trace_schur)

TOL = 1e-11


def rel_gap(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def make_system(n, gamma, c, K=6):
    mesh, params = build_test_mesh(n=n, M=8 if n == 1 else 5, s=0.35)
    params = make_params(params.s, gamma, params.truncation_Y)
    return CylinderSystem(mesh, params, TimeGrid(T=1.0, K=K), reaction=c)


def u0(x):
    x = np.atleast_2d(x)
    return np.prod(x * (1.0 - x), axis=1) * np.exp(x[:, 0])


@pytest.mark.parametrize("c", [0.0, 0.7, 2.0])
@pytest.mark.parametrize("gamma", [1.0, 0.6, 0.3])
@pytest.mark.parametrize("n", [1, 2])
def test_modal_matches_sparse(n, gamma, c):
    system = make_system(n, gamma, c)
    rng = np.random.default_rng(7)
    shape = (system.grid.K, system.n_interior)

    # delta_i diagonalizes the assembled Schur complement onto y = 0
    schur = sparse_trace_schur(system)
    modal = system.to_modal(system.to_modal(schur).T)
    assert rel_gap(modal, np.diag(system.delta)) <= TOL
    mass = system.to_modal(system.to_modal(system.M_int.toarray()).T)
    assert rel_gap(mass, np.eye(system.n_interior)) <= TOL

    v0 = system.initial_field(u0)
    assert rel_gap(v0, sparse_initial_field(system, u0)) <= TOL

    trace0 = v0[system.tpos]
    loads = rng.standard_normal(shape)
    traj = state_march(system, trace0, loads, keep_fields=True)
    ref_traces, ref_fields = sparse_state_march(system, trace0, loads)
    assert rel_gap(traj.traces, ref_traces) <= TOL
    assert rel_gap(traj.fields[1:], ref_fields[1:]) <= TOL

    loads = rng.standard_normal(shape)
    adj = adjoint_march(system, loads)
    assert rel_gap(adj.traces, sparse_adjoint_march(system, loads)) <= TOL


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_duality_identity_1d_reaction(gamma):
    system = make_system(1, gamma, 0.7)
    grid, B = system.grid, system.B_int
    rng = np.random.default_rng(41)
    for _ in range(5):
        zeta = rng.standard_normal((grid.K, system.mesh.omega.n_cells))
        eta = rng.standard_normal((grid.K, system.mesh.omega.n_cells))
        V = state_march(system, np.zeros(system.n_interior), (B @ zeta.T).T)
        P = adjoint_march(system, (B @ eta.T).T)
        lhs = grid.tau * float(np.sum((B @ eta.T).T * V.traces[1:]))
        rhs = grid.tau * float(np.sum(zeta * (B.T @ P.traces[:-1].T).T))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
