"""Modal fast-diagonalization step solve against the assembled sparse path."""
import functools

import numpy as np
import pytest

from fracopt import CylinderSystem, ParameterError, TimeGrid, apply_discrete_caputo
from fracopt.evolution import ModalMarch, adjoint_march, impulse_responses, state_march
from fracopt.problem import make_params

from helpers import (M_int, build_test_mesh, extension_field, free_field, node_maps,
                     recurrence_impulse_responses, rel_gap, sparse_adjoint_march,
                     sparse_initial_field, sparse_state_march, sparse_trace_schur)

TOL = 1e-11


def make_system(n, gamma, c, K=6, M=None):
    mesh, params = build_test_mesh(n=n, M=M or {1: 8, 2: 5, 3: 4}[n], s=0.35)
    params = make_params(params.s, gamma)
    return CylinderSystem(mesh, params, TimeGrid(T=1.0, K=K), reaction=c)


def u0(x):
    x = np.atleast_2d(x)
    return np.prod(x * (1.0 - x), axis=1) * np.exp(x[:, 0])


@pytest.mark.parametrize("c", [0.0, 0.7, 2.0])
@pytest.mark.parametrize("gamma", [1.0, 0.6, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_modal_matches_sparse(n, gamma, c, K=6, M=None):
    system = make_system(n, gamma, c, K=K, M=M)
    rng = np.random.default_rng(7)
    shape = (system.grid.K, system.n_interior)

    # delta_i diagonalizes the assembled Schur complement onto y = 0
    schur = sparse_trace_schur(system)
    modal = system.to_modal(system.to_modal(schur).T)
    assert rel_gap(modal, np.diag(system.delta)) <= TOL
    mass = system.to_modal(system.to_modal(M_int(system).toarray()).T)
    assert rel_gap(mass, np.eye(system.n_interior)) <= TOL

    # the modal profiles psi extend the trace as the sparse LU does
    ref_v0 = sparse_initial_field(system, u0)
    assert rel_gap(extension_field(system, u0), ref_v0) <= TOL
    trace0 = system.initial_field(u0)
    assert np.array_equal(trace0, u0(system.mesh.omega.vertices[system.interior]))
    assert rel_gap(trace0, ref_v0[node_maps(system.mesh).trace_free_pos]) <= TOL

    loads = rng.standard_normal(shape)
    traj = state_march(system, trace0, loads)
    ref_traces, ref_fields = sparse_state_march(system, trace0, loads)
    assert rel_gap(traj.traces, ref_traces) <= TOL
    fields = free_field(system, system.to_modal(system.mass(traj.traces[1:])))
    assert rel_gap(fields, ref_fields[1:]) <= TOL

    loads = rng.standard_normal(shape)
    adj = adjoint_march(system, loads)
    assert rel_gap(adj.traces, sparse_adjoint_march(system, loads)) <= TOL


# single step, odd length and a long march (FFT convolution for gamma < 1)
@pytest.mark.parametrize("c", [0.0, 0.7, 2.0])
@pytest.mark.parametrize("gamma", [1.0, 0.6, 0.3])
@pytest.mark.parametrize("n,K", [(1, 1), (2, 1), (1, 37), (2, 37), (1, 320)])
def test_modal_matches_sparse_step_counts(n, K, gamma, c):
    test_modal_matches_sparse(n, gamma, c, K=K)


def test_systems_on_one_lattice_share_its_read_only_factors():
    mesh, params = build_test_mesh(n=2, M=5, s=0.4)
    a = CylinderSystem(mesh, params, TimeGrid(T=1.0, K=4))
    b = CylinderSystem(mesh, make_params(0.7, 0.5), TimeGrid(T=0.5, K=6), reaction=1.0)
    assert b.quad is a.quad
    for name in ("phi", "m1", "b1", "c1"):
        assert getattr(b, name) is getattr(a, name)
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, name)[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        a.quad.points[0] = 0.0


@pytest.mark.parametrize("gamma", [1.0, 0.7, 0.3])
@pytest.mark.parametrize("K", [1, 2, 37, 300])
def test_modal_march_matches_step_recurrence(gamma, K):
    """Convolution solves vs the L1/backward Euler steps taken one by one."""
    rng = np.random.default_rng(K)
    rates = np.array([0.0, 0.3, 5.0, 400.0])
    march = ModalMarch(rates, gamma, K, 1.0 / K)
    x0 = rng.standard_normal(rates.size)
    loads = rng.standard_normal((K, rates.size))
    hist = [x0]
    for k in range(K):
        if march.weights is None:
            c_new, known = march.c_new, march.c_new * hist[-1]
        else:
            c_new, known = apply_discrete_caputo(march.weights, np.array(hist))
        hist.append((known + loads[k]) / (c_new + rates))
    ref = np.array(hist[1:])
    got = march.solve(loads, x0)
    assert rel_gap(got, ref) <= 1e-13
    # a compact result, not a view that keeps a larger work buffer alive
    assert got.flags.owndata and got.flags.c_contiguous
    # the transposed solve is the adjoint of the forward one
    other = rng.standard_normal((K, rates.size))
    lhs = np.sum(other * march.solve(loads))
    rhs = np.sum(march.solve_transposed(other) * loads)
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(other * march.solve(loads)))


@functools.cache
def system_rates(n):
    """The Schur complements delta of an n-dimensional test system."""
    return make_system(n, 1.0, 0.7).delta


# start block (32) and its neighbours, a partial last doubling (33, 37) and
# full ones (1024; 4096 on the 1D system only, to keep the oracle cheap)
@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("rates,K", [(r, K) for r in ("fixed", 1, 2)
                                     for K in (1, 2, 3, 31, 32, 33, 37, 1024)]
                         + [(1, 4096)])
def test_impulse_response_matches_recurrence(rates, K, gamma):
    """Newton set-up vs the O(K^2 n) recurrence, normwise per mode set."""
    rates = np.array([0.0, 0.3, 5.0, 400.0]) if rates == "fixed" else system_rates(rates)
    march = ModalMarch(rates, gamma, K, 1.0 / K)
    ref = recurrence_impulse_responses(march.rate, march.c_new, march.weights.diffs, K)
    got = impulse_responses(march.rate, march.c_new, march.weights.diffs, K)
    assert got.shape == (rates.size, K)
    assert rel_gap(got, ref) <= 1e-13
    assert rel_gap(march.h_hat, np.fft.rfft(ref, n=2 * K)) <= 1e-13


@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("bad", ["nan", "inf", "minus_c_new"])
def test_modal_march_rejects_bad_rates(bad, gamma):
    K, tau = 8, 0.125
    c_new = ModalMarch(np.zeros(1), gamma, K, tau).c_new
    value = {"nan": np.nan, "inf": np.inf, "minus_c_new": -c_new}[bad]
    with pytest.raises(ParameterError, match="rates"):
        ModalMarch(np.array([0.0, 1.0, value]), gamma, K, tau)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("shape", [(16, 3), (4, 3), (8, 2), (8, 4), (8,)])
def test_modal_march_rejects_loads_of_another_shape(shape, gamma):
    # unchecked, backward Euler would leave the rows past K unset and L1 crop them
    march = ModalMarch(np.array([0.0, 1.0, 5.0]), gamma, 8, 0.125)
    with pytest.raises(ParameterError, match="loads must have shape"):
        march.solve(np.ones(shape))
    with pytest.raises(ParameterError, match="loads must have shape"):
        march.solve_transposed(np.ones(shape))


def check_duality(system, trials):
    grid = system.grid
    rng = np.random.default_rng(41)
    for _ in range(trials):
        zeta = rng.standard_normal((grid.K, system.mesh.omega.n_cells))
        eta = rng.standard_normal((grid.K, system.mesh.omega.n_cells))
        V = state_march(system, np.zeros(system.n_interior), system.control_loads(zeta))
        P = adjoint_march(system, system.control_loads(eta))
        lhs = grid.tau * float(np.sum(system.control_loads(eta) * V.traces[1:]))
        rhs = grid.tau * float(np.sum(zeta * system.cell_integrals(P.traces[:-1])))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_duality_identity_1d_reaction(gamma):
    check_duality(make_system(1, gamma, 0.7), trials=5)


# the smallest 3D lattices, with one and eight interior vertices (M = 4 above has 27)
@pytest.mark.parametrize("c", [0.0, 0.7, 2.0])
@pytest.mark.parametrize("gamma", [1.0, 0.6, 0.3])
@pytest.mark.parametrize("M", [2, 3])
def test_modal_matches_sparse_3d_small_lattices(M, gamma, c):
    test_modal_matches_sparse(3, gamma, c, M=M)


@pytest.mark.parametrize("gamma", [1.0, 0.6, 0.3])
def test_duality_identity_3d(gamma):
    check_duality(make_system(3, gamma, 0.7), trials=3)


def test_duality_identity_long_l1_march():
    check_duality(make_system(2, 0.3, 0.7, K=512), trials=2)
