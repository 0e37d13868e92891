"""Modal fast-diagonalization step solve against the assembled sparse path."""
import functools
import tracemalloc

import numpy as np
import pytest

from fracopt import CylinderSystem, ParameterError, TimeGrid
from fracopt.evolution import (ModalMarch, adjoint_march, impulse_responses, point_factors,
                               state_march)
from fracopt.problem import FractionalParams

from helpers import (build_test_mesh, cell_integrals, control_loads, extension_field, free_field,
                     M_int, nodal_adjoint_march, nodal_state_march, node_maps,
                     recurrence_impulse_responses, rel_gap, sparse_adjoint_march,
                     sparse_initial_field, sparse_state_march, sparse_trace_schur, to_modal)

TOL = 1e-11


def make_system(n, gamma, c, K=6, M=None):
    mesh, params = build_test_mesh(n=n, M=M or {1: 8, 2: 5, 3: 4}[n], s=0.35)
    params = FractionalParams(params.s, gamma, reaction=c)
    return CylinderSystem(mesh, params, TimeGrid(T=1.0, K=K))


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
    modal = to_modal(system, to_modal(system, schur).T)
    assert rel_gap(modal, np.diag(system.delta)) <= TOL
    mass = to_modal(system, to_modal(system, M_int(system).toarray()).T)
    assert rel_gap(mass, np.eye(system.n_interior)) <= TOL

    # the profiles psi of the axis recurrence (helpers) extend the trace as the sparse LU does
    ref_v0 = sparse_initial_field(system, u0)
    assert rel_gap(extension_field(system, u0), ref_v0) <= TOL
    trace0 = system.initial_field(u0)
    assert np.array_equal(trace0, u0(system.mesh.omega.vertices[system.interior]))
    assert rel_gap(trace0, ref_v0[node_maps(system.mesh).trace_free_pos]) <= TOL

    loads = rng.standard_normal(shape)
    traj = nodal_state_march(system, trace0, loads)
    ref_traces, ref_fields = sparse_state_march(system, trace0, loads)
    assert rel_gap(traj.traces, ref_traces) <= TOL
    fields = free_field(system, system.nodal_to_modal(traj.traces[1:]))
    assert rel_gap(fields, ref_fields[1:]) <= TOL

    loads = rng.standard_normal(shape)
    adj = nodal_adjoint_march(system, loads)
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
    b = CylinderSystem(mesh, FractionalParams(0.7, 0.5, reaction=1.0), TimeGrid(T=0.5, K=6))
    assert b.quad is a.quad and b.factors is a.factors
    points = mesh.omega.kept(point_factors)
    assert mesh.omega.kept(point_factors) is points
    for factors in (a.factors, points):
        for name in factors._fields:
            with pytest.raises(ValueError, match="read-only"):
                getattr(factors, name)[...] = 1.0
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
        # delta^gamma x^{k+1} = c_new x^{k+1} - known: the operator at x^{k+1} = 0 gives -known
        known = -march.weights(np.array(hist + [np.zeros(rates.size)]))[-1]
        hist.append((known + loads[k]) / (march.weights.scale + rates))
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
    # one spectrum per distinct rate, read by each mode through its index
    assert march.h_hat.shape[0] == np.unique(march.rate).size
    assert rel_gap(march.h_hat[march.rate_index], np.fft.rfft(ref, n=2 * K)) <= 1e-13


def convolution_reference(march, g, x0):
    """The L1 solve as direct causal convolutions with the recurrence's impulse responses."""
    h = recurrence_impulse_responses(march.rate, march.c_new, march.weights.diffs, march.K)
    loads = np.outer(march.c_new * x0, march.weights.a)
    if g is not None:
        loads += g.T
    return np.array([np.convolve(hi, li)[:march.K] for hi, li in zip(h, loads)]).T


# 2^14 // K modes per block: a few modes, one block, one block and one more mode
@pytest.mark.parametrize("K", [16, 1024, 4096])
@pytest.mark.parametrize("modes", ["few", "block", "block+1"])
def test_l1_blocks_match_recurrence(modes, K):
    block = 2 ** 14 // K
    n = {"few": 3, "block": block, "block+1": block + 1}[modes]
    rng = np.random.default_rng(K + n)
    # rates of a test system, repeated so that modes share spectra
    rates = rng.choice(system_rates(2).ravel(), size=n)
    march = ModalMarch(rates, 0.5, K, 1.0 / K)
    assert march.block == min(n, block)
    assert march.h_hat.shape[0] == np.unique(march.rate).size
    x0 = rng.standard_normal(n)
    loads = rng.standard_normal((K, n))
    assert rel_gap(march.solve(loads, x0), convolution_reference(march, loads, x0)) <= 1e-13
    assert rel_gap(march.solve(None, x0), convolution_reference(march, None, x0)) <= 1e-13
    assert np.array_equal(march.solve(None), np.zeros((K, n)))


@pytest.mark.parametrize("K", [16, 1024])
def test_height_family_march_matches_recurrence(K):
    """A family's zero-load march, in blocks that cross heights, against the recurrence."""
    mesh, params = build_test_mesh(n=2, M=6, s=0.35, Y=(1.5, 2.0, 3.0))
    params = FractionalParams(params.s, 0.5, reaction=0.7)
    family = CylinderSystem(mesh, params, TimeGrid(T=1.0, K=K))
    w0_hat = family.nodal_to_modal(family.initial_field(u0))
    got = state_march(family, w0_hat, None)
    x0 = np.broadcast_to(w0_hat, family.delta.shape).ravel()
    ref = convolution_reference(family.march, None, x0).reshape(got.shape)
    assert rel_gap(got, ref) <= 1e-13


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_transposed_solve_is_compact_and_bit_equal_to_the_reversed_solve(gamma):
    K, n = 300, 40
    rng = np.random.default_rng(11)
    march = ModalMarch(rng.uniform(0.0, 50.0, n), gamma, K, 1.0 / K)
    loads = rng.standard_normal((K, n))
    got = march.solve_transposed(loads)
    assert got.flags.c_contiguous and got.flags.owndata
    assert np.array_equal(got, march.solve(loads[::-1].copy())[::-1])
    system = make_system(2, gamma, 0.7, K=K)
    p_hat = adjoint_march(system, rng.standard_normal((K, system.n_interior)))
    assert p_hat.flags.c_contiguous


def test_l1_solve_allocates_its_result_and_one_block():
    """A solve allocates its result and, per block, nothing of the block's size.

    Its blocks run in the march's own work buffers, the initial value's load
    included: an outer product or an add from a strided view would take a
    temporary of a block's loads (16 modes of K = 1024 here, 128 KiB).
    """
    K, n = 1024, 200
    rng = np.random.default_rng(2)
    march = ModalMarch(rng.uniform(0.0, 50.0, n), 0.5, K, 1.0 / K)
    loads, x0 = rng.standard_normal((K, n)), rng.standard_normal(n)
    for solve in (lambda: march.solve(loads, x0), lambda: march.solve(None, x0),
                  lambda: march.solve(loads), lambda: march.solve_transposed(loads)):
        solve()     # FFT plans and caches, made once per process
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            x = solve()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + 2 ** 14


@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("bad", ["nan", "inf", "minus_c_new"])
def test_modal_march_rejects_bad_rates(bad, gamma):
    K, tau = 8, 0.125
    c_new = ModalMarch(np.zeros(1), gamma, K, tau).c_new
    value = {"nan": np.nan, "inf": np.inf, "minus_c_new": -c_new}[bad]
    with pytest.raises(ParameterError, match="rates"):
        ModalMarch(np.array([0.0, 1.0, value]), gamma, K, tau)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_march_holds_its_weights_and_reads_c_new_from_them(gamma):
    tau = 0.3 / 7
    march = ModalMarch(np.array([0.0, 2.0]), gamma, 7, tau)
    assert march.c_new == march.weights.scale
    if gamma == 1.0:
        assert march.c_new == 1.0 / tau and march.weights.a.tolist() == [1.0] + [0.0] * 6


@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("K", [1, 64, 2 ** 15])
def test_march_of_no_modes_returns_an_empty_solution(gamma, K):
    # a lattice without interior nodes (M = 1) has no modes to march
    march = ModalMarch(np.zeros(0), gamma, K, 1.0 / K)
    for x in (march.solve(None, np.zeros(0)), march.solve(np.zeros((K, 0))),
              march.solve_transposed(np.zeros((K, 0)))):
        assert x.shape == (K, 0)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("shape", [(16, 3), (4, 3), (8, 2), (8, 4), (8,)])
def test_modal_march_rejects_loads_of_another_shape(shape, gamma):
    # unchecked, backward Euler would leave the rows past K unset and L1 crop them
    march = ModalMarch(np.array([0.0, 1.0, 5.0]), gamma, 8, 0.125)
    with pytest.raises(ParameterError, match="loads must have shape"):
        march.solve(np.ones(shape))
    with pytest.raises(ParameterError, match="loads must have shape"):
        march.solve_transposed(np.ones(shape))


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_zero_loads_stated_as_none_match_zeros_bit_for_bit(gamma):
    system = make_system(2, gamma, 0.7, K=40)
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(system.n_interior)
    zeros = np.zeros((system.grid.K, system.n_interior))
    assert np.array_equal(system.march.solve(None, x0), system.march.solve(zeros, x0))
    assert np.array_equal(system.march.solve(None), zeros)
    w0_hat = system.nodal_to_modal(system.initial_field(u0))
    assert np.array_equal(state_march(system, w0_hat, None), state_march(system, w0_hat, zeros))


def check_duality(system, trials):
    grid = system.grid
    rng = np.random.default_rng(41)
    for _ in range(trials):
        zeta = rng.standard_normal((grid.K, system.mesh.omega.n_cells))
        eta = rng.standard_normal((grid.K, system.mesh.omega.n_cells))
        V = nodal_state_march(system, np.zeros(system.n_interior), control_loads(system, zeta))
        P = nodal_adjoint_march(system, control_loads(system, eta))
        lhs = grid.tau * float(np.sum(control_loads(system, eta) * V.traces[1:]))
        rhs = grid.tau * float(np.sum(zeta * cell_integrals(system, P.traces[:-1])))
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
