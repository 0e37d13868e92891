import math

import numpy as np
import pytest
import scipy.sparse as sp

from fracopt import TimeGrid, assemble_stiffness, build_omega, weight_integrals
from fracopt.assembly import omega_quadrature
from fracopt.evolution import forcing_loads
from fracopt.problem import ParameterError

from helpers import (assemble_trace_mass, assembled_quadrature, build_test_mesh,
                     check_operator_symmetry,
                     check_spd_rayleigh, check_weight_integrals, control_load_matrix,
                     node_index, node_maps)


def test_weight_integrals_unweighted():
    y0, y1 = 0.3, 0.8
    h = y1 - y0
    ll, lr, rr, st = weight_integrals(y0, y1, 0.0)
    assert math.isclose(ll, h / 3.0, rel_tol=1e-14)
    assert math.isclose(lr, h / 6.0, rel_tol=1e-14)
    assert math.isclose(rr, h / 3.0, rel_tol=1e-14)
    assert math.isclose(st, 1.0 / h, rel_tol=1e-14)


def test_weight_integrals_power_rule():
    # partition of unity collapses the mass entries onto int y^alpha
    for alpha in (-0.5, 0.25, 0.6):
        y1 = 0.7
        ll, lr, rr, _ = weight_integrals(0.0, y1, alpha)
        total = ll + 2.0 * lr + rr
        assert math.isclose(total, y1 ** (1 + alpha) / (1 + alpha), rel_tol=1e-13)


def test_weight_integrals_half_example():
    ll, _, _, _ = weight_integrals(0.0, 1.0, 0.5)
    assert math.isclose(ll, 16.0 / 105.0, rel_tol=1e-13)
    assert round(ll, 6) == 0.152381


def test_weight_integrals_vs_symbolic_oracle():
    check_weight_integrals(np.random.default_rng(11))


def test_weight_integrals_errors():
    with pytest.raises(ParameterError, match="not integrable"):
        weight_integrals(0.0, 1.0, -1.0)
    with pytest.raises(ParameterError):
        weight_integrals(0.5, 0.2, 0.0)


def test_operator_symmetry_and_spd():
    mesh, params = build_test_mesh(n=2, M=5, s=0.3)
    A, _ = check_operator_symmetry(mesh, params)
    check_spd_rayleigh(A, np.random.default_rng(5))


def test_stiffness_scaling_in_ds():
    mesh, params = build_test_mesh(n=1, M=6, s=0.7)
    A = assemble_stiffness(mesh, params)
    halved = params.__class__(s=params.s, gamma=params.gamma, alpha=params.alpha,
                              d_s=params.d_s / 2.0)
    A2 = assemble_stiffness(mesh, halved)
    gap = abs(A2 - 2.0 * A)
    assert gap.max() <= 1e-12 * abs(A).max()


def _reference_unweighted_stiffness(mesh):
    """Independent quadrature assembly of the plain 2D Laplacian on the
    (x, y) rectangle mesh (n = 1 cylinder, alpha = 0)."""
    gp = np.array([0.5 - math.sqrt(15) / 10, 0.5, 0.5 + math.sqrt(15) / 10])
    gw = np.array([5 / 18, 8 / 18, 5 / 18])
    maps = node_maps(mesh)
    A = sp.lil_matrix((maps.n_nodes, maps.n_nodes))
    xs = mesh.omega.vertices[:, 0]
    ys = mesh.axis.nodes
    for cx in range(mesh.omega.n_cells):
        x0, x1 = xs[cx], xs[cx + 1]
        hx = x1 - x0
        for cy in range(mesh.axis.M):
            y0, y1 = ys[cy], ys[cy + 1]
            hy = y1 - y0
            nodes = [node_index(mesh, cx, cy), node_index(mesh, cx, cy + 1),
                     node_index(mesh, cx + 1, cy), node_index(mesh, cx + 1, cy + 1)]
            local = np.zeros((4, 4))
            for a, (xi, wx) in enumerate(zip(gp, gw)):
                for b, (et, wy) in enumerate(zip(gp, gw)):
                    # gradients of the bilinear basis at (xi, et)
                    gx = np.array([-(1 - et), -et, (1 - et), et]) / hx
                    gy = np.array([-(1 - xi), (1 - xi), -xi, xi]) / hy
                    local += wx * wy * hx * hy * (np.outer(gx, gx) + np.outer(gy, gy))
            for i in range(4):
                for j in range(4):
                    A[nodes[i], nodes[j]] += local[i, j]
    free = maps.free_idx
    return A.tocsr()[free][:, free]


def test_weighted_matches_unweighted_reference_at_s_half():
    mesh, params = build_test_mesh(n=1, M=5, s=0.5, zeta=2.0)
    assert params.alpha == 0.0 and params.d_s == 1.0
    A = assemble_stiffness(mesh, params)
    R = _reference_unweighted_stiffness(mesh)
    gap = abs(A - R)
    assert gap.max() <= 1e-12 * abs(A).max()


def test_trace_mass_structure_1d():
    mesh, _ = build_test_mesh(n=1, M=4, s=0.5)
    Mt = assemble_trace_mass(mesh)
    h = mesh.omega.h
    maps = node_maps(mesh)
    tg = maps.trace_global
    block = Mt[tg][:, tg].toarray()
    nv = mesh.omega.vertices.shape[0]
    expected = np.zeros((nv, nv))
    for i in range(nv):
        expected[i, i] = 2 * h / 3 if 0 < i < nv - 1 else h / 3
        if i + 1 < nv:
            expected[i, i + 1] = expected[i + 1, i] = h / 6
    assert np.allclose(block, expected, atol=1e-15)
    # interior row sums give int of the hat function = h
    sums = block.sum(axis=1)
    assert np.allclose(sums[1:-1], h, atol=1e-15)
    # everything off the trace is empty and the grand total is |Omega|
    assert Mt.sum() == pytest.approx(1.0, abs=1e-13)
    off = np.setdiff1d(np.arange(maps.n_nodes), tg)
    assert abs(Mt[off]).sum() == 0.0


def test_trace_mass_row_sums_2d():
    mesh, _ = build_test_mesh(n=2, M=4, s=0.5)
    Mt = assemble_trace_mass(mesh)
    tg = node_maps(mesh).trace_global
    block = Mt[tg][:, tg].toarray()
    sums = block.sum(axis=1)
    interior = mesh.omega.interior_idx
    assert np.allclose(sums[interior], mesh.omega.h ** 2, atol=1e-14)
    assert Mt.sum() == pytest.approx(1.0, abs=1e-13)


def vertex_loads(f, grid, mesh):
    """Loads of the step averages of f at every Omega vertex, steps 0..K-1.

    The interior entries come from forcing_loads; the boundary vertices,
    which carry no load, stay zero.
    """
    out = np.zeros((grid.K, mesh.omega.vertices.shape[0]))
    out[:, mesh.omega.interior_idx] = forcing_loads(f, grid, omega_quadrature(mesh.omega))
    return out


def test_load_zero_and_constant():
    mesh, _ = build_test_mesh(n=2, M=4, s=0.5)
    grid = TimeGrid(T=1.0, K=4)
    zero = vertex_loads(lambda x, t: np.zeros(np.atleast_2d(x).shape[0]), grid, mesh)[0]
    assert np.all(zero == 0.0)
    one = vertex_loads(lambda x, t: np.ones(np.atleast_2d(x).shape[0]), grid, mesh)[2]
    Mt = assemble_trace_mass(mesh)
    rowsums = np.asarray(Mt[node_maps(mesh).trace_global].sum(axis=1)).ravel()
    interior = mesh.omega.interior_idx
    assert np.allclose(one[interior], rowsums[interior], atol=1e-13)
    # the loads at all vertices, boundary included, from the assembled oracle
    oracle = assembled_quadrature(mesh.omega)
    one_all = oracle.scatter @ np.ones(oracle.points.shape[0])
    assert np.allclose(one_all, rowsums, atol=1e-13)
    assert float(one_all.sum()) == pytest.approx(1.0, abs=1e-13)


def test_load_against_adaptive_quadrature():
    from scipy.integrate import dblquad
    mesh, _ = build_test_mesh(n=2, M=16, s=0.5)
    grid = TimeGrid(T=1.0, K=20)
    f = lambda x, t: np.sin(2 * np.pi * x[:, 0]) * np.sin(2 * np.pi * x[:, 1]) * np.exp(t)
    load = vertex_loads(f, grid, mesh)[0]
    tau = grid.tau
    time_factor = (math.exp(tau) - 1.0) / tau
    h = mesh.omega.h
    m = mesh.omega.cells_per_dim
    for (i, j) in [(5, 7), (8, 8), (3, 12)]:
        vertex = i * (m + 1) + j
        xi, yj = i * h, j * h

        def integrand(y, x):
            phx = max(0.0, 1.0 - abs(x - xi) / h)
            phy = max(0.0, 1.0 - abs(y - yj) / h)
            return math.sin(2 * math.pi * x) * math.sin(2 * math.pi * y) * phx * phy

        ref, _ = dblquad(integrand, max(0.0, xi - h), min(1.0, xi + h),
                         lambda x: max(0.0, yj - h), lambda x: min(1.0, yj + h),
                         epsabs=1e-12, epsrel=1e-12)
        assert abs(load[vertex] - ref * time_factor) <= 1e-8


def test_load_propagates_data_errors():
    mesh, _ = build_test_mesh(n=1, M=3, s=0.5)
    grid = TimeGrid(T=1.0, K=2)

    def bad(x, t):
        raise RuntimeError("broken data function")

    with pytest.raises(RuntimeError, match="broken data"):
        vertex_loads(bad, grid, mesh)
    with pytest.raises(ParameterError):
        vertex_loads(lambda x, t: np.zeros(len(np.atleast_2d(x)) + 1), grid, mesh)


def test_control_load_matrix_exact_means():
    om = build_omega(2, 3)
    B = control_load_matrix(om)
    # loads of the constant-one control equal int phi_i over Omega
    ones = np.ones(om.n_cells)
    quad = assembled_quadrature(om)
    ref = quad.scatter @ np.ones(quad.points.shape[0])
    assert np.allclose(B @ ones, ref, atol=1e-14)
    # column sums are the cell volumes
    assert np.allclose(np.asarray(B.sum(axis=0)).ravel(), om.cell_volume, atol=1e-15)


def test_lattice_keeps_one_read_only_gauss_rule():
    om = build_omega(2, 3)
    quad = omega_quadrature(om)
    assert omega_quadrature(om) is quad
    # nothing is kept across lattices: an equal lattice builds its own rule
    other = omega_quadrature(build_omega(2, 3))
    assert other is not quad and np.array_equal(other.points, quad.points)
    for name in ("points", "weights", "cell_of", "weights1", "hats"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(quad, name)[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        quad.points[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        om.vertices[0, 0] = 0.5


def _matches(got, want, rtol=1e-14):
    """Same shape, entrywise within rtol of the largest reference entry (empty allowed)."""
    assert got.shape == want.shape
    gap = np.max(np.abs(got - want), initial=0.0)
    assert gap <= rtol * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("M", [1, 2, 5, 12])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_quadrature_matches_assembled_oracle(n, M):
    om = build_omega(n, M)
    quad, ref = omega_quadrature(om), assembled_quadrature(om)
    assert quad.hats.shape == (3 * M, M - 1)
    # the same (point, weight, cell) triples, in tensor instead of cell order
    order = np.lexsort(quad.points.T[::-1])
    ref_order = np.lexsort(ref.points.T[::-1])
    np.testing.assert_allclose(quad.points[order], ref.points[ref_order], rtol=1e-15, atol=0)
    np.testing.assert_allclose(quad.weights[order], ref.weights[ref_order], rtol=1e-15, atol=0)
    assert np.array_equal(quad.cell_of[order], ref.cell_of[ref_order])
    # ref_of[q]: the oracle's number of the point numbered q in tensor order
    ref_of = np.empty_like(order)
    ref_of[order] = ref_order

    rng = np.random.default_rng(10 * n + M)
    interior = om.interior_idx
    vals = rng.standard_normal((3, quad.points.shape[0]))
    ref_vals = np.empty_like(vals)
    ref_vals[:, ref_of] = vals
    _matches(quad.loads(vals), (ref.scatter[interior] @ ref_vals.T).T)
    coeffs = rng.standard_normal((3, interior.size))
    _matches(quad.values(coeffs), (ref.basis[:, interior] @ coeffs.T).T[:, ref_of])
    cell_sum = sp.csr_matrix((ref.weights, (np.arange(ref.weights.size), ref.cell_of)),
                             shape=(ref.weights.size, om.n_cells))
    _matches(quad.cell_integrals(vals), ref_vals @ cell_sum)
