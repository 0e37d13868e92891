import math

import numpy as np
import pytest

from fracopt import (FractionalParams, assemble_stiffness, build_cylinder, build_omega,
                     default_zeta, graded_axis)
from fracopt.assembly import free_nodes
from fracopt.problem import ParameterError

from helpers import node_index, node_maps, omega_cells


def test_graded_axis_uniform():
    ax = graded_axis(4, 1.0, 1.0)
    assert np.allclose(ax.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)


def test_graded_axis_cubic():
    ax = graded_axis(2, 1.0, 3.0)
    assert np.allclose(ax.nodes, [0.0, 0.125, 1.0], atol=1e-16)


@pytest.mark.parametrize("M,zeta,Y", [(3, 2.0, 1.0), (17, 3.15, 2.5), (64, 7.875, 1.3)])
def test_graded_axis_endpoints_and_formula(M, zeta, Y):
    ax = graded_axis(M, Y, zeta)
    assert ax.nodes[0] == 0.0
    assert ax.nodes[-1] == Y
    m = np.arange(M + 1)
    assert np.allclose(ax.nodes, (m / M) ** zeta * Y, rtol=1e-14)
    assert np.all(np.diff(ax.nodes) > 0.0)
    # a family holds, row by row, the bits of each height's own axis
    family = graded_axis(M, (1.0, Y, 2.0 * Y), zeta)
    assert family.Y == (1.0, Y, 2.0 * Y) and family.nodes.shape == (3, M + 1)
    for height, row in zip(family.Y, family.nodes):
        assert np.array_equal(row, graded_axis(M, height, zeta).nodes)


def test_graded_axis_interval_sum():
    ax = graded_axis(40, 2.75, 3.6)
    total = float(np.sum(np.diff(ax.nodes)))
    assert abs(total - ax.Y) <= 1e-12 * ax.Y


def test_graded_axis_weak_shape_regularity():
    for zeta in (1.0, 2.5, 7.875):
        ax = graded_axis(32, 1.0, zeta)
        h = np.diff(ax.nodes)
        ratios = h[1:] / h[:-1]
        sigma = 2.0 ** zeta
        assert np.all(ratios <= sigma + 1e-12)
        assert np.all(1.0 / ratios <= sigma + 1e-12)


def test_graded_axis_nesting_under_doubling():
    for M in (4, 9):
        a1 = graded_axis(M, 1.7, 3.15)
        a2 = graded_axis(2 * M, 1.7, 3.15)
        assert np.allclose(a1.nodes, a2.nodes[::2], rtol=0, atol=1e-15)


def test_graded_axis_errors():
    with pytest.raises(ParameterError):
        graded_axis(0, 1.0, 2.0)
    # the cylinder's height is the axis's, so its rule Y >= 1 is checked here
    for Y in (0.999, 0.5, 0.0, -1.0):
        with pytest.raises(ParameterError, match="Y >= 1"):
            graded_axis(8, Y, 2.0)
    # a family names its height below 1
    for heights, low in [((1.0, 0.5, 2.0), "0.5"), ([2.0, 3.0, 0.999], "0.999"),
                         ((1.5, -1.0), "-1.0"), ((), "nan")]:
        with pytest.raises(ParameterError, match=f"Y >= 1, got {low}$"):
            graded_axis(8, heights, 2.0)
    # (1/M)^(2 zeta) below the smallest normal double, zeta log2(M) > 511
    with pytest.raises(ParameterError, match="underflows at M = 16, zeta = 128.5"):
        graded_axis(16, 1.0, 128.5)
    graded_axis(16, 1.0, 127.75)
    graded_axis(1, 1.0, 1e6)      # one interval: nothing to grade


def test_default_zeta_values():
    assert math.isclose(default_zeta(0.0), 3.15, rel_tol=1e-14)
    assert math.isclose(default_zeta(-0.6), 1.96875, rel_tol=1e-14)
    assert math.isclose(default_zeta(0.5), 6.3, rel_tol=1e-14)


def test_default_zeta_strictly_admissible():
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(-0.99, 0.99, size=50):
        assert default_zeta(float(alpha)) > 3.0 / (1.0 - alpha)


def test_omega_mesh_1d():
    om = build_omega(1, 4)
    assert om.vertices.shape[0] == 5
    assert om.n_cells == 4
    assert om.h == 0.25
    assert list(om.boundary_vertex_mask) == [True, False, False, False, True]


def test_omega_mesh_2d_interior_cell_count():
    om = build_omega(2, 4)
    assert om.vertices.shape[0] == 25
    assert om.n_cells == 16
    # every interior vertex belongs to 2^n cells
    counts = np.bincount(omega_cells(om).ravel(), minlength=om.vertices.shape[0])
    interior = om.interior_idx
    assert np.all(counts[interior] == 4)


def test_omega_mesh_3d_counts():
    om = build_omega(3, 4)
    assert om.vertices.shape[0] == 125
    assert om.n_cells == 64
    assert om.interior_idx.size == 27
    # every interior vertex belongs to 2^n cells
    cells = omega_cells(om)
    assert cells.shape == (om.n_cells, 8)
    counts = np.bincount(cells.ravel(), minlength=om.vertices.shape[0])
    assert np.all(counts[om.interior_idx] == 8)
    # corners in itertools.product((0, 1), repeat=3) order: (i, j, k) -> 25 i + 5 j + k
    assert cells[0].tolist() == [0, 1, 5, 6, 25, 26, 30, 31]
    span = om.vertices[cells[:, -1]] - om.vertices[cells[:, 0]]
    assert np.allclose(span, om.h, rtol=0, atol=1e-15)
    mesh = build_cylinder(om, graded_axis(4, 1.0, 3.15))
    assert mesh.n_free == 3 ** 3 * 4


def test_build_cylinder_tiny_enumeration():
    # n = 1 with 2 cells, M = 2: 9 nodes, 7 Dirichlet, free = the two
    # nodes with y < Y over the interior vertex
    mesh = build_cylinder(build_omega(1, 2), graded_axis(2, 1.0, 2.0))
    maps = node_maps(mesh)
    assert maps.n_nodes == 9
    assert int(maps.dirichlet_mask.sum()) == 7
    assert mesh.n_free == 2
    expected_free = [node_index(mesh, 1, 0), node_index(mesh, 1, 1)]
    assert sorted(free_nodes(mesh).tolist()) == sorted(expected_free)


def test_trace_nodes_one_per_vertex():
    mesh = build_cylinder(build_omega(2, 3), graded_axis(4, 1.0, 3.15))
    maps = node_maps(mesh)
    assert maps.trace_global.size == mesh.omega.vertices.shape[0]
    # trace node is Dirichlet exactly when its vertex is on the boundary
    tr_dirichlet = maps.dirichlet_mask[maps.trace_global]
    assert np.array_equal(tr_dirichlet, mesh.omega.boundary_vertex_mask)


def test_free_count_scaling():
    for M in (4, 8, 16):
        mesh = build_cylinder(build_omega(2, M), graded_axis(M, 1.0, 3.15))
        assert mesh.n_free == (M - 1) ** 2 * M
        ratio = mesh.n_free / M ** 3
        assert ratio == pytest.approx((1 - 1 / M) ** 2)


def test_node_count_product():
    mesh = build_cylinder(build_omega(2, 5), graded_axis(7, 1.2, 2.0))
    assert node_maps(mesh).n_nodes == 36 * 8


@pytest.mark.parametrize("n,Ms", [(1, (1, 2, 5, 16)), (2, (1, 2, 4, 7)), (3, (1, 2, 3, 5))])
def test_free_nodes_match_dirichlet_geometry_and_stiffness_size(n, Ms):
    params = FractionalParams(0.4, 1.0)
    for M in Ms:
        mesh = build_cylinder(build_omega(n, M), graded_axis(M, 1.5, 2.0))
        # the free nodes are exactly the non-Dirichlet ones, in ascending order
        assert np.array_equal(free_nodes(mesh), node_maps(mesh).free_idx)
        assert mesh.n_free == assemble_stiffness(mesh, params).shape[0]
