"""Assembly of the weighted cylinder operators and load vectors.

The bilinear form is

    a_Y(w, phi) = (1/d_s) int_{C_Y} y^alpha (grad w . grad phi + c w phi)

on the tensor-product mesh, so every operator is a Kronecker combination of
one-dimensional factors. The y^alpha factors are integrated in closed form
per interval (the weight times polynomials of degree <= 2), which stays
exact down to the y = 0 interval where the weight is singular but
integrable. The x'-direction uses a 3-point tensor Gauss rule (degree-5
exact) for data terms; mass and stiffness factors are assembled exactly.
Space-time data are evaluated once per block of time steps
(:func:`step_blocks`, :func:`time_average`), always at the one
``OmegaQuadrature.points`` array of the mesh, so a data callable may keep
its spatial factor between calls as long as it checks that array.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import CylinderMesh, GradedAxis, OmegaMesh
from .problem import FractionalParams, ParameterError, TimeGrid


class NonIntegrableWeightError(ParameterError):
    """The weight exponent makes y^alpha non-integrable at y = 0."""


def weight_integrals(y0: float, y1: float, alpha: float):
    """Closed-form weighted integrals of the two local hat functions.

    Returns (mass_ll, mass_lr, mass_rr, stiff) with

        mass_ij = int_{y0}^{y1} y^alpha phi_i phi_j dy,
        stiff   = int_{y0}^{y1} y^alpha phi_i' phi_i' dy  (off-diagonal = -stiff),

    where phi_l = (y1 - y)/h and phi_r = (y - y0)/h. Valid for y0 = 0.
    """
    if alpha <= -1.0:
        raise NonIntegrableWeightError(f"y^{alpha} is not integrable at 0")
    if alpha >= 1.0:
        raise ParameterError(f"weight exponent must lie in (-1, 1), got {alpha}")
    if not 0.0 <= y0 < y1:
        raise ParameterError(f"invalid interval [{y0}, {y1}]")
    h = y1 - y0
    # moments int y^(alpha+m) dy, m = 0, 1, 2
    i0 = (y1 ** (alpha + 1.0) - y0 ** (alpha + 1.0)) / (alpha + 1.0)
    i1 = (y1 ** (alpha + 2.0) - y0 ** (alpha + 2.0)) / (alpha + 2.0)
    i2 = (y1 ** (alpha + 3.0) - y0 ** (alpha + 3.0)) / (alpha + 3.0)
    h2 = h * h
    mass_ll = (y1 * y1 * i0 - 2.0 * y1 * i1 + i2) / h2
    mass_lr = (-i2 + (y0 + y1) * i1 - y0 * y1 * i0) / h2
    mass_rr = (i2 - 2.0 * y0 * i1 + y0 * y0 * i0) / h2
    stiff = i0 / h2
    return mass_ll, mass_lr, mass_rr, stiff


def axis_matrices(axis: GradedAxis, alpha: float):
    """Weighted mass and stiffness factors on the graded axis, size (M+1)^2."""
    M = axis.M
    rows_d = np.arange(M + 1)
    mass = sp.lil_matrix((M + 1, M + 1))
    stiff = sp.lil_matrix((M + 1, M + 1))
    for m in range(M):
        y0, y1 = axis.nodes[m], axis.nodes[m + 1]
        a, b, c, s = weight_integrals(y0, y1, alpha)
        mass[m, m] += a
        mass[m, m + 1] += b
        mass[m + 1, m] += b
        mass[m + 1, m + 1] += c
        stiff[m, m] += s
        stiff[m, m + 1] -= s
        stiff[m + 1, m] -= s
        stiff[m + 1, m + 1] += s
    return mass.tocsr(), stiff.tocsr()


def _factor_matrices_1d(m: int):
    """Unweighted P1 mass/stiffness on the uniform partition of (0,1)."""
    h = 1.0 / m
    main_m = np.full(m + 1, 2.0 * h / 3.0)
    main_m[[0, -1]] = h / 3.0
    off_m = np.full(m, h / 6.0)
    mass = sp.diags([off_m, main_m, off_m], [-1, 0, 1], format="csr")
    main_s = np.full(m + 1, 2.0 / h)
    main_s[[0, -1]] = 1.0 / h
    off_s = np.full(m, -1.0 / h)
    stiff = sp.diags([off_s, main_s, off_s], [-1, 0, 1], format="csr")
    return mass, stiff


def omega_matrices(omega: OmegaMesh):
    """Mass and stiffness on the Omega lattice (all vertices, Q1 elements)."""
    m1, s1 = _factor_matrices_1d(omega.cells_per_dim)
    if omega.n == 1:
        return m1, s1
    mass = sp.kron(m1, m1, format="csr")
    stiff = (sp.kron(s1, m1) + sp.kron(m1, s1)).tocsr()
    return mass, stiff


def assemble_stiffness(mesh: CylinderMesh, params: FractionalParams,
                       c: float = 0.0) -> sp.csr_matrix:
    """Weighted stiffness of a_Y on free nodes (Dirichlet rows/cols removed).

    Tensor form: (1/d_s) [ S_Omega x M_y + M_Omega x (S_y + c M_y) ] where
    the axis factors carry the y^alpha weight in closed form.
    """
    if c < 0.0:
        raise ParameterError(f"reaction coefficient must be >= 0, got {c}")
    m_w, s_w = omega_matrices(mesh.omega)
    m_y, s_y = axis_matrices(mesh.axis, params.alpha)
    op = sp.kron(s_w, m_y) + sp.kron(m_w, s_y)
    if c != 0.0:
        op = op + c * sp.kron(m_w, m_y)
    op = (op / params.d_s).tocsr()
    free = mesh.free_idx
    return op[free][:, free].tocsr()


def assemble_trace_mass(mesh: CylinderMesh) -> sp.csr_matrix:
    """Omega mass matrix embedded at y = 0 in cylinder indexing.

    Rows and columns away from the trace are zero; the sum of all entries
    equals |Omega| = 1.
    """
    m_w, _ = omega_matrices(mesh.omega)
    Mp1 = mesh.axis.M + 1
    pick = sp.csr_matrix(([1.0], ([0], [0])), shape=(Mp1, Mp1))
    return sp.kron(m_w, pick, format="csr")


@dataclass(frozen=True)
class OmegaQuadrature:
    """3-point tensor Gauss data on every Omega cell (degree-5 exact).

    ``basis`` holds the vertex basis values at the quadrature points, so
    loads are ``basis.T @ (weights * f(points))`` and discrete trace values
    at the points are ``basis @ coefficients``.
    """

    points: np.ndarray      # (nq, n)
    weights: np.ndarray     # (nq,)
    cell_of: np.ndarray     # (nq,) cell index of each point
    basis: sp.csr_matrix    # (nq, n_vertices)

    @functools.cached_property
    def scatter(self) -> sp.csr_matrix:
        """Weighted transposed basis (n_vertices, nq), built on first use."""
        return self.basis.T.multiply(self.weights).tocsr()


_GAUSS3_P = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def omega_quadrature(omega: OmegaMesh) -> OmegaQuadrature:
    m = omega.cells_per_dim
    h = omega.h
    gp, gw = _GAUSS3_P, _GAUSS3_W
    if omega.n == 1:
        cells = np.arange(m)
        pts = (cells[:, None] + gp[None, :]).ravel() * h
        w = np.tile(gw * h, m)
        cell_of = np.repeat(cells, gp.size)
        rows = np.arange(pts.size)
        xi = np.tile(gp, m)
        cols = np.stack([omega.cells[cell_of, 0], omega.cells[cell_of, 1]], axis=1)
        vals = np.stack([1.0 - xi, xi], axis=1)
        basis = sp.csr_matrix((vals.ravel(),
                               (np.repeat(rows, 2), cols.ravel())),
                              shape=(pts.size, omega.n_vertices))
        return OmegaQuadrature(points=pts[:, None], weights=w,
                               cell_of=cell_of, basis=basis)
    # n = 2: tensor 3x3 rule per cell
    xi, eta = np.meshgrid(gp, gp, indexing="ij")
    ww = np.outer(gw, gw).ravel() * h * h
    xi, eta = xi.ravel(), eta.ravel()
    ncells = omega.n_cells
    origins = omega.vertices[omega.cells[:, 0]]                  # (ncells, 2)
    pts = origins[:, None, :] + h * np.stack([xi, eta], axis=1)[None, :, :]
    pts = pts.reshape(-1, 2)
    w = np.tile(ww, ncells)
    cell_of = np.repeat(np.arange(ncells), xi.size)
    # bilinear basis in cell order [v00, v01, v10, v11]
    ref = np.stack([(1 - xi) * (1 - eta), (1 - xi) * eta,
                    xi * (1 - eta), xi * eta], axis=1)          # (9, 4)
    rows = np.repeat(np.arange(pts.shape[0]), 4)
    cols = omega.cells[cell_of].ravel()
    vals = np.tile(ref, (ncells, 1)).ravel()
    basis = sp.csr_matrix((vals, (rows, cols)),
                          shape=(pts.shape[0], omega.n_vertices))
    return OmegaQuadrature(points=pts, weights=w, cell_of=cell_of, basis=basis)


_GAUSS2_P = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])

# One data evaluation covers a block of steps holding about this many values
# (Gauss times x points), so its temporaries stay near 1 MB.
_BLOCK_VALUES = 2 ** 16


def step_blocks(grid: TimeGrid, n_points: int):
    """Blocks of consecutive steps for batched data evaluation.

    Yields (steps, t0, t1): a slice of step indices k and the arrays of
    their ends t_k = k tau and t_{k+1} = (k+1) tau. A block holds at most
    2**16 / (2 n_points) steps, and at least one.
    """
    size = max(1, _BLOCK_VALUES // (2 * n_points))
    for start in range(0, grid.K, size):
        stop = min(start + size, grid.K)
        k = np.arange(start, stop)
        yield slice(start, stop), k * grid.tau, (k + 1) * grid.tau


def evaluate_data(f, points: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
    """f(points, t) for a (q, 1) column of times, as a checked (q, n_points) array.

    Raises ParameterError naming ``what`` when the result does not
    broadcast to (q, n_points) or holds a non-finite value; errors raised
    by f itself propagate unchanged.
    """
    shape = (t.shape[0], points.shape[0])
    vals = np.asarray(f(points, t), dtype=float)
    try:
        vals = np.broadcast_to(vals, shape)
    except ValueError:
        raise ParameterError(f"{what} returned shape {vals.shape}, which does not "
                             f"broadcast to (times, points) = {shape}") from None
    if not np.isfinite(vals).all():
        raise ParameterError(f"{what} returned non-finite values")
    return vals


def time_average(f, points: np.ndarray, t0, t1, what: str = "data") -> np.ndarray:
    """Averages of f(points, .) over the steps [t0, t1] by the 2-point Gauss rule.

    ``t0`` and ``t1`` are arrays of shape (m,) or scalars. f is called once,
    with the (2m, 1) column of all Gauss times and the same ``points`` array
    on every call; the two Gauss rows are averaged into one fresh array of
    shape (m, n_points), or (n_points,) for scalar ends.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    span = t1 - t0
    times = np.concatenate([np.atleast_1d(t0 + span * _GAUSS2_P[0]),
                            np.atleast_1d(t0 + span * _GAUSS2_P[1])])
    vals = evaluate_data(f, points, times[:, None], what)
    m = times.size // 2
    avg = np.add(vals[:m], vals[m:])
    avg *= 0.5
    return avg if t0.ndim else avg[0]


def control_load_matrix(omega: OmegaMesh) -> sp.csr_matrix:
    """Exact integrals int_cell phi_i: maps cell values to vertex loads.

    Shape (n_vertices, n_cells); each cell contributes (h/2)^n to each of
    its 2^n vertices. The transpose divided by the cell volume is the
    piecewise-constant projection of a trace function.
    """
    contrib = (omega.h / 2.0) ** omega.n
    ncells, nloc = omega.cells.shape
    rows = omega.cells.ravel()
    cols = np.repeat(np.arange(ncells), nloc)
    vals = np.full(rows.size, contrib)
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(omega.n_vertices, ncells))
