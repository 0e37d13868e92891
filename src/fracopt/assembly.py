"""Assembly of the weighted cylinder operators and load vectors.

The bilinear form is

    a_Y(w, phi) = (1/d_s) int_{C_Y} y^alpha (grad w . grad phi + c w phi)

on the tensor-product mesh, so every operator is a Kronecker combination of
one-dimensional factors. The y^alpha factors are integrated in closed form
per interval (the weight times polynomials of degree <= 2), which stays
exact down to the y = 0 interval where the weight is singular but
integrable. Data terms use the 3-point Gauss rule (degree-5 exact) on
Omega, the tensor power of the 1D rule applied one axis at a time
(:func:`kron_apply`); mass and stiffness factors are assembled exactly.
The solve path needs only numpy. The assembled sparse operators
(:func:`axis_matrices`, :func:`omega_matrices`, :func:`assemble_stiffness`)
serve the test oracles and ``CylinderSystem.A_free``; each imports
``scipy.sparse`` when called, and the cylinder's free nodes are those of
:func:`free_nodes`.
The lattice keeps its rule (:func:`omega_quadrature`), so every system on
one lattice evaluates its space-time data at the one read-only
``OmegaQuadrature.points`` array. A plain data callable is called once per
block of time steps (:func:`step_blocks`, :func:`time_average`). A
separable datum (:class:`~fracopt.problem.Separable`) has each spatial
factor evaluated once per use (:func:`at_points`, :func:`factor_values`)
and its time profiles once per step block or once per grid
(:func:`step_means`). Only this module and :mod:`fracopt.evolution` read its terms.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .mesh import CylinderMesh, GradedAxis, OmegaMesh
from .problem import FractionalParams, ParameterError, TimeGrid, separable


def weight_integrals(y0, y1, alpha: float):
    """Closed-form weighted integrals of the two local hat functions.

    Returns (mass_ll, mass_lr, mass_rr, stiff) with

        mass_ij = int_{y0}^{y1} y^alpha phi_i phi_j dy,
        stiff   = int_{y0}^{y1} y^alpha phi_i' phi_i' dy  (off-diagonal = -stiff),

    where phi_l = (y1 - y)/h and phi_r = (y - y0)/h. Valid for y0 = 0. The
    ends may be arrays of intervals; each result then has their shape.
    """
    if alpha <= -1.0:
        raise ParameterError(f"y^{alpha} is not integrable at 0")
    if alpha >= 1.0:
        raise ParameterError(f"weight exponent must lie in (-1, 1), got {alpha}")
    if not np.all((0.0 <= y0) & (y0 < y1)):
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
    import scipy.sparse as sp
    mll, mlr, mrr, s = weight_integrals(axis.nodes[:-1], axis.nodes[1:], alpha)
    # node j collects the left end of interval j and the right end of interval j-1
    mass = sp.diags([mlr, np.r_[mll, 0.0] + np.r_[0.0, mrr], mlr], [-1, 0, 1], format="csr")
    stiff = sp.diags([-s, np.r_[s, 0.0] + np.r_[0.0, s], -s], [-1, 0, 1], format="csr")
    return mass, stiff


def _factor_matrices_1d(m: int):
    """Unweighted P1 mass/stiffness on the uniform partition of (0,1)."""
    import scipy.sparse as sp
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
    import scipy.sparse as sp
    m1, s1 = _factor_matrices_1d(omega.cells_per_dim)
    mass, stiff = m1, s1
    for _ in range(omega.n - 1):
        mass, stiff = (sp.kron(mass, m1, format="csr"),
                       (sp.kron(stiff, m1) + sp.kron(mass, s1)).tocsr())
    return mass, stiff


def free_nodes(mesh: CylinderMesh) -> np.ndarray:
    """Free nodes of the numbering vertex*(M+1) + axis node: axis nodes < M of interior vertices."""
    Mp1 = mesh.axis.M + 1
    return (mesh.omega.interior_idx[:, None] * Mp1 + np.arange(mesh.axis.M)).ravel()


def assemble_stiffness(mesh: CylinderMesh, params: FractionalParams):
    """Weighted CSR stiffness of a_Y on free nodes (Dirichlet rows/cols removed).

    Tensor form: (1/d_s) [ S_Omega x M_y + M_Omega x (S_y + c M_y) ] with
    c = ``params.reaction``, where the axis factors carry the y^alpha weight
    in closed form.
    """
    import scipy.sparse as sp
    m_w, s_w = omega_matrices(mesh.omega)
    m_y, s_y = axis_matrices(mesh.axis, params.alpha)
    op = sp.kron(s_w, m_y) + sp.kron(m_w, s_y)
    if params.reaction != 0.0:
        op = op + params.reaction * sp.kron(m_w, m_y)
    op = (op / params.d_s).tocsr()
    free = free_nodes(mesh)
    return op[free][:, free].tocsr()


def kron_apply(f: np.ndarray, x: np.ndarray, n: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """The n-fold Kronecker power of the 1D factor f along the last axis of x.

    That axis holds a row-major lattice of n axes of side f.shape[1]; f is
    applied along each in turn, the last first (sizes explicit: f is empty at M = 1).
    When ``out`` is given, a C-contiguous array of the result's shape (else
    ParameterError), the last product is written into it and a view of it returned.
    """
    rows, cols = f.shape
    lead = x.shape[:-1]
    if out is not None and (out.shape != lead + (rows ** n,) or not out.flags.c_contiguous):
        raise ParameterError(f"out must be a C-contiguous array of shape "
                             f"{lead + (rows ** n,)}, got {out.shape}")
    y = x.reshape(math.prod(lead) * cols ** (n - 1), cols)
    last = None if out is None or n > 1 else out.reshape(y.shape[0], rows)
    y = np.matmul(y, f.T, out=last)
    for j in range(n - 2, -1, -1):
        shape = lead + (cols ** j, cols, rows ** (n - 1 - j))
        last = None if out is None or j > 0 else out.reshape(lead + (1, rows, rows ** (n - 1)))
        y = np.matmul(f, y.reshape(shape), out=last)
    return y.reshape(lead + (rows ** n,))


class OmegaQuadrature(NamedTuple):
    """3-point Gauss rule on every Omega cell (degree-5 exact): a tensor power of the 1D rule.

    The 1D rule on the m cells of (0, 1) has 3m points, cell by cell, with
    weights ``weights1``; ``hats`` (3m, m-1) holds the interior hat
    functions at those points, and ``means1`` (m, 3m) takes point values to
    cell means (each cell's weights over h). The Omega rule lists its (3m)^n
    points in row-major tensor order, the last axis fastest, as the lattice
    numbers its vertices and cells, and each map of point values is the
    Kronecker power of a 1D factor, applied per axis (:func:`kron_apply`).
    """

    n: int
    points: np.ndarray      # (nq, n)
    weights: np.ndarray     # (nq,)
    cell_of: np.ndarray     # (nq,) cell index of each point
    weights1: np.ndarray    # (3m,)
    hats: np.ndarray        # (3m, m-1)
    means1: np.ndarray      # (m, 3m)


_GAUSS3_P = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def omega_quadrature(omega: OmegaMesh) -> OmegaQuadrature:
    """The Gauss rule of ``omega``: built on the first call, then the same object for that lattice.

    Its arrays are read-only (:meth:`~fracopt.mesh.OmegaMesh.kept`), since
    every system on the lattice shares them.
    """
    return omega.kept(_gauss_rule)


def _gauss_rule(omega: OmegaMesh) -> OmegaQuadrature:
    m, h, n = omega.cells_per_dim, omega.h, omega.n
    cell1 = np.repeat(np.arange(m), 3)
    xi = np.tile(_GAUSS3_P, m)
    weights1 = np.tile(_GAUSS3_W * h, m)
    # the two lattice hats of each point's cell; the boundary columns go
    hats = np.zeros((3 * m, m + 1))
    hats[np.arange(3 * m), cell1] = 1.0 - xi
    hats[np.arange(3 * m), cell1 + 1] = xi
    tensor = lambda v: np.meshgrid(*[v] * n, indexing="ij")
    points1 = np.linspace(0.0, 1.0, m + 1)[cell1] + h * xi
    return OmegaQuadrature(
        n=n, points=np.stack([x.ravel() for x in tensor(points1)], axis=1),
        weights=np.prod(tensor(weights1), axis=0).ravel(),
        cell_of=np.ravel_multi_index(tuple(tensor(cell1)), (m,) * n).ravel(),
        weights1=weights1, hats=hats[:, 1:-1],
        means1=np.repeat(np.eye(m), 3, axis=1) * np.tile(_GAUSS3_W, m))


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


def _checked(vals, shape, what: str) -> np.ndarray:
    """vals as a float array broadcast to ``shape``.

    Raises ParameterError naming ``what`` when vals does not broadcast to
    ``shape`` or holds a non-finite value.
    """
    vals = np.asarray(vals, dtype=float)
    try:
        vals = np.broadcast_to(vals, shape)
    except ValueError:
        raise ParameterError(f"{what} returned shape {vals.shape}, which does not "
                             f"broadcast to {shape}") from None
    if not np.isfinite(vals).all():
        raise ParameterError(f"{what} returned non-finite values")
    return vals


def time_profiles(terms, t: np.ndarray, what: str) -> np.ndarray:
    """(len(t), J): the time profiles g_j of J separable terms at a 1D array of times, checked."""
    return np.stack([_checked(term.time(t), t.shape, what) for term in terms], axis=1)


def factor_values(terms, points: np.ndarray, what: str) -> np.ndarray:
    """(J, n_points): the spatial factors phi_j of J separable terms at the points, checked."""
    return np.stack([_checked(term.space(points), points.shape[:1], what) for term in terms])


def _gauss_times(t0, t1) -> np.ndarray:
    """The 2-point Gauss times of the steps [t0, t1]: first every step's left one, then its right one."""
    span = t1 - t0
    return np.concatenate([t0 + span * _GAUSS2_P[0], t0 + span * _GAUSS2_P[1]])


def step_means(terms, grid: TimeGrid, what: str) -> np.ndarray:
    """(K, J): the 2-point Gauss averages over every step of the terms' time profiles."""
    k = np.arange(grid.K)
    g = time_profiles(terms, _gauss_times(k * grid.tau, (k + 1) * grid.tau), what)
    avg = g[:grid.K] + g[grid.K:]
    avg *= 0.5
    return avg


def at_points(f, points: np.ndarray, what: str):
    """f at fixed ``points`` as a function of time: ``values(t)``, (q, n_points) for a (q, 1) column t.

    A plain callable is called as f(points, t) on every call; errors it
    raises propagate unchanged. A separable f
    (:func:`~fracopt.problem.separable`) has each spatial factor phi_j
    evaluated here, once; a call then writes sum_j psi_j(g_j(t) phi_j) into
    one buffer that every later call reuses, and returns a view of it (a
    second term takes a temporary per call). The values are checked
    (ParameterError naming ``what`` for a wrong shape or a non-finite value).
    """
    sep = separable(f)
    if sep is None:
        return lambda t: _checked(f(points, t), (t.shape[0], points.shape[0]), what)
    factors = factor_values(sep.terms, points, what)
    buf = np.empty((0, points.shape[0]))

    def values(t):
        nonlocal buf
        if buf.shape[0] < t.shape[0]:
            buf = np.empty((t.shape[0], points.shape[0]))
        vals = buf[:t.shape[0]]
        for j, (term, phi) in enumerate(zip(sep.terms, factors)):
            part = np.multiply(_checked(term.time(t), t.shape, what), phi,
                               out=vals if j == 0 else None)
            if term.psi is not None:
                term.psi(part)
            if j > 0:
                vals += part
        return vals

    return values


def time_average(values, t0, t1, out: np.ndarray | None = None) -> np.ndarray:
    """Averages over the steps [t0, t1] by the 2-point Gauss rule of ``values`` (:func:`at_points`).

    ``t0`` and ``t1`` are float arrays of shape (m,). ``values`` is called
    once, with the (2m, 1) column of all Gauss times; the two Gauss rows
    are averaged into one array of shape (m, n_points). That array is
    fresh, or ``out[:m]`` when ``out`` is given: a block loop passes the
    previous block's averages back, so all its blocks share one buffer.
    """
    vals = values(_gauss_times(t0, t1)[:, None])
    m = t0.size
    avg = np.add(vals[:m], vals[m:], out=None if out is None else out[:m])
    avg *= 0.5
    return avg
