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
(:func:`step_means`). Its step loads and cell means are formed from its
terms (:func:`separable_loads`): a linear term in O(N + K), and a clipped
term from its constant and linear pieces, with one apply of two point
vectors per block of 16 or more steps and point values only where a block
crosses a bound (a block where most points cross is loaded from point values
alone). Only this module and :mod:`fracopt.evolution` read its terms.
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
    return time_average(lambda t: time_profiles(terms, t[:, 0], what),
                        k * grid.tau, (k + 1) * grid.tau)


def at_points(f, points: np.ndarray, what: str):
    """f at fixed ``points`` as a function of time: ``values(t)``, (q, n_points) for a (q, 1) column t.

    A plain callable is called as f(points, t) on every call; errors it
    raises propagate unchanged. A separable f
    (:func:`~fracopt.problem.separable`) has each spatial factor phi_j
    evaluated here, once; a call then writes sum_j clip_j(g_j(t) phi_j) into
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
            if term.clip is not None:
                np.clip(part, *term.clip, out=part)
            if j > 0:
                vals += part
        return vals

    return values


# A clipped term is sorted into its pieces over blocks of this many steps, or
# of a :func:`step_blocks` block where that is longer (few points)
# (:func:`separable_loads`): longer blocks leave more points crossing a bound,
# shorter ones take more applies and more calls.
_CLIP_STEPS = 16


def separable_loads(sep, grid: TimeGrid, points: np.ndarray, factor: np.ndarray,
                    what: str) -> np.ndarray:
    """(K, rows**n): the step averages of a :class:`~fracopt.problem.Separable` through a factor's power.

    ``points`` (c**n, n) are a Gauss rule's, listed in row-major tensor
    order, and ``factor`` (rows, c) is the 1D factor whose n-fold Kronecker
    power takes their values to the result (:func:`kron_apply`). Row k
    holds that map of the 2-point Gauss average over step k of sum_j
    clip_j(g_j(t) phi_j(x)). ``what`` names the datum in errors.

    A linear term adds the step means of g times one load of phi. A
    clipped term is loaded from its pieces. While g stays in [g_min, g_max],
    a point's values stay between g_min phi and g_max phi (a rounded product
    is monotone in g). So a point whose range stays at or below lo, or at or
    above hi, adds the constant lo or hi, and one inside (lo, hi) adds the
    step means of g times phi: pointwise clipping gives the same up to
    rounding. The points are sorted once over the whole grid, and these
    pieces join the linear terms in one apply and one product. The points
    left over are sorted again per block of 16 steps (or of a
    :func:`step_blocks` block, when that is longer), and one apply of two
    point vectors per block loads their pieces. Only a point whose range
    crosses a bound inside a block is evaluated at the block's Gauss times,
    and its averages reach the result through its own column of the power
    (a product of one column of ``factor`` per axis). A block where so
    many points cross that their columns would cost more than applying its
    steps (:func:`_add_block_pieces`) loads all its points left over from
    their values instead, as a plain datum's are. Temporaries stay near
    the budget of :func:`step_blocks`.
    """
    K, n = grid.K, points.shape[1]
    k = np.arange(K)
    g = time_profiles(sep.terms, _gauss_times(k * grid.tau, (k + 1) * grid.tau), what)
    phi = factor_values(sep.terms, points, what)
    if factor.shape[0] == 0:
        return np.zeros((K, 0))     # a lattice without interior nodes: no row to load into
    means = _gauss_mean(g)
    out, left = _grid_pieces(sep.terms, g, means, phi, factor, n)
    for j, idx in left:
        _add_block_pieces(out, g[:, j].reshape(2, K), means[:, j], phi[j], idx,
                          sep.terms[j].clip, factor, n)
    return out


def _grid_pieces(terms, g, means, phi, factor, n: int):
    """The loads of the linear terms and of the clipped terms' whole-grid pieces, in one product.

    Returns them with the list of (j, points left over) of the clipped terms
    whose values cross a bound somewhere on the grid.
    """
    profiles, vectors, left = [], [], []
    for j, term in enumerate(terms):
        if term.clip is None:
            profiles.append(means[:, j])
            vectors.append(phi[j])
            continue
        const, linear, cross = _pieces(g[:, j].min(), g[:, j].max(), phi[j], *term.clip)
        profiles += [np.ones(means.shape[0]), means[:, j]]
        vectors += [const, linear * phi[j]]
        if cross.any():
            left.append((j, np.flatnonzero(cross)))
    return np.matmul(np.stack(profiles, axis=1), kron_apply(factor, np.stack(vectors), n)), left


def _pieces(g_min, g_max, phi, lo: float, hi: float):
    """Sort the values g phi, g in [g_min, g_max] (broadcast against phi), into their pieces.

    Returns the constant piece (lo, hi or 0), the mask of the linear piece
    and the mask of the values that cross a bound; the three cases exclude
    each other.
    """
    a, b = g_min * phi, g_max * phi
    low, high = np.minimum(a, b), np.maximum(a, b)
    below, above = high <= lo, low >= hi
    linear = (low > lo) & (high < hi)
    const = np.where(below, lo, np.where(above, hi, 0.0))
    return const, linear, ~(below | above | linear)


def _add_block_pieces(out, g, means, phi, left, bounds, factor, n: int) -> None:
    """Add into ``out`` one clipped term's loads at the points ``left``, per block of steps.

    ``g`` (2, K) holds g at each step's two Gauss times, ``means`` their
    averages. Blocks are sorted and applied a chunk at a time, within the
    budget of :func:`step_blocks`. A block loads its n_cross crossing
    points by their columns while n_cross rows**(n-1) <= (n - 1/2) c**n,
    else all its points left over pointwise, with no pieces. Timed per
    block on one thread, the columns were the faster way below 0.5 to
    0.8 c**n at n = 1, 0.9 to 1.8 c**n at n = 2 (M = 40 to 12) and 3 to
    5.6 c**n at n = 3; on no block timed was the rule's choice more than
    1.7 times slower than the other way.
    """
    K, P = out.shape[0], phi.size
    S = max(_CLIP_STEPS, _BLOCK_VALUES // (2 * P))
    starts = np.arange(0, K, S)
    g_min = np.minimum.reduceat(g.min(axis=0), starts)
    g_max = np.maximum.reduceat(g.max(axis=0), starts)
    phi_left = phi[left]
    keep = None
    if left.size < P:
        keep = np.zeros(P)
        keep[left] = 1.0
    # a block holds its two point vectors and the sorting of its points left over
    chunk = max(1, _BLOCK_VALUES // (2 * P + 8 * left.size))
    for b0 in range(0, starts.size, chunk):
        const, linear, cross = _pieces(g_min[b0:b0 + chunk, None], g_max[b0:b0 + chunk, None],
                                       phi_left, *bounds)
        n_cross = np.count_nonzero(cross, axis=1)
        pointwise = 2 * n_cross * factor.shape[0] ** (n - 1) > (2 * n - 1) * P
        if not pointwise.all():
            const[pointwise], linear[pointwise] = 0.0, False
            _add_chunk_pieces(out[b0 * S:(b0 + chunk) * S], means[b0 * S:(b0 + chunk) * S],
                              const, linear * phi_left, left, S, factor, n)
        del const, linear       # the blocks' point values below share the budget
        for i in np.flatnonzero(n_cross):
            steps = slice((b0 + i) * S, (b0 + i + 1) * S)
            if pointwise[i]:
                _add_points(out[steps], g[:, steps], phi, keep, bounds, factor, n)
            else:
                _add_columns(out[steps], g[:, steps], phi, left[cross[i]], bounds, factor, n)


def _add_chunk_pieces(rows, means, const, linear, left, S: int, factor, n: int) -> None:
    """Add into the ``rows`` of a chunk of blocks the loads of their pieces at the points ``left``.

    ``const`` and ``linear`` (blocks, len(left)) are each block's constant
    piece and the phi of its linear piece; every step of block i adds
    const_i's load plus its mean of g times linear_i's.
    """
    vecs = np.zeros((const.shape[0], 2, factor.shape[1] ** n))
    vecs[:, 0, left] = const
    vecs[:, 1, left] = linear
    piece = kron_apply(factor, vecs, n)
    del vecs
    # the last block may be short
    weights = np.zeros((piece.shape[0] * S, 2))
    weights[:rows.shape[0], 0] = 1.0
    weights[:rows.shape[0], 1] = means
    rows += np.matmul(weights.reshape(-1, S, 2), piece).reshape(
        weights.shape[0], rows.shape[1])[:rows.shape[0]]


def _add_points(rows, g, phi, keep, bounds, factor, n: int) -> None:
    """Add into a block's ``rows`` the loads of the points ``keep`` masks to one, from their point values.

    ``g`` (2, steps) is the term's time profile at the block's Gauss times
    and ``phi`` its factor at all c**n points; ``keep`` None keeps them all.
    Every point is evaluated and the others masked to zero after averaging,
    a few steps at a time in one pair of buffers, as a plain datum's blocks
    are (:func:`step_blocks`).
    """
    P = phi.size
    per = min(g.shape[1], max(1, _BLOCK_VALUES // (2 * P)))
    vals, avg = np.empty((2 * per, P)), np.empty((per, P))
    for s in range(0, g.shape[1], per):
        m = min(per, g.shape[1] - s)
        v = vals[:2 * m]
        np.multiply(g[:, s:s + m, None], phi, out=v.reshape(2, m, P))
        np.clip(v, *bounds, out=v)
        a = _gauss_mean(v, out=avg[:m])
        if keep is not None:
            a *= keep
        rows[s:s + m] += kron_apply(factor, a, n)


def _add_columns(rows, g, phi, idx, bounds, factor, n: int) -> None:
    """Add into a block's ``rows`` the loads of the points ``idx``, through their columns of the power.

    ``g`` (2, steps) is the term's time profile at the block's Gauss times.
    Column (i_1, rest) is factor[:, i_1] (x) rest's: built a few first-axis
    modes at a time.
    """
    r, c = factor.shape
    first, rest = np.divmod(idx, c ** (n - 1))
    rest = _columns(factor, rest, n - 1)
    vals = np.multiply.outer(g, phi[idx])
    np.clip(vals, *bounds, out=vals)
    vals = _gauss_mean(vals.reshape(-1, idx.size))
    per = max(1, _BLOCK_VALUES // (2 * rest.size))
    for a in range(0, r, per):
        cols = (factor[a:a + per, first].T[:, :, None] * rest[:, None, :]).reshape(idx.size, -1)
        rows[:, a * rest.shape[1]:(a + per) * rest.shape[1]] += vals @ cols


def _columns(factor, pts, n: int) -> np.ndarray:
    """(len(pts), rows**n): the columns at flat point indices ``pts`` of the n-fold power of ``factor``."""
    cols = np.ones((pts.size, 1))
    for i in np.unravel_index(pts, (factor.shape[1],) * n) if n else ():
        cols = (cols[:, :, None] * factor.T[i][:, None, :]).reshape(pts.size, -1)
    return cols


def _gauss_mean(vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(m, ...): the 2-point Gauss averages of values at the 2m Gauss times of m steps.

    ``vals`` lists first every step's left Gauss time, then its right one
    (:func:`_gauss_times`); the result is fresh, or written into ``out``.
    """
    m = vals.shape[0] // 2
    avg = np.add(vals[:m], vals[m:], out=out)
    avg *= 0.5
    return avg


def time_average(values, t0, t1, out: np.ndarray | None = None) -> np.ndarray:
    """Averages over the steps [t0, t1] by the 2-point Gauss rule of ``values`` (:func:`at_points`).

    ``t0`` and ``t1`` are float arrays of shape (m,). ``values`` is called
    once, with the (2m, 1) column of all Gauss times; the two Gauss rows
    are averaged into one array of shape (m, n_points). That array is
    fresh, or ``out[:m]`` when ``out`` is given: a block loop passes the
    previous block's averages back, so all its blocks share one buffer.
    """
    vals = values(_gauss_times(t0, t1)[:, None])
    return _gauss_mean(vals, None if out is None else out[:t0.size])
