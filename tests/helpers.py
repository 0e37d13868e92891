"""Shared check routines used by the unit tests and the acceptance suite."""
import csv
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fracopt import (ControlBounds, CylinderSystem, FractionalParams, ProblemData,
                     build_cylinder, build_omega, caputo_weights, clamp, graded_axis,
                     solve_state, weight_integrals)
from fracopt.assembly import assemble_stiffness, kron_apply, omega_matrices
from fracopt.evolution import (adjoint_march, adjoint_trajectory, forcing_loads,
                               state_march, state_trajectory)
from fracopt.harness import (ConvergenceReport, ExperimentConfig, apply_settings,
                             build_setup, read_config)
from fracopt.mesh import default_zeta
from fracopt.oracle import mode


def weighted_integral_oracle(y0, y1, alpha):
    """High-precision reference for the four weighted hat-function integrals."""
    import mpmath as mp
    mp.mp.dps = 40
    h = mp.mpf(y1) - mp.mpf(y0)

    if y0 == 0.0:
        # substitute y = t^k so the weight singularity at 0 disappears
        k = max(2, int(math.ceil(2.0 / (1.0 + alpha))))

        def quad(f):
            g = lambda t: k * t ** (k - 1) * f(t ** k)
            return float(mp.quad(g, [0, mp.mpf(y1) ** (mp.mpf(1) / k)],
                                 maxdegree=10))
    else:
        def quad(f):
            return float(mp.quad(f, [mp.mpf(y0), mp.mpf(y1)], maxdegree=10))

    phl = lambda y: (mp.mpf(y1) - y) / h
    phr = lambda y: (y - mp.mpf(y0)) / h
    w = lambda y: y ** mp.mpf(alpha)
    mass_ll = quad(lambda y: w(y) * phl(y) ** 2)
    mass_lr = quad(lambda y: w(y) * phl(y) * phr(y))
    mass_rr = quad(lambda y: w(y) * phr(y) ** 2)
    stiff = quad(lambda y: w(y)) / float(h) ** 2
    return mass_ll, mass_lr, mass_rr, stiff


def check_weight_integrals(rng, cases=12, tol=1e-10):
    """Closed forms vs the mpmath oracle (absolute+relative mix).

    Each case checks one interval, and its two halves given as arrays of ends.
    """
    worst = 0.0
    for _ in range(cases):
        alpha = rng.uniform(-0.9, 0.9)
        y0 = rng.choice([0.0, rng.uniform(0.0, 0.5)])
        y1 = y0 + rng.uniform(0.05, 1.0)
        ends = np.array([y0, 0.5 * (y0 + y1), y1])
        halves = zip(ends[:-1], ends[1:],
                     np.transpose(weight_integrals(ends[:-1], ends[1:], alpha)))
        for a, b, got in [(y0, y1, weight_integrals(y0, y1, alpha)), *halves]:
            ref = weighted_integral_oracle(a, b, alpha)
            for g, r in zip(got, ref):
                worst = max(worst, abs(g - r) / max(1.0, abs(r)))
    assert worst <= tol, f"weighted integrals off by {worst:.3e}"
    return worst


def build_test_mesh(n=2, M=6, s=0.6, Y=1.5, zeta=None):
    params = FractionalParams(s, 1.0)
    if zeta is None:
        zeta = default_zeta(params.alpha)
    mesh = build_cylinder(build_omega(n, M), graded_axis(M, Y, zeta))
    return mesh, params


def assemble_trace_mass(mesh):
    """Omega CSR mass matrix embedded at y = 0 in cylinder indexing.

    Rows and columns away from the trace are zero; the sum of all entries
    equals |Omega| = 1.
    """
    m_w, _ = omega_matrices(mesh.omega)
    Mp1 = mesh.axis.M + 1
    pick = sp.csr_matrix(([1.0], ([0], [0])), shape=(Mp1, Mp1))
    return sp.kron(m_w, pick, format="csr")


def check_operator_symmetry(mesh, params, tol=1e-12):
    A = assemble_stiffness(mesh, params)
    gap = abs(A - A.T)
    rel = gap.max() / abs(A).max()
    assert rel <= tol, f"stiffness asymmetry {rel:.3e}"
    Mt = assemble_trace_mass(mesh)
    gap = abs(Mt - Mt.T)
    rel = gap.max() / abs(Mt).max()
    assert rel <= tol, f"trace mass asymmetry {rel:.3e}"
    return A, Mt


def check_spd_rayleigh(A, rng, samples=100):
    n = A.shape[0]
    for _ in range(samples):
        v = rng.standard_normal(n)
        q = float(v @ (A @ v))
        assert q > 0.0, "nonpositive Rayleigh quotient"


def check_telescoping(gamma, K):
    w = caputo_weights(gamma, K, 1.0 / K)
    a = w.a
    assert a[0] == 1.0
    assert np.all(a > 0.0)
    assert np.all(np.diff(a) < 0.0)
    for k in range(K):
        total = float(np.sum(a[:k] - a[1:k + 1]) + a[k])
        assert abs(total - 1.0) <= 1e-12, f"telescoping off at k={k}: {total}"


# -- node numberings of the assembled operators ------------------------------

def omega_cells(omega):
    """(n_cells, 2^n) vertex indices of each cell's corners, row-major by lowest corner.

    A cell lists its corners in ``itertools.product((0, 1), repeat=n)`` order.
    """
    m, n = omega.cells_per_dim, omega.n
    shape = (m + 1,) * n
    lower = np.ravel_multi_index(np.meshgrid(*[np.arange(m)] * n, indexing="ij"), shape)
    corners = np.ravel_multi_index(np.array(list(itertools.product((0, 1), repeat=n))).T,
                                   shape)
    return lower.reshape(-1, 1) + corners


def node_index(mesh, vertex, axis_node):
    """Global cylinder node: axis-minor within each Omega vertex."""
    return vertex * (mesh.axis.M + 1) + axis_node


@dataclass(frozen=True)
class NodeMaps:
    """Index maps of the cylinder numbering node_index, from the Dirichlet geometry.

    Dirichlet nodes are those on the lateral boundary (Omega vertex on
    d(Omega), any y) and on the top cap y = Y; the rest are free, in
    ascending order, as the rows of ``assemble_stiffness``.
    """

    dirichlet_mask: np.ndarray     # (n_nodes,)
    free_idx: np.ndarray           # global indices of free nodes
    trace_global: np.ndarray       # Omega vertex -> global node at y = 0
    trace_free_pos: np.ndarray     # interior Omega vertex -> position in free vector

    @property
    def n_nodes(self):
        return self.dirichlet_mask.size


def node_maps(mesh):
    nv, Mp1 = mesh.omega.vertices.shape[0], mesh.axis.M + 1
    dirichlet = np.repeat(mesh.omega.boundary_vertex_mask, Mp1)
    dirichlet[Mp1 - 1::Mp1] = True
    free_idx = np.nonzero(~dirichlet)[0]
    free_pos = np.full(nv * Mp1, -1)
    free_pos[free_idx] = np.arange(free_idx.size)
    trace_global = np.arange(nv) * Mp1
    trace_free_pos = free_pos[trace_global[mesh.omega.interior_idx]]
    assert np.all(trace_free_pos >= 0)
    return NodeMaps(dirichlet_mask=dirichlet, free_idx=free_idx,
                    trace_global=trace_global, trace_free_pos=trace_free_pos)


def axis_recurrence(axis, alpha, rates, d_s):
    """(delta, psi): the top-down axis elimination with its harmonic profiles.

    The reference of ``evolution.axis_schur``, in the expanded form and
    operation order it documents, written with fresh temporaries. Row i of
    ``psi`` is the discrete harmonic profile of rate i on axis nodes
    0..M-1: psi[:, 0] = 1 and psi_{j+1}/psi_j = (s - t)/(s + q) per
    interval j.
    """
    mll, mlr, mrr, s = weight_integrals(axis.nodes[:-1], axis.nodes[1:], alpha)
    r = np.asarray(rates, dtype=float)
    G = r * mll[-1] + s[-1]
    ratio = np.empty((r.size, axis.M - 1))
    for j in range(axis.M - 2, -1, -1):
        p, t = r * mll[j], r * mlr[j]
        q = r * mrr[j] + G
        ratio[:, j] = (s[j] - t) / (s[j] + q)
        G = (s[j] * (p + q + 2.0 * t) + p * q - t * t) / (s[j] + q)
    psi = np.ones((r.size, axis.M))
    psi[:, 1:] = np.cumprod(ratio, axis=1)
    return G / d_s, psi


def axis_schur_mp(M, Y, zeta, alpha, rates, d_s):
    """Schur complements onto y = 0 of the axis blocks, in mpmath (dps 40), as floats.

    The partition y_m = Y (m/M)^zeta, the weighted integrals (closed-form
    moments) and the elimination of the assembled tridiagonal block (r M_y
    + S_y)/d_s on axis nodes 0..M-1, from the top down, all run at 40
    digits, far beyond any cancellation in them.
    """
    import mpmath as mp
    with mp.workdps(40):
        a = mp.mpf(alpha)
        y = [mp.mpf(Y) * (mp.mpf(m) / M) ** mp.mpf(zeta) for m in range(M + 1)]
        mass, stiff = [], []
        for y0, y1 in zip(y[:-1], y[1:]):
            h2 = (y1 - y0) ** 2
            i0, i1, i2 = ((y1 ** (a + k) - y0 ** (a + k)) / (a + k) for k in (1, 2, 3))
            mass.append(((y1 * y1 * i0 - 2 * y1 * i1 + i2) / h2,
                         ((y0 + y1) * i1 - i2 - y0 * y1 * i0) / h2,
                         (i2 - 2 * y0 * i1 + y0 * y0 * i0) / h2))
            stiff.append(i0 / h2)
        out = []
        for r in rates:
            r = mp.mpf(r)
            # node j's diagonal collects interval j's left end and interval j-1's right end
            diag = [r * mass[j][0] + stiff[j] + (r * mass[j - 1][2] + stiff[j - 1] if j else 0)
                    for j in range(M)]
            G = diag[-1]
            for j in range(M - 2, -1, -1):
                G = diag[j] - (r * mass[j][1] - stiff[j]) ** 2 / G
            out.append(float(G / mp.mpf(d_s)))
    return np.array(out)


def system_recurrence(system):
    """:func:`axis_recurrence` for the lattice modes and reaction of ``system``."""
    lam = system.factors.lam
    lam = functools.reduce(np.add.outer, [lam] * system.n).ravel()
    return axis_recurrence(system.mesh.axis, system.params.alpha, lam + system.params.reaction,
                           system.params.d_s)


def free_field(system, coeffs):
    """Free-node fields sum_i coeffs_i phi_i x psi_i of modal trace coefficients.

    ``coeffs`` has the modes on its last axis and psi_i is mode i's axis
    profile (:func:`system_recurrence`); the result replaces that axis by
    the free-node vector (interior vertex major, axis node minor).
    """
    psi = system_recurrence(system)[1]
    nodal = system.from_modal(coeffs[..., None, :] * psi.T)  # (..., M, n_int)
    return np.swapaxes(nodal, -1, -2).reshape(coeffs.shape[:-1] + (-1,))


def extension_field(system, u0):
    """Discrete weighted-harmonic extension of u0 from its modal profiles, as a free-node vector."""
    u0v = np.asarray(u0(system.mesh.omega.vertices[system.interior]), dtype=float)
    return free_field(system, system.nodal_to_modal(u0v))


# -- assembled Omega operators: the references for the per-axis applies -----

def control_load_matrix(omega):
    """Exact integrals int_cell phi_i: maps cell values to vertex loads.

    Shape (n_vertices, n_cells); each cell contributes (h/2)^n to each of
    its 2^n vertices. The transpose divided by the cell volume is the
    piecewise-constant projection of a trace function.
    """
    contrib = (omega.h / 2.0) ** omega.n
    cells = omega_cells(omega)
    ncells, nloc = cells.shape
    rows = cells.ravel()
    cols = np.repeat(np.arange(ncells), nloc)
    vals = np.full(rows.size, contrib)
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(omega.vertices.shape[0], ncells))


def m1_b1(omega):
    """The 1D interior P1 mass (h/6) tridiag(1, 4, 1) and hat-over-cell matrix (entries h/2)."""
    m, h = omega.cells_per_dim, omega.h
    return (h / 6.0 * (4.0 * np.eye(m - 1) + np.eye(m - 1, k=1) + np.eye(m - 1, k=-1)),
            0.5 * h * (np.eye(m - 1, m) + np.eye(m - 1, m, k=1)))


def mass(system, x):
    """M_int x: the interior Omega mass applied per axis to interior values along the last axis."""
    return kron_apply(m1_b1(system.mesh.omega)[0], x, system.n)


def cell_integrals(system, x):
    """B_int^T x: per-cell integrals of interior trace values along the last axis."""
    return kron_apply(m1_b1(system.mesh.omega)[1].T, x, system.n)


def control_loads(system, z):
    """B_int z: interior loads sum_c z_c int_c phi_i of cell values along the last axis."""
    return kron_apply(m1_b1(system.mesh.omega)[1], z, system.n)


def to_modal(system, loads):
    """Phi^T loads: the modal coefficients phi_i . l of interior loads along the last axis."""
    return kron_apply(system.factors.phi.T, loads, system.n)


def M_int(system):
    """Assembled Q1 mass on the interior Omega vertices: the reference of :func:`mass`."""
    m_w, _ = omega_matrices(system.mesh.omega)
    return m_w[system.interior][:, system.interior].tocsr()


def B_int(system):
    """Assembled control loads on the interior vertices: the reference of control_loads."""
    return control_load_matrix(system.mesh.omega)[system.interior].tocsr()


# -- assembled quadrature: the reference for the per-axis rule ---------------

_GAUSS3_P = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


@dataclass(frozen=True)
class AssembledQuadrature:
    """3-point tensor Gauss data on every Omega cell, points listed cell by cell.

    ``basis`` holds the vertex basis values at the quadrature points, so
    loads are ``basis.T @ (weights * f(points))`` and discrete trace values
    at the points are ``basis @ coefficients``.
    """

    points: np.ndarray      # (nq, n)
    weights: np.ndarray     # (nq,)
    cell_of: np.ndarray     # (nq,) cell index of each point
    basis: sp.csr_matrix    # (nq, n_vertices)

    @property
    def scatter(self) -> sp.csr_matrix:
        """Weighted transposed basis (n_vertices, nq)."""
        return self.basis.T.multiply(self.weights).tocsr()


def quad_loads(quad, vals):
    """Interior loads sum_q w_q phi_i(x_q) vals_q of point values along the last axis."""
    return kron_apply(quad.hats.T * quad.weights1, vals, quad.n)


def quad_values(quad, coeffs):
    """Point values sum_i coeffs_i phi_i(x_q) of interior coefficients along the last axis."""
    return kron_apply(quad.hats, coeffs, quad.n)


def quad_cell_integrals(quad, vals):
    """Per-cell weighted sums of point values along the last axis."""
    cells = np.repeat(np.eye(quad.hats.shape[1] + 1), 3, axis=1)
    return kron_apply(cells * quad.weights1, vals, quad.n)


def assembled_quadrature(omega):
    """The sparse-basis Omega quadrature: the reference of OmegaQuadrature.

    The tensor 3^n Gauss rule on every cell, points listed cell by cell,
    with the Q1 basis of each cell's 2^n corners (in ``omega_cells`` order)
    evaluated at them.
    """
    n, h = omega.n, omega.h
    cells = omega_cells(omega)
    tensor = lambda v: np.stack([x.ravel() for x in np.meshgrid(*[v] * n, indexing="ij")],
                                axis=1)
    xi = tensor(_GAUSS3_P)                                          # (3^n, n)
    ww = np.prod(tensor(_GAUSS3_W), axis=1) * h ** n
    corners = np.array(list(itertools.product((0, 1), repeat=n)))   # (2^n, n)
    # the basis of corner c is prod_j (xi_j if c_j else 1 - xi_j)
    ref = np.prod(np.where(corners[None], xi[:, None], 1.0 - xi[:, None]), axis=2)
    ncells = omega.n_cells
    origins = omega.vertices[cells[:, 0]]                           # (ncells, n)
    pts = (origins[:, None, :] + h * xi[None, :, :]).reshape(-1, n)
    cell_of = np.repeat(np.arange(ncells), xi.shape[0])
    rows = np.repeat(np.arange(pts.shape[0]), corners.shape[0])
    basis = sp.csr_matrix((np.tile(ref, (ncells, 1)).ravel(),
                           (rows, cells[cell_of].ravel())),
                          shape=(pts.shape[0], omega.vertices.shape[0]))
    return AssembledQuadrature(points=pts, weights=np.tile(ww, ncells),
                               cell_of=cell_of, basis=basis)


# -- assembled sparse path: the reference for the modal step solve -----------

def sparse_step_solver(system):
    """LU of the assembled step matrix A + c_new M_tr on the free nodes.

    Returns solve(rhs_int) -> free-node vector for a load that lives on the
    interior trace nodes only.
    """
    nf, n_int = system.mesh.n_free, system.n_interior
    tpos = node_maps(system.mesh).trace_free_pos
    embed = sp.csr_matrix((np.ones(n_int), (tpos, np.arange(n_int))), shape=(nf, n_int))
    step = system.A_free + system.march.c_new * (embed @ M_int(system) @ embed.T)
    solve = spla.factorized(step.tocsc())

    def solve_trace(rhs_int):
        rhs = np.zeros(nf)
        rhs[tpos] = rhs_int
        return solve(rhs)
    return solve_trace


def sparse_state_march(system, trace0, loads):
    """Forward L1/backward Euler march by sparse LU; returns (traces, fields)."""
    K = system.grid.K
    solve = sparse_step_solver(system)
    mass = M_int(system)
    tpos = node_maps(system.mesh).trace_free_pos
    traces = np.empty((K + 1, system.n_interior))
    traces[0] = trace0
    fields = np.zeros((K + 1, system.mesh.n_free))
    w = system.march.weights
    for k in range(K):
        if w is None:
            acc = traces[k]
        else:
            acc = w.a[k] * traces[0]
            if k >= 1:
                acc = acc + np.tensordot(w.diffs[:k], traces[k:0:-1], axes=(0, 0))
        fields[k + 1] = solve(system.march.c_new * (mass @ acc) + loads[k])
        traces[k + 1] = fields[k + 1][tpos]
    return traces, fields


def sparse_adjoint_march(system, loads):
    """Backward march with terminal value zero by sparse LU; returns the traces."""
    K = system.grid.K
    solve = sparse_step_solver(system)
    mass = M_int(system)
    tpos = node_maps(system.mesh).trace_free_pos
    traces = np.zeros((K + 1, system.n_interior))
    w = system.march.weights
    for j in range(K - 1, -1, -1):
        if w is None:
            acc = traces[j + 1]
        else:
            acc = np.tensordot(w.diffs[:K - 1 - j], traces[j + 1:K], axes=(0, 0))
        traces[j] = solve(system.march.c_new * (mass @ acc) + loads[j])[tpos]
    return traces


def sparse_initial_field(system, u0):
    """Harmonic extension by sparse LU: nodal u0 on the trace, a_Y(V0, W) = 0 above."""
    mesh = system.mesh
    u0v = np.asarray(u0(mesh.omega.vertices[system.interior]), dtype=float)
    tpos = node_maps(mesh).trace_free_pos
    upos = np.setdiff1d(np.arange(mesh.n_free), tpos)
    A = system.A_free
    v = np.zeros(mesh.n_free)
    v[tpos] = u0v
    v[upos] = spla.spsolve(A[upos][:, upos].tocsc(), -(A[upos][:, tpos] @ u0v))
    return v


def sparse_trace_schur(system):
    """Dense Schur complement of the assembled stiffness onto the trace nodes."""
    A = system.A_free.tocsr()
    t = node_maps(system.mesh).trace_free_pos
    upos = np.setdiff1d(np.arange(system.mesh.n_free), t)
    A_ut = A[upos][:, t].toarray()
    return A[t][:, t].toarray() - A_ut.T @ spla.spsolve(A[upos][:, upos].tocsc(), A_ut)


def recurrence_impulse_responses(rate, c_new, diffs, K):
    """Impulse responses h[:, k] = c_new sum_{j<k} d_j h[:, k-1-j]/rate from 1/rate.

    The O(K^2 n) scalar recurrence, one step at a time: the reference for
    the Newton set-up of ModalMarch. Returns an (n_modes, K) array.
    """
    h = np.empty((K, rate.size))
    h[0] = 1.0 / rate
    # d_{m-1}..d_0, the tail of the reversed diffs, pair with h[0]..h[m-1]
    rdiffs = np.ascontiguousarray(diffs[::-1])
    for m in range(1, K):
        h[m] = c_new * (rdiffs[K - 1 - m:] @ h[:m]) / rate
    return h.T


def matches(got, want, rtol=1e-14):
    """Same shape, entrywise within rtol of the largest reference entry (empty allowed)."""
    assert got.shape == want.shape
    gap = np.max(np.abs(got - want), initial=0.0)
    assert gap <= rtol * np.max(np.abs(want), initial=0.0)


def rel_gap(got, ref):
    """Largest entrywise difference relative to the largest reference entry."""
    return float(np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref)))


# -- nodal compositions of the modal march path ------------------------------

def nodal_loads(system, b_hat):
    """Interior-node loads M_int Phi b_hat of modal loads b_hat = Phi^T b (Phi Phi^T M_int = I)."""
    return mass(system, system.from_modal(b_hat))


def nodal_forcing_loads(f, system, what="forcing"):
    """Interior-node loads of the step averages of f: nodal_loads of forcing_loads."""
    return nodal_loads(system, forcing_loads(f, system, what))


def nodal_state_march(system, trace0, loads):
    """state_trajectory o state_march o to_modal: the march from a nodal trace0 and nodal loads.

    loads (K, n_interior) are interior-node loads, or None for zero loads.
    """
    loads = None if loads is None else to_modal(system, loads)
    w0_hat = system.nodal_to_modal(trace0)
    return state_trajectory(system, trace0, state_march(system, w0_hat, loads))


def nodal_adjoint_march(system, loads):
    """adjoint_trajectory o adjoint_march o to_modal, for interior-node loads."""
    return adjoint_trajectory(system, adjoint_march(system, to_modal(system, loads)))


def nodal_solve_state(system, data, control=None):
    """The nodal traces of solve_state, steps 0..K."""
    trace0 = system.initial_field(data.initial)
    return state_trajectory(system, trace0, solve_state(system, data, control=control))


def nodal_state(prob, zvals):
    """State of ReducedProblem at zvals by the nodal march: loads B_int z plus the forcing's."""
    loads = control_loads(prob.system, zvals)
    if prob.data.forcing is not None:
        loads += nodal_forcing_loads(prob.data.forcing, prob.system)
    return nodal_state_march(prob.system, prob.trace0, loads)


def nodal_adjoint(prob, state):
    """Adjoint of ReducedProblem for a nodal state: the nodal march on M_int tr V - b_ud."""
    b_ud = nodal_forcing_loads(prob.data.desired_state, prob.system, "desired state")
    return nodal_adjoint_march(prob.system, mass(prob.system, state.traces[1:]) - b_ud)


def nodal_cost_and_gradient(prob, zvals):
    """(cost, gradient, state, adjoint) of ReducedProblem through the nodal marches.

    The nodal state march, the tracking cost from nodal traces with the
    assembled M_int, the nodal adjoint march driven by M_int tr V - b_ud, and
    the assembled B_int^T applied to the adjoint traces: the reference for
    the modal evaluation.
    """
    system, mu = prob.system, prob.data.bounds.mu
    state = nodal_state(prob, zvals)
    tr = state.traces[1:]
    b_ud = nodal_forcing_loads(prob.data.desired_state, system, "desired state")
    c_ud = loop_desired_state_data(prob.data.desired_state, prob.grid, prob.mesh.omega)[1]
    track = float(np.einsum("ki,ki->", tr, (M_int(system) @ tr.T).T)
                  - 2.0 * np.einsum("ki,ki->", tr, b_ud) + np.sum(c_ud))
    reg = prob.cell_volume * float(np.sum(np.square(zvals)))
    cost = 0.5 * prob.grid.tau * track + 0.5 * mu * prob.grid.tau * reg
    adj = nodal_adjoint(prob, state)
    grad = mu * zvals + (B_int(system).T @ adj.traces[:-1].T).T / prob.cell_volume
    return cost, grad, state, adj


# -- per-step data loops: the reference for the batched step-block path ------

_GAUSS2 = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def step_average(f, points, k, tau):
    """2-point Gauss average of f over [k tau, (k+1) tau], one scalar time per call."""
    t0, t1 = k * tau, (k + 1) * tau
    ta, tb = (t0 + (t1 - t0) * p for p in _GAUSS2)
    return 0.5 * (np.asarray(f(points, ta)) + np.asarray(f(points, tb)))


def loop_forcing_loads(f, grid, omega):
    """Interior loads of the step averages, one step at a time."""
    quad, interior = assembled_quadrature(omega), omega.interior_idx
    out = np.empty((grid.K, interior.size))
    for k in range(grid.K):
        out[k] = (quad.scatter @ step_average(f, quad.points, k, grid.tau))[interior]
    return out


def loop_desired_state_data(u_d, grid, omega):
    """(b_ud, c_ud): loads of the step averages u_d^k and Gauss-rule integrals of their squares.

    One step at a time.
    """
    quad, interior = assembled_quadrature(omega), omega.interior_idx
    b_ud = np.empty((grid.K, interior.size))
    c_ud = np.empty(grid.K)
    for k in range(grid.K):
        vals = step_average(u_d, quad.points, k, grid.tau)
        b_ud[k] = (quad.scatter @ vals)[interior]
        c_ud[k] = float(quad.weights @ np.square(vals))
    return b_ud, c_ud


def loop_residual_constant(u_d, grid, omega):
    """c_res = sum_k ||u_d^k - P u_d^k||_q^2 of ReducedProblem, one step at a time.

    P u_d^k solves the assembled interior mass system for the loads of the
    step average, and is evaluated at the points by the sparse basis.
    """
    quad, interior = assembled_quadrature(omega), omega.interior_idx
    mass = omega_matrices(omega)[0][interior][:, interior].tocsc()
    basis_int = quad.basis[:, interior].tocsr()
    total = 0.0
    for k in range(grid.K):
        vals = step_average(u_d, quad.points, k, grid.tau)
        coeffs = spla.spsolve(mass, (quad.scatter @ vals)[interior])
        total += float(quad.weights @ np.square(basis_int @ coeffs - vals))
    return total


def loop_l2_project(r, grid, omega):
    """Space-time cell means of r, one step at a time."""
    quad = assembled_quadrature(omega)
    out = np.empty((grid.K, omega.n_cells))
    for k in range(grid.K):
        vals = step_average(r, quad.points, k, grid.tau)
        out[k] = np.bincount(quad.cell_of, weights=quad.weights * vals,
                             minlength=omega.n_cells) / omega.cell_volume
    return out


def loop_l2Q_error(discrete, exact, grid, omega, kind):
    """l2(L2) distance to exact(., t_k), one step at a time."""
    quad = assembled_quadrature(omega)
    acc = 0.0
    basis_int = quad.basis[:, omega.interior_idx].tocsr()
    for k in range(1, grid.K + 1):
        if kind == "state":
            vals = basis_int @ discrete[k]
        else:
            vals = discrete[k - 1][quad.cell_of]
        diff = vals - np.asarray(exact(quad.points, k * grid.tau))
        acc += grid.tau * float(quad.weights @ np.square(diff))
    return math.sqrt(acc)


# -- the projected L-BFGS with stored free-set restrictions: the reference ---
# for the optimizer that keeps whole pairs only and restricts them per iteration

def reference_two_loop(g, pairs, inv_seed, dot):
    q = g.copy()
    tmp = np.empty_like(q)
    alphas = []
    for s, y in reversed(pairs):
        rho = 1.0 / dot(y, s)
        a = rho * dot(s, q)
        alphas.append((a, rho, s, y))
        q -= np.multiply(a, y, out=tmp)
    q *= inv_seed
    for a, rho, s, y in reversed(alphas):
        b = rho * dot(y, q)
        q += np.multiply(a - b, s, out=tmp)
    return q


def reference_projected_bfgs(fun_and_grad, z0, bounds, weight, tol=1e-9, max_iter=400,
                             memory=10):
    """Projected L-BFGS that stores each pair whole and restricted to the free set.

    The restrictions are rebuilt only when the free set changes and are kept
    through the line search. Same iterates, in the same floating-point
    operations, as :func:`fracopt.projected_bfgs`.
    """
    a, b = bounds.a, bounds.b
    dot = lambda u, v: weight * float(np.vdot(u, v))
    nrm = lambda u: math.sqrt(max(dot(u, u), 0.0))

    def free_pair(s, y, free):
        s, y = s[free], y[free]
        return (s, y) if dot(y, s) > 1e-14 * nrm(y) * nrm(s) else None

    z = clamp(z0, a, b)
    f, g = fun_and_grad(z)
    pairs = []
    mask_free = None
    work = np.empty_like(z)
    pg_history = []
    cost_history = [f]
    n_iter = 0
    converged = False
    c1 = 1e-4

    for n_iter in range(1, max_iter + 1):
        np.subtract(z, g, out=work)
        np.clip(work, a, b, out=work)
        pg = np.subtract(z, work, out=work)
        pg_norm = nrm(pg)
        pg_history.append(pg_norm)
        if pg_norm <= tol:
            converged = True
            break

        active = (z <= a) & (g > 0.0)
        active |= (z >= b) & (g < 0.0)
        free = ~active
        if mask_free is None or not np.array_equal(free, mask_free):
            mask_free = free
            pairs = [(s, y, free_pair(s, y, free)) for s, y, _ in pairs]
        model = [m for _, _, m in pairs if m is not None]
        d = g / -bounds.mu
        if model:
            gf = g[free]
            s_l, y_l = model[-1]
            inv_seed = dot(s_l, y_l) / dot(y_l, y_l)
            df = reference_two_loop(gf, model, inv_seed, dot)
            np.negative(df, out=df)
            if not dot(df, gf) > 0.0:
                d[free] = df

        alpha = 1.0
        accepted = False
        allowance = 8.0 * np.finfo(float).eps * (abs(f) + 1e-300)
        for _ in range(40):
            z_trial = np.multiply(d, alpha)
            z_trial += z
            np.clip(z_trial, a, b, out=z_trial)
            step = np.subtract(z_trial, z, out=work)
            decrement = dot(g, step)
            if decrement >= 0.0:
                alpha *= 0.5
                continue
            f_trial, g_trial = fun_and_grad(z_trial)
            if f_trial <= f + c1 * decrement + allowance:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break

        s_vec, work = step, np.empty_like(z)
        y_vec = g_trial - g
        if dot(y_vec, s_vec) > 1e-14 * nrm(y_vec) * nrm(s_vec):
            pairs.append((s_vec, y_vec, free_pair(s_vec, y_vec, mask_free)))
            if len(pairs) > memory:
                pairs.pop(0)
        z, f, g = z_trial, f_trial, g_trial
        cost_history.append(f)
    else:
        pg_history.append(nrm(z - clamp(z - g, a, b)))
        converged = pg_history[-1] <= tol
    return {"z": z, "f": f, "g": g, "pg_history": pg_history,
            "iterations": n_iter, "converged": converged,
            "cost_history": cost_history}


# -- reports -------------------------------------------------------------------

def truncation_per_height(config):
    """The truncation study with one single-height system and one state solve per height.

    The reference of ``run_truncation_study``, which solves all heights at
    once on a cylinder family: the same data, modal error formula and fit,
    every height on its own lattice, the tallest as reference.
    """
    s, n, M, K = config.s_list[0], config.n, config.M, config.K
    heights = sorted(set(config.Y_list))
    data = ProblemData(forcing=None, desired_state=None, initial=mode(*([1] * n)),
                       bounds=ControlBounds(-1.0, 1.0, 1.0))

    def solve(Y):
        system = CylinderSystem(*build_setup(n, M, s, config.gamma, config.T, K,
                                             zeta=config.zeta, Y=Y))
        return solve_state(system, data), system

    ref = solve(heights[-1])[0]
    report = ConvergenceReport(case="truncation")
    for Y in heights[:-1]:
        w_hat, system = solve(Y)
        diff = w_hat - ref
        err = math.sqrt(system.grid.tau * float(np.vdot(diff, diff)))
        report.rows.append({"case": "truncation", "s": s, "gamma": config.gamma,
                            "M": M, "K": K, "N": system.mesh.n_free,
                            "zeta": system.mesh.axis.zeta, "Y": Y, "err_state": err})
    ys = np.array([r["err_state"] for r in report.rows])
    Ys = np.array([r["Y"] for r in report.rows])
    report.slopes.append({"case": "truncation", "s": s, "gamma": config.gamma,
                          "quantity": "err_state_exp",
                          "slope": float(np.polyfit(Ys, np.log(ys), 1)[0]),
                          "levels_used": len(ys)})
    return report


def read_report_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            row = {}
            for key, val in rec.items():
                if key in ("case",):
                    row[key] = val
                elif key in ("M", "K", "N", "iters"):
                    row[key] = int(val) if val not in ("", "nan") else None
                else:
                    row[key] = float(val)
            rows.append(row)
    return rows


def load_config(path):
    """The settings of the config file ``path`` over the defaults, as ``--config path`` alone."""
    return apply_settings(ExperimentConfig(), (read_config(path), f"in {path}"))
