"""Time discretization: Caputo L1 weights, state and adjoint marches.

For gamma = 1 the step operator is backward Euler; for gamma in (0, 1) it is
the L1 scheme with weights a_j = (j+1)^{1-gamma} - j^{1-gamma}. Only trace
values enter the fractional memory, so the marches keep trace histories
and form cylinder fields only on request.

Every step solves the same cylinder system, and the marches solve it by
fast diagonalization (Lynch-Rice-Thomas) in the M_Omega-orthonormal
eigenbasis of the interior Omega lattice. On the uniform partition of
(0, 1) with m cells, h = 1/m and theta_k = k pi/m, k = 1..m-1, the P1
eigenpairs are closed-form:

    phi_k(j)  = sqrt(2/(m mu_k)) sin(j k pi/m),     mu_k = h (2 + cos theta_k)/3,
    lambda_k  = 6 (1 - cos theta_k) / (h^2 (2 + cos theta_k)),

and for n = 2 the Q1 modes are products phi_k x phi_l with eigenvalue
lambda_k + lambda_l, applied one axis at a time. In this basis the step
matrix splits into one tridiagonal axis problem per mode i,

    T_i = ((lambda_i + c) M_y + S_y)/d_s  on axis nodes 0..M-1,  plus c_new at (0, 0),

and eliminating the axis nodes above y = 0 leaves the scalar recurrence
w_i^{k+1} = (c_new hist_i^k + l_i^k)/(c_new + delta_i), with delta_i the
Schur complement of T_i onto y = 0. This holds only for the supported
case: the unit interval or square, the uniform lattice, A = I and a
constant reaction c >= 0.

Per mode the whole march is one lower-triangular Toeplitz solve in time
(see :class:`ModalMarch`): with x_k = w_i^{k+1} and d_j = a_j - a_{j+1},

    (c_new + delta_i) x_k - c_new sum_{j<k} d_j x_{k-1-j} = l_i^k + c_new a_k w_i^0,

and backward Euler is the case a = (1, 0, ..., 0). The inverse of a
lower-triangular Toeplitz matrix is again lower-triangular Toeplitz, so
x = h_i * g is the causal convolution of the load with the first column
h_i of the inverse, the mode's impulse response, truncated to K steps. For
L1 the impulse responses are computed once per system, by the scalar
recurrence itself (O(K^2 n)), and every march is then one FFT product
(O(n K log K)); backward Euler keeps its one-step recurrence (O(n K)).
The adjoint march solves with the transpose T_i^T = J T_i J (J reverses
time), i.e. the same convolution applied to the time-reversed loads, so it
is the exact transpose of the forward march and the discrete duality
identity holds to machine precision.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .assembly import (OmegaQuadrature, assemble_stiffness, control_load_matrix,
                       omega_matrices, omega_quadrature, step_blocks, time_average,
                       weight_integrals)
from .mesh import CylinderMesh, GradedAxis
from .problem import FractionalParams, ParameterError, ProblemData, TimeGrid


class UseDelta1Error(ParameterError):
    """Raised when L1 weights are requested for gamma outside (0, 1)."""


@dataclass(frozen=True)
class CaputoWeights:
    """L1 weights a_j = (j+1)^{1-gamma} - j^{1-gamma}, j = 0..K-1.

    ``scale`` is 1/(Gamma(2-gamma) tau^gamma); the weights are positive,
    strictly decreasing from a_0 = 1, and telescope so that
    sum_{j<k}(a_j - a_{j+1}) + a_k = 1 for every k.
    """

    gamma: float
    a: np.ndarray
    scale: float

    @property
    def diffs(self) -> np.ndarray:
        """a_j - a_{j+1} for j = 0..K-2."""
        return self.a[:-1] - self.a[1:]


def caputo_weights(gamma: float, K: int, tau: float) -> CaputoWeights:
    if not 0.0 < gamma < 1.0:
        raise UseDelta1Error(
            f"gamma = {gamma} is outside (0, 1); use the classical difference delta^1")
    if K < 1 or tau <= 0.0:
        raise ParameterError(f"invalid time grid: K = {K}, tau = {tau}")
    j = np.arange(K, dtype=float)
    a = (j + 1.0) ** (1.0 - gamma) - j ** (1.0 - gamma)
    scale = 1.0 / (math.gamma(2.0 - gamma) * tau ** gamma)
    return CaputoWeights(gamma=gamma, a=a, scale=scale)


def apply_discrete_caputo(weights: CaputoWeights, history: np.ndarray):
    """Affine decomposition of the L1 operator at the next step.

    ``history`` holds phi^0..phi^k along its first axis. Returns
    (c_new, h_known) such that delta^gamma phi^{k+1} = c_new * phi^{k+1} -
    h_known, with c_new = 1/(Gamma(2-gamma) tau^gamma).
    """
    history = np.asarray(history, dtype=float)
    if history.shape[0] < 1:
        raise ParameterError("empty history: need at least phi^0")
    k = history.shape[0] - 1
    acc = weights.a[k] * history[0]
    if k >= 1:
        d = weights.diffs[:k]
        # sum_j d_j phi^{k-j} pairs d_0..d_{k-1} with phi^k..phi^1
        acc = acc + np.tensordot(d, history[k:0:-1], axes=(0, 0))
    return weights.scale, weights.scale * acc


class ModalMarch:
    """Per-mode time-stepping solves T_i x_i = g_i for all modes at once.

    Mode i of rate r_i runs x_k = (c_new (sum_{j<k} d_j x_{k-1-j}) + g_k)/
    (c_new + r_i), k = 0..K-1, i.e. it solves the lower-triangular Toeplitz
    system with diagonal c_new + r_i and sub-diagonals -c_new d_j, where
    d_j = a_j - a_{j+1}: the L1 weights and scale for gamma < 1, and for
    backward Euler (gamma = 1) c_new = 1/tau and a = (1, 0, ..., 0). An
    initial value x^0 enters as the extra load c_new a_k x^0. Loads and
    solutions are (K, n_modes) arrays, step k in row k.

    For L1 the impulse responses h_i (first columns of T_i^{-1}) come from
    the recurrence run once on a unit impulse, and only their real FFTs,
    zero-padded to 2K and stored mode-major, are kept; a solve is then the
    causal convolution h_i * g_i truncated to K steps. Backward Euler has a
    one-step memory and keeps its recurrence.
    """

    def __init__(self, rates: np.ndarray, gamma: float, K: int, tau: float):
        self.K = K
        self.weights = caputo_weights(gamma, K, tau) if gamma < 1.0 else None
        self.c_new = 1.0 / tau if self.weights is None else self.weights.scale
        self.rate = self.c_new + np.asarray(rates, dtype=float)
        self.h_hat = None
        if self.weights is not None:
            h = self._impulse_response(self.weights.diffs)
            self.h_hat = np.fft.rfft(np.ascontiguousarray(h.T), n=2 * K)
            # reused by every solve: a fresh spectrum per call costs page faults
            self._spec = np.empty_like(self.h_hat)

    def _impulse_response(self, diffs: np.ndarray) -> np.ndarray:
        """h[m] = c_new sum_{j<m} d_j h[m-1-j]/rate from h[0] = 1/rate."""
        K = self.K
        h = np.empty((K, self.rate.size))
        h[0] = 1.0 / self.rate
        # d_{m-1}..d_0, the tail of the reversed diffs, pair with h[0]..h[m-1]
        rdiffs = np.ascontiguousarray(diffs[::-1])
        for m in range(1, K):
            h[m] = self.c_new * (rdiffs[K - 1 - m:] @ h[:m]) / self.rate
        return h

    def solve(self, g: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """x_i = T_i^{-1} (g_i + c_new a x0_i) for loads g of shape (K, n_modes).

        Returns a new (K, n_modes) array, not a view of a work buffer.
        """
        if self.h_hat is None:
            # each step in place in its row: fresh temporaries per step cost
            # more than the step's arithmetic at a few hundred modes
            x = np.empty_like(g)
            prev = np.zeros(g.shape[1:]) if x0 is None else x0
            for k in range(self.K):
                prev = np.multiply(self.c_new, prev, out=x[k])
                prev += g[k]
                prev /= self.rate
            return x
        loads = np.array(g.T, order="C")
        if x0 is not None:
            loads += np.outer(self.c_new * x0, self.weights.a)
        n_fft = 2 * self.K
        spec = np.fft.rfft(loads, n=n_fft, out=self._spec)
        spec *= self.h_hat
        # a compact copy: a view would pin the 2K-long irfft buffer
        return np.fft.irfft(spec, n=n_fft)[:, :self.K].T.copy()

    def solve_transposed(self, g: np.ndarray) -> np.ndarray:
        """x_i = T_i^{-T} g_i: the Toeplitz solve on time-reversed loads, reversed."""
        return self.solve(g[::-1])[::-1]


def lattice_modes(m: int):
    """M-orthonormal eigenpairs of the interior P1 lattice on (0, 1), h = 1/m.

    Returns (phi, lam): column k-1 of ``phi`` holds phi_k at the interior
    nodes j = 1..m-1, so phi.T @ M1 @ phi = I and phi.T @ S1 @ phi =
    diag(lam) for the interior mass M1 and stiffness S1.
    """
    h = 1.0 / m
    k = np.arange(1, m)
    theta = k * math.pi / m
    mu = h * (2.0 + np.cos(theta)) / 3.0
    # 1 - cos(theta) written as 2 sin^2(theta/2) to avoid cancellation
    lam = 12.0 * np.sin(0.5 * theta) ** 2 / (h * h * (2.0 + np.cos(theta)))
    phi = np.sin(np.outer(k, k) * (math.pi / m)) * np.sqrt(2.0 / (m * mu))
    return phi, lam


def axis_schur(axis: GradedAxis, alpha: float, rates: np.ndarray, d_s: float):
    """Schur complements onto y = 0 and harmonic profiles of the axis blocks.

    For every rate r the block (r M_y + S_y)/d_s on axis nodes 0..M-1 (the
    top node is Dirichlet) is eliminated from the top down, one interval
    at a time. Interval j has local mass (m_ll, m_lr, m_rr) and stiffness
    s; with p = r m_ll, t = r m_lr and q = r m_rr + G_{j+1}, the Schur
    complement of the intervals j..M-1 onto node j is

        G_j = r m_ll + s - (s - t)^2/(s + q) = (s (p + q + 2t) + p q - t^2)/(s + q),

    starting from G_{M-1} = r m_ll + s. The expanded form never subtracts
    the large stiffness entries of the graded intervals near y = 0, so
    delta = G_0/d_s keeps full relative precision, which the same sweep over
    the assembled tridiagonal would lose. Returns (delta, psi), psi[:, j]
    being the discrete harmonic profile with psi[:, 0] = 1 and
    psi_{j+1}/psi_j = (s - t)/(s + q).
    """
    M = axis.M
    mll, mlr, mrr, s = np.array([weight_integrals(axis.nodes[j], axis.nodes[j + 1], alpha)
                                 for j in range(M)]).T
    r = np.asarray(rates, dtype=float)
    G = r * mll[-1] + s[-1]
    ratio = np.empty((r.size, M - 1))
    for j in range(M - 2, -1, -1):
        p, t = r * mll[j], r * mlr[j]
        q = r * mrr[j] + G
        ratio[:, j] = (s[j] - t) / (s[j] + q)
        G = (s[j] * (p + q + 2.0 * t) + p * q - t * t) / (s[j] + q)
    psi = np.ones((r.size, M))
    psi[:, 1:] = np.cumprod(ratio, axis=1)
    return G / d_s, psi


class CylinderSystem:
    """Operators of one (mesh, params, grid) and their modal step solve.

    The per-step matrix c_new*M_tr + A is constant because the time step is
    uniform. In the M_Omega-orthonormal lattice basis (see the module
    docstring) it is diagonal after the axis elimination: ``delta[i]`` is
    the Schur complement of mode i onto y = 0 and ``psi[i]`` its axis
    profile. ``march`` holds the per-mode time solves with rates delta:
    for L1 it computes every mode's impulse response here, once (O(K^2 n)
    work), so each state or adjoint march is one FFT convolution (O(n K log
    K)); for backward Euler a step costs one division per mode. The control
    loads B_int z map to modal coefficients per axis through the (m-1) x m
    factor ``c1`` = phi^T B1 (:meth:`control_to_modal` and its transpose
    :meth:`modal_to_control`). No march reads the assembled free-node
    stiffness ``A_free``: it is assembled on first access, by
    :meth:`energy` or a test, and then kept.
    Supported case: unit cube, uniform lattice, A = I, constant c >= 0.
    """

    def __init__(self, mesh: CylinderMesh, params: FractionalParams,
                 grid: TimeGrid, reaction: float = 0.0):
        self.mesh = mesh
        self.params = params
        self.grid = grid
        self.reaction = reaction

        m_w, _ = omega_matrices(mesh.omega)
        interior = mesh.omega.interior_idx
        self.M_int = m_w[interior][:, interior].tocsr()
        self.quad = omega_quadrature(mesh.omega)
        self.B = control_load_matrix(mesh.omega)
        self.B_int = self.B[interior].tocsr()
        self.B_int_T = self.B_int.T.tocsr()
        self.interior = interior
        self.tpos = mesh.trace_free_pos

        m = mesh.omega.cells_per_dim
        self.phi, lam = lattice_modes(m)
        # B_int is the n-fold Kronecker power of the (m-1) x m hat-over-cell
        # matrix B1 (entries h/2); c1 = phi^T B1 is its modal factor
        b1 = 0.5 * mesh.omega.h * (np.eye(m - 1, m) + np.eye(m - 1, m, k=1))
        self.c1 = self.phi.T @ b1
        if mesh.omega.n == 2:
            lam = np.add.outer(lam, lam).ravel()
        self.delta, self.psi = axis_schur(mesh.axis, params.alpha, lam + reaction,
                                          params.d_s)
        self.march = ModalMarch(self.delta, params.gamma, grid.K, grid.tau)

    @functools.cached_property
    def A_free(self):
        """Assembled weighted stiffness on the free nodes (sparse CSR)."""
        return assemble_stiffness(self.mesh, self.params, c=self.reaction)

    @property
    def n_interior(self) -> int:
        return self.interior.size

    def to_modal(self, loads: np.ndarray) -> np.ndarray:
        """Modal coefficients phi_i . l of interior loads along the last axis."""
        phi = self.phi
        if self.mesh.omega.n == 1:
            return loads @ phi
        m1 = phi.shape[0]
        grid = loads.reshape(loads.shape[:-1] + (m1, m1))
        return (phi.T @ grid @ phi).reshape(loads.shape)

    def from_modal(self, coeffs: np.ndarray) -> np.ndarray:
        """Interior nodal values sum_i coeffs_i phi_i along the last axis."""
        phi = self.phi
        if self.mesh.omega.n == 1:
            return coeffs @ phi.T
        m1 = phi.shape[0]
        grid = coeffs.reshape(coeffs.shape[:-1] + (m1, m1))
        return (phi @ grid @ phi.T).reshape(coeffs.shape)

    def control_to_modal(self, z: np.ndarray) -> np.ndarray:
        """Modal coefficients of the control loads, to_modal(B_int z), along the last axis.

        Applied per axis as c1 Z c1^T, never through a dense phi^T B_int.
        """
        c1 = self.c1
        if self.mesh.omega.n == 1:
            return z @ c1.T
        m1, m = c1.shape
        grid = z.reshape(z.shape[:-1] + (m, m))
        return (c1 @ grid @ c1.T).reshape(z.shape[:-1] + (m1 * m1,))

    def modal_to_control(self, coeffs: np.ndarray) -> np.ndarray:
        """B_int^T from_modal(coeffs) along the last axis: the transpose of control_to_modal."""
        c1 = self.c1
        if self.mesh.omega.n == 1:
            return coeffs @ c1
        m1, m = c1.shape
        grid = coeffs.reshape(coeffs.shape[:-1] + (m1, m1))
        return (c1.T @ grid @ c1).reshape(coeffs.shape[:-1] + (m * m,))

    def field(self, coeffs: np.ndarray) -> np.ndarray:
        """Free-node fields sum_i coeffs_i phi_i x psi_i of trace coefficients.

        ``coeffs`` has the modes on its last axis; the result replaces it
        by the free-node vector (interior vertex major, axis node minor).
        """
        nodal = self.from_modal(coeffs[..., None, :] * self.psi.T)  # (..., M, n_int)
        return np.swapaxes(nodal, -1, -2).reshape(coeffs.shape[:-1] + (-1,))

    def initial_field(self, u0) -> np.ndarray:
        """Discrete weighted-harmonic extension of u0, as a free-node vector.

        The trace is the M_Omega-projection of the nodal values of u0 onto
        the lattice modes (the nodal values themselves, up to roundoff); the
        remaining free nodes solve a_Y(V0, W) = 0 against all test functions
        vanishing at y = 0, which per mode is the axis profile psi_i.
        """
        u0v = np.asarray(u0(self.mesh.omega.vertices[self.interior]), dtype=float)
        return self.field(self.to_modal(self.M_int @ u0v))

    def energy(self, v_free: np.ndarray) -> float:
        """a_Y(v, v) of a free-node coefficient vector."""
        return float(v_free @ (self.A_free @ v_free))


@dataclass
class StateTrajectory:
    """Trace history of the discrete state, steps 0..K.

    ``traces`` holds the values at the interior Omega vertices; the trace
    function is zero on the boundary ones. ``fields`` optionally keeps the
    full free-node field of every step.
    """

    traces: np.ndarray            # (K+1, n_interior)
    grid: TimeGrid
    fields: np.ndarray | None = None

    def trace_coeffs(self, k: int, mesh: CylinderMesh) -> np.ndarray:
        """Coefficients over all Omega vertices at step k (zeros on boundary)."""
        full = np.zeros(mesh.omega.n_vertices)
        full[mesh.omega.interior_idx] = self.traces[k]
        return full


@dataclass
class AdjointTrajectory:
    """Trace history of the discrete adjoint, steps 0..K; entry K is zero."""

    traces: np.ndarray            # (K+1, n_interior)
    grid: TimeGrid


def _check_loads(system: CylinderSystem, loads: np.ndarray) -> None:
    shape = (system.grid.K, system.n_interior)
    if loads.shape != shape:
        raise ParameterError(f"loads must have shape {shape}, got {loads.shape}")


def _check_traces(last: np.ndarray, march: str) -> None:
    # Only the march's last computed step is scanned: a NaN or inf in a load
    # or in the initial trace reaches it, through the backward Euler recurrence
    # or the L1 convolution (an FFT spreads it to every step), and the dense
    # sine-basis products back from modal coordinates carry it to the nodes.
    if not np.isfinite(last).all():
        raise ParameterError(f"{march} produced non-finite traces; check its loads "
                             "and initial datum")


def state_march(system: CylinderSystem, trace0: np.ndarray,
                loads: np.ndarray, keep_fields: bool = False) -> StateTrajectory:
    """Forward march: loads[k] is the trace-interior load of step k+1.

    The loads are transformed to modal coordinates once, every mode solves
    its Toeplitz system in time (:class:`ModalMarch`), and the traces (and,
    with ``keep_fields``, the cylinder fields) are transformed back once.
    Raises ParameterError when a trace is not finite.
    """
    _check_loads(system, loads)
    w0 = system.to_modal(system.M_int @ trace0)
    modal = system.march.solve(system.to_modal(loads), w0)
    traces = np.empty((system.grid.K + 1, system.n_interior))
    traces[0] = trace0
    traces[1:] = system.from_modal(modal)
    _check_traces(traces[-1], "state march")
    fields = None
    if keep_fields:
        fields = np.zeros((system.grid.K + 1, system.mesh.n_free))
        fields[1:] = system.field(modal)
    return StateTrajectory(traces=traces, grid=system.grid, fields=fields)


def adjoint_march(system: CylinderSystem, loads: np.ndarray) -> AdjointTrajectory:
    """Backward march with terminal value zero; loads[j] drives step j.

    Per mode this solves with the transpose of the forward Toeplitz matrix
    (the forward solve on time-reversed loads), so it is the exact
    transpose of :func:`state_march`, in the same modal coordinates.
    Raises ParameterError when a trace is not finite.
    """
    _check_loads(system, loads)
    modal = system.march.solve_transposed(system.to_modal(loads))
    traces = np.zeros((system.grid.K + 1, system.n_interior))
    traces[:-1] = system.from_modal(modal)
    _check_traces(traces[0], "adjoint march")
    return AdjointTrajectory(traces=traces, grid=system.grid)


def forcing_loads(f, grid: TimeGrid, mesh: CylinderMesh,
                  quad: OmegaQuadrature, interior: np.ndarray,
                  what: str = "forcing") -> np.ndarray:
    """Interior-node loads of the step averages f^{k+1}, k = 0..K-1.

    f is evaluated once per block of steps (:func:`step_blocks`); ``what``
    names it in data errors.
    """
    out = np.empty((grid.K, interior.size))
    # (S V^T)^T is what V @ S^T computes, without transposing S on every block
    scatter = quad.scatter[interior]
    for steps, t0, t1 in step_blocks(grid, quad.points.shape[0]):
        out[steps] = (scatter @ time_average(f, quad.points, t0, t1, what).T).T
    return out


def solve_state(data: ProblemData, params: FractionalParams, mesh: CylinderMesh,
                grid: TimeGrid, control=None, system: CylinderSystem | None = None,
                keep_fields: bool = False) -> StateTrajectory:
    """Fully discrete state solve for given data and (optional) control.

    ``control`` may be a ControlField or a plain (K, n_cells) array; it adds
    B Z^{k+1} to the load of every step. A non-finite control or initial
    datum raises ParameterError from :func:`state_march`.
    """
    if system is None:
        system = CylinderSystem(mesh, params, grid, reaction=data.reaction)
    loads = forcing_loads(data.forcing, grid, mesh, system.quad, system.interior)
    if control is not None:
        zvals = np.asarray(getattr(control, "values", control), dtype=float)
        if zvals.shape != (grid.K, mesh.omega.n_cells):
            raise ParameterError(
                f"control must have shape {(grid.K, mesh.omega.n_cells)}, got {zvals.shape}")
        loads = loads + (system.B_int @ zvals.T).T
    v0 = system.initial_field(data.initial)
    traj = state_march(system, v0[system.tpos], loads, keep_fields=keep_fields)
    if keep_fields:
        traj.fields[0] = v0
    return traj


def tracking_loads(state: StateTrajectory, u_d, grid: TimeGrid,
                   system: CylinderSystem) -> np.ndarray:
    """Adjoint loads M tr V^{k+1} - <u_d^{k+1}, phi_i> for k = 0..K-1."""
    b_ud = forcing_loads(u_d, grid, system.mesh, system.quad, system.interior,
                         what="desired state")
    return (system.M_int @ state.traces[1:].T).T - b_ud


def solve_adjoint(state: StateTrajectory, u_d, params: FractionalParams,
                  mesh: CylinderMesh, grid: TimeGrid,
                  system: CylinderSystem | None = None) -> AdjointTrajectory:
    """Discrete adjoint driven by the tracking residual of ``state``."""
    if system is None:
        system = CylinderSystem(mesh, params, grid)
    return adjoint_march(system, tracking_loads(state, u_d, grid, system))


def lambda_diagnostic(trace_sq, gamma: float, grid: TimeGrid,
                      forcing_sq=None) -> float:
    """Discrete stability functional Lambda_gamma^2.

    ``trace_sq`` holds the squared L2(Omega) norms of the trace at steps
    0..K; the fractional integral I^{1-gamma} of the piecewise-constant
    interpolant (value of step k on (t_{k-1}, t_k]) is evaluated at T by
    exact integration of the kernel over each step. ``forcing_sq`` holds
    per-step squared norms of the forcing (steps 1..K) and contributes the
    l2 sum tau * sum forcing_sq.
    """
    trace_sq = np.asarray(trace_sq, dtype=float)
    K = trace_sq.size - 1
    if K != grid.K:
        raise ParameterError(f"history length {trace_sq.size} does not match K = {grid.K}")
    if gamma >= 1.0:
        value = trace_sq[-1]
    else:
        sigma = 1.0 - gamma
        t = grid.nodes
        kernel = ((grid.T - t[:-1]) ** sigma - (grid.T - t[1:]) ** sigma)
        value = float(kernel @ trace_sq[1:]) / math.gamma(2.0 - gamma)
    if forcing_sq is not None:
        value += grid.tau * float(np.sum(forcing_sq))
    return value
