"""Time discretization: Caputo L1 weights, state and adjoint marches.

For gamma = 1 the step operator is backward Euler; for gamma in (0, 1) it is
the L1 scheme with weights a_j = (j+1)^{1-gamma} - j^{1-gamma}. Only trace
values enter the fractional memory, so the marches keep trace histories.

Every step solves the same cylinder system, and the marches solve it by
fast diagonalization (Lynch-Rice-Thomas) in the M_Omega-orthonormal
eigenbasis of the interior Omega lattice. On the uniform partition of
(0, 1) with m cells, h = 1/m and theta_k = k pi/m, k = 1..m-1, the P1
eigenpairs are closed-form:

    phi_k(j)  = sqrt(2/(m mu_k)) sin(j k pi/m),     mu_k = h (2 + cos theta_k)/3,
    lambda_k  = 6 (1 - cos theta_k) / (h^2 (2 + cos theta_k)),

and on (0, 1)^n the Q1 modes are the products phi_k1 x ... x phi_kn with
eigenvalue lambda_k1 + ... + lambda_kn. The elements are tensor products,
so every Omega operator the solver needs (the modes, the interior mass,
the control loads and their transpose) is the n-fold Kronecker power of a
1D factor: :class:`CylinderSystem` keeps the 1D factors only and applies
them one axis at a time. In this basis the step
matrix splits into one tridiagonal axis problem per mode i,

    T_i = ((lambda_i + c) M_y + S_y)/d_s  on axis nodes 0..M-1,  plus c_new at (0, 0),

and eliminating the axis nodes above y = 0 leaves the scalar recurrence
w_i^{k+1} = (c_new hist_i^k + l_i^k)/(c_new + delta_i), with delta_i the
Schur complement of T_i onto y = 0. This holds only for the supported
case: the unit cube (0, 1)^n, the uniform lattice, A = I and a constant
reaction c >= 0.

Per mode the whole march is one lower-triangular Toeplitz solve in time
(see :class:`ModalMarch`): with x_k = w_i^{k+1} and d_j = a_j - a_{j+1},

    (c_new + delta_i) x_k - c_new sum_{j<k} d_j x_{k-1-j} = l_i^k + c_new a_k w_i^0,

and backward Euler is the case a = (1, 0, ..., 0). The inverse of a
lower-triangular Toeplitz matrix is again lower-triangular Toeplitz, so
x = h_i * g is the causal convolution of the load with the first column
h_i of the inverse, the mode's impulse response, truncated to K steps: the
power series of 1/(c_new + delta_i - c_new z D(z)), D(z) = sum_j d_j z^j.
For L1 the impulse responses are computed once per system, by Newton
iteration on that reciprocal (O(n K log K), :func:`impulse_responses`),
and every march is then one FFT product (O(n K log K)); backward Euler
keeps its one-step recurrence (O(n K)).
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

from .assembly import (OmegaQuadrature, assemble_stiffness, kron_apply,
                       omega_quadrature, step_blocks, time_average, weight_integrals)
from .mesh import CylinderMesh, GradedAxis, OmegaMesh
from .problem import FractionalParams, ParameterError, ProblemData, TimeGrid


@dataclass(frozen=True)
class CaputoWeights:
    """L1 weights a_j = (j+1)^{1-gamma} - j^{1-gamma}, j = 0..K-1.

    ``scale`` is 1/(Gamma(2-gamma) tau^gamma); the weights are positive,
    strictly decreasing from a_0 = 1, and telescope so that
    sum_{j<k}(a_j - a_{j+1}) + a_k = 1 for every k.
    """

    a: np.ndarray
    scale: float

    @property
    def diffs(self) -> np.ndarray:
        """a_j - a_{j+1} for j = 0..K-2."""
        return self.a[:-1] - self.a[1:]


def caputo_weights(gamma: float, K: int, tau: float) -> CaputoWeights:
    if not 0.0 < gamma < 1.0:
        raise ParameterError(
            f"gamma = {gamma} is outside (0, 1); use the classical difference delta^1")
    if K < 1 or tau <= 0.0:
        raise ParameterError(f"invalid time grid: K = {K}, tau = {tau}")
    j = np.arange(K, dtype=float)
    a = (j + 1.0) ** (1.0 - gamma) - j ** (1.0 - gamma)
    scale = 1.0 / (math.gamma(2.0 - gamma) * tau ** gamma)
    return CaputoWeights(a=a, scale=scale)


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


# steps of the direct recurrence before the Newton doublings take over
_START_BLOCK = 32


def impulse_responses(rate: np.ndarray, c_new: float, diffs: np.ndarray,
                      K: int) -> np.ndarray:
    """First K coefficients of 1/(rate_i - Q(z)) per mode, as an (n_modes, K) array.

    Q(z) = c_new z D(z) with D(z) = sum_j d_j z^j, d_j = diffs[j], so row i
    is mode i's impulse response. The first min(K, 32) coefficients come
    from the direct recurrence h_k = c_new sum_{j<k} d_j h_{k-1-j} / rate_i,
    in its step-major order, so marches of up to 32 steps keep its rounding.
    Each Newton step for the power-series reciprocal (Brent-Kung) then takes
    the m known coefficients H of every mode to 2m (at most K) with real
    FFTs of length 2m, in O(n K log K) work overall:

        E = (Q H)[m:2m]     (a middle product: the cyclic wrap lands below m),
        H[m:2m] = (H E)[0:m].

    Every term is nonnegative (d_j > 0, rate_i > 0), so nothing cancels and
    the error is the FFT's, absolute in the norms of the factors. The head
    q_1..q_32 dominates the norm of Q and so enters the middle product
    exactly. The largest difference from the recurrence, relative to the
    largest entry, is then below 3e-16 for gamma <= 0.5 and 1.3e-14 for
    gamma = 0.9 (K <= 4096; 2e-13 without the exact head).
    """
    h = np.empty((rate.size, K))
    m = min(K, _START_BLOCK)
    start = np.empty((m, rate.size))
    start[0] = 1.0 / rate
    # d_{k-1}..d_0, the tail of the reversed diffs, pair with h_0..h_{k-1}
    rdiffs = np.ascontiguousarray(diffs[:m - 1][::-1])
    for k in range(1, m):
        start[k] = c_new * (rdiffs[m - 1 - k:] @ start[:k]) / rate
    h[:, :m] = start.T
    if m == K:
        return h
    q = np.zeros(K)
    q[1:] = c_new * diffs
    # the exact head of the middle product: head[i, k] = q_{b+k-i} (k <= i)
    # pairs h_{m-b+i} with E_k, and the FFT sees only the tail q_{b+1}..
    b = _START_BLOCK
    i = np.arange(b)
    head = np.tril(q[b - np.abs(np.subtract.outer(i, i))])
    q[:b + 1] = 0.0
    while m < K:
        n_fft, top = 2 * m, min(2 * m, K)
        h_spec = np.fft.rfft(h[:, :m], n=n_fft)
        spec = h_spec * np.fft.rfft(q[:top], n=n_fft)
        err = np.fft.irfft(spec, n=n_fft)[:, m:top]
        w = min(b, top - m)
        err[:, :w] += h[:, m - b:m] @ head[:, :w]
        spec = np.fft.rfft(err, n=n_fft, out=spec)
        spec *= h_spec
        # free the 2m-long irfft buffer behind err before the next one
        del err, h_spec
        h[:, m:top] = np.fft.irfft(spec, n=n_fft)[:, :top - m]
        m = top
    return h


class ModalMarch:
    """Per-mode time-stepping solves T_i x_i = g_i for all modes at once.

    Mode i of rate r_i runs x_k = (c_new (sum_{j<k} d_j x_{k-1-j}) + g_k)/
    (c_new + r_i), k = 0..K-1, i.e. it solves the lower-triangular Toeplitz
    system with diagonal c_new + r_i and sub-diagonals -c_new d_j, where
    d_j = a_j - a_{j+1}: the L1 weights and scale for gamma < 1, and for
    backward Euler (gamma = 1) c_new = 1/tau and a = (1, 0, ..., 0). An
    initial value x^0 enters as the extra load c_new a_k x^0. Loads and
    solutions are (K, n_modes) arrays, step k in row k. Every rate must be
    finite with c_new + r_i > 0, or ParameterError is raised.

    For L1 the impulse responses h_i (first columns of T_i^{-1}) are the
    power-series reciprocals of c_new + r_i - c_new z D(z), computed by
    Newton iteration in O(n K log K) (:func:`impulse_responses`); only
    their real FFTs, zero-padded to 2K and stored mode-major, are kept, and
    a solve is the causal convolution h_i * g_i truncated to K steps.
    Backward Euler has a one-step memory and keeps its recurrence.
    """

    def __init__(self, rates: np.ndarray, gamma: float, K: int, tau: float):
        self.K = K
        self.weights = caputo_weights(gamma, K, tau) if gamma < 1.0 else None
        self.c_new = 1.0 / tau if self.weights is None else self.weights.scale
        self.rate = self.c_new + np.asarray(rates, dtype=float)
        if not (np.isfinite(self.rate).all() and (self.rate > 0.0).all()):
            raise ParameterError("march rates must be finite with c_new + rate > 0")
        self.h_hat = None
        if self.weights is not None:
            self.h_hat = np.fft.rfft(
                impulse_responses(self.rate, self.c_new, self.weights.diffs, K), n=2 * K)
            # reused by every solve: a fresh spectrum per call costs page faults
            self._spec = np.empty_like(self.h_hat)

    def solve(self, g: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """x_i = T_i^{-1} (g_i + c_new a x0_i) for loads g of shape (K, n_modes).

        Returns a new (K, n_modes) array, not a view of a work buffer. Loads
        of any other shape raise ParameterError.
        """
        if g.shape != (self.K, self.rate.size):
            raise ParameterError(f"march loads must have shape {(self.K, self.rate.size)}, "
                                 f"got {g.shape}")
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


def lattice_factors(omega: OmegaMesh):
    """The 1D factors (phi, lam, m1, b1, c1) of the lattice's operators, read-only.

    ``phi`` and ``lam`` are the modes and eigenvalues of :func:`lattice_modes`,
    ``m1`` = (h/6) tridiag(1, 4, 1) the interior P1 mass, ``b1`` the
    (m-1) x m hat-over-cell matrix (entries h/2) and ``c1`` = phi^T b1 the
    modal control factor. A system takes them through ``omega.kept``, so
    they are built once per lattice and shared by every system on it.
    """
    m, h = omega.cells_per_dim, omega.h
    phi, lam = lattice_modes(m)
    m1 = h / 6.0 * (4.0 * np.eye(m - 1) + np.eye(m - 1, k=1) + np.eye(m - 1, k=-1))
    b1 = 0.5 * h * (np.eye(m - 1, m) + np.eye(m - 1, m, k=1))
    factors = (phi, lam, m1, b1, phi.T @ b1)
    for a in factors:
        a.flags.writeable = False
    return factors


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
    mll, mlr, mrr, s = weight_integrals(axis.nodes[:-1], axis.nodes[1:], alpha)
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
    for L1 it computes every mode's impulse response here, once (O(n K log
    K) work, by Newton iteration), so each state or adjoint march is one FFT
    convolution (O(n K log K)); for backward Euler a step costs one division
    per mode.

    Every Omega operator is kept as its 1D factor on the uniform partition
    with m cells and applied per axis as its n-fold Kronecker power
    (:func:`~fracopt.assembly.kron_apply`): the modes ``phi``, the interior
    P1 mass ``m1`` = (h/6) tridiag(1, 4, 1), the (m-1) x m hat-over-cell
    matrix ``b1`` (entries h/2) and the modal control factor ``c1`` =
    phi^T b1. These and the Gauss rule ``quad`` belong to the lattice
    (:func:`lattice_factors`, :func:`~fracopt.assembly.omega_quadrature`):
    built once per lattice, read-only, and shared by its systems. So
    :meth:`mass` applies the interior mass M_int, :meth:`control_loads` the
    control loads B_int and :meth:`cell_integrals` B_int^T; no n-dimensional
    Omega matrix is assembled, and the lattice eigenvalues are the n-fold
    outer sum of the 1D ones. The state is kept as its trace at y = 0 (per
    mode the extension is ``psi[i]`` times it). No
    march reads the assembled free-node stiffness ``A_free``, which the
    sparse oracles use: it is assembled on first access and then kept.
    Supported case: unit cube, uniform lattice, A = I, constant c >= 0.
    """

    def __init__(self, mesh: CylinderMesh, params: FractionalParams,
                 grid: TimeGrid, reaction: float = 0.0):
        self.mesh = mesh
        self.params = params
        self.grid = grid
        self.reaction = reaction

        self.n = mesh.omega.n
        self.quad = omega_quadrature(mesh.omega)
        self.interior = mesh.omega.interior_idx
        self.phi, lam, self.m1, self.b1, self.c1 = mesh.omega.kept(lattice_factors)
        lam = functools.reduce(np.add.outer, [lam] * self.n).ravel()
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
        return kron_apply(self.phi.T, loads, self.n)

    def from_modal(self, coeffs: np.ndarray) -> np.ndarray:
        """Interior nodal values sum_i coeffs_i phi_i along the last axis."""
        return kron_apply(self.phi, coeffs, self.n)

    def control_to_modal(self, z: np.ndarray) -> np.ndarray:
        """Modal coefficients of the control loads, to_modal(B_int z), along the last axis."""
        return kron_apply(self.c1, z, self.n)

    def modal_to_control(self, coeffs: np.ndarray) -> np.ndarray:
        """B_int^T from_modal(coeffs) along the last axis: the transpose of control_to_modal."""
        return kron_apply(self.c1.T, coeffs, self.n)

    def mass(self, x: np.ndarray) -> np.ndarray:
        """M_int x: the interior Omega mass applied to interior values along the last axis."""
        return kron_apply(self.m1, x, self.n)

    def control_loads(self, z: np.ndarray) -> np.ndarray:
        """B_int z: interior loads sum_c z_c int_c phi_i of cell values along the last axis."""
        return kron_apply(self.b1, z, self.n)

    def cell_integrals(self, trace: np.ndarray) -> np.ndarray:
        """B_int^T tr: per-cell integrals of interior trace values along the last axis."""
        return kron_apply(self.b1.T, trace, self.n)

    def initial_field(self, u0) -> np.ndarray:
        """Initial trace: the nodal interpolant of u0 at the interior vertices.

        It is also the trace of the discrete weighted-harmonic extension of
        u0: per mode the extension is the axis profile psi_i, equal to 1 at
        y = 0, and the lattice modes are a complete M_Omega-orthonormal basis.
        """
        return np.asarray(u0(self.mesh.omega.vertices[self.interior]), dtype=float)


@dataclass
class Trajectory:
    """Trace history of a march, steps 0..K; an adjoint's entry K is zero.

    ``traces`` holds the values at the interior Omega vertices; the trace
    function is zero on the boundary ones.
    """

    traces: np.ndarray            # (K+1, n_interior)


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


def state_trajectory(system: CylinderSystem, trace0: np.ndarray,
                     modal: np.ndarray) -> Trajectory:
    """Nodal state traces: trace0, then the modal coefficients of steps 1..K transformed back.

    Raises ParameterError when a trace is not finite.
    """
    traces = np.empty((system.grid.K + 1, system.n_interior))
    traces[0] = trace0
    traces[1:] = system.from_modal(modal)
    _check_traces(traces[-1], "state march")
    return Trajectory(traces)


def adjoint_trajectory(system: CylinderSystem, modal: np.ndarray) -> Trajectory:
    """Nodal adjoint traces: the modal coefficients of steps 0..K-1 transformed back, then zero.

    Raises ParameterError when a trace is not finite.
    """
    traces = np.zeros((system.grid.K + 1, system.n_interior))
    traces[:-1] = system.from_modal(modal)
    _check_traces(traces[0], "adjoint march")
    return Trajectory(traces)


def state_march(system: CylinderSystem, trace0: np.ndarray,
                loads: np.ndarray) -> Trajectory:
    """Forward march: loads[k] is the trace-interior load of step k+1.

    The loads are transformed to modal coordinates once, every mode solves
    its Toeplitz system in time (:class:`ModalMarch`), and the traces are
    transformed back once (:func:`state_trajectory`).
    Raises ParameterError when a trace is not finite.
    """
    _check_loads(system, loads)
    w0 = system.to_modal(system.mass(trace0))
    return state_trajectory(system, trace0, system.march.solve(system.to_modal(loads), w0))


def adjoint_march(system: CylinderSystem, loads: np.ndarray) -> Trajectory:
    """Backward march with terminal value zero; loads[j] drives step j.

    Per mode this solves with the transpose of the forward Toeplitz matrix
    (the forward solve on time-reversed loads), so it is the exact
    transpose of :func:`state_march`, in the same modal coordinates.
    Raises ParameterError when a trace is not finite.
    """
    _check_loads(system, loads)
    return adjoint_trajectory(system, system.march.solve_transposed(system.to_modal(loads)))


def forcing_loads(f, grid: TimeGrid, quad: OmegaQuadrature) -> np.ndarray:
    """Interior-node loads of the step averages f^{k+1}, k = 0..K-1.

    f is evaluated once per block of steps (:func:`step_blocks`).
    """
    out = np.empty((grid.K, quad.hats.shape[1] ** quad.n))
    avg = None
    for steps, t0, t1 in step_blocks(grid, quad.points.shape[0]):
        avg = time_average(f, quad.points, t0, t1, "forcing", out=avg)
        out[steps] = quad.loads(avg)
    return out


def solve_state(system: CylinderSystem, data: ProblemData, control=None) -> Trajectory:
    """Fully discrete state solve of ``system`` for given data and (optional) control.

    The system fixes mesh, orders, time grid and reaction: data of another
    ``reaction`` raise ParameterError, as does a ``control`` that is not a
    (K, n_cells) array; it adds B Z^{k+1} to the load of every step. A
    non-finite control or initial datum raises it from :func:`state_march`.
    """
    if data.reaction != system.reaction:
        raise ParameterError(f"data have the reaction {data.reaction}, but the system "
                             f"was built for {system.reaction}")
    loads = forcing_loads(data.forcing, system.grid, system.quad)
    if control is not None:
        control = np.asarray(control, dtype=float)
        shape = (system.grid.K, system.mesh.omega.n_cells)
        if control.shape != shape:
            raise ParameterError(f"control must have shape {shape}, got {control.shape}")
        loads = loads + system.control_loads(control)
    return state_march(system, system.initial_field(data.initial), loads)


def lambda_diagnostic(trace_sq, gamma: float, grid: TimeGrid) -> float:
    """Discrete stability functional Lambda_gamma^2.

    ``trace_sq`` holds the squared L2(Omega) norms of the trace at steps
    0..K; the fractional integral I^{1-gamma} of the piecewise-constant
    interpolant (value of step k on (t_{k-1}, t_k]) is evaluated at T by
    exact integration of the kernel over each step.
    """
    trace_sq = np.asarray(trace_sq, dtype=float)
    K = trace_sq.size - 1
    if K != grid.K:
        raise ParameterError(f"history length {trace_sq.size} does not match K = {grid.K}")
    if gamma >= 1.0:
        return trace_sq[-1]
    sigma = 1.0 - gamma
    t = grid.nodes
    kernel = ((grid.T - t[:-1]) ** sigma - (grid.T - t[1:]) ** sigma)
    return float(kernel @ trace_sq[1:]) / math.gamma(2.0 - gamma)
