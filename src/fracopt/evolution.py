"""Time discretization: Caputo L1 weights, state and adjoint marches.

The discrete Caputo derivative of order gamma in (0, 1] is the L1 scheme, weights
a_j = (j+1)^{1-gamma} - j^{1-gamma} (:class:`CaputoWeights`), backward Euler at gamma = 1.
Only trace values enter the fractional memory, so the marches keep modal trace histories.

Every step solves the same cylinder system, and the marches solve it by
fast diagonalization (Lynch-Rice-Thomas) in the M_Omega-orthonormal
eigenbasis of the interior Omega lattice. On the uniform partition of
(0, 1) with m cells, h = 1/m and theta_k = k pi/m, k = 1..m-1, the P1
eigenpairs are closed-form:

    phi_k(j)  = sqrt(2/(m mu_k)) sin(j k pi/m),     mu_k = h (2 + cos theta_k)/3,
    lambda_k  = 6 (1 - cos theta_k) / (h^2 (2 + cos theta_k)),

and on (0, 1)^n the Q1 modes are the products phi_k1 x ... x phi_kn with
eigenvalue lambda_k1 + ... + lambda_kn. The elements are tensor products,
so every Omega map the solver applies (the modes and their inverse, the
modal loads of controls and of Gauss-point values, and their transposes)
is the n-fold Kronecker power of one 1D factor: the lattice keeps only those
(:class:`LatticeFactors`, :class:`PointFactors`), applied per axis. In this basis the step
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
For L1 the impulse responses are computed once per system and distinct
rate, by Newton iteration on that reciprocal (O(n K log K), :func:`impulse_responses`),
and their spectra are kept once per distinct rate. Every march is then one
FFT product (O(n K log K)), taken a block of modes at a time through work
buffers of one block; backward Euler keeps its one-step recurrence (O(n K)).
The adjoint march solves with the transpose T_i^T = J T_i J (J reverses
time), i.e. the same convolution applied to the time-reversed loads, so it
is the exact transpose of the forward march and the discrete duality
identity holds to machine precision.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import (assemble_stiffness, at_points, checked_values, factor_values,
                       kron_apply, omega_quadrature, separable_loads, step_blocks, step_profiles,
                       time_average, time_profiles, weight_integrals)
from .mesh import CylinderMesh, GradedAxis, OmegaMesh
from .problem import FractionalParams, ParameterError, ProblemData, TimeGrid, separable


@dataclass(frozen=True)
class CaputoWeights:
    """L1 weights a_j = (j+1)^{1-gamma} - j^{1-gamma}, j = 0..K-1, and the operator they define.

    ``scale`` is 1/(Gamma(2-gamma) tau^gamma). The weights fall from a_0 = 1,
    strictly for gamma < 1, and telescope: sum_{j<k}(a_j - a_{j+1}) + a_k = 1
    for every k. At gamma = 1 they are a = (1, 0, ..., 0), scale 1/tau: backward Euler.
    """

    a: np.ndarray
    scale: float

    @property
    def diffs(self) -> np.ndarray:
        """a_j - a_{j+1} for j = 0..K-2."""
        return self.a[:-1] - self.a[1:]

    def __call__(self, history) -> np.ndarray:
        """delta^gamma of a history phi^0..phi^n, n <= K, on the first axis; row 0 is zero.

        Row k is scale (phi^k - a_{k-1} phi^0 - sum_{j<k-1} d_j phi^{k-1-j}), d = ``diffs``.
        """
        phi = np.asarray(history, dtype=float)
        n = len(phi) - 1 if phi.ndim else -1
        if not 0 <= n <= self.a.size:
            raise ParameterError(f"a history needs 1 to K + 1 entries, got shape {phi.shape}")
        out = np.zeros(phi.shape)
        out[1:] = self.scale * (phi[1:] - np.multiply.outer(self.a[:n], phi[0]))
        if n > 1 and phi.size:
            # the memory sum of row k is entry k-2 of the convolution d * phi[1:]
            memory = np.apply_along_axis(np.convolve, 0, phi[1:], self.diffs[:n - 1])
            out[2:] -= self.scale * memory[:n - 1]
        return out


def caputo_weights(gamma: float, K: int, tau: float) -> CaputoWeights:
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma = {gamma} is outside (0, 1]")
    TimeGrid(K * tau, K)    # K an integer >= 1, K tau finite and > 0
    a = np.diff(np.arange(K + 1.0) ** (1.0 - gamma))
    a[0] = 1.0      # 1^0 - 0^0 would be 0 at gamma = 1
    scale = 1.0 / (math.gamma(2.0 - gamma) * tau ** gamma)
    return CaputoWeights(a=a, scale=scale)


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


# time samples per block of modes in an L1 solve: a block's work buffers take
# a few hundred KB, whatever K and the number of modes
_BLOCK_SAMPLES = 2 ** 14


class ModalMarch:
    """Per-mode time-stepping solves T_i x_i = g_i for all modes at once.

    Mode i of rate r_i runs x_k = (c_new (sum_{j<k} d_j x_{k-1-j}) + g_k)/
    (c_new + r_i), k = 0..K-1, i.e. it solves the lower-triangular Toeplitz
    system with diagonal c_new + r_i and sub-diagonals -c_new d_j, where
    d_j = a_j - a_{j+1} and c_new = scale of the ``weights`` (:class:`CaputoWeights`).
    An initial value x^0 enters as the extra load c_new a_k x^0. Loads and
    solutions are (K, n_modes) arrays, step k in row k. Every rate must be
    finite with c_new + r_i > 0, or ParameterError is raised.

    For L1 a solve is the causal convolution h_i * g_i truncated to K steps
    (see the module docstring), one real FFT of length 2K per mode. A
    response h_i (:func:`impulse_responses`) depends on the rate alone, so
    ``h_hat`` keeps the FFT of one response per distinct rate, and mode i
    reads row ``rate_index[i]``. A solve runs over blocks of ``block`` modes,
    about 2^14 time samples each (one mode from K = 16384 on), through three
    work buffers of one block that the march owns: the loads, their spectrum
    and the 2K-long inverse. So a solve allocates its result and nothing of
    the family's size, and each mode's FFTs, hence its bits, do not depend on
    the block. Backward Euler keeps its one-step recurrence, which is faster.
    """

    def __init__(self, rates: np.ndarray, gamma: float, K: int, tau: float):
        self.K = K
        self.weights = caputo_weights(gamma, K, tau)
        self.c_new = self.weights.scale
        self.rate = self.c_new + np.asarray(rates, dtype=float)
        if not (np.isfinite(self.rate).all() and (self.rate > 0.0).all()):
            raise ParameterError("march rates must be finite with c_new + rate > 0")
        self.h_hat = None
        if gamma < 1.0:
            rate, self.rate_index = np.unique(self.rate, return_inverse=True)
            self.h_hat = np.fft.rfft(
                impulse_responses(rate, self.c_new, self.weights.diffs, K), n=2 * K)
            # at least 1, so that a lattice without interior nodes (no modes) steps too
            self.block = max(1, min(self.rate.size, _BLOCK_SAMPLES // K))
            # reused by every block of every solve: fresh ones cost page faults.
            # Two extra columns let the inverse's buffer first hold, read as
            # complex, the block's rows of h_hat.
            self._loads = np.empty((self.block, K))
            self._loads_hat = np.empty((self.block, K + 1), dtype=complex)
            self._inverse = np.empty((self.block, 2 * K + 2))

    def solve(self, g: np.ndarray | None, x0: np.ndarray | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
        """x_i = T_i^{-1} (g_i + c_new a x0_i) for loads g of shape (K, n_modes).

        g = None stands for zero loads. Returns a new (K, n_modes) array, or ``out``,
        never a view of a work buffer. Loads of any other shape raise ParameterError.
        """
        shape = (self.K, self.rate.size)
        if g is not None and g.shape != shape:
            raise ParameterError(f"march loads must have shape {shape}, got {g.shape}; "
                                 "only a system of one height takes loads")
        x = np.empty(shape) if out is None else out
        if self.h_hat is None:
            # each step in place in its row: fresh temporaries per step cost
            # more than the step's arithmetic at a few hundred modes
            prev = np.zeros(self.rate.size) if x0 is None else x0
            for k in range(self.K):
                prev = np.multiply(self.c_new, prev, out=x[k])
                if g is not None:
                    prev += g[k]
                prev /= self.rate
            return x
        K, n_fft = self.K, 2 * self.K
        c_x0 = None if x0 is None else self.c_new * x0
        for start in range(0, shape[1], self.block):
            modes = slice(start, min(start + self.block, shape[1]))
            rows = modes.stop - start
            loads, spec, inv = self._loads[:rows], self._loads_hat[:rows], self._inverse[:rows]
            if g is not None:
                loads[...] = g[:, modes].T
            elif c_x0 is None:
                loads.fill(0.0)
            if c_x0 is not None:
                # the initial value's load c_new a x0 by a rank-1 matmul into contiguous
                # memory, which allocates nothing: np.multiply.outer, or an add from a
                # strided view, takes a temporary of the block's size
                x0_load = loads if g is None else inv.reshape(-1)[:loads.size].reshape(rows, K)
                np.matmul(c_x0[modes, None], self.weights.a[None, :], out=x0_load)
                if g is not None:
                    loads += x0_load
            np.fft.rfft(loads, n=n_fft, out=spec)
            # mode="clip" writes into out directly; the default "raise" buffers
            spec *= np.take(self.h_hat, self.rate_index[modes], axis=0,
                            out=inv.view(complex), mode="clip")
            np.fft.irfft(spec, n=n_fft, out=inv[:, :n_fft])
            x[:, modes] = inv[:, :K].T
        return x

    def solve_transposed(self, g: np.ndarray) -> np.ndarray:
        """x_i = T_i^{-T} g_i: the Toeplitz solve on time-reversed loads, reversed.

        The solve writes into a reversed view of a new C-contiguous (K, n_modes) array.
        """
        x = np.empty((self.K, self.rate.size))
        self.solve(g[::-1], out=x[::-1])
        return x


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


class LatticeFactors(NamedTuple):
    """The 1D factors of a lattice's maps, with m1 = (h/6) tridiag(1, 4, 1) the interior P1
    mass and b1 the (m-1) x m hat-over-cell matrix (entries h/2); phi^T m1 phi = I."""

    phi: np.ndarray         # (m-1, m-1): the modes of lattice_modes
    lam: np.ndarray         # (m-1,): their eigenvalues
    phi_inv: np.ndarray     # (m-1, m-1): phi^T m1, nodal values to modal coefficients
    c1: np.ndarray          # (m-1, m): phi^T b1, cell values to modal control loads
    means: np.ndarray       # (m, m-1): b1^T/h, nodal values to cell means


def lattice_factors(omega: OmegaMesh) -> LatticeFactors:
    """The lattice's factors: a system reads them through ``omega.kept``, built once per lattice."""
    m, h = omega.cells_per_dim, omega.h
    phi, lam = lattice_modes(m)
    m1 = h / 6.0 * (4.0 * np.eye(m - 1) + np.eye(m - 1, k=1) + np.eye(m - 1, k=-1))
    b1 = 0.5 * h * (np.eye(m - 1, m) + np.eye(m - 1, m, k=1))
    return LatticeFactors(phi, lam, phi.T @ m1, phi.T @ b1, b1.T / h)


class PointFactors(NamedTuple):
    """The 1D factors between the modes and the Gauss rule's points, of ``hats`` and weights w1."""

    loads: np.ndarray       # (m-1, 3m): phi^T hats^T w1, point values to modal loads Phi^T B_q
    values: np.ndarray      # (3m, m-1): hats phi, modal coefficients to point values


def point_factors(omega: OmegaMesh) -> PointFactors:
    """The lattice's point factors, built with its Gauss rule on the first data read."""
    quad, phi = omega_quadrature(omega), omega.kept(lattice_factors).phi
    return PointFactors(phi.T @ (quad.hats.T * quad.weights1), quad.hats @ phi)


def axis_schur(axis: GradedAxis, alpha: float, rates: np.ndarray, d_s: float) -> np.ndarray:
    """Schur complements delta onto y = 0 of the axis blocks, one per height and rate.

    The block of rate r > 0 is (r M_y + S_y)/d_s on axis nodes 0..M-1 of
    [0, Y] (the top node is Dirichlet). Under y = Y y^ the weighted mass
    scales by Y^{alpha+1} and the stiffness by Y^{alpha-1}, so with delta_1
    the complement on the unit partition y^_m = (m/M)^zeta (``axis.unit``),

        delta(Y, r) = Y^{alpha-1} delta_1(Y^2 r).

    delta depends on the rate alone, so the sweep runs once per distinct
    rate (equal lattice eigenvalues give equal bits), on the flat vector
    x = Y^2 r over every height of a family and every distinct rate; the
    result is scaled by Y^{alpha-1}/d_s and expanded back to one entry per
    rate. Interval j of the unit partition has local mass (a, b, e) =
    (m_ll, m_lr, m_rr) and stiffness s, and the complement of the intervals
    j..M-1 onto node j follows from G_{M-1} = a x + s by

        G_j = (G_{j+1} (s + a x) + x (s (a + e + 2b) + (a e - b^2) x))/(G_{j+1} + s + e x).

    Every term is positive (a e > b^2, since the local mass is positive
    definite), so no step subtracts, as a sweep over the assembled
    tridiagonal would with the large stiffness entries of the graded
    intervals near y = 0. Each step adds only its own few roundings, and
    the map from G_{j+1} to G_j has relative condition below 1, so earlier
    ones do not grow. The two per-interval constants are scalars computed
    once; a e - b^2 is the one subtraction, and it costs less than one bit:
    a e < 1.5 (a e - b^2) on the default graded partitions for alpha in
    [-0.95, 0.9]. delta is (*heights, n_rates), and each row is bit-equal
    to its height's own.
    """
    a, b, e, s = (v.tolist() for v in weight_integrals(axis.unit[:-1], axis.unit[1:], alpha))
    r, modes = np.unique(np.asarray(rates, dtype=float), return_inverse=True)
    Y = np.asarray(axis.Y, dtype=float)
    x = np.multiply.outer(Y * Y, r).ravel()
    G = x * a[-1] + s[-1]
    num, den = np.empty_like(G), np.empty_like(G)
    for j in range(axis.M - 2, -1, -1):
        # num and den of the step above, each a sum of positive terms
        np.multiply(x, a[j] * e[j] - b[j] * b[j], out=num)
        num += s[j] * (a[j] + e[j] + 2.0 * b[j])
        num *= x
        np.multiply(x, a[j], out=den)
        den += s[j]
        den *= G
        num += den
        np.multiply(x, e[j], out=den)
        den += s[j]
        den += G
        np.divide(num, den, out=G)
    G = G.reshape(*Y.shape, r.size)
    G *= (Y ** (alpha - 1.0) / d_s)[..., None]
    return G[..., modes]


class CylinderSystem:
    """Operators of one (mesh, params, grid) and their modal step solve; c is ``params.reaction``.

    The per-step matrix c_new*M_tr + A is constant because the time step is
    uniform. In the M_Omega-orthonormal lattice basis (see the module
    docstring) it is diagonal after the axis elimination: ``delta[..., i]``,
    of shape (*heights, n_modes), is the Schur complement of mode i onto
    y = 0. ``march`` holds the per-mode time solves with rates ``delta.ravel()``
    (:class:`ModalMarch`), whose set-up runs here, once.

    Every Omega map is the n-fold Kronecker power of a 1D factor, applied
    per axis (:func:`~fracopt.assembly.kron_apply`). The ``factors``
    (:func:`lattice_factors`) and the Gauss rule ``quad`` (read on demand)
    belong to the lattice, read-only and shared by its systems. So no
    n-dimensional Omega matrix is assembled, and the lattice eigenvalues are
    the n-fold outer sum of the 1D ones. The state is kept as its trace at y = 0; its
    extension above y = 0 is never formed. No march reads the assembled
    free-node stiffness ``A_free``, which the sparse oracles use: it is
    assembled on first access and then kept.
    Supported case: unit cube, uniform lattice, A = I, constant c >= 0.
    """

    def __init__(self, mesh: CylinderMesh, params: FractionalParams, grid: TimeGrid):
        self.mesh = mesh
        self.params = params
        self.grid = grid

        self.n = mesh.omega.n
        self.interior = mesh.omega.interior_idx
        self.factors = mesh.omega.kept(lattice_factors)
        lam = functools.reduce(np.add.outer, [self.factors.lam] * self.n).ravel()
        self.delta = axis_schur(mesh.axis, params.alpha, lam + params.reaction, params.d_s)
        self.march = ModalMarch(self.delta.ravel(), params.gamma, grid.K, grid.tau)

    quad = property(lambda self: omega_quadrature(self.mesh.omega))

    @functools.cached_property
    def A_free(self):
        """Assembled weighted stiffness on the free nodes (sparse CSR)."""
        return assemble_stiffness(self.mesh, self.params)

    @property
    def n_interior(self) -> int:
        return self.interior.size

    def from_modal(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Interior nodal values sum_i coeffs_i phi_i along the last axis, into ``out`` if given."""
        return kron_apply(self.factors.phi, coeffs, self.n, out=out)

    def nodal_to_modal(self, values: np.ndarray) -> np.ndarray:
        """Modal coefficients Phi^{-1} x = Phi^T M_int x of interior values x on the last axis."""
        return kron_apply(self.factors.phi_inv, values, self.n)

    def control_to_modal(self, z: np.ndarray) -> np.ndarray:
        """Modal coefficients Phi^T B_int z of the control loads along the last axis."""
        return kron_apply(self.factors.c1, z, self.n)

    def modal_to_control(self, coeffs: np.ndarray) -> np.ndarray:
        """B_int^T from_modal(coeffs) along the last axis: the transpose of control_to_modal."""
        return kron_apply(self.factors.c1.T, coeffs, self.n)

    def initial_field(self, u0) -> np.ndarray:
        """Initial trace: the nodal interpolant of u0 at the interior vertices.

        It is also the trace of the discrete weighted-harmonic extension of
        u0: per mode the extension is an axis profile equal to 1 at y = 0,
        and the lattice modes are a complete M_Omega-orthonormal basis. Values
        that do not broadcast to (n_interior,), or are not finite, raise
        ParameterError naming the initial datum.
        """
        return checked_values(u0(self.mesh.omega.vertices[self.interior]),
                              (self.n_interior,), "initial datum")


@dataclass
class Trajectory:
    """Trace history of a march, steps 0..K; an adjoint's entry K is zero.

    ``traces`` holds the values at the interior Omega vertices; the trace
    function is zero on the boundary ones.
    """

    traces: np.ndarray            # (K+1, *heights, n_interior): no heights for one height


def _check_finite(step: np.ndarray, march: str) -> None:
    # Only the step the march computes last is scanned: a NaN or inf in a
    # load or in the initial value reaches it, through the backward Euler
    # recurrence or the L1 convolution (an FFT spreads it to every step).
    if not np.isfinite(step).all():
        raise ParameterError(f"{march} produced values that are not finite; check its loads "
                             "and initial datum")


def state_march(system: CylinderSystem, w0_hat: np.ndarray,
                loads: np.ndarray | None) -> np.ndarray:
    """Forward march in modal coordinates: the coefficients of steps 1..K, (K, *heights, n_modes).

    ``w0_hat`` = Phi^{-1} tr^0 holds the modal coefficients of the initial
    trace, the start of every height of ``system.delta``. ``loads`` (K, n_modes)
    holds in row k the modal load Phi^T b^{k+1} of step k+1, and None means
    zero loads; only a system of one height takes loads. Every mode solves
    its Toeplitz system in time (:class:`ModalMarch`). Nodal traces are
    :func:`state_trajectory` of the result. Raises ParameterError when the
    last step is not finite.
    """
    w0 = np.broadcast_to(w0_hat, system.delta.shape).ravel()
    w_hat = system.march.solve(loads, w0).reshape(system.grid.K, *system.delta.shape)
    _check_finite(w_hat[-1], "state march")
    return w_hat


def adjoint_march(system: CylinderSystem, loads: np.ndarray) -> np.ndarray:
    """Backward march with terminal value zero: the coefficients of steps 0..K-1, (K, n_modes).

    Row j of ``loads``, modal like those of :func:`state_march`, drives step j. Per
    mode this solves with the transpose of the forward Toeplitz matrix (the
    forward solve on time-reversed loads), so it is the exact transpose of
    :func:`state_march`. Nodal traces are :func:`adjoint_trajectory` of the
    result. Raises ParameterError when step 0 is not finite.
    """
    p_hat = system.march.solve_transposed(loads)
    _check_finite(p_hat[0], "adjoint march")
    return p_hat


def state_trajectory(system: CylinderSystem, trace0: np.ndarray, w_hat: np.ndarray) -> Trajectory:
    """Nodal state traces: trace0, then the coefficients w_hat of steps 1..K transformed back."""
    traces = np.empty((system.grid.K + 1, *system.delta.shape[:-1], system.n_interior))
    traces[0] = trace0
    system.from_modal(w_hat, out=traces[1:])
    return Trajectory(traces)


def adjoint_trajectory(system: CylinderSystem, p_hat: np.ndarray) -> Trajectory:
    """Nodal adjoint traces: the coefficients p_hat of steps 0..K-1 transformed back, then zero."""
    traces = np.empty((system.grid.K + 1, system.n_interior))
    traces[-1] = 0.0
    system.from_modal(p_hat, out=traces[:-1])
    return Trajectory(traces)


def forcing_loads(f, system: CylinderSystem, what: str = "forcing") -> np.ndarray:
    """Modal loads Phi^T b^{k+1} of the step averages f^{k+1}, k = 0..K-1, as a (K, n_modes) array.

    b^{k+1} are the interior-node loads in ``system.quad``, the lattice's
    Gauss rule; point values reach the modes in one apply (:class:`PointFactors`).
    A separable f (:func:`~fracopt.problem.separable`) is loaded from its
    terms (:func:`~fracopt.assembly.separable_loads`): a linear term
    g(t) phi(x) as one modal load of phi times the step averages of g, a
    clipped one from its constant and linear pieces, with point values
    only where a block of steps crosses a bound. A plain callable f is
    evaluated at the Gauss points once per block of steps
    (:func:`step_blocks`) and each block's averages applied into its rows.
    f may not be None: a caller skips the loads of the zero datum. ``what``
    names f in errors.
    """
    grid, omega = system.grid, system.mesh.omega
    quad, loads = system.quad, omega.kept(point_factors).loads
    sep = separable(f)
    if sep is not None:
        return separable_loads(sep, grid, quad.points, loads, what)
    out = np.empty((grid.K, system.n_interior))
    values, avg = at_points(f, quad.points, what), None
    for steps, t0, t1 in step_blocks(grid, quad.points.shape[0]):
        avg = time_average(values, t0, t1, out=avg)
        kron_apply(loads, avg, system.n, out=out[steps])
    return out


def modal_projection(f, grid: TimeGrid, omega: OmegaMesh, what: str, ends: bool = False):
    """(b_hat, c): the modal loads of f's step data and their distance from the Q1 space.

    The step data f^k, k = 0..K-1, are the step averages f^{k+1} of
    :func:`forcing_loads`, or with ``ends`` the values f(t_{k+1}). b_hat
    (K, n_interior) holds Phi^T b^k, the modal coefficients of their loads
    in the Gauss rule of ``omega``. That rule is exact on products of two Q1
    functions and Phi Phi^T = M_int^{-1}, so Phi b_hat[k] holds P f^k, the
    rule's projection of f^k onto the interior Q1 space, and
    c = sum_k ||f^k - P f^k||_q^2. A trace tr_k in that space is then, by
    Galerkin orthogonality, at a distance of non-negative parts:

        ||tr_k - f^k||_q^2 = |Phi^{-1} tr_k - b_hat[k]|^2 + ||f^k - P f^k||_q^2.

    Point values reach b_hat, and b_hat those of P f^k, in one apply each (:class:`PointFactors`).
    Linear separable terms g_j phi_j (:func:`~fracopt.problem.separable`)
    take O(N + K) work: b_hat = g b_phi and c = sum_k g_k^T G g_k, with G
    the Gram matrix of the phi_j - P phi_j. Any other f is evaluated at the
    Gauss points once per block of steps (:func:`step_blocks`). f = None,
    the zero datum, gives zeros and is not evaluated. ``what`` names f in errors.
    """
    shape = (grid.K, (omega.cells_per_dim - 1) ** omega.n)
    if f is None:
        return np.zeros(shape), 0.0
    quad, factors = omega_quadrature(omega), omega.kept(point_factors)

    def project(vals, out=None):
        """The modal loads of point values along the last axis, and P vals - vals."""
        b = kron_apply(factors.loads, vals, omega.n, out=out)
        resid = kron_apply(factors.values, b, omega.n)
        resid -= vals
        return b, resid

    sep = separable(f)
    if sep is not None and sep.linear:
        b_phi, resid = project(factor_values(sep.terms, quad.points, what))
        g = (time_profiles(sep.terms, np.arange(1, grid.K + 1) * grid.tau, what) if ends
             else step_profiles(sep.terms, grid, what)[1])
        return g @ b_phi, float(np.sum((g @ ((resid * quad.weights) @ resid.T)) * g))
    values, b_hat, c, avg = at_points(f, quad.points, what), np.empty(shape), 0.0, None
    for steps, t0, t1 in step_blocks(grid, quad.points.shape[0]):
        vals = values(t1[:, None]) if ends else (avg := time_average(values, t0, t1, out=avg))
        resid = project(vals, out=b_hat[steps])[1]
        c += float(np.sum(np.square(resid, out=resid) @ quad.weights))
    return b_hat, c


def solve_state(system: CylinderSystem, data: ProblemData, control=None) -> np.ndarray:
    """Fully discrete state solve: the modal coefficients of steps 1..K (:func:`state_march`).

    The system fixes mesh, orders and reaction (``system.params``) and the
    time grid; ``data`` gives the forcing and the initial datum. A
    ``control`` that is not a (K, n_cells) array raises ParameterError; it
    adds Phi^T B_int Z^{k+1} to the modal load of every step. With the zero
    forcing (None) and no control there are no loads, and a height family
    solves all its heights. Nodal traces are :func:`state_trajectory` of the
    result, from ``system.initial_field(data.initial)``. Non-finite data
    raise ParameterError in the march.
    """
    loads = None
    if data.forcing is not None:
        loads = forcing_loads(data.forcing, system)
    if control is not None:
        control = np.asarray(control, dtype=float)
        shape = (system.grid.K, system.mesh.omega.n_cells)
        if control.shape != shape:
            raise ParameterError(f"control must have shape {shape}, got {control.shape}")
        z_loads = system.control_to_modal(control)
        loads = z_loads if loads is None else loads + z_loads
    w0_hat = system.nodal_to_modal(system.initial_field(data.initial))
    return state_march(system, w0_hat, loads)


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
