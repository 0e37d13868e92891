"""Independent spectral reference on (0,1)^n and fractional-calculus checks.

Everything here bypasses the cylinder discretization: eigenpairs of the
Dirichlet Laplacian on the unit cube (0,1)^n are known in closed form,
so fractional powers act diagonally and the evolution reduces to scalar
problems per mode. This module is the ground truth the finite element
solver is tested against. The manufactured control problem's data are a
time profile times one sine product; the sine product is computed once per
points array and reused while that array is unchanged. The Caputo profiles
of those data use a Gauss-Jacobi rule computed with numpy alone.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .evolution import ModalMarch, caputo_weights
from .problem import ParameterError


@dataclass(frozen=True)
class SpectralMode:
    """Eigenpair of -Laplace on (0,1)^n with zero boundary values.

    The eigenfunction is the product of sines scaled by 2^{n/2} so its
    L2(Omega) norm is one (the raw product has norm 2^{-n/2}).
    """

    indices: tuple
    lam: float

    def __call__(self, points: np.ndarray, normalized: bool = True) -> np.ndarray:
        pts = np.atleast_2d(points)
        out = np.ones(pts.shape[0])
        for d, k in enumerate(self.indices):
            out = out * np.sin(k * math.pi * pts[:, d])
        if normalized:
            out = out * 2.0 ** (len(self.indices) / 2.0)
        return out


def mode(*indices: int) -> SpectralMode:
    if any(k < 1 for k in indices):
        raise ParameterError(f"mode indices must be positive, got {indices}")
    lam = math.pi ** 2 * sum(k * k for k in indices)
    return SpectralMode(indices=tuple(indices), lam=lam)


# -- Caputo derivatives of smooth profiles via Gauss-Jacobi quadrature -------

@functools.lru_cache(maxsize=32)
def _jacobi_rule(gamma: float, nquad: int = 24):
    """Nodes u and weights w of the nquad-point Gauss rule for u^{-gamma} on [0, 1].

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    Jacobi matrix of P^(0,-gamma)(2u - 1), the weights 1/(1-gamma) times the
    squared first components of its eigenvectors. Cached because every Caputo
    evaluation needs it; read-only since it is shared.
    """
    if nquad < 1:
        raise ParameterError(f"a Gauss-Jacobi rule needs nquad >= 1, got {nquad}")
    # the recurrence of P^(0,b), b = -gamma, on [-1, 1], halved and shifted to [0, 1]
    k = np.arange(nquad, dtype=float)
    s = 2.0 * k - gamma
    diag = 0.5 + 0.5 * gamma ** 2 / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    sub = k * (k - gamma) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    u, vecs = np.linalg.eigh(np.diag(diag) + np.diag(sub, -1))
    w = vecs[0] ** 2 / (1.0 - gamma)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def caputo_left(fprime: Callable, gamma: float, t) -> np.ndarray:
    """Left Caputo derivative of order gamma at times t, given f'.

    Evaluates (1/Gamma(1-gamma)) int_0^t (t-r)^{-gamma} f'(r) dr with the
    substitution r = t(1-u), which turns the weak singularity into the
    Gauss-Jacobi weight u^{-gamma}, integrated by its 24-point rule.
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"order must lie in (0, 1), got {gamma}")
    u, w = _jacobi_rule(gamma)
    t = np.asarray(t, dtype=float)
    tt = np.atleast_1d(t)
    vals = fprime(tt[:, None] * (1.0 - u[None, :]))
    out = tt ** (1.0 - gamma) * (vals @ w) / math.gamma(1.0 - gamma)
    return out.reshape(t.shape) if t.ndim else float(out[0])


def caputo_right(gprime: Callable, gamma: float, t, T: float) -> np.ndarray:
    """Right Caputo derivative toward T: -(1/Gamma(1-gamma)) int_t^T (xi-t)^{-gamma} g'.

    It is the left derivative of the reflection r -> g(T - r), whose
    derivative is -g'(T - r), taken at T - t.
    """
    return caputo_left(lambda r: -gprime(T - r), gamma, np.subtract(T, t))


# -- per-mode evolution -------------------------------------------------------

@dataclass
class ModalTrajectories:
    """Per-mode solution samples on a fine uniform grid."""

    times: np.ndarray
    coeffs: np.ndarray             # (K_fine + 1, n_modes)

    @property
    def final(self) -> np.ndarray:
        return self.coeffs[-1]


def spectral_solve_state(modes: Sequence[SpectralMode], u0_coeffs, forcing,
                         gamma: float, s: float, T: float,
                         K_fine: int = 1024) -> ModalTrajectories:
    """Reference evolution of d_t^gamma u_k + lambda_k^s u_k = g_k e^t.

    ``forcing`` is None (no forcing) or an array of amplitudes g_k, one per
    mode. With gamma = 1 the closed form

        u_k(t) = (u0_k - g_k/(1+lam^s)) e^{-lam^s t} + g_k/(1+lam^s) e^t

    is returned exactly; otherwise the scalar L1 scheme runs on the fine
    grid, through the same per-mode solve
    (:class:`fracopt.evolution.ModalMarch`) as the finite element marches.
    """
    lam_s = np.array([m.lam ** s for m in modes])
    nm = lam_s.size
    u0 = np.asarray(u0_coeffs, dtype=float)
    if u0.shape != (nm,):
        raise ParameterError(f"need one initial coefficient per mode, got {u0.shape}")
    amps = np.zeros(nm) if forcing is None else np.asarray(forcing, dtype=float)
    if amps.shape != (nm,):
        raise ParameterError(f"need one forcing amplitude per mode, got {amps.shape}")

    times = np.linspace(0.0, T, K_fine + 1)

    if gamma >= 1.0:
        part = amps / (1.0 + lam_s)
        t = times[:, None]
        coeffs = (u0 - part) * np.exp(-lam_s * t) + part * np.exp(t)
        return ModalTrajectories(times=times, coeffs=coeffs)

    march = ModalMarch(lam_s, gamma, K_fine, T / K_fine)
    coeffs = np.empty((K_fine + 1, nm))
    coeffs[0] = u0
    coeffs[1:] = march.solve(amps[None, :] * np.exp(times[1:])[:, None], u0)
    return ModalTrajectories(times=times, coeffs=coeffs)


# -- manufactured optimal control problem -------------------------------------

@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact optimum of the control problem built from a single sine mode.

    The optimal state is e^t times the raw product sin(2 pi x_1)[sin(2 pi x_2)],
    the adjoint is -mu (T-t) e^t times the same product, and the control is
    the pointwise projection of -p/mu onto [a, b] = [0, 0.5]. For gamma < 1
    the data are calibrated with the exact Caputo profiles of e^t and
    (T-t) e^t so that the same triple solves the fractional-in-time problem.
    """

    mu: float
    T: float
    lam: float
    a: float
    b: float
    state: Callable
    adjoint: Callable
    control: Callable
    forcing: Callable
    desired_state: Callable
    initial: Callable


def _memo_factor(md: SpectralMode) -> Callable:
    """x -> md(x, normalized=False), remembered for the last float64 points.

    The solver hands every data call the same quadrature points, so one
    entry suffices. A hit needs the same shape and the same bits as a copy
    kept at the miss, so an array mutated in place, or another array,
    gets fresh values. The returned factor is read-only and shared.
    """
    last = [None]          # (copy of the points, factor), replaced as one tuple

    def factor(x):
        hit = last[0]
        cacheable = isinstance(x, np.ndarray) and x.dtype == np.float64
        if (cacheable and hit is not None and x.shape == hit[0].shape
                and np.array_equal(x.view(np.uint64), hit[0].view(np.uint64))):
            return hit[1]
        val = md(x, normalized=False)
        val.flags.writeable = False
        if cacheable:
            last[0] = (x.copy(), val)
        return val

    return factor


def manufactured_problem(s: float, mu: float, T: float, gamma: float = 1.0,
                         n: int = 2) -> ManufacturedSolution:
    """The single-mode optimum of :class:`ManufacturedSolution`.

    Every callable separates into a time column times the spatial factor
    sin(2 pi x_1)[sin(2 pi x_2)], which is computed once per points array
    (:func:`_memo_factor`); each callable then makes one full (q, m) pass
    per separable term, and the control one more for its clip.
    """
    if not 0.0 < s < 1.0:
        raise ParameterError(f"spatial order s must lie in (0, 1), got {s}")
    if mu <= 0.0 or T <= 0.0:
        raise ParameterError("mu and T must be positive")
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"temporal order gamma must lie in (0, 1], got {gamma}")
    md = mode(*([2] * n))
    lam_s = md.lam ** s
    a, b = 0.0, 0.5
    shape = _memo_factor(md)

    # t is a scalar or a (q, 1) column of times; results broadcast to (q, m)
    def u_exact(x, t):
        return np.exp(t) * shape(x)

    def p_exact(x, t):
        return -mu * (T - t) * np.exp(t) * shape(x)

    def clipped(t, factor):
        z = (T - t) * np.exp(t) * factor
        return np.clip(z, a, b, out=z)

    def z_exact(x, t):
        return clipped(t, shape(x))

    def u0(x):
        return shape(x).copy()

    if gamma >= 1.0:
        def state_time(t):            # d_t e^t
            return np.exp(t)

        def adjoint_time(t):          # right derivative of (T-t) e^t
            return (1.0 - (T - t)) * np.exp(t)
    else:
        def state_time(t):
            return caputo_left(np.exp, gamma, t)

        def adjoint_time(t):
            return caputo_right(lambda r: (T - r - 1.0) * np.exp(r), gamma, t, T)

    def forcing(x, t):
        factor = shape(x)
        f = (state_time(t) + lam_s * np.exp(t)) * factor
        f -= clipped(t, factor)
        return f

    def desired_state(x, t):
        # u_d = u - (d^gamma_{T-t} p + L^s p)
        return (np.exp(t) + mu * adjoint_time(t)
                + mu * lam_s * (T - t) * np.exp(t)) * shape(x)

    return ManufacturedSolution(mu=mu, T=T, lam=md.lam, a=a, b=b, state=u_exact,
                                adjoint=p_exact,
                                control=z_exact, forcing=forcing,
                                desired_state=desired_state, initial=u0)


# -- fractional integration by parts ------------------------------------------

def _frac_integral_right_at_0(values: np.ndarray, sigma: float, times: np.ndarray) -> float:
    """(I_{T-t}^sigma g)(0) for the piecewise-linear interpolant of the samples."""
    a, bb = times[:-1], times[1:]
    m0 = (bb ** sigma - a ** sigma) / sigma
    m1 = (bb ** (sigma + 1.0) - a ** (sigma + 1.0)) / (sigma + 1.0)
    fa, fb = values[:-1], values[1:]
    slope = (fb - fa) / (bb - a)
    total = np.sum(fa * m0 + slope * (m1 - a * m0))
    return float(total) / math.gamma(sigma)


def fractional_ibp_check(f_samples, g_samples, gamma: float, times) -> float:
    """Residual of the Caputo integration-by-parts identity.

    Both sides of

        int_0^T d_t^gamma f g + f(0) (I^{1-gamma}_{T-t} g)(0)
            = int_0^T f d_{T-t}^gamma g + g(T) (I^{1-gamma}_t f)(T)

    are evaluated from uniform samples: L1 differences for the Caputo
    derivatives, trapezoid for the products, and exact kernel integration of
    the piecewise-linear interpolants for the fractional integrals.
    """
    f = np.asarray(f_samples, dtype=float)
    g = np.asarray(g_samples, dtype=float)
    times = np.asarray(times, dtype=float)
    K = times.size - 1
    tau = times[1] - times[0]
    w = caputo_weights(gamma, K, tau)

    def l1_derivative(vals):
        out = np.zeros(K + 1)
        out[1:] = w.scale * (vals[1:] - w.a * vals[0])
        if K > 1:
            # the memory sum_{j<k} d_j vals[k-j] of step k is entry k-1 of d * vals[1:]
            out[2:] -= w.scale * np.convolve(w.diffs, vals[1:])[:K - 1]
        return out

    dcf = l1_derivative(f)
    dcg_rev = l1_derivative(g[::-1])[::-1]   # right Caputo via time reversal

    lhs = float(np.trapezoid(dcf * g, dx=tau))
    lhs += f[0] * _frac_integral_right_at_0(g, 1.0 - gamma, times)
    rhs = float(np.trapezoid(f * dcg_rev, dx=tau))
    # (I^{1-gamma}_t f)(T) is the right integral at 0 of the reflection r -> f(T - r)
    rhs += g[-1] * _frac_integral_right_at_0(f[::-1], 1.0 - gamma, times[-1] - times[::-1])
    return abs(lhs - rhs)
