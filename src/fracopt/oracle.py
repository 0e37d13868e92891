"""Independent spectral reference on (0,1)^n and fractional-calculus checks.

Everything here bypasses the cylinder discretization: eigenpairs of the
Dirichlet Laplacian on the unit interval/square are known in closed form,
so fractional powers act diagonally and the evolution reduces to scalar
problems per mode. This module is the ground truth the finite element
solver is tested against. The manufactured control problem's data are a
time profile times one sine product; the sine product is computed once per
points array and reused while that array is unchanged.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .assembly import omega_quadrature
from .evolution import ModalMarch, caputo_weights
from .mesh import build_omega
from .problem import ParameterError


@dataclass(frozen=True)
class SpectralMode:
    """Eigenpair of -Laplace on (0,1)^n with zero boundary values.

    The eigenfunction is the product of sines scaled by 2^{n/2} so its
    L2(Omega) norm is one (the raw product has norm 2^{-n/2}).
    """

    indices: tuple
    lam: float

    @property
    def n(self) -> int:
        return len(self.indices)

    def __call__(self, points: np.ndarray, normalized: bool = True) -> np.ndarray:
        pts = np.atleast_2d(points)
        out = np.ones(pts.shape[0])
        for d, k in enumerate(self.indices):
            out = out * np.sin(k * math.pi * pts[:, d])
        if normalized:
            out = out * 2.0 ** (self.n / 2.0)
        return out


def mode(*indices: int) -> SpectralMode:
    if any(k < 1 for k in indices):
        raise ParameterError(f"mode indices must be positive, got {indices}")
    lam = math.pi ** 2 * sum(k * k for k in indices)
    return SpectralMode(indices=tuple(indices), lam=lam)


def fractional_power_apply(coeffs, lams, s: float) -> np.ndarray:
    """Apply L^s diagonally: multiply each modal coefficient by lambda^s."""
    return np.asarray(coeffs, dtype=float) * np.asarray(lams, dtype=float) ** s


def modal_decompose(func: Callable, n: int, kmax: int = 32, tol: float = 1e-12,
                    cells: int = 64):
    """Sine coefficients of a callable on (0,1)^n, for the oracle's use.

    Projects onto the normalized eigenfunctions with indices up to ``kmax``
    per dimension (composite 3-point Gauss on ``cells`` cells per
    dimension) and keeps modes whose coefficient exceeds ``tol``.
    """
    quad = omega_quadrature(build_omega(n, cells))
    vals = np.asarray(func(quad.points), dtype=float)
    modes, coeffs = [], []
    ranges = [range(1, kmax + 1)] * n
    for idx in itertools.product(*ranges):
        md = mode(*idx)
        c = float(quad.weights @ (vals * md(quad.points)))
        if abs(c) > tol:
            modes.append(md)
            coeffs.append(c)
    return modes, np.array(coeffs)


# -- Caputo derivatives of smooth profiles via Gauss-Jacobi quadrature -------

@functools.lru_cache(maxsize=32)
def _jacobi_rule(gamma: float, nquad: int = 24):
    # weight (1+x)^{-gamma} on [-1,1]; mapped to u^{-gamma} on [0,1]. Cached
    # because every Caputo evaluation needs it; read-only since it is shared.
    x, w = roots_jacobi(nquad, 0.0, -gamma)
    u = 0.5 * (x + 1.0)
    w = w * 0.5 ** (1.0 - gamma)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def caputo_left(fprime: Callable, gamma: float, t, nquad: int = 24) -> np.ndarray:
    """Left Caputo derivative of order gamma at times t, given f'.

    Evaluates (1/Gamma(1-gamma)) int_0^t (t-r)^{-gamma} f'(r) dr with the
    substitution r = t(1-u), which turns the weak singularity into the
    Gauss-Jacobi weight u^{-gamma}.
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"order must lie in (0, 1), got {gamma}")
    u, w = _jacobi_rule(gamma, nquad)
    t = np.asarray(t, dtype=float)
    tt = np.atleast_1d(t)
    vals = fprime(tt[:, None] * (1.0 - u[None, :]))
    out = tt ** (1.0 - gamma) * (vals @ w) / math.gamma(1.0 - gamma)
    return out.reshape(t.shape) if t.ndim else float(out[0])


def caputo_right(gprime: Callable, gamma: float, t, T: float,
                 nquad: int = 24) -> np.ndarray:
    """Right Caputo derivative toward T: -(1/Gamma(1-gamma)) int_t^T (xi-t)^{-gamma} g'."""
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"order must lie in (0, 1), got {gamma}")
    u, w = _jacobi_rule(gamma, nquad)
    t = np.asarray(t, dtype=float)
    tt = np.atleast_1d(t)
    span = T - tt
    vals = gprime(tt[:, None] + span[:, None] * u[None, :])
    out = -(span ** (1.0 - gamma)) * (vals @ w) / math.gamma(1.0 - gamma)
    return out.reshape(t.shape) if t.ndim else float(out[0])


# -- per-mode evolution -------------------------------------------------------

@dataclass
class ModalTrajectories:
    """Per-mode solution samples on a fine uniform grid, plus exact forms."""

    modes: Sequence[SpectralMode]
    times: np.ndarray
    coeffs: np.ndarray             # (K_fine + 1, n_modes)
    exact: Callable | None = None  # exact evaluator t -> (n_modes,)

    def at(self, t: float) -> np.ndarray:
        if self.exact is not None:
            return self.exact(t)
        return np.array([np.interp(t, self.times, self.coeffs[:, j])
                         for j in range(self.coeffs.shape[1])])

    @property
    def final(self) -> np.ndarray:
        return self.coeffs[-1]


def spectral_solve_state(modes: Sequence[SpectralMode], u0_coeffs, forcing,
                         gamma: float, s: float, T: float,
                         K_fine: int = 1024) -> ModalTrajectories:
    """Reference evolution of d_t^gamma u_k + lambda_k^s u_k = g_k(t).

    ``forcing`` is either None, an array of amplitudes g (meaning g * e^t
    per mode), or a sequence of callables g_k(t). With gamma = 1 and
    exponential forcing the closed form

        u_k(t) = (u0_k - g/(1+lam^s)) e^{-lam^s t} + g/(1+lam^s) e^t

    is returned exactly; otherwise the scalar L1 (or backward Euler)
    scheme runs on the fine grid, through the same per-mode solve
    (:class:`fracopt.evolution.ModalMarch`) as the finite element marches.
    """
    modes = list(modes)
    nm = len(modes)
    lam_s = np.array([m.lam ** s for m in modes])
    u0 = np.asarray(u0_coeffs, dtype=float)
    if u0.shape != (nm,):
        raise ParameterError(f"need one initial coefficient per mode, got {u0.shape}")

    exp_amps = None
    if forcing is None:
        exp_amps = np.zeros(nm)
    elif callable(forcing) or (isinstance(forcing, (list, tuple))
                               and any(callable(f) for f in forcing)):
        fns = list(forcing) if isinstance(forcing, (list, tuple)) else [forcing] * nm
        if len(fns) != nm:
            raise ParameterError("need one forcing callable per mode")
    else:
        exp_amps = np.asarray(forcing, dtype=float)
        if exp_amps.shape != (nm,):
            raise ParameterError(f"need one forcing amplitude per mode, got {exp_amps.shape}")

    times = np.linspace(0.0, T, K_fine + 1)

    if gamma >= 1.0 and exp_amps is not None:
        part = exp_amps / (1.0 + lam_s)

        def exact(t):
            return (u0 - part) * np.exp(-lam_s * np.asarray(t)) + part * np.exp(np.asarray(t))

        coeffs = np.empty((K_fine + 1, nm))
        for i, t in enumerate(times):
            coeffs[i] = exact(t)
        return ModalTrajectories(modes=modes, times=times, coeffs=coeffs, exact=exact)

    tau = T / K_fine
    if exp_amps is not None:
        gvals = exp_amps[None, :] * np.exp(times[1:])[:, None]
    else:
        gvals = np.stack([np.array([f(t) for t in times[1:]]) for f in fns], axis=1)
    march = ModalMarch(lam_s, gamma, K_fine, tau)
    coeffs = np.empty((K_fine + 1, nm))
    coeffs[0] = u0
    coeffs[1:] = march.solve(gvals, u0)
    return ModalTrajectories(modes=modes, times=times, coeffs=coeffs)


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

    s: float
    mu: float
    T: float
    gamma: float
    n: int
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

    return ManufacturedSolution(s=s, mu=mu, T=T, gamma=gamma, n=n, lam=md.lam,
                                a=a, b=b, state=u_exact, adjoint=p_exact,
                                control=z_exact, forcing=forcing,
                                desired_state=desired_state, initial=u0)


# -- fractional integration by parts ------------------------------------------

def _frac_integral_left_at_T(values: np.ndarray, sigma: float, times: np.ndarray) -> float:
    """(I_t^sigma f)(T) for the piecewise-linear interpolant of the samples."""
    T = times[-1]
    a, bb = times[:-1], times[1:]
    ua, ub = T - a, T - bb
    m0 = (ua ** sigma - ub ** sigma) / sigma
    m1 = T * m0 - (ua ** (sigma + 1.0) - ub ** (sigma + 1.0)) / (sigma + 1.0)
    fa, fb = values[:-1], values[1:]
    slope = (fb - fa) / (bb - a)
    total = np.sum(fa * m0 + slope * (m1 - a * m0))
    return float(total) / math.gamma(sigma)


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
        for k in range(K):
            acc = w.a[k] * vals[0]
            if k >= 1:
                acc = acc + w.diffs[:k] @ vals[k:0:-1]
            out[k + 1] = w.scale * (vals[k + 1] - acc)
        return out

    dcf = l1_derivative(f)
    dcg_rev = l1_derivative(g[::-1])[::-1]   # right Caputo via time reversal

    lhs = float(np.trapezoid(dcf * g, dx=tau))
    lhs += f[0] * _frac_integral_right_at_0(g, 1.0 - gamma, times)
    rhs = float(np.trapezoid(f * dcg_rev, dx=tau))
    rhs += g[-1] * _frac_integral_left_at_T(f, 1.0 - gamma, times)
    return abs(lhs - rhs)
