"""Independent spectral reference on (0,1)^n and fractional-calculus checks.

Everything here bypasses the cylinder discretization: eigenpairs of the
Dirichlet Laplacian on the unit cube (0,1)^n are known in closed form,
so fractional powers act diagonally and the evolution reduces to scalar
problems per mode. This module is the ground truth the finite element
solver is tested against. The manufactured control problem's data are
separable (:class:`~fracopt.problem.Separable`): time profiles times one
sine product, which the control and part of the forcing clip to the
bounds. The Caputo derivatives of its two time profiles, e^t and
(T - t) e^t, are Kummer functions, summed here as series.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .evolution import ModalMarch, caputo_weights
from .problem import (ControlBounds, FractionalParams, ParameterError, Separable, Term,
                      TimeGrid, check_count)


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
    if not indices or any(k < 1 for k in indices):
        raise ParameterError(f"a mode needs one or more positive indices, got {indices}")
    lam = math.pi ** 2 * sum(k * k for k in indices)
    return SpectralMode(indices=tuple(indices), lam=lam)


# -- Caputo derivatives of the manufactured time profiles, in closed form -----

def _kummer(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Kummer's M(a, b, x) = sum_k (a)_k / (b)_k x^k / k! at x >= 0 (DLMF 13.2.2).

    Summed until every term is below roundoff of the sum of their sizes. For
    a = 1 and for a = -gamma every term after the first has one sign, so the
    series is summed without cancellation between its terms.
    """
    term, total, size = np.ones_like(x), np.ones_like(x), np.ones_like(x)
    k = 0
    while np.any(np.abs(term) > 2.0 ** -53 * size):
        term = term * x * ((a + k) / ((b + k) * (k + 1)))
        total += term
        size += np.abs(term)
        k += 1
    return total


def caputo_state_profile(t, gamma: float) -> np.ndarray:
    """d_t^gamma e^t = t^{1-gamma} M(1, 2-gamma, t) / Gamma(2-gamma); e^t itself at gamma = 1."""
    t = np.asarray(t, dtype=float)
    if gamma >= 1.0:
        return np.exp(t)
    return t ** (1.0 - gamma) * _kummer(1.0, 2.0 - gamma, t) / math.gamma(2.0 - gamma)


def caputo_adjoint_profile(t, gamma: float, T: float) -> np.ndarray:
    """The right Caputo derivative toward T of (T - t) e^t, (1 - (T - t)) e^t at gamma = 1.

    It is the left derivative of r e^{T-r} at r = T - t: by Kummer's
    transformation (DLMF 13.2.39), e^t r^{1-gamma} M(-gamma, 2-gamma, r) / Gamma(2-gamma).
    """
    t = np.asarray(t, dtype=float)
    if gamma >= 1.0:
        return (1.0 - (T - t)) * np.exp(t)
    r = T - t
    return np.exp(t) * r ** (1.0 - gamma) * _kummer(-gamma, 2.0 - gamma, r) \
        / math.gamma(2.0 - gamma)


# -- per-mode evolution -------------------------------------------------------

def spectral_solve_state(modes: Sequence[SpectralMode], u0_coeffs, forcing,
                         gamma: float, s: float, T: float,
                         K_fine: int = 1024) -> np.ndarray:
    """Reference evolution of d_t^gamma u_k + lambda_k^s u_k = g_k e^t.

    Returns the (K_fine + 1, n_modes) coefficients at the times
    ``linspace(0, T, K_fine + 1)``, row j at time j T/K_fine.
    ``forcing`` is None (no forcing) or an array of amplitudes g_k, one per
    mode. With gamma = 1 the closed form

        u_k(t) = (u0_k - g_k/(1+lam^s)) e^{-lam^s t} + g_k/(1+lam^s) e^t

    is returned exactly; otherwise the scalar L1 scheme runs on the fine
    grid, through the same per-mode solve
    (:class:`fracopt.evolution.ModalMarch`) as the finite element marches.
    """
    check_count(K_fine, "fine time steps K_fine")
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
        return (u0 - part) * np.exp(-lam_s * t) + part * np.exp(t)

    march = ModalMarch(lam_s, gamma, K_fine, T / K_fine)
    coeffs = np.empty((K_fine + 1, nm))
    coeffs[0] = u0
    march.solve(amps[None, :] * np.exp(times[1:])[:, None], u0, out=coeffs[1:])
    return coeffs


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
    state: Separable
    adjoint: Separable
    control: Separable
    forcing: Separable
    desired_state: Separable
    initial: Callable


def manufactured_problem(s: float, mu: float, T: float, gamma: float = 1.0,
                         n: int = 2) -> ManufacturedSolution:
    """The single-mode optimum of :class:`ManufacturedSolution`.

    State, adjoint, control, forcing and desired state are
    :class:`~fracopt.problem.Separable`: each term is a time profile times
    the spatial factor sin(2 pi x_1)[sin(2 pi x_2)]; the control clips it
    to [a, b], and the forcing's control part, its negative, to [-b, -a].
    So the solver evaluates that factor once per lattice and use, loads the
    linear terms in O(N + K) and the clip terms from their pieces. The state, adjoint and desired state are one
    linear term each, the control one clip term, and the forcing the sum of
    a linear term and a clip term. Called with (points, t), each evaluates
    its factor anew. mu and T must be finite and positive and n an integer
    >= 1, else ParameterError.
    """
    a, b = 0.0, 0.5
    # checked by the types that read them
    FractionalParams(s, gamma)
    TimeGrid(T, 1)
    ControlBounds(a, b, mu)
    check_count(n, "dimension n")
    md = mode(*([2] * n))
    lam_s = md.lam ** s
    shape = functools.partial(md, normalized=False)

    def control_time(t):              # -p/mu over the sine product
        return (T - t) * np.exp(t)

    def forcing_time(t):              # f = d^gamma u + L^s u - z
        return caputo_state_profile(t, gamma) + lam_s * np.exp(t)

    def desired_time(t):              # u_d = u - (d^gamma_{T-t} p + L^s p)
        return (np.exp(t) + mu * caputo_adjoint_profile(t, gamma, T)
                + mu * lam_s * (T - t) * np.exp(t))

    return ManufacturedSolution(
        mu=mu, T=T, lam=md.lam, a=a, b=b,
        state=Separable((Term(np.exp, shape),)),
        adjoint=Separable((Term(lambda t: -mu * (T - t) * np.exp(t), shape),)),
        control=Separable((Term(control_time, shape, clip=(a, b)),)),
        # -clip(v, a, b) written exactly as clip(-v, -b, -a)
        forcing=Separable((Term(forcing_time, shape),
                           Term(lambda t: -control_time(t), shape, clip=(-b, -a)))),
        desired_state=Separable((Term(desired_time, shape),)),
        initial=shape)


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
    derivatives (:class:`~fracopt.evolution.CaputoWeights`), trapezoid for the
    products, and exact kernel integration of the piecewise-linear
    interpolants for the fractional integrals. gamma must lie in (0, 1).
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"the integration-by-parts check needs gamma in (0, 1), got {gamma}")
    f = np.asarray(f_samples, dtype=float)
    g = np.asarray(g_samples, dtype=float)
    times = np.asarray(times, dtype=float)
    tau = times[1] - times[0]
    caputo = caputo_weights(gamma, times.size - 1, tau)

    dcf = caputo(f)
    dcg_rev = caputo(g[::-1])[::-1]   # right Caputo via time reversal

    lhs = float(np.trapezoid(dcf * g, dx=tau))
    lhs += f[0] * _frac_integral_right_at_0(g, 1.0 - gamma, times)
    rhs = float(np.trapezoid(f * dcg_rev, dx=tau))
    # (I^{1-gamma}_t f)(T) is the right integral at 0 of the reflection r -> f(T - r)
    rhs += g[-1] * _frac_integral_right_at_0(f[::-1], 1.0 - gamma, times[-1] - times[::-1])
    return abs(lhs - rhs)
