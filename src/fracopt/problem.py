"""Problem parameters and data for the fractional optimal control solver.

The state equation is a parabolic problem with Caputo time derivative of
order ``gamma`` in (0, 1] and a spectral fractional diffusion of order
``s`` in (0, 1) on Omega = (0, 1)^n, realized through a degenerate elliptic
extension on the cylinder Omega x (0, Y) with weight y^alpha, alpha = 1 - 2s.
Everything in this module is immutable after construction and safe to share
between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ParameterError(ValueError):
    """A problem parameter lies outside its admissible range."""


@dataclass(frozen=True)
class FractionalParams:
    """Fractional orders and derived constants; the cylinder height is ``mesh.axis.Y``.

    Attributes
    ----------
    s : spatial fractional order, 0 < s < 1.
    gamma : temporal order, 0 < gamma <= 1 (gamma = 1 is the classical case).
    alpha : extension weight exponent, always 1 - 2*s.
    d_s : normalization constant 2^alpha * Gamma(1-s) / Gamma(s).
    """

    s: float
    gamma: float
    alpha: float
    d_s: float


def make_params(s: float, gamma: float) -> FractionalParams:
    """Validate (s, gamma) and attach the derived constants.

    alpha = 1 - 2s and d_s = 2^alpha Gamma(1-s)/Gamma(s); for s = 1/2 the
    weight disappears (alpha = 0) and d_s = 1 exactly.
    """
    if not 0.0 < s < 1.0:
        raise ParameterError(f"spatial order s must lie in (0, 1), got {s}")
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"temporal order gamma must lie in (0, 1], got {gamma}")
    alpha = 1.0 - 2.0 * s
    d_s = 2.0 ** alpha * math.gamma(1.0 - s) / math.gamma(s)
    return FractionalParams(s=s, gamma=gamma, alpha=alpha, d_s=d_s)


def select_truncation(N: int, s: float, n: int) -> float:
    """Cylinder height that balances truncation against the mesh error.

    The energy beyond height Y decays like exp(-sqrt(lambda_1) Y / 2) with
    lambda_1 = n pi^2 on the unit cube; choosing

        Y = max(1, 2 (1+s) log(N) / (sqrt(lambda_1) (n+1)))

    makes that factor comparable to N^{-(1+s)/(n+1)}, the best rate the
    graded tensor mesh with N unknowns can deliver.
    """
    if N < 8:
        raise ParameterError(f"need at least N = 8 unknowns, got {N}")
    if not 0.0 < s < 1.0:
        raise ParameterError(f"spatial order s must lie in (0, 1), got {s}")
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")
    lam1 = n * math.pi ** 2
    return max(1.0, 2.0 * (1.0 + s) * math.log(N) / (math.sqrt(lam1) * (n + 1)))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into K steps."""

    T: float
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ParameterError(f"need at least one time step, got K = {self.K}")
        if self.T <= 0.0:
            raise ParameterError(f"final time must be positive, got T = {self.T}")

    @property
    def tau(self) -> float:
        return self.T / self.K

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.K + 1)


@dataclass(frozen=True)
class ControlBounds:
    """Constant box constraints a <= z <= b and the regularization weight."""

    a: float
    b: float
    mu: float

    def __post_init__(self):
        # Constant bounds must bracket zero so the piecewise-constant
        # projection maps admissible controls to admissible controls.
        if not self.a <= 0.0 <= self.b:
            raise ParameterError(f"bounds must satisfy a <= 0 <= b, got [{self.a}, {self.b}]")
        if self.mu <= 0.0:
            raise ParameterError(f"regularization weight must be positive, got {self.mu}")


Evaluable = Callable[..., np.ndarray]


@dataclass(frozen=True)
class ProblemData:
    """Data functions of the control problem on Omega = (0,1)^n; n is the lattice's, ``omega.n``.

    ``forcing`` and ``desired_state`` take (points, t) with ``points`` of
    shape (m, n) and ``t`` a (q, 1) column of times, and return an array
    that broadcasts to (q, m): row j holds the values at time t[j, 0]. The
    solver evaluates them once per block of time steps, so they should be
    written with numpy operations (``np.exp(t)``, not ``math.exp(t)``); a
    result of the wrong shape or with non-finite values raises
    ParameterError. ``initial`` takes only the points. ``reaction`` is the
    constant c >= 0 of the elliptic operator.
    """

    forcing: Evaluable
    desired_state: Evaluable
    initial: Evaluable
    bounds: ControlBounds
    reaction: float = 0.0

    def __post_init__(self):
        if self.reaction < 0.0:
            raise ParameterError(f"reaction coefficient must be >= 0, got {self.reaction}")
