"""Problem parameters and data for the fractional optimal control solver.

The state equation is a parabolic problem with Caputo time derivative of
order ``gamma`` in (0, 1] and a spectral fractional diffusion of order
``s`` in (0, 1) on Omega = (0, 1)^n, realized through a degenerate elliptic
extension on the cylinder Omega x (0, Y) with weight y^alpha, alpha = 1 - 2s.
Every type here takes only its inputs, checks them (ParameterError) and sets
what derives from them at construction; all are immutable and thread-safe.
"""
from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class ParameterError(ValueError):
    """A problem parameter lies outside its admissible range."""


def check_count(value, name: str) -> None:
    """Raise ParameterError naming ``name`` unless value is an integer >= 1 (numpy's too)."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ParameterError(f"need {name} >= 1, an integer, got {value!r}")


@dataclass(frozen=True)
class FractionalParams:
    """Orders and reaction of the operator d_t^gamma + L^s, L = -Laplace + c; Y is ``mesh.axis.Y``.

    Attributes
    ----------
    s : spatial fractional order, 0 < s < 1.
    gamma : temporal order, 0 < gamma <= 1 (gamma = 1 is the classical case).
    reaction : the constant c >= 0, finite.
    alpha, d_s : derived at construction (and by ``dataclasses.replace``), not
        compared: 1 - 2s and 2^alpha Gamma(1-s)/Gamma(s), which is 1 at s = 1/2.
    """

    s: float
    gamma: float
    reaction: float = 0.0
    alpha: float = field(init=False, compare=False)
    d_s: float = field(init=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ParameterError(f"spatial order s must lie in (0, 1), got {self.s}")
        if not 0.0 < self.gamma <= 1.0:
            raise ParameterError(f"temporal order gamma must lie in (0, 1], got {self.gamma}")
        if not (math.isfinite(self.reaction) and self.reaction >= 0.0):
            raise ParameterError(f"reaction c must be finite and >= 0, got {self.reaction}")
        alpha = 1.0 - 2.0 * self.s
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "d_s", 2.0 ** alpha * math.gamma(1.0 - self.s)
                           / math.gamma(self.s))


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
    """Uniform partition of [0, T] into K steps; K >= 1 an integer, T > 0 finite."""

    T: float
    K: int

    def __post_init__(self):
        check_count(self.K, "time steps K")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ParameterError(f"final time must be finite and positive, got T = {self.T}")

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
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ParameterError(f"regularization weight must be finite and > 0, got {self.mu}")


Evaluable = Callable[..., np.ndarray]


@dataclass(frozen=True)
class Term:
    """One term clip(g(t) phi(x), lo, hi) of a :class:`Separable` datum.

    ``time`` is g: it maps an array of times to an array of their shape.
    ``space`` is phi: it maps (m, n) points to m values. ``clip`` is None
    for a linear term g phi; otherwise it is the pair (lo, hi) of bounds,
    lo <= hi, one of which may be infinite (lo < inf, hi > -inf). A clip is
    the only pointwise map a term takes; -clip(v, a, b) is clip(-v, -b, -a).
    Bounds that are not such a pair raise ParameterError.
    """

    time: Callable
    space: Callable
    clip: tuple | None = None

    def __post_init__(self):
        if self.clip is None:
            return
        try:
            lo, hi = map(float, self.clip)
        except (TypeError, ValueError):
            raise ParameterError(f"clip must be a pair (lo, hi), got {self.clip!r}") from None
        if not (lo <= hi and lo < math.inf and hi > -math.inf):
            raise ParameterError(f"clip needs lo <= hi, lo < inf and hi > -inf, got ({lo}, {hi})")
        object.__setattr__(self, "clip", (lo, hi))


@dataclass(frozen=True)
class Separable:
    """A datum sum_j clip_j(g_j(t) phi_j(x)) of :class:`Term`s, callable as f(points, t).

    The solver reads the terms: a linear term costs one Gauss-rule load of
    phi times the step averages of g; a clipped term is loaded from its
    pieces, pointwise only where a block of steps crosses a bound
    (:func:`~fracopt.assembly.separable_loads`). Called, it evaluates every
    factor anew.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ParameterError("a separable datum needs at least one term")

    def __call__(self, points, t):
        total = None
        for term in self.terms:
            vals = term.time(t) * term.space(points)
            if term.clip is not None:
                vals = np.clip(vals, *term.clip)
            total = vals if total is None else total + vals
        return total

    @property
    def linear(self) -> bool:
        return all(term.clip is None for term in self.terms)


def separable(f) -> Separable | None:
    """The :class:`Separable` that f is, or wraps by ``functools.wraps``; else None."""
    f = inspect.unwrap(f)
    return f if isinstance(f, Separable) else None


@dataclass(frozen=True)
class ProblemData:
    """Data functions of the control problem on Omega = (0,1)^n; n is the lattice's, ``omega.n``.

    ``forcing`` and ``desired_state`` take (points, t) with ``points`` of
    shape (m, n) and ``t`` a (q, 1) column of times, and return an array
    that broadcasts to (q, m): row j holds the values at time t[j, 0]. The
    solver evaluates them once per block of time steps, so they should be
    written with numpy operations (``np.exp(t)``, not ``math.exp(t)``); a
    result of the wrong shape or with non-finite values raises
    ParameterError. Either may be None, the zero datum: its loads are zero
    and it is never evaluated. Either may also be a :class:`Separable`, or
    a ``functools.wraps`` wrapper of one. The solver then reads its terms
    instead of calling it: each time profile g gets arrays of step times,
    and each spatial factor phi the lattice's Gauss points, once per load
    or error norm; their values must be finite. ``initial`` takes
    only the points. The reaction c of the operator is the system's,
    ``FractionalParams.reaction``.
    """

    forcing: Evaluable | Separable | None
    desired_state: Evaluable | Separable | None
    initial: Evaluable
    bounds: ControlBounds
