"""Discrete controls, reduced cost/gradient, and the projected quasi-Newton loop.

Controls are piecewise constant on the space-time cells (t_{k-1}, t_k] x K.
The reduced gradient is derived from the discrete adjoint, so cost and
gradient are consistent to machine precision: the representative of the
tracking derivative on step k is the cell average of the adjoint trace at
index k-1 (the adjoint sequence read in reversed time).

The optimizer runs in modal trace coefficients. The interior mass M_int and
the control loads B_int are the Kronecker powers of the 1D factors m1 =
(h/6) tridiag(1, 4, 1) and b1 ((m-1) x m, entries h/2), and Phi, the n-fold
Kronecker power of phi, holds the M_Omega-orthonormal lattice modes,
phi^T m1 phi = I (see :mod:`fracopt.evolution`). With a trace tr = Phi w_hat
and b_hat = Phi^T b for any interior load b, Parseval gives the tracking cost

    tau/2 sum_k (|w_hat^k|^2 - 2 <w_hat^k, b_ud_hat^k> + c_ud^k),

and the adjoint load M_int tr V - b_ud becomes w_hat - b_ud_hat. The
control loads enter as Phi^T B_int z, the power of c1 = phi^T b1 applied per
axis, and the gradient's B_int^T Phi p_hat is the power of c1^T. So a
cost-and-gradient evaluation does one state and one adjoint march and no
nodal transform; the result's nodal traces are formed once, by the marches'
back-transform (:func:`~fracopt.evolution.state_trajectory`,
:func:`~fracopt.evolution.adjoint_trajectory`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assembly import omega_quadrature, step_blocks, time_average
from .evolution import (CylinderSystem, Trajectory, adjoint_march, adjoint_trajectory,
                        forcing_loads, state_march, state_trajectory)
from .mesh import OmegaMesh, CylinderMesh
from .problem import ControlBounds, FractionalParams, ParameterError, ProblemData, TimeGrid


@dataclass
class ControlField:
    """Piecewise-constant control: values[k][cell] on (t_k, t_{k+1}] x cell."""

    values: np.ndarray             # (K, n_cells)
    bounds: ControlBounds
    grid: TimeGrid
    omega: OmegaMesh


def clamp(values, a: float, b: float) -> np.ndarray:
    """Entrywise max(a, min(b, v))."""
    if a > b:
        raise ParameterError(f"bounds out of order: a = {a} > b = {b}")
    return np.clip(np.asarray(values, dtype=float), a, b)


def control_norm(values: np.ndarray, grid: TimeGrid, omega: OmegaMesh) -> float:
    """l2(L2) norm of a piecewise-constant field: sqrt(sum tau |cell| v^2)."""
    w = grid.tau * omega.cell_volume
    return math.sqrt(w * float(np.sum(np.square(values))))


def l2_project(r, grid: TimeGrid, omega: OmegaMesh) -> np.ndarray:
    """L2(Q)-orthogonal projection of an evaluable onto piecewise constants.

    Values are the exact means over each space-time cell, computed with the
    lattice's 3-point tensor Gauss rule per cell and the 2-point rule per
    step; r is evaluated once per block of steps.
    """
    quad = omega_quadrature(omega)
    out = np.empty((grid.K, omega.n_cells))
    for steps, t0, t1 in step_blocks(grid, quad.points.shape[0]):
        vals = time_average(r, quad.points, t0, t1, "exact solution")
        out[steps] = quad.cell_integrals(vals) / omega.cell_volume
    return out


def project_trace(trace_int: np.ndarray, system: CylinderSystem) -> np.ndarray:
    """Cell means of the piecewise-linear trace function, integrated exactly.

    ``trace_int`` holds interior values along its last axis, as every apply
    of the system does; a (K, n_interior) array gives the means of K traces
    in one product.
    """
    return system.cell_integrals(trace_int) / system.mesh.omega.cell_volume


class ReducedProblem:
    """Reduced cost of the discrete control problem with precomputed data.

    Assembles the forcing and desired-state step averages once and keeps
    their modal data b_f_hat = Phi^T b_f, b_ud_hat = Phi^T b_ud, the
    constant terms ``c_ud``, w0_hat = Phi^T M_int tr V^0 and sum_k c_ud^k.
    The nodal loads ``b_f`` and ``b_ud`` are not kept: each is built on
    first read, by the same computation, for the nodal marches of
    :meth:`state` and :meth:`adjoint`.
    :meth:`cost_and_gradient` stays in modal trace coefficients:

    1. w_hat = T^{-1}(b_f_hat + C1 z; w0_hat), one state march;
    2. J = tau/2 (|w_hat|^2 - 2 <w_hat, b_ud_hat> + sum_k c_ud^k)
       + mu tau |cell|/2 |z|^2, by Parseval (Phi^T M_int Phi = I);
    3. p_hat = T^{-T}(w_hat - b_ud_hat), one adjoint march;
    4. grad = mu z + C1^T p_hat/|cell|,

    and returns (J, grad, w_hat, p_hat); C1 = Phi^T B_int, the n-fold power
    of c1 = phi^T b1, is the modal map of the control loads
    (:meth:`CylinderSystem.control_to_modal`). Nodal traces are formed by
    :meth:`state` and :meth:`adjoint`, which run the nodal marches. The
    problem builds its own ``system``, of (mesh, params, grid, data.reaction).
    """

    def __init__(self, data: ProblemData, params: FractionalParams,
                 mesh: CylinderMesh, grid: TimeGrid):
        self.data = data
        self.params = params
        self.mesh = mesh
        self.grid = grid
        self.system = CylinderSystem(mesh, params, grid, reaction=data.reaction)
        sysm = self.system
        self.cell_volume = mesh.omega.cell_volume
        self.weight = grid.tau * self.cell_volume

        # each nodal load array is dropped once transformed, before the next is built
        b_ud, self.c_ud = self._desired_state_data()
        self.b_ud_hat = sysm.to_modal(b_ud)
        del b_ud
        self.b_f_hat = sysm.to_modal(forcing_loads(data.forcing, grid, sysm.quad))
        self.trace0 = sysm.initial_field(data.initial)
        self.w0_hat = sysm.to_modal(sysm.mass(self.trace0))
        self.c_ud_sum = float(np.sum(self.c_ud))

    def _desired_state_data(self):
        """(b_ud, c_ud): loads <u_d^k, phi_i> and the constant terms int (u_d^k)^2.

        Both come from one evaluation of u_d per block of steps, with the
        quadrature of forcing_loads.
        """
        quad, grid = self.system.quad, self.grid
        b_ud = np.empty((grid.K, self.system.n_interior))
        c_ud = np.empty(grid.K)
        vals = None
        for steps, t0, t1 in step_blocks(grid, quad.points.shape[0]):
            vals = time_average(self.data.desired_state, quad.points, t0, t1,
                                "desired state", out=vals)
            b_ud[steps] = quad.loads(vals)
            c_ud[steps] = np.square(vals) @ quad.weights
        return b_ud, c_ud

    @cached_property
    def b_f(self) -> np.ndarray:
        """Nodal forcing loads, (K, n_interior); built on first read."""
        return forcing_loads(self.data.forcing, self.grid, self.system.quad)

    @cached_property
    def b_ud(self) -> np.ndarray:
        """Nodal desired-state loads, (K, n_interior); built on first read."""
        return self._desired_state_data()[0]

    def new_control(self, values) -> ControlField:
        return ControlField(values=np.asarray(values, dtype=float),
                            bounds=self.data.bounds, grid=self.grid, omega=self.mesh.omega)

    def state(self, zvals: np.ndarray) -> Trajectory:
        loads = self.b_f + self.system.control_loads(zvals)
        return state_march(self.system, self.trace0, loads)

    def adjoint(self, state: Trajectory) -> Trajectory:
        loads = self.system.mass(state.traces[1:]) - self.b_ud
        return adjoint_march(self.system, loads)

    def cost_and_gradient(self, zvals: np.ndarray):
        """(cost, gradient, w_hat, p_hat) at the control values ``zvals``.

        w_hat and p_hat are the (K, n_interior) modal trace coefficients of
        the state at steps 1..K and of the adjoint at steps 0..K-1; hand them
        to :func:`~fracopt.evolution.state_trajectory` and
        :func:`~fracopt.evolution.adjoint_trajectory` for nodal traces.
        A control of another shape than (K, n_cells), or one that makes the
        cost non-finite, raises ParameterError.
        """
        shape = (self.grid.K, self.mesh.omega.n_cells)
        if np.shape(zvals) != shape:
            raise ParameterError(f"control must have shape {shape}, got {np.shape(zvals)}")
        loads = self.system.control_to_modal(zvals)
        loads += self.b_f_hat
        w_hat = self.system.march.solve(loads, self.w0_hat)
        del loads
        track = (float(np.vdot(w_hat, w_hat)) - 2.0 * float(np.vdot(w_hat, self.b_ud_hat))
                 + self.c_ud_sum)
        reg = self.cell_volume * float(np.vdot(zvals, zvals))
        cost = 0.5 * self.grid.tau * track + 0.5 * self.data.bounds.mu * self.grid.tau * reg
        if not math.isfinite(cost):
            # NaN or inf anywhere in the control or the state reaches the cost
            raise ParameterError(f"reduced cost is not finite ({cost}); check the control")
        p_hat = self.system.march.solve_transposed(w_hat - self.b_ud_hat)
        grad = self.system.modal_to_control(p_hat)
        grad /= self.cell_volume
        grad += self.data.bounds.mu * zvals
        return cost, grad, w_hat, p_hat


def vi_residual(control: ControlField, p_cell_means: np.ndarray) -> float:
    """Distance of z from the projection-formula fixed point.

    Returns ||z - clamp(-Pi(tr p)/mu, a, b)||_{l2(L2)}; zero exactly when the
    discrete variational inequality holds cellwise.
    """
    b = control.bounds
    target = clamp(-p_cell_means / b.mu, b.a, b.b)
    return control_norm(control.values - target, control.grid, control.omega)


@dataclass
class OptimizeResult:
    """Outcome of the projected quasi-Newton iteration."""

    control: ControlField
    cost: float
    pg_history: list
    iterations: int
    converged: bool
    state: Trajectory
    adjoint: Trajectory
    cost_history: list = field(default_factory=list)

    @property
    def pg_norm(self) -> float:
        return self.pg_history[-1] if self.pg_history else math.inf


def _two_loop(g: np.ndarray, pairs, inv_seed: float, dot) -> np.ndarray:
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


# correction pairs kept by projected_bfgs
_MEMORY = 10


def projected_bfgs(fun_and_grad, z0: np.ndarray, bounds: ControlBounds,
                   weight: float, tol: float = 1e-9, max_iter: int = 400) -> dict:
    """Projected limited-memory BFGS with Armijo backtracking.

    ``fun_and_grad(z) -> (f, g)`` with g the Riesz representative in the
    weighted inner product <u, v> = weight * sum(u v). Iterates are clamped
    to the box; bound-active coordinates whose gradient points outward get
    the steepest-descent direction while the quasi-Newton model acts on the
    rest. Terminates when ||z - clamp(z - g)|| <= tol. The inverse Hessian
    seed is 1/mu, mu the regularization weight (the exact Hessian of the
    penalty term), until pairs exist; at most 10 pairs are kept. Each pair
    is stored once, whole. The model works on the free coordinates only:
    every iteration restricts the stored pairs to its free set and
    curvature-tests the restrictions, which feed the seed and both loops of
    the two-loop recursion and are dropped before the line search.
    """
    a, b = bounds.a, bounds.b
    dot = lambda u, v: weight * float(np.vdot(u, v))
    nrm = lambda u: math.sqrt(max(dot(u, u), 0.0))

    def free_pair(s, y, idx):
        """(s, y) at the flat indices idx, or None if that fails the curvature test."""
        s, y = s.take(idx), y.take(idx)
        return (s, y) if dot(y, s) > 1e-14 * nrm(y) * nrm(s) else None

    def apply_model(d, g, free):
        """Set d[free] to the model direction -H g[free] unless it is uphill.

        H is built from the stored pairs restricted to ``free``; d stays as
        it is when no restriction passes the curvature test. The
        restrictions live only in this call.
        """
        idx = np.flatnonzero(free)
        model = [m for m in (free_pair(s, y, idx) for s, y in pairs) if m is not None]
        if not model:
            return
        gf = g.take(idx)
        s_l, y_l = model[-1]
        # curvature-scaled seed once pairs exist
        df = _two_loop(gf, model, dot(s_l, y_l) / dot(y_l, y_l), dot)
        np.negative(df, out=df)
        if not dot(df, gf) > 0.0:   # an uphill model keeps steepest descent
            np.put(d, idx, df)

    z = clamp(z0, a, b)
    f, g = fun_and_grad(z)
    # the accepted (s, y) pairs, whole
    pairs: list = []
    # the projected gradient, then each trial step; an accepted step is kept
    # as the pair's s and a fresh work array replaces it
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
        # mu-scaled steepest descent; the model replaces it on the free set
        d = g / -bounds.mu
        apply_model(d, g, free)

        # Armijo backtracking on the projected path, with a roundoff
        # allowance so decrease can be certified near the noise floor of f.
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
            pairs.append((s_vec, y_vec))
            if len(pairs) > _MEMORY:
                pairs.pop(0)
        z, f, g = z_trial, f_trial, g_trial
        cost_history.append(f)
    else:
        # the iteration cap ended the loop after a step: measure the new iterate
        pg_history.append(nrm(z - clamp(z - g, a, b)))
        converged = pg_history[-1] <= tol
    return {"z": z, "f": f, "g": g, "pg_history": pg_history,
            "iterations": n_iter, "converged": converged,
            "cost_history": cost_history}


def check_stopping(tol: float, max_iter: int) -> None:
    """Raise ParameterError unless tol is finite and > 0 and max_iter >= 1."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tolerance must be finite and > 0, got tol = {tol}")
    if not max_iter >= 1:
        raise ParameterError(f"need at least one iteration, got max_iter = {max_iter}")


def solve_control_problem(data: ProblemData, params: FractionalParams,
                          mesh: CylinderMesh, grid: TimeGrid,
                          z0: np.ndarray | None = None, tol: float = 1e-9,
                          max_iter: int = 400,
                          prob: ReducedProblem | None = None) -> OptimizeResult:
    """Minimize the reduced cost over the discrete admissible set.

    ``tol`` must be finite and > 0 and ``max_iter`` >= 1, else
    ParameterError: a stopping rule that can never be met is refused
    before any work. A ``prob`` must have been built from this ``data`` and
    ``mesh`` (the same objects) and an equal ``grid`` and ``params``, else
    ParameterError.
    """
    check_stopping(tol, max_iter)
    if prob is None:
        prob = ReducedProblem(data, params, mesh, grid)
    elif not (prob.data is data and prob.mesh is mesh and prob.grid == grid
              and prob.params == params):
        raise ParameterError("prob was built for another data, mesh, grid or params")
    if z0 is None:
        z0 = np.zeros((grid.K, mesh.omega.n_cells))
    elif not np.all(np.isfinite(z0)):
        raise ParameterError("start control z0 has non-finite entries")

    last = {}

    def fun_and_grad(z):
        last.clear()        # drop the previous trajectories before making new ones
        f, g, w_hat, p_hat = prob.cost_and_gradient(z)
        last.update(z=z, f=f, w_hat=w_hat, p_hat=p_hat)
        return f, g

    raw = projected_bfgs(fun_and_grad, z0, data.bounds, prob.weight,
                         tol=tol, max_iter=max_iter)
    if last["z"] is not raw["z"]:
        # the last evaluation was a rejected line-search trial
        fun_and_grad(raw["z"])
    zopt = prob.new_control(raw["z"])
    return OptimizeResult(control=zopt, cost=last["f"], pg_history=raw["pg_history"],
                          iterations=raw["iterations"], converged=raw["converged"],
                          state=state_trajectory(prob.system, prob.trace0, last["w_hat"]),
                          adjoint=adjoint_trajectory(prob.system, last["p_hat"]),
                          cost_history=raw["cost_history"])
