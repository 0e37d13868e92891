"""Discrete controls, reduced cost/gradient, and the projected quasi-Newton loop.

Controls are piecewise constant on the space-time cells (t_{k-1}, t_k] x K.
The reduced gradient is derived from the discrete adjoint, so cost and
gradient are consistent to machine precision: the representative of the
tracking derivative on step k is the cell average of the adjoint trace at
index k-1 (the adjoint sequence read in reversed time).

The optimizer runs in modal trace coefficients. With Phi the
M_Omega-orthonormal lattice modes (Phi^T M_int Phi = I, see
:mod:`fracopt.evolution`), a trace tr = Phi w_hat, and b_hat = Phi^T b for
any interior load b, Parseval gives the tracking cost

    tau/2 sum_k (|w_hat^k|^2 - 2 <w_hat^k, b_ud_hat^k> + c_ud^k),

and the adjoint load M_int tr V - b_ud becomes w_hat - b_ud_hat. The control
loads B_int z enter as Phi^T B_int z = c1 Z c1^T per axis, where B_int is the
Kronecker power of the (m-1) x m hat-over-cell matrix B1 (entries h/2) and
c1 = phi^T B1; the gradient's B_int^T Phi p_hat is c1^T P_hat c1. So a
cost-and-gradient evaluation does one state and one adjoint march and no
nodal transform; :meth:`ReducedProblem.trajectories` forms the nodal traces
once, for the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import omega_quadrature, step_blocks, time_average
from .evolution import (AdjointTrajectory, CylinderSystem, StateTrajectory,
                        adjoint_march, forcing_loads, state_march)
from .mesh import OmegaMesh, CylinderMesh
from .problem import ControlBounds, FractionalParams, ParameterError, ProblemData, TimeGrid


@dataclass
class ControlField:
    """Piecewise-constant control: values[k][cell] on (t_k, t_{k+1}] x cell."""

    values: np.ndarray             # (K, n_cells)
    bounds: ControlBounds
    grid: TimeGrid
    omega: OmegaMesh

    def clamped(self) -> "ControlField":
        return ControlField(values=clamp(self.values, self.bounds.a, self.bounds.b),
                            bounds=self.bounds, grid=self.grid, omega=self.omega)

    def is_admissible(self, tol: float = 0.0) -> bool:
        return bool(np.all(self.values >= self.bounds.a - tol)
                    and np.all(self.values <= self.bounds.b + tol))


def clamp(values, a: float, b: float) -> np.ndarray:
    """Entrywise max(a, min(b, v))."""
    if a > b:
        raise ParameterError(f"bounds out of order: a = {a} > b = {b}")
    return np.clip(np.asarray(values, dtype=float), a, b)


def control_norm(values: np.ndarray, grid: TimeGrid, omega: OmegaMesh) -> float:
    """l2(L2) norm of a piecewise-constant field: sqrt(sum tau |cell| v^2)."""
    w = grid.tau * omega.cell_volume
    return math.sqrt(w * float(np.sum(np.square(values))))


def l2_project(r, grid: TimeGrid, omega: OmegaMesh, bounds: ControlBounds | None = None,
               quad=None) -> np.ndarray:
    """L2(Q)-orthogonal projection of an evaluable onto piecewise constants.

    Values are the exact means over each space-time cell, computed with the
    3-point tensor Gauss rule per cell and the 2-point rule per step; r is
    evaluated once per block of steps.
    """
    if quad is None:
        quad = omega_quadrature(omega)
    n_points = quad.points.shape[0]
    # (n_points, n_cells): quadrature weight of each point in its cell's sum
    cell_sum = sp.csr_matrix((quad.weights, (np.arange(n_points), quad.cell_of)),
                             shape=(n_points, omega.n_cells))
    out = np.empty((grid.K, omega.n_cells))
    for steps, t0, t1 in step_blocks(grid, n_points):
        vals = time_average(r, quad.points, t0, t1, "exact solution")
        out[steps] = (vals @ cell_sum) / omega.cell_volume
    return out


def project_trace(trace_int: np.ndarray, system: CylinderSystem) -> np.ndarray:
    """Cell means of the piecewise-linear trace function, integrated exactly.

    ``trace_int`` holds interior values along its first axis; a (n_interior,
    K) array gives the means of K traces in one product.
    """
    vol = system.mesh.omega.cell_volume
    return (system.B_int_T @ trace_int) / vol


class ReducedProblem:
    """Reduced cost of the discrete control problem with precomputed data.

    Assembles the forcing and desired-state step averages (``b_f``, ``b_ud``,
    ``c_ud``) once, and their modal data b_f_hat = Phi^T b_f, b_ud_hat =
    Phi^T b_ud, w0_hat = Phi^T M_int tr V^0 and sum_k c_ud^k.
    :meth:`cost_and_gradient` stays in modal trace coefficients:

    1. w_hat = T^{-1}(b_f_hat + c1 Z c1^T; w0_hat), one state march;
    2. J = tau/2 (|w_hat|^2 - 2 <w_hat, b_ud_hat> + sum_k c_ud^k)
       + mu tau |cell|/2 |z|^2, by Parseval (Phi^T M_int Phi = I);
    3. p_hat = T^{-T}(w_hat - b_ud_hat), one adjoint march;
    4. grad = mu z + c1^T P_hat c1/|cell|,

    and returns (J, grad, w_hat, p_hat); c1 = phi^T B1 is the modal factor
    of the control loads (:meth:`CylinderSystem.control_to_modal`). Nodal
    traces are formed by :meth:`trajectories`, and by :meth:`state` and
    :meth:`adjoint`, which run the nodal marches.
    """

    def __init__(self, data: ProblemData, params: FractionalParams,
                 mesh: CylinderMesh, grid: TimeGrid,
                 system: CylinderSystem | None = None):
        self.data = data
        self.params = params
        self.mesh = mesh
        self.grid = grid
        self.system = system or CylinderSystem(mesh, params, grid, reaction=data.reaction)
        sysm = self.system
        self.bounds = data.bounds
        self.mu = data.bounds.mu
        self.cell_volume = mesh.omega.cell_volume
        self.weight = grid.tau * self.cell_volume

        self.b_f = forcing_loads(data.forcing, grid, mesh, sysm.quad, sysm.interior)
        # loads <u_d^k, phi_i> and the constant term int (u_d^k)^2 from one
        # evaluation of u_d per block of steps, with the quadrature of forcing_loads
        quad = sysm.quad
        scatter = quad.scatter[sysm.interior]
        self.b_ud = np.empty((grid.K, sysm.n_interior))
        self.c_ud = np.empty(grid.K)
        for steps, t0, t1 in step_blocks(grid, quad.points.shape[0]):
            vals = time_average(data.desired_state, quad.points, t0, t1, "desired state")
            self.b_ud[steps] = (scatter @ vals.T).T
            self.c_ud[steps] = np.square(vals) @ quad.weights
        self.trace0 = sysm.initial_field(data.initial)[sysm.tpos]

        self.b_f_hat = sysm.to_modal(self.b_f)
        self.b_ud_hat = sysm.to_modal(self.b_ud)
        self.w0_hat = sysm.to_modal(sysm.M_int @ self.trace0)
        self.c_ud_sum = float(np.sum(self.c_ud))

    def new_control(self, values=None) -> ControlField:
        if values is None:
            values = np.zeros((self.grid.K, self.mesh.omega.n_cells))
        return ControlField(values=np.asarray(values, dtype=float),
                            bounds=self.bounds, grid=self.grid, omega=self.mesh.omega)

    def state(self, zvals: np.ndarray) -> StateTrajectory:
        loads = self.b_f + (self.system.B_int @ zvals.T).T
        return state_march(self.system, self.trace0, loads)

    def adjoint(self, state: StateTrajectory) -> AdjointTrajectory:
        loads = (self.system.M_int @ state.traces[1:].T).T - self.b_ud
        return adjoint_march(self.system, loads)

    def _modal_state(self, zvals: np.ndarray) -> np.ndarray:
        shape = (self.grid.K, self.mesh.omega.n_cells)
        if np.shape(zvals) != shape:
            raise ParameterError(f"control must have shape {shape}, got {np.shape(zvals)}")
        loads = self.system.control_to_modal(zvals)
        loads += self.b_f_hat
        return self.system.march.solve(loads, self.w0_hat)

    def _cost(self, w_hat: np.ndarray, zvals: np.ndarray) -> float:
        track = (float(np.vdot(w_hat, w_hat)) - 2.0 * float(np.vdot(w_hat, self.b_ud_hat))
                 + self.c_ud_sum)
        reg = self.cell_volume * float(np.vdot(zvals, zvals))
        cost = 0.5 * self.grid.tau * track + 0.5 * self.mu * self.grid.tau * reg
        if not math.isfinite(cost):
            # NaN or inf anywhere in the control or the state reaches the cost
            raise ParameterError(f"reduced cost is not finite ({cost}); check the control")
        return cost

    def cost(self, zvals: np.ndarray) -> float:
        return self._cost(self._modal_state(zvals), zvals)

    def cost_and_gradient(self, zvals: np.ndarray):
        """(cost, gradient, w_hat, p_hat) at the control values ``zvals``.

        w_hat and p_hat are the (K, n_interior) modal trace coefficients of
        the state at steps 1..K and of the adjoint at steps 0..K-1; hand them
        to :meth:`trajectories` for nodal traces.
        """
        w_hat = self._modal_state(zvals)
        cost = self._cost(w_hat, zvals)
        p_hat = self.system.march.solve_transposed(w_hat - self.b_ud_hat)
        grad = self.system.modal_to_control(p_hat)
        grad /= self.cell_volume
        grad += self.mu * zvals
        return cost, grad, w_hat, p_hat

    def trajectories(self, w_hat: np.ndarray, p_hat: np.ndarray):
        """Nodal state and adjoint trajectories of modal trace coefficients."""
        sysm = self.system
        traces = np.empty((self.grid.K + 1, sysm.n_interior))
        traces[0] = self.trace0
        traces[1:] = sysm.from_modal(w_hat)
        adj = np.zeros((self.grid.K + 1, sysm.n_interior))
        adj[:-1] = sysm.from_modal(p_hat)
        return (StateTrajectory(traces=traces, grid=self.grid),
                AdjointTrajectory(traces=adj, grid=self.grid))


def reduced_cost(control: ControlField, prob: ReducedProblem) -> float:
    """J(S z, z) = 1/2 ||tr V - u_d||^2_{l2(L2)} + mu/2 ||z||^2_{l2(L2)}."""
    return prob.cost(np.asarray(control.values, dtype=float))


def reduced_gradient(control: ControlField, prob: ReducedProblem) -> np.ndarray:
    """Riesz representative mu z + Pi(tr P) of the reduced derivative."""
    _, grad, _, _ = prob.cost_and_gradient(np.asarray(control.values, dtype=float))
    return grad


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
    state: StateTrajectory | None = None
    adjoint: AdjointTrajectory | None = None
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


def projected_bfgs(fun_and_grad, z0: np.ndarray, bounds: ControlBounds,
                   weight: float, tol: float = 1e-9, max_iter: int = 400,
                   memory: int = 10, seed: float | None = None,
                   callback=None) -> dict:
    """Projected limited-memory BFGS with Armijo backtracking.

    ``fun_and_grad(z) -> (f, g)`` with g the Riesz representative in the
    weighted inner product <u, v> = weight * sum(u v). Iterates are clamped
    to the box; bound-active coordinates whose gradient points outward get
    the steepest-descent direction while the quasi-Newton model acts on the
    rest. Terminates when ||z - clamp(z - g)|| <= tol. The inverse Hessian
    seed is 1/seed (seed defaults to the regularization weight mu, the exact
    Hessian of the penalty term). The model works on the free coordinates
    only: stored pairs are restricted to the free set and curvature-tested
    once per free set, not once per iteration.
    """
    if isinstance(z0, ControlField):
        z0 = z0.values
    a, b = bounds.a, bounds.b
    if seed is None:
        seed = bounds.mu
    dot = lambda u, v: weight * float(np.vdot(u, v))
    nrm = lambda u: math.sqrt(max(dot(u, u), 0.0))

    def free_pair(s, y, free):
        """(s[free], y[free]), or None if it fails the curvature test."""
        s, y = s[free], y[free]
        return (s, y) if dot(y, s) > 1e-14 * nrm(y) * nrm(s) else None

    z = clamp(z0, a, b)
    f, g = fun_and_grad(z)
    # (s, y, free_pair(s, y, mask_free)) for each stored pair
    pairs: list = []
    mask_free = None
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
        if callback is not None:
            callback(n_iter, z, f, pg_norm)
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
        # mu-scaled steepest descent; the model replaces it on the free set
        d = g / -seed
        if model:
            # curvature-scaled seed once pairs exist
            gf = g[free]
            s_l, y_l = model[-1]
            inv_seed = dot(s_l, y_l) / dot(y_l, y_l)
            df = _two_loop(gf, model, inv_seed, dot)
            np.negative(df, out=df)
            if not dot(df, gf) > 0.0:   # an uphill model keeps steepest descent
                d[free] = df

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
            pairs.append((s_vec, y_vec, free_pair(s_vec, y_vec, mask_free)))
            if len(pairs) > memory:
                pairs.pop(0)
        z, f, g = z_trial, f_trial, g_trial
        cost_history.append(f)
    else:
        n_iter = max_iter

    if not converged:
        pg = z - clamp(z - g, a, b)
        pg_history.append(nrm(pg))
        converged = pg_history[-1] <= tol
    return {"z": z, "f": f, "g": g, "pg_history": pg_history,
            "iterations": n_iter, "converged": converged,
            "cost_history": cost_history}


def solve_control_problem(data: ProblemData, params: FractionalParams,
                          mesh: CylinderMesh, grid: TimeGrid,
                          z0: np.ndarray | None = None, tol: float = 1e-9,
                          max_iter: int = 400,
                          prob: ReducedProblem | None = None) -> OptimizeResult:
    """Minimize the reduced cost over the discrete admissible set."""
    if prob is None:
        prob = ReducedProblem(data, params, mesh, grid)
    if z0 is None:
        z0 = np.zeros((grid.K, mesh.omega.n_cells))
    elif not np.all(np.isfinite(z0)):
        raise ParameterError("start control z0 has non-finite entries")

    last = {}

    def fun_and_grad(z):
        f, g, w_hat, p_hat = prob.cost_and_gradient(z)
        last.update(z=z, f=f, w_hat=w_hat, p_hat=p_hat)
        return f, g

    raw = projected_bfgs(fun_and_grad, z0, data.bounds, prob.weight,
                         tol=tol, max_iter=max_iter, seed=data.bounds.mu)
    if last["z"] is not raw["z"]:
        # the last evaluation was a rejected line-search trial
        fun_and_grad(raw["z"])
    state, adj = prob.trajectories(last["w_hat"], last["p_hat"])
    zopt = prob.new_control(raw["z"])
    return OptimizeResult(control=zopt, cost=last["f"], pg_history=raw["pg_history"],
                          iterations=raw["iterations"], converged=raw["converged"],
                          state=state, adjoint=adj, cost_history=raw["cost_history"])
