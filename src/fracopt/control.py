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

    tau/2 (|w_hat - b_ud_hat|^2 + c_res),   c_res = sum_k ||u_d^k - P u_d^k||_q^2,

with P the Gauss-rule projection onto the interior Q1 space, and the
adjoint load M_int tr V - b_ud becomes the same residual w_hat - b_ud_hat.
c_res is formed once, with b_ud_hat, as a sum of non-negative terms
(:func:`~fracopt.evolution.modal_projection`), and what varies with the
control is a sum of squares, so nothing cancels. Expanding the square instead
left about 170 eps |J| of roundoff in J at the optimum of a small problem
with mu = 1e-2, above the line search's allowance of 8 eps |J|. The
control loads enter as Phi^T B_int z, the power of c1 = phi^T b1 applied per
axis, the gradient's B_int^T Phi p_hat is the power of c1^T and the
initial trace's Phi^{-1} tr = Phi^T M_int tr the power of phi^T m1. So a
cost-and-gradient evaluation does one modal state and one modal adjoint march
(:func:`~fracopt.evolution.state_march`, :func:`~fracopt.evolution.adjoint_march`)
and no nodal transform; the result's nodal traces are formed once, at the end
(:func:`~fracopt.evolution.state_trajectory`, :func:`~fracopt.evolution.adjoint_trajectory`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import (at_points, kron_apply, omega_quadrature, separable_loads, step_blocks,
                       time_average)
from .evolution import (CylinderSystem, Trajectory, adjoint_march, adjoint_trajectory,
                        forcing_loads, modal_projection, state_march, state_trajectory)
from .mesh import OmegaMesh, CylinderMesh
from .problem import (ControlBounds, FractionalParams, ParameterError, ProblemData, TimeGrid,
                      separable)


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
    step, in one per-axis apply (``OmegaQuadrature.means1``). A separable r
    is read from its terms (:func:`~fracopt.assembly.separable_loads`, a
    clipped term from its pieces); any other r is evaluated once per block
    of steps (:func:`~fracopt.assembly.at_points`).
    """
    quad = omega_quadrature(omega)
    sep = separable(r)
    if sep is not None:
        return separable_loads(sep, grid, quad.points, quad.means1, "exact solution")
    values = at_points(r, quad.points, "exact solution")
    out = np.empty((grid.K, omega.n_cells))
    avg = None
    for steps, t0, t1 in step_blocks(grid, quad.points.shape[0]):
        avg = time_average(values, t0, t1, out=avg)
        kron_apply(quad.means1, avg, omega.n, out=out[steps])
    return out


def project_trace(trace_int: np.ndarray, system: CylinderSystem) -> np.ndarray:
    """Cell means of the piecewise-linear trace function, integrated exactly.

    ``trace_int`` holds interior values along its last axis, as every apply
    of the system does; a (K, n_interior) array gives the means of K traces
    in one apply of B_int^T/|cell|. Another last axis raises ParameterError.
    """
    if np.shape(trace_int)[-1:] != (system.n_interior,):
        raise ParameterError(f"traces need a last axis of n_interior = {system.n_interior}, "
                             f"got shape {np.shape(trace_int)}")
    return kron_apply(system.factors.means, trace_int, system.n)


class ReducedProblem:
    """Reduced cost of the discrete control problem with precomputed modal data.

    Loads the forcing and desired-state step averages once and keeps only
    their modal data b_f_hat = Phi^T b_f (:func:`~fracopt.evolution.forcing_loads`),
    b_ud_hat = Phi^T b_ud, w0_hat = Phi^{-1} tr V^0 and the constant c_res =
    sum_k ||u_d^k - P u_d^k||_q^2, the second and the last from one projection
    of u_d (:func:`~fracopt.evolution.modal_projection`). A zero forcing (None)
    has no loads: b_f_hat is None and an evaluation adds nothing for it.
    :meth:`cost_and_gradient` stays in modal trace coefficients:

    1. w_hat = T^{-1}(b_f_hat + C1 z; w0_hat), one state march;
    2. J = tau/2 (|w_hat - b_ud_hat|^2 + c_res) + mu tau |cell|/2 |z|^2,
       by Parseval (Phi^T M_int Phi = I);
    3. p_hat = T^{-T}(w_hat - b_ud_hat), one adjoint march on the same residual;
    4. grad = mu z + C1^T p_hat/|cell|,

    and returns (J, grad, w_hat, p_hat); C1 = Phi^T B_int, the n-fold power
    of c1 = phi^T b1, is the modal map of the control loads
    (:meth:`CylinderSystem.control_to_modal`). The problem builds its own
    ``system``, of (mesh, params, grid) of one height; the reaction is
    ``params.reaction``.
    """

    def __init__(self, data: ProblemData, params: FractionalParams,
                 mesh: CylinderMesh, grid: TimeGrid):
        self.data = data
        self.params = params
        self.mesh = mesh
        self.grid = grid
        if mesh.axis.nodes.ndim > 1:
            raise ParameterError(f"a control problem needs one height, not {mesh.axis.Y}")
        self.system = CylinderSystem(mesh, params, grid)
        sysm = self.system
        self.cell_volume = mesh.omega.cell_volume
        self.weight = grid.tau * self.cell_volume

        self.b_f_hat = None
        if data.forcing is not None:
            self.b_f_hat = forcing_loads(data.forcing, sysm)
        self.b_ud_hat, self.c_res = modal_projection(data.desired_state, grid, mesh.omega,
                                                     "desired state")
        self.trace0 = sysm.initial_field(data.initial)
        self.w0_hat = sysm.nodal_to_modal(self.trace0)

    def new_control(self, values) -> ControlField:
        return ControlField(values=np.asarray(values, dtype=float),
                            bounds=self.data.bounds, grid=self.grid, omega=self.mesh.omega)

    def cost_and_gradient(self, zvals: np.ndarray):
        """(cost, gradient, w_hat, p_hat) at the control values ``zvals``.

        w_hat and p_hat are the (K, n_interior) modal trace coefficients of
        the state at steps 1..K and of the adjoint at steps 0..K-1; hand them
        to :func:`~fracopt.evolution.state_trajectory` and
        :func:`~fracopt.evolution.adjoint_trajectory` for nodal traces.
        A control of another shape than (K, n_cells), or one that makes the
        state or the cost non-finite, raises ParameterError.
        """
        shape = (self.grid.K, self.mesh.omega.n_cells)
        if np.shape(zvals) != shape:
            raise ParameterError(f"control must have shape {shape}, got {np.shape(zvals)}")
        loads = self.system.control_to_modal(zvals)
        if self.b_f_hat is not None:
            loads += self.b_f_hat
        w_hat = state_march(self.system, self.w0_hat, loads)
        del loads
        residual = w_hat - self.b_ud_hat
        track = float(np.vdot(residual, residual)) + self.c_res
        reg = self.cell_volume * float(np.vdot(zvals, zvals))
        cost = 0.5 * self.grid.tau * track + 0.5 * self.data.bounds.mu * self.grid.tau * reg
        if not math.isfinite(cost):
            # an overflow: a NaN or inf in the state has stopped the state march
            raise ParameterError(f"reduced cost is not finite ({cost}); check the control")
        p_hat = adjoint_march(self.system, residual)
        del residual        # before the control-sized gradient arrays are made
        grad = self.system.modal_to_control(p_hat)
        grad /= self.cell_volume
        grad += self.data.bounds.mu * zvals
        return cost, grad, w_hat, p_hat


def vi_residual(control: ControlField, p_cell_means: np.ndarray) -> float:
    """Distance of z from the projection-formula fixed point.

    Returns ||z - clamp(-Pi(tr p)/mu, a, b)||_{l2(L2)} for cell means of shape (K, n_cells)
    (else ParameterError); zero exactly when the discrete variational inequality holds cellwise.
    """
    shape = (control.grid.K, control.omega.n_cells)
    if np.shape(p_cell_means) != shape:
        raise ParameterError(f"adjoint cell means must have shape (K, n_cells) = {shape}, "
                             f"got {np.shape(p_cell_means)}")
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
