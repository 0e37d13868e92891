"""Box-constrained optimal control of the fractional heat equation.

Runs the projected quasi-Newton solver on the manufactured problem whose
exact optimum is known in closed form, then verifies the discrete
optimality conditions: projected-gradient norm, the variational-inequality
residual, and the pointwise projection formula z = clamp(-Pi(tr p)/mu).
"""
import numpy as np

from fracopt import clamp, solve_control_problem, vi_residual
from fracopt.control import ReducedProblem, control_norm, project_trace
from fracopt.harness import build_setup, l2Q_error, manufactured_data
from fracopt.oracle import manufactured_problem

s, mu, T = 0.4, 1.0, 1.0
M, K = 8, 32

man = manufactured_problem(s, mu, T, n=2)
mesh, params, grid = build_setup(2, M, s, 1.0, T, K)
data = manufactured_data(man, mu)
prob = ReducedProblem(data, params, mesh, grid)

print(f"manufactured problem: s={s}, mu={mu}, bounds [{man.a}, {man.b}], "
      f"N={mesh.n_free} unknowns, {grid.K} steps, "
      f"{grid.K * mesh.omega.n_cells} control values")

result = solve_control_problem(data, params, mesh, grid, tol=1e-9, prob=prob)
print(f"converged: {result.converged} after {result.iterations} iterations")
print(f"cost {result.cost:.10f}, projected gradient {result.pg_norm:.3e}")

err_z = l2Q_error(result.control.values, man.control, grid, mesh.omega, kind="control")
err_u = l2Q_error(result.state.traces, man.state, grid, mesh.omega)
print(f"control error vs exact optimum: {err_z:.5f}")
print(f"state error vs exact optimum:   {err_u:.5f}")

# first-order optimality: z is the clamped adjoint cell average
p_means = np.stack([project_trace(result.adjoint.traces[k], prob.system)
                    for k in range(grid.K)])
print(f"vi residual: {vi_residual(result.control, p_means):.3e}")
fixed_point = clamp(-p_means / mu, man.a, man.b)
gap = control_norm(result.control.values - fixed_point, grid, mesh.omega)
print(f"projection fixed-point gap: {gap:.3e}")

active_low = np.mean(result.control.values <= man.a)
active_up = np.mean(result.control.values >= man.b)
print(f"active set: {100 * active_low:.1f}% at lower bound, "
      f"{100 * active_up:.1f}% at upper bound")
