"""Fractional time derivative: L1 weights, diagnostics, and gamma < 1 control.

Shows the L1 scheme's exactness on linear-in-time sequences, evaluates the
stability functional Lambda_gamma^2, and solves a gamma = 0.5 control
problem whose data were calibrated with the exact Caputo profiles so the
closed-form optimum is still known.
"""
import math

import numpy as np

from fracopt import TimeGrid, apply_discrete_caputo, caputo_weights, lambda_diagnostic
from fracopt.harness import build_setup, l2Q_error, manufactured_data
from fracopt.control import ReducedProblem, solve_control_problem
from fracopt.oracle import caputo_left, manufactured_problem

gamma = 0.5

# L1 weights and exactness on phi(t) = t
K, tau = 16, 1.0 / 16
w = caputo_weights(gamma, K, tau)
print(f"L1 weights (gamma={gamma}): a_0={w.a[0]}, a_1={w.a[1]:.6f}, "
      f"a_2={w.a[2]:.6f}, scale={w.scale:.4f}")
hist = tau * np.arange(9, dtype=float)
c_new, h_known = apply_discrete_caputo(w, hist)
got = c_new * (9 * tau) - h_known
exact = (9 * tau) ** (1 - gamma) / math.gamma(2 - gamma)
print(f"discrete Caputo of t at t_9: {got:.12f} (exact {exact:.12f})")

# Caputo derivative of e^t from the quadrature oracle vs its power series
t = 0.8
series = sum(t ** (m + 1 - gamma) / math.gamma(m + 2 - gamma) for m in range(40))
print(f"d^{gamma} e^t at t={t}: {caputo_left(np.exp, gamma, t):.12f} "
      f"(series {series:.12f})")

# stability functional of a decaying trace history
grid = TimeGrid(T=1.0, K=64)
trace_sq = np.exp(-2.0 * grid.nodes)
print(f"Lambda^2 diagnostic of exp(-2t) history: "
      f"{lambda_diagnostic(trace_sq, gamma, grid):.6f}")

# calibrated manufactured control problem at gamma = 0.5
s, mu, T = 0.5, 1.0, 1.0
man = manufactured_problem(s, mu, T, gamma=gamma, n=2)
print(f"\ngamma = {gamma} control problem (calibrated data), s = {s}:")
print(f"{'M':>4} {'K':>4} {'control error':>14} {'iters':>6}")
for (M, Kc) in ((4, 8), (8, 16), (16, 32)):
    mesh, params, gridc = build_setup(2, M, s, gamma, T, Kc)
    data = manufactured_data(man, mu)
    prob = ReducedProblem(data, params, mesh, gridc)
    res = solve_control_problem(data, params, mesh, gridc, tol=1e-9, prob=prob)
    err = l2Q_error(res.control.values, man.control, gridc, mesh.omega, kind="control")
    print(f"{M:>4} {Kc:>4} {err:>14.5f} {res.iterations:>6}")
print("errors decrease under simultaneous refinement; no rate is claimed "
      "for gamma < 1.")
