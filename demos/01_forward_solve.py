"""Forward solve of the fractional heat equation via the extended cylinder.

Solves d_t u + (-Laplace)^s u = 0 on the unit square with a single
eigenfunction as initial datum, using the graded tensor-product mesh on
the truncated cylinder, and compares the trace against the known spectral
decay exp(-lambda^s t).
"""
import numpy as np

from fracopt import (ControlBounds, CylinderSystem, ProblemData, TimeGrid,
                     FractionalParams, build_cylinder, build_omega, default_zeta,
                     graded_axis, select_truncation, solve_state)
from fracopt.evolution import state_trajectory
from fracopt.harness import l2Q_error
from fracopt.oracle import mode

s = 0.6                      # fractional diffusion order
T, K = 0.5, 64
md = mode(1, 1)              # first Dirichlet eigenfunction of the square
lam_s = md.lam ** s

print(f"fractional order s = {s}, eigenvalue lambda_11 = {md.lam:.4f}, "
      f"lambda^s = {lam_s:.4f}")
print(f"{'M':>4} {'N':>6} {'Y':>6} {'l2(L2) error':>14}")

zero = lambda x, t: np.zeros(np.atleast_2d(x).shape[0])
for M in (4, 8, 16):
    N_est = (M - 1) ** 2 * M
    Y = select_truncation(max(N_est, 8), s, 2)
    params = FractionalParams(s, 1.0)
    zeta = default_zeta(params.alpha)
    mesh = build_cylinder(build_omega(2, M), graded_axis(M, Y, zeta))
    grid = TimeGrid(T=T, K=K)

    data = ProblemData(forcing=zero, desired_state=zero,
                       initial=lambda x: md(x), bounds=ControlBounds(-1, 1, 1.0))
    system = CylinderSystem(mesh, params, grid)
    # the march runs in modal coefficients; the nodal traces are formed here
    traj = state_trajectory(system, system.initial_field(data.initial), solve_state(system, data))

    exact = lambda x, t: np.exp(-lam_s * t) * md(x)
    err = l2Q_error(traj.traces, exact, grid, mesh.omega)
    print(f"{M:>4} {mesh.n_free:>6} {Y:>6.2f} {err:>14.6e}")

print("\nThe trace converges to the spectral solution as the cylinder mesh "
      "is refined; the height Y grows logarithmically with N.")
