"""Optimal control of space-time fractional diffusion on the extended cylinder.

A linear-quadratic tracking problem constrained by a parabolic equation with
Caputo time derivative (order gamma in (0,1]) and spectral fractional
diffusion (order s in (0,1)) is solved by restating the nonlocal operator as
the Dirichlet-to-Neumann map of a weighted elliptic problem on the truncated
cylinder Omega x (0, Y), discretizing with graded tensor-product finite
elements and finite differences in time, and minimizing over box-constrained
piecewise-constant controls with a projected quasi-Newton method.
"""

from .problem import (ControlBounds, FractionalParams, ParameterError,
                      ProblemData, TimeGrid, select_truncation)
from .mesh import (CylinderMesh, GradedAxis, OmegaMesh, build_cylinder,
                   build_omega, default_zeta, graded_axis)
from .assembly import assemble_stiffness, omega_quadrature, weight_integrals
from .evolution import (CaputoWeights, CylinderSystem, Trajectory, caputo_weights,
                        lambda_diagnostic, solve_state)
from .control import (ControlField, OptimizeResult, ReducedProblem, clamp,
                      l2_project, projected_bfgs, solve_control_problem, vi_residual)
from .oracle import (ManufacturedSolution, SpectralMode, fractional_ibp_check,
                     manufactured_problem, mode, spectral_solve_state)
from .harness import (ConvergenceReport, ExperimentConfig, fit_rate, l2Q_error,
                      run_convergence_space, run_convergence_time, run_experiment,
                      run_truncation_study)

__version__ = "0.1.0"
