"""Batched space-time data evaluation against the per-step loops it replaced."""
import dataclasses
import math

import numpy as np
import pytest

from fracopt import TimeGrid, build_omega, l2_project, l2Q_error
from fracopt.assembly import omega_quadrature, step_blocks
from fracopt.control import ReducedProblem
from fracopt.evolution import forcing_loads
from fracopt.harness import build_setup, manufactured_data
from fracopt.oracle import manufactured_problem
from fracopt.problem import ParameterError

from helpers import (loop_desired_state_data, loop_forcing_loads, loop_l2_project,
                     loop_l2Q_error, rel_gap)

# cells per dimension: the 1D lattice is finer so that its step blocks stay short
CELLS = {1: 16, 2: 4}


def block_steps(n_points):
    """Steps per data evaluation for a rule with n_points points."""
    return next(step_blocks(TimeGrid(T=1.0, K=10 ** 9), n_points))[0].stop


@pytest.mark.parametrize("steps", ["1", "block-1", "block", "block+1", "1024"])
@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("n", [1, 2])
def test_batched_data_matches_step_loops(n, gamma, steps):
    M = CELLS[n]
    block = block_steps(omega_quadrature(build_omega(n, M)).points.shape[0])
    K = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
         "1024": 1024}[steps]
    mesh, params, grid = build_setup(n, M, 0.5, gamma, 1.0, K)
    man = manufactured_problem(0.5, 1.0, 1.0, gamma=gamma, n=n)
    prob = ReducedProblem(manufactured_data(man, 1.0), params, mesh, grid)
    quad, interior, omega = prob.system.quad, prob.system.interior, mesh.omega

    ref_f = loop_forcing_loads(man.forcing, grid, omega)
    assert rel_gap(forcing_loads(man.forcing, grid, quad), ref_f) <= 1e-13
    assert rel_gap(prob.b_f, ref_f) <= 1e-13
    b_ud, c_ud = loop_desired_state_data(man.desired_state, grid, omega)
    assert rel_gap(prob.b_ud, b_ud) <= 1e-13
    assert rel_gap(prob.c_ud, c_ud) <= 1e-13
    assert rel_gap(l2_project(man.control, grid, omega, quad=quad),
                   loop_l2_project(man.control, grid, omega)) <= 1e-13

    rng = np.random.default_rng(K)
    state = rng.uniform(-1.0, 1.0, (K + 1, interior.size))
    control = rng.uniform(0.0, 0.5, (K, omega.n_cells))
    for kind, discrete, exact in (("state", state, man.state),
                                  ("control", control, man.control)):
        got = l2Q_error(discrete, exact, grid, omega, kind=kind, quad=quad)
        ref = loop_l2Q_error(discrete, exact, grid, omega, kind)
        assert math.isclose(got, ref, rel_tol=1e-13), kind


def _wrong_shape(x, t):
    return np.zeros(np.atleast_2d(x).shape[0] + 1)


def _non_finite(x, t):
    vals = np.zeros((np.shape(t)[0], np.atleast_2d(x).shape[0]))
    vals[-1, -1] = np.inf
    return vals


@pytest.mark.parametrize("bad", [_wrong_shape, _non_finite], ids=["shape", "non-finite"])
@pytest.mark.parametrize("which", ["forcing", "desired state", "exact solution"])
def test_bad_data_raises_naming_it(which, bad):
    man = manufactured_problem(0.5, 1.0, 1.0, n=2)
    mesh, params, grid = build_setup(2, 4, 0.5, 1.0, 1.0, 6)
    data = manufactured_data(man, 1.0)
    with pytest.raises(ParameterError, match=which):
        if which == "exact solution":
            l2Q_error(np.zeros((grid.K + 1, mesh.omega.interior_idx.size)), bad,
                      grid, mesh.omega)
        else:
            field = which.replace(" ", "_")
            ReducedProblem(dataclasses.replace(data, **{field: bad}), params, mesh, grid)
