"""Batched space-time data evaluation against the per-step loops it replaced."""
import dataclasses
import math

import numpy as np
import pytest

from fracopt import TimeGrid, build_omega, l2_project, l2Q_error
from fracopt.assembly import omega_quadrature, step_blocks, time_average
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
    assert rel_gap(l2_project(man.control, grid, omega),
                   loop_l2_project(man.control, grid, omega)) <= 1e-13

    rng = np.random.default_rng(K)
    state = rng.uniform(-1.0, 1.0, (K + 1, interior.size))
    control = rng.uniform(0.0, 0.5, (K, omega.n_cells))
    for kind, discrete, exact in (("state", state, man.state),
                                  ("control", control, man.control)):
        got = l2Q_error(discrete, exact, grid, omega, kind=kind, quad=quad)
        ref = loop_l2Q_error(discrete, exact, grid, omega, kind)
        assert math.isclose(got, ref, rel_tol=1e-13), kind


def test_time_average_into_a_shared_buffer():
    quad = omega_quadrature(build_omega(2, 4))
    man = manufactured_problem(0.5, 1.0, 1.0, gamma=0.5, n=2)
    t0 = np.arange(7) * 0.1
    fresh = time_average(man.forcing, quad.points, t0, t0 + 0.1)
    buf = np.full((9, quad.points.shape[0]), np.nan)
    got = time_average(man.forcing, quad.points, t0, t0 + 0.1, out=buf)
    assert np.shares_memory(got, buf) and got.shape == fresh.shape
    assert np.array_equal(got, fresh)
    assert np.isnan(buf[7:]).all()


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_nodal_loads_are_built_on_first_read(gamma):
    # three step blocks, the last one short
    mesh, params, grid = build_setup(2, 4, 0.5, gamma, 1.0, 500)
    man = manufactured_problem(0.5, 1.0, 1.0, gamma=gamma, n=2)
    prob = ReducedProblem(manufactured_data(man, 1.0), params, mesh, grid)
    assert "b_f" not in vars(prob) and "b_ud" not in vars(prob)
    sysm = prob.system
    # the modal data come from the same nodal loads, bit for bit
    assert np.array_equal(prob.b_f_hat, sysm.to_modal(prob.b_f))
    assert np.array_equal(prob.b_ud_hat, sysm.to_modal(prob.b_ud))
    assert "b_f" in vars(prob) and "b_ud" in vars(prob)
    assert prob.b_f is prob.b_f
    assert np.array_equal(prob.b_f, forcing_loads(man.forcing, grid, sysm.quad))
    again = ReducedProblem(manufactured_data(man, 1.0), params, mesh, grid)
    assert np.array_equal(prob.b_ud, again.b_ud)
    assert np.array_equal(prob.c_ud, again.c_ud)
    assert rel_gap(prob.b_f, loop_forcing_loads(man.forcing, grid, mesh.omega)) <= 1e-13
    b_ud, c_ud = loop_desired_state_data(man.desired_state, grid, mesh.omega)
    assert rel_gap(prob.b_ud, b_ud) <= 1e-13
    assert rel_gap(prob.c_ud, c_ud) <= 1e-13


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
