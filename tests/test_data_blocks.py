"""Batched space-time data evaluation against the per-step loops it replaced.

Separable data (the manufactured problem's) are also checked against the
same data passed as plain callables, which are evaluated block by block.
"""
import dataclasses
import functools
import math

import numpy as np
import pytest

from fracopt import TimeGrid, build_omega, l2_project, l2Q_error, solve_control_problem
from fracopt.assembly import at_points, omega_quadrature, step_blocks, time_average
from fracopt.control import ReducedProblem
from fracopt.evolution import forcing_loads
from fracopt.harness import build_setup, manufactured_data
from fracopt.oracle import manufactured_problem
from fracopt.problem import ParameterError, Separable, Term

from helpers import (loop_desired_state_data, loop_forcing_loads, loop_l2_project,
                     loop_l2Q_error, loop_residual_constant, nodal_forcing_loads, nodal_loads,
                     rel_gap)

# cells per dimension: the 1D lattice is finer so that its step blocks stay short
CELLS = {1: 16, 2: 4}


def block_steps(n_points):
    """Steps per data evaluation for a rule with n_points points."""
    return next(step_blocks(TimeGrid(T=1.0, K=10 ** 9), n_points))[0].stop


def plain(f):
    """f as a plain callable: the solver evaluates it at the points, block by block."""
    return lambda x, t: f(x, t)


def plain_data(man, mu=1.0):
    """The manufactured data with forcing and desired state as plain callables."""
    return dataclasses.replace(manufactured_data(man, mu), forcing=plain(man.forcing),
                               desired_state=plain(man.desired_state))


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
    assert rel_gap(nodal_forcing_loads(man.forcing, prob.system), ref_f) <= 1e-13
    assert rel_gap(nodal_loads(prob.system, prob.b_f_hat), ref_f) <= 1e-13
    b_ud = loop_desired_state_data(man.desired_state, grid, omega)[0]
    assert rel_gap(nodal_loads(prob.system, prob.b_ud_hat), b_ud) <= 1e-13
    assert math.isclose(prob.c_res, loop_residual_constant(man.desired_state, grid, omega),
                        rel_tol=1e-13)
    assert rel_gap(l2_project(man.control, grid, omega),
                   loop_l2_project(man.control, grid, omega)) <= 1e-13

    # the same data as plain callables take the step-block path
    c_res = ReducedProblem(plain_data(man), params, mesh, grid).c_res
    assert math.isclose(c_res, loop_residual_constant(man.desired_state, grid, omega),
                        rel_tol=1e-13)

    rng = np.random.default_rng(K)
    state = rng.uniform(-1.0, 1.0, (K + 1, interior.size))
    control = rng.uniform(0.0, 0.5, (K, omega.n_cells))
    for kind, discrete, exact in (("state", state, man.state),
                                  ("state", state, plain(man.state)),
                                  ("control", control, man.control)):
        got = l2Q_error(discrete, exact, grid, omega, kind=kind, quad=quad)
        ref = loop_l2Q_error(discrete, exact, grid, omega, kind)
        assert math.isclose(got, ref, rel_tol=1e-13), kind


def test_time_average_into_a_shared_buffer():
    quad = omega_quadrature(build_omega(2, 4))
    man = manufactured_problem(0.5, 1.0, 1.0, gamma=0.5, n=2)
    t0 = np.arange(7) * 0.1
    for forcing in (plain(man.forcing), man.forcing):
        values = at_points(forcing, quad.points, "forcing")
        fresh = time_average(values, t0, t0 + 0.1)
        buf = np.full((9, quad.points.shape[0]), np.nan)
        got = time_average(values, t0, t0 + 0.1, out=buf)
        assert np.shares_memory(got, buf) and got.shape == fresh.shape
        assert np.array_equal(got, fresh)
        assert np.isnan(buf[7:]).all()
        ref = 0.5 * (forcing(quad.points, t0[:, None] + 0.1 * (0.5 - 0.5 / math.sqrt(3.0)))
                     + forcing(quad.points, t0[:, None] + 0.1 * (0.5 + 0.5 / math.sqrt(3.0))))
        assert rel_gap(got, ref) <= 1e-15


def test_separable_values_reuse_one_buffer():
    quad = omega_quadrature(build_omega(2, 4))
    man = manufactured_problem(0.5, 1.0, 1.0, gamma=0.5, n=2)
    values = at_points(man.forcing, quad.points, "forcing")
    t = np.linspace(0.0, 1.0, 6)[:, None]
    first = values(t).copy()
    assert np.shares_memory(values(t[:4]), values(t))
    assert np.array_equal(values(t), first)
    assert np.array_equal(first, man.forcing(quad.points, t))


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_problem_keeps_only_modal_loads(gamma):
    # three step blocks, the last one short; plain callables take the block path
    mesh, params, grid = build_setup(2, 4, 0.5, gamma, 1.0, 500)
    man = manufactured_problem(0.5, 1.0, 1.0, gamma=gamma, n=2)
    data = plain_data(man)
    prob = ReducedProblem(data, params, mesh, grid)
    assert not {"b_f", "b_ud", "state", "adjoint"} & set(dir(prob))
    sysm = prob.system
    assert np.array_equal(prob.b_f_hat, forcing_loads(data.forcing, sysm))
    again = ReducedProblem(data, params, mesh, grid)
    assert np.array_equal(prob.b_ud_hat, again.b_ud_hat)
    assert prob.c_res == again.c_res
    b_f = nodal_loads(sysm, prob.b_f_hat)
    assert rel_gap(b_f, loop_forcing_loads(man.forcing, grid, mesh.omega)) <= 1e-13
    b_ud = loop_desired_state_data(man.desired_state, grid, mesh.omega)[0]
    assert rel_gap(nodal_loads(sysm, prob.b_ud_hat), b_ud) <= 1e-13
    assert math.isclose(prob.c_res, loop_residual_constant(man.desired_state, grid, mesh.omega),
                        rel_tol=1e-13)


@pytest.mark.parametrize("M", [4, 7])
@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_separable_loads_match_plain_callables(gamma, M):
    # K = 500 ends on a short step block at both M
    mesh, params, grid = build_setup(2, M, 0.5, gamma, 1.0, 500)
    assert grid.K % block_steps(omega_quadrature(mesh.omega).points.shape[0])
    man = manufactured_problem(0.5, 1.0, 1.0, gamma=gamma, n=2)
    sep = ReducedProblem(manufactured_data(man, 1.0), params, mesh, grid)
    ref = ReducedProblem(plain_data(man), params, mesh, grid)
    assert rel_gap(sep.b_f_hat, ref.b_f_hat) <= 1e-13
    assert rel_gap(sep.b_ud_hat, ref.b_ud_hat) <= 1e-13
    # both paths sum non-negative residuals: each is held to 1e-13 of c_res
    c_res = loop_residual_constant(man.desired_state, grid, mesh.omega)
    assert math.isclose(sep.c_res, c_res, rel_tol=1e-13)
    assert math.isclose(ref.c_res, c_res, rel_tol=1e-13)


def _coupled_state(x, t):
    """e^t sin(2 pi x) sin(2 pi y) (1 + t x^2), a plain callable that is no product g(t) phi(x)."""
    x0, x1 = x[:, 0], x[:, 1]
    wave = np.sin(2.0 * math.pi * x0) * np.sin(2.0 * math.pi * x1)
    return np.exp(t) * wave * (1.0 + t * x0 ** 2)


@pytest.mark.parametrize("M,K,gamma", [(8, 64, 1.0), (12, 256, 0.5)])
def test_modal_state_error_matches_pointwise(M, K, gamma):
    mesh, params, grid = build_setup(2, M, 0.4, gamma, 1.0, K)
    man = manufactured_problem(0.4, 1.0, 1.0, gamma=gamma, n=2)
    data = manufactured_data(man, 1.0)
    traces = solve_control_problem(data, params, mesh, grid).state.traces
    for exact in (man.state, plain(man.state), _coupled_state):
        got = l2Q_error(traces, exact, grid, mesh.omega)
        ref = loop_l2Q_error(traces, exact, grid, mesh.omega, "state")
        assert math.isclose(got, ref, rel_tol=1e-12)


def test_wrapped_separable_data_take_the_separable_path_bit_for_bit():
    def traced(f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            raise AssertionError("a wrapped separable datum was called")
        return wrapper

    mesh, params, grid = build_setup(2, 5, 0.5, 0.5, 1.0, 40)
    man = manufactured_problem(0.5, 1.0, 1.0, gamma=0.5, n=2)
    data = manufactured_data(man, 1.0)
    wrapped = dataclasses.replace(data, forcing=traced(data.forcing),
                                  desired_state=traced(data.desired_state))
    ref = ReducedProblem(data, params, mesh, grid)
    got = ReducedProblem(wrapped, params, mesh, grid)
    assert np.array_equal(got.b_f_hat, ref.b_f_hat)
    assert np.array_equal(got.b_ud_hat, ref.b_ud_hat)
    assert got.c_res == ref.c_res
    z = np.random.default_rng(2).uniform(man.a, man.b, (grid.K, mesh.omega.n_cells))
    cost, grad = got.cost_and_gradient(z)[:2]
    ref_cost, ref_grad = ref.cost_and_gradient(z)[:2]
    assert cost == ref_cost and np.array_equal(grad, ref_grad)


def _wrong_shape(x, t):
    return np.zeros(np.atleast_2d(x).shape[0] + 1)


def _non_finite(x, t):
    vals = np.zeros((np.shape(t)[0], np.atleast_2d(x).shape[0]))
    vals[-1, -1] = np.inf
    return vals


_unit = lambda x: np.ones(np.atleast_2d(x).shape[0])
_nan_profile = Separable((Term(lambda t: t * np.nan, _unit),))
_long_factor = Separable((Term(np.exp, lambda x: np.ones(np.atleast_2d(x).shape[0] + 1)),))
_inf_clip = Separable((Term(np.exp, lambda x: np.full(np.atleast_2d(x).shape[0], np.inf),
                            clip=(0.0, 1.0)),))


@pytest.mark.parametrize("bad", [_wrong_shape, _non_finite, _nan_profile, _long_factor,
                                 _inf_clip],
                         ids=["shape", "non-finite", "separable-profile", "separable-shape",
                              "separable-clip-factor"])
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
