"""Property tests on drawn data.

The modal Gauss-rule projection against the per-step loops: each example
draws a lattice (n, M), a time grid, a plain datum whose time and space are
coupled, and random traces. The datum takes the step-block path of
:func:`~fracopt.evolution.modal_projection`; the loops of ``helpers``
evaluate it pointwise, one step at a time. The composite 1D maps are drawn
on their own: random nodal values return through Phi^{-1}, and the modal
loads of random point values match the assembled rule's.

The closed-form Caputo profiles of the manufactured optimum against
``mpmath.hyp1f1`` at 40 digits, at drawn orders and times, and against
their defining integrals at a few fixed points.

The per-mode time march against the discrete Caputo operator of its own
weights: at drawn orders (gamma = 1, backward Euler, included), step
counts, rates, initial values and loads, its solution and its transposed
solve satisfy the scheme they solve.

The loads of a separable datum with a clipped term, which are formed from
its pieces, against the per-step loops of ``helpers``, which clip every
point value: at drawn bounds (one of them possibly infinite), time profiles
that change sign inside the grid, lattices and step counts that are not a
multiple of the block, and at the two extremes of every point crossing a
bound in every block and of none doing so.
"""
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracopt import ControlBounds, CylinderSystem, ProblemData, TimeGrid, assembly, l2Q_error
from fracopt.assembly import kron_apply, omega_quadrature
from fracopt.control import ReducedProblem, l2_project
from fracopt.evolution import ModalMarch, forcing_loads, point_factors
from fracopt.harness import build_setup
from fracopt.oracle import caputo_adjoint_profile, caputo_state_profile
from fracopt.problem import Separable, Term

from helpers import (assembled_quadrature, build_test_mesh, loop_forcing_loads,
                     loop_l2_project, loop_l2Q_error, loop_residual_constant, matches,
                     to_modal)


def coupled_datum(rng, n):
    """A random smooth datum a cos(k.x + w t) e^{-d t x_1} + b: its time and space do not split."""
    k = rng.uniform(-8.0, 8.0, n)
    a, w = rng.uniform(0.5, 2.0), rng.uniform(-4.0, 4.0)
    d, b = rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0)

    def f(x, t):
        return a * np.cos(x @ k + w * t) * np.exp(-d * t * x[:, 0]) + b
    return f


lattices = st.sampled_from([(1, 2), (1, 5), (1, 9), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])


@settings(deadline=None, max_examples=50, derandomize=True, database=None)
@given(lattice=lattices, K=st.integers(1, 6), gamma=st.sampled_from([1.0, 0.5]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_modal_projection_matches_step_loops(lattice, K, gamma, seed):
    n, M = lattice
    rng = np.random.default_rng(seed)
    mesh, params, grid = build_setup(n, M, 0.5, gamma, rng.uniform(0.2, 2.0), K)
    omega = mesh.omega
    u_d, exact = coupled_datum(rng, n), coupled_datum(rng, n)
    data = ProblemData(forcing=None, desired_state=u_d,
                       initial=lambda x: np.zeros(x.shape[0]), bounds=ControlBounds(0.0, 1.0, 1.0))
    c_res = ReducedProblem(data, params, mesh, grid).c_res
    assert c_res >= 0.0
    assert math.isclose(c_res, loop_residual_constant(u_d, grid, omega), rel_tol=1e-13)

    traces = rng.uniform(-2.0, 2.0, (K + 1, omega.interior_idx.size))
    got = l2Q_error(traces, exact, grid, omega)
    assert math.isclose(got, loop_l2Q_error(traces, exact, grid, omega, "state"), rel_tol=1e-12)


@settings(deadline=None, max_examples=40, derandomize=True, database=None)
@given(n=st.integers(1, 3), M=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_composite_maps_invert_and_load_like_the_assembled_rule(n, M, seed):
    rng = np.random.default_rng(seed)
    mesh, params = build_test_mesh(n=n, M=M)
    system = CylinderSystem(mesh, params, TimeGrid(T=1.0, K=2))
    omega, quad = mesh.omega, system.quad
    x = rng.uniform(-2.0, 2.0, (2, system.n_interior))
    matches(system.from_modal(system.nodal_to_modal(x)), x, 1e-12)
    matches(system.nodal_to_modal(system.from_modal(x)), x, 1e-12)
    # the assembled rule lists its points cell by cell: reorder random point values to it
    ref = assembled_quadrature(omega)
    ref_of = np.empty(quad.weights.size, dtype=int)
    ref_of[np.lexsort(quad.points.T[::-1])] = np.lexsort(ref.points.T[::-1])
    vals = rng.uniform(-2.0, 2.0, (2, quad.weights.size))
    ref_vals = np.empty_like(vals)
    ref_vals[:, ref_of] = vals
    want = to_modal(system, (ref.scatter[omega.interior_idx] @ ref_vals.T).T)
    matches(kron_apply(omega.kept(point_factors).loads, vals, n), want, 1e-12)


def caputo_references(gamma, T, t):
    """d^gamma e^t and the right derivative toward T of (T - t) e^t, by mpmath at 40 digits."""
    with mpmath.workdps(40):
        g, T, t = mpmath.mpf(gamma), mpmath.mpf(T), mpmath.mpf(t)
        r = T - t
        state = t ** (1 - g) * mpmath.hyp1f1(1, 2 - g, t) / mpmath.gamma(2 - g)
        adjoint = mpmath.exp(t) * r ** (1 - g) * mpmath.hyp1f1(-g, 2 - g, r) / mpmath.gamma(2 - g)
        return float(state), float(adjoint)


def caputo_errors(gamma, T, t):
    """The errors of both closed forms, relative to max(|value|, e^t)."""
    state, adjoint = caputo_references(gamma, T, t)
    return (abs(float(caputo_state_profile(t, gamma)) - state) / max(abs(state), math.exp(t)),
            abs(float(caputo_adjoint_profile(t, gamma, T)) - adjoint)
            / max(abs(adjoint), math.exp(t)))


@settings(deadline=None, max_examples=400, derandomize=True, database=None)
@given(gamma=st.floats(0.01, 1.0), T=st.floats(0.0, 25.0, exclude_min=True),
       fraction=st.floats(0.0, 1.0))
def test_closed_form_caputo_profiles_match_hyp1f1(gamma, T, fraction):
    assert max(caputo_errors(gamma, T, fraction * T)) <= 1e-14


@pytest.mark.parametrize("T", [0.5, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_closed_form_caputo_profiles_on_a_grid(gamma, T):
    # seven interior times; over this grid a 24-point Gauss-Jacobi rule was off
    # by up to 1.5e-15 (state) and 9.6e-14 (adjoint)
    for t in np.linspace(0.0, T, 9)[1:-1]:
        assert max(caputo_errors(gamma, T, t)) <= 1.5e-15, t


@pytest.mark.parametrize("gamma, T, t", [(0.5, 1.0, 0.3), (0.2, 3.0, 2.0), (0.9, 2.0, 0.7),
                                         (0.05, 25.0, 12.5)])
def test_closed_form_caputo_profiles_match_their_integrals(gamma, T, t):
    """The defining integrals, with sigma = (xi - t)^{1-gamma} (or (t - xi)^{1-gamma}).

    The substitution turns (1/Gamma(1-gamma)) int |xi - t|^{-gamma} f'(xi) dxi into
    the smooth int_0^{d^{1-gamma}} f'(xi(sigma)) dsigma / Gamma(2-gamma) over a
    distance d, which mpmath.quad integrates to its working precision.
    """
    with mpmath.workdps(40):
        g, T, t = mpmath.mpf(gamma), mpmath.mpf(T), mpmath.mpf(t)
        p = 1 / (1 - g)

        def integral(fprime, xi, d):
            return mpmath.quad(lambda sig: fprime(xi(sig ** p)), [0, d ** (1 - g)]) \
                / mpmath.gamma(2 - g)

        state = integral(mpmath.exp, lambda u: t - u, t)
        adjoint = -integral(lambda xi: (T - xi - 1) * mpmath.exp(xi), lambda u: t + u, T - t)
        state, adjoint, scale = float(state), float(adjoint), float(mpmath.exp(t))
    assert abs(float(caputo_state_profile(float(t), gamma)) - state) \
        <= 1e-14 * max(abs(state), scale)
    assert abs(float(caputo_adjoint_profile(float(t), gamma, float(T))) - adjoint) \
        <= 1e-14 * max(abs(adjoint), scale)


def scheme_residual(march, rates, x0, x, g):
    """max over modes of |weights(x0, x) + rate x - g|, relative to the mode's largest term."""
    hist = np.vstack([x0, x])
    resid = march.weights(hist)[1:] + rates * x - g
    size = np.maximum.reduce([np.abs(march.c_new * hist[1:]), np.abs(rates * x), np.abs(g)])
    return float((np.abs(resid).max(axis=0) / size.max(axis=0)).max())


@settings(deadline=None, max_examples=100, derandomize=True, database=None)
@given(gamma=st.one_of(st.just(1.0), st.floats(0.05, 1.0)), K=st.integers(1, 300),
       n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_march_solves_the_scheme_of_its_weights(gamma, K, n, seed):
    rng = np.random.default_rng(seed)
    # rates over eight decades, and some exactly zero
    rates = np.where(rng.random(n) < 0.2, 0.0, 10.0 ** rng.uniform(-3.0, 5.0, n))
    march = ModalMarch(rates, gamma, K, rng.uniform(0.1, 10.0) / K)
    x0, g = rng.standard_normal(n), rng.standard_normal((K, n))
    assert scheme_residual(march, rates, x0, march.solve(g, x0), g) <= 1e-12
    # the transposed solve, reversed in time, solves the scheme for reversed loads from zero
    y = march.solve_transposed(g)[::-1]
    assert scheme_residual(march, rates, np.zeros(n), y, g[::-1]) <= 1e-12


def loads_match_pointwise(f, mesh, params, grid):
    """The forcing loads and cell means of f against the per-step loops, at 1e-13.

    Checked at the default block budget; at 24 values per Gauss point,
    where a clipped term's blocks are 16 steps and its chunks two blocks or
    more; and at 1, where each chunk is one block and each apply one step
    or one mode.
    """
    system = CylinderSystem(mesh, params, grid)
    omega = mesh.omega
    loads = to_modal(system, loop_forcing_loads(f, grid, omega))
    means = loop_l2_project(f, grid, omega)
    for budget in (assembly._BLOCK_VALUES, 24 * system.quad.points.shape[0], 1):
        with mock.patch.object(assembly, "_BLOCK_VALUES", budget):
            matches(forcing_loads(f, system), loads, 1e-13)
            matches(l2_project(f, grid, omega), means, 1e-13)


def wave(rng, n):
    """A random a cos(k.x) + b over (m, n) points."""
    k, a, b = rng.uniform(-6.0, 6.0, n), rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    return lambda x: a * np.cos(x @ k) + b


finite_or_not = st.one_of(
    st.tuples(st.floats(-2.0, 1.0), st.floats(0.0, 2.0)).map(lambda p: (p[0], p[0] + p[1])),
    st.floats(-2.0, 2.0).map(lambda hi: (-math.inf, hi)),
    st.floats(-2.0, 2.0).map(lambda lo: (lo, math.inf)))


@settings(deadline=None, max_examples=60, derandomize=True, database=None)
@given(lattice=st.sampled_from([(1, 1), (1, 2), (1, 7), (2, 1), (2, 2), (2, 3), (2, 5),
                                (3, 1), (3, 2), (3, 3)]),
       K=st.integers(1, 75).filter(lambda K: K % 16), bounds=finite_or_not,
       seed=st.integers(0, 2 ** 32 - 1))
def test_clipped_terms_load_as_their_point_values(lattice, K, bounds, seed):
    n, M = lattice
    rng = np.random.default_rng(seed)
    mesh, params, grid = build_setup(n, M, 0.5, 1.0, rng.uniform(0.2, 2.0), K)
    # the clipped profile changes sign at t_c, inside the grid
    t_c, w = rng.uniform(0.1, 0.9) * grid.T, rng.uniform(0.5, 30.0)
    f = Separable((Term(lambda t: np.exp(-t), wave(rng, n)),
                   Term(lambda t: 2.0 * np.sin(w * (t - t_c)), wave(rng, n), clip=bounds)))
    loads_match_pointwise(f, mesh, params, grid)


@pytest.mark.parametrize("case", ["every point crosses", "no point crosses",
                                  "most points cross beside linear ones"])
@pytest.mark.parametrize("n, M, K", [(1, 9, 37), (2, 4, 50), (3, 2, 20)])
def test_clipped_terms_load_as_their_point_values_at_the_extremes(case, n, M, K):
    mesh, params, grid = build_setup(n, M, 0.5, 1.0, 1.0, K)
    space = lambda x: 1.5 + np.prod(np.cos(3.0 * x), axis=1)        # in [0.5, 2.5]
    if case == "every point crosses":
        # g has both signs at the two Gauss times of every step: every value crosses 0
        time, bounds = (lambda t: np.cos(np.pi * t / grid.tau)), (0.0, 1.0)
        gauss = (np.arange(K)[:, None] + 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)) * grid.tau
        assert np.all(np.prod(time(gauss), axis=1) < 0.0)
    elif case == "no point crosses":
        time, bounds = (lambda t: 1.0 + np.sin(5.0 * t)), (-1.0, 6.0)
    else:
        # in blocks of 16 steps at n = 2 the first two blocks are loaded from
        # point values, and their points inside (-1, 1) must not add their
        # linear piece too
        time, bounds = (lambda t: 2.0 * t), (-1.0, 1.0)
    assert np.all(space(omega_quadrature(mesh.omega).points) > 0.0)
    loads_match_pointwise(Separable((Term(time, space, clip=bounds),)), mesh, params, grid)
