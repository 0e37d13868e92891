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
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracopt import ControlBounds, CylinderSystem, ProblemData, TimeGrid, l2Q_error
from fracopt.assembly import kron_apply
from fracopt.control import ReducedProblem
from fracopt.evolution import ModalMarch, point_factors
from fracopt.harness import build_setup
from fracopt.oracle import caputo_adjoint_profile, caputo_state_profile

from helpers import (assembled_quadrature, build_test_mesh, loop_l2Q_error,
                     loop_residual_constant, matches, to_modal)


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
