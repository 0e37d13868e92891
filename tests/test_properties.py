"""Property tests: the modal Gauss-rule projection against the per-step loops, on drawn data.

Each example draws a lattice (n, M), a time grid, a plain datum whose time
and space are coupled, and random traces. The datum takes the
step-block path of :func:`~fracopt.evolution.modal_projection`; the loops of
``helpers`` evaluate it pointwise, one step at a time.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from fracopt import ControlBounds, ProblemData, l2Q_error
from fracopt.control import ReducedProblem
from fracopt.harness import build_setup

from helpers import loop_l2Q_error, loop_residual_constant


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
