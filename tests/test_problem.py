import dataclasses
import math

import numpy as np
import pytest

from fracopt import (ControlBounds, FractionalParams, GradedAxis, OmegaMesh, ParameterError,
                     ProblemData, TimeGrid, default_zeta, graded_axis, select_truncation)
from fracopt.problem import Term

NAN, INF = float("nan"), float("inf")


def test_make_params_half():
    p = FractionalParams(0.5, 1.0)
    assert p.alpha == 0.0
    assert p.d_s == 1.0
    assert p.reaction == 0.0


def test_make_params_alpha():
    p = FractionalParams(0.8, 1.0)
    assert math.isclose(p.alpha, -0.6, rel_tol=0, abs_tol=1e-15)


def test_make_params_quarter_normalization():
    # gamma-function route validated against integer factorials
    assert math.gamma(5) == 24.0
    assert math.gamma(7) == 720.0
    expected = 2.0 ** 0.5 * math.gamma(0.75) / math.gamma(0.25)
    p = FractionalParams(0.25, 1.0)
    assert math.isclose(p.d_s, expected, rel_tol=1e-14)
    assert round(p.d_s, 3) == 0.478


@pytest.mark.parametrize("s,gamma,Y", [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0),
                                       (0.5, 0.0, 1.0), (0.5, 1.5, 1.0),
                                       (0.5, 1.0, 0.5)])
def test_make_params_domain_errors(s, gamma, Y):
    # the orders are the params' to check, the height the mesh axis's
    with pytest.raises(ParameterError):
        graded_axis(4, Y, default_zeta(FractionalParams(s, gamma).alpha))


@pytest.mark.parametrize("s, gamma, reaction, what", [
    (1.5, 3.0, 0.0, "spatial order"), (NAN, 1.0, 0.0, "spatial order"),
    (0.5, NAN, 0.0, "temporal order"), (0.5, 1.0, -1.0, "reaction"),
    (0.5, 1.0, NAN, "reaction"), (0.5, 1.0, INF, "reaction")])
def test_params_refuse_bad_inputs_at_construction(s, gamma, reaction, what):
    with pytest.raises(ParameterError, match=what):
        FractionalParams(s, gamma, reaction)


def test_params_take_only_their_inputs_and_derive_the_rest():
    # the derived constants are no inputs, so they cannot disagree with s
    with pytest.raises(TypeError):
        FractionalParams(s=0.4, gamma=1.0, alpha=0.2, d_s=1.0)
    p = FractionalParams(0.4, 1.0, reaction=0.7)
    q = dataclasses.replace(p, s=0.8)
    ref = FractionalParams(0.8, 1.0, reaction=0.7)
    assert (q.alpha, q.d_s) == (ref.alpha, ref.d_s) and q == ref
    assert math.isclose(q.alpha, -0.6, rel_tol=0, abs_tol=1e-15)
    with pytest.raises(ParameterError, match="reaction"):
        dataclasses.replace(p, reaction=-0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.alpha = 0.0


@pytest.mark.parametrize("M, Y, zeta, what", [
    (0, 1.0, 2.0, "M >= 1"), (4, 0.5, 2.0, "Y >= 1"), (4, NAN, 2.0, "Y >= 1, got nan"),
    (4, INF, 2.0, "finite, got inf"), (4, (1.0, INF), 2.0, "finite, got inf"),
    (4, 1.0, 0.5, "grading exponent"), (4, 1.0, NAN, "grading exponent .* nan"),
    (4, 1.0, INF, "grading exponent .* inf"), (2.5, 1.0, 1.5, "M >= 1, an integer, got 2.5"),
    (NAN, 1.0, 2.0, "M >= 1, an integer, got nan"), ("4", 1.0, 2.0, "M >= 1")])
def test_graded_axis_refuses_bad_inputs_at_construction(M, Y, zeta, what):
    with pytest.raises(ParameterError, match=what):
        GradedAxis(M, Y, zeta)


def test_graded_axis_takes_only_its_inputs_and_derives_the_rest():
    with pytest.raises(TypeError):
        GradedAxis(M=0, Y=0.5, zeta=0.5, nodes=None, unit=None)
    axis = GradedAxis(8, 1.5, 3.15)
    assert axis == graded_axis(8, 1.5, 3.15)
    taller = dataclasses.replace(axis, Y=2.0)
    assert np.array_equal(taller.nodes, 2.0 * axis.unit)
    assert np.array_equal(taller.unit, axis.unit)
    for name in ("unit", "nodes"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(axis, name)[0] = 1.0


@pytest.mark.parametrize("n, cells, what", [(0, 4, "dimension"), (2, 0, "cell"),
                                            (-1, 4, "dimension"), (2, -3, "cell"),
                                            (2, 2.5, "cells_per_dim >= 1, an integer, got 2.5"),
                                            (1.5, 3, "dimension n >= 1, an integer, got 1.5"),
                                            (2, NAN, "cells_per_dim"), (2.0, 3, "dimension n")])
def test_omega_mesh_refuses_bad_inputs_at_construction(n, cells, what):
    with pytest.raises(ParameterError, match=what):
        OmegaMesh(n, cells)


def test_omega_mesh_takes_only_its_inputs_and_derives_the_rest():
    with pytest.raises(TypeError):
        OmegaMesh(2, 3, np.zeros((16, 2)), np.zeros(16, dtype=bool))
    om = OmegaMesh(2, 3)
    assert om.vertices.shape == (16, 2) and om.interior_idx.tolist() == [5, 6, 9, 10]
    assert np.array_equal(dataclasses.replace(om, n=1).vertices[:, 0], [0.0, 1 / 3, 2 / 3, 1.0])


def test_alpha_identity_random():
    rng = np.random.default_rng(0)
    for s in rng.uniform(1e-6, 1 - 1e-6, size=1000):
        p = FractionalParams(float(s), 1.0)
        assert abs(p.alpha + 2.0 * s - 1.0) <= 1e-15


def test_ds_continuous_near_half():
    vals = [FractionalParams(s, 1.0).d_s for s in (0.499, 0.4999, 0.5, 0.5001, 0.501)]
    assert vals[2] == 1.0
    assert max(abs(v - 1.0) for v in vals) < 5e-3


def test_select_truncation_floor_cases():
    # 3 log(8) / (2 pi) = 0.993 < 1, so the floor applies
    assert select_truncation(8, 0.5, 1) == 1.0
    assert select_truncation(9, 0.1, 2) == 1.0


def test_select_truncation_large():
    got = select_truncation(10 ** 6, 0.8, 2)
    expected = 2.0 * 1.8 * math.log(1e6) / (math.sqrt(2 * math.pi ** 2) * 3)
    assert math.isclose(got, expected, rel_tol=1e-14)
    assert abs(got - 3.73) < 5e-3


def test_select_truncation_monotone():
    ys_n = [select_truncation(N, 0.6, 2) for N in (100, 1000, 10000, 100000)]
    assert all(b >= a for a, b in zip(ys_n, ys_n[1:]))
    ys_s = [select_truncation(10000, s, 2) for s in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b >= a for a, b in zip(ys_s, ys_s[1:]))


def test_select_truncation_errors():
    with pytest.raises(ParameterError):
        select_truncation(4, 0.5, 1)
    for n in (0, 1.5, NAN):
        with pytest.raises(ParameterError, match="dimension n"):
            select_truncation(100, 0.5, n)


def test_time_grid():
    g = TimeGrid(T=2.0, K=5)
    assert g.tau == 0.4
    nodes = g.nodes
    assert nodes[0] == 0.0 and nodes[-1] == 2.0
    assert np.allclose(np.diff(nodes), g.tau)
    for K in (0, 2.5, NAN, 4.0, INF):
        with pytest.raises(ParameterError, match=f"time steps K >= 1, an integer, got {K}"):
            TimeGrid(T=1.0, K=K)
    # numpy integers are integers
    assert TimeGrid(T=1.0, K=np.int64(4)).tau == 0.25
    assert GradedAxis(np.int32(4), 1.0, 2.0).nodes.size == 5
    assert OmegaMesh(np.int64(2), np.int64(3)).n_cells == 9
    for T in (0.0, NAN, INF):
        with pytest.raises(ParameterError, match=f"final time .* {T}"):
            TimeGrid(T=T, K=4)


def test_control_bounds_validation():
    ControlBounds(-1.0, 0.5, 1.0)
    with pytest.raises(ParameterError):
        ControlBounds(0.1, 0.5, 1.0)          # a > 0
    for mu in (0.0, NAN, INF):
        with pytest.raises(ParameterError, match=f"regularization weight .* {mu}"):
            ControlBounds(-1.0, 0.5, mu)


def test_problem_data_validation():
    f = lambda x, t: np.zeros(np.atleast_2d(x).shape[0])
    u0 = lambda x: np.zeros(np.atleast_2d(x).shape[0])
    b = ControlBounds(0.0, 0.5, 1.0)
    ProblemData(forcing=f, desired_state=f, initial=u0, bounds=b)
    # the reaction is the operator's, given once, in FractionalParams
    with pytest.raises(TypeError):
        ProblemData(forcing=f, desired_state=f, initial=u0, bounds=b, reaction=0.0)


@pytest.mark.parametrize("clip", [(1.0, 0.0), (INF, INF), (-INF, -INF), (NAN, 1.0), (0.0,),
                                  (0.0, 1.0, 2.0), "ab", 3.0, (None, 1.0)])
def test_term_refuses_clip_bounds_that_are_not_an_ordered_pair(clip):
    with pytest.raises(ParameterError, match="clip"):
        Term(np.exp, np.ones_like, clip=clip)


def test_term_keeps_its_clip_bounds_as_floats():
    assert Term(np.exp, np.ones_like).clip is None
    for clip in [(0, 1), (-INF, 0.5), (0.5, INF), (0.25, 0.25)]:
        assert Term(np.exp, np.ones_like, clip=clip).clip == tuple(map(float, clip))
