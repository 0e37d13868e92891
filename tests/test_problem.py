import math

import numpy as np
import pytest

from fracopt import (ControlBounds, ParameterError, ProblemData, TimeGrid, default_zeta,
                     graded_axis, make_params, select_truncation)


def test_make_params_half():
    p = make_params(0.5, 1.0)
    assert p.alpha == 0.0
    assert p.d_s == 1.0


def test_make_params_alpha():
    p = make_params(0.8, 1.0)
    assert math.isclose(p.alpha, -0.6, rel_tol=0, abs_tol=1e-15)


def test_make_params_quarter_normalization():
    # gamma-function route validated against integer factorials
    assert math.gamma(5) == 24.0
    assert math.gamma(7) == 720.0
    expected = 2.0 ** 0.5 * math.gamma(0.75) / math.gamma(0.25)
    p = make_params(0.25, 1.0)
    assert math.isclose(p.d_s, expected, rel_tol=1e-14)
    assert round(p.d_s, 3) == 0.478


@pytest.mark.parametrize("s,gamma,Y", [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0),
                                       (0.5, 0.0, 1.0), (0.5, 1.5, 1.0),
                                       (0.5, 1.0, 0.5)])
def test_make_params_domain_errors(s, gamma, Y):
    # the orders are make_params's to check, the height the mesh axis's
    with pytest.raises(ParameterError):
        graded_axis(4, Y, default_zeta(make_params(s, gamma).alpha))


def test_alpha_identity_random():
    rng = np.random.default_rng(0)
    for s in rng.uniform(1e-6, 1 - 1e-6, size=1000):
        p = make_params(float(s), 1.0)
        assert abs(p.alpha + 2.0 * s - 1.0) <= 1e-15


def test_ds_continuous_near_half():
    vals = [make_params(s, 1.0).d_s for s in (0.499, 0.4999, 0.5, 0.5001, 0.501)]
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


def test_time_grid():
    g = TimeGrid(T=2.0, K=5)
    assert g.tau == 0.4
    nodes = g.nodes
    assert nodes[0] == 0.0 and nodes[-1] == 2.0
    assert np.allclose(np.diff(nodes), g.tau)
    with pytest.raises(ParameterError):
        TimeGrid(T=1.0, K=0)


def test_control_bounds_validation():
    ControlBounds(-1.0, 0.5, 1.0)
    with pytest.raises(ParameterError):
        ControlBounds(0.1, 0.5, 1.0)          # a > 0
    with pytest.raises(ParameterError):
        ControlBounds(-1.0, 0.5, 0.0)         # mu = 0


def test_problem_data_validation():
    f = lambda x, t: np.zeros(np.atleast_2d(x).shape[0])
    u0 = lambda x: np.zeros(np.atleast_2d(x).shape[0])
    b = ControlBounds(0.0, 0.5, 1.0)
    ProblemData(forcing=f, desired_state=f, initial=u0, bounds=b)
    with pytest.raises(ParameterError):
        ProblemData(forcing=f, desired_state=f, initial=u0, bounds=b,
                    reaction=-1.0)
