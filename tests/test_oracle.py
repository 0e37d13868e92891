import math

import numpy as np
import pytest

from fracopt import (build_omega, fractional_ibp_check, manufactured_problem, mode,
                     spectral_solve_state)
from fracopt.assembly import omega_quadrature
from fracopt.evolution import lambda_diagnostic
from fracopt.oracle import caputo_adjoint_profile, caputo_state_profile
from fracopt.problem import ParameterError, TimeGrid


def test_mode_eigenvalues_and_normalization():
    assert mode(1, 1).lam == pytest.approx(2 * math.pi ** 2, rel=1e-15)
    assert mode(2, 2).lam == pytest.approx(8 * math.pi ** 2, rel=1e-15)
    assert mode(3).lam == pytest.approx(9 * math.pi ** 2, rel=1e-15)
    # normalized eigenfunction has unit L2 norm under the assembly quadrature
    om = build_omega(2, 12)
    quad = omega_quadrature(om)
    vals = mode(2, 1)(quad.points)
    assert float(quad.weights @ vals ** 2) == pytest.approx(1.0, abs=1e-9)


def test_eigenfunction_orthonormality_under_quadrature():
    om = build_omega(2, 8)
    quad = omega_quadrature(om)
    modes = [mode(k, l) for k in range(1, 5) for l in range(1, 5)]
    vals = np.stack([m(quad.points) for m in modes])
    gram = (vals * quad.weights) @ vals.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-10


def test_spectral_homogeneous_decay():
    md = mode(1, 1)
    coeffs = spectral_solve_state([md], [1.0], None, 1.0, 0.6, 1.0, K_fine=32)
    lam_s = md.lam ** 0.6
    times = np.linspace(0.0, 1.0, 33)
    assert coeffs.shape == (33, 1)
    assert np.allclose(coeffs[:, 0], np.exp(-lam_s * times), rtol=1e-12)
    coeffs = spectral_solve_state([md], [1.0], None, 1.0, 0.6, 0.37, K_fine=32)
    assert coeffs[-1, 0] == pytest.approx(math.exp(-lam_s * 0.37), rel=1e-12)


def test_spectral_exponential_forcing_reproduces_exp():
    # u0 = 1 with forcing (1 + lam^s) e^t gives u(t) = e^t exactly
    md = mode(2, 2)
    for s in (0.2, 0.7):
        lam_s = md.lam ** s
        coeffs = spectral_solve_state([md], [1.0], [1.0 + lam_s], 1.0, s, 1.0, K_fine=16)
        assert np.allclose(coeffs[:, 0], np.exp(np.linspace(0.0, 1.0, 17)), rtol=1e-12)


def test_spectral_l1_self_convergence():
    md = mode(1, 1)
    vals = []
    for K_fine in (64, 128, 256):
        vals.append(spectral_solve_state([md], [1.0], None, 0.5, 0.5, 1.0, K_fine=K_fine)[-1, 0])
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 * 1.3 <= d1


def test_spectral_solution_satisfies_stability_bound():
    # Lambda_gamma controls the energy, with one constant across modes
    gamma, s, T = 0.5, 0.6, 1.0
    K_fine = 512
    grid = TimeGrid(T=T, K=K_fine)
    ratios = []
    for md in (mode(1, 1), mode(2, 2), mode(3, 1)):
        lam_s = md.lam ** s
        amp = 1.0
        u = spectral_solve_state([md], [1.0], [amp], gamma, s, T, K_fine=K_fine)[:, 0]
        lhs = lambda_diagnostic(u ** 2, gamma, grid) \
            + grid.tau * float(np.sum(lam_s * u[1:] ** 2))
        # Lambda^2 = I^{1-gamma}||u0||^2-part is 1 for unit data; forcing in H^{-s}
        forcing_sq = (amp * np.exp(grid.nodes[1:])) ** 2 / lam_s
        rhs = 1.0 + grid.tau * float(np.sum(forcing_sq))
        ratios.append(lhs / rhs)
    assert max(ratios) <= 4.0 * min(ratios)
    assert max(ratios) < 10.0


def test_caputo_left_closed_forms():
    # d^gamma e^t is the power series sum_m t^{m+1-gamma}/Gamma(m+2-gamma)
    for gamma, t in ((0.5, 0.9), (0.2, 0.3), (0.8, 1.7)):
        series = sum(t ** (m + 1 - gamma) / math.gamma(m + 2 - gamma) for m in range(40))
        assert caputo_state_profile(t, gamma) == pytest.approx(series, rel=1e-14)
    # at gamma = 1 it is e^t itself, to the bit
    t = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(caputo_state_profile(t, 1.0), np.exp(t))


def test_caputo_right_matches_reversed_left():
    # the right derivative toward T of (T - t) e^t is the left derivative of the
    # reflection r e^{T-r} at r = T - t: e^T sum_m (-1)^m (m+1) r^{m+1-gamma}/Gamma(m+2-gamma)
    gamma, T = 0.4, 1.0
    for t in (0.2, 0.6):
        r = T - t
        ref = math.exp(T) * sum((-1) ** m * (m + 1) * r ** (m + 1 - gamma)
                                / math.gamma(m + 2 - gamma) for m in range(40))
        assert caputo_adjoint_profile(t, gamma, T) == pytest.approx(ref, rel=1e-13)
    t = np.linspace(0.0, T, 9)
    assert np.array_equal(caputo_adjoint_profile(t, 1.0, T), (1.0 - (T - t)) * np.exp(t))


def test_manufactured_problem_structure():
    man = manufactured_problem(0.4, 1.0, 1.0, n=2)
    pts = np.array([[0.3, 0.4], [0.6, 0.1], [0.2, 0.8]])
    # terminal adjoint vanishes
    assert np.allclose(man.adjoint(pts, man.T), 0.0, atol=1e-15)
    # initial state is the raw sine product
    raw = np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
    assert np.allclose(man.state(pts, 0.0), raw, rtol=1e-14)
    # control clamps at b where -p/mu is large
    hot = np.array([[0.25, 0.25]])      # sine product = 1
    assert man.control(hot, 0.0)[0] == 0.5
    assert -man.adjoint(hot, 0.0)[0] / man.mu > 0.5
    # admissibility everywhere
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 1, size=(200, 2))
    for t in (0.0, 0.5, 1.0):
        z = man.control(xs, t)
        assert np.all(z >= 0.0) and np.all(z <= 0.5)


def test_manufactured_desired_state_closed_form():
    # for gamma = 1 the calibrated u_d agrees with the closed form
    # [1 - mu(-1 + (1 - lam^s)(T - t))] e^t sin sin
    s, mu, T = 0.6, 1.3, 1.0
    man = manufactured_problem(s, mu, T, n=2)
    lam_s = man.lam ** s
    pts = np.array([[0.3, 0.7], [0.15, 0.45]])
    raw = np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
    for t in (0.0, 0.4, 0.9):
        expected = (1.0 - mu * (-1.0 + (1.0 - lam_s) * (T - t))) * math.exp(t) * raw
        assert np.allclose(man.desired_state(pts, t), expected, rtol=1e-13)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_manufactured_satisfies_optimality_system(gamma):
    """Plug (u, p, z) into the continuous state/adjoint equations per mode."""
    s, mu, T = 0.3, 1.0, 1.0
    man = manufactured_problem(s, mu, T, gamma=gamma, n=2)
    lam_s = man.lam ** s
    pts = np.array([[0.35, 0.35]])
    shape = float(np.sin(2 * np.pi * 0.35) ** 2)
    for t in (0.1, 0.5, 0.9):
        du = float(caputo_state_profile(t, gamma))
        dp = -mu * float(caputo_adjoint_profile(t, gamma, T))
        u = float(man.state(pts, t)[0])
        p = float(man.adjoint(pts, t)[0])
        z = float(man.control(pts, t)[0])
        f = float(man.forcing(pts, t)[0])
        ud = float(man.desired_state(pts, t)[0])
        # state: d^gamma u + L^s u = f + z
        assert abs(du * shape + lam_s * u - f - z) <= 1e-10
        # adjoint: right-d^gamma p + L^s p = u - u_d
        assert abs(dp * shape + lam_s * p - (u - ud)) <= 1e-10
        # projection formula
        assert z == pytest.approx(min(0.5, max(0.0, -p / mu)), abs=1e-15)


def test_fractional_ibp_identities():
    K = 10_000
    times = np.linspace(0.0, 1.0, K + 1)
    res = fractional_ibp_check(times, np.ones_like(times), 0.5, times)
    assert res <= 1e-6
    res = fractional_ibp_check(times, times, 0.5, times)
    assert res <= 1e-6
    res = fractional_ibp_check(times, times, 0.3, times)
    assert res <= 1e-6


def test_fractional_ibp_check_refuses_gamma_outside_open_interval():
    times = np.linspace(0.0, 1.0, 9)
    for gamma in (1.0, 0.0, 1.5):
        with pytest.raises(ParameterError, match="gamma in \\(0, 1\\)"):
            fractional_ibp_check(times, times, gamma, times)


def test_fractional_ibp_check_refuses_times_and_samples_it_cannot_use():
    t = np.linspace(0.0, 1.0, 11)
    for times in (t ** 2, t + 0.1, t[::-1]):
        with pytest.raises(ParameterError, match="uniform times from 0 to T|final time"):
            fractional_ibp_check(np.ones_like(t), t, 0.5, times)
    for times in (t[:1], t.reshape(1, -1)):
        with pytest.raises(ParameterError, match="1D array of uniform times"):
            fractional_ibp_check(times, times, 0.5, times)
    with pytest.raises(ParameterError, match="one sample per time: 11 times"):
        fractional_ibp_check(t[:5], t[:5], 0.5, t)
    with pytest.raises(ParameterError, match="one sample per time"):
        fractional_ibp_check(t, t[:5], 0.5, t)


def test_fractional_ibp_smooth_refinement():
    # quadrature error drops at least first order under refinement
    gamma = 0.5
    vals = []
    for K in (500, 1000, 2000):
        times = np.linspace(0.0, 1.0, K + 1)
        f = np.exp(times)
        g = np.cos(times)
        vals.append(fractional_ibp_check(f, g, gamma, times))
    assert vals[1] * 1.8 <= vals[0]
    assert vals[2] * 1.8 <= vals[1]


def test_spectral_solve_state_shape_errors():
    from fracopt.problem import ParameterError
    with pytest.raises(ParameterError):
        spectral_solve_state([mode(1, 1)], [1.0, 2.0], None, 1.0, 0.5, 1.0)
    with pytest.raises(ParameterError):
        spectral_solve_state([mode(1, 1), mode(2, 2)], [1.0, 0.0], [1.0],
                             1.0, 0.5, 1.0)


# counts and final times the oracle cannot use, and the fault the error names
BAD_COUNTS = {"n = 0": (lambda: manufactured_problem(0.4, 1.0, 1.0, n=0), "dimension n"),
              "n = 2.5": (lambda: manufactured_problem(0.4, 1.0, 1.0, n=2.5), "dimension n"),
              "no mode index": (lambda: mode(), "one or more positive indices"),
              "mode index 0": (lambda: mode(1, 0), "one or more positive indices"),
              "K_fine = 0": (lambda: spectral_solve_state([mode(1)], [1.0], None, 0.5, 0.5,
                                                          1.0, K_fine=0), "K_fine"),
              "K_fine = 0, gamma = 1": (lambda: spectral_solve_state([mode(1)], [1.0], None,
                                                                     1.0, 0.5, 1.0, K_fine=0),
                                        "K_fine"),
              "K_fine = 0, T = -1": (lambda: spectral_solve_state([mode(1)], [1.0], None,
                                                                  1.0, 0.5, -1.0, K_fine=0),
                                     "K_fine"),
              "T = -1, gamma = 1": (lambda: spectral_solve_state([mode(1)], [1.0], None,
                                                                 1.0, 0.5, -1.0), "final time"),
              "T = nan": (lambda: spectral_solve_state([mode(1)], [1.0], None,
                                                       0.5, 0.5, math.nan), "final time")}


@pytest.mark.parametrize("case", list(BAD_COUNTS))
def test_oracle_refuses_counts_it_cannot_use(case):
    call, fault = BAD_COUNTS[case]
    with pytest.raises(ParameterError, match=fault):
        call()


def direct_manufactured(man, s, gamma, x, t):
    """The manufactured data of orders s and gamma, the sine product recomputed by SpectralMode."""
    S = mode(*([2] * x.shape[1]))(x, normalized=False)
    T, mu, lam_s = man.T, man.mu, man.lam ** s
    state_time = caputo_state_profile(t, gamma)
    adjoint_time = caputo_adjoint_profile(t, gamma, T)
    control = np.minimum(man.b, np.maximum(man.a, (T - t) * np.exp(t) * S))
    return {
        "state": np.exp(t) * S,
        "adjoint": -mu * (T - t) * np.exp(t) * S,
        "control": control,
        "forcing": (state_time + lam_s * np.exp(t)) * S - control,
        "desired_state": (np.exp(t) + mu * adjoint_time
                          + mu * lam_s * (T - t) * np.exp(t)) * S,
        "initial": S,
    }


def assert_bitwise_manufactured(man, s, gamma, x, t):
    ref = direct_manufactured(man, s, gamma, x, t)
    for name, want in ref.items():
        fn = getattr(man, name)
        got = fn(x) if name == "initial" else fn(x, t)
        assert got.shape == want.shape, name
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


@pytest.mark.parametrize("n,gamma", [(1, 1.0), (2, 1.0), (2, 0.5)])
def test_manufactured_memo_matches_direct_formula_bitwise(n, gamma):
    man = manufactured_problem(0.4, 0.7, 0.5, gamma=gamma, n=n)
    check = lambda x, t: assert_bitwise_manufactured(man, 0.4, gamma, x, t)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(37, n))
    x[0] = 0.0                                  # sine product +0.0 here
    column = np.linspace(0.0, man.T, 6)[:, None]
    for t in (column, 0.3, man.T):
        check(x, t)
        check(x, t)    # a second call gives the same bits

    # an in-place change gives fresh values, down to the sign of a zero
    x[0, 0] = -0.0
    check(x, column)
    x[1, 0] += 0.1
    check(x, column)
    # so does a second array of the same shape
    y = rng.uniform(0.0, 1.0, size=x.shape)
    check(y, column)
    check(x, column)
    # and a non-contiguous view
    check(np.asfortranarray(y)[::2], column)


def test_manufactured_initial_is_a_private_copy():
    man = manufactured_problem(0.4, 1.0, 1.0, n=2)
    x = np.random.default_rng(6).uniform(0.0, 1.0, size=(20, 2))
    u0 = man.initial(x)
    u0[:] = 7.0
    assert_bitwise_manufactured(man, 0.4, 1.0, x, np.array([[0.0], [0.4]]))


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_control_solve_evaluates_each_factor_a_fixed_number_of_times(gamma, monkeypatch):
    from fracopt.harness import ExperimentConfig, _control_solve
    from fracopt.oracle import SpectralMode
    direct = SpectralMode.__call__
    calls = []

    def counted(self, points, normalized=True):
        calls.append(np.shape(points))
        return direct(self, points, normalized)

    monkeypatch.setattr(SpectralMode, "__call__", counted)
    config = ExperimentConfig(s_list=(0.4,), gamma=gamma, M=4, K=8)
    counts = []
    # one step block, and three with the last one short
    for K in (8, 500):
        calls.clear()
        row = _control_solve("solve-control", 0.4, config, 4, K)[0]
        assert row["converged"]
        counts.append(len(calls))
    # the initial trace; the forcing's linear and clip terms; the desired
    # state's loads and projection; the two error norms
    assert counts == [6, 6]

@pytest.mark.parametrize("mu,T,named", [(math.nan, 1.0, "nan"), (0.4, math.inf, "inf"),
                                        (0.4, math.nan, "nan"), (-1.0, 1.0, "-1.0")])
def test_manufactured_problem_refuses_non_finite_mu_and_T(mu, T, named):
    with pytest.raises(ParameterError, match=named):
        manufactured_problem(0.4, mu, T)
