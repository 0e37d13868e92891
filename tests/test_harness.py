import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracopt import (ControlBounds, ExperimentConfig, ProblemData, TimeGrid, build_omega,
                     fit_rate, l2Q_error, run_experiment)
from fracopt import assembly, cli, evolution, harness
from fracopt.control import project_trace
from fracopt.harness import (REPORT_COLUMNS, RUNNERS, SETTINGS, ConvergenceReport,
                             build_setup, run_convergence_time, run_truncation_study,
                             write_report_csv)
from fracopt.oracle import mode
from fracopt.problem import ParameterError
from fracopt.cli import main as cli_main

from helpers import (load_config, mass, nodal_solve_state, read_report_csv, truncation_per_height)


def test_l2Q_error_reproduces_fe_functions():
    om = build_omega(2, 5)
    grid = TimeGrid(T=1.0, K=3)
    rng = np.random.default_rng(6)
    interior = om.interior_idx
    coeffs = rng.standard_normal(interior.size)
    discrete = np.tile(coeffs, (grid.K + 1, 1))
    full = np.zeros(om.vertices.shape[0])
    full[interior] = coeffs

    def exact(x, t):
        # evaluate the bilinear interpolant at arbitrary points
        pts = np.atleast_2d(x)
        m = om.cells_per_dim
        h = om.h
        ix = np.clip((pts[:, 0] * m).astype(int), 0, m - 1)
        iy = np.clip((pts[:, 1] * m).astype(int), 0, m - 1)
        xi = pts[:, 0] / h - ix
        et = pts[:, 1] / h - iy
        v00 = full[ix * (m + 1) + iy]
        v01 = full[ix * (m + 1) + iy + 1]
        v10 = full[(ix + 1) * (m + 1) + iy]
        v11 = full[(ix + 1) * (m + 1) + iy + 1]
        return (v00 * (1 - xi) * (1 - et) + v01 * (1 - xi) * et
                + v10 * xi * (1 - et) + v11 * xi * et)

    err = l2Q_error(discrete, exact, grid, om)
    assert err <= 1e-12


def test_l2Q_error_zero_discrete_closed_form():
    om = build_omega(2, 8)
    exact = lambda x, t: np.sin(2 * np.pi * np.atleast_2d(x)[:, 0]) \
        * np.sin(2 * np.pi * np.atleast_2d(x)[:, 1]) * np.exp(t)
    limit = 0.25 * (math.exp(2.0) - 1.0) / 2.0
    gaps = []
    for K in (16, 64, 256):
        grid = TimeGrid(T=1.0, K=K)
        err = l2Q_error(np.zeros((K + 1, om.interior_idx.size)), exact, grid, om)
        gaps.append(abs(err ** 2 - limit))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] <= 30.0 / 256


def test_l2Q_error_triangle_inequality():
    om = build_omega(1, 6)
    grid = TimeGrid(T=1.0, K=4)
    rng = np.random.default_rng(13)
    n_int = om.interior_idx.size
    a = rng.standard_normal((grid.K + 1, n_int))
    b = rng.standard_normal((grid.K + 1, n_int))
    zero = lambda x, t: np.zeros(np.atleast_2d(x).shape[0])
    na = l2Q_error(a, zero, grid, om)
    nb = l2Q_error(b, zero, grid, om)
    nab = l2Q_error(a + b, zero, grid, om)
    assert nab <= na + nb + 1e-12


@pytest.mark.parametrize("kind", ["state", "control"])
def test_l2Q_error_refuses_a_rule_of_another_lattice(kind):
    om, grid = build_omega(2, 8), TimeGrid(T=1.0, K=3)
    discrete = np.zeros((grid.K + 1, om.interior_idx.size) if kind == "state"
                        else (grid.K, om.n_cells))
    zero = lambda x, t: np.zeros(np.atleast_2d(x).shape[0])
    for n, M in ((2, 6), (1, 8)):
        quad = assembly.omega_quadrature(build_omega(n, M))
        named = rf"lattice n = {n}, M = {M}, not on omega's n = 2, M = 8"
        with pytest.raises(ParameterError, match=named):
            l2Q_error(discrete, zero, grid, om, kind=kind, quad=quad)
    # a rule of an equal lattice, built for another OmegaMesh, is one of omega's
    quad = assembly.omega_quadrature(build_omega(2, 8))
    assert l2Q_error(discrete, zero, grid, om, kind=kind, quad=quad) == 0.0


def test_fit_rate_exact_and_noisy():
    xs = np.array([10.0, 20.0, 40.0, 80.0])
    assert fit_rate(xs, 1.0 / xs) == pytest.approx(-1.0, abs=1e-12)
    assert fit_rate(xs, 3.7 * xs ** (-1.0 / 3.0)) == pytest.approx(-1 / 3, abs=1e-12)
    rng = np.random.default_rng(42)
    noisy = xs ** (-2.0 / 3.0) * (1.0 + rng.uniform(-0.05, 0.05, xs.size))
    assert abs(fit_rate(xs, noisy) + 2.0 / 3.0) <= 0.05
    with pytest.raises(ParameterError):
        fit_rate([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ParameterError):
        fit_rate(xs, [1.0, -1.0, 2.0, 3.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            fit_rate([1.0, 2.0, 3.0], [1.0, bad, 2.0])
        with pytest.raises(ParameterError, match="finite"):
            fit_rate([1.0, bad, 3.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_report_fit_refuses_a_non_finite_row(bad):
    report = ConvergenceReport(case="conv-space")
    report.rows = [{"s": 0.4, "N": N, "err_control": err}
                   for N, err in ((10, 1.0), (20, bad), (40, 0.25), (80, 0.125))]
    with pytest.raises(ParameterError, match="finite"):
        report.fit("err_control", "N", s=0.4, gamma=1.0, last=4)
    assert report.slopes == []


def test_report_csv_round_trip(tmp_path):
    rows = [{"case": "demo", "s": 0.4, "gamma": 1.0, "M": 4, "K": 8, "N": 72,
             "zeta": 3.9375, "Y": 1.0, "err_control": 1.234567890123e-2,
             "err_state": 7.5e-3, "cost": 0.125, "iters": 6, "pg_norm": 3e-10}]
    path = tmp_path / "report.csv"
    write_report_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(REPORT_COLUMNS)
    back = read_report_csv(path)
    assert back[0]["case"] == "demo"
    for key in ("s", "gamma", "zeta", "Y", "err_control", "err_state", "cost",
                "pg_norm"):
        assert back[0][key] == pytest.approx(rows[0][key], rel=1e-11)
    for key in ("M", "K", "N", "iters"):
        assert back[0][key] == rows[0][key]
    # writing the parsed rows again reproduces the file exactly
    path2 = tmp_path / "again.csv"
    write_report_csv(back, path2)
    assert path.read_text() == path2.read_text()


def test_config_file_and_overrides(tmp_path):
    cfg_text = """[experiment]
kind = conv-space
s = 0.3, 0.5
gamma = 1.0
T = 0.5
K = 8
M = 3, 4, 5
tol = 1e-8
out = study
"""
    path = tmp_path / "exp.cfg"
    path.write_text(cfg_text)
    cfg = load_config(path)
    assert cfg.kind == "conv-space"
    assert cfg.s_list == (0.3, 0.5)
    assert cfg.M_list == (3, 4, 5)
    assert cfg.K == 8
    assert cfg.tol == 1e-8
    assert cfg.out == "study"


def test_config_unknown_keys_raise(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("[experiment]\nkind = conv-space\nM_lists = 4, 6, 8\nfit_lst = 2\n")
    with pytest.raises(ParameterError, match="M_lists") as info:
        load_config(path)
    assert "fit_lst" in str(info.value)
    assert str(path) in str(info.value)
    # neither are the short spellings of the lists, nor the removed *_list keys
    for key in ("klist", "mlist", "ylist", "M_list", "K_list"):
        path.write_text(f"[experiment]\n{key} = 4, 6, 8\n")
        with pytest.raises(ParameterError, match=key):
            load_config(path)
    # a [DEFAULT] section is read as well, even without any other section
    path.write_text("[DEFAULT]\nM_list = 4, 6, 8\n")
    with pytest.raises(ParameterError, match="M_list"):
        load_config(path)
    # every key of the shipped configs is known, in any case
    for cfg in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")):
        load_config(cfg)
    path.write_text("[experiment]\nkind = conv-time\nk = 4, 8, 16\nFIT_LAST = 4\n")
    cfg = load_config(path)
    assert cfg.K_list == (4, 8, 16)
    assert cfg.fit_last == 4
    # nor does the command line take an abbreviation of a flag
    with pytest.raises(SystemExit):
        cli_main(["conv-space", "--fit", "4", "--out", str(tmp_path / "cli")])


# whole files that are not key = value entries under [section] headers, or
# that give one setting twice, and the fault their error names
MALFORMED = {"no section header": ("kind = conv-space\nK = 8\n", "no section headers"),
             "duplicate key": ("[experiment]\nK = 8\nK = 16\n", "already exists"),
             "malformed line": ("[experiment]\nK 8\n", "parsing errors"),
             "key in two cases": ("[experiment]\nK = 8\nk = 16\n",
                                  r"'k' is given twice .* 'K' in \[experiment\] "
                                  r"and as 'k' in \[experiment\]"),
             "key in two sections": ("[a]\nM = 4\n[b]\nM = 6\n",
                                     r"'M' is given twice .* 'M' in \[a\] and as 'M' in \[b\]"),
             "key in [DEFAULT] too": ("[DEFAULT]\ns = 0.4\n[experiment]\nS = 0.6\n",
                                      r"'S' is given twice .* 's' in \[DEFAULT\] "
                                      r"and as 'S' in \[experiment\]")}


@pytest.mark.parametrize("entry", ["K = eight", "gamma = half", "M = 4, six",
                                   "fit_last = 2.5", *MALFORMED])
def test_config_bad_values_raise_naming_key_value_and_file(tmp_path, entry):
    path = tmp_path / "bad.cfg"
    if entry in MALFORMED:
        text, fault = MALFORMED[entry]
        path.write_text(text)
        with pytest.raises(ParameterError, match=fault) as info:
            load_config(path)
        assert str(path) in str(info.value)
        return
    path.write_text(f"[experiment]\nkind = conv-space\n{entry}\n")
    key, value = (part.strip() for part in entry.split("="))
    with pytest.raises(ParameterError) as info:
        load_config(path)
    message = str(info.value)
    assert repr(key) in message and repr(value) in message and str(path) in message
    # the same value after its flag fails the same way, naming the command line
    out = tmp_path / "cli"
    with pytest.raises(ParameterError) as info:
        cli_main(["conv-space", "--" + key.replace("_", "-"), value.replace(" ", ""),
                  "--out", str(out)])
    message = str(info.value)
    assert repr(key) in message and repr(value.replace(" ", "")) in message
    assert "command line" in message
    assert not out.exists()


# values that parse but that the config refuses, the kind they are refused
# for, and the fault the error names
REFUSED = {"fit_last = 2": ("conv-space", "a slope needs >= 3 levels"),
           "tol = -1": ("conv-space", "tolerance must be finite"),
           "max_iter = 0": ("conv-space", "at least one iteration"),
           "K = 3, 8, 16": ("conv-time", "do not divide"),
           "Y = 1, 1.5, 2": ("truncation", "4 distinct heights"),
           "M = 4, 6": ("conv-space", "needs >= 3 levels of M"),
           "K = 8, 16": ("conv-time", "needs >= 3 levels of K"),
           # a bad level is refused before the good ones before it are solved
           "s = 0.4, 1.5": ("conv-space", "spatial order s"),
           "M = 32, 48, 0": ("conv-space", "M >= 1"),
           "gamma = 2.0": ("solve-control", "temporal order gamma"),
           "n = 0": ("solve-state", "dimension n"),
           "mu = -1.0": ("truncation", "regularization weight"),
           "zeta = 0.5": ("solve-state", "grading exponent"),
           "s = 0.01": ("conv-space", "axis underflows at s = 0.01, M = 12"),
           # a list for a setting that the kind reads once
           "Y = 2, 3": ("solve-control", "'Y' = '2, ?3' is a list of 2, but solve-control"),
           "K = 8, 16, 32": ("solve-control", "'K' = '8, ?16, ?32' is a list of 3"),
           "K = 8, 32": ("conv-space", "'K' = .* but conv-space reads one value"),
           "M = 4, 8": ("conv-time", "'M' = .* read only by conv-space"),
           "s = 0.2, 0.4": ("solve-state", "'s' = .* but solve-state reads one value"),
           "s = 0.3, 0.5": ("truncation", "'s' = .* but truncation reads one value")}


@pytest.mark.parametrize("entry", list(REFUSED))
def test_config_refusals_name_the_file_or_the_command_line(tmp_path, monkeypatch, entry):
    kind, fault = REFUSED[entry]
    solves = []
    monkeypatch.setattr(harness, "_control_solve", lambda *args: solves.append(args))
    path = tmp_path / "refused.cfg"
    path.write_text(f"[experiment]\nkind = {kind}\n{entry}\n")
    with pytest.raises(ParameterError, match=fault) as info:
        load_config(path)
    assert str(info.value).endswith(f"in {path}")
    key, value = (part.strip() for part in entry.split("="))
    out = tmp_path / "cli"
    with pytest.raises(ParameterError, match=fault) as info:
        cli_main([kind, "--" + key.replace("_", "-"), value.replace(" ", ""),
                  "--out", str(out)])
    assert str(info.value).endswith("on the command line")
    assert solves == [] and not out.exists()


def test_flags_and_file_are_checked_once_together(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda config: seen.append(config) or ConvergenceReport(config.kind))
    path = tmp_path / "two.cfg"
    path.write_text("[experiment]\nkind = conv-time\nK = 8, 16\n")
    with pytest.raises(ParameterError, match="needs >= 3 levels of K"):
        load_config(path)
    # the flag completes the levels the file alone has too few of
    assert cli_main(["conv-time", "--config", str(path), "--K", "8,16,32"]) == 0
    assert seen[-1].K_list == (8, 16, 32) and seen[-1].kind == "conv-time"
    # and a refusal of the merged settings names both sources
    path.write_text("[experiment]\nkind = conv-time\nK = 8, 16, 32\n")
    with pytest.raises(ParameterError, match="needs >= 3 levels of K") as info:
        cli_main(["conv-time", "--config", str(path), "--K", "8,16"])
    assert str(info.value).endswith(f"in {path} and on the command line")
    # a value that does not parse still names its own source
    path.write_text("[experiment]\nK = eight\n")
    with pytest.raises(ParameterError, match=f"'eight' in {path}$"):
        cli_main(["conv-time", "--config", str(path), "--K", "8,16,32"])
    assert len(seen) == 1


@pytest.mark.parametrize("kind", list(RUNNERS))
def test_runner_refuses_a_config_of_another_kind(kind, monkeypatch):
    solves = []
    for name in ("_control_solve", "solve_state", "manufactured_problem"):
        monkeypatch.setattr(harness, name, lambda *args, **kw: solves.append(args))
    other = "solve-state" if kind != "solve-state" else "oracle-check"
    cfg = ExperimentConfig(kind=other, M=4, K=4, Y_list=(1.0, 2.0))
    with pytest.raises(ParameterError, match=f"runner needs a config of kind '{kind}'"):
        RUNNERS[kind](cfg)
    assert solves == []


def test_config_is_frozen():
    cfg = ExperimentConfig(kind="conv-time")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.K_list = (8,)


# one value per setting, lists for K, M, Y and s; none is the default
SETTING_VALUES = {"kind": "conv-time", "out": "study%1", "s": "0.3, 0.5", "gamma": "0.5",
                  "K": "8, 16, 32", "M": "4, 6, 8", "T": "0.5", "mu": "0.1", "zeta": "2.5",
                  "Y": "1, 1.5, 2, 3", "tol": "1e-8", "n": "1", "max_iter": "50",
                  "fit_last": "4"}
# a kind that reads every entry of the list; every other setting is given to solve-state
LIST_KIND = {"s": "conv-space", "K": "conv-time", "M": "conv-space", "Y": "truncation"}


@pytest.mark.parametrize("key", list(SETTINGS))
def test_setting_means_the_same_in_a_file_and_on_the_command_line(tmp_path, monkeypatch,
                                                                   key):
    value = SETTING_VALUES[key]
    seen = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda config: seen.append(config) or ConvergenceReport(config.kind))
    path = tmp_path / "one.cfg"
    kind = LIST_KIND.get(key, "solve-state")
    if key == "kind":
        path.write_text(f"[experiment]\nkind = {value}\n")
        argv = [value]
    else:
        path.write_text(f"[experiment]\nkind = {kind}\n{key} = {value}\n")
        argv = [kind, "--" + key.replace("_", "-"), value.replace(" ", "")]
    assert cli_main(argv) == 0
    from_file = load_config(path)
    assert seen == [from_file]
    assert from_file != ExperimentConfig(kind=kind)


def test_conv_time_step_counts_checked_up_front():
    # 3 does not divide the reference 8 * 8 = 64: rejected before any solve
    with pytest.raises(ParameterError, match="do not divide"):
        ExperimentConfig(kind="conv-time", K_list=(3, 8))
    with pytest.raises(ParameterError):
        cli_main(["conv-time", "--K", "3,8"])
    # other kinds do not use K_list as time levels
    assert ExperimentConfig(kind="conv-space", K_list=(3, 8)).K_list == (3, 8)
    assert ExperimentConfig(kind="conv-time", K_list=(2, 5, 10)).K_list == (2, 5, 10)


@pytest.mark.parametrize("heights", [(2.0,), (1.0, 2.0), (1.0, 1.5, 2.0),
                                     (1.0, 1.5, 2.0, 2.0), (1.0, 1.0, 1.5, 1.5, 2.0)])
def test_truncation_heights_checked_up_front(heights):
    # fewer than 4 distinct heights leave fewer than 3 rows to fit
    with pytest.raises(ParameterError, match="4 distinct heights"):
        ExperimentConfig(kind="truncation", Y_list=heights)
    with pytest.raises(ParameterError, match="4 distinct heights"):
        cli_main(["truncation", "--Y", ",".join(map(str, heights))])


def test_truncation_counts_a_repeated_height_once():
    cfg = ExperimentConfig(kind="truncation", s_list=(0.5,), n=1, M=24, K=4,
                           Y_list=(2.5, 1.0, 1.5, 2.0, 2.5, 1.0), T=0.5)
    rep = run_truncation_study(cfg)
    assert [r["Y"] for r in rep.rows] == [1.0, 1.5, 2.0]
    assert all(r["err_state"] > 0.0 for r in rep.rows)
    (rate,) = rep.slopes
    assert rate["levels_used"] == 3 and math.isfinite(rate["slope"])


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_truncation_on_one_lattice_matches_a_lattice_per_height(gamma):
    # the study solves one cylinder family of all heights; the reference
    # builds one single-height system, on its own lattice, per height
    cfg = ExperimentConfig(kind="truncation", s_list=(0.4,), gamma=gamma, n=2, M=6, K=8,
                           Y_list=(1.0, 1.5, 2.0, 2.5), T=0.5)
    family = run_truncation_study(cfg)
    per_height = truncation_per_height(cfg)
    assert family.rows == per_height.rows
    assert family.slopes == per_height.slopes


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_truncation_reads_the_nodal_mass_norms_from_modal_coefficients(gamma, monkeypatch):
    cfg = ExperimentConfig(kind="truncation", s_list=(0.4,), gamma=gamma, n=2, M=6, K=8,
                           Y_list=(1.0, 1.5, 2.0, 2.5), T=0.5)
    calls = []
    from_modal = evolution.CylinderSystem.from_modal
    monkeypatch.setattr(evolution.CylinderSystem, "from_modal",
                        lambda self, *args, **kw: calls.append(1) or from_modal(self, *args, **kw))
    report = run_truncation_study(cfg)
    assert calls == []
    monkeypatch.undo()
    # the nodal form: M_int-norms of the trace differences, from nodal traces
    system = evolution.CylinderSystem(*build_setup(2, 6, 0.4, gamma, 0.5, 8, Y=cfg.Y_list))
    data = ProblemData(forcing=None, desired_state=None, initial=mode(1, 1),
                       bounds=ControlBounds(-1.0, 1.0, 1.0))
    traces = nodal_solve_state(system, data).traces
    for i, row in enumerate(report.rows):
        diff = traces[:, i] - traces[:, -1]
        sq = np.einsum("ki,ki->k", diff, mass(system, diff))
        err = math.sqrt(system.grid.tau * float(np.sum(sq[1:])))
        assert math.isclose(row["err_state"], err, rel_tol=1e-12)


def count_omega_builds(monkeypatch):
    """The names of the lattice set-up builders, appended on every build."""
    built = []
    for module, name in ((assembly, "_gauss_rule"), (evolution, "lattice_factors"),
                         (evolution, "point_factors")):
        def counted(omega, build=getattr(module, name), name=name):
            built.append(name)
            return build(omega)
        monkeypatch.setattr(module, name, counted)
    return built


def test_truncation_builds_no_gauss_rule_and_one_set_of_factors(monkeypatch):
    built = count_omega_builds(monkeypatch)
    cfg = ExperimentConfig(kind="truncation", s_list=(0.5,), n=2, M=4, K=4,
                           Y_list=(1.0, 1.5, 2.0, 2.5, 3.0), T=0.5)
    assert len(run_truncation_study(cfg).rows) == 4
    assert built == ["lattice_factors"]


def test_control_solve_builds_one_gauss_rule_and_one_set_of_factors(monkeypatch):
    built = count_omega_builds(monkeypatch)
    cfg = ExperimentConfig(kind="solve-control", s_list=(0.5,), n=2, M=4, K=4, T=0.5)
    assert len(RUNNERS["solve-control"](cfg).rows) == 1
    assert sorted(built) == ["_gauss_rule", "lattice_factors", "point_factors"]


@pytest.mark.parametrize("kind, heights", [("truncation", "2,1.5,1,0.5"),
                                           ("solve-state", "0.5")])
def test_height_below_one_is_rejected_before_any_solve(tmp_path, monkeypatch, kind, heights):
    with pytest.raises(ParameterError, match="Y >= 1"):
        build_setup(2, 4, 0.5, 1.0, 1.0, 4, Y=0.5)
    solves = []
    monkeypatch.setattr(harness, "solve_state", lambda *args, **kw: solves.append(args))
    out = tmp_path / "cli"
    with pytest.raises(ParameterError, match="Y >= 1"):
        cli_main([kind, "--M", "4", "--K", "4", "--Y", heights, "--out", str(out)])
    assert solves == [] and not out.exists()


def test_run_experiment_writes_reports(tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig(kind="conv-space", s_list=(0.5,), K=4,
                           M_list=(3, 4, 5), T=0.5, tol=1e-8, out=str(out))
    report = run_experiment(cfg)
    assert (out / "report.csv").exists()
    assert (out / "rates.csv").exists()
    rows = read_report_csv(out / "report.csv")
    assert len(rows) == 3
    for col in ("s", "gamma", "M", "K", "N", "zeta", "Y"):
        assert all(r[col] is not None for r in rows)
    assert all(r["err_control"] > 0 for r in rows)
    assert len(report.slopes) == 2


def test_control_solve_adjoint_means_match_step_loop(monkeypatch):
    seen = []
    vi_residual = harness.vi_residual

    def capture(control, p_cell_means):
        seen.append(p_cell_means)
        return vi_residual(control, p_cell_means)

    monkeypatch.setattr(harness, "vi_residual", capture)
    cfg = ExperimentConfig(kind="conv-space", s_list=(0.5,), gamma=0.5, T=0.5, tol=1e-8)
    _, result, prob = harness._control_solve("conv-space", 0.5, cfg, 4, 9)
    loop = np.stack([project_trace(result.adjoint.traces[k], prob.system)
                     for k in range(prob.grid.K)])
    (got,) = seen
    assert got.shape == loop.shape
    assert np.max(np.abs(got - loop)) <= 1e-14 * np.max(np.abs(loop))


def test_reports_deterministic(monkeypatch):
    monkeypatch.setattr(harness, "REF_FACTOR", 2)
    cfg = ExperimentConfig(kind="conv-time", s_list=(0.5,), K_list=(2, 4, 8),
                           M=3, T=0.5, tol=1e-8, out="unused")
    r1 = run_convergence_time(cfg)
    r2 = run_convergence_time(cfg)
    for a, b in zip(r1.rows, r2.rows):
        assert a["err_control"] == b["err_control"]
        assert a["cost"] == b["cost"]


def test_truncation_rows_exclude_reference_and_decrease():
    cfg = ExperimentConfig(kind="truncation", s_list=(0.5,), n=1, M=24, K=4,
                           Y_list=(1.0, 1.5, 2.0, 2.5), T=0.5)
    rep = run_truncation_study(cfg)
    ys = [r["Y"] for r in rep.rows]
    assert 2.5 not in ys
    errs = [r["err_state"] for r in rep.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_cli_solve_state(tmp_path, capsys):
    out = tmp_path / "cli"
    rc = cli_main(["solve-state", "--s", "0.5", "--M", "4", "--K", "4",
                   "--T", "0.5", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "solve-state" in captured
    assert (out / "report.csv").exists()


def test_cli_fails_when_a_solve_did_not_converge(tmp_path, capsys):
    out = tmp_path / "cli"
    args = ["solve-control", "--s", "0.3,0.6", "--n", "1", "--M", "4", "--K", "4",
            "--T", "0.5", "--out", str(out)]
    assert cli_main(args) == 0
    assert "not converged" not in capsys.readouterr().err
    rc = cli_main(args + ["--max-iter", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    for s in ("0.3", "0.6"):
        assert f"not converged: case=solve-control s={s} M=4" in err
    with open(out / "report.csv") as fh:
        assert fh.readline().strip().split(",") == REPORT_COLUMNS
    rows = read_report_csv(out / "report.csv")
    assert [r["iters"] for r in rows] == [1, 1]


@pytest.mark.parametrize("argv", [["solve-control", "--K", "8,16,32"],
                                  ["truncation", "--M", "1", "--K", "4"]],
                         ids=["refused-setting", "refused-fit"])
def test_console_script_ends_a_refusal_with_one_line_and_status_two(tmp_path, argv):
    """Run as a script, a refusal ends with one stderr line and status 2, not a traceback."""
    root = Path(__file__).resolve().parents[1]
    assert 'fracopt = "fracopt.cli:console"' in (root / "pyproject.toml").read_text()
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-m", "fracopt.cli", *argv, "--out", str(out)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("fracopt: error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr and not out.exists()


# stopping rules that can never be met, and a slope fit over fewer than 3 levels
UNREACHABLE_STOPS = [("tol", "nan"), ("tol", "-1"), ("max_iter", "0"), ("fit_last", "2")]


@pytest.mark.parametrize("name, value", UNREACHABLE_STOPS)
def test_cli_rejects_unreachable_stopping_rule(tmp_path, name, value):
    out = tmp_path / "cli"
    flag = "--" + name.replace("_", "-")
    with pytest.raises(ParameterError, match=name):
        cli_main(["solve-control", "--M", "4", "--K", "8", flag, value, "--out", str(out)])
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("kind", ["solve-control", "truncation"])
def test_cli_rejects_grading_exponent_below_one(tmp_path, kind):
    out = tmp_path / "cli"
    with pytest.raises(ParameterError, match="grading exponent"):
        cli_main([kind, "--M", "4", "--K", "4", "--zeta", "0", "--out", str(out)])
    assert not (out / "report.csv").exists()


# each is refused when the config is built, before any solve
NON_FINITE = [("zeta", "nan", "grading exponent"), ("T", "nan", "final time"),
              ("T", "inf", "final time"), ("Y", "inf", "truncation height"),
              ("mu", "nan", "regularization weight")]


@pytest.mark.parametrize("name, value, what", NON_FINITE)
def test_cli_rejects_non_finite_inputs_naming_them(tmp_path, name, value, what):
    out = tmp_path / "cli"
    with pytest.raises(ParameterError, match=f"{what} .* {value} on the command line$"):
        cli_main(["solve-control", "--M", "4", "--K", "4", f"--{name}", value,
                  "--out", str(out)])
    assert not (out / "report.csv").exists()


# settings that no run can use, whatever its kind, and the fault the error names
BAD_SETTINGS = [({"s_list": (1.5,)}, "spatial order s"), ({"gamma": 2.0}, "temporal order gamma"),
                ({"T": math.nan}, "final time"), ({"n": 0}, "dimension n"), ({"n": 2.5}, "dimension n"),
                ({"mu": -1.0}, "regularization weight"), ({"zeta": 0.5}, "grading exponent"),
                ({"kind": "nope"}, "unknown experiment kind"), ({"K": 0}, "time steps K"),
                ({"K_list": (8, 0, 16)}, "time steps K"), ({"M": 0}, "M >= 1"),
                ({"kind": "conv-space", "M_list": (0, 1, 2)}, "M >= 1"),
                ({"Y": 0.5}, "Y >= 1"), ({"kind": "solve-control", "Y_list": (1.0, 0.5)}, "Y >= 1")]


@pytest.mark.parametrize("kwargs, fault", BAD_SETTINGS,
                         ids=[",".join(f"{k}={v}" for k, v in kw.items()) for kw, _ in BAD_SETTINGS])
def test_config_refuses_every_bad_value_at_construction(kwargs, fault):
    with pytest.raises(ParameterError, match=fault):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("name, value", UNREACHABLE_STOPS + [("tol", "inf"), ("tol", "0")])
def test_config_rejects_unreachable_stopping_rule(name, value):
    with pytest.raises(ParameterError, match=name):
        ExperimentConfig(**{name: float(value) if name == "tol" else int(value)})


# at the default grading zeta = 1.05 * 3/(2 s), (1/M)^(2 zeta) underflows exactly
# where zeta log2(M) > 511: the M at which each s fails
UNDERFLOWS = {0.03: (), 0.02: (128,), 0.015: (64, 128), 0.01: (16, 64, 128),
              0.005: (4, 16, 64, 128)}


@pytest.mark.parametrize("s", list(UNDERFLOWS))
@pytest.mark.parametrize("M", [4, 16, 64, 128])
def test_config_refuses_a_default_grading_that_underflows(s, M):
    refused = M in UNDERFLOWS[s]
    if refused:
        with pytest.raises(ParameterError, match=f"s = {s}, M = {M}, zeta = .*--zeta"):
            ExperimentConfig(s_list=(s,), M=M, M_list=(M,))
    else:
        ExperimentConfig(s_list=(s,), M=M, M_list=(M,))
    # the refused cases are exactly those whose axis is refused when it is built
    if refused:
        with pytest.raises(ParameterError, match=f"underflows at M = {M}, zeta = "):
            build_setup(1, M, s, 1.0, 1.0, 1, Y=1.0)
    else:
        evolution.CylinderSystem(*build_setup(1, M, s, 1.0, 1.0, 1, Y=1.0))
    # an explicit zeta replaces the default one: 2 log2(M) <= 14 is accepted
    ExperimentConfig(s_list=(s,), M=M, M_list=(M,), zeta=2.0)


def test_a_list_given_to_a_setting_read_once_is_refused_before_any_solve(tmp_path, monkeypatch):
    solves = []
    monkeypatch.setattr(harness, "_control_solve", lambda *args: solves.append(args))
    path = tmp_path / "lists.cfg"
    path.write_text("[experiment]\nK = 8, 16, 32\n")
    # the kind from the command line decides whether the file's list is read
    with pytest.raises(ParameterError, match=f"'K' = '8, 16, 32' is a list .* in {path}$"):
        cli_main(["solve-control", "--config", str(path), "--out", str(tmp_path / "a")])
    seen = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda config: seen.append(config) or ConvergenceReport(config.kind))
    assert cli_main(["conv-time", "--config", str(path)]) == 0
    # a single value on the command line overrides the file's list
    assert cli_main(["solve-control", "--config", str(path), "--K", "16"]) == 0
    assert [c.K for c in seen] == [8, 16] and solves == []


def test_truncation_without_interior_nodes_refuses_its_fit(tmp_path):
    out = tmp_path / "trunc"
    with pytest.raises(ParameterError, match="strictly positive"):
        cli_main(["truncation", "--M", "1", "--K", "4", "--out", str(out)])
    assert not out.exists()


def test_solve_without_interior_nodes_runs_at_every_gamma(tmp_path):
    rows = []
    for gamma in ("1", "0.5"):
        out = tmp_path / gamma
        assert cli_main(["solve-state", "--M", "1", "--K", "8", "--gamma", gamma,
                         "--out", str(out)]) == 0
        rows.append(read_report_csv(out / "report.csv")[0])
    # no mode to march: the error is the exact state's norm, whatever gamma
    assert rows[0]["err_state"] == rows[1]["err_state"] > 0.0
    # at T = 2 the forcing's clipped term crosses its bound inside a block of steps
    out = tmp_path / "long"
    assert cli_main(["solve-state", "--M", "1", "--T", "2", "--K", "40", "--out", str(out)]) == 0
    assert read_report_csv(out / "report.csv")[0]["err_state"] > 0.0


def test_cli_oracle_check(tmp_path):
    out = tmp_path / "oracle"
    rc = cli_main(["oracle-check", "--s", "0.4", "--out", str(out)])
    assert rc == 0
    rows = read_report_csv(out / "report.csv")
    resid = {r["case"]: r["err_state"] for r in rows}
    assert resid["ibp-linear-linear"] <= 1e-6
    assert resid["manufactured-state-residual-s0.4"] <= 1e-10
