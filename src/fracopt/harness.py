"""Experiment orchestration: error norms, convergence studies, CSV reports.

Error norms measure the discrete control/state against the continuous exact
solution sampled at the right endpoints t_k, matching the l2(L2) convention
of the scheme. Slopes are fitted by least squares on log-log data over the
trailing mesh levels (coarse levels are pre-asymptotic at desk scale).
All runs are deterministic given their configuration.
"""
from __future__ import annotations

import configparser
import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .assembly import evaluate_data, omega_quadrature, step_blocks
from .control import (ReducedProblem, check_stopping, control_norm, l2_project,
                      project_trace, solve_control_problem, vi_residual)
from .evolution import CylinderSystem, solve_state
from .mesh import OmegaMesh, build_cylinder, build_omega, default_zeta, graded_axis
from .oracle import (caputo_left, caputo_right, fractional_ibp_check,
                     manufactured_problem, mode, spectral_solve_state)
from .problem import (ControlBounds, ParameterError, ProblemData, TimeGrid,
                      make_params, select_truncation)

REPORT_COLUMNS = ["case", "s", "gamma", "M", "K", "N", "zeta", "Y",
                  "err_control", "err_state", "cost", "iters", "pg_norm"]
RATE_COLUMNS = ["case", "s", "gamma", "quantity", "slope", "levels_used"]
# conv-time measures every K against one solve with REF_FACTOR * max(K_list) steps
REF_FACTOR = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one run; frozen, so that ``__post_init__`` checks every config once."""

    kind: str = "solve-control"
    s_list: tuple = (0.4,)
    gamma: float = 1.0
    T: float = 1.0
    mu: float = 1.0
    n: int = 2
    K: int = 64
    K_list: tuple = (8, 16, 32, 64)
    M: int = 12
    M_list: tuple = (4, 6, 8, 12, 16)
    Y_list: tuple = (1.0, 1.5, 2.0, 2.5, 3.0)
    zeta: float | None = None
    Y: float | None = None
    tol: float = 1e-9
    max_iter: int = 400
    fit_last: int = 3
    out: str = "out"

    def __post_init__(self):
        for name in ("s_list", "K_list", "M_list", "Y_list"):
            if not getattr(self, name):
                raise ParameterError(f"{name} must be nonempty")
        check_stopping(self.tol, self.max_iter)
        if self.fit_last < 3:
            raise ParameterError(f"a slope needs >= 3 levels, got fit_last = {self.fit_last}")
        if self.kind == "conv-time":
            _check_time_levels(self.K_list)
        # a rate study fits its slope through the rows of its levels
        levels = {"conv-space": ("M", self.M_list), "conv-time": ("K", self.K_list)}
        if self.kind in levels and len(levels[self.kind][1]) < 3:
            name, values = levels[self.kind]
            raise ParameterError(f"{self.kind} needs >= 3 levels of {name} to fit a rate, "
                                 f"got {name} = {values}")
        if self.kind == "truncation":
            _check_heights(self.Y_list)


def _check_time_levels(K_list) -> None:
    """Every K must divide the reference step count REF_FACTOR * max(K_list)."""
    K_ref = REF_FACTOR * max(K_list)
    bad = [K for K in K_list if K < 1 or K_ref % K]
    if bad:
        raise ParameterError(f"step counts {bad} do not divide the reference "
                             f"{REF_FACTOR} * max(K_list) = {K_ref}")


def _check_heights(Y_list) -> None:
    """The truncation fit needs >= 3 rows below the tallest height: >= 4 distinct heights."""
    if len(set(Y_list)) < 4:
        raise ParameterError(f"truncation needs at least 4 distinct heights, got {tuple(Y_list)}")


def _parse_list(text, cast=float):
    return tuple(cast(tok) for tok in text.replace(" ", "").split(",") if tok)


def _field(name, cast):
    return lambda text: {name: cast(text)}


def _levels(name):
    """``K`` or ``M``: the list of levels, and the single level from its first entry."""
    def parse(text):
        levels = _parse_list(text, int)
        return {f"{name}_list": levels, name: levels[0]}
    return parse


def _heights(text):
    """``Y``: the list of heights, and the height itself when only one is given."""
    heights = _parse_list(text)
    return {"Y_list": heights, "Y": heights[0]} if len(heights) == 1 else {"Y_list": heights}


# The one list of settings: name -> (help, parser of its text into
# ExperimentConfig field updates). A config file's keys are these names in
# any case; the CLI takes ``kind`` as its positional argument and every
# other name as the flag --name, with "_" spelled "-".
SETTINGS = {
    "kind": ("experiment to run", _field("kind", str)),
    "out": ("output directory for CSV reports", _field("out", str)),
    "s": ("comma-separated fractional orders, e.g. 0.2,0.4",
          lambda text: {"s_list": _parse_list(text)}),
    "gamma": ("temporal order in (0, 1]", _field("gamma", float)),
    "K": ("time steps (comma list for conv-time)", _levels("K")),
    "M": ("cells per dimension (comma list for conv-space)", _levels("M")),
    "T": ("final time", _field("T", float)),
    "mu": ("regularization weight", _field("mu", float)),
    "zeta": ("grading exponent override", _field("zeta", float)),
    "Y": ("cylinder height (comma list for truncation)", _heights),
    "tol": ("projected-gradient tolerance", _field("tol", float)),
    "n": ("spatial dimension n >= 1 of Omega = (0,1)^n", _field("n", int)),
    "max_iter": ("iteration cap of the optimizer", _field("max_iter", int)),
    "fit_last": ("number of trailing levels for slope fits", _field("fit_last", int)),
}


def apply_settings(config: ExperimentConfig, entries: dict, where: str) -> ExperimentConfig:
    """``config`` with ``entries`` (setting name in any case -> text) applied.

    ``where`` names the source in errors, e.g. "in exp.cfg" or "on the
    command line". An unknown name, or a value that does not parse, raises
    ParameterError naming it, its value and the source; a result that
    ``ExperimentConfig.__post_init__`` refuses raises its error with the
    source added.
    """
    names = {name.lower(): name for name in SETTINGS}
    unknown = [key for key in entries if key.lower() not in names]
    if unknown:
        raise ParameterError(f"unknown setting(s) {', '.join(map(repr, unknown))} {where}")
    updates = {}
    for key, value in entries.items():
        try:
            updates.update(SETTINGS[names[key.lower()]][1](value))
        except (ValueError, IndexError):
            raise ParameterError(f"setting {key!r} has invalid value {value!r} {where}") from None
    try:
        return replace(config, **updates)
    except ParameterError as exc:
        raise ParameterError(f"{exc} {where}") from None


def load_config(path) -> ExperimentConfig:
    """Read a flat key=value config with [section] headers.

    Its keys are the names in :data:`SETTINGS`, in any case: the CLI flag
    names (``max_iter`` and ``fit_last`` with underscores) plus ``kind``.
    A value means what it means after its flag, lists included (``K =
    8, 16`` as ``--K 8,16``). An unknown key, or a value that does not
    parse, raises ParameterError naming it, its value and the file; so does
    a file that is not in that format (no section header, a repeated key,
    a line that is not ``key = value``), naming the file and the fault, and
    a setting given twice, in any case and sections ([DEFAULT] too), naming both.
    """
    parser = configparser.ConfigParser(interpolation=None,  # values as typed, "%" too
                                       default_section="")  # [DEFAULT] is a plain section
    parser.optionxform = str    # keep the spelling for the error message
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ParameterError(f"config file {path} is malformed: {exc}") from None
    merged, places = {}, {}
    for section in parser.sections():
        for key, value in parser[section].items():
            place = places.setdefault(key.lower(), f"{key!r} in [{section}]")
            if place != f"{key!r} in [{section}]":
                raise ParameterError(f"setting {key!r} is given twice in {path}: "
                                     f"as {place} and as {key!r} in [{section}]")
            merged[key] = value
    return apply_settings(ExperimentConfig(), merged, f"in {path}")


def build_setup(n: int, M: int, s: float, gamma: float, T: float, K: int,
                zeta: float | None = None, Y: float | None = None,
                omega: OmegaMesh | None = None):
    """Mesh, params and grid for one run (Y and zeta default per theory).

    The cylinder stands on ``omega`` when it is given, so that runs on one
    lattice share its Gauss rule and 1D factors, or else on a new lattice.
    A given lattice of another dimension or cell count than ``n`` and ``M``
    raises ParameterError.
    """
    if omega is None:
        omega = build_omega(n, M)
    elif (omega.n, omega.cells_per_dim) != (n, M):
        raise ParameterError(f"lattice has n = {omega.n}, M = {omega.cells_per_dim}; "
                             f"the run needs n = {n}, M = {M}")
    if Y is None:
        # the n_free of the mesh built below: M axis nodes per interior vertex
        Y = select_truncation(max(omega.interior_idx.size * M, 8), s, n)
    params = make_params(s, gamma)
    if zeta is None:
        zeta = default_zeta(params.alpha)
    mesh = build_cylinder(omega, graded_axis(M, Y, zeta))
    grid = TimeGrid(T=T, K=K)
    return mesh, params, grid


def manufactured_data(man, mu: float) -> ProblemData:
    return ProblemData(forcing=man.forcing, desired_state=man.desired_state,
                       initial=man.initial, bounds=ControlBounds(man.a, man.b, mu))


# -- error norms ---------------------------------------------------------------

def l2Q_error(discrete: np.ndarray, exact, grid: TimeGrid, omega: OmegaMesh,
              kind: str = "state", quad=None) -> float:
    """l2(L2) distance between a discrete field and an exact evaluable.

    ``kind='state'``: discrete is the (K+1, n_interior) trace history of the
    piecewise-bilinear state. ``kind='control'``: discrete is the
    (K, n_cells) piecewise-constant field. The exact function is sampled at
    the right endpoints t_k, once per block of steps; space is integrated
    by the 3-point Gauss rule: ``quad`` when given, else the lattice's
    (:func:`~fracopt.assembly.omega_quadrature`, built once per lattice).
    """
    if quad is None:
        quad = omega_quadrature(omega)
    K = grid.K
    if kind == "state":
        interior = omega.interior_idx
        if discrete.shape != (K + 1, interior.size):
            raise ParameterError(
                f"state history must have shape {(K + 1, interior.size)}, got {discrete.shape}")
        values = lambda steps: quad.values(discrete[1:][steps])
    elif kind == "control":
        if discrete.shape != (K, omega.n_cells):
            raise ParameterError(
                f"control must have shape {(K, omega.n_cells)}, got {discrete.shape}")
        # indexing reads the read-only cell_of in place; np.take would copy it
        values = lambda steps: discrete[steps][:, quad.cell_of]
    else:
        raise ParameterError(f"unknown field kind '{kind}'")
    acc = 0.0
    for steps, _, t1 in step_blocks(grid, quad.points.shape[0]):
        diff = values(steps) - evaluate_data(exact, quad.points, t1[:, None],
                                             "exact solution")
        acc += grid.tau * float(np.sum(np.square(diff, out=diff) @ quad.weights))
    return math.sqrt(acc)


def fit_rate(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ParameterError(f"need at least 3 points for a rate fit, got {xs.size}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ParameterError("rate fit needs strictly positive values")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# -- reports -------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    case: str
    rows: list = field(default_factory=list)
    slopes: list = field(default_factory=list)

    def fit(self, quantity: str, x_key: str, s: float, gamma: float, last: int):
        rows = [r for r in self.rows
                if r["s"] == s
                and isinstance(r.get(quantity), (int, float))
                and r[quantity] == r[quantity]
                and r.get("converged", True)]
        if len(rows) < 3:
            raise ParameterError(f"need >= 3 converged rows to fit {quantity}, have {len(rows)}")
        rows = sorted(rows, key=lambda r: r[x_key])
        use = rows[-last:]
        slope = fit_rate([r[x_key] for r in use], [r[quantity] for r in use])
        self.slopes.append({"case": self.case, "s": s, "gamma": gamma,
                            "quantity": quantity, "slope": slope,
                            "levels_used": len(use)})
        return slope


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(rows, columns, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])


def write_report_csv(rows, path):
    _write_csv(rows, REPORT_COLUMNS, path)


# -- experiment drivers --------------------------------------------------------

def _control_solve(case: str, s: float, config: ExperimentConfig, M: int, K: int):
    """Solve the manufactured control problem at one (s, M, K); ``case`` labels its row."""
    man = manufactured_problem(s, config.mu, config.T, gamma=config.gamma, n=config.n)
    mesh, params, grid = build_setup(config.n, M, s, config.gamma, config.T, K,
                                     zeta=config.zeta, Y=config.Y)
    data = manufactured_data(man, config.mu)
    prob = ReducedProblem(data, params, mesh, grid)
    result = solve_control_problem(data, params, mesh, grid, tol=config.tol,
                                   max_iter=config.max_iter, prob=prob)
    err_z = l2Q_error(result.control.values, man.control, grid, mesh.omega, kind="control")
    err_u = l2Q_error(result.state.traces, man.state, grid, mesh.omega, kind="state")
    p_means = project_trace(result.adjoint.traces[:-1], prob.system)
    row = {"case": case, "s": s, "gamma": config.gamma, "M": M, "K": K,
           "N": mesh.n_free, "zeta": mesh.axis.zeta, "Y": mesh.axis.Y,
           "err_control": err_z, "err_state": err_u, "cost": result.cost,
           "iters": result.iterations, "pg_norm": result.pg_norm,
           "converged": result.converged,
           "vi": vi_residual(result.control, p_means)}
    return row, result, prob


def run_convergence_space(config: ExperimentConfig) -> ConvergenceReport:
    """Control/state errors against N at fixed K on the manufactured problem."""
    report = ConvergenceReport(case="conv-space")
    for s in config.s_list:
        for M in config.M_list:
            report.rows.append(_control_solve("conv-space", s, config, M, config.K)[0])
        for quantity in ("err_control", "err_state"):
            report.fit(quantity, "N", s=s, gamma=config.gamma, last=config.fit_last)
    return report


def run_convergence_time(config: ExperimentConfig) -> ConvergenceReport:
    """Control error against K at fixed M on the manufactured problem.

    At desk-scale M the spatial part of the error against the exact control
    dwarfs the temporal one for every affordable K, so the temporal
    component is isolated the same way the truncation study isolates the
    height: each run is measured against a reference solve with
    ``REF_FACTOR * max(K_list)`` steps on the same mesh. The exact-solution
    errors are still recorded (err_state column) for reference.
    """
    report = ConvergenceReport(case="conv-time")
    for s in config.s_list:
        K_ref = REF_FACTOR * max(config.K_list)
        _, ref_result, _ = _control_solve("conv-time", s, config, config.M, K_ref)
        for K in config.K_list:
            row, result, _ = _control_solve("conv-time", s, config, config.M, K)
            # expand the coarse piecewise-constant control to the fine grid
            rep = K_ref // K
            fine = np.repeat(result.control.values, rep, axis=0)
            row["err_control"] = control_norm(fine - ref_result.control.values,
                                              ref_result.control.grid, result.control.omega)
            report.rows.append(row)
        report.fit("err_control", "K", s=s, gamma=config.gamma,
                   last=max(config.fit_last, len(config.K_list)))
    return report


def run_truncation_study(config: ExperimentConfig) -> ConvergenceReport:
    """Decay of the trace differences as the cylinder height grows.

    Solves the homogeneous problem with single-mode initial datum for each
    distinct height, every height on one lattice; the largest serves as
    reference and its row is excluded from the fitted exponential slope.
    The config has checked that there are at least 4 distinct heights.
    """
    report = ConvergenceReport(case="truncation")
    s = config.s_list[0]
    n, M, K = config.n, config.M, config.K
    heights = sorted(set(config.Y_list))
    f = lambda x, t: np.zeros(np.atleast_2d(x).shape[0])
    data = ProblemData(forcing=f, desired_state=f, initial=mode(*([1] * n)),
                       bounds=ControlBounds(-1.0, 1.0, 1.0))

    omega = build_omega(n, M)
    runs = {}
    for Y in heights:
        mesh, params, grid = build_setup(n, M, s, config.gamma, config.T, K,
                                         zeta=config.zeta, Y=Y, omega=omega)
        system = CylinderSystem(mesh, params, grid)
        runs[Y] = (solve_state(system, data), system)
    ref = runs[heights[-1]][0]
    for Y in heights[:-1]:
        traj, system = runs[Y]
        diff = traj.traces - ref.traces
        sq = np.einsum("ki,ki->k", diff, system.mass(diff))
        err = math.sqrt(grid.tau * float(np.sum(sq[1:])))
        report.rows.append({"case": "truncation", "s": s, "gamma": config.gamma,
                            "M": M, "K": K, "N": system.mesh.n_free,
                            "zeta": system.mesh.axis.zeta, "Y": Y, "err_state": err})
    ys = np.array([r["err_state"] for r in report.rows])
    Ys = np.array([r["Y"] for r in report.rows])
    slope = float(np.polyfit(Ys, np.log(ys), 1)[0])
    report.slopes.append({"case": "truncation", "s": s, "gamma": config.gamma,
                          "quantity": "err_state_exp", "slope": slope,
                          "levels_used": len(ys)})
    return report


def run_solve_state(config: ExperimentConfig) -> ConvergenceReport:
    """Single state solve with the control frozen at the projected exact one."""
    report = ConvergenceReport(case="solve-state")
    s = config.s_list[0]
    man = manufactured_problem(s, config.mu, config.T, gamma=config.gamma, n=config.n)
    mesh, params, grid = build_setup(config.n, config.M, s, config.gamma,
                                     config.T, config.K, zeta=config.zeta, Y=config.Y)
    data = manufactured_data(man, config.mu)
    system = CylinderSystem(mesh, params, grid)
    zvals = np.clip(l2_project(man.control, grid, mesh.omega), man.a, man.b)
    traj = solve_state(system, data, control=zvals)
    err_u = l2Q_error(traj.traces, man.state, grid, mesh.omega)
    report.rows.append({"case": "solve-state", "s": s, "gamma": config.gamma,
                        "M": config.M, "K": config.K, "N": mesh.n_free,
                        "zeta": mesh.axis.zeta, "Y": mesh.axis.Y, "err_state": err_u})
    return report


def run_solve_control(config: ExperimentConfig) -> ConvergenceReport:
    report = ConvergenceReport(case="solve-control")
    for s in config.s_list:
        report.rows.append(_control_solve("solve-control", s, config, config.M, config.K)[0])
    return report


def run_oracle_check(config: ExperimentConfig) -> ConvergenceReport:
    """Identity checks of the fractional calculus and the manufactured optimum."""
    report = ConvergenceReport(case="oracle-check")
    gamma = config.gamma if config.gamma < 1.0 else 0.5
    K_fine = 10_000
    times = np.linspace(0.0, config.T, K_fine + 1)

    checks = []
    res = fractional_ibp_check(times, np.ones_like(times), gamma, times)
    checks.append(("ibp-linear-const", res))
    res = fractional_ibp_check(times, times, gamma, times)
    checks.append(("ibp-linear-linear", res))

    # manufactured optimality residuals per mode (state and adjoint equations)
    for s in config.s_list:
        man = manufactured_problem(s, config.mu, config.T, gamma=config.gamma, n=config.n)
        lam_s = man.lam ** s
        ts = np.linspace(0.05, config.T, 7)
        pts = np.full((1, config.n), 0.35)
        shape = float(mode(*([2] * config.n))(pts, normalized=False)[0])
        res_state = res_adj = 0.0
        for t in ts:
            if config.gamma >= 1.0:
                du = math.exp(t)
                dp = (1.0 - (man.T - t)) * math.exp(t) * (-man.mu)
            else:
                du = float(caputo_left(np.exp, config.gamma, t))
                dp = -man.mu * float(caputo_right(
                    lambda r: (man.T - r - 1.0) * np.exp(r), config.gamma, t, man.T))
            u = float(man.state(pts, t)[0])
            p = float(man.adjoint(pts, t)[0])
            z = float(man.control(pts, t)[0])
            f = float(man.forcing(pts, t)[0])
            ud = float(man.desired_state(pts, t)[0])
            res_state = max(res_state, abs(du * shape + lam_s * u - f - z))
            res_adj = max(res_adj, abs(dp * shape + lam_s * p - (u - ud)))
        checks.append((f"manufactured-state-residual-s{s}", res_state))
        checks.append((f"manufactured-adjoint-residual-s{s}", res_adj))

    # spectral self-convergence of the fine L1 reference
    md = mode(*([1] * config.n))
    coarse = spectral_solve_state([md], [1.0], None, gamma, 0.5, config.T, K_fine=256)
    fine = spectral_solve_state([md], [1.0], None, gamma, 0.5, config.T, K_fine=512)
    checks.append(("spectral-self-convergence-diff",
                   abs(coarse.final[0] - fine.final[0])))

    for name, value in checks:
        report.rows.append({"case": name, "s": config.s_list[0], "gamma": gamma,
                            "K": K_fine, "err_state": value})
    return report


RUNNERS = {
    "solve-state": run_solve_state,
    "solve-control": run_solve_control,
    "conv-space": run_convergence_space,
    "conv-time": run_convergence_time,
    "truncation": run_truncation_study,
    "oracle-check": run_oracle_check,
}


def run_experiment(config: ExperimentConfig) -> ConvergenceReport:
    if config.kind not in RUNNERS:
        raise ParameterError(f"unknown experiment kind '{config.kind}'")
    report = RUNNERS[config.kind](config)
    out = Path(config.out)
    write_report_csv(report.rows, out / "report.csv")
    if report.slopes:
        _write_csv(report.slopes, RATE_COLUMNS, out / "rates.csv")
    return report
