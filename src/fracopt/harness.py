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

from .assembly import at_points, kron_apply, omega_quadrature, step_blocks
from .control import (ReducedProblem, check_stopping, control_norm, l2_project,
                      project_trace, solve_control_problem, vi_residual)
from .evolution import (CylinderSystem, lattice_factors, modal_projection, solve_state,
                        state_trajectory)
from .mesh import (GradedAxis, OmegaMesh, build_cylinder, build_omega, default_zeta,
                   graded_axis, grading_underflows)
from .oracle import (caputo_adjoint_profile, caputo_state_profile, fractional_ibp_check,
                     manufactured_problem, mode, spectral_solve_state)
from .problem import (ControlBounds, FractionalParams, ParameterError, ProblemData,
                      TimeGrid, check_count, select_truncation)

REPORT_COLUMNS = ["case", "s", "gamma", "M", "K", "N", "zeta", "Y",
                  "err_control", "err_state", "cost", "iters", "pg_norm"]
RATE_COLUMNS = ["case", "s", "gamma", "quantity", "slope", "levels_used"]
# conv-time measures every K against one solve with REF_FACTOR * max(K_list) steps
REF_FACTOR = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one run; frozen, so that ``__post_init__`` checks every config once.

    Every value is checked at construction, whatever the kind, so a study
    refuses a bad level before it solves a good one.
    """

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
        if self.kind not in RUNNERS:
            raise ParameterError(f"unknown experiment kind '{self.kind}'")
        for name in ("s_list", "K_list", "M_list", "Y_list"):
            if not getattr(self, name):
                raise ParameterError(f"{name} must be nonempty")
        # every value, whatever the kind, by the check of the type that reads it
        for K in (self.K, *self.K_list):
            TimeGrid(self.T, K)
        ControlBounds(0.0, 0.0, self.mu)
        check_count(self.n, "dimension n")
        heights = self.Y_list if self.Y is None else (self.Y, *self.Y_list)
        for s in self.s_list:
            alpha = FractionalParams(s, self.gamma).alpha
            zeta = default_zeta(alpha) if self.zeta is None else self.zeta    # build_setup's
            for M in (self.M, *self.M_list):
                # GradedAxis refuses this too, by the same test; here the message names s and --zeta
                check_count(M, "axis intervals M")
                if grading_underflows(M, zeta):
                    raise ParameterError(f"the graded axis underflows at s = {s}, M = {M}, zeta = "
                                         f"{zeta:.6g}: (1/M)^(2 zeta) is below the smallest "
                                         f"normal double; set a smaller grading exponent (--zeta)")
                GradedAxis(M, heights, zeta)
        check_stopping(self.tol, self.max_iter)
        if self.fit_last < 3:
            raise ParameterError(f"a slope needs >= 3 levels, got fit_last = {self.fit_last}")
        # every K of conv-time divides the step count of its reference solve
        K_ref = REF_FACTOR * max(self.K_list)
        bad = [K for K in self.K_list if K_ref % K]
        if self.kind == "conv-time" and bad:
            raise ParameterError(f"step counts {bad} do not divide the reference "
                                 f"{REF_FACTOR} * max(K_list) = {K_ref}")
        # a rate study fits its slope through the rows of its levels
        levels = {"conv-space": ("M", self.M_list), "conv-time": ("K", self.K_list)}
        if self.kind in levels and len(levels[self.kind][1]) < 3:
            name, values = levels[self.kind]
            raise ParameterError(f"{self.kind} needs >= 3 levels of {name} to fit a rate, "
                                 f"got {name} = {values}")
        # the truncation fit needs >= 3 rows below the tallest height
        if self.kind == "truncation" and len(set(self.Y_list)) < 4:
            raise ParameterError(f"truncation needs at least 4 distinct heights, "
                                 f"got {tuple(self.Y_list)}")


def _parse_list(text, cast=float):
    return tuple(cast(tok) for tok in text.replace(" ", "").split(",") if tok)


def _field(name, cast):
    return lambda text: {name: cast(text)}


def _levels(name, cast=int):
    """``K``, ``M`` or ``Y``: the list of levels, and the single level from its first entry."""
    def parse(text):
        levels = _parse_list(text, cast)
        return {f"{name}_list": levels, name: levels[0]}
    return parse


# the settings that take a comma list, and the kinds that read every entry of one
LISTS = {"s": ("solve-control", "conv-space", "conv-time", "oracle-check"),
         "M": ("conv-space",), "K": ("conv-time",), "Y": ("truncation",)}

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
    "Y": ("cylinder height (comma list for truncation)", _levels("Y", float)),
    "tol": ("projected-gradient tolerance", _field("tol", float)),
    "n": ("spatial dimension n >= 1 of Omega = (0,1)^n", _field("n", int)),
    "max_iter": ("iteration cap of the optimizer", _field("max_iter", int)),
    "fit_last": ("number of trailing levels for slope fits", _field("fit_last", int)),
}


def apply_settings(config: ExperimentConfig, *sources) -> ExperimentConfig:
    """``config`` with the entries of every source applied, a later source over an earlier.

    A source is a pair (entries, where): ``entries`` maps setting names in
    any case to their text, and ``where`` names the source in errors, e.g.
    "in exp.cfg" or "on the command line". An unknown name, or a value that
    does not parse, raises ParameterError naming it, its value and its
    source. The settings of all sources are checked once, together: a
    result that ``ExperimentConfig.__post_init__`` refuses raises its error
    with the sources that gave settings added. So does a list for a setting
    that the kind reads once (:data:`LISTS`), naming the kind and the source.
    """
    names = {name.lower(): name for name in SETTINGS}
    updates, lists = {}, {}
    for entries, where in sources:
        unknown = [key for key in entries if key.lower() not in names]
        if unknown:
            raise ParameterError(f"unknown setting(s) {', '.join(map(repr, unknown))} {where}")
        for key, value in entries.items():
            name = names[key.lower()]
            try:
                update = SETTINGS[name][1](value)
            except (ValueError, IndexError):
                raise ParameterError(f"setting {key!r} has invalid value {value!r} "
                                     f"{where}") from None
            updates.update(update)
            if name in LISTS:
                lists[name] = (key, value, where, len(update[f"{name}_list"]))
    try:
        config = replace(config, **updates)
    except ParameterError as exc:
        given = " and ".join(where for entries, where in sources if entries)
        raise ParameterError(f"{exc} {given}") from None
    for name, (key, value, where, count) in lists.items():
        if count > 1 and config.kind not in LISTS[name]:
            raise ParameterError(f"setting {key!r} = {value!r} is a list of {count}, but "
                                 f"{config.kind} reads one value (a list is read only by "
                                 f"{', '.join(LISTS[name])}) {where}")
    return config


def read_config(path) -> dict:
    """The entries of a flat key=value config with [section] headers, unchecked.

    Its keys are the names in :data:`SETTINGS`, in any case: the CLI flag
    names (``max_iter`` and ``fit_last`` with underscores) plus ``kind``.
    A value means what it means after its flag, lists included (``K =
    8, 16`` as ``--K 8,16``); :func:`apply_settings` parses and checks them,
    so an unknown key, or a value that does not parse, raises
    ParameterError naming it, its value and the file. A file that is not in
    that format (no section header, a repeated key, a line that is not
    ``key = value``) raises it here, naming the file and the fault, and so
    does a setting given twice, in any case and sections ([DEFAULT] too),
    naming both.
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
    return merged


def build_setup(n: int, M: int, s: float, gamma: float, T: float, K: int,
                zeta: float | None = None, Y=None):
    """Mesh, params and grid for one run (Y and zeta default per theory).

    A sequence of heights Y makes a cylinder family (:func:`~fracopt.mesh.graded_axis`).
    """
    omega = build_omega(n, M)
    if Y is None:
        # the n_free of the mesh built below: M axis nodes per interior vertex
        Y = select_truncation(max(omega.interior_idx.size * M, 8), s, n)
    params = FractionalParams(s, gamma)
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
    the right endpoints t_k; space is integrated by the lattice's 3-point Gauss
    rule (:func:`~fracopt.assembly.omega_quadrature`); a ``quad`` given must be a
    rule of that lattice (else ParameterError). A state error is sqrt(tau
    (|Phi^{-1} tr - b_hat|^2 + c)), with (b_hat, c) the exact state's projection at
    t_1..t_K (:func:`~fracopt.evolution.modal_projection`): no point value of the
    trace is formed, and no term cancels. A control
    error evaluates the exact function once per block of steps (a separable
    one's spatial factors once, :func:`~fracopt.assembly.at_points`).
    """
    if quad is None:
        quad = omega_quadrature(omega)
    elif (quad.n, quad.weights1.size // 3) != (omega.n, omega.cells_per_dim):
        raise ParameterError(f"quad is a rule on the lattice n = {quad.n}, M = "
                             f"{quad.weights1.size // 3}, not on omega's n = {omega.n}, "
                             f"M = {omega.cells_per_dim}")
    K = grid.K
    if kind == "state":
        interior = omega.interior_idx
        if discrete.shape != (K + 1, interior.size):
            raise ParameterError(
                f"state history must have shape {(K + 1, interior.size)}, got {discrete.shape}")
        b_hat, c = modal_projection(exact, grid, omega, "exact solution", ends=True)
        resid = kron_apply(omega.kept(lattice_factors).phi_inv, discrete[1:], omega.n)
        resid -= b_hat
        return math.sqrt(grid.tau * (float(np.vdot(resid, resid)) + c))
    if kind != "control":
        raise ParameterError(f"unknown field kind '{kind}'")
    if discrete.shape != (K, omega.n_cells):
        raise ParameterError(
            f"control must have shape {(K, omega.n_cells)}, got {discrete.shape}")
    exact_at = at_points(exact, quad.points, "exact solution")
    acc = 0.0
    for steps, _, t1 in step_blocks(grid, quad.points.shape[0]):
        # indexing reads the read-only cell_of in place; np.take would copy it
        diff = discrete[steps][:, quad.cell_of]
        diff -= exact_at(t1[:, None])
        acc += grid.tau * float(np.sum(np.square(diff, out=diff) @ quad.weights))
    return math.sqrt(acc)


def _fit_points(xs, ys):
    """xs and ys as arrays: at least 3 points, all finite and > 0, else ParameterError."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ParameterError(f"need at least 3 points for a rate fit, got {xs.size}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ParameterError(f"rate fit needs finite values, got {xs} and {ys}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ParameterError(f"rate fit needs strictly positive values, got {xs} and {ys}")
    return xs, ys


def fit_rate(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs), all finite and > 0 (else ParameterError)."""
    xs, ys = _fit_points(xs, ys)
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

def _check_kind(config: ExperimentConfig, kind: str) -> None:
    """A runner takes only a config of its own kind, the one whose levels were checked for it."""
    if config.kind != kind:
        raise ParameterError(f"the {kind} runner needs a config of kind '{kind}', "
                             f"got '{config.kind}'")


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
    _check_kind(config, "conv-space")
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
    _check_kind(config, "conv-time")
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

    Solves the homogeneous problem with single-mode initial datum once, on
    one cylinder family of all distinct heights (at least 4, as the config
    has checked): one axis elimination and one march. The tallest is the
    reference, whose row the fitted exponential slope excludes. A row's
    error is the l2(L2) norm of the trace difference, read by Parseval
    (Phi^T M_int Phi = I) from the modal coefficients w_hat of the march:
    sqrt(tau sum_k |w_hat_k(Y) - w_hat_k(Y_max)|^2), with no nodal trace formed.
    Forcing and desired state are the zero datum (None), so no Gauss rule is built.
    """
    _check_kind(config, "truncation")
    report = ConvergenceReport(case="truncation")
    s, n, M, K = config.s_list[0], config.n, config.M, config.K
    heights = tuple(sorted(set(config.Y_list)))
    data = ProblemData(forcing=None, desired_state=None, initial=mode(*([1] * n)),
                       bounds=ControlBounds(-1.0, 1.0, 1.0))
    system = CylinderSystem(*build_setup(n, M, s, config.gamma, config.T, K,
                                         zeta=config.zeta, Y=heights))
    w_hat = solve_state(system, data)
    for i, Y in enumerate(heights[:-1]):
        diff = w_hat[:, i] - w_hat[:, -1]
        err = math.sqrt(system.grid.tau * float(np.vdot(diff, diff)))
        report.rows.append({"case": "truncation", "s": s, "gamma": config.gamma,
                            "M": M, "K": K, "N": system.mesh.n_free,
                            "zeta": system.mesh.axis.zeta, "Y": Y, "err_state": err})
    xs, ys = _fit_points(heights[:-1], [r["err_state"] for r in report.rows])
    slope = float(np.polyfit(xs, np.log(ys), 1)[0])
    report.slopes.append({"case": "truncation", "s": s, "gamma": config.gamma,
                          "quantity": "err_state_exp", "slope": slope,
                          "levels_used": len(ys)})
    return report


def run_solve_state(config: ExperimentConfig) -> ConvergenceReport:
    """Single state solve with the control frozen at the projected exact one."""
    _check_kind(config, "solve-state")
    report = ConvergenceReport(case="solve-state")
    s = config.s_list[0]
    man = manufactured_problem(s, config.mu, config.T, gamma=config.gamma, n=config.n)
    mesh, params, grid = build_setup(config.n, config.M, s, config.gamma,
                                     config.T, config.K, zeta=config.zeta, Y=config.Y)
    data = manufactured_data(man, config.mu)
    system = CylinderSystem(mesh, params, grid)
    zvals = np.clip(l2_project(man.control, grid, mesh.omega), man.a, man.b)
    traj = state_trajectory(system, system.initial_field(data.initial),
                            solve_state(system, data, control=zvals))
    err_u = l2Q_error(traj.traces, man.state, grid, mesh.omega)
    report.rows.append({"case": "solve-state", "s": s, "gamma": config.gamma,
                        "M": config.M, "K": config.K, "N": mesh.n_free,
                        "zeta": mesh.axis.zeta, "Y": mesh.axis.Y, "err_state": err_u})
    return report


def run_solve_control(config: ExperimentConfig) -> ConvergenceReport:
    _check_kind(config, "solve-control")
    report = ConvergenceReport(case="solve-control")
    for s in config.s_list:
        report.rows.append(_control_solve("solve-control", s, config, config.M, config.K)[0])
    return report


def run_oracle_check(config: ExperimentConfig) -> ConvergenceReport:
    """Identity checks of the fractional calculus and the manufactured optimum."""
    _check_kind(config, "oracle-check")
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
            du = float(caputo_state_profile(t, config.gamma))
            dp = -man.mu * float(caputo_adjoint_profile(t, config.gamma, man.T))
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
    checks.append(("spectral-self-convergence-diff", abs(coarse[-1, 0] - fine[-1, 0])))

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
    report = RUNNERS[config.kind](config)
    out = Path(config.out)
    write_report_csv(report.rows, out / "report.csv")
    if report.slopes:
        _write_csv(report.slopes, RATE_COLUMNS, out / "rates.csv")
    return report
