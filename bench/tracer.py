"""Spans around fracopt's public calls, recorded from outside the library.

Each target is a function looked up in a module namespace, or a method on a
class, and is replaced by a wrapper for the duration of one pass. The
wrapper records ``[name, start, end, parent]`` in memory, where ``parent``
is the index of the span that was open when the call started (-1 at the
top). Nothing is written until the benchmark ends. Wrappers return exactly
what the wrapped call returns, so traced outputs equal untraced ones.
"""
from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, "module" or "module:Class", attribute). A function is patched
# in every namespace that calls it, since ``from .x import f`` copies the name.
ALL_TARGETS = [
    ("mesh.build", "fracopt.harness", "build_omega"),
    ("mesh.build", "fracopt.harness", "graded_axis"),
    ("mesh.build", "fracopt.harness", "build_cylinder"),
    ("assembly.stiffness", "fracopt.evolution", "assemble_stiffness"),
    ("assembly.quadrature", "fracopt.evolution", "omega_quadrature"),
    ("assembly.time_average", "fracopt.evolution", "time_average"),
    ("assembly.time_average", "fracopt.control", "time_average"),
    ("evolution.system_setup", "fracopt.evolution:CylinderSystem", "__init__"),
    ("evolution.initial_field", "fracopt.evolution:CylinderSystem", "initial_field"),
    ("evolution.forcing_loads", "fracopt.evolution", "forcing_loads"),
    ("evolution.forcing_loads", "fracopt.control", "forcing_loads"),
    ("evolution.solve_state", "fracopt.harness", "solve_state"),
    ("evolution.state_march", "fracopt.evolution", "state_march"),
    ("evolution.state_march", "fracopt.control", "state_march"),
    ("evolution.adjoint_march", "fracopt.control", "adjoint_march"),
    ("control.problem_setup", "fracopt.control:ReducedProblem", "__init__"),
    ("control.eval", "fracopt.control:ReducedProblem", "cost_and_gradient"),
    ("control.bfgs", "fracopt.control", "projected_bfgs"),
    ("control.solve", "fracopt.control", "solve_control_problem"),
    ("oracle.manufactured_problem", "fracopt.oracle", "manufactured_problem"),
    ("harness.build_setup", "fracopt.harness", "build_setup"),
    ("harness.error_norms", "fracopt.harness", "l2Q_error"),
    ("harness.truncation_study", "fracopt.harness", "run_truncation_study"),
]


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent]``."""

    def __init__(self, targets=()):
        self.targets = list(targets)
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = perf_counter()
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, owner, attr in self.targets:
                mod_name, _, cls_name = owner.partition(":")
                obj = importlib.import_module(mod_name)
                if cls_name:
                    obj = getattr(obj, cls_name)
                original = obj.__dict__[attr]
                saved.append((obj, attr, original))
                setattr(obj, attr, self.wrap(name, original))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    # -- queries ---------------------------------------------------------------

    def total(self, name) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def count(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def self_total(self, name) -> float:
        own = self.self_times()
        return sum(t for t, s in zip(own, self.spans) if s[0] == name)

    def count_under(self, name, parent_name) -> int:
        return sum(1 for s in self.spans
                   if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent_name)

    def total_under(self, name, parent_name) -> float:
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent_name)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        own = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for t, s in zip(own, self.spans):
            row = out[s[0]]
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += t
        return dict(out)
