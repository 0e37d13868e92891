"""No library module imports an unused name, leaves a parameter unread, branches on n or loads scipy.

Each ``src/fracopt`` module except the package's ``__init__.py`` (which
imports to re-export) is parsed with ``ast``; every name bound by an import
must be read somewhere in the module. Every parameter of every ``def`` in
``src/fracopt`` must be read in the function's body. No module compares the
dimension ``n`` (a name or an attribute ``.n``) for (in)equality or
membership with a constant: one tensor code path serves every n. No
module imports scipy when it is itself imported, and a control solve and a
truncation study run in a fresh interpreter without loading any of scipy.
No module but ``assembly.py``, whose sparse oracles number the cylinder's
nodes, reads an attribute of that numbering: the solve path is the trace.
Every member of a library module (a top-level def or class, a method or a
property) is read by name in ``src/fracopt``, ``demos/`` or ``bench/``,
unless ``TEST_ONLY_MEMBERS`` names it and what keeps it.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fracopt"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` and never read in it."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .assembly import omega_matrices, step_blocks\nx = np.ones(step_blocks)\n")
    assert unused_imports(source) == ["omega_matrices", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_parameters(source: str) -> list:
    """``"function(parameter)"`` for each parameter of a def in ``source`` never read in its body.

    ``self``, ``cls`` and names starting with ``_`` are skipped, and so are
    lambdas: data callables take ``(x, t)`` whether or not they read ``t``.
    A read inside a nested function counts for the enclosing one.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}({p})" for p in params
                  if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return found


def test_detector_finds_unused_parameters():
    source = ("def f(a, b, *args, c=1, **kw):\n    b = 0\n    return a + c + len(kw)\n"
              "class C:\n    def m(self, x, _y):\n        def inner(z):\n"
              "            return x\n        return inner\n"
              "g = lambda x, t: x\n")
    assert unused_parameters(source) == ["f(b)", "f(args)", "inner(z)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_functions_read_every_parameter(path):
    assert unused_parameters(path.read_text()) == []


def branches_on_n(source: str) -> list:
    """Line numbers of the ==, !=, in and not in comparisons of ``n`` or ``x.n`` with constants.

    A constant is a literal, or a tuple, list or set of literals; either
    side of the comparison may hold ``n``.
    """
    def is_n(node):
        return ((isinstance(node, ast.Name) and node.id == "n")
                or (isinstance(node, ast.Attribute) and node.attr == "n"))

    def is_constant(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return all(isinstance(e, ast.Constant) for e in node.elts)
        return isinstance(node, ast.Constant)

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + node.comparators
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if (isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                    and (is_n(left) and is_constant(right) or is_constant(left) and is_n(right))):
                found.append(node.lineno)
    return found


def test_detector_finds_branches_on_n():
    source = ("if n == 1:\n    pass\n"
              "if omega.n != 2 and mesh.omega.n in (1, 2):\n    pass\n"
              "ok = 3 == self.n or n not in [1, 2] or 0 < n == 2\n"
              "fine = n < 1 or m == 1 or n == k or x.n >= 2 or n in sizes or n2 == 2\n")
    assert branches_on_n(source) == [1, 3, 3, 5, 5, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_does_not_branch_on_n(path):
    assert branches_on_n(path.read_text()) == []


def import_time_scipy(source: str) -> list:
    """Line numbers of the scipy imports in ``source`` that run when it is imported.

    An import in a function body runs only when the function is called;
    any other, at module level or inside a class, ``if`` or ``try``, counts.
    """
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            else:
                names = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return found


def test_detector_finds_import_time_scipy():
    source = ("import numpy as np\nimport scipy\nfrom scipy.special import gamma\n"
              "if np:\n    import scipy.sparse as sp\n"
              "def f():\n    import scipy.sparse as sp\n    return sp\n"
              "class C:\n    from scipy import linalg\n"
              "from . import scipy_free\nimport scipyx\n")
    assert import_time_scipy(source) == [2, 3, 5, 10]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_no_scipy_at_import_time(path):
    assert import_time_scipy(path.read_text()) == []


NUMBERING_ATTRIBUTES = {"free_idx", "free_pos", "trace_free_pos", "trace_global",
                        "dirichlet_mask", "node_index", "n_nodes", "tpos"}


def numbering_reads(source: str) -> list:
    """``"line:attribute"`` for each attribute of the free-node numbering read in ``source``."""
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and node.attr in NUMBERING_ATTRIBUTES]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.lineno}:{node.attr}" for node in found]


def test_detector_finds_numbering_reads():
    source = ("v = system.initial_field(u0)[system.tpos]\n"
              "free = mesh.free_idx\nk = mesh.node_index(1, 0) + mesh.n_nodes\n"
              "fine = mesh.n_free + free_idx + tpos + system.n_interior\n"
              "self.free_pos = None\nmesh.omega.trace_global[0] = 1\n")
    assert numbering_reads(source) == ["1:tpos", "2:free_idx", "3:node_index", "3:n_nodes",
                                       "5:free_pos", "6:trace_global"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "assembly.py"],
                         ids=lambda p: p.name)
def test_module_reads_no_free_node_numbering(path):
    assert numbering_reads(path.read_text()) == []


def unread_members(defining: dict, reading: list) -> list:
    """``"module:member"`` for each member of ``defining`` that no source in ``reading`` reads.

    ``defining`` maps module names to sources; its members are the
    top-level ``def``s and classes and the methods and properties of each
    class, dunder methods excepted. A member counts as read when its name
    is loaded as an ``ast.Name`` or an ``ast.Attribute`` anywhere in a
    source of ``reading``. The match is by name only: a member that shares
    its name with something else that is read (``ReducedProblem.cost`` and
    ``OptimizeResult.cost``, say) is not caught.
    """
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if not isinstance(node, kinds):
                continue
            members = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{m.name}", m.name) for m in node.body
                            if isinstance(m, kinds) and not m.name.startswith("__")]
            found += [f"{module}:{qual}" for qual, name in members if name not in read]
    return sorted(found)


def test_detector_finds_unread_members():
    lib = ("def used():\n    return helper()\ndef helper():\n    pass\ndef orphan():\n    pass\n"
           "class Box:\n    def __init__(self):\n        self.size = 1\n"
           "    @property\n    def size(self):\n        return 1\n"
           "    def open(self):\n        pass\n    def shut(self):\n        pass\n"
           "    class Lid:\n        pass\n")
    caller = "import lib\nlib.used()\nbox = lib.Box()\nbox.open()\norphan = 2\n"
    assert unread_members({"lib": lib}, [lib, caller]) == [
        "lib:Box.Lid", "lib:Box.shut", "lib:Box.size", "lib:orphan"]


# Members that nothing in src/, demos/ or bench/ reads, and what keeps each.
TEST_ONLY_MEMBERS = {
    "evolution:CylinderSystem.A_free": (
        "the sparse oracles' assembled stiffness; it is the one caller of "
        "fracopt.evolution.assemble_stiffness, a span target of bench/tracer.py"),
}


def test_src_keeps_no_member_that_only_tests_read():
    readers = [p.read_text() for p in MODULES]
    readers += [p.read_text() for folder in ("demos", "bench")
                for p in sorted((ROOT / folder).glob("*.py"))]
    defining = {p.stem: p.read_text() for p in MODULES}
    assert unread_members(defining, readers) == sorted(TEST_ONLY_MEMBERS)


SOLVE_WITHOUT_SCIPY = """
import json, sys
from fracopt.cli import main
codes = [main(["solve-control", "--s", "0.4", "--M", "4", "--K", "8", "--gamma", "0.5",
               "--out", "control"]),
         main(["truncation", "--M", "4", "--K", "4", "--out", "truncation"])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import fracopt
mesh = fracopt.build_cylinder(fracopt.build_omega(2, 3), fracopt.graded_axis(3, 1.5, 1.2))
stiff = fracopt.assemble_stiffness(mesh, fracopt.make_params(0.4, 1.0))
print(json.dumps({"codes": codes, "loaded": loaded, "format": stiff.format,
                  "shape": list(stiff.shape), "free": int(mesh.n_free)}))
"""


def test_solve_path_loads_no_scipy(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SOLVE_WITHOUT_SCIPY], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr[-4000:]
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0]
    assert got["loaded"] == []
    for case in ("control", "truncation"):
        assert (tmp_path / case / "report.csv").is_file()
    # the assembled sparse oracles still work, importing scipy.sparse on demand
    assert got["format"] == "csr" and got["shape"] == [got["free"]] * 2
