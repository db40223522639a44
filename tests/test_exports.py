import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dgsym

MODULES = sorted(m.name for m in pkgutil.iter_modules(dgsym.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"dgsym.{module}")
    names = getattr(mod, "__all__", [])
    assert [n for n in names if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from dgsym.{module} import *", namespace)
    assert set(names) <= set(namespace)


def test_package_reexports_resolve():
    tree = ast.parse(inspect.getsource(dgsym))
    reexports = [(node.module, alias.asname or alias.name)
                 for node in tree.body if isinstance(node, ast.ImportFrom)
                 for alias in node.names]
    assert reexports
    for module, name in reexports:
        source = importlib.import_module(f"dgsym.{module}")
        assert getattr(dgsym, name) is getattr(source, name), (module, name)


def test_perfbench_traced_names_resolve():
    """Every function the benchmark's tracer wraps still exists, so deleting
    or renaming one fails here and not only under ``perfbench/run.py --trace 1``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for modname, attr, _ in spans.TRACED:
        owner = importlib.import_module(modname)
        *outer, name = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or name not in vars(owner):
            missing.append((modname, attr))
    assert spans.TRACED and missing == []


def relative_imports(module):
    """(source module, name) of every ``from .source import name`` in
    dgsym.<module>; the source is None for ``from . import name``."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"dgsym.{module}")))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_imports_have_no_cycle():
    """No dgsym module imports, directly or through others, one that imports it."""
    graph = {module: {src.split(".")[0] for src, _ in relative_imports(module) if src}
             for module in MODULES}

    def reaches(start, goal, seen=()):
        return any(nxt == goal or (nxt not in seen and
                                   reaches(nxt, goal, (*seen, nxt)))
                   for nxt in graph.get(start, ()))

    assert [m for m in MODULES if reaches(m, m)] == []


def test_no_module_imports_a_private_name_of_another():
    """A dgsym module uses only the public names of the others (dunders such
    as ``__version__`` are public)."""
    assert [(module, src, name) for module in MODULES
            for src, name in relative_imports(module)
            if name.startswith("_") and not name.endswith("__")] == []


def run_python(script):
    """Run ``script`` in a fresh interpreter that imports this dgsym."""
    env = dict(os.environ, PYTHONPATH=str(Path(dgsym.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_dgsym_runs_without_scipy():
    """dgsym depends on numpy only: with scipy unimportable it imports, the
    flow suite passes and a closed-form flow runs on an evaluator."""
    run_python("""
import sys
sys.modules["scipy"] = None
import numpy as np
import dgsym
from dgsym import cli
from dgsym.fields import Grid, sample_evaluator
from dgsym.flows import TransformedSolution, closed_flow_map
from dgsym.params import reference_points

class Src:
    def rs(self, xs, t):
        return 0.2 * np.sin(xs[0]) + t, 0.1 * xs[0]

assert cli.main(["verify", "--suite", "flow"]) == 0
moved = TransformedSolution(closed_flow_map("D", 0.2, reference_points()["sym1b"]), Src())
field = sample_evaluator(moved, Grid.make(npts=16), 0.1)
assert np.all(np.isfinite(field.r)) and np.all(np.isfinite(field.s))
""")


def test_yf_flow_runs_without_numpy_polynomial():
    """The closed Y_f flow evaluates f by Horner's rule: the flow suite runs
    it without importing numpy.polynomial."""
    run_python("""
import sys
from dgsym import cli
assert cli.main(["verify", "--suite", "flow", "--class", "infasub",
                 "--gen", "Yf:1+z^2"]) == 0
assert "numpy.polynomial" not in sys.modules
""")


# Public names, and public methods and properties of classes, that nothing
# in src/dgsym or perfbench loads yet, each with the reason it stays.
UNCALLED = {
    # the exact group law of the gauge group, stated beside gauge_act_params
    ("params", "gauge_identity"), ("params", "gauge_inverse"),
    ("params", "gauge_compose"),
    # oracles the tests compare the stencil and the Lie bracket against
    ("pde", "SEPacket.rs_t"), ("symexpr", "SymExpr.differentiate"),
    # the evaluator the characteristic check of ROADMAP item 2 is to call
    ("symexpr", "SymExpr.evaluate"),
}


def public_names(tree):
    """A module's ``__all__``, else its top-level definitions and
    assignments without a leading underscore."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def loaded_names(tree, skip=None):
    """Every name read in ``tree`` as a variable or an attribute, outside the
    subtree ``skip``.  Strings, imports and assignments read nothing."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_caller_outside_tests():
    """Each public name of a dgsym module, and each public method or property
    of a class defined at its top level, is read somewhere in src/dgsym
    outside its own definition, or in perfbench; tests alone do not count.
    A method counts as read where any attribute of its name is.  ``UNCALLED``
    lists the exceptions, a method as ``Class.method``."""
    src = Path(dgsym.__file__).resolve().parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    assert bench.is_dir(), bench
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    loads = {module: loaded_names(tree) for module, tree in trees.items()}
    bench_loads = set().union(*(loaded_names(ast.parse(path.read_text()))
                                for path in bench.glob("*.py")))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    uncalled = set()
    for module, tree in trees.items():
        defs = {node.name: node for node in tree.body
                if isinstance(node, (*functions, ast.ClassDef))}
        methods = {f"{cls.name}.{node.name}": node for cls in defs.values()
                   if isinstance(cls, ast.ClassDef) for node in cls.body
                   if isinstance(node, functions) and not node.name.startswith("_")}
        for label in [*public_names(tree), *methods]:
            name, node = label.split(".")[-1], methods.get(label, defs.get(label))
            elsewhere = name in bench_loads or any(
                name in found for other, found in loads.items() if other != module)
            if not (elsewhere or name in loaded_names(tree, skip=node)):
                uncalled.add((module, label))
    assert uncalled == UNCALLED
