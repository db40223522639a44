import ast
import importlib
import importlib.util
import inspect
import pkgutil
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
