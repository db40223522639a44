import ast
import importlib
import inspect
import pkgutil

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
