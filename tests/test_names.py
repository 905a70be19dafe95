"""Names read from outside the package: the benchmark's traced spans, each
module's ``__all__`` and every name the demos and the acceptance suite import
must resolve, so deleting one fails here, not first in a traced benchmark run
or in a demo that no test runs."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

import opis

ROOT = Path(__file__).parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
IMPORTERS = sorted(ROOT.glob("demos/*.py")) + [ROOT / "tests" / "test_acceptance.py"]
MODULES = sorted(p.stem for p in Path(opis.__file__).parent.glob("*.py") if not p.stem.startswith("_"))


def _traced():
    """``TRACED`` of perfbench/tracing.py, read without importing the benchmark."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def _imported_from_opis():
    """(file, module, name) of every ``from opis... import name`` in the
    importing files, read without running them."""
    return [(path.relative_to(ROOT).as_posix(), node.module, alias.name)
            for path in IMPORTERS for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "opis"
            for alias in node.names]


@pytest.mark.parametrize("module,path", _traced())
def test_traced_name_resolves(module, path):
    assert callable(functools.reduce(getattr, path.split("."), importlib.import_module(f"opis.{module}")))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"opis.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("source,module,name", _imported_from_opis())
def test_name_imported_by_a_demo_or_the_acceptance_suite_exists(source, module, name):
    assert hasattr(importlib.import_module(module), name), f"{source} imports {name} from {module}"
