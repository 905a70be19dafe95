"""Names read from outside the package: the benchmark's traced spans and each
module's ``__all__`` must resolve, so deleting one fails here, not first in a
traced benchmark run."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

import opis

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"
MODULES = sorted(p.stem for p in Path(opis.__file__).parent.glob("*.py") if not p.stem.startswith("_"))


def _traced():
    """``TRACED`` of perfbench/tracing.py, read without importing the benchmark."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


@pytest.mark.parametrize("module,path", _traced())
def test_traced_name_resolves(module, path):
    assert callable(functools.reduce(getattr, path.split("."), importlib.import_module(f"opis.{module}")))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"opis.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
