"""Names read from outside the package: the benchmark's traced spans and the
module attributes its workloads and goldens read, each module's ``__all__``
and every name the demos and the acceptance suite import must resolve, so
deleting one fails here, not first in a benchmark run or in a demo that no
test runs. The goldens' summaries also run on a short train and evaluation."""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import numpy as np
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


BENCHMARK_READERS = [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "goldens.py"]


def _benchmark_attributes():
    """(file, module, attribute) of every ``harness.*``, ``evaluation.*`` and
    ``cli.*`` the benchmark's workloads and goldens read, without importing them."""
    return sorted({(path.name, node.value.id, node.attr) for path in BENCHMARK_READERS
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in ("harness", "evaluation", "cli")})


@pytest.mark.parametrize("source,module,name", _benchmark_attributes())
def test_attribute_the_benchmark_reads_exists(source, module, name):
    assert hasattr(importlib.import_module(f"opis.{module}"), name), f"{source} reads {module}.{name}"


def test_benchmark_summaries_read_train_and_eval_results():
    """The goldens' summaries read every train log column and iterate the
    evaluation records as (scene_id, ScoredBox) pairs, whose ``len`` the
    workloads take as the detection count."""
    spec = importlib.util.spec_from_file_location("perfbench_goldens", BENCHMARK_READERS[1])
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    world = opis.SceneConfig(num_classes=3, feature_dim=8, num_proposals=30)
    config = opis.TrainConfig(scene=world, scenes_per_epoch=4, refinements=2, iterations_override=2)
    model, log = opis.train(config, opis.generate_dataset(world, 0, 4))
    trained = goldens.train_summary(model, log)
    assert [len(column) for column in trained["trainlog"].values()] == [2] * len(log.header())
    assert trained["trainlog"]["iteration"] == [0, 1]
    assert trained["params"]["w_ref_2"] == model.w_ref[1].tolist()

    scenes = opis.generate_dataset(world, 7, 3)
    report, records = opis.evaluate_scenes(model, scenes)
    summary = goldens.eval_summary(report, records, scenes)
    counts, sums = np.zeros((3, 3), dtype=np.int64), np.zeros((3, 3))
    np.add.at(counts, (records.scene, records.class_id - 1), 1)
    np.add.at(sums, (records.scene, records.class_id - 1), records.score)
    assert summary["num_detections"] == len(records) == counts.sum() > 0
    assert summary["detections_per_scene_class"] == counts.tolist()
    np.testing.assert_allclose(summary["score_sum_per_scene_class"], sums, rtol=1e-12)
