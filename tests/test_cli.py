"""Command-line behavior: config validation, exit codes, byte-identical
outputs, and the sampler trace."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opis
from opis.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, ConfigError, load_config, main

SMALL_CONFIG = """\
[data]
num_classes = 3
feature_dim = 8
num_proposals = 40
clutter_rate = 0.3

[model]
refinements = 2

[train]
seed = 0
scenes_per_epoch = 10
epochs = 4
batch_size = 2
learning_rate = 0.3
eval_scenes = 6
eval_seed = 77
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(SMALL_CONFIG)
    return p


class TestLoadConfig:
    def test_round_trip_values(self, config_path):
        cfg = load_config(config_path)
        assert cfg.scene.num_classes == 3
        assert cfg.scene.feature_dim == 8
        assert cfg.refinements == 2
        assert cfg.eval_seed == 77
        assert cfg.total_iterations == 20

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.ini"):
            load_config(tmp_path / "nope.ini")

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[sampler]\nmu_z = 20\n")
        with pytest.raises(ConfigError, match="mu_z"):
            load_config(p)

    def test_unknown_section_named(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[sampling]\nmu_s = 20\n")
        with pytest.raises(ConfigError, match="sampling"):
            load_config(p)

    def test_bad_value_named(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[train]\nseed = banana\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(p)

    def test_bad_method_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[train]\nmethod = sgd\n")
        with pytest.raises(ConfigError, match="method"):
            load_config(p)


class TestTrainCommand:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "absent.ini" in capsys.readouterr().err

    def test_writes_outputs_with_correct_row_count(self, config_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--config", str(config_path), "--out", str(out), "--iterations-override", "12"])
        assert rc == EXIT_OK
        log = (out / "trainlog.csv").read_text().splitlines()
        assert len(log) == 1 + 12  # header + one row per iteration
        assert log[0].startswith("iteration,phase,T,mu,zeta_mean,loss_midn,loss_ref_1,loss_ref_2")
        assert (out / "model.json").is_file()
        assert (out / "resolved_config.ini").is_file()
        assert (out / "timing.csv").is_file()

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(["train", "--config", str(config_path), "--out", str(out), "--iterations-override", "10"])
            assert rc == EXIT_OK
        assert (out_a / "trainlog.csv").read_bytes() == (out_b / "trainlog.csv").read_bytes()
        assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
        assert (out_a / "resolved_config.ini").read_bytes() == (out_b / "resolved_config.ini").read_bytes()

    def test_seed_and_method_overrides_change_output(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(config_path), "--out", str(out_a), "--iterations-override", "10"])
        main(["train", "--config", str(config_path), "--out", str(out_b), "--iterations-override", "10", "--seed", "9"])
        assert (out_a / "trainlog.csv").read_bytes() != (out_b / "trainlog.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_exits_3(self, tmp_path, capsys):
        p = tmp_path / "diverge.ini"
        p.write_text(SMALL_CONFIG + "\n")
        text = p.read_text().replace("learning_rate = 0.3", "learning_rate = 1e9")
        p.write_text(text)
        rc = main(["train", "--config", str(p), "--out", str(tmp_path / "o"), "--iterations-override", "300"])
        assert rc == EXIT_NUMERIC

    @pytest.mark.parametrize("key,value", [("mu_s", "2"), ("lambda_ig", "0.6")])
    def test_schedule_bounds_exit_2_naming_key(self, key, value, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG + f"\n[sampler]\n{key} = {value}\n")
        rc = main(["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_module_entry_point_runs(self, config_path, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(opis.__file__).parents[1]))
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "opis.cli", "train", "--config", str(config_path), "--out", str(out),
             "--iterations-override", "4"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert len((out / "trainlog.csv").read_text().splitlines()) == 1 + 4


class TestEvalCommand:
    def test_eval_after_train(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out), "--iterations-override", "12"])
        ev = tmp_path / "eval"
        rc = main([
            "eval", "--model", str(out / "model.json"), "--config", str(config_path), "--out", str(ev),
        ])
        assert rc == EXIT_OK
        metrics = json.loads((ev / "metrics.json").read_text())
        assert set(metrics) == {"per_class_ap", "mean_ap", "corloc", "num_scenes", "num_detections"}
        assert metrics["num_scenes"] == 6
        dump_lines = [l for l in (ev / "detections.jsonl").read_text().splitlines() if l]
        assert len(dump_lines) == metrics["num_detections"]
        rec = json.loads(dump_lines[0])
        assert set(rec) == {"scene_id", "class_id", "score", "x1", "y1", "x2", "y2"}

    def test_eval_determinism_and_seed_sensitivity(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out), "--iterations-override", "12"])
        evs = []
        for name, seed_args in (("e1", []), ("e2", []), ("e3", ["--dataset-seed", "123"])):
            ev = tmp_path / name
            rc = main(["eval", "--model", str(out / "model.json"), "--config", str(config_path), "--out", str(ev)] + seed_args)
            assert rc == EXIT_OK
            evs.append((ev / "metrics.json").read_bytes())
        assert evs[0] == evs[1]
        assert evs[0] != evs[2]

    def test_missing_model_exits_2(self, config_path, tmp_path):
        rc = main(["eval", "--model", str(tmp_path / "no.json"), "--config", str(config_path), "--out", str(tmp_path / "e")])
        assert rc == EXIT_CONFIG


BAD_MODELS = {
    "missing": None,
    "not_json": "{params",
    "no_params": "{}",
    # A model for a 4-class world against the 3-class config.
    "wrong_classes": opis.ToyModel.initialize(4, 8, 2, seed=0).to_json(),
}


@pytest.mark.parametrize("command", ["eval", "sample-demo"])
@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_bad_model_file_exits_2_naming_it(command, case, config_path, tmp_path, capsys):
    path = tmp_path / f"{case}.json"
    if BAD_MODELS[case] is not None:
        path.write_text(BAD_MODELS[case])
    args = ["--model", str(path), "--config", str(config_path)]
    args += ["--out", str(tmp_path / "e")] if command == "eval" else []
    rc = main([command] + args)
    assert rc == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err


class TestCompareCommand:
    def test_grid_csv_with_medians(self, config_path, tmp_path):
        out = tmp_path / "cmp"
        rc = main([
            "compare", "--config", str(config_path), "--out", str(out),
            "--methods", "baseline,opis", "--seeds", "0,1,2",
            "--iterations-override", "10",
        ])
        assert rc == EXIT_OK
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "method,seed,map,corloc"
        assert len(lines) == 1 + 2 * 3 + 2  # header + cells + medians
        med = [l for l in lines if ",median," in l]
        assert len(med) == 2
        for l in lines[1:]:
            parts = l.split(",")
            assert parts[0] in ("baseline", "opis")
            assert 0.0 <= float(parts[2]) <= 1.0
            assert 0.0 <= float(parts[3]) <= 1.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_parallel_divergence_exits_3_naming_cell(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "diverge.ini"
        p.write_text(SMALL_CONFIG.replace("learning_rate = 0.3", "learning_rate = 1e9"))
        monkeypatch.setenv("OPIS_THREADS", "2")
        rc = main([
            "compare", "--config", str(p), "--out", str(tmp_path / "c"),
            "--methods", "baseline,opis", "--seeds", "0", "--iterations-override", "300",
        ])
        assert rc == EXIT_NUMERIC
        # Results are read in grid order, so the first diverging cell is reported.
        assert "baseline seed 0" in capsys.readouterr().err

    def test_unknown_method_exits_2(self, config_path, tmp_path, capsys):
        rc = main([
            "compare", "--config", str(config_path), "--out", str(tmp_path / "c"),
            "--methods", "baseline,fancy", "--seeds", "0",
        ])
        assert rc == EXIT_CONFIG
        assert "fancy" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_tolerance(self, capsys):
        rc = main(["gradcheck", "--seed", "3"])
        assert rc == EXIT_OK
        assert "max relative gradient error" in capsys.readouterr().out


DEMO_GOLDENS = Path(__file__).parent / "data" / "sample_demo"


class TestSampleDemoCommand:
    def test_trace_output(self, config_path, capsys):
        rc = main(["sample-demo", "--config", str(config_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "mu=" in out
        assert "branch 1:" in out
        assert "n_pos=" in out

    def test_iteration_outside_finetune_exits_2(self, config_path, capsys):
        rc = main(["sample-demo", "--config", str(config_path), "--iteration", "0"])
        assert rc == EXIT_CONFIG
        assert "fine-tuning range" in capsys.readouterr().err

    @pytest.mark.parametrize("name,config_text,seed", [
        ("small_seed0", SMALL_CONFIG, "0"),  # neglect rule keeps the center only
        ("small_seed24", SMALL_CONFIG, "24"),  # an absorbed center
        ("defaults_seed0", "[train]\n", "0"),  # a nonzero stage-2 top-up
        ("early_t0_seed1", "[schedule]\nt0_fraction = 0.05\n", "1"),  # neglect rule keeps all positives
    ])
    def test_sample_demo_stdout_pinned(self, name, config_text, seed, tmp_path, capsys):
        p = tmp_path / "demo.ini"
        p.write_text(config_text)
        rc = main(["sample-demo", "--config", str(p), "--seed", seed])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == (DEMO_GOLDENS / f"{name}.txt").read_text()
