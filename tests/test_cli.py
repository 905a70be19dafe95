"""Command-line behavior: config validation, exit codes, byte-identical
outputs, and the sampler trace."""

import configparser
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import opis
from opis import cli, harness
from opis.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, ConfigError, load_config, main, resolved_config_text

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


TRAIN_GOLDENS = Path(__file__).parent / "data" / "train_golden"
OPIS_PIN = SMALL_CONFIG + "\n[schedule]\nt0_fraction = 0.1\n"


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

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nmu_s = 30\n",  # trained at mu_s = 20 without a word
        "[sampler]\nalpha = 0.5\n[DEFAULT]\nmu_s = 30\n",  # its mu_s applied in [sampler]
        "[data]\nnum_classes = 3\n[DEFAULT]\nmu_s = 30\n",  # blamed [data]
        "[DEFAULT]\n",
    ], ids=["alone", "with-sampler", "with-data", "empty"])
    def test_default_section_is_unknown(self, text, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: unknown config section [DEFAULT]\n"
        assert not (tmp_path / "o").exists()

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

    def test_overflowing_negative_target_trains(self, tmp_path):
        p = tmp_path / "huge.ini"
        p.write_text(SMALL_CONFIG + "\n[sampler]\nmu_s = 1e308\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(p), "--out", str(out)]) == EXIT_OK
        assert (out / "model.json").is_file()

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
        # No snapshot was taken, so none is printed.
        assert capsys.readouterr().err == "numerical failure at iteration 54: model parameters became non-finite\n"

    @pytest.mark.parametrize("key,value", [("mu_s", "2"), ("lambda_ig", "0.6")])
    def test_schedule_bounds_exit_2_naming_key(self, key, value, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG + f"\n[sampler]\n{key} = {value}\n")
        rc = main(["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [
        ("eval_scenes", "0"),
        ("nms_iou", "1.5"),
        ("score_floor", "1.0"),
        ("learning_rate", "-0.1"),
        ("momentum", "1.0"),
        ("lr_decay", "0"),
    ])
    def test_train_bounds_exit_2_naming_key(self, key, value, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG.replace("[train]\n", f"[train]\n{key} = {value}\n"))
        rc = main(["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_learning_rate_exits_2(self, value, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG.replace("learning_rate = 0.3", f"learning_rate = {value}"))
        rc = main(["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "learning_rate" in capsys.readouterr().err

    @staticmethod
    def assert_pinned(golden, method, config_text, tmp_path):
        p = tmp_path / "pin.ini"
        p.write_text(config_text)
        out = tmp_path / "run"
        assert main(["train", "--config", str(p), "--out", str(out), "--method", method]) == EXIT_OK
        for name in ("trainlog.csv", "model.json"):
            assert (out / name).read_bytes() == (TRAIN_GOLDENS / golden / name).read_bytes(), name

    @pytest.mark.parametrize("method,config_text", [
        ("opis", OPIS_PIN),
        ("baseline", SMALL_CONFIG),
        ("pib_only", OPIS_PIN),
    ])
    def test_outputs_pinned(self, method, config_text, tmp_path):
        # opis and baseline were captured before the training step was batched
        # over branches, pib_only before training seeded its sampler streams
        # from state chunks.
        self.assert_pinned(method, method, config_text, tmp_path)

    def test_two_word_seed_pinned(self, tmp_path):
        # 2**40 + 5 is two 32-bit words of SeedSequence entropy, where every
        # other pin has one.
        config_text = OPIS_PIN.replace("\nseed = 0\n", f"\nseed = {2**40 + 5}\n")
        self.assert_pinned("opis_two_word_seed", "opis", config_text, tmp_path)

    # 16 sampler keys an iteration (2 scenes, 2 branches, 4 classes); fine-tuning is iterations 2-19.
    @pytest.mark.parametrize("cap,chunks", [
        (1, [(it, it + 1) for it in range(2, 20)]),
        (80, [(2, 7), (7, 12), (12, 17), (17, 20)]),
        (112, [(2, 9), (9, 16), (16, 20)]),
    ])
    def test_state_chunk_boundaries_keep_the_opis_pin(self, cap, chunks, monkeypatch, tmp_path):
        built = []
        chunk_states = harness._chunk_states

        def recording(seed, dataset, batches, start, stop, *rest):
            built.append((start, stop))
            return chunk_states(seed, dataset, batches, start, stop, *rest)

        monkeypatch.setattr(harness, "STATE_CHUNK_KEYS", cap)
        monkeypatch.setattr(harness, "_chunk_states", recording)
        self.assert_pinned("opis", "opis", OPIS_PIN, tmp_path)
        assert built == chunks

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


def _filled_model(value):
    """A model file for the small config with every parameter equal to ``value``."""
    model = opis.ToyModel.initialize(3, 8, 2, seed=0)
    model.flat[:] = value
    return model.to_json()


BAD_MODELS = {
    "missing": None,
    "not_json": "{params",
    "no_params": "{}",
    # A model for a 4-class world against the 3-class config.
    "wrong_classes": opis.ToyModel.initialize(4, 8, 2, seed=0).to_json(),
    # JSON's Infinity, which json.loads accepts.
    "infinite": _filled_model(math.inf),
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


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("command,source", [("eval", "model"), ("sample-demo", "model"), ("sample-demo", "init_scale")])
def test_overflowing_scores_exit_3_in_one_line(command, source, config_path, tmp_path, capsys):
    """Finite parameters of 1e308, loaded or drawn with init_scale = 1e308,
    overflow the scores."""
    args = ["--config", str(config_path)]
    if source == "model":
        (tmp_path / "huge.json").write_text(_filled_model(1e308))
        args += ["--model", str(tmp_path / "huge.json")]
    else:
        config_path.write_text(SMALL_CONFIG.replace("[model]\n", "[model]\ninit_scale = 1e308\n"))
    args += ["--out", str(tmp_path / "e")] if command == "eval" else []
    rc = main([command] + args)
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite values while scoring" in err
    assert not (tmp_path / "e").exists()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_eval_overflow_names_the_scene_and_tensor(config_path, tmp_path, capsys):
    """Every scene of an all-1e308 model overflows; the one line names the
    first scene of the set and the tensor."""
    (tmp_path / "huge.json").write_text(_filled_model(1e308))
    rc = main(["eval", "--model", str(tmp_path / "huge.json"), "--config", str(config_path),
               "--out", str(tmp_path / "e")])
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == "numerical failure: non-finite values while scoring: scene 0: logits contains non-finite entries\n"


DIVERGING = SMALL_CONFIG.replace("learning_rate = 0.3", "learning_rate = 1e9")
HUGE_INIT = SMALL_CONFIG.replace("[model]\n", "[model]\ninit_scale = 1e308\n")
# The first step leaves finite logits whose spread overflows the softmax's subtraction.
HUGE_STEP = ("[data]\nnum_proposals = 40\nobject_size_max = 20\n\n"
             "[train]\nscenes_per_epoch = 6\nepochs = 2\neval_scenes = 3\nlearning_rate = 1e308\n")


@pytest.mark.parametrize("command,config_text,args", [
    ("eval", SMALL_CONFIG, ["--model", "huge.json", "--out", "e"]),
    ("sample-demo", SMALL_CONFIG, ["--model", "huge.json"]),
    ("sample-demo", HUGE_INIT, []),
    ("train", DIVERGING, ["--out", "e", "--iterations-override", "300"]),
    ("train", HUGE_INIT, ["--out", "e"]),
    ("train", HUGE_STEP, ["--out", "e", "--iterations-override", "2"]),
    ("compare", DIVERGING, ["--out", "e", "--methods", "baseline,opis", "--seeds", "0", "--iterations-override", "300"]),
], ids=["eval-huge-model", "sample-demo-huge-model", "sample-demo-huge-init", "train-diverging", "train-huge-init",
        "train-huge-step", "compare-diverging"])
def test_numerical_failure_prints_one_stderr_line(command, config_text, args, tmp_path):
    """In a real process, where no test runner captures numpy's warnings, and
    with two worker processes for compare."""
    (tmp_path / "cfg.ini").write_text(config_text)
    (tmp_path / "huge.json").write_text(_filled_model(1e308))
    env = dict(os.environ, PYTHONPATH=str(Path(opis.__file__).parents[1]), OPIS_THREADS="2")
    proc = subprocess.run([sys.executable, "-m", "opis.cli", command, "--config", "cfg.ini"] + args,
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("numerical failure"), proc.stderr
    assert not (tmp_path / "e").exists()


def test_divergence_in_the_last_update_exits_3(tmp_path, capsys):
    """With this config the parameters first overflow in iteration 55's update,
    the last of 56, which no later iteration's check would see."""
    (tmp_path / "cfg.ini").write_text(DIVERGING)
    rc = main(["train", "--config", str(tmp_path / "cfg.ini"), "--out", str(tmp_path / "e"),
               "--iterations-override", "56"])
    assert rc == EXIT_NUMERIC
    assert "iteration 56" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


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

    def test_serial_grid_matches_parallel(self, config_path, tmp_path, monkeypatch):
        csvs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("OPIS_THREADS", threads)
            out = tmp_path / f"cmp{threads}"
            rc = main([
                "compare", "--config", str(config_path), "--out", str(out),
                "--methods", "baseline,opis", "--seeds", "0,1", "--iterations-override", "10",
            ])
            assert rc == EXIT_OK
            csvs.append((out / "compare.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @staticmethod
    def diverging_grid_exits_3(threads, tmp_path, capsys, monkeypatch):
        p = tmp_path / "diverge.ini"
        p.write_text(SMALL_CONFIG.replace("learning_rate = 0.3", "learning_rate = 1e9"))
        monkeypatch.setenv("OPIS_THREADS", threads)
        rc = main([
            "compare", "--config", str(p), "--out", str(tmp_path / "c"),
            "--methods", "baseline,opis", "--seeds", "0", "--iterations-override", "300",
        ])
        assert rc == EXIT_NUMERIC
        # Results are read in grid order, so the first diverging cell is reported.
        assert "baseline seed 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_parallel_divergence_exits_3_naming_cell(self, tmp_path, capsys, monkeypatch):
        self.diverging_grid_exits_3("2", tmp_path, capsys, monkeypatch)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_serial_divergence_exits_3_naming_cell(self, tmp_path, capsys, monkeypatch):
        self.diverging_grid_exits_3("1", tmp_path, capsys, monkeypatch)

    def test_unknown_method_exits_2(self, config_path, tmp_path, capsys):
        rc = main([
            "compare", "--config", str(config_path), "--out", str(tmp_path / "c"),
            "--methods", "baseline,fancy", "--seeds", "0",
        ])
        assert rc == EXIT_CONFIG
        assert "fancy" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value,threads", [
    ("eval", "--dataset-seed", "-1", "1"),
    ("compare", "--seeds", "-1", "1"),
    ("compare", "--seeds", "0,-1", "1"),
    ("compare", "--seeds", "0,-1", "2"),
    ("gradcheck", "--seed", "-1", "1"),
])
def test_negative_seed_flag_exits_2_naming_it(command, flag, value, threads, config_path, tmp_path, capsys,
                                              monkeypatch):
    model = tmp_path / "model.json"
    model.write_text(opis.ToyModel.initialize(3, 8, 2, seed=0).to_json())
    args = {
        "eval": ["--config", str(config_path), "--model", str(model), "--out", str(tmp_path / "o")],
        "compare": ["--config", str(config_path), "--methods", "baseline", "--out", str(tmp_path / "o"),
                    "--iterations-override", "4"],
        "gradcheck": [],
    }[command]
    monkeypatch.setenv("OPIS_THREADS", threads)
    rc = main([command, flag, value] + args)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flag,value,key", [
    ("train", "--seed", "-1", "seed"),
    ("sample-demo", "--seed", "-1", "seed"),
    ("train", "--iterations-override", "1", "iterations_override"),
])
def test_bad_override_exits_2_naming_key(command, flag, value, key, config_path, tmp_path, capsys):
    out = ["--out", str(tmp_path / "o")] if command == "train" else []
    rc = main([command, "--config", str(config_path), flag, value] + out)
    assert rc == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads,flag,value,named", [
    ("abc", "--seeds", "0", "OPIS_THREADS"),
    ("1", "--seeds", "0,x", "seeds"),
    ("1", "--methods", ",", "method"),
])
def test_bad_compare_input_exits_2(threads, flag, value, named, config_path, tmp_path, capsys, monkeypatch):
    args = {"--methods": "baseline", "--seeds": "0", flag: value}
    monkeypatch.setenv("OPIS_THREADS", threads)
    rc = main([
        "compare", "--config", str(config_path), "--out", str(tmp_path / "c"), "--iterations-override", "4",
        "--methods", args["--methods"], "--seeds", args["--seeds"],
    ])
    assert rc == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("flag,value", [("--seeds", "0,0"), ("--seeds", "1,0,1"), ("--methods", "baseline,baseline")])
def test_repeated_compare_cell_exits_2_naming_flag(flag, value, config_path, tmp_path, capsys):
    args = {"--methods": "baseline,opis", "--seeds": "0", flag: value}
    rc = main([
        "compare", "--config", str(config_path), "--out", str(tmp_path / "c"), "--iterations-override", "4",
        "--methods", args["--methods"], "--seeds", args["--seeds"],
    ])
    assert rc == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


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

    def test_overflowing_target_keeps_every_negative(self, tmp_path, capsys):
        # floor(mu * n_pos) overflows for mu_s = 1e308, inside [4, inf).
        p = tmp_path / "huge.ini"
        p.write_text("[sampler]\nmu_s = 1e308\n")
        assert main(["sample-demo", "--config", str(p)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "target=inf" in out
        sampled = re.findall(r"n_neg=(\d+) target=inf\n(?:    .*\n)*?    selected \|N'\| = (\d+)", out)
        assert sampled and all(n_neg == kept for n_neg, kept in sampled)

    def test_huge_finite_target_prints_short(self, tmp_path, capsys):
        # floor(mu * n_pos) for n_pos = 1 is a finite 309-digit integer.
        p = tmp_path / "huge.ini"
        p.write_text("[data]\nnum_classes = 3\nfeature_dim = 8\nnum_proposals = 40\n[sampler]\nmu_s = 1e308\n")
        assert main(["sample-demo", "--config", str(p), "--seed", "0"]) == EXIT_OK
        targets = re.findall(r"n_pos=(\d+) n_neg=\d+ target=(\S+)\n", capsys.readouterr().out)
        assert ("1", "1e+308") in targets
        assert all(len(target) <= 15 for _, target in targets)

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


# Every INI key's admissible interval; [train] method is checked against METHODS.
INTERVALS = {
    "num_classes": "[1, inf)", "feature_dim": "[1, inf)", "num_proposals": "[1, inf)",
    "clutter_rate": "[0, 1)", "jitter": "[0, inf)", "feature_noise": "[0, inf)",
    "min_objects": "[1, inf)", "max_objects": "[1, inf)", "world_size": "(0, inf)",
    "object_size_min": "(0, inf)", "object_size_max": "(0, inf)",
    "clutter_size_min": "(0, inf)", "clutter_size_max": "(0, inf)",
    "coverage_iou": "(0, 1]", "max_regen_attempts": "[1, inf)", "prototype_seed": "[0, inf)",
    "refinements": "[1, inf)", "init_scale": "[0, inf)", "t0_fraction": "(0, 1)",
    "mu_s": "[4, inf)", "alpha": "[0, inf)", "i_0": "[0, inf)",
    "lambda_ig": "[0, 1]", "lambda_ng": "[0, 1]", "beta": "[0, 1]", "gamma": "[0, inf)",
    "seed": "[0, inf)", "scenes_per_epoch": "[1, inf)", "epochs": "[1, inf)", "batch_size": "[1, inf)",
    "learning_rate": "(0, inf)", "lr_decay": "(0, 1]", "momentum": "[0, 1)", "weight_decay": "[0, inf)",
    "eval_scenes": "[1, inf)", "eval_seed": "[0, inf)", "nms_iou": "(0, 1)", "score_floor": "[0, 1)",
}
SECTION_OF = {key: section for section, keys in cli._SCHEMA.items() for key in keys}
TYPE_OF = {key: typ for keys in cli._SCHEMA.values() for key, typ in keys.items()}


def test_every_key_declares_its_interval():
    declared = {
        f.name: f.metadata["interval"]
        for cls in (opis.SceneConfig, opis.TrainConfig)
        for f in fields(cls)
        if f.name in SECTION_OF and "interval" in f.metadata
    }
    assert declared == INTERVALS
    assert set(SECTION_OF) == set(INTERVALS) | {"method"}


def _just_outside(key):
    """Values just below and above the key's interval, plus nan for a float key."""
    spec, typ = INTERVALS[key], TYPE_OF[key]
    low, high = (float(x) for x in spec[1:-1].split(","))
    step = (lambda v, to: int(v) + (1 if to > v else -1)) if typ is int else math.nextafter
    values = [step(low, -math.inf) if spec[0] == "[" else low]
    if high < math.inf:
        values.append(step(high, math.inf) if spec[-1] == "]" else high)
    elif typ is float:
        values.append(math.inf)
    if typ is float:
        values.append(math.nan)
    return [repr(typ(v)) if typ is float else str(v) for v in values]


@pytest.mark.parametrize("key,value", [(k, v) for k in INTERVALS for v in _just_outside(k)])
def test_value_outside_interval_exits_2_naming_key(key, value, tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text(f"[{SECTION_OF[key]}]\n{key} = {value}\n")
    rc = main(["train", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [
    # These used to exit 1 with a traceback ...
    ("coverage_iou", "2"), ("max_regen_attempts", "0"), ("world_size", "-5"), ("jitter", "nan"),
    ("object_size_min", "50"),
    # ... exit 3 as a numerical failure ...
    ("mu_s", "nan"), ("gamma", "nan"), ("weight_decay", "nan"), ("init_scale", "nan"),
    # ... or exit 0.
    ("alpha", "nan"), ("i_0", "inf"), ("weight_decay", "-1"), ("init_scale", "-1"),
])
def test_former_escapes_exit_2_naming_key(key, value, tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text(f"[{SECTION_OF[key]}]\n{key} = {value}\n")
    rc = main(["train", "--config", str(p), "--out", str(tmp_path / "o"), "--iterations-override", "4"])
    assert rc == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("data,keys", [
    ("num_classes = 9\nfeature_dim = 8\n", ("num_classes", "feature_dim")),
    ("min_objects = 3\nmax_objects = 2\n", ("min_objects", "max_objects")),
])
def test_inconsistent_data_keys_exit_2_naming_both(data, keys, tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[data]\n" + data)
    rc = main(["train", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(key in err for key in keys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenes_per_epoch", [1, 2, 3])
def test_run_shorter_than_two_iterations_exits_2(scenes_per_epoch, tmp_path, capsys):
    p = tmp_path / "short.ini"
    p.write_text(f"[train]\nscenes_per_epoch = {scenes_per_epoch}\nepochs = 1\nbatch_size = 2\n")
    rc = main(["train", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(key in err for key in ("scenes_per_epoch", "epochs", "batch_size"))
    assert not (tmp_path / "o").exists()


UNCOVERABLE = {
    "wild_jitter": "jitter = 5\n",
    "tight_coverage": "coverage_iou = 0.99\n",
    "one_attempt": "max_regen_attempts = 1\njitter = 2\n",
}


@pytest.mark.parametrize("command,case", [
    *[(command, case) for command in ("train", "eval", "compare") for case in sorted(UNCOVERABLE)],
    # sample-demo draws one scene, which only the tight coverage cannot cover.
    ("sample-demo", "tight_coverage"),
])
def test_uncoverable_world_exits_2(command, case, tmp_path, capsys, monkeypatch):
    p = tmp_path / "world.ini"
    p.write_text("[data]\n" + UNCOVERABLE[case])
    model = tmp_path / "model.json"
    model.write_text(opis.ToyModel.initialize(4, 16, 3, seed=0).to_json())
    out = ["--out", str(tmp_path / "o")]
    args = {
        "train": out + ["--iterations-override", "4"],
        "eval": out + ["--model", str(model)],
        "compare": out + ["--methods", "baseline,opis", "--seeds", "0", "--iterations-override", "4"],
        "sample-demo": [],
    }[command]
    monkeypatch.setenv("OPIS_THREADS", "2")  # compare's cells run in worker processes
    rc = main([command, "--config", str(p)] + args)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(key in err for key in ("coverage_iou", "jitter", "max_regen_attempts"))
    assert not (tmp_path / "o").exists()


def _readme_ini():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_matches_defaults(tmp_path):
    """The block, copied to a file, loads as the default config; it has the
    sections and keys of the resolved-config echo, which loads the same."""
    readme, resolved = _readme_ini(), resolved_config_text(opis.TrainConfig())
    names = r"^\[\w+\]|^\w+(?= = )"
    assert re.findall(names, readme, flags=re.M) == re.findall(names, resolved, flags=re.M)
    for name, text in (("readme.ini", readme), ("resolved.ini", resolved)):
        (tmp_path / name).write_text(text)
        assert load_config(tmp_path / name) == opis.TrainConfig(), name


def test_readme_config_block_gives_every_interval():
    comments = dict(re.findall(r"^(\w+) = [^;\n]*;(.*)$", _readme_ini(), flags=re.M))
    for key, spec in INTERVALS.items():
        assert f"in {spec}" in comments.get(key, ""), key


NOISE_FREE = "[data]\nfeature_noise = 0\n\n[train]\nscenes_per_epoch = 6\nepochs = 2\neval_scenes = 3\n"


@pytest.mark.filterwarnings("error")
def test_noise_free_world_runs_every_command(tmp_path, capsys):
    """feature_noise = 0 lies in its interval; clutter proposals then have
    zero features, which no command may divide by their norm."""
    p = tmp_path / "noise_free.ini"
    p.write_text(NOISE_FREE)
    run, model = tmp_path / "run", str(tmp_path / "run" / "model.json")
    assert main(["train", "--config", str(p), "--out", str(run)]) == EXIT_OK
    assert main(["eval", "--config", str(p), "--model", model, "--out", str(tmp_path / "e")]) == EXIT_OK
    assert main(["sample-demo", "--config", str(p)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def _config_with(values: dict, base: str = SMALL_CONFIG) -> str:
    """The ``base`` config with each of ``values`` set in its own section."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(base)
    for key, value in values.items():
        if not parser.has_section(SECTION_OF[key]):
            parser.add_section(SECTION_OF[key])
        parser.set(SECTION_OF[key], key, repr(value))
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


ENDPOINTS = {
    "one_proposal": dict(num_proposals=1, jitter=0.0, clutter_rate=0.0, max_objects=1, nms_iou=5e-324,
                         score_floor=0.0),
    "one_class_one_dim": dict(num_classes=1, feature_dim=1, refinements=1),
    "widest_ignore_band": dict(lambda_ig=0.0, lambda_ng=1.0),
    "huge_reweighting": dict(gamma=1e308, alpha=1e308, i_0=1e308, beta=0.0),
    "zero_init": dict(init_scale=0.0),
    "extreme_optimizer": dict(learning_rate=5e-324, momentum=math.nextafter(1.0, 0.0), weight_decay=1e308),
    "batch_above_epoch": dict(batch_size=11, t0_fraction=5e-324),
    # Only unjittered proposals cover an object at IoU 1; with jitter the world is uncoverable (exit 2).
    "exact_coverage": dict(coverage_iou=1.0, jitter=0.0),
    # floor(mu * n_pos) overflows to inf for every n_pos >= 2.
    "huge_mu_s": dict(mu_s=1e308),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(ENDPOINTS))
def test_admissible_endpoint_keeps_the_cli_contract(case, tmp_path, capsys):
    """Values at the ends of their intervals keep the contract (exit 0, 2 or
    3, at most one stderr line, no traceback); each of these cases trains,
    evaluates and traces the sampler with exit 0 and an empty stderr, and a
    numpy warning fails the test."""
    p = tmp_path / "edge.ini"
    p.write_text(_config_with(ENDPOINTS[case]))
    run = tmp_path / "run"
    commands = [["train", "--out", str(run), "--iterations-override", "2"],
                ["eval", "--model", str(run / "model.json"), "--out", str(tmp_path / "e")], ["sample-demo"]]
    for command in commands:
        rc = main([command[0], "--config", str(p)] + command[1:])
        assert (rc, capsys.readouterr().err) == (EXIT_OK, ""), command[0]


SHORT_TRAIN = "[train]\nscenes_per_epoch = 6\nepochs = 2\neval_scenes = 3\n"
BAD_WORLDS = {
    # The objects are narrower than the coordinates resolve; jittering them never ended.
    "zero_area_objects": (dict(world_size=1e6, object_size_min=1e-12, object_size_max=1e-12),
                          "object_size_min = 1e-12 and object_size_max = 1e-12 give boxes of zero width"),
    # Zero-area clutter made NaN IoUs, which surfaced as a traceback or a numerical failure.
    "zero_area_clutter": (dict(object_size_min=1e4, object_size_max=3e4, world_size=1e5, clutter_size_min=1e-12,
                               clutter_size_max=1e-12, clutter_rate=0.9),
                          "clutter_size_min = 1e-12 and clutter_size_max = 1e-12 give boxes of zero width"),
    # Squared feature norms overflowed, and every feature row silently became zero.
    "overflowing_features": (dict(feature_noise=1e308), "features overflow at feature_noise = 1e+308"),
    # Box areas overflowed: the world was uncoverable, after a page of numpy warnings.
    "overflowing_boxes": (dict(world_size=1e308, object_size_min=1e308, object_size_max=1e308,
                               clutter_size_min=1e308, clutter_size_max=1e308),
                          "box coordinates or IoUs are not finite at world_size = 1e+308"),
    # Box areas underflowed to zero, so every IoU was 0 / 0.
    "underflowing_areas": (dict(world_size=1e-300, object_size_min=1e-301, object_size_max=2e-301,
                                clutter_size_min=1e-301, clutter_size_max=1e-301),
                           "box coordinates or IoUs are not finite at world_size = 1e-300"),
    # Finite proposals whose areas overflow a union: a warning and exit 0, or a traceback.
    "overflowing_proposal_areas": (dict(jitter=1e303),
                                   "box coordinates or IoUs are not finite at world_size = 100.0, jitter = 1e+303"),
    # Every proposal was clutter: coverage was luck, and a failure blamed three other keys.
    "clutter_only_rounded_up": (dict(num_proposals=40, clutter_rate=0.9999999999999999),
                                "clutter_rate = 0.9999999999999999 makes all num_proposals = 40 proposals clutter"),
    "clutter_only_three_proposals": (dict(num_proposals=3, clutter_rate=0.9),
                                     "clutter_rate = 0.9 makes all num_proposals = 3 proposals clutter"),
}


@pytest.mark.parametrize("command", ["train", "sample-demo"])
@pytest.mark.parametrize("case", sorted(BAD_WORLDS))
def test_degenerate_world_exits_2_in_one_line(case, command, tmp_path):
    """In a real process, where numpy prints a given warning once, not to a
    test runner: the world's boxes or features are a [data] error that says
    which. The rest of [data] is the default world."""
    values, named = BAD_WORLDS[case]
    (tmp_path / "cfg.ini").write_text(_config_with(values, SHORT_TRAIN))
    args = ["--out", "o", "--iterations-override", "2"] if command == "train" else []
    env = dict(os.environ, PYTHONPATH=str(Path(opis.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "opis.cli", command, "--config", "cfg.ini"] + args,
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("configuration error: [data]: "), proc.stderr
    assert named in proc.stderr
    assert not (tmp_path / "o").exists()


def _wide_logits_model(path):
    """A one-class, one-dim model whose refinement logits of a unit feature
    are +-1e308: finite, but their difference is wider than the float range."""
    model = opis.ToyModel.initialize(1, 1, 1, seed=0)
    model.flat[:] = 0.0
    model.w_ref[0][...] = [[1e308], [-1e308]]
    path.write_text(model.to_json())
    return str(path)


WIDE_LOGITS = "[data]\nnum_classes = 1\nfeature_dim = 1\n\n[model]\nrefinements = 1\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["eval", "sample-demo"])
def test_logits_wider_than_the_float_range_warn_nothing(command, tmp_path, capsys):
    """A softmax over finite logits whose spread overflows gives the
    overflowed entries 0, without a numpy warning."""
    p = tmp_path / "wide.ini"
    p.write_text(WIDE_LOGITS)
    out = ["--out", str(tmp_path / "o")] if command == "eval" else []
    assert main([command, "--config", str(p), "--model", _wide_logits_model(tmp_path / "wide.json")] + out) == EXIT_OK
    assert capsys.readouterr().err == ""


# Caps that keep a drawn run small; the keys SMALL_DRAW fixes are not drawn.
DRAW_CAPS = {"num_proposals": 40, "num_classes": 4, "feature_dim": 4, "refinements": 4, "min_objects": 4,
             "max_objects": 4, "max_regen_attempts": 100, "batch_size": 12}
SMALL_DRAW = ("[data]\nnum_classes = 3\nfeature_dim = 4\nnum_proposals = 40\n\n[model]\nrefinements = 2\n\n"
              "[train]\nscenes_per_epoch = 6\nepochs = 2\neval_scenes = 3\n")


def _admissible(key):
    """A value inside the key's interval: either end (the largest finite float
    for an unbounded one, a capped size for a count) or one between them."""
    spec, typ = INTERVALS[key], TYPE_OF[key]
    low, high = (float(x) for x in spec[1:-1].split(","))
    if typ is int:
        ends = (int(low), int(min(high, DRAW_CAPS.get(key, 2**32))))
        return st.sampled_from(ends) | st.integers(*ends)
    low = low if spec[0] == "[" else math.nextafter(low, math.inf)
    high = high if spec[-1] == "]" else math.nextafter(high, -math.inf)
    return st.sampled_from((low, high)) | st.floats(low, high)


DRAWN_KEYS = sorted(set(INTERVALS) - {"scenes_per_epoch", "epochs", "eval_scenes"})


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(values=st.lists(st.sampled_from(DRAWN_KEYS), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: _admissible(key) for key in keys})))
def test_drawn_admissible_config_keeps_the_cli_contract(values, tmp_path_factory, capsys):
    """Configs drawn from the declared intervals, ends included: train, eval
    and sample-demo each exit 0, 2 or 3 with at most one stderr line, and a
    numpy warning fails the test."""
    tmp = tmp_path_factory.mktemp("drawn")
    p = tmp / "drawn.ini"
    p.write_text(_config_with(values, SMALL_DRAW))
    commands = [["train", "--out", str(tmp / "run"), "--iterations-override", "2"],
                ["eval", "--model", str(tmp / "run" / "model.json"), "--out", str(tmp / "e")], ["sample-demo"]]
    for command in commands:
        rc = main([command[0], "--config", str(p)] + command[1:])
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC) and err.count("\n") <= 1, (command[0], rc, err)
        assert "Traceback" not in err
