"""Command-line front end: train, evaluate, compare, gradcheck, sample-demo.

Configs are INI files with one section per concern (data, model, schedule,
sampler, reweight, train); unknown sections or keys are hard errors so a typo
in a hyperparameter name cannot silently fall back to a default. Exit codes:
0 success, 2 configuration error, 3 numerical failure. All primary outputs
are byte-deterministic for identical inputs; wallclock timings go to a
separate sidecar file.
"""

from __future__ import annotations

import argparse
import configparser
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .evaluation import dump_detections, evaluate_scenes
from .harness import (
    METHODS,
    Scene,
    SceneConfig,
    ToyModel,
    TrainConfig,
    TrainingDivergence,
    finite_diff_check,
    forward,
    generate_dataset,
    generate_scene,
    supervise_scene,
    train,
)
from .sampling import N_BINS, ScheduleState

__all__ = ["ConfigError", "load_config", "resolved_config_text", "main", "entrypoint"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Unreadable, unknown, or inconsistent configuration input."""


# The TrainConfig fields of every INI section but [data] and [train]. [data]
# holds every SceneConfig field; [train] every TrainConfig field left over,
# except iterations_override, which only the command line sets.
_SECTIONS = {
    "model": ("refinements", "init_scale"),
    "schedule": ("t0_fraction",),
    "sampler": ("mu_s", "alpha", "i_0", "lambda_ig", "lambda_ng"),
    "reweight": ("beta", "gamma"),
}


def _build_schema() -> dict[str, dict[str, type]]:
    """INI section -> key -> value type, the type being that of the field's default."""
    rest = {f.name: type(f.default) for f in fields(TrainConfig) if f.name not in ("scene", "iterations_override")}
    schema = {"data": {f.name: type(f.default) for f in fields(SceneConfig)}}
    for section, keys in _SECTIONS.items():
        schema[section] = {k: rest.pop(k) for k in keys}
    schema["train"] = rest
    return schema


_SCHEMA = _build_schema()


def load_config(path: str | Path) -> TrainConfig:
    """Parse and validate an INI config into a TrainConfig."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    # No section can be named "", so [DEFAULT] is an (unknown) section; a value may end in "; comment".
    parser = configparser.ConfigParser(interpolation=None, default_section="", inline_comment_prefixes=(";",))
    try:
        parser.read_string(p.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {p}: {exc}") from exc

    scene_kwargs: dict = {}
    train_kwargs: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
            typ = _SCHEMA[section][key]
            try:
                value = typ(raw) if typ is not str else raw.strip()
            except ValueError as exc:
                raise ConfigError(f"bad value for key '{key}' in section [{section}]: {raw!r}") from exc
            if section == "data":
                scene_kwargs[key] = value
            else:
                train_kwargs[key] = value
    try:
        scene = SceneConfig(**scene_kwargs)
        return TrainConfig(scene=scene, **train_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def resolved_config_text(config: TrainConfig) -> str:
    """Canonical INI echo of every key at its resolved value."""
    lines = []
    for section, keys in _SCHEMA.items():
        source = config.scene if section == "data" else config
        lines.append(f"[{section}]")
        lines += [f"{key} = {_fmt_value(getattr(source, key))}" for key in keys]
        lines.append("")
    return "\n".join(lines)


def _apply_overrides(config: TrainConfig, args: argparse.Namespace) -> TrainConfig:
    keys = ("seed", "method", "iterations_override")
    updates = {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}
    try:
        return replace(config, **updates) if updates else config
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _worker_count(cells: int) -> int:
    cap = os.environ.get("OPIS_THREADS")
    limit = os.cpu_count() or 1
    if cap is not None:
        try:
            limit = max(1, int(cap))
        except ValueError as exc:
            raise ConfigError(f"OPIS_THREADS must be an integer, got {cap!r}") from exc
    return max(1, min(limit, cells))


def _seed_flag(flag: str, seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"{flag} must be a non-negative integer, got {seed}")
    return seed


def _dataset(scene: SceneConfig, seed: int, count: int) -> list[Scene]:
    try:
        return generate_dataset(scene, seed, count)
    except RuntimeError as exc:  # uncoverable objects, zero-area boxes, or overflowing boxes or features
        raise ConfigError(f"[data]: {exc}") from exc


def _run_cell(payload: tuple[TrainConfig, str, int]) -> tuple[str, int, float, float]:
    config, method, seed = payload
    cfg = replace(config, method=method, seed=seed)
    dataset = _dataset(cfg.scene, cfg.seed, cfg.scenes_per_epoch)
    try:
        model, _ = train(cfg, dataset)
    except TrainingDivergence as exc:
        raise TrainingDivergence(f"{method} seed {seed}: {exc}", exc.iteration, exc.snapshot) from exc
    eval_scenes = _dataset(cfg.scene, cfg.eval_seed, cfg.eval_scenes)
    report, _ = evaluate_scenes(model, eval_scenes, nms_iou=cfg.nms_iou, score_floor=cfg.score_floor)
    return method, seed, report.mean_ap, report.corloc


def _load_model(path: str, config: TrainConfig) -> ToyModel:
    """Read a saved model; it must parse and fit the config's data section."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"model file not found: {p}")
    try:
        model = ToyModel.from_json(p.read_text())
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed model file {p}: {type(exc).__name__}: {exc}") from exc
    if not model.all_finite():
        raise ConfigError(f"model file {p} has non-finite parameters")
    # ToyModel checks that its heads agree with each other; they must fit the world too.
    num_classes, feature_dim = config.scene.num_classes, config.scene.feature_dim
    if (model.num_classes, model.feature_dim) != (num_classes, feature_dim) or model.num_branches < 1:
        raise ConfigError(
            f"model {p} parameter shapes do not fit config data section "
            f"({num_classes} classes, {feature_dim} dims, at least one refinement branch)"
        )
    return model


def _scoring_failure(exc: ValueError) -> int:
    """Exit status of a forward pass whose finite parameters overflowed the scores."""
    print(f"numerical failure: non-finite values while scoring: {exc}", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_train(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    dataset = _dataset(config.scene, config.seed, config.scenes_per_epoch)
    model, log = train(config, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log.write_csv(out / "trainlog.csv")
    log.write_timing_csv(out / "timing.csv")
    (out / "model.json").write_text(model.to_json())
    (out / "resolved_config.ini").write_text(resolved_config_text(config))
    print(f"trained {config.method} for {config.total_iterations} iterations -> {out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    model = _load_model(args.model, config)
    dataset_seed = config.eval_seed if args.dataset_seed is None else _seed_flag("--dataset-seed", args.dataset_seed)
    scenes = _dataset(config.scene, dataset_seed, config.eval_scenes)
    try:
        report, records = evaluate_scenes(model, scenes, nms_iou=config.nms_iou, score_floor=config.score_floor)
    except ValueError as exc:
        return _scoring_failure(exc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(report.to_json())
    (out / "detections.jsonl").write_text(dump_detections(records))
    print(f"mAP={report.mean_ap:.4f} CorLoc={report.corloc:.4f} over {report.num_scenes} scenes -> {out}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method '{m}' (choose from {', '.join(METHODS)})")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"seeds must be a comma-separated list of integers, got {args.seeds!r}") from exc
    if not methods or not seeds:
        raise ConfigError("need at least one method and one seed")
    # Check every cell here, before any worker starts: each must run once.
    for flag, items in (("--methods", methods), ("--seeds", [_seed_flag("--seeds", s) for s in seeds])):
        if len(set(items)) < len(items):
            raise ConfigError(f"{flag} lists an entry twice, got {','.join(map(str, items))}")

    cells = [(config, m, s) for m in methods for s in seeds]
    workers = _worker_count(len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [_run_cell(c) for c in cells]

    by_key = {(m, s): (ap, cl) for m, s, ap, cl in results}
    lines = ["method,seed,map,corloc"]
    for m in methods:
        for s in sorted(seeds):
            ap, cl = by_key[(m, s)]
            lines.append(f"{m},{s},{ap!r},{cl!r}")
    for m in methods:
        ap_med = statistics.median(by_key[(m, s)][0] for s in seeds)
        cl_med = statistics.median(by_key[(m, s)][1] for s in seeds)
        lines.append(f"{m},median,{ap_med!r},{cl_med!r}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.csv").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    _seed_flag("--seed", args.seed)
    scene_cfg = SceneConfig(num_classes=3, feature_dim=8, num_proposals=24, clutter_rate=0.25)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(99,)))
    scene = generate_scene(scene_cfg, rng, scene_id=0)
    model = ToyModel.initialize(3, 8, num_branches=2, seed=args.seed, init_scale=0.5)
    schedule = ScheduleState(t_n=150, t_0=100, t_1=200)
    err = finite_diff_check(model, scene, schedule, method="opis", seed=args.seed)
    print(f"max relative gradient error: {err:.3e}")
    if err <= 1e-5:
        return EXIT_OK
    print("gradient check FAILED (tolerance 1e-5)", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_sample_demo(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    t_0, t_1 = config.t_0, config.total_iterations
    iteration = args.iteration if args.iteration is not None else t_0
    if not t_0 <= iteration < t_1:
        raise ConfigError(f"--iteration must lie in the fine-tuning range [{t_0}, {t_1}), got {iteration}")
    schedule = config.schedule(iteration)

    scene = _dataset(config.scene, config.seed, 1)[0]
    if args.model is not None:
        model = _load_model(args.model, config)
    else:
        model = ToyModel.initialize(
            config.scene.num_classes, config.scene.feature_dim, config.refinements, config.seed, config.init_scale
        )
    try:
        scores = forward(model, scene)
    except ValueError as exc:
        return _scoring_failure(exc)
    print(f"scene {scene.scene_id}, iteration {iteration}: T={schedule.t_progress:.4f} "
          f"mu={schedule.mu:.4f} I_t={schedule.neglect:.4f}")
    width = (schedule.lambda_ng - schedule.lambda_ig) / N_BINS
    # The trace is of the sampler, so run the pipeline with instance balance
    # on whatever [train] method says, and print the counts that pass recorded.
    balance = supervise_scene(scene, scores, schedule, "pib_only", config.seed, iteration).balance
    for row, drew in enumerate(balance.drew):
        print(f"branch {row + 1}:")
        for c in (np.flatnonzero(scene.image_label) + 1).tolist():
            n_pos, n_neg, target = int(balance.n_pos[row, c]), int(balance.n_neg[row, c]), balance.target[row, c]
            if n_pos == 0:
                print(f"  class {c}: center absorbed by a lower class, skipped")
            elif n_neg == 0:
                kept = "center only" if balance.fired[row, c] else "all positives"
                print(f"  class {c}: n_pos={n_pos} n_neg=0 -> neglect rule keeps {kept}")
            else:
                # A group that drew takes min(n_pos, supply) from each bin and
                # tops up to its target; any other keeps every negative.
                supply = balance.supply[row, c]
                stage1 = np.minimum(supply, n_pos) if drew[c] else supply
                selected = int(target) if drew[c] else n_neg
                print(f"  class {c}: n_pos={n_pos} n_neg={n_neg} target={target:.15g}")
                for j, (members, picked) in enumerate(zip(supply.tolist(), stage1.tolist())):
                    lo = schedule.lambda_ig + j * width
                    print(f"    bin [{lo:.3f},{lo + width:.3f}): {members} negatives, stage-1 selected {picked}")
                print(f"    stage-2 top-up: {selected - int(stage1.sum())}")
                print(f"    selected |N'| = {selected}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opis", description="Instance-balanced weak-detection experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model and write its logs")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--method", choices=METHODS)
    p_train.add_argument("--iterations-override", type=int, dest="iterations_override")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model on a regenerated scene set")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--dataset-seed", type=int, dest="dataset_seed")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="run a method x seed grid and tabulate metrics")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--methods", default=",".join(METHODS))
    p_cmp.add_argument("--seeds", default="0,1,2,3,4")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--iterations-override", type=int, dest="iterations_override")
    p_cmp.set_defaults(func=cmd_compare)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_demo = sub.add_parser("sample-demo", help="trace the negative sampler on one seeded scene")
    p_demo.add_argument("--config", required=True)
    p_demo.add_argument("--iteration", type=int)
    p_demo.add_argument("--model")
    p_demo.add_argument("--seed", type=int)
    p_demo.set_defaults(func=cmd_sample_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergence as exc:
        snapshot = f" {exc.snapshot}" if exc.snapshot else ""
        print(f"numerical failure at iteration {exc.iteration}: {exc}{snapshot}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
