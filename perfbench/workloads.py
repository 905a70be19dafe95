"""Workloads, the reference suite, and the measured loops.

A run of a workload has three parts.

1. Set-up: the workload's inputs, made from the seed.  The reference
   suite's fixed inputs are built once, outside the timed set-up.
2. A closed loop, one client: rounds of calls, one call after another, for
   about ``--seconds`` and at least ``MIN_ROUNDS`` rounds.  A round is one
   more timed set-up, so that the set-up's median spans the run; the
   workload's own calls on its seeded inputs; and one call on reference
   inputs for each metric family (training, evaluation, comparison grid) the
   workload's own calls do not produce.  Every repeat of a call must
   reproduce that call's first outputs exactly.
3. The golden check: each reference case once, against the goldens.

Timings are the best over rounds of identical calls: on a machine shared
with other tenants a call's time swings by up to 1.6x, over seconds and over
minutes, and the best of many repeats is what stays steadiest.

Calls into the program go through module attributes (``harness.train``), so
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from opis import cli, evaluation, harness

import goldens
from tracing import NAMES, Tracer, call_edges, summarize

WORLD = harness.SceneConfig()
WIDE = harness.SceneConfig(num_proposals=600)
EVAL_SCENES = 50  # scenes per evaluate_scenes call in the timed loops
COMPARE_THREADS = 2  # = nproc of the machine the benchmark was tuned on
MIN_ROUNDS = 3
# Share of a traced run spent on the reference grid, which gives the cli
# layer's metrics.
CLI_SHARE = 0.2
# The tail is taken over the per-iteration best times, one value per distinct
# iteration; its percentile is the highest with at least ten iterations beyond
# it in the shortest training call (100 iterations on train_baseline_wide).
TAIL = 90.0

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


@dataclass
class Sample:
    """One call of an operation: its wall time, work units and outputs."""

    wall: float
    units: int
    summary: object
    iter_ms: list[float] = field(default_factory=list)
    finetune: list[bool] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    # The wall split into parts that recur in every repeat of the call: per
    # scene and the rest of an evaluation, per call of a traced-run unit.
    parts: list[float] = field(default_factory=list)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)


def attempt(tally: Tally, label: str, fn: Callable[[], Sample], golden=None, same_as=None) -> Sample | None:
    """Run one call; divergences, errors and wrong outputs count as failed."""
    tally.attempted += 1
    try:
        sample = fn()
    except harness.TrainingDivergence as exc:
        tally.fail(f"{label}: divergence at iteration {exc.iteration}: {exc}")
        return None
    except Exception:
        tally.fail(f"{label}: {traceback.format_exc()}")
        return None
    problems = list(sample.problems)
    if golden is not None:
        diff = goldens.mismatches(golden, sample.summary)
        if diff:
            problems.append(f"{len(diff)} golden mismatches, first {diff[0]}")
    if same_as is not None and sample.summary != same_as:
        problems.append("output differs from the first call on the same inputs")
    if problems:
        tally.fail(f"{label}: {'; '.join(problems)}")
    return sample


# --- operations -------------------------------------------------------------


def train_op(config: harness.TrainConfig, dataset) -> Sample:
    start = time.perf_counter()
    model, log = harness.train(config, dataset)
    wall = time.perf_counter() - start
    problems = [
        f"iteration {r.iteration}: {r.neg_after} negatives kept of {r.neg_before}"
        for r in log.records
        if r.neg_after > r.neg_before or (config.method in ("baseline", "pir_only") and r.neg_after != r.neg_before)
    ]
    return Sample(
        wall=wall,
        units=config.total_iterations,
        summary=goldens.train_summary(model, log),
        iter_ms=[r.wallclock_ms for r in log.records],
        finetune=[r.phase == "finetune" for r in log.records],
        problems=problems[:1],
    )


def eval_op(model: harness.ToyModel, scenes) -> Sample:
    """One evaluate_scenes call.  A thin timer around ``evaluation.detect``
    times each scene, so that the call's best time can be taken scene by
    scene, as a training call's is taken iteration by iteration."""
    detect, detect_s = evaluation.detect, []

    def timed_detect(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return detect(*args, **kwargs)
        finally:
            detect_s.append(time.perf_counter() - t0)

    evaluation.detect = timed_detect
    try:
        start = time.perf_counter()
        report, records = evaluation.evaluate_scenes(model, scenes)
        wall = time.perf_counter() - start
    finally:
        evaluation.detect = detect
    problems = []
    if not (0.0 <= report.mean_ap <= 1.0 and 0.0 <= report.corloc <= 1.0):
        problems.append(f"mAP {report.mean_ap} or CorLoc {report.corloc} outside [0, 1]")
    if report.num_detections != len(records) or report.num_scenes != len(scenes):
        problems.append("report counts disagree with the detections returned")
    return Sample(wall=wall, units=len(scenes), summary=goldens.eval_summary(report, records, scenes),
                  problems=problems, parts=[*detect_s, wall - sum(detect_s)])


def compare_op(grid: dict, threads: int) -> Sample:
    out = grid["out"]
    csv = out / "compare.csv"
    csv.unlink(missing_ok=True)
    argv = ["compare", "--config", str(grid["ini"]), "--methods", grid["methods"], "--seeds", grid["seeds"],
            "--out", str(out), "--iterations-override", str(grid["iterations"])]
    previous = os.environ.get("OPIS_THREADS")
    os.environ["OPIS_THREADS"] = str(threads)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        if previous is None:
            del os.environ["OPIS_THREADS"]
        else:
            os.environ["OPIS_THREADS"] = previous
    if code != 0:
        return Sample(wall=wall, units=0, summary=None, problems=[f"compare exited with code {code}"])
    methods = grid["methods"].split(",")
    cells = len(methods) * len(grid["seeds"].split(","))
    summary = goldens.compare_summary(csv.read_text())
    problems = []
    if len(summary) != cells + len(methods):
        problems.append("compare.csv has the wrong row count")
    if not all(0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0 for row in summary):
        problems.append("a compare.csv mAP or CorLoc lies outside [0, 1]")
    return Sample(wall=wall, units=cells, summary=summary, problems=problems)


def _grid(name: str, train_section: str, methods: str, seeds: str, iterations: int) -> dict:
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)
    ini = out / "config.ini"
    ini.write_text(f"[train]\n{train_section}")
    return {"out": out, "ini": ini, "methods": methods, "seeds": seeds, "iterations": iterations}


def _load_model() -> harness.ToyModel:
    return harness.ToyModel.from_json(goldens.MODEL.read_text())


# --- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # the metric family its own calls produce: train or eval
    setup: Callable[[int], dict]
    calls: Callable[[dict], list[Callable[[], Sample]]]  # one round


OPIS_FINETUNE = dict(method="opis", t0_fraction=0.1, iterations_override=150, scene=WORLD)
BASELINE_WIDE = dict(method="baseline", iterations_override=100, scene=WIDE)


def _train_setup(params: dict) -> Callable[[int], dict]:
    def setup(seed: int) -> dict:
        config = harness.TrainConfig(seed=seed, **params)
        return {"config": config, "dataset": harness.generate_dataset(config.scene, seed, config.scenes_per_epoch)}

    return setup


def _eval_setup(seed: int) -> dict:
    return {"model": _load_model(), "scenes": harness.generate_dataset(WORLD, seed, EVAL_SCENES)}


def _train_calls(inputs: dict) -> list[Callable[[], Sample]]:
    return [lambda: train_op(inputs["config"], inputs["dataset"])]


def _eval_calls(inputs: dict) -> list[Callable[[], Sample]]:
    return [lambda: eval_op(inputs["model"], inputs["scenes"])]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_opis_finetune", "train", _train_setup(OPIS_FINETUNE), _train_calls),
        Workload("train_baseline_wide", "train", _train_setup(BASELINE_WIDE), _train_calls),
        Workload("eval_default", "eval", _eval_setup, _eval_calls),
    )
}


# --- reference suite ------------------------------------------------------------

# The golden training cases: the training workloads' configurations on seed 0
# and 40 scenes.
REF_OPIS = harness.TrainConfig(seed=0, scenes_per_epoch=40, **OPIS_FINETUNE)
REF_WIDE = harness.TrainConfig(seed=0, scenes_per_epoch=40, **BASELINE_WIDE)
REF_EVAL_SCENES = 100  # the program's default eval set: TrainConfig.eval_seed, eval_scenes


def reference_setup(goldens_data: dict) -> dict:
    return {
        "goldens": goldens_data,
        "opis_data": harness.generate_dataset(WORLD, REF_OPIS.seed, REF_OPIS.scenes_per_epoch),
        "wide_data": harness.generate_dataset(WIDE, REF_WIDE.seed, REF_WIDE.scenes_per_epoch),
        "model": _load_model(),
        "eval_scenes": harness.generate_dataset(WORLD, harness.TrainConfig().eval_seed, REF_EVAL_SCENES),
        "grid": _grid("reference_compare", "scenes_per_epoch = 20\neval_scenes = 10\n", "baseline,opis", "0", 60),
    }


# Golden cases, named after the workloads whose code paths they cover.
REFERENCE = {
    "train_opis_finetune": lambda r: train_op(REF_OPIS, r["opis_data"]),
    "train_baseline_wide": lambda r: train_op(REF_WIDE, r["wide_data"]),
    "eval_default": lambda r: eval_op(r["model"], r["eval_scenes"]),
    "cli_compare": lambda r: compare_op(r["grid"], COMPARE_THREADS),
}

# Calls on reference inputs added to each round, for the metric family a
# workload's own calls lack.  The timed evaluation is one call on the first
# EVAL_SCENES scenes of the default eval set; the timed grid is the golden
# compare grid.
SECONDARY = {
    "train": lambda r: [lambda: train_op(REF_OPIS, r["opis_data"])],
    "eval": lambda r: [lambda: eval_op(r["model"], r["eval_scenes"][:EVAL_SCENES])],
    "compare": lambda r: [lambda: compare_op(r["grid"], COMPARE_THREADS)],
}


def _grid_calls(ref: dict) -> list[Callable[[], Sample]]:
    """The reference grid in parallel, then serially: ``cli._run_cell`` and
    the layers under it run in this process, and so are traced, only in the
    serial grid."""
    return [lambda: compare_op(ref["grid"], COMPARE_THREADS), lambda: compare_op(ref["grid"], 1)]


def reference_summaries(ref: dict) -> dict:
    return {name: op(ref).summary for name, op in REFERENCE.items()}


def check_goldens(ref: dict, tally: Tally) -> dict[str, Sample | None]:
    return {name: attempt(tally, f"golden {name}", lambda: op(ref), golden=ref["goldens"][name])
            for name, op in REFERENCE.items()}


# --- measured runs --------------------------------------------------------------


def measure(label: str, calls: list, seconds: float, tally: Tally) -> list[list[Sample]]:
    """Rounds of every call until another round would end past ``seconds``;
    samples per call."""
    per_call: list[list[Sample]] = [[] for _ in calls]
    rounds, last_round = 0, 0.0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last_round < seconds:
        rounds += 1
        round_start = time.perf_counter()
        for samples, call in zip(per_call, calls):
            first = samples[0].summary if samples else None
            sample = attempt(tally, f"{label} round {rounds}", call, same_as=first)
            if sample is not None:
                samples.append(sample)
        last_round = time.perf_counter() - round_start
    return per_call


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _best_wall(samples: list[Sample]) -> float:
    """A call's best time over its repeats: the sum of its parts' minima if
    it has parts, else the lower quartile of its walls."""
    if samples[0].parts:
        return float(np.array([s.parts for s in samples]).min(axis=0).sum())
    return _grid_wall([s.wall for s in samples])


def _grid_wall(walls) -> float:
    """A comparison grid's best time over its repeats.  Its cells run in
    forked workers, so it cannot be timed by parts.  Its minimum needs a
    repeat in which both workers ran unhindered at once, which is rare on a
    shared 2-vCPU host.  Over ten runs of each workload there, the minimum's
    quartile spread was 0.13-0.23 of its median and the lower quartile's
    0.05-0.12."""
    return float(np.percentile(walls, 25))


def _best_rate(per_call: list[list[Sample]]) -> float:
    """Work units per second, each call counted at its best time."""
    timed = [s for s in per_call if s]
    wall = sum(_best_wall(s) for s in timed)
    return sum(s[0].units for s in timed) / wall if wall else 0.0


def _train_metrics(per_call: list[list[Sample]]) -> dict:
    samples = per_call[0]
    if not samples:
        return dict.fromkeys(("train_iters_per_s", "train_iter_ms_p50", "train_iter_ms_tail", "finetune_iter_ms_p50"), 0.0)
    iter_ms = np.array([s.iter_ms for s in samples])
    best = iter_ms.min(axis=0)  # each iteration at its best over the rounds
    return {
        "train_iters_per_s": 1e3 * best.size / best.sum(),
        "train_iter_ms_p50": _median(best),
        "train_iter_ms_tail": float(np.percentile(best, TAIL)),
        "finetune_iter_ms_p50": _median(best[np.array(samples[0].finetune)]),
    }


def setup_op(workload: Workload, seed: int) -> Sample:
    start = time.perf_counter()
    workload.setup(seed)
    return Sample(wall=time.perf_counter() - start, units=0, summary=None)


def run_end_to_end(workload: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Metrics of an untraced run, and notes on how they were measured."""
    ref = reference_setup(goldens.load())
    start = time.perf_counter()
    inputs = workload.setup(seed)
    setup_times = [time.perf_counter() - start]
    calls = [("setup", lambda: setup_op(workload, seed))]
    calls += [(workload.kind, call) for call in workload.calls(inputs)]
    for kind, secondary_calls in SECONDARY.items():
        if kind != workload.kind:
            calls += [(kind, call) for call in secondary_calls(ref)]
    per_call = measure(workload.name, [call for _, call in calls], seconds, tally)
    measured = {kind: [s for (k, _), s in zip(calls, per_call) if k == kind] for kind in SECONDARY}
    setup_times += [s.wall for s in per_call[0]]
    rss_mb = peak_rss_mb(resource.RUSAGE_SELF)  # before the golden check's own work
    checked = check_goldens(ref, tally)
    quality = checked["eval_default"].summary if checked["eval_default"] else {"mean_ap": 0.0, "corloc": 0.0}
    metrics = {
        "setup_s": _median(setup_times),
        "peak_rss_mb": rss_mb,
        **_train_metrics(measured["train"]),
        "eval_scenes_per_s": _best_rate(measured["eval"]),
        "compare_cells_per_s": _best_rate(measured["compare"]),
        "map": quality["mean_ap"],
        "corloc": quality["corloc"],
    }
    notes = {
        "rounds": {kind: [len(s) for s in per_call] for kind, per_call in measured.items()},
        "call_wall_s": {kind: [[s.wall for s in samples] for samples in per_call] for kind, per_call in measured.items()},
        "train_iterations": sum(len(s.iter_ms) for s in measured["train"][0]),
        "train_iter_ms_tail_percentile": TAIL,
        "measured_on": {kind: "workload calls" if kind == workload.kind else "reference calls" for kind in SECONDARY},
        "map_corloc_from": "golden case: stored opis model on the program's default 100-scene eval set",
        "setup_s_all": setup_times,
        "peak_rss_mb_children": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    return metrics, notes


def peak_rss_mb(who: int) -> float:
    """Peak resident set of this process, or of its largest waited-for child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class TracedUnits:
    """Alternating untraced and traced repeats of one unit of calls."""

    summaries: list[dict] = field(default_factory=list)
    plain_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    plain_parts: list[list[float]] = field(default_factory=list)
    edges: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)  # the first traced unit's kept results


def trace_units(label: str, unit: Callable[[], Sample], until: float, tally: Tally) -> TracedUnits:
    """Repeat an untraced then a traced ``unit`` until ``until`` (at least
    once).  Call counts come from the first traced unit and must repeat
    exactly in the others."""
    tracer, out = Tracer(), TracedUnits()
    while not out.summaries or time.perf_counter() < until:
        t0 = time.perf_counter()
        sample = attempt(tally, f"{label} untraced unit", unit)
        out.plain_s.append(time.perf_counter() - t0)
        if sample is not None:
            out.plain_parts.append(sample.parts)
        tracer.clear()
        with tracer:
            t0 = time.perf_counter()
            attempt(tally, f"{label} traced unit", unit, same_as=sample.summary if sample else None)
            out.traced_s.append(time.perf_counter() - t0)
        summary = summarize(tracer.spans)
        if out.summaries and summary["calls"] != out.summaries[0]["calls"]:
            tally.attempted += 1
            tally.fail(f"{label}: traced call counts differ between units on the same inputs")
        if not out.summaries:
            out.edges = call_edges(tracer.spans)
            out.results = {name: list(values) for name, values in tracer.results.items()}
        out.summaries.append(summary)
    return out


def _unit(inputs: Callable[[], dict], calls: Callable[[dict], list[Callable[[], Sample]]]) -> Callable[[], Sample]:
    def unit() -> Sample:
        samples = [call() for call in calls(inputs())]
        return Sample(wall=sum(s.wall for s in samples), units=0, summary=[s.summary for s in samples],
                      problems=[p for s in samples for p in s.problems], parts=[s.wall for s in samples])

    return unit


def _layer_metrics(units: TracedUnits, names) -> dict[str, float]:
    first, metrics = units.summaries[0], {}
    for name in names:
        calls = first["calls"][name]
        self_ms = _median([s["self_s"][name] for s in units.summaries]) * 1e3
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = self_ms
        metrics[f"{name}.us_per_call"] = self_ms * 1e3 / calls if calls else 0.0
    return metrics


def run_traced(workload: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics.  A unit is the workload's set-up plus one round of
    its own calls; every layer but cli is taken from these units.  The cli
    layer is taken from units of the reference grid, run in parallel and
    then serially, in the last ``CLI_SHARE`` of the time."""
    ref = reference_setup(goldens.load())
    start = time.perf_counter()
    own = trace_units(workload.name, _unit(lambda: workload.setup(seed), workload.calls),
                      start + (1.0 - CLI_SHARE) * seconds, tally)
    grid = trace_units("reference grid", _unit(lambda: ref, _grid_calls), start + seconds, tally)

    first = own.summaries[0]
    metrics = _layer_metrics(own, [n for n in NAMES if not n.startswith("cli.")])
    metrics.update(_layer_metrics(grid, [n for n in NAMES if n.startswith("cli.")]))
    finetune = [r for _, log in own.results.get("harness.train", []) for r in log.records if r.phase == "finetune"]
    neg_before = sum(r.neg_before for r in finetune)
    nms_calls = first["calls"]["geometry.nms_indices"]
    eval_scenes = first["calls"]["evaluation.detect"]
    metrics["geometry.pairwise_iou.calls_per_nms"] = first["iou_in_nms"] / nms_calls if nms_calls else 0.0
    metrics["harness.forward.calls_per_eval_scene"] = first["forward_in_eval"] / eval_scenes if eval_scenes else 0.0
    metrics["sampling.neg_keep_ratio"] = sum(r.neg_after for r in finetune) / neg_before if neg_before else 0.0
    metrics["evaluation.detections"] = sum(
        report.num_detections for report, _ in own.results.get("evaluation.evaluate_scenes", []))
    metrics["cli.compare.speedup_vs_serial"] = _speedup(grid.plain_parts)
    metrics["tracing_overhead_pct"] = (_median(own.traced_s) / _median(own.plain_s) - 1.0) * 100.0

    check_goldens(ref, tally)
    notes = {"traced_units": len(own.summaries), "untraced_wall_s": own.plain_s, "traced_wall_s": own.traced_s,
             "call_edges": own.edges, "grid_traced_units": len(grid.summaries),
             "grid_untraced_call_wall_s": grid.plain_parts, "grid_call_edges": grid.edges}
    return metrics, notes


def _speedup(parts: list[list[float]]) -> float:
    """Serial grid wall over parallel grid wall, each at its best over the
    untraced units."""
    if not parts:
        return 0.0
    parallel, serial = zip(*parts)
    return _grid_wall(serial) / _grid_wall(parallel)


def write_record(record: dict, workload: str, seed: int, trace: int) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path
