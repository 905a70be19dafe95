"""Span tracer installed from outside the program.

The tracer replaces selected public functions of ``opis`` with timing
wrappers.  A wrapper is installed in every ``opis`` module namespace that
binds the original function, because callers look names up in their own
module (``opis.harness.assign_labels``, ``opis.evaluation.forward``,
``opis.geometry.pairwise_iou``, ...).  ``SamplerRng.generator`` is a method,
so it is patched on the class.  Every span records its parent, so a
function's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (defining module, attribute path) of every traced callable.  The span name
# is "<module>.<attribute path>".
TRACED = (
    ("geometry", "pairwise_iou"),
    ("geometry", "nms_indices"),
    ("harness", "forward"),
    ("supervision", "select_cluster_centers"),
    ("supervision", "assign_labels"),
    ("sampling", "SamplerRng.generator"),
    ("sampling", "sample_negatives"),
    ("sampling", "reselect_positives"),
    ("sampling", "apply_selection_mask"),
    ("reweighting", "reweight_branch"),
    ("losses", "refinement_loss"),
    ("losses", "refinement_loss_grad"),
    ("harness", "generate_dataset"),
    ("harness", "build_branch_supervision"),
    ("harness", "scene_pass"),
    ("harness", "train"),
    ("evaluation", "evaluate_scenes"),
    ("evaluation", "detect"),
    ("evaluation", "corloc"),
    ("cli", "main"),
    ("cli", "_run_cell"),
)
NAMES = tuple(f"{mod}.{path}" for mod, path in TRACED)

# Spans whose return values the benchmark reads (training logs, eval reports).
_KEEP_RESULTS = ("harness.train", "evaluation.evaluate_scenes")


class Tracer:
    """Collects spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = self.results[name] if name in _KEEP_RESULTS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "opis" or n.startswith("opis.")]
        for (mod, path), name in zip(TRACED, NAMES):
            owner = sys.modules[f"opis.{mod}"]
            if "." in path:  # a method: patch it on its class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def clear(self) -> None:
        self.spans.clear()
        for values in self.results.values():
            values.clear()


def summarize(spans: list[list]) -> dict:
    """Per-name calls and self seconds, plus the nesting-dependent counts."""
    child = [0.0] * len(spans)
    in_eval = [False] * len(spans)
    calls: dict[str, int] = dict.fromkeys(NAMES, 0)
    self_s: dict[str, float] = dict.fromkeys(NAMES, 0.0)
    iou_in_nms = forward_in_eval = 0
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, parent, start, end) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        in_eval[i] = name == "evaluation.evaluate_scenes" or (parent >= 0 and in_eval[parent])
        if name == "geometry.pairwise_iou" and parent_name == "geometry.nms_indices":
            iou_in_nms += 1
        if name == "harness.forward" and in_eval[i]:
            forward_in_eval += 1
    return {"calls": calls, "self_s": self_s, "iou_in_nms": iou_in_nms, "forward_in_eval": forward_in_eval}


def call_edges(spans: list[list]) -> dict[str, int]:
    """Call counts per "parent -> child" edge, for the trace file."""
    edges: dict[str, int] = defaultdict(int)
    for name, parent, _, _ in spans:
        edges[f"{spans[parent][0] if parent >= 0 else '<op>'} -> {name}"] += 1
    return dict(sorted(edges.items()))
