"""Spans around the calls into each paczero module, recorded from outside.

``Tracer.install`` wraps every traced function or method at every place it
can be reached from: the attribute on the module or class that defines it,
and every global of a loaded ``paczero`` module that holds the same object
(each ``from .x import f`` site). ``uninstall`` puts the originals back. A
layer that a refactor stops calling therefore records zero calls instead of
being bypassed unseen, and the workloads fail on that.

Each span records its layer, start, end, parent span and op id in flat
arrays; nothing is aggregated or written until the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

from stats import self_time

# (layer, module, attribute path). The tasks layers wrap the method on every
# task class that defines it.
LAYERS = (
    ("harness.run_experiment", "paczero.harness", "run_experiment"),
    ("harness.write_transcript", "paczero.harness", "write_transcript"),
    ("harness.load_transcript", "paczero.harness", "load_transcript"),
    ("harness.load_design", "paczero.harness", "load_design"),
    ("engine.train", "paczero.engine", "train"),
    ("tasks.per_sample_losses", "paczero.tasks", "LossTask.per_sample_losses"),
    ("tasks.eval_metric", "paczero.tasks", "LossTask.eval_metric"),
    ("rng.direction", "paczero.rng", "direction"),
    ("mechanism.build_balanced_design", "paczero.mechanism", "build_balanced_design"),
    ("mechanism.ReleaseMechanism.step", "paczero.mechanism", "ReleaseMechanism.step"),
    ("mechanism.subset_signs", "paczero.mechanism", "subset_signs"),
    ("mechanism.agreement_probability", "paczero.mechanism", "agreement_probability"),
    (
        "mechanism.Posterior.updated_by_observation",
        "paczero.mechanism",
        "Posterior.updated_by_observation",
    ),
    ("binary_channel.invert_channel_mi", "paczero.binary_channel", "invert_channel_mi"),
    ("binary_channel.channel_mi", "paczero.binary_channel", "channel_mi"),
    ("accounting.validate_transcript", "paczero.accounting", "validate_transcript"),
    ("adversary.empirical_mia_experiment", "paczero.adversary", "empirical_mia_experiment"),
    ("adversary.replay_posterior", "paczero.adversary", "replay_posterior"),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)

# Layers whose spans contain other traced spans; they also report self time.
PARENT_LAYERS = frozenset({
    "harness.run_experiment",
    "harness.load_design",
    "engine.train",
    "mechanism.ReleaseMechanism.step",
    "binary_channel.invert_channel_mi",
    "accounting.validate_transcript",
    "adversary.empirical_mia_experiment",
    "adversary.replay_posterior",
})

CHANNEL_MI = "binary_channel.channel_mi"
INVERSION = "binary_channel.invert_channel_mi"
# channel_mi is also reported split by the layer that called it.
CHANNEL_MI_CALLERS = {
    INVERSION: CHANNEL_MI + ".inversion",
    "accounting.validate_transcript": CHANNEL_MI + ".validator",
}
BYTES_LAYERS = ("harness.write_transcript", "harness.load_transcript")
RATIOS = (
    "binary_channel.evals_per_inversion",
    "mechanism.free_fraction",
    "mechanism.disagreement_share",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer in LAYER_NAMES:
        names += [f"{layer}.calls", f"{layer}.ms"]
        if layer in PARENT_LAYERS:
            names.append(f"{layer}.self_ms")
        names.append(f"{layer}.errors")
        if layer in BYTES_LAYERS:
            names.append(f"{layer}.bytes")
    for sub in CHANNEL_MI_CALLERS.values():
        names += [f"{sub}.calls", f"{sub}.ms"]
    return names + list(RATIOS)


def _paczero_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "paczero" or name.startswith("paczero."))
    ]


def _owners(module_name: str, path: str) -> list[tuple[object, str]]:
    """Where the traced callable lives: (module, name) for a function, or
    (class, name) for each class that defines the method."""
    module = sys.modules[module_name]
    if "." not in path:
        return [(module, path)]
    cls_name, attr = path.split(".")
    cls = getattr(module, cls_name)
    if cls_name == "LossTask":
        found, queue = [], [cls]
        while queue:
            c = queue.pop()
            queue.extend(c.__subclasses__())
            if c is not cls and attr in vars(c):
                found.append((c, attr))
        return found
    return [(cls, attr)]


def _column(values: array) -> np.ndarray:
    # A copy, so that no buffer export keeps the array from growing later.
    return np.frombuffer(values, dtype=np.int64).copy()


class Patcher:
    """Replaces a callable at its owner and at every paczero module global
    bound to the same object, and undoes that in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, wrap) -> list[str]:
        original = vars(owner)[attr]
        replacement = wrap(original)
        sites = [(owner, attr)]
        if not isinstance(owner, type):
            sites += [
                (module, name)
                for module in _paczero_modules()
                for name, value in vars(module).items()
                if value is original and not (module is owner and name == attr)
            ]
        for site, name in sites:
            self._undo.append((site, name, original))
            setattr(site, name, replacement)
        return [
            f"{site.__module__}.{site.__qualname__}.{name}" if isinstance(site, type)
            else f"{site.__name__}.{name}"
            for site, name in sites
        ]

    def restore(self) -> None:
        while self._undo:
            site, name, original = self._undo.pop()
            setattr(site, name, original)


def capture_results(module_name: str, attr: str, sink: list) -> Patcher:
    """Patch a function everywhere so that each result is appended to sink."""

    def wrap(fn):
        @functools.wraps(fn)
        def capturing(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result

        return capturing

    patcher = Patcher()
    patcher.replace(sys.modules[module_name], attr, wrap)
    return patcher


class Tracer:
    """In-memory span recorder around the paczero layers."""

    def __init__(self):
        self.layer = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self.errors: Counter = Counter()
        self.bytes: Counter = Counter()
        self.branches: Counter = Counter()
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._patcher = Patcher()

    def install(self) -> None:
        posts = {
            "harness.write_transcript": self._count_written,
            "harness.load_transcript": self._count_loaded,
            "mechanism.ReleaseMechanism.step": self._count_released,
        }
        for index, (layer, module_name, path) in enumerate(LAYERS):
            sites = []
            for owner, attr in _owners(module_name, path):
                wrap = functools.partial(self._wrap, index, layer, posts.get(layer))
                sites += self._patcher.replace(owner, attr, wrap)
            self.sites[layer] = sites

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, index: int, layer: str, post, fn):
        layers, starts, ends = self.layer, self.start, self.end
        parents, ops, stack, errors = self.parent, self.op, self._stack, self.errors
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            layers.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(-1)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def _count_written(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.bytes["harness.write_transcript"] += os.path.getsize(path)

    def _count_loaded(self, args, kwargs, transcript) -> None:
        path = args[0] if args else kwargs["path"]
        self.bytes["harness.load_transcript"] += os.path.getsize(path)
        self.branches.update(record.branch for record in transcript.records)

    def _count_released(self, args, kwargs, result) -> None:
        self.branches.update(record.branch for record in result[1])

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every recorded span, keyed as in
        ``metric_names``."""
        layer, start, end, parent = map(_column, (self.layer, self.start, self.end, self.parent))
        duration = end - start

        calls = np.bincount(layer, minlength=len(LAYERS))
        total_ns = np.bincount(layer, weights=duration, minlength=len(LAYERS))

        # Children of each span, as contiguous slices of the spans sorted by parent.
        by_parent = np.argsort(parent, kind="stable")
        sorted_parent = parent[by_parent]
        self_ns = Counter()
        for index, name in enumerate(LAYER_NAMES):
            if name not in PARENT_LAYERS:
                continue
            for span in np.flatnonzero(layer == index):
                lo, hi = np.searchsorted(sorted_parent, [span, span + 1])
                kids = by_parent[lo:hi]
                self_ns[name] += self_time(
                    int(start[span]), int(end[span]),
                    list(zip(start[kids].tolist(), end[kids].tolist())),
                )

        out: dict[str, float] = {}
        for index, name in enumerate(LAYER_NAMES):
            out[f"{name}.calls"] = int(calls[index])
            out[f"{name}.ms"] = total_ns[index] / 1e6
            if name in PARENT_LAYERS:
                out[f"{name}.self_ms"] = self_ns[name] / 1e6
            out[f"{name}.errors"] = self.errors[name]
            if name in BYTES_LAYERS:
                out[f"{name}.bytes"] = self.bytes[name]

        channel = layer == LAYER_NAMES.index(CHANNEL_MI)
        caller_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
        for caller, sub in CHANNEL_MI_CALLERS.items():
            mask = channel & (caller_layer == LAYER_NAMES.index(caller))
            out[f"{sub}.calls"] = int(mask.sum())
            out[f"{sub}.ms"] = float(duration[mask].sum()) / 1e6

        inversions = out[f"{INVERSION}.calls"]
        out["binary_channel.evals_per_inversion"] = (
            out[CHANNEL_MI_CALLERS[INVERSION] + ".calls"] / inversions if inversions else 0.0
        )
        releases = sum(self.branches.values())
        out["mechanism.free_fraction"] = (
            self.branches["unanimity"] / releases if releases else 0.0
        )
        out["mechanism.disagreement_share"] = (
            self.branches["disagreement"] / releases if releases else 0.0
        )
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as columns of one compressed numpy archive."""
        np.savez_compressed(
            path,
            layer_names=np.array(LAYER_NAMES),
            layer=_column(self.layer),
            start_ns=_column(self.start),
            end_ns=_column(self.end),
            parent=_column(self.parent),
            op=_column(self.op),
        )
