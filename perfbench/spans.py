"""In-memory span recorder that wraps notemort's public functions.

A traced process calls `install()` before running any program code.
Each wrapped attribute is the one its caller actually looks up (for
example `notemort.traineval.backward`, not only `ndcore.backward`), so
every call made through that name opens a span: name, start, end and
the enclosing span. Spans stay in memory until `dump()` writes them.
Wrapping never changes arguments or results, so traced and untraced
runs compute the same outputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

# (module[:class], attribute, span name). `Tracer._label` refines some
# names per call with the model kind and the eval mode.
TARGETS = [
    ("notemort.cli", "generate_synthetic", "synth.generate"),
    ("notemort.synth", "generate_synthetic", "synth.generate"),
    ("notemort.synth:SyntheticTables", "write", "synth.write"),
    ("notemort.notesproc", "read_notes_csv", "notesproc.read_notes_csv"),
    ("notemort.notesproc", "clean_text", "notesproc.clean_text"),
    ("notemort.notesproc", "tokenize_filter", "notesproc.tokenize_filter"),
    ("notemort.notesproc", "read_clean_notes", "notesproc.read_clean_notes"),
    ("notemort.pipeline", "preprocess_notes", "pipeline.preprocess_notes"),
    ("notemort.pipeline", "build_window_cohort", "pipeline.build_window_cohort"),
    ("notemort.pipeline", "build_dataset", "pipeline.build_dataset"),
    ("notemort.pipeline", "impute_timeseries", "cohort.impute_timeseries"),
    ("notemort.cli", "train_skipgram", "embed.train_skipgram"),
    ("notemort.embed", "train_skipgram", "embed.train_skipgram"),
    ("notemort.cli", "save_embeddings", "embed.save_embeddings"),
    ("notemort.cli", "load_embeddings", "embed.load_embeddings"),
    ("notemort.embed", "load_embeddings", "embed.load_embeddings"),
    ("notemort.cohort", "read_admissions_csv", "cohort.read_tables"),
    ("notemort.cohort", "read_icustays_csv", "cohort.read_tables"),
    ("notemort.cohort", "read_timeseries_csv", "cohort.read_timeseries_csv"),
    ("notemort.cohort", "grouped_kfold", "cohort.grouped_kfold"),
    ("notemort.models", "init_model", "models.init_model"),
    ("notemort.models", "params_to_entries", "models.params_to_entries"),
    ("notemort.models", "lookup_note_embeddings", "models.lookup_note_embeddings"),
    ("notemort.models", "semantical_forward", "models.semantical_forward"),
    ("notemort.models", "temporal_forward", "models.temporal_forward"),
    ("notemort.models", "conv1d", "ndcore.conv1d"),
    ("notemort.models", "batchnorm", "ndcore.batchnorm"),
    ("notemort.models", "spatial_dropout", "ndcore.spatial_dropout"),
    ("notemort.models", "global_avg_pool", "ndcore.global_avg_pool"),
    ("notemort.models", "bigru", "ndcore.bigru"),
    ("notemort.models", "dense_sigmoid", "ndcore.dense_sigmoid"),
    ("notemort.traineval", "l2_penalty", "ndcore.l2_penalty"),
    ("notemort.traineval", "batch_forward", "traineval.forward"),
    ("notemort.traineval", "backward", "traineval.backward"),
    ("notemort.traineval", "make_batches", "traineval.make_batches"),
    ("notemort.ndcore.optim:AmsGrad", "step", "traineval.optim"),
    ("notemort.cli", "save_checkpoint", "ndcore.save_checkpoint"),
    ("notemort.cli", "write_manifest", "cli.manifest"),
    ("notemort.cli", "require_stage", "cli.manifest"),
]

# spans whose name carries the model kind of the surrounding training
PER_KIND = {"traineval.backward", "traineval.optim"}


def _shape(x) -> list[int]:
    return [int(n) for n in getattr(x, "shape", ())]


def _conv_shape(args, kwargs):
    x, params = args[0], args[1]
    return {"x": _shape(x), "kernels": _shape(params.kernels)}


def _plain_shape(args, kwargs):
    return {"x": _shape(args[0])}


def _pool_shape(args, kwargs):
    mask = args[1] if len(args) > 1 else kwargs.get("mask")
    return {"x": _shape(args[0]), "masked": mask is not None}


def _bigru_shape(args, kwargs):
    return {"x": _shape(args[0]), "hidden": _shape(args[1].fwd.b_z)[0]}


def _dense_shape(args, kwargs):
    return {"x": _shape(args[0]), "weight": _shape(args[1].weight)}


def _l2_shape(args, kwargs):
    return {"weights": [_shape(w) for w in args[0]], "lam": float(args[1])}


def _dropout_shape(args, kwargs):
    return {"x": _shape(args[0]), "p": float(args[1])}


def _work(shape: dict) -> int:
    """Rough size of a recorded call, to keep the largest one per op."""
    if "weights" in shape:
        return sum(math.prod(w) for w in shape["weights"])
    size = math.prod(shape["x"])
    if "kernels" in shape:
        size *= math.prod(shape["kernels"])
    if "hidden" in shape:
        size *= shape["hidden"] * (shape["x"][-1] + shape["hidden"])
    return size


SHAPE_RECORDERS = {
    "ndcore.conv1d": _conv_shape,
    "ndcore.batchnorm": _plain_shape,
    "ndcore.spatial_dropout": _dropout_shape,
    "ndcore.global_avg_pool": _pool_shape,
    "ndcore.bigru": _bigru_shape,
    "ndcore.dense_sigmoid": _dense_shape,
    "ndcore.l2_penalty": _l2_shape,
}


class Tracer:
    """Span list, open-span stack and the model kind being trained."""

    def __init__(self, process: str):
        self.process = process
        self.spans: list[dict] = []
        self.shapes: dict[str, dict] = {}
        self.kind: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, **extra) -> None:
        """Record a span measured outside a wrapper (e.g. process start-up)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end,
             "parent": parent, "process": self.process, **extra}
        )

    def _label(self, name: str, args, kwargs) -> tuple[str, dict]:
        extra: dict = {}
        if name == "traineval.forward":
            self.kind = args[0]
            if not kwargs.get("training", False):
                name = "traineval.eval_forward"
            name = f"{name}.{self.kind}"
        elif name == "models.init_model":
            self.kind = args[0]
        elif name in PER_KIND:
            name = f"{name}.{self.kind}"
        elif name == "embed.train_skipgram":
            epochs = kwargs.get("epochs", 100)
            extra["tokens"] = sum(len(s) for s in args[0]) * epochs
            extra["dim"] = kwargs.get("dim", 200)
        recorder = SHAPE_RECORDERS.get(name)
        if recorder is not None:
            shape = recorder(args, kwargs)
            best = self.shapes.get(name)
            if best is None or _work(shape) > _work(best):
                self.shapes[name] = shape
        return name, extra

    def _wrap(self, func, base_name: str):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name, extra = self._label(base_name, args, kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = {"id": span_id, "name": name, "start": 0.0, "end": 0.0,
                      "parent": parent, "process": self.process, **extra}
            self.spans.append(record)
            self._stack.append(span_id)
            record["start"] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        for owner_path, attr, name in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name))

    def dump(self) -> dict:
        return {"spans": self.spans, "shapes": self.shapes, "missing": self.missing}


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
