"""Isolated ndcore and skip-gram probes at the shapes a traced run saw.

    python perfbench/probes.py SPEC.json

SPEC names the op shapes recorded by `spans.Tracer` (the largest call
of each op), the skip-gram vocabulary and corpus, the slice's token
count, and the output path. Each op runs on seeded random inputs: the
forward time and the backward time (of the sum of the output times a
fixed random tensor) are medians over the repeats, and `alloc_mb` is
the tracemalloc peak of one forward plus backward. The skip-gram probe
is one epoch at dim 200 on the corpus's leading slice.
"""

import sys

sys.dont_write_bytecode = True

import json
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from notemort import cli, embed
from notemort.ndcore import (
    BatchNormParams,
    BiGruParams,
    Conv1dParams,
    DenseParams,
    GruDirectionParams,
    Tensor,
    backward,
    batchnorm,
    bigru,
    conv1d,
    dense_sigmoid,
    global_avg_pool,
    l2_penalty,
    parameter,
    spatial_dropout,
)
from step import corpus_slice

OPS = ("conv1d", "batchnorm", "spatial_dropout", "global_avg_pool", "bigru",
       "dense_sigmoid", "l2_penalty")


def _param(rng, *shape):
    return parameter(rng.normal(0.0, 0.1, size=shape))


def _builder(op: str, shape: dict, rng):
    """A closure that builds the op's graph from fresh leaves and returns
    (output tensor, leaves that need gradients)."""
    if op == "l2_penalty":
        weights = [_param(rng, *s) for s in shape["weights"]]
        return lambda: (l2_penalty(weights, shape["lam"]), weights)
    x = _param(rng, *shape["x"])
    if op == "conv1d":
        k, c_in, c_out = shape["kernels"]
        params = Conv1dParams(kernels=_param(rng, k, c_in, c_out), bias=_param(rng, c_out))
        return lambda: (conv1d(x, params), [x, params.kernels, params.bias])
    if op == "batchnorm":
        c = shape["x"][-1]
        params = BatchNormParams(
            gamma=_param(rng, c), beta=_param(rng, c), running_mean=np.zeros(c),
            running_var=np.ones(c), eps=1e-5, momentum=0.99,
        )
        return lambda: (batchnorm(x, params, training=True), [x, params.gamma, params.beta])
    if op == "spatial_dropout":
        return lambda: (
            spatial_dropout(x, shape["p"], training=True, rng=np.random.default_rng(0)), [x]
        )
    if op == "global_avg_pool":
        mask = None
        if shape["masked"]:
            mask = rng.random(shape["x"][:-1]) < 0.6
            mask[..., 0] = True
        return lambda: (global_avg_pool(x, mask=mask), [x])
    if op == "bigru":
        d, h = shape["x"][-1], shape["hidden"]

        def direction():
            return GruDirectionParams(
                w_z=_param(rng, d, h), u_z=_param(rng, h, h), b_z=_param(rng, h),
                w_r=_param(rng, d, h), u_r=_param(rng, h, h), b_r=_param(rng, h),
                w_h=_param(rng, d, h), u_h=_param(rng, h, h), b_h=_param(rng, h),
            )

        params = BiGruParams(fwd=direction(), bwd=direction())
        leaves = [x] + list(params.fwd.all_tensors().values()) + list(
            params.bwd.all_tensors().values()
        )
        return lambda: (bigru(x, params)[0], leaves)
    if op == "dense_sigmoid":
        d_in, d_out = shape["weight"]
        params = DenseParams(weight=_param(rng, d_in, d_out), bias=_param(rng, d_out))
        return lambda: (dense_sigmoid(x, params), [x, params.weight, params.bias])
    raise ValueError(op)


def probe_op(op: str, shape: dict, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    build = _builder(op, shape, rng)
    out, _ = build()
    weight = Tensor(rng.normal(size=out.shape))
    fwd, bwd = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        out, leaves = build()
        mid = time.perf_counter()
        loss = (out * weight).sum()
        for leaf in leaves:
            leaf.grad = None
        backward(loss, leaves)
        fwd.append(mid - start)
        bwd.append(time.perf_counter() - mid)
        del out, loss
    tracemalloc.start()
    try:
        out, leaves = build()
        backward((out * weight).sum(), leaves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"fwd_s": statistics.median(fwd), "bwd_s": statistics.median(bwd),
            "alloc_mb": peak / 2**20}


def probe_skipgram(vocab_path: Path, corpus_path: Path, tokens: int, seed: int) -> float:
    vocab = cli.read_vocab(vocab_path)
    with open(corpus_path, encoding="utf-8") as handle:
        sentences = corpus_slice((json.loads(line) for line in handle), tokens)
    start = time.perf_counter()
    embed.train_skipgram(sentences, vocab, dim=200, window=6, epochs=1, seed=seed)
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = {"ops": {}, "errors": []}
    for op in OPS:
        shape = spec["shapes"].get(f"ndcore.{op}")
        if shape is None:
            continue
        try:
            result["ops"][op] = probe_op(op, shape, spec["repeats"])
        except Exception as exc:  # reported as a failed probe
            result["errors"].append(f"{op}: {type(exc).__name__}: {exc}")
    if spec.get("corpus"):
        result["skipgram_d200_s"] = probe_skipgram(
            Path(spec["vocab"]), Path(spec["corpus"]), spec["slice_tokens"], spec["seed"]
        )
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
