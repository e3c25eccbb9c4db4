"""One model graph over ndcore layers, in three configurations.

Notes branch: a per-note encoder (stacked Conv1D / SpatialDropout /
BatchNorm / ReLU blocks with residual connections, then masked global
average pooling) shared across all notes of a stay, feeding a
bidirectional GRU over the note sequence.

CTS branch: a two-layer bidirectional GRU over hourly physiology
channels concatenated with their missingness indicators.

A sigmoid head reads the concatenated final vectors of the present
branches. Notes-HCR has the notes branch, CTS-RNN the CTS branch and
MM-HCR both (BRANCHES); dropout precedes the head whenever CTS is there.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .embed import EmbeddingMatrix
from .errors import ConfigurationError, DataError
from .ndcore import (
    BatchNormParams,
    BiGruParams,
    Conv1dParams,
    DenseParams,
    GruDirectionParams,
    Tensor,
    bigru,
    batchnorm,  # not called here: perfbench/spans.py traces models.batchnorm
    concat,
    conv1d,
    conv_block_train,
    dense_sigmoid,
    fold_batchnorm,
    global_avg_pool,
    no_grad,
    parameter,
    spatial_dropout,  # not called here: perfbench/spans.py traces models.spatial_dropout
)
from .ndcore.layers import NoteRows, dropout
from .notesproc import OOV_ID, PAD_ID
from .cohort import N_TS_VARIABLES

NOTES_HCR = "notes-hcr"
CTS_RNN = "cts-rnn"
MM_HCR = "mm-hcr"
# kind -> branches it has; every per-kind structural choice reads this table
BRANCHES = {NOTES_HCR: ("notes",), CTS_RNN: ("cts",), MM_HCR: ("notes", "cts")}
MODEL_KINDS = tuple(BRANCHES)
# the paper's fixed structure: conv blocks per note encoder and their
# kernel width, the spatial dropout rate inside each block, dropout
# before the head, and the batch-norm variance floor and momentum
CONV_BLOCKS = 3
KERNEL_SIZE = 3
SPATIAL_DROPOUT = 0.5
FUSION_DROPOUT = 0.3
BN_EPS = 1e-5
BN_MOMENTUM = 0.99


def branches(kind: str) -> tuple[str, ...]:
    """The branches ("notes", "cts") of a model kind."""
    if kind not in BRANCHES:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    return BRANCHES[kind]


@dataclass(frozen=True)
class ModelConfig:
    note_len: int = 500
    embed_dim: int = 200
    filters: int = 200
    conv_decay: float = 1e-5
    temporal_hidden: int = 64
    cts_hidden: tuple[int, int] = (32, 16)
    cts_decay: float = 1e-3

    def validate(self) -> None:
        if len(self.cts_hidden) != 2:
            raise ConfigurationError(
                "cts_hidden must list exactly two sizes, got "
                + ",".join(str(h) for h in self.cts_hidden)
            )
        extents = (self.note_len, self.embed_dim, self.filters, self.temporal_hidden,
                   *self.cts_hidden)
        if any(e < 1 for e in extents):
            raise ConfigurationError("all model extents must be positive")
        if not (math.isfinite(self.conv_decay) and self.conv_decay >= 0.0):
            raise ConfigurationError(f"conv_decay must be finite and >= 0, got {self.conv_decay}")
        if not (math.isfinite(self.cts_decay) and self.cts_decay >= 0.0):
            raise ConfigurationError(f"cts_decay must be finite and >= 0, got {self.cts_decay}")

    def hash(self) -> str:
        text = ",".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- parameter containers -----------------------------------------------------------


@dataclass
class ConvBlockParams:
    conv: Conv1dParams
    shortcut: Conv1dParams | None  # 1x1 projection when channel counts differ
    norm: BatchNormParams


@dataclass
class CtsParams:
    layer1: BiGruParams
    layer2: BiGruParams


@dataclass
class Model:
    """Parameters of one model; an absent branch is None.

    Field order is checkpoint entry order and field names are entry-name
    prefixes. Every tensor with two or more axes under a field whose
    metadata names a decay is L2-penalised at that ModelConfig rate.
    """

    semantical: list[ConvBlockParams] | None = field(metadata={"decay": "conv_decay"})
    temporal: BiGruParams | None
    cts: CtsParams | None = field(metadata={"decay": "cts_decay"})
    head: DenseParams


# -- initialization -------------------------------------------------------------------


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    fan_in = int(np.prod(shape[:-1])) if len(shape) > 1 else shape[0]
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return parameter(rng.uniform(-limit, limit, size=shape))


def _init_conv(rng, kernel: int, c_in: int, c_out: int) -> Conv1dParams:
    return Conv1dParams(
        kernels=_glorot(rng, (kernel, c_in, c_out)),
        bias=parameter(np.zeros(c_out)),
    )


def _init_bn(channels: int) -> BatchNormParams:
    return BatchNormParams(
        gamma=parameter(np.ones(channels)),
        beta=parameter(np.zeros(channels)),
        running_mean=np.zeros(channels),
        running_var=np.ones(channels),
        eps=BN_EPS,
        momentum=BN_MOMENTUM,
    )


def _init_gru_direction(rng, dim_in: int, hidden: int) -> GruDirectionParams:
    return GruDirectionParams(
        w_z=_glorot(rng, (dim_in, hidden)), u_z=_glorot(rng, (hidden, hidden)),
        b_z=parameter(np.zeros(hidden)),
        w_r=_glorot(rng, (dim_in, hidden)), u_r=_glorot(rng, (hidden, hidden)),
        b_r=parameter(np.zeros(hidden)),
        w_h=_glorot(rng, (dim_in, hidden)), u_h=_glorot(rng, (hidden, hidden)),
        b_h=parameter(np.zeros(hidden)),
    )


def _init_bigru(rng, dim_in: int, hidden: int) -> BiGruParams:
    return BiGruParams(
        fwd=_init_gru_direction(rng, dim_in, hidden),
        bwd=_init_gru_direction(rng, dim_in, hidden),
    )


def _init_block(rng, c_in: int, cfg: ModelConfig) -> ConvBlockParams:
    # the shortcut draws before the conv: the stream older weights came from
    shortcut = _init_conv(rng, 1, c_in, cfg.filters) if c_in != cfg.filters else None
    conv = _init_conv(rng, KERNEL_SIZE, c_in, cfg.filters)
    return ConvBlockParams(conv, shortcut, _init_bn(cfg.filters))


def init_model(
    kind: str, cfg: ModelConfig, seed: int = 0, embeddings: EmbeddingMatrix | None = None
) -> Model:
    """Fresh parameters of one kind, drawn in a fixed order: conv blocks,
    temporal GRU, CTS layers 1 and 2, head. The word vectors stay frozen
    and are no parameter: `embeddings` is accepted and ignored, for the
    callers that still pass it."""
    has = branches(kind)
    cfg.validate()
    rng = np.random.default_rng(seed)
    semantical = temporal = cts = None
    head_in = 0
    if "notes" in has:
        c_ins = [cfg.embed_dim] + [cfg.filters] * (CONV_BLOCKS - 1)
        semantical = [_init_block(rng, c_in, cfg) for c_in in c_ins]
        temporal = _init_bigru(rng, cfg.filters, cfg.temporal_hidden)
        head_in += 2 * cfg.temporal_hidden
    if "cts" in has:
        h1, h2 = cfg.cts_hidden
        layer1 = _init_bigru(rng, 2 * N_TS_VARIABLES, h1)
        cts = CtsParams(layer1, _init_bigru(rng, 2 * h1, h2))
        head_in += 2 * h2
    head = DenseParams(weight=_glorot(rng, (head_in, 1)), bias=parameter(np.zeros(1)))
    return Model(semantical, temporal, cts, head)


# -- parameter walking ------------------------------------------------------------------


def _leaves(node, prefix: str = "", decay: str | None = None):
    """(entry name, leaf, decay field name or None) for every Tensor and
    ndarray under node, depth first in field order; list items are the
    conv blocks."""
    if isinstance(node, (Tensor, np.ndarray)):
        yield prefix, node, decay
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{prefix}.block{i}", decay)
    elif is_dataclass(node):
        for f in fields(node):
            name = f"{prefix}.{f.name}".lstrip(".")
            yield from _leaves(getattr(node, f.name), name, f.metadata.get("decay", decay))


def named_parameters(params: Model) -> dict[str, Tensor]:
    """Flat name -> learned parameter tensor map, stable order."""
    return {n: t for n, t, _ in _leaves(params) if isinstance(t, Tensor)}


def named_buffers(params: Model) -> dict[str, np.ndarray]:
    """State that is not learned (batchnorm running statistics)."""
    return {n: a for n, a, _ in _leaves(params) if isinstance(a, np.ndarray)}


def decayed_weights(params: Model, cfg: ModelConfig) -> list[tuple[Tensor, float]]:
    """(weight tensor, decay coefficient) pairs for the L2 penalty:
    convolution kernels decay at conv_decay, time-series GRU matrices at
    cts_decay; biases and norm parameters are never decayed."""
    return [
        (t, getattr(cfg, decay)) for _, t, decay in _leaves(params)
        if decay and isinstance(t, Tensor) and len(t.shape) >= 2
    ]


def parameter_count(params: Model) -> int:
    return sum(t.size for t in named_parameters(params).values())


# -- embedding lookup ---------------------------------------------------------------------


def lookup_note_embeddings(ids: np.ndarray, embeddings: EmbeddingMatrix) -> Tensor:
    """Token-id array of any shape -> embedded constant Tensor [..., d].

    OOV positions read the pad row, which EmbeddingMatrix holds at zero,
    so PAD and OOV positions come out as zero vectors.
    """
    ids = np.asarray(ids)
    if ids.min(initial=0) < OOV_ID or ids.max(initial=0) >= embeddings.vocab_size:
        raise DataError("token id out of vocabulary range")
    return Tensor(embeddings.vectors[np.where(ids == OOV_ID, PAD_ID, ids)])


# -- forward passes ------------------------------------------------------------------------


def semantical_forward(
    ids: np.ndarray,
    embeddings: EmbeddingMatrix,
    blocks: list[ConvBlockParams],
    *,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Token ids [N, L] -> document vectors [N, filters].

    The notes are embedded (`lookup_note_embeddings`), and each block
    runs Conv1D, SpatialDropout, BatchNorm, then adds the block input
    (identity shortcut, or a 1x1 projection when channel counts differ)
    and applies ReLU after the addition. A global average pool over the
    lexical axis, over the positions whose id is not PAD_ID (the real
    tokens), produces the document vector. The masked pool is one node.

    In train mode each block is one tape node, `conv_block_train`, whose
    values, gradients and running statistics carry the bits of that
    chain when it computes every row. Eval mode is a forward pass and
    must run under `no_grad` (`forward` does so): SpatialDropout is the
    identity and BatchNorm an affine map per channel, so each block is
    one residual `conv1d` (the convolution with the shortcut add and the
    ReLU fused onto its output) whose kernels and bias have the norm
    folded in (`fold_batchnorm`); the outputs differ from the unfolded
    chain only by rounding.

    Both modes cut each note's padded tail where that pays, by the layout
    `NoteRows` builds from the real-token mask and the blocks' kernels:
    the lookup gathers only its rows, which the blocks and the pool pass
    on packed. Cut notes match the chain over every row up to rounding,
    and uncut ones keep its bits.
    """
    ids = np.asarray(ids)
    mask = ids != PAD_ID
    rows = NoteRows(mask, [block.conv.kernels.shape for block in blocks], training=training)
    x = lookup_note_embeddings(rows.pack(ids), embeddings)
    for block in blocks:
        if training:
            x = conv_block_train(
                x, block.conv, block.norm, block.shortcut, p=SPATIAL_DROPOUT, rng=rng, rows=rows,
            )
        else:
            x = conv1d(
                x, fold_batchnorm(block.conv, block.norm), rows=rows,
                residual=True, shortcut=block.shortcut,
            )
    return global_avg_pool(x, mask=mask, rows=rows)


def temporal_forward(doc_vectors: Tensor, params: BiGruParams) -> Tensor:
    """Document vectors [B, T, filters] (or [T, filters]) -> patient
    vector [B, 2 * hidden]: the bidirectional GRU's final state."""
    _, final = bigru(doc_vectors, params)
    return final


def cts_forward(values: np.ndarray, obs_masks: np.ndarray, params: CtsParams) -> Tensor:
    """values/obs_masks [B, W, N_TS_VARIABLES] -> time-series features [B, 2 * h2].

    values are already standardized; the input concatenates them with
    their missingness indicators, layer 1 emits per-step outputs that
    layer 2 consumes.
    """
    if values.shape[-1] != N_TS_VARIABLES:
        raise DataError(
            f"time series has {values.shape[-1]} channels, expected {N_TS_VARIABLES}"
        )
    x = Tensor(np.concatenate([values, obs_masks.astype(np.float64)], axis=-1))
    step_outputs, _ = bigru(x, params.layer1)
    _, features = bigru(step_outputs, params.layer2)
    return features


def forward(
    model: Model, cfg: ModelConfig, embeddings: EmbeddingMatrix | None = None, *,
    ids: np.ndarray | None = None,
    values: np.ndarray | None = None, obs_masks: np.ndarray | None = None,
    training: bool = False, rng: np.random.Generator | None = None,
) -> Tensor:
    """Probabilities [B] for one batch; each branch reads only its inputs.

    Notes branch: token ids [B, T, L]; all notes share the encoder, which
    pools over the ids that are not PAD_ID. CTS branch: standardized
    values/obs_masks [B, W, F]. The head reads [patient vector || cts
    features], with dropout first whenever the CTS branch is present.
    Eval mode runs under `no_grad`: it records nothing.
    """
    with nullcontext() if training else no_grad():
        features = []
        if model.temporal is not None:
            n_files, n_notes, note_len = ids.shape
            docs = semantical_forward(
                ids.reshape(n_files * n_notes, note_len), embeddings, model.semantical,
                training=training, rng=rng,
            )
            docs = docs.reshape((n_files, n_notes, cfg.filters))
            features.append(temporal_forward(docs, model.temporal))
        if model.cts is not None:
            features.append(cts_forward(values, obs_masks, model.cts))
        x = concat(features, axis=-1) if len(features) > 1 else features[0]
        if model.cts is not None:
            x = dropout(x, FUSION_DROPOUT, training=training, rng=rng)
        return dense_sigmoid(x, model.head)


# -- checkpoint wiring ---------------------------------------------------------------------


def params_to_entries(params: Model) -> dict[str, np.ndarray]:
    entries = {name: t.data for name, t in named_parameters(params).items()}
    entries.update(named_buffers(params))
    return entries


def load_params_from_entries(kind: str, cfg: ModelConfig, entries: dict[str, np.ndarray]):
    """Rebuild a model of this kind and overwrite it with saved arrays."""
    params = init_model(kind, cfg, seed=0)
    targets = named_parameters(params)
    buffers = named_buffers(params)
    expected = set(targets) | set(buffers)
    if expected != set(entries):
        missing = sorted(expected - set(entries))
        extra = sorted(set(entries) - expected)
        raise DataError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
    for name, tensor in targets.items():
        if entries[name].shape != tensor.data.shape:
            raise DataError(f"checkpoint entry {name}: wrong shape")
        tensor.data = entries[name].copy()
    for name, buf in buffers.items():
        if entries[name].shape != buf.shape:
            raise DataError(f"checkpoint entry {name}: wrong shape")
        buf[...] = entries[name]
    return params
