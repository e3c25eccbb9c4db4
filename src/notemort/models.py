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
    batchnorm,
    concat,
    conv1d,
    dense_sigmoid,
    global_avg_pool,
    parameter,
    spatial_dropout,
)
from .ndcore.layers import dropout
from .notesproc import OOV_ID, PAD_ID
from .cohort import N_TS_VARIABLES

NOTES_HCR = "notes-hcr"
CTS_RNN = "cts-rnn"
MM_HCR = "mm-hcr"
# kind -> branches it has; every per-kind structural choice reads this table
BRANCHES = {NOTES_HCR: ("notes",), CTS_RNN: ("cts",), MM_HCR: ("notes", "cts")}
MODEL_KINDS = tuple(BRANCHES)


def branches(kind: str) -> tuple[str, ...]:
    """The branches ("notes", "cts") of a model kind."""
    if kind not in BRANCHES:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    return BRANCHES[kind]


@dataclass(frozen=True)
class ModelConfig:
    note_len: int = 500
    embed_dim: int = 200
    conv_blocks: int = 3
    filters: int = 200
    kernel_size: int = 3
    spatial_dropout: float = 0.5
    conv_decay: float = 1e-5
    temporal_hidden: int = 64
    cts_features: int = N_TS_VARIABLES
    cts_hidden: tuple[int, int] = (32, 16)
    cts_decay: float = 1e-3
    fusion_dropout: float = 0.3
    train_embeddings: bool = False
    bn_eps: float = 1e-5
    bn_momentum: float = 0.99

    def validate(self) -> None:
        if len(self.cts_hidden) != 2:
            raise ConfigurationError(
                "cts_hidden must list exactly two sizes, got "
                + ",".join(str(h) for h in self.cts_hidden)
            )
        extents = (
            self.note_len, self.embed_dim, self.conv_blocks, self.filters,
            self.kernel_size, self.temporal_hidden, self.cts_features,
            *self.cts_hidden,
        )
        if any(e < 1 for e in extents):
            raise ConfigurationError("all model extents must be positive")
        # written as `not (ok)` so that a NaN fails each check
        if not self.conv_decay >= 0.0:
            raise ConfigurationError(f"conv_decay must be >= 0, got {self.conv_decay}")
        if not self.cts_decay >= 0.0:
            raise ConfigurationError(f"cts_decay must be >= 0, got {self.cts_decay}")
        if not self.bn_eps > 0.0:
            raise ConfigurationError(f"bn_eps must be > 0, got {self.bn_eps}")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ConfigurationError(f"bn_momentum must be in [0, 1], got {self.bn_momentum}")
        for p in (self.spatial_dropout, self.fusion_dropout):
            if not 0.0 <= p < 1.0:
                raise ConfigurationError(f"dropout probability {p} outside [0, 1)")
        if self.kernel_size % 2 == 0:
            raise ConfigurationError("kernel size must be odd for same padding")

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
    """Parameters of one model; an absent branch, or an embedding that is
    not fine-tuned, is None.

    Field order is checkpoint entry order and field names are entry-name
    prefixes. Every tensor with two or more axes under a field whose
    metadata names a decay is L2-penalised at that ModelConfig rate.
    """

    semantical: list[ConvBlockParams] | None = field(metadata={"decay": "conv_decay"})
    temporal: BiGruParams | None
    cts: CtsParams | None = field(metadata={"decay": "cts_decay"})
    head: DenseParams
    embedding: Tensor | None = field(metadata={"entry": "embedding.vectors"})


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


def _init_bn(channels: int, cfg: ModelConfig) -> BatchNormParams:
    return BatchNormParams(
        gamma=parameter(np.ones(channels)),
        beta=parameter(np.zeros(channels)),
        running_mean=np.zeros(channels),
        running_var=np.ones(channels),
        eps=cfg.bn_eps,
        momentum=cfg.bn_momentum,
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
    conv = _init_conv(rng, cfg.kernel_size, c_in, cfg.filters)
    return ConvBlockParams(conv, shortcut, _init_bn(cfg.filters, cfg))


def init_model(
    kind: str, cfg: ModelConfig, seed: int = 0, embeddings: EmbeddingMatrix | None = None
) -> Model:
    """Fresh parameters of one kind, drawn in a fixed order: conv blocks,
    temporal GRU, CTS layers 1 and 2, head. Fine-tuning embeddings
    (notes branch with cfg.train_embeddings) copies `embeddings`."""
    has = branches(kind)
    cfg.validate()
    rng = np.random.default_rng(seed)
    semantical = temporal = cts = embedding = None
    head_in = 0
    if "notes" in has:
        c_ins = [cfg.embed_dim] + [cfg.filters] * (cfg.conv_blocks - 1)
        semantical = [_init_block(rng, c_in, cfg) for c_in in c_ins]
        temporal = _init_bigru(rng, cfg.filters, cfg.temporal_hidden)
        head_in += 2 * cfg.temporal_hidden
        if cfg.train_embeddings:
            if embeddings is None:
                raise ConfigurationError("train_embeddings requires an embedding matrix")
            embedding = parameter(embeddings.vectors.copy())
    if "cts" in has:
        h1, h2 = cfg.cts_hidden
        layer1 = _init_bigru(rng, 2 * cfg.cts_features, h1)
        cts = CtsParams(layer1, _init_bigru(rng, 2 * h1, h2))
        head_in += 2 * h2
    head = DenseParams(weight=_glorot(rng, (head_in, 1)), bias=parameter(np.zeros(1)))
    return Model(semantical, temporal, cts, head, embedding)


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
            name = f"{prefix}.{f.metadata.get('entry', f.name)}".lstrip(".")
            yield from _leaves(getattr(node, f.name), name, f.metadata.get("decay", decay))


def named_parameters(params: Model) -> dict[str, Tensor]:
    """Flat name -> trainable tensor map, stable order."""
    return {n: t for n, t, _ in _leaves(params) if isinstance(t, Tensor)}


def named_buffers(params: Model) -> dict[str, np.ndarray]:
    """Non-trainable state (batchnorm running statistics)."""
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


def lookup_note_embeddings(
    ids: np.ndarray, embeddings: EmbeddingMatrix, trainable: Tensor | None
) -> Tensor:
    """Token-id array of any shape -> embedded Tensor [..., d].

    PAD and OOV positions come out as zero vectors. With a trainable
    embedding tensor the lookup is differentiable and the pad row never
    receives gradient (its forward contribution is masked to zero).
    """
    ids = np.asarray(ids)
    if ids.min(initial=0) < OOV_ID or ids.max(initial=0) >= embeddings.vocab_size:
        raise DataError("token id out of vocabulary range")
    safe = np.where(ids == OOV_ID, PAD_ID, ids)
    real = (safe != PAD_ID).astype(np.float64)[..., None]
    if trainable is None:
        return Tensor(embeddings.vectors[safe] * real)
    return trainable[safe] * real


# -- forward passes ------------------------------------------------------------------------


def semantical_forward(
    notes: Tensor,
    blocks: list[ConvBlockParams],
    cfg: ModelConfig,
    *,
    training: bool,
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Embedded notes [N, L, d] (or [L, d]) -> document vectors [N, filters].

    Each block runs Conv1D, SpatialDropout, BatchNorm, then adds the
    block input (identity shortcut, or a 1x1 projection when channel
    counts differ) and applies ReLU after the addition. A global average
    pool over the lexical axis, over the `mask` positions when given,
    produces the document vector.
    """
    x = notes
    for block in blocks:
        y = conv1d(x, block.conv)
        y = spatial_dropout(y, cfg.spatial_dropout, training=training, rng=rng)
        y = batchnorm(y, block.norm, training=training)
        shortcut = x if block.shortcut is None else conv1d(x, block.shortcut)
        x = (y + shortcut).relu()
    return global_avg_pool(x, mask=mask)


def temporal_forward(doc_vectors: Tensor, params: BiGruParams) -> Tensor:
    """Document vectors [B, T, filters] (or [T, filters]) -> patient
    vector [B, 2 * hidden]: the bidirectional GRU's final state."""
    _, final = bigru(doc_vectors, params)
    return final


def cts_forward(
    values: np.ndarray, obs_masks: np.ndarray, params: CtsParams, cfg: ModelConfig
) -> Tensor:
    """values/obs_masks [B, W, F] -> time-series features [B, 2 * h2].

    values are already standardized; the input concatenates them with
    their missingness indicators, layer 1 emits per-step outputs that
    layer 2 consumes.
    """
    if values.shape[-1] != cfg.cts_features:
        raise ConfigurationError(
            f"time series has {values.shape[-1]} channels, "
            f"config expects {cfg.cts_features}"
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
    """
    features = []
    if model.temporal is not None:
        n_files, n_notes, note_len = ids.shape
        flat_ids = ids.reshape(n_files * n_notes, note_len)
        embedded = lookup_note_embeddings(flat_ids, embeddings, model.embedding)
        docs = semantical_forward(
            embedded, model.semantical, cfg,
            training=training, rng=rng, mask=flat_ids != PAD_ID,
        )
        docs = docs.reshape((n_files, n_notes, cfg.filters))
        features.append(temporal_forward(docs, model.temporal))
    if model.cts is not None:
        features.append(cts_forward(values, obs_masks, model.cts, cfg))
    x = concat(features, axis=-1) if len(features) > 1 else features[0]
    if model.cts is not None:
        x = dropout(x, cfg.fusion_dropout, training=training, rng=rng)
    return dense_sigmoid(x, model.head)


# -- checkpoint wiring ---------------------------------------------------------------------


def params_to_entries(params: Model) -> dict[str, np.ndarray]:
    entries = {name: t.data for name, t in named_parameters(params).items()}
    entries.update(named_buffers(params))
    return entries


def load_params_from_entries(kind: str, cfg: ModelConfig, entries: dict[str, np.ndarray]):
    """Rebuild a model of this kind and overwrite it with saved arrays."""
    embeddings = None
    if cfg.train_embeddings and "notes" in branches(kind):
        if "embedding.vectors" not in entries:
            raise DataError("checkpoint lacks the fine-tuned embedding matrix")
        embeddings = EmbeddingMatrix(entries["embedding.vectors"])
    params = init_model(kind, cfg, seed=0, embeddings=embeddings)
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
