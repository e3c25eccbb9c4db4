"""Skip-gram word embeddings pretrained on the full note corpus.

Word-level skip-gram with negative sampling is the default; an optional
character n-gram mode (3..6-grams hashed into buckets, summed with the
word vector) can be enabled for subword sharing. Training is
single-threaded and bit-reproducible given a seed. The padding row is
reserved at id 0, stays zero, and is never updated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError
from .ndcore.tensor import _sigmoid
from .notesproc import OOV_ID, PAD_ID

PAD_TOKEN = "<pad>"


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]
    frequencies: list[int]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        """Token ids with OOV_ID for unknown words."""
        get = self.token_to_id.get
        return [get(tok, OOV_ID) for tok in tokens]

    def encode_known(self, tokens: Sequence[str]) -> list[int]:
        """Token ids with unknown words dropped (embedding corpus form)."""
        get = self.token_to_id.get
        ids = (get(tok) for tok in tokens)
        return [i for i in ids if i is not None]


@dataclass
class EmbeddingMatrix:
    """|V| x d input vectors; row PAD_ID is the zero vector."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ConfigurationError("embedding matrix must be 2-D")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]


def build_vocab(corpus: Iterable[Sequence[str]], min_count: int = 20) -> Vocabulary:
    """Count tokens over the corpus, keep strictly more frequent than
    min_count, and assign ids by descending frequency then token text."""
    counts: Counter[str] = Counter()
    empty = True
    for tokens in corpus:
        empty = False
        counts.update(tokens)
    if empty:
        raise DataError("build_vocab: empty corpus")
    kept = sorted(
        ((tok, n) for tok, n in counts.items() if n > min_count),
        key=lambda item: (-item[1], item[0]),
    )
    id_to_token = [PAD_TOKEN] + [tok for tok, _ in kept]
    frequencies = [0] + [n for _, n in kept]
    token_to_id = {tok: i for i, tok in enumerate(id_to_token) if i != PAD_ID}
    return Vocabulary(token_to_id, id_to_token, frequencies)


# -- subword option ---------------------------------------------------------------


@dataclass
class SubwordConfig:
    min_n: int = 3
    max_n: int = 6
    buckets: int = 200_000


def _fnv1a(data: bytes) -> int:
    """FNV-1a 64-bit; Python's hash() is salted and unusable here."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def ngram_buckets(token: str, cfg: SubwordConfig) -> np.ndarray:
    """Hashed character n-grams of the <token> form used at train time."""
    wrapped = f"<{token}>"
    grams = []
    for n in range(cfg.min_n, cfg.max_n + 1):
        for i in range(len(wrapped) - n + 1):
            grams.append(_fnv1a(wrapped[i : i + n].encode("utf-8")) % cfg.buckets)
    return np.array(sorted(set(grams)), dtype=np.int64)


# -- skip-gram training -------------------------------------------------------------


@dataclass
class SkipgramResult:
    embeddings: EmbeddingMatrix
    epoch_losses: list[float] = field(default_factory=list)


def _negative_table(vocab: Vocabulary) -> np.ndarray:
    """Cumulative unigram^(3/4) distribution over non-pad ids."""
    freqs = np.asarray(vocab.frequencies, dtype=np.float64)
    weights = freqs ** 0.75
    weights[PAD_ID] = 0.0
    total = weights.sum()
    if total <= 0:
        raise DataError("negative-sampling table: no counted tokens")
    return np.cumsum(weights / total)


def _collect_pairs(
    sentence: np.ndarray, window: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) pairs with a per-center dynamic window radius
    drawn uniformly from [1, window]."""
    n = len(sentence)
    radii = rng.integers(1, window + 1, size=n)
    centers = []
    contexts = []
    for i in range(n):
        lo = max(0, i - int(radii[i]))
        hi = min(n, i + int(radii[i]) + 1)
        for j in range(lo, hi):
            if j != i:
                centers.append(sentence[i])
                contexts.append(sentence[j])
    return (
        np.asarray(centers, dtype=np.int64),
        np.asarray(contexts, dtype=np.int64),
    )


def train_skipgram(
    corpus: Sequence[Sequence[int]],
    vocab: Vocabulary,
    dim: int = 200,
    window: int = 6,
    epochs: int = 100,
    negatives: int = 5,
    lr: float = 0.3,
    seed: int = 0,
    batch_pairs: int = 256,
    subword: SubwordConfig | None = None,
) -> SkipgramResult:
    """Minimize the negative-sampling loss over (center, context) pairs.

    corpus holds sentences of vocabulary ids (out-of-vocabulary words
    already dropped). Updates are mini-batch SGD on the mean pair loss
    at a constant learning rate; negatives are drawn from the
    unigram^(3/4) table. Returns the input-vector matrix plus per-epoch
    mean pair losses.
    """
    if negatives < 1:
        raise ConfigurationError("need at least one negative sample")
    if not corpus:
        raise DataError("train_skipgram: empty corpus")
    rng = np.random.default_rng(seed)
    v_size = vocab.size
    vec_in = (rng.random((v_size, dim)) - 0.5) / dim
    vec_in[PAD_ID] = 0.0
    vec_out = np.zeros((v_size, dim))
    cdf = _negative_table(vocab)

    grams: list[np.ndarray] | None = None
    gram_vecs: np.ndarray | None = None
    if subword is not None:
        grams = [ngram_buckets(tok, subword) for tok in vocab.id_to_token]
        grams[PAD_ID] = np.empty(0, dtype=np.int64)
        gram_vecs = (rng.random((subword.buckets, dim)) - 0.5) / dim

    sentences = [np.asarray(s, dtype=np.int64) for s in corpus if len(s) > 0]
    epoch_losses: list[float] = []
    for _ in range(epochs):
        loss_sum = 0.0
        n_pairs = 0
        buf_c: list[np.ndarray] = []
        buf_x: list[np.ndarray] = []
        buffered = 0

        def flush():
            nonlocal loss_sum, n_pairs, buffered
            if not buf_c:
                return
            centers = np.concatenate(buf_c)
            contexts = np.concatenate(buf_x)
            buf_c.clear()
            buf_x.clear()
            buffered = 0
            negs = np.searchsorted(cdf, rng.random((len(centers), negatives)))
            loss_sum += _sgd_batch(
                vec_in, vec_out, gram_vecs, grams,
                centers, contexts, negs, lr,
            )
            n_pairs += len(centers)

        for sentence in sentences:
            c, x = _collect_pairs(sentence, window, rng)
            if len(c) == 0:
                continue
            buf_c.append(c)
            buf_x.append(x)
            buffered += len(c)
            if buffered >= batch_pairs:
                flush()
        flush()
        epoch_losses.append(loss_sum / max(n_pairs, 1))

    if gram_vecs is not None:
        # materialize word + n-gram sums so downstream lookups stay flat
        final = vec_in.copy()
        for idx, bucket_ids in enumerate(grams):
            if idx != PAD_ID and len(bucket_ids):
                final[idx] += gram_vecs[bucket_ids].sum(axis=0)
        vec_in = final
    vec_in[PAD_ID] = 0.0
    return SkipgramResult(EmbeddingMatrix(vec_in), epoch_losses)


def _sgd_batch(vec_in, vec_out, gram_vecs, grams, centers, contexts, negs, lr) -> float:
    """One mini-batch update on the mean pair loss; returns the summed
    pair loss. Mean gradients keep steps bounded even when a frequent
    word collects many contributions inside one batch."""
    step = lr / len(centers)
    if gram_vecs is None:
        center_vecs = vec_in[centers]
    else:
        center_vecs = vec_in[centers].copy()
        for row, cid in enumerate(centers):
            bucket_ids = grams[cid]
            if len(bucket_ids):
                center_vecs[row] += gram_vecs[bucket_ids].sum(axis=0)

    ctx_vecs = vec_out[contexts]
    neg_vecs = vec_out[negs]

    pos_score = np.einsum("bd,bd->b", center_vecs, ctx_vecs)
    neg_score = np.einsum("bnd,bd->bn", neg_vecs, center_vecs)
    loss = float(np.logaddexp(0.0, -pos_score).sum() + np.logaddexp(0.0, neg_score).sum())

    g_pos = _sigmoid(pos_score) - 1.0  # dL/d pos_score
    g_neg = _sigmoid(neg_score)  # dL/d neg_score

    grad_center = g_pos[:, None] * ctx_vecs + np.einsum("bn,bnd->bd", g_neg, neg_vecs)
    grad_ctx = g_pos[:, None] * center_vecs
    grad_negs = g_neg[..., None] * center_vecs[:, None, :]

    np.add.at(vec_out, contexts, -step * grad_ctx)
    np.add.at(vec_out, negs.reshape(-1), -step * grad_negs.reshape(-1, grad_negs.shape[-1]))
    np.add.at(vec_in, centers, -step * grad_center)
    if gram_vecs is not None:
        for row, cid in enumerate(centers):
            bucket_ids = grams[cid]
            if len(bucket_ids):
                np.add.at(gram_vecs, bucket_ids, -step * grad_center[row])
    vec_in[PAD_ID] = 0.0
    vec_out[PAD_ID] = 0.0
    return loss


# -- embedding file format ---------------------------------------------------------------


def save_embeddings(path, vocab: Vocabulary, emb: EmbeddingMatrix) -> None:
    """Text format: first line "|V| d", then one token and d values per line."""
    if emb.vocab_size != vocab.size:
        raise ConfigurationError("embedding rows do not match vocabulary size")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{emb.vocab_size} {emb.dim}\n")
        for idx, token in enumerate(vocab.id_to_token):
            values = " ".join(repr(float(v)) for v in emb.vectors[idx])
            handle.write(f"{token} {values}\n")


def load_embeddings(path) -> tuple[list[str], EmbeddingMatrix]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: malformed embedding header")
        v_size, dim = int(header[0]), int(header[1])
        tokens = []
        vectors = np.zeros((v_size, dim))
        for idx in range(v_size):
            parts = handle.readline().rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise DataError(f"{path}: row {idx} has wrong dimension")
            tokens.append(parts[0])
            vectors[idx] = [float(p) for p in parts[1:]]
    return tokens, EmbeddingMatrix(vectors)
