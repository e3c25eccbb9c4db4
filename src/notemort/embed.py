"""Skip-gram word embeddings pretrained on the full note corpus.

Word-level skip-gram with negative sampling. Training is
single-threaded and bit-reproducible given a seed. The padding row is
reserved at id 0, stays zero, and is never updated.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError
from .ndcore.tensor import _sigmoid
from .notesproc import OOV_ID, PAD_ID, open_text

PAD_TOKEN = "<pad>"


@dataclass
class Vocabulary:
    """Word id i is id_to_token[i]. Id PAD_ID is the pad: it has a row
    but no token maps to it."""

    id_to_token: list[str]
    frequencies: list[int]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token) if i != PAD_ID}

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
    """|V| x d input vectors. Row PAD_ID must be the zero vector, a
    DataError otherwise: the note lookup reads it for PAD and OOV ids."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ConfigurationError("embedding matrix must be 2-D")
        # sliced, so that a matrix with no rows passes instead of raising IndexError
        if self.vectors[PAD_ID:PAD_ID + 1].any():
            raise DataError(f"row {PAD_ID} is the pad row and must be zero")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]


def build_vocab(corpus: Iterable[Sequence[str]], min_count: int = 20) -> Vocabulary:
    """Count tokens over the corpus, keep strictly more frequent than
    min_count, and assign ids by descending frequency then token text."""
    if min_count < 0:
        raise ConfigurationError(f"min_count must be >= 0, got {min_count}")
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
    return Vocabulary([PAD_TOKEN] + [tok for tok, _ in kept], [0] + [n for _, n in kept])


# -- skip-gram training -------------------------------------------------------------

# negatives per pair (word2vec's default, Mikolov et al. 2013), pairs per update
NEGATIVES = 5
BATCH_PAIRS = 256


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
    drawn uniformly from [1, window]; center-major, each center's
    contexts in sentence order."""
    n = len(sentence)
    radii = rng.integers(1, window + 1, size=n)
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    positions = np.arange(n)[:, None] + offsets
    keep = (np.abs(offsets) <= radii[:, None]) & (positions >= 0) & (positions < n)
    return np.repeat(sentence, keep.sum(axis=1)), sentence[positions[keep]]


def _batches(sentences, window, rng):
    """(centers, contexts) of whole sentences in corpus order, cut as
    soon as a batch holds BATCH_PAIRS pairs. A sentence's radii are
    drawn only after the previous batch has been used."""
    buf_c: list[np.ndarray] = []
    buf_x: list[np.ndarray] = []
    buffered = 0
    for sentence in sentences:
        c, x = _collect_pairs(sentence, window, rng)
        if len(c) == 0:
            continue
        buf_c.append(c)
        buf_x.append(x)
        buffered += len(c)
        if buffered >= BATCH_PAIRS:
            yield np.concatenate(buf_c), np.concatenate(buf_x)
            buf_c, buf_x, buffered = [], [], 0
    if buf_c:
        yield np.concatenate(buf_c), np.concatenate(buf_x)


def train_skipgram(
    corpus: Sequence[Sequence[int]],
    vocab: Vocabulary,
    dim: int = 200,
    window: int = 6,
    epochs: int = 100,
    lr: float = 0.3,
    seed: int = 0,
) -> SkipgramResult:
    """Minimize the negative-sampling loss over (center, context) pairs.

    corpus holds sentences of vocabulary ids (out-of-vocabulary words
    already dropped). Updates are mini-batch SGD at a constant learning
    rate over batches of BATCH_PAIRS pairs (see `_sgd_batch`); each pair
    draws NEGATIVES negatives from the unigram^(3/4) table. Returns the
    input-vector matrix plus per-epoch mean pair losses. A non-finite
    batch loss raises FloatingPointError.
    """
    for name, value, ok, rule in (
        ("dim", dim, dim >= 1, ">= 1"),
        ("window", window, window >= 1, ">= 1"),
        ("epochs", epochs, epochs >= 1, ">= 1"),
        ("lr", lr, math.isfinite(lr) and lr > 0, "finite and > 0"),
    ):
        if not ok:
            raise ConfigurationError(f"skip-gram {name} must be {rule}, got {value}")
    if not corpus:
        raise DataError("train_skipgram: empty corpus")
    rng = np.random.default_rng(seed)
    v_size = vocab.size
    vec_in = (rng.random((v_size, dim)) - 0.5) / dim
    vec_in[PAD_ID] = 0.0
    vec_out = np.zeros((v_size, dim))
    cdf = _negative_table(vocab)

    sentences = [np.asarray(s, dtype=np.int64) for s in corpus if len(s) > 0]
    if not any(len(s) > 1 for s in sentences):
        raise DataError("train_skipgram: no sentence has two words, so there is no pair")
    if any(s.min() < 0 or s.max() >= v_size for s in sentences):
        raise DataError(f"train_skipgram: word ids must lie in [0, {v_size})")
    work = _Workspace()
    epoch_losses: list[float] = []
    # a diverging run raises FloatingPointError below instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            loss_sum = 0.0
            n_pairs = 0
            for centers, contexts in _batches(sentences, window, rng):
                negs = np.searchsorted(cdf, rng.random((len(centers), NEGATIVES)))
                loss = _sgd_batch(vec_in, vec_out, centers, contexts, negs, lr, work)
                if not math.isfinite(loss):
                    raise FloatingPointError(
                        f"skip-gram loss is {loss} in epoch {epoch + 1} at lr {lr}"
                    )
                loss_sum += loss
                n_pairs += len(centers)
            epoch_losses.append(loss_sum / n_pairs)

    return SkipgramResult(EmbeddingMatrix(vec_in), epoch_losses)


class _Workspace:
    """Named buffers that `_sgd_batch` writes into, kept across batches
    and grown on demand. A batch-sized temporary freed every batch is
    given back to the system and page-faulted in again by the next."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _sgd_batch(vec_in, vec_out, centers, contexts, negs, lr, work=None) -> float:
    """One mini-batch SGD step on the summed pair loss; returns that sum.

    Each pair steps by lr / (pairs in the batch) along its own gradient,
    and a row moves by the sum of the steps of the pairs that touch it.
    At desk scale that is about 7e-4 per pair against word2vec's 0.025,
    which leaves the vectors undertrained (ROADMAP item 1). Word ids
    must lie in the matrices' rows. The padding rows stay zero.
    """
    work = _Workspace() if work is None else work
    batch, n_neg = negs.shape
    dim = vec_in.shape[1]
    # column 0 is the true context, columns 1.. the negatives
    out_rows = work.array("out_rows", (batch, n_neg + 1), np.int64)
    out_rows[:, 0] = contexts
    out_rows[:, 1:] = negs
    center_vecs = np.take(
        vec_in, centers, axis=0, out=work.array("center_vecs", (batch, dim)), mode="clip"
    )
    out_vecs = np.take(
        vec_out, out_rows, axis=0, out=work.array("out_vecs", (batch, n_neg + 1, dim)),
        mode="clip",
    )
    # with pos negated, every term of the pair loss is log(1 + exp(score))
    scores = np.einsum("bkd,bd->bk", out_vecs, center_vecs)
    scores[:, 0] *= -1.0
    loss = float(np.logaddexp(0.0, scores).sum())
    # dL/d pos = -sigmoid(-pos) and dL/d neg = sigmoid(neg)
    grad_scores = _sigmoid(scores)
    grad_scores[:, 0] *= -1.0

    grad_center = np.einsum(
        "bk,bkd->bd", grad_scores, out_vecs, out=work.array("grad_center", (batch, dim))
    )
    grad_out = np.multiply(grad_scores[:, :, None], center_vecs[:, None, :], out=out_vecs)
    step = lr / batch
    _scatter_sub(vec_out, out_rows.reshape(-1), grad_out.reshape(-1, dim), step, work)
    _scatter_sub(vec_in, centers, grad_center, step, work)
    vec_in[PAD_ID] = 0.0
    vec_out[PAD_ID] = 0.0
    return loss


def _scatter_sub(matrix, rows, grads, step, work) -> None:
    """matrix[r] -= step * (sum of grads[i] over i with rows[i] == r).

    A stable sort of the rows puts each row's gradients in one run,
    `np.add.reduceat` sums every run in one call, and each touched row
    is read, reduced and written back once."""
    # numpy radix-sorts 16-bit keys, in linear time; the order is the same
    keys = rows.astype(np.uint16) if len(matrix) <= 1 << 16 else rows
    order = np.argsort(keys, kind="stable")
    sorted_rows = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    dim = grads.shape[1]
    run = np.take(grads, order, axis=0, out=work.array("sorted", grads.shape), mode="clip")
    sums = np.add.reduceat(run, starts, axis=0, out=work.array("sums", (len(starts), dim)))
    sums *= step
    touched = sorted_rows[starts]
    current = np.take(matrix, touched, axis=0, out=run[: len(touched)], mode="clip")
    matrix[touched] = np.subtract(current, sums, out=current)


# -- vocabulary and embedding file formats -----------------------------------------------


def write_vocab(path, vocab: Vocabulary) -> None:
    """Text format: one `token<TAB>id<TAB>frequency` line per id, in id order."""
    with open(path, "w", encoding="utf-8") as handle:
        for idx, token in enumerate(vocab.id_to_token):
            handle.write(f"{token}\t{idx}\t{vocab.frequencies[idx]}\n")


def read_vocab(path) -> Vocabulary:
    """The file `write_vocab` writes; a malformed line is a DataError
    naming the file and the line."""
    id_to_token: list[str] = []
    frequencies: list[int] = []
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                token, idx, freq = line.rstrip("\n").split("\t")
                if int(idx) != len(id_to_token):
                    raise ValueError("vocabulary ids are not contiguous")
                frequencies.append(int(freq))
                id_to_token.append(token)
            except ValueError as exc:
                raise DataError(f"{path}: {exc} (line {lineno})") from exc
    return Vocabulary(id_to_token, frequencies)


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
    """The file `save_embeddings` writes; a malformed line is a DataError
    naming the file and the line."""
    tokens = []
    with open_text(path) as handle:
        line = 1
        try:
            header = handle.readline().split()
            if len(header) != 2:
                raise ValueError("malformed embedding header")
            v_size, dim = int(header[0]), int(header[1])
            vectors = np.zeros((v_size, dim))
            for idx in range(v_size):
                line += 1
                parts = handle.readline().rstrip("\n").split(" ")
                if len(parts) != dim + 1:
                    raise ValueError(f"row {idx} has wrong dimension")
                tokens.append(parts[0])
                vectors[idx] = [float(p) for p in parts[1:]]
        except UnicodeDecodeError:
            raise  # open_text names its line
        except ValueError as exc:
            raise DataError(f"{path}: {exc} (line {line})") from exc
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: row {bad[0]} has a non-finite value (line {bad[0] + 2})")
    try:
        return tokens, EmbeddingMatrix(vectors)
    except DataError as exc:
        raise DataError(f"{path}: {exc} (line {PAD_ID + 2})") from exc
