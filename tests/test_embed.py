"""Vocabulary and skip-gram training: boundaries, planted structure,
gradient correctness, determinism, file format."""

import numpy as np
import pytest

from notemort.errors import ConfigurationError, DataError
from notemort.embed import (
    EmbeddingMatrix,
    SubwordConfig,
    _sgd_batch,
    build_vocab,
    load_embeddings,
    ngram_buckets,
    save_embeddings,
    train_skipgram,
)
from notemort.models import lookup_note_embeddings
from notemort.notesproc import OOV_ID, PAD_ID


def corpus_with_counts(counts: dict[str, int]):
    return [[token] * n for token, n in counts.items()]


class TestBuildVocab:
    def test_min_count_is_strict(self):
        vocab = build_vocab(corpus_with_counts({"kept": 21, "dropped": 20}), min_count=20)
        assert "kept" in vocab.token_to_id
        assert "dropped" not in vocab.token_to_id
        assert all(f > 20 for i, f in enumerate(vocab.frequencies) if i != PAD_ID)

    def test_ids_by_frequency_then_lexicographic(self):
        vocab = build_vocab(
            corpus_with_counts({"beta": 30, "alpha": 30, "zeta": 40}), min_count=20
        )
        assert vocab.id_to_token[:1] == ["<pad>"]
        assert vocab.id_to_token[1:] == ["zeta", "alpha", "beta"]
        assert vocab.frequencies[0] == 0
        assert list(range(vocab.size)) == sorted(
            [PAD_ID] + [vocab.token_to_id[t] for t in ("zeta", "alpha", "beta")]
        )

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([], min_count=20)

    def test_encode_marks_oov(self):
        vocab = build_vocab(corpus_with_counts({"word": 25}), min_count=20)
        assert vocab.encode(["word", "unknown"]) == [vocab.token_to_id["word"], OOV_ID]
        assert vocab.encode_known(["word", "unknown"]) == [vocab.token_to_id["word"]]


def planted_corpus(vocab_tokens, pair_sentences, repeats):
    corpus = []
    for _ in range(repeats):
        corpus.extend([list(s) for s in pair_sentences])
    vocab = build_vocab(corpus, min_count=1)
    encoded = [vocab.encode_known(s) for s in corpus]
    return vocab, encoded


def test_loss_nonincreasing_over_first_epochs():
    rng = np.random.default_rng(0)
    tokens = [f"tok{i}" for i in range(10)]
    sentences = [
        [tokens[int(i)] for i in rng.integers(0, 10, size=12)] for _ in range(80)
    ]
    vocab = build_vocab(sentences, min_count=1)
    encoded = [vocab.encode_known(s) for s in sentences]
    result = train_skipgram(encoded, vocab, dim=8, window=3, epochs=5, lr=0.05, seed=1)
    losses = result.epoch_losses
    assert len(losses) == 5
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier * 1.05  # nonincreasing within 5% noise


def test_planted_cooccurrence_recovered():
    vocab, encoded = planted_corpus(
        None, [("aa", "bb"), ("cc", "dd")], repeats=150
    )
    result = train_skipgram(encoded, vocab, dim=12, window=2, epochs=25, lr=0.05, seed=3)
    vectors = result.embeddings.vectors

    def cos(u, v):
        return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

    ids = {t: vocab.token_to_id[t] for t in ("aa", "bb", "cc", "dd")}
    intra = [cos(vectors[ids["aa"]], vectors[ids["bb"]]),
             cos(vectors[ids["cc"]], vectors[ids["dd"]])]
    cross = [cos(vectors[ids[a]], vectors[ids[b]])
             for a in ("aa", "bb") for b in ("cc", "dd")]
    assert min(intra) > max(cross)


def test_topic_blocks_recovered():
    rng = np.random.default_rng(5)
    block1 = [f"red{i}" for i in range(6)]
    block2 = [f"blue{i}" for i in range(6)]
    sentences = []
    for _ in range(120):
        pool = block1 if rng.random() < 0.5 else block2
        sentences.append([pool[int(i)] for i in rng.integers(0, 6, size=8)])
    vocab = build_vocab(sentences, min_count=1)
    encoded = [vocab.encode_known(s) for s in sentences]
    result = train_skipgram(encoded, vocab, dim=10, window=3, epochs=20, lr=0.05, seed=6)
    vectors = result.embeddings.vectors

    def mean_cos(tokens_a, tokens_b):
        total, count = 0.0, 0
        for a in tokens_a:
            for b in tokens_b:
                if a == b:
                    continue
                u = vectors[vocab.token_to_id[a]]
                v = vectors[vocab.token_to_id[b]]
                total += float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
                count += 1
        return total / count

    intra = 0.5 * (mean_cos(block1, block1) + mean_cos(block2, block2))
    inter = mean_cos(block1, block2)
    assert intra > inter


def test_single_pair_update_matches_finite_differences():
    rng = np.random.default_rng(7)
    dim = 6
    vec_in = rng.standard_normal((4, dim)) * 0.3
    vec_in[PAD_ID] = 0.0
    vec_out = rng.standard_normal((4, dim)) * 0.3
    center, context, negative = 1, 2, 3
    lr = 1e-3

    def pair_loss(v_in, v_out):
        pos = float(v_in[center] @ v_out[context])
        neg = float(v_in[center] @ v_out[negative])
        return float(np.logaddexp(0, -pos) + np.logaddexp(0, neg))

    # numeric gradient of the pair loss w.r.t. the three touched rows
    h = 1e-6
    grads = {}
    for name, matrix, row in (
        ("center", vec_in, center), ("context", vec_out, context), ("neg", vec_out, negative),
    ):
        g = np.zeros(dim)
        for i in range(dim):
            up, down = matrix.copy(), matrix.copy()
            up[row, i] += h
            down[row, i] -= h
            if matrix is vec_in:
                g[i] = (pair_loss(up, vec_out) - pair_loss(down, vec_out)) / (2 * h)
            else:
                g[i] = (pair_loss(vec_in, up) - pair_loss(vec_in, down)) / (2 * h)
        grads[name] = g

    updated_in = vec_in.copy()
    updated_out = vec_out.copy()
    loss = _sgd_batch(
        updated_in, updated_out, None, None,
        np.array([center]), np.array([context]),
        np.array([[negative]]), lr,
    )
    assert loss == pytest.approx(pair_loss(vec_in, vec_out), rel=1e-12)
    np.testing.assert_allclose(
        (vec_in[center] - updated_in[center]) / lr, grads["center"], atol=1e-6
    )
    np.testing.assert_allclose(
        (vec_out[context] - updated_out[context]) / lr, grads["context"], atol=1e-6
    )
    np.testing.assert_allclose(
        (vec_out[negative] - updated_out[negative]) / lr, grads["neg"], atol=1e-6
    )


def test_training_reproducible_bit_for_bit():
    vocab, encoded = planted_corpus(None, [("aa", "bb", "cc")], repeats=60)
    a = train_skipgram(encoded, vocab, dim=8, window=2, epochs=3, seed=11)
    b = train_skipgram(encoded, vocab, dim=8, window=2, epochs=3, seed=11)
    assert a.embeddings.vectors.tobytes() == b.embeddings.vectors.tobytes()
    assert a.epoch_losses == b.epoch_losses
    c = train_skipgram(encoded, vocab, dim=8, window=2, epochs=3, seed=12)
    assert a.embeddings.vectors.tobytes() != c.embeddings.vectors.tobytes()


def test_pad_row_never_updated():
    vocab, encoded = planted_corpus(None, [("aa", "bb", "cc", "dd")], repeats=50)
    result = train_skipgram(encoded, vocab, dim=8, window=3, epochs=4, seed=2)
    np.testing.assert_array_equal(result.embeddings.vectors[PAD_ID], np.zeros(8))


def test_subword_mode_trains_and_differs():
    vocab, encoded = planted_corpus(None, [("walking", "walked"), ("talking", "talked")], repeats=60)
    plain = train_skipgram(encoded, vocab, dim=8, window=2, epochs=3, seed=4)
    sub = train_skipgram(
        encoded, vocab, dim=8, window=2, epochs=3, seed=4,
        subword=SubwordConfig(buckets=512),
    )
    assert plain.embeddings.vectors.shape == sub.embeddings.vectors.shape
    assert plain.embeddings.vectors.tobytes() != sub.embeddings.vectors.tobytes()
    np.testing.assert_array_equal(sub.embeddings.vectors[PAD_ID], np.zeros(8))
    grams = ngram_buckets("walking", SubwordConfig(buckets=512))
    assert len(grams) > 0 and np.all(grams < 512)


def test_negatives_must_be_positive():
    vocab, encoded = planted_corpus(None, [("aa", "bb")], repeats=30)
    with pytest.raises(ConfigurationError):
        train_skipgram(encoded, vocab, negatives=0)


class TestEmbedNote:
    def setup_method(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((5, 4))
        vectors[PAD_ID] = 0.0
        self.emb = EmbeddingMatrix(vectors)

    def test_pad_positions_are_zero(self):
        ids = np.array([2, 3, PAD_ID, PAD_ID])
        out = lookup_note_embeddings(ids, self.emb, None).data
        np.testing.assert_array_equal(out[2:], np.zeros((2, 4)))
        np.testing.assert_array_equal(out[0], self.emb.vectors[2])

    def test_oov_maps_to_zero(self):
        out = lookup_note_embeddings(np.array([OOV_ID, 1]), self.emb, None).data
        np.testing.assert_array_equal(out[0], np.zeros(4))
        np.testing.assert_array_equal(out[1], self.emb.vectors[1])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            lookup_note_embeddings(np.array([5]), self.emb, None)
        with pytest.raises(DataError):
            lookup_note_embeddings(np.array([-2]), self.emb, None)


def test_embedding_file_round_trip(tmp_path):
    vocab, encoded = planted_corpus(None, [("aa", "bb", "cc")], repeats=40)
    result = train_skipgram(encoded, vocab, dim=6, window=2, epochs=2, seed=9)
    path = tmp_path / "vectors.txt"
    save_embeddings(path, vocab, result.embeddings)
    header = path.read_text().splitlines()[0]
    assert header == f"{vocab.size} 6"
    tokens, loaded = load_embeddings(path)
    assert tokens == vocab.id_to_token
    np.testing.assert_array_equal(loaded.vectors, result.embeddings.vectors)


def test_embedding_loader_validates_dimensions(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\nfoo 1.0 2.0\nbar 1.0 2.0 3.0\n")
    with pytest.raises(DataError):
        load_embeddings(path)
