"""Vocabulary and skip-gram training: boundaries, planted structure,
gradient correctness, determinism, file format."""

import tracemalloc

import numpy as np
import pytest

from notemort import embed
from notemort.errors import DataError
from notemort.embed import (
    EmbeddingMatrix,
    _collect_pairs,
    _sgd_batch,
    _Workspace,
    build_vocab,
    load_embeddings,
    read_vocab,
    save_embeddings,
    train_skipgram,
    write_vocab,
)
from notemort.models import lookup_note_embeddings
from notemort.notesproc import OOV_ID, PAD_ID
from oracles import collect_pairs_loop, sgd_batch_add_at


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
        updated_in, updated_out,
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


@pytest.mark.parametrize("window", [1, 3, 6])
def test_pairs_match_loop_oracle(window):
    """Same pairs in the same order, and the same draws from the stream."""
    rng = np.random.default_rng(window)
    lengths = [1, 2, max(1, window - 1), window, 4 * window + 3, 40]
    fast, slow = np.random.default_rng(99), np.random.default_rng(99)
    for n in lengths:
        sentence = rng.integers(0, 50, size=n)
        centers, contexts = _collect_pairs(sentence, window, fast)
        want_centers, want_contexts = collect_pairs_loop(sentence, window, slow)
        assert centers.dtype == want_centers.dtype and contexts.dtype == want_contexts.dtype
        np.testing.assert_array_equal(centers, want_centers)
        np.testing.assert_array_equal(contexts, want_contexts)
    assert fast.bit_generator.state == slow.bit_generator.state


def random_batch(rng, v_size, batch, n_neg, low=1):
    return (
        rng.integers(low, v_size, size=batch),
        rng.integers(low, v_size, size=batch),
        rng.integers(low, v_size, size=(batch, n_neg)),
    )


@pytest.mark.parametrize(
    "v_size,low", [(4, 1), (9, 0), (70_000, 0)], ids=["three_words", "with_pad", "wide_ids"]
)
def test_sgd_batch_matches_add_at_oracle(v_size, low):
    """Heavy row repeats, PAD_ID rows, and ids too wide for 16-bit sort
    keys, over several batches of different sizes through one workspace."""
    rng = np.random.default_rng(v_size)
    dim = 7
    vec_in = rng.standard_normal((v_size, dim)) * 0.5
    vec_in[PAD_ID] = 0.0
    vec_out = rng.standard_normal((v_size, dim)) * 0.5
    vec_out[PAD_ID] = 0.0
    want_in, want_out = vec_in.copy(), vec_out.copy()
    work = _Workspace()
    for batch, n_neg, lr in ((300, 5, 0.4), (17, 5, 0.4), (400, 3, 2.0), (1, 1, 0.1)):
        centers, contexts, negs = random_batch(rng, v_size, batch, n_neg, low)
        loss = _sgd_batch(vec_in, vec_out, centers, contexts, negs, lr, work)
        want = sgd_batch_add_at(want_in, want_out, centers, contexts, negs, lr)
        assert loss == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(vec_in, want_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vec_out, want_out, rtol=0, atol=1e-12)
    assert not vec_in[PAD_ID].any() and not vec_out[PAD_ID].any()


def test_training_matches_oracles(monkeypatch):
    rng = np.random.default_rng(8)
    tokens = [f"w{i}" for i in range(12)]
    sentences = [
        [tokens[int(i)] for i in rng.integers(0, 12, size=int(rng.integers(1, 30)))]
        for _ in range(60)
    ]
    vocab = build_vocab(sentences, min_count=1)
    encoded = [vocab.encode_known(s) for s in sentences]
    # small batches, so that each epoch spans several
    monkeypatch.setattr(embed, "BATCH_PAIRS", 64)
    kwargs = dict(dim=9, window=4, epochs=3, lr=0.5, seed=4)
    fast = train_skipgram(encoded, vocab, **kwargs)
    monkeypatch.setattr(embed, "_collect_pairs", collect_pairs_loop)
    monkeypatch.setattr(embed, "_sgd_batch", sgd_batch_add_at)
    slow = train_skipgram(encoded, vocab, **kwargs)
    np.testing.assert_allclose(
        fast.embeddings.vectors, slow.embeddings.vectors, rtol=0, atol=1e-12
    )
    assert fast.epoch_losses == pytest.approx(slow.epoch_losses, rel=1e-12)


def test_sgd_batch_allocates_no_batch_sized_temporary():
    """A warm workspace holds every batch-sized array, so a second batch
    of the same size allocates only row-index and score temporaries."""
    rng = np.random.default_rng(2)
    v_size, dim, batch, n_neg = 3000, 64, 400, 5
    vec_in = rng.standard_normal((v_size, dim)) * 0.1
    vec_out = rng.standard_normal((v_size, dim)) * 0.1
    work = _Workspace()
    _sgd_batch(vec_in, vec_out, *random_batch(rng, v_size, batch, n_neg), 0.1, work)
    centers, contexts, negs = random_batch(rng, v_size, batch, n_neg)
    tracemalloc.start()
    try:
        _sgd_batch(vec_in, vec_out, centers, contexts, negs, 0.1, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch * (n_neg + 1) * dim * 8 / 4


def test_corpus_without_pairs_rejected():
    vocab = build_vocab(corpus_with_counts({"aa": 3, "bb": 3}), min_count=1)
    with pytest.raises(DataError, match="no pair"):
        train_skipgram([[1], [2], []], vocab, dim=4, epochs=1)


def test_word_id_outside_vocabulary_rejected():
    vocab = build_vocab(corpus_with_counts({"aa": 3, "bb": 3}), min_count=1)
    for bad in (vocab.size, -1):
        with pytest.raises(DataError, match="word ids"):
            train_skipgram([[1, 2, bad]], vocab, dim=4, epochs=1)


class TestEmbedNote:
    def setup_method(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((5, 4))
        vectors[PAD_ID] = 0.0
        self.emb = EmbeddingMatrix(vectors)

    def test_pad_positions_are_zero(self):
        ids = np.array([2, 3, PAD_ID, PAD_ID])
        out = lookup_note_embeddings(ids, self.emb).data
        np.testing.assert_array_equal(out[2:], np.zeros((2, 4)))
        np.testing.assert_array_equal(out[0], self.emb.vectors[2])

    def test_oov_maps_to_zero(self):
        out = lookup_note_embeddings(np.array([OOV_ID, 1]), self.emb).data
        np.testing.assert_array_equal(out[0], np.zeros(4))
        np.testing.assert_array_equal(out[1], self.emb.vectors[1])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            lookup_note_embeddings(np.array([5]), self.emb)
        with pytest.raises(DataError):
            lookup_note_embeddings(np.array([-2]), self.emb)


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


def test_vocabulary_file_round_trip(tmp_path):
    vocab = build_vocab(corpus_with_counts({"beta": 30, "alpha": 30, "zeta": 40}), min_count=20)
    path = tmp_path / "vocab.txt"
    write_vocab(path, vocab)
    assert path.read_text() == "<pad>\t0\t0\nzeta\t1\t40\nalpha\t2\t30\nbeta\t3\t30\n"
    loaded = read_vocab(path)
    assert loaded == vocab and PAD_ID not in loaded.token_to_id.values()


def test_embedding_loader_validates_dimensions(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\nfoo 1.0 2.0\nbar 1.0 2.0 3.0\n")
    with pytest.raises(DataError):
        load_embeddings(path)


@pytest.mark.parametrize("reader", [read_vocab, load_embeddings])
def test_readers_name_the_line_of_an_undecodable_byte(tmp_path, reader):
    """A byte that is not UTF-8 on line 3 is a DataError naming the file
    and line 3, not the line a text read was on when it decoded it."""
    path = tmp_path / "words.txt"
    text = "<pad>\t0\t0\nab\t1\t5\ncd\xff\t2\t4\n"
    if reader is load_embeddings:
        text = "2 1\n<pad> 0.0\ncd\xff 2.0\n"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(DataError, match=r"words\.txt: not UTF-8: .*\(line 3\)"):
        reader(path)
