"""Model graphs: shape contracts, frozen parameter counts, composition
oracle, branch ablation, checkpoint round trips, gradient checks."""

import re
from datetime import datetime

import numpy as np
import pytest

from notemort import models, traineval
from notemort.embed import EmbeddingMatrix
from notemort.errors import DataError
from notemort.models import ModelConfig
from notemort.ndcore import (
    Tensor,
    backward,
    bigru,
    conv1d,
    dense_sigmoid,
    global_avg_pool,
    load_checkpoint,
    no_grad,
    layers,
    save_checkpoint,
)
from notemort.notesproc import OOV_ID, PAD_ID, CleanNote, truncate_pad
from notemort.cohort import N_TS_VARIABLES, standardize_values

from oracles import (
    add_relu_composed,
    batchnorm_eval_composed,
    finite_diff_grad,
    global_avg_pool_composed,
    max_rel_err,
    notes_forward_composed,
    notes_forward_folded,
)

TOY = ModelConfig(note_len=8, embed_dim=4, filters=2, temporal_hidden=3, cts_hidden=(3, 2))
# paper-wide blocks on short notes: a conv GEMM of fewer than 9 rows would
# take the BLAS's small-matrix kernel, which sums in another order
WIDE = ModelConfig(note_len=24, embed_dim=200, filters=200, temporal_hidden=3, cts_hidden=(3, 2))


def toy_embeddings(vocab_size=12, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((vocab_size, dim)) * 0.5
    vectors[0] = 0.0
    return EmbeddingMatrix(vectors)


def toy_file(hadm=1, n_notes=2, seed=0, note_len=8, vocab=12):
    """A toy stay's notes, charted an hour apart."""
    rng = np.random.default_rng(seed)
    notes = []
    for i in range(n_notes):
        n_real = int(rng.integers(3, note_len + 1))
        ids = truncate_pad(rng.integers(1, vocab, size=n_real).tolist(), max_len=note_len)
        notes.append(CleanNote(
            tokens=ids,
            charted_at=datetime(2150, 1, 1, i + 1), category="Nursing",
            hadm_id=hadm, row_id=i + 1,
        ))
    return notes


def toy_ts(seed=0, steps=5):
    """Raw values [steps, N_TS_VARIABLES] and their observation mask."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((steps, N_TS_VARIABLES)) + 80.0
    return values, rng.random((steps, N_TS_VARIABLES)) > 0.3


def stay_inputs(file=None, ts=None) -> dict:
    """One stay's notes and/or time series -> forward() inputs, batch of one."""
    inputs = {}
    if file is not None:
        inputs["ids"] = np.stack([n.tokens for n in file])[None]
    if ts is not None:
        values, mask = ts
        inputs["values"] = standardize_values(values)[None]
        inputs["obs_masks"] = mask[None]
    return inputs


def stay_forward(params, cfg, emb=None, file=None, ts=None, **kwargs) -> Tensor:
    """One stay through models.forward -> scalar probability."""
    return models.forward(params, cfg, emb, **stay_inputs(file, ts), **kwargs).reshape(())


def randomize_norms(params, seed):
    """Non-default gamma, beta and running statistics in every conv block:
    at the initial ones (1, 0, 0, 1) eval-mode batchnorm nearly is the identity."""
    rng = np.random.default_rng(seed)
    for block in params.semantical:
        channels = block.norm.beta.shape[0]
        block.norm.gamma.data[...] = rng.normal(1.0, 0.3, channels)
        block.norm.beta.data[...] = rng.normal(0.0, 0.3, channels)
        block.norm.running_mean[...] = rng.normal(0.0, 0.5, channels)
        block.norm.running_var[...] = rng.uniform(0.3, 2.0, channels)


# -- parameter counts: independent shape-walk oracle, frozen regression values --


def bigru_param_count(dim_in, hidden):
    return 2 * 3 * (dim_in * hidden + hidden * hidden + hidden)


def notes_hcr_count(cfg: ModelConfig) -> int:
    count = 0
    c_in = cfg.embed_dim
    for _ in range(models.CONV_BLOCKS):
        count += models.KERNEL_SIZE * c_in * cfg.filters + cfg.filters
        if c_in != cfg.filters:
            count += 1 * c_in * cfg.filters + cfg.filters
        count += 2 * cfg.filters
        c_in = cfg.filters
    count += bigru_param_count(cfg.filters, cfg.temporal_hidden)
    count += 2 * cfg.temporal_hidden + 1
    return count


def cts_rnn_count(cfg: ModelConfig) -> int:
    h1, h2 = cfg.cts_hidden
    return (
        bigru_param_count(2 * N_TS_VARIABLES, h1)
        + bigru_param_count(2 * h1, h2)
        + 2 * h2 + 1
    )


def mm_hcr_count(cfg: ModelConfig) -> int:
    h1, h2 = cfg.cts_hidden
    head = 2 * cfg.temporal_hidden + 2 * h2 + 1
    return (
        notes_hcr_count(cfg) - (2 * cfg.temporal_hidden + 1)
        + cts_rnn_count(cfg) - (2 * h2 + 1)
        + head
    )


class TestParameterCounts:
    def test_default_config_frozen_counts(self):
        cfg = ModelConfig()
        # frozen once from the shape-walk oracle; regression guard
        assert notes_hcr_count(cfg) == 463_689
        assert cts_rnn_count(cfg) == 20_673
        assert mm_hcr_count(cfg) == 484_361
        assert models.parameter_count(models.init_model(models.NOTES_HCR, cfg)) == 463_689
        assert models.parameter_count(models.init_model(models.CTS_RNN, cfg)) == 20_673
        assert models.parameter_count(models.init_model(models.MM_HCR, cfg)) == 484_361

    def test_toy_config_matches_oracle(self):
        for kind, oracle in (
            (models.NOTES_HCR, notes_hcr_count),
            (models.CTS_RNN, cts_rnn_count),
            (models.MM_HCR, mm_hcr_count),
        ):
            assert models.parameter_count(models.init_model(kind, TOY)) == oracle(TOY)


class TestShapes:
    def test_semantical_output_shape(self):
        params = models.init_model(models.NOTES_HCR, TOY, seed=1)
        rng = np.random.default_rng(0)
        with no_grad():
            out = models.semantical_forward(
                Tensor(rng.standard_normal((5, 8, 4))), params.semantical,
                training=False, mask=np.ones((5, 8), dtype=bool),
            )
        assert out.shape == (5, TOY.filters)

    def test_patient_vector_shape(self):
        params = models.init_model(models.NOTES_HCR, TOY, seed=1)
        rng = np.random.default_rng(0)
        out = models.temporal_forward(
            Tensor(rng.standard_normal((4, 3, TOY.filters))), params.temporal
        )
        assert out.shape == (4, 2 * TOY.temporal_hidden)

    def test_default_dims_match_architecture(self):
        cfg = ModelConfig()
        assert 2 * cfg.temporal_hidden == 128
        assert 2 * cfg.cts_hidden[1] == 32
        assert 2 * cfg.temporal_hidden + 2 * cfg.cts_hidden[1] == 160

    def test_probabilities_in_unit_interval(self):
        emb = toy_embeddings()
        file = toy_file()
        p_notes = stay_forward(models.init_model(models.NOTES_HCR, TOY, 1), TOY, emb, file)
        assert 0.0 < float(p_notes.data) < 1.0
        cfg = TOY
        cts_params = models.init_model(models.CTS_RNN, cfg, 2)
        inputs = stay_inputs(ts=toy_ts())
        feats = models.cts_forward(inputs["values"], inputs["obs_masks"], cts_params.cts)[0]
        p_cts = stay_forward(cts_params, cfg, ts=toy_ts())
        assert feats.shape == (2 * cfg.cts_hidden[1],)
        assert 0.0 < float(p_cts.data) < 1.0
        p_mm = stay_forward(models.init_model(models.MM_HCR, cfg, 3), cfg, emb, file, toy_ts())
        assert 0.0 < float(p_mm.data) < 1.0


def test_single_note_pipeline_matches_layer_composition():
    """Compose the layers by hand for a one-note file and compare."""
    cfg = TOY
    emb = toy_embeddings(seed=4)
    params = models.init_model(models.NOTES_HCR, cfg, seed=5)
    randomize_norms(params, seed=7)
    file = toy_file(n_notes=1, seed=6)
    note = file[0]

    with no_grad():
        got = float(stay_forward(params, cfg, emb, file).data)

        safe = np.where(note.tokens == -1, 0, note.tokens)
        real = note.tokens != 0
        x = Tensor(emb.vectors[safe] * real[:, None])
        for block in params.semantical:
            y = batchnorm_eval_composed(conv1d(x, block.conv), block.norm)
            shortcut = x if block.shortcut is None else conv1d(x, block.shortcut)
            x = add_relu_composed(y, shortcut)
        doc = global_avg_pool_composed(x, real)
        _, patient = bigru(doc.reshape((1, 1, cfg.filters)), params.temporal)
        head = dense_sigmoid(patient, params.head)
        assert head.shape == (1,)
        want = head.item()
    assert got == pytest.approx(want, abs=1e-14)


def test_note_order_matters_to_temporal_module():
    params = models.init_model(models.NOTES_HCR, TOY, seed=7)
    rng = np.random.default_rng(8)
    docs = rng.standard_normal((1, 3, TOY.filters))
    out = models.temporal_forward(Tensor(docs), params.temporal)
    out_perm = models.temporal_forward(Tensor(docs[:, ::-1, :].copy()), params.temporal)
    assert not np.allclose(out.data, out_perm.data)


def test_shared_weights_accumulate_gradients_across_notes():
    """Each stay's notes run through the shared conv kernels, masked pool,
    GRU and head (a chain without batchnorm, whose batch statistics would
    couple the stays): the gradients of two stays together are the sums
    of each alone's."""
    cfg = TOY
    emb = toy_embeddings()
    params = models.init_model(models.NOTES_HCR, cfg, seed=9)
    named = models.named_parameters(params)
    file_a = toy_file(n_notes=1, seed=10)
    file_b = toy_file(n_notes=1, seed=11)

    def grads_for(files):
        ids = np.stack([f[0].tokens for f in files])
        x = models.lookup_note_embeddings(ids, emb)
        for block in params.semantical:
            x = conv1d(x, block.conv)
        docs = global_avg_pool(x, mask=ids != PAD_ID).reshape((len(files), 1, cfg.filters))
        probs = dense_sigmoid(models.temporal_forward(docs, params.temporal), params.head)
        backward(probs.sum(), named.values())
        out = {k: t.grad.copy() for k, t in named.items()}
        for t in named.values():
            t.grad = None
        return out

    g_a = grads_for([file_a])
    g_b = grads_for([file_b])
    g_ab = grads_for([file_a, file_b])
    for key in named:
        np.testing.assert_allclose(
            g_ab[key], g_a[key] + g_b[key], rtol=1e-9, atol=1e-12
        )
    for i in range(models.CONV_BLOCKS):
        assert np.any(g_ab[f"semantical.block{i}.conv.kernels"] != 0.0)


@pytest.mark.parametrize("training", [True, False])
def test_notes_step_matches_oracle_composition(training):
    """One toy notes-hcr step, loss with the L2 terms: in train mode the
    loss, every gradient of the backward and the running statistics carry
    the bits of the generic-node composition; in eval mode, which has no
    backward, the loss agrees with the unfolded chain within 1e-12."""
    emb = toy_embeddings(seed=50)
    ids = np.stack([
        np.stack([n.tokens for n in toy_file(n_notes=3, seed=51 + i)]) for i in range(2)
    ])
    labels = np.array([1.0, 0.0])
    results = []
    for forward in (
        lambda m, rng: models.forward(m, TOY, emb, ids=ids, training=training, rng=rng),
        lambda m, rng: notes_forward_composed(m, TOY, emb, ids, training=training, rng=rng),
    ):
        params = models.init_model(models.NOTES_HCR, TOY, seed=52)
        randomize_norms(params, seed=53)
        named = models.named_parameters(params)
        probs = forward(params, np.random.default_rng(54))
        loss = traineval.weighted_bce(probs, labels, 2.0, 0.5)
        for weight, lam in models.decayed_weights(params, TOY):
            loss = loss + traineval.l2_penalty([weight], lam)
        arrays = models.named_buffers(params)
        if training:
            backward(loss, named.values())
            arrays.update({k: t.grad for k, t in named.items()})
        results.append((loss.item(), arrays))
    (loss, arrays), (want_loss, want_arrays) = results
    if training:
        assert loss == want_loss
        for name, want in want_arrays.items():
            assert np.array_equal(arrays[name], want), name
    else:
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
        for name, want in want_arrays.items():
            np.testing.assert_allclose(arrays[name], want, rtol=1e-12, atol=1e-12, err_msg=name)


def ragged_ids(note_len, vocab, seed):
    """Token ids [3 stays, 3 notes, L] whose notes end their real tokens
    at positions 0, 1, 2, L-4, L-3, L-2, L-1 and two random ones; one note
    has two PADs between real tokens and one an OOV token."""
    rng = np.random.default_rng(seed)
    lasts = [0, note_len - 4, note_len - 3, note_len - 2, note_len - 1, 1, 2,
             *rng.integers(0, note_len, 2)]
    ids = np.zeros((len(lasts), note_len), dtype=np.int32)
    for n, last in enumerate(lasts):
        ids[n, : last + 1] = rng.integers(1, vocab, last + 1)
    ids[1, 1:3] = PAD_ID
    ids[2, 0] = OOV_ID
    return ids.reshape(3, 3, note_len)


@pytest.mark.parametrize("cfg,one_note_per_chunk", [(TOY, False), (TOY, True), (WIDE, True)],
                         ids=["toy", "toy-one-note-per-chunk", "wide-one-note-per-chunk"])
def test_eval_scores_bit_equal_to_untrimmed_folded_chain(cfg, one_note_per_chunk, monkeypatch):
    """Eval mode skips each note's padded tail; `models.forward` and
    `traineval.predict_scores` still carry the bits of the folded chain
    that computes every row."""
    if one_note_per_chunk:
        monkeypatch.setattr(layers, "_COLS_BYTES", 1)
    emb = toy_embeddings(dim=cfg.embed_dim, seed=60)
    params = models.init_model(models.NOTES_HCR, cfg, seed=61)
    randomize_norms(params, seed=62)
    ids = ragged_ids(cfg.note_len, emb.vocab_size, seed=63)
    with no_grad():
        got = models.forward(params, cfg, emb, ids=ids, training=False).data
        assert np.array_equal(got, notes_forward_folded(params, cfg, emb, ids).data)
    notes = [ids[0], ids[1], ids[2], ids[2, :2]]
    dataset = {
        h: traineval.StayData(hadm_id=h, label=bool(h % 2), note_ids=stay_ids)
        for h, stay_ids in enumerate(notes)
    }
    scores = traineval.predict_scores(
        models.NOTES_HCR, list(dataset), dataset, params, cfg, emb, batch_size=2
    )
    batches = traineval.make_batches(models.NOTES_HCR, list(dataset), dataset, 2)
    assert len(batches) == 3
    for batch in batches:
        with no_grad():
            want = notes_forward_folded(
                params, cfg, emb, np.stack([dataset[h].note_ids for h in batch])
            )
        assert [scores[h] for h in batch] == want.data.tolist()


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_eval_forward_records_nothing(kind, monkeypatch):
    """An eval-mode forward outside no_grad, over parameters that need
    gradients, puts no node on the tape: of the Tensors it makes, each
    Tensor id that `tensors_per_step` counts, none has parents."""
    params = models.init_model(kind, TOY, seed=70)
    inputs = stay_inputs(toy_file(n_notes=3, seed=71), toy_ts(seed=72))
    made = []
    init = Tensor.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", spy)
    probs = models.forward(params, TOY, toy_embeddings(), **inputs)
    assert probs in made
    assert [t._id for t in made if t._parents] == []


def test_eval_mode_is_deterministic():
    cfg = TOY
    emb = toy_embeddings()
    file = toy_file()
    ts = toy_ts()
    notes_params = models.init_model(models.NOTES_HCR, cfg, 1)
    mm_params = models.init_model(models.MM_HCR, cfg, 2)
    cts_params = models.init_model(models.CTS_RNN, cfg, 3)
    for _ in range(2):
        a = float(stay_forward(notes_params, cfg, emb, file).data)
        b = float(stay_forward(notes_params, cfg, emb, file).data)
        assert a == b
        c1 = stay_forward(cts_params, cfg, ts=ts)
        c2 = stay_forward(cts_params, cfg, ts=ts)
        assert float(c1.data) == float(c2.data)
        m1 = stay_forward(mm_params, cfg, emb, file, ts)
        m2 = stay_forward(mm_params, cfg, emb, file, ts)
        assert float(m1.data) == float(m2.data)


def test_mm_reduces_to_notes_when_cts_branch_zeroed():
    cfg = TOY
    emb = toy_embeddings(seed=1)
    file = toy_file(n_notes=3, seed=2)
    mm = models.init_model(models.MM_HCR, cfg, seed=3)
    # zero the time-series branch and the fusion weights over its features
    for layer in (mm.cts.layer1, mm.cts.layer2):
        for direction in (layer.fwd, layer.bwd):
            for tensor in direction.all_tensors().values():
                tensor.data[...] = 0.0
    mm.head.weight.data[2 * cfg.temporal_hidden :, :] = 0.0

    notes = models.init_model(models.NOTES_HCR, cfg, seed=4)
    notes.semantical = mm.semantical
    notes.temporal = mm.temporal
    notes.head.weight.data = mm.head.weight.data[: 2 * cfg.temporal_hidden, :].copy()
    notes.head.bias.data = mm.head.bias.data.copy()

    p_mm = float(stay_forward(mm, cfg, emb, file, toy_ts(seed=5)).data)
    p_notes = float(stay_forward(notes, cfg, emb, file).data)
    assert p_mm == pytest.approx(p_notes, abs=1e-15)


def test_mm_requires_both_modalities():
    inputs = stay_inputs(toy_file())
    notes_only = traineval.StayData(
        hadm_id=1, label=True,
        note_ids=inputs["ids"][0],
    )
    with pytest.raises(DataError):
        traineval.batch_forward(
            models.MM_HCR, [1], {1: notes_only},
            models.init_model(models.MM_HCR, TOY, 1), TOY,
            toy_embeddings(), training=False,
        )


@pytest.mark.parametrize("training", [False, True])
def test_forward_rejects_empty_sequences(training):
    """A batch of stays with no notes, and a series of no hours, are
    DataErrors, raised by the one bigru rule."""
    rng = np.random.default_rng(0)
    ids = np.zeros((2, 0, TOY.note_len), dtype=np.int32)
    notes = models.init_model(models.NOTES_HCR, TOY, seed=0)
    with pytest.raises(DataError):
        models.forward(notes, TOY, toy_embeddings(), ids=ids, training=training, rng=rng)
    values = np.zeros((2, 0, N_TS_VARIABLES))
    cts = models.init_model(models.CTS_RNN, TOY, seed=0)
    with pytest.raises(DataError):
        models.forward(cts, TOY, values=values, obs_masks=values > 0,
                       training=training, rng=rng)


DESK = ModelConfig(note_len=16, embed_dim=8, filters=16, temporal_hidden=8,
                   cts_hidden=(8, 4))


def tensors_per_step(kind, cfg=DESK, n_stays=8, n_notes=3, hours=24):
    """Tensors created by one training step: batch_forward, weighted_bce,
    the L2 groups and backward, counted by Tensor id as perfbench's
    `tensors_per_step` counts them."""
    rng = np.random.default_rng(1)
    emb = toy_embeddings(dim=cfg.embed_dim)
    dataset = {
        h: traineval.StayData(
            hadm_id=h, label=bool(h % 2),
            note_ids=rng.integers(1, 12, size=(n_notes, cfg.note_len)).astype(np.int32),
            ts_values=rng.standard_normal((hours, N_TS_VARIABLES)),
            ts_mask=rng.random((hours, N_TS_VARIABLES)) > 0.3,
        )
        for h in range(1, n_stays + 1)
    }
    params = models.init_model(kind, cfg, seed=0)
    groups: dict[float, list] = {}
    for weight, lam in models.decayed_weights(params, cfg):
        groups.setdefault(lam, []).append(weight)
    labels = np.array([dataset[h].label for h in dataset], dtype=np.float64)
    start = Tensor(0.0)._id
    probs = traineval.batch_forward(
        kind, list(dataset), dataset, params, cfg, emb, training=True, rng=rng
    )
    loss = traineval.weighted_bce(probs, labels, 2.0, 0.5)
    for lam, weights in groups.items():
        loss = loss + traineval.l2_penalty(weights, lam)
    backward(loss, models.named_parameters(params).values())
    return Tensor(0.0)._id - start - 1


def test_training_step_tape_size():
    """The GRU branch costs a fixed handful of tape nodes, not some per
    hour: a cts-rnn step stays under 50 tensors, and mm-hcr within 50 of
    notes-hcr."""
    assert tensors_per_step(models.CTS_RNN) < 50
    assert tensors_per_step(models.MM_HCR) < tensors_per_step(models.NOTES_HCR) + 50


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_bit_identical_outputs_after_reload(self, kind, tmp_path):
        cfg = TOY
        emb = toy_embeddings()
        params = models.init_model(kind, cfg, seed=6)
        # a train-mode forward perturbs batchnorm running stats first
        file, ts = toy_file(seed=7), toy_ts(seed=8)
        rng = np.random.default_rng(9)
        # each kind reads only the inputs of its own branches
        stay_forward(params, cfg, emb, file, ts, training=True, rng=rng)

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, models.params_to_entries(params), cfg.hash())
        entries, config_hash = load_checkpoint(path)
        assert config_hash == cfg.hash()
        reloaded = models.load_params_from_entries(kind, cfg, entries)

        def forward(p):
            return float(stay_forward(p, cfg, emb, file, ts).data)

        assert forward(params) == forward(reloaded)

    def test_mismatched_entries_rejected(self):
        """A missing entry, and the `embedding.vectors` entry that a
        checkpoint with fine-tuned word vectors holds, are refused by name."""
        saved = models.params_to_entries(models.init_model(models.NOTES_HCR, TOY, 1))
        missing = dict(saved)
        missing.pop("head.bias")
        tuned = {**saved, "embedding.vectors": toy_embeddings().vectors}
        for entries, message in (
            (missing, "missing ['head.bias'], unexpected []"),
            (tuned, "missing [], unexpected ['embedding.vectors']"),
        ):
            with pytest.raises(DataError, match=re.escape(f"checkpoint mismatch: {message}")):
                models.load_params_from_entries(models.NOTES_HCR, TOY, entries)


def gru_entries(prefix, gates=("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")):
    return [f"{prefix}.{d}.{g}" for d in ("fwd", "bwd") for g in gates]


NOTES_ENTRIES = [
    "semantical.block0.conv.kernels", "semantical.block0.conv.bias",
    "semantical.block0.shortcut.kernels", "semantical.block0.shortcut.bias",
    "semantical.block0.norm.gamma", "semantical.block0.norm.beta",
    "semantical.block1.conv.kernels", "semantical.block1.conv.bias",
    "semantical.block1.norm.gamma", "semantical.block1.norm.beta",
    "semantical.block2.conv.kernels", "semantical.block2.conv.bias",
    "semantical.block2.norm.gamma", "semantical.block2.norm.beta",
    *gru_entries("temporal"),
]
CTS_ENTRIES = [*gru_entries("cts.layer1"), *gru_entries("cts.layer2")]
TAIL_ENTRIES = [
    "head.weight", "head.bias",
    "semantical.block0.norm.running_mean", "semantical.block0.norm.running_var",
    "semantical.block1.norm.running_mean", "semantical.block1.norm.running_var",
    "semantical.block2.norm.running_mean", "semantical.block2.norm.running_var",
]


@pytest.mark.parametrize("kind, names", [
    (models.NOTES_HCR, NOTES_ENTRIES + TAIL_ENTRIES),
    (models.CTS_RNN, CTS_ENTRIES + ["head.weight", "head.bias"]),
    (models.MM_HCR, NOTES_ENTRIES + CTS_ENTRIES + TAIL_ENTRIES),
])
def test_checkpoint_entry_names_are_frozen(kind, names):
    """Checkpoints written by earlier runs load only if these names and
    their order never change."""
    params = models.init_model(kind, TOY, seed=0)
    assert list(models.params_to_entries(params)) == names


def test_mm_decay_groups_are_conv_kernels_and_cts_gru_matrices():
    params = models.init_model(models.MM_HCR, TOY, seed=0)
    name_of = {id(t): name for name, t in models.named_parameters(params).items()}
    got = [(name_of[id(w)], lam) for w, lam in models.decayed_weights(params, TOY)]
    conv = [
        "semantical.block0.conv.kernels", "semantical.block0.shortcut.kernels",
        "semantical.block1.conv.kernels", "semantical.block2.conv.kernels",
    ]
    matrices = ("w_z", "u_z", "w_r", "u_r", "w_h", "u_h")
    gru = gru_entries("cts.layer1", matrices) + gru_entries("cts.layer2", matrices)
    assert got == [(n, TOY.conv_decay) for n in conv] + [(n, TOY.cts_decay) for n in gru]


class TestFullModelGradients:
    def check(self, build_loss, params):
        named = models.named_parameters(params)
        loss = build_loss()
        backward(loss, named.values())
        for name, tensor in named.items():
            numeric = finite_diff_grad(build_loss, tensor)
            err = max_rel_err(tensor.grad, numeric)
            assert err < 1e-4, f"{name}: {err:.2e}"
            tensor.grad = None

    def test_notes_hcr_gradients(self):
        emb = toy_embeddings(seed=20)
        params = models.init_model(models.NOTES_HCR, TOY, seed=21)
        file = toy_file(n_notes=2, seed=22)
        ids = np.stack([n.tokens for n in file])[None]
        # with zero betas, a channel that spatial dropout drops meets each
        # pad position with exactly 0 before the ReLU, where the loss has no
        # derivative; nonzero betas move the check off those kinks
        rng = np.random.default_rng(25)
        for block in params.semantical:
            block.norm.beta.data[...] = rng.normal(0.0, 0.1, TOY.filters)

        def loss():
            probs = models.forward(
                params, TOY, emb, ids=ids, training=True,
                rng=np.random.default_rng(0),
            )
            return (probs * probs).sum()

        self.check(loss, params)

    def test_cts_rnn_gradients(self):
        params = models.init_model(models.CTS_RNN, TOY, seed=23)
        rng = np.random.default_rng(24)
        values = rng.standard_normal((1, 4, N_TS_VARIABLES))  # T=4, standardized
        mask = rng.random((1, 4, N_TS_VARIABLES)) > 0.3

        def loss():
            probs = models.forward(
                params, TOY, values=values, obs_masks=mask, training=True,
                rng=np.random.default_rng(0),
            )
            return (probs * 2.0).sum()

        self.check(loss, params)
