"""Model graphs: shape contracts, frozen parameter counts, composition
oracle, branch ablation, checkpoint round trips, gradient checks."""

import dataclasses
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
    batchnorm,
    conv1d,
    dense_sigmoid,
    global_avg_pool,
    load_checkpoint,
    no_grad,
    save_checkpoint,
)
from notemort.notesproc import CleanNote, PatientFile, truncate_pad
from notemort.cohort import ClinicalTimeSeries, N_TS_VARIABLES, standardize_values

from oracles import finite_diff_grad, max_rel_err

TOY = ModelConfig(
    note_len=8, embed_dim=4, conv_blocks=3, filters=2, kernel_size=3,
    spatial_dropout=0.0, temporal_hidden=3, cts_features=3, cts_hidden=(3, 2),
)
# stay-level tests consume full ClinicalTimeSeries objects, which
# always carry every physiology channel
TOY_FULL_TS = dataclasses.replace(TOY, cts_features=N_TS_VARIABLES)


def toy_embeddings(vocab_size=12, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((vocab_size, dim)) * 0.5
    vectors[0] = 0.0
    return EmbeddingMatrix(vectors)


def toy_file(hadm=1, n_notes=2, seed=0, note_len=8, vocab=12):
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
    return PatientFile(hadm_id=hadm, subject_id=1, notes=notes,
                       label=True, window_hours=24)


def toy_ts(seed=0, steps=5, features=3):
    rng = np.random.default_rng(seed)
    return ClinicalTimeSeries(
        hadm_id=1, hours=np.arange(steps),
        values=rng.standard_normal((steps, N_TS_VARIABLES)) + 80.0,
        mask=rng.random((steps, N_TS_VARIABLES)) > 0.3,
    )


def stay_inputs(file=None, ts=None) -> dict:
    """One patient file and/or time series -> forward() inputs, batch of one."""
    inputs = {}
    if file is not None:
        inputs["ids"] = np.stack([n.tokens for n in file.notes])[None]
    if ts is not None:
        inputs["values"] = standardize_values(ts.values)[None]
        inputs["obs_masks"] = ts.mask[None]
    return inputs


def stay_forward(params, cfg, emb=None, file=None, ts=None, **kwargs) -> Tensor:
    """One stay through models.forward -> scalar probability."""
    return models.forward(params, cfg, emb, **stay_inputs(file, ts), **kwargs).reshape(())


# -- parameter counts: independent shape-walk oracle, frozen regression values --


def bigru_param_count(dim_in, hidden):
    return 2 * 3 * (dim_in * hidden + hidden * hidden + hidden)


def notes_hcr_count(cfg: ModelConfig) -> int:
    count = 0
    c_in = cfg.embed_dim
    for _ in range(cfg.conv_blocks):
        count += cfg.kernel_size * c_in * cfg.filters + cfg.filters
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
        bigru_param_count(2 * cfg.cts_features, h1)
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
        out = models.semantical_forward(
            Tensor(rng.standard_normal((5, 8, 4))), params.semantical, TOY,
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
        cfg = TOY_FULL_TS
        cts_params = models.init_model(models.CTS_RNN, cfg, 2)
        inputs = stay_inputs(ts=toy_ts())
        feats = models.cts_forward(
            inputs["values"], inputs["obs_masks"], cts_params.cts, cfg
        )[0]
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
    file = toy_file(n_notes=1, seed=6)
    note = file.notes[0]

    with no_grad():
        got = float(stay_forward(params, cfg, emb, file).data)

        safe = np.where(note.tokens == -1, 0, note.tokens)
        real = note.tokens != 0
        x = Tensor(emb.vectors[safe] * real[:, None])
        for block in params.semantical:
            y = conv1d(x, block.conv)
            y = batchnorm(y, block.norm, training=False)
            shortcut = x if block.shortcut is None else conv1d(x, block.shortcut)
            x = (y + shortcut).relu()
        doc = global_avg_pool(x, mask=real)
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
    cfg = TOY
    emb = toy_embeddings()
    params = models.init_model(models.NOTES_HCR, cfg, seed=9)
    named = models.named_parameters(params)
    file_a = toy_file(n_notes=1, seed=10)
    file_b = toy_file(n_notes=1, seed=11)

    def grads_for(files):
        ids = np.stack([f.notes[0].tokens for f in files])[:, None, :]
        probs = models.forward(
            params, cfg, emb, ids=ids, training=False
        )
        loss = probs.sum()
        backward(loss, named.values())
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


def test_eval_mode_is_deterministic():
    cfg = ModelConfig(
        note_len=8, embed_dim=4, conv_blocks=2, filters=3,
        spatial_dropout=0.5, fusion_dropout=0.3,
        temporal_hidden=3, cts_features=N_TS_VARIABLES, cts_hidden=(3, 2),
    )
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
    cfg = TOY_FULL_TS
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
            models.init_model(models.MM_HCR, TOY_FULL_TS, 1), TOY_FULL_TS,
            toy_embeddings(), training=False,
        )


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_bit_identical_outputs_after_reload(self, kind, tmp_path):
        cfg = TOY_FULL_TS
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
        entries = models.params_to_entries(models.init_model(models.NOTES_HCR, TOY, 1))
        entries.pop("head.bias")
        with pytest.raises(DataError):
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
    "head.weight", "head.bias", "embedding.vectors",
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
    cfg = dataclasses.replace(TOY, train_embeddings=kind != models.CTS_RNN)
    params = models.init_model(kind, cfg, seed=0, embeddings=toy_embeddings())
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
        ids = np.stack([n.tokens for n in file.notes])[None]

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
        values = rng.standard_normal((1, 4, 3))  # T=4, F=3, standardized
        mask = rng.random((1, 4, 3)) > 0.3

        def loss():
            probs = models.forward(
                params, TOY, values=values, obs_masks=mask, training=False
            )
            return (probs * 2.0).sum()

        self.check(loss, params)

    def test_trainable_embedding_gradients_and_pad_row(self):
        cfg = ModelConfig(
            note_len=8, embed_dim=4, conv_blocks=1, filters=2,
            spatial_dropout=0.0, temporal_hidden=2, cts_hidden=(2, 2),
            train_embeddings=True,
        )
        emb = toy_embeddings(seed=25)
        params = models.init_model(models.NOTES_HCR, cfg, seed=26, embeddings=emb)
        file = toy_file(n_notes=1, seed=27)
        ids = np.stack([n.tokens for n in file.notes])[None]

        probs = models.forward(
            params, cfg, emb, ids=ids, training=False
        )
        backward(probs.sum(), [params.embedding])
        grad = params.embedding.grad
        np.testing.assert_array_equal(grad[0], np.zeros(4))  # pad row untouched
        assert np.any(grad != 0.0)
