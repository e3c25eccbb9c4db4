"""Loss, schedule, metrics, t-test, report, and the training loop."""

import math
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from notemort import models, traineval
from notemort.cohort import N_TS_VARIABLES, FoldSplit
from notemort.embed import EmbeddingMatrix
from notemort.errors import ConfigurationError, DataError
from notemort.ndcore import AmsGrad, DenseParams, Tensor, backward, dense_sigmoid, parameter
from notemort.notesproc import PAD_ID
from notemort.traineval import (
    StayData,
    TrainConfig,
    auprc,
    auroc,
    build_report,
    fold_class_weights,
    lr_at_epoch,
    make_batches,
    paired_ttest_onetailed,
    render_report,
    significance_marker,
    t_sf,
    train_fold,
    weighted_bce,
)

from oracles import auprc_sweep, auroc_pairwise, weighted_bce_composed

SRC = Path(traineval.__file__).resolve().parents[1]


def run_child(code: str) -> subprocess.CompletedProcess:
    """code in a fresh interpreter that imports the package from SRC; the
    timeout turns a hang into a failure."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=False,
    )


class TestWeightedBce:
    def test_midpoint(self):
        loss = weighted_bce(Tensor(np.array([0.5])), np.array([1.0]), 1.0, 1.0)
        assert loss.item() == pytest.approx(math.log(2.0), rel=1e-12)

    def test_weighted_negative(self):
        loss = weighted_bce(Tensor(np.array([0.9])), np.array([0.0]), 1.0, 2.0)
        assert loss.item() == pytest.approx(-2.0 * math.log(0.1), rel=1e-12)
        assert loss.item() == pytest.approx(4.60517, abs=1e-5)

    def test_unit_weights_reduce_to_plain_bce(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.05, 0.95, size=16)
        y = (rng.random(16) > 0.5).astype(float)
        loss = weighted_bce(Tensor(p), y, 1.0, 1.0)
        plain = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert loss.item() == pytest.approx(plain, rel=1e-12)

    def test_boundary_probabilities_clamped(self):
        loss = weighted_bce(Tensor(np.array([1.0, 0.0])), np.array([0.0, 1.0]), 1.0, 1.0)
        assert math.isfinite(loss.item())
        assert loss.item() == pytest.approx(-math.log(1e-12), rel=1e-6)

    def test_gradient_flows(self):
        p = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        loss = weighted_bce(p, np.array([1.0, 0.0]), 2.0, 3.0)
        backward(loss, [p])
        expected = np.array([-2.0 / 0.3, 3.0 / 0.3]) / 2.0
        np.testing.assert_allclose(p.grad, expected, rtol=1e-12)


EDGE_PROBS = [0.0, 1.0, 1e-12, 1.0 - 1e-12, 0.3, 0.7]
BCE_CASES = {
    "mixed": (EDGE_PROBS, [1, 0, 1, 0, 1, 0]),
    "mixed-flipped": (EDGE_PROBS, [0, 1, 0, 1, 0, 1]),
    "positives-only": (EDGE_PROBS, [1] * 6),
    "negatives-only": (EDGE_PROBS, [0] * 6),
    "batch-of-one": ([0.42], [1]),
    "random-40": (np.random.default_rng(17).random(40), np.arange(40) % 3 == 0),
}


@pytest.mark.parametrize("probs,labels", BCE_CASES.values(), ids=list(BCE_CASES))
def test_weighted_bce_bit_identical_to_composition(probs, labels):
    """The fused loss against its clip / log / mul / mean chain, with
    probabilities on and just inside both clamps and one-class batches."""
    results = []
    for op in (weighted_bce, weighted_bce_composed):
        p = parameter(np.array(probs))
        loss = op(p, np.array(labels), 2.5, 0.4)
        backward(loss, [p])
        results.append([loss.data, p.grad])
    for got, want in zip(*results):
        assert got.shape == want.shape and np.array_equal(got, want)


def tape_ops(root):
    """Ops of the recorded nodes reachable from root."""
    ops, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if node._backward is None or id(node) in seen:
            continue
        seen.add(id(node))
        ops.append(node._op)
        stack.extend(node._parents)
    return sorted(ops)


def test_head_and_loss_record_two_tape_nodes():
    rng = np.random.default_rng(16)
    x = parameter(rng.standard_normal((4, 3)))
    head = DenseParams(weight=parameter(rng.standard_normal((3, 1))), bias=parameter(np.zeros(1)))
    loss = weighted_bce(dense_sigmoid(x, head), np.array([1, 0, 0, 1]), 2.0, 0.5)
    assert tape_ops(loss) == ["dense_sigmoid", "weighted_bce"]


class TestLrSchedule:
    CFG = TrainConfig()

    @pytest.mark.parametrize("epoch,expected", [
        (1, 1e-3), (9, 1e-3), (10, 1e-4), (49, 1e-4),
        (50, 1e-5), (89, 1e-5), (90, 1e-6), (100, 1e-6),
    ])
    def test_hcr_schedule(self, epoch, expected):
        assert lr_at_epoch(self.CFG, epoch, models.NOTES_HCR) == pytest.approx(expected)
        assert lr_at_epoch(self.CFG, epoch, models.MM_HCR) == pytest.approx(expected)

    def test_cts_constant(self):
        for epoch in (1, 10, 50, 90, 100):
            assert lr_at_epoch(self.CFG, epoch, models.CTS_RNN) == pytest.approx(1e-3)

    def test_epoch_one_based(self):
        with pytest.raises(ConfigurationError):
            lr_at_epoch(self.CFG, 0, models.NOTES_HCR)


class TestAuroc:
    def test_hand_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auroc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("seed", range(30))
    def test_exactly_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 400))
        scores = rng.integers(0, 50, size=n) / 50.0  # force plenty of ties
        labels = (rng.random(n) < 0.3).astype(int)
        if labels.sum() in (0, n):
            labels[0], labels[1] = 0, 1
        assert auroc(scores, labels) == auroc_pairwise(scores.tolist(), labels.tolist())


class TestAuprc:
    def test_hand_example(self):
        value = auprc([0.9, 0.8, 0.7], [1, 0, 1])
        assert value == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), rel=1e-12)
        assert value == pytest.approx(0.8333, abs=1e-4)

    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 8
        scores = np.linspace(1.0, 0.1, n)
        labels = [0] * (n - 1) + [1]
        assert auprc(scores, labels) == pytest.approx(1.0 / n)

    def test_no_positives_rejected(self):
        with pytest.raises(DataError):
            auprc([0.1, 0.2], [0, 0])

    @pytest.mark.parametrize("seed", range(30))
    def test_exactly_matches_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 400))
        scores = rng.integers(0, 50, size=n) / 50.0
        labels = (rng.random(n) < 0.3).astype(int)
        if labels.sum() == 0:
            labels[0] = 1
        assert auprc(scores, labels) == auprc_sweep(scores.tolist(), labels.tolist())


@pytest.mark.parametrize("metric", ["auroc", "auprc"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_score_is_a_data_error(metric, bad):
    # in a child process, so a metric that loops on a NaN fails the test
    # instead of hanging the suite
    child = run_child(
        "from notemort.errors import DataError\n"
        f"from notemort.traineval import {metric}\n"
        "try:\n"
        f"    {metric}([0.2, float('{bad}'), 0.7], [0, 1, 1])\n"
        "except DataError as exc:\n"
        "    print(exc)\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == f"{metric} undefined: a score is not finite"


def test_package_imports_without_scipy_or_hypothesis():
    """The runtime is numpy-only: scipy and hypothesis serve the tests."""
    child = run_child(
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
        "import notemort\n"
        "for module in pkgutil.walk_packages(notemort.__path__, 'notemort.'):\n"
        "    importlib.import_module(module.name)\n"
        "    print(module.name)\n"
    )
    assert child.returncode == 0, child.stderr
    expected = set()
    for path in (SRC / "notemort").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        expected.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    assert set(child.stdout.split()) == expected - {"notemort"}


class TestPairedTtest:
    def test_frozen_reference_example(self):
        a = [0.80, 0.82, 0.81, 0.83, 0.79]
        b = [0.85, 0.86, 0.84, 0.88, 0.83]
        # frozen from an independent statistical reference implementation
        assert paired_ttest_onetailed(a, b) == pytest.approx(
            0.00017936763018872853, abs=1e-10
        )

    def test_zero_variance_conventions(self):
        assert paired_ttest_onetailed([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) == 0.0
        assert paired_ttest_onetailed([2.0, 2.0, 2.0], [1.0, 1.0, 1.0]) == 1.0
        assert paired_ttest_onetailed([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 0.5

    def test_non_finite_difference_rejected(self):
        with pytest.raises(DataError):
            paired_ttest_onetailed([0.8, 0.7, 0.9], [0.8, math.nan, 0.9])

    @pytest.mark.parametrize("df", [0, -3, 2.5, math.nan, math.inf])
    def test_df_must_be_a_whole_number(self, df):
        with pytest.raises(ConfigurationError):
            t_sf(1.0, df)

    def test_t_cdf_symmetry_at_zero(self):
        for df in (1, 2, 4, 10, 30):
            assert t_sf(0.0, df) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reference_distribution(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random(5)
        b = a + rng.normal(0.02, 0.05, size=5)
        mine = paired_ttest_onetailed(a, b)
        d = b - a
        t = d.mean() / (d.std(ddof=1) / np.sqrt(5))
        assert mine == pytest.approx(float(stats.t.sf(t, 4)), abs=1e-10)

    def test_t_sf_accuracy_across_range(self):
        for df in (1, 3, 4, 9, 25):
            for t in (-8.0, -2.5, -0.3, 0.4, 1.7, 3.0, 11.2):
                assert t_sf(t, df) == pytest.approx(
                    float(stats.t.sf(t, df)), abs=1e-10
                )


class TestReport:
    def fold_metrics(self):
        return {
            (models.CTS_RNN, 24): {
                "auroc": [0.80, 0.82, 0.81, 0.83, 0.79],
                "auprc": [0.30, 0.31, 0.29, 0.32, 0.30],
            },
            (models.NOTES_HCR, 24): {
                "auroc": [0.85, 0.86, 0.84, 0.88, 0.83],
                "auprc": [0.35, 0.36, 0.33, 0.37, 0.34],
            },
        }

    def test_markers(self):
        assert significance_marker(0.007) == "**"
        assert significance_marker(0.03) == "*"
        assert significance_marker(0.06) == "†"

    @staticmethod
    def cell(report, model, window):
        return next(
            r for r in report
            if r["type"] == "cell" and r["model"] == model and r["window"] == window
        )

    def test_means_and_sds_recomputable(self):
        report = build_report(self.fold_metrics(), k=5)
        cell = self.cell(report, models.NOTES_HCR, 24)
        values = cell["auroc_folds"]
        assert cell["auroc_mean"] == pytest.approx(np.mean(values), abs=1e-12)
        assert cell["auroc_sd"] == pytest.approx(np.std(values, ddof=1), abs=1e-12)

    def test_equal_folds_have_zero_sd(self):
        metrics = {(models.NOTES_HCR, 12): {"auroc": [0.7] * 5, "auprc": [0.2] * 5}}
        report = build_report(metrics, k=5)
        cell = self.cell(report, models.NOTES_HCR, 12)
        assert cell["auroc_mean"] == 0.7 and cell["auroc_sd"] == 0.0

    def test_adjacent_models_compared(self):
        report = build_report(self.fold_metrics(), k=5)
        auroc_cmp = next(
            r for r in report
            if r["type"] == "comparison" and r["metric"] == "auroc"
            and r["better"] == models.NOTES_HCR
        )
        assert auroc_cmp["baseline"] == models.CTS_RNN
        assert auroc_cmp["p_value"] == pytest.approx(0.00017936763018872853, abs=1e-10)
        assert auroc_cmp["marker"] == "**"

    def test_missing_fold_rejected(self):
        metrics = self.fold_metrics()
        metrics[(models.CTS_RNN, 24)]["auroc"] = [0.8] * 4
        with pytest.raises(DataError):
            build_report(metrics, k=5)

    def test_render_contains_rows_and_markers(self):
        text = render_report(build_report(self.fold_metrics(), k=5))
        assert "cts-rnn" in text and "notes-hcr" in text
        assert "**" in text
        assert "0.8520" in text  # notes-hcr mean auroc


# -- training loop -----------------------------------------------------------------


def toy_dataset(n=40, seed=0, note_len=8, vocab=10, steps=4):
    """Random stays with a weak planted signal in note token rates."""
    rng = np.random.default_rng(seed)
    dataset = {}
    for hadm in range(1, n + 1):
        label = rng.random() < 0.4
        high = vocab if label else vocab - 2  # positives use the last tokens more
        low = 3 if label else 1
        n_notes = int(rng.integers(1, 4))
        ids = rng.integers(low, high, size=(n_notes, note_len))
        ids[:, int(rng.integers(4, note_len)):] = 0  # padding
        dataset[hadm] = StayData(
            hadm_id=hadm, label=bool(label),
            note_ids=ids.astype(np.int32),
            ts_values=rng.standard_normal((steps, N_TS_VARIABLES)) + (0.8 if label else 0.0),
            ts_mask=rng.random((steps, N_TS_VARIABLES)) > 0.2,
        )
    return dataset


def toy_fold(dataset, fold=0):
    ids = sorted(dataset)
    roles = {}
    for i, h in enumerate(ids):
        bucket = (i + fold) % 5
        roles[h] = "test" if bucket == 0 else ("val" if bucket == 1 else "train")
    return FoldSplit(fold=fold, roles=roles)


TOY_CFG = models.ModelConfig(
    note_len=8, embed_dim=4, filters=4, temporal_hidden=3, cts_hidden=(3, 2),
)


def toy_emb(vocab=10, dim=4, seed=1):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((vocab, dim)) * 0.4
    vectors[0] = 0.0
    return EmbeddingMatrix(vectors)


class TestTrainFold:
    def run(self, kind=models.NOTES_HCR, epochs=3, seed=0, dataset=None):
        dataset = dataset or toy_dataset()
        cfg = TrainConfig(epochs=epochs, seed=seed, early_stop_patience=2)
        emb = toy_emb() if kind != models.CTS_RNN else None
        return train_fold(kind, toy_fold(dataset), dataset, TOY_CFG, cfg, emb), dataset

    def test_history_bounded_by_epochs(self):
        result, _ = self.run(epochs=3)
        assert 1 <= len(result.history) <= 3
        assert [h["epoch"] for h in result.history] == list(
            range(1, len(result.history) + 1)
        )
        for row in result.history:
            assert set(row) == {"epoch", "lr", "train_loss", "val_loss"}

    def test_restored_weights_reproduce_best_val_loss(self):
        result, dataset = self.run(epochs=4)
        params = models.load_params_from_entries(models.NOTES_HCR, TOY_CFG, result.entries)
        roles = toy_fold(dataset).roles
        val_ids = sorted(h for h, r in roles.items() if r == "val")
        w_neg, w_pos = fold_class_weights(dataset, roles)
        scores = traineval.predict_scores(
            models.NOTES_HCR, val_ids, dataset, params, TOY_CFG, toy_emb(), 8
        )
        labels = [dataset[h].label for h in val_ids]
        loss = weighted_bce(Tensor(np.array([scores[h] for h in val_ids])), labels, w_pos, w_neg)
        assert loss.item() == pytest.approx(result.best_val_loss, rel=1e-12)
        assert min(h["val_loss"] for h in result.history) == result.best_val_loss

    def test_one_eval_pass_over_the_val_stays_per_epoch(self, monkeypatch):
        dataset = toy_dataset()
        val_ids = {h for h, r in toy_fold(dataset).roles.items() if r == "val"}
        real_forward = traineval.batch_forward
        scored = Counter()

        def spy(kind, batch, *args, training=False, **kwargs):
            if not training:
                scored.update(h for h in batch if h in val_ids)
            return real_forward(kind, batch, *args, training=training, **kwargs)

        monkeypatch.setattr(traineval, "batch_forward", spy)
        result, _ = self.run(epochs=3, dataset=dataset)
        assert scored == {h: len(result.history) for h in val_ids}

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_val_scores_are_those_of_the_restored_weights(self, kind):
        result, dataset = self.run(kind=kind, epochs=4)
        params = models.load_params_from_entries(kind, TOY_CFG, result.entries)
        val_ids = sorted(h for h, r in toy_fold(dataset).roles.items() if r == "val")
        emb = toy_emb() if kind != models.CTS_RNN else None
        assert traineval.predict_scores(
            kind, val_ids, dataset, params, TOY_CFG, emb, 8
        ) == result.val_scores

    def test_identical_seeds_identical_runs(self):
        a, _ = self.run(epochs=3, seed=7)
        b, _ = self.run(epochs=3, seed=7)
        assert a.history == b.history
        assert a.val_scores == b.val_scores and a.test_scores == b.test_scores
        c, _ = self.run(epochs=3, seed=8)
        assert a.history != c.history

    def test_single_class_training_fold_aborts(self):
        dataset = toy_dataset()
        for stay in dataset.values():
            stay.label = False
        fold = toy_fold(dataset)
        first_test = next(h for h, r in fold.roles.items() if r == "test")
        dataset[first_test].label = True  # positives only outside train
        cfg = TrainConfig(epochs=2, seed=0)
        with pytest.raises(DataError):
            train_fold(models.NOTES_HCR, fold, dataset, TOY_CFG, cfg, toy_emb())

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_all_kinds_train(self, kind):
        result, dataset = self.run(kind=kind, epochs=2)
        assert result.best_epoch >= 1
        test_ids = [h for h, r in toy_fold(dataset).roles.items() if r == "test"]
        assert sorted(result.test_scores) == sorted(test_ids)
        assert all(0.0 < p < 1.0 for p in result.test_scores.values())

    def test_nan_vital_sign_without_finite_val_loss_is_a_data_error(self):
        dataset = toy_dataset(n=30)
        roles = toy_fold(dataset).roles
        first_train = next(h for h in sorted(roles) if roles[h] == "train")
        dataset[first_train].ts_values[0, 0] = np.nan
        with pytest.raises(DataError, match="finite validation loss"):
            self.run(kind=models.CTS_RNN, epochs=2, dataset=dataset)

    def test_previous_step_graph_is_released_before_next_forward(self, monkeypatch):
        real_forward = traineval.batch_forward
        previous = []

        def spy(*args, training=False, **kwargs):
            if training and previous:
                assert previous[-1]() is None, "the previous step's graph is still alive"
            probs = real_forward(*args, training=training, **kwargs)
            if training:  # Tensor has __slots__ and no weak references; its array does
                previous.append(weakref.ref(probs.data))
            return probs

        monkeypatch.setattr(traineval, "batch_forward", spy)
        self.run(epochs=2)
        assert len(previous) > 2


def count_forwards(monkeypatch) -> list:
    """The `training` flag of each `traineval.batch_forward` call from now on."""
    real_forward = traineval.batch_forward
    calls = []

    def spy(*args, training, **kwargs):
        calls.append(training)
        return real_forward(*args, training=training, **kwargs)

    monkeypatch.setattr(traineval, "batch_forward", spy)
    return calls


class TestCheckFold:
    def test_one_class_test_role_stops_train_before_any_fold_trains(self, monkeypatch):
        dataset = toy_dataset()
        folds = [toy_fold(dataset, 0), toy_fold(dataset, 1)]
        for h in folds[1].members("test"):
            dataset[h].label = False
        calls = count_forwards(monkeypatch)
        cfg = TrainConfig(epochs=2, seed=0)
        with pytest.raises(DataError, match="fold 1: the test role holds one class only"):
            traineval.train(models.NOTES_HCR, folds, dataset, TOY_CFG, cfg, toy_emb())
        assert not calls

    @pytest.mark.parametrize("kind", [models.CTS_RNN, models.MM_HCR])
    def test_stay_without_series_stops_train_fold_before_any_step(self, kind, monkeypatch):
        dataset = toy_dataset()
        fold = toy_fold(dataset)
        last_test = fold.members("test")[-1]
        dataset[last_test].ts_values = dataset[last_test].ts_mask = None
        calls = count_forwards(monkeypatch)
        cfg = TrainConfig(epochs=6, seed=0)
        emb = toy_emb() if kind != models.CTS_RNN else None
        with pytest.raises(DataError, match=f"fold 0: hadm {last_test} has no time series"):
            train_fold(kind, fold, dataset, TOY_CFG, cfg, emb)
        assert not calls


@pytest.mark.parametrize("kind", [models.CTS_RNN, models.MM_HCR])
@pytest.mark.parametrize("n_stays", [1, 4])
def test_scoring_a_stay_without_series_names_it(kind, n_stays):
    """A direct caller that skips `check_fold` gets a DataError naming the
    first series-less stay, with one stay in the batch or several."""
    dataset = toy_dataset(n=4)
    hadms = sorted(dataset)[:n_stays]
    for h in hadms[-2:]:
        dataset[h].ts_values = dataset[h].ts_mask = None
    first = hadms[-2:][0]
    params = models.init_model(kind, TOY_CFG, seed=0)
    emb = toy_emb() if kind != models.CTS_RNN else None
    with pytest.raises(DataError, match=f"hadm {first} has no time series for {kind}"):
        traineval.predict_scores(kind, hadms, dataset, params, TOY_CFG, emb)


def test_note_masks_are_the_non_pad_ids():
    ids = np.array([[4, 2, 0, 0], [-1, 3, 5, 0]], dtype=np.int32)  # -1: out of vocabulary
    stay = StayData(hadm_id=1, label=False, note_ids=ids)
    np.testing.assert_array_equal(stay.note_masks, ids != PAD_ID)


def test_class_weights_ignore_val_and_test_labels():
    dataset = toy_dataset(n=50, seed=3)
    fold = toy_fold(dataset)
    train_labels = [dataset[h].label for h, r in fold.roles.items() if r == "train"]
    expected = traineval.class_weights(train_labels)
    # poison every non-train label; weights must not move
    for h, role in fold.roles.items():
        if role != "train":
            dataset[h].label = True
    assert fold_class_weights(dataset, fold.roles) == expected


def test_single_batch_loss_decreases_over_first_ten_steps():
    dataset = toy_dataset(n=30, seed=5)
    # batches stack [B, T, L]: members must share a note count
    batch = [h for h in sorted(dataset) if dataset[h].note_ids.shape[0] == 2][:8]
    assert len(batch) == 8
    labels = np.array([dataset[h].label for h in batch], dtype=np.float64)
    params = models.init_model(models.NOTES_HCR, TOY_CFG, seed=1)
    named = models.named_parameters(params)
    optimizer = AmsGrad(named, lr=1e-3)
    emb = toy_emb()
    losses = []
    for _ in range(10):
        probs = traineval.batch_forward(
            models.NOTES_HCR, batch, dataset, params, TOY_CFG, emb,
            training=True, rng=np.random.default_rng(0),
        )
        loss = weighted_bce(probs, labels, 1.0, 1.0)
        optimizer.zero_grad()
        backward(loss, named.values())
        optimizer.step()
        losses.append(loss.item())
    small_allowance_used = 0
    for before, after in zip(losses, losses[1:]):
        increase = after - before
        if increase > 0:
            assert increase <= 1e-6
            small_allowance_used += 1
    assert small_allowance_used <= 1


class TestMakeBatches:
    def test_hcr_batches_are_rectangular(self):
        dataset = toy_dataset(n=60, seed=9)
        rng = np.random.default_rng(0)
        batches = make_batches(models.NOTES_HCR, sorted(dataset), dataset, 8, rng)
        seen = []
        for batch in batches:
            assert 1 <= len(batch) <= 8
            t_values = {dataset[h].note_ids.shape[0] for h in batch}
            assert len(t_values) == 1
            seen.extend(batch)
        assert sorted(seen) == sorted(dataset)

    def test_cts_batches_partition(self):
        dataset = toy_dataset(n=30, seed=10)
        batches = make_batches(models.CTS_RNN, sorted(dataset), dataset, 7)
        seen = [h for b in batches for h in b]
        assert sorted(seen) == sorted(dataset)

    def test_shuffle_changes_order_not_membership(self):
        dataset = toy_dataset(n=40, seed=11)
        plain = make_batches(models.CTS_RNN, sorted(dataset), dataset, 8)
        shuffled = make_batches(
            models.CTS_RNN, sorted(dataset), dataset, 8, np.random.default_rng(1)
        )
        assert sorted(h for b in plain for h in b) == sorted(
            h for b in shuffled for h in b
        )
        assert plain != shuffled
