"""Training and evaluation.

Class-weighted binary cross-entropy under AMSGrad with the staged
learning-rate schedule, early stopping on validation loss with
best-weight restore, and patient-grouped 5-fold cross-validation.

The evaluation sorts each fold's scores once and counts the positives
in each run of tied scores: AUROC from integer wins and ties, AUPRC
summed over the runs in descending threshold order. Models are compared
with one-tailed paired t-tests, whose tail is the closed form for a
whole number of degrees of freedom. The report is one list of records,
the cells and then the comparisons, which `report.jsonl` holds and the
text table is rendered from.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import models
from .cohort import FoldSplit, class_weights
from .embed import EmbeddingMatrix
from .errors import ConfigurationError, DataError
from .ndcore import AmsGrad, Tensor, backward, l2_penalty
from .ndcore.tensor import _make
from .notesproc import PAD_ID

# epochs at which the note models' learning rate drops tenfold
LR_DROP_EPOCHS = (10, 50, 90)
# stays per batch: the note models', and CTS-RNN's
HCR_BATCH_SIZE = 16
CTS_BATCH_SIZE = 64


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    lr: float = 1e-3
    early_stop_patience: int = 10
    k: int = 5
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError("need at least one epoch")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigurationError(f"lr must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.early_stop_patience < 1:
            raise ConfigurationError(
                f"early_stop_patience must be >= 1, got {self.early_stop_patience}"
            )

    def batch_size(self, kind: str) -> int:
        return CTS_BATCH_SIZE if kind == models.CTS_RNN else HCR_BATCH_SIZE


def lr_at_epoch(config: TrainConfig, epoch: int, kind: str) -> float:
    """Initial rate divided by 10 at each of LR_DROP_EPOCHS; the schedule
    applies to the note models only, CTS-RNN trains at a constant rate."""
    if epoch < 1:
        raise ConfigurationError("epochs are 1-based")
    if kind == models.CTS_RNN:
        return config.lr
    drops = sum(1 for e in LR_DROP_EPOCHS if epoch >= e)
    return config.lr / (10.0 ** drops)


# -- loss -------------------------------------------------------------------------


BCE_EPS = 1e-12


def weighted_bce(
    probs: Tensor, labels: np.ndarray, w_pos: float, w_neg: float
) -> Tensor:
    """Mean of -[w_pos*y*ln(p) + w_neg*(1-y)*ln(1-p)] over the batch.

    Probabilities are clamped to [eps, 1-eps] first; no gradient flows
    where the clamp acts. One tape node over `probs` (labels: its shape),
    whose value and backward run the array operations of the clip / log /
    mul / add / mean chain in its order, so they carry its bits.
    """
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(probs.data, BCE_EPS, 1.0 - BCE_EPS)
    q = 1.0 - p  # the chain's 1 + (-p), the same bits
    pos, neg = w_pos * y, w_neg * (1.0 - y)
    losses = -(np.log(p) * pos + np.log(q) * neg)
    scale = 1.0 / losses.size

    def back(g):
        m = -(g * scale)
        dp = -(m * neg / q)
        dp += m * pos / p
        kept = (probs.data >= BCE_EPS) & (probs.data <= 1.0 - BCE_EPS)
        probs._accum(dp * kept, fresh=True)

    return _make(losses.sum() * scale, (probs,), "weighted_bce", back)


# -- metrics -----------------------------------------------------------------------


def _tie_runs(
    scores: Sequence[float], labels: np.ndarray, metric: str
) -> tuple[np.ndarray, np.ndarray]:
    """Positives and sizes of the runs of tied scores, in ascending score
    order: one sort, then the runs start wherever the score changes."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise DataError(f"{metric} undefined: a score is not finite")
    order = np.argsort(scores)
    ranked = scores[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    positives = np.add.reduceat((labels[order] == 1).astype(np.int64), starts)
    return positives, np.diff(np.r_[starts, len(ranked)])


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability that a random positive outscores a random negative,
    ties counted half (the rank-statistic formulation)."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("auroc undefined: only one class present")
    positives, sizes = _tie_runs(scores, labels, "auroc")
    negatives = sizes - positives
    # integer counts, so the result does not depend on summation order
    wins = int(positives @ (np.cumsum(negatives) - negatives))
    ties = int(positives @ negatives)
    return (wins + 0.5 * ties) / (n_pos * n_neg)


def auprc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Average precision: sum of (R_n - R_{n-1}) * P_n over descending
    score thresholds, step-wise with no interpolation."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise DataError("auprc undefined: no positive examples")
    positives, sizes = _tie_runs(scores, labels, "auprc")
    tp = np.cumsum(positives[::-1])
    recall = tp / n_pos
    terms = np.diff(recall, prepend=0.0) * (tp / np.cumsum(sizes[::-1]))
    # cumsum adds in threshold order, as a loop would; np.sum adds pairwise
    return float(np.cumsum(terms)[-1])


# -- Student t -----------------------------------------------------------------------


def t_sf(t: float, df: float) -> float:
    """Upper-tail probability of Student's t for a whole number of degrees
    of freedom: (1 - A(t|df)) / 2, with A in the closed forms of Abramowitz
    & Stegun 26.7.3 (odd df) and 26.7.4 (even df), at most df/2 terms."""
    if not (df >= 1 and float(df).is_integer()):
        raise ConfigurationError(f"degrees of freedom must be a whole number >= 1, got {df}")
    df = int(df)
    theta = math.atan(t / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    # 1 + sum of the cos^2 powers; each term is the last times cos^2 (j - 1) / j
    series = term = 1.0
    for j in range(2 if df % 2 == 0 else 3, df - 1, 2):
        term *= cos * cos * (j - 1) / j
        series += term
    if df % 2 == 0:
        a = sin * series
    elif df == 1:
        a = 2.0 * theta / math.pi
    else:
        a = 2.0 * (theta + sin * cos * series) / math.pi
    return 0.5 - 0.5 * a


def paired_ttest_onetailed(a: Sequence[float], b: Sequence[float]) -> float:
    """p-value for the alternative mean(b - a) > 0, df = k - 1.

    Zero-variance differences use the documented convention: p = 0 when
    the mean difference is positive, 1 when negative, 0.5 when zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ConfigurationError("paired t-test needs two equal vectors, k >= 2")
    d = b - a
    if not np.isfinite(d).all():
        raise DataError("paired t-test undefined: a difference is not finite")
    mean = d.mean()
    sd = d.std(ddof=1)
    if sd == 0.0:
        return 0.0 if mean > 0 else (1.0 if mean < 0 else 0.5)
    t = mean / (sd / math.sqrt(len(d)))
    return t_sf(t, len(d) - 1)


def significance_marker(p: float) -> str:
    """Table markers: ** below 0.01, * below 0.05, dagger otherwise."""
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return "†"


# -- datasets -----------------------------------------------------------------------


@dataclass
class StayData:
    """Model-ready arrays for one hospital stay."""

    hadm_id: int
    label: bool
    note_ids: np.ndarray | None = None  # [T, L] int32
    ts_values: np.ndarray | None = None  # [W, F]
    ts_mask: np.ndarray | None = None  # [W, F] bool

    @property
    def note_masks(self) -> np.ndarray | None:
        """[T, L] bool, True at the real tokens: the ids that are not PAD_ID."""
        return None if self.note_ids is None else self.note_ids != PAD_ID


def fold_class_weights(
    dataset: Mapping[int, StayData], roles: Mapping[int, str]
) -> tuple[float, float]:
    """Weights from the training-fold labels only."""
    train_labels = [dataset[h].label for h in sorted(roles) if roles[h] == "train"]
    return class_weights(train_labels)


def _require_modalities(kind: str, stay: StayData) -> None:
    has = models.branches(kind)
    if "notes" in has and stay.note_ids is None:
        raise DataError(f"hadm {stay.hadm_id}: notes required for {kind}")
    if "cts" in has and stay.ts_values is None:
        raise DataError(f"hadm {stay.hadm_id}: time series required for {kind}")


def make_batches(
    kind: str,
    hadm_ids: Sequence[int],
    dataset: Mapping[int, StayData],
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> list[list[int]]:
    """Batches of stays; note models bucket stays by note count so each
    batch stacks rectangular [B, T, L] arrays. Pass an rng to shuffle."""
    hadm_ids = sorted(hadm_ids)
    if "notes" not in models.branches(kind):
        ids = np.array(hadm_ids)
        if rng is not None:
            ids = ids[rng.permutation(len(ids))]
        return [ids[i : i + batch_size].tolist() for i in range(0, len(ids), batch_size)]
    buckets: dict[int, list[int]] = {}
    for h in hadm_ids:
        stay = dataset[h]
        _require_modalities(kind, stay)
        buckets.setdefault(stay.note_ids.shape[0], []).append(h)
    batches = []
    for t in sorted(buckets):
        members = np.array(buckets[t])
        if rng is not None:
            members = members[rng.permutation(len(members))]
        batches.extend(
            members[i : i + batch_size].tolist()
            for i in range(0, len(members), batch_size)
        )
    if rng is not None:
        order = rng.permutation(len(batches))
        batches = [batches[i] for i in order]
    return batches


def batch_forward(
    kind: str,
    batch: Sequence[int],
    dataset: Mapping[int, StayData],
    params: models.Model,
    model_cfg: models.ModelConfig,
    embeddings: EmbeddingMatrix | None,
    *,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Probabilities [B] for one batch of stays."""
    stays = [dataset[h] for h in batch]
    for stay in stays:
        _require_modalities(kind, stay)
    inputs = {}
    if "notes" in models.branches(kind):
        inputs["ids"] = np.stack([s.note_ids for s in stays])
    if "cts" in models.branches(kind):
        inputs["values"] = np.stack([s.ts_values for s in stays])
        inputs["obs_masks"] = np.stack([s.ts_mask for s in stays])
    return models.forward(params, model_cfg, embeddings, training=training, rng=rng, **inputs)


def predict_scores(
    kind: str,
    hadm_ids: Sequence[int],
    dataset: Mapping[int, StayData],
    params,
    model_cfg: models.ModelConfig,
    embeddings: EmbeddingMatrix | None,
    batch_size: int = 64,
) -> dict[int, float]:
    """Eval-mode probabilities, deterministic, no tape."""
    out: dict[int, float] = {}
    for batch in make_batches(kind, hadm_ids, dataset, batch_size):
        probs = batch_forward(
            kind, batch, dataset, params, model_cfg, embeddings, training=False
        )
        for h, p in zip(batch, probs.data):
            out[h] = float(p)
    return out


# -- the training loop ---------------------------------------------------------------


@dataclass
class FoldResult:
    fold: int
    best_epoch: int
    best_val_loss: float
    history: list[dict] = field(default_factory=list)
    entries: dict[str, np.ndarray] = field(default_factory=dict)
    val_scores: dict[int, float] = field(default_factory=dict)
    test_scores: dict[int, float] = field(default_factory=dict)

    def metric_inputs(self, dataset: Mapping[int, StayData], split: str):
        scores = self.test_scores if split == "test" else self.val_scores
        ids = sorted(scores)
        return [scores[h] for h in ids], [int(dataset[h].label) for h in ids]


def train_fold(
    kind: str,
    fold_split: FoldSplit,
    dataset: Mapping[int, StayData],
    model_cfg: models.ModelConfig,
    train_cfg: TrainConfig,
    embeddings: EmbeddingMatrix | None = None,
) -> FoldResult:
    """Train one fold to the early-stopping point and score val/test.

    Up to `epochs` passes, each scoring the val stays once; training stops
    once the validation loss has not improved for `early_stop_patience`
    epochs. The best epoch's val scores are kept and its weights (with
    batchnorm running statistics) restored to score the test stays.
    """
    train_cfg.validate()
    roles = fold_split.roles
    train_ids, val_ids, test_ids = map(fold_split.members, ("train", "val", "test"))
    if not train_ids or not val_ids or not test_ids:
        raise DataError(f"fold {fold_split.fold}: some role is empty")
    w_neg, w_pos = fold_class_weights(dataset, roles)
    val_labels = np.array([dataset[h].label for h in val_ids], dtype=np.float64)

    seed_seq = np.random.SeedSequence((train_cfg.seed, fold_split.fold))
    init_seed, loop_seed = seed_seq.spawn(2)
    rng = np.random.default_rng(loop_seed)
    params = models.init_model(kind, model_cfg, seed=int(init_seed.generate_state(1)[0]))
    named = models.named_parameters(params)
    optimizer = AmsGrad(named, lr=train_cfg.lr)
    decay_groups: dict[float, list] = {}
    for weight, lam in models.decayed_weights(params, model_cfg):
        if lam > 0.0:
            decay_groups.setdefault(lam, []).append(weight)
    batch_size = train_cfg.batch_size(kind)

    result = FoldResult(fold=fold_split.fold, best_epoch=0, best_val_loss=math.inf)
    patience_left = train_cfg.early_stop_patience
    best_entries: dict[str, np.ndarray] | None = None

    for epoch in range(1, train_cfg.epochs + 1):
        lr = lr_at_epoch(train_cfg, epoch, kind)
        optimizer.lr = lr
        loss_sum = 0.0
        n_examples = 0
        for batch in make_batches(kind, train_ids, dataset, batch_size, rng=rng):
            labels = np.array([dataset[h].label for h in batch], dtype=np.float64)
            probs = batch_forward(
                kind, batch, dataset, params, model_cfg, embeddings,
                training=True, rng=rng,
            )
            loss = weighted_bce(probs, labels, w_pos, w_neg)
            for lam, weights in decay_groups.items():
                loss = loss + l2_penalty(weights, lam)
            optimizer.zero_grad()
            backward(loss, named.values())
            optimizer.step()
            loss_sum += float(loss.data) * len(batch)
            n_examples += len(batch)
            # drop this step's graph before the next forward builds its own
            del probs, loss
        train_loss = loss_sum / max(n_examples, 1)
        val_scores = predict_scores(
            kind, val_ids, dataset, params, model_cfg, embeddings, batch_size
        )
        val_probs = Tensor(np.array([val_scores[h] for h in val_ids]))
        val_loss = weighted_bce(val_probs, val_labels, w_pos, w_neg).item()
        result.history.append(
            {"epoch": epoch, "lr": lr, "train_loss": train_loss, "val_loss": val_loss}
        )
        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            result.val_scores = val_scores
            best_entries = {
                name: arr.copy() for name, arr in models.params_to_entries(params).items()
            }
            patience_left = train_cfg.early_stop_patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break

    if best_entries is None:
        raise DataError(
            f"fold {fold_split.fold}: no epoch gave a finite validation loss"
        )
    params = models.load_params_from_entries(kind, model_cfg, best_entries)
    result.entries = best_entries
    result.test_scores = predict_scores(
        kind, test_ids, dataset, params, model_cfg, embeddings, batch_size
    )
    return result


def _train_fold_job(args):
    return train_fold(*args)


def train(
    kind: str,
    folds: Sequence[FoldSplit],
    dataset: Mapping[int, StayData],
    model_cfg: models.ModelConfig,
    train_cfg: TrainConfig,
    embeddings: EmbeddingMatrix | None = None,
    jobs: int = 1,
) -> list[FoldResult]:
    """All folds, sequentially or in parallel processes. Per-fold seeds
    derive from (seed, fold), so results do not depend on `jobs`."""
    job_args = [
        (kind, fold, dataset, model_cfg, train_cfg, embeddings) for fold in folds
    ]
    if jobs <= 1 or len(folds) <= 1:
        return [_train_fold_job(a) for a in job_args]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_train_fold_job, job_args))


# -- reporting --------------------------------------------------------------------------


MODEL_ORDER = [models.CTS_RNN, models.NOTES_HCR, models.MM_HCR]
METRICS = ("auroc", "auprc")


def build_report(
    fold_metrics: Mapping[tuple[str, int], dict[str, list[float]]], k: int
) -> list[dict]:
    """The report's records: one cell per (model, window), then the
    comparisons, in the form `report.jsonl` holds them.

    fold_metrics maps (model, window) to {"auroc": [...], "auprc": [...]}
    with exactly k per-fold values each; adjacent models in the
    single-modality -> multi-modal ordering are compared per column with
    one-tailed paired t-tests.
    """
    cells: dict[tuple[str, int], dict] = {}
    for (model, window), values in sorted(fold_metrics.items()):
        cell = {"type": "cell", "model": model, "window": window}
        for metric in METRICS:
            folds = list(values[metric])
            if len(folds) != k:
                raise DataError(
                    f"{model} W={window}: expected {k} {metric} folds, got {len(folds)}"
                )
            cell[f"{metric}_folds"] = folds
            cell[f"{metric}_mean"] = float(np.mean(folds))
            cell[f"{metric}_sd"] = float(np.std(folds, ddof=1)) if k > 1 else 0.0
        cells[model, window] = cell
    comparisons = []
    for window in sorted({window for _, window in cells}):
        present = [m for m in MODEL_ORDER if (m, window) in cells]
        for baseline, better in zip(present, present[1:]):
            for metric in METRICS:
                p = paired_ttest_onetailed(
                    cells[baseline, window][f"{metric}_folds"],
                    cells[better, window][f"{metric}_folds"],
                )
                comparisons.append({
                    "type": "comparison", "baseline": baseline, "better": better,
                    "window": window, "metric": metric,
                    "p_value": p, "marker": significance_marker(p),
                })
    return list(cells.values()) + comparisons


def render_report(records: Sequence[dict]) -> str:
    """Aligned text table of the report's records: model rows, W x {AUROC,
    AUPRC} columns, with mean +/- sd cells and significance markers
    against the previous row. Records of other types are skipped."""
    text = {
        (r["model"], r["window"], metric): f"{r[metric + '_mean']:.4f}±{r[metric + '_sd']:.4f}"
        for r in records if r["type"] == "cell" for metric in METRICS
    }
    for r in records:
        if r["type"] == "comparison":
            text[r["better"], r["window"], r["metric"]] += r["marker"]
    windows = sorted({window for _, window, _ in text})
    columns = [(metric, window) for metric in METRICS for window in windows]
    rows = [["model"] + [f"{metric.upper()} W={window}" for metric, window in columns]]
    for model in MODEL_ORDER:
        if any(m == model for m, _, _ in text):
            rows.append([model] + [text.get((model, w, metric), "-") for metric, w in columns])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    legend = (
        "significance vs previous row: ** p<0.01, * p<0.05, "
        "† not significant (p>=0.05)"
    )
    return "\n".join(lines + [legend])
