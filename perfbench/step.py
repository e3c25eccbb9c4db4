"""Library-level training for the benchmark.

    python perfbench/step.py SPEC.json

- desk: reads the desk artifacts of the CLI stages and, on every fold
  and for every kind, runs the program's own `traineval.train_fold`
  (one epoch, validation loss, val and test scoring), or takes the
  fold's checkpoint and scores from the CLI `train` stage, and then
  times `traineval.predict_scores` on the val and test stays with the
  fold's best weights.
- paper: builds its inputs from `generate_synthetic` and the default
  paper `ModelConfig`, takes one fixed batch per kind, warms up with one
  step per kind, then repeats passes (training steps and three eval-mode
  forwards per kind) until the run's seconds are spent, and
  ends with one skip-gram epoch at dim 200 on a fixed corpus slice. It
  repeats the timed set-up after the warm-up and after the passes.
  A training step is the one `train_fold` takes: `batch_forward`,
  `weighted_bce` plus the L2 terms, `backward` and `AmsGrad.step`.

In paper mode the previous step's graph is released before the next
step starts. `train_fold` still holds it through `loss` and `probs`
while the next forward runs; at paper scale that would take the peak
from about 5 GB to about 7.2 GB, more than the 8 GB machine can hold
beside the system, so paper mode cannot show that difference. The
traced desk run reports the tracemalloc peak of a whole `train_fold`
instead (`fold_alloc_peak_mb`), beside the peak of one released step.

Every loss must be finite and every probability inside (0, 1); in paper
mode every parameter gradient must be finite, and in desk mode
rescoring the best weights must reproduce the fold's scores (those of
`train_fold` or of the CLI `train` stage) bit for bit. The result
JSON holds the timings, the checks, a digest of the losses and
probabilities, and, when traced, spans, per-step tensor counts and
allocation peaks.
"""

import sys

sys.dont_write_bytecode = True

import hashlib
import json
import math
import statistics
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import spans
from notemort import cli, cohort, embed, models, notesproc, pipeline, synth, traineval
from notemort.ndcore import AmsGrad, load_checkpoint, no_grad
from notemort.ndcore.tensor import Tensor

KINDS = (models.NOTES_HCR, models.CTS_RNN, models.MM_HCR)
# Timings are CPU seconds of the whole process (user + system, every
# thread), the same clock `os.wait4` gives for a CLI stage process.
# Wall-clock times mark the trace windows.
clock = time.process_time
# paper mode, per kind and pass: training steps (cts-rnn steps are short,
# so it takes several) and eval-mode forwards
STEPS = {models.NOTES_HCR: 1, models.CTS_RNN: 15, models.MM_HCR: 1}
EVALS = 3
# paper mode initialises every model from this seed, so that `val_loss`
# (a warm-up loss at initial weights) moves with the seed's data only; a
# seeded initialisation spread it by 0.12-0.22 over ten seeds, against
# 0.09 with a fixed one
INIT_SEED = 0
# desk mode times `predict_scores` this many times per kind and fold and
# keeps the median: one scoring call takes a fraction of a second, and
# on desk-train the companion's scoring is all of its measured work
SCORE_REPEATS = 3


class Checks:
    """Counts operations and the ones that failed an output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


def _scalar(t) -> float:
    return float(np.asarray(t.data).reshape(-1)[0])


def _probs_ok(p: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(p)) and np.all(p > 0.0) and np.all(p < 1.0))


class Trainer:
    """One model kind at a fixed batch: parameters, optimizer, decay groups,
    class weights. `windows`, when set, collects the steps' wall-clock
    intervals for the traced run's shares."""

    def __init__(self, kind, dataset, model_cfg, train_cfg, embeddings, weights, seed):
        self.kind = kind
        self.dataset = dataset
        self.cfg = model_cfg
        self.embeddings = embeddings if kind != models.CTS_RNN else None
        self.w_neg, self.w_pos = weights
        self.rng = np.random.default_rng(seed)
        self.params = models.init_model(
            kind, model_cfg, seed=seed, embeddings=self.embeddings
        )
        self.named = models.named_parameters(self.params)
        self.optimizer = AmsGrad(self.named, lr=train_cfg.lr)
        self.windows: list | None = None
        self.decay_groups: dict[float, list] = {}
        for weight, lam in models.decayed_weights(self.params, model_cfg):
            if lam > 0.0:
                self.decay_groups.setdefault(lam, []).append(weight)

    def mean_weight(self, batch) -> float:
        labels = self._labels(batch)
        return float(np.mean(np.where(labels > 0.5, self.w_pos, self.w_neg)))

    def _labels(self, batch):
        return np.array([self.dataset[h].label for h in batch], dtype=np.float64)

    def train_step(self, batch, check_grads: bool = False):
        """(CPU seconds, wall seconds, loss, probabilities, ok) for one
        optimizer step."""
        start, tick = time.perf_counter(), clock()
        probs = traineval.batch_forward(
            self.kind, batch, self.dataset, self.params, self.cfg, self.embeddings,
            training=True, rng=self.rng,
        )
        loss = traineval.weighted_bce(probs, self._labels(batch), self.w_pos, self.w_neg)
        self.last_bce = _scalar(loss)
        for lam, weights in self.decay_groups.items():
            loss = loss + traineval.l2_penalty(weights, lam)
        self.optimizer.zero_grad()
        traineval.backward(loss, self.named.values())
        grads_ok = not check_grads or all(
            p.grad is None or bool(np.all(np.isfinite(p.grad)))
            for p in self.named.values()
        )
        self.optimizer.step()
        seconds = clock() - tick
        end = time.perf_counter()
        if self.windows is not None:
            self.windows.append(("train", start, end))
        value = _scalar(loss)
        p = probs.data.copy()
        del probs, loss
        ok = math.isfinite(value) and _probs_ok(p) and grads_ok
        return seconds, end - start, value, p, ok

    def eval_forward(self, batch):
        """(CPU seconds, wall seconds, loss, probabilities, ok) for one
        eval-mode forward."""
        start, tick = time.perf_counter(), clock()
        with no_grad():
            probs = traineval.batch_forward(
                self.kind, batch, self.dataset, self.params, self.cfg, self.embeddings,
                training=False,
            )
            loss = traineval.weighted_bce(probs, self._labels(batch), self.w_pos, self.w_neg)
        seconds = clock() - tick
        end = time.perf_counter()
        if self.windows is not None:
            self.windows.append(("score", start, end))
        value = _scalar(loss)
        p = probs.data.copy()
        return seconds, end - start, value, p, math.isfinite(value) and _probs_ok(p)

    def tensors_per_step(self, batch) -> int:
        before = Tensor(0.0)._id
        self.train_step(batch)
        return Tensor(0.0)._id - before - 1

    def alloc_peak_mb(self, batch) -> float:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.train_step(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / 2**20


class Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, loss: float, probs: np.ndarray) -> None:
        self._hash.update(np.float64(loss).tobytes())
        self._hash.update(np.ascontiguousarray(probs, dtype=np.float64).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _layer_extras(trainers, batches) -> dict:
    out = {"tensors_per_step": {}, "alloc_peak_mb_per_step": {}}
    for kind, trainer in trainers.items():
        out["tensors_per_step"][kind] = trainer.tensors_per_step(batches[kind])
        out["alloc_peak_mb_per_step"][kind] = trainer.alloc_peak_mb(batches[kind])
    return out


# -- desk mode ----------------------------------------------------------------


def _fold_peak_mb(kind, fold, dataset, model_cfg, train_cfg, embeddings) -> float:
    """tracemalloc peak of the program's own `train_fold` on one fold."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traineval.train_fold(kind, fold, dataset, model_cfg, train_cfg, embeddings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def _cli_fold(train_dir: Path, kind, window, fold):
    """The best weights and scores the CLI `train` stage saved for one fold."""
    run_dir = train_dir / f"{kind}_W{window}"
    entries, _ = load_checkpoint(run_dir / f"fold{fold}.ckpt")
    scores = {"val": {}, "test": {}}
    for line in (run_dir / f"fold{fold}.scores.jsonl").read_text().splitlines():
        row = json.loads(line)
        scores[row["split"]][row["hadm_id"]] = row["prob"]
    return entries, scores["val"], scores["test"]


def run_desk(spec, checks: Checks, tracer) -> dict:
    """Without `trained`, train every kind on every fold with `train_fold`
    and time it; with `trained` (the CLI's `train/` directory), take each
    fold's best weights and scores from the CLI `train` stage instead.
    Either way, rescore the val and test stays with the best weights."""
    work = Path(spec["work"])
    config = cli.parse_config(Path(spec["config"]).read_text())
    model_cfg, train_cfg = config.model_cfg, config.train_cfg
    admissions = cohort.read_admissions_csv(work / "tables/admissions.csv")
    icustays = cohort.read_icustays_csv(work / "tables/icustays.csv")
    timeseries = cohort.read_timeseries_csv(work / "tables/timeseries.csv")
    clean = notesproc.read_clean_notes(
        work / "prep/clean_notes.jsonl", note_len=model_cfg.note_len
    )
    wc = pipeline.build_window_cohort(clean, admissions, icustays, config.window)
    dataset = pipeline.build_dataset(wc, timeseries)
    _, embeddings = embed.load_embeddings(work / "embeddings/embeddings.txt")
    folds = cohort.grouped_kfold(wc.eligible, wc.subject_of, k=train_cfg.k, seed=config.seed)
    trained = Path(spec["trained"]) if spec.get("trained") else None

    digest = Digest()
    windows: list = []
    result = {"train_s": {kind: 0.0 for kind in KINDS}, "train_stays": 0, "train_time": 0.0,
              "score_stays": 0, "score_time": 0.0, "val_losses": [], "windows": windows}
    for fold in folds:
        roles = fold.roles
        splits = [sorted(h for h, r in roles.items() if r == role) for role in ("val", "test")]
        for kind in KINDS:
            emb = embeddings if kind != models.CTS_RNN else None
            result["train_stays"] += train_cfg.epochs * sum(1 for r in roles.values()
                                                            if r == "train")
            best_val_loss = 0.0  # the CLI's is in its history files
            if trained is None:
                start, tick = time.perf_counter(), clock()
                res = traineval.train_fold(kind, fold, dataset, model_cfg, train_cfg, emb)
                seconds = clock() - tick
                windows.append(("train", start, time.perf_counter()))
                result["train_s"][kind] += seconds
                result["train_time"] += seconds
                losses = [v for row in res.history for v in (row["train_loss"], row["val_loss"])]
                checks.op(all(map(math.isfinite, losses)), f"{kind} fold {fold.fold} train_fold")
                best_val_loss = res.best_val_loss
                result["val_losses"].append(best_val_loss)
                entries, saved = res.entries, [res.val_scores, res.test_scores]
            else:
                entries, *saved = _cli_fold(trained, kind, config.window, fold.fold)
            probs = np.array([saved[0][h] for h in splits[0]] + [saved[1][h] for h in splits[1]])
            checks.op(_probs_ok(probs), f"{kind} fold {fold.fold} scores in (0, 1)")
            digest.add(best_val_loss, probs)

            params = models.load_params_from_entries(kind, model_cfg, entries)
            times = []
            for _ in range(SCORE_REPEATS):
                start, tick = time.perf_counter(), clock()
                scores = [traineval.predict_scores(kind, ids, dataset, params, model_cfg, emb,
                                                   train_cfg.batch_size(kind)) for ids in splits]
                times.append(clock() - tick)
                windows.append(("score", start, time.perf_counter()))
                # eval mode is deterministic: rescoring each split with the
                # best weights must reproduce the fold's own scores bit for bit
                checks.op(scores == saved, f"{kind} fold {fold.fold} predict_scores")
            result["score_time"] += statistics.median(times)
            result["score_stays"] += len(probs)
    result["digest"] = digest.hexdigest()
    if tracer is not None:
        result.update(_desk_extras(folds[0], dataset, model_cfg, train_cfg, embeddings))
    return result


def _desk_extras(fold, dataset, model_cfg, train_cfg, embeddings) -> dict:
    """Per-step tensor counts and allocation peaks, and the peak of a whole
    `train_fold`, on the first fold. Run after the measured windows."""
    weights = traineval.fold_class_weights(dataset, fold.roles)
    train_ids = sorted(h for h, r in fold.roles.items() if r == "train")
    trainers, batches, fold_peak = {}, {}, {}
    for kind in KINDS:
        trainers[kind] = Trainer(kind, dataset, model_cfg, train_cfg, embeddings, weights,
                                 seed=train_cfg.seed)
        batches[kind] = traineval.make_batches(
            kind, train_ids, dataset, train_cfg.batch_size(kind), rng=trainers[kind].rng
        )[0]
        fold_peak[kind] = _fold_peak_mb(
            kind, fold, dataset, model_cfg, train_cfg,
            embeddings if kind != models.CTS_RNN else None,
        )
    return {**_layer_extras(trainers, batches), "fold_alloc_peak_mb": fold_peak}


# -- paper mode ---------------------------------------------------------------


def _write_slice(work: Path, vocab, sentences) -> None:
    """The skip-gram slice in the CLI's vocabulary and corpus formats."""
    with open(work / "d200_vocab.txt", "w", encoding="utf-8") as handle:
        for idx, token in enumerate(vocab.id_to_token):
            handle.write(f"{token}\t{idx}\t{vocab.frequencies[idx]}\n")
    with open(work / "d200_corpus.jsonl", "w", encoding="utf-8") as handle:
        for sentence in sentences:
            handle.write(json.dumps(sentence) + "\n")


def corpus_slice(sentences, tokens: int):
    """Leading sentences holding at least `tokens` tokens."""
    out, total = [], 0
    for sentence in sentences:
        if total >= tokens:
            break
        out.append(list(sentence))
        total += len(sentence)
    return out


def paper_inputs(spec, work: Path):
    scale = spec["scale"]
    start, tick = time.perf_counter(), clock()
    tables = synth.generate_synthetic(
        synth.SynthConfig(
            n_subjects=scale["n_subjects"], note_tokens_mean=scale["note_tokens_mean"]
        ),
        seed=spec["seed"],
    )
    paths = tables.write(work / "tables")
    synth_s = clock() - tick
    synth_window = ("synth", start, time.perf_counter())
    prep = pipeline.preprocess_notes(
        tables.notes, min_count=scale["min_count"], note_len=scale["note_len"]
    )
    admissions = cohort.read_admissions_csv(paths["admissions"])
    icustays = cohort.read_icustays_csv(paths["icustays"])
    timeseries = cohort.read_timeseries_csv(paths["timeseries"])
    wc = pipeline.build_window_cohort(prep.model_notes, admissions, icustays, 24)
    dataset = pipeline.build_dataset(wc, timeseries)
    rng = np.random.default_rng(spec["seed"])
    vectors = rng.normal(0.0, 0.3, size=(prep.vocab.size, scale["embed_dim"]))
    vectors[0] = 0.0
    embeddings = embed.EmbeddingMatrix(vectors)

    batches = {}
    wanted = {
        models.NOTES_HCR: (scale["notes_batch"], scale["notes_per_stay"]),
        models.MM_HCR: (scale["mm_batch"], 1),
        models.CTS_RNN: (scale["cts_batch"], None),
    }
    for kind, (size, n_notes) in wanted.items():
        for batch in traineval.make_batches(kind, wc.eligible, dataset, size, rng=rng):
            if len(batch) == size and (
                n_notes is None or dataset[batch[0]].note_ids.shape[0] == n_notes
            ):
                batches[kind] = batch
                break
        else:
            raise RuntimeError(f"no full {kind} batch of {size} stays in the paper inputs")
    weights = cohort.class_weights([dataset[h].label for h in wc.eligible])
    notes_masks = np.stack([dataset[h].note_masks for h in batches[models.NOTES_HCR]])
    fingerprint = hashlib.sha256(vectors.tobytes())
    for kind, batch in batches.items():
        fingerprint.update(np.asarray(batch).tobytes())
        for h in batch:
            fingerprint.update(dataset[h].ts_values.tobytes() if kind == models.CTS_RNN
                               else dataset[h].note_ids.tobytes())
    return {
        "synth_s": synth_s, "synth_window": synth_window, "prep": prep, "dataset": dataset,
        "embeddings": embeddings, "batches": batches, "weights": weights,
        "pad_share": float(1.0 - notes_masks.mean()), "fingerprint": fingerprint.hexdigest(),
    }


def run_paper(spec, checks: Checks, tracer) -> dict:
    work = Path(spec["work"])
    scale = spec["scale"]
    setup_s, synth_s, windows, built = [], [], [], []

    def set_up() -> None:
        """One timed set-up. The first builds the inputs; the others run
        after the warm-up and after the passes, so that the median is not
        one moment of the host's speed, and must rebuild the same inputs."""
        if len(setup_s) == spec["setup_reps"]:
            return
        tick = clock()
        inputs = paper_inputs(spec, work)
        setup_s.append(clock() - tick)
        synth_s.append(inputs["synth_s"])
        windows.append(inputs["synth_window"])
        if built:
            checks.op(inputs["fingerprint"] == built[0]["fingerprint"], "set-up repeatable")
        else:
            built.append(inputs)

    set_up()
    inputs = built[0]
    model_cfg = models.ModelConfig(
        note_len=scale["note_len"], embed_dim=scale["embed_dim"],
        filters=scale["filters"],
    )
    train_cfg = traineval.TrainConfig(seed=spec["seed"])
    dataset, batches = inputs["dataset"], inputs["batches"]
    trainers = {
        kind: Trainer(kind, dataset, model_cfg, train_cfg, inputs["embeddings"],
                      inputs["weights"], seed=INIT_SEED)
        for kind in KINDS
    }

    warmup_s, warmup_wall_s, val_loss = {}, {}, {}
    for kind, trainer in trainers.items():
        warmup_s[kind], warmup_wall_s[kind], _, _, ok = trainer.train_step(
            batches[kind], check_grads=True)
        checks.op(ok, f"{kind} warm-up step")
        # one batch has no validation split: the warm-up loss, divided by
        # the batch's mean class weight so label mix does not move it
        val_loss[kind] = trainer.last_bce / trainer.mean_weight(batches[kind])
    set_up()

    passes = []
    digest = Digest()
    for trainer in trainers.values():
        trainer.windows = windows
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < spec["seconds"]:
        row = {"train_s": {}, "eval_s": {}, "train_wall_s": {}, "eval_wall_s": {}}
        pass_start, tick = time.perf_counter(), clock()
        for kind, trainer in trainers.items():
            steps, walls = [], []
            for _ in range(STEPS[kind]):
                seconds, wall, loss, probs, ok = trainer.train_step(
                    batches[kind], check_grads=True)
                checks.op(ok, f"{kind} train step")
                steps.append(seconds)
                walls.append(wall)
                if not passes:
                    digest.add(loss, probs)
            row["train_s"][kind] = statistics.median(steps)
            row["train_wall_s"][kind] = statistics.median(walls)
            evals, walls = [], []
            for _ in range(EVALS):
                seconds, wall, loss, probs, ok = trainer.eval_forward(batches[kind])
                checks.op(ok, f"{kind} eval forward")
                evals.append(seconds)
                walls.append(wall)
            row["eval_s"][kind] = statistics.median(evals)
            row["eval_wall_s"][kind] = statistics.median(walls)
            if not passes:
                digest.add(loss, probs)
        row["pass_s"] = clock() - tick
        row["pass_wall_s"] = time.perf_counter() - pass_start
        windows.append(("pass", pass_start, time.perf_counter()))
        passes.append(row)
    for trainer in trainers.values():
        trainer.windows = None
    set_up()

    embed_s = embed_loss = 0.0
    if spec["skipgram"]:
        sentences = corpus_slice(inputs["prep"].embedding_sentences, scale["slice_tokens"])
        _write_slice(work, inputs["prep"].vocab, sentences)
        start, tick = time.perf_counter(), clock()
        sg = embed.train_skipgram(
            sentences, inputs["prep"].vocab, dim=200, window=6, epochs=1, seed=spec["seed"]
        )
        embed_s = clock() - tick
        windows.append(("embed", start, time.perf_counter()))
        embed_loss = float(sg.epoch_losses[-1])
        checks.op(math.isfinite(embed_loss), "skip-gram loss finite")

    stays = {kind: len(batches[kind]) for kind in KINDS}
    result = {
        "setup_s": setup_s,
        "synth_s": statistics.median(synth_s),
        "pad_share": inputs["pad_share"],
        "batch_shape": {kind: [len(batch), *(
            dataset[batch[0]].ts_values if kind == models.CTS_RNN else dataset[batch[0]].note_ids
        ).shape] for kind, batch in batches.items()},
        "warmup_s": warmup_s, "warmup_wall_s": warmup_wall_s, "val_loss": val_loss, "passes": passes,
        "stays": stays, "embed_s": embed_s, "embed_loss": embed_loss,
        "digest": digest.hexdigest(), "windows": windows,
    }
    if tracer is not None:
        result.update(_layer_extras(trainers, batches))
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer(process=Path(spec["out"]).stem)
        tracer.install()
    checks = Checks()
    result: dict = {}
    try:
        result = run_desk(spec, checks, tracer) if spec["mode"] == "desk" else run_paper(
            spec, checks, tracer
        )
    except Exception:  # the run reports it as a failed operation
        checks.op(False, traceback.format_exc())
    result.update(attempted=checks.attempted, failed=checks.failed, errors=checks.errors)
    if tracer is not None:
        result.update(tracer.dump())
    spans.write_json(spec["out"], result)
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
