"""Command-line pipeline driver.

Subcommands: synth, preprocess, embed, cohort, train, evaluate. Each
stage validates its predecessor's outputs by content hash (recorded in
per-stage manifests), writes its own artifacts plus a manifest, and is
reproducible from (config, seed, input hashes).

Exit codes: 0 success, 2 configuration error, 3 missing or stale
dependency artifact, 4 runtime/data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, cohort, models, notesproc, pipeline, traineval
from .embed import EmbeddingMatrix, SubwordConfig, Vocabulary, load_embeddings, save_embeddings, train_skipgram
from .errors import ConfigurationError, DataError, MissingArtifactError
from .ndcore import load_checkpoint, save_checkpoint
from .synth import SynthConfig, generate_synthetic

WINDOWS = (12, 24, 48)


@dataclass(frozen=True)
class EmbedConfig:
    dim: int = 200
    window: int = 6
    epochs: int = 100
    negatives: int = 5
    lr: float = 0.3
    min_count: int = 20
    batch_pairs: int = 256
    subword: bool = False


@dataclass
class RunConfig:
    work_dir: str = "runs/default"
    seed: int = 0
    window: int = 24
    model: str = models.NOTES_HCR
    jobs: int = 1
    synth: SynthConfig = dataclasses.field(default_factory=SynthConfig)
    embed: EmbedConfig = dataclasses.field(default_factory=EmbedConfig)
    model_cfg: models.ModelConfig = dataclasses.field(default_factory=models.ModelConfig)
    train_cfg: traineval.TrainConfig = dataclasses.field(default_factory=traineval.TrainConfig)

    def validate(self) -> None:
        if self.window not in WINDOWS:
            raise ConfigurationError(f"window must be one of {WINDOWS}, got {self.window}")
        if self.model not in models.MODEL_KINDS:
            raise ConfigurationError(
                f"model must be one of {models.MODEL_KINDS}, got {self.model!r}"
            )
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.model_cfg.validate()
        self.train_cfg.validate()
        self.synth.validate()

    def hash(self) -> str:
        return hashlib.sha256(render_config(self).encode("utf-8")).hexdigest()[:16]


_GROUPS = {
    "synth": SynthConfig,
    "embed": EmbedConfig,
    "model": models.ModelConfig,
    "train": traineval.TrainConfig,
}
_GROUP_ATTR = {"synth": "synth", "embed": "embed", "model": "model_cfg", "train": "train_cfg"}
_TOP_KEYS = {"work_dir": str, "seed": int, "window": int, "model": str, "jobs": int}


def _parse_typed(key: str, raw: str, ftype) -> object:
    raw = raw.strip()
    try:
        if ftype is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if ftype is int:
            return int(raw)
        if ftype is float:
            return float(raw)
        if ftype is str:
            return raw
        # tuple[int, ...] fields are comma-separated
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"config key {key}: cannot parse {raw!r}") from exc


def parse_config(text: str) -> RunConfig:
    """Flat `key = value` lines; `#` starts a comment; unknown keys are
    rejected. Group keys use dots, e.g. `train.epochs = 30`."""
    config = RunConfig()
    overrides: dict[str, dict[str, object]] = {g: {} for g in _GROUPS}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"config line {lineno}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if "." in key:
            group, field_name = key.split(".", 1)
            if group not in _GROUPS:
                raise ConfigurationError(f"config line {lineno}: unknown group {group!r}")
            group_fields = {f.name: f for f in fields(_GROUPS[group])}
            if field_name not in group_fields:
                raise ConfigurationError(
                    f"config line {lineno}: unknown key {key!r}"
                )
            ftype = group_fields[field_name].type
            ftype = {"int": int, "float": float, "bool": bool, "str": str}.get(ftype, ftype)
            if isinstance(ftype, str):
                ftype = tuple  # remaining annotated types are int tuples
            overrides[group][field_name] = _parse_typed(key, raw, ftype)
        elif key in _TOP_KEYS:
            setattr(config, key, _parse_typed(key, raw, _TOP_KEYS[key]))
        else:
            raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
    for group, values in overrides.items():
        if values:
            attr = _GROUP_ATTR[group]
            current = getattr(config, attr)
            setattr(config, attr, replace(current, **values))
    return config


def render_config(config: RunConfig) -> str:
    lines = [f"{key} = {getattr(config, key)}" for key in _TOP_KEYS]
    for group, attr in _GROUP_ATTR.items():
        obj = getattr(config, attr)
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{group}.{f.name} = {value}")
    return "\n".join(lines) + "\n"


# -- manifests --------------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(work: Path, stage: str, config: RunConfig, inputs: list[Path], outputs: list[Path]) -> None:
    manifest = {
        "stage": stage,
        "version": __version__,
        "seed": config.seed,
        "config_hash": config.hash(),
        "inputs": {str(p.relative_to(work)): _sha256(p) for p in inputs},
        "outputs": {str(p.relative_to(work)): _sha256(p) for p in outputs},
    }
    path = work / f"{stage}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def require_stage(work: Path, stage: str, needed: list[str]) -> dict[str, Path]:
    """Verify a predecessor stage's manifest, the inputs it recorded and
    the artifacts this stage consumes; returns resolved paths keyed by
    relative name."""
    manifest_path = work / f"{stage}.manifest.json"
    if not manifest_path.exists():
        raise MissingArtifactError(
            f"missing manifest {manifest_path.name}: run the `{stage.split('_')[0]}` stage first"
        )
    manifest = json.loads(manifest_path.read_text())
    for rel in needed:
        if rel not in manifest["outputs"] or not (work / rel).exists():
            raise MissingArtifactError(
                f"stage `{stage}` did not produce {rel}: re-run it"
            )
    # an input that changed since the stage ran makes its outputs stale
    recorded = {**manifest["inputs"], **{rel: manifest["outputs"][rel] for rel in needed}}
    for rel, digest in recorded.items():
        path = work / rel
        if not path.exists() or _sha256(path) != digest:
            raise MissingArtifactError(
                f"{rel} changed since stage `{stage}` ran: re-run `{stage.split('_')[0]}`"
            )
    return {rel: work / rel for rel in needed}


# -- stages ------------------------------------------------------------------------


def cmd_synth(config: RunConfig) -> int:
    work = Path(config.work_dir)
    tables = generate_synthetic(config.synth, seed=config.seed)
    paths = tables.write(work / "tables")
    write_manifest(work, "synth", config, [], list(paths.values()))
    print(
        f"synth: {len(tables.admissions)} stays, {len(tables.notes)} notes, "
        f"{len(tables.timeseries)} time-series rows -> {work / 'tables'}"
    )
    return 0


def cmd_preprocess(config: RunConfig) -> int:
    work = Path(config.work_dir)
    inputs = require_stage(work, "synth", ["tables/notes.csv"])
    raw_notes = notesproc.read_notes_csv(inputs["tables/notes.csv"])
    prep = pipeline.preprocess_notes(
        raw_notes, min_count=config.embed.min_count, note_len=config.model_cfg.note_len
    )
    out = work / "prep"
    out.mkdir(parents=True, exist_ok=True)
    vocab_path = out / "vocab.txt"
    with open(vocab_path, "w", encoding="utf-8") as handle:
        for idx, token in enumerate(prep.vocab.id_to_token):
            handle.write(f"{token}\t{idx}\t{prep.vocab.frequencies[idx]}\n")
    clean_path = out / "clean_notes.jsonl"
    notesproc.write_clean_notes(clean_path, prep.model_notes)
    corpus_path = out / "embed_corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as handle:
        for sentence in prep.embedding_sentences:
            handle.write(json.dumps(sentence, separators=(",", ":")) + "\n")
    write_manifest(
        work, "preprocess", config,
        [inputs["tables/notes.csv"]], [vocab_path, clean_path, corpus_path],
    )
    print(
        f"preprocess: {prep.n_raw} raw -> {prep.n_deduped} deduped notes, "
        f"vocab {prep.vocab.size}, {len(prep.model_notes)} model notes"
    )
    return 0


def read_vocab(path) -> Vocabulary:
    id_to_token: list[str] = []
    frequencies: list[int] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            token, idx, freq = line.rstrip("\n").split("\t")
            if int(idx) != len(id_to_token):
                raise DataError(f"{path}: vocabulary ids are not contiguous")
            id_to_token.append(token)
            frequencies.append(int(freq))
    token_to_id = {tok: i for i, tok in enumerate(id_to_token) if i != 0}
    return Vocabulary(token_to_id, id_to_token, frequencies)


def cmd_embed(config: RunConfig) -> int:
    work = Path(config.work_dir)
    inputs = require_stage(work, "preprocess", ["prep/vocab.txt", "prep/embed_corpus.jsonl"])
    vocab = read_vocab(inputs["prep/vocab.txt"])
    corpus = [
        json.loads(line)
        for line in open(inputs["prep/embed_corpus.jsonl"], encoding="utf-8")
    ]
    ecfg = config.embed
    result = train_skipgram(
        corpus, vocab,
        dim=ecfg.dim, window=ecfg.window, epochs=ecfg.epochs,
        negatives=ecfg.negatives, lr=ecfg.lr, seed=config.seed,
        batch_pairs=ecfg.batch_pairs,
        subword=SubwordConfig() if ecfg.subword else None,
    )
    out = work / "embeddings"
    out.mkdir(parents=True, exist_ok=True)
    emb_path = out / "embeddings.txt"
    save_embeddings(emb_path, vocab, result.embeddings)
    write_manifest(work, "embed", config, list(inputs.values()), [emb_path])
    first, last = result.epoch_losses[0], result.epoch_losses[-1]
    print(
        f"embed: {vocab.size} x {ecfg.dim} vectors, loss {first:.4f} -> {last:.4f} "
        f"over {ecfg.epochs} epochs"
    )
    return 0


def cmd_cohort(config: RunConfig) -> int:
    work = Path(config.work_dir)
    tables = require_stage(
        work, "synth",
        ["tables/admissions.csv", "tables/icustays.csv"],
    )
    prep = require_stage(work, "preprocess", ["prep/clean_notes.jsonl"])
    admissions = cohort.read_admissions_csv(tables["tables/admissions.csv"])
    icustays = cohort.read_icustays_csv(tables["tables/icustays.csv"])
    clean_notes = notesproc.read_clean_notes(
        prep["prep/clean_notes.jsonl"], note_len=config.model_cfg.note_len
    )
    window = config.window
    wc = pipeline.build_window_cohort(clean_notes, admissions, icustays, window)
    folds = cohort.grouped_kfold(
        wc.eligible, wc.subject_of, k=config.train_cfg.k, seed=config.seed
    )
    cohort.validate_folds(folds, wc.subject_of)
    out = work / "cohorts"
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / f"cohort_W{window}.jsonl"
    with open(manifest_path, "w", encoding="utf-8") as handle:
        for hadm_id in wc.eligible:
            record = {
                "hadm_id": hadm_id,
                "subject_id": wc.subject_of[hadm_id],
                "label": int(wc.labels[hadm_id]),
                "roles": {str(f.fold): f.roles[hadm_id] for f in folds},
                "row_ids": [n.row_id for n in wc.files[hadm_id].notes],
            }
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    write_manifest(
        work, f"cohort_W{window}", config,
        list(tables.values()) + list(prep.values()), [manifest_path],
    )
    prevalence = float(np.mean([wc.labels[h] for h in wc.eligible])) if wc.eligible else 0.0
    print(
        f"cohort W={window}: {len(wc.eligible)} eligible stays, "
        f"prevalence {prevalence:.3f}, k={config.train_cfg.k}"
    )
    return 0


def _load_cohort(config: RunConfig, work: Path):
    """The cohort stage's stays, patient files and folds, plus the files
    they were read from."""
    window = config.window
    rel = f"cohorts/cohort_W{window}.jsonl"
    resolved = require_stage(work, f"cohort_W{window}", [rel])
    prep = require_stage(work, "preprocess", ["prep/clean_notes.jsonl"])
    clean_notes = notesproc.read_clean_notes(
        prep["prep/clean_notes.jsonl"], note_len=config.model_cfg.note_len
    )
    note_of = {note.row_id: note for note in clean_notes}
    wc = pipeline.WindowCohort(window_hours=window, eligible=[], files={})
    roles: dict[int, dict[int, str]] = {}
    for line in open(resolved[rel], encoding="utf-8"):
        record = json.loads(line)
        hadm_id = record["hadm_id"]
        wc.eligible.append(hadm_id)
        wc.labels[hadm_id] = bool(record["label"])
        wc.subject_of[hadm_id] = record["subject_id"]
        wc.files[hadm_id] = notesproc.PatientFile(
            hadm_id=hadm_id,
            subject_id=record["subject_id"],
            notes=[note_of[row_id] for row_id in record["row_ids"]],
            label=bool(record["label"]),
            window_hours=window,
        )
        for fold_str, role in record["roles"].items():
            roles.setdefault(int(fold_str), {})[hadm_id] = role
    if sorted(roles) != list(range(config.train_cfg.k)):
        raise MissingArtifactError(
            f"{rel} holds {len(roles)} folds but train.k is {config.train_cfg.k}: "
            f"re-run `cohort`"
        )
    folds = [cohort.FoldSplit(fold=f, roles=roles[f]) for f in sorted(roles)]
    return wc, folds, [resolved[rel], prep["prep/clean_notes.jsonl"]]


def cmd_train(config: RunConfig) -> int:
    work = Path(config.work_dir)
    wc, folds, inputs = _load_cohort(config, work)
    timeseries = None
    if "cts" in models.branches(config.model):
        tables = require_stage(work, "synth", ["tables/timeseries.csv"])
        timeseries = cohort.read_timeseries_csv(tables["tables/timeseries.csv"])
        inputs += tables.values()
    dataset = pipeline.build_dataset(wc, timeseries)
    del wc, timeseries  # free the raw time-series rows before training
    embeddings = None
    if "notes" in models.branches(config.model):
        emb_files = require_stage(work, "embed", ["embeddings/embeddings.txt"])
        _, embeddings = load_embeddings(emb_files["embeddings/embeddings.txt"])
        inputs += emb_files.values()
    results = traineval.train(
        config.model, folds, dataset, config.model_cfg, config.train_cfg,
        embeddings, jobs=config.jobs,
    )
    out = work / "train" / f"{config.model}_W{config.window}"
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for res in results:
        ckpt = out / f"fold{res.fold}.ckpt"
        save_checkpoint(ckpt, res.entries, config_hash=config.model_cfg.hash())
        history = out / f"fold{res.fold}.history.jsonl"
        with open(history, "w", encoding="utf-8") as handle:
            for row in res.history:
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")
        scores = out / f"fold{res.fold}.scores.jsonl"
        with open(scores, "w", encoding="utf-8") as handle:
            for split, score_map in (("val", res.val_scores), ("test", res.test_scores)):
                for hadm_id in sorted(score_map):
                    handle.write(json.dumps({
                        "hadm_id": hadm_id,
                        "split": split,
                        "prob": score_map[hadm_id],
                        "label": int(dataset[hadm_id].label),
                    }, separators=(",", ":")) + "\n")
        outputs.extend([ckpt, history, scores])
        test_scores, test_labels = res.metric_inputs(dataset, "test")
        print(
            f"train {config.model} W={config.window} fold {res.fold}: "
            f"best epoch {res.best_epoch}, val loss {res.best_val_loss:.4f}, "
            f"test AUROC {traineval.auroc(test_scores, test_labels):.4f}"
        )
    write_manifest(work, f"train_{config.model}_W{config.window}", config, inputs, outputs)
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    work = Path(config.work_dir)
    train_dir = work / "train"
    if not train_dir.exists():
        raise MissingArtifactError("no train/ outputs found: run the `train` stage first")
    fold_metrics: dict[tuple[str, int], dict[str, list[float]]] = {}
    fold_records: list[str] = []
    k = config.train_cfg.k
    for run_dir in sorted(train_dir.iterdir()):
        if not run_dir.is_dir() or "_W" not in run_dir.name:
            continue
        model, window_str = run_dir.name.rsplit("_W", 1)
        window = int(window_str)
        scores = require_stage(
            work, f"train_{model}_W{window}",
            [f"train/{run_dir.name}/fold{fold}.scores.jsonl" for fold in range(k)],
        )
        aurocs, auprcs = [], []
        for fold, scores_path in enumerate(scores.values()):
            probs, labels = [], []
            for line in open(scores_path, encoding="utf-8"):
                record = json.loads(line)
                if record["split"] == "test":
                    probs.append(record["prob"])
                    labels.append(record["label"])
            roc = traineval.auroc(probs, labels)
            prc = traineval.auprc(probs, labels)
            aurocs.append(roc)
            auprcs.append(prc)
            fold_records.append(json.dumps({
                "type": "fold", "model": model, "window": window,
                "fold": fold, "auroc": roc, "auprc": prc,
            }, separators=(",", ":")))
        fold_metrics[(model, window)] = {"auroc": aurocs, "auprc": auprcs}
    if not fold_metrics:
        raise MissingArtifactError("train/ holds no completed runs")
    report = traineval.build_report(fold_metrics, k=k)
    out = work / "eval"
    out.mkdir(parents=True, exist_ok=True)
    table = traineval.render_report(report)
    (out / "report.txt").write_text(table + "\n")
    with open(out / "report.jsonl", "w", encoding="utf-8") as handle:
        for line in fold_records + traineval.report_records(report):
            handle.write(line + "\n")
    print(table)
    return 0


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="notemort",
        description="Mortality prediction from clinical notes: synthetic-data pipeline",
    )
    parser.add_argument("--config", type=Path, help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--jobs", type=int, help="parallel fold workers for train")
    parser.add_argument("--window", type=int, choices=WINDOWS, help="data window in hours")
    parser.add_argument("--model", choices=models.MODEL_KINDS, help="model kind")
    parser.add_argument("--work-dir", help="override the config work_dir")
    parser.add_argument(
        "command",
        choices=["synth", "preprocess", "embed", "cohort", "train", "evaluate"],
    )
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "embed": cmd_embed,
    "cohort": cmd_cohort,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            if not args.config.exists():
                raise ConfigurationError(f"config file {args.config} does not exist")
            config = parse_config(args.config.read_text())
        else:
            config = RunConfig()
        for flag in ("seed", "jobs", "window", "model"):
            if getattr(args, flag) is not None:
                setattr(config, flag, getattr(args, flag))
        if args.work_dir is not None:
            config.work_dir = args.work_dir
        config.validate()
        Path(config.work_dir).mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ArithmeticError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
