"""Command-line pipeline driver.

Subcommands: synth, preprocess, embed, cohort, train, evaluate. Each
stage validates its predecessor's outputs by content hash (recorded in
per-stage manifests), writes its own artifacts plus a manifest, and is
reproducible from (config, seed, input hashes).

A manifest also records, under `settings`, the config values its
outputs were made with that every stage reading them must share
(SETTINGS); a stage run with another value refuses those outputs as
stale. And it records the stage's cost: wall and CPU seconds from
the start of its command to its manifest, and the peak RSS of its
process so far. CPU and RSS are of the stage's own process; the fold
workers of `train --jobs` above 1 are not counted. Under `environment`
it records what the numbers ran on: the numpy version, the BLAS numpy
was built with, and every `*_NUM_THREADS` environment variable that is
set. No stage reads `environment` back.

Exit codes: 0 success, 2 configuration error, 3 missing or stale
dependency artifact, 4 runtime/data error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, cohort, models, notesproc, pipeline, traineval
from .embed import load_embeddings, read_vocab, save_embeddings, train_skipgram, write_vocab
from .errors import ConfigurationError, DataError, MissingArtifactError
from .ndcore import save_checkpoint
from .synth import SynthConfig, generate_synthetic

WINDOWS = (12, 24, 48)


@dataclass(frozen=True)
class EmbedConfig:
    dim: int = 200
    window: int = 6
    epochs: int = 100
    lr: float = 0.3
    min_count: int = 20


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
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.embed.dim != self.model_cfg.embed_dim:
            raise ConfigurationError(
                f"embed.dim must equal model.embed_dim ({self.model_cfg.embed_dim}), "
                f"got {self.embed.dim}"
            )
        self.model_cfg.validate()
        self.train_cfg.validate()
        self.synth.validate()

    def hash(self) -> str:
        return hashlib.sha256(render_config(self).encode("utf-8")).hexdigest()[:16]


# key prefix -> the RunConfig field holding that group; keys without a
# prefix are RunConfig's own fields
_GROUPS = {"synth": "synth", "embed": "embed", "model": "model_cfg", "train": "train_cfg"}


def _settings(config: RunConfig) -> dict[str, object]:
    """Every settable value of config by its key, in rendering order."""
    values = {
        f.name: getattr(config, f.name) for f in fields(config) if f.name not in _GROUPS.values()
    }
    for prefix, attr in _GROUPS.items():
        group = getattr(config, attr)
        values.update((f"{prefix}.{f.name}", getattr(group, f.name)) for f in fields(group))
    return values


def _parse_value(key: str, raw: str, default: object) -> object:
    """raw as the type of the key's default; int tuples are comma-separated."""
    try:
        if isinstance(default, tuple):
            return tuple(int(part) for part in raw.split(",") if part.strip())
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigurationError(f"config key {key}: cannot parse {raw!r}") from exc


def parse_config(text: str) -> RunConfig:
    """Flat `key = value` lines; `#` starts a comment; unknown keys are
    rejected. Group keys use dots, e.g. `train.epochs = 30`."""
    base = RunConfig()
    defaults = _settings(base)
    values: dict[str, dict[str, object]] = {prefix: {} for prefix in ("", *_GROUPS)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"config line {lineno}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in defaults:
            raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
        prefix, _, name = key.rpartition(".")
        values[prefix][name] = _parse_value(key, raw, defaults[key])
    groups = {
        attr: replace(getattr(base, attr), **values[prefix]) for prefix, attr in _GROUPS.items()
    }
    return replace(base, **values[""], **groups)


def render_config(config: RunConfig) -> str:
    lines = []
    for key, value in _settings(config).items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# -- manifests --------------------------------------------------------------------

# stage -> the config keys its outputs were made with that every stage
# reading them must share: clean notes are cut to note_len, vectors have
# embed.dim values, the cohort holds note_len-wide ids in train.k folds,
# and a training run writes one score file per each of its train.k folds
SETTINGS = {
    "preprocess": ("model.note_len",),
    "embed": ("embed.dim",),
    "cohort": ("model.note_len", "train.k"),
    "train": ("train.k",),
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _clock() -> tuple[float, float]:
    """The wall and CPU clocks a stage's manifest measures from."""
    return time.perf_counter(), time.process_time()


def _blas_corename() -> str | None:
    """The name of the CPU kernel the loaded OpenBLAS runs, which a
    DYNAMIC_ARCH build picks at load time and which the build's own name
    does not tell; None where numpy's BLAS exports no such function."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        get = getattr(lib, name, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return (get() or b"").decode() or None
    return None


def _environment() -> dict:
    """The numpy version, its BLAS (with the kernel it runs, where OpenBLAS
    names it) and the thread-count variables."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas["name"], "version": blas["version"]}
    corename = _blas_corename()
    if corename is not None:
        record["corename"] = corename
    return {
        "numpy": np.__version__,
        "blas": record,
        "num_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def write_manifest(
    work: Path, stage: str, config: RunConfig, inputs: list[Path], outputs: list[Path],
    started: tuple[float, float],
) -> None:
    """The stage's manifest: config, input and output digests, and the
    stage's cost since `started`, a `_clock()` reading."""
    wall, cpu = started
    values = _settings(config)
    manifest = {
        "stage": stage,
        "wall_s": time.perf_counter() - wall,
        "cpu_s": time.process_time() - cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": _environment(),
        "version": __version__,
        "seed": config.seed,
        "config_hash": config.hash(),
        "settings": {key: values[key] for key in SETTINGS.get(stage.split("_")[0], ())},
        "inputs": {str(p.relative_to(work)): _sha256(p) for p in inputs},
        "outputs": {str(p.relative_to(work)): _sha256(p) for p in outputs},
    }
    path = work / f"{stage}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def require_stage(
    work: Path, stage: str, needed: list[str], config: RunConfig
) -> dict[str, Path]:
    """Verify a predecessor stage's manifest, the settings and inputs it
    recorded and the artifacts this stage consumes; returns resolved
    paths keyed by relative name."""
    manifest_path = work / f"{stage}.manifest.json"
    if not manifest_path.exists():
        raise MissingArtifactError(
            f"missing manifest {manifest_path.name}: run the `{stage.split('_')[0]}` stage first"
        )
    manifest = json.loads(manifest_path.read_text())
    values = _settings(config)
    for key, recorded in manifest.get("settings", {}).items():
        if values[key] != recorded:
            raise MissingArtifactError(
                f"{key} is {values[key]}, but stage `{stage}` ran with {recorded}: "
                f"re-run `{stage.split('_')[0]}`"
            )
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
    started = _clock()
    work = Path(config.work_dir)
    tables = generate_synthetic(config.synth, seed=config.seed)
    paths = tables.write(work / "tables")
    write_manifest(work, "synth", config, [], list(paths.values()), started)
    print(
        f"synth: {len(tables.admissions)} stays, {len(tables.notes)} notes, "
        f"{len(tables.timeseries)} time-series rows -> {work / 'tables'}"
    )
    return 0


def cmd_preprocess(config: RunConfig) -> int:
    started = _clock()
    work = Path(config.work_dir)
    inputs = require_stage(work, "synth", ["tables/notes.csv"], config)
    raw_notes = notesproc.read_notes_csv(inputs["tables/notes.csv"])
    prep = pipeline.preprocess_notes(
        raw_notes, min_count=config.embed.min_count, note_len=config.model_cfg.note_len
    )
    out = work / "prep"
    out.mkdir(parents=True, exist_ok=True)
    vocab_path = out / "vocab.txt"
    write_vocab(vocab_path, prep.vocab)
    clean_path = out / "clean_notes.jsonl"
    notesproc.write_clean_notes(clean_path, prep.model_notes)
    corpus_path = out / "embed_corpus.jsonl"
    notesproc.write_jsonl(corpus_path, prep.embedding_sentences)
    write_manifest(
        work, "preprocess", config,
        [inputs["tables/notes.csv"]], [vocab_path, clean_path, corpus_path], started,
    )
    print(
        f"preprocess: {prep.n_raw} raw -> {prep.n_deduped} deduped notes, "
        f"vocab {prep.vocab.size}, {len(prep.model_notes)} model notes"
    )
    return 0


def cmd_embed(config: RunConfig) -> int:
    started = _clock()
    work = Path(config.work_dir)
    inputs = require_stage(
        work, "preprocess", ["prep/vocab.txt", "prep/embed_corpus.jsonl"], config
    )
    vocab = read_vocab(inputs["prep/vocab.txt"])
    corpus = list(notesproc.read_jsonl(inputs["prep/embed_corpus.jsonl"], lambda ids: ids))
    ecfg = config.embed
    result = train_skipgram(
        corpus, vocab,
        dim=ecfg.dim, window=ecfg.window, epochs=ecfg.epochs, lr=ecfg.lr, seed=config.seed,
    )
    out = work / "embeddings"
    out.mkdir(parents=True, exist_ok=True)
    emb_path = out / "embeddings.txt"
    save_embeddings(emb_path, vocab, result.embeddings)
    write_manifest(work, "embed", config, list(inputs.values()), [emb_path], started)
    first, last = result.epoch_losses[0], result.epoch_losses[-1]
    print(
        f"embed: {vocab.size} x {ecfg.dim} vectors, loss {first:.4f} -> {last:.4f} "
        f"over {ecfg.epochs} epochs"
    )
    return 0


def cmd_cohort(config: RunConfig) -> int:
    started = _clock()
    work = Path(config.work_dir)
    tables = require_stage(
        work, "synth",
        ["tables/admissions.csv", "tables/icustays.csv", "tables/timeseries.csv"], config,
    )
    prep = require_stage(work, "preprocess", ["prep/clean_notes.jsonl"], config)
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
    dataset = pipeline.dataset_arrays(
        wc, cohort.read_timeseries_csv(tables["tables/timeseries.csv"])
    )
    out = work / "cohorts"
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / f"cohort_W{window}.jsonl"
    notesproc.write_jsonl(manifest_path, (
        {
            "hadm_id": hadm_id,
            "subject_id": wc.subject_of[hadm_id],
            "label": int(wc.labels[hadm_id]),
            "roles": {str(f.fold): f.roles[hadm_id] for f in folds},
            "row_ids": [n.row_id for n in wc.notes[hadm_id]],
        }
        for hadm_id in wc.eligible
    ))
    arrays = pipeline.save_dataset(out / f"dataset_W{window}", dataset)
    write_manifest(
        work, f"cohort_W{window}", config,
        list(tables.values()) + list(prep.values()), [manifest_path, *arrays], started,
    )
    prevalence = float(np.mean([wc.labels[h] for h in wc.eligible])) if wc.eligible else 0.0
    print(
        f"cohort W={window}: {len(wc.eligible)} eligible stays, "
        f"prevalence {prevalence:.3f}, k={config.train_cfg.k}"
    )
    return 0


def _cohort_record(record: dict) -> tuple[int, bool, dict[int, str]]:
    roles = {int(fold): role for fold, role in record["roles"].items()}
    return int(record["hadm_id"]), bool(record["label"]), roles


def _load_cohort(config: RunConfig, work: Path):
    """The cohort stage's dataset and folds, plus the files they were
    read from."""
    window = config.window
    rel = f"cohorts/cohort_W{window}.jsonl"
    directory = f"cohorts/dataset_W{window}"
    resolved = require_stage(
        work, f"cohort_W{window}",
        [rel] + [f"{directory}/{name}.npy" for name in pipeline.DATASET_ARRAYS], config,
    )
    labels: dict[int, bool] = {}
    roles: dict[int, dict[int, str]] = {}
    for hadm_id, label, stay_roles in notesproc.read_jsonl(resolved[rel], _cohort_record):
        labels[hadm_id] = label
        for fold, role in stay_roles.items():
            roles.setdefault(fold, {})[hadm_id] = role
    folds = [cohort.FoldSplit(fold=f, roles=roles[f]) for f in sorted(roles)]
    dataset = pipeline.load_dataset(work / directory, labels)
    return dataset, folds, list(resolved.values())


def cmd_train(config: RunConfig) -> int:
    started = _clock()
    work = Path(config.work_dir)
    dataset, folds, inputs = _load_cohort(config, work)
    embeddings = None
    if "notes" in models.branches(config.model):
        emb_files = require_stage(work, "embed", ["embeddings/embeddings.txt"], config)
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
        notesproc.write_jsonl(history, res.history)
        scores = out / f"fold{res.fold}.scores.jsonl"
        notesproc.write_jsonl(scores, (
            {
                "hadm_id": hadm_id,
                "split": split,
                "prob": score_map[hadm_id],
                "label": int(dataset[hadm_id].label),
            }
            for split, score_map in (("val", res.val_scores), ("test", res.test_scores))
            for hadm_id in sorted(score_map)
        ))
        outputs.extend([ckpt, history, scores])
        test_scores, test_labels = res.metric_inputs(dataset, "test")
        print(
            f"train {config.model} W={config.window} fold {res.fold}: "
            f"best epoch {res.best_epoch}, val loss {res.best_val_loss:.4f}, "
            f"test AUROC {traineval.auroc(test_scores, test_labels):.4f}"
        )
    write_manifest(
        work, f"train_{config.model}_W{config.window}", config, inputs, outputs, started
    )
    return 0


def _score_record(record: dict) -> tuple[str, float, int]:
    prob, label = record["prob"], record["label"]
    if not (isinstance(prob, (int, float)) and 0.0 <= prob <= 1.0):
        raise ValueError(f"prob must be a finite number in [0, 1], got {prob!r}")
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    return record["split"], prob, label


def cmd_evaluate(config: RunConfig) -> int:
    work = Path(config.work_dir)
    train_dir = work / "train"
    if not train_dir.exists():
        raise MissingArtifactError("no train/ outputs found: run the `train` stage first")
    fold_metrics: dict[tuple[str, int], dict[str, list[float]]] = {}
    fold_records: list[dict] = []
    k = config.train_cfg.k
    for run_dir in sorted(train_dir.iterdir()):
        model, sep, window_str = run_dir.name.rpartition("_W")
        # a run directory is named <model>_W<window>; skip anything else
        if not (run_dir.is_dir() and sep and window_str.isdecimal()):
            continue
        window = int(window_str)
        scores = require_stage(
            work, f"train_{model}_W{window}",
            [f"train/{run_dir.name}/fold{fold}.scores.jsonl" for fold in range(k)], config,
        )
        metrics: dict[str, list[float]] = {"auroc": [], "auprc": []}
        for fold, scores_path in enumerate(scores.values()):
            probs, labels = [], []
            for split, prob, label in notesproc.read_jsonl(scores_path, _score_record):
                if split == "test":
                    probs.append(prob)
                    labels.append(label)
            record = {"type": "fold", "model": model, "window": window, "fold": fold,
                      "auroc": traineval.auroc(probs, labels),
                      "auprc": traineval.auprc(probs, labels)}
            fold_records.append(record)
            for metric, values in metrics.items():
                values.append(record[metric])
        fold_metrics[model, window] = metrics
    if not fold_metrics:
        raise MissingArtifactError("train/ holds no completed runs")
    report = traineval.build_report(fold_metrics, k=k)
    out = work / "eval"
    out.mkdir(parents=True, exist_ok=True)
    table = traineval.render_report(report)
    (out / "report.txt").write_text(table + "\n")
    notesproc.write_jsonl(out / "report.jsonl", fold_records + report)
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
            try:
                config = parse_config(args.config.read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"config file {args.config} cannot be read: {exc}")
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
