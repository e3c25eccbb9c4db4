"""CLI: config parsing, stage sequencing, manifests, exit codes,
and the full small-pipeline smoke run."""

import csv
import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from notemort import cli, cohort, models, notesproc, pipeline, traineval
from notemort.cli import main, parse_config, render_config
from notemort.errors import ConfigurationError
from notemort.synth import SynthConfig

from oracles import auprc_sweep, auroc_pairwise

SMALL_CONFIG = """
# small end-to-end configuration
seed = 13
window = 24
model = notes-hcr

synth.n_subjects = 70
synth.prevalence = 0.25
synth.note_tokens_mean = 25

embed.dim = 12
embed.window = 3
embed.epochs = 2
embed.min_count = 5

model.note_len = 48
model.embed_dim = 12
model.filters = 8
model.temporal_hidden = 6
model.cts_hidden = 6,4

train.epochs = 2
train.early_stop_patience = 2
"""


class TestConfigParsing:
    def test_groups_and_types(self):
        config = parse_config(SMALL_CONFIG + "\nwork_dir = /tmp/x\n")
        assert config.seed == 13
        assert config.synth.n_subjects == 70
        assert config.model_cfg.cts_hidden == (6, 4)
        assert config.embed.epochs == 2
        assert config.work_dir == "/tmp/x"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("train.velocity = 9\n")
        with pytest.raises(ConfigurationError):
            parse_config("frobnicate = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("train.epochs = fast\n")

    def test_comments_and_blank_lines(self):
        config = parse_config("# comment only\n\nseed = 3  # trailing\n")
        assert config.seed == 3

    def test_readme_config_example_parses_and_validates(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```ini\n")[1:]
        assert len(blocks) == 1
        config = parse_config(blocks[0].split("```", 1)[0])
        config.validate()
        assert config.synth.n_subjects == 400 and config.model_cfg.cts_hidden == (16, 8)

    def test_render_parse_round_trip(self):
        config = parse_config(SMALL_CONFIG)
        again = parse_config(render_config(config))
        assert render_config(again) == render_config(config)
        assert config.hash() == again.hash()

    def test_every_key_round_trips_at_a_non_default_value(self):
        config = cli.RunConfig(
            work_dir="runs/other", seed=5, window=48, model=models.MM_HCR, jobs=2,
            synth=SynthConfig(
                n_subjects=9, prevalence=0.3, signal_strength=0.1 + 0.2, note_tokens_mean=7,
            ),
            embed=cli.EmbedConfig(dim=8, window=2, epochs=3, lr=0.125, min_count=4),
            model_cfg=models.ModelConfig(
                note_len=16, embed_dim=8, filters=4, conv_decay=1e-4, temporal_hidden=5,
                cts_hidden=(5, 3), cts_decay=0.0,
            ),
            train_cfg=traineval.TrainConfig(
                epochs=3, lr=2.5e-4, early_stop_patience=2, k=3, seed=11,
            ),
        )
        text = render_config(config)
        assert set(render_config(cli.RunConfig()).splitlines()).isdisjoint(text.splitlines())
        assert parse_config(text) == config


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One small pipeline run shared by the assertions below."""
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "run.cfg"
    config_path.write_text(SMALL_CONFIG + f"\nwork_dir = {root / 'run'}\n")
    for command in ("synth", "preprocess", "embed", "cohort"):
        assert main(["--config", str(config_path), command]) == 0
    assert main(["--config", str(config_path), "train"]) == 0
    assert main(["--config", str(config_path), "--model", "cts-rnn", "train"]) == 0
    assert main(["--config", str(config_path), "--model", "mm-hcr", "train"]) == 0
    assert main(["--config", str(config_path), "evaluate"]) == 0
    return root / "run", config_path


def test_pipeline_completes_and_writes_manifests(work):
    work_dir, _ = work
    settings = {"preprocess": {"model.note_len": 48}, "embed": {"embed.dim": 12},
                "cohort_W24": {"model.note_len": 48, "train.k": 5},
                **{f"train_{kind}_W24": {"train.k": 5} for kind in models.MODEL_KINDS}}
    for stage in ("synth", "preprocess", "embed", "cohort_W24",
                  "train_notes-hcr_W24", "train_cts-rnn_W24", "train_mm-hcr_W24"):
        manifest = json.loads((work_dir / f"{stage}.manifest.json").read_text())
        assert manifest["stage"] == stage
        assert manifest["settings"] == settings.get(stage, {})
        for field in ("cpu_s", "wall_s", "peak_rss_mb"):
            assert manifest[field] > 0, (stage, field)
        environment = manifest["environment"]
        assert environment["numpy"] == np.__version__
        assert environment["blas"]["name"] and environment["blas"]["version"]
        assert environment["num_threads"] == {
            k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")
        }
        for rel, digest in manifest["outputs"].items():
            assert (work_dir / rel).exists()
            assert len(digest) == 64


def test_manifest_environment_is_recorded_and_never_checked(tmp_path, monkeypatch):
    """The thread variables set for a stage are recorded; a later stage
    accepts its predecessor's manifest whatever environment it names."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(SMALL_CONFIG + f"\nwork_dir = {tmp_path / 'run'}\n")
    assert main(["--config", str(config_path), "synth"]) == 0
    manifest_path = tmp_path / "run" / "synth.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["environment"]["num_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    manifest["environment"] = {"numpy": "0.0", "blas": {}, "num_threads": {"X_NUM_THREADS": "9"}}
    manifest_path.write_text(json.dumps(manifest))
    assert main(["--config", str(config_path), "preprocess"]) == 0


def test_synth_rerun_is_byte_identical(work, tmp_path):
    work_dir, config_path = work
    other = tmp_path / "again"
    assert main(["--config", str(config_path), "--work-dir", str(other), "synth"]) == 0
    for name in ("admissions.csv", "icustays.csv", "notes.csv", "timeseries.csv"):
        assert (other / "tables" / name).read_bytes() == (
            work_dir / "tables" / name
        ).read_bytes()


def test_evaluate_outputs_per_fold_rows(work):
    work_dir, _ = work
    records = [
        json.loads(line)
        for line in (work_dir / "eval" / "report.jsonl").read_text().splitlines()
    ]
    for kind in models.MODEL_KINDS:
        fold_rows = [
            r for r in records
            if r["type"] == "fold" and r["model"] == kind and r["window"] == 24
        ]
        assert len(fold_rows) == 5
        assert sorted(r["fold"] for r in fold_rows) == [0, 1, 2, 3, 4]
        cells = [
            r for r in records
            if r["type"] == "cell" and r["model"] == kind and r["window"] == 24
        ]
        assert len(cells) == 1 and len(cells[0]["auroc_folds"]) == 5
    table = (work_dir / "eval" / "report.txt").read_text()
    assert "notes-hcr" in table and "cts-rnn" in table and "mm-hcr" in table

    # every row against a reference computed apart from traineval
    fold_rows: dict[tuple[str, int], list[dict]] = {}
    for row in (r for r in records if r["type"] == "fold"):
        scores_path = (
            work_dir / "train" / f"{row['model']}_W{row['window']}"
            / f"fold{row['fold']}.scores.jsonl"
        )
        test = [
            record for record in map(json.loads, scores_path.read_text().splitlines())
            if record["split"] == "test"
        ]
        probs, labels = [r["prob"] for r in test], [r["label"] for r in test]
        assert row["auroc"] == auroc_pairwise(probs, labels)
        assert row["auprc"] == auprc_sweep(probs, labels)
        fold_rows.setdefault((row["model"], row["window"]), []).append(row)
    cells = {(r["model"], r["window"]): r for r in records if r["type"] == "cell"}
    assert cells.keys() == fold_rows.keys()
    for key, cell in cells.items():
        for metric in ("auroc", "auprc"):
            values = [r[metric] for r in sorted(fold_rows[key], key=lambda r: r["fold"])]
            assert cell[f"{metric}_folds"] == values
            assert cell[f"{metric}_mean"] == pytest.approx(np.mean(values), abs=1e-12)
            assert cell[f"{metric}_sd"] == pytest.approx(np.std(values, ddof=1), abs=1e-12)
    comparisons = [r for r in records if r["type"] == "comparison"]
    assert sorted((c["baseline"], c["better"], c["window"], c["metric"]) for c in comparisons) == [
        (baseline, better, 24, metric)
        for baseline, better in ((models.CTS_RNN, models.NOTES_HCR),
                                 (models.NOTES_HCR, models.MM_HCR))
        for metric in ("auprc", "auroc")
    ]
    for c in comparisons:
        base, top = (cells[model, c["window"]][f"{c['metric']}_folds"]
                     for model in (c["baseline"], c["better"]))
        d = np.subtract(top, base)
        p = float(stats.t.sf(d.mean() / (d.std(ddof=1) / np.sqrt(len(d))), len(d) - 1))
        assert c["p_value"] == pytest.approx(p, abs=1e-12)
        assert c["marker"] == ("**" if p < 0.01 else "*" if p < 0.05 else "†")


def test_evaluate_skips_a_stray_train_directory(work, tmp_path):
    """A directory under train/ whose name ends in no `_W<window>` is no
    run: evaluate passes over it and writes the same eval/ bytes."""
    work_dir, _ = work
    args, copy = copy_run(work, tmp_path)
    (copy / "train" / "notes-hcr_Wold").mkdir()
    shutil.rmtree(copy / "eval")
    assert main(args + ["evaluate"]) == 0
    for name in ("report.txt", "report.jsonl"):
        assert (copy / "eval" / name).read_bytes() == (work_dir / "eval" / name).read_bytes()


def test_checkpoints_reload_against_config(work):
    work_dir, config_path = work
    from notemort.cli import parse_config as pc
    from notemort.ndcore import load_checkpoint

    config = pc(config_path.read_text())
    entries, config_hash = load_checkpoint(
        work_dir / "train" / "notes-hcr_W24" / "fold0.ckpt"
    )
    assert config_hash == config.model_cfg.hash()
    params = models.load_params_from_entries(
        models.NOTES_HCR, config.model_cfg, entries
    )
    assert models.parameter_count(params) > 0


def copy_run(work, tmp_path):
    """A private copy of the shared run, for tests that change it."""
    work_dir, config_path = work
    copy = tmp_path / "run"
    shutil.copytree(work_dir, copy)
    return ["--config", str(config_path), "--work-dir", str(copy)], copy


def test_train_reads_the_cohort_file_not_the_tables(work, tmp_path, monkeypatch):
    args, _ = copy_run(work, tmp_path)

    def refuse(*_args, **_kwargs):
        raise AssertionError("train rebuilt the cohort")

    for owner, name in ((cohort, "read_admissions_csv"), (cohort, "read_icustays_csv"),
                        (cohort, "read_timeseries_csv"), (notesproc, "read_clean_notes"),
                        (pipeline, "build_window_cohort"), (pipeline, "build_dataset")):
        monkeypatch.setattr(owner, name, refuse)
    for kind in models.MODEL_KINDS:
        assert main(args + ["--model", kind, "train"]) == 0


def rehash(copy, stage, rel):
    """Record an edited artifact in its stage's manifest, so it is not
    merely stale."""
    manifest_path = copy / f"{stage}.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][rel] = hashlib.sha256((copy / rel).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def test_cohort_rerun_is_byte_identical(work, tmp_path):
    work_dir, _ = work
    args, copy = copy_run(work, tmp_path)
    shutil.rmtree(copy / "cohorts")
    assert main(args + ["cohort"]) == 0
    arrays = sorted(p.name for p in (work_dir / "cohorts" / "dataset_W24").iterdir())
    assert arrays == sorted(f"{name}.npy" for name in pipeline.DATASET_ARRAYS)
    for name in arrays:
        rel = Path("cohorts") / "dataset_W24" / name
        assert (copy / rel).read_bytes() == (work_dir / rel).read_bytes(), rel
    outputs = [json.loads((d / "cohort_W24.manifest.json").read_text())["outputs"]
               for d in (work_dir, copy)]
    assert outputs[0] == outputs[1]


def test_train_loads_the_dataset_build_dataset_makes(work, tmp_path):
    """The stored arrays give back every stay as `build_dataset` made it;
    a stay whose time-series rows are removed comes back without one."""
    args, copy = copy_run(work, tmp_path)
    config = parse_config(work[1].read_text())
    table = copy / "tables" / "timeseries.csv"
    with open(table, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    dropped = rows[1][0]
    with open(table, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(r for r in rows if r[0] != dropped)
    rehash(copy, "synth", "tables/timeseries.csv")
    assert main(args + ["cohort"]) == 0

    wc = pipeline.build_window_cohort(
        notesproc.read_clean_notes(copy / "prep" / "clean_notes.jsonl",
                                   note_len=config.model_cfg.note_len),
        cohort.read_admissions_csv(copy / "tables" / "admissions.csv"),
        cohort.read_icustays_csv(copy / "tables" / "icustays.csv"),
        config.window,
    )
    built = pipeline.build_dataset(wc, cohort.read_timeseries_csv(table))
    loaded, _, _ = cli._load_cohort(config, copy)
    assert list(loaded) == wc.eligible and int(dropped) in loaded
    for hadm_id, want in built.items():
        got = loaded[hadm_id]
        assert type(hadm_id) is int and got.hadm_id == hadm_id
        assert type(got.label) is bool and got.label == want.label
        for name in ("note_ids", "ts_values", "ts_mask"):
            a, b = getattr(got, name), getattr(want, name)
            if b is None:
                assert a is None, (hadm_id, name)
            else:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b), (hadm_id, name)
    assert loaded[int(dropped)].ts_values is None


@pytest.mark.parametrize("artifact,stage", [
    ("tables/timeseries.csv", ["--model", "cts-rnn", "train"]),
    ("prep/clean_notes.jsonl", ["train"]),
])
def test_input_changed_after_cohort_refused_at_train(work, tmp_path, artifact, stage):
    args, copy = copy_run(work, tmp_path)
    path = copy / artifact
    path.write_bytes(path.read_bytes() + b"\n")
    assert main(args + stage) == 3


def test_cohort_file_lists_note_row_ids(work):
    work_dir, _ = work
    records = [
        json.loads(line)
        for line in (work_dir / "cohorts" / "cohort_W24.jsonl").read_text().splitlines()
    ]
    assert records and all(r["row_ids"] for r in records)
    assert not (work_dir / "cohorts" / "files_W24.jsonl").exists()


def test_jobs_do_not_change_train_outputs(work, tmp_path):
    """Per-fold seeds derive from (seed, fold), so `--jobs 2` writes every
    `train/` file byte for byte as the fixture's `--jobs 1` run did."""
    work_dir, _ = work
    args, copy = copy_run(work, tmp_path)
    shutil.rmtree(copy / "train")
    for kind in models.MODEL_KINDS:
        assert main(args + ["--jobs", "2", "--model", kind, "train"]) == 0
    files = sorted(p.relative_to(work_dir) for p in (work_dir / "train").rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(copy) for p in (copy / "train").rglob("*") if p.is_file())
    for rel in files:
        assert (copy / rel).read_bytes() == (work_dir / rel).read_bytes(), rel


# table, the stage that reads it, a field to blank, a timestamp field
TABLE_READERS = [
    ("notes.csv", ["preprocess"], "hadm_id", "chart_date"),
    ("admissions.csv", ["cohort"], "age_at_admission", "admit_time"),
    ("icustays.csv", ["cohort"], "icustay_id", "intime"),
    ("timeseries.csv", ["cohort"], "value", "hour"),
]


def _blank(header, row, field, _stamp):
    return [("" if name == field else value) for name, value in zip(header, row)]


def _bad_timestamp(header, row, _field, stamp):
    return [("2150-02-30 25:61" if name == stamp else value) for name, value in zip(header, row)]


def _truncated(_header, row, _field, _stamp):
    return row[:2]


def _nan(header, row, field, _stamp):
    return [("nan" if name == field else value) for name, value in zip(header, row)]


def _inf(header, row, field, _stamp):
    return [("inf" if name == field else value) for name, value in zip(header, row)]


@pytest.mark.parametrize("fault", [_blank, _bad_timestamp, _truncated, _nan, _inf])
@pytest.mark.parametrize("table,stage,field,stamp", TABLE_READERS)
def test_malformed_table_field_is_a_data_error(
    work, tmp_path, capsys, table, stage, field, stamp, fault
):
    args, copy = copy_run(work, tmp_path)
    path = copy / "tables" / table
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    rows[1] = fault(rows[0], rows[1], field, stamp)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    rehash(copy, "synth", f"tables/{table}")
    capsys.readouterr()

    assert main(args + stage) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert f"{table}: " in err and err.strip().endswith("(line 2)")
    column = {_blank: field, _bad_timestamp: stamp}.get(fault)
    if column is not None:
        assert f"{table}: {column}: " in err


def test_stay_with_every_row_outside_the_window_is_a_data_error(work, tmp_path, capsys):
    args, copy = copy_run(work, tmp_path)
    first = (copy / "cohorts" / "cohort_W24.jsonl").read_text().splitlines()[0]
    hadm_id = str(json.loads(first)["hadm_id"])
    path = copy / "tables" / "timeseries.csv"
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    hour = rows[0].index("hour")
    for row in rows[1:]:
        if row[0] == hadm_id:
            row[hour] = "24.00"  # W itself is past the window
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    rehash(copy, "synth", "tables/timeseries.csv")
    capsys.readouterr()

    assert main(args + ["cohort"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert f"hadm {hadm_id}: " in err


def _cut_mid_line(data: bytes) -> bytes:
    return data[: data.index(b"\n", len(data) // 2) - 1]


def _cut_half(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _untab_line(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[1] = lines[1].replace(b"\t", b" ")
    return b"\n".join(lines)


def _drop_last_line(data: bytes) -> bytes:
    return data[: data.rindex(b"\n", 0, -1) + 1]


def _set_word_vector_value(data: bytes, text: bytes, line: int = 2) -> bytes:
    """The first value of the line at 0-based index `line` (the row of
    word id line - 1) becomes text."""
    lines = data.split(b"\n")
    token, _, rest = lines[line].split(b" ", 2)
    lines[line] = b" ".join([token, text, rest])
    return b"\n".join(lines)


def _non_numeric_value(data: bytes) -> bytes:
    return _set_word_vector_value(data, b"x1.5")


def _nan_value(data: bytes) -> bytes:
    return _set_word_vector_value(data, b"nan")


def _nonzero_pad_row(data: bytes) -> bytes:
    return _set_word_vector_value(data, b"0.5", line=1)


def _bad_header(data: bytes) -> bytes:
    return b"many 12" + data[data.index(b"\n"):]


def _set_score(data: bytes, field: str, value) -> bytes:
    """The field of the second score record becomes value."""
    lines = data.split(b"\n")
    record = json.loads(lines[1])
    record[field] = value
    lines[1] = json.dumps(record).encode()
    return b"\n".join(lines)


def _nan_prob(data: bytes) -> bytes:
    return _set_score(data, "prob", float("nan"))


def _prob_above_one(data: bytes) -> bytes:
    return _set_score(data, "prob", 1.5)


def _label_two(data: bytes) -> bytes:
    return _set_score(data, "label", 2)


def _empty_val_role(data: bytes) -> bytes:
    """Fold 0 validates on no stay: its val stays train."""
    return data.replace(b'"0":"val"', b'"0":"train"')


def _one_class_test_split(data: bytes) -> bytes:
    """Fold 0 tests on negatives only: its positive test stays train."""
    records = [json.loads(line) for line in data.splitlines()]
    for record in records:
        if record["label"] and record["roles"]["0"] == "test":
            record["roles"]["0"] = "train"
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records).encode()


# artifact, the stage that wrote it, the stage that reads it, the fault,
# the name the error must give
@pytest.mark.parametrize("artifact,producer,stage,fault,named", [
    ("cohorts/cohort_W24.jsonl", "cohort_W24", ["train"], _cut_mid_line, "cohort_W24.jsonl"),
    ("cohorts/cohort_W24.jsonl", "cohort_W24", ["train"], _drop_last_line, "dataset_W24"),
    ("cohorts/dataset_W24/ts_values.npy", "cohort_W24", ["train"], _cut_half,
     "ts_values.npy"),
    ("prep/clean_notes.jsonl", "preprocess", ["cohort"], _cut_mid_line, "clean_notes.jsonl"),
    ("prep/embed_corpus.jsonl", "preprocess", ["embed"], _cut_mid_line, "embed_corpus.jsonl"),
    ("prep/vocab.txt", "preprocess", ["embed"], _untab_line, "vocab.txt"),
    ("train/notes-hcr_W24/fold0.scores.jsonl", "train_notes-hcr_W24", ["evaluate"],
     _cut_mid_line, "fold0.scores.jsonl"),
    ("cohorts/cohort_W24.jsonl", "cohort_W24", ["train"], _empty_val_role, "fold 0"),
    ("cohorts/cohort_W24.jsonl", "cohort_W24", ["train"], _one_class_test_split,
     "auroc undefined"),
    ("embeddings/embeddings.txt", "embed", ["train"], _non_numeric_value,
     "embeddings.txt"),
    ("embeddings/embeddings.txt", "embed", ["train"], _bad_header, "embeddings.txt"),
    ("embeddings/embeddings.txt", "embed", ["train"], _nan_value, "embeddings.txt"),
    ("train/notes-hcr_W24/fold0.scores.jsonl", "train_notes-hcr_W24", ["evaluate"],
     _nan_prob, "fold0.scores.jsonl"),
    ("train/notes-hcr_W24/fold0.scores.jsonl", "train_notes-hcr_W24", ["evaluate"],
     _prob_above_one, "fold0.scores.jsonl"),
    ("train/notes-hcr_W24/fold0.scores.jsonl", "train_notes-hcr_W24", ["evaluate"],
     _label_two, "fold0.scores.jsonl"),
    ("embeddings/embeddings.txt", "embed", ["train"], _nonzero_pad_row, "embeddings.txt"),
])
def test_malformed_artifact_is_a_data_error(
    work, tmp_path, capsys, artifact, producer, stage, fault, named
):
    args, copy = copy_run(work, tmp_path)
    path = copy / artifact
    path.write_bytes(fault(path.read_bytes()))
    rehash(copy, producer, artifact)
    capsys.readouterr()

    assert main(args + stage) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert f"{named}: " in err


# Former config keys that are now module constants: a value for one is
# still refused with exit 2, as an unknown key.
FIXED_KEYS = {"model.bn_momentum", "synth.notes_per_stay_mean", "synth.extra_stay_rate"}


@pytest.mark.parametrize("key,value,stage", [
    ("embed.window", 0, "embed"),
    ("embed.epochs", 0, "embed"),
    ("embed.dim", 0, "embed"),
    ("embed.dim", 16, "synth"),
    ("embed.lr", 0, "embed"),
    ("embed.lr", -5, "embed"),
    ("embed.lr", "nan", "embed"),
    ("train.k", 2, "cohort"),
    ("model.cts_hidden", 16, "train"),
    ("model.cts_hidden", "16,8,4", "train"),
    ("model.conv_decay", -0.5, "train"),
    ("model.cts_decay", -0.5, "train"),
    ("model.conv_decay", "inf", "train"),
    ("model.cts_decay", "inf", "train"),
    ("train.lr", -0.5, "train"),
    ("train.lr", 0, "train"),
    ("train.lr", "inf", "train"),
    ("train.seed", -3, "synth"),
    ("train.early_stop_patience", 0, "train"),
    ("embed.min_count", -5, "preprocess"),
    ("synth.note_tokens_mean", -3, "synth"),
    ("synth.signal_strength", "nan", "synth"),
    ("synth.signal_strength", "inf", "synth"),
    ("model.bn_momentum", 1.5, "train"),
    ("model.bn_momentum", -0.5, "train"),
    ("synth.notes_per_stay_mean", 0.5, "synth"),
    ("synth.notes_per_stay_mean", "nan", "synth"),
    ("synth.notes_per_stay_mean", "inf", "synth"),
    ("synth.extra_stay_rate", 1.5, "synth"),
    ("synth.extra_stay_rate", -0.5, "synth"),
])
def test_out_of_range_config_value_exits_2(work, tmp_path, capsys, key, value, stage):
    _, copy = copy_run(work, tmp_path)
    config = tmp_path / "bad.cfg"
    config.write_text(SMALL_CONFIG + f"\n{key} = {value}\nwork_dir = {copy}\n")
    capsys.readouterr()

    assert main(["--config", str(config), stage]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    if key in FIXED_KEYS:
        assert f"unknown key {key!r}" in err
    else:
        assert f"{key.split('.')[1]} " in err and f"got {value}" in err


@pytest.mark.parametrize(
    "config_line,flags", [("seed = -1", []), ("", ["--seed", "-1"])], ids=["config", "flag"]
)
def test_negative_seed_exits_2(tmp_path, capsys, config_line, flags):
    config = tmp_path / "c.cfg"
    config.write_text(f"{config_line}\nwork_dir = {tmp_path / 'w'}\n")

    assert main(["--config", str(config), *flags, "synth"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "seed must be >= 0, got -1" in err


def test_diverging_skipgram_exits_4_without_writing_vectors(work, tmp_path, capsys):
    _, copy = copy_run(work, tmp_path)
    vectors = copy / "embeddings" / "embeddings.txt"
    vectors.unlink()
    config = tmp_path / "diverge.cfg"
    config.write_text(SMALL_CONFIG + f"\nembed.lr = 1e6\nwork_dir = {copy}\n")
    capsys.readouterr()

    assert main(["--config", str(config), "embed"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "FloatingPointError" in err and "lr 1000000.0" in err
    assert not vectors.exists()


def test_fold_count_mismatch_refused(work, tmp_path, capsys):
    work_dir, _ = work
    config = tmp_path / "k3.cfg"
    config.write_text(SMALL_CONFIG + f"\ntrain.k = 3\nwork_dir = {work_dir}\n")
    assert main(["--config", str(config), "train"]) == 3
    assert "re-run `cohort`" in capsys.readouterr().err


def test_evaluate_at_another_fold_count_refused(work, tmp_path, capsys):
    """Runs trained at k = 5 are refused at k = 3, and eval/ is left as it was."""
    _, copy = copy_run(work, tmp_path)
    report = (copy / "eval" / "report.jsonl").read_bytes()
    config = tmp_path / "k3.cfg"
    config.write_text(SMALL_CONFIG + f"\ntrain.k = 3\nwork_dir = {copy}\n")
    capsys.readouterr()

    assert main(["--config", str(config), "evaluate"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "train.k is 3, but stage `train_" in err and "re-run `train`" in err
    assert (copy / "eval" / "report.jsonl").read_bytes() == report


def test_clean_notes_of_another_note_len_refused(work, tmp_path, capsys):
    args, copy = copy_run(work, tmp_path)
    short = tmp_path / "short.cfg"
    short.write_text(SMALL_CONFIG + f"\nmodel.note_len = 16\nwork_dir = {copy}\n")
    assert main(["--config", str(short), "preprocess"]) == 0
    capsys.readouterr()

    assert main(args + ["cohort"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "model.note_len is 48, but stage `preprocess` ran with 16: re-run `preprocess`" in err


def test_stale_training_results_refused(work, tmp_path):
    args, _ = copy_run(work, tmp_path)
    assert main(args + ["--seed", "99", "embed"]) == 0
    assert main(args + ["evaluate"]) == 3


def test_changed_score_of_a_later_fold_refused(work, tmp_path):
    args, copy = copy_run(work, tmp_path)
    scores = copy / "train" / "notes-hcr_W24" / "fold1.scores.jsonl"
    lines = scores.read_text().splitlines()
    record = json.loads(lines[0])
    record["prob"] = 0.5 if record["prob"] != 0.5 else 0.25
    scores.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    assert main(args + ["evaluate"]) == 3


def test_work_dir_that_is_a_file_exits_4_without_traceback(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert main(["--work-dir", str(not_a_dir), "synth"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_train_before_cohort_refused(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text(SMALL_CONFIG + f"\nwork_dir = {tmp_path / 'w'}\n")
    assert main(["--config", str(config), "synth"]) == 0
    code = main(["--config", str(config), "train"])
    assert code == 3


def test_preprocess_before_synth_refused(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text(f"work_dir = {tmp_path / 'w'}\n")
    assert main(["--config", str(config), "preprocess"]) == 3


def test_stale_input_detected(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text(SMALL_CONFIG + f"\nwork_dir = {tmp_path / 'w'}\n")
    assert main(["--config", str(config), "synth"]) == 0
    notes = tmp_path / "w" / "tables" / "notes.csv"
    notes.write_text(notes.read_text() + "# tampered\n")
    assert main(["--config", str(config), "preprocess"]) == 3


def test_invalid_prevalence_exit_code_and_message(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text(f"work_dir = {tmp_path / 'w'}\nsynth.prevalence = 1.5\n")
    assert main(["--config", str(config), "synth"]) == 2
    assert "prevalence" in capsys.readouterr().err


def test_unknown_config_key_exit_code(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    for key, value in (
        ("synth.wizardry", "9"), ("embed.subword", "true"), ("synth.obs_rate", "0.5"),
        ("model.kernel_size", "3"), ("model.fusion_dropout", "0.3"), ("model.bn_eps", "1e-5"),
        ("train.lr_drop_epochs", "10,50,90"), ("embed.negatives", "5"),
        ("embed.batch_pairs", "256"), ("model.train_embeddings", "true"),
        ("model.conv_blocks", "2"), ("model.spatial_dropout", "0.25"),
        ("model.bn_momentum", "1.5"), ("model.cts_features", "6"),
        ("train.hcr_batch_size", "4"), ("train.cts_batch_size", "8"),
        ("synth.extra_stay_rate", "1.5"), ("synth.notes_per_stay_mean", "0.5"),
    ):
        config.write_text(f"{key} = {value}\n")
        assert main(["--config", str(config), "synth"]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err


def test_data_error_exit_code(tmp_path):
    # cohort cannot fill five folds from three subjects
    config = tmp_path / "c.cfg"
    config.write_text(
        SMALL_CONFIG.replace("synth.n_subjects = 70", "synth.n_subjects = 3")
        + f"\nwork_dir = {tmp_path / 'w'}\n"
    )
    assert main(["--config", str(config), "synth"]) == 0
    assert main(["--config", str(config), "preprocess"]) == 0
    assert main(["--config", str(config), "cohort"]) == 4


def test_missing_config_file(capsys):
    assert main(["--config", "/nonexistent/path.cfg", "synth"]) == 2
