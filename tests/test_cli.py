"""CLI: config parsing, stage sequencing, manifests, exit codes,
and the full small-pipeline smoke run."""

import csv
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from notemort import cohort, models, pipeline
from notemort.cli import main, parse_config, render_config
from notemort.errors import ConfigurationError

SMALL_CONFIG = """
# small end-to-end configuration
seed = 13
window = 24
model = notes-hcr

synth.n_subjects = 70
synth.prevalence = 0.25
synth.notes_per_stay_mean = 3
synth.note_tokens_mean = 25

embed.dim = 12
embed.window = 3
embed.epochs = 2
embed.min_count = 5

model.note_len = 48
model.embed_dim = 12
model.filters = 8
model.conv_blocks = 2
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

    def test_render_parse_round_trip(self):
        config = parse_config(SMALL_CONFIG)
        again = parse_config(render_config(config))
        assert render_config(again) == render_config(config)
        assert config.hash() == again.hash()


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
    for stage in ("synth", "preprocess", "embed", "cohort_W24",
                  "train_notes-hcr_W24", "train_cts-rnn_W24", "train_mm-hcr_W24"):
        manifest = json.loads((work_dir / f"{stage}.manifest.json").read_text())
        assert manifest["stage"] == stage
        for rel, digest in manifest["outputs"].items():
            assert (work_dir / rel).exists()
            assert len(digest) == 64


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
                        (pipeline, "build_window_cohort")):
        monkeypatch.setattr(owner, name, refuse)
    for kind in models.MODEL_KINDS:
        assert main(args + ["--model", kind, "train"]) == 0


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
    ("timeseries.csv", ["--model", "cts-rnn", "train"], "value", "hour"),
]


def _blank(header, row, field, _stamp):
    return [("" if name == field else value) for name, value in zip(header, row)]


def _bad_timestamp(header, row, _field, stamp):
    return [("2150-02-30 25:61" if name == stamp else value) for name, value in zip(header, row)]


def _truncated(_header, row, _field, _stamp):
    return row[:2]


@pytest.mark.parametrize("fault", [_blank, _bad_timestamp, _truncated])
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
    # record the edit in the synth manifest, so the table is not merely stale
    manifest_path = copy / "synth.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][f"tables/{table}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()

    assert main(args + stage) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert f"{table}: " in err and err.strip().endswith("(line 2)")


def test_fold_count_mismatch_refused(work, tmp_path, capsys):
    work_dir, _ = work
    config = tmp_path / "k3.cfg"
    config.write_text(SMALL_CONFIG + f"\ntrain.k = 3\nwork_dir = {work_dir}\n")
    assert main(["--config", str(config), "train"]) == 3
    assert "re-run `cohort`" in capsys.readouterr().err


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
    config.write_text("synth.wizardry = 9\n")
    assert main(["--config", str(config), "synth"]) == 2
    assert "wizardry" in capsys.readouterr().err


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
