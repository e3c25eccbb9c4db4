"""Stage functions wiring the modules into the end-to-end pipeline.

raw tables -> cleaned token corpora -> vocabulary + embeddings ->
window cohorts (the stays `cohort.select_cohort` picks, with their
notes) -> model-ready datasets. This module owns how a stay becomes
model input. The dataset's one form is the four DATASET_ARRAYS, which
`dataset_arrays` builds from a window cohort and its time-series rows;
`dataset_views` turns them into per-stay `StayData` views. The CLI's
`cohort` stage builds and saves the arrays once (`save_dataset`), and
`train` only loads them (`load_dataset`). The CLI wraps these with
on-disk artifacts and manifests; tests and the demo scripts call them
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import notesproc
from .cohort import (
    TS_ROW,
    Admission,
    IcuStay,
    impute_timeseries,
    label_mortality,
    select_cohort,
)
from .embed import Vocabulary, build_vocab
from .errors import DataError
from .notesproc import CleanNote, RawNote
from .traineval import StayData


@dataclass
class PreprocessedCorpus:
    """Outputs of the cleaning stage.

    embedding_sentences: token-id sentences over the full corpus
    (discharge summaries included, out-of-vocabulary words dropped);
    model_notes: fixed-length CleanNotes for the model corpus
    (discharge summaries removed).
    """

    vocab: Vocabulary
    embedding_sentences: list[list[int]]
    model_notes: list[CleanNote]
    n_raw: int = 0
    n_deduped: int = 0


def preprocess_notes(
    raw_notes: list[RawNote],
    min_count: int = 20,
    note_len: int = notesproc.NOTE_LEN,
) -> PreprocessedCorpus:
    """Run the full cleaning pipeline over a raw note table."""
    deduped = notesproc.dedupe_and_filter(raw_notes)
    tokenized: list[tuple[RawNote, list[str]]] = []
    for note in deduped:
        tokens = notesproc.tokenize_filter(notesproc.clean_text(note.text))
        if tokens:
            tokenized.append((note, tokens))
    if not tokenized:
        raise DataError("preprocess: no note survived cleaning")
    vocab = build_vocab((tokens for _, tokens in tokenized), min_count=min_count)
    embedding_sentences = [
        sent for _, tokens in tokenized if (sent := vocab.encode_known(tokens))
    ]
    model_notes = []
    for note, tokens in tokenized:
        if notesproc.is_discharge_summary(note.category):
            continue
        model_notes.append(
            CleanNote(
                tokens=notesproc.truncate_pad(vocab.encode(tokens), max_len=note_len),
                charted_at=notesproc.impute_charttime(note),
                category=note.category,
                hadm_id=note.hadm_id,
                row_id=note.row_id,
            )
        )
    return PreprocessedCorpus(
        vocab=vocab,
        embedding_sentences=embedding_sentences,
        model_notes=model_notes,
        n_raw=len(raw_notes),
        n_deduped=len(deduped),
    )


@dataclass
class WindowCohort:
    """One window's eligible stays, sorted; every mapping follows that
    order."""

    window_hours: int
    eligible: list[int]
    notes: dict[int, list[CleanNote]]
    labels: dict[int, bool]
    subject_of: dict[int, int]


def build_window_cohort(
    clean_notes: list[CleanNote],
    admissions: dict[int, Admission],
    icustays: list[IcuStay],
    window_hours: int,
) -> WindowCohort:
    """The stays and notes `select_cohort` picks for this window, with
    each stay's label and subject."""
    notes = select_cohort(admissions, icustays, clean_notes, window_hours)
    return WindowCohort(
        window_hours=window_hours,
        eligible=list(notes),
        notes=notes,
        labels={h: label_mortality(admissions[h]) for h in notes},
        subject_of={h: admissions[h].subject_id for h in notes},
    )


# one .npy file per array, in the cohort's eligible order
DATASET_ARRAYS = ("note_counts", "note_ids", "ts_values", "ts_mask")


def dataset_arrays(cohort: WindowCohort, rows: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """The dataset of the eligible stays: note_counts [S], note_ids
    [sum of note_counts, L] stay after stay, and the time-series grid
    ts_values / ts_mask [S, W, F] that `impute_timeseries` makes from the
    `cohort.read_timeseries_csv` rows (none: no stay has a series)."""
    notes = [cohort.notes[h] for h in cohort.eligible]
    if rows is None:
        rows = np.empty(0, TS_ROW)
    ts_values, ts_mask = impute_timeseries(rows, cohort.eligible, cohort.window_hours)
    return {
        "note_counts": np.array([len(stay) for stay in notes], dtype=np.int64),
        "note_ids": np.stack([note.tokens for stay in notes for note in stay]),
        "ts_values": ts_values,
        "ts_mask": ts_mask,
    }


def dataset_views(
    arrays: dict[str, np.ndarray], labels: dict[int, bool], source: str | Path = "dataset"
) -> dict[int, StayData]:
    """A StayData of views into the arrays for each stay of labels, in
    its order. An all-False mask means the stay has no time series:
    `impute_timeseries` marks a cell of every stay that has rows, so
    such a stay gets ts_values and ts_mask None."""
    counts = arrays["note_counts"]
    if not (
        len(counts) == len(arrays["ts_values"]) == len(arrays["ts_mask"]) == len(labels)
        and counts.sum() == len(arrays["note_ids"])
    ):
        raise DataError(f"{source}: arrays do not match the cohort's {len(labels)} stays")
    starts = np.concatenate([[0], np.cumsum(counts)])
    has_ts = arrays["ts_mask"].any(axis=(1, 2))
    dataset = {}
    for i, (hadm_id, label) in enumerate(labels.items()):
        dataset[hadm_id] = StayData(
            hadm_id=hadm_id,
            label=label,
            note_ids=arrays["note_ids"][starts[i] : starts[i + 1]],
            ts_values=arrays["ts_values"][i] if has_ts[i] else None,
            ts_mask=arrays["ts_mask"][i] if has_ts[i] else None,
        )
    return dataset


def build_dataset(
    cohort: WindowCohort, rows: np.ndarray | None = None
) -> dict[int, StayData]:
    """Model-ready StayData for every eligible stay, from its notes and
    its time-series rows."""
    return dataset_views(dataset_arrays(cohort, rows), cohort.labels)


def save_dataset(directory: Path, arrays: dict[str, np.ndarray]) -> list[Path]:
    """Write each of the DATASET_ARRAYS to its own .npy file. np.save, not
    np.savez, keeps reruns byte-identical (zip entries carry a time)."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"{name}.npy" for name in DATASET_ARRAYS]
    for path, name in zip(paths, DATASET_ARRAYS):
        np.save(path, arrays[name])
    return paths


def load_dataset(directory: Path, labels: dict[int, bool]) -> dict[int, StayData]:
    """The dataset `save_dataset` wrote, for the stays of labels in its
    order; each StayData holds views of the stored arrays."""
    arrays = {}
    for name in DATASET_ARRAYS:
        path = directory / f"{name}.npy"
        try:
            arrays[name] = np.load(path)
        except (EOFError, ValueError) as exc:
            raise DataError(f"{path}: {exc}") from exc
    return dataset_views(arrays, labels, directory)
