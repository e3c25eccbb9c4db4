"""Stage functions wiring the modules into the end-to-end pipeline.

raw tables -> cleaned token corpora -> vocabulary + embeddings ->
window-specific patient files and cohorts -> model-ready datasets.
The CLI wraps these with on-disk artifacts and manifests; tests and the
demo scripts call them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import notesproc
from .cohort import (
    Admission,
    IcuStay,
    impute_timeseries,
    label_mortality,
    select_cohort,
    standardize_values,
    validate_cohort,
)
from .embed import Vocabulary, build_vocab
from .errors import DataError
from .notesproc import CleanNote, PatientFile, RawNote
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
        ids, mask = notesproc.truncate_pad(vocab.encode(tokens), max_len=note_len)
        model_notes.append(
            CleanNote(
                tokens=ids,
                mask=mask,
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


def build_patient_files(
    clean_notes: list[CleanNote],
    admissions: dict[int, Admission],
    icustays: list[IcuStay],
    window_hours: int,
) -> dict[int, PatientFile]:
    """Assemble per-stay files for one window; stays whose notes all fall
    outside the window produce no file."""
    notes_by_hadm: dict[int, list[CleanNote]] = {}
    for note in clean_notes:
        notes_by_hadm.setdefault(note.hadm_id, []).append(note)
    intime_by_hadm: dict[int, object] = {}
    for stay in icustays:
        current = intime_by_hadm.get(stay.hadm_id)
        if current is None or stay.intime < current:
            intime_by_hadm[stay.hadm_id] = stay.intime
    files: dict[int, PatientFile] = {}
    for hadm_id, notes in notes_by_hadm.items():
        adm = admissions.get(hadm_id)
        intime = intime_by_hadm.get(hadm_id)
        if adm is None or intime is None:
            continue
        file = notesproc.assemble_patient_file(
            notes,
            icu_intime=intime,
            window_hours=window_hours,
            label=label_mortality(adm),
            subject_id=adm.subject_id,
            hadm_id=hadm_id,
        )
        if file is not None:
            files[hadm_id] = file
    return files


@dataclass
class WindowCohort:
    window_hours: int
    eligible: list[int]
    files: dict[int, PatientFile]
    labels: dict[int, bool] = field(default_factory=dict)
    subject_of: dict[int, int] = field(default_factory=dict)


def build_window_cohort(
    clean_notes: list[CleanNote],
    admissions: dict[int, Admission],
    icustays: list[IcuStay],
    window_hours: int,
) -> WindowCohort:
    """Patient files plus the post-validated eligible stay set."""
    files = build_patient_files(clean_notes, admissions, icustays, window_hours)
    eligible = select_cohort(admissions, icustays, files, window_hours)
    validate_cohort(eligible, admissions, icustays, files)
    return WindowCohort(
        window_hours=window_hours,
        eligible=sorted(eligible),
        files={h: files[h] for h in eligible},
        labels={h: files[h].label for h in eligible},
        subject_of={h: admissions[h].subject_id for h in eligible},
    )


def build_dataset(
    cohort: WindowCohort,
    timeseries: dict[int, list[tuple[float, int, float]]] | None = None,
) -> dict[int, StayData]:
    """Model-ready arrays for every eligible stay; the time series is
    imputed onto the window's hourly grid and standardized with the
    fixed per-variable table when its observations are supplied."""
    dataset: dict[int, StayData] = {}
    for hadm_id in cohort.eligible:
        file = cohort.files[hadm_id]
        stay = StayData(
            hadm_id=hadm_id,
            label=file.label,
            note_ids=np.stack([n.tokens for n in file.notes]),
            note_masks=np.stack([n.mask for n in file.notes]),
        )
        if timeseries is not None:
            observations = timeseries.get(hadm_id)
            if observations:
                ts = impute_timeseries(hadm_id, observations, cohort.window_hours)
                stay.ts_values = standardize_values(ts.values)
                stay.ts_mask = ts.mask
        dataset[hadm_id] = stay
    return dataset
