"""Clinical-note cleaning and patient-file assembly.

The cleaning pipeline: lowercase, normalize bracketed de-identification
spans into three replacement tokens (or delete them), keep only
alphabetic / mixed alphanumeric / small-number tokens, truncate or pad
to a fixed length, impute missing chart times to midnight, drop
duplicate and erroneous notes, and group the survivors into
chronologically sorted per-stay files restricted to a data window.

Everything here is a pure function of the input records, so the whole
pipeline is deterministic and safe to parallelize per note or per stay.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from typing import Iterator

import numpy as np

from .errors import DataError

NOTE_LEN = 500
PAD_ID = 0
OOV_ID = -1

NAME_TOKEN = "deidentifiedname"
HOSP_TOKEN = "deidentifiedhosp"
DATE_TOKEN = "deidentifieddate"

DISCHARGE_CATEGORY = "discharge summary"


@dataclass
class RawNote:
    row_id: int
    subject_id: int
    hadm_id: int
    category: str
    chart_date: date
    chart_time: time | None
    is_error: bool
    text: str


@dataclass
class CleanNote:
    """Fixed-length token-id sequence for one note.

    tokens[i] is a vocabulary id, OOV_ID for out-of-vocabulary words, or
    PAD_ID past the end: a position holds a real token exactly when its id
    is not PAD_ID.
    """

    tokens: np.ndarray  # int32 [NOTE_LEN]
    charted_at: datetime
    category: str
    hadm_id: int
    row_id: int

    def n_tokens(self) -> int:
        return int(np.count_nonzero(self.tokens != PAD_ID))


@dataclass
class PatientFile:
    """Chronologically ordered clean notes for one stay within a window."""

    hadm_id: int
    subject_id: int
    notes: list[CleanNote]
    label: bool
    window_hours: int


# -- text cleaning -------------------------------------------------------------

_DEID_SPAN = re.compile(r"\[\*\*(.*?)\*\*\]", re.DOTALL)
_ISO_DATE = re.compile(r"\d{1,4}-\d{1,2}(-\d{1,2})?")
_WHITESPACE = re.compile(r"\s+")
_SPLIT = re.compile(r"[^a-z0-9]+")


def _classify_deid_span(content: str) -> str:
    """Map one de-identification span to its replacement token or ''.

    Keyword rules, checked in order: "name" -> name token, "hospital" ->
    hospital token, an ISO-like numeric date or a date word -> date
    token; everything else is deleted.
    """
    if "name" in content:
        return NAME_TOKEN
    if "hospital" in content:
        return HOSP_TOKEN
    if _ISO_DATE.search(content) or any(
        word in content for word in ("date", "month", "year", "holiday")
    ):
        return DATE_TOKEN
    return ""


def clean_text(text: str) -> str:
    """Lowercase, replace/delete de-id spans, collapse whitespace."""
    lowered = text.lower()
    replaced = _DEID_SPAN.sub(lambda m: _classify_deid_span(m.group(1)), lowered)
    return _WHITESPACE.sub(" ", replaced).strip()


def keep_token(token: str) -> bool:
    """The single predicate behind the token filter.

    Keeps purely alphabetic tokens, mixed letter-digit tokens, and
    purely numeric tokens whose integer value is below 1000.
    """
    if not token:
        return False
    if token.isalpha():
        return True
    if token.isdigit():
        return int(token) < 1000
    return token.isalnum()


def tokenize_filter(cleaned: str) -> list[str]:
    """Split on non-alphanumerics and apply the keep predicate."""
    return [tok for tok in _SPLIT.split(cleaned) if keep_token(tok)]


def truncate_pad(ids: list[int], max_len: int = NOTE_LEN) -> np.ndarray:
    """Keep the first max_len ids (head truncation), right-pad with PAD_ID."""
    if not ids:
        raise DataError("truncate_pad: empty token list")
    kept = ids[:max_len]
    if PAD_ID in kept:
        raise DataError(f"truncate_pad: a real token has the pad id {PAD_ID}")
    out = np.full(max_len, PAD_ID, dtype=np.int32)
    out[: len(kept)] = kept
    return out


def impute_charttime(raw: RawNote) -> datetime:
    """Use the chart time when present, else midnight of the chart date."""
    if raw.chart_date is None:
        raise DataError(f"note {raw.row_id}: missing chart date")
    return datetime.combine(raw.chart_date, raw.chart_time or time(0, 0, 0))


def dedupe_and_filter(notes: list[RawNote]) -> list[RawNote]:
    """Drop erroneous notes and duplicates.

    Duplicates share (hadm_id, imputed chart time, text hash); the
    lowest row_id wins. Discharge summaries are kept here -- they belong
    to the embedding corpus and are removed from the model corpus later.
    """
    best: dict[tuple, RawNote] = {}
    for note in notes:
        if note.is_error:
            continue
        digest = hashlib.sha256(note.text.encode("utf-8")).hexdigest()
        key = (note.hadm_id, impute_charttime(note), digest)
        kept = best.get(key)
        if kept is None or note.row_id < kept.row_id:
            best[key] = note
    return sorted(best.values(), key=lambda n: n.row_id)


def is_discharge_summary(category: str) -> bool:
    return category.strip().lower() == DISCHARGE_CATEGORY


def assemble_patient_file(
    notes: list[CleanNote],
    icu_intime: datetime,
    window_hours: int,
    label: bool,
    subject_id: int,
    hadm_id: int,
) -> PatientFile | None:
    """Order the notes charted inside [intime, intime + W hours).

    Returns None when no note survives the window filter (the stay is
    excluded from that experiment's cohort).
    """
    horizon = icu_intime + timedelta(hours=window_hours)
    inside = [n for n in notes if icu_intime <= n.charted_at < horizon]
    if not inside:
        return None
    inside.sort(key=lambda n: (n.charted_at, n.row_id))
    return PatientFile(
        hadm_id=hadm_id,
        subject_id=subject_id,
        notes=inside,
        label=label,
        window_hours=window_hours,
    )


# -- record I/O ------------------------------------------------------------------

NOTE_COLUMNS = [
    "row_id",
    "subject_id",
    "hadm_id",
    "category",
    "chart_date",
    "chart_time",
    "is_error",
    "text",
]


def parse_timestamp(value: str) -> datetime:
    return datetime.strptime(value, "%Y-%m-%d %H:%M:%S")


def format_timestamp(value: datetime) -> str:
    return value.strftime("%Y-%m-%d %H:%M:%S")


def read_csv_records(path, columns: list[str], parse) -> Iterator:
    """parse(row) for each data row of a header-first CSV table; a missing
    column, a row of the wrong length or a ValueError from parse is a
    DataError naming the file and the row's first line."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        missing = set(columns) - set(header)
        if missing:
            raise DataError(f"{path}: missing columns {sorted(missing)}")
        last = reader.line_num
        for fields in reader:
            # a quoted field may span lines: name the record's first one
            line, last = last + 1, reader.line_num
            if not fields:
                continue  # a blank line
            try:
                if len(fields) != len(header):
                    raise DataError(f"{len(fields)} fields, the header has {len(header)}")
                record = parse(dict(zip(header, fields)))
            except ValueError as exc:
                raise DataError(f"{path}: {exc} (line {line})") from exc
            yield record


def _parse_note(row: dict) -> RawNote:
    chart_time = None
    if row["chart_time"]:
        hh, mm, ss = row["chart_time"].split(":")
        chart_time = time(int(hh), int(mm), int(ss))
    return RawNote(
        row_id=int(row["row_id"]),
        subject_id=int(row["subject_id"]),
        hadm_id=int(row["hadm_id"]),
        category=row["category"],
        chart_date=datetime.strptime(row["chart_date"], "%Y-%m-%d").date(),
        chart_time=chart_time,
        is_error=row["is_error"] in ("1", "true", "True"),
        text=row["text"],
    )


def read_notes_csv(path) -> list[RawNote]:
    """Read the raw note table (comma-separated, quoted, header row)."""
    return list(read_csv_records(path, NOTE_COLUMNS, _parse_note))


def write_notes_csv(path, notes: list[RawNote]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(NOTE_COLUMNS)
        for n in notes:
            writer.writerow(
                [
                    n.row_id,
                    n.subject_id,
                    n.hadm_id,
                    n.category,
                    n.chart_date.strftime("%Y-%m-%d"),
                    n.chart_time.strftime("%H:%M:%S") if n.chart_time else "",
                    "1" if n.is_error else "",
                    n.text,
                ]
            )


def write_clean_notes(path, notes: list[CleanNote]) -> None:
    """Line-delimited CleanNote records holding the unpadded token ids."""
    with open(path, "w", encoding="utf-8") as handle:
        for note in notes:
            record = {
                "row_id": note.row_id,
                "hadm_id": note.hadm_id,
                "category": note.category,
                "charted_at": format_timestamp(note.charted_at),
                "n_tokens": note.n_tokens(),
                "tokens": note.tokens[: note.n_tokens()].tolist(),
            }
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_clean_notes(path, note_len: int = NOTE_LEN) -> list[CleanNote]:
    notes = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            notes.append(
                CleanNote(
                    tokens=truncate_pad(record["tokens"], max_len=note_len),
                    charted_at=parse_timestamp(record["charted_at"]),
                    category=record["category"],
                    hadm_id=record["hadm_id"],
                    row_id=record["row_id"],
                )
            )
    return notes

