"""Cohort construction: exclusion criteria and window notes, labels,
grouped CV splits, and clinical time-series imputation.

`select_cohort` decides a window's cohort in one pass. A hospital stay
is excluded when the patient is 18 or younger, the stay has multiple
ICU stays, its ICU stay shows transfers between care units, or death
occurs within the first 72 hours of the ICU stay. A stay that passes
keeps the notes charted in the half-open window [intime, intime + W
hours) of its ICU stay, in chart-time order with the note row id
breaking ties, and is left out when no note falls inside the window.
Splits are grouped by patient so no subject spans roles.

The time-series table is read as one array of TS_ROW records, with
hours relative to the ICU in-time, and `impute_timeseries` grids the
rows of all stays at once onto W hourly bins: a row lands in bin
int(hour) for hours in [0, W), the last row of a bin in row order wins,
each channel is forward-filled and then normal-filled, and the grid is
standardized with the fixed table. A stay without rows comes out as
zeros under an all-False mask; a stay with rows but none inside the
window is an error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, DataError
from .notesproc import (
    CleanNote, format_timestamp, open_text, parse_timestamp, read_csv_records, write_csv_records,
)

EARLY_DEATH_HOURS = 72
ADULT_AGE_CUTOFF = 18.0


@dataclass
class Admission:
    hadm_id: int
    subject_id: int
    admit_time: datetime
    discharge_time: datetime
    death_time: datetime | None
    age_at_admission: float


@dataclass
class IcuStay:
    hadm_id: int
    icustay_id: int
    intime: datetime
    outtime: datetime
    care_units: list[str]


@dataclass
class FoldSplit:
    fold: int
    roles: dict[int, str]  # hadm_id -> "train" | "val" | "test"

    def members(self, role: str) -> list[int]:
        return sorted(h for h, r in self.roles.items() if r == role)


# -- the 17 physiological channels: (name, normal value, typical scale) --------

TS_VARIABLES: list[tuple[str, float, float]] = [
    ("capillary_refill_rate", 0.0, 1.0),
    ("diastolic_blood_pressure", 70.0, 10.0),
    ("fraction_inspired_oxygen", 0.30, 0.10),
    ("gcs_eye", 4.0, 1.0),
    ("gcs_motor", 6.0, 1.0),
    ("gcs_total", 14.0, 3.0),
    ("gcs_verbal", 5.0, 1.0),
    ("glucose", 120.0, 40.0),
    ("heart_rate", 85.0, 15.0),
    ("height", 170.0, 10.0),
    ("mean_blood_pressure", 85.0, 12.0),
    ("oxygen_saturation", 97.0, 3.0),
    ("respiratory_rate", 18.0, 5.0),
    ("systolic_blood_pressure", 120.0, 15.0),
    ("temperature", 37.0, 0.7),
    ("weight", 80.0, 15.0),
    ("ph", 7.4, 0.1),
]

TS_INDEX = {name: i for i, (name, _, _) in enumerate(TS_VARIABLES)}
TS_NORMALS = np.array([normal for _, normal, _ in TS_VARIABLES])
TS_SCALES = np.array([scale for _, _, scale in TS_VARIABLES])
N_TS_VARIABLES = len(TS_VARIABLES)


# -- selection -----------------------------------------------------------------


def label_mortality(admission: Admission) -> bool:
    """In-hospital mortality: died on or before discharge. Deaths after
    discharge are a different prediction target and count as False."""
    return (
        admission.death_time is not None
        and admission.death_time <= admission.discharge_time
    )


def _passes_criteria(admission: Admission, stays: Sequence[IcuStay]) -> bool:
    """The table criteria: one ICU stay with no care-unit transfer, age
    above 18, no death in the first 72 hours."""
    if len(stays) != 1 or len(set(stays[0].care_units)) > 1:
        return False
    if admission.age_at_admission <= ADULT_AGE_CUTOFF:
        return False
    early = stays[0].intime + timedelta(hours=EARLY_DEATH_HOURS)
    return admission.death_time is None or admission.death_time >= early


def select_cohort(
    admissions: Mapping[int, Admission],
    icustays: Sequence[IcuStay],
    clean_notes: Iterable[CleanNote],
    window_hours: int,
) -> dict[int, list[CleanNote]]:
    """The window's cohort, by the rule in the module docstring: each
    selected stay's notes, in ascending hadm order. Notes of a stay
    without an admission or an ICU stay are ignored."""
    stays_by_hadm: dict[int, list[IcuStay]] = {}
    for stay in icustays:
        if stay.hadm_id not in admissions:
            raise DataError(
                f"icustay {stay.icustay_id}: hadm {stay.hadm_id} has no admission"
            )
        stays_by_hadm.setdefault(stay.hadm_id, []).append(stay)
    notes_by_hadm: dict[int, list[CleanNote]] = {}
    for note in clean_notes:
        notes_by_hadm.setdefault(note.hadm_id, []).append(note)

    selected: dict[int, list[CleanNote]] = {}
    for hadm_id in sorted(stays_by_hadm):
        stays = stays_by_hadm[hadm_id]
        if not _passes_criteria(admissions[hadm_id], stays):
            continue
        intime = stays[0].intime
        horizon = intime + timedelta(hours=window_hours)
        inside = [n for n in notes_by_hadm.get(hadm_id, ()) if intime <= n.charted_at < horizon]
        if inside:
            selected[hadm_id] = sorted(inside, key=lambda n: (n.charted_at, n.row_id))
    return selected


# -- grouped cross validation ------------------------------------------------------


def grouped_kfold(
    cohort: Iterable[int],
    subject_of: Mapping[int, int],
    k: int = 5,
    seed: int = 0,
) -> list[FoldSplit]:
    """Rotated k-fold with all stays of one subject sharing a role.

    Subjects are shuffled deterministically and dealt round-robin into k
    buckets; fold i tests on bucket i, validates on bucket (i+1) mod k,
    and trains on the rest.
    """
    if k < 3:
        raise ConfigurationError(f"grouped_kfold needs k >= 3, got {k}")
    cohort = sorted(cohort)
    subjects = sorted({subject_of[h] for h in cohort})
    if len(subjects) < k:
        raise DataError(f"{len(subjects)} subjects cannot fill {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(subjects))
    bucket_of = {subjects[j]: int(i % k) for i, j in enumerate(order)}
    folds = []
    for fold in range(k):
        roles = {}
        for hadm_id in cohort:
            bucket = bucket_of[subject_of[hadm_id]]
            if bucket == fold:
                roles[hadm_id] = "test"
            elif bucket == (fold + 1) % k:
                roles[hadm_id] = "val"
            else:
                roles[hadm_id] = "train"
        folds.append(FoldSplit(fold=fold, roles=roles))
    return folds


def validate_folds(folds: Sequence[FoldSplit], subject_of: Mapping[int, int]) -> None:
    """No subject may span roles within a fold; roles must partition the
    cohort identically across folds."""
    cohorts = {frozenset(f.roles) for f in folds}
    if len(cohorts) != 1:
        raise DataError("folds do not cover the same cohort")
    for f in folds:
        role_of_subject: dict[int, str] = {}
        for hadm_id, role in f.roles.items():
            subject = subject_of[hadm_id]
            if role_of_subject.setdefault(subject, role) != role:
                raise DataError(
                    f"fold {f.fold}: subject {subject} appears in several roles"
                )


def class_weights(labels: Sequence[bool]) -> tuple[float, float]:
    """Balanced inverse-frequency weights: w_c = N / (2 * N_c)."""
    labels = list(labels)
    n_pos = sum(1 for y in labels if y)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("class_weights: training fold has a single class")
    n = len(labels)
    return n / (2.0 * n_neg), n / (2.0 * n_pos)


# -- time series --------------------------------------------------------------------


def impute_timeseries(
    rows: np.ndarray, hadm_ids: Sequence[int], window_hours: int
) -> tuple[np.ndarray, np.ndarray]:
    """Standardized values and observation mask, both [S, W, F], of the
    stays in the sorted hadm_ids, gridded from `read_timeseries_csv`
    rows by the rule in the module docstring; rows of other stays are
    ignored."""
    hadm_ids = np.asarray(hadm_ids, dtype=np.int64)
    shape = (len(hadm_ids), window_hours, N_TS_VARIABLES)
    rows = rows[np.isin(rows["hadm_id"], hadm_ids)]
    stay = np.searchsorted(hadm_ids, rows["hadm_id"])
    inside = (0.0 <= rows["hour"]) & (rows["hour"] < window_hours)
    empty = np.setdiff1d(stay, stay[inside])
    if empty.size:
        raise DataError(f"hadm {hadm_ids[empty[0]]}: no time-series observation inside window")
    rows, stay = rows[inside], stay[inside]
    cell = np.ravel_multi_index((stay, rows["hour"].astype(np.int64), rows["variable"]), shape)
    # np.unique keeps each cell's first index, so read the rows backwards
    cells, from_end = np.unique(cell[::-1], return_index=True)
    values, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    values.flat[cells] = rows["value"][len(cell) - 1 - from_end]
    mask.flat[cells] = True
    # the last observed hour at or before each cell, -1 before the first
    hours = np.arange(window_hours)[:, None]
    last = np.maximum.accumulate(np.where(mask, hours, -1), axis=1)
    filled = np.take_along_axis(values, np.maximum(last, 0), axis=1)
    return standardize_values(np.where(last >= 0, filled, TS_NORMALS)), mask


def standardize_values(values: np.ndarray) -> np.ndarray:
    """(value - normal) / scale per channel, using the fixed global
    table; no statistics are estimated from data, so there is nothing to
    leak across folds."""
    return (values - TS_NORMALS) / TS_SCALES


# -- table I/O ------------------------------------------------------------------------

ADMISSION_COLUMNS = [
    "hadm_id",
    "subject_id",
    "admit_time",
    "discharge_time",
    "death_time",
    "age_at_admission",
]
ICUSTAY_COLUMNS = ["hadm_id", "icustay_id", "intime", "outtime", "care_units"]
TIMESERIES_COLUMNS = ["hadm_id", "hour", "variable", "value"]


def _parse_admission(row: dict) -> Admission:
    adm = Admission(
        hadm_id=int(row["hadm_id"]),
        subject_id=int(row["subject_id"]),
        admit_time=parse_timestamp(row["admit_time"]),
        discharge_time=parse_timestamp(row["discharge_time"]),
        death_time=parse_timestamp(row["death_time"]) if row["death_time"] else None,
        age_at_admission=float(row["age_at_admission"]),
    )
    if not math.isfinite(adm.age_at_admission):
        raise DataError(f"admission {adm.hadm_id}: non-finite age")
    if adm.admit_time >= adm.discharge_time:
        raise DataError(f"admission {adm.hadm_id}: admit !< discharge")
    return adm


def read_admissions_csv(path) -> dict[int, Admission]:
    records = read_csv_records(path, ADMISSION_COLUMNS, _parse_admission)
    return {adm.hadm_id: adm for adm in records}


def write_admissions_csv(path, admissions: Iterable[Admission]) -> None:
    write_csv_records(path, ADMISSION_COLUMNS, (
        [
            a.hadm_id,
            a.subject_id,
            format_timestamp(a.admit_time),
            format_timestamp(a.discharge_time),
            format_timestamp(a.death_time) if a.death_time else "",
            f"{a.age_at_admission:.2f}",
        ]
        for a in admissions
    ))


def _parse_icustay(row: dict) -> IcuStay:
    stay = IcuStay(
        hadm_id=int(row["hadm_id"]),
        icustay_id=int(row["icustay_id"]),
        intime=parse_timestamp(row["intime"]),
        outtime=parse_timestamp(row["outtime"]),
        care_units=row["care_units"].split(";") if row["care_units"] else [],
    )
    if stay.intime >= stay.outtime:
        raise DataError(f"icustay {stay.icustay_id}: intime !< outtime")
    return stay


def read_icustays_csv(path) -> list[IcuStay]:
    return list(read_csv_records(path, ICUSTAY_COLUMNS, _parse_icustay))


def write_icustays_csv(path, stays: Iterable[IcuStay]) -> None:
    write_csv_records(path, ICUSTAY_COLUMNS, (
        [
            s.hadm_id,
            s.icustay_id,
            format_timestamp(s.intime),
            format_timestamp(s.outtime),
            ";".join(s.care_units),
        ]
        for s in stays
    ))


def _parse_observation(row: dict) -> tuple[int, float, int, float]:
    name = row["variable"]
    if name not in TS_INDEX:
        raise DataError(f"unknown variable {name!r}")
    hadm_id, hour, value = int(row["hadm_id"]), float(row["hour"]), float(row["value"])
    if not (math.isfinite(hour) and math.isfinite(value)):
        raise DataError(f"hadm {hadm_id}: non-finite hour or value")
    return hadm_id, hour, TS_INDEX[name], value


# one time-series table row; variable is the TS_VARIABLES index
TS_ROW = np.dtype(
    [("hadm_id", np.int64), ("hour", np.float64), ("variable", np.int8), ("value", np.float64)]
)

_TS_NAMES = np.array([name for name, _, _ in TS_VARIABLES], dtype=object)
_TS_HEADER = ",".join(TIMESERIES_COLUMNS)


def read_timeseries_csv(path) -> np.ndarray:
    """Every row of the table as one TS_ROW record, in file order. A
    table whose header is exactly TIMESERIES_COLUMNS is parsed column by
    column; any other table, and any table that parse refuses, is parsed
    row by row, which raises the DataError naming the bad row."""
    rows = _read_timeseries_columns(path)
    if rows is None:
        rows = np.fromiter(read_csv_records(path, TIMESERIES_COLUMNS, _parse_observation), TS_ROW)
    return rows


def _read_timeseries_columns(path) -> np.ndarray | None:
    """The table parsed column by column, or None unless that equals the
    row-by-row parse: the header must be exactly TIMESERIES_COLUMNS,
    every field must convert, every name must be known and every number
    finite. numpy converts a subset of the numbers int() and float()
    accept, to the same values, and hands the name field over verbatim."""
    with open_text(path, newline="") as handle:
        if handle.readline().rstrip("\r\n") != _TS_HEADER:
            return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a table without rows
                rows = np.loadtxt(
                    handle, dtype=TS_ROW, delimiter=",", comments=None, ndmin=1,
                    converters={2: TS_INDEX.__getitem__},
                )
        except ValueError:  # a field that did not convert, a row of the wrong length
            return None
    if not (np.isfinite(rows["hour"]).all() and np.isfinite(rows["value"]).all()):
        return None
    return rows


_TS_BLOCK = 1 << 14  # rows formatted per write


def write_timeseries_csv(path, rows: np.ndarray) -> None:
    """TS_ROW records as the bytes `write_csv_records` writes for them:
    CRLF line ends, hour with 2 decimals, value with 4, and no quoting,
    which no field needs."""
    line = "%d,%.2f,%s,%.4f\r\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(_TS_HEADER + "\r\n")
        for start in range(0, len(rows), _TS_BLOCK):
            block = rows[start:start + _TS_BLOCK]
            fields = np.empty((len(block), 4), dtype=object)
            fields[:, 0], fields[:, 1] = block["hadm_id"], block["hour"]
            fields[:, 2], fields[:, 3] = _TS_NAMES[block["variable"]], block["value"]
            handle.write((line * len(block)) % tuple(fields.ravel().tolist()))
