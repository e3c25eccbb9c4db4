"""Cohort construction: exclusion criteria, labels, grouped CV splits,
and clinical time-series imputation.

Stays are excluded when the patient is 18 or younger, the hospital stay
has multiple ICU stays, the ICU stay shows transfers between care
units, or death occurs within the first 72 hours of the ICU stay; each
experiment additionally requires at least one note charted inside its
window. Splits are grouped by patient so no subject spans roles.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .notesproc import PatientFile, format_timestamp, parse_timestamp, read_csv_records

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
class ClinicalTimeSeries:
    """Hourly-gridded physiology for one stay.

    values[t, f] holds the observed or imputed value; mask[t, f] is True
    exactly where a raw observation landed in that hour bin.
    """

    hadm_id: int
    hours: np.ndarray  # int [T]
    values: np.ndarray  # float64 [T, F]
    mask: np.ndarray  # bool [T, F]


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


def _passes_criteria(
    admission: Admission, stays: Sequence[IcuStay], file: PatientFile | None
) -> bool:
    """The exclusion criteria: one ICU stay with no care-unit transfer,
    age above 18, no death in the first 72 hours, at least one note."""
    if len(stays) != 1 or len(set(stays[0].care_units)) > 1:
        return False
    if admission.age_at_admission <= ADULT_AGE_CUTOFF:
        return False
    early = stays[0].intime + timedelta(hours=EARLY_DEATH_HOURS)
    if admission.death_time is not None and admission.death_time < early:
        return False
    return file is not None and len(file.notes) > 0


def select_cohort(
    admissions: Mapping[int, Admission],
    icustays: Sequence[IcuStay],
    patient_files: Mapping[int, PatientFile],
    window_hours: int,
) -> set[int]:
    """Hospital stays passing every exclusion criterion for this window."""
    stays_by_hadm: dict[int, list[IcuStay]] = {}
    for stay in icustays:
        if stay.hadm_id not in admissions:
            raise DataError(
                f"icustay {stay.icustay_id}: hadm {stay.hadm_id} has no admission"
            )
        stays_by_hadm.setdefault(stay.hadm_id, []).append(stay)

    eligible: set[int] = set()
    for hadm_id, stays in stays_by_hadm.items():
        file = patient_files.get(hadm_id)
        if not _passes_criteria(admissions[hadm_id], stays, file):
            continue
        if file.window_hours != window_hours:
            raise DataError(
                f"hadm {hadm_id}: patient file built for W={file.window_hours}, "
                f"cohort requested W={window_hours}"
            )
        eligible.add(hadm_id)
    return eligible


def validate_cohort(
    eligible: Iterable[int],
    admissions: Mapping[int, Admission],
    icustays: Sequence[IcuStay],
    patient_files: Mapping[int, PatientFile],
) -> None:
    """Re-check every criterion for every selected stay, plus notes
    inside the window and in chart order; raises on any violation. Run
    after assembly as a belt-and-braces guard."""
    stays_by_hadm: dict[int, list[IcuStay]] = {}
    for stay in icustays:
        stays_by_hadm.setdefault(stay.hadm_id, []).append(stay)
    for hadm_id in eligible:
        stays = stays_by_hadm.get(hadm_id, [])
        file = patient_files.get(hadm_id)
        if _passes_criteria(admissions[hadm_id], stays, file):
            intime = stays[0].intime
            times = [n.charted_at for n in file.notes]
            horizon = intime + timedelta(hours=file.window_hours)
            if times == sorted(times) and intime <= times[0] and times[-1] < horizon:
                continue
        raise DataError(f"hadm {hadm_id}: cohort criteria violated post-assembly")


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
        raise DataError(f"grouped_kfold needs k >= 3, got {k}")
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
    hadm_id: int,
    observations: Sequence[tuple[float, int, float]],
    window_hours: int,
) -> ClinicalTimeSeries:
    """Hourly grid over [0, W): forward-fill, then the per-variable normal
    value for leading gaps. observations are (hour, variable index,
    value) with hours relative to the ICU in-time; within an hour bin
    the latest observation wins.
    """
    inside = [
        (hour, var, value)
        for hour, var, value in observations
        if 0.0 <= hour < window_hours
    ]
    if not inside:
        raise DataError(f"hadm {hadm_id}: no time-series observation inside window")
    values = np.zeros((window_hours, N_TS_VARIABLES))
    mask = np.zeros((window_hours, N_TS_VARIABLES), dtype=bool)
    latest: dict[tuple[int, int], float] = {}
    for hour, var, value in inside:
        if not 0 <= var < N_TS_VARIABLES:
            raise DataError(f"hadm {hadm_id}: unknown variable index {var}")
        latest[(int(hour), var)] = value  # later rows win inside a bin
    for (t, var), value in latest.items():
        values[t, var] = value
        mask[t, var] = True
    for var in range(N_TS_VARIABLES):
        filled = TS_NORMALS[var]
        for t in range(window_hours):
            if mask[t, var]:
                filled = values[t, var]
            else:
                values[t, var] = filled
    return ClinicalTimeSeries(
        hadm_id=hadm_id,
        hours=np.arange(window_hours),
        values=values,
        mask=mask,
    )


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
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(ADMISSION_COLUMNS)
        for a in admissions:
            writer.writerow(
                [
                    a.hadm_id,
                    a.subject_id,
                    format_timestamp(a.admit_time),
                    format_timestamp(a.discharge_time),
                    format_timestamp(a.death_time) if a.death_time else "",
                    f"{a.age_at_admission:.2f}",
                ]
            )


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
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(ICUSTAY_COLUMNS)
        for s in stays:
            writer.writerow(
                [
                    s.hadm_id,
                    s.icustay_id,
                    format_timestamp(s.intime),
                    format_timestamp(s.outtime),
                    ";".join(s.care_units),
                ]
            )


def _parse_observation(row: dict) -> tuple[int, tuple[float, int, float]]:
    name = row["variable"]
    if name not in TS_INDEX:
        raise DataError(f"unknown variable {name!r}")
    hadm_id, hour, value = int(row["hadm_id"]), float(row["hour"]), float(row["value"])
    if not (math.isfinite(hour) and math.isfinite(value)):
        raise DataError(f"hadm {hadm_id}: non-finite hour or value")
    return hadm_id, (hour, TS_INDEX[name], value)


def read_timeseries_csv(path) -> dict[int, list[tuple[float, int, float]]]:
    """Per-stay (hour, variable index, value) observation lists."""
    series: dict[int, list[tuple[float, int, float]]] = {}
    for hadm_id, observation in read_csv_records(path, TIMESERIES_COLUMNS, _parse_observation):
        series.setdefault(hadm_id, []).append(observation)
    return series


def write_timeseries_csv(path, rows: Iterable[tuple[int, float, str, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(TIMESERIES_COLUMNS)
        for hadm_id, hour, variable, value in rows:
            writer.writerow([hadm_id, f"{hour:.2f}", variable, f"{value:.4f}"])

