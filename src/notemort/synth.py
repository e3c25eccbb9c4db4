"""Synthetic admissions, ICU stays, notes, and physiology tables.

Each stay draws two latent severity factors: one expressed through the
notes (risk/recovery wording whose rate grows over the stay) and one
through the time series (vital-sign trends). The mortality label is a
noisy threshold over a weighted sum of both, with the note factor
weighted higher, so the two modalities carry complementary signal and
notes carry more of it. Signal ramps up over time, which makes longer
data windows genuinely more informative. Labels are planted by exact
count, so the empirical prevalence matches the configured one.

With signal_strength 0 the tables contain no class signal at all and
any model trained on them scores chance AUROC.

`SynthConfig` holds the six settable knobs: n_subjects, extra_stay_rate,
prevalence, signal_strength, notes_per_stay_mean and note_tokens_mean.
The generator's other rates are module constants: NOTE_WEIGHT,
TS_WEIGHT, LABEL_NOISE, HOURS, REVEAL_BY, EARLY_EXPRESSION, OBS_RATE,
TS_NOISE, MISSING_TIME_RATE, DUPLICATE_RATE, ERROR_RATE, EXCLUSION_RATE,
POSTDISCHARGE_DEATH_RATE and BASE_YEAR.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .cohort import TS_INDEX, TS_NORMALS, TS_SCALES, TS_VARIABLES, Admission, IcuStay
from .errors import ConfigurationError
from .ndcore.tensor import _sigmoid
from .notesproc import RawNote, write_notes_csv
from .cohort import write_admissions_csv, write_icustays_csv, write_timeseries_csv

NEUTRAL_WORDS = [
    "patient", "seen", "today", "plan", "continue", "monitor", "overnight",
    "family", "updated", "tolerating", "diet", "lines", "foley", "telemetry",
    "labs", "pending", "reviewed", "chest", "clear", "abdomen", "soft",
    "afebrile", "repleted", "electrolytes", "scheduled", "consult", "placed",
    "started", "restarted", "drip", "rate", "fluids", "balance", "urine",
    "output", "adequate", "exam", "unchanged", "noted", "discussed", "team",
    "morning", "evening", "shift", "report", "access", "dressing", "intact",
    "skin", "turns", "assist", "bed", "oriented", "follows", "commands",
]

RISK_WORDS = [
    "deteriorating", "hypotensive", "pressors", "intubated", "unresponsive",
    "acidosis", "oliguric", "escalating", "sepsis", "desaturating",
    "bradycardic", "arrest", "critical", "worsening", "obtunded",
]

CALM_WORDS = [
    "improving", "extubated", "weaning", "ambulating", "alert",
    "comfortable", "resolving", "stable", "transferred", "recovering",
    "cooperative", "brighter", "progressing", "independent", "discharge",
]

NOTE_CATEGORIES = ["Nursing", "Physician", "Radiology", "Nutrition"]

# per-variable deterioration slopes, in raw units over a full window
TS_TRENDS = {
    "heart_rate": 14.0,
    "respiratory_rate": 6.0,
    "systolic_blood_pressure": -16.0,
    "diastolic_blood_pressure": -9.0,
    "mean_blood_pressure": -11.0,
    "oxygen_saturation": -4.0,
    "temperature": 0.9,
    "gcs_total": -4.0,
    "gcs_eye": -1.0,
    "gcs_motor": -1.5,
    "gcs_verbal": -1.5,
    "glucose": 35.0,
    "ph": -0.12,
    "fraction_inspired_oxygen": 0.20,
    "capillary_refill_rate": 0.5,
    "height": 0.0,
    "weight": 0.0,
}


NOTE_WEIGHT = 1.0  # weight of the note factor in the label's risk score
TS_WEIGHT = 0.45  # weight of the time-series factor
LABEL_NOISE = 0.35  # std of the noise added to the risk score
HOURS = 48  # hours of notes and time series per stay: the longest cli.WINDOWS window
# hour at which a stay's condition starts showing in the notes is
# uniform on [1, REVEAL_BY]; earlier notes only hint at it. Longer
# observation windows therefore capture strictly more signal.
REVEAL_BY = 40.0
EARLY_EXPRESSION = 0.2  # share of the signal a note shows before the reveal hour
OBS_RATE = 0.75  # chance that a variable is observed in a given hour
TS_NOISE = 1.25  # observation noise, in units of the variable's scale
MISSING_TIME_RATE = 0.08  # chance that a note after the first has no chart time
DUPLICATE_RATE = 0.02  # chance that a note is re-emitted under a new row id
ERROR_RATE = 0.01  # chance that a note is followed by a voided entry
EXCLUSION_RATE = 0.04  # chance that a stay breaks one cohort criterion
POSTDISCHARGE_DEATH_RATE = 0.03  # chance that a survivor dies after discharge
BASE_YEAR = 2100


@dataclass
class SynthConfig:
    n_subjects: int = 400
    extra_stay_rate: float = 0.15
    prevalence: float = 0.15
    signal_strength: float = 1.0
    notes_per_stay_mean: float = 4.0
    note_tokens_mean: int = 40

    def validate(self) -> None:
        if not 0.0 < self.prevalence < 1.0:
            raise ConfigurationError(
                f"prevalence must be inside (0, 1), got {self.prevalence}"
            )
        if self.n_subjects < 1:
            raise ConfigurationError("n_subjects must be positive")
        if self.signal_strength < 0:
            raise ConfigurationError("signal_strength must be >= 0")
        if not 0.0 <= self.extra_stay_rate <= 1.0:
            raise ConfigurationError(
                f"extra_stay_rate must be in [0, 1], got {self.extra_stay_rate}"
            )
        if self.notes_per_stay_mean < 1:
            raise ConfigurationError(
                f"notes_per_stay_mean must be >= 1, got {self.notes_per_stay_mean}"
            )
        if self.note_tokens_mean < 1:
            raise ConfigurationError(
                f"note_tokens_mean must be >= 1, got {self.note_tokens_mean}"
            )


@dataclass
class SyntheticTables:
    admissions: list[Admission]
    icustays: list[IcuStay]
    notes: list[RawNote]
    timeseries: list[tuple[int, float, str, float]]

    def write(self, out_dir) -> dict[str, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {
            "admissions": out_dir / "admissions.csv",
            "icustays": out_dir / "icustays.csv",
            "notes": out_dir / "notes.csv",
            "timeseries": out_dir / "timeseries.csv",
        }
        write_admissions_csv(paths["admissions"], self.admissions)
        write_icustays_csv(paths["icustays"], self.icustays)
        write_notes_csv(paths["notes"], self.notes)
        write_timeseries_csv(paths["timeseries"], self.timeseries)
        return paths


@dataclass
class _Stay:
    hadm_id: int
    subject_id: int
    intime: datetime
    x_note: float
    x_ts: float
    planted_violation: str | None


def generate_synthetic(config: SynthConfig, seed: int = 0) -> SyntheticTables:
    """Emit all four tables in their ingestion formats."""
    config.validate()
    rng = np.random.default_rng(seed)
    stays: list[_Stay] = []
    hadm_id = 10_000
    base = datetime(BASE_YEAR, 1, 1)

    violations = ["age", "multi_icu", "transfer", "early_death"]
    for subject in range(1, config.n_subjects + 1):
        n_stays = 1
        while n_stays < 3 and rng.random() < config.extra_stay_rate:
            n_stays += 1
        for stay_idx in range(n_stays):
            hadm_id += 1
            planted = None
            if rng.random() < EXCLUSION_RATE:
                planted = violations[int(rng.integers(len(violations)))]
            intime = base + timedelta(
                days=float(rng.uniform(0, 3000)) + 400.0 * stay_idx,
                hours=float(rng.uniform(0, 24)),
            )
            stays.append(
                _Stay(
                    hadm_id=hadm_id,
                    subject_id=subject,
                    intime=intime,
                    x_note=float(rng.standard_normal()),
                    x_ts=float(rng.standard_normal()),
                    planted_violation=planted,
                )
            )

    # exact-count labels over the stays that can enter a cohort
    eligible = [s for s in stays if s.planted_violation is None]
    risk = np.array(
        [
            NOTE_WEIGHT * s.x_note
            + TS_WEIGHT * s.x_ts
            + LABEL_NOISE * rng.standard_normal()
            for s in eligible
        ]
    )
    n_pos = int(round(config.prevalence * len(eligible)))
    positive_ids = {
        eligible[i].hadm_id for i in np.argsort(-risk, kind="stable")[:n_pos]
    }

    admissions: list[Admission] = []
    icustays: list[IcuStay] = []
    notes: list[RawNote] = []
    ts_rows: list[tuple[int, float, str, float]] = []
    row_id = 1

    for stay in stays:
        positive = stay.hadm_id in positive_ids
        admit = stay.intime - timedelta(hours=float(rng.uniform(0.5, 8.0)))
        los_hours = float(rng.uniform(96.0, 300.0))
        discharge = stay.intime + timedelta(hours=los_hours)
        age = float(rng.uniform(19.0, 95.0))
        death: datetime | None = None
        if positive:
            death = stay.intime + timedelta(
                hours=72.0 + float(rng.uniform(4.0, los_hours - 74.0))
            )
        elif rng.random() < POSTDISCHARGE_DEATH_RATE:
            death = discharge + timedelta(hours=float(rng.uniform(48.0, 2000.0)))

        care_units = ["MICU"]
        stay_rows = [(stay.hadm_id, hadm_to_icustay(stay.hadm_id), stay.intime)]
        if stay.planted_violation == "age":
            age = float(rng.uniform(14.0, 18.0))
        elif stay.planted_violation == "multi_icu":
            stay_rows.append(
                (
                    stay.hadm_id,
                    hadm_to_icustay(stay.hadm_id) + 1,
                    stay.intime + timedelta(hours=los_hours / 2),
                )
            )
        elif stay.planted_violation == "transfer":
            care_units = ["MICU", "SICU"]
        elif stay.planted_violation == "early_death":
            death = stay.intime + timedelta(hours=float(rng.uniform(4.0, 70.0)))
            discharge = max(discharge, death + timedelta(hours=1))

        admissions.append(
            Admission(
                hadm_id=stay.hadm_id,
                subject_id=stay.subject_id,
                admit_time=admit,
                discharge_time=discharge,
                death_time=death,
                age_at_admission=age,
            )
        )
        for h, icu_id, in_t in stay_rows:
            icustays.append(
                IcuStay(
                    hadm_id=h,
                    icustay_id=icu_id,
                    intime=in_t,
                    outtime=in_t + timedelta(hours=min(los_hours, 240.0)),
                    care_units=care_units,
                )
            )

        row_id = _emit_notes(
            config, rng, stay, positive, discharge, notes, row_id
        )
        _emit_timeseries(config, rng, stay, ts_rows)

    # duplicates: re-emit a copy of some notes under a new row id
    originals = [n for n in notes if not n.is_error]
    for note in originals:
        if rng.random() < DUPLICATE_RATE:
            dup = RawNote(**{**note.__dict__})
            dup.row_id = row_id
            row_id += 1
            notes.append(dup)

    return SyntheticTables(admissions, icustays, notes, ts_rows)


def hadm_to_icustay(hadm_id: int) -> int:
    return 500_000 + 2 * hadm_id


def _emit_notes(config, rng, stay, positive, discharge, notes, row_id) -> int:
    """Model-corpus notes plus one discharge summary for the stay."""
    intensity = _sigmoid(2.0 * stay.x_note)
    reveal_hour = float(rng.uniform(1.0, REVEAL_BY))
    n_notes = 1 + int(rng.poisson(config.notes_per_stay_mean - 1.0))
    offsets = [float(rng.uniform(0.3, 9.5))]
    offsets += [
        float(rng.uniform(0.0, HOURS - 0.1)) for _ in range(n_notes - 1)
    ]
    for note_idx, offset in enumerate(offsets):
        charted = stay.intime + timedelta(hours=offset)
        ramp = 0.2 + 0.8 * (offset / HOURS)
        expressed = 1.0 if offset >= reveal_hour else EARLY_EXPRESSION
        lean = 2.0 * (intensity - 0.5)  # -1 recovering .. +1 deteriorating
        p_risk = config.signal_strength * 0.40 * ramp * expressed * max(lean, 0.0)
        p_calm = config.signal_strength * 0.40 * ramp * expressed * max(-lean, 0.0)
        text = _note_text(config, rng, p_risk, p_calm)
        missing_time = note_idx > 0 and rng.random() < MISSING_TIME_RATE
        notes.append(
            RawNote(
                row_id=row_id,
                subject_id=stay.subject_id,
                hadm_id=stay.hadm_id,
                category=NOTE_CATEGORIES[int(rng.integers(len(NOTE_CATEGORIES)))],
                chart_date=charted.date(),
                chart_time=None if missing_time else charted.time().replace(microsecond=0),
                is_error=False,
                text=text,
            )
        )
        row_id += 1
        if rng.random() < ERROR_RATE:
            notes.append(
                RawNote(
                    row_id=row_id,
                    subject_id=stay.subject_id,
                    hadm_id=stay.hadm_id,
                    category="Nursing",
                    chart_date=charted.date(),
                    chart_time=charted.time().replace(microsecond=0),
                    is_error=True,
                    text="entry voided, see corrected note",
                )
            )
            row_id += 1

    summary_words = " ".join(
        NEUTRAL_WORDS[int(i)] for i in rng.integers(len(NEUTRAL_WORDS), size=80)
    )
    outcome = "expired" if positive else "discharged in stable condition"
    notes.append(
        RawNote(
            row_id=row_id,
            subject_id=stay.subject_id,
            hadm_id=stay.hadm_id,
            category="Discharge summary",
            chart_date=discharge.date(),
            chart_time=discharge.time().replace(microsecond=0),
            is_error=False,
            text=f"hospital course summary . {summary_words} . patient {outcome} .",
        )
    )
    return row_id + 1


def _note_text(config, rng, p_risk: float, p_calm: float) -> str:
    n_tokens = max(5, int(rng.normal(config.note_tokens_mean, config.note_tokens_mean * 0.3)))
    draws = rng.random(n_tokens)
    words = []
    for u in draws:
        if u < p_risk:
            words.append(RISK_WORDS[int(rng.integers(len(RISK_WORDS)))])
        elif u < p_risk + p_calm:
            words.append(CALM_WORDS[int(rng.integers(len(CALM_WORDS)))])
        else:
            words.append(NEUTRAL_WORDS[int(rng.integers(len(NEUTRAL_WORDS)))])
    # sprinkle raw-text debris the cleaning rules must handle
    opener = ""
    u = rng.random()
    if u < 0.25:
        opener = f"seen at [**Hospital1 {int(rng.integers(1, 99))}**] on [**{BASE_YEAR}-{int(rng.integers(1, 13))}-{int(rng.integers(1, 28))}**]. "
    elif u < 0.35:
        opener = f"[**Known lastname {int(rng.integers(100, 999))}**] reviewed. "
    elif u < 0.42:
        opener = f"[**Pager number {int(rng.integers(1000, 9999))}**] paged. "
    body = " ".join(words)
    if rng.random() < 0.3:
        body += f" wbc {int(rng.integers(4, 18))} plt {int(rng.integers(1000, 4000))}"
    if rng.random() < 0.2:
        body = body.replace(" ", ",  ", 1) + "\n\nsigned"
    return opener + body


def _emit_timeseries(config, rng, stay, ts_rows) -> None:
    intensity = 2.0 * (_sigmoid(2.0 * stay.x_ts) - 0.5)  # -1 .. +1
    for name, normal, scale in TS_VARIABLES:
        trend = TS_TRENDS[name] * config.signal_strength * intensity
        if name in ("height", "weight"):
            value = normal + scale * TS_NOISE * float(rng.standard_normal())
            ts_rows.append((stay.hadm_id, 0.0, name, value))
            continue
        for hour in range(HOURS):
            forced = name == "heart_rate" and hour == 0
            if not forced and rng.random() >= OBS_RATE:
                continue
            ramp = hour / HOURS
            value = (
                normal
                + scale * TS_NOISE * float(rng.standard_normal())
                + trend * ramp
            )
            ts_rows.append(
                (stay.hadm_id, hour + float(rng.uniform(0.0, 0.95)), name, value)
            )
