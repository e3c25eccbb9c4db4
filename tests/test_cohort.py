"""Cohort selection boundaries, grouped folds, class weights,
time-series imputation, and the synthetic generator's contracts."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from notemort import pipeline
from notemort.cohort import (
    Admission,
    IcuStay,
    TS_INDEX,
    class_weights,
    grouped_kfold,
    impute_timeseries,
    label_mortality,
    read_admissions_csv,
    read_timeseries_csv,
    select_cohort,
    standardize_values,
    validate_cohort,
    validate_folds,
)
from notemort.errors import ConfigurationError, DataError
from notemort.notesproc import CleanNote, PatientFile, truncate_pad
from notemort.synth import SynthConfig, generate_synthetic

INTIME = datetime(2150, 3, 12, 10, 0, 0)


def admission(hadm=1, subject=1, age=50.0, death_hours=None, los_hours=200.0):
    death = INTIME + timedelta(hours=death_hours) if death_hours is not None else None
    return Admission(
        hadm_id=hadm, subject_id=subject,
        admit_time=INTIME - timedelta(hours=4),
        discharge_time=INTIME + timedelta(hours=los_hours),
        death_time=death, age_at_admission=age,
    )


def icustay(hadm=1, icu_id=None, units=("MICU",)):
    return IcuStay(
        hadm_id=hadm, icustay_id=icu_id if icu_id is not None else 1000 + hadm,
        intime=INTIME, outtime=INTIME + timedelta(hours=100),
        care_units=list(units),
    )


def patient_file(hadm=1, subject=1, window=24, note_hours=(2.0,), label=False):
    notes = []
    for i, h in enumerate(note_hours):
        notes.append(CleanNote(
            tokens=truncate_pad([1, 2, 3], max_len=8), charted_at=INTIME + timedelta(hours=h),
            category="Nursing", hadm_id=hadm, row_id=i + 1,
        ))
    return PatientFile(hadm_id=hadm, subject_id=subject, notes=notes,
                       label=label, window_hours=window)


def run_select(adm, stays, files, window=24):
    return select_cohort({a.hadm_id: a for a in adm}, stays,
                         {f.hadm_id: f for f in files}, window)


class TestSelectCohort:
    def test_age_boundary_inclusive_exclusion(self):
        adm = [admission(1, age=18.0), admission(2, subject=2, age=18.01)]
        stays = [icustay(1), icustay(2)]
        files = [patient_file(1), patient_file(2, subject=2)]
        assert run_select(adm, stays, files) == {2}

    def test_early_death_boundary(self):
        adm = [admission(1, death_hours=71.0, los_hours=200),
               admission(2, subject=2, death_hours=73.0, los_hours=200)]
        stays = [icustay(1), icustay(2)]
        files = [patient_file(1), patient_file(2, subject=2)]
        assert run_select(adm, stays, files) == {2}

    def test_multiple_icustays_excluded(self):
        adm = [admission(1)]
        stays = [icustay(1, icu_id=11), icustay(1, icu_id=12)]
        assert run_select(adm, stays, [patient_file(1)]) == set()

    def test_transfers_excluded(self):
        adm = [admission(1)]
        stays = [icustay(1, units=("MICU", "SICU"))]
        assert run_select(adm, stays, [patient_file(1)]) == set()

    def test_requires_note_in_window(self):
        adm = [admission(1), admission(2, subject=2)]
        stays = [icustay(1), icustay(2)]
        files = [patient_file(2, subject=2)]  # stay 1 has no file at all
        assert run_select(adm, stays, files) == {2}

    def test_referential_integrity(self):
        with pytest.raises(DataError):
            run_select([admission(1)], [icustay(2)], [patient_file(1)])

    def test_window_monotonicity(self):
        adm = [admission(h, subject=h) for h in range(1, 30)]
        stays = [icustay(h) for h in range(1, 30)]
        rng = np.random.default_rng(0)
        files_by_window = {}
        for window in (12, 24, 48):
            files = []
            for h in range(1, 30):
                hours = [float(t) for t in rng.uniform(0, 48, size=3)]
                hours_in = [t for t in hours if t < window]
                if hours_in:
                    files.append(patient_file(h, subject=h, window=window,
                                              note_hours=hours_in))
            files_by_window[window] = files
            rng = np.random.default_rng(0)  # same note times for each window
        c12 = run_select(adm, stays, files_by_window[12], 12)
        c24 = run_select(adm, stays, files_by_window[24], 24)
        c48 = run_select(adm, stays, files_by_window[48], 48)
        assert c12 <= c24 <= c48


# Stay 1 under each case: the first six are the TestSelectCohort
# exclusions, the last two break the post-assembly window and order checks.
VIOLATIONS = {
    "age": lambda: ([admission(1, age=18.0)], [icustay(1)], [patient_file(1)]),
    "early_death": lambda: ([admission(1, death_hours=71.0)], [icustay(1)], [patient_file(1)]),
    "multiple_icustays": lambda: (
        [admission(1)], [icustay(1, icu_id=11), icustay(1, icu_id=12)], [patient_file(1)]
    ),
    "transfers": lambda: ([admission(1)], [icustay(1, units=("MICU", "SICU"))], [patient_file(1)]),
    "no_note_in_window": lambda: ([admission(1)], [icustay(1)], []),
    "no_icustay": lambda: ([admission(1)], [icustay(2)], [patient_file(1)]),
    "note_outside_window": lambda: (
        [admission(1)], [icustay(1)], [patient_file(1, note_hours=(2.0, 30.0))]
    ),
    "notes_out_of_chart_order": lambda: (
        [admission(1)], [icustay(1)], [patient_file(1, note_hours=(5.0, 2.0))]
    ),
}


def run_validate(adm, stays, files):
    validate_cohort({1}, {a.hadm_id: a for a in adm}, stays, {f.hadm_id: f for f in files})


class TestValidateCohort:
    def test_eligible_stay_passes(self):
        run_validate([admission(1)], [icustay(1)], [patient_file(1, note_hours=(2.0, 5.0))])

    @pytest.mark.parametrize("case", sorted(VIOLATIONS))
    def test_violation_rejected(self, case):
        with pytest.raises(DataError):
            run_validate(*VIOLATIONS[case]())


class TestLabelMortality:
    def test_no_death_time(self):
        assert label_mortality(admission(1)) is False

    def test_death_at_discharge_counts(self):
        adm = admission(1, death_hours=200.0, los_hours=200.0)
        assert adm.death_time == adm.discharge_time
        assert label_mortality(adm) is True

    def test_post_discharge_death_excluded(self):
        assert label_mortality(admission(1, death_hours=300.0, los_hours=200.0)) is False


class TestGroupedKfold:
    def subjects(self, n_subjects, stays_per_subject=1):
        subject_of = {}
        hadm = 0
        for s in range(1, n_subjects + 1):
            for _ in range(stays_per_subject):
                hadm += 1
                subject_of[hadm] = s
        return subject_of

    def test_subject_stays_share_role(self):
        subject_of = self.subjects(20, stays_per_subject=3)
        folds = grouped_kfold(subject_of.keys(), subject_of, k=5, seed=1)
        validate_folds(folds, subject_of)
        for fold in folds:
            for subject in range(1, 21):
                roles = {fold.roles[h] for h, s in subject_of.items() if s == subject}
                assert len(roles) == 1

    def test_roles_partition_cohort(self):
        subject_of = self.subjects(17)
        folds = grouped_kfold(subject_of.keys(), subject_of, k=5, seed=2)
        for fold in folds:
            assert set(fold.roles) == set(subject_of)
            counts = {r: 0 for r in ("train", "val", "test")}
            for role in fold.roles.values():
                counts[role] += 1
            assert all(v > 0 for v in counts.values())
        # every bucket rotates through the test role exactly once
        test_sets = [\
            frozenset(f.members("test")) for f in folds]
        assert len(set(test_sets)) == 5

    def test_same_seed_same_split(self):
        subject_of = self.subjects(30)
        a = grouped_kfold(subject_of.keys(), subject_of, k=5, seed=3)
        b = grouped_kfold(subject_of.keys(), subject_of, k=5, seed=3)
        assert [f.roles for f in a] == [f.roles for f in b]
        c = grouped_kfold(subject_of.keys(), subject_of, k=5, seed=4)
        assert any(f1.roles != f2.roles for f1, f2 in zip(a, c))

    def test_too_few_subjects(self):
        subject_of = self.subjects(4)
        with pytest.raises(DataError):
            grouped_kfold(subject_of.keys(), subject_of, k=5, seed=0)

    def test_validate_folds_catches_leak(self):
        subject_of = self.subjects(10, stays_per_subject=2)
        folds = grouped_kfold(subject_of.keys(), subject_of, k=5, seed=0)
        folds[0].roles[1] = "train"
        folds[0].roles[2] = "test"
        with pytest.raises(DataError):
            validate_folds(folds, subject_of)


class TestClassWeights:
    def test_imbalanced(self):
        w_neg, w_pos = class_weights([False] * 90 + [True] * 10)
        assert w_neg == pytest.approx(100 / 180)
        assert w_pos == pytest.approx(5.0)

    def test_balanced(self):
        assert class_weights([True, False]) == (1.0, 1.0)

    def test_paper_prevalence_ratio(self):
        w_neg, w_pos = class_weights([False] * 935 + [True] * 65)
        assert w_pos / w_neg == pytest.approx(935 / 65)
        assert round(w_pos / w_neg, 1) == 14.4

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            class_weights([True, True])


class TestImputeTimeseries:
    def test_forward_fill_and_normal_fill(self):
        hr = TS_INDEX["heart_rate"]
        ts = impute_timeseries(1, [(2.4, hr, 100.0), (5.9, hr, 110.0)], 8)
        col = ts.values[:, hr]
        from notemort.cohort import TS_NORMALS
        assert col[0] == col[1] == TS_NORMALS[hr]
        assert col[2] == col[3] == col[4] == 100.0
        assert col[5] == col[6] == col[7] == 110.0
        assert list(np.flatnonzero(ts.mask[:, hr])) == [2, 5]

    def test_fully_observed_unchanged(self):
        hr = TS_INDEX["heart_rate"]
        obs = [(float(t), hr, 90.0 + t) for t in range(6)]
        ts = impute_timeseries(1, obs, 6)
        np.testing.assert_allclose(ts.values[:, hr], [90, 91, 92, 93, 94, 95])
        assert ts.mask[:, hr].all()

    def test_idempotent_mask(self):
        hr = TS_INDEX["heart_rate"]
        obs = [(1.0, hr, 95.0)]
        a = impute_timeseries(1, obs, 4)
        b = impute_timeseries(1, obs, 4)
        np.testing.assert_array_equal(a.mask, b.mask)
        np.testing.assert_array_equal(a.values, b.values)

    def test_latest_observation_wins_in_bin(self):
        hr = TS_INDEX["heart_rate"]
        ts = impute_timeseries(1, [(3.1, hr, 80.0), (3.7, hr, 85.0)], 5)
        assert ts.values[3, hr] == 85.0

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            impute_timeseries(1, [], 4)
        with pytest.raises(DataError):
            impute_timeseries(1, [(99.0, 0, 1.0)], 4)  # outside window

    def test_standardize_uses_fixed_table(self):
        values = np.tile(np.array([t for t in range(17)], dtype=float), (3, 1))
        from notemort.cohort import TS_NORMALS, TS_SCALES
        np.testing.assert_allclose(
            standardize_values(values), (values - TS_NORMALS) / TS_SCALES
        )


class TestSyntheticGenerator:
    def test_exact_prevalence_on_large_corpus(self):
        config = SynthConfig(n_subjects=4800, prevalence=0.1, extra_stay_rate=0.1)
        tables = generate_synthetic(config, seed=0)
        adms = {a.hadm_id: a for a in tables.admissions}
        clean = pipeline.preprocess_notes(tables.notes, min_count=5, note_len=32)
        wc = pipeline.build_window_cohort(clean.model_notes, adms, tables.icustays, 48)
        assert len(wc.eligible) >= 5000
        prevalence = np.mean([wc.labels[h] for h in wc.eligible])
        assert abs(prevalence - 0.1) <= 0.01

    def test_byte_identical_tables_for_same_seed(self, tmp_path):
        config = SynthConfig(n_subjects=60)
        paths_a = generate_synthetic(config, seed=5).write(tmp_path / "a")
        paths_b = generate_synthetic(SynthConfig(n_subjects=60), seed=5).write(tmp_path / "b")
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_invalid_prevalence_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic(SynthConfig(prevalence=1.5), seed=0)

    def test_selected_positives_never_die_early(self):
        # planted early deaths must be filtered by criterion (iv); give
        # every stay a stub note file so only the table criteria decide
        tables = generate_synthetic(SynthConfig(n_subjects=300), seed=2)
        adms = {a.hadm_id: a for a in tables.admissions}
        intime = {s.hadm_id: s.intime for s in tables.icustays}
        files = {
            h: patient_file(h, subject=adms[h].subject_id, note_hours=(1.0,))
            for h in adms
        }
        for h, f in files.items():
            f.notes[0].charted_at = intime[h] + timedelta(hours=1)
        eligible = select_cohort(adms, tables.icustays, files, 24)
        early = [
            h for h in eligible
            if adms[h].death_time is not None
            and adms[h].death_time < intime[h] + timedelta(hours=72)
        ]
        assert early == []
        positives = [h for h in eligible if label_mortality(adms[h])]
        assert positives, "selection should keep the planted positives"
        for h in positives:
            assert adms[h].death_time >= intime[h] + timedelta(hours=72)

    def test_tables_parse_back(self, tmp_path):
        tables = generate_synthetic(SynthConfig(n_subjects=40), seed=1)
        paths = tables.write(tmp_path)
        series = read_timeseries_csv(paths["timeseries"])
        assert set(series) <= {a.hadm_id for a in tables.admissions}
        # every stay has at least one observation inside any window
        for hadm, obs in series.items():
            assert any(hour < 12 for hour, _, _ in obs)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["hour", "value"])
def test_non_finite_timeseries_value_rejected(tmp_path, column, text):
    row = {"hadm_id": "7", "hour": "1.50", "variable": "heart_rate", "value": "80.0"}
    row[column] = text
    path = tmp_path / "timeseries.csv"
    path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    with pytest.raises(DataError, match=r"timeseries\.csv: hadm 7"):
        read_timeseries_csv(path)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_age_rejected(tmp_path, text):
    path = tmp_path / "admissions.csv"
    path.write_text(
        "hadm_id,subject_id,admit_time,discharge_time,death_time,age_at_admission\n"
        f"7,3,2150-03-12 06:00:00,2150-03-20 10:00:00,,{text}\n"
    )
    with pytest.raises(DataError, match=r"admissions\.csv: admission 7"):
        read_admissions_csv(path)
