"""Cohort selection and its window notes, grouped folds, class weights,
time-series imputation, and the synthetic generator's contracts."""

import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from notemort import models, pipeline, traineval
from notemort.cohort import (
    TS_INDEX,
    TS_NORMALS,
    TS_ROW,
    TS_SCALES,
    TS_VARIABLES,
    Admission,
    FoldSplit,
    IcuStay,
    _passes_criteria,
    _read_timeseries_columns,
    class_weights,
    grouped_kfold,
    impute_timeseries,
    label_mortality,
    read_admissions_csv,
    read_timeseries_csv,
    select_cohort,
    standardize_values,
    validate_folds,
    write_timeseries_csv,
)
from notemort.errors import ConfigurationError, DataError
from notemort.notesproc import CleanNote, truncate_pad
from notemort.synth import HOURS, OBS_RATE, RISK_WORDS, SynthConfig, generate_synthetic

from oracles import read_timeseries_per_row, timeseries_grid_per_stay, write_timeseries_per_row

# deterministic and without an example database, like the rest of the suite
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

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


def stay_notes(hadm=1, note_hours=(2.0,), row_ids=None):
    """One note of hadm charted at each offset from INTIME, in hours."""
    row_ids = row_ids or range(1, len(note_hours) + 1)
    return [
        CleanNote(
            tokens=truncate_pad([1, 2, 3], max_len=8), charted_at=INTIME + timedelta(hours=h),
            category="Nursing", hadm_id=hadm, row_id=row_id,
        )
        for row_id, h in zip(row_ids, note_hours)
    ]


def run_select(adm, stays, notes, window=24):
    return select_cohort({a.hadm_id: a for a in adm}, stays, notes, window)


class TestSelectCohort:
    def test_age_boundary_inclusive_exclusion(self):
        adm = [admission(1, age=18.0), admission(2, subject=2, age=18.01)]
        stays = [icustay(1), icustay(2)]
        assert list(run_select(adm, stays, stay_notes(1) + stay_notes(2))) == [2]

    def test_early_death_boundary(self):
        adm = [admission(1, death_hours=71.0, los_hours=200),
               admission(2, subject=2, death_hours=73.0, los_hours=200)]
        stays = [icustay(1), icustay(2)]
        assert list(run_select(adm, stays, stay_notes(1) + stay_notes(2))) == [2]

    def test_multiple_icustays_excluded(self):
        adm = [admission(1)]
        stays = [icustay(1, icu_id=11), icustay(1, icu_id=12)]
        assert run_select(adm, stays, stay_notes(1)) == {}

    def test_transfers_excluded(self):
        adm = [admission(1)]
        stays = [icustay(1, units=("MICU", "SICU"))]
        assert run_select(adm, stays, stay_notes(1)) == {}

    def test_requires_note_in_window(self):
        adm = [admission(1), admission(2, subject=2)]
        stays = [icustay(1), icustay(2)]
        assert list(run_select(adm, stays, stay_notes(2))) == [2]  # stay 1 has no note

    def test_referential_integrity(self):
        with pytest.raises(DataError):
            run_select([admission(1)], [icustay(2)], stay_notes(1))

    def test_window_monotonicity(self):
        adm = [admission(h, subject=h) for h in range(1, 30)]
        stays = [icustay(h) for h in range(1, 30)]
        rng = np.random.default_rng(0)
        notes = [n for h in range(1, 30) for n in stay_notes(h, rng.uniform(0, 60, size=3))]
        c12, c24, c48 = (set(run_select(adm, stays, notes, w)) for w in (12, 24, 48))
        assert c12 <= c24 <= c48 and c12 != c48


class TestWindowNotes:
    """The notes select_cohort keeps for a selected stay."""

    def kept(self, note_hours, window, row_ids=None):
        """Row ids of stay 7's kept notes, None when it is left out."""
        notes = stay_notes(7, note_hours, row_ids)
        selected = run_select([admission(7, subject=3)], [icustay(7)], notes, window)
        return [n.row_id for n in selected[7]] if 7 in selected else None

    def test_window_filter_and_sort(self):
        assert self.kept([2, 30, 13], window=24) == [1, 3]

    def test_no_note_in_window_leaves_stay_out(self):
        assert self.kept([30, 40, -1], window=24) is None

    def test_equal_timestamps_tie_break_by_row_id(self):
        assert self.kept([5, 5], window=24, row_ids=[9, 4]) == [4, 9]

    def test_boundaries_half_open(self):
        assert self.kept([0, 24], window=24) == [1]

    def test_timestamps_nondecreasing_inside_window(self):
        rng = np.random.default_rng(0)
        horizon = INTIME + timedelta(hours=48)
        for _ in range(20):
            notes = stay_notes(7, rng.uniform(0, 72, size=8))
            selected = run_select([admission(7)], [icustay(7)], notes, 48)
            times = [n.charted_at for n in selected.get(7, [])]
            assert times == sorted(times)
            assert all(INTIME <= t < horizon for t in times)
            assert len(times) == sum(n.charted_at < horizon for n in notes)


# Stay 1 under each case: the first six are the TestSelectCohort
# exclusions, which leave it out; under the last two it is selected with
# only its notes inside the window, in chart order (KEPT, in hours).
VIOLATIONS = {
    "age": lambda: ([admission(1, age=18.0)], [icustay(1)], stay_notes(1)),
    "early_death": lambda: ([admission(1, death_hours=71.0)], [icustay(1)], stay_notes(1)),
    "multiple_icustays": lambda: (
        [admission(1)], [icustay(1, icu_id=11), icustay(1, icu_id=12)], stay_notes(1)
    ),
    "transfers": lambda: ([admission(1)], [icustay(1, units=("MICU", "SICU"))], stay_notes(1)),
    "no_note_in_window": lambda: ([admission(1)], [icustay(1)], stay_notes(1, (-1.0, 24.0))),
    "no_icustay": lambda: (
        [admission(1), admission(2, subject=2)], [icustay(2)], stay_notes(1)
    ),
    "note_outside_window": lambda: ([admission(1)], [icustay(1)], stay_notes(1, (2.0, 30.0))),
    "notes_out_of_chart_order": lambda: (
        [admission(1)], [icustay(1)], stay_notes(1, (5.0, 2.0))
    ),
}
KEPT = {"note_outside_window": (2.0,), "notes_out_of_chart_order": (2.0, 5.0)}


class TestValidateCohort:
    def test_eligible_stay_passes(self):
        selected = run_select([admission(1)], [icustay(1)], stay_notes(1, (2.0, 5.0)))
        assert list(selected) == [1] and [n.row_id for n in selected[1]] == [1, 2]

    @pytest.mark.parametrize("case", sorted(VIOLATIONS))
    def test_violation_rejected(self, case):
        selected = run_select(*VIOLATIONS[case]())
        if case not in KEPT:
            assert 1 not in selected
        else:
            want = [INTIME + timedelta(hours=h) for h in KEPT[case]]
            assert [n.charted_at for n in selected[1]] == want


def test_generated_cohorts_follow_the_rule():
    """On generated tables, for W in (12, 24, 48): every selected stay
    passes the table criteria and keeps exactly its notes inside the
    window, in order; a stay left out fails the criteria or has no such
    note; and the eligible sets nest as W grows."""
    tables = generate_synthetic(SynthConfig(n_subjects=150), seed=3)
    adms = {a.hadm_id: a for a in tables.admissions}
    stays_of, notes_of = {}, {}
    for stay in tables.icustays:
        stays_of.setdefault(stay.hadm_id, []).append(stay)
    notes = pipeline.preprocess_notes(tables.notes, min_count=2, note_len=16).model_notes
    for note in notes:
        notes_of.setdefault(note.hadm_id, []).append(note)
    previous: set[int] = set()
    for window in (12, 24, 48):
        selected = select_cohort(adms, tables.icustays, notes, window)
        assert list(selected) == sorted(selected) and previous <= set(selected)
        for hadm_id, stays in stays_of.items():
            intime, horizon = stays[0].intime, stays[0].intime + timedelta(hours=window)
            inside = [n for n in notes_of.get(hadm_id, []) if intime <= n.charted_at < horizon]
            if hadm_id not in selected:
                assert not (_passes_criteria(adms[hadm_id], stays) and inside)
                continue
            assert _passes_criteria(adms[hadm_id], stays)
            keys = [(n.charted_at, n.row_id) for n in selected[hadm_id]]
            assert keys == sorted(keys) and len(keys) == len(inside)
            assert intime <= keys[0][0] and keys[-1][0] < horizon
        previous = set(selected)
    assert len(previous) < len(stays_of)  # some stays fail the criteria


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


def grid(observations, window_hours):
    """impute_timeseries over a batch of one stay whose rows are the
    (hour, variable index, value) observations."""
    rows = np.array([(1, *obs) for obs in observations], dtype=TS_ROW)
    values, mask = impute_timeseries(rows, [1], window_hours)
    return values[0], mask[0]


def scaled(var, value):
    return (value - TS_NORMALS[var]) / TS_SCALES[var]


class TestImputeTimeseries:
    def test_forward_fill_and_normal_fill(self):
        hr = TS_INDEX["heart_rate"]
        values, mask = grid([(2.4, hr, 100.0), (5.9, hr, 110.0)], 8)
        col = values[:, hr]
        assert col[0] == col[1] == scaled(hr, TS_NORMALS[hr]) == 0.0
        assert col[2] == col[3] == col[4] == scaled(hr, 100.0)
        assert col[5] == col[6] == col[7] == scaled(hr, 110.0)
        assert list(np.flatnonzero(mask[:, hr])) == [2, 5]

    def test_fully_observed_unchanged(self):
        hr = TS_INDEX["heart_rate"]
        obs = [(float(t), hr, 90.0 + t) for t in range(6)]
        values, mask = grid(obs, 6)
        np.testing.assert_allclose(values[:, hr], scaled(hr, np.arange(90.0, 96.0)))
        assert mask[:, hr].all()

    def test_idempotent_mask(self):
        hr = TS_INDEX["heart_rate"]
        obs = [(1.0, hr, 95.0)]
        a_values, a_mask = grid(obs, 4)
        b_values, b_mask = grid(obs, 4)
        np.testing.assert_array_equal(a_mask, b_mask)
        np.testing.assert_array_equal(a_values, b_values)

    def test_latest_observation_wins_in_bin(self):
        hr = TS_INDEX["heart_rate"]
        values, _ = grid([(3.1, hr, 80.0), (3.7, hr, 85.0)], 5)
        assert values[3, hr] == scaled(hr, 85.0)

    def test_empty_series_rejected(self):
        # a stay without rows gets no series, which the fold check refuses
        # for a CTS model before any training step
        values, mask = grid([], 4)
        assert not mask.any() and not values.any()
        observed_values, observed_mask = grid([(0.5, 0, 1.0)], 4)
        dataset = pipeline.dataset_views(
            {"note_counts": np.ones(5, dtype=np.int64),
             "note_ids": np.ones((5, 8), dtype=np.int32),
             "ts_values": np.stack([values] + [observed_values] * 4),
             "ts_mask": np.stack([mask] + [observed_mask] * 4)},
            {1: False, 2: True, 3: False, 4: True, 5: False},
        )
        assert dataset[1].ts_values is None and dataset[1].ts_mask is None
        fold = FoldSplit(fold=3, roles={1: "test", 2: "test", 3: "train", 4: "train", 5: "val"})
        with pytest.raises(DataError, match="fold 3: hadm 1 has no time series"):
            traineval.check_fold(models.CTS_RNN, fold, dataset)
        traineval.check_fold(models.NOTES_HCR, fold, dataset)
        with pytest.raises(DataError):
            grid([(99.0, 0, 1.0)], 4)  # outside window

    def test_standardize_uses_fixed_table(self):
        values = np.tile(np.array([t for t in range(17)], dtype=float), (3, 1))
        np.testing.assert_allclose(
            standardize_values(values), (values - TS_NORMALS) / TS_SCALES
        )


def test_window_cohort_and_dataset_follow_eligible_order():
    """Labels, notes and subjects follow the sorted eligible list, the
    order of the dataset arrays, so each stay gets its own label and
    series; the set {3, 8} iterates as 8, 3."""
    adms = {8: admission(8, subject=8, death_hours=100.0), 3: admission(3, subject=3)}
    notes = [n for h in adms for n in stay_notes(h)]
    wc = pipeline.build_window_cohort(notes, adms, [icustay(h) for h in adms], 24)
    assert wc.eligible == [3, 8]
    assert list(wc.labels) == list(wc.notes) == list(wc.subject_of) == wc.eligible
    rows = np.array([(8, 1.0, TS_INDEX["heart_rate"], 100.0)], dtype=TS_ROW)
    dataset = pipeline.build_dataset(wc, rows)
    assert [dataset[h].label for h in (3, 8)] == [False, True]
    assert dataset[3].ts_values is None and dataset[8].ts_mask.sum() == 1


@pytest.mark.parametrize("window", [12, 24, 48])
def test_grid_is_byte_identical_to_per_stay_oracle(window):
    """Every stay's grid at once equals the per-stay imputation then
    standardization, byte for byte: duplicate rows in one bin, hours of
    exactly 0 and just below W, rows outside the window on both sides,
    rows of stays outside the cohort, and cohort stays without rows."""
    rng = np.random.default_rng(window)
    hadm_ids = list(range(100, 140))
    n = 2000
    rows = np.zeros(n, dtype=TS_ROW)
    rows["hadm_id"] = rng.integers(95, 145, n)  # 95..99 and 140..144: not in the cohort
    rows["hour"] = np.round(rng.uniform(-4.0, window + 4.0, n), 2)
    rows["hour"][:40] = 0.0
    rows["hour"][40:80] = np.nextafter(float(window), 0.0)
    rows["variable"] = rng.integers(0, len(TS_VARIABLES), n)
    rows["value"] = np.round(TS_NORMALS[rows["variable"]] + rng.normal(0, 10, n), 4)
    # the same cells again with other values: the later row must win
    again = rows[rng.choice(n, 300)]
    again["value"] += 1.0
    # one in-window row first for every stay, so none has only rows outside it
    first = np.zeros(len(hadm_ids), dtype=TS_ROW)
    first["hadm_id"], first["hour"] = hadm_ids, 1.5
    rows = np.concatenate([first, rows, again])
    rows = rows[(rows["hadm_id"] < 103) | (rows["hadm_id"] > 105)]  # 103..105: no rows
    assert len(np.unique(rows["hadm_id"])) == len(hadm_ids) - 3 + 10

    values, mask = impute_timeseries(rows, hadm_ids, window)
    want_values, want_mask = timeseries_grid_per_stay(rows, hadm_ids, window)
    assert values.tobytes() == want_values.tobytes()
    assert mask.tobytes() == want_mask.tobytes()
    assert not mask[3:6].any() and mask[6:].any(axis=(1, 2)).all()
    assert mask[:, 0].any() and mask[:, window - 1].any()


@pytest.fixture(scope="class")
def written(tmp_path_factory):
    """Tables of 200 subjects at prevalence 0.3, seed 0, with their
    time series read back from the written table."""
    tables = generate_synthetic(SynthConfig(n_subjects=200, prevalence=0.3), seed=0)
    paths = tables.write(tmp_path_factory.mktemp("synth"))
    return tables, read_timeseries_csv(paths["timeseries"])


class TestSyntheticGenerator:
    """The structure tests read the time series back from the written
    table, where hours have 2 decimals: a jitter below 0.95 can read
    0.95. Their margins were set over seeds 0-9."""

    def test_every_stay_has_one_heart_rate_row_in_hour_zero(self, written):
        tables, rows = written
        first = rows[(rows["variable"] == TS_INDEX["heart_rate"]) & (rows["hour"] < 1.0)]
        assert sorted(first["hadm_id"].tolist()) == sorted(a.hadm_id for a in tables.admissions)
        assert first["hour"].min() >= 0.0 and first["hour"].max() <= 0.95

    def test_height_and_weight_once_per_stay_at_hour_zero(self, written):
        tables, rows = written
        stays = sorted(a.hadm_id for a in tables.admissions)
        for name in ("height", "weight"):
            static = rows[rows["variable"] == TS_INDEX[name]]
            assert sorted(static["hadm_id"].tolist()) == stays
            assert (static["hour"] == 0.0).all()

    def test_hours_inside_the_window(self, written):
        _, rows = written
        assert rows["hour"].min() >= 0.0 and rows["hour"].max() < HOURS

    def test_hourly_variables_observed_at_obs_rate(self, written):
        """Over seeds 0-9 the largest deviation was 0.011; the binomial
        standard deviation here is about 0.004."""
        tables, rows = written
        cells = len(tables.admissions) * HOURS
        for name, index in TS_INDEX.items():
            if name in ("height", "weight"):
                continue
            # heart_rate is always observed in hour 0
            expected = OBS_RATE + (1 - OBS_RATE) / HOURS if name == "heart_rate" else OBS_RATE
            share = np.count_nonzero(rows["variable"] == index) / cells
            assert abs(share - expected) < 0.025, name

    def test_positive_stays_read_riskier(self, written):
        """Positives carry more risk words in their notes and a higher
        heart rate in hours 36-47 (over seeds 0-9 the gaps were at least
        0.055 in risk-word share and 1.9 beats per minute)."""
        tables, rows = written
        positive = {a.hadm_id for a in tables.admissions if label_mortality(a)}
        risk, total = {True: 0, False: 0}, {True: 0, False: 0}
        for note in tables.notes:
            if note.category != "Discharge summary" and not note.is_error:
                words = note.text.split()
                risk[note.hadm_id in positive] += sum(w in RISK_WORDS for w in words)
                total[note.hadm_id in positive] += len(words)
        assert risk[True] / total[True] > risk[False] / total[False]
        late = rows[(rows["variable"] == TS_INDEX["heart_rate"]) & (rows["hour"] >= 36.0)]
        of_positive = np.isin(late["hadm_id"], sorted(positive))
        assert late["value"][of_positive].mean() > late["value"][~of_positive].mean()

    def test_exact_prevalence_on_large_corpus(self):
        config = SynthConfig(n_subjects=4800, prevalence=0.1)
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
        # every stay a stub note an hour in so only the table criteria decide
        tables = generate_synthetic(SynthConfig(n_subjects=300), seed=2)
        adms = {a.hadm_id: a for a in tables.admissions}
        intime = {s.hadm_id: s.intime for s in tables.icustays}
        notes = [
            CleanNote(tokens=truncate_pad([1], max_len=8), charted_at=t + timedelta(hours=1),
                      category="Nursing", hadm_id=h, row_id=h)
            for h, t in intime.items()
        ]
        eligible = select_cohort(adms, tables.icustays, notes, 24)
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
        rows = read_timeseries_csv(paths["timeseries"])
        hadm_ids = set(rows["hadm_id"].tolist())
        assert hadm_ids <= {a.hadm_id for a in tables.admissions}
        # every stay has at least one observation inside any window
        for hadm in hadm_ids:
            assert rows["hour"][rows["hadm_id"] == hadm].min() < 12


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["hour", "value"])
def test_non_finite_timeseries_value_rejected(tmp_path, column, text):
    row = {"hadm_id": "7", "hour": "1.50", "variable": "heart_rate", "value": "80.0"}
    row[column] = text
    path = tmp_path / "timeseries.csv"
    path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    with pytest.raises(DataError, match=r"timeseries\.csv: hadm 7"):
        read_timeseries_csv(path)


ts_rows = st.lists(
    st.tuples(
        st.integers(1, 10**6),
        st.floats(0.0, 47.99),
        st.integers(0, len(TS_VARIABLES) - 1),
        st.floats(-1e4, 1e4),
    ),
    max_size=4,
).map(lambda rows: np.array(rows, dtype=TS_ROW))

FIELD_EDITS = [
    lambda field: "",
    lambda field: "nan",
    lambda field: "inf",
    lambda field: "-inf",
    lambda field: "1_0",
    lambda field: f'"{field}"',
    lambda field: f"{field},1",
    lambda field: f" {field}",
    lambda field: f"{field} ",
    lambda field: "heart_beat",
    lambda field: "heart_rate",
    lambda field: "7.0",
]
LINE_EDITS = ["# a comment", "", " ", "7,1.5,heart_rate,80.0,"]


def read_outcome(read, path):
    """The records read, or the DataError's message."""
    try:
        return read(path).tobytes()
    except DataError as exc:
        return str(exc)


@PROPERTY
@given(rows=ts_rows, edit=st.data())
def test_timeseries_reader_matches_the_row_parse(rows, edit):
    """A written table with one field replaced, or one line inserted,
    reads as the row-by-row parse reads it, records or error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "timeseries.csv"
        write_timeseries_csv(path, rows)
        lines = path.read_bytes().decode().split("\r\n")  # the last one is empty
        if rows.size and edit.draw(st.booleans()):
            line = edit.draw(st.integers(1, len(rows)))
            fields = lines[line].split(",")
            column = edit.draw(st.integers(0, 3))
            fields[column] = edit.draw(st.sampled_from(FIELD_EDITS))(fields[column])
            lines[line] = ",".join(fields)
        else:
            lines.insert(edit.draw(st.integers(1, len(lines))), edit.draw(st.sampled_from(LINE_EDITS)))
        path.write_bytes("\r\n".join(lines).encode())
        assert read_outcome(read_timeseries_csv, path) == read_outcome(read_timeseries_per_row, path)


def test_written_table_takes_the_column_parse(tmp_path):
    tables = generate_synthetic(SynthConfig(n_subjects=40), seed=1)
    path = tables.write(tmp_path)["timeseries"]
    rows = _read_timeseries_columns(path)
    assert rows is not None and rows.tobytes() == read_timeseries_per_row(path).tobytes()


@PROPERTY
@given(rows=st.lists(
    st.tuples(
        st.integers(0, 2**62),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(0, len(TS_VARIABLES) - 1),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    max_size=5,
).map(lambda rows: np.array(rows, dtype=TS_ROW)))
def test_timeseries_writer_matches_csv_writer(rows):
    with tempfile.TemporaryDirectory() as tmp:
        write_timeseries_csv(Path(tmp) / "new.csv", rows)
        write_timeseries_per_row(Path(tmp) / "old.csv", rows)
        assert (Path(tmp) / "new.csv").read_bytes() == (Path(tmp) / "old.csv").read_bytes()


def test_generated_table_writes_as_csv_writer(tmp_path):
    """A generated table of several write blocks."""
    rows = generate_synthetic(SynthConfig(n_subjects=60), seed=4).timeseries
    assert len(rows) > 2 * 2**14
    write_timeseries_csv(tmp_path / "new.csv", rows)
    write_timeseries_per_row(tmp_path / "old.csv", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_age_rejected(tmp_path, text):
    path = tmp_path / "admissions.csv"
    path.write_text(
        "hadm_id,subject_id,admit_time,discharge_time,death_time,age_at_admission\n"
        f"7,3,2150-03-12 06:00:00,2150-03-20 10:00:00,,{text}\n"
    )
    with pytest.raises(DataError, match=r"admissions\.csv: admission 7"):
        read_admissions_csv(path)
