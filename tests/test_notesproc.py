"""Note cleaning rules: golden corpus, boundary cases, and properties."""

import json
import random
import string
from datetime import date, datetime, time
from pathlib import Path

import numpy as np
import pytest

from notemort.errors import DataError
from notemort import notesproc
from notemort.notesproc import (
    CleanNote,
    RawNote,
    assemble_patient_file,
    clean_text,
    dedupe_and_filter,
    impute_charttime,
    keep_token,
    tokenize_filter,
    truncate_pad,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "notes_golden.json").read_text())


def raw_note(row_id=1, hadm=100, text="stable overnight", category="Nursing",
             chart_date=date(2150, 3, 12), chart_time=time(8, 0, 0), is_error=False):
    return RawNote(
        row_id=row_id, subject_id=1, hadm_id=hadm, category=category,
        chart_date=chart_date, chart_time=chart_time, is_error=is_error, text=text,
    )


def golden_cases():
    return [pytest.param(case, id=case["id"]) for case in GOLDEN["cases"]]


@pytest.mark.parametrize("case", golden_cases())
def test_golden_corpus(case):
    if "raw_repeat" in case:
        unit, count = case["raw_repeat"]
        raw = unit * count
    else:
        raw = case["raw"]
    cleaned = clean_text(raw)
    if case.get("clean") is not None:
        assert cleaned == case["clean"]
    tokens = tokenize_filter(cleaned)
    if "tokens_repeat" in case:
        unit_tokens, count = case["tokens_repeat"]
        assert tokens == unit_tokens * count
    elif case.get("tokens") is not None:
        assert tokens == case["tokens"]
    if case.get("kept") is not None:
        ids = list(range(1, len(tokens) + 1))
        out = truncate_pad(ids)
        assert np.count_nonzero(out != notesproc.PAD_ID) == case["kept"]
        assert len(out) == notesproc.NOTE_LEN
    if case.get("charted_at") is not None:
        note = raw_note(
            text=raw,
            chart_date=date.fromisoformat(case["chart_date"]),
            chart_time=time.fromisoformat(case["chart_time"]) if case["chart_time"] else None,
        )
        assert notesproc.format_timestamp(impute_charttime(note)) == case["charted_at"]


def test_golden_corpus_is_big_enough():
    assert len(GOLDEN["cases"]) >= 50


def test_clean_text_idempotent_on_golden():
    for case in GOLDEN["cases"]:
        if "raw" in case:
            once = clean_text(case["raw"])
            assert clean_text(once) == once


def test_clean_text_idempotent_on_random_strings():
    rng = random.Random(0)
    alphabet = string.ascii_letters + string.digits + " []*-.,\n\t/:;"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        once = clean_text(text)
        assert clean_text(once) == once
        assert "[**" not in once and "**]" not in once


def test_emitted_tokens_match_keep_grammar():
    rng = random.Random(1)
    alphabet = string.ascii_letters + string.digits + " -./%,;()[]*"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 150)))
        for token in tokenize_filter(clean_text(text)):
            is_alpha = token.isalpha()
            is_small_number = token.isdigit() and int(token) < 1000
            is_mixed = token.isalnum() and not token.isalpha() and not token.isdigit()
            assert is_alpha or is_small_number or is_mixed, token
            assert keep_token(token)


def test_truncate_pad_contracts():
    out = truncate_pad([7] * 600)
    assert len(out) == 500 and np.all(out == 7)
    out = truncate_pad([3, 4, 5])
    assert list(out[:3]) == [3, 4, 5]
    assert np.all(out[3:] == notesproc.PAD_ID)
    with pytest.raises(DataError):
        truncate_pad([])
    # the pad id marks padding only, so no real token may carry it
    with pytest.raises(DataError):
        truncate_pad([3, notesproc.PAD_ID, 5])


def test_impute_charttime_rules():
    assert impute_charttime(raw_note()) == datetime(2150, 3, 12, 8, 0, 0)
    assert impute_charttime(raw_note(chart_time=None)) == datetime(2150, 3, 12, 0, 0, 0)
    with pytest.raises(DataError):
        impute_charttime(raw_note(chart_date=None, chart_time=None))


class TestDedupeAndFilter:
    def test_duplicates_keep_lowest_row_id(self):
        a = raw_note(row_id=5, text="identical")
        b = raw_note(row_id=9, text="identical")
        kept = dedupe_and_filter([b, a])
        assert [n.row_id for n in kept] == [5]

    def test_erroneous_notes_dropped(self):
        kept = dedupe_and_filter([raw_note(row_id=1, is_error=True), raw_note(row_id=2)])
        assert [n.row_id for n in kept] == [2]

    def test_discharge_summaries_survive_dedupe(self):
        kept = dedupe_and_filter([raw_note(category="Discharge summary")])
        assert len(kept) == 1
        assert notesproc.is_discharge_summary(kept[0].category)

    def test_same_text_different_time_not_duplicate(self):
        a = raw_note(row_id=1, text="same", chart_time=time(1, 0))
        b = raw_note(row_id=2, text="same", chart_time=time(2, 0))
        assert len(dedupe_and_filter([a, b])) == 2


def clean_note(row_id, hadm, charted, n_tokens=3):
    return CleanNote(
        tokens=truncate_pad(list(range(1, n_tokens + 1)), max_len=16), charted_at=charted,
        category="Nursing", hadm_id=hadm, row_id=row_id,
    )


class TestAssemblePatientFile:
    INTIME = datetime(2150, 3, 12, 10, 0, 0)

    def make(self, offsets_hours, window, row_ids=None):
        row_ids = row_ids or list(range(1, len(offsets_hours) + 1))
        notes = [
            clean_note(rid, 7, self.INTIME + np.timedelta64(int(h * 3600), "s").item())
            for rid, h in zip(row_ids, offsets_hours)
        ]
        return assemble_patient_file(
            notes, self.INTIME, window, label=False, subject_id=3, hadm_id=7
        )

    def test_window_filter_and_sort(self):
        file = self.make([2, 30, 13], window=24)
        assert [n.row_id for n in file.notes] == [1, 3]

    def test_no_notes_in_window_returns_none(self):
        assert self.make([30, 40], window=24) is None

    def test_equal_timestamps_tie_break_by_row_id(self):
        file = self.make([5, 5], window=24, row_ids=[9, 4])
        assert [n.row_id for n in file.notes] == [4, 9]

    def test_boundaries_half_open(self):
        file = self.make([0, 24], window=24)
        assert [n.row_id for n in file.notes] == [1]

    def test_timestamps_nondecreasing_inside_window(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            offsets = rng.uniform(0, 72, size=8).tolist()
            file = self.make(offsets, window=48)
            if file is None:
                continue
            times = [n.charted_at for n in file.notes]
            assert times == sorted(times)
            horizon = self.INTIME + np.timedelta64(48 * 3600, "s").item()
            assert all(self.INTIME <= t < horizon for t in times)


def test_notes_csv_round_trip(tmp_path):
    notes = [
        raw_note(row_id=1, text='tricky "quoted, text"\nwith newline'),
        raw_note(row_id=2, chart_time=None, category="Discharge summary"),
        raw_note(row_id=3, is_error=True),
    ]
    path = tmp_path / "notes.csv"
    notesproc.write_notes_csv(path, notes)
    loaded = notesproc.read_notes_csv(path)
    assert [n.row_id for n in loaded] == [1, 2, 3]
    assert loaded[0].text == notes[0].text
    assert loaded[1].chart_time is None
    assert loaded[2].is_error


def test_clean_notes_round_trip(tmp_path):
    notes = [
        clean_note(1, 7, datetime(2150, 3, 12, 8, 0, 0)),
        clean_note(2, 8, datetime(2150, 3, 13, 0, 0, 0), n_tokens=5),
    ]
    path = tmp_path / "clean.jsonl"
    notesproc.write_clean_notes(path, notes)
    loaded = notesproc.read_clean_notes(path, note_len=16)
    assert len(loaded) == 2
    for original, back in zip(notes, loaded):
        np.testing.assert_array_equal(original.tokens, back.tokens)
        assert original.n_tokens() == back.n_tokens()
        assert original.charted_at == back.charted_at
