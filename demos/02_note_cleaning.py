"""The note-cleaning rules, step by step on one messy note.

Run with: python demos/02_note_cleaning.py
"""

from datetime import date

from notemort.notesproc import (
    PAD_ID, RawNote, clean_text, impute_charttime, tokenize_filter, truncate_pad,
)

raw = (
    "Pt seen at [**Hospital1 18**] on [**2150-3-12**].\n\n"
    "Attending [**Known lastname 1234**] paged via [**Pager number 555**].   "
    "BP 1500/90, gave 24mg Lasix; plt 350000, wbc 11."
)

print("RAW:")
print(raw)

cleaned = clean_text(raw)
print("\nCLEANED (lowercased, de-id spans normalized, whitespace collapsed):")
print(cleaned)

tokens = tokenize_filter(cleaned)
print("\nTOKENS (alphabetic, mixed alphanumeric, or numbers below 1000):")
print(tokens)
# note: 1500 and 350000 are gone, 90 and 11 and 24mg survive

ids = truncate_pad(list(range(1, len(tokens) + 1)))
print(f"\nfixed-length form: {len(ids)} slots, {(ids != PAD_ID).sum()} real tokens")

dated = RawNote(
    row_id=1, subject_id=1, hadm_id=1, category="Nursing",
    chart_date=date(2150, 3, 12), chart_time=None, is_error=False, text=raw,
)
print("missing chart time imputes to midnight:", impute_charttime(dated))
