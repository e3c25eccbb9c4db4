"""One model in its three configurations, on one toy patient.

Run with: python demos/04_model_forwards.py
"""

from datetime import datetime

import numpy as np

from notemort import models
from notemort.cohort import (
    ClinicalTimeSeries, N_TS_VARIABLES, TS_NORMALS, standardize_values,
)
from notemort.embed import EmbeddingMatrix
from notemort.notesproc import CleanNote, PatientFile, truncate_pad

cfg = models.ModelConfig(
    note_len=32, embed_dim=16, filters=16, temporal_hidden=8, cts_hidden=(8, 4)
)
rng = np.random.default_rng(0)

vectors = rng.standard_normal((60, cfg.embed_dim)) * 0.4
vectors[0] = 0.0  # pad row
embeddings = EmbeddingMatrix(vectors)

notes = []
for i in range(3):  # three notes charted over the stay
    ids = truncate_pad(rng.integers(1, 60, size=20).tolist(), max_len=32)
    notes.append(CleanNote(
        tokens=ids, charted_at=datetime(2150, 1, 1, 2 + 7 * i),
        category="Nursing", hadm_id=1, row_id=i + 1,
    ))
file = PatientFile(hadm_id=1, subject_id=1, notes=notes, label=False, window_hours=24)

ts = ClinicalTimeSeries(
    hadm_id=1, hours=np.arange(24),
    values=TS_NORMALS + rng.standard_normal((24, N_TS_VARIABLES)),
    mask=rng.random((24, N_TS_VARIABLES)) > 0.25,
)

# a batch of one stay: token ids [1, T, L] for the notes branch (pad
# positions, id 0, are left out of the pooling), standardized physiology
# [1, W, F] for the CTS branch; each model reads what it uses
inputs = dict(
    ids=np.stack([n.tokens for n in notes])[None],
    values=standardize_values(ts.values)[None],
    obs_masks=ts.mask[None],
)

notes_params = models.init_model(models.NOTES_HCR, cfg, seed=1)
cts_params = models.init_model(models.CTS_RNN, cfg, seed=2)
mm_params = models.init_model(models.MM_HCR, cfg, seed=3)

print("parameter counts")
for name, params in (("notes-hcr", notes_params), ("cts-rnn", cts_params),
                     ("mm-hcr", mm_params)):
    print(f"  {name:10s} {models.parameter_count(params):7d}")

p_notes = models.forward(notes_params, cfg, embeddings, **inputs)
p_cts = models.forward(cts_params, cfg, **inputs)
p_mm = models.forward(mm_params, cfg, embeddings, **inputs)
features = models.cts_forward(inputs["values"], inputs["obs_masks"], cts_params.cts, cfg)

print("\nmortality probabilities (untrained weights)")
print(f"  notes-hcr  {p_notes.item():.4f}   (3 notes -> shared encoder -> GRU)")
print(f"  cts-rnn    {p_cts.item():.4f}   (24h physiology, features {features.shape[1:]})")
print(f"  mm-hcr     {p_mm.item():.4f}   (patient vector || cts features)")

# with the default configuration these are the full-scale sizes
full = models.ModelConfig()
print("\nfull-scale parameter counts (default configuration)")
for kind in models.MODEL_KINDS:
    print(f"  {kind:10s} {models.parameter_count(models.init_model(kind, full)):7d}")
