"""Smoke runs of the quick demo scripts, so API changes cannot leave
them broken. 05_small_pipeline.py trains a model and is left out."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
QUICK_DEMOS = [
    "01_autodiff_and_layers.py",
    "02_note_cleaning.py",
    "03_skipgram_embeddings.py",
    "04_model_forwards.py",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
