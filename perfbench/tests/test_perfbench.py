"""Tests of the benchmark itself, at the `tiny` scale (seconds per run).

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402

WORKLOADS = ("desk-prep", "desk-train", "paper-step")
SEED = 5


def invoke(root: Path, workload: str, trace: int, seed: int = SEED):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    """Untraced and traced tiny runs of every workload, made once."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = invoke(ROOT, workload, trace)
            saved = json.loads(
                (bench.WORK_ROOT / f"{workload}-s{SEED}-t{trace}" / "result.json").read_text()
            )
            out[workload, trace] = (result_of(proc), saved)
    return out


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        bench.per_layer_metrics()
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(runs, workload):
    result, saved = runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, saved["errors"]
    units = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = saved["environment"]
    assert env["seed"] == SEED and env["numpy"] and env["blas"]["name"] and env["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(runs, workload):
    result, saved = runs[workload, 1]
    assert result["correct"] is True and result["failed"] == 0, saved["errors"]
    units = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["traineval.steps.notes-hcr"] > 0
    assert metrics["ndcore.conv1d.fwd_s"] > 0 and metrics["ndcore.bigru.bwd_s"] > 0
    assert metrics["embed.train_skipgram_s.d200"] > 0
    assert 0.0 < metrics["share.traineval"] <= 1.0
    if workload != "paper-step":
        assert all(metrics[f"traineval.train_fold_alloc_peak_mb.{k}"] > 0 for k in bench.KINDS)
    spans = json.loads(Path(saved["details"]["spans_file"]).read_text())
    ids = {(s["process"], s["id"]) for s in spans}
    assert all(s["parent"] is None or (s["process"], s["parent"]) in ids for s in spans)
    assert all(s["end"] >= s["start"] for s in spans)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_give_identical_outputs(runs, workload):
    plain = runs[workload, 0][1]["outputs"]
    traced = runs[workload, 1][1]["outputs"]
    assert plain and all(plain)
    assert plain == traced


def test_missing_trace_target_counts_as_a_failed_operation(monkeypatch):
    import spans

    target = types.ModuleType("renamed_layer")
    target.kept = lambda: 1
    monkeypatch.setitem(sys.modules, "renamed_layer", target)
    monkeypatch.setattr(spans, "TARGETS", [("renamed_layer", "kept", "layer.kept"),
                                           ("renamed_layer", "gone", "layer.gone")])
    tracer = spans.Tracer(process="test")
    tracer.install()
    assert target.kept() == 1 and [s["name"] for s in tracer.spans] == ["layer.kept"]
    assert tracer.missing == ["renamed_layer.gone"]
    run = bench.Run("desk-prep", SEED, 1, True, "tiny")
    bench.check_trace_targets(run, tracer.missing)
    assert (run.attempted, run.failed) == (1, 1)
    assert "renamed_layer.gone" in run.errors[0]


def _snapshot(root: Path) -> dict:
    return {
        str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in root.rglob("*") if p.is_file()
    }


def _checkout(tmp_path: Path, with_program: bool) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_writes_only_inside_its_work_directory(tmp_path):
    root = _checkout(tmp_path, with_program=True)
    before = _snapshot(root)
    result = result_of(invoke(root, "desk-prep", trace=1))
    assert result["correct"] is True
    after = _snapshot(root)
    changed = {p for p in after if before.get(p) != after[p]} | (set(before) - set(after))
    assert changed
    assert all(p.startswith(".bench_work/") for p in changed), sorted(changed)[:5]


def test_fails_without_the_program(tmp_path):
    root = _checkout(tmp_path, with_program=False)
    proc = invoke(root, "desk-prep", trace=0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
