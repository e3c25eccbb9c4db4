"""notemort benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload desk-prep --seed 1 --seconds 10 --trace 0

Run it from anywhere; it works in `<checkout>/.bench_work/` and runs the
program from `<checkout>/src`. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` they are its per-layer metrics. perfbench/README.md
describes the workloads and every metric.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

KINDS = ("notes-hcr", "cts-rnn", "mm-hcr")
DATA_STAGES = ("synth", "preprocess", "embed", "cohort")
STAGES = DATA_STAGES + ("train", "evaluate")
OPS = ("conv1d", "batchnorm", "spatial_dropout", "global_avg_pool", "bigru",
       "dense_sigmoid", "l2_penalty")
WINDOW = 24
RUN_LIMIT_S = 170.0  # every run must end within 180 s

# The desk config of demos/05_small_pipeline.py, with one skip-gram epoch
# and one training epoch; `tiny` is for the benchmark's own tests.
SCALES = {
    "full": {
        "desk": {"n_subjects": 400, "embed_dim": 24, "min_count": 10, "note_len": 64,
                 "filters": 16, "temporal_hidden": 8, "cts_hidden": "8,4", "k": 3},
        "paper": {"n_subjects": 220, "note_tokens_mean": 300, "min_count": 20,
                  "note_len": 500, "embed_dim": 200, "filters": 200,
                  "notes_batch": 16, "notes_per_stay": 4, "mm_batch": 16,
                  "cts_batch": 64, "slice_tokens": 12000},
        "setup_reps": {"desk-prep": 3, "desk-train": 2, "paper-step": 3},
        "probe_repeats": 3,
    },
    "tiny": {
        "desk": {"n_subjects": 60, "embed_dim": 8, "min_count": 5, "note_len": 16,
                 "filters": 4, "temporal_hidden": 2, "cts_hidden": "2,2", "k": 3},
        "paper": {"n_subjects": 60, "note_tokens_mean": 40, "min_count": 5,
                  "note_len": 32, "embed_dim": 8, "filters": 8,
                  "notes_batch": 4, "notes_per_stay": 2, "mm_batch": 4,
                  "cts_batch": 8, "slice_tokens": 300},
        "setup_reps": {"desk-prep": 2, "desk-train": 2, "paper-step": 2},
        "probe_repeats": 1,
    },
}

END_TO_END = [
    ("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"),
    ("synth_s", "s"), ("embed_s", "s"), ("embed_loss", "nats"),
    ("train_notes-hcr_s", "s"), ("train_cts-rnn_s", "s"), ("train_mm-hcr_s", "s"),
    ("val_loss", "nats"), ("train_stays_per_s", "1/s"), ("score_stays_per_s", "1/s"),
]

# share name -> (numerator span names, denominator window label)
SHARES = {
    "share.synth": (("synth.generate", "synth.write"), "synth"),
    "share.notesproc": (("notesproc.read_notes_csv", "notesproc.clean_text",
                         "notesproc.tokenize_filter", "notesproc.read_clean_notes"),
                        "pipeline"),
    "share.pipeline": (("pipeline.preprocess_notes", "pipeline.build_window_cohort",
                        "pipeline.build_dataset"), "pipeline"),
    "share.embed": (("embed.train_skipgram",), "embed"),
    "share.cohort": (("cohort.read_tables", "cohort.read_timeseries_csv",
                      "cohort.impute_timeseries", "cohort.grouped_kfold"), "pipeline"),
    "share.models": (("models.init_model", "models.lookup_note_embeddings",
                      "models.semantical_forward", "models.temporal_forward",
                      "models.params_to_entries"), "train"),
    "share.traineval": (tuple(f"traineval.{p}.{k}" for p in ("forward", "backward", "optim")
                              for k in KINDS) + ("traineval.make_batches",), "train"),
    "share.ndcore.tensor": (tuple(f"traineval.backward.{k}" for k in KINDS), "train"),
    "share.ndcore.layers": (tuple(f"ndcore.{op}" for op in OPS), "train"),
    "share.ndcore.optim": (tuple(f"traineval.optim.{k}" for k in KINDS), "train"),
    "share.ndcore.checkpoint": (("ndcore.save_checkpoint",), "train"),
    "share.cli": (("cli.startup", "cli.manifest"), "pipeline"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    s, lower, higher = "s", "lower", "higher"
    out = [
        ("synth.generate_s", s, lower), ("synth.write_s", s, lower),
        ("notesproc.read_notes_csv_s", s, lower), ("notesproc.clean_s", s, lower),
        ("notesproc.notes_cleaned", "count", higher), ("notesproc.read_clean_notes_s", s, lower),
        ("pipeline.preprocess_notes_s", s, lower), ("pipeline.build_window_cohort_s", s, lower),
        ("pipeline.build_dataset_s", s, lower),
        ("embed.train_skipgram_s", s, lower), ("embed.tokens_per_s", "1/s", higher),
        ("embed.save_embeddings_s", s, lower), ("embed.load_embeddings_s", s, lower),
        ("embed.train_skipgram_s.d200", s, lower),
        ("cohort.read_timeseries_csv_s", s, lower), ("cohort.read_tables_s", s, lower),
        ("cohort.impute_timeseries_s", s, lower), ("cohort.grouped_kfold_s", s, lower),
        ("models.init_model_s", s, lower), ("models.lookup_note_embeddings_s", s, lower),
        ("models.semantical_forward_s", s, lower), ("models.temporal_forward_s", s, lower),
        ("models.params_to_entries_s", s, lower),
    ]
    for kind in KINDS:
        out += [(f"traineval.forward_s.{kind}", s, lower),
                (f"traineval.backward_s.{kind}", s, lower),
                (f"traineval.optim_s.{kind}", s, lower),
                (f"traineval.eval_forward_s.{kind}", s, lower),
                (f"traineval.steps.{kind}", "count", higher)]
    out.append(("traineval.make_batches_s", s, lower))
    out += [(f"traineval.train_fold_alloc_peak_mb.{kind}", "MB", lower) for kind in KINDS]
    for kind in KINDS:
        out += [(f"ndcore.tensors_per_step.{kind}", "count", lower),
                (f"ndcore.alloc_peak_mb_per_step.{kind}", "MB", lower)]
    for op in OPS:
        out += [(f"ndcore.{op}.fwd_s", s, lower), (f"ndcore.{op}.bwd_s", s, lower),
                (f"ndcore.{op}.alloc_mb", "MB", lower)]
    out += [("ndcore.amsgrad.step_s", s, lower), ("ndcore.save_checkpoint_s", s, lower)]
    for stage in STAGES:
        out += [(f"cli.{stage}_s", s, lower), (f"cli.{stage}.peak_rss_mb", "MB", lower)]
    out += [("cli.startup_s", s, lower), ("cli.manifest_s", s, lower)]
    out += [(name, "ratio", lower) for name in SHARES]
    out += [("trace.overhead_s", s, lower), ("trace.overhead_share", "ratio", lower)]
    return out


# -- processes ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Run:
    """One benchmark invocation: its work directory, deadline, process
    records and the operations attempted and failed."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, scale: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = SCALES[scale]
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work = WORK_ROOT / f"{workload}-s{seed}-t{int(trace)}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def process(self, cmd: list[str], log: Path) -> dict:
        """Run a child to completion; wall time and peak RSS via wait4."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(log, "w", encoding="utf-8") as handle:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=handle, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024.0
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        return {"code": proc.returncode, "start": start, "end": end,
                "wall_s": end - start, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": rss_mb}


# -- desk workloads: CLI stages ------------------------------------------------------


def desk_config(run: Run, work: Path) -> Path:
    d = run.scale["desk"]
    lines = [
        f"work_dir = {work}", f"seed = {run.seed}", f"window = {WINDOW}", "jobs = 1",
        f"synth.n_subjects = {d['n_subjects']}", "synth.prevalence = 0.2",
        f"embed.dim = {d['embed_dim']}", "embed.window = 5",
        f"embed.min_count = {d['min_count']}", "embed.epochs = 1",
        f"model.note_len = {d['note_len']}", f"model.embed_dim = {d['embed_dim']}",
        f"model.filters = {d['filters']}", f"model.temporal_hidden = {d['temporal_hidden']}",
        f"model.cts_hidden = {d['cts_hidden']}",
        "train.epochs = 1", "train.early_stop_patience = 1",
        f"train.k = {d['k']}", f"train.seed = {run.seed}",
    ]
    path = work.parent / f"{work.name}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def _sha_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_stage(stage: str, kind: str | None, work: Path, k: int, info: dict) -> tuple[bool, str]:
    """Output check of one finished stage; returns (ok, digest of its outputs)."""
    if stage == "evaluate":
        report = work / "eval" / "report.jsonl"
        if not report.exists():
            return False, ""
        folds: dict[str, list] = {}
        for line in report.read_text().splitlines():
            record = json.loads(line)
            if record["type"] == "fold":
                folds.setdefault(record["model"], []).append(record)
        ok = sorted(folds) == sorted(KINDS) and all(
            len(rows) == k and all(0.0 <= r["auroc"] <= 1.0 and 0.0 <= r["auprc"] <= 1.0
                                   for r in rows)
            for rows in folds.values()
        )
        return ok, _sha_file(report)
    name = {"cohort": f"cohort_W{WINDOW}", "train": f"train_{kind}_W{WINDOW}"}.get(stage, stage)
    manifest = work / f"{name}.manifest.json"
    if not manifest.exists():
        return False, ""
    outputs = json.loads(manifest.read_text())["outputs"]
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    if stage == "embed":
        return bool(info["skipgram_losses"]) and _finite(*info["skipgram_losses"]), digest
    if stage == "train":
        run_dir = work / "train" / f"{kind}_W{WINDOW}"
        for fold in range(k):
            for line in (run_dir / f"fold{fold}.history.jsonl").read_text().splitlines():
                row = json.loads(line)
                if not _finite(row["train_loss"], row["val_loss"]):
                    return False, digest
            for line in (run_dir / f"fold{fold}.scores.jsonl").read_text().splitlines():
                prob = json.loads(line)["prob"]
                if not (_finite(prob) and 0.0 < prob < 1.0):
                    return False, digest
    return True, digest


def run_stage(run: Run, cfg: Path, work: Path, stage: str, kind: str | None,
              traced: bool, tag: str) -> dict:
    logs = work.parent / f"{work.name}-logs"
    logs.mkdir(exist_ok=True)
    label = f"{tag}-{stage}" + (f"-{kind}" if kind else "")
    out = logs / f"{label}.json"
    cli_args = ["--config", str(cfg)] + (["--model", kind] if kind else []) + [stage]
    record = run.process(
        [sys.executable, str(BENCH / "stage.py"), str(out), repr(time.perf_counter()),
         "1" if traced else "0", "--", *cli_args],
        logs / f"{label}.log",
    )
    info = json.loads(out.read_text()) if out.exists() else {"code": None, "skipgram_losses": []}
    record.update(stage=stage, kind=kind, info=info)
    ok = record["code"] == 0 and info.get("code") == 0
    digest = ""
    if ok:
        ok, digest = check_stage(stage, kind, work, run.scale["desk"]["k"], info)
    record["digest"] = digest
    record["ok"] = run.op(ok, f"{label} (exit {record['code']})")
    return record


def data_pass(run: Run, cfg: Path, work: Path, traced: bool, tag: str) -> list[dict]:
    shutil.rmtree(work, ignore_errors=True)
    records = []
    for stage in DATA_STAGES:
        record = run_stage(run, cfg, work, stage, None, traced, tag)
        records.append(record)
        if not record["ok"]:
            break
    return records


def train_pass(run: Run, cfg: Path, work: Path, traced: bool, tag: str) -> list[dict]:
    for sub in ("train", "eval"):
        shutil.rmtree(work / sub, ignore_errors=True)
    records = []
    for kind in KINDS:
        records.append(run_stage(run, cfg, work, "train", kind, traced, tag))
    if all(r["ok"] for r in records):
        records.append(run_stage(run, cfg, work, "evaluate", None, traced, tag))
    return records


def run_step(run: Run, spec: dict, tag: str) -> dict:
    """step.py as its own process; returns its result plus the process record."""
    spec_path = run.work / f"{tag}-step.spec.json"
    spec = {**spec, "seed": run.seed, "out": str(run.work / f"{tag}-step.json")}
    spec_path.write_text(json.dumps(spec))
    record = run.process([sys.executable, str(BENCH / "step.py"), str(spec_path)],
                         run.work / f"{tag}-step.log")
    out = Path(spec["out"])
    result = json.loads(out.read_text()) if out.exists() else {}
    run.attempted += result.get("attempted", 0)
    run.failed += result.get("failed", 0)
    run.errors += result.get("errors", [])
    if record["code"] != 0 or not result:
        run.op(False, f"{tag} step process (exit {record['code']})")
    result["process"] = record
    return result


def desk_companion(run: Run, cfg: Path, work: Path, traced: bool, tag: str) -> dict:
    """step.py in desk mode. Where the CLI `train` stages have run, it
    rescores their checkpoints instead of training again."""
    trained = work / "train"
    return run_step(run, {"mode": "desk", "work": str(work), "config": str(cfg),
                          "trace": traced,
                          "trained": str(trained) if trained.exists() else None}, tag)


def stage_seconds(records, stage, kind=None) -> float:
    return sum(r["cpu_s"] for r in records if r["stage"] == stage and r["kind"] == kind)


def cpu_seconds(records) -> float:
    return sum(r["cpu_s"] for r in records)


def companion_metrics(result: dict) -> dict:
    return {
        **{f"train_{k}_s": result.get("train_s", {}).get(k, 0.0) for k in KINDS},
        "val_loss": statistics.mean(result["val_losses"]) if result.get("val_losses") else 0.0,
        "train_stays_per_s": result["train_stays"] / result["train_time"]
        if result.get("train_time") else 0.0,
        "score_stays_per_s": result["score_stays"] / result["score_time"]
        if result.get("score_time") else 0.0,
    }


def history_val_loss(work: Path, k: int) -> float:
    """Mean best-epoch validation loss over every kind and fold."""
    best = []
    for kind in KINDS:
        for fold in range(k):
            path = work / "train" / f"{kind}_W{WINDOW}" / f"fold{fold}.history.jsonl"
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            best.append(min(row["val_loss"] for row in rows))
    return statistics.mean(best)


def repeat(run: Run, body) -> list:
    """Call `body` until the run's seconds are spent (at least once), and
    stop early if another call might not fit before the deadline."""
    results, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body())
        last = time.perf_counter() - t0
        now = time.perf_counter()
        if now - start >= run.seconds or now + 2 * last > run.deadline - 30.0:
            return results
        if run.failed:
            return results


def import_seconds(run: Run) -> float:
    """desk-prep set-up: CPU seconds of a warm `import notemort.cli` process."""
    record = run.process([sys.executable, "-c", "import notemort.cli"], run.work / "setup.log")
    run.op(record["code"] == 0, "setup import")
    return record["cpu_s"]


def setup_desk_train(run: Run, work: Path) -> tuple[Path, list[float], list[list[dict]]]:
    """Build the desk artifacts (the desk-prep stages) from the seed."""
    times, passes = [], []
    # a traced run reports no set-up time
    for _ in range(1 if run.trace else run.scale["setup_reps"]["desk-train"]):
        shutil.rmtree(run.work, ignore_errors=True)
        run.work.mkdir(parents=True)
        cfg = desk_config(run, work)
        passes.append(data_pass(run, cfg, work, False, "setup"))
        times.append(cpu_seconds(passes[-1]))
    return cfg, times, passes


def desk_prep(run: Run) -> dict:
    work = run.work / "desk"
    cfg = desk_config(run, work)
    setup_times = [import_seconds(run)]
    if run.trace:
        units = [_desk_unit(run, cfg, work, traced, data_pass) for traced in (False, True)]
        return traced_report(run, units)
    # the other set-ups are spread over the run, so that their median is
    # not one moment of the host's speed
    reps = run.scale["setup_reps"]["desk-prep"]
    passes = repeat(run, lambda: data_pass(run, cfg, work, False, "pass"))
    setup_times += [import_seconds(run) for _ in range((reps - 1) // 2)]
    companion = desk_companion(run, cfg, work, False, "pass") if not run.failed else {}
    setup_times += [import_seconds(run) for _ in range(reps - len(setup_times))]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(cpu_seconds(p) for p in passes),
        "synth_s": statistics.median(stage_seconds(p, "synth") for p in passes),
        "embed_s": statistics.median(stage_seconds(p, "embed") for p in passes),
        "embed_loss": _embed_loss(passes[-1]),
        **companion_metrics(companion),
    }
    _check_repeatable(run, passes)
    return {"metrics": metrics, "passes": passes, "companion": companion,
            "outputs": [r["digest"] for r in passes[-1]] + [companion.get("digest")]}


def desk_train(run: Run) -> dict:
    work = run.work / "desk"
    cfg, setup_times, setups = setup_desk_train(run, work)
    if run.trace:
        units = [_desk_unit(run, cfg, work, traced, train_pass) for traced in (False, True)]
        return traced_report(run, units)
    passes = repeat(run, lambda: train_pass(run, cfg, work, False, "pass")) if not run.failed else []
    companion = desk_companion(run, cfg, work, False, "pass") if not run.failed else {}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "synth_s": statistics.median(stage_seconds(p, "synth") for p in setups),
        "embed_s": statistics.median(stage_seconds(p, "embed") for p in setups),
        "embed_loss": _embed_loss(setups[-1]),
        **companion_metrics(companion),
    }
    if passes and not run.failed:
        metrics["pipeline_s"] = statistics.median(cpu_seconds(p) for p in passes)
        for kind in KINDS:
            metrics[f"train_{kind}_s"] = statistics.median(
                stage_seconds(p, "train", kind) for p in passes
            )
        metrics["val_loss"] = history_val_loss(work, run.scale["desk"]["k"])
        # the train stages train every stay the companion counts
        metrics["train_stays_per_s"] = companion.get("train_stays", 0) / statistics.median(
            sum(stage_seconds(p, "train", kind) for kind in KINDS) for p in passes
        )
    _check_repeatable(run, setups)
    _check_repeatable(run, passes)
    outputs = [r["digest"] for r in passes[-1]] if passes else []
    return {"metrics": metrics, "setups": setups, "passes": passes, "companion": companion,
            "outputs": outputs + [companion.get("digest")]}


def _embed_loss(records) -> float:
    losses = [r["info"]["skipgram_losses"][-1] for r in records
              if r["stage"] == "embed" and r["info"].get("skipgram_losses")]
    return losses[-1] if losses else 0.0


def _check_repeatable(run: Run, passes) -> None:
    """Every pass of a workload starts from the same inputs, so its outputs
    must be identical. It can fail only where a run makes two or more
    passes: desk-train's set-up passes, and measured passes when several
    fit in the run's seconds."""
    digests = {tuple(r["digest"] for r in p) for p in passes}
    if len(digests) > 1:
        run.op(False, "passes gave different outputs")


def _desk_unit(run: Run, cfg: Path, work: Path, traced: bool, measured_pass) -> dict:
    """One pass of the workload plus the desk companion, for a traced run."""
    tag = "traced" if traced else "untraced"
    records = measured_pass(run, cfg, work, traced, tag) if not run.failed else []
    companion = desk_companion(run, cfg, work, traced, tag) if not run.failed else {}
    windows = [("pipeline", r["start"], r["end"]) for r in records]
    windows += [(r["stage"], r["start"], r["end"]) for r in records
                if r["stage"] in ("synth", "embed", "train")]
    windows += [tuple(w) for w in companion.get("windows", [])]
    return {"records": records, "companion": companion, "windows": windows,
            "pipeline_s": cpu_seconds(records),
            "digest": [r["digest"] for r in records] + [companion.get("digest")]}


# -- paper-step ---------------------------------------------------------------------


def paper_spec(run: Run, traced: bool) -> dict:
    """The step program's spec. A traced run sets up once and runs the
    skip-gram epoch only in its traced unit, to stay well inside 180 s."""
    return {"mode": "paper", "work": str(run.work), "trace": traced,
            "seconds": run.seconds, "scale": run.scale["paper"],
            "setup_reps": 1 if run.trace else run.scale["setup_reps"]["paper-step"],
            "skipgram": traced or not run.trace}


def paper_step(run: Run) -> dict:
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    if run.trace:
        units = [_paper_unit(run, traced) for traced in (False, True)]
        return traced_report(run, units)
    result = run_step(run, paper_spec(run, False), "pass")
    if not result.get("passes"):
        return {"metrics": {}, "step": result, "outputs": []}
    passes = result["passes"]
    stays = result["stays"]
    metrics = {
        "setup_s": statistics.median(result["setup_s"]),
        "pipeline_s": statistics.median(p["pass_s"] for p in passes),
        "synth_s": result["synth_s"],
        "embed_s": result["embed_s"],
        "embed_loss": result["embed_loss"],
        **{f"train_{k}_s": statistics.median(p["train_s"][k] for p in passes) for k in KINDS},
        "val_loss": statistics.mean(result["val_loss"].values()),
        "train_stays_per_s": statistics.median(
            sum(stays.values()) / sum(p["train_s"].values()) for p in passes),
        "score_stays_per_s": statistics.median(
            sum(stays.values()) / sum(p["eval_s"].values()) for p in passes),
    }
    return {"metrics": metrics, "step": result, "outputs": [result.get("digest")]}


def _paper_unit(run: Run, traced: bool) -> dict:
    tag = "traced" if traced else "untraced"
    result = run_step(run, paper_spec(run, traced), tag)
    windows = [tuple(w) for w in result.get("windows", [])]
    windows = [("pipeline" if w[0] == "pass" else w[0], w[1], w[2]) for w in windows]
    pass_s = [p["pass_s"] for p in result.get("passes", [])]
    return {"records": [], "companion": result, "windows": windows,
            "pipeline_s": statistics.median(pass_s) if pass_s else 0.0,
            "digest": [result.get("digest")]}


# -- traced runs ----------------------------------------------------------------------


def _union_overlap(intervals, windows) -> float:
    """Length of the union of `intervals` that falls inside `windows`."""
    total = 0.0
    for _, w_start, w_end in windows:
        clipped = sorted((max(s, w_start), min(e, w_end)) for s, e in intervals
                         if e > w_start and s < w_end)
        cursor = w_start
        for s, e in clipped:
            s = max(s, cursor)
            if e > s:
                total += e - s
                cursor = e
    return total


def traced_report(run: Run, units: list[dict]) -> dict:
    """Per-layer metrics from the traced unit, its shares, and the overhead
    of tracing against the untraced unit of the same run."""
    plain, traced = units
    if plain["digest"] != traced["digest"]:
        run.op(False, "traced and untraced runs gave different outputs")
    spans, shapes, missing = [], {}, set()
    for info in [r["info"] for r in traced["records"]] + [traced["companion"]]:
        spans += info.get("spans", [])
        missing.update(info.get("missing", []))
    check_trace_targets(run, missing)
    shapes.update(traced["companion"].get("shapes", {}))
    measured = [w for w in traced["windows"] if w[0] in ("pipeline", "synth", "embed",
                                                         "train", "score")]
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append((span["start"], span["end"], span))

    def busy(*names, label=None) -> float:
        windows = measured if label is None else [w for w in traced["windows"] if w[0] == label]
        intervals = [(s, e) for n in names for s, e, _ in by_name.get(n, [])]
        return _union_overlap(intervals, _disjoint(windows))

    def count(name) -> int:
        return sum(1 for s, e, _ in by_name.get(name, [])
                   if any(s >= w[1] and e <= w[2] for w in measured))

    m: dict[str, float] = {}
    m["synth.generate_s"] = busy("synth.generate")
    m["synth.write_s"] = busy("synth.write")
    m["notesproc.read_notes_csv_s"] = busy("notesproc.read_notes_csv")
    m["notesproc.clean_s"] = busy("notesproc.clean_text", "notesproc.tokenize_filter")
    m["notesproc.notes_cleaned"] = count("notesproc.clean_text")
    m["notesproc.read_clean_notes_s"] = busy("notesproc.read_clean_notes")
    for name in ("preprocess_notes", "build_window_cohort", "build_dataset"):
        m[f"pipeline.{name}_s"] = busy(f"pipeline.{name}")
    m["embed.train_skipgram_s"] = busy("embed.train_skipgram")
    tokens = sum(span.get("tokens", 0) for _, _, span in by_name.get("embed.train_skipgram", []))
    m["embed.tokens_per_s"] = tokens / m["embed.train_skipgram_s"] if m["embed.train_skipgram_s"] else 0.0
    m["embed.save_embeddings_s"] = busy("embed.save_embeddings")
    m["embed.load_embeddings_s"] = busy("embed.load_embeddings")
    m["cohort.read_timeseries_csv_s"] = busy("cohort.read_timeseries_csv")
    m["cohort.read_tables_s"] = busy("cohort.read_tables")
    m["cohort.impute_timeseries_s"] = busy("cohort.impute_timeseries")
    m["cohort.grouped_kfold_s"] = busy("cohort.grouped_kfold")
    for name in ("init_model", "lookup_note_embeddings", "semantical_forward",
                 "temporal_forward", "params_to_entries"):
        m[f"models.{name}_s"] = busy(f"models.{name}")
    for kind in KINDS:
        m[f"traineval.forward_s.{kind}"] = busy(f"traineval.forward.{kind}")
        m[f"traineval.backward_s.{kind}"] = busy(f"traineval.backward.{kind}")
        m[f"traineval.optim_s.{kind}"] = busy(f"traineval.optim.{kind}")
        m[f"traineval.eval_forward_s.{kind}"] = busy(f"traineval.eval_forward.{kind}")
        m[f"traineval.steps.{kind}"] = count(f"traineval.optim.{kind}")
    m["traineval.make_batches_s"] = busy("traineval.make_batches")
    companion = traced["companion"]
    for kind in KINDS:
        m[f"traineval.train_fold_alloc_peak_mb.{kind}"] = companion.get(
            "fold_alloc_peak_mb", {}).get(kind, 0.0)
    for kind in KINDS:
        m[f"ndcore.tensors_per_step.{kind}"] = companion.get("tensors_per_step", {}).get(kind, 0)
        m[f"ndcore.alloc_peak_mb_per_step.{kind}"] = companion.get(
            "alloc_peak_mb_per_step", {}).get(kind, 0.0)
    optim = [e - s for k in KINDS for s, e, _ in by_name.get(f"traineval.optim.{k}", [])]
    m["ndcore.amsgrad.step_s"] = statistics.median(optim) if optim else 0.0
    m["ndcore.save_checkpoint_s"] = busy("ndcore.save_checkpoint")
    for stage in STAGES:
        mine = [r for r in traced["records"] if r["stage"] == stage]
        m[f"cli.{stage}_s"] = sum(r["wall_s"] for r in mine)
        m[f"cli.{stage}.peak_rss_mb"] = max((r["rss_mb"] for r in mine), default=0.0)
    m["cli.startup_s"] = sum(r["info"].get("startup_s", 0.0) for r in traced["records"])
    m["cli.manifest_s"] = busy("cli.manifest")

    probes = run_probes(run, shapes)
    for op in OPS:
        values = probes.get("ops", {}).get(op, {})
        for key in ("fwd_s", "bwd_s", "alloc_mb"):
            m[f"ndcore.{op}.{key}"] = values.get(key, 0.0)
    m["embed.train_skipgram_s.d200"] = probes.get("skipgram_d200_s", 0.0)

    for name, (numerator, label) in SHARES.items():
        length = sum(w[2] - w[1] for w in _disjoint(
            [w for w in traced["windows"] if w[0] == label]))
        m[name] = busy(*numerator, label=label) / length if length else 0.0
    m["trace.overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
    m["trace.overhead_share"] = (
        m["trace.overhead_s"] / plain["pipeline_s"] if plain["pipeline_s"] else 0.0
    )
    spans_path = run.work / "spans.json"
    spans_path.write_text(json.dumps(spans))
    return {"metrics": m, "units": units, "probes": probes, "spans_file": str(spans_path),
            "unwrapped": sorted(missing), "outputs": traced["digest"]}


def check_trace_targets(run: Run, missing) -> None:
    """A trace target that no longer exists would leave its per-layer
    metrics at 0; each one counts as a failed operation."""
    for target in sorted(missing):
        run.op(False, f"trace target {target} not found")


def _disjoint(windows):
    """Windows sorted with overlaps merged, so no time is counted twice."""
    merged = []
    for label, s, e in sorted(windows, key=lambda w: w[1]):
        if merged and s <= merged[-1][2]:
            merged[-1] = (merged[-1][0], merged[-1][1], max(e, merged[-1][2]))
        else:
            merged.append((label, s, e))
    return merged


def run_probes(run: Run, shapes: dict) -> dict:
    """ndcore ops at the recorded shapes and the dim-200 skip-gram slice."""
    if run.workload == "paper-step":
        vocab, corpus = run.work / "d200_vocab.txt", run.work / "d200_corpus.jsonl"
    else:
        prep = run.work / "desk" / "prep"
        vocab, corpus = prep / "vocab.txt", prep / "embed_corpus.jsonl"
    spec = {"shapes": shapes, "repeats": run.scale["probe_repeats"], "seed": run.seed,
            "vocab": str(vocab), "corpus": str(corpus) if corpus.exists() else None,
            "slice_tokens": run.scale["paper"]["slice_tokens"],
            "out": str(run.work / "probes.json")}
    spec_path = run.work / "probes.spec.json"
    spec_path.write_text(json.dumps(spec))
    record = run.process([sys.executable, str(BENCH / "probes.py"), str(spec_path)],
                         run.work / "probes.log")
    out = Path(spec["out"])
    result = json.loads(out.read_text()) if out.exists() else {}
    run.op(record["code"] == 0 and bool(result), f"probes (exit {record['code']})")
    return result


# -- environment and entry point ---------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = git.stdout.strip() or None
    threads = {key: os.environ.get(key) for key in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS",
        "BLIS_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "seed": seed,
        "platform": platform.platform(),
    }


WORKLOADS = {"desk-prep": desk_prep, "desk-train": desk_train, "paper-step": paper_step}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; `tiny` runs in seconds, for the tests")
    args = parser.parse_args()
    if not (SRC / "notemort" / "cli.py").exists():
        print(f"notemort sources not found under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    env = environment(args.seed)
    report = WORKLOADS[args.workload](run)
    names = ([n for n, _, _ in per_layer_metrics()] if args.trace
             else [n for n, _ in END_TO_END])
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in per_layer_metrics()}
    if not args.trace:
        report["metrics"]["peak_rss_mb"] = run.peak_rss_mb
    metrics = {name: {"value": float(report["metrics"].get(name, 0.0)), "unit": units[name]}
               for name in names}
    if not args.trace and any(v["value"] <= 0.0 for v in metrics.values()):
        run.op(False, "an end-to-end metric was not measured")
    result = {"correct": run.failed == 0, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    (run.work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "scale": args.scale, "trace": args.trace,
         "environment": env, "errors": run.errors, "outputs": report["outputs"], **result,
         "details": report}, indent=1, default=str))
    _drop_artifacts(run)
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


def _drop_artifacts(run: Run) -> None:
    """Keep result.json, spans.json and logs; drop the large inputs."""
    for name in ("desk", "tables"):
        shutil.rmtree(run.work / name, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
