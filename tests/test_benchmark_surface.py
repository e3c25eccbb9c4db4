"""The program surface the benchmark in perfbench/ relies on.

The benchmark's scripts are loaded from their paths, unedited: every
function its tracer wraps must still resolve, and the desk config it
writes must parse and validate. A cut to a key or a name the benchmark
uses fails here, before any benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from notemort import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """perfbench/<name>.py as a module of its own, leaving the
    interpreter's bytecode setting as it was (run.py turns it off)."""
    dont_write = sys.dont_write_bytecode
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


# tiny shapes of the kind `spans.SHAPE_RECORDERS` records, one per probed op
PROBE_SHAPES = {
    "conv1d": {"x": [2, 5, 3], "kernels": [3, 3, 4]},
    "batchnorm": {"x": [2, 5, 3]},
    "spatial_dropout": {"x": [2, 5, 3], "p": 0.5},
    "global_avg_pool": {"x": [2, 5, 3], "masked": True},
    "bigru": {"x": [2, 4, 3], "hidden": 2},
    "dense_sigmoid": {"x": [2, 3], "weight": [3, 1]},
    "l2_penalty": {"weights": [[3, 2], [2, 2]], "lam": 0.1},
}


def test_every_probe_runs():
    """`probes.py` imports `step` from its own directory, so perfbench/ is
    on the path while it loads; the path is restored after, and the
    perfbench modules it imported are dropped."""
    path, modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        probes = load("probes")
        assert set(probes.OPS) == set(PROBE_SHAPES)
        for op in probes.OPS:
            result = probes.probe_op(op, PROBE_SHAPES[op], repeats=1)
            assert all(value >= 0.0 for value in result.values()), op
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]


def test_every_trace_target_resolves():
    """The lookup `Tracer.install` makes for each target."""
    for owner_path, attr, _ in load("spans").TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"


@pytest.mark.parametrize("scale", ["full", "tiny"])
def test_desk_config_parses_and_validates(tmp_path, scale):
    bench = load("run")
    run = bench.Run("desk-prep", 1, 10, False, scale)
    path = bench.desk_config(run, tmp_path / "work")
    cli.parse_config(path.read_text()).validate()
