"""The benchmark's traced run (clibench/layers.py) wraps package functions by
name. A function renamed or removed from the package would silently drop
its layer from the trace, so every name it wraps must resolve to a callable.
A traced run through the benchmark's child process must also leave a timing
record that strict JSON reads.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "clibench" / "layers.py"


def _layers_namespace() -> dict:
    """Execute layers.py from its source, writing nothing next to it."""
    namespace = {"__name__": "clibench_layers"}
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    return namespace


LAYERS_NS = _layers_namespace()
TARGETS = [(layer, module, path)
           for layer, targets in LAYERS_NS["TARGETS"].items() for module, path in targets]


def test_targets_are_listed():
    assert TARGETS


@pytest.mark.parametrize("layer, module, path", TARGETS,
                         ids=[f"{module}.{path}" for _, module, path in TARGETS])
def test_traced_function_resolves_to_a_callable(layer, module, path):
    holder = importlib.import_module(f"{LAYERS_NS['PACKAGE']}.{module}")
    for attr in path.split("."):
        holder = getattr(holder, attr, None)
    assert callable(holder), f"layer {layer}: {module}.{path} is not a callable"


def _snapshot(root: Path) -> dict:
    return {path: path.stat().st_mtime_ns for path in root.rglob("*")}


def test_traced_child_run_writes_a_strict_json_record(tmp_path):
    """A traced evolve run through the benchmark's child process exits 0 and
    leaves a timing record that strict JSON accepts, with the master-equation
    layers in it; nothing is written under clibench/."""
    repo = LAYERS.parents[1]
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "command": "evolve",
        "system": {"preset": "qubit", "omega": 1.0},
        "initial_state": {"preset": "plus"},
        "clock": {"kind": "expansion", "b_poly": [0.0, 0.2, 0.01]},
        "evolution": {"step": 0.01, "t_final": 2.0},
    }), encoding="utf-8")
    timing = tmp_path / "t.json"
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    before = _snapshot(LAYERS.parent)
    completed = subprocess.run(
        [sys.executable, str(LAYERS.parent / "child.py"), str(timing), "1", "evolve",
         "--config", str(config), "--out", str(tmp_path / "o.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr

    def reject(constant):
        raise ValueError(f"non-finite number {constant} in the timing record")

    record = json.loads(timing.read_text(encoding="utf-8"), parse_constant=reject)
    assert record["code"] == 0
    layers = record["layers"]
    assert layers["evolution.evolve_master"][1] == 1
    assert layers["clocks.sigma"][1] == 1  # one sigma call per trajectory
    assert (tmp_path / "o.csv").stat().st_size > 0
    assert _snapshot(LAYERS.parent) == before
