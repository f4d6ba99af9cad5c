"""The benchmark's traced run (clibench/layers.py) wraps package functions by
name. A function renamed or removed from the package would silently drop
its layer from the trace, so every name it wraps must resolve to a callable.
"""

import importlib
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
