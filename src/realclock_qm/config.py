"""CLI configuration: schema, loading, overrides, and seed splitting.

A run is described by one JSON document validated against CONFIG_SCHEMA.
Complex matrix entries are written as [re, im] pairs. Command-line
``--set key=value`` overrides use dotted paths into the document; values
parse as JSON with a plain-string fallback.

The schema is JSON Schema (draft 2020-12), checked by a small walker that
knows only the keywords the schema uses: type, properties, required,
additionalProperties (false only), items, minItems, maxItems, enum,
minimum, exclusiveMinimum and minLength. Its messages, and its choice
among several errors, mirror jsonschema's (4.26, ``best_match``), which
the tests use as the oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from typing import Any

import numpy as np

from .clocks import (
    ClockModel,
    ExpansionClock,
    FundamentalLimitClock,
    GaussianClock,
    IdealClock,
    constant_width_growth,
)
from .core import DensityMatrix, HermitianOperator
from .errors import ConfigError, ValidationError

_COMPLEX_ENTRY = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}
_COMPLEX_MATRIX = {
    "type": "array",
    "items": {"type": "array", "items": _COMPLEX_ENTRY, "minItems": 1},
    "minItems": 1,
}

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "realclock-qm run configuration",
    "type": "object",
    "additionalProperties": False,
    "required": ["command"],
    "properties": {
        "command": {"enum": ["evolve", "zurek", "condprob", "clock-limits", "sweep"]},
        "seed": {"type": "integer", "minimum": 0},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["csv", "json"]},
            },
        },
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": ["qubit", "diag"]},
                "omega": {"type": "number"},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "hamiltonian": _COMPLEX_MATRIX,
            },
        },
        "initial_state": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": ["plus", "basis0"]},
                "vector": {"type": "array", "items": _COMPLEX_ENTRY, "minItems": 1},
                "matrix": _COMPLEX_MATRIX,
            },
        },
        "clock": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["ideal", "gaussian", "expansion", "fundamental"]},
                "width": {"type": "number", "exclusiveMinimum": 0},
                "sigma": {"type": "number", "minimum": 0},
                "b_poly": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "t_planck": {"type": "number", "exclusiveMinimum": 0},
                "t_max": {"type": "number"},
            },
        },
        "evolution": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "step": {"type": "number", "exclusiveMinimum": 0},
                "t_final": {"type": "number", "minimum": 0},
                "grid": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["t_min", "t_max", "n_points"],
                    "properties": {
                        "t_min": {"type": "number"},
                        "t_max": {"type": "number"},
                        "n_points": {"type": "integer", "minimum": 3},
                    },
                },
                "quad_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "zurek": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "couplings": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "alphas": {"type": "array", "items": _COMPLEX_ENTRY, "minItems": 1},
                "betas": {"type": "array", "items": _COMPLEX_ENTRY, "minItems": 1},
                "system_amplitudes": {
                    "type": "array", "items": _COMPLEX_ENTRY, "minItems": 2, "maxItems": 2,
                },
                "random_bath": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["n_atoms", "coupling_low", "coupling_high"],
                    "properties": {
                        "n_atoms": {"type": "integer", "minimum": 1},
                        "coupling_low": {"type": "number"},
                        "coupling_high": {"type": "number"},
                    },
                },
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "n_samples": {"type": "integer", "minimum": 2},
                "t_planck": {"type": "number", "exclusiveMinimum": 0},
                "verify_brute_force": {"type": "boolean"},
                "recurrence": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["threshold"],
                    "properties": {
                        "threshold": {"type": "number", "exclusiveMinimum": 0},
                        "modes": {
                            "type": "array",
                            "items": {"enum": ["ideal", "realclock"]},
                            "minItems": 1,
                        },
                        "n_samples": {"type": "integer", "minimum": 1000},
                    },
                },
            },
        },
        "condprob": {
            "type": "object",
            "additionalProperties": False,
            "required": ["mode", "queries"],
            "properties": {
                "mode": {"enum": ["analytic", "wavepacket"]},
                "queries": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["o_center", "o_halfwidth", "t_center", "t_halfwidth"],
                        "properties": {
                            "o_center": {"type": "number"},
                            "o_halfwidth": {"type": "number", "exclusiveMinimum": 0},
                            "t_center": {"type": "number"},
                            "t_halfwidth": {"type": "number", "exclusiveMinimum": 0},
                        },
                    },
                },
                "observable": _COMPLEX_MATRIX,
                "wavepacket": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "n": {"type": "integer", "minimum": 2},
                        "length": {"type": "number", "exclusiveMinimum": 0},
                        "mass": {"type": "number", "exclusiveMinimum": 0},
                        "sigma0": {"type": "number", "exclusiveMinimum": 0},
                        "x0": {"type": "number"},
                        "velocity": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            },
        },
        "limits": {
            "type": "object",
            "additionalProperties": False,
            "required": ["omega", "duration", "t_planck"],
            "properties": {
                "omega": {"type": "number"},
                "duration": {"type": "number", "minimum": 0},
                "t_planck": {"type": "number", "exclusiveMinimum": 0},
                "mass": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["key", "min", "max", "n"],
            "properties": {
                "key": {"type": "string", "minLength": 1},
                "min": {"type": "number"},
                "max": {"type": "number"},
                "n": {"type": "integer", "minimum": 1},
            },
        },
        "run": {"type": "object"},
    },
}


# annotations, and the keywords that pick the children's subschemas in _walk
_NOT_CHECKED_HERE = frozenset({"$schema", "title", "properties", "items"})
# every keyword _walk understands
SCHEMA_KEYWORDS = _NOT_CHECKED_HERE | {
    "type", "enum", "required", "additionalProperties",
    "minItems", "maxItems", "minLength", "minimum", "exclusiveMinimum",
}

_PYTHON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def _is_type(node, kind: str) -> bool:
    """Draft 2020-12 types: a bool is no number, and 3.0 is an integer."""
    if kind == "number":
        return type(node) is float or (
            isinstance(node, numbers.Number) and not isinstance(node, bool))
    if kind == "integer":
        return (isinstance(node, int) and not isinstance(node, bool)) or (
            isinstance(node, float) and node.is_integer())
    return isinstance(node, _PYTHON_TYPES[kind])


def _walk(node, schema: dict, path: tuple, errors: list, non_finite: list) -> None:
    """Append jsonschema's ``(path, message)`` errors for ``node`` and below.

    Errors at one node come in the order of the schema's keywords, as
    jsonschema yields them. Children are walked in document order, so the
    first non-finite float found is the first in the document.
    """
    for keyword, value in schema.items():
        if keyword in _NOT_CHECKED_HERE:
            continue
        if keyword == "type":
            if not _is_type(node, value):
                errors.append((path, f"{node!r} is not of type {value!r}"))
        elif keyword == "enum":
            if node not in value:
                errors.append((path, f"{node!r} is not one of {value!r}"))
        elif isinstance(node, dict):
            if keyword == "required":
                errors.extend((path, f"{name!r} is a required property")
                              for name in value if name not in node)
            elif keyword == "additionalProperties":
                extras = sorted((key for key in node if key not in schema.get("properties", {})),
                                key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    errors.append((path, f"Additional properties are not allowed "
                                         f"({', '.join(map(repr, extras))} {verb} unexpected)"))
        elif isinstance(node, list):
            if keyword == "minItems" and len(node) < value:
                wanted = "should be non-empty" if value == 1 else "is too short"
                errors.append((path, f"{node!r} {wanted}"))
            elif keyword == "maxItems" and len(node) > value:
                wanted = "is expected to be empty" if value == 0 else "is too long"
                errors.append((path, f"{node!r} {wanted}"))
        elif isinstance(node, str):
            if keyword == "minLength" and len(node) < value:
                wanted = "should be non-empty" if value == 1 else "is too short"
                errors.append((path, f"{node!r} {wanted}"))
        elif _is_type(node, "number"):
            if keyword == "minimum" and node < value:
                errors.append((path, f"{node!r} is less than the minimum of {value!r}"))
            elif keyword == "exclusiveMinimum" and node <= value:
                errors.append((path, f"{node!r} is less than or equal to the minimum of {value!r}"))

    if isinstance(node, float):
        if not non_finite and not math.isfinite(node):
            non_finite.append((path, node))
    elif isinstance(node, dict):
        properties = schema.get("properties", {})
        closed = schema.get("additionalProperties") is False
        for key, child in node.items():
            if key in properties:
                _walk(child, properties[key], path + (key,), errors, non_finite)
            elif not closed:
                _walk(child, {}, path + (key,), errors, non_finite)
    elif isinstance(node, list):
        items = schema.get("items", {})
        for index, child in enumerate(node):
            _walk(child, items, path + (index,), errors, non_finite)


def _key(path: tuple) -> str:
    return ".".join(map(str, path)) or "<root>"


def validate_config(document: dict) -> None:
    """Check ``document`` against CONFIG_SCHEMA; raise ConfigError naming the key.

    Of several schema errors the one reported is the one jsonschema's
    ``best_match`` picks: the shortest key path, of those the greatest
    path, and of those the first error in the schema's keyword order.
    JSON NaN and Infinity are numbers to the schema, so with no schema
    error the first non-finite number in document order is rejected.
    """
    errors: list = []
    non_finite: list = []
    _walk(document, CONFIG_SCHEMA, (), errors, non_finite)
    if errors:
        # max returns the first of equal keys, as best_match does
        path, message = max(errors, key=lambda error: (-len(error[0]), error[0]))
        raise ConfigError(f"config key '{_key(path)}': {message}")
    if non_finite:
        path, value = non_finite[0]
        raise ConfigError(f"config key '{_key(path)}': must be a finite number, got {value}")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    return document


def apply_override(document: dict, assignment: str) -> None:
    """Apply one ``dotted.path=value`` override in place."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} must look like key=value")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node = document
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} crosses a non-object value")
    node[parts[-1]] = value


def derive_rng(root_seed: int, component: str) -> np.random.Generator:
    """Per-component stream: seed = first 8 bytes of sha256('root:component').

    Deterministic and independent of execution order, so sweeps give the
    same streams regardless of worker count.
    """
    digest = hashlib.sha256(f"{root_seed}:{component}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _to_complex(pair) -> complex:
    return complex(pair[0], pair[1])


def complex_matrix(entries) -> np.ndarray:
    return np.array([[_to_complex(cell) for cell in row] for row in entries])


def build_hamiltonian(section: dict | None) -> HermitianOperator:
    if not section:
        raise ConfigError("config key 'system': section is required for this command")
    try:
        if "hamiltonian" in section:
            return HermitianOperator(complex_matrix(section["hamiltonian"]))
        preset = section.get("preset")
        if preset == "qubit":
            if "omega" not in section:
                raise ConfigError("config key 'system.omega': required for the qubit preset")
            return HermitianOperator(np.diag([0.0, float(section["omega"])]))
        if preset == "diag":
            if "values" not in section:
                raise ConfigError("config key 'system.values': required for the diag preset")
            return HermitianOperator(np.diag(np.asarray(section["values"], dtype=float)))
    except ValidationError as exc:
        raise ConfigError(f"config key 'system': {exc}") from exc
    raise ConfigError("config key 'system': give 'hamiltonian' or a preset")


def build_initial_state(section: dict | None, dim: int) -> DensityMatrix:
    if not section:
        raise ConfigError("config key 'initial_state': section is required for this command")
    try:
        if "matrix" in section:
            state = DensityMatrix(complex_matrix(section["matrix"]))
        elif "vector" in section:
            state = DensityMatrix.from_pure([_to_complex(p) for p in section["vector"]])
        elif section.get("preset") == "plus":
            state = DensityMatrix.from_pure(np.ones(dim))
        elif section.get("preset") == "basis0":
            vec = np.zeros(dim)
            vec[0] = 1.0
            state = DensityMatrix.from_pure(vec)
        else:
            raise ConfigError("config key 'initial_state': give 'matrix', 'vector' or a preset")
    except ValidationError as exc:
        raise ConfigError(f"config key 'initial_state': {exc}") from exc
    if state.dim != dim:
        raise ConfigError(
            f"config key 'initial_state': dimension {state.dim} does not match system {dim}"
        )
    return state


def build_clock(section: dict | None) -> ClockModel:
    if not section:
        raise ConfigError("config key 'clock': section is required for this command")
    kind = section["kind"]
    try:
        if kind == "ideal":
            return IdealClock()
        if kind == "gaussian":
            if "width" not in section:
                raise ConfigError("config key 'clock.width': required for gaussian clocks")
            return GaussianClock(width=float(section["width"]))
        if kind == "expansion":
            if "sigma" in section:
                return constant_width_growth(float(section["sigma"]))
            if "b_poly" in section:
                coeffs = [float(c) for c in section["b_poly"]]

                def b(T, _c=tuple(coeffs)):
                    return sum(c * T**j for j, c in enumerate(_c))

                def b_rate(T, _c=tuple(coeffs)):
                    return sum(j * c * T ** (j - 1) for j, c in enumerate(_c) if j >= 1)

                return ExpansionClock(b=b, b_rate=b_rate)
            raise ConfigError("config key 'clock': expansion clocks need 'sigma' or 'b_poly'")
        if kind == "fundamental":
            for required in ("t_planck", "t_max"):
                if required not in section:
                    raise ConfigError(f"config key 'clock.{required}': required for fundamental clocks")
            return FundamentalLimitClock(
                t_planck=float(section["t_planck"]), t_max=float(section["t_max"])
            )
    except ValidationError as exc:
        raise ConfigError(f"config key 'clock': {exc}") from exc
    raise ConfigError(f"config key 'clock.kind': unknown kind {kind!r}")
