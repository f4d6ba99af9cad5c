"""The schema walker of ``realclock_qm.config`` against jsonschema as oracle.

Each sample config in ``configs/`` is mutated (wrong types, missing and
extra keys, out-of-range numbers, empty arrays, complex pairs of the wrong
length, strings outside an enum) and ``validate_config`` must report the
key path and message that jsonschema's ``best_match`` reports.
"""

import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from realclock_qm import ConfigError
from realclock_qm.config import CONFIG_SCHEMA, SCHEMA_KEYWORDS, validate_config

SAMPLES = [json.loads(p.read_text()) for p in
           sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))]
ORACLE = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def _subschemas(schema):
    yield schema
    for child in schema.get("properties", {}).values():
        yield from _subschemas(child)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def _nodes(node, schema, path=()):
    """``(path, subschema)`` of every node of a document, the root included."""
    yield path, schema
    if isinstance(node, dict):
        properties = schema.get("properties", {})
        for key, child in node.items():
            yield from _nodes(child, properties.get(key, {}), path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _nodes(child, schema.get("items", {}), path + (index,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    parent[path[-1]] = value
    return doc


def _node(doc, path):
    for part in path:
        doc = doc[part]
    return doc


# mutation -> (applies to (node, subschema), draw the new document)
WRONG_VALUES = [True, False, None, "text", 3.0, 2.5, -1, 0, [], [1.0], {}, {"x": 1}]


def _wrong_type(draw, doc, path, node, schema):
    return _replace(doc, path, copy.deepcopy(draw(st.sampled_from(WRONG_VALUES))))


def _drop_key(draw, doc, path, node, schema):
    del node[draw(st.sampled_from(sorted(node)))]
    return doc


def _extra_key(draw, doc, path, node, schema):
    node[draw(st.sampled_from(["typo", "Command", "a", "zz"]))] = draw(st.sampled_from([1, "x"]))
    return doc


def _out_of_range(draw, doc, path, node, schema):
    if "minimum" in schema:
        below = schema["minimum"] - draw(st.sampled_from([1, 0.5, 1e-9]))
        value = int(below) if schema.get("type") == "integer" else below
    else:
        value = schema["exclusiveMinimum"] - draw(st.sampled_from([0, 0.0, 1.5]))
    return _replace(doc, path, value)


def _empty_array(draw, doc, path, node, schema):
    return _replace(doc, path, [])


def _pair_length(draw, doc, path, node, schema):
    return _replace(doc, path, draw(st.sampled_from([[1.0], [1.0, 0.0, 2.0]])))


def _outside_enum(draw, doc, path, node, schema):
    return _replace(doc, path, draw(st.sampled_from(["bogus", str(node).upper(), ""])))


MUTATIONS = [
    (lambda node, schema: True, _wrong_type),
    (lambda node, schema: isinstance(node, dict) and node, _drop_key),
    (lambda node, schema: isinstance(node, dict), _extra_key),
    (lambda node, schema: "minimum" in schema or "exclusiveMinimum" in schema, _out_of_range),
    (lambda node, schema: isinstance(node, list), _empty_array),
    (lambda node, schema: schema.get("maxItems") == 2, _pair_length),
    (lambda node, schema: "enum" in schema, _outside_enum),
]


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SAMPLES)))
    for _ in range(draw(st.integers(1, 3))):
        applies, mutate = draw(st.sampled_from(MUTATIONS))
        targets = [(path, schema) for path, schema in _nodes(doc, CONFIG_SCHEMA)
                   if applies(_node(doc, path), schema)]
        if targets:
            path, schema = draw(st.sampled_from(targets))
            doc = mutate(draw, doc, path, _node(doc, path), schema)
    return doc


def _oracle_message(document):
    error = jsonschema.exceptions.best_match(ORACLE.iter_errors(document))
    if error is None:
        return None
    path = ".".join(str(p) for p in error.absolute_path) or "<root>"
    return f"config key '{path}': {error.message}"


def _walker_message(document):
    try:
        validate_config(document)
    except ConfigError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(mutated_configs())
def test_walker_reports_jsonschema_best_match(document):
    assert _walker_message(document) == _oracle_message(document)


@pytest.mark.parametrize("document", SAMPLES)
def test_sample_configs_are_valid(document):
    assert _walker_message(document) is _oracle_message(document) is None


@pytest.mark.parametrize("document, expected", [
    # numbers that jsonschema's draft 2020-12 types accept or refuse
    ({"command": "evolve", "seed": 3.0}, None),
    ({"command": "evolve", "seed": True}, "config key 'seed': True is not of type 'integer'"),
    ({"command": "evolve", "system": {"omega": False}},
     "config key 'system.omega': False is not of type 'number'"),
    # siblings at one depth: the greatest path wins, not the first
    ({"seed": -1, "command": "bogus"}, "config key 'seed': -1 is less than the minimum of 0"),
    # at one node: the schema's keyword order, then the order of "required"
    ({"command": "evolve", "evolution": {"grid": {"n": 1}}},
     "config key 'evolution.grid': Additional properties are not allowed ('n' was unexpected)"),
    ({"command": "evolve", "zz": 1, "typo": 2},
     "config key '<root>': Additional properties are not allowed ('typo', 'zz' were unexpected)"),
    ({"command": "evolve", "evolution": {"grid": {"n_points": 3}}},
     "config key 'evolution.grid': 't_min' is a required property"),
])
def test_walker_edge_cases_match_jsonschema(document, expected):
    assert _walker_message(document) == _oracle_message(document) == expected


@pytest.mark.parametrize("document, expected", [
    # a schema error wins over any non-finite number
    ({"command": "evolve", "system": {"omega": float("nan")}, "seed": -1},
     "config key 'seed': -1 is less than the minimum of 0"),
    # then the first non-finite number in document order, unchecked sections too
    ({"command": "sweep", "run": {"x": [1.0, float("inf")]}, "system": {"omega": float("nan")}},
     "config key 'run.x.1': must be a finite number, got inf"),
    ({"system": {"values": [float("-inf")], "omega": float("nan")}, "command": "evolve"},
     "config key 'system.values.0': must be a finite number, got -inf"),
])
def test_non_finite_after_schema_errors(document, expected):
    assert _walker_message(document) == expected


def test_walker_handles_every_schema_keyword():
    for schema in _subschemas(CONFIG_SCHEMA):
        assert set(schema) <= SCHEMA_KEYWORDS, schema
        assert schema.get("additionalProperties", False) is False
        assert isinstance(schema.get("type", "object"), str)
        assert all(isinstance(value, str) for value in schema.get("enum", []))
