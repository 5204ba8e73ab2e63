"""Property tests for the config boundary of the command line front end.

Two properties: a scenario config survives scenario_to_dict, JSON text and
scenario_from_dict unchanged; and any JSON value tree handed to main as a
project, discriminate or sweep config ends in exit code 0, 2 or 3, never
in a traceback. The trees are mostly valid configs with one or two
subtrees replaced, so the refusals deep inside the schema are reached too.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccsim.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_OK,
    OutputSpec,
    ScenarioConfig,
    main,
    scenario_from_dict,
)
from sloccsim.discrimination import PhaseChannel
from sloccsim.states import (
    MixedDiagonal,
    OverlapAmplitudes,
    PureProduct,
    SpinLabel,
    SpinSuperposition,
    Statistics,
)

from helpers import scenario_to_dict

S = 1.0 / math.sqrt(2.0)

finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)
angle = st.floats(-math.pi, math.pi)


def _polar(magnitude: float, phase: float) -> complex:
    return complex(magnitude * math.cos(phase), magnitude * math.sin(phase))


@st.composite
def wavefunction(draw):
    """Two amplitudes with |a|^2 + |b|^2 <= 1."""
    norm = draw(unit)
    split = draw(st.floats(0.0, math.pi / 2))
    return (_polar(norm * math.cos(split), draw(angle)),
            _polar(norm * math.sin(split), draw(angle)))


@st.composite
def preparation(draw):
    kind = draw(st.sampled_from(["mixed_diagonal", "pure_product",
                                 "spin_superposition"]))
    if kind == "mixed_diagonal":
        weights = draw(st.lists(unit, min_size=4, max_size=4).filter(
            lambda w: sum(w) > 0.0))
        total = sum(weights)
        return MixedDiagonal(weights=tuple(w / total for w in weights))
    if kind == "pure_product":
        spins = st.sampled_from(list(SpinLabel))
        return PureProduct(first=draw(spins), second=draw(spins))
    split = draw(st.floats(0.0, math.pi / 2))
    return SpinSuperposition(up_amp=_polar(math.cos(split), draw(angle)),
                             down_amp=_polar(math.sin(split), draw(angle)))


@st.composite
def scenario(draw):
    l, r = draw(wavefunction())
    l_prime, r_prime = draw(wavefunction())
    p1 = draw(unit)
    output = draw(st.none() | st.builds(
        OutputSpec, path=st.none() | st.text(max_size=12),
        format=st.sampled_from([None, "csv", "json"])))
    return ScenarioConfig(
        preparation=draw(preparation()),
        overlaps=OverlapAmplitudes(l=l, r=r, l_prime=l_prime, r_prime=r_prime),
        statistics=draw(st.sampled_from(list(Statistics))),
        channel=PhaseChannel(
            omega=tuple(draw(st.lists(finite, min_size=4, max_size=4))),
            phi=(draw(finite), draw(finite)), priors=(p1, 1.0 - p1)),
        output=output)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(config=scenario())
def test_scenario_dict_round_trip(config):
    assert scenario_from_dict(scenario_to_dict(config)) == config
    text = json.dumps(scenario_to_dict(config))
    assert scenario_from_dict(json.loads(text)) == config


# ---------------------------------------------------------------------------
# arbitrary JSON documents at main

# Integers stay small enough that a replaced `points` cannot ask for a large
# (but admissible) grid; the huge literals are beyond the float range.
json_leaf = (st.none() | st.booleans() | st.integers(-3, 40)
             | st.sampled_from([2 ** 63, 10 ** 400, -(10 ** 400)])
             | st.floats() | st.text(max_size=8)
             | st.sampled_from(["boson", "fermion", "distinguishable", "down",
                                "up", "custom", "product", "superposition",
                                "phi12", "r", "csv", "json"]))
json_value = st.recursive(
    json_leaf,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=10)

OMEGA = {"down_down": 0, "down_up": 1, "up_down": 0, "up_up": 0}
SCENARIO = {
    "preparation": {"kind": "spin_superposition", "up_amp": [0.6, 0.0],
                    "down_amp": 0.8},
    "overlaps": {"l": S, "r": [0.5, 0.5], "l_prime": S, "r_prime": S},
    "statistics": "boson",
    "channel": {"omega": OMEGA, "phases": [math.pi, 0.0],
                "priors": [0.25, 0.75]},
    "output": {"format": "json"},
}
SWEEP = {
    "sweep": {
        "figure": "custom",
        "grid": [{"name": "phi12", "min": 0.0, "max": 1.0, "points": 3},
                 {"name": "r", "min": 0.0, "max": 0.5, "points": 3}],
        "fixed": {"mode": "superposition", "p1": 0.25, "l": S,
                  "l_prime": S, "r_prime": S, "up_amp": 0.6,
                  "down_amp": [0.0, 0.8], "omega": OMEGA},
    },
    "output": {"format": "csv"},
}


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, (*path, key))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, (*path, index))


@st.composite
def mutated(draw, base):
    """base with one or two subtrees replaced by arbitrary JSON values, a
    key deleted, or an unknown key added."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(json_value)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace" or not isinstance(parent, dict):
            # a leaf mostly becomes another leaf: a number field gets odd numbers
            leaf = not isinstance(parent[path[-1]], (dict, list))
            parent[path[-1]] = draw(json_leaf if leaf else json_value)
        elif action == "delete":
            del parent[path[-1]]
        else:
            parent[draw(st.text(max_size=8))] = draw(json_value)
    return doc


def _run(tmp_path_factory, command, doc):
    tmp = tmp_path_factory.mktemp(command)
    config = tmp / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    # --out keeps a generated output.path from writing anywhere else
    return main([command, "--config", str(config), "--out", str(tmp / "out")])


@pytest.mark.parametrize("command", ["project", "discriminate"])
@settings(derandomize=True, max_examples=250, deadline=None)
@given(doc=mutated(SCENARIO) | json_value)
def test_any_scenario_document_exits_cleanly(tmp_path_factory, command, doc):
    assert _run(tmp_path_factory, command, doc) in (EXIT_OK, EXIT_CONFIG,
                                                    EXIT_DEGENERATE)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(doc=mutated(SWEEP) | json_value)
def test_any_sweep_document_exits_cleanly(tmp_path_factory, doc):
    assert _run(tmp_path_factory, "sweep", doc) in (EXIT_OK, EXIT_CONFIG,
                                                   EXIT_DEGENERATE)


def test_base_documents_are_valid(tmp_path_factory):
    assert _run(tmp_path_factory, "project", SCENARIO) == EXIT_OK
    assert _run(tmp_path_factory, "discriminate", SCENARIO) == EXIT_OK
    assert _run(tmp_path_factory, "sweep", SWEEP) == EXIT_OK
