"""Property tests over the scenario space and the text a config flag carries."""

import math
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from relsim.errors import ConfigError, TopologyError
from relsim.runner import ScenarioRun
from relsim.scenario import SCHEMES, ScenarioConfig, parse_config

FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


@st.composite
def small_scenarios(draw) -> ScenarioConfig:
    nodes = draw(st.integers(4, 16))
    pairs = draw(st.integers(0, (nodes - 2) // 2))
    return ScenarioConfig(
        nodes=nodes,
        area_side=draw(st.sampled_from([250.0, 350.0, 450.0])),
        flows=draw(st.integers(1, 4)),
        blackholes=draw(st.integers(0, nodes - 2 - 2 * pairs)),
        colluding_pairs=pairs,
        scheme=draw(st.sampled_from(SCHEMES)),
        link_loss=draw(st.sampled_from([0.0, 0.02, 0.1])),
        seed=draw(st.integers(0, 2**64 - 1)),
        duration=draw(st.floats(2.0, 4.0)),
    ).validate()


@given(small_scenarios())
@settings(max_examples=30, deadline=None)
def test_any_small_scenario_runs_clean_and_replays(cfg):
    # placement may fail (no connected layout, no room for the holes);
    # nothing else may, and execute() ends in runner.check_invariants
    try:
        run = ScenarioRun(cfg)
    except TopologyError:
        return
    record = run.execute()
    assert repr(ScenarioRun(cfg).execute()) == repr(record)


def override_text(kind: str):
    """Text a flag of field type ``kind`` may carry: well-formed values,
    every spelling float() takes (non-finite ones included), or free text."""
    well_formed = {
        "int": st.integers(-3, 60).map(str),
        "float": st.one_of(st.floats().map(repr), st.sampled_from(["nan", "inf", "-inf"])),
        "str": st.sampled_from(SCHEMES),
    }[kind]
    return st.one_of(well_formed, st.text(max_size=6))


@st.composite
def flag_overrides(draw) -> dict:
    keys = draw(st.lists(st.sampled_from(sorted(FIELD_TYPES)), max_size=3, unique=True))
    return {key: draw(override_text(FIELD_TYPES[key])) for key in keys}


@given(flag_overrides())
@settings(max_examples=100, deadline=None)
def test_parse_config_yields_a_well_typed_finite_config_or_config_error(overrides):
    try:
        cfg = parse_config(overrides=overrides)
    except ConfigError:
        return
    for key, kind in FIELD_TYPES.items():
        value = getattr(cfg, key)
        assert type(value).__name__ == kind
        assert kind != "float" or math.isfinite(value)
