"""The typed config schema: one loader checks every value against its field."""

import json
import re
import tempfile
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtlab.cli import main
from mgtlab.harness import ConfigError, ScenarioConfig

README = Path(__file__).parent.parent / "README.md"

NON_FINITE = [float("nan"), float("inf"), float("-inf")]

# one strategy per kind of JSON value, and the non-finite floats
KINDS = {
    "string": st.text(max_size=4),
    "bool": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.integers(-3, 3), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "non-finite": st.sampled_from(NON_FINITE),
}
RIGHT = {int: {"int"}, float: {"int", "float"}, str: {"string"}, bool: {"bool"}}


def wrong_values(tp):
    """A strategy of values of the wrong type for a field annotated tp: every
    other kind of JSON value, and for a list the empty list and a list with
    one wrong item."""
    right = RIGHT.get(tp) or ({"object"} if is_dataclass(tp) else {"list"})
    wrong = st.one_of(*(s for kind, s in KINDS.items() if kind not in right))
    if right == {"list"}:
        item = typing.get_args(tp)[0]
        wrong = st.one_of(wrong, st.just([]), wrong_values(item).map(lambda v: [v]))
    return wrong


def config_fields(record=ScenarioConfig, path=("config",)):
    """(path, annotation) of every field of every config record; the
    scenario's seed is not a key (the top-level seed sets it)."""
    for f in fields(record):
        if path + (f.name,) == ("config", "scenario", "seed"):
            continue
        tp = typing.get_type_hints(record)[f.name]
        yield path + (f.name,), tp
        if is_dataclass(tp):
            yield from config_fields(tp, path + (f.name,))


FIELDS = list(config_fields())


def nested(path, value) -> dict:
    raw = value
    for key in reversed(path[1:]):
        raw = {key: raw}
    return raw


def test_every_record_is_walked():
    records = {path[-1] for path, tp in FIELDS if is_dataclass(tp)}
    assert records == {"params", "scenario", "tolerances", "symbol"}
    assert len(FIELDS) == 11 + 3 + 15 + 10 + 7


@pytest.mark.parametrize("value", [None, [], *NON_FINITE], ids=repr)
def test_every_field_rejects_a_wrong_type(value):
    # a deterministic sweep of every path with values that no field accepts
    for path, _ in FIELDS:
        with pytest.raises(ConfigError, match=re.escape(".".join(path))):
            ScenarioConfig.from_dict(nested(path, value))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_wrong_typed_value_names_its_path(data):
    path, tp = data.draw(st.sampled_from(FIELDS))
    raw = nested(path, data.draw(wrong_values(tp)))
    with pytest.raises(ConfigError, match=re.escape(".".join(path))):
        ScenarioConfig.from_dict(raw)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg), "--out", str(Path(tmp) / "o")]) == 2
        assert not (Path(tmp) / "o" / "error.json").exists()


def test_scenario_seed_points_to_the_top_level_seed():
    with pytest.raises(ConfigError, match="config.scenario.seed.*top-level seed"):
        ScenarioConfig.from_dict({"scenario": {"seed": 3}})
    cfg = ScenarioConfig.from_dict({"seed": 3})
    assert cfg.scenario_spec(seed_shift=2).seed == 5


def test_readme_schema_loads_and_names_every_field():
    text = README.read_text()
    block = re.search(r"## Config schema\n\n```json\n(.*?)```", text, re.S).group(1)
    raw = json.loads(re.sub(r"//.*", "", block))
    ScenarioConfig.from_dict(raw)
    missing = []
    for path, _ in FIELDS:
        node = raw
        for key in path[1:]:
            if not isinstance(node, dict) or key not in node:
                missing.append(".".join(path))
                break
            node = node[key]
    assert missing == []


def symbols_exit(tmp_path, raw) -> int:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return main(["symbols", "--config", str(cfg), "--out", str(tmp_path / "o")])


def test_symbol_samples_below_the_sweep_floor_are_a_config_error(tmp_path):
    # lopatinskii_sweep needs 10^3 samples: exit 2, not a solver error
    with pytest.raises(ConfigError, match=r"config\.symbol: samples must be >= 1000"):
        ScenarioConfig.from_dict({"symbol": {"samples": 999}})
    assert ScenarioConfig.from_dict({"symbol": {"samples": 1000}}).symbol.samples == 1000
    assert symbols_exit(tmp_path, {"symbol": {"samples": 500}}) == 2
    assert not (tmp_path / "o" / "error.json").exists()


def test_symbols_rejects_a_grid_too_coarse_for_its_probes(tmp_path, monkeypatch):
    # the probes read grid_points_per_axis // 4 points, under a grid's floor
    # of 8 at 16: the runner stops with exit 2 before any solve
    from mgtlab import harness

    def no_solve(*args):
        raise AssertionError("symbols solved before checking its grid")

    monkeypatch.setattr(harness, "solve_mgt", no_solve)
    raw = {"grid_points_per_axis": 16, "modes": [4, 8], "steps": 20,
           "symbol": {"samples": 1000, "probe_scenarios": 1, "probe_steps": 20}}
    with pytest.raises(ConfigError, match="grid_points_per_axis >= 32"):
        harness.run_symbol_suite(ScenarioConfig.from_dict(raw), tmp_path / "o")
    assert symbols_exit(tmp_path, raw) == 2
    assert not (tmp_path / "o" / "error.json").exists()
