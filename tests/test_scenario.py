import copy
import json

import jsonschema
import numpy as np
import pytest

import sandwichext.scenario as scenario

from conftest import fixture_path
from sandwichext import (
    ScenarioError,
    build_scenario,
    load_scenario,
    refine_and_compare,
)

FIXTURES = ["fix_a.json", "fix_b.json", "fix_c_linear.json",
            "fix_c_restricted.json", "fix_refine.json"]


def load_doc(name: str) -> dict:
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_files_build(name):
    sc = load_scenario(fixture_path(name))
    assert sc.name
    assert sc.raw["schema_version"] == "1"
    assert sc.system.space is sc.space
    assert sc.system.grid[0] == 0
    assert sc.system.grid[-1] == sc.space.n_levels - 1
    assert len(sc.tasks) >= 1
    for key, vec in sc.payoffs.items():
        assert vec.shape == (sc.space.n_atoms,)


def test_schema_violations_report_first_path(tmp_path):
    doc = load_doc("fix_a.json")
    bad = copy.deepcopy(doc)
    bad["space"]["probs"] = "half and half"
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.space.probs"
    assert str(exc.value).startswith("$.space.probs:")

    bad = copy.deepcopy(doc)
    del bad["operators"]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$"
    assert "operators" in str(exc.value)

    bad = copy.deepcopy(doc)
    bad["schema_version"] = "2"
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.schema_version"

    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(p)
    assert exc.value.path == "$"
    with pytest.raises(OSError):
        load_scenario(tmp_path / "absent.json")


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


SCHEMA_EDITS = {
    "fixture": lambda doc: None,
    "true-in-vec": _set(("space", "probs", 0), True),
    "empty-vec": _set(("space", "times"), []),
    "string-numvec": _set(("operators", 0, "pieces", 0, "density"), "1"),
    "true-numvec": _set(("operators", 0, "pieces", 0, "penalty"), True),
    "level-minus-one": _set(("operators", 0, "from"), -1),
    "level-float-one": _set(("grid", 1), 1.0),
}


@pytest.mark.parametrize("edit", SCHEMA_EDITS)
def test_schema_fast_path_matches_the_stock_validator(edit):
    # the one-pass $ref path accepts only what the stock validator accepts,
    # and leaves the first error's path and message as the stock one gives
    # the one-pass tests mirror these definitions
    assert scenario._schema()["$defs"] == {
        "vec": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        "numvec": {"oneOf": [{"type": "number"}, {"$ref": "#/$defs/vec"}]},
        "level": {"type": "integer", "minimum": 0}}
    doc = load_doc("fix_a.json")
    SCHEMA_EDITS[edit](doc)
    stock = jsonschema.Draft202012Validator(scenario._schema())
    errors = sorted(stock.iter_errors(doc),
                    key=lambda e: ([str(p) for p in e.absolute_path], e.message))
    if not errors:
        assert edit in ("fixture", "level-float-one")
        scenario._check_schema(doc)
        return
    with pytest.raises(ScenarioError) as exc:
        scenario._check_schema(doc)
    assert exc.value.path == scenario._json_path(list(errors[0].absolute_path))
    assert str(exc.value) == f"{exc.value.path}: {errors[0].message}"


def test_space_and_grid_rejections():
    doc = load_doc("fix_a.json")
    bad = copy.deepcopy(doc)
    bad["space"]["probs"] = [0.5, 0.6]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.space"

    bad = copy.deepcopy(doc)
    bad["space"]["atoms"] = ["only-one"]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.space.atoms"

    bad = copy.deepcopy(doc)
    bad["grid"] = [0, 5]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.grid[1]"

    bad = copy.deepcopy(doc)
    bad["subspaces"] = {"9": [[1.0, -1.0]]}
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.subspaces.9"


def test_vector_expansion_checks():
    doc = load_doc("fix_a.json")
    bad = copy.deepcopy(doc)
    bad["payoffs"]["bad"] = [1.0, 2.0, 3.0]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.payoffs.bad"
    assert "expected 2 entries" in str(exc.value)

    sc = build_scenario(doc)
    label, rv = sc.payoff(0.75, 1)
    assert label is None
    np.testing.assert_array_equal(rv.values, [0.75, 0.75])


def test_operator_and_bounds_pair_rejections():
    doc = load_doc("fix_a.json")
    bad = copy.deepcopy(doc)
    bad["operators"][0]["to"] = 0
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.operators[0]"
    assert "increasing pair" in str(exc.value)

    bad = copy.deepcopy(doc)
    bad["operators"].append(copy.deepcopy(bad["operators"][0]))
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.operators[1]"
    assert "duplicate" in str(exc.value)

    bad = copy.deepcopy(doc)
    bad["bounds"].append(copy.deepcopy(bad["bounds"][0]))
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.bounds[1]"

    bad = copy.deepcopy(doc)
    bad["bounds"][0]["m0"] = 2.0
    bad["bounds"][0]["M0"] = 0.5
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.bounds[0]"


def test_non_measurable_vectors_carry_their_path():
    doc = load_doc("fix_c_linear.json")
    bad = copy.deepcopy(doc)
    # a (0, 1) density must be constant on the level-1 blocks
    bad["operators"][0]["pieces"][0]["density"] = [1.5, 0.5, 1.0, 1.0]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(bad)
    assert exc.value.path == "$.operators[0].pieces[0].density"


def test_payoff_resolution_paths():
    sc = load_scenario(fixture_path("fix_c_linear.json"))
    label, rv = sc.payoff("unit_uu", 2)
    assert label == "unit_uu" and rv.level == 2
    with pytest.raises(ScenarioError) as exc:
        sc.payoff("no_such", 2)
    assert exc.value.path == "$.payoffs"
    label, rv = sc.payoff([1.0, 0.0, 0.0, 0.0], 2)
    assert label is None
    with pytest.raises(ScenarioError) as exc:
        sc.payoff("unit_uu", 1)  # atom-level payoff is not level-1 measurable
    assert exc.value.path == "$.payoffs.unit_uu"
    with pytest.raises(ScenarioError) as exc:
        sc.payoff([1.0, 0.0], 2)
    assert exc.value.path == "$.payoff"


def test_subsystem_reuses_declared_objects():
    sc = load_scenario(fixture_path("fix_refine.json"))
    sub = sc.subsystem([0, 2])
    assert sub.grid == (0, 2)
    assert sub.one_step_ops[(0, 2)] is sc.system.declared_ops()[(0, 2)]
    assert sub.bounds[(0, 2)] is sc.system.bounds[(0, 2)]
    assert not sub.long_ops
    rep = refine_and_compare(sub, sc.system, n_payoffs=5, n_densities=4, seed=3)
    assert rep.report.entries


def test_subsystem_missing_parts_rejected():
    sc = load_scenario(fixture_path("fix_c_linear.json"))
    with pytest.raises(ScenarioError) as exc:
        sc.subsystem([0, 2])  # no (0, 2) operator declared
    assert exc.value.path == "$.operators"
    with pytest.raises(ScenarioError) as exc:
        sc.subsystem([0, 1])  # drops the terminal level
    assert exc.value.path == "$.tasks"
