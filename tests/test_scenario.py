import copy
import json

import jsonschema
import numpy as np
import pytest

import sandwichext.scenario as scenario

from conftest import ROOT, fixture_path
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


def test_payoffs_resolve_by_name_inline_vector_or_scalar():
    # the reader's errors are in READER_ERRORS below; these are its answers
    sc = load_scenario(fixture_path("fix_c_linear.json"))
    label, rv = sc.payoff("unit_uu", 2)
    assert label == "unit_uu" and rv.level == 2
    label, rv = sc.payoff([1.0, 0.0, 0.0, 0.0], 2)
    assert label is None
    label, rv = load_scenario(fixture_path("fix_a.json")).payoff(0.75, 1)
    assert label is None
    np.testing.assert_array_equal(rv.values, [0.75, 0.75])


def test_subsystem_reuses_declared_objects():
    sc = load_scenario(fixture_path("fix_refine.json"))
    sub = sc.subsystem([0, 2])
    assert sub.grid == (0, 2)
    assert sub.one_step_ops[(0, 2)] is sc.system.declared_ops()[(0, 2)]
    assert sub.bounds[(0, 2)] is sc.system.bounds[(0, 2)]
    assert not sub.long_ops
    rep = refine_and_compare(sub, sc.system, n_payoffs=5, n_densities=4, seed=3)
    assert rep.report.entries


def _put(where, key, value):
    """A document edit: ``doc`` -> ``where(doc)[key] = value``."""
    def edit(doc):
        where(doc)[key] = value
    return edit


def _append_copy(section, i):
    return lambda doc: doc[section].append(copy.deepcopy(doc[section][i]))


def _drop_bounds(s, t):
    def edit(doc):
        doc["bounds"] = [b for b in doc["bounds"] if (b["from"], b["to"]) != (s, t)]
    return edit


def _piece(op):
    return lambda doc: doc["operators"][op]["pieces"][0]


def _bounds(i):
    return lambda doc: doc["bounds"][i]


def _built(name, edit):
    """A call that builds ``name`` (a fixture or a golden scenario) after ``edit``."""
    def run():
        path = (fixture_path(name) if name.startswith("fix_")
                else ROOT / "tests" / "golden" / name)
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        return build_scenario(doc)
    return run


def _then(build, call):
    return lambda: call(build())


_LIN = "fix_c_linear.json"
_POLY = "polyhedral_tree.json"
_NOT_1 = "values vary by {} on block (0, 1) of level 1"

# the space, grid and level checks, every vector site of the reader, every pair
# check, the bound pair's own check and every subsystem error:
# (id, call that raises, the full ScenarioError message)
READER_ERRORS = [
    ("space-probs", _built("fix_a.json", _put(lambda d: d["space"], "probs", [0.5, 0.6])),
     "$.space: probabilities sum to 1.1, not 1"),
    ("space-atoms", _built("fix_a.json", _put(lambda d: d["space"], "atoms", ["only-one"])),
     "$.space.atoms: expected 2 atom names, got 1"),
    ("grid-level", _built("fix_a.json", _put(lambda d: d, "grid", [0, 5])),
     "$.grid[1]: level 5 out of range"),
    ("subspace-level", _built("fix_a.json", _put(lambda d: d, "subspaces", {"9": [[1.0, -1.0]]})),
     "$.subspaces.9: level 9 out of range"),
    ("subspace-length", _built(_LIN, _put(lambda d: d, "subspaces", {"2": [[1.0, -1.0]]})),
     "$.subspaces.2[0]: expected 4 entries, got 2"),
    ("subspace-measurable",
     _built(_LIN, _put(lambda d: d, "subspaces", {"1": [[1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]]})),
     "$.subspaces.1[1]: " + _NOT_1.format("2.000e+00")),
    ("density-length", _built(_LIN, _put(_piece(1), "density", [1.0, 1.0])),
     "$.operators[1].pieces[0].density: expected 4 entries, got 2"),
    ("density-measurable", _built(_LIN, _put(_piece(0), "density", [1.5, 0.5, 1.0, 1.0])),
     "$.operators[0].pieces[0].density: " + _NOT_1.format("1.000e+00")),
    ("penalty-length", _built(_LIN, _put(_piece(1), "penalty", [0.0, 0.0, 0.0])),
     "$.operators[1].pieces[0].penalty: expected 4 entries, got 3"),
    ("penalty-measurable", _built(_LIN, _put(_piece(0), "penalty", [0.0, 0.0, 0.1, 0.1])),
     "$.operators[0].pieces[0].penalty: values vary by 1.000e-01 on block (0, 1, 2, 3) of level 0"),
    ("m0-length", _built(_LIN, _put(_bounds(2), "m0", [0.5, 0.5])),
     "$.bounds[2].m0: expected 4 entries, got 2"),
    ("m0-measurable", _built(_LIN, _put(_bounds(0), "m0", [0.5, 0.6, 0.5, 0.5])),
     "$.bounds[0].m0: " + _NOT_1.format("1.000e-01")),
    ("M0-length", _built(_LIN, _put(_bounds(1), "M0", [2.0] * 5)),
     "$.bounds[1].M0: expected 4 entries, got 5"),
    ("M0-measurable", _built(_LIN, _put(_bounds(0), "M0", [2.0, 1.5, 2.0, 2.0])),
     "$.bounds[0].M0: " + _NOT_1.format("5.000e-01")),
    ("m-kernel-length", _built(_POLY, _put(lambda d: d["bounds"][0]["m_kernels"], 1, [1.0] * 3)),
     "$.bounds[0].m_kernels[1]: expected 8 entries, got 3"),
    ("m-kernel-measurable",
     _built(_POLY, _put(lambda d: d["bounds"][0]["m_kernels"], 0, [0.5] + [0.75] * 7)),
     "$.bounds[0].m_kernels[0]: values vary by 2.500e-01 on block (0, 1, 2, 3) of level 1"),
    ("M-kernel-length", _built(_POLY, _put(lambda d: d["bounds"][1]["M_kernels"], 0, [2.0] * 9)),
     "$.bounds[1].M_kernels[0]: expected 8 entries, got 9"),
    ("M-kernel-measurable",
     _built(_POLY, _put(lambda d: d["bounds"][0]["M_kernels"], 1, [2.0] * 7 + [3.0])),
     "$.bounds[0].M_kernels[1]: values vary by 1.000e+00 on block (4, 5, 6, 7) of level 1"),
    ("named-payoff-unknown", _then(_built(_LIN, lambda d: None), lambda sc: sc.payoff("no_such", 2)),
     "$.payoffs: unknown payoff 'no_such'"),
    ("named-payoff-length", _built(_LIN, _put(lambda d: d["payoffs"], "bad", [1.0, 2.0, 3.0])),
     "$.payoffs.bad: expected 4 entries, got 3"),
    ("named-payoff-measurable", _then(_built(_LIN, lambda d: None), lambda sc: sc.payoff("unit_uu", 1)),
     "$.payoffs.unit_uu: " + _NOT_1.format("1.000e+00")),
    ("inline-payoff-length", _then(_built(_LIN, lambda d: None), lambda sc: sc.payoff([1.0, 0.0], 2)),
     "$.payoff: expected 4 entries, got 2"),
    ("inline-payoff-measurable",
     _then(_built(_LIN, lambda d: None), lambda sc: sc.payoff([0.0, 0.0, 3.0, 1.0], 1)),
     "$.payoff: values vary by 2.000e+00 on block (2, 3) of level 1"),
    ("duplicate-operator", _built(_LIN, _append_copy("operators", 1)),
     "$.operators[2]: duplicate operator for pair (1, 2)"),
    ("duplicate-bounds", _built(_LIN, _append_copy("bounds", 0)),
     "$.bounds[3]: duplicate bounds for pair (0, 1)"),
    ("operator-off-grid", _built("fix_refine.json", _put(lambda d: d, "grid", [0, 2])),
     "$.operators[0]: pair (0, 1) is not an increasing pair on grid [0, 2]"),
    ("operator-decreasing", _built(_LIN, _put(lambda d: d["operators"][1], "to", 1)),
     "$.operators[1]: pair (1, 1) is not an increasing pair on grid [0, 1, 2]"),
    ("bounds-off-grid", _built(_LIN, _put(_bounds(2), "from", 2)),
     "$.bounds[2]: pair (2, 2) is not an increasing pair on grid [0, 1, 2]"),
    ("bounds-crossed", _built("fix_a.json", lambda d: d["bounds"][0].update(m0=2.0, M0=0.5)),
     "$.bounds[0]: m0 must not exceed M0"),
    ("subsystem-operator", _then(_built(_LIN, lambda d: None), lambda sc: sc.subsystem([0, 2])),
     "$.operators: sub-grid [0, 2] needs an operator for pair (0, 2)"),
    ("subsystem-bounds",
     _then(_built("fix_refine.json", _drop_bounds(0, 2)), lambda sc: sc.subsystem([0, 2])),
     "$.bounds: sub-grid [0, 2] needs bounds for pair (0, 2)"),
    ("subsystem-grid", _then(_built(_LIN, lambda d: None), lambda sc: sc.subsystem([0, 1])),
     "$.tasks: grid must contain the first and last level"),
]


@pytest.mark.parametrize("call,message", [c[1:] for c in READER_ERRORS],
                         ids=[c[0] for c in READER_ERRORS])
def test_reader_errors_name_their_path_and_message(call, message):
    with pytest.raises(ScenarioError) as exc:
        call()
    assert str(exc.value) == message
    assert exc.value.path == message.split(": ", 1)[0]
