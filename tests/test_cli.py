import importlib.metadata
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sandwichext
import sandwichext.cli
import sandwichext.extension
import sandwichext.operators
from conftest import ROOT, fixture_path
from sandwichext import (CheckEntry, LpResult, PolytopeError, ValidationReport,
                         load_scenario)
from sandwichext.lp import LpError
from sandwichext.cli import _pair_label, main

FIXTURES = ["fix_a.json", "fix_b.json", "fix_c_linear.json",
            "fix_c_restricted.json", "fix_refine.json"]

VALUE_TOL = 1e-9


def load_doc(name: str) -> dict:
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_doc(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def run_to_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    rc = main(args + ["--output", str(out)])
    return rc, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", FIXTURES)
def test_report_passes_on_every_fixture(name, capsys):
    rc = main(["report", "--input", str(fixture_path(name))])
    captured = capsys.readouterr()
    assert rc == 0
    assert "result: pass" in captured.out


@pytest.mark.parametrize("name", FIXTURES)
def test_report_matches_golden_bytes(name, tmp_path, monkeypatch, capsys):
    # tests/golden holds each fixture's report written with SANDWICH_SEED=0;
    # a refactor that keeps the numbers keeps every byte
    monkeypatch.setenv("SANDWICH_SEED", "0")
    out = tmp_path / "report.json"
    assert main(["report", "--input", str(fixture_path(name)),
                 "--output", str(out)]) == 0
    capsys.readouterr()
    golden = ROOT / "tests" / "golden" / name.replace(".json", ".report.json")
    assert out.read_bytes() == golden.read_bytes()


def test_polyhedral_report_matches_golden_bytes(tmp_path, monkeypatch, capsys):
    # every fixture has linear bounds; this generated scenario (bench/treegen
    # Shape(2, 3, "polyhedral", long_unit=True) at seed 10, with the
    # benchmark's seven report tasks) covers the polyhedral membership LPs
    monkeypatch.setenv("SANDWICH_SEED", "0")
    golden = ROOT / "tests" / "golden"
    out = tmp_path / "report.json"
    assert main(["report", "--input", str(golden / "polyhedral_tree.json"),
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (golden / "polyhedral_tree.report.json").read_bytes()


@pytest.mark.parametrize("name", ["fix_b.json", "fix_refine.json"])
def test_report_bytes_are_reproducible(name, tmp_path, capsys):
    path = str(fixture_path(name))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["report", "--input", path, "--output", str(out1)]) == 0
    assert main(["report", "--input", path, "--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text(encoding="utf-8"))
    assert doc["schema_version"] == "1"
    assert doc["passed"] is True
    assert doc["scenario"] == load_doc(name)
    assert [s["command"] for s in doc["sections"][:2]] == ["validate", "extend"]


def test_price_accepts_names_vectors_and_csv(tmp_path, capsys):
    path = str(fixture_path("fix_c_linear.json"))
    base = ["price", "--input", path, "--from", "0", "--to", "2", "--payoff"]
    rc1, d1 = run_to_json(base + ["unit_uu"], tmp_path, "n.json")
    rc2, d2 = run_to_json(base + ["[1, 0, 0, 0]"], tmp_path, "v.json")
    rc3, d3 = run_to_json(base + ["1,0,0,0"], tmp_path, "c.json")
    capsys.readouterr()
    assert rc1 == rc2 == rc3 == 0
    s1, s2, s3 = d1["sections"][0], d2["sections"][0], d3["sections"][0]
    assert s1["payoff_name"] == "unit_uu"
    assert s2["payoff_name"] is None
    assert s1["value_by_block"] == s2["value_by_block"] == s3["value_by_block"]
    # full domains pin the unit density: the price is the plain expectation
    assert s1["value_by_block"][0] == pytest.approx(0.25, abs=VALUE_TOL)
    assert s1["density"] == [1.0, 1.0, 1.0, 1.0]
    assert s1["penalty_by_block"] == [0.0]


def test_price_frozen_fixture_values(tmp_path, capsys):
    rc, doc = run_to_json(
        ["price", "--input", str(fixture_path("fix_b.json")),
         "--from", "0", "--to", "1", "--payoff", "unit_first"],
        tmp_path, "b.json")
    capsys.readouterr()
    assert rc == 0
    sec = doc["sections"][0]
    assert sec["value_by_block"][0] == pytest.approx(1.25 / 3.0, abs=1e-9)

    rc, doc = run_to_json(
        ["price", "--input", str(fixture_path("fix_c_restricted.json")),
         "--from", "0", "--to", "2", "--payoff", "target"],
        tmp_path, "c.json")
    capsys.readouterr()
    assert rc == 0
    sec = doc["sections"][0]
    assert sec["value_by_block"][0] == pytest.approx(0.98125, abs=1e-9)


def test_extend_section_reports_block_programs(tmp_path, capsys):
    rc, doc = run_to_json(["extend", "--input", str(fixture_path("fix_b.json"))],
                          tmp_path)
    capsys.readouterr()
    assert rc == 0
    pair = doc["sections"][0]["pairs"][0]
    assert (pair["from"], pair["to"]) == (0, 1)
    assert pair["pieces"] == 1 and pair["domain_dim"] == 2
    assert pair["blocks"][0]["segments"] == 3


@pytest.mark.parametrize("name,suite", [
    ("fix_b.json", "representation"),
    ("fix_a.json", "sandwich"),
    ("fix_c_restricted.json", "cocycle"),
    ("fix_refine.json", "refine"),
])
def test_check_suites_pass_on_fixtures(name, suite, tmp_path, capsys):
    rc, doc = run_to_json(
        ["check", "--input", str(fixture_path(name)), "--suite", suite],
        tmp_path)
    capsys.readouterr()
    assert rc == 0
    sec = doc["sections"][0]
    assert sec["suite"] == suite and sec["passed"] is True
    if suite == "refine":
        assert sec["strict_decrease"]["witnessed"] is True
        assert sec["max_decrease"] > 0


def test_schema_and_io_errors_exit_2(tmp_path, capsys):
    doc = load_doc("fix_a.json")
    doc["schema_version"] = "2"
    rc = main(["validate", "--input", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "$.schema_version" in captured.err

    bad = tmp_path / "broken.json"
    bad.write_text("{oops", encoding="utf-8")
    rc = main(["validate", "--input", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2 and "input error" in captured.err

    rc = main(["validate", "--input", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert rc == 2 and "input error" in captured.err


def test_failing_axiom_exits_1_with_fail_rows(tmp_path, capsys):
    doc = load_doc("fix_a.json")
    doc["operators"][0]["pieces"][0]["density"] = -1.0
    path = write_doc(tmp_path, doc)
    rc = main(["validate", "--input", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in captured.out
    assert "op_0_1.densities_nonnegative" in captured.out

    rc = main(["report", "--input", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert "dependent sections skipped" in captured.out
    assert "result: FAIL" in captured.out


def _count_validations(monkeypatch) -> list:
    calls = []
    real = sandwichext.validate_system

    def counted(system):
        calls.append(system)
        return real(system)

    monkeypatch.setattr("sandwichext.dynamic.validate_system", counted)
    monkeypatch.setattr("sandwichext.cli.validate_system", counted)
    return calls


def test_report_validates_the_declared_system_once(monkeypatch, capsys):
    calls = _count_validations(monkeypatch)
    # fix_a has no refine task, so nothing else extends a system
    assert main(["report", "--input", str(fixture_path("fix_a.json"))]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_refine_report_reuses_the_report_extension(monkeypatch, capsys):
    calls = _count_validations(monkeypatch)
    assert main(["report", "--input", str(fixture_path("fix_refine.json"))]) == 0
    capsys.readouterr()
    # the declared system once, the refine task's coarse subsystem once
    assert len(calls) == 2
    assert calls[1] is not calls[0]


def test_failing_validation_report_keeps_operator_rows(tmp_path, capsys):
    doc = load_doc("fix_a.json")
    doc["operators"][0]["pieces"][0]["density"] = -1.0
    path = write_doc(tmp_path, doc)
    rc, validated = run_to_json(["validate", "--input", path], tmp_path, "v.json")
    assert rc == 1
    rc, reported = run_to_json(["report", "--input", path], tmp_path, "r.json")
    capsys.readouterr()
    assert rc == 1 and reported["passed"] is False
    [section] = reported["sections"]
    assert section["passed"] is False
    assert section["note"] == "system validation failed; dependent sections skipped"
    # the same op_* and system rows the validate command prints
    assert section["entries"] == validated["sections"][0]["entries"]
    rows = {e["name"]: e["passed"] for e in section["entries"]}
    assert rows["op_0_1.densities_nonnegative"] is False
    assert rows["operator_axioms_0_1"] is False


SKIPPED_NOTE = "system validation failed; dependent sections skipped"


def _with_skipped_note(validate_out: str) -> str:
    """``validate``'s text with the skipped note under its table."""
    return validate_out.replace("\n\nresult: FAIL", f"\n{SKIPPED_NOTE}\n\nresult: FAIL")


@pytest.mark.parametrize("command", [
    ["extend"],
    ["price", "--from", "0", "--to", "1", "--payoff", "up2"],
    ["check", "--suite", "cocycle"],
], ids=["extend", "price", "check-cocycle"])
def test_failed_validation_prints_the_validate_rows(command, tmp_path, capsys):
    doc = load_doc("fix_a.json")
    doc["operators"][0]["pieces"][0]["density"] = -1.0
    path = write_doc(tmp_path, doc)
    rc, validated = run_to_json(["validate", "--input", path], tmp_path, "v.json")
    validate_out = capsys.readouterr().out
    assert rc == 1
    rc, stopped = run_to_json([command[0], "--input", path, *command[1:]],
                              tmp_path, "c.json")
    out = capsys.readouterr().out
    assert rc == 1 and stopped["passed"] is False
    assert stopped["sections"] == [{**validated["sections"][0], "note": SKIPPED_NOTE}]
    assert out == _with_skipped_note(validate_out)


def _fail_validation_on_grid(monkeypatch, grid):
    """Validation of any system on ``grid`` gains one failing entry."""
    real = sandwichext.validate_system

    def failing(system):
        rep = real(system)
        if system.grid != grid:
            return rep
        return ValidationReport(rep.entries + (CheckEntry("forced", False, "on purpose"),))

    monkeypatch.setattr("sandwichext.dynamic.validate_system", failing)
    monkeypatch.setattr("sandwichext.cli.validate_system", failing)


def test_failed_coarse_validation_prints_the_coarse_systems_rows(tmp_path, capsys,
                                                                 monkeypatch):
    # a coarse subsystem of a valid scenario runs a subset of its checks and
    # so passes; one forced failure on the coarse grid (0, 2) reaches the
    # refine task's stop, which prints the rows ``validate`` prints for a
    # scenario declared on that grid alone
    _fail_validation_on_grid(monkeypatch, (0, 2))
    coarse = load_doc("fix_refine.json")
    coarse["grid"] = [0, 2]
    for key in ("operators", "bounds"):
        coarse[key] = [x for x in coarse[key] if (x["from"], x["to"]) == (0, 2)]
    coarse["tasks"] = []
    rc, validated = run_to_json(["validate", "--input", write_doc(tmp_path, coarse)],
                                tmp_path, "v.json")
    validate_out = capsys.readouterr().out
    assert rc == 1
    expected = [{**validated["sections"][0], "note": SKIPPED_NOTE}]
    assert {e["name"].split(".")[0] for e in expected[0]["entries"]
            if e["name"].startswith("op_")} == {"op_0_2"}

    path = str(fixture_path("fix_refine.json"))
    rc, checked = run_to_json(["check", "--input", path, "--suite", "refine"],
                              tmp_path, "c.json")
    assert capsys.readouterr().out == _with_skipped_note(validate_out)
    assert rc == 1 and checked["sections"] == expected
    rc, reported = run_to_json(["report", "--input", path], tmp_path, "r.json")
    assert capsys.readouterr().out == _with_skipped_note(validate_out)
    assert rc == 1 and reported["sections"] == expected
    assert reported["scenario"] == load_doc("fix_refine.json")


def test_refine_without_a_coarse_grid_uses_the_end_levels(tmp_path, capsys):
    doc = load_doc("fix_refine.json")
    doc["tasks"] = [t for t in doc["tasks"] if t.get("suite") != "refine"]
    rc, fallback = run_to_json(["check", "--input", write_doc(tmp_path, doc),
                                "--suite", "refine"], tmp_path, "f.json")
    # fix_refine's refine task declares the same (0, 2) coarse grid
    rc2, declared = run_to_json(["check", "--input", str(fixture_path("fix_refine.json")),
                                 "--suite", "refine"], tmp_path, "d.json")
    capsys.readouterr()
    assert rc == rc2 == 0
    assert fallback["sections"][0]["coarse_grid"] == [0, 2]
    assert fallback["sections"] == declared["sections"]


def test_sandwich_violation_reports_witness(tmp_path, capsys):
    doc = load_doc("fix_a.json")
    doc["bounds"][0]["M0"] = 1.2  # the tilted piece peaks at 1.5
    rc = main(["check", "--input", write_doc(tmp_path, doc),
               "--suite", "sandwich"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "violated on block" in captured.out


def test_missing_long_bounds_exit_2(tmp_path, capsys):
    doc = load_doc("fix_c_linear.json")
    doc["bounds"] = [b for b in doc["bounds"]
                     if (b["from"], b["to"]) != (0, 2)]
    rc = main(["validate", "--input", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "missing operators or bounds" in captured.err


def test_bad_price_requests_exit_2(capsys):
    path = str(fixture_path("fix_a.json"))
    rc = main(["price", "--input", path, "--from", "1", "--to", "1",
               "--payoff", "up2"])
    captured = capsys.readouterr()
    assert rc == 2 and "increasing pair" in captured.err
    rc = main(["price", "--input", path, "--from", "0", "--to", "1",
               "--payoff", "no_such"])
    captured = capsys.readouterr()
    assert rc == 2 and "unknown payoff" in captured.err


def test_lp_status_failure_exits_2_with_its_message(capsys, monkeypatch):
    # a block program LP that comes back infeasible is reported by name,
    # pair, block and status on stderr, without a traceback
    solve_lp = sandwichext.extension.solve_lp

    def block_programs_fail(lp, warm=False):
        return LpResult("infeasible", math.nan) if warm else solve_lp(lp)

    monkeypatch.setattr(sandwichext.extension, "solve_lp", block_programs_fail)
    rc = main(["price", "--input", str(fixture_path("fix_a.json")), "--from", "0",
               "--to", "1", "--payoff", "up2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "sandwich: solver error: pair (0, 1): extension block program on block 0 "
        "of level 0 came back infeasible; the sandwich precondition should rule "
        "this out\n")


@pytest.mark.parametrize("error", [LpError("simplex iteration cap exceeded"),
                                   np.linalg.LinAlgError("Singular matrix")])
def test_raw_solver_faults_exit_2_with_one_line(error, capsys, monkeypatch):
    # a raw LP or linear-algebra fault, here out of the dominance LP that
    # loading the polyhedral bounds solves, ends in one line on stderr that
    # names the LP, its pair and block, and the error class
    def fails(lp, warm=False):
        raise error

    monkeypatch.setattr(sandwichext.operators, "solve_lp", fails)
    rc = main(["report", "--input", str(ROOT / "tests" / "golden" / "polyhedral_tree.json")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "sandwich: solver error: pair (0, 1): dominance LP on block 0 of level 0 came back "
        f"{type(error).__name__}; {error}\n")


@pytest.mark.parametrize("error", [LpError("simplex iteration cap exceeded"),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=["LpError", "LinAlgError"])
def test_conjugate_solver_faults_exit_2_naming_pair_and_block(error, capsys, monkeypatch):
    # a raw fault out of a conjugate LP (the only extension LPs with no
    # equality rows and every variable free) names its LP, pair and block
    solve_lp = sandwichext.extension.solve_lp

    def conjugates_fail(lp, warm=False):
        if lp.a_eq is None and all(b == (-math.inf, math.inf) for b in lp.bounds):
            raise error
        return solve_lp(lp, warm=warm)

    monkeypatch.setattr(sandwichext.extension, "solve_lp", conjugates_fail)
    rc = main(["report", "--input", str(ROOT / "tests" / "golden" / "polyhedral_tree.json")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert re.fullmatch(rf"sandwich: solver error: pair \(\d+, \d+\): conjugate LP on block "
                        rf"\d+ of level \d+ came back {type(error).__name__}; {error}\n",
                        captured.err)


@pytest.mark.parametrize("error", [LpError("simplex iteration cap exceeded"),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=["LpError", "LinAlgError"])
def test_block_program_solver_faults_exit_2_naming_pair_and_block(error, capsys, monkeypatch):
    # a raw fault out of a block program, the extension's one warm LP, names
    # its LP, pair, block and error class
    solve_lp = sandwichext.extension.solve_lp

    def block_programs_fail(lp, warm=False):
        if warm:
            raise error
        return solve_lp(lp)

    monkeypatch.setattr(sandwichext.extension, "solve_lp", block_programs_fail)
    rc = main(["price", "--input", str(fixture_path("fix_a.json")), "--from", "0",
               "--to", "1", "--payoff", "up2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "sandwich: solver error: pair (0, 1): extension block program on block 0 of "
        f"level 0 came back {type(error).__name__}; {error}\n")


def test_skewed_mass_scenario_gets_a_passing_report(tmp_path, capsys):
    # every second of 8 atoms has 1e-9 of its sibling's mass, so a basis
    # reduced atom by atom would vary by a few 1e-12 inside a level-1 block;
    # the domain bases are measurable by construction and the valid
    # scenario gets its report
    probs = np.tile([1.0, 1e-9], 4)
    doc = {"schema_version": "1", "name": "skewed",
           "space": {"probs": list(probs / probs.sum()),
                     "partitions": [[list(range(8))], [[0, 1, 2, 3], [4, 5, 6, 7]],
                                    [[w] for w in range(8)]],
                     "times": [0.0, 1.0, 2.0]},
           "grid": [0, 1, 2],
           "operators": [{"from": s, "to": s + 1,
                          "pieces": [{"density": 1.0, "penalty": 0.0}]} for s in (0, 1)],
           "bounds": [{"from": 0, "to": 1, "kind": "linear", "m0": 0.5, "M0": 1.5},
                      {"from": 1, "to": 2, "kind": "linear", "m0": 0.5, "M0": 1.5},
                      {"from": 0, "to": 2, "kind": "linear", "m0": 0.25, "M0": 2.25}],
           "tasks": [{"command": "validate"}]}
    rc, report = run_to_json(["report", "--input", write_doc(tmp_path, doc)], tmp_path)
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert report["passed"]
    assert "mM1_minorant_weakly_consistent" in captured.out


def test_seed_env_controls_sampled_checks(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SANDWICH_SEED", "17")
    rc, doc = run_to_json(
        ["report", "--input", str(fixture_path("fix_b.json"))], tmp_path)
    captured = capsys.readouterr()
    assert rc == 0
    assert doc["seed"] == 17
    assert "seed 17" in captured.out


def declared_console_script(name: str) -> importlib.metadata.EntryPoint:
    """The console script `name` as `[project.scripts]` in pyproject.toml
    declares it."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return importlib.metadata.EntryPoint(
        name=name, value=scripts[name], group="console_scripts")


def write_console_script(bin_dir, ep: importlib.metadata.EntryPoint):
    """Write the wrapper an installer generates for a console-script entry
    point into `bin_dir` and return its path."""
    script = bin_dir / ep.name
    script.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({ep.attr}())\n",
        encoding="utf-8")
    script.chmod(0o755)
    return script


def test_console_script_is_installed(tmp_path):
    declared = declared_console_script("sandwich")
    assert callable(declared.load())
    try:
        dist = importlib.metadata.distribution("sandwichext")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is not None:
        # an installed copy must carry the declared entry point
        installed = {ep.name: ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts"}
        assert installed.get("sandwich") == declared.value, \
            "installed console script differs from pyproject.toml"
        env = None
        exe = shutil.which("sandwich")
    else:
        # running from source: generate the installer's wrapper and run the
        # package from where this test imported it
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        write_console_script(bin_dir, declared)
        src = pathlib.Path(sandwichext.__file__).resolve().parents[1]
        env = dict(os.environ)
        for var, first in (("PATH", bin_dir), ("PYTHONPATH", src)):
            env[var] = os.pathsep.join(filter(None, [str(first),
                                                     env.get(var)]))
        exe = shutil.which("sandwich", path=env["PATH"])
    assert exe, "console script not on PATH"
    proc = subprocess.run(
        [exe, "validate", "--input", str(fixture_path("fix_a.json"))],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout


def test_polytope_faults_name_the_pair():
    # an empty step polytope cannot get past the sandwich check, so this
    # label only ever decorates defensive faults; pin its format anyway
    sc = load_scenario(fixture_path("fix_c_linear.json"))
    assert _pair_label(sc, PolytopeError("empty", level_a=1, block=0)) \
        == "pair (1, 2)"
    assert _pair_label(sc, PolytopeError("empty", level_a=2, block=0)) \
        == "level 2"


@pytest.mark.parametrize("value", ["abc", "-5"])
@pytest.mark.parametrize("args", [
    ["report", "--input", str(fixture_path("fix_b.json"))],
    ["check", "--input", str(fixture_path("fix_c_linear.json")), "--suite", "cocycle"],
    ["check", "--input", str(fixture_path("fix_a.json")), "--suite", "representation"],
], ids=["report", "cocycle", "representation"])
def test_bad_seed_env_exits_2_naming_the_variable(value, args, capsys, monkeypatch):
    monkeypatch.setenv("SANDWICH_SEED", value)
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("sandwich: input error: SANDWICH_SEED must be a "
                            f"nonnegative integer, got {value!r}\n")


def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    rc = main(["report", "--input", str(fixture_path("fix_a.json")), "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and not out.exists()
    assert captured.err.startswith("sandwich: output error: ")
    assert captured.err.count("\n") == 1 and str(out) in captured.err


@pytest.mark.parametrize("tol", ["-1e-9", "nan", "inf"])
def test_negative_or_nan_tol_exits_2_naming_it(tol, capsys):
    rc = main(["check", "--input", str(fixture_path("fix_a.json")),
               "--suite", "representation", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (f"sandwich: input error: --tol must be a finite nonnegative "
                            f"number, got {float(tol)}\n")


def test_zero_tol_reaches_the_checks(capsys, monkeypatch):
    # --tol 0 is a tolerance of zero, not a request for the defaults
    cli = sandwichext.cli
    seen = []

    def recording(check, key):
        def run(*args, **kwargs):
            seen.append((check.__name__, kwargs[key]))
            return check(*args, **kwargs)
        return run

    monkeypatch.setattr(cli, "verify_representation",
                        recording(cli.verify_representation, "tol"))
    monkeypatch.setattr(cli, "refine_and_compare",
                        recording(cli.refine_and_compare, "value_tol"))
    for suite in ("representation", "refine"):
        main(["check", "--input", str(fixture_path("fix_refine.json")),
              "--suite", suite, "--tol", "0"])
    main(["check", "--input", str(fixture_path("fix_refine.json")), "--suite", "refine"])
    capsys.readouterr()
    assert seen == [("verify_representation", 0.0)] * 3 + [
        ("refine_and_compare", 0.0), ("refine_and_compare", 1e-8)]
