"""Command line front door: scenario files in, check and pricing reports out.

Every subcommand loads one scenario file, prints a table-formatted text
report on standard output and, when ``--output`` is given, writes the same
report as JSON. Numbers in reports are fixed at 10 significant digits and
all orderings are deterministic, so identical inputs produce byte-identical
report files. The environment variable SANDWICH_SEED (default 0) seeds every
sampled check.

Exit status: 0 when all executed checks pass, 1 when a check fails, 2 on a
schema or structural error (the message names the first failing JSON path,
or the pair and block of an infeasible density polytope), on a SANDWICH_SEED
that is not a nonnegative integer, a negative, infinite or NaN ``--tol``, an
unwritable ``--output`` file, or on a solver fault: an LP that came back
with a status its construction rules out (the message names the LP, pair,
block, piece and status), a malformed program or exceeded iteration cap
(``LpError``) or a singular basis (``LinAlgError``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache

import numpy as np

from .dynamic import (ExtendedSystem, SystemStructureError,
                      SystemValidationError, check_cocycle_and_local,
                      extend_system, price, refine_and_compare,
                      validate_system)
from .extension import verify_representation
from .lp import LpError, LpStatusError
from .operators import (PolytopeError, ValidationReport, check_sandwich,
                        validate_operator)
from .scenario import SCHEMA_VERSION, Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2

_N_COCYCLE_SAMPLES = 20


class _Fault(Exception):
    """Structural problem discovered while running; maps to exit status 2."""


class _ValidationStop(Exception):
    """System validation failed where a valid system was required."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("system validation failed")


def _fmt(x: float) -> str:
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.10g}"


def _num(x: float):
    """Canonical JSON value: ``_fmt``'s 10 significant digits, infinities as strings."""
    text = _fmt(x)
    return text if text.endswith("inf") else float(text)


def _vec(values) -> list:
    return [_num(v) for v in np.asarray(values, dtype=float)]


def _entry(name: str, passed: bool, note: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "note": note}


def _from_report(prefix: str, report) -> list:
    return [_entry(prefix + e.name, e.passed, e.detail) for e in report.entries]


# --------------------------------------------------------------------------
# section runners


def _section_validate(scenario: Scenario, report: ValidationReport) -> dict:
    """Per-operator axiom rows, then the rows of the system's validation."""
    entries = []
    declared = scenario.system.declared_ops()
    for (s, t) in sorted(declared):
        rep = validate_operator(declared[(s, t)])
        entries += _from_report(f"op_{s}_{t}.", rep)
    entries += _from_report("", report)
    return {"command": "validate", "entries": entries,
            "passed": all(e["passed"] for e in entries)}


def _pair_label(scenario: Scenario, err: PolytopeError) -> str:
    for s, t in scenario.system.adjacent_pairs:
        if s == err.level_a:
            return f"pair ({s}, {t})"
    return f"level {err.level_a}"


def _extend_or_stop(scenario: Scenario) -> ExtendedSystem:
    try:
        return extend_system(scenario.system)
    except SystemValidationError as err:
        raise _ValidationStop(err.report) from err
    except SystemStructureError as err:
        raise _Fault(str(err)) from err
    except PolytopeError as err:
        raise _Fault(f"{_pair_label(scenario, err)}: {err}") from err


def _section_extend(scenario: Scenario, ext: ExtendedSystem) -> dict:
    pairs = []
    for k, (s, t) in enumerate(scenario.system.adjacent_pairs):
        step = ext.step(k)
        blocks = [{"block": a, "segments": bp.n_f,
                   "variables": bp.n_vars}
                  for a, bp in enumerate(step.polytope.blocks)]
        pairs.append({"from": s, "to": t, "kind": step.bounds.kind,
                      "pieces": len(step.base.pieces),
                      "domain_dim": step.base.domain.dim, "blocks": blocks})
    return {"command": "extend", "pairs": pairs, "passed": True}


def _section_price(scenario: Scenario, ext: ExtendedSystem, s: int, t: int,
                   payoff_spec) -> dict:
    system = scenario.system
    if s not in system.grid or t not in system.grid or s >= t:
        raise _Fault(f"({s}, {t}) is not an increasing pair "
                     f"on grid {list(system.grid)}")
    try:
        name, X = scenario.payoff(payoff_spec, t)
    except ScenarioError as err:
        raise _Fault(str(err)) from err
    result = price(ext, s, t, X)
    by_block = result.value.values[scenario.space._layout[s].firsts]
    return {"command": "price", "from": s, "to": t, "payoff_name": name,
            "payoff": _vec(X.values), "value_by_block": _vec(by_block),
            "density": _vec(result.density.values),
            "penalty_by_block": _vec(result.penalty.by_block),
            "passed": True}


def _check_representation(scenario: Scenario, seed: int, tol) -> list:
    entries = []
    declared = scenario.system.declared_ops()
    for (s, t) in sorted(declared):
        rep = verify_representation(declared[(s, t)], seed=seed,
                                    tol=1e-7 if tol is None else tol)
        entries += _from_report(f"representation_{s}_{t}.", rep)
    return entries


def _check_sandwich(scenario: Scenario) -> list:
    entries = []
    declared = scenario.system.declared_ops()
    for (s, t) in sorted(declared):
        bp = scenario.system.bounds.get((s, t))
        if bp is None:
            raise _Fault(f"no bounds declared for pair ({s}, {t})")
        rep = check_sandwich(declared[(s, t)], bp)
        if rep.holds:
            note = "fast path" if rep.fast_path else "certified by block programs"
        else:
            note = (f"violated on block {rep.block}, piece {rep.piece}, "
                    f"gap {_fmt(rep.gap)}")
        entries.append(_entry(f"sandwich_{s}_{t}", rep.holds, note))
    return entries


def _check_cocycle(scenario: Scenario, ext: ExtendedSystem, seed: int) -> list:
    grid = scenario.system.grid
    triples = [(grid[i], grid[i + 1], grid[i + 2])
               for i in range(len(grid) - 2)]
    if not triples:
        return [_entry("cocycle_trivial_grid", True,
                       "grid has fewer than three levels")]
    entries = []
    for r, s, t in triples:
        rep = check_cocycle_and_local(ext, r, s, t,
                                      n_samples=_N_COCYCLE_SAMPLES, seed=seed)
        entries += _from_report(f"cocycle_{r}_{s}_{t}.", rep)
    return entries


def _check_refine(scenario: Scenario, seed: int, tol, coarse_grid,
                  ext_factory) -> dict:
    grid = scenario.system.grid
    if coarse_grid is None:
        coarse_grid = [grid[0], grid[-1]]
    try:
        sys_coarse = scenario.subsystem(coarse_grid)
    except ScenarioError as err:
        raise _Fault(str(err)) from err
    vtol = 1e-8 if tol is None else tol
    fine_ext = ext_factory()
    try:
        rr = refine_and_compare(sys_coarse, scenario.system, seed=seed,
                                value_tol=vtol, penalty_tol=vtol,
                                fine_ext=fine_ext)
    except SystemValidationError as err:
        raise _ValidationStop(err.report) from err
    except PolytopeError as err:
        raise _Fault(f"{_pair_label(scenario, err)}: {err}") from err
    except ValueError as err:
        raise _Fault(str(err)) from err
    entries = []
    witnessed = None
    for e in rr.report.entries:
        if e.name == "strict_decrease_witnessed":
            witnessed = {"witnessed": e.passed, "note": e.detail}
        else:
            entries.append(_entry(e.name, e.passed, e.detail))
    return {"command": "check", "suite": "refine",
            "coarse_grid": [int(g) for g in coarse_grid], "entries": entries,
            "strict_decrease": witnessed,
            "max_decrease": _num(rr.max_decrease),
            "passed": all(e["passed"] for e in entries)}


def _section_check(scenario: Scenario, suite: str, seed: int, tol,
                   coarse_grid, ext_factory) -> dict:
    if suite == "refine":
        return _check_refine(scenario, seed, tol, coarse_grid, ext_factory)
    if suite == "representation":
        entries = _check_representation(scenario, seed, tol)
    elif suite == "sandwich":
        entries = _check_sandwich(scenario)
    else:
        entries = _check_cocycle(scenario, ext_factory(), seed)
    return {"command": "check", "suite": suite, "entries": entries,
            "passed": all(e["passed"] for e in entries)}


_SKIPPED_NOTE = "system validation failed; dependent sections skipped"


def _failed_validation_section(report: ValidationReport) -> dict:
    entries = _from_report("", report)
    return {"command": "validate", "entries": entries, "passed": False,
            "note": _SKIPPED_NOTE}


# --------------------------------------------------------------------------
# task orchestration


def _coarse_grid_from_tasks(scenario: Scenario):
    for task in scenario.tasks:
        if task.get("command") == "check" and task.get("suite") == "refine" \
                and "coarse_grid" in task:
            return task["coarse_grid"]
    return None


def _run_command(args, scenario: Scenario, seed: int) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "scenario_name": scenario.name,
           "seed": seed, "command": args.command}
    ext_box = {}

    def ext_factory() -> ExtendedSystem:
        if "ext" not in ext_box:
            ext_box["ext"] = _extend_or_stop(scenario)
        return ext_box["ext"]

    sections = []
    try:
        if args.command == "validate":
            try:
                report = validate_system(scenario.system)
            except SystemStructureError as err:
                raise _Fault(str(err)) from err
            sections.append(_section_validate(scenario, report))
        elif args.command == "extend":
            sections.append(_section_extend(scenario, ext_factory()))
        elif args.command == "price":
            sections.append(_section_price(scenario, ext_factory(),
                                           args.from_level, args.to_level,
                                           _parse_payoff(args.payoff)))
        elif args.command == "check":
            coarse = _coarse_grid_from_tasks(scenario)
            sections.append(_section_check(scenario, args.suite, seed,
                                           args.tol, coarse, ext_factory))
        else:
            sections += _report_sections(scenario, seed, args.tol, ext_factory)
            doc["scenario"] = scenario.raw
    except _ValidationStop as stop:
        sections.append(_failed_validation_section(stop.report))
    doc["sections"] = sections
    doc["passed"] = all(sec["passed"] for sec in sections)
    return doc


def _report_sections(scenario: Scenario, seed: int, tol, ext_factory) -> list:
    """Validate and extend once; the validate section shows that validation."""
    try:
        ext = ext_factory()
    except _ValidationStop as stop:
        section = _section_validate(scenario, stop.report)
        section["note"] = _SKIPPED_NOTE
        return [section]
    sections = [_section_validate(scenario, ext.report),
                _section_extend(scenario, ext)]
    for task in scenario.tasks:
        cmd = task.get("command")
        if cmd == "price":
            sections.append(_section_price(scenario, ext_factory(),
                                           int(task["from"]), int(task["to"]),
                                           task["payoff"]))
        elif cmd == "check":
            sections.append(_section_check(scenario, task["suite"], seed, tol,
                                           task.get("coarse_grid"),
                                           ext_factory))
    return sections


def _parse_payoff(text: str):
    """A --payoff flag is a JSON array, a comma-separated vector, or a name."""
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        parsed = None
    if isinstance(parsed, list):
        return parsed
    if "," in text:
        try:
            return [float(part) for part in text.split(",")]
        except ValueError:
            pass
    return text


# --------------------------------------------------------------------------
# text rendering


def _table(headers, rows) -> list:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            for row in cells]


def _entry_rows(entries) -> list:
    return [["pass" if e["passed"] else "FAIL", e["name"], e["note"]]
            for e in entries]


def _render(doc: dict) -> str:
    lines = [f"scenario {doc['scenario_name']} "
             f"(schema {doc['schema_version']}, seed {doc['seed']})"]
    for sec in doc["sections"]:
        lines.append("")
        if sec["command"] == "validate":
            lines.append("== validate ==")
            lines += _table(["status", "check", "note"],
                            _entry_rows(sec["entries"]))
            if "note" in sec:
                lines.append(sec["note"])
        elif sec["command"] == "extend":
            lines.append("== extend ==")
            rows = [[f"({p['from']}, {p['to']})", p["kind"], p["pieces"],
                     p["domain_dim"],
                     " ".join(str(b["segments"]) for b in p["blocks"])]
                    for p in sec["pairs"]]
            lines += _table(["pair", "bounds", "pieces", "dim",
                             "segments/block"], rows)
        elif sec["command"] == "price":
            label = sec["payoff_name"] or "inline"
            lines.append(f"== price ({sec['from']} -> {sec['to']}), "
                         f"payoff {label} ==")
            rows = [[b, _fmt(v), _fmt(a)] for b, (v, a) in
                    enumerate(zip(sec["value_by_block"],
                                  sec["penalty_by_block"]))]
            lines += _table(["block", "value", "penalty"], rows)
            lines.append("density  " + " ".join(_fmt(v)
                                                for v in sec["density"]))
        else:
            lines.append(f"== check {sec['suite']} ==")
            lines += _table(["status", "check", "note"],
                            _entry_rows(sec["entries"]))
            if sec.get("strict_decrease") is not None:
                sd = sec["strict_decrease"]
                tag = "yes" if sd["witnessed"] else "no"
                lines.append(f"strict decrease witnessed: {tag} ({sd['note']})")
    lines.append("")
    lines.append(f"result: {'pass' if doc['passed'] else 'FAIL'}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# entry point


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="sandwich",
        description="Validate, extend and price operator scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="scenario JSON file")
        p.add_argument("--output", help="write the JSON report here")
        p.add_argument("--tol", type=float, default=None,
                       help="override comparison tolerance for check suites")

    common(sub.add_parser("validate", help="run all structural checks"))
    common(sub.add_parser("extend", help="build the maximal extensions"))
    p_price = sub.add_parser("price", help="price a payoff between two levels")
    common(p_price)
    p_price.add_argument("--from", dest="from_level", type=int, required=True)
    p_price.add_argument("--to", dest="to_level", type=int, required=True)
    p_price.add_argument("--payoff", required=True,
                         help="payoff name from the file or an inline vector")
    p_check = sub.add_parser("check", help="run one invariant suite")
    common(p_check)
    p_check.add_argument("--suite", required=True,
                         choices=["representation", "sandwich", "cocycle",
                                  "refine"])
    common(sub.add_parser("report", help="run every task into one document"))
    return parser


def _seed() -> int:
    """The SANDWICH_SEED environment variable, a nonnegative integer (default 0)."""
    text = os.environ.get("SANDWICH_SEED") or "0"
    if not text.strip().isdecimal():
        raise _Fault(f"SANDWICH_SEED must be a nonnegative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        seed = _seed()
        if args.tol is not None and not 0.0 <= args.tol < math.inf:
            raise _Fault(f"--tol must be a finite nonnegative number, got {args.tol}")
        scenario = load_scenario(args.input)
        doc = _run_command(args, scenario, seed)
    except (_Fault, ScenarioError, OSError) as err:
        print(f"sandwich: input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (LpStatusError, LpError, np.linalg.LinAlgError) as err:
        print(f"sandwich: solver error: {err}", file=sys.stderr)
        return EXIT_INPUT
    print(_render(doc))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        except OSError as err:
            print(f"sandwich: output error: {err}", file=sys.stderr)
            return EXIT_INPUT
    return EXIT_OK if doc["passed"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
