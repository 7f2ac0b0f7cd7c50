"""Scenario files: one JSON document describing a space, a system and tasks.

The document format is fixed by the shipped JSON schema (version "1").
Vectors are arrays ordered by atom index; partitions are arrays of arrays of
atom indices; operators and bounds are tagged with their grid pair. Loading
validates against the schema first and then rebuilds the in-memory objects,
so every structural defect is reported with the JSON path that caused it.
Every vector read from the document is checked for measurability at its
declared level; the domain bases built from them are measurable by
construction and are not checked again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from .dynamic import GridError, OperatorSystem, SystemStructureError
from .operators import BoundPair, BoundsError, Piece, PolyhedralOperator
from .spaces import FilteredSpace, MeasurabilityError, RandomVariable, SpaceError
from .subspaces import full_space, span_closure

SCHEMA_VERSION = "1"

_SUITES = ("representation", "sandwich", "cocycle", "refine")


class ScenarioError(ValueError):
    """Input document rejected; ``path`` is the first failing JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _schema() -> dict:
    text = resources.files(__package__).joinpath(
        "schema/scenario.schema.json").read_text()
    return json.loads(text)


def _json_path(parts) -> str:
    out = "$"
    for part in parts:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out


def _plain_number(v) -> bool:
    return type(v) is int or type(v) is float


def _plain_vec(v) -> bool:
    return type(v) is list and len(v) > 0 and all(map(_plain_number, v))


# per shared definition of the schema's ``$defs``, a test that an instance
# plainly satisfies it; JSON true is a bool, which ``type(v) is int``
# rejects, as "number" does
_PLAIN = {
    "#/$defs/vec": _plain_vec,
    "#/$defs/numvec": lambda v: _plain_number(v) or _plain_vec(v),
    "#/$defs/level": lambda v: type(v) is int and v >= 0,
}
_stock_ref = jsonschema.Draft202012Validator.VALIDATORS["$ref"]


def _ref(validator, ref, instance, schema):
    """``$ref`` in one pass where the instance plainly satisfies its target;
    everything else, valid or not, goes to the stock keyword, so every error
    and its message stay as the stock validator gives them."""
    plain = _PLAIN.get(ref)
    if plain is None or not plain(instance):
        yield from _stock_ref(validator, ref, instance, schema)


_Validator = jsonschema.validators.extend(jsonschema.Draft202012Validator, {"$ref": _ref})


def _check_schema(doc) -> None:
    validator = _Validator(_schema())
    errors = sorted(validator.iter_errors(doc),
                    key=lambda e: ([str(p) for p in e.absolute_path], e.message))
    if errors:
        first = errors[0]
        raise ScenarioError(_json_path(list(first.absolute_path)), first.message)


def _expand(value, n: int, path: str) -> np.ndarray:
    """A scalar becomes a constant vector; a vector must have one entry per atom."""
    if isinstance(value, (int, float)):
        return np.full(n, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ScenarioError(path, f"expected {n} entries, got {arr.size}")
    return arr


def _rv(space: FilteredSpace, value, level: int, path: str) -> RandomVariable:
    """The document vector (or scalar) at ``path``, measurable at ``level``."""
    values = _expand(value, space.n_atoms, path)
    try:
        return space.rv(values, level)
    except (MeasurabilityError, ValueError) as err:
        raise ScenarioError(path, str(err)) from err


def _pair(item: dict, grid: list, path: str, declared: dict, what: str) -> tuple[int, int]:
    """The grid pair an operator or a bound pair is tagged with: increasing on
    ``grid`` and not yet in ``declared``."""
    s, t = int(item["from"]), int(item["to"])
    if s not in grid or t not in grid or s >= t:
        raise ScenarioError(path, f"pair ({s}, {t}) is not an increasing "
                                  f"pair on grid {grid}")
    if (s, t) in declared:
        raise ScenarioError(path, f"duplicate {what} for pair ({s}, {t})")
    return s, t


def _system(space: FilteredSpace, grid, ops: dict, bounds: dict,
            path: str) -> OperatorSystem:
    """The system on ``grid`` of operators declared for its pairs: those of
    adjacent pairs are its one-step operators, the others long ones."""
    adjacent = set(zip(grid, grid[1:]))
    try:
        return OperatorSystem(
            space, tuple(grid), bounds=bounds,
            one_step_ops={pair: op for pair, op in ops.items() if pair in adjacent},
            long_ops={pair: op for pair, op in ops.items() if pair not in adjacent})
    except (GridError, SystemStructureError) as err:
        raise ScenarioError(path, str(err)) from err


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed document: the space, the operator system, payoffs and tasks.

    ``raw`` keeps the document as loaded so reports can echo it verbatim.
    """

    raw: dict
    name: str
    space: FilteredSpace
    system: OperatorSystem
    payoffs: dict
    tasks: tuple

    def payoff(self, spec, level: int):
        """Resolve a named or inline payoff into (label, values-at-level).

        ``spec`` is either a key of the payoffs section or a vector over the
        finest atoms; the result is checked measurable at ``level``.
        """
        if isinstance(spec, str):
            if spec not in self.payoffs:
                raise ScenarioError("$.payoffs", f"unknown payoff {spec!r}")
            return spec, _rv(self.space, self.payoffs[spec], level,
                             f"$.payoffs.{spec}")
        return None, _rv(self.space, spec, level, "$.payoff")

    def subsystem(self, grid) -> OperatorSystem:
        """The declared system restricted to a sub-grid (for refinement runs).

        Every adjacent pair of the sub-grid must have a declared operator and
        every sub-grid pair a declared bound pair; the shared objects are
        reused so both systems agree on them by construction.
        """
        grid = tuple(int(g) for g in grid)
        declared = self.system.declared_ops()
        pairs = [(s, t) for i, s in enumerate(grid) for t in grid[i + 1:]]
        for s, t in zip(grid, grid[1:]):
            if (s, t) not in declared:
                raise ScenarioError(
                    "$.operators", f"sub-grid {list(grid)} needs an operator "
                    f"for pair ({s}, {t})")
        for s, t in pairs:
            if (s, t) not in self.system.bounds:
                raise ScenarioError(
                    "$.bounds", f"sub-grid {list(grid)} needs bounds "
                    f"for pair ({s}, {t})")
        ops = {pair: op for pair, op in declared.items() if pair in pairs}
        bounds = {pair: self.system.bounds[pair] for pair in pairs}
        return _system(self.space, grid, ops, bounds, "$.tasks")


def _build_space(block: dict) -> FilteredSpace:
    names = block.get("atoms")
    n = len(block["probs"])
    if names is not None and len(names) != n:
        raise ScenarioError("$.space.atoms",
                            f"expected {n} atom names, got {len(names)}")
    try:
        return FilteredSpace(np.asarray(block["probs"], dtype=float),
                             block["partitions"], block["times"])
    except SpaceError as err:
        raise ScenarioError("$.space", str(err)) from err


def build_scenario(doc: dict) -> Scenario:
    """Validate against the schema and rebuild the in-memory objects."""
    _check_schema(doc)
    space = _build_space(doc["space"])
    n = space.n_atoms

    grid = [int(g) for g in doc.get("grid", range(space.n_levels))]
    for i, g in enumerate(grid):
        if not 0 <= g < space.n_levels:
            raise ScenarioError(f"$.grid[{i}]", f"level {g} out of range")

    generators = {}
    for key, vecs in (doc.get("subspaces") or {}).items():
        lv = int(key)
        if not 0 <= lv < space.n_levels:
            raise ScenarioError(f"$.subspaces.{key}", f"level {lv} out of range")
        generators[lv] = [_rv(space, v, lv, f"$.subspaces.{key}[{i}]")
                          for i, v in enumerate(vecs)]

    ops = {}
    for i, item in enumerate(doc["operators"]):
        path = f"$.operators[{i}]"
        s, t = _pair(item, grid, path, ops, "operator")
        pieces = []
        for j, pc in enumerate(item["pieces"]):
            density = _rv(space, pc["density"], t, f"{path}.pieces[{j}].density")
            penalty = _rv(space, pc["penalty"], s, f"{path}.pieces[{j}].penalty")
            pieces.append(Piece(density, penalty))
        domain = (span_closure(space, t, s, generators[t]) if t in generators
                  else full_space(space, t, s))
        ops[(s, t)] = PolyhedralOperator(domain, tuple(pieces))

    bounds = {}
    for i, item in enumerate(doc["bounds"]):
        path = f"$.bounds[{i}]"
        s, t = _pair(item, grid, path, bounds, "bounds")
        try:
            if item["kind"] == "linear":
                m0 = _rv(space, item["m0"], t, f"{path}.m0")
                M0 = _rv(space, item["M0"], t, f"{path}.M0")
                bounds[(s, t)] = BoundPair.linear(space, t, s, m0, M0)
            else:
                mk = [_rv(space, v, t, f"{path}.m_kernels[{j}]")
                      for j, v in enumerate(item["m_kernels"])]
                Mk = [_rv(space, v, t, f"{path}.M_kernels[{j}]")
                      for j, v in enumerate(item["M_kernels"])]
                bounds[(s, t)] = BoundPair.polyhedral(space, t, s, mk, Mk)
        except BoundsError as err:
            raise ScenarioError(path, str(err)) from err

    system = _system(space, grid, ops, bounds, "$.grid")

    payoffs = {}
    for name, vec in (doc.get("payoffs") or {}).items():
        payoffs[name] = _expand(vec, n, f"$.payoffs.{name}")

    return Scenario(raw=doc, name=doc["name"], space=space, system=system,
                    payoffs=payoffs, tasks=tuple(doc.get("tasks") or ()))


def load_scenario(path) -> Scenario:
    """Read a JSON file and build the scenario it describes."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ScenarioError("$", f"not valid JSON: {err}") from err
    return build_scenario(doc)
