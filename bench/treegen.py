"""Seeded generator of operator systems on uniform b-ary trees.

A tree with branching ``b`` and ``T`` periods has ``b**T`` equally likely
atoms; level ``k`` groups them into ``b**k`` consecutive blocks. The grid is
every level, and every grid pair gets a bound pair.

* Step (t-1, t) has 1 + (t mod 3) pieces: every count from 1 to 3 appears
  once T >= 3, and the sizes of the LPs do not depend on the seed, only the
  numbers in them do. A piece density is ``b`` times a Dirichlet(8) draw of
  segment weights on every level t-1 block, redrawn until it lies strictly
  inside the one-step bound box. Penalties are
  exponential draws shifted per block so that the smallest is exactly zero.
* Bounds widen geometrically with the pair length L. Minorant kernels take
  per-segment values in [1.5 r**L, 2.25 r**L] and majorant kernels in
  [0.5 R**L, 0.7 R**L]. Because 1.5**2 >= 2.25 and 0.7**2 <= 0.5, the
  composed bounds of any two shorter pairs dominate the longer pair, which is
  what ``check_mM1`` requires. Linear pairs carry one kernel per side,
  polyhedral pairs two.
* The step into level t > 1 has the domain ``span_closure`` of one random
  level-t generator; the first step's domain is the whole level-1 space.
* Optionally a long (0, T) operator with the single unit piece (density 1,
  penalty 0) on the span of the constants and the level-T generator, which
  is the domain the scenario format gives that pair.

``generate`` returns plain arrays; ``build_system`` turns them into library
objects and ``scenario_doc`` into a scenario JSON document that the CLI
loads into the same system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIRICHLET_ALPHA = 8.0
PENALTY_SCALE = 0.05
R_LO = 0.2
R_HI = 6.0
MAX_ATTEMPTS = 20


@dataclass(frozen=True)
class Shape:
    b: int
    T: int
    bounds: str                 # "linear" | "polyhedral"
    long_unit: bool = False

    @property
    def n_atoms(self) -> int:
        return self.b ** self.T


def _minorant_range(L: int) -> tuple[float, float]:
    return 1.5 * R_LO ** L, 2.25 * R_LO ** L


def _majorant_range(L: int) -> tuple[float, float]:
    return 0.5 * R_HI ** L, 0.7 * R_HI ** L


def _expand(per_block: np.ndarray, n_atoms: int) -> np.ndarray:
    return np.repeat(per_block, n_atoms // per_block.size)


def generate(shape: Shape, seed: int, attempt: int = 0) -> dict:
    """All arrays of one system, drawn from ``seed`` and ``attempt``."""
    rng = np.random.default_rng([seed, attempt])
    b, T, n = shape.b, shape.T, shape.n_atoms
    spec = {
        "shape": shape,
        "probs": np.full(n, 1.0 / n),
        "partitions": [[list(range(k * n // b ** t, (k + 1) * n // b ** t))
                        for k in range(b ** t)] for t in range(T + 1)],
        "generators": {t: _expand(rng.normal(0.0, 1.0, b ** t), n)
                       for t in range(2, T + 1)},
        "operators": [],
        "bounds": [],
    }
    f_lo = _minorant_range(1)[1]
    f_hi = _majorant_range(1)[0]
    for t in range(1, T + 1):
        pieces = []
        for _ in range(1 + t % 3):
            dens = np.empty(b ** t)
            for k in range(b ** (t - 1)):
                while True:
                    w = b * rng.dirichlet(np.full(b, DIRICHLET_ALPHA))
                    if w.min() > f_lo and w.max() < f_hi:
                        break
                dens[k * b:(k + 1) * b] = w
            pieces.append([_expand(dens, n), None])
        raw = rng.exponential(PENALTY_SCALE, (len(pieces), b ** (t - 1)))
        raw -= raw.min(axis=0)
        for pc, pen in zip(pieces, raw):
            pc[1] = _expand(pen, n)
        spec["operators"].append({"from": t - 1, "to": t, "pieces": pieces})
    n_kernels = 1 if shape.bounds == "linear" else 2
    for s in range(T + 1):
        for t in range(s + 1, T + 1):
            L = t - s
            m = [_expand(rng.uniform(*_minorant_range(L), b ** t), n)
                 for _ in range(n_kernels)]
            M = [_expand(rng.uniform(*_majorant_range(L), b ** t), n)
                 for _ in range(n_kernels)]
            spec["bounds"].append({"from": s, "to": t, "m": m, "M": M})
    if shape.long_unit:
        spec["operators"].append({"from": 0, "to": T, "pieces": [
            [np.ones(n), np.zeros(n)]]})
    return spec


def build_system(sx, spec: dict):
    """The OperatorSystem the arrays describe; ``sx`` is the library module."""
    shape = spec["shape"]
    T = shape.T
    space = sx.FilteredSpace(spec["probs"], spec["partitions"],
                             [float(t) for t in range(T + 1)])
    gens = {t: [space.rv(g, t)] for t, g in spec["generators"].items()}
    one_step, long_ops = {}, {}
    for item in spec["operators"]:
        s, t = item["from"], item["to"]
        if t in gens:
            domain = sx.span_closure(space, t, s, gens[t])
        else:
            domain = sx.full_space(space, t, s)
        pieces = tuple(sx.Piece(space.rv(d, t), space.rv(p, s))
                       for d, p in item["pieces"])
        target = one_step if t == s + 1 else long_ops
        target[(s, t)] = sx.PolyhedralOperator(domain, pieces)
    bounds = {}
    for item in spec["bounds"]:
        s, t = item["from"], item["to"]
        m = [space.rv(v, t) for v in item["m"]]
        M = [space.rv(v, t) for v in item["M"]]
        if shape.bounds == "linear":
            bounds[(s, t)] = sx.BoundPair.linear(space, t, s, m[0], M[0])
        else:
            bounds[(s, t)] = sx.BoundPair.polyhedral(space, t, s, m, M)
    return sx.OperatorSystem(space, tuple(range(T + 1)), one_step_ops=one_step,
                             bounds=bounds, long_ops=long_ops)


def accepted_system(sx, shape: Shape, seed: int, usable=None):
    """The first draw for ``seed`` whose system ``validate_system`` accepts.

    A draw is redrawn (attempt 1, 2, ...) when building or validating it
    raises a numerical error, or when ``usable(spec)`` returns false. Two
    such errors occur on valid draws: the dense simplex hits a singular basis
    on some polyhedral sandwich LPs, and ``span_closure`` can return basis
    vectors that vary by a few 1e-12 inside a block, which ``FilteredSpace.rv``
    rejects as not measurable. The number of redrawn draws is returned so
    that the rejections stay visible. A draw that validates but fails a
    check is a generator bug and raises.
    Returns (spec, system, rejected draws).
    """
    from numpy.linalg import LinAlgError
    from sandwichext.lp import LpError
    for attempt in range(MAX_ATTEMPTS):
        spec = generate(shape, seed, attempt)
        try:
            system = build_system(sx, spec)
            report = sx.validate_system(system)
            if report.passed and usable is not None and not usable(spec):
                continue
        except (LinAlgError, LpError, sx.MeasurabilityError):
            continue
        if not report.passed:
            names = ", ".join(e.name for e in report.failures())
            raise AssertionError(f"generated system fails validation: {names}")
        return spec, system, attempt
    raise RuntimeError(f"no valid system in {MAX_ATTEMPTS} draws for seed {seed}")


def scenario_doc(spec: dict, name: str, tasks: list, payoffs_by_name: dict) -> dict:
    """The same system as a scenario document (schema version 1)."""
    shape = spec["shape"]

    def vec(v):
        return [float(x) for x in v]

    bounds = []
    for item in spec["bounds"]:
        entry = {"from": item["from"], "to": item["to"], "kind": shape.bounds}
        if shape.bounds == "linear":
            entry.update(m0=vec(item["m"][0]), M0=vec(item["M"][0]))
        else:
            entry.update(m_kernels=[vec(v) for v in item["m"]],
                         M_kernels=[vec(v) for v in item["M"]])
        bounds.append(entry)
    return {
        "schema_version": "1",
        "name": name,
        "space": {"probs": vec(spec["probs"]),
                  "partitions": spec["partitions"],
                  "times": [float(t) for t in range(shape.T + 1)]},
        "grid": list(range(shape.T + 1)),
        "subspaces": {str(t): [vec(g)] for t, g in spec["generators"].items()},
        "operators": [{"from": item["from"], "to": item["to"],
                       "pieces": [{"density": vec(d), "penalty": vec(p)}
                                  for d, p in item["pieces"]]}
                      for item in spec["operators"]],
        "bounds": bounds,
        "payoffs": {k: vec(v) for k, v in payoffs_by_name.items()},
        "tasks": tasks,
    }
