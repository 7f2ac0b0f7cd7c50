"""Operator systems on a time grid and their time-consistent extension.

A system carries one operator per adjacent grid pair, optional operators for
longer pairs, and a bound pair for every grid pair. Extension is per step
(each adjacent pair gets its maximal extension) and longer pairs are priced
by backward composition, which makes time-consistency hold by construction.

Penalties of composed operators at product densities follow the cocycle
rule: the total penalty is the sum of per-step minimal penalties, each
weighted by the running product of the earlier step densities before
conditioning. The weighting matters: conditioning the later penalties under
the product measure (not the base one) is exactly what makes the price
identity and the cocycle additivity hold, as the tests check blockwise.

Grid refinement can only lower composed values and raise penalties; the
comparison of a system against a refinement of itself, including the strict
decrease a genuinely wider long-pair bound produces, is implemented here and
exercised by the shipped fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .extension import (Attainment, ExtendedOperator, PenaltyValue, _assemble,
                        _check_density, _mix_on_blocks, attain, minimal_penalty)
from .operators import (VALUE_TOL, BoundPair, CheckEntry, DomainError,
                        PolyhedralOperator, ValidationReport, check_mM1, check_sandwich,
                        validate_operator)
from .spaces import FilteredSpace, LevelError, RandomVariable

WEIGHT_FLOOR = 1e-300


class GridError(ValueError):
    """Level pair not on the system's grid."""


class SystemStructureError(ValueError):
    """Missing operators or bounds for required grid pairs."""


class SystemValidationError(ValueError):
    """validate_system failed; extension refused."""

    def __init__(self, report: ValidationReport):
        names = ", ".join(e.name for e in report.failures())
        super().__init__(f"system validation failed: {names}")
        self.report = report


@dataclass(frozen=True, eq=False)
class OperatorSystem:
    """Operators, bounds, and optional long-pair operators over a level grid.

    ``grid`` lists level indices, strictly increasing, and must contain the
    first and the last level of the space. ``one_step_ops`` maps each
    adjacent grid pair (s, t) to the operator with domain at level t and
    values at level s; ``bounds`` maps every grid pair to its bound pair;
    ``long_ops`` may add operators for non-adjacent pairs.
    """

    space: FilteredSpace
    grid: tuple[int, ...]
    one_step_ops: dict
    bounds: dict
    long_ops: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = tuple(self.space.check_level(g) for g in self.grid)
        if len(grid) < 2 or list(grid) != sorted(set(grid)):
            raise GridError("grid must be a strictly increasing set of levels")
        if grid[0] != 0 or grid[-1] != self.space.n_levels - 1:
            raise GridError("grid must contain the first and last level")
        object.__setattr__(self, "grid", grid)
        for (s, t), op in {**self.one_step_ops, **self.long_ops}.items():
            if (op.level_a, op.level_b) != (s, t):
                raise SystemStructureError(
                    f"operator for pair ({s}, {t}) is tagged "
                    f"({op.level_a}, {op.level_b})")
        for (s, t), bp in self.bounds.items():
            if (bp.level_a, bp.level_b) != (s, t):
                raise SystemStructureError(
                    f"bounds for pair ({s}, {t}) are tagged "
                    f"({bp.level_a}, {bp.level_b})")
        for pair in self.long_ops:
            if pair in self.adjacent_pairs:
                raise SystemStructureError(
                    f"pair {pair} is adjacent; declare it in one_step_ops")

    @property
    def adjacent_pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.grid, self.grid[1:]))

    @property
    def all_pairs(self) -> list[tuple[int, int]]:
        return [(s, t) for i, s in enumerate(self.grid)
                for t in self.grid[i + 1:]]

    def declared_ops(self) -> dict:
        return {**self.one_step_ops, **self.long_ops}

    def positions(self, s: int, t: int) -> tuple[int, int]:
        if s not in self.grid or t not in self.grid:
            raise GridError(f"levels ({s}, {t}) not on grid {self.grid}")
        i, j = self.grid.index(s), self.grid.index(t)
        if i >= j:
            raise GridError(f"need s < t on the grid, got ({s}, {t})")
        return i, j


def validate_system(system: OperatorSystem) -> ValidationReport:
    """Structural completeness raises; semantic checks become entries.

    Entries: domain nesting into the terminal domain, per-pair operator
    axioms and sandwich domination, weak time-consistency of the bounds
    family, the composition identity for declared long operators (where the
    inner value lands in the outer domain), and the restriction identity
    against the terminal-pair operator when both are declared.
    """
    missing = [p for p in system.adjacent_pairs if p not in system.one_step_ops]
    missing += [p for p in system.all_pairs if p not in system.bounds]
    if missing:
        raise SystemStructureError(f"missing operators or bounds for {missing}")

    entries = []
    ops = system.declared_ops()
    terminal = system.one_step_ops[system.adjacent_pairs[-1]]
    nested = True
    for pair, op in ops.items():
        if op is terminal:
            continue
        for b in op.domain.basis:
            if not terminal.domain.contains(b):
                nested = False
    entries.append(CheckEntry(
        "domains_nested", nested,
        "every declared domain sits inside the terminal domain"))

    for (s, t), op in sorted(ops.items()):
        rep = validate_operator(op)
        entries.append(CheckEntry(
            f"operator_axioms_{s}_{t}", rep.passed,
            "; ".join(e.name for e in rep.failures()) or "all axioms hold"))
        sw = check_sandwich(op, system.bounds[(s, t)])
        entries.append(CheckEntry(
            f"sandwich_{s}_{t}", sw.holds,
            "fast path" if sw.fast_path else
            (f"violated on block {sw.block}, piece {sw.piece}"
             if not sw.holds else "LP certified")))

    for e in check_mM1(system.bounds, system.space, list(system.grid)).entries:
        entries.append(CheckEntry(f"mM1_{e.name}", e.passed, e.detail))

    for (s, u), long_op in sorted(system.long_ops.items()):
        i, j = system.positions(s, u)
        for m in range(i + 1, j):
            t = system.grid[m]
            outer = ops.get((s, t))
            inner = ops.get((t, u))
            if outer is None or inner is None:
                continue
            worst_dev, skipped = _max_deviation(
                long_op.domain.basis, lambda X: outer.evaluate(inner.evaluate(X)),
                long_op.evaluate)
            entries.append(CheckEntry(
                f"consistency_{s}_{t}_{u}", worst_dev <= VALUE_TOL,
                f"max deviation {worst_dev:.3e}; {skipped} basis payoffs "
                "not composable"))

    T = system.grid[-1]
    for (s, t), op in sorted(ops.items()):
        if t == T or (s, T) not in ops:
            continue
        worst_dev, skipped = _max_deviation(op.domain.basis, ops[(s, T)].evaluate,
                                            op.evaluate)
        entries.append(CheckEntry(
            f"restriction_{s}_{t}", worst_dev <= VALUE_TOL,
            f"max deviation from the ({s}, {T}) operator {worst_dev:.3e}; "
            f"{skipped} skipped"))

    return ValidationReport(tuple(entries))


def _max_deviation(payoffs, tried, reference) -> tuple[float, int]:
    """Worst atomwise |tried(X) - reference(X)| over the payoffs, and how
    many payoffs ``tried`` skipped by raising :class:`DomainError`."""
    worst, skipped = 0.0, 0
    for X in payoffs:
        try:
            got = tried(X)
        except DomainError:
            skipped += 1
            continue
        worst = max(worst, float(np.abs(got.values - reference(X).values).max()))
    return worst, skipped


@dataclass(eq=False)
class ExtendedSystem:
    """Per-step maximal extensions plus backward-composed evaluation.

    ``report`` is the passing validation the system was extended under.
    Evaluation and pricing go through the step :class:`ExtendedOperator`
    objects, which keep mutable state: a bounded evaluation memo and, per
    block program, a bounded memo of centered faces, a bounded table of the
    optimal bases ``evaluate`` reads values off (dropped after ``TABLE_SIZE``
    misses in a row) and the vertex record its LP's standard form keeps for
    the next warm solve, and per step the tables stacked for one test.
    Evaluating and pricing mutate that state, so use an instance from one
    thread at a time.
    """

    system: OperatorSystem
    extensions: dict
    report: ValidationReport

    @property
    def space(self) -> FilteredSpace:
        return self.system.space

    def step(self, k: int) -> ExtendedOperator:
        return self.extensions[(self.system.grid[k], self.system.grid[k + 1])]

    def evaluate(self, s: int, t: int, X: RandomVariable) -> RandomVariable:
        """Composed value x(s, t)(X) by backward recursion through the steps."""
        i, j = self.system.positions(s, t)
        if X.level > t:
            raise LevelError("payoff finer than the right grid level")
        V = X
        for k in range(j - 1, i - 1, -1):
            V = self.step(k).evaluate(V)
        return V


def extend_system(system: OperatorSystem) -> ExtendedSystem:
    report = validate_system(system)
    if not report.passed:
        raise SystemValidationError(report)
    # the passing report certifies every declared pair's sandwich
    exts = {pair: _assemble(system.one_step_ops[pair], system.bounds[pair])
            for pair in system.adjacent_pairs}
    return ExtendedSystem(system=system, extensions=exts, report=report)


def _cocycle_sum(space: FilteredSpace, level_out: int, step_densities,
                 step_penalties) -> tuple[np.ndarray, np.ndarray]:
    """Per-block total penalty at level_out, weighted by running products,
    and the running product of all the step densities (atomwise).

    step_densities and step_penalties are atomwise arrays per step, earliest
    step first; penalties may hold +inf. A step's penalty only counts where
    the running product of earlier densities is positive, so an infinite
    penalty on a branch the product never reaches does not poison the block.
    """
    weight = np.ones(space.n_atoms)
    acc = np.zeros(space.n_atoms)
    for g_vals, a_vals in zip(step_densities, step_penalties):
        acc = acc + _weighted(weight, a_vals)
        weight = weight * g_vals
    return space._layout[level_out].means(acc), weight


def _weighted(weight: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """weight * vals where the weight exceeds WEIGHT_FLOOR, zero elsewhere."""
    out = np.zeros(weight.size)
    hot = weight > WEIGHT_FLOOR
    out[hot] = weight[hot] * vals[hot]
    return out


def price(ext: ExtendedSystem, s: int, t: int, X: RandomVariable) -> Attainment:
    """Composed value, the attaining product density, and its cocycle penalty.

    The backward pass attains each step at the tail value; the product of
    the per-step densities prices X: value = E[f_X X | F_s] - penalty.
    """
    system = ext.system
    i, j = system.positions(s, t)
    if X.level > t:
        raise LevelError("payoff finer than the right grid level")
    V = X
    step_g = [None] * (j - i)
    step_a = [None] * (j - i)
    for k in range(j - 1, i - 1, -1):
        att = attain(ext.step(k), V)
        step_g[k - i] = att.density.values
        step_a[k - i] = att.penalty.atomwise()
        V = att.value
    penalty, f_vals = _cocycle_sum(system.space, s, step_g, step_a)
    return Attainment(value=V, density=RandomVariable(f_vals, t),
                      penalty=PenaltyValue(system.space, s, penalty))


def factor_density(ext: ExtendedSystem, s: int, t: int,
                   Q: RandomVariable) -> list[RandomVariable]:
    """Split a (s, t) density into per-step densities by conditional ratios.

    Where the running conditional expectation vanishes, the factor is set to
    one; the product still reproduces Q and every factor keeps unit
    conditional expectation across its step.
    """
    system = ext.system
    i, j = system.positions(s, t)
    levels = system.grid[i:j + 1]
    layout = system.space._layout
    # E[Q | level] atomwise for each grid level from s to t
    conds = [layout[lv].broadcast(layout[lv].means(Q.values)) for lv in levels]
    return [RandomVariable(
        np.where(prev > WEIGHT_FLOOR, nxt / np.maximum(prev, WEIGHT_FLOOR), 1.0), lv)
        for prev, nxt, lv in zip(conds, conds[1:], levels[1:])]


def system_penalty(ext: ExtendedSystem, s: int, t: int,
                   Q: RandomVariable) -> PenaltyValue:
    """Minimal penalty the composed system assigns to a (s, t) density.

    ``Q`` is checked as a density first (factoring maps a NaN mean to one),
    then factorized across the grid steps; each factor gets its step's
    minimal penalty (+inf off the step polytope) and the cocycle sum
    aggregates them at level s.
    """
    system = ext.system
    i, j = system.positions(s, t)
    _check_density(system.space, s, t, Q)
    factors = factor_density(ext, s, t, Q)
    step_g = [f.values for f in factors]
    step_a = []
    for k, f in zip(range(i, j), factors):
        step_a.append(minimal_penalty(ext.step(k), f).atomwise())
    return PenaltyValue(system.space, s,
                        _cocycle_sum(system.space, s, step_g, step_a)[0])


# --------------------------------------------------------------------------
# cocycle / locality check


def _harvest_step_densities(ext: ExtendedSystem, k: int, rng,
                            n_payoffs: int = 4) -> list[np.ndarray]:
    """Per-step densities from attainment at random payoffs."""
    system = ext.system
    space = system.space
    t = system.grid[k + 1]
    return np.stack([attain(ext.step(k), _normal_payoff(space, t, rng))
                     .density.values for _ in range(n_payoffs)])


def _normal_payoff(space: FilteredSpace, level: int, rng) -> RandomVariable:
    """Standard normal value per block of ``level``."""
    blocks = space._layout[level]
    return RandomVariable(blocks.broadcast(rng.normal(0.0, 1.0, blocks.probs.size)),
                          level)


def check_cocycle_and_local(ext: ExtendedSystem, r: int, s: int, t: int,
                            n_samples: int = 20, seed: int = 0) -> ValidationReport:
    """Penalty additivity across a grid triple, and blockwise locality.

    For sampled product densities Q the three-way identity
    penalty(r, t) = penalty(r, s) + E_Q[penalty(s, t) | F_r] is evaluated
    with the two sides assembled from different partial sums. Locality
    splices two samples across a level-r block and requires bit-identical
    penalties on each side of the splice.
    """
    system = ext.system
    i, m, j = (system.positions(r, s)[0], system.positions(s, t)[0],
               system.positions(s, t)[1])
    space = system.space
    rng = np.random.default_rng(seed)
    cands = {k: _harvest_step_densities(ext, k, rng) for k in range(i, j)}

    def sample():
        return [_mix_on_blocks(space._layout[system.grid[k]], cands[k], rng)
                for k in range(i, j)]

    def penalties(step_g):
        return [minimal_penalty(
            ext.step(k), RandomVariable(step_g[k - i], system.grid[k + 1])).atomwise()
            for k in range(i, j)]

    worst = 0.0
    inf_mismatch = False
    samples = [sample() for _ in range(n_samples)]
    totals = []
    for step_g in samples:
        step_a = penalties(step_g)
        lhs = _cocycle_sum(space, r, step_g, step_a)[0]
        totals.append(lhs)
        a_rs, weight = _cocycle_sum(space, r, step_g[:m - i], step_a[:m - i])
        a_st = _cocycle_sum(space, s, step_g[m - i:], step_a[m - i:])[0]
        # E_Q[a_st | F_r] with the running product up to s as the weight
        a_st_atoms = space._layout[s].broadcast(a_st)
        rhs = a_rs + space._layout[r].means(_weighted(weight, a_st_atoms))
        both_inf = np.isinf(lhs) & np.isinf(rhs)
        if np.any(np.isinf(lhs) != np.isinf(rhs)):
            inf_mismatch = True
        fin = ~both_inf
        if np.any(fin):
            worst = max(worst, float(np.abs(lhs[fin] - rhs[fin]).max()))

    entries = [
        CheckEntry("cocycle_additive", worst <= 1e-6,
                   f"max deviation {worst:.3e} over {n_samples} densities"),
        CheckEntry("cocycle_infinite_blocks_agree", not inf_mismatch, ""),
    ]

    n_blocks_r = space._layout[r].probs.size
    q1, q2 = samples[0], samples[1 % len(samples)]
    block0 = list(space.blocks(r)[0])
    spliced = []
    for k in range(i, j):
        g = q2[k - i].copy()
        g[block0] = q1[k - i][block0]
        spliced.append(g)
    p1, p2 = totals[0], totals[1 % len(samples)]
    ps = _cocycle_sum(space, r, spliced, penalties(spliced))[0]
    ok = np.array_equal(ps[0], p1[0]) and all(
        np.array_equal(ps[a], p2[a]) for a in range(1, n_blocks_r))
    detail = ("single block at the left level, splice degenerate"
              if n_blocks_r == 1 else
              f"splice across {n_blocks_r} blocks bit-identical")
    entries.append(CheckEntry("locality_exact", ok, detail))
    return ValidationReport(tuple(entries))


# --------------------------------------------------------------------------
# grid refinement


@dataclass(frozen=True, eq=False)
class RefinementReport:
    report: ValidationReport
    max_decrease: float
    witness_pair: tuple[int, int] | None

    @property
    def passed(self) -> bool:
        return self.report.passed


def _same_op(a: PolyhedralOperator, b: PolyhedralOperator) -> bool:
    if len(a.pieces) != len(b.pieces) or a.domain.dim != b.domain.dim:
        return False
    for pa, pb in zip(a.pieces, b.pieces):
        if not (np.allclose(pa.density.values, pb.density.values, atol=1e-12)
                and np.allclose(pa.penalty.values, pb.penalty.values, atol=1e-12)):
            return False
    return all(b.domain.contains(x) for x in a.domain.basis)


def _same_bounds(a: BoundPair, b: BoundPair) -> bool:
    if a.kind != b.kind or len(a.m_kernels) != len(b.m_kernels) \
            or len(a.M_kernels) != len(b.M_kernels):
        return False
    return all(np.allclose(x.values, y.values, atol=1e-12)
               for x, y in zip((*a.m_kernels, *a.M_kernels),
                               (*b.m_kernels, *b.M_kernels)))


def refine_and_compare(sys_coarse: OperatorSystem, sys_fine: OperatorSystem,
                       n_payoffs: int = 100, n_densities: int = 20,
                       seed: int = 0, value_tol: float = 1e-8,
                       penalty_tol: float = 1e-8, *,
                       fine_ext: ExtendedSystem | None = None) -> RefinementReport:
    """Composed values fall and penalties rise when the grid refines.

    Requires the fine grid to contain the coarse one and the two systems to
    agree on every pair declared by both. Values are compared on random
    payoffs per shared pair; penalties on densities harvested from the
    coarse system's own pricing, factorized into the fine grid.
    ``fine_ext``, an extension of ``sys_fine`` the caller already holds, is
    used instead of extending (and so validating) ``sys_fine`` again.
    """
    space = sys_coarse.space
    if not (np.array_equal(space.probs, sys_fine.space.probs)
            and space.levels == sys_fine.space.levels):
        raise ValueError("the two systems live on different spaces")
    if not set(sys_coarse.grid) <= set(sys_fine.grid):
        raise GridError("fine grid must contain the coarse grid")
    coarse_ops = sys_coarse.declared_ops()
    fine_ops = sys_fine.declared_ops()
    for pair in sorted(set(coarse_ops) & set(fine_ops)):
        if not _same_op(coarse_ops[pair], fine_ops[pair]):
            raise ValueError(f"operators for shared pair {pair} differ")
    for pair in sorted(set(sys_coarse.bounds) & set(sys_fine.bounds)):
        if not _same_bounds(sys_coarse.bounds[pair], sys_fine.bounds[pair]):
            raise ValueError(f"bounds for shared pair {pair} differ")

    if fine_ext is not None and fine_ext.system is not sys_fine:
        raise ValueError("fine_ext does not extend sys_fine")
    ext_c = extend_system(sys_coarse)
    ext_f = fine_ext if fine_ext is not None else extend_system(sys_fine)
    rng = np.random.default_rng(seed)
    entries = []
    max_dec = 0.0
    wit_pair = None
    for (s, t) in sys_coarse.all_pairs:
        worst_up = 0.0
        for _ in range(n_payoffs):
            X = _normal_payoff(space, t, rng)
            vc = ext_c.evaluate(s, t, X).values
            vf = ext_f.evaluate(s, t, X).values
            worst_up = max(worst_up, float((vf - vc).max()))
            dec = float((vc - vf).max())
            if dec > max_dec:
                max_dec = dec
                wit_pair = (s, t)
        entries.append(CheckEntry(
            f"values_monotone_{s}_{t}", worst_up <= value_tol,
            f"max fine excess {worst_up:.3e} over {n_payoffs} payoffs"))

    for (s, t) in sys_coarse.all_pairs:
        seeds = np.stack([price(ext_c, s, t, _normal_payoff(space, t, rng))
                          .density.values for _ in range(max(2, n_densities // 4))])
        worst_drop = 0.0
        inf_drop = False
        for _ in range(n_densities):
            Q = RandomVariable(_mix_on_blocks(space._layout[s], seeds, rng), t)
            pc = system_penalty(ext_c, s, t, Q).by_block
            pf = system_penalty(ext_f, s, t, Q).by_block
            inf_drop |= bool(np.any(np.isinf(pc) & ~np.isinf(pf)))
            both = ~np.isinf(pc) & ~np.isinf(pf)
            if np.any(both):
                worst_drop = max(worst_drop, float((pc[both] - pf[both]).max()))
        entries.append(CheckEntry(
            f"penalties_monotone_{s}_{t}",
            worst_drop <= penalty_tol and not inf_drop,
            f"max fine shortfall {worst_drop:.3e} over {n_densities} densities"))

    entries.append(CheckEntry(
        "strict_decrease_witnessed", max_dec > 1e-6,
        f"largest decrease {max_dec:.6g}"
        + (f" on pair {wit_pair}" if wit_pair else "")))
    return RefinementReport(ValidationReport(tuple(entries)), max_dec, wit_pair)

