"""Maximal extension of a convex monotone operator between bounds.

Everything happens per coarse block. The conjugate of an operator at a
density f is the optimal value of a small epigraph LP over the operator's
domain; unbounded means the density prices some domain payoff inconsistently
and its penalty is +infinity.

The extension of an operator x to all fine-level payoffs, constrained to the
densities sitting between a bound pair, is computed by one LP per block:

    maximize  E[f X | block] - sum_j theta_j c_j(block)
    over      f in the block's density polytope, theta in the simplex,
              E[f Y | block] = E[(sum_j theta_j f_j) Y | block]  for Y in L

The theta variables price the conjugate: for fixed f the inner minimum of
sum theta_j c_j over matching theta equals the conjugate of x at f by LP
duality, so the program computes sup_f {E[f X | block] - x*(f)}. Taking the
LP dual reproduces, row by row, the inf-convolution program
min_{Y in L} {x(Y) + S(X - Y)} with S the polytope support function, which is
why this route is the single-LP form of that identity; the max form is the
one shipped because its solution vector is the attaining density itself.
The tests cross-check the value against a solver-free grid minimization of
the inf-convolution and a brute-force dual enumeration before trusting it.

Attainment selects, among the optimal (f, theta), a deterministic point of
the optimal face. By complementary slackness the face is the feasible set
with every constraint held tight whose reduced cost in the block solve is
positive, so the payoff enters it only through which those are. When its
equalities fix every variable the face is the solve's vertex; otherwise one
LP finds the density-side slacks that are implicit equalities and a second
maximizes the minimum of the others. When the minorant is non-degenerate the
polytope keeps every feasible density strictly positive, and so the attained
density too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count

import numpy as np

from .lp import FEAS_TOL, LinearProgram, LpResult, _cost_tol, _stacked_pricing, solve_lp
from .operators import (BlockPolytope, BoundPair, DensityPolytope, CheckEntry,
                        PolyhedralOperator, PolytopeError, SandwichReport,
                        ValidationReport, _solved, check_sandwich)
from .spaces import FilteredSpace, LevelError, RandomVariable, _Blocks, _Segments, _finite

CONJ_TOL = 1e-9
FACE_TOL = 1e-9
EQ_RANK_TOL = 1e-10
EVAL_MEMO_SIZE = 4096   # payoffs memoized per ExtendedOperator
FACE_MEMO_SIZE = 64     # centered optimal faces memoized per block program
TABLE_SIZE = 8          # optimal bases tabled per block program, and its miss cut-off
CONJUGATE_MEMO_SIZE = 128   # conjugate values memoized per coarse block of an operator


class DensityError(ValueError):
    """Not a density: negative values or block expectation away from one."""


class SandwichViolation(ValueError):
    """Extension requested for bounds that do not dominate the operator."""

    def __init__(self, report: SandwichReport):
        super().__init__(
            f"sandwich condition fails on block {report.block}, piece "
            f"{report.piece} (gap {report.gap:.3e})")
        self.report = report


@dataclass(frozen=True, eq=False)
class PenaltyValue:
    """Extended-real penalty per coarse block; +inf marks an unbounded conjugate."""

    space: FilteredSpace
    level_a: int
    by_block: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.by_block, dtype=float).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "by_block", vals)

    @property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.by_block)))

    def atomwise(self) -> np.ndarray:
        return self.space._layout[self.level_a].broadcast(self.by_block)

    def as_rv(self) -> RandomVariable:
        if not self.finite:
            raise ValueError("penalty is +inf on some block")
        return RandomVariable(self.atomwise(), self.level_a)


def _check_density(space: FilteredSpace, level_a: int, level_b: int,
                   f: RandomVariable, tol: float = CONJ_TOL):
    if f.level > level_b:
        raise DensityError(
            f"density declared at level {f.level}, finer than {level_b}")
    if float(f.values.min()) < -tol:
        raise DensityError(f"density has negative atom {float(f.values.min()):.3e}")
    ev = space._layout[level_a].means(f.values)
    off = np.flatnonzero(np.abs(ev - 1.0) > tol)
    if off.size:
        raise DensityError(
            f"block {off[0]} expectation {ev[off[0]]:.12g} differs from 1")


def conjugate(op: PolyhedralOperator, f: RandomVariable,
              check: bool = True) -> PenaltyValue:
    """Largest gap between pricing by f and the operator, over the domain.

    Per block this is sup over domain payoffs X of E[f X | block] - x(X),
    an epigraph LP in the block coordinates of X; +inf when unbounded.
    The result is nonnegative because X = 0 is always admissible.

    Each block's value comes from ``_block_conjugate``, which memoizes it in
    ``op``, so a conjugate mutates ``op``: use it from one thread at a time.
    """
    if check:
        _check_density(op.space, op.level_a, op.level_b, f)
    return PenaltyValue(op.space, op.level_a, [
        _block_conjugate(op, a, f.values) for a in range(len(op._conjugate_lps))])


def _block_conjugate(op: PolyhedralOperator, a: int, values: np.ndarray) -> float:
    """The conjugate of ``op`` on coarse block ``a`` at density ``values``.

    The block's LP is the operator's template with the density's objective.
    It is solved cold on purpose: a cold solve on the shared standard form
    takes the path of a freshly built program, so its value is a function
    of the objective alone, the same bits whatever was solved before, which
    the splice and locality checks compare. So the block memoizes its values
    by the objective's bytes, in a least-recently-used memo of
    ``CONJUGATE_MEMO_SIZE`` values, and a hit is the bits a solve would give.
    A raw solver fault becomes an ``LpStatusError`` naming the block (see
    ``_solved``), and a failed solve leaves no entry.
    """
    c = op._conjugate_row(a, values)

    def solve() -> float:
        res = _solved(solve_lp, "conjugate LP", (op.level_a, op.level_b), a,
                      op._conjugate_lps[a].with_objective(c), ok=("optimal", "unbounded"))
        return math.inf if res.status == "unbounded" else max(res.value, 0.0)

    return _memoized(op._conjugate_memos[a], c.tobytes(), CONJUGATE_MEMO_SIZE, solve)


# --------------------------------------------------------------------------
# density polytope construction


def _block_rows(bounds: BoundPair, sg: _Segments):
    """H-description pieces over z = (f, lam, mu) for one block.

    Density variables are per level_b segment of the block. A linear box top
    is clipped at pa / sp_i, which the budget and f >= 0 imply, so a block
    program keeps no row for a top far above every feasible density.
    """
    reps, sp, pa = sg.reps, sg.rows.probs, sg.prob
    n = len(reps)
    if bounds.kind == "linear":
        n_lift = 0
        var_bounds = [(float(bounds.m0.values[i]), float(min(bounds.M0.values[i], pa / p)))
                      for i, p in zip(reps, sp)]
        a_eq = np.asarray(sp, dtype=float)[None, :]
        b_eq = np.array([pa])
        a_ub = b_ub = None
    else:
        km, kM = bounds._kernels_at(reps)
        nm, nM = len(km), len(kM)
        n_lift = nm + nM
        var_bounds = [(0.0, math.inf)] * n + [(0.0, math.inf)] * n_lift
        a_eq = np.zeros((3, n + n_lift))
        a_eq[0, :n] = sp
        a_eq[1, n:n + nm] = 1.0
        a_eq[2, n + nm:] = 1.0
        b_eq = np.array([pa, 1.0, 1.0])
        # per segment i two rows: sum_k lam_k km[k, i] <= f_i <= sum_k mu_k kM[k, i]
        rows = np.zeros((n, 2, n + n_lift))
        rows[range(n), 0, range(n)], rows[:, 0, n:n + nm] = -1.0, km.T
        rows[range(n), 1, range(n)], rows[:, 1, n + nm:] = 1.0, -kM.T
        a_ub = rows.reshape(2 * n, n + n_lift)
        b_ub = np.zeros(2 * n)
    return n_lift, a_eq, b_eq, a_ub, b_ub, var_bounds


def density_set(bounds: BoundPair) -> DensityPolytope:
    """Build the per-block density polytope and certify that it is nonempty.

    A linear block, the box [m0, M0] cut by the unit-mean budget, is nonempty
    exactly when E[m0 | A] <= 1 <= E[M0 | A], tested within ``FEAS_TOL`` as
    ``contains_on_block`` tests the budget; a polyhedral block is certified by
    the status of a phase-1 LP. Raises PolytopeError naming the first empty block.
    """
    blocks = []
    for a, sg in enumerate(bounds.space._segments(bounds.level_b, bounds.level_a)):
        n_lift, a_eq, b_eq, a_ub, b_ub, var_bounds = _block_rows(bounds, sg)
        if bounds.kind == "linear":
            mean_lo, mean_hi = np.array(var_bounds).T @ a_eq[0] / sg.prob
            empty = mean_lo > 1.0 + FEAS_TOL or mean_hi < 1.0 - FEAS_TOL
        else:
            lp = LinearProgram(c=np.zeros(sg.ids.size + n_lift), sense="min", a_eq=a_eq,
                               b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=var_bounds)
            empty = _solved(solve_lp, "density set LP", (bounds.level_a, bounds.level_b), a, lp,
                            ok=("optimal", "infeasible")).status != "optimal"
        if empty:
            raise PolytopeError(
                f"density polytope empty on block {a} of level {bounds.level_a}",
                level_a=bounds.level_a, block=a)
        blocks.append(BlockPolytope(
            seg=sg, n_lift=n_lift, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
            var_bounds=tuple(var_bounds)))
    return DensityPolytope(bounds=bounds, blocks=tuple(blocks))


# --------------------------------------------------------------------------
# the extension itself


def _memoized(memo: dict, key: bytes, size: int, compute):
    """``memo[key]``, computed and stored on a miss: an LRU of ``size`` entries.

    Dicts keep insertion order, so a hit is re-inserted as the newest entry
    and past ``size`` the oldest goes.
    """
    value = memo.pop(key, None)
    if value is None:
        value = compute()
    memo[key] = value
    if len(memo) > size:
        del memo[next(iter(memo))]
    return value


@dataclass(eq=False)
class _BlockProgram:
    """One block's program over z = (f, lift, theta), built once.

    The (f, lift) part is the block's density polytope ``poly``. ``lp``, built
    and checked by ``make_lp`` on the first solve, holds the constraints and
    the objective's penalty part -c_j; a payoff sets only the f part, through
    ``weights`` (``_with_payoff``; checked in ``program``, not in ``attain``),
    so every solve shares the standard form of ``lp`` and warm starts from
    the vertex it kept. ``levels`` is the extension's pair (s, t), which
    failures name. ``faces`` memoizes the read-only centered point of up to
    ``FACE_MEMO_SIZE`` optimal faces, keyed by the bytes of the solve's ``x``
    and ``tight``: besides the fixed constraints, they are all that
    ``_center_on_face`` reads, and a vertex face's point is its snapped x.

    ``table`` keeps the optimal bases the block's evaluate solves have ended
    on: per (kept rows, basic columns), the vertex record the solve left as
    its form's kept vertex (B^-1, the kept rows and the read-only ``x``,
    which no objective changes). The extension prices every entry of its
    live tables at once with the simplex's own optimality test
    (``_TableStack``), and ``take`` reads the block's verdicts: a hit is
    exactly a warm solve from that record that stops after one pass, with
    its value ``c @ x``, and the record becomes the form's kept vertex. The
    table is an LRU of at most ``TABLE_SIZE`` entries; ``TABLE_SIZE`` misses
    in a row drop it for good, as the block's optimal bases outnumber it.
    ``attain`` reads it for its warm starts and never fills it.
    """

    poly: BlockPolytope
    make_lp: partial
    weights: np.ndarray         # the segments' probabilities within the block
    levels: tuple[int, int]     # the extension's level pair (s, t)
    faces: dict = field(default_factory=dict, repr=False)
    table: dict = field(default_factory=dict, repr=False)
    misses: int = 0             # table tests missed in a row

    @cached_property
    def lp(self) -> LinearProgram:
        return self.make_lp()

    def program(self, x_reps: np.ndarray) -> LinearProgram:
        return self.lp.with_objective(
            _with_payoff(self.lp.c, self.poly.n_f, self.weights, x_reps))

    def passing(self, rows: dict, priced: list) -> tuple | None:
        """(place, vertex record) of the first tabled basis optimal for the
        payoff, trying the form's kept vertex first, then the newest; None if
        none is. ``rows`` maps the table's keys to their places in ``priced``,
        which holds an entry's value where its basis passed the test and None
        where it failed. Changes nothing."""
        last = self.lp._form.last
        kept = None if last is None else rows.get(last.basis)
        if kept is not None and priced[kept] is not None:
            return kept, last
        for key, vertex in reversed(self.table.items()):
            place = rows[key]
            if place != kept and priced[place] is not None:
                return place, vertex
        return None

    def take(self, rows: dict, priced: list) -> float | None:
        """The value off the ``passing`` entry, or None on a miss, which is
        counted. A hit becomes the newest entry (it stays put if it is one)
        and the form's kept vertex."""
        found = self.passing(rows, priced)
        if found is None:
            self.misses += 1
            return None
        place, vertex = found
        if next(reversed(self.table.values())) is not vertex:
            self.table[vertex.basis] = vertex = self.table.pop(vertex.basis)
        self.lp._form.last = vertex
        self.misses = 0
        return priced[place]

    def remember(self, res: LpResult) -> None:
        """Table the vertex the solve ``res`` that followed a missed test
        left kept, or drop the table on the ``TABLE_SIZE``-th miss in a row."""
        if self.misses >= TABLE_SIZE:
            self.table.clear()
            return
        self.table[res.basis] = self.lp._form.last
        if len(self.table) > TABLE_SIZE:
            del self.table[next(iter(self.table))]


def _with_payoff(c: np.ndarray, n_f: int, weights: np.ndarray, x_reps: np.ndarray):
    """A copy of block objective(s) ``c`` with f part ``weights * x_reps``."""
    c = c.copy()
    c[..., :n_f] = weights * x_reps
    return c


# one block shape's programs: their ``lp.c``, weights, reps, ids and penalties c_j, stacked
_Shape = namedtuple("_Shape", "blocks n_f n_vars c weights reps ids penalties")


class _TableStack:
    """Every entry of an extension's live basis tables, stacked so that one
    optimality test per payoff prices them all; ``evaluate`` and ``attain``
    each price it once per call.

    Entries are grouped by the shape of their kept rows and their block's
    ``_Shape``; a group stacks, per entry, the kept rows, B^-1, the basic
    columns, ``x`` and its block's rows of the shape's ``c``, weights and
    reps, and prices with its first form's ``cost``, as an extension's
    block programs share one standard-form layout (max, bounded below).
    ``rows[a]`` maps block ``a``'s table keys to their places in ``priced``;
    it is None for a dropped table. A hit only reorders a table, so the
    stack stands until a table gains, loses or drops entries.
    """

    def __init__(self, programs: list[_BlockProgram], shapes: list[_Shape]):
        self.rows = [None if prog.misses >= TABLE_SIZE else {} for prog in programs]
        groups: dict = {}
        for g, shape in enumerate(shapes):
            for i, a in enumerate(shape.blocks):
                for key, vertex in programs[a].table.items() if self.rows[a] is not None else ():
                    groups.setdefault((vertex.a.shape, g), []).append((a, key, vertex, i))
        self.groups = []
        places = count()
        for (_, g), group in groups.items():
            for a, key, _, _ in group:
                self.rows[a][key] = next(places)
            blocks, _, vertices, at = zip(*group)
            shape = shapes[g]
            self.groups.append((programs[blocks[0]].lp._form, shape.n_f, *map(np.array, (
                [v.a for v in vertices], [v.binv for v in vertices],
                [v.cols for v in vertices], [v.x for v in vertices])),
                *(part.take(at, 0) for part in (shape.c, shape.weights, shape.reps))))

    def priced(self, x: np.ndarray) -> list:
        """Per entry, the value ``c @ x`` of the objective ``c`` of payoff
        ``x`` where ``_pricing`` finds its basis optimal, else None; each
        stacked product has the bits of the one-entry product."""
        out = []
        for form, n_f, a, binv, cols, xs, c, weights, reps in self.groups:
            c = _with_payoff(c, n_f, weights, x[reps])
            cost = form.cost(c)
            _, optimal = _stacked_pricing(a, cost, cols, binv, form.twin, _cost_tol(cost))
            values = np.matmul(c[:, None], xs[:, :, None])[:, 0, 0]
            out += [v if ok else None for v, ok in zip(values.tolist(), optimal.tolist())]
        return out


class _LpValues(RandomVariable):
    """An extension's values: finite by construction, so not checked again."""


@dataclass(frozen=True, eq=False)
class Attainment:
    density: RandomVariable
    value: RandomVariable
    penalty: PenaltyValue


@dataclass(eq=False)
class ExtendedOperator:
    """The maximal extension of ``base`` dominated by ``bounds``.

    Callable on every fine-level payoff, which must be finite; restriction to
    the original domain reproduces the base operator. Values are memoized per
    payoff in an LRU of ``EVAL_MEMO_SIZE``. On a miss one stacked pass
    (``_TableStack``, built by the first evaluate or attain and dropped by an
    evaluate that changes a table) prices every entry of the live tables of
    optimal bases (``_BlockProgram``), and a block's value is read off its
    first passing entry, or else it solves warm and tables the basis it ends
    on. ``attain`` solves every block again and memoizes per block the
    centered points of up to ``FACE_MEMO_SIZE`` optimal faces. A solve or
    table hit replaces its form's kept vertex and updates a memo or table,
    so even a read mutates the instance: use it from one thread at a time.
    """

    base: PolyhedralOperator
    bounds: BoundPair
    polytope: DensityPolytope
    _programs: list[_BlockProgram] = field(default_factory=list, repr=False)
    _eval_cache: dict = field(default_factory=dict, repr=False)
    _stack: _TableStack | None = field(default=None, repr=False)

    @property
    def space(self) -> FilteredSpace:
        return self.base.space

    @property
    def level_a(self) -> int:
        return self.base.level_a

    @property
    def level_b(self) -> int:
        return self.base.level_b

    def evaluate(self, X: RandomVariable) -> RandomVariable:
        if X.level > self.level_b:
            raise LevelError("payoff finer than the extension level")
        return _memoized(self._eval_cache, X.values.tobytes(), EVAL_MEMO_SIZE,
                         partial(self._solve, X))

    __call__ = evaluate

    def _solve(self, X: RandomVariable) -> RandomVariable:
        """Each block's value at the finite ``X``: off its table where one
        passed the stacked test, else a warm solve that a live table keeps."""
        if not isinstance(X, _LpValues):
            _finite(X.values)
        priced = self._priced(X.values)
        stack = self._stack
        by_block = np.empty(len(self._programs))
        for a, (prog, rows) in enumerate(zip(self._programs, stack.rows)):
            value = None if rows is None else prog.take(rows, priced)
            if value is None:
                res = self._solve_block(a, prog.program(X.values[prog.poly.seg.reps]))
                if rows is not None:
                    prog.remember(res)
                    self._stack = None
                value = res.value
            by_block[a] = value
        return _LpValues(self.space._layout[self.level_a].broadcast(by_block), self.level_a)

    def _priced(self, x: np.ndarray) -> list:
        """The stacked test's verdicts for payoff ``x``; builds a missing stack."""
        if self._stack is None:
            self._stack = _TableStack(self._programs, self._shapes)
        return self._stack.priced(x)

    def _solve_block(self, a: int, lp: LinearProgram) -> LpResult:
        return _solved(solve_lp, "extension block program", self._programs[a].levels, a,
                       lp, warm=True, why="the sandwich precondition should rule this out")

    @cached_property
    def _shapes(self) -> list[_Shape]:
        """The block programs grouped by ``_Shape``, in the order of their first blocks."""
        shapes: dict = {}
        for a, prog in enumerate(self._programs):
            shapes.setdefault((prog.poly.n_f, prog.poly.n_vars, prog.lp.n_vars), []).append(a)
        return [_Shape(blocks, n_f, n_vars, *map(np.array, zip(*(
            (p.lp.c, p.weights, p.poly.seg.reps, p.poly.seg.ids, -p.lp.c[n_vars:])
            for p in (self._programs[a] for a in blocks)))))
            for (n_f, n_vars, _), blocks in shapes.items()]


def maximal_extension(op: PolyhedralOperator, bounds: BoundPair) -> ExtendedOperator:
    """Check the sandwich, then build the polytope and the block programs."""
    report = check_sandwich(op, bounds)
    if not report.holds:
        raise SandwichViolation(report)
    return _assemble(op, bounds)


def _assemble(op: PolyhedralOperator, bounds: BoundPair) -> ExtendedOperator:
    """The extension of ``op`` under ``bounds``, whose sandwich the caller has
    certified: build the polytope, assemble the block programs."""
    polytope = density_set(bounds)
    ext = ExtendedOperator(base=op, bounds=bounds, polytope=polytope)
    dens = op._densities()
    penalties = op._penalties()
    for a, bp in enumerate(polytope.blocks):
        sg = bp.seg
        bmat = op.domain.block_bases[a][sg.rows.firsts, 1:]   # past the block constant
        d = bmat.shape[1]
        n = bp.n_f
        nj = len(op.pieces)
        fmat = dens[:, sg.reps].T                    # n x J
        wb = bmat.T * sg.rows.probs[None, :]         # d x n, rows <B_k, sp . >
        # equalities: polytope rows, theta simplex, subspace matching off the
        # constant, whose row would restate the first two: independent rows
        k, nz = len(bp.b_eq), bp.n_vars
        eq_mat = np.zeros((k + 1 + d, nz + nj))
        eq_mat[:k, :nz] = bp.a_eq
        eq_mat[k, nz:] = 1.0
        eq_mat[k + 1:, :n], eq_mat[k + 1:, nz:] = wb, -(wb @ fmat)
        eq_vec = np.zeros(k + 1 + d)
        eq_vec[:k], eq_vec[k] = bp.b_eq, 1.0
        ub_rows = None if bp.a_ub is None else np.hstack(
            [bp.a_ub, np.zeros((bp.a_ub.shape[0], nj))])
        make_lp = partial(
            LinearProgram, c=np.concatenate([np.zeros(n + bp.n_lift), -penalties[a]]),
            sense="max", a_eq=eq_mat, b_eq=eq_vec, a_ub=ub_rows, b_ub=bp.b_ub,
            bounds=list(bp.var_bounds) + [(0.0, math.inf)] * nj)
        ext._programs.append(_BlockProgram(
            poly=bp, make_lp=make_lp, weights=sg.rows.probs / sg.prob,
            levels=(op.level_a, op.level_b)))
    return ext


def attain(ext: ExtendedOperator, X: RandomVariable) -> Attainment:
    """Optimal density with its penalty, centered on the optimal face.

    The returned density satisfies, per block,
    E[f_X X | block] - penalty = extension value, and the penalty equals the
    conjugate of the base operator at f_X. A block's point comes from its face
    memo; on a miss it is read off the block solve where
    ``LpResult.single_vertex`` holds, and centered on the face otherwise.

    The payoff is checked finite once (an extension's own values are not);
    one product per ``_Shape`` fills a read-only matrix of objectives, whose
    rows the warm block solves take unchecked, and densities and penalties
    are scattered once per shape. Where a block's kept vertex is tabled and
    fails ``evaluate``'s stacked test, its solve starts on the newest tabled
    basis that passes (``_BlockProgram.passing``) and stops after one pass.
    The tables, their misses and the stack are left as they are.
    """
    if X.level > ext.level_b:
        raise LevelError("payoff finer than the extension level")
    if not isinstance(X, _LpValues):
        _finite(X.values)
    space = ext.space
    fine, coarse = space._layout[ext.level_b], space._layout[ext.level_a]
    f_seg = np.empty(fine.probs.size)
    values, pen = np.empty(coarse.probs.size), np.empty(coarse.probs.size)
    objectives, points = {}, [None] * len(ext._programs)
    for shape in ext._shapes:
        c = _with_payoff(shape.c, shape.n_f, shape.weights, X.values[shape.reps])
        c.setflags(write=False)
        objectives.update(zip(shape.blocks, c))
    priced = ext._priced(X.values)
    for a, (prog, rows) in enumerate(zip(ext._programs, ext._stack.rows)):
        form = prog.lp._form
        found = rows and prog.passing(rows, priced)
        if found and form.last.basis in rows:   # kept in the table: the first that passes
            form.last = found[1]
        res = ext._solve_block(a, prog.lp._derived(objectives[a]))
        points[a] = _memoized(prog.faces, res.x.tobytes() + res.tight.tobytes(),
                              FACE_MEMO_SIZE, partial(_center_on_face, prog, res, a))
        values[a] = res.value
    for shape in ext._shapes:
        z = np.array([points[a] for a in shape.blocks])
        f_seg[shape.ids] = z[:, :shape.n_f]
        pen[shape.blocks] = np.matmul(shape.penalties[:, None], z[:, shape.n_vars:, None])[:, 0, 0]
    return Attainment(
        density=RandomVariable(fine.broadcast(f_seg), ext.level_b),
        value=_LpValues(coarse.broadcast(values), ext.level_a),
        penalty=PenaltyValue(space, ext.level_a, pen))


def _center_on_face(prog: _BlockProgram, res: LpResult, block: int) -> np.ndarray:
    """Deterministic relative-interior point of the density side of the
    optimal face of block ``block``, whose solve gave ``res``.

    The face holds every constraint ``res.tight`` marks with equality: those
    variables at their bounds, those ``a_ub`` rows as equalities. z0 is the
    solve's x snapped to the marked bounds: the face when
    ``res.single_vertex`` holds, returned with no SVD or LP. Else it is
    z = z0 + N w, N a null-space basis of the equalities over the other
    variables; without N it is the point z0 and no LP runs. Otherwise one LP
    (Freund, Roundy & Todd, 1985) finds which density-side slacks are
    implicit equalities, judged relative to each slack row's scale, and a
    second maximizes the minimum of the others. The point is read-only, since
    ``attain`` memoizes it.
    """
    lp = prog.lp
    nv, n_f = lp.n_vars, prog.poly.n_f
    lo, hi = np.array(lp.bounds).T
    b_ub = np.zeros(0) if lp.b_ub is None else lp.b_ub
    rows, at_lo, at_hi = np.split(res.tight, [b_ub.size, b_ub.size + nv])
    z0 = np.where(at_lo, lo, np.where(at_hi, hi, res.x))
    z0.setflags(write=False)
    if res.single_vertex:
        return z0
    a_ub = np.zeros((0, nv)) if lp.a_ub is None else lp.a_ub
    free = ~(at_lo | at_hi)
    _, sv, vt = np.linalg.svd(np.vstack([lp.a_eq, a_ub[rows]])[:, free])
    rank = int((sv > EQ_RANK_TOL * max(1.0, sv.max(initial=0.0))).sum())
    null = np.zeros((nv, vt.shape[0] - rank))
    null[free] = vt[rank:].T
    # the face's inequalities g.z <= h: the free variables' bounds and the
    # loose rows; all but the bounds of lifted and theta variables are
    # density-side slacks
    has_lo, has_hi = free & (lo > -math.inf), free & (hi < math.inf)
    g = np.vstack([-np.eye(nv)[has_lo], np.eye(nv)[has_hi], a_ub[~rows]])
    h = np.concatenate([-lo[has_lo], hi[has_hi], b_ub[~rows]])
    side = np.r_[np.flatnonzero(has_lo) < n_f, np.flatnonzero(has_hi) < n_f,
                 np.ones(int((~rows).sum()), bool)]
    k = null.shape[1]
    if k == 0 or not side.any():
        return z0
    gw = g @ null
    slack = np.maximum(h - g @ z0, 0.0)

    def solve(c, a, b, bounds):
        return _solved(solve_lp, "centering LP", prog.levels, block,
                       LinearProgram(c=c, sense="max", a_ub=a, b_ub=b, bounds=bounds)).x

    # max sum t over 0 <= t <= 1 and g N w + t <= alpha * slack, alpha >= 1:
    # scaling by alpha lifts every slack that can be positive on the face to
    # 1 at once, so t is 1 exactly off the implicit equalities
    p = int(side.sum())
    pick = np.eye(g.shape[0])[:, side]
    free_w = [(-math.inf, math.inf)] * k
    t = solve(np.r_[np.zeros(k + 1), np.ones(p)],
              np.hstack([gw, -slack[:, None], pick]), np.zeros(g.shape[0]),
              free_w + [(1.0, math.inf)] + [(0.0, 1.0)] * p)[k + 1:]
    loose = t > FACE_TOL * np.abs(g[side]).max(axis=1)
    if not loose.any():
        return z0
    # max tau over g N w <= slack, with tau added on the loose rows
    w = solve(np.r_[np.zeros(k), 1.0],
              np.hstack([gw, pick[:, loose].sum(axis=1, keepdims=True)]), slack,
              free_w + [(0.0, math.inf)])[:k]
    z = z0 + null @ w
    z.setflags(write=False)
    return z


def minimal_penalty(ext: ExtendedOperator, f: RandomVariable,
                    tol: float = 1e-9) -> PenaltyValue:
    """Conjugate of the extension over all fine-level payoffs.

    The extension is the inf-convolution of the base operator with the
    polytope support function, so its conjugate is the base conjugate plus
    the polytope indicator: conjugate(base, f) where f is feasible, +inf on
    blocks where it is not. Membership is tested first, so a block outside
    the polytope solves no conjugate LP.
    """
    space = ext.space
    _check_density(space, ext.level_a, ext.base.level_b, f)
    return PenaltyValue(space, ext.level_a, [
        _block_conjugate(ext.base, a, f.values) if member else math.inf
        for a, member in enumerate(ext.polytope.block_members(f, tol))])


def verify_representation(op: PolyhedralOperator, n_payoffs: int = 20,
                          n_densities: int = 8, seed: int = 0,
                          tol: float = 1e-7) -> ValidationReport:
    """Reconstruct the operator from conjugates of a finite density family.

    The family is the operator's own piece densities plus random per-block
    convex mixtures of them. Each candidate scores at most the operator
    value, and the best candidate reaches it: with minimal penalties the
    pieces are self-representing.
    """
    blocks = op.space._layout[op.level_a]
    rng = np.random.default_rng(seed)
    family = [pc.density for pc in op.pieces]
    dens = op._densities()
    for _ in range(n_densities):
        family.append(RandomVariable(_mix_on_blocks(blocks, dens, rng), op.level_b))
    penalties = [conjugate(op, f) for f in family]
    fam = np.stack([f.values for f in family])
    pens = np.stack([pv.by_block for pv in penalties])

    worst_gap = 0.0      # reconstruction error
    worst_over = 0.0     # candidate exceeding the operator
    for _ in range(n_payoffs):
        coeff = rng.normal(0.0, 1.0, op.domain.dim)
        xv = sum(ck * b.values for ck, b in zip(coeff, op.domain.basis))
        X = RandomVariable(xv, op.level_b)
        target = op.scores(X).max(axis=1)
        # an infinite penalty scores -inf and drops out of both maxima
        scores = blocks.means(fam * X.values) - pens
        worst_over = max(worst_over, float((scores - target).max()))
        worst_gap = max(worst_gap, float(np.abs(scores.max(axis=0) - target).max()))

    # splice: conjugates are local, so mixing two densities blockwise mixes
    # their penalties exactly
    splice_exact = True
    if len(family) >= 2:
        f1, f2 = family[0], family[1]
        pick = rng.integers(0, 2, blocks.probs.size)
        mixed = np.where(blocks.broadcast(pick) == 0, f1.values, f2.values)
        pv = conjugate(op, RandomVariable(mixed, op.level_b))
        expected = np.where(pick == 0, penalties[0].by_block,
                            penalties[1].by_block)
        splice_exact = np.array_equal(pv.by_block, expected)

    entries = (
        CheckEntry("dual_reconstruction", worst_gap <= tol,
                   f"max gap {worst_gap:.3e} over {n_payoffs} payoffs"),
        CheckEntry("candidates_dominated", worst_over <= tol,
                   f"max overshoot {worst_over:.3e}"),
        CheckEntry("conjugate_splice_exact", splice_exact,
                   "blockwise density splice matches blockwise penalties"),
    )
    return ValidationReport(entries)


def _mix_on_blocks(blocks: _Blocks, candidates: np.ndarray, rng) -> np.ndarray:
    """Blockwise Dirichlet mixture of stacked candidate densities.

    Unit block expectations and nonnegativity survive a convex mixture, and
    so does any per-block polytope the candidates share.
    """
    weights = blocks.broadcast(rng.dirichlet(np.ones(len(candidates)),
                                             blocks.probs.size).T)
    return sum(w * c for w, c in zip(weights, candidates))
