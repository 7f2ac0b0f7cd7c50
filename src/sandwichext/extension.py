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
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .lp import LinearProgram, LpResult, LpStatusError, _cost_tol, _pricing, solve_lp
from .operators import (BlockPolytope, BoundPair, DensityPolytope, CheckEntry,
                        PolyhedralOperator, PolytopeError, SandwichReport,
                        ValidationReport, check_sandwich)
from .spaces import FilteredSpace, LevelError, RandomVariable, _Blocks, _Segments

CONJ_TOL = 1e-9
FACE_TOL = 1e-9
EQ_RANK_TOL = 1e-10
EVAL_MEMO_SIZE = 4096   # payoffs memoized per ExtendedOperator
FACE_MEMO_SIZE = 64     # centered optimal faces memoized per block program
TABLE_SIZE = 8          # optimal bases tabled per block program, and its miss cut-off


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

    Each block's LP is the operator's template with f's objective. It is
    solved cold on purpose: a cold solve on the shared standard form takes
    the path of a freshly built program, so conjugates are the same bits
    whatever was solved before, which the splice and locality checks compare.
    """
    space = op.space
    if check:
        _check_density(space, op.level_a, op.level_b, f)
    vals = np.empty(len(op._conjugate_lps))
    for a, tmpl in enumerate(op._conjugate_lps):
        res = solve_lp(tmpl.with_objective(op._conjugate_row(a, f.values)))
        if res.status == "unbounded":
            vals[a] = math.inf
        elif res.status == "optimal":
            vals[a] = max(res.value, 0.0)
        else:
            raise LpStatusError("conjugate LP", (op.level_a, op.level_b), a, res.status)
    return PenaltyValue(space, op.level_a, vals)


# --------------------------------------------------------------------------
# density polytope construction


def _block_rows(bounds: BoundPair, sg: _Segments):
    """H-description pieces over z = (f, lam, mu) for one block.

    Density variables are per level_b segment of the block.
    """
    reps, sp, pa = sg.reps, sg.rows.probs, sg.prob
    n = len(reps)
    if bounds.kind == "linear":
        n_lift = 0
        var_bounds = [(float(bounds.m0.values[i]), float(bounds.M0.values[i]))
                      for i in reps]
        a_eq = np.asarray(sp, dtype=float)[None, :]
        b_eq = np.array([pa])
        a_ub = None
        b_ub = None
    else:
        km = np.stack([k.values[reps] for k in bounds.m_kernels]).T
        kM = np.stack([k.values[reps] for k in bounds.M_kernels]).T
        nm, nM = km.shape[1], kM.shape[1]
        n_lift = nm + nM
        var_bounds = [(0.0, math.inf)] * n + [(0.0, math.inf)] * n_lift
        a_eq = np.zeros((3, n + n_lift))
        a_eq[0, :n] = sp
        a_eq[1, n:n + nm] = 1.0
        a_eq[2, n + nm:] = 1.0
        b_eq = np.array([pa, 1.0, 1.0])
        rows = []
        rhs = []
        for i in range(n):
            row = np.zeros(n + n_lift)
            row[i] = -1.0
            row[n:n + nm] = km[i]
            rows.append(row)          # sum_k lam_k km[i,k] <= f_i
            rhs.append(0.0)
            row = np.zeros(n + n_lift)
            row[i] = 1.0
            row[n + nm:] = -kM[i]
            rows.append(row)          # f_i <= sum_k mu_k kM[i,k]
            rhs.append(0.0)
        a_ub = np.asarray(rows)
        b_ub = np.asarray(rhs)
    return n_lift, a_eq, b_eq, a_ub, b_ub, var_bounds


def density_set(bounds: BoundPair, space: FilteredSpace | None = None) -> DensityPolytope:
    """Build the per-block density polytope and certify nonemptiness.

    Raises PolytopeError naming the first empty block.
    """
    space = space or bounds.space
    blocks = []
    for a, sg in enumerate(space._segments(bounds.level_b, bounds.level_a)):
        n_lift, a_eq, b_eq, a_ub, b_ub, var_bounds = _block_rows(bounds, sg)
        res = solve_lp(LinearProgram(
            c=np.zeros(sg.ids.size + n_lift), sense="min", a_eq=a_eq, b_eq=b_eq,
            a_ub=a_ub, b_ub=b_ub, bounds=var_bounds))
        if res.status != "optimal":
            raise PolytopeError(
                f"density polytope empty on block {a} of level {bounds.level_a}",
                level_a=bounds.level_a, block=a)
        blocks.append(BlockPolytope(
            seg=sg, n_lift=n_lift, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
            var_bounds=tuple(var_bounds), feasible_point=res.x))
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
    ``weights``, so every solve shares the standard form of ``lp`` and warm
    starts from the vertex it kept from the last optimal solve. ``levels``
    is the extension's pair (s, t), which failures name. ``faces`` memoizes
    the read-only centered point of each optimal face, keyed by the bytes of
    the solve's ``x`` and ``tight``: besides the fixed constraints, they are
    all that ``_center_on_face`` reads. It holds at most ``FACE_MEMO_SIZE``
    faces.

    ``table`` keeps, for ``evaluate``, the optimal bases the block's
    evaluate solves have ended on: per (kept rows, basic columns), the
    vertex record the solve left as its form's kept vertex (B^-1, the kept
    rows and the read-only solution ``x``, which does not depend on the
    objective); the constraints never change, so nothing is checked again.
    ``lookup`` prices the entries with the simplex's own optimality test, so
    a hit is exactly a warm solve from that record that stops after one
    pass; its value is that solve's ``c @ x``, and the record becomes the
    form's kept vertex, as after that solve. The table is an LRU of at most
    ``TABLE_SIZE`` entries. ``TABLE_SIZE`` missed lookups in a row drop it
    for good: the block's optimal bases outnumber it, and its lookups would
    only add cost. ``attain`` neither reads nor fills it.
    """

    poly: BlockPolytope
    make_lp: partial
    weights: np.ndarray         # the segments' probabilities within the block
    levels: tuple[int, int]     # the extension's level pair (s, t)
    faces: dict = field(default_factory=dict, repr=False)
    table: dict = field(default_factory=dict, repr=False)
    misses: int = 0             # table lookups missed in a row

    @cached_property
    def lp(self) -> LinearProgram:
        return self.make_lp()

    def objective(self, x_reps: np.ndarray) -> np.ndarray:
        c = self.lp.c.copy()
        c[:self.poly.n_f] = self.weights * x_reps
        return c

    def program(self, x_reps: np.ndarray) -> LinearProgram:
        return self.lp.with_objective(self.objective(x_reps))

    def lookup(self, x_reps: np.ndarray) -> float | None:
        """The value at ``x_reps`` off the first tabled basis optimal for it,
        testing the form's kept vertex first, then the newest; None on a miss.
        A hit becomes the newest entry and the form's kept vertex."""
        c = self.objective(x_reps)
        form = self.lp._form
        cost = form.cost(c)
        tol = _cost_tol(cost)
        kept = self.table.get(form.last.basis) if form.last else None
        rest = [e for e in reversed(self.table.values()) if e is not kept]
        for vertex in [kept] + rest if kept else rest:
            if _pricing(vertex.a, cost, vertex.cols, vertex.binv, form.twin, tol)[3]:
                self.table[vertex.basis] = self.table.pop(vertex.basis)
                form.last = vertex
                self.misses = 0
                return float(c @ vertex.x)
        self.misses += 1
        return None

    def remember(self, res: LpResult) -> None:
        """Table the vertex the solve ``res`` that followed a missed lookup
        left kept, or drop the table on the ``TABLE_SIZE``-th miss in a row."""
        if self.misses >= TABLE_SIZE:
            self.table.clear()
            return
        self.table[res.basis] = self.lp._form.last
        if len(self.table) > TABLE_SIZE:
            del self.table[next(iter(self.table))]


@dataclass(frozen=True, eq=False)
class Attainment:
    density: RandomVariable
    value: RandomVariable
    penalty: PenaltyValue


@dataclass(eq=False)
class ExtendedOperator:
    """The maximal extension of ``base`` dominated by ``bounds``.

    Callable on every fine-level payoff; restriction to the original domain
    reproduces the base operator. Evaluation results are memoized per payoff
    vector in a least-recently-used memo of ``EVAL_MEMO_SIZE`` entries. On a
    memo miss each block's value is read off its program's table of optimal
    bases when an entry passes the simplex's optimality test for the payoff;
    otherwise the block solves warm and tables the basis it ends on. A table
    holds at most ``TABLE_SIZE`` bases, least recently used first out, and
    ``TABLE_SIZE`` misses in a row drop it for good (see ``_BlockProgram``).
    ``attain`` solves every block program again, and memoizes per block the
    centered point of each optimal face it reaches, in a least-recently-used
    memo of ``FACE_MEMO_SIZE`` faces. Each block program's LP keeps its
    standard form and the vertex record of its last optimal solve for the
    next warm solve, which returns that record's solution as it is when its
    first pass finds it optimal; the table's entries are those same records.
    Every solve or table hit replaces the kept record and updates a memo or
    table, so even a read (``evaluate`` or ``attain``) mutates the instance:
    use it from one thread at a time.
    """

    base: PolyhedralOperator
    bounds: BoundPair
    polytope: DensityPolytope
    _programs: list[_BlockProgram] = field(default_factory=list, repr=False)
    _eval_cache: dict = field(default_factory=dict, repr=False)

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
        by_block = np.array([self._block_value(a, X.values)
                             for a in range(len(self._programs))])
        return RandomVariable(
            self.space._layout[self.level_a].broadcast(by_block), self.level_a)

    def _block_value(self, a: int, x: np.ndarray) -> float:
        """Block ``a``'s value at payoff ``x``: off its table, or a warm solve
        that the table then keeps."""
        prog = self._programs[a]
        if prog.misses >= TABLE_SIZE:
            return self._solve_block(a, x).value
        value = prog.lookup(x[prog.poly.seg.reps])
        if value is None:
            res = self._solve_block(a, x)
            prog.remember(res)
            value = res.value
        return value

    def _solve_block(self, a: int, x: np.ndarray) -> LpResult:
        prog = self._programs[a]
        res = solve_lp(prog.program(x[prog.poly.seg.reps]), warm=True)
        if res.status != "optimal":
            raise LpStatusError(
                "extension block program", (self.level_a, self.level_b), a, res.status,
                why="the sandwich precondition should rule this out")
        return res


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
        bmat = op.domain.block_bases[a][sg.rows.firsts, :]   # segment basis values
        d = bmat.shape[1]
        n = bp.n_f
        nj = len(op.pieces)
        nv = n + bp.n_lift + nj
        fmat = dens[:, sg.reps].T                    # n x J
        # equalities: polytope rows, theta simplex, subspace matching
        eq_rows = [np.concatenate([row, np.zeros(nj)]) for row in bp.a_eq]
        eq_rhs = list(bp.b_eq)
        theta_row = np.zeros(nv)
        theta_row[n + bp.n_lift:] = 1.0
        eq_rows.append(theta_row)
        eq_rhs.append(1.0)
        wb = bmat.T * sg.rows.probs[None, :]         # d x n, rows <B_k, sp . >
        match_f = wb
        match_th = -(wb @ fmat)                      # d x J
        for k in range(d):
            row = np.zeros(nv)
            row[:n] = match_f[k]
            row[n + bp.n_lift:] = match_th[k]
            eq_rows.append(row)
            eq_rhs.append(0.0)
        # the matching row along the constant direction restates budget and
        # simplex rows up to float noise; near-dependent equalities poison
        # simplex bases, so only an independent subset is kept
        eq_mat = np.asarray(eq_rows)
        eq_vec = np.asarray(eq_rhs)
        keep: list[int] = []
        for r in range(eq_mat.shape[0]):
            if np.linalg.matrix_rank(eq_mat[keep + [r]], tol=EQ_RANK_TOL) > len(keep):
                keep.append(r)
        if bp.a_ub is not None:
            ub_rows = np.hstack([bp.a_ub, np.zeros((bp.a_ub.shape[0], nj))])
            ub_rhs = bp.b_ub
        else:
            ub_rows = None
            ub_rhs = None
        make_lp = partial(
            LinearProgram, c=np.concatenate([np.zeros(n + bp.n_lift), -penalties[a]]),
            sense="max", a_eq=eq_mat[keep], b_eq=eq_vec[keep], a_ub=ub_rows, b_ub=ub_rhs,
            bounds=list(bp.var_bounds) + [(0.0, math.inf)] * nj)
        ext._programs.append(_BlockProgram(
            poly=bp, make_lp=make_lp, weights=sg.rows.probs / sg.prob,
            levels=(op.level_a, op.level_b)))
    return ext


def attain(ext: ExtendedOperator, X: RandomVariable) -> Attainment:
    """Optimal density with its penalty, centered on the optimal face.

    The returned density satisfies, per block,
    E[f_X X | block] - penalty = extension value, and the penalty equals the
    conjugate of the base operator at f_X.
    """
    if X.level > ext.level_b:
        raise LevelError("payoff finer than the extension level")
    space = ext.space
    fine, coarse = space._layout[ext.level_b], space._layout[ext.level_a]
    f_seg = np.empty(fine.probs.size)
    values = np.empty(coarse.probs.size)
    pen = np.empty(coarse.probs.size)
    for a, prog in enumerate(ext._programs):
        poly = prog.poly
        res = ext._solve_block(a, X.values)
        z = _memoized(prog.faces, res.x.tobytes() + res.tight.tobytes(),
                      FACE_MEMO_SIZE, partial(_center_on_face, prog, res, a))
        values[a] = res.value
        f_seg[poly.seg.ids] = z[:poly.n_f]
        pen[a] = float(-prog.lp.c[poly.n_vars:] @ z[poly.n_vars:])
    return Attainment(
        density=RandomVariable(fine.broadcast(f_seg), ext.level_b),
        value=RandomVariable(coarse.broadcast(values), ext.level_a),
        penalty=PenaltyValue(space, ext.level_a, pen))


def _center_on_face(prog: _BlockProgram, res: LpResult, block: int) -> np.ndarray:
    """Deterministic relative-interior point of the density side of the
    optimal face of block ``block``, whose solve gave ``res``.

    The face holds every constraint ``res.tight`` marks with equality: those
    variables at their bounds, those ``a_ub`` rows as equalities. It is
    written z = z0 + N w, N a null-space basis of the equalities over the
    other variables; without N it is the point z0 and no LP runs. Otherwise
    one LP (Freund, Roundy & Todd, 1985) finds which density-side slacks are
    implicit equalities, judged relative to each slack row's scale, and a
    second maximizes the minimum of the others. The point is read-only, since
    ``attain`` memoizes it.
    """
    lp = prog.lp
    nv, n_f = lp.n_vars, prog.poly.n_f
    lo, hi = np.array(lp.bounds).T
    a_ub = np.zeros((0, nv)) if lp.a_ub is None else lp.a_ub
    b_ub = np.zeros(0) if lp.b_ub is None else lp.b_ub
    rows, at_lo, at_hi = np.split(res.tight, [b_ub.size, b_ub.size + nv])
    z0 = np.where(at_lo, lo, np.where(at_hi, hi, res.x))
    z0.setflags(write=False)
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
        out = solve_lp(LinearProgram(c=c, sense="max", a_ub=a, b_ub=b, bounds=bounds))
        if out.status != "optimal":
            raise LpStatusError("centering LP", prog.levels, block, out.status)
        return out.x

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
    blocks where it is not.
    """
    space = ext.space
    _check_density(space, ext.level_a, ext.base.level_b, f)
    base = conjugate(ext.base, f, check=False)
    vals = np.array(base.by_block)
    for a, member in enumerate(ext.polytope.block_members(f, tol)):
        if not member:
            vals[a] = math.inf
    return PenaltyValue(space, ext.level_a, vals)


def verify_representation(op: PolyhedralOperator, n_payoffs: int = 20,
                          n_densities: int = 8, seed: int = 0,
                          tol: float = 1e-7) -> ValidationReport:
    """Reconstruct the operator from conjugates of a finite density family.

    The family is the operator's own piece densities plus random per-block
    convex mixtures of them. Each candidate scores at most the operator
    value, and the best candidate reaches it: with minimal penalties the
    pieces are self-representing.
    """
    space = op.space
    blocks = space._layout[op.level_a]
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
        X = space.rv(xv, op.level_b)
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
