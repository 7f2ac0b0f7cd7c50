"""Convex monotone operators in max-affine form, and operator bounds.

An operator here is a finite family of pieces, each a nonnegative density
with unit conditional expectation onto the coarse level plus a nonnegative
coarse-level penalty; its value on a payoff is, per coarse block, the best
piece score E[f_j X | block] - c_j(block). Monotonicity, convexity, lower
semicontinuity, locality with respect to coarse indicators, and projection
onto coarse payoffs (when the per-block minimal penalty is zero) all follow
from this shape; ``validate_operator`` reports which of the defining data
constraints actually hold for a given instance.

Bounds come in two kinds. A linear pair evaluates through a single pair of
kernels (m0, M0); a polyhedral pair takes a minimum of kernels below and a
maximum above, superlinear and sublinear respectively on the positive cone.

``check_sandwich`` decides, exactly, whether a bound pair dominates the
operator in the sandwich sense: m(Z) + x(X) <= M(Y) whenever Z + X <= Y with
Y, Z nonnegative and X in the domain. The inequality system is positively
homogeneous apart from the penalties, so it holds if and only if, per block
and piece, a normalized LP has optimal value zero; a strictly negative value
scales into an explicit witness triple. The constraints depend on the block
alone, so each block has one program and each piece sets only its objective
(``with_objective``); every piece's LP is solved cold, which takes the path
of a freshly built program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lp import LinearProgram, LpError, LpResult, LpStatusError, solve_lp
from .spaces import FilteredSpace, LevelError, RandomVariable, _Segments
from .subspaces import Subspace

VALUE_TOL = 1e-9
DATA_TOL = 1e-12


def _solved(solve, name: str, levels: tuple[int, int], block: int, lp: LinearProgram,
            warm: bool = False, ok: tuple[str, ...] = ("optimal",), piece: int | None = None,
            why: str = "") -> LpResult:
    """``solve(lp, warm=warm)``, whose status must be one of ``ok``: the one
    place a library LP's failure is named. ``solve`` is the caller module's
    own ``solve_lp`` binding, read at the call. Otherwise an ``LpStatusError``
    names the LP, the pair, the block, the piece if given and the status, or
    the error class of a raw solver fault (``LpError`` or ``LinAlgError``)
    with its message."""
    try:
        res = solve(lp, warm=warm)
    except (LpError, np.linalg.LinAlgError) as err:
        raise LpStatusError(name, levels, block, type(err).__name__, piece,
                            str(err)) from err
    if res.status not in ok:
        raise LpStatusError(name, levels, block, res.status, piece, why)
    return res


class DomainError(ValueError):
    """Payoff outside the operator's declared domain."""


class BoundsError(ValueError):
    """Structurally invalid bound pair."""


class PolytopeError(ValueError):
    """Empty density region; carries the offending block."""

    def __init__(self, message: str, level_a: int | None = None,
                 block: int | None = None):
        super().__init__(message)
        self.level_a = level_a
        self.block = block


@dataclass(frozen=True, eq=False)
class Piece:
    """One max-affine piece: density at the fine level, penalty at the coarse."""

    density: RandomVariable
    penalty: RandomVariable


@dataclass(frozen=True, eq=False)
class PolyhedralOperator:
    """Max-affine operator on ``domain``.

    It holds one conjugate LP per coarse block, built on first use, whose
    standard form every conjugate of the operator shares; conjugates solve
    it cold, and each block memoizes the values it solved, by objective (see
    ``extension.conjugate``). So even a read (a conjugate) mutates the
    instance, and every system ``Scenario.subsystem`` builds from one
    scenario shares it: use it from one thread at a time.
    """

    domain: Subspace
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("an operator needs at least one piece")
        object.__setattr__(self, "pieces", tuple(self.pieces))
        for pc in self.pieces:
            if pc.density.level > self.domain.level_b:
                raise LevelError("piece density finer than the domain level")
            if pc.penalty.level > self.domain.level_a:
                raise LevelError("piece penalty must be coarse-level measurable")

    @property
    def space(self) -> FilteredSpace:
        return self.domain.space

    @property
    def level_a(self) -> int:
        return self.domain.level_a

    @property
    def level_b(self) -> int:
        return self.domain.level_b

    def _densities(self) -> np.ndarray:
        """Piece densities stacked; shape (pieces, atoms)."""
        return np.stack([pc.density.values for pc in self.pieces])

    def _penalties(self) -> np.ndarray:
        """Piece penalties per coarse block; shape (blocks, pieces)."""
        firsts = self.space._layout[self.level_a].firsts
        return np.stack([pc.penalty.values[firsts] for pc in self.pieces], axis=1)

    @cached_property
    def _conjugate_lps(self) -> tuple[LinearProgram, ...]:
        """Per coarse block, the conjugate's epigraph LP over free (beta, t):
        one row ``_conjugate_row`` of piece j <= c_j per piece. A density sets
        only the objective, its own row (see ``extension.conjugate``)."""
        penalties = self._penalties()
        return tuple(LinearProgram(
            c=self._conjugate_row(a, self.pieces[0].density.values), sense="max",
            a_ub=[self._conjugate_row(a, pc.density.values) for pc in self.pieces],
            b_ub=penalties[a],
            bounds=[(-np.inf, np.inf)] * (self.domain.block_bases[a].shape[1] + 1))
            for a in range(len(penalties)))

    @cached_property
    def _conjugate_memos(self) -> tuple[dict, ...]:
        """Per coarse block, the conjugate values solved on it, keyed by the
        bytes of their LP objective (see ``extension._block_conjugate``)."""
        return tuple({} for _ in self._conjugate_lps)

    def _conjugate_row(self, a: int, values: np.ndarray) -> np.ndarray:
        """[B^T(pw f), -1] on coarse block ``a``: the block expectation of f
        times each local basis column, then -1 for the epigraph variable."""
        sg = self.space._segments(self.level_b, self.level_a)[a]
        pw = self.space.probs[sg.atoms] / sg.prob
        return np.append(self.domain.block_bases[a].T @ (pw * values[sg.atoms]), -1.0)

    def scores(self, X: RandomVariable) -> np.ndarray:
        """Per-block piece scores E[f_j X | block] - c_j(block); shape (blocks, pieces)."""
        blocks = self.space._layout[self.level_a]
        return blocks.means(self._densities() * X.values).T - self._penalties()

    def evaluate(self, X: RandomVariable) -> RandomVariable:
        """Best piece score per coarse block."""
        if not self.domain.contains(X):
            raise DomainError("payoff is not in the operator's domain")
        blocks = self.space._layout[self.level_a]
        return RandomVariable(blocks.broadcast(self.scores(X).max(axis=1)),
                              self.level_a)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[CheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]


def validate_operator(op: PolyhedralOperator) -> ValidationReport:
    """Report the data constraints behind monotonicity and projection.

    Monotonicity needs nonnegative densities; consistency of conditioning
    needs unit block expectations; projection onto coarse payoffs needs the
    per-block minimum penalty to vanish and nonnegative penalties keep the
    operator dominated by its own unpenalized pieces. Convexity, lower
    semicontinuity and locality are structural for the max-affine shape and
    are reported as such.
    """
    space = op.space
    entries = []
    dens = op._densities()
    worst_neg = float(dens.min())
    entries.append(CheckEntry(
        "densities_nonnegative", worst_neg >= -DATA_TOL, f"min density {worst_neg:.3e}"))
    worst_dev = float(np.abs(space._layout[op.level_a].means(dens) - 1.0).max())
    entries.append(CheckEntry(
        "unit_block_expectation", worst_dev <= VALUE_TOL, f"max |E[f|A]-1| {worst_dev:.3e}"))
    pen_min = min(float(pc.penalty.values.min()) for pc in op.pieces)
    entries.append(CheckEntry(
        "penalties_nonnegative", pen_min >= -DATA_TOL, f"min penalty {pen_min:.3e}"))
    worst_floor = float(np.abs(op._penalties().min(axis=1)).max())
    entries.append(CheckEntry(
        "zero_penalty_floor", worst_floor <= VALUE_TOL,
        f"max per-block min penalty {worst_floor:.3e}"))
    one = RandomVariable(np.ones(space.n_atoms), 0)
    entries.append(CheckEntry(
        "constants_in_domain", op.domain.contains(one), ""))
    entries.append(CheckEntry(
        "convex_lsc_local", True,
        "structural for max-affine pieces on a finite space"))
    return ValidationReport(tuple(entries))


# --------------------------------------------------------------------------
# bound pairs


@dataclass(frozen=True, eq=False)
class BoundPair:
    """Superlinear minorant and sublinear majorant on the positive cone.

    kind "linear": m(X) = E[m0 X | A], M(X) = E[M0 X | A].
    kind "polyhedral": m is the blockwise minimum and M the blockwise maximum
    of kernel expectations E[k X | A].

    Regularity (continuity along monotone sequences) is automatic on a finite
    space.
    """

    space: FilteredSpace
    level_b: int
    level_a: int
    kind: str
    m_kernels: tuple[RandomVariable, ...]
    M_kernels: tuple[RandomVariable, ...]

    def __post_init__(self):
        self.space.check_level(self.level_b)
        self.space.check_level(self.level_a)
        if self.level_a > self.level_b:
            raise BoundsError("level_a must be at least as coarse as level_b")
        if self.kind not in ("linear", "polyhedral"):
            raise BoundsError(f"unknown kind {self.kind!r}")
        if not self.m_kernels or not self.M_kernels:
            raise BoundsError("kernels must be nonempty")
        for k in (*self.m_kernels, *self.M_kernels):
            if k.level > self.level_b:
                raise LevelError("kernel finer than level_b")
            if float(k.values.min()) < -DATA_TOL:
                raise BoundsError("kernels must be nonnegative")
        if self.kind == "linear":
            if len(self.m_kernels) != 1 or len(self.M_kernels) != 1:
                raise BoundsError("linear kind takes exactly one kernel per side")
            gap = self.M_kernels[0].values - self.m_kernels[0].values
            if float(gap.min()) < -DATA_TOL:
                raise BoundsError("m0 must not exceed M0")
        else:
            self._check_dominance()

    def _check_dominance(self):
        # exact per-block test that min-of-kernels <= max-of-kernels on the
        # positive cone of level_b payoffs: minimize the epigraph gap over
        # the segment simplex
        for a, seg in enumerate(self.space._segments(self.level_b, self.level_a)):
            km, kM = self._kernels_at(seg.reps)
            n = km.shape[1]
            # vars: (x in simplex, t); min t s.t. t >= <kM_i - km_j, x>_p for
            # every (i, j), one row each: <kM_i - km_j, x>_p - t <= 0
            gaps = (kM[:, None] - km[None]).reshape(-1, n)
            rows = np.hstack([seg.rows.probs * gaps / seg.prob, -np.ones((len(gaps), 1))])
            res = _solved(solve_lp, "dominance LP", (self.level_a, self.level_b), a,
                          LinearProgram(c=np.append(np.zeros(n), 1.0), sense="min",
                                        a_eq=[np.append(np.ones(n), 0.0)], b_eq=[1.0],
                                        a_ub=rows, b_ub=np.zeros(len(rows)),
                                        bounds=[(0.0, np.inf)] * n + [(-np.inf, np.inf)]),
                          why="it is always feasible and bounded")
            if res.value < -VALUE_TOL:
                raise BoundsError(
                    f"minorant exceeds majorant on block {a} of level {self.level_a}"
                    f" (gap {res.value:.3e})")

    def _kernels_at(self, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The minorant and the majorant kernels at atoms ``reps``, stacked
        one kernel per row."""
        return (np.stack([k.values[reps] for k in self.m_kernels]),
                np.stack([k.values[reps] for k in self.M_kernels]))

    @classmethod
    def linear(cls, space: FilteredSpace, level_b: int, level_a: int,
               m0: RandomVariable, M0: RandomVariable) -> "BoundPair":
        return cls(space, level_b, level_a, "linear", (m0,), (M0,))

    @classmethod
    def polyhedral(cls, space: FilteredSpace, level_b: int, level_a: int,
                   m_kernels, M_kernels) -> "BoundPair":
        return cls(space, level_b, level_a, "polyhedral",
                   tuple(m_kernels), tuple(M_kernels))

    @property
    def m0(self) -> RandomVariable:
        if self.kind != "linear":
            raise BoundsError("m0 is only defined for the linear kind")
        return self.m_kernels[0]

    @property
    def M0(self) -> RandomVariable:
        if self.kind != "linear":
            raise BoundsError("M0 is only defined for the linear kind")
        return self.M_kernels[0]

    def _apply(self, values: np.ndarray, kernels, agg) -> np.ndarray:
        """Per-block bound values of a stacked batch of payoffs (rows).

        ``agg`` (``np.min`` or ``np.max``) combines the kernel expectations
        per level_a block; a linear pair has one kernel, so it is the
        identity there. The result has one row per payoff.
        """
        ks = np.stack([k.values for k in kernels])[:, None, :]
        return agg(self.space._layout[self.level_a].means(ks * values), axis=0)

    def _bound_rv(self, X: RandomVariable, kernels, agg) -> RandomVariable:
        blocks = self.space._layout[self.level_a]
        return RandomVariable(
            blocks.broadcast(self._apply(X.values[None], kernels, agg)[0]),
            self.level_a)

    def minorant(self, X: RandomVariable) -> RandomVariable:
        """m(X); superlinear on the positive cone."""
        return self._bound_rv(X, self.m_kernels, np.min)

    def majorant(self, X: RandomVariable) -> RandomVariable:
        """M(X); sublinear on the positive cone."""
        return self._bound_rv(X, self.M_kernels, np.max)

    def atom_floor(self) -> np.ndarray:
        """Per-atom lower envelope of the minorant kernels."""
        return np.min(np.stack([k.values for k in self.m_kernels]), axis=0)


def check_nondegenerate(bounds: BoundPair, tol: float = DATA_TOL) -> bool:
    """True iff E[m(1_w)] > 0 for every finest atom w.

    m(1_w) vanishes off the block of w and is min_k p_w k(w) / P(block) on
    it, so E[m(1_w)] = p_w min_k k(w).
    """
    return bool(np.all(bounds.space.probs * bounds.atom_floor() > tol))


def check_mM1(family: dict, space: FilteredSpace, grid,
              n_samples: int = 64, seed: int = 0) -> ValidationReport:
    """Weak time-consistency of a bounds family over a time grid.

    ``family`` maps every grid pair (s, t), s < t, to a BoundPair with
    level_b = t and level_a = s. The checks are
    m_{r,s}(m_{s,t}(X)) >= m_{r,t}(X) and M_{r,s}(M_{s,t}(X)) <= M_{r,t}(X)
    for nonnegative X, plus non-degeneracy of the longest minorant. For
    all-linear families the block indicators of level t span the positive
    cone linearly, so testing them is exact; any polyhedral member makes the
    verdict sampled and extra random nonnegative payoffs are drawn.
    """
    grid = [space.check_level(g) for g in grid]
    if sorted(grid) != grid or len(set(grid)) != len(grid):
        raise LevelError("grid must be strictly increasing")
    entries = []
    pairs = [(s, t) for i, s in enumerate(grid) for t in grid[i + 1:]]
    missing = [st for st in pairs if st not in family]
    entries.append(CheckEntry(
        "family_complete", not missing,
        "" if not missing else f"missing pairs {missing}"))
    if missing:
        return ValidationReport(tuple(entries))
    level_ok = all(
        family[(s, t)].level_a == s and family[(s, t)].level_b == t
        for s, t in pairs)
    entries.append(CheckEntry("pair_levels", level_ok, ""))
    if not level_ok:
        return ValidationReport(tuple(entries))

    exact = all(family[st].kind == "linear" for st in pairs)
    rng = np.random.default_rng(seed)

    def test_vectors(t: int) -> np.ndarray:
        blocks = space._layout[t]
        per_block = np.eye(blocks.probs.size)
        if not exact:
            per_block = np.vstack([
                per_block, rng.uniform(0.0, 2.0, (n_samples, blocks.probs.size))])
        return blocks.broadcast(per_block)

    # per side: its kernels, how they combine, and the sign of a violation of
    # the composed bound against the direct one
    sides = {"minorant": ("m_kernels", np.min, 1.0), "majorant": ("M_kernels", np.max, -1.0)}
    worst = dict.fromkeys(sides, 0.0)
    for i, r in enumerate(grid):
        for j in range(i + 1, len(grid)):
            s = grid[j]
            for k in range(j + 1, len(grid)):
                t = grid[k]
                b_rs, b_st, b_rt = family[(r, s)], family[(s, t)], family[(r, t)]
                xs = test_vectors(t)
                for side, (kernels, agg, sign) in sides.items():
                    # per level-r block values; the inner bound goes back onto atoms
                    inner = space._layout[s].broadcast(
                        b_st._apply(xs, getattr(b_st, kernels), agg))
                    two = b_rs._apply(inner, getattr(b_rs, kernels), agg)
                    one = b_rt._apply(xs, getattr(b_rt, kernels), agg)
                    worst[side] = max(worst[side], float((sign * (one - two)).max()))
    tag = "exact on block indicators" if exact else f"sampled, {n_samples} draws"
    for side, dev in worst.items():
        entries.append(CheckEntry(f"{side}_weakly_consistent", dev <= VALUE_TOL,
                                  f"max violation {dev:.3e}; {tag}"))
    entries.append(CheckEntry(
        "long_minorant_nondegenerate",
        check_nondegenerate(family[(grid[0], grid[-1])]), ""))
    return ValidationReport(tuple(entries))


# --------------------------------------------------------------------------
# sandwich check


@dataclass(frozen=True)
class SandwichReport:
    holds: bool
    fast_path: bool = False
    block: int | None = None
    piece: int | None = None
    gap: float = 0.0
    witness: tuple[RandomVariable, RandomVariable, RandomVariable] | None = None
    # witness is (X, Z, Y): X in the domain, Z, Y >= 0, Z + X <= Y and
    # m(Z) + x(X) > M(Y) on the reported block


def check_sandwich(op: PolyhedralOperator, bounds: BoundPair) -> SandwichReport:
    """Exact sandwich test via one homogeneous LP per block and piece.

    The feasible triples form a cone, so the per-piece inequality either
    holds everywhere or scales into an arbitrarily large violation; with the
    normalization row added, optimal value zero certifies the former.

    Each block builds one program over (bp, bm, Y, Z, tM, um); each piece
    only sets its objective, and its LP is solved cold, so the result has
    the bits of a freshly built program whatever the block solved before.
    Blocks are taken in order and pieces in order within a block; the first
    violation is reported.
    """
    if bounds.space is not op.space:
        raise ValueError("bounds and operator live on different spaces")
    if (bounds.level_a, bounds.level_b) != (op.level_a, op.level_b):
        raise LevelError("bounds and operator live on different level pairs")
    space = op.space

    if bounds.kind == "linear":
        m0 = bounds.m0.values
        M0 = bounds.M0.values
        inside = all(
            float((pc.density.values - m0).min()) >= -DATA_TOL
            and float((M0 - pc.density.values).min()) >= -DATA_TOL
            and float(pc.penalty.values.min()) >= -DATA_TOL
            for pc in op.pieces)
        if inside:
            return SandwichReport(holds=True, fast_path=True)

    penalties = op._penalties()
    for a, sg in enumerate(space._segments(op.level_b, op.level_a)):
        bmat = op.domain.block_bases[a][sg.rows.firsts, :]  # segment basis values
        d, n = bmat.shape[1], sg.ids.size
        km, kM = bounds._kernels_at(sg.reps)
        pw = sg.rows.probs / sg.prob
        nM, nm = len(kM), len(km)
        y, z = 2 * d, 2 * d + n            # the first Y and Z columns
        # vars: bp(d), bm(d), Y(n), Z(n), tM, um
        a_ub = np.zeros((n + nM + nm + 1, 2 * d + 2 * n + 2))
        # Z + B(bp - bm) - Y <= 0, atomwise
        a_ub[:n, :z + n] = np.hstack([bmat, -bmat, -np.eye(n), np.eye(n)])
        # tM >= <k, Y> for every majorant kernel
        a_ub[n:n + nM, y:z], a_ub[n:n + nM, -2] = pw * kM, -1.0
        # um >= <-k, Z> for every minorant kernel
        a_ub[n + nM:-1, z:-2], a_ub[n + nM:-1, -1] = (-pw) * km, -1.0
        # normalization keeps the cone program bounded
        a_ub[-1, :-2] = 1.0
        lp = LinearProgram(c=np.zeros(a_ub.shape[1]), sense="min", a_ub=a_ub,
                           b_ub=np.append(np.zeros(n + nM + nm), 1.0),
                           bounds=[(0.0, np.inf)] * (z + n) + [(-np.inf, np.inf)] * 2)
        for j, pc in enumerate(op.pieces):
            g = bmat.T @ (pw * pc.density.values[sg.reps])
            res = _solved(solve_lp, "sandwich LP", (op.level_a, op.level_b), a,
                          lp.with_objective(np.concatenate([-g, g, np.zeros(2 * n), [1.0, 1.0]])),
                          piece=j)
            if res.value < -VALUE_TOL:
                scale = (penalties[a, j] + 1.0) / (-res.value)
                beta = (res.x[:d] - res.x[d:y]) * scale
                # witness values per segment, zero off the block
                seg_vals = np.zeros((3, space._layout[op.level_b].probs.size))
                seg_vals[:, sg.ids] = (bmat @ beta, res.x[z:z + n] * scale,
                                       res.x[y:z] * scale)
                atom_vals = space._layout[op.level_b].broadcast(seg_vals)
                witness = tuple(RandomVariable(v, op.level_b) for v in atom_vals)
                return SandwichReport(holds=False, block=a, piece=j,
                                      gap=float(res.value), witness=witness)
    return SandwichReport(holds=True)


# --------------------------------------------------------------------------
# density polytope (rows written once by ``extension._block_rows``; membership
# here and the extension's block programs both read them)


@dataclass(frozen=True, eq=False)
class BlockPolytope:
    """H-description of the feasible densities on one coarse block.

    Density variables are indexed by the level_b segments of ``seg`` (one
    value per segment, since densities are level_b measurable); z = (f, lam,
    mu) where lam and mu are simplex multipliers for the minorant and
    majorant kernel hulls (absent for the linear kind, where the kernels
    bound f directly through the box). Row 0 of ``a_eq`` is the unit-mean
    budget over f, the other rows the multiplier simplices; each row of
    ``a_ub`` has a single +-1 entry among the f columns.
    """

    seg: _Segments
    n_lift: int
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray | None
    b_ub: np.ndarray | None
    var_bounds: tuple[tuple[float, float], ...]

    @property
    def n_f(self) -> int:
        return self.seg.ids.size

    @property
    def n_vars(self) -> int:
        return self.n_f + self.n_lift

    @cached_property
    def f_box(self) -> np.ndarray:
        """The density columns' bounds, read-only rows (lo, hi)."""
        box = np.array(self.var_bounds[:self.n_f]).T
        box.setflags(write=False)
        return box


@dataclass(frozen=True, eq=False)
class DensityPolytope:
    """Per-block feasible densities pinned between the bound pair.

    On each coarse block this is {f >= 0, E[f | block] = 1, and
    m(X) <= E[f X | block] <= M(X) for every nonnegative X}; the two-sided
    envelope condition reduces to the box [m0, M0] for linear bounds and to
    membership of f in (hull of minorant kernels + positives) and
    (hull of majorant kernels - positives) for polyhedral ones, expressed
    exactly through lifted simplex multipliers.

    It holds one membership LP per block with lifted multipliers, built on
    first use, whose standard form every membership test of the block
    shares; each test is a warm solve from the vertex the form kept.
    """

    bounds: BoundPair
    blocks: tuple[BlockPolytope, ...]

    @property
    def level_a(self) -> int:
        return self.bounds.level_a

    @cached_property
    def _membership_lps(self) -> tuple[LinearProgram, ...]:
        """Per block, the constraints of ``_kernel_excess``'s LP over (v, y);
        built only for polyhedral bounds, whose blocks all lift multipliers."""
        lps = []
        for bp in self.blocks:
            n = bp.n_f
            a_eq, g = bp.a_eq[1:, n:], bp.a_ub[:, n:]
            k, r = a_eq.shape[0], g.shape[0]
            lps.append(LinearProgram(
                c=np.zeros(k + r), sense="max",
                a_eq=np.r_[np.zeros(k), np.ones(r)][None, :], b_eq=[1.0],
                a_ub=np.hstack([a_eq.T, -g.T]), b_ub=np.zeros(bp.n_lift),
                bounds=[(-np.inf, np.inf)] * k + [(0.0, np.inf)] * r))
        return tuple(lps)

    def contains_on_block(self, a: int, f_local: np.ndarray,
                          tol: float = 1e-9) -> bool:
        """Membership of local density values (atom-indexed) in one block.

        The values must be level_b measurable; they are reduced to one value
        per segment, checked against the budget and the box, and, when the
        block has lifted multipliers, against the stored kernel rows: some
        multipliers must meet every row within ``tol``, that is, the value
        of the LP dual in ``_kernel_excess`` must be at most ``tol``.
        """
        bp = self.blocks[a]
        rows = bp.seg.rows
        fl = np.asarray(f_local, dtype=float)
        # a non-finite atom fails before the spread could take inf - inf
        if not (np.all(np.isfinite(fl)) and np.all(rows.spread(fl) <= tol)):
            return False
        fs = fl[rows.firsts]
        if not abs(float(rows.probs @ fs) / float(rows.probs.sum()) - 1.0) <= tol:
            return False
        lo, hi = bp.f_box
        if not (float((fs - lo).min()) >= -tol and float((hi - fs).min()) >= -tol):
            return False
        return not bp.n_lift or self._kernel_excess(a, fs) <= tol

    def _kernel_excess(self, a: int, fs: np.ndarray) -> float:
        """Least violation of block ``a``'s kernel rows at segment values fs.

        The rows are G w <= h(fs) = b_ub - a_ub[:, :n] fs over the lifted
        multipliers w, G = a_ub[:, n:], with w on their simplices; this is
        min_w max_r (G w - h(fs))_r, the value of its LP dual: maximize
        b_eq[1:].v - h(fs).y subject to A_eq[1:, n:]^T v - G^T y <= 0,
        sum y = 1, y >= 0. The dual is always feasible and bounded, and fs
        changes only its objective, so each solve is warm: it restarts from
        the vertex the block's last optimal solve kept.
        """
        bp = self.blocks[a]
        return _solved(solve_lp, "membership LP", (self.level_a, self.bounds.level_b), a,
                       self._membership_lps[a].with_objective(np.concatenate(
                           [bp.b_eq[1:], bp.a_ub[:, :bp.n_f] @ fs - bp.b_ub])),
                       warm=True, why="it is always feasible and bounded").value

    def block_members(self, f: RandomVariable, tol: float = 1e-9):
        """Membership verdict of every block in turn, computed lazily."""
        return (self.contains_on_block(a, f.values[bp.seg.atoms], tol)
                for a, bp in enumerate(self.blocks))

    def contains_density(self, f: RandomVariable, tol: float = 1e-9) -> bool:
        """Membership of a density in every block polytope."""
        return f.level <= self.bounds.level_b and all(self.block_members(f, tol))
