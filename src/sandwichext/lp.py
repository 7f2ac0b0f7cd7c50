"""Dense linear programming kernel and the box-budget support function.

The solver is a two-phase primal simplex on the standard form min c.u,
A u = b, u >= 0. The column with the most negative reduced cost enters
(Dantzig); a run of degenerate pivots hands over to Bland's least-index rule
until a pivot moves, so it cannot cycle. Problems in this package are tiny
(tens of variables), so a dense B^-1 gives the duals, the entering column and
the ratio test's basic solution. A pivot updates it in product form (Dantzig
& Orchard-Hays 1954); the simplex stops only on a fresh inverse of its final
basis, so no update's drift reaches an output.

Phase 1 starts each row on its slack where that keeps coefficient +1 and
adds artificials for the other rows only; without them it is skipped.

A program's checked constraints and standard form are shared by every program
``with_objective`` derives, and the form keeps a ``_Vertex`` record of its last
optimal solve: the basis, B^-1, the kept rows of the constraints and the
read-only solution x, written only once x has passed the feasibility re-check.
Those programs differ only in the objective, so that vertex stays feasible for
all of them: a ``warm`` solve restarts phase 2 from it, with phase 1 skipped
and the record's B^-1 as its first inverse. When the first pass finds the
vertex optimal, the solve returns the record's x as it is, neither recomputed
nor checked again; only a solve that pivots writes a new record. The record is
one tuple, read once per solve and replaced whole, so programs sharing a form
may be solved from several threads. ``_pricing`` is the optimality test each
simplex pass makes: applied to a record and a new objective's
``_StandardForm.cost``, it tells without a solve whether a warm solve from that
record would stop at once, on the record's x. ``_stacked_pricing`` is the same
test over a stack of records, each row with its own costs, and ``cost`` and
``_cost_tol`` take such stacks too. A caller that ran that test on the kept
record under a program's objective may attach the pass to the program
(``_derived``, a ``_FirstPass``): a warm solve then returns from it without
pricing again, and ignores a pass on any other record or on a cold solve.

Determinism: the same sequence of calls gives the same bytes. A warm solve
may end on a different vertex of a non-unique optimum than a cold one, with
the same optimal value.

Status is a strict trichotomy. Optimal results carry the dual objective and
the always-tight constraints from the final basis, each formed when read,
unbounded results an improving ray in the original variables, infeasible
results a Farkas-style aggregated certificate that is verified numerically
before being returned.

``support_function`` maximizes E[f W | block] over the density polytope
{m0 <= f <= M0, E[f | block] = 1} by the continuous-knapsack greedy: atoms
sorted by payoff (ties by atom index), at most one fractional atom. It is the
solver-free twin of the same LP and the pair is cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

FEAS_TOL = 1e-9
COST_TOL = 1e-11        # times max(1, |c|max), see _simplex
PIVOT_TOL = 1e-11
DROP_TOL = 1e-8         # phase 1 drops a row whose entries off the basis all lie within this
RESID_TOL = 1e-6        # times max(1, |b|max): an optimal basis's residual above it raises
MAX_ITER = 1_000_000
BLAND_AFTER = 10        # degenerate pivots in a row before Bland's rule takes over

_INF = math.inf


class LpError(Exception):
    """Malformed program data or iteration cap exceeded."""


class LpStatusError(RuntimeError):
    """A library LP came back with a status its construction rules out.

    Names the LP, the level pair (s, t) and block it was solved for, the
    piece where there is one, and the LP's status.
    """

    def __init__(self, lp: str, levels: tuple[int, int], block: int, status: str,
                 piece: int | None = None, why: str = ""):
        self.lp, self.levels, self.block, self.piece, self.status = \
            lp, levels, block, piece, status
        s, t = levels
        at = "" if piece is None else f", piece {piece}"
        super().__init__(f"pair ({s}, {t}): {lp} on block {block} of level {s}{at} "
                         f"came back {status}" + (f"; {why}" if why else ""))


class InfeasibleRegionError(ValueError):
    """A box-budget region with no feasible density."""


def _objective(c, n: int | None = None) -> np.ndarray:
    c = np.array(c, dtype=float, ndmin=1)
    if c.ndim != 1 or not 0 < c.size == (n or c.size) or not math.isfinite(np.abs(c).max()):
        raise LpError("objective must be a finite vector" + (f" of length {n}" if n else ""))
    c.setflags(write=False)
    return c


@dataclass(frozen=True)
class LinearProgram:
    """min or max of c.x subject to A_eq x = b_eq, A_ub x <= b_ub, lo <= x <= hi,
    over read-only copies of the arrays; ``with_objective`` programs share its
    standard form, built once, when first solved or derived from."""

    c: np.ndarray
    sense: str = "min"
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    bounds: tuple[tuple[float, float], ...] | None = None
    _first = None       # the _FirstPass a derived program may carry, not a field

    def __post_init__(self):
        object.__setattr__(self, "c", _objective(self.c))
        if self.sense not in ("min", "max"):
            raise LpError(f"sense must be 'min' or 'max', got {self.sense!r}")
        n = self.c.size
        for name in ("eq", "ub"):
            a = getattr(self, f"a_{name}")
            b = getattr(self, f"b_{name}")
            if (a is None) != (b is None):
                raise LpError(f"a_{name} and b_{name} must be given together")
            if a is None:
                continue
            a = np.array(a, dtype=float, ndmin=2)
            b = np.array(b, dtype=float, ndmin=1)
            if a.shape != (b.size, n) or not np.isfinite(a).all() or not np.isfinite(b).all():
                raise LpError(f"a_{name}/b_{name} malformed for {n} variables")
            for key, arr in ((f"a_{name}", a), (f"b_{name}", b)):
                arr.setflags(write=False)
                object.__setattr__(self, key, arr)
        bounds = ((0.0, _INF),) * n if self.bounds is None else \
            tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != n or any(math.isnan(lo) or math.isnan(hi) for lo, hi in bounds):
            raise LpError("bounds must be one (lo, hi) pair per variable, none NaN")
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @cached_property
    def _form(self) -> _StandardForm:
        return _StandardForm(self)

    def with_objective(self, c) -> LinearProgram:
        """This program with objective ``c``, which alone is checked."""
        return self._derived(_objective(c, self.n_vars))

    def _derived(self, c: np.ndarray, first: _FirstPass | None = None) -> LinearProgram:
        """This program with ``c`` unchecked: a read-only finite ``n_vars``
        vector; ``first`` is a first pass priced under ``c`` (see ``solve_lp``)."""
        lp = object.__new__(LinearProgram)
        lp.__dict__.update(self.__dict__, _form=self._form, c=c, _first=first)
        return lp


class _StandardForm:
    """A u = b >= 0, u >= 0, x = shift + umat @ u; rows: A_eq, A_ub, one per ``boxed``."""

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        bounds = np.array(lp.bounds, dtype=float).reshape(n, 2)
        bounds.setflags(write=False)   # every derived program's and centered face's
        self.lo, self.hi = lo, hi = bounds.T
        none = (np.zeros((0, n)), np.zeros(0))
        self.eq = a_eq, b_eq = none if lp.a_eq is None else (lp.a_eq, lp.b_eq)
        self.ub = a_ub, b_ub = none if lp.a_ub is None else (lp.a_ub, lp.b_ub)
        # x_j = lo_j + u with a finite lower bound, hi_j - u with only an upper
        # one, u+ - u- when free. A finite upper bound on the first kind becomes
        # a row u + slack = hi_j - lo_j; reversed bounds give a negative capacity,
        # which phase 1 certifies infeasible like any other row.
        has_lo, has_hi = lo > -_INF, hi < _INF
        self.var = var = np.repeat(np.arange(n), 1 + ~(has_lo | has_hi))   # variable per u
        self.sign = sign = np.where(has_hi & ~has_lo, -1.0, 1.0)[var]
        sign[1:][var[1:] == var[:-1]] = -1.0                  # the u- of a free variable
        self.umat = umat = np.zeros((n, var.size))
        umat[var, np.arange(var.size)] = sign
        self.shift = shift = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
        self.boxed = boxed = np.flatnonzero(has_lo & has_hi)
        self.m_eq, self.m_ub = m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
        m = m_eq + m_ub + boxed.size
        self.amat = amat = np.zeros((m, var.size + m - m_eq))
        amat[:m_eq, :var.size] = a_eq @ umat
        amat[m_eq:m_eq + m_ub, :var.size] = a_ub @ umat
        amat[np.arange(m_eq + m_ub, m), np.searchsorted(var, boxed)] = 1.0
        amat[m_eq:, var.size:] = np.eye(m - m_eq)
        bvec = np.concatenate([b_eq - a_eq @ shift, b_ub - a_ub @ shift,
                               hi[boxed] - lo[boxed]])
        self.twin = np.arange(amat.shape[1] + m) if var.size > n else None  # phase 1's too
        if var.size > n:                                       # a free variable's u+ <-> u-
            pair = np.flatnonzero(var[1:] == var[:-1])
            self.twin[pair], self.twin[pair + 1] = pair + 1, pair
        self.flips = flips = np.where(bvec < 0, -1.0, 1.0)
        amat *= flips[:, None]
        self.bvec = bvec * flips
        self.resid_tol = RESID_TOL * max(1.0, float(np.abs(bvec).max(initial=0.0)))
        # phase 1 starts each row on a +1 slack, or on an artificial where it ``need``s one
        self.need = need = np.r_[np.ones(m_eq, dtype=bool), flips[m_eq:] < 0]
        self.start = np.arange(var.size - m_eq, var.size - m_eq + m)
        self.start[need] = np.arange(amat.shape[1], amat.shape[1] + need.sum())
        self.sgn = 1.0 if lp.sense == "min" else -1.0   # derived programs keep the sense
        self.scale = self.sgn * sign                      # phase 2's cost per u, per unit of c
        self.last = None       # the _Vertex of the last optimal solve

    def cost(self, c: np.ndarray) -> np.ndarray:
        """Phase 2's costs of objective ``c``, a minimization over the columns;
        ``c`` may stack objectives along leading axes."""
        cost = np.zeros((*c.shape[:-1], self.amat.shape[1]))
        cost[..., :self.var.size] = c.take(self.var, -1) * self.scale
        return cost

    @cached_property
    def slot(self) -> np.ndarray:
        """Per column, its place in ``LpResult.tight``: a u column marks its
        variable's lower bound, or its upper one where x = hi - u or it is a
        free variable's u-; an ``a_ub`` slack marks its row, a boxed slack
        its variable's upper bound."""
        var, n, m_ub = self.var, self.lo.size, self.m_ub
        return np.concatenate([m_ub + var + n * (self.sign < 0), np.arange(m_ub),
                               m_ub + n + self.boxed])


class _Vertex(NamedTuple):
    """The optimal vertex a standard form keeps from its last optimal solve."""

    basis: tuple[tuple[int, ...], tuple[int, ...]]   # (kept rows, basic columns)
    binv: np.ndarray       # B^-1
    a: np.ndarray          # the kept rows of ``amat``
    b: np.ndarray          # and of ``bvec``
    cols: np.ndarray       # the basic columns, intp
    x: np.ndarray          # the read-only solution, which no objective changes


class _FirstPass(NamedTuple):
    """The simplex's first pass on a ``_Vertex`` record, priced by the caller
    under the objective of the program it is attached to: ``_pricing``'s
    duals y and the flags of reduced costs above the tolerance, bit for bit."""

    vertex: _Vertex
    y: np.ndarray
    flags: np.ndarray


@dataclass(frozen=True)
class LpResult:
    """Outcome of ``solve_lp``.

    ``iterations`` counts this call's simplex passes, phase 1's when the solve
    was cold and a row needed an artificial. An optimal result's ``basis`` is
    the pair (kept standard-form rows, basic columns) of the vertex the form
    keeps for the next warm solve; it is None for any other status. An
    optimal ``x`` is read-only: a warm solve that stops on its first pass
    returns the kept vertex's own array. ``tight`` marks, per
    ``a_ub`` row, lower bound and upper bound, what every optimum holds with
    equality: the standard-form column is priced above the tolerance. Each
    read scatters it anew from the standard form's columns, and each read of
    ``dual_objective`` forms it anew from the final duals.
    """

    status: str                       # "optimal" | "unbounded" | "infeasible"
    value: float
    x: np.ndarray | None = None
    certificate: dict | None = None
    iterations: int = 0
    basis: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    _priced: tuple | None = field(default=None, repr=False, compare=False)
    _dual: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def dual_objective(self) -> float | None:
        """y.b over the kept rows plus the objective's constant c.shift, in the
        program's sense: the optimal value up to rounding; None unless optimal."""
        if self._dual is None:
            return None
        y, b, lp = self._dual           # the duals, the kept rows' b and the program
        sgn = lp._form.sgn
        return float(sgn * (y @ b + float(sgn * (lp.c @ lp._form.shift))))

    @property
    def tight(self) -> np.ndarray | None:
        if self._priced is None:
            return None
        on, form = self._priced
        tight = np.zeros(form.m_ub + 2 * form.lo.size, dtype=bool)
        tight[form.slot] = on
        return tight

    @property
    def single_vertex(self) -> bool:
        """Whether the optimum is this vertex alone: every nonbasic standard-form
        column is priced above the tolerance. Never so with a free variable,
        whose u+ and u- columns are never both priced above it."""
        on = None if self._priced is None else self._priced[0]
        return on is not None and int(np.count_nonzero(on)) == on.size - len(self.basis[1])


def _cost_tol(c: np.ndarray):
    """Reduced costs below -COST_TOL * max(1, |c|max) count as improving; a
    stack of costs gets one tolerance per row."""
    if c.ndim > 1:
        return COST_TOL * np.abs(c).max(axis=-1, initial=1.0)
    return COST_TOL * max(1.0, max(map(abs, c.tolist())))   # floats: a short vector


def _pricing(a: np.ndarray, c: np.ndarray, basis: np.ndarray, binv: np.ndarray,
             twin: np.ndarray | None, tol: float, bland: bool = False):
    """The simplex's optimality test of the basis with inverse ``binv``.

    Returns the duals y = c_B B^-1, the reduced costs c - y a, the entering
    column and whether the basis is optimal: no reduced cost below -tol.
    Basic columns are priced at 0, and so is a basic free-variable column's
    ``twin``, its opposite, not at rounding noise. The column with the most
    negative reduced cost enters, or with ``bland`` the first below -tol.
    """
    y = c[basis] @ binv
    reduced = c - y @ a
    reduced[basis] = 0.0
    if twin is not None:
        reduced[twin[basis]] = 0.0
    entering = int((reduced < -tol).argmax() if bland else reduced.argmin())
    return y, reduced, entering, reduced[entering] >= -tol


def _stacked_pricing(a: np.ndarray, c: np.ndarray, basis: np.ndarray, binv: np.ndarray,
                     twin: np.ndarray | None, tol: np.ndarray):
    """``_pricing``'s optimality test over a leading axis of rows, each row a
    basis of its own: constraint rows ``a[r]``, costs ``c[r]``, basic columns
    ``basis[r]``, inverse ``binv[r]`` and tolerance ``tol[r]``, with one
    ``twin`` for all. Returns the duals (row r's at ``[r, 0]``, as the
    stacked product leaves them), the reduced costs and the optimal flags,
    each row's the bits of ``_pricing``'s: the stacked ``np.matmul`` runs the
    same vector-matrix product per row.
    """
    at = np.arange(len(c))[:, None]
    y = np.matmul(c[at, basis][:, None], binv)
    reduced = c - np.matmul(y, a)[:, 0]
    reduced[at, basis] = 0.0
    if twin is not None:
        reduced[at, twin[basis]] = 0.0
    return y, reduced, reduced.min(axis=1) >= -tol


def _simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int],
             twin: np.ndarray | None, start_iter: int = 0, binv: np.ndarray | None = None):
    """Primal simplex from a feasible basis, whose inverse may be given. Dantzig
    pricing, or Bland's while the last BLAND_AFTER pivots stepped <= FEAS_TOL.
    Each pass is ``_pricing``'s test with tol = ``_cost_tol(c)``, so an
    accepted vertex is within tol * |u*|_1 of an optimum u*.
    A pivot updates B^-1 in product form into a new array, never the given
    one; a pass that would stop on an updated inverse inverts afresh and runs
    again uncounted. Returns (status, basis, B^-1, y, iterations, d, j), the
    basis an intp array: 'optimal' with d flagging reduced costs > tol,
    'unbounded' with ray d and entering j. The basic solution B^-1 b and the
    dual objective y.b are left to the caller."""
    tol = _cost_tol(c)
    it, stalled, updated = start_iter, 0, False
    basis = np.array(basis, dtype=np.intp)     # a list index is converted on every use
    while True:
        if it > MAX_ITER:
            raise LpError("simplex iteration cap exceeded")
        if binv is None:
            binv, updated = np.linalg.inv(a[:, basis]), False
        y, reduced, entering, optimal = _pricing(a, c, basis, binv, twin, tol,
                                                 stalled >= BLAND_AFTER)
        d = None if optimal else binv @ a[:, entering]
        # a few rows: the ratio test runs on Python floats, (ratio, row) pairs
        ratios = [] if optimal else [(x / di, i) for i, (x, di) in enumerate(
            zip((binv @ b).tolist(), d.tolist())) if di > PIVOT_TOL]
        if updated and not ratios:      # to stop: price the final basis on a fresh B^-1
            binv = None
            continue
        it += 1
        if optimal:
            return "optimal", basis, binv, y, it, reduced > tol, None
        if not ratios:
            return "unbounded", basis, binv, y, it, d, entering
        theta = min(ratios)[0]
        stalled = stalled + 1 if theta <= FEAS_TOL else 0
        # Bland: among minimal ratios leave the smallest basic variable index
        ties = [i for r, i in ratios if r <= theta + PIVOT_TOL]
        out = ties[0] if len(ties) == 1 else min(ties, key=basis.tolist().__getitem__)
        basis[out] = entering
        pivot, d[out] = d[out], d[out] - 1.0    # B^-1 - ((d - e_out) / d_out) B^-1[out]
        d /= pivot
        binv, updated = binv - np.multiply.outer(d, binv[out]), True


def solve_lp(lp: LinearProgram, warm: bool = False) -> LpResult:
    """Solve a small dense LP with exact status certificates.

    With ``warm``, phase 2 restarts from the vertex the standard form kept
    from its last optimal solve, if any, and returns that vertex's x if its
    first pass finds it optimal; otherwise, and without ``warm``, the solve
    is cold: phase 1, if a row needs it, then phase 2.

    A program's ``_FirstPass`` on the kept vertex, which ``attain`` attaches
    from its stacked table test and vouches was priced under ``lp.c``, is a
    warm solve's first pass: it returns that one-pass result with no pricing.
    A pass on any other vertex, or on a cold solve, is ignored.
    """
    form = lp._form
    last = form.last if warm else None   # read once: other solves replace it whole
    first = lp._first
    if first is not None and first.vertex is last:
        return LpResult("optimal", float(lp.c @ last.x), last.x, None, 1, last.basis,
                        (first.flags, form), (first.y, last.b, lp))
    amat, bvec, n_u = form.amat, form.bvec, form.var.size
    m, n_s = amat.shape
    cost = form.cost(lp.c)

    # --- phase 1, unless the kept vertex or the slacks are a feasible basis
    iters, binv = 0, None
    if last is not None:
        rows, basis, binv = last.basis[0], last.cols, last.binv
    elif not form.need.any():            # every row starts on its slack
        rows, basis, binv = list(range(m)), form.start.tolist(), np.eye(m)
    else:
        a1 = np.hstack([amat, np.eye(m)[:, form.need]])
        c1 = np.concatenate([np.zeros(n_s), np.ones(a1.shape[1] - n_s)])
        status, basis, binv1, y, iters, _, _ = _simplex(
            a1, bvec, c1, form.start.tolist(), form.twin, 0, np.eye(m))
        if status != "optimal":              # phase 1 is always bounded below
            raise LpError("phase 1 reported unbounded")
        if float(c1[basis] @ (binv1 @ bvec)) > FEAS_TOL:
            cert = _farkas_certificate(form, y)
            return LpResult("infeasible", math.nan, None, cert, iters)
        # Drive artificials out or drop redundant rows. The phase-1 objective
        # above already certifies feasibility, yet an ill-conditioned basis
        # can park artificial pairs at small nonzero levels of opposite sign,
        # so every remaining artificial is handled here, not just the ones at
        # numerical zero; re-solving from the cleaned basis restores accuracy.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n_s:
                row = np.linalg.solve(a1[:, basis].T, np.eye(m)[i]) @ amat
                row[basis[basis < n_s]] = 0.0
                cand = np.flatnonzero(np.abs(row) > DROP_TOL)
                if cand.size:
                    basis[i] = cand[0]
                else:
                    keep[i] = False
        rows = np.flatnonzero(keep).tolist()
        basis = basis[rows]

    # --- phase 2 -----------------------------------------------------------
    a2, b2 = (amat[rows], bvec[rows]) if last is None else (last.a, last.b)
    status, basis, binv, y, iters, d, enter = _simplex(
        a2, b2, cost, basis, form.twin, iters, binv)
    if status == "optimal" and last is not None and iters == 1:   # on the kept vertex
        vertex = last
    else:
        u = np.zeros(n_s)
        u[basis] = binv @ b2
        x_here = form.shift + form.umat @ u[:n_u]
        if status == "unbounded":
            ray_u = np.zeros(n_s)
            ray_u[enter] = 1.0
            ray_u[basis] = -d
            cert = {"kind": "ray", "ray": form.umat @ ray_u[:n_u], "from_point": x_here}
            return LpResult("unbounded", -form.sgn * _INF, None, cert, iters)
        # loud failure beats a silently corrupted answer: a basis bad enough to
        # break feasibility at the scale of the data is a bug, not an outcome.
        # The bound term comes first: a NaN or inf in x makes it NaN or inf,
        # max keeps a leading NaN, and NaN fails the test below.
        (a_eq, b_eq), (a_ub, b_ub) = form.eq, form.ub
        resid = max(np.maximum(form.lo - x_here, x_here - form.hi).max(),
                    np.abs(a_eq @ x_here - b_eq).max(initial=0.0))
        if form.m_ub:
            resid = max(resid, (a_ub @ x_here - b_ub).max())
        if not resid <= form.resid_tol:
            raise LpError(f"optimal basis fails feasibility re-check ({resid:.3e})")
        x_here.setflags(write=False)
        vertex = _Vertex((tuple(rows), tuple(basis.tolist())), binv, a2, b2, basis, x_here)
    form.last = vertex
    return LpResult("optimal", float(lp.c @ vertex.x), vertex.x, None, iters, vertex.basis,
                    (d, form), (y, b2, lp))


def _farkas_certificate(form: _StandardForm, y_std: np.ndarray) -> dict:
    """Aggregate phase-1 duals into an original-space infeasibility witness.

    The certificate is the functional phi(x) = y_eq.A_eq x + y_ub.A_ub x
    + sum_j y_bnd[j] x_j with y_ub, y_bnd >= 0, whose maximum of the
    right-hand sides is strictly below the minimum of phi over the bound box.
    Verified numerically here; on failure the raw multipliers are returned.
    """
    lo, hi, m_eq, m_ub = form.lo, form.hi, form.m_eq, form.m_ub
    (a_eq, b_eq), (a_ub, b_ub) = form.eq, form.ub
    y_rows = -form.flips * y_std
    y_bnd = np.zeros(lo.size)
    y_bnd[form.boxed] = y_rows[m_eq + m_ub:]
    for sign in (1.0, -1.0):
        ye, yu, yb = (sign * y_rows[:m_eq], sign * y_rows[m_eq:m_eq + m_ub],
                      sign * y_bnd)
        if np.any(yu < -1e-12) or np.any(yb < -1e-12):
            continue
        yu = np.maximum(yu, 0.0)
        yb = np.maximum(yb, 0.0)
        a = ye @ a_eq + yu @ a_ub + yb
        on = yb > 0
        beta = float(ye @ b_eq + yu @ b_ub + yb[on] @ hi[on])
        pos, neg = a > 1e-12, a < -1e-12
        if np.any(lo[pos] == -_INF) or np.any(hi[neg] == _INF):
            continue
        box_min = float(a[pos] @ lo[pos] + a[neg] @ hi[neg])
        if box_min > beta + 1e-10:
            return {"kind": "farkas", "y_eq": ye, "y_ub": yu, "y_bounds": yb,
                    "gap": box_min - beta}
    return {"kind": "farkas_raw", "y": y_std.copy()}


def support_function(weights, probs, lower, upper):
    """Maximize E[f W | block] over {m0 <= f <= M0, E[f | block] = 1}.

    Returns (value, f). Greedy continuous knapsack: start every atom at its
    lower bound and spend the remaining budget on atoms in decreasing payoff
    order (ties broken by atom index), so at most one atom ends fractional.
    """
    w = np.asarray(weights, dtype=float)
    p = np.asarray(probs, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if not (w.shape == p.shape == lo.shape == hi.shape) or w.ndim != 1:
        raise LpError("support_function inputs must be equal-length vectors")
    if np.any(p <= 0):
        raise LpError("block probabilities must be positive")
    if np.any(lo > hi + 1e-12):
        raise InfeasibleRegionError("lower bound exceeds upper bound")
    total = float(p.sum())
    need = total - float(p @ lo)
    room = float(p @ hi) - total
    if need < -1e-12 or room < -1e-12:
        raise InfeasibleRegionError(
            f"budget 1 outside [{(p @ lo) / total:.6g}, {(p @ hi) / total:.6g}]")

    f = lo.copy()
    budget = max(need, 0.0)
    order = np.lexsort((np.arange(w.size), -w))
    for j in order:
        if budget <= 0.0:
            break
        step = min(hi[j] - lo[j], budget / p[j])
        f[j] += step
        budget -= step * p[j]
    value = float(p @ (f * w)) / total
    return value, f
