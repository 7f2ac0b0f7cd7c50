"""Shared builders for the test suite.

The three hand-sized setups here mirror the shipped scenario files so unit
tests can exercise the library API directly while the CLI tests go through
the JSON path.
"""

from __future__ import annotations

import math
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from sandwichext import (
    BoundPair,
    FilteredSpace,
    LinearProgram,
    OperatorSystem,
    Piece,
    PolyhedralOperator,
    full_space,
    solve_lp,
    span_closure,
)
from sandwichext.lp import LpResult, _simplex

# The same examples on every run and machine: drawn from a fixed seed per
# test, with no example database to replay earlier failures. Each test's own
# ``@settings`` (max_examples, deadline) still applies on top.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE_DIR = ROOT / "fixtures"


def same_lp_result(a, b):
    """Two ``solve_lp`` results agree bit for bit."""
    assert (a.status, a.iterations, a.basis) == (b.status, b.iterations, b.basis)
    assert np.array_equal(a.value, b.value, equal_nan=True)
    assert a.dual_objective == b.dual_objective
    if a.x is None:
        assert b.x is None
    else:
        assert a.x.tobytes() == b.x.tobytes()
    if a.tight is None:
        assert b.tight is None
    else:
        assert np.array_equal(a.tight, b.tight)


def mapped_tight(res):
    """``res.tight`` mapped part by part from the standard form, as it was
    before the per-column index: ``a_ub`` slacks to their rows, u columns to
    their variable's lower bound (upper where x = hi - u or for a free
    variable's u-), boxed slacks or-ed into their variable's upper bound."""
    on, form = res._priced
    n, m_ub, var = form.lo.size, form.m_ub, form.var
    tight = np.zeros(m_ub + 2 * n, dtype=bool)
    tight[:m_ub] = on[var.size:var.size + m_ub]
    tight[m_ub + var + n * (form.sign < 0)] = on[:var.size]
    tight[m_ub + n + form.boxed] |= on[var.size + m_ub:]
    return tight


def fresh_program(lp):
    """The same program built anew: its own checks, standard form and no kept pair."""
    return LinearProgram(c=lp.c, sense=lp.sense, a_eq=lp.a_eq, b_eq=lp.b_eq,
                         a_ub=lp.a_ub, b_ub=lp.b_ub, bounds=lp.bounds)


def fresh_warm_solve(lp, basis):
    """What ``solve_lp(lp, warm=True)`` gives when ``lp``'s form kept ``basis``,
    worked out here on the program built anew, without ``solve_lp``'s warm
    path: the simplex's phase 2 (``_simplex``) from the vertex on ``basis``,
    given B^-1 of its basic columns, and the result read off where it ends:
    u[cols] = B^-1 b, x = shift + umat @ u, ``c @ x``, its passes, duals and
    marks. A first pass that finds the vertex optimal ends on it after one
    pass, with that x. A ``basis`` of None is no kept vertex, so the solve
    is cold."""
    fresh = fresh_program(lp)
    if basis is None:
        return solve_lp(fresh, warm=True)
    form = fresh._form
    rows, cols = map(list, basis)
    a, b = form.amat[rows], form.bvec[rows]
    status, cols, binv, y, passes, marks, _ = _simplex(
        a, b, form.cost(fresh.c), cols, form.twin, 0, np.linalg.inv(a[:, cols]))
    if status == "unbounded":
        return LpResult("unbounded", -form.sgn * math.inf, iterations=passes)
    u = np.zeros(form.amat.shape[1])
    u[cols] = binv @ b
    x = form.shift + form.umat @ u[:form.var.size]
    x.setflags(write=False)
    const = float(form.sgn * (fresh.c @ form.shift))
    return LpResult("optimal", float(fresh.c @ x), x, float(form.sgn * (y @ b + const)),
                    None, passes, (tuple(rows), tuple(cols.tolist())), (marks, form))


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURE_DIR / name


@pytest.fixture(scope="session")
def two_atom():
    """Two uniform atoms, one period, one polyhedral operator with bounds."""
    space = FilteredSpace(
        probs=np.array([0.5, 0.5]),
        levels=[[[0, 1]], [[0], [1]]],
        time_labels=[0.0, 1.0],
    )
    dom = full_space(space, 1, 0)
    op = PolyhedralOperator(dom, (
        Piece(space.rv([1.0, 1.0]), space.rv([0.0, 0.0], level=0)),
        Piece(space.rv([1.5, 0.5]), space.rv([0.25, 0.25], level=0)),
    ))
    bounds = BoundPair.linear(
        space, 1, 0, space.rv([0.5, 0.5]), space.rv([1.5, 1.5]))
    return SimpleNamespace(space=space, op=op, bounds=bounds)


@pytest.fixture(scope="session")
def three_atom():
    """Three uniform atoms with a one-dimensional non-constant domain.

    The operator sees only span{1, (1, 0, -1)}; matching its single unit
    density on that span leaves the one-parameter family (t, 3 - 2t, t).
    """
    probs = np.array([1.0, 1.0, 1.0]) / 3.0
    probs[-1] = 1.0 - probs[:-1].sum()
    space = FilteredSpace(
        probs=probs,
        levels=[[[0, 1, 2]], [[0], [1], [2]]],
        time_labels=[0.0, 1.0],
    )
    dom = span_closure(space, 1, 0, [space.rv([1.0, 0.0, -1.0])])
    op = PolyhedralOperator(dom, (
        Piece(space.rv([1.0, 1.0, 1.0]), space.rv([0.0, 0.0, 0.0], level=0)),
    ))
    bounds = BoundPair.linear(
        space, 1, 0, space.rv(np.full(3, 0.5)), space.rv(np.full(3, 2.0)))
    return SimpleNamespace(space=space, op=op, bounds=bounds)


def binomial_space() -> FilteredSpace:
    return FilteredSpace(
        probs=np.full(4, 0.25),
        levels=[[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
        time_labels=[0.0, 1.0, 2.0],
    )


@pytest.fixture(scope="session")
def linear_system():
    """Two-period binomial system, unit one-step operators, linear bounds."""
    space = binomial_space()
    unit = lambda s, t: PolyhedralOperator(full_space(space, t, s), (
        Piece(space.rv(np.ones(4), level=t),
              space.rv(np.zeros(4), level=s)),
    ))
    box = lambda s, t, lo, hi: BoundPair.linear(
        space, t, s, space.rv(np.full(4, lo), level=t),
        space.rv(np.full(4, hi), level=t))
    return OperatorSystem(
        space=space,
        grid=(0, 1, 2),
        one_step_ops={(0, 1): unit(0, 1), (1, 2): unit(1, 2)},
        bounds={(0, 1): box(0, 1, 0.5, 2.0), (1, 2): box(1, 2, 0.5, 2.0),
                (0, 2): box(0, 2, 0.25, 4.0)},
        long_ops={},
    )


@pytest.fixture(scope="session")
def restricted_system():
    """Two-period system with tilted pieces and a restricted step-2 domain."""
    space = binomial_space()
    dom01 = full_space(space, 1, 0)
    op01 = PolyhedralOperator(dom01, (
        Piece(space.rv(np.ones(4), level=1), space.rv(np.zeros(4), level=0)),
        Piece(space.rv([1.2, 1.2, 0.8, 0.8], level=1),
              space.rv(np.full(4, 0.05), level=0)),
    ))
    dom12 = span_closure(space, 2, 1, [space.rv([1.0, -1.0, 0.0, 0.0])])
    op12 = PolyhedralOperator(dom12, (
        Piece(space.rv(np.ones(4)), space.rv(np.zeros(4), level=1)),
        Piece(space.rv([1.4, 0.6, 1.3, 0.7]),
              space.rv([0.1, 0.1, 0.05, 0.05], level=1)),
    ))
    box = lambda s, t, lo, hi: BoundPair.linear(
        space, t, s, space.rv(np.full(4, lo), level=t),
        space.rv(np.full(4, hi), level=t))
    return OperatorSystem(
        space=space,
        grid=(0, 1, 2),
        one_step_ops={(0, 1): op01, (1, 2): op12},
        bounds={(0, 1): box(0, 1, 0.5, 2.0), (1, 2): box(1, 2, 0.5, 2.0),
                (0, 2): box(0, 2, 0.25, 4.0)},
        long_ops={},
    )


def random_polyhedral(space, level_b, level_a, rng, max_pieces=3,
                      domain=None):
    """Random valid operator: densities mix block-segment masses, penalties
    are floored at zero per block."""
    if domain is None:
        domain = full_space(space, level_b, level_a)
    n_pieces = int(rng.integers(1, max_pieces + 1))
    pieces = []
    pen_rows = rng.uniform(0.0, 0.6, size=(n_pieces, space.n_atoms))
    for j in range(n_pieces):
        dens = np.empty(space.n_atoms)
        pen = np.empty(space.n_atoms)
        for block in space.blocks(level_a):
            ix = list(block)
            pa = space.probs[ix].sum()
            segs = {}
            for i in ix:
                segs.setdefault(space.block_of(level_b, i), []).append(i)
            w = rng.dirichlet(np.ones(len(segs)))
            for wk, seg in zip(w, segs.values()):
                sp = space.probs[seg].sum()
                dens[seg] = wk * pa / sp
            pen[ix] = pen_rows[j, ix[0]]
        pieces.append((dens, pen))
    # zero penalty floor per coarse block
    for block in space.blocks(level_a):
        ix = list(block)
        floor = min(p[ix[0]] for _, p in pieces)
        for _, p in pieces:
            p[ix] -= floor
    return PolyhedralOperator(domain, tuple(
        Piece(space.rv(d, level=level_b), space.rv(p, level=level_a))
        for d, p in pieces))


def enclosing_bounds(space, level_b, level_a, op, slack=(0.8, 1.25)):
    """Constant linear bounds around every piece density: ``slack`` times its
    minimum and maximum, with the lower bound clipped to [1e-2, 0.9] and the
    upper raised to at least 1.5. Below 1e-2 / slack[0] (0.0125 by default)
    the floor binds: a density in [1e-2, 0.0125) is enclosed with less room
    than ``slack`` asks, and one below 1e-2 is not enclosed at all, so there
    the bounds need not dominate the piece and ``check_sandwich``'s fast path is
    not guaranteed."""
    dens = np.stack([pc.density.values for pc in op.pieces])
    lo = float(np.clip(slack[0] * dens.min(), 1e-2, 0.9))
    hi = float(max(slack[1] * dens.max(), 1.5))
    n = space.n_atoms
    return BoundPair.linear(
        space, level_b, level_a,
        space.rv(np.full(n, lo), level=level_b),
        space.rv(np.full(n, hi), level=level_b))
