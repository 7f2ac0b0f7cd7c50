import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sandwichext.operators
from oracles import scipy_density_margin
from sandwichext.lp import FEAS_TOL, LpError
from sandwichext import (
    BoundPair,
    BoundsError,
    DomainError,
    FilteredSpace,
    LevelError,
    LinearProgram,
    LpResult,
    LpStatusError,
    Piece,
    PolyhedralOperator,
    PolytopeError,
    check_mM1,
    check_nondegenerate,
    check_sandwich,
    cond_expectation,
    density_set,
    full_space,
    solve_lp,
    validate_operator,
)

TOL = 1e-9


def two_uniform():
    return FilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1]]], [0.0, 1.0])


def binom():
    return FilteredSpace(
        np.full(4, 0.25),
        [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
        [0.0, 1.0, 2.0],
    )


def box(space, s, t, lo, hi):
    n = space.n_atoms
    return BoundPair.linear(space, t, s, space.rv(np.full(n, lo), level=t),
                            space.rv(np.full(n, hi), level=t))


def test_operator_level_guards():
    space = binom()
    dom = full_space(space, 1, 0)
    with pytest.raises(LevelError):
        PolyhedralOperator(dom, (
            Piece(space.rv([1.0, 1.0, 0.9, 1.1]),  # level 2 density
                  space.rv(np.zeros(4), level=0)),))
    with pytest.raises(LevelError):
        PolyhedralOperator(dom, (
            Piece(space.rv(np.ones(4), level=1),
                  space.rv([0.1, 0.1, 0.0, 0.0], level=1)),))
    with pytest.raises(ValueError):
        PolyhedralOperator(dom, ())


def test_evaluate_best_piece_and_domain_guard(two_atom):
    op = two_atom.op
    space = two_atom.space
    x = space.rv([2.0, 0.0])
    out = op.evaluate(x)
    # piece scores: E[1*X] = 1 and E[(1.5, 0.5) X] - 0.25 = 1.25
    assert out.values[0] == pytest.approx(1.25, abs=TOL)
    assert out.level == 0
    assert op.evaluate(space.rv([0.0, 2.0])).values[0] == pytest.approx(1.0, abs=TOL)
    restricted = PolyhedralOperator(
        full_space(binom(), 1, 0),
        (Piece(binom().rv(np.ones(4), level=1),
               binom().rv(np.zeros(4), level=0)),))
    with pytest.raises(DomainError):
        restricted.evaluate(binom().rv([1.0, 2.0, 3.0, 4.0]))


def test_validate_operator_passes_on_clean_data(two_atom):
    report = validate_operator(two_atom.op)
    assert report.passed
    names = [e.name for e in report.entries]
    assert names == [
        "densities_nonnegative", "unit_block_expectation",
        "penalties_nonnegative", "zero_penalty_floor",
        "constants_in_domain", "convex_lsc_local",
    ]


def test_validate_operator_flags_bad_data():
    space = two_uniform()
    dom = full_space(space, 1, 0)
    bad_density = PolyhedralOperator(dom, (
        Piece(space.rv([2.2, -0.2]), space.rv([0.0, 0.0], level=0)),))
    rep = validate_operator(bad_density)
    failed = {e.name for e in rep.failures()}
    assert "densities_nonnegative" in failed

    skew = PolyhedralOperator(dom, (
        Piece(space.rv([1.5, 1.0]), space.rv([0.0, 0.0], level=0)),))
    assert "unit_block_expectation" in {e.name for e in validate_operator(skew).failures()}

    lifted = PolyhedralOperator(dom, (
        Piece(space.rv([1.0, 1.0]), space.rv([0.3, 0.3], level=0)),))
    rep = validate_operator(lifted)
    failed = {e.name for e in rep.failures()}
    assert "zero_penalty_floor" in failed
    assert "penalties_nonnegative" not in failed


def test_bound_pair_rejects_inverted_and_negative_kernels():
    space = two_uniform()
    with pytest.raises(BoundsError):
        box(space, 0, 1, 1.5, 0.5)
    with pytest.raises(BoundsError):
        BoundPair.linear(space, 1, 0, space.rv([-0.1, -0.1]),
                         space.rv([1.0, 1.0]))
    with pytest.raises(LevelError):
        # kernels must be measurable at level_b or coarser
        BoundPair.linear(binom(), 1, 0, binom().rv([0.5, 0.6, 0.5, 0.5]),
                         binom().rv(np.full(4, 2.0), level=1))


def test_linear_bound_evaluation(two_atom):
    space = two_atom.space
    bounds = two_atom.bounds
    x = space.rv([2.0, 0.0])
    assert bounds.minorant(x).values[0] == pytest.approx(0.5, abs=TOL)
    assert bounds.majorant(x).values[0] == pytest.approx(1.5, abs=TOL)


def test_polyhedral_dominance_rejects_crossing_envelopes():
    space = two_uniform()
    # min(3 f0, 3 f1) exceeds f0 + f1 at the uniform test payoff
    with pytest.raises(BoundsError):
        BoundPair.polyhedral(
            space, 1, 0,
            [space.rv([3.0, 0.0]), space.rv([0.0, 3.0])],
            [space.rv([1.0, 1.0])])


def test_polyhedral_dominance_accepts_pointwise_crossing():
    # kernels cross atomwise yet the envelopes stay ordered in expectation
    space = FilteredSpace([1.0 / 3.0, 2.0 / 3.0], [[[0, 1]], [[0], [1]]], [0, 1])
    bp = BoundPair.polyhedral(
        space, 1, 0,
        [space.rv([0.6, 1.2]), space.rv([0.9, 1.05])],
        [space.rv([2.1, 0.45]), space.rv([0.3, 1.35])])
    assert bp.kind == "polyhedral"
    x = space.rv([1.0, 2.0])
    lo = bp.minorant(x).values[0]
    hi = bp.majorant(x).values[0]
    assert lo <= hi + TOL


def test_sandwich_linear_fast_path(two_atom):
    rep = check_sandwich(two_atom.op, two_atom.bounds)
    assert rep.holds and rep.fast_path


def test_sandwich_certified_by_block_programs(two_atom):
    space = two_atom.space
    poly = BoundPair.polyhedral(
        space, 1, 0, [space.rv([0.5, 0.5])], [space.rv([1.5, 1.5])])
    rep = check_sandwich(two_atom.op, poly)
    assert rep.holds and not rep.fast_path


def test_sandwich_lp_status_other_than_optimal_is_named(monkeypatch):
    # two blocks of two atoms, two pieces: one LP per block and piece
    space = FilteredSpace(np.full(4, 0.25), [[[0, 1, 2, 3]], [[0, 1], [2, 3]],
                                             [[0], [1], [2], [3]]], [0.0, 1.0, 2.0])
    op = PolyhedralOperator(full_space(space, 2, 1), (
        Piece(space.rv([1.0, 1.0, 1.0, 1.0]), space.rv(np.zeros(4), level=1)),
        Piece(space.rv([1.5, 0.5, 0.5, 1.5]), space.rv(np.full(4, 0.25), level=1))))
    bounds = BoundPair.polyhedral(
        space, 2, 1, [space.rv(np.full(4, 0.5))], [space.rv(np.full(4, 1.5))])
    assert check_sandwich(op, bounds).holds
    calls = []

    def fourth_fails(lp, warm=False):
        calls.append(1)
        if len(calls) == 4:
            return LpResult("infeasible", np.nan)
        return solve_lp(lp, warm=warm)

    monkeypatch.setattr(sandwichext.operators, "solve_lp", fourth_fails)
    with pytest.raises(RuntimeError, match=(
            "sandwich LP on block 1 of level 1, piece 1 came back infeasible")) as info:
        check_sandwich(op, bounds)
    assert isinstance(info.value, LpStatusError)
    assert (info.value.lp, info.value.levels, info.value.block, info.value.piece,
            info.value.status) == ("sandwich LP", (1, 2), 1, 1, "infeasible")
    assert str(info.value).startswith("pair (1, 2): ")


def test_sandwich_violation_carries_checkable_witness():
    space = two_uniform()
    dom = full_space(space, 1, 0)
    op = PolyhedralOperator(dom, (
        Piece(space.rv([1.9, 0.1]), space.rv([0.0, 0.0], level=0)),))
    bounds = box(space, 0, 1, 0.8, 1.2)
    rep = check_sandwich(op, bounds)
    assert not rep.holds
    assert rep.gap < 0.0
    assert rep.block == 0 and rep.piece == 0
    X, Z, Y = rep.witness
    p = space.probs
    assert np.all(Z.values >= -TOL) and np.all(Y.values >= -TOL)
    assert np.all(Z.values + X.values <= Y.values + TOL)
    x_of = max(float(p @ (pc.density.values * X.values)) - pc.penalty.values[0]
               for pc in op.pieces)
    m_of = 0.8 * float(p @ Z.values)
    big_m = 1.2 * float(p @ Y.values)
    assert m_of + x_of > big_m + 1e-6


def test_sandwich_mismatch_raises(two_atom):
    space = binom()
    op = PolyhedralOperator(
        full_space(space, 1, 0),
        (Piece(space.rv(np.ones(4), level=1),
               space.rv(np.zeros(4), level=0)),))
    with pytest.raises(LevelError):
        check_sandwich(op, box(space, 0, 2, 0.5, 2.0))
    with pytest.raises(ValueError):
        check_sandwich(two_atom.op, box(space, 0, 1, 0.5, 2.0))


def test_mM1_consistent_linear_family():
    space = binom()
    family = {(0, 1): box(space, 0, 1, 0.5, 2.0),
              (1, 2): box(space, 1, 2, 0.5, 2.0),
              (0, 2): box(space, 0, 2, 0.25, 4.0)}
    rep = check_mM1(family, space, (0, 1, 2))
    assert rep.passed
    by_name = {e.name: e for e in rep.entries}
    assert "exact on block indicators" in by_name["minorant_weakly_consistent"].detail


def test_mM1_flags_incompatible_long_bounds():
    space = binom()
    base = {(0, 1): box(space, 0, 1, 0.5, 2.0),
            (1, 2): box(space, 1, 2, 0.5, 2.0)}
    tight_M = dict(base)
    tight_M[(0, 2)] = box(space, 0, 2, 0.25, 1.5)  # 1.5 < 2 * 2
    rep = check_mM1(tight_M, space, (0, 1, 2))
    failed = {e.name for e in rep.failures()}
    assert failed == {"majorant_weakly_consistent"}

    fat_m = dict(base)
    fat_m[(0, 2)] = box(space, 0, 2, 0.6, 4.0)  # 0.6 > 0.5 * 0.5
    rep = check_mM1(fat_m, space, (0, 1, 2))
    assert {e.name for e in rep.failures()} == {"minorant_weakly_consistent"}

    rep = check_mM1(base, space, (0, 1, 2))
    assert not rep.passed
    assert rep.entries[0].name == "family_complete" and not rep.entries[0].passed


def test_mM1_degenerate_long_minorant():
    space = binom()
    family = {(0, 1): box(space, 0, 1, 0.5, 2.0),
              (1, 2): box(space, 1, 2, 0.5, 2.0),
              (0, 2): box(space, 0, 2, 0.0, 4.0)}
    assert not check_nondegenerate(family[(0, 2)])
    rep = check_mM1(family, space, (0, 1, 2))
    assert {e.name for e in rep.failures()} == {"long_minorant_nondegenerate"}


def test_density_polytope_membership_by_segments():
    space = binom()
    poly = density_set(box(space, 0, 1, 0.5, 2.0))
    assert len(poly.blocks) == 1
    # level-1 measurable densities with unit mean and box values are members
    assert poly.contains_on_block(0, np.array([1.0, 1.0, 1.0, 1.0]))
    assert poly.contains_on_block(0, np.array([1.5, 1.5, 0.5, 0.5]))
    # varying inside a level-1 segment is not level_b measurable
    assert not poly.contains_on_block(0, np.array([1.2, 0.8, 1.0, 1.0]))
    # box violation and budget violation
    assert not poly.contains_on_block(0, np.array([0.2, 0.2, 1.8, 1.8]))
    assert not poly.contains_on_block(0, np.array([2.0, 2.0, 2.0, 2.0]))
    assert poly.contains_density(space.rv([1.5, 1.5, 0.5, 0.5], level=1))
    # finer-level payoffs are rejected outright
    assert not poly.contains_density(space.rv([1.2, 0.8, 1.0, 1.0]))


@st.composite
def envelope_cases(draw, kind):
    """Random blocks, segments, kernels around a density, and a test density.

    Minorant kernels are the centre density g scaled per segment by factors
    in [0.5, 0.95], majorant kernels by factors in [1.05, 1.5], so g is an
    interior member; the test density moves g by up to +-80% of its value
    along a zero-mean direction, which makes it a member or not.
    """
    n = draw(st.integers(3, 10))
    coarse = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    fine = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    segments, blocks = {}, {}
    for w in range(n):
        segments.setdefault((coarse[w], fine[w]), []).append(w)
        blocks.setdefault(coarse[w], []).append(w)
    levels = [list(blocks.values())]
    if len(segments) > len(blocks):
        levels.append(list(segments.values()))
    level_b = len(levels) - 1
    if len(levels[-1]) < n:
        levels.append([[w] for w in range(n)])
    seg_of = np.empty(n, dtype=int)
    for i, seg in enumerate(levels[level_b]):
        seg_of[seg] = i
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.uniform(0.05, 1.0, n)
    probs /= probs.sum()
    space = FilteredSpace(probs, levels, list(range(len(levels))))

    def per_segment(lo, hi):
        return rng.uniform(lo, hi, len(levels[level_b]))[seg_of]

    def block_means(values):
        out = np.empty(n)
        for block in blocks.values():
            out[block] = probs[block] @ values[block] / probs[block].sum()
        return out

    g = per_segment(0.2, 2.0)
    g = g / block_means(g)
    nm, nM = (1, 1) if kind == "linear" else (draw(st.integers(1, 3)),
                                              draw(st.integers(1, 3)))
    km = [g * per_segment(0.5, 0.95) for _ in range(nm)]
    kM = [g * per_segment(1.05, 1.5) for _ in range(nM)]
    d = g * per_segment(-0.8, 0.8)
    f = g + rng.uniform(0.0, 1.0) * (d - g * block_means(d))

    def rvs(kernels):
        return [space.rv(k, level_b) for k in kernels]

    bounds = (BoundPair.linear(space, level_b, 0, *rvs(km + kM))
              if kind == "linear" else
              BoundPair.polyhedral(space, level_b, 0, rvs(km), rvs(kM)))
    return space, bounds, km, kM, g, f


@pytest.mark.parametrize("kind", ["linear", "polyhedral"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_density_polytope_membership_matches_kernel_oracle(kind, data):
    space, bounds, km, kM, g, f = data.draw(envelope_cases(kind))
    poly = density_set(bounds)
    fine = space.blocks(bounds.level_b)
    for a, block in enumerate(space.blocks(0)):
        segments = [seg for seg in fine if seg[0] in block]
        atoms = list(block)
        assert scipy_density_margin(segments, km, kM, g) > 1e-6
        assert poly.contains_on_block(a, g[atoms])
        margin = scipy_density_margin(segments, km, kM, f)
        # verdicts within the solver tolerance of the boundary may differ
        assume(abs(margin) > 1e-6)
        assert poly.contains_on_block(a, f[atoms]) == (margin > 0)


def test_empty_polytope_names_block_and_level():
    space = two_uniform()
    with pytest.raises(PolytopeError) as exc:
        density_set(box(space, 0, 1, 1.5, 1.8))
    msg = str(exc.value)
    assert "block 0" in msg and "level 0" in msg


def _primal_member(bp, fs, tol=TOL):
    """The membership LP the dual replaced: multipliers w on their simplices
    with G w <= h(fs) + tol, by feasibility of a zero-objective program.
    None where that LP raised instead of giving a verdict."""
    n = bp.n_f
    try:
        res = solve_lp(LinearProgram(
            c=np.zeros(bp.n_lift), sense="min",
            a_eq=bp.a_eq[1:, n:], b_eq=bp.b_eq[1:], a_ub=bp.a_ub[:, n:],
            b_ub=bp.b_ub - bp.a_ub[:, :n] @ fs + tol))
    except LpError:
        return None
    return res.status == "optimal"


def _boundary_step(bp, g, d):
    """Largest s with g + s d in the block's kernel envelope, g and d given
    per segment: max s over the polytope rows with f moved to the right."""
    n = bp.n_f
    res = solve_lp(LinearProgram(
        c=np.r_[np.zeros(bp.n_lift), 1.0], sense="max",
        a_eq=np.hstack([bp.a_eq[1:, n:], np.zeros((bp.a_eq.shape[0] - 1, 1))]),
        b_eq=bp.b_eq[1:],
        a_ub=np.hstack([bp.a_ub[:, n:], (bp.a_ub[:, :n] @ d)[:, None]]),
        b_ub=bp.b_ub - bp.a_ub[:, :n] @ g,
        bounds=[(0.0, np.inf)] * (bp.n_lift + 1)))
    assert res.status == "optimal"
    return res.x[-1]


PUSHES = (0.0, 1e-10, -1e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-6, -1e-6)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_membership_dual_matches_the_margin_and_the_primal_verdict(data):
    space, bounds, km, kM, g, f = data.draw(envelope_cases("polyhedral"))
    poly = density_set(bounds)
    fine = space.blocks(bounds.level_b)
    for a, block in enumerate(space.blocks(0)):
        bp = poly.blocks[a]
        segments = [seg for seg in fine if seg[0] in block]
        per_segment = lambda v: v[bp.seg.atoms][bp.seg.rows.firsts]
        # the dual's value is minus the largest uniform slack
        fs = per_segment(f)
        assert abs(poly._kernel_excess(a, fs) + scipy_density_margin(
            segments, km, kM, f)) <= 1e-9 * max(1.0, float(np.abs(fs).max()))
        # near the envelope's boundary along the budget-neutral f - g, the
        # verdict is the old feasibility LP's, and warm and cold solves agree
        d = f - g
        if not np.abs(per_segment(d)).max() > 1e-6:
            continue
        d /= np.abs(per_segment(d)).max()
        edge = g + _boundary_step(bp, per_segment(g), per_segment(d)) * d
        for push in PUSHES:
            pushed = edge + push * d
            fs = per_segment(pushed)
            verdict = poly.contains_on_block(a, pushed[bp.seg.atoms])
            cold = density_set(bounds)
            if cold.contains_on_block(a, pushed[bp.seg.atoms]) != verdict:
                # only at a tie: a push of tol along a row with |d_i| = 1
                # puts both solves' values at tol, up to rounding
                assert abs(poly._kernel_excess(a, fs) - TOL) <= 1e-15
                assert abs(cold._kernel_excess(a, fs) - TOL) <= 1e-15
            if _primal_member(bp, fs) not in (verdict, None):
                # phase 1 of the old LP took an artificial sum up to FEAS_TOL
                # as feasible, and a unit of artificial on a multiplier's
                # simplex row offsets up to |G|max of row violation, so it
                # passed rows violated by a little more than tol; the dual
                # reads tol exactly
                assert not verdict and push > 0
                band = FEAS_TOL * max(1.0, float(np.abs(bp.a_ub[:, bp.n_f:]).max()))
                assert TOL < poly._kernel_excess(a, fs) <= TOL + band


def test_membership_lp_status_other_than_optimal_is_named(monkeypatch):
    space = two_uniform()
    bounds = BoundPair.polyhedral(
        space, 1, 0, [space.rv([0.5, 0.5])],
        [space.rv([1.2, 0.8]), space.rv([0.8, 1.2])])
    poly = density_set(bounds)
    assert poly.contains_on_block(0, np.array([1.1, 0.9]))
    monkeypatch.setattr(sandwichext.operators, "solve_lp",
                        lambda lp, warm=False: LpResult("unbounded", np.inf))
    with pytest.raises(RuntimeError, match="block 0 of level 0 came back unbounded") as info:
        poly.contains_on_block(0, np.array([1.1, 0.9]))
    assert isinstance(info.value, LpStatusError)
    assert (info.value.lp, info.value.levels, info.value.block, info.value.piece,
            info.value.status) == ("membership LP", (0, 1), 0, None, "unbounded")
    assert str(info.value).startswith("pair (0, 1): membership LP on block 0")
