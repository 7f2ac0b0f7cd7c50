import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import sandwichext.extension
from conftest import (ROOT, enclosing_bounds, fixture_path, fresh_program, fresh_warm_solve,
                      mapped_tight, random_polyhedral, same_lp_result)
from sandwichext import (
    BoundPair,
    DensityError,
    ExtendedOperator,
    FilteredSpace,
    LevelError,
    LpResult,
    LpStatusError,
    MeasurabilityError,
    Piece,
    PolyhedralOperator,
    PolytopeError,
    RandomVariable,
    SandwichViolation,
    attain,
    cond_expectation,
    conjugate,
    density_set,
    extend_system,
    full_space,
    load_scenario,
    maximal_extension,
    minimal_penalty,
    price,
    solve_lp,
    span_closure,
    system_penalty,
    verify_representation,
)
from sandwichext.extension import TABLE_SIZE, _BlockProgram, _mix_on_blocks
from sandwichext.lp import LpError, _cost_tol, _pricing

TOL = 1e-9
VALUE_TOL = 1e-7
SEED = 90210
FIXTURES = ["fix_a.json", "fix_b.json", "fix_c_linear.json",
            "fix_c_restricted.json", "fix_refine.json"]

sys.path.append(str(ROOT / "bench"))
import treegen  # noqa: E402  (the benchmark's b-ary tree generator)


def test_conjugate_matches_lp_oracle(two_atom):
    op = two_atom.op
    space = two_atom.space
    for f in ([1.0, 1.0], [1.5, 0.5], [1.25, 0.75], [0.9, 1.1]):
        mine = conjugate(op, space.rv(f)).by_block
        ref = oracles.scipy_conjugate(op, np.array(f))
        np.testing.assert_allclose(mine, ref, atol=1e-9)
    # outside the piece hull the domain payoffs separate without limit
    assert math.isinf(conjugate(op, space.rv([1.9, 0.1])).by_block[0])
    assert math.isinf(conjugate(op, space.rv([0.5, 1.5])).by_block[0])


def test_conjugate_at_own_pieces(two_atom):
    # pricing by an exposed piece density costs exactly that piece's penalty
    op = two_atom.op
    vals = conjugate(op, op.pieces[1].density).by_block
    assert vals[0] == pytest.approx(0.25, abs=TOL)
    assert conjugate(op, op.pieces[0].density).by_block[0] == pytest.approx(
        0.0, abs=TOL)


def test_conjugate_rejects_non_densities(two_atom):
    space = two_atom.space
    op = two_atom.op
    with pytest.raises(DensityError):
        conjugate(op, space.rv([1.2, 0.9]))  # mean != 1
    with pytest.raises(DensityError):
        conjugate(op, space.rv([2.5, -0.5]))


def test_non_finite_densities_raise_density_error():
    # a NaN fails every ordered comparison, so the density check is written
    # to fail on it; system_penalty checks its density before factoring it,
    # which would map a NaN conditional mean to a factor of one
    system = load_scenario(fixture_path("fix_refine.json")).system
    ext = extend_system(system)
    step = ext.step(0)
    density = step.base.pieces[0].density
    entries = (partial(conjugate, step.base), partial(minimal_penalty, step),
               partial(system_penalty, ext, step.level_a, step.level_b))
    for bad in (math.nan, math.inf, -math.inf):
        values = density.values.copy()
        values[0] = bad
        for call in entries:
            with pytest.raises(DensityError):
                call(RandomVariable(values, density.level))


def _tree_or_fixture(source):
    if source == GOLDEN_TREE:
        return load_scenario(ROOT / "tests" / "golden" / source).system
    if isinstance(source, str):
        return load_scenario(fixture_path(source)).system
    return treegen.accepted_system(sandwichext, treegen.Shape(*source), 0)[1]


SOURCES = FIXTURES + [(b, T, kind) for b, T in [(2, 2), (3, 2), (2, 3)]
                      for kind in ["linear", "polyhedral"]]
GOLDEN_TREE = "polyhedral_tree.json"    # the generated scenario of the golden reports


def source_id(source):
    return source if isinstance(source, str) else "tree-%d-%d-%s" % source


def _cold_conjugate(op, a, values):
    """Block ``a``'s conjugate from a freshly built program, solved cold."""
    lp = op._conjugate_lps[a].with_objective(op._conjugate_row(a, values))
    res = solve_lp(fresh_program(lp))
    return math.inf if res.status == "unbounded" else max(res.value, 0.0)


def _recorded_conjugate_solves(monkeypatch, op):
    """Record the block of every conjugate LP of ``op`` that is solved."""
    forms = [lp._form for lp in op._conjugate_lps]
    blocks = []

    def recording(lp, **kwargs):
        if lp._form in forms:
            blocks.append(forms.index(lp._form))
        return solve_lp(lp, **kwargs)

    monkeypatch.setattr(sandwichext.extension, "solve_lp", recording)
    return blocks


@pytest.mark.parametrize("source", SOURCES, ids=source_id)
def test_conjugates_are_the_bits_of_freshly_built_programs(source, monkeypatch):
    # the representation and cocycle checks compare conjugates bit for bit,
    # so a block's shared LP is solved cold: whatever came before, every
    # conjugate, solved or off the block's memo, is the bits of a new
    # program built from its data, and each (block, objective) is solved once
    system = _tree_or_fixture(source)
    calls = []

    def checked(lp, **kwargs):
        res = solve_lp(lp, **kwargs)
        same_lp_result(res, solve_lp(fresh_program(lp)))
        calls.append(res.status)
        return res

    monkeypatch.setattr(sandwichext.extension, "solve_lp", checked)
    rng = np.random.default_rng(SEED + 4)
    space = system.space
    for op in system.declared_ops().values():
        blocks = space._layout[op.level_a]
        family = [pc.density.values for pc in op.pieces] + [np.ones(space.n_atoms)]
        weights = rng.dirichlet(np.ones(len(family)), (3, blocks.probs.size))
        family += [sum(w * f for w, f in zip(blocks.broadcast(wk.T), family))
                   for wk in weights]
        history = rng.integers(0, len(family), 3 * len(family))
        del calls[:]
        for i in history:
            got = conjugate(op, space.rv(family[i], op.level_b)).by_block
            cold = [_cold_conjugate(op, a, family[i]) for a in range(blocks.probs.size)]
            assert got.tobytes() == np.array(cold).tobytes()
        distinct = {(a, op._conjugate_row(a, family[i]).tobytes())
                    for i in history for a in range(blocks.probs.size)}
        assert len(calls) == len(distinct) < history.size * blocks.probs.size


@pytest.mark.parametrize("source", FIXTURES + [GOLDEN_TREE], ids=source_id)
def test_conjugate_splice_on_separate_operators_is_the_blockwise_pick(source):
    # conjugates are local: a blockwise splice of two densities has, on each
    # block, the conjugate of the density it took there. Each density is
    # priced on its own copy of the operator, so no block memo is shared and
    # every value comes from a solve
    system = _tree_or_fixture(source)
    rng = np.random.default_rng(SEED + 5)
    space = system.space
    for op in system.declared_ops().values():
        blocks = space._layout[op.level_a]
        family = np.stack([pc.density.values for pc in op.pieces] + [np.ones(space.n_atoms)])
        f1, f2 = (_mix_on_blocks(blocks, family, rng) for _ in range(2))

        def priced(values):
            fresh = PolyhedralOperator(op.domain, op.pieces)
            return conjugate(fresh, RandomVariable(values, op.level_b)).by_block

        c1, c2 = priced(f1), priced(f2)
        for pick in (np.arange(blocks.probs.size) % 2, rng.integers(0, 2, blocks.probs.size)):
            spliced = np.where(blocks.broadcast(pick) == 0, f1, f2)
            assert priced(spliced).tobytes() == np.where(pick == 0, c1, c2).tobytes()


def _two_block_space():
    """Four uniform atoms in two level-1 blocks of two."""
    return FilteredSpace(np.full(4, 0.25), [[[0, 1, 2, 3]], [[0, 1], [2, 3]],
                                            [[0], [1], [2], [3]]], [0.0, 1.0, 2.0])


def _twin_blocks():
    """An operator with the same local data on both blocks of
    ``_two_block_space``, so a density equal on both gives both blocks one
    objective row; the second piece costs 0.1 on block 0 and 0.3 on block 1."""
    space = _two_block_space()
    op = PolyhedralOperator(full_space(space, 2, 1), (
        Piece(space.rv(np.ones(4)), space.rv(np.zeros(4), level=1)),
        Piece(space.rv([1.5, 0.5, 1.5, 0.5]), space.rv([0.1, 0.1, 0.3, 0.3], level=1))))
    return space, op


def test_block_memos_are_per_block():
    # equal objective rows on two blocks with different penalties: each
    # block's memo gives its own value, which a memo shared across blocks
    # would not
    space, op = _twin_blocks()
    f = space.rv([1.2, 0.8, 1.2, 0.8], level=2)     # 0.4 of the second piece
    assert op._conjugate_row(0, f.values).tobytes() == op._conjugate_row(1, f.values).tobytes()
    for _ in range(2):
        got = conjugate(op, f).by_block
        assert got == pytest.approx([0.04, 0.12], abs=TOL)
        assert got.tobytes() == np.array([_cold_conjugate(op, a, f.values)
                                          for a in (0, 1)]).tobytes()


def test_conjugate_memo_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(sandwichext.extension, "CONJUGATE_MEMO_SIZE", 2)
    space, op = _twin_blocks()
    solves = _recorded_conjugate_solves(monkeypatch, op)
    fs = [space.rv(np.tile([1.0 + w / 2, 1.0 - w / 2], 2), level=2) for w in (0.2, 0.4, 0.6)]
    keys = [op._conjugate_row(0, f.values).tobytes() for f in fs]
    first = [conjugate(op, f).by_block.tobytes() for f in fs[:2]]
    assert solves == [0, 1, 0, 1]
    assert conjugate(op, fs[0]).by_block.tobytes() == first[0]    # a hit refreshes fs[0]
    assert solves == [0, 1, 0, 1]
    conjugate(op, fs[2])                                          # evicts fs[1]
    assert [list(memo) for memo in op._conjugate_memos] == [[keys[0], keys[2]]] * 2
    del solves[:]
    assert conjugate(op, fs[0]).by_block.tobytes() == first[0]
    assert solves == []
    # an evicted objective is solved again, to the same bits
    assert conjugate(op, fs[1]).by_block.tobytes() == first[1]
    assert solves == [0, 1]
    assert [list(memo) for memo in op._conjugate_memos] == [[keys[0], keys[1]]] * 2


def test_minimal_penalty_solves_no_conjugate_off_the_polytope(monkeypatch):
    # a constants-only domain makes the conjugate finite at every density,
    # and the box [0.5, 1.25] of block 1 leaves the density out there only
    space = _two_block_space()
    op = PolyhedralOperator(span_closure(space, 2, 1, []), (
        Piece(space.rv(np.ones(4)), space.rv(np.zeros(4), level=1)),))
    bounds = BoundPair.linear(space, 2, 1, space.rv(np.full(4, 0.5)),
                              space.rv([1.5, 1.5, 1.25, 1.25]))
    ext = maximal_extension(op, bounds)
    f = space.rv([1.4, 0.6, 1.4, 0.6], level=2)
    assert list(ext.polytope.block_members(f)) == [True, False]
    cold = [_cold_conjugate(op, a, f.values) for a in (0, 1)]
    assert all(map(math.isfinite, cold))
    solves = _recorded_conjugate_solves(monkeypatch, op)
    got = minimal_penalty(ext, f).by_block
    assert solves == [0]
    assert got.tobytes() == np.array([cold[0], math.inf]).tobytes()


@pytest.mark.parametrize("error", [LpError("simplex iteration cap exceeded"),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=["LpError", "LinAlgError"])
def test_conjugate_solver_faults_are_typed_and_leave_no_entry(error, monkeypatch):
    system = load_scenario(fixture_path("fix_refine.json")).system
    op = extend_system(system).step(1).base
    f = op.pieces[0].density

    def fails(lp, warm=False):
        raise error

    monkeypatch.setattr(sandwichext.extension, "solve_lp", fails)
    with pytest.raises(LpStatusError, match=(
            rf"^pair \({op.level_a}, {op.level_b}\): conjugate LP on block 0 of level "
            rf"{op.level_a} came back {type(error).__name__}; {error}$")) as info:
        conjugate(op, f)
    assert (info.value.levels, info.value.block, info.value.status) == (
        (op.level_a, op.level_b), 0, type(error).__name__)
    assert info.value.__cause__ is error
    assert not any(op._conjugate_memos)
    monkeypatch.undo()
    got = conjugate(op, f).by_block
    assert got.tobytes() == np.array([_cold_conjugate(op, a, f.values)
                                      for a in range(got.size)]).tobytes()


def test_extension_rejects_broken_sandwich():
    space = FilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1]]], [0, 1])
    dom = span_closure(space, 1, 0, [space.rv([1.0, -1.0])])
    op = PolyhedralOperator(dom, (
        Piece(space.rv([1.9, 0.1]), space.rv([0.0, 0.0], level=0)),))
    bounds = BoundPair.linear(space, 1, 0, space.rv([0.8, 0.8]),
                              space.rv([1.2, 1.2]))
    with pytest.raises(SandwichViolation) as exc:
        maximal_extension(op, bounds)
    assert exc.value.report.gap < 0.0


def test_three_atom_extension_frozen_values(three_atom):
    # matching on span{1, (1,0,-1)} leaves f = (t, 3-2t, t), t in [0.5, 1.25]
    ext = maximal_extension(three_atom.op, three_atom.bounds)
    space = three_atom.space
    ind = space.rv([1.0, 0.0, 0.0])
    got = ext.evaluate(ind).values[0]
    assert got == pytest.approx(1.25 / 3.0, abs=1e-9)
    assert got == pytest.approx(oracles.fix_b_parametric([1.0, 0.0, 0.0]),
                                abs=1e-9)
    att = attain(ext, ind)
    np.testing.assert_allclose(att.density.values, [1.25, 0.5, 1.25], atol=1e-7)
    assert att.penalty.by_block[0] == pytest.approx(0.0, abs=1e-9)


def test_restriction_to_domain_reproduces_base(three_atom):
    ext = maximal_extension(three_atom.op, three_atom.bounds)
    space = three_atom.space
    rng = np.random.default_rng(SEED)
    basis = [b.values for b in three_atom.op.domain.basis]
    for _ in range(25):
        coef = rng.normal(size=len(basis))
        y = space.rv(sum(c * b for c, b in zip(coef, basis)))
        base_val = three_atom.op.evaluate(y)
        ext_val = ext.evaluate(y)
        np.testing.assert_allclose(ext_val.values, base_val.values, atol=VALUE_TOL)


def _nine_atoms(masses):
    """Nine atoms with relative ``masses``, in three level-1 blocks of three."""
    return FilteredSpace(np.asarray(masses) / np.sum(masses),
                         [[list(range(9))], [[0, 1, 2], [3, 4, 5], [6, 7, 8]],
                          [[i] for i in range(9)]], [0, 1, 2])


def _worst_domain_miss(op, bounds, coeffs):
    """max |ext(X) - op(X)| / max(1, max|X|) over the domain payoffs with
    basis coefficients ``coeffs``."""
    ext = maximal_extension(op, bounds)
    basis = np.column_stack([b.values for b in op.domain.basis])
    worst = 0.0
    for coef in coeffs:
        X = op.space.rv(basis @ coef, level=op.level_b)
        miss = np.abs(ext.evaluate(X).values - op.evaluate(X).values).max()
        worst = max(worst, float(miss) / max(1.0, float(np.abs(X.values).max())))
    return worst


def test_box_tops_far_above_any_feasible_density_do_not_cost_digits():
    # with one atom of mass 1e-9 the box tops (about 1.08e9) sit far above
    # pa / sp_i (2 or 3) on the heavy atoms. Unclipped, their rows left
    # the block programs about 1e-8 off in the budget row, and the extension
    # missed the base operator on its domain by 2e-7 relative
    space = _nine_atoms(np.r_[np.ones(8), 1e-9])
    sub = span_closure(space, 2, 1, [space.rv(np.random.default_rng(0).normal(size=9))])
    op = random_polyhedral(space, 2, 1, np.random.default_rng(0), domain=sub)
    bounds = enclosing_bounds(space, 2, 1, op)
    assert bounds.M0.values.max() > 1e9
    coeffs = np.random.default_rng(1).normal(size=(3, sub.dim))
    assert _worst_domain_miss(op, bounds, coeffs) <= 1e-9


def test_piece_means_off_one_within_the_data_tolerance_keep_the_domain_values():
    # piece densities whose block means are 1 +- 8e-10, within validation's
    # VALUE_TOL: with the matching row along the constant kept, it restated
    # the budget and simplex rows only to 8e-10, and the near-dependent row
    # cost the extension up to 3e-8 on the base operator's own domain
    misses = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        space = _nine_atoms(rng.dirichlet(np.ones(9)))
        sub = span_closure(space, 2, 1, [space.rv(rng.normal(size=9))])
        drawn = random_polyhedral(space, 2, 1, np.random.default_rng(seed), domain=sub)
        scale = 1.0 + (8e-10 if seed % 2 else -8e-10)
        op = PolyhedralOperator(sub, tuple(
            Piece(space.rv(pc.density.values * scale, level=2), pc.penalty)
            for pc in drawn.pieces))
        coeffs = np.random.default_rng(100 + seed).normal(size=(5, sub.dim)) * 5
        misses.append(_worst_domain_miss(op, enclosing_bounds(space, 2, 1, op), coeffs))
    assert max(misses) <= 2e-9, misses


def test_attained_densities_meet_the_budget_on_skewed_masses():
    # every block's masses follow one pattern. A face that is the solve's
    # vertex is read off the solve; centered through the unscaled SVD, the
    # density of a segment of mass 1e-9 fell under the rank cut, was taken
    # as free, and the centering LP moved block means off 1 by up to 0.6
    misses, outside = [], 0
    for pattern in ([1, 1, 1e-9], [1e-9] * 3, [1, 1e-6, 1e-9], [1, 1e-3, 1e-6], [1, 1, 1]):
        space = _nine_atoms(np.tile(pattern, 3))
        for seed in range(8):
            rng = np.random.default_rng(seed)
            sub = span_closure(space, 2, 1, [space.rv(rng.normal(size=9))])
            op = random_polyhedral(space, 2, 1, np.random.default_rng(seed), domain=sub)
            ext = maximal_extension(op, enclosing_bounds(space, 2, 1, op))
            for x in rng.normal(size=(3, 9)):
                f = attain(ext, space.rv(x)).density
                misses.append(np.abs(space._layout[1].means(f.values) - 1.0).max())
                outside += sum(not member for member in ext.polytope.block_members(f, 1e-9))
    assert len(misses) == 120
    assert max(misses) <= 1e-9 and outside == 0, (max(misses), outside)


def test_evaluate_level_guard_and_memoization(three_atom):
    ext = maximal_extension(three_atom.op, three_atom.bounds)
    space = three_atom.space
    x = space.rv([2.0, -1.0, 0.5])
    first = ext.evaluate(x)
    assert ext.evaluate(space.rv([2.0, -1.0, 0.5])) is first  # cache by values
    deeper = FilteredSpace(
        [0.25, 0.25, 0.5],
        [[[0, 1, 2]], [[0, 1], [2]], [[0], [1], [2]]],
        [0, 1, 2])
    dom = span_closure(deeper, 1, 0, [])
    op = PolyhedralOperator(dom, (
        Piece(deeper.rv([1.0, 1.0, 1.0], level=1),
              deeper.rv(np.zeros(3), level=0)),))
    bounds = BoundPair.linear(deeper, 1, 0,
                              deeper.rv(np.full(3, 0.5), level=1),
                              deeper.rv(np.full(3, 2.0), level=1))
    ext2 = maximal_extension(op, bounds)
    with pytest.raises(LevelError):
        ext2.evaluate(deeper.rv([1.0, 0.0, 0.0]))  # level 2 > level_b 1


def test_constants_only_domain_spans_whole_polytope():
    # with a trivial domain the extension is the polytope support function
    space = FilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1]]], [0, 1])
    dom = span_closure(space, 1, 0, [])
    op = PolyhedralOperator(dom, (
        Piece(space.rv([1.0, 1.0]), space.rv([0.0, 0.0], level=0)),))
    bounds = BoundPair.polyhedral(
        space, 1, 0, [space.rv([0.5, 0.5])],
        [space.rv([1.2, 0.8]), space.rv([0.8, 1.2])])
    ext = maximal_extension(op, bounds)
    x = space.rv([1.0, 0.0])
    assert ext.evaluate(x).values[0] == pytest.approx(0.6, abs=TOL)
    att = attain(ext, x)
    np.testing.assert_allclose(att.density.values, [1.2, 0.8], atol=1e-8)
    pen = minimal_penalty(ext, space.rv([1.9, 0.1]))
    assert math.isinf(pen.by_block[0])
    pen_in = minimal_penalty(ext, space.rv([1.1, 0.9]))
    assert pen_in.by_block[0] == pytest.approx(0.0, abs=TOL)


def test_attainment_is_deterministic_and_consistent(three_atom):
    ext = maximal_extension(three_atom.op, three_atom.bounds)
    space = three_atom.space
    rng = np.random.default_rng(SEED + 1)
    for _ in range(10):
        x = space.rv(rng.normal(size=3) * 2.0)
        att1 = attain(ext, x)
        att2 = attain(ext, x)
        np.testing.assert_array_equal(att1.density.values, att2.density.values)
        # value identity: x-hat(X) = E[f X | block] - penalty(f)
        p = space.probs
        dual = float(p @ (att1.density.values * x.values)) - att1.penalty.by_block[0]
        assert abs(dual - att1.value.values[0]) < 1e-8
        assert ext.polytope.contains_density(att1.density, tol=1e-7)


def test_attained_density_is_fine_level_measurable():
    # on a (0, 1) pair of a three-level space the density lives at level 1
    space = FilteredSpace(
        np.full(4, 0.25),
        [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
        [0, 1, 2])
    dom = span_closure(space, 1, 0, [])
    op = PolyhedralOperator(dom, (
        Piece(space.rv(np.ones(4), level=1), space.rv(np.zeros(4), level=0)),))
    bounds = BoundPair.linear(space, 1, 0,
                              space.rv(np.full(4, 0.5), level=1),
                              space.rv(np.full(4, 2.0), level=1))
    ext = maximal_extension(op, bounds)
    att = attain(ext, space.rv([3.0, 3.0, -1.0, -1.0], level=1))
    assert att.density.level <= 1
    assert att.density.values[0] == att.density.values[1]
    assert att.density.values[2] == att.density.values[3]
    # knapsack by hand: f_up at its cap 2 = 1.5, mate at 0.5
    np.testing.assert_allclose(att.density.values, [1.5, 1.5, 0.5, 0.5],
                               atol=1e-8)


def test_minimal_penalty_matches_conjugate_inside(three_atom):
    ext = maximal_extension(three_atom.op, three_atom.bounds)
    space = three_atom.space
    f = space.rv([1.1, 0.8, 1.1])
    pen = minimal_penalty(ext, f)
    assert pen.by_block[0] == pytest.approx(
        float(oracles.scipy_conjugate(three_atom.op, f.values)[0]), abs=1e-9)
    # a density outside the box is infeasible even though the conjugate is finite
    f_out = space.rv([1.45, 0.1, 1.45])
    assert math.isinf(minimal_penalty(ext, f_out).by_block[0])
    with pytest.raises(DensityError):
        minimal_penalty(ext, space.rv([2.0, 1.0, 1.0]))


def test_penalty_value_helpers(three_atom):
    ext = maximal_extension(three_atom.op, three_atom.bounds)
    space = three_atom.space
    pen = minimal_penalty(ext, space.rv([1.0, 1.0, 1.0]))
    assert pen.finite
    assert pen.atomwise().shape == (3,)
    assert pen.as_rv().level == 0
    bad = minimal_penalty(ext, space.rv([1.45, 0.1, 1.45]))
    assert not bad.finite
    with pytest.raises(ValueError):
        bad.as_rv()


def test_verify_representation_on_fixture_ops(two_atom, three_atom):
    for op in (two_atom.op, three_atom.op):
        rep = verify_representation(op, n_payoffs=12, n_densities=6, seed=3)
        assert rep.passed, [e.name for e in rep.failures()]
        names = {e.name for e in rep.entries}
        assert {"dual_reconstruction", "candidates_dominated",
                "conjugate_splice_exact"} <= names


def _first_empty_block(bounds):
    """The block ``density_set`` names empty, or None when it builds."""
    try:
        density_set(bounds)
    except PolytopeError as err:
        return err.block
    return None


def _scipy_first_empty_block(bounds):
    space = bounds.space
    for a, block in enumerate(space.blocks(bounds.level_a)):
        ix = list(block)
        if not oracles.scipy_box_budget_feasible(
                space.probs[ix], bounds.m0.values[ix], bounds.M0.values[ix]):
            return a
    return None


def _two_block_box(probs, m0, M0):
    """Linear bounds on atoms ``probs`` in two level-1 blocks, the first of
    two atoms."""
    n = len(probs)
    space = FilteredSpace(probs=np.array(probs), levels=[
        [list(range(n))], [[0, 1], list(range(2, n))], [[i] for i in range(n)]],
        time_labels=[0.0, 1.0, 2.0])
    return BoundPair.linear(space, 2, 1, space.rv(m0), space.rv(M0))


def test_linear_polytope_emptiness_matches_scipy(two_atom, three_atom):
    linear = [two_atom.bounds, three_atom.bounds] + [
        bounds for name in FIXTURES
        for bounds in load_scenario(fixture_path(name)).system.bounds.values()
        if bounds.kind == "linear"]
    assert len(linear) > 2
    for bounds in linear:
        assert _first_empty_block(bounds) is None
        assert _scipy_first_empty_block(bounds) is None
    # seeded random boxes, none within 1e-6 of the budget's edge
    rng = np.random.default_rng(SEED)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(3, 7))
        probs = rng.uniform(0.1, 1.0, size=n)
        probs /= probs.sum()
        m0 = rng.uniform(0.0, 1.3, size=n)
        M0 = m0 + rng.uniform(0.0, 1.5, size=n)
        bounds = _two_block_box(probs, m0, M0)
        blocks = [list(block) for block in bounds.space.blocks(1)]
        if min(abs(probs[ix] @ k[ix] / probs[ix].sum() - 1.0)
               for ix in blocks for k in (m0, M0)) < 1e-6:
            continue
        verdict = _first_empty_block(bounds)
        assert verdict == _scipy_first_empty_block(bounds)
        seen.add(verdict)
    assert seen == {None, 0, 1}
    # edges: a budget met exactly at one end of the box is nonempty, as phase 1
    # said; one missed by 1e-6 relative is empty; so is m0 = 1.5 on a block of
    # mass 1e-9, whose absolute miss 5e-10 is within FEAS_TOL
    quarter = [0.25] * 4
    cases = [(quarter, [0.5, 0.5, 0.5, 0.5], [1.0, 1.0, 2.0, 2.0], None),
             (quarter, [1.0, 1.0, 0.5, 0.5], [2.0, 2.0, 2.0, 2.0], None),
             (quarter, [0.5, 0.5, 0.5, 0.5], [1.0 - 1e-6, 1.0 - 1e-6, 2.0, 2.0], 0),
             (quarter, [1.0 + 1e-6, 1.0 + 1e-6, 0.5, 0.5], [2.0, 2.0, 2.0, 2.0], 0),
             ([5e-10, 5e-10, 0.5 - 5e-10, 0.5 - 5e-10], [1.5, 1.5, 0.5, 0.5],
              [2.0, 2.0, 2.0, 2.0], 0)]
    for probs, m0, M0, empty in cases:
        bounds = _two_block_box(probs, m0, M0)
        assert _first_empty_block(bounds) == empty
        assert _scipy_first_empty_block(bounds) == empty


def test_evaluation_memo_is_a_bounded_lru(three_atom, monkeypatch):
    monkeypatch.setattr(sandwichext.extension, "EVAL_MEMO_SIZE", 3)
    ext = maximal_extension(three_atom.op, three_atom.bounds)
    space = three_atom.space
    xs = [space.rv([float(k), -1.0, 0.5 * k]) for k in range(6)]
    first = [ext.evaluate(x) for x in xs[:3]]
    assert ext.evaluate(xs[0]) is first[0]          # a hit refreshes xs[0]
    ext.evaluate(xs[3])
    assert list(ext._eval_cache) == [xs[k].values.tobytes() for k in (2, 0, 3)]
    for x in xs[4:]:
        ext.evaluate(x)
        assert len(ext._eval_cache) == 3
    # evicted payoffs are solved again, to the same bytes
    for x, out in zip(xs[:3], first):
        assert ext.evaluate(x).values.tobytes() == out.values.tobytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_stored_basis_restarts_each_block_program_in_one_pass(name):
    system = load_scenario(fixture_path(name)).system
    ext = extend_system(system)
    rng = np.random.default_rng(SEED + 2)
    for k, (s, t) in enumerate(system.adjacent_pairs):
        step = ext.step(k)
        vals = np.empty(system.space.n_atoms)
        for block in system.space.blocks(t):
            vals[list(block)] = rng.normal()
        X = system.space.rv(vals, t)
        attain(step, X)
        step.evaluate(system.space.rv(X.values + 1.0, t))
        for prog in step._programs:
            x_reps = X.values[prog.poly.seg.reps] + 1.0
            kept = prog.lp._form.last.basis
            res = solve_lp(prog.program(x_reps), warm=True)
            assert res.iterations == 1
            assert res.basis == kept


def test_block_program_status_other_than_optimal_is_named(monkeypatch):
    system = load_scenario(fixture_path("fix_refine.json")).system
    step = extend_system(system).step(1)
    assert len(step._programs) == 2
    X = system.space.rv(np.arange(system.space.n_atoms, dtype=float), step.level_b)
    failing = step._programs[1].lp

    def block_1_fails(lp, **kwargs):
        if lp.a_eq is failing.a_eq:          # shares the block program's rows
            return LpResult("infeasible", math.nan)
        return solve_lp(lp, **kwargs)

    monkeypatch.setattr(sandwichext.extension, "solve_lp", block_1_fails)
    message = f"block program on block 1 of level {step.level_a} came back infeasible"
    with pytest.raises(RuntimeError, match=message):
        step.evaluate(X)
    with pytest.raises(RuntimeError, match=message) as info:
        attain(step, X)
    assert isinstance(info.value, LpStatusError)
    assert (info.value.lp, info.value.levels, info.value.block, info.value.piece,
            info.value.status) == ("extension block program",
                                   (step.level_a, step.level_b), 1, None, "infeasible")


def test_conjugate_lp_status_other_than_optimal_is_typed_and_located(monkeypatch):
    system = load_scenario(fixture_path("fix_refine.json")).system
    step = extend_system(system).step(1)
    f = step.base.pieces[0].density
    monkeypatch.setattr(sandwichext.extension, "solve_lp",
                        lambda lp, warm=False: LpResult("infeasible", math.nan))
    with pytest.raises(LpStatusError, match=(
            rf"^pair \({step.level_a}, {step.level_b}\): conjugate LP on block 0 of level "
            rf"{step.level_a} came back infeasible$")) as info:
        conjugate(step.base, f)
    assert (info.value.block, info.value.piece, info.value.status) == (0, None, "infeasible")


def test_centering_lp_status_other_than_optimal_is_typed_and_located(monkeypatch):
    # at a zero payoff each block's optimal face on this step is more than a
    # point, so attain centers it with cold LPs; the block programs
    # themselves solve warm
    system = load_scenario(fixture_path("fix_refine.json")).system
    step = extend_system(system).step(1)
    X = system.space.rv(np.zeros(system.space.n_atoms), step.level_b)

    def centering_fails(lp, warm=False):
        return solve_lp(lp, warm=True) if warm else LpResult("unbounded", math.inf)

    monkeypatch.setattr(sandwichext.extension, "solve_lp", centering_fails)
    with pytest.raises(LpStatusError, match=(
            rf"^pair \({step.level_a}, {step.level_b}\): centering LP on block 0 of level "
            rf"{step.level_a} came back unbounded$")) as info:
        attain(step, X)
    assert (info.value.lp, info.value.levels, info.value.block, info.value.status) == (
        "centering LP", (step.level_a, step.level_b), 0, "unbounded")


@pytest.mark.parametrize("error", [LpError("simplex iteration cap exceeded"),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=["LpError", "LinAlgError"])
def test_block_and_centering_solver_faults_are_typed_and_located(error, monkeypatch):
    # a raw fault out of a block program (solved warm, by evaluate and
    # attain) or out of a centering LP (solved cold; at a zero payoff block
    # 0's optimal face on this step is more than a point) names its LP,
    # pair, block and error class
    system = load_scenario(fixture_path("fix_refine.json")).system
    step = extend_system(system).step(1)
    X = system.space.rv(np.zeros(system.space.n_atoms), step.level_b)
    levels = (step.level_a, step.level_b)
    for name, faulty, calls in (("centering LP", False, [attain]),
                                ("extension block program", True,
                                 [attain, ExtendedOperator.evaluate])):
        def fails(lp, warm=False, faulty=faulty):
            if warm == faulty:
                raise error
            return solve_lp(lp, warm=warm)

        monkeypatch.setattr(sandwichext.extension, "solve_lp", fails)
        for call in calls:
            with pytest.raises(LpStatusError, match=(
                    rf"^pair \({levels[0]}, {levels[1]}\): {name} on block 0 of level "
                    rf"{levels[0]} came back {type(error).__name__}; {error}$")) as info:
                call(step, X)
            assert (info.value.lp, info.value.levels, info.value.block, info.value.piece,
                    info.value.status) == (name, levels, 0, None, type(error).__name__)
            assert info.value.__cause__ is error


@pytest.mark.parametrize("error", [LpError("simplex iteration cap exceeded"),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=["LpError", "LinAlgError"])
def test_density_set_solver_faults_are_typed_and_located(error, monkeypatch):
    # a polyhedral block is certified nonempty by a phase-1 LP, whose raw
    # fault names its LP, the bounds' pair, the block and the error class
    system = _tree_or_fixture(GOLDEN_TREE)
    bounds = system.bounds[(system.grid[0], system.grid[1])]
    assert bounds.kind == "polyhedral"

    def fails(lp, warm=False):
        raise error

    monkeypatch.setattr(sandwichext.extension, "solve_lp", fails)
    with pytest.raises(LpStatusError, match=(
            rf"^pair \({bounds.level_a}, {bounds.level_b}\): density set LP on block 0 of "
            rf"level {bounds.level_a} came back {type(error).__name__}; {error}$")) as info:
        density_set(bounds)
    assert info.value.__cause__ is error


def _recorded_block_solves(monkeypatch):
    """Record (block, result) of every block program solve."""
    solves = []
    solve_block = ExtendedOperator._solve_block

    def recording(self, a, x):
        res = solve_block(self, a, x)
        solves.append((a, res))
        return res

    monkeypatch.setattr(ExtendedOperator, "_solve_block", recording)
    return solves


@pytest.mark.parametrize("source", SOURCES, ids=source_id)
def test_face_memo_hits_are_the_bits_of_a_fresh_centering(source, monkeypatch):
    # a face's centered point depends on the block's constraints and the
    # solve's x and tight alone, so a stored point is what centering anew gives
    system = _tree_or_fixture(source)
    ext = extend_system(system)
    solves = _recorded_block_solves(monkeypatch)
    center = sandwichext.extension._center_on_face
    centered = []

    def recording(prog, res, a):
        centered.append(a)
        return center(prog, res, a)

    monkeypatch.setattr(sandwichext.extension, "_center_on_face", recording)
    rng = np.random.default_rng(SEED + 5)
    space = system.space
    hits = 0
    for k, (_, t) in enumerate(system.adjacent_pairs):
        step = ext.step(k)
        pool = [np.zeros(space.n_atoms), *rng.normal(size=(3, space.n_atoms))]
        for i in rng.integers(0, len(pool), 12):
            del solves[:], centered[:]
            att = attain(step, cond_expectation(space, space.rv(pool[i]), t))
            assert len(solves) == len(step._programs)
            for a, res in solves:
                if a in centered:
                    continue
                hits += 1
                prog = step._programs[a]
                fresh = center(prog, res, a)
                # the point a hit used is the memo's newest
                assert next(reversed(prog.faces.values())).tobytes() == fresh.tobytes()
                assert (att.density.values[prog.poly.seg.reps].tobytes()
                        == fresh[:prog.poly.n_f].tobytes())
                assert att.penalty.by_block[a] == float(
                    -prog.lp.c[prog.poly.n_vars:] @ fresh[prog.poly.n_vars:])
    assert hits > 0


def test_face_memo_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(sandwichext.extension, "FACE_MEMO_SIZE", 3)
    system = _tree_or_fixture((3, 2, "polyhedral"))
    space = system.space
    t = system.adjacent_pairs[1][1]
    step = extend_system(system).step(1)
    solves = _recorded_block_solves(monkeypatch)
    rng = np.random.default_rng(SEED + 6)
    pool = [cond_expectation(space, space.rv(v), t)
            for v in rng.normal(size=(6, space.n_atoms))]
    orders = [[] for _ in step._programs]       # per block, oldest key first
    first = {}                                  # (block, key) -> first bytes
    evicted, recentered = set(), 0
    for i in rng.integers(0, len(pool), 40):
        del solves[:]
        attain(step, pool[i])
        for a, res in solves:
            prog, order = step._programs[a], orders[a]
            key = res.x.tobytes() + res.tight.tobytes()
            # a hit becomes the newest entry, and past 3 the oldest goes
            if key in order:
                order.remove(key)
            order.append(key)
            if len(order) > 3:
                evicted.add((a, order.pop(0)))
            assert list(prog.faces) == order
            # an evicted face is centered again, to the same bytes
            recentered += (a, key) in evicted
            evicted.discard((a, key))
            assert prog.faces[key].tobytes() == first.setdefault(
                (a, key), prog.faces[key].tobytes())
    assert recentered > 0


EXIT_SOURCES = FIXTURES + [GOLDEN_TREE] + [(b, 2, kind) for b in (2, 3, 12)
                                           for kind in ("linear", "polyhedral")]


@pytest.mark.parametrize("source", EXIT_SOURCES, ids=source_id)
def test_single_vertex_faces_are_the_snapped_vertex_with_no_lp(source, monkeypatch):
    # where every nonbasic column of the block solve is priced above the
    # tolerance, the face is the solve's vertex: the equalities it holds
    # leave no free direction, and it is returned with no centering LP
    system = _tree_or_fixture(source)
    ext = extend_system(system)
    calls = _count_lps(monkeypatch)
    center = sandwichext.extension._center_on_face
    faces = []

    def recording(prog, res, a):
        del calls[:]
        z = center(prog, res, a)
        faces.append((prog, res, z, len(calls)))
        return z

    monkeypatch.setattr(sandwichext.extension, "_center_on_face", recording)
    rng = np.random.default_rng(SEED + 7)
    space = system.space
    for k, (_, t) in enumerate(system.adjacent_pairs):
        for vals in [np.zeros(space.n_atoms), *rng.normal(size=(16, space.n_atoms))]:
            attain(ext.step(k), cond_expectation(space, space.rv(vals), t))
    vertices = centered = 0
    for prog, res, z, lps in faces:
        if not res.single_vertex:
            centered += lps > 0
            continue
        vertices += 1
        lp = prog.lp
        lo, hi = np.array(lp.bounds).T
        m_ub = 0 if lp.a_ub is None else lp.a_ub.shape[0]
        rows, at_lo, at_hi = np.split(res.tight, [m_ub, m_ub + lp.n_vars])
        assert lps == 0
        assert z.tobytes() == np.where(at_lo, lo, np.where(at_hi, hi, res.x)).tobytes()
        eqs = lp.a_eq if lp.a_ub is None else np.vstack([lp.a_eq, lp.a_ub[rows]])
        free = ~(at_lo | at_hi)
        sv = np.linalg.svd(eqs[:, free], compute_uv=False)
        assert (sv > 1e-10 * max(1.0, sv.max(initial=0.0))).sum() == free.sum()
    if source == GOLDEN_TREE or source[-1] == "polyhedral":
        assert centered > 0
    else:
        assert vertices > 0


def _count_lps(monkeypatch):
    """Rebind the extension's LP entry point to count its calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(sandwichext.extension, "solve_lp", counting)
    return calls


def test_quickstart_attains_the_exact_density_with_one_lp(three_atom, monkeypatch):
    # f = (t, 3 - 2t, t) is optimal only at t = 1.25, where f_1 sits on its
    # lower bound 0.5: the face is a point, read off the block solve
    ext = maximal_extension(three_atom.op, three_atom.bounds)
    calls = _count_lps(monkeypatch)
    att = attain(ext, three_atom.space.rv([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(att.density.values, [1.25, 0.5, 1.25], rtol=0, atol=1e-12)
    assert len(calls) == 1
    # a zero payoff makes the whole segment optimal: two centering LPs put
    # t = 1 (slacks t - 0.5 and 2.5 - 2t level at 0.5)
    del calls[:]
    att = attain(ext, three_atom.space.rv([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(att.density.values, [1.0, 1.0, 1.0], rtol=0, atol=1e-12)
    assert len(calls) == 3
    # the face is centered once: a second attain reads it from the memo
    del calls[:]
    again = attain(ext, three_atom.space.rv([0.0, 0.0, 0.0]))
    assert again.density.values.tobytes() == att.density.values.tobytes()
    assert len(calls) == 1
    # both stored points, the vertex and the centered one, are read-only
    (prog,) = ext._programs
    assert len(prog.faces) == 2
    for z in prog.faces.values():
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 0.0


@pytest.mark.parametrize("name", FIXTURES)
def test_attain_takes_at_most_three_lps_per_block(name, monkeypatch):
    system = load_scenario(fixture_path(name)).system
    ext = extend_system(system)
    rng = np.random.default_rng(SEED + 3)
    calls = _count_lps(monkeypatch)
    for k, (_, t) in enumerate(system.adjacent_pairs):
        step = ext.step(k)
        n_blocks = len(step.polytope.blocks)
        for vals in [np.zeros(system.space.n_atoms),
                     *rng.normal(size=(4, system.space.n_atoms))]:
            del calls[:]
            attain(step, cond_expectation(system.space, system.space.rv(vals), t))
            assert n_blocks <= len(calls) <= 3 * n_blocks


@st.composite
def small_extensions(draw):
    """A one-step operator from the atoms to 1-2 blocks of 2-3 atoms, its
    enclosing linear bounds and a pool of payoffs."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
    n = sum(sizes)
    probs = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    probs /= probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    cuts = np.cumsum(sizes)[:-1]
    space = FilteredSpace(
        probs, [[list(range(n))],
                [b.tolist() for b in np.split(np.arange(n), cuts)],
                [[i] for i in range(n)]], [0, 1, 2])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = [space.rv(rng.normal(size=n)) for _ in range(draw(st.integers(0, 1)))]
    op = random_polyhedral(space, 2, 1, rng, domain=span_closure(space, 2, 1, gens))
    # enclosing_bounds floors the lower bound at 1e-2
    assume(min(pc.density.values.min() for pc in op.pieces) > 0.02)
    bounds = enclosing_bounds(space, 2, 1, op, slack=(
        draw(st.floats(0.3, 0.95)), draw(st.floats(1.05, 2.0))))
    scale = draw(st.sampled_from([1e-9, 0.1, 1.0, 10.0, 1e12]))
    payoffs = [space.rv(rng.normal(size=n) * scale) for _ in range(4)]
    return op, bounds, payoffs


@settings(max_examples=40, deadline=None)
@given(case=small_extensions(),
       history=st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=10))
def test_warm_extension_matches_a_fresh_one_and_the_oracles(case, history):
    op, bounds, payoffs = case
    ext = maximal_extension(op, bounds)
    for use_attain, i in history:
        if use_attain:
            attain(ext, payoffs[i])
        else:
            ext.evaluate(payoffs[i])
    for X in payoffs:
        scale = max(1.0, float(np.abs(X.values).max()))
        value = ext.evaluate(X).values
        cold = maximal_extension(op, bounds).evaluate(X).values
        np.testing.assert_allclose(value, cold, rtol=0.0, atol=1e-9 * scale)
        att = attain(ext, X)
        np.testing.assert_allclose(att.value.values, value, rtol=0.0,
                                   atol=1e-9 * scale)
        # independent routes: vertex enumeration and scipy's conjugate
        np.testing.assert_allclose(value, oracles.vertex_dual_max(op, bounds, X),
                                   rtol=0.0, atol=VALUE_TOL * scale)
        f = att.density.values
        np.testing.assert_allclose(att.penalty.by_block,
                                   oracles.scipy_conjugate(op, f), rtol=0.0,
                                   atol=VALUE_TOL * scale)
        for a, block in enumerate(op.space.blocks(1)):
            ix = list(block)
            p = op.space.probs[ix]
            priced = p @ (f[ix] * X.values[ix]) / p.sum() - att.penalty.by_block[a]
            assert abs(priced - value[ix[0]]) <= 1e-8 * scale


def _recorded_takes(monkeypatch):
    """Record (program, value, foreign) of every block's reading of the
    stacked table test; ``foreign`` marks a hit on an entry other than the
    form's kept pair."""
    takes = []
    take = _BlockProgram.take

    def recording(prog, rows, priced):
        form = prog.lp._form
        kept = form.last and form.last.basis
        value = take(prog, rows, priced)
        takes.append((prog, value, value is not None and form.last.basis != kept))
        return value

    monkeypatch.setattr(_BlockProgram, "take", recording)
    return takes


def _recorded_payoffs(monkeypatch):
    """Record the payoff of every evaluate that reaches the block programs."""
    payoffs = []
    solve = ExtendedOperator._solve

    def recording(ext, X):
        payoffs.append(X.values)
        return solve(ext, X)

    monkeypatch.setattr(ExtendedOperator, "_solve", recording)
    return payoffs


def _table_free(monkeypatch, fn, *args):
    """``fn(*args)`` with every basis table off, as if there were none."""
    monkeypatch.setattr(sandwichext.extension, "TABLE_SIZE", 0)
    try:
        return fn(*args)
    finally:
        monkeypatch.setattr(sandwichext.extension, "TABLE_SIZE", TABLE_SIZE)


def _mixed_operations(system, rng, n_ops=24):
    """Interleaved evaluates, prices and step attainments on fresh payoffs of
    three scales: (max(1, max|X|), op), where op maps an extended system to
    the arrays the operation returns."""
    space = system.space
    s, t = system.grid[0], system.grid[-1]
    for j in range(n_ops):
        x = rng.normal(size=space.n_atoms) * rng.choice([1e-3, 1.0, 1e3])
        scale = max(1.0, float(np.abs(x).max()))
        if j % 4 < 2:
            yield scale, lambda ext, x=x: [ext.evaluate(s, t, space.rv(x, t)).values]
        elif j % 4 == 2:
            def op(ext, x=x):
                out = price(ext, s, t, space.rv(x, t))
                return [out.value.values, out.density.values, out.penalty.by_block]
            yield scale, op
        else:
            k = int(rng.integers(0, len(system.adjacent_pairs)))
            level = system.adjacent_pairs[k][1]

            def op(ext, x=x, k=k, level=level):
                out = attain(ext.step(k), cond_expectation(space, space.rv(x), level))
                return [out.density.values, out.value.values, out.penalty.by_block]
            yield scale, op


TABLE_SOURCES = SOURCES + [GOLDEN_TREE, (2, 4, "linear")]
NO_TABLED_STARTS = ["fix_c_linear.json"]   # one basis per block, optimal for every payoff


@pytest.mark.parametrize("source", TABLE_SOURCES, ids=source_id)
def test_block_program_equalities_are_independent_by_construction(source):
    # the polytope rows, the theta row and one matching row per domain basis
    # column past the leading block constant: no row is selected away, and
    # the rows have full rank
    for ext in extend_system(_tree_or_fixture(source)).extensions.values():
        for a, prog in enumerate(ext._programs):
            a_eq = prog.lp.a_eq
            assert a_eq.shape[0] == prog.poly.b_eq.size + ext.base.domain.block_dim(a)
            assert np.linalg.matrix_rank(a_eq) == a_eq.shape[0]


@pytest.mark.parametrize("source", TABLE_SOURCES, ids=source_id)
def test_table_hits_are_the_bits_of_a_fresh_warm_solve(source, monkeypatch):
    # a block's verdict is the first entry, the kept pair first and then the
    # newest, whose basis the simplex's own test ``_pricing`` finds optimal,
    # and a miss when there is none. So a warm solve from a hit stops after
    # one pass on the same x and value; the hit leaves that pair kept for
    # the next warm solve
    system = _tree_or_fixture(source)
    ext = extend_system(system)
    take = _BlockProgram.take
    payoffs = _recorded_payoffs(monkeypatch)
    hits = []

    def checked(prog, rows, priced):
        x_reps = payoffs[-1][prog.poly.seg.reps]
        form = prog.lp._form
        cost = form.cost(prog.program(x_reps).c)
        kept = form.last and prog.table.get(form.last.basis)
        first = next((vertex for vertex in [kept] * bool(kept) + list(reversed(
            prog.table.values())) if _pricing(vertex.a, cost, vertex.cols, vertex.binv,
                                              form.twin, _cost_tol(cost))[3]), None)
        value = take(prog, rows, priced)
        assert (value is None) == (first is None)
        if value is not None:
            hits.append(value)
            vertex = next(reversed(prog.table.values()))   # a hit is the newest
            assert prog.lp._form.last is vertex is first
            fresh = fresh_warm_solve(prog.program(x_reps), vertex.basis)
            assert fresh.iterations == 1 and fresh.basis == vertex.basis
            assert fresh.x.tobytes() == vertex.x.tobytes()
            assert np.float64(fresh.value).tobytes() == np.float64(value).tobytes()
            assert not vertex.x.flags.writeable
        return value

    monkeypatch.setattr(_BlockProgram, "take", checked)
    rng = np.random.default_rng(SEED + 8)
    for _, op in _mixed_operations(system, rng):
        op(ext)
    # at a constant payoff E[f X | block] is the same for every density, so
    # several tabled bases can be optimal and the order of the tests decides
    space, s, t = system.space, system.grid[0], system.grid[-1]
    for level in rng.normal(size=6):
        ext.evaluate(s, t, space.rv(np.full(space.n_atoms, level), t))
    assert hits


def _tabled_start(prog, kept, x_reps):
    """The entry a block's ``attain`` solve starts on in place of its kept
    vertex ``kept``: where ``kept`` is a tabled basis that ``_pricing`` finds
    not optimal for the payoff, the newest tabled basis it finds optimal;
    else None, and the solve starts on ``kept``."""
    form = prog.lp._form
    cost = form.cost(prog.program(x_reps).c)

    def optimal(vertex):
        return _pricing(vertex.a, cost, vertex.cols, vertex.binv, form.twin, _cost_tol(cost))[3]

    if kept is None or kept.basis not in prog.table or optimal(kept):
        return None
    return next((vertex for vertex in reversed(prog.table.values()) if optimal(vertex)), None)


def _recorded_attains(monkeypatch, check):
    """Call ``check(ext, X, found, results)`` after every ``attain``, the
    step attainments' and those of ``price``: ``found`` is the stack and, per
    block, the kept vertex, the table's keys and the misses that the call
    found, and ``results`` the block solves' results in block order."""
    attained, solve = sandwichext.extension.attain, ExtendedOperator._solve_block
    results = []

    def recording_solve(ext, a, x):
        results.append(solve(ext, a, x))
        return results[-1]

    def recording(ext, X):
        found = ext._stack, [(prog.lp._form.last, list(prog.table), prog.misses)
                             for prog in ext._programs]
        results.clear()
        out = attained(ext, X)
        check(ext, X, found, list(results))
        return out

    monkeypatch.setattr(ExtendedOperator, "_solve_block", recording_solve)
    monkeypatch.setattr(sandwichext.dynamic, "attain", recording)
    monkeypatch.setitem(globals(), "attain", recording)


@pytest.mark.parametrize("source", TABLE_SOURCES, ids=source_id)
def test_attain_starts_a_failed_tabled_kept_vertex_on_the_newest_passing_entry(
        source, monkeypatch):
    # where a block's kept vertex is a tabled basis that fails the stacked
    # test and another passes, attain's solve starts on the newest that
    # passes and stops there after one pass, with the bits of a warm solve
    # from that basis on a freshly built program; every other block solves
    # from its kept vertex as it was
    switched = []

    def check(ext, X, found, results):
        for prog, (kept, _, _), res in zip(ext._programs, found[1], results):
            x_reps = X.values[prog.poly.seg.reps]
            start = _tabled_start(prog, kept, x_reps)
            first = start or kept
            same_lp_result(res, fresh_warm_solve(prog.program(x_reps), first and first.basis))
            if start is not None:
                switched.append(start)
                assert res.iterations == 1 and res.basis == start.basis and res.x is start.x

    _recorded_attains(monkeypatch, check)
    system = _tree_or_fixture(source)
    ext = extend_system(system)
    rng = np.random.default_rng(SEED + 14)
    for _, op in _mixed_operations(system, rng, 48):
        op(ext)
    # at a constant payoff several tabled bases can be optimal, and the
    # order of the search decides
    space, s, t = system.space, system.grid[0], system.grid[-1]
    for level in rng.normal(size=6):
        price(ext, s, t, space.rv(np.full(space.n_atoms, level), t))
    assert switched or source in NO_TABLED_STARTS


def _same_solve(got, want):
    same_lp_result(got, want)
    assert got.single_vertex == want.single_vertex


@pytest.mark.parametrize("source", TABLE_SOURCES, ids=source_id)
def test_attain_solves_take_the_stacked_first_pass_only_on_the_kept_vertex(source, monkeypatch):
    # a block solve whose program carries the stacked test's first pass on
    # the kept vertex returns the bits of a plain warm solve from that
    # vertex, and prices nothing itself; the same pass is ignored on a cold
    # solve and once the kept vertex is another record, even an equal copy
    lp_module = sandwichext.lp
    pricing, cost = lp_module._pricing, lp_module._StandardForm.cost
    priced = []

    def counted(fn):
        def run(*args):
            priced.append(fn.__name__)
            return fn(*args)
        return run

    monkeypatch.setattr(lp_module, "_pricing", counted(pricing))
    monkeypatch.setattr(lp_module._StandardForm, "cost", counted(cost))
    taken = []

    def solved(lp, warm):
        priced.clear()
        return solve_lp(lp, warm=warm), list(priced)

    def checked(lp, warm=False):
        first, form = lp._first, lp._form
        if first is None:
            return solve_lp(lp, warm=warm)
        assert warm
        plain, kept = lp._derived(lp.c), form.last
        for start, cold in ((first.vertex._replace(), False), (kept, True)):
            form.last = start
            res, calls = solved(lp, not cold)
            form.last = start
            _same_solve(res, solve_lp(plain, warm=not cold))
            assert "_pricing" in calls
            form.last = kept
        res, calls = solved(lp, True)
        if first.vertex is kept:
            taken.append(res)
            assert calls == [] and form.last is kept
            assert res.iterations == 1 and res.x is kept.x
        _same_solve(res, solve_lp(plain, warm=True))
        return res

    monkeypatch.setattr(sandwichext.extension, "solve_lp", checked)
    system = _tree_or_fixture(source)
    ext = extend_system(system)
    for _, op in _mixed_operations(system, np.random.default_rng(SEED + 19), 32):
        op(ext)
    assert taken


@pytest.mark.parametrize("source", TABLE_SOURCES, ids=source_id)
def test_attain_leaves_the_tables_the_misses_and_the_stack_as_they_are(source, monkeypatch):
    # attain reads the tables for its starts: it adds, reorders and drops
    # no entry, counts no miss, and keeps the stack it found; one it builds
    # holds every entry of the live tables
    stacks = []

    def check(ext, X, found, results):
        stack, blocks = found
        assert [(list(prog.table), prog.misses) for prog in ext._programs] == [
            (keys, misses) for _, keys, misses in blocks]
        assert ext._stack is (stack or ext._stack) is not None
        assert [None if rows is None else set(rows) for rows in ext._stack.rows] == [
            set(prog.table) if prog.misses < TABLE_SIZE else None for prog in ext._programs]
        stacks.append(stack)

    _recorded_attains(monkeypatch, check)
    system = _tree_or_fixture(source)
    ext = extend_system(system)
    space, s, t = system.space, system.grid[0], system.grid[-1]
    rng = np.random.default_rng(SEED + 15)
    price(ext, s, t, space.rv(rng.normal(size=space.n_atoms), t))   # builds the stacks
    for _, op in _mixed_operations(system, rng, 48):
        op(ext)
    assert None in stacks and any(stack is not None for stack in stacks)


def _against_a_table_free_twin(monkeypatch, source, seed, n_ops):
    """Run ``_mixed_operations`` on an extension of ``source`` and on a twin
    with every table off, and check that they give the same bits until the
    first table read that can move them: an evaluate's hit on an entry other
    than the kept vertex, or an attain that starts on one. Either may reach
    its basis with the columns in another order than the twin's solve, whose
    inverse rounds differently, or the twin may not reach it at all on a tie;
    later warm solves restart from there, so past it the two agree to
    rounding. Returns the recorded takes and, per attained block, whether
    its start was switched."""
    system = _tree_or_fixture(source)
    ext, ref = extend_system(system), extend_system(system)
    takes, starts = _recorded_takes(monkeypatch), []

    def check(ext, X, found, results):
        starts.extend(_tabled_start(prog, kept, X.values[prog.poly.seg.reps]) is not None
                      for prog, (kept, _, _) in zip(ext._programs, found[1]))

    _recorded_attains(monkeypatch, check)
    # the twin's tables are dropped before its attains read them
    for scale, op in _mixed_operations(system, np.random.default_rng(seed), n_ops):
        for got, want in zip(op(ext), _table_free(monkeypatch, op, ref)):
            if got.tobytes() != want.tobytes():
                assert any(starts) or any(foreign for _, _, foreign in takes)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)
    return takes, starts


@pytest.mark.parametrize("source", TABLE_SOURCES, ids=source_id)
def test_evaluate_off_the_tables_matches_a_table_free_extension(source, monkeypatch):
    # the tables change how evaluate reaches a block's optimal basis, not
    # what it returns, up to the rounding of another column order
    takes, _ = _against_a_table_free_twin(monkeypatch, source, SEED + 7, 24)
    assert any(value is not None for _, value, _ in takes)


@pytest.mark.parametrize("source", TABLE_SOURCES, ids=source_id)
def test_attain_off_the_tables_matches_a_table_free_extension(source, monkeypatch):
    # nor do the tabled starts change what attain returns
    _, starts = _against_a_table_free_twin(monkeypatch, source, SEED + 16, 48)
    assert any(starts) or source in NO_TABLED_STARTS


@pytest.mark.parametrize("source", TABLE_SOURCES, ids=source_id)
def test_block_forms_hold_the_programs_bounds_read_only(source):
    # ``_center_on_face`` snaps a vertex face on its form's lo and hi, which
    # every derived program and face shares: they are the bits of the
    # program's bounds, and nothing can write them
    for ext in extend_system(_tree_or_fixture(source)).extensions.values():
        for prog in ext._programs:
            form = prog.lp._form
            lo, hi = np.array(prog.lp.bounds).T
            assert form.lo.tobytes() == lo.tobytes() and form.hi.tobytes() == hi.tobytes()
            assert not form.lo.flags.writeable and not form.hi.flags.writeable


@pytest.mark.parametrize("source", ["fix_c_linear.json", "fix_refine.json", GOLDEN_TREE,
                                    (2, 3, "polyhedral")], ids=source_id)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_densities_with_an_atom_that_is_not_finite_are_not_members(source, bad):
    # the unit density is a member of every block; with one atom that is not
    # finite, the block that holds it fails its spread, budget or box test,
    # before any membership LP, and every other block stays a member
    system = _tree_or_fixture(source)
    n = system.space.n_atoms
    for ext in extend_system(system).extensions.values():
        poly = ext.polytope
        level = poly.bounds.level_b
        assert all(poly.block_members(RandomVariable(np.ones(n), level)))
        for atom in (0, n - 1):
            f = np.ones(n)
            f[atom] = bad
            assert not poly.contains_density(RandomVariable(f, level))
            assert list(poly.block_members(RandomVariable(f, level))) == [
                atom not in bp.seg.atoms for bp in poly.blocks]


@pytest.mark.parametrize("source", TABLE_SOURCES + ["two-shapes"], ids=source_id)
def test_attain_assembles_each_block_off_its_own_solve_and_face_point(source, monkeypatch):
    # attain fills its objectives and scatters densities and penalties once
    # per group of blocks of one shape. Per block that is the bits of the
    # block's own program, solve and memoized face point, assembled one
    # block at a time: the density on the block's segments, the value, and
    # the penalty -c_pen . z_theta of the theta part of the point. The
    # sources have one shape per step; "two-shapes" has two
    attained, solve = sandwichext.extension.attain, ExtendedOperator._solve_block
    solves, checked = [], []

    def recording_solve(ext, a, lp):
        solves.append((a, lp, solve(ext, a, lp)))
        return solves[-1][2]

    def recording(ext, X):
        solves.clear()
        out = attained(ext, X)
        space, fine = ext.space, ext.space._layout[ext.level_b]
        f_seg = np.empty(fine.probs.size)
        values, pen = np.empty(len(solves)), np.empty(len(solves))
        assert [a for a, _, _ in solves] == list(range(len(ext._programs)))
        for a, lp, res in solves:
            prog = ext._programs[a]
            poly = prog.poly
            assert not lp.c.flags.writeable and lp._form is prog.lp._form
            assert lp.c.tobytes() == prog.program(X.values[poly.seg.reps]).c.tobytes()
            z = prog.faces[res.x.tobytes() + res.tight.tobytes()]
            f_seg[poly.seg.ids] = z[:poly.n_f]
            values[a] = res.value
            pen[a] = float(-prog.lp.c[poly.n_vars:] @ z[poly.n_vars:])
        assert out.density.values.tobytes() == fine.broadcast(f_seg).tobytes()
        assert out.value.values.tobytes() == space._layout[ext.level_a].broadcast(
            values).tobytes()
        assert out.penalty.by_block.tobytes() == pen.tobytes()
        checked.append(out)
        return out

    monkeypatch.setattr(ExtendedOperator, "_solve_block", recording_solve)
    monkeypatch.setattr(sandwichext.dynamic, "attain", recording)
    monkeypatch.setitem(globals(), "attain", recording)
    rng = np.random.default_rng(SEED + 18)
    if source == "two-shapes":
        op, bounds = _two_shape_operator(rng)
        ext = maximal_extension(op, bounds)
        for _ in range(12):
            ext.evaluate(op.space.rv(rng.normal(size=5)))
            attain(ext, op.space.rv(rng.normal(size=5)))
        assert len(ext._shapes) == 2
    else:
        system = _tree_or_fixture(source)
        ext = extend_system(system)
        for _, op in _mixed_operations(system, rng, 24):
            op(ext)
    assert checked


def test_a_composition_checks_its_payoff_once(monkeypatch):
    # every step past the first takes the extension's own values, finite by
    # construction, so a composed evaluate or price checks only its payoff
    checked = []
    monkeypatch.setattr(sandwichext.extension, "_finite", checked.append)
    system = _tree_or_fixture((2, 4, "linear"))
    ext = extend_system(system)
    space, s, t = system.space, system.grid[0], system.grid[-1]
    rng = np.random.default_rng(SEED + 20)
    for op in [partial(ext.evaluate, s, t), partial(price, ext, s, t)] * 3:
        x = rng.normal(size=space.n_atoms)
        op(space.rv(x, t))
        assert [c.tobytes() for c in checked] == [x.tobytes()]
        checked.clear()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_payoffs_raise_the_measurability_error_at_every_entry(bad, warm):
    # a payoff built directly, not through ``space.rv``, with an atom that
    # is not finite: a step's evaluate, the system's evaluate, price and
    # attain raise the error ``space.rv`` raises for it, whether the tables
    # are empty or live (after 200 evaluates every block of the last step
    # reads its value off a table), and no memo keeps an entry for it
    system = _tree_or_fixture((2, 6, "linear"))
    ext = extend_system(system)
    space, s, t = system.space, system.grid[0], system.grid[-1]
    step = ext.step(len(system.adjacent_pairs) - 1)
    rng = np.random.default_rng(SEED + 19)
    for _ in range(200 * warm):
        ext.evaluate(s, t, space.rv(rng.normal(size=space.n_atoms), t))
    assert all(prog.table for prog in step._programs) == warm
    for atom in (0, 37, space.n_atoms - 1):
        x = rng.normal(size=space.n_atoms)
        x[atom] = bad
        X = RandomVariable(x, t)
        for call in (partial(step.evaluate, X), partial(step, X), partial(ext.evaluate, s, t, X),
                     partial(price, ext, s, t, X), partial(attain, step, X)):
            with pytest.raises(MeasurabilityError, match="^values must be finite$"):
                call()


def test_table_is_a_bounded_lru(monkeypatch):
    # per block: a hit becomes the newest entry, a missed test's solve is
    # added as the newest, past TABLE_SIZE the oldest goes, and TABLE_SIZE
    # misses in a row drop the table and end its tests
    monkeypatch.setattr(sandwichext.extension, "TABLE_SIZE", 2)
    system = _tree_or_fixture(GOLDEN_TREE)
    ext = extend_system(system)
    take, remember = _BlockProgram.take, _BlockProgram.remember
    model = {}                  # per program: [keys oldest first, misses in a row]
    evicted = reordered = 0

    def taken(prog, rows, priced):
        nonlocal reordered
        order, misses = model.setdefault(id(prog), [[], 0])
        assert misses < 2                       # a dropped table is not consulted
        value = take(prog, rows, priced)
        if value is None:
            model[id(prog)][1] += 1
        else:
            key = prog.lp._form.last.basis
            reordered += order[-1] != key
            order.remove(key)
            order.append(key)
            model[id(prog)][1] = 0
            assert list(prog.table) == order
        return value

    def remembered(prog, res):
        nonlocal evicted
        order, misses = model[id(prog)]
        remember(prog, res)
        if misses >= 2:
            order.clear()
        else:
            order.append(res.basis)
            if len(order) > 2:
                del order[0]
                evicted += 1
        assert list(prog.table) == order

    monkeypatch.setattr(_BlockProgram, "take", taken)
    monkeypatch.setattr(_BlockProgram, "remember", remembered)
    for _, op in _mixed_operations(system, np.random.default_rng(SEED + 9), 80):
        op(ext)
    assert evicted > 0 and reordered > 0


def test_tables_of_blocks_that_keep_missing_are_dropped(monkeypatch):
    # on a 12-way fan a block's optimal basis seldom repeats: after
    # TABLE_SIZE misses in a row its table is dropped, it is never consulted
    # again, and evaluate gives what an extension without tables gives
    system = _tree_or_fixture((12, 2, "linear"))
    space, t = system.space, system.grid[-1]
    step, ref = extend_system(system).step(1), extend_system(system).step(1)
    takes = _recorded_takes(monkeypatch)
    rng = np.random.default_rng(SEED + 10)
    for _ in range(2 * TABLE_SIZE):
        X = space.rv(rng.normal(size=space.n_atoms), t)
        assert (step.evaluate(X).values.tobytes()
                == _table_free(monkeypatch, ref.evaluate, X).values.tobytes())
    missed = [[value is None for prog, value, _ in takes if prog is p]
              for p in step._programs]
    assert missed == [[True] * TABLE_SIZE] * len(step._programs)
    assert all(not prog.table for prog in step._programs)
    assert step._stack.rows == [None] * len(step._programs) and not step._stack.groups


def test_stacks_are_built_by_evaluate_from_the_live_tables():
    # set-up builds no stack; a stack that stands after an operation holds
    # one row per entry of every live table and none for a dropped one
    system = _tree_or_fixture((2, 4, "linear"))
    ext = extend_system(system)
    steps = [ext.step(k) for k in range(len(system.adjacent_pairs))]
    assert all(step._stack is None for step in steps)
    seen = 0
    for _, op in _mixed_operations(system, np.random.default_rng(SEED + 12), 40):
        op(ext)
        for step in (step for step in steps if step._stack is not None):
            seen += 1
            live = [prog for prog in step._programs if prog.misses < TABLE_SIZE]
            assert sum(len(group[2]) for group in step._stack.groups) == sum(
                len(prog.table) for prog in live)
            assert [None if rows is None else set(rows) for rows in step._stack.rows] == [
                set(p.table) if p.misses < TABLE_SIZE else None for p in step._programs]
    assert seen


def _two_shape_operator(rng):
    """An operator from level 2 to level 1 whose level-1 blocks hold 2 and 3
    atoms, so that its block programs have two shapes, and its bounds."""
    probs = np.array([0.1, 0.25, 0.2, 0.3, 0.15])
    space = FilteredSpace(probs, [[list(range(5))], [[0, 1], [2, 3, 4]],
                                  [[i] for i in range(5)]], [0, 1, 2])
    op = random_polyhedral(space, 2, 1, rng,
                           domain=span_closure(space, 2, 1, [space.rv(rng.normal(size=5))]))
    return op, enclosing_bounds(space, 2, 1, op)


def test_blocks_of_two_shapes_stack_in_two_groups_off_the_twin_bits(monkeypatch):
    # level-1 blocks of 2 and 3 atoms give block programs of two shapes, so
    # one extension's tables stack in two groups, priced in one pass; every
    # value is the bits of an extension without tables
    rng = np.random.default_rng(SEED + 13)
    op, bounds = _two_shape_operator(rng)
    space = op.space
    ext, ref = maximal_extension(op, bounds), maximal_extension(op, bounds)
    takes = _recorded_takes(monkeypatch)
    centers = [rng.normal(size=5) for _ in range(3)]
    for k in range(30):
        X = space.rv(centers[k % 3] + 1e-3 * rng.normal(size=5))
        assert (ext.evaluate(X).values.tobytes()
                == _table_free(monkeypatch, ref.evaluate, X).values.tobytes())
    assert len({group[2].shape for group in ext._stack.groups}) == 2
    assert all(any(value is not None for p, value, _ in takes if p is prog)
               for prog in ext._programs)


@pytest.mark.parametrize("name", FIXTURES)
def test_tight_is_the_part_by_part_mapping_on_every_fixture_solve(name, monkeypatch):
    # the density-set LPs of set-up and the block and centering LPs of
    # evaluates, prices and attainments read the same marks either way
    solved = []

    def checked(lp, **kwargs):
        res = solve_lp(lp, **kwargs)
        if res.status == "optimal":
            assert res.tight.tobytes() == mapped_tight(res).tobytes()
            solved.append(res)
        return res

    monkeypatch.setattr(sandwichext.extension, "solve_lp", checked)
    system = load_scenario(fixture_path(name)).system
    ext = extend_system(system)
    for _, op in _mixed_operations(system, np.random.default_rng(SEED + 11), 12):
        op(ext)
    assert solved
