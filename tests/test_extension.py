import math
import sys

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
    Piece,
    PolyhedralOperator,
    SandwichViolation,
    attain,
    cond_expectation,
    conjugate,
    density_set,
    extend_system,
    load_scenario,
    maximal_extension,
    minimal_penalty,
    price,
    solve_lp,
    span_closure,
    verify_representation,
)
from sandwichext.extension import TABLE_SIZE, _BlockProgram

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
    # the same vector passes with the check disabled
    out = conjugate(op, space.rv([1.2, 0.9]), check=False)
    assert out.by_block.shape == (1,)


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


@pytest.mark.parametrize("source", SOURCES, ids=source_id)
def test_conjugates_are_the_bits_of_freshly_built_programs(source, monkeypatch):
    # the representation and cocycle checks compare conjugates bit for bit,
    # so a block's shared LP is solved cold: whatever came before, every
    # conjugate LP gives the bits of a new program built from its data
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
            conjugate(op, space.rv(family[i], op.level_b))
        assert len(calls) == history.size * blocks.probs.size


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


def test_polytope_feasible_points_are_members(two_atom, three_atom):
    for bundle in (two_atom, three_atom):
        poly = density_set(bundle.bounds)
        for a, bp in enumerate(poly.blocks):
            assert poly.contains_on_block(
                a, bp.seg.rows.broadcast(bp.feasible_point[:bp.n_f]))


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


def _recorded_lookups(monkeypatch):
    """Record (program, value, foreign) of every table lookup; ``foreign``
    marks a hit on an entry other than the form's kept pair."""
    lookups = []
    lookup = _BlockProgram.lookup

    def recording(prog, x_reps):
        form = prog.lp._form
        kept = form.last and form.last.basis
        value = lookup(prog, x_reps)
        lookups.append((prog, value, value is not None and form.last.basis != kept))
        return value

    monkeypatch.setattr(_BlockProgram, "lookup", recording)
    return lookups


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


TABLE_SOURCES = SOURCES + [GOLDEN_TREE]


@pytest.mark.parametrize("source", TABLE_SOURCES, ids=source_id)
def test_evaluate_off_the_tables_matches_a_table_free_extension(source, monkeypatch):
    # the tables change how evaluate reaches a block's optimal basis, not
    # what it returns. A twin extension with every table off gives the bits
    # until a hit on an entry other than the kept pair: its warm solve may
    # have pivoted to that entry's columns in another order, whose inverse
    # rounds differently, and later warm solves restart from there
    system = _tree_or_fixture(source)
    ext, ref = extend_system(system), extend_system(system)
    lookups = _recorded_lookups(monkeypatch)
    for scale, op in _mixed_operations(system, np.random.default_rng(SEED + 7)):
        for got, want in zip(op(ext), _table_free(monkeypatch, op, ref)):
            if got.tobytes() != want.tobytes():
                assert any(foreign for _, _, foreign in lookups)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)
    assert any(value is not None for _, value, _ in lookups)


@pytest.mark.parametrize("source", TABLE_SOURCES, ids=source_id)
def test_table_hits_are_the_bits_of_a_fresh_warm_solve(source, monkeypatch):
    # a hit's basis is optimal by the simplex's own test, so a warm solve
    # from it stops after one pass on the same x and value; the hit leaves
    # that pair kept for the next warm solve
    system = _tree_or_fixture(source)
    ext = extend_system(system)
    lookup = _BlockProgram.lookup
    hits = []

    def checked(prog, x_reps):
        value = lookup(prog, x_reps)
        if value is not None:
            hits.append(value)
            vertex = next(reversed(prog.table.values()))   # a hit is the newest
            assert prog.lp._form.last is vertex
            fresh = fresh_warm_solve(prog.program(x_reps), vertex.basis)
            assert fresh.iterations == 1 and fresh.basis == vertex.basis
            assert fresh.x.tobytes() == vertex.x.tobytes()
            assert np.float64(fresh.value).tobytes() == np.float64(value).tobytes()
            assert not vertex.x.flags.writeable
        return value

    monkeypatch.setattr(_BlockProgram, "lookup", checked)
    for _, op in _mixed_operations(system, np.random.default_rng(SEED + 8)):
        op(ext)
    assert hits


def test_table_is_a_bounded_lru(monkeypatch):
    # per block: a hit becomes the newest entry, a missed lookup's solve is
    # added as the newest, past TABLE_SIZE the oldest goes, and TABLE_SIZE
    # misses in a row drop the table and end its lookups
    monkeypatch.setattr(sandwichext.extension, "TABLE_SIZE", 2)
    system = _tree_or_fixture(GOLDEN_TREE)
    ext = extend_system(system)
    lookup, remember = _BlockProgram.lookup, _BlockProgram.remember
    model = {}                  # per program: [keys oldest first, misses in a row]
    evicted = reordered = 0

    def looked_up(prog, x_reps):
        nonlocal reordered
        order, misses = model.setdefault(id(prog), [[], 0])
        assert misses < 2                       # a dropped table is not consulted
        value = lookup(prog, x_reps)
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

    monkeypatch.setattr(_BlockProgram, "lookup", looked_up)
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
    lookups = _recorded_lookups(monkeypatch)
    rng = np.random.default_rng(SEED + 10)
    for _ in range(2 * TABLE_SIZE):
        X = space.rv(rng.normal(size=space.n_atoms), t)
        assert (step.evaluate(X).values.tobytes()
                == _table_free(monkeypatch, ref.evaluate, X).values.tobytes())
    missed = [[value is None for prog, value, _ in lookups if prog is p]
              for p in step._programs]
    assert missed == [[True] * TABLE_SIZE] * len(step._programs)
    assert all(not prog.table for prog in step._programs)


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
