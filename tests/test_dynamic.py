import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sandwichext
from conftest import ROOT, binomial_space, fixture_path, fresh_warm_solve, same_lp_result
from sandwichext import (
    BoundPair,
    FilteredSpace,
    GridError,
    LevelError,
    OperatorSystem,
    Piece,
    PolyhedralOperator,
    SystemStructureError,
    SystemValidationError,
    check_cocycle_and_local,
    cond_expectation,
    extend_system,
    attain,
    factor_density,
    full_space,
    load_scenario,
    price,
    refine_and_compare,
    solve_lp,
    span_closure,
    system_penalty,
    validate_system,
)

TOL = 1e-9
SEED = 7

sys.path.append(str(ROOT / "bench"))
import treegen  # noqa: E402  (the benchmark's b-ary tree generator)


def unit_op(space, s, t):
    return PolyhedralOperator(full_space(space, t, s), (
        Piece(space.rv(np.ones(space.n_atoms), level=t),
              space.rv(np.zeros(space.n_atoms), level=s)),))


def box(space, s, t, lo, hi):
    n = space.n_atoms
    return BoundPair.linear(space, t, s, space.rv(np.full(n, lo), level=t),
                            space.rv(np.full(n, hi), level=t))


def test_grid_and_structure_guards(linear_system):
    space = linear_system.space
    ops = dict(linear_system.one_step_ops)
    bnds = dict(linear_system.bounds)
    with pytest.raises(GridError):
        OperatorSystem(space, (0, 2, 1), ops, bnds)
    with pytest.raises(GridError):
        OperatorSystem(space, (1, 2), ops, bnds)
    with pytest.raises(GridError):
        OperatorSystem(space, (0, 1), ops, bnds)
    with pytest.raises(SystemStructureError):
        OperatorSystem(space, (0, 1, 2), {(0, 1): ops[(1, 2)],
                                          (1, 2): ops[(1, 2)]}, bnds)
    with pytest.raises(SystemStructureError):
        OperatorSystem(space, (0, 1, 2), ops, {(0, 1): bnds[(0, 2)]})
    with pytest.raises(SystemStructureError):
        OperatorSystem(space, (0, 1, 2), ops, bnds,
                       long_ops={(0, 1): ops[(0, 1)]})


def test_validate_reports_missing_parts(linear_system):
    space = linear_system.space
    partial = OperatorSystem(
        space, (0, 1, 2), dict(linear_system.one_step_ops),
        {p: linear_system.bounds[p] for p in [(0, 1), (1, 2)]})
    with pytest.raises(SystemStructureError) as exc:
        validate_system(partial)
    assert "(0, 2)" in str(exc.value)
    with pytest.raises(SystemStructureError):
        extend_system(partial)


def test_validate_system_entry_names(restricted_system):
    rep = validate_system(restricted_system)
    assert rep.passed, [e.name for e in rep.failures()]
    names = [e.name for e in rep.entries]
    assert "domains_nested" in names
    assert "operator_axioms_0_1" in names and "sandwich_1_2" in names
    assert "mM1_minorant_weakly_consistent" in names
    assert "mM1_long_minorant_nondegenerate" in names


def test_long_op_consistency_checked():
    space = binomial_space()
    ops = {(0, 1): unit_op(space, 0, 1), (1, 2): unit_op(space, 1, 2)}
    bnds = {(0, 1): box(space, 0, 1, 0.5, 2.0),
            (1, 2): box(space, 1, 2, 0.5, 2.0),
            (0, 2): box(space, 0, 2, 0.25, 4.0)}
    good = OperatorSystem(space, (0, 1, 2), ops, bnds,
                          long_ops={(0, 2): unit_op(space, 0, 2)})
    rep = validate_system(good)
    assert rep.passed, [e.name for e in rep.failures()]
    names = [e.name for e in rep.entries]
    assert "consistency_0_1_2" in names and "restriction_0_1" in names

    tilt = PolyhedralOperator(full_space(space, 2, 0), (
        Piece(space.rv([1.2, 1.2, 0.8, 0.8]), space.rv(np.zeros(4), level=0)),))
    bad = OperatorSystem(space, (0, 1, 2), ops, bnds, long_ops={(0, 2): tilt})
    rep = validate_system(bad)
    failed = {e.name for e in rep.failures()}
    assert "consistency_0_1_2" in failed
    with pytest.raises(SystemValidationError) as exc:
        extend_system(bad)
    assert not exc.value.report.passed


def test_long_domain_outside_the_terminal_domain_fails_nesting():
    # the terminal (1, 2) operator acts on the level-1 measurable payoffs
    # only, which a long (0, 2) operator on every level-2 payoff overflows
    space = binomial_space()
    terminal = PolyhedralOperator(span_closure(space, 2, 1, []), (
        Piece(space.rv(np.ones(4)), space.rv(np.zeros(4), level=1)),))
    bnds = {(0, 1): box(space, 0, 1, 0.5, 2.0),
            (1, 2): box(space, 1, 2, 0.5, 2.0),
            (0, 2): box(space, 0, 2, 0.25, 4.0)}
    system = OperatorSystem(space, (0, 1, 2),
                            {(0, 1): unit_op(space, 0, 1), (1, 2): terminal},
                            bnds, long_ops={(0, 2): unit_op(space, 0, 2)})
    rep = validate_system(system)
    assert {e.name for e in rep.failures()} == {"domains_nested"}
    with pytest.raises(SystemValidationError) as exc:
        extend_system(system)
    assert [e.name for e in exc.value.report.failures()] == ["domains_nested"]


def test_composed_price_on_full_domains_is_expectation(linear_system):
    # full domains leave no room to extend: matching against every basis
    # vector pins the unit density, so the composed price is E[X]
    ext = extend_system(linear_system)
    space = linear_system.space
    unit_uu = space.rv([1.0, 0.0, 0.0, 0.0])
    res = price(ext, 0, 2, unit_uu)
    assert res.value.values[0] == pytest.approx(0.25, abs=TOL)
    np.testing.assert_allclose(res.density.values, np.ones(4), atol=1e-8)
    assert res.penalty.by_block[0] == pytest.approx(0.0, abs=TOL)
    # pricing identity through the product density
    lhs = float(space.probs @ (res.density.values * unit_uu.values))
    assert lhs - res.penalty.by_block[0] == pytest.approx(
        res.value.values[0], abs=1e-8)


def test_composed_price_sweeps_polytope_on_constant_domains():
    # measurable-payoff domains make the step conjugates vanish on the box,
    # so each step prices by its support function: 1.5 up-weight per period
    _, fine = refine_fixture_systems()
    ext = extend_system(fine)
    space = fine.space
    res = price(ext, 0, 2, space.rv([1.0, 0.0, 0.0, 0.0]))
    assert res.value.values[0] == pytest.approx(0.5625, abs=TOL)
    assert res.density.values[0] == pytest.approx(2.25, abs=1e-8)
    assert res.penalty.by_block[0] == pytest.approx(0.0, abs=TOL)


def test_price_matches_brute_force_on_restricted(restricted_system):
    ext = extend_system(restricted_system)
    space = restricted_system.space
    rng = np.random.default_rng(SEED)
    for k in range(8):
        x = np.array([2.0, -0.5, 1.0, 0.25]) if k == 0 else rng.normal(size=4) * 2
        res = price(ext, 0, 2, space.rv(x))
        assert res.value.values[0] == pytest.approx(
            oracles.restricted_product_price(x), abs=1e-6)
    frozen = price(ext, 0, 2, space.rv([2.0, -0.5, 1.0, 0.25]))
    assert frozen.value.values[0] == pytest.approx(0.98125, abs=TOL)


def test_evaluate_composes_steps(restricted_system):
    ext = extend_system(restricted_system)
    space = restricted_system.space
    rng = np.random.default_rng(SEED + 1)
    for _ in range(6):
        x = space.rv(rng.normal(size=4))
        mid = ext.step(1).evaluate(x)
        np.testing.assert_array_equal(
            ext.evaluate(0, 2, x).values,
            ext.step(0).evaluate(mid).values)
    with pytest.raises(LevelError):
        ext.evaluate(0, 1, space.rv(rng.normal(size=4)))
    with pytest.raises(GridError):
        ext.evaluate(2, 0, space.rv(np.ones(4), level=2))


def test_factor_density_reconstructs_and_normalizes(restricted_system):
    ext = extend_system(restricted_system)
    space = restricted_system.space
    rng = np.random.default_rng(SEED + 2)
    for _ in range(10):
        raw = rng.uniform(0.3, 2.0, size=4)
        q = raw / float(space.probs @ raw)
        factors = factor_density(ext, 0, 2, space.rv(q))
        assert len(factors) == 2
        prod = factors[0].values * factors[1].values
        np.testing.assert_allclose(prod, q, atol=1e-12)
        for s, g in zip((0, 1), factors):
            ce = cond_expectation(space, g, s)
            np.testing.assert_allclose(ce.values, np.ones(4), atol=1e-12)


def test_system_penalty_matches_closed_form(restricted_system):
    ext = extend_system(restricted_system)
    space = restricted_system.space
    rng = np.random.default_rng(SEED + 3)
    for _ in range(10):
        b = rng.uniform(1.0, 1.2)
        a = rng.uniform(1.0, 1.4)
        c = rng.uniform(0.5, 1.5)
        q = np.array([b * a, b * (2 - a), (2 - b) * c, (2 - b) * (2 - c)])
        pen = system_penalty(ext, 0, 2, space.rv(q)).by_block[0]
        assert pen == pytest.approx(oracles.restricted_cocycle_penalty(q),
                                    abs=TOL)
    # a step factor outside its hull must price at infinity
    q_bad = np.array([1.3, 1.3, 0.7, 0.7])
    assert math.isinf(system_penalty(ext, 0, 2, space.rv(q_bad)).by_block[0])


def test_cocycle_and_locality_entries(restricted_system):
    ext = extend_system(restricted_system)
    rep = check_cocycle_and_local(ext, 0, 1, 2, n_samples=20, seed=0)
    assert rep.passed, [e.name for e in rep.failures()]
    names = {e.name for e in rep.entries}
    assert {"cocycle_additive", "cocycle_infinite_blocks_agree",
            "locality_exact"} <= names


def measurable_unit_op(space, s, t):
    # domain = level-s measurables, so the conjugate vanishes on the whole
    # density polytope and the extension prices by the support function
    return PolyhedralOperator(span_closure(space, t, s, []), (
        Piece(space.rv(np.ones(space.n_atoms), level=t),
              space.rv(np.zeros(space.n_atoms), level=s)),))


def refine_fixture_systems():
    """One-shot system against its two-step refinement on a shared box."""
    space = binomial_space()
    shared = {(0, 2): box(space, 0, 2, 0.2, 5.0)}
    coarse = OperatorSystem(
        space, (0, 2), {(0, 2): measurable_unit_op(space, 0, 2)}, dict(shared))
    fine = OperatorSystem(
        space, (0, 1, 2),
        {(0, 1): measurable_unit_op(space, 0, 1),
         (1, 2): measurable_unit_op(space, 1, 2)},
        {**shared, (0, 1): box(space, 0, 1, 0.5, 2.0),
         (1, 2): box(space, 1, 2, 0.5, 2.0)},
        long_ops={(0, 2): measurable_unit_op(space, 0, 2)})
    return coarse, fine


def test_refinement_shrinks_values_frozen_case():
    coarse, fine = refine_fixture_systems()
    space = coarse.space
    unit_uu = space.rv([1.0, 0.0, 0.0, 0.0])
    vc = extend_system(coarse).evaluate(0, 2, unit_uu).values[0]
    vf = extend_system(fine).evaluate(0, 2, unit_uu).values[0]
    # one shot: f_uu = min(5, (1 - 0.75 * 0.2) / 0.25) = 3.4, value 3.4 / 4
    assert vc == pytest.approx(0.85, abs=TOL)
    # stepwise the knapsack caps at 1.5 per period
    assert vf == pytest.approx(0.5625, abs=TOL)
    rep = refine_and_compare(coarse, fine, n_payoffs=40, n_densities=10, seed=1)
    assert rep.passed, [e.name for e in rep.report.failures()]
    # an extension the caller holds gives the same report
    again = refine_and_compare(coarse, fine, n_payoffs=40, n_densities=10,
                               seed=1, fine_ext=extend_system(fine))
    assert again.report == rep.report
    assert rep.max_decrease > 1e-6
    assert rep.witness_pair == (0, 2)
    by_name = {e.name: e for e in rep.report.entries}
    assert by_name["values_monotone_0_2"].passed
    assert by_name["penalties_monotone_0_2"].passed
    assert by_name["strict_decrease_witnessed"].passed


def test_refinement_identical_grids_is_flat(restricted_system):
    rep = refine_and_compare(restricted_system, restricted_system,
                             n_payoffs=25, n_densities=8, seed=2)
    assert rep.max_decrease <= TOL
    by_name = {e.name: e for e in rep.report.entries}
    assert not by_name["strict_decrease_witnessed"].passed
    assert all(e.passed for n, e in by_name.items()
               if n.startswith(("values_monotone", "penalties_monotone")))


def test_refinement_input_guards():
    coarse, fine = refine_fixture_systems()
    with pytest.raises(GridError):
        refine_and_compare(fine, coarse, n_payoffs=2, n_densities=2)
    skew = FilteredSpace(
        probs=np.array([0.4, 0.1, 0.25, 0.25]),
        levels=[[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
        time_labels=[0.0, 1.0, 2.0],
    )
    sys_skew = OperatorSystem(
        skew, (0, 2), {(0, 2): unit_op(skew, 0, 2)},
        {(0, 2): box(skew, 0, 2, 0.2, 5.0)})
    with pytest.raises(ValueError, match="different spaces"):
        refine_and_compare(sys_skew, fine, n_payoffs=2, n_densities=2)
    space = coarse.space
    tight = OperatorSystem(
        space, (0, 2), {(0, 2): unit_op(space, 0, 2)},
        {(0, 2): box(space, 0, 2, 0.25, 4.0)})
    with pytest.raises(ValueError, match="shared pair"):
        refine_and_compare(tight, fine, n_payoffs=2, n_densities=2)
    with pytest.raises(ValueError, match="does not extend"):
        refine_and_compare(coarse, fine, n_payoffs=2, n_densities=2,
                           fine_ext=extend_system(coarse))


@functools.lru_cache(maxsize=None)
def _tree_system(b, T, kind, seed):
    _, system, _ = treegen.accepted_system(sandwichext, treegen.Shape(b, T, kind), seed)
    return system, extend_system(system)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]),
       kind=st.sampled_from(["linear", "polyhedral"]), seed=st.integers(0, 3),
       scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12]),
       payoff_seed=st.integers(0, 2**32 - 1))
def test_price_identity_holds_at_every_payoff_scale(shape, kind, seed, scale, payoff_seed):
    # b-ary trees from the benchmark's generator, payoffs from 1e-9 to 1e12:
    # value = E[f X | F_0] - penalty, and price agrees with evaluate
    b, T = shape
    system, ext = _tree_system(b, T, kind, seed)
    space = system.space
    X = space.rv(np.random.default_rng(payoff_seed).normal(size=space.n_atoms) * scale, T)
    tol = 1e-7 * max(1.0, float(np.abs(X.values).max()))
    res = price(ext, 0, T, X)
    priced = cond_expectation(space, space.rv(res.density.values * X.values, T), 0)
    np.testing.assert_allclose(priced.values - res.penalty.atomwise(),
                               res.value.values, rtol=0, atol=tol)
    np.testing.assert_allclose(res.value.values, ext.evaluate(0, T, X).values,
                               rtol=0, atol=tol)


@pytest.mark.parametrize("source", [
    "fix_a.json", "fix_b.json", "fix_c_linear.json", "fix_c_restricted.json",
    "fix_refine.json", (2, 2, "linear"), (3, 2, "linear"), (2, 3, "linear"),
    (2, 2, "polyhedral"), (3, 2, "polyhedral"), (2, 3, "polyhedral")],
    ids=lambda src: src if isinstance(src, str) else "tree-%d-%d-%s" % src)
def test_block_solves_on_the_kept_form_match_fresh_programs_bit_for_bit(source, monkeypatch):
    # every extension LP, block solves included, against solve_lp on the same
    # program built anew and given the same kept basis: the kept standard
    # form, checks and basis inverse change no bit of the result
    if isinstance(source, str):
        system = load_scenario(fixture_path(source)).system
    else:
        system = _tree_system(*source, 0)[0]
    ext = extend_system(system)
    kept = []

    def compared(lp, warm=False):
        last = lp._form.last if warm else None
        kept.append(last is not None)
        res = solve_lp(lp, warm=warm)
        same_lp_result(res, fresh_warm_solve(lp, None if last is None else last.basis))
        return res

    monkeypatch.setattr(sandwichext.extension, "solve_lp", compared)
    space = system.space
    rng = np.random.default_rng(SEED + 11)
    for k, (s, t) in enumerate(system.adjacent_pairs):
        step = ext.step(k)
        for scale in (1e-9, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12):
            for _ in range(2):
                vals = np.empty(space.n_atoms)
                for block in space.blocks(t):
                    vals[list(block)] = rng.normal() * scale
                X = space.rv(vals, t)
                step.evaluate(X)
                attain(step, X)
    assert sum(kept) >= len(kept) // 3


def test_extend_system_checks_each_declared_sandwich_once(monkeypatch):
    # validate_system certifies every declared pair's sandwich; the extension
    # of the adjacent pairs then takes that report's word for it
    calls = []
    real = sandwichext.check_sandwich

    def counted(op, bounds):
        calls.append((op.level_a, op.level_b))
        return real(op, bounds)

    monkeypatch.setattr("sandwichext.dynamic.check_sandwich", counted)
    monkeypatch.setattr("sandwichext.extension.check_sandwich", counted)
    for path in (fixture_path("fix_refine.json"), ROOT / "tests" / "golden" / "polyhedral_tree.json"):
        system = load_scenario(path).system
        del calls[:]
        extend_system(system)
        assert sorted(calls) == sorted(system.declared_ops())


@pytest.mark.parametrize("shape, seed", [
    *[(treegen.Shape(2, 6, "linear"), seed) for seed in (3, 16, 23, 85, 92, 100)],
    (treegen.Shape(2, 3, "polyhedral", long_unit=True), 92)],
    ids=lambda v: v if isinstance(v, int) else "%d-%d-%s" % (v.b, v.T, v.bounds))
def test_generated_systems_validate_on_their_first_draw(shape, seed):
    # these draws used to be redrawn: their domain bases varied by 1e-12 to
    # 1e-11 inside a block, which the measurability check rejected
    _, system, attempt = treegen.accepted_system(sandwichext, shape, seed)
    assert attempt == 0
