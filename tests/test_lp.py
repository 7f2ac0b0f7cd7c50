import math
import sys
import threading

import numpy as np
import pytest

from conftest import (fixture_path, fresh_program, fresh_warm_solve, mapped_tight,
                      same_lp_result)
from sandwichext import (LinearProgram, LpResult, extend_system, load_scenario, solve_lp,
                         support_function)
import sandwichext.lp
from sandwichext.lp import InfeasibleRegionError, LpError

VALUE_TOL = 1e-10
DUAL_TOL = 1e-8
SEED = 424242


def test_min_with_equality_and_box():
    # min x0 + 2 x1  s.t.  x0 + x1 = 1, 0 <= x <= 1
    lp = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                       bounds=((0.0, 1.0), (0.0, 1.0)))
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=VALUE_TOL)
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-9)
    assert abs(res.value - res.dual_objective) < DUAL_TOL
    # min x0 + x1 over x0 - x1 = -1, x >= 0: the vertex (0, 1)
    moved = solve_lp(LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, -1.0]], b_eq=[-1.0]))
    np.testing.assert_allclose(moved.x, [0.0, 1.0], atol=1e-12)
    # proportional rows: phase 1 drops one and the optimum (1, 0) keeps the other
    dropped = solve_lp(LinearProgram(c=[-1.0, 0.0], a_eq=[[1.0, 1.0], [2.0, 2.0]],
                                     b_eq=[1.0, 2.0]))
    assert len(dropped.basis[0]) == 1
    np.testing.assert_allclose(dropped.x, [1.0, 0.0], atol=1e-12)


def test_max_with_inequalities():
    # max 3 x0 + x1  s.t.  x0 + x1 <= 4, x0 <= 2, x >= 0
    lp = LinearProgram(c=[3.0, 1.0], sense="max",
                       a_ub=[[1.0, 1.0], [1.0, 0.0]], b_ub=[4.0, 2.0],
                       bounds=((0.0, math.inf), (0.0, math.inf)))
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(8.0, abs=VALUE_TOL)
    np.testing.assert_allclose(res.x, [2.0, 2.0], atol=1e-9)


def test_bounded_below_by_constraint_only():
    # min x0 - x1 with x0 free: x1 <= x0 + 1 caps the objective at -1
    lp = LinearProgram(c=[1.0, -1.0],
                       a_ub=[[-1.0, 1.0]], b_ub=[1.0],
                       bounds=((-math.inf, math.inf), (-3.0, 5.0)))
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-1.0, abs=VALUE_TOL)


def test_unbounded_with_improving_ray():
    # min x0 with x0 free and only x1 constrained
    lp = LinearProgram(c=[1.0, 0.0],
                       a_ub=[[0.0, 1.0]], b_ub=[5.0],
                       bounds=((-math.inf, math.inf), (0.0, math.inf)))
    res = solve_lp(lp)
    assert res.status == "unbounded"
    assert res.value == -math.inf
    ray = res.certificate["ray"]
    # the ray must keep feasibility and strictly improve the objective
    assert np.all(np.asarray(lp.a_ub) @ ray <= 1e-12)
    assert float(np.asarray(lp.c) @ ray) < -1e-9


def test_infeasible_with_farkas_certificate():
    # x0 + x1 = 3 cannot hold inside [0,1]^2
    lp = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0],
                       bounds=((0.0, 1.0), (0.0, 1.0)))
    res = solve_lp(lp)
    assert res.status == "infeasible"
    assert math.isnan(res.value)
    cert = res.certificate
    assert cert["kind"] in ("farkas", "farkas_raw")
    if cert["kind"] == "farkas":
        assert cert["gap"] > 0.0
    # no solve on its form is optimal, so the form keeps no pair and a warm
    # solve of any objective is the cold one
    derived = lp.with_objective([2.0, 1.0])
    same_lp_result(solve_lp(derived, warm=True), solve_lp(fresh_program(derived)))
    assert lp._form.last is None
    # proportional rows whose right-hand sides disagree
    clash = LinearProgram(c=[-1.0, 0.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 3.0])
    assert solve_lp(clash).status == "infeasible"


def test_degenerate_problem_terminates_deterministically():
    # heavily degenerate vertex at the origin; the pivoting must not cycle
    a_ub = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
    lp = LinearProgram(c=[-1.0, -1.0, -1.0], a_ub=a_ub, b_ub=[1.0] * 6,
                       bounds=((0.0, math.inf),) * 3)
    first = solve_lp(lp)
    assert first.status == "optimal"
    assert first.value == pytest.approx(-1.5, abs=VALUE_TOL)
    for _ in range(3):
        again = solve_lp(lp)
        assert again.value == first.value
        np.testing.assert_array_equal(again.x, first.x)
        assert again.iterations == first.iterations


def test_beale_cycling_program_ends_on_the_bland_fallback(monkeypatch):
    # Beale (1955): from the slack basis, most-negative-cost pricing with the
    # least-index leaving row cycles through degenerate bases; without the
    # Bland fallback the solve would run into the lowered cap
    monkeypatch.setattr(sandwichext.lp, "MAX_ITER", 200)
    lp = LinearProgram(c=[-0.75, 20.0, -0.5, 6.0],
                       a_ub=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
                             [0.0, 0.0, 1.0, 0.0]],
                       b_ub=[0.0, 0.0, 1.0])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-1.25, abs=VALUE_TOL)
    np.testing.assert_allclose(res.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert res.dual_objective == pytest.approx(-1.25, abs=VALUE_TOL)


def test_nonnegative_upper_rows_make_no_phase_1_pass(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    runs, simplex = [], sandwichext.lp._simplex

    def counting(*args, **kwargs):
        runs.append(args[3])                    # the starting basis
        return simplex(*args, **kwargs)

    monkeypatch.setattr(sandwichext.lp, "_simplex", counting)
    rng = np.random.default_rng(SEED + 7)
    for _ in range(30):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.0, 2.0, size=m)
        b_ub[0] = 0.0                                     # a degenerate slack start
        bounds = tuple((0.0, 1.5) if rng.random() < 0.5 else (0.0, math.inf) for _ in range(n))
        lp = LinearProgram(c=rng.normal(size=n), a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        del runs[:]
        res = solve_lp(lp)
        # one run, phase 2, from the slacks of the rows and of the finite bounds
        n_boxed = sum(hi < math.inf for _, hi in bounds)
        assert runs == [list(range(n, n + m + n_boxed))]
        ref = optimize.linprog(lp.c, A_ub=a_ub, b_ub=b_ub,
                               bounds=[(lo, None if hi == math.inf else hi) for lo, hi in bounds],
                               method="highs")
        assert (res.status, ref.status) in (("optimal", 0), ("unbounded", 3))
        if ref.status == 0:
            assert res.value == pytest.approx(ref.fun, abs=1e-9)


def _mixed_program(rng):
    """Equalities, and upper rows of which some have negative right-hand
    sides, over boxed, one-sided and free variables; often infeasible."""
    n = int(rng.integers(2, 6))
    m_eq, m_ub = int(rng.integers(1, 3)), int(rng.integers(2, 5))
    kinds = rng.integers(0, 4, size=n)
    bounds = tuple(((0.0, 2.0), (0.0, math.inf), (-math.inf, 1.5),
                    (-math.inf, math.inf))[k] for k in kinds)
    x0 = rng.uniform(0.0, 1.0, size=n)
    a_eq, a_ub = rng.normal(size=(m_eq, n)), rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.uniform(-1.0, 0.5, size=m_ub)
    return dict(c=rng.normal(size=n), a_eq=a_eq, b_eq=a_eq @ x0, a_ub=a_ub,
                b_ub=b_ub, bounds=bounds)


def _highs(spec):
    optimize = pytest.importorskip("scipy.optimize")
    bounds = [(None if lo == -math.inf else lo, None if hi == math.inf else hi)
              for lo, hi in spec["bounds"]]
    return optimize.linprog(spec["c"], A_ub=spec["a_ub"], b_ub=spec["b_ub"],
                            A_eq=spec["a_eq"], b_eq=spec["b_eq"], bounds=bounds,
                            method="highs")


def _verify_farkas(spec, cert):
    """No x in the bound box meets phi(x) <= beta, which every feasible x would."""
    assert cert["kind"] == "farkas"
    ye, yu, yb = cert["y_eq"], cert["y_ub"], cert["y_bounds"]
    assert (yu >= 0).all() and (yb >= 0).all()
    lo, hi = np.array(spec["bounds"]).T
    assert np.isfinite(hi[yb > 0]).all()
    a = ye @ spec["a_eq"] + yu @ spec["a_ub"] + yb
    beta = ye @ spec["b_eq"] + yu @ spec["b_ub"] + yb[yb > 0] @ hi[yb > 0]
    pos, neg = a > 1e-12, a < -1e-12
    assert np.isfinite(lo[pos]).all() and np.isfinite(hi[neg]).all()
    assert a[pos] @ lo[pos] + a[neg] @ hi[neg] > beta


def test_mixed_rows_match_highs_in_status_and_value():
    rng = np.random.default_rng(SEED + 8)
    mixed = dict.fromkeys(("optimal", "infeasible", "unbounded"), 0)
    for _ in range(120):
        spec = _mixed_program(rng)
        lp = LinearProgram(**spec)
        res = solve_lp(lp)
        ref = _highs(spec)
        assert {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status] == res.status
        if res.status == "optimal":
            assert res.value == pytest.approx(ref.fun, abs=1e-8)
            assert abs(res.value - res.dual_objective) < DUAL_TOL
        elif res.status == "infeasible":
            _verify_farkas(spec, res.certificate)
        # count the programs whose phase 1 starts some row on its slack and
        # a flipped (negative right-hand side) upper row on an artificial
        form = lp._form
        mixed[res.status] += form.need[form.m_eq:].any() and not form.need.all()
    assert min(mixed.values()) >= 5, mixed


def test_duality_on_random_feasible_programs():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        x0 = rng.uniform(0.0, 1.0, size=n)  # plant a feasible point
        a_eq = rng.normal(size=(m, n))
        lp = LinearProgram(c=rng.normal(size=n), a_eq=a_eq, b_eq=a_eq @ x0,
                           bounds=tuple((0.0, 2.0) for _ in range(n)))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert abs(res.value - res.dual_objective) < DUAL_TOL
        np.testing.assert_allclose(a_eq @ res.x, a_eq @ x0, atol=1e-8)


def test_malformed_programs_raise():
    with pytest.raises(LpError):
        LinearProgram(c=[1.0], sense="sideways")
    with pytest.raises(LpError):
        LinearProgram(c=[np.nan])
    with pytest.raises(LpError):
        LinearProgram(c=[1.0, 2.0], a_eq=[[1.0]], b_eq=[0.0])
    for bad in (dict(a_eq=[[1.0, np.nan]], b_eq=[0.0]), dict(a_ub=[[1.0, 0.0]], b_ub=[np.inf]),
                dict(a_eq=[[1.0, 1.0]]), dict(bounds=((0.0, 1.0),)),
                dict(bounds=((0.0, 1.0), (np.nan, 1.0)))):
        with pytest.raises(LpError):
            LinearProgram(c=[1.0, 2.0], **bad)


def test_support_function_greedy_values():
    probs = np.array([0.25, 0.25, 0.5])
    lo = np.full(3, 0.5)
    hi = np.full(3, 2.0)
    val, f = support_function([1.0, 0.0, 0.0], probs, lo, hi)
    # best density pushes mass onto atom 0: f = (2, 0.5, 0.5) then fix budget
    assert val == pytest.approx(0.25 * 2.0 + 0.0, abs=VALUE_TOL)
    assert f[0] == pytest.approx(2.0, abs=1e-12)
    assert probs @ f == pytest.approx(1.0, abs=1e-12)


def test_support_function_tie_break_is_lexicographic():
    probs = np.full(4, 0.25)
    lo = np.zeros(4)
    hi = np.full(4, 4.0)
    # equal weights on atoms 1 and 2: the earlier atom takes the budget
    _, f = support_function([0.0, 3.0, 3.0, 0.0], probs, lo, hi)
    np.testing.assert_allclose(f, [0.0, 4.0, 0.0, 0.0], atol=0)


def test_support_function_infeasible_boxes():
    probs = np.array([0.5, 0.5])
    with pytest.raises(InfeasibleRegionError):
        support_function([1.0, 1.0], probs, [1.5, 1.5], [2.0, 2.0])
    with pytest.raises(InfeasibleRegionError):
        support_function([1.0, 1.0], probs, [0.0, 0.0], [0.4, 0.4])
    with pytest.raises(InfeasibleRegionError):
        support_function([1.0, 1.0], probs, [1.0, 1.0], [0.5, 0.5])


def test_support_function_matches_solver_on_random_blocks():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(n) * 2.0)
        lo = rng.uniform(0.0, 0.7, size=n)
        hi = lo + rng.uniform(0.3, 2.5, size=n)
        scale = float(p @ ((lo + hi) / 2.0))
        lo, hi = lo / scale, hi / scale  # keep budget 1 feasible
        w = rng.normal(size=n) * 3.0
        val, f = support_function(w, p, lo, hi)
        lp = LinearProgram(c=p * w / p.sum(), sense="max",
                           a_eq=[p / p.sum()], b_eq=[1.0],
                           bounds=tuple(zip(lo, hi)))
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert abs(val - res.value) < VALUE_TOL
        assert np.all(f >= lo - 1e-12) and np.all(f <= hi + 1e-12)


def test_result_is_plain_data():
    res = solve_lp(LinearProgram(c=[1.0], bounds=((0.0, 1.0),)))
    assert isinstance(res, LpResult)
    assert res.status == "optimal" and res.value == 0.0
    assert res.certificate is None


# min t over x in the simplex, t free, t >= G_i . x: the dominance check of
# two drawn polyhedral bound pairs, on which a rounding-noise reduced cost
# let the u- column of t enter while its opposite u+ was basic
NOISY_GAPS = [
    [[0.26517554570511476, 0.15941741642536925, 0.024400821625093615, 0.029915152693383348],
     [0.3765141753476064, 0.11115014417900823, 0.04625939788979187, 0.03152381983043504],
     [0.3419777757336559, 0.17582162290444447, 0.03828455972722628, 0.029381914602645658]],
    [[0.2806724917386889, 0.13504175767857818, 0.024456549942780126, 0.029983475029350223],
     [0.39851778748583144, 0.09415477413151715, 0.046365048365878216, 0.03159581615388655],
     [0.36196306932901456, 0.14893768527500678, 0.038371996705363655, 0.029449019091845743],
     [0.1185930171203436, 0.10188131214195319, 0.050596144251926795, 0.061360866948748226],
     [0.23643831286748618, 0.060994328594892164, 0.07250464267502488, 0.06297320807328453],
     [0.1998835947106693, 0.1157772397383818, 0.06451159101451032, 0.060826411011243746],
     [0.2760361394603821, 0.13132786328538504, 0.03220501923944685, 0.053726068453002304],
     [0.3938814352075246, 0.09044087973832401, 0.05411351766254494, 0.05533840957753863],
     [0.35732671705070773, 0.14522379088181367, 0.04612046600203038, 0.053191612515497824]],
]


@pytest.mark.parametrize("gaps", NOISY_GAPS)
def test_free_variable_twins_never_share_a_basis(gaps):
    optimize = pytest.importorskip("scipy.optimize")
    g = np.array(gaps)
    n = g.shape[1]
    spec = dict(c=np.r_[np.zeros(n), 1.0], a_eq=[np.r_[np.ones(n), 0.0]], b_eq=[1.0],
                a_ub=np.hstack([g, -np.ones((len(g), 1))]), b_ub=np.zeros(len(g)))
    res = solve_lp(LinearProgram(**spec, bounds=[(0.0, math.inf)] * n + [(-math.inf, math.inf)]))
    ref = optimize.linprog(spec["c"], A_ub=spec["a_ub"], b_ub=spec["b_ub"], A_eq=spec["a_eq"],
                           b_eq=spec["b_eq"], bounds=[(0, None)] * n + [(None, None)],
                           method="highs")
    assert res.status == "optimal" and ref.status == 0
    assert res.value == pytest.approx(ref.fun, abs=1e-12)
    assert abs(res.value - res.dual_objective) < DUAL_TOL
    assert not res.tight[[len(g) + n, len(g) + 2 * n + 1]].any()     # t's bounds are infinite


def _random_program(rng):
    """A feasible program with boxed, one-sided and free variables.

    A planted point keeps it feasible; free variables make some unbounded.
    """
    n = int(rng.integers(2, 6))
    m_eq = int(rng.integers(1, 3))
    m_ub = int(rng.integers(0, 3))
    x0 = rng.uniform(0.0, 1.0, size=n)
    kinds = rng.integers(0, 4, size=n)
    bounds = tuple(((0.0, 2.0), (0.0, math.inf), (-math.inf, 1.5),
                    (-math.inf, math.inf))[k] for k in kinds)
    a_eq = rng.normal(size=(m_eq, n))
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.uniform(0.0, 0.5, size=m_ub)
    return dict(c=rng.normal(size=n), a_eq=a_eq, b_eq=a_eq @ x0,
                a_ub=a_ub if m_ub else None, b_ub=b_ub if m_ub else None,
                bounds=bounds)


def test_tight_is_the_part_by_part_mapping_scattered_at_once():
    # one scatter through the form's column index marks what the old
    # per-part mapping marked, on every kind of variable and row
    rng = np.random.default_rng(SEED + 9)
    kinds = set()
    solved = 0
    for _ in range(150):
        spec = _random_program(rng)
        lp = LinearProgram(**spec)
        for res in (solve_lp(lp), solve_lp(lp.with_objective(rng.normal(size=lp.n_vars)),
                                           warm=True)):
            if res.status != "optimal":
                continue
            solved += 1
            assert res.tight.tobytes() == mapped_tight(res).tobytes()
            kinds |= set(spec["bounds"])
    assert solved >= 150
    assert len(kinds) == 4          # boxed, lower-only, upper-only and free


def _nearby_objectives(rng, c, k=4):
    """Objectives at a few distances from ``c``: near ones mostly keep the
    optimal basis, far ones mostly move it."""
    return [c + rng.normal(size=c.size) * scale
            for scale in rng.choice([1e-6, 1e-3, 0.1, 1.0], size=k)]


def test_one_pass_warm_solves_return_the_kept_vertex_bit_for_bit():
    # a warm solve whose first pass finds the kept vertex optimal returns
    # that vertex's x without recomputing it: the bits of a fresh program's
    # warm solve from a kept vertex that conftest builds with its own
    # arithmetic, on every kind of variable and row
    rng = np.random.default_rng(SEED + 10)
    kinds = set()
    one_pass = moved = 0
    for _ in range(150):
        spec = _random_program(rng)
        template = LinearProgram(**spec)
        if solve_lp(template).status != "optimal":
            continue
        for c in _nearby_objectives(rng, template.c):
            lp = template.with_objective(c)
            kept = template._form.last
            res = solve_lp(lp, warm=True)
            same_lp_result(res, fresh_warm_solve(lp, kept.basis))
            if res.status == "optimal" and res.iterations == 1:
                assert res.basis == kept.basis and res.x is kept.x
                assert template._form.last is kept
                # the kept vertex is optimal for the new objective
                assert abs(res.value - solve_lp(fresh_program(lp)).value) < DUAL_TOL
                one_pass += 1
                kinds |= set(spec["bounds"])
            else:
                moved += 1
    assert one_pass >= 150 and moved >= 50
    assert len(kinds) == 4          # boxed, lower-only, upper-only and free


@pytest.mark.parametrize("name", ["fix_a.json", "fix_b.json", "fix_c_linear.json",
                                  "fix_c_restricted.json", "fix_refine.json"])
def test_one_pass_block_program_solves_match_fresh_warm_solves(name):
    # the same on the fixtures' extension block programs, whose objectives
    # move only in the payoff part
    system = load_scenario(fixture_path(name)).system
    ext = extend_system(system)
    rng = np.random.default_rng(SEED + 11)
    one_pass = 0
    for k in range(len(system.adjacent_pairs)):
        for prog in ext.step(k)._programs:
            x_reps = rng.normal(size=prog.poly.n_f)
            for x in [x_reps] + _nearby_objectives(rng, x_reps, 6):
                lp = prog.program(x)
                kept = lp._form.last
                res = solve_lp(lp, warm=True)
                same_lp_result(res, fresh_warm_solve(
                    lp, None if kept is None else kept.basis))
                if res.iterations == 1 and kept is not None:
                    assert res.x is kept.x
                    cold = solve_lp(fresh_program(lp)).value
                    assert abs(res.value - cold) < DUAL_TOL * max(1.0, abs(cold))
                    one_pass += 1
    assert one_pass >= 5


def test_optimal_solutions_are_read_only():
    # a one-pass warm solve shares its x with the form's kept vertex, so no
    # optimal x may be written to, whether cold, warm and pivoting, or warm
    # and stopped after one pass
    rng = np.random.default_rng(SEED + 12)
    seen = set()
    for _ in range(20):
        template = LinearProgram(**_random_program(rng))
        cold = solve_lp(template)
        if cold.status != "optimal":
            continue
        results = [("cold", cold)]
        for c in _nearby_objectives(rng, template.c):
            res = solve_lp(template.with_objective(c), warm=True)
            if res.status == "optimal":
                results.append(("one pass" if res.iterations == 1 else "pivoting", res))
        for kind, res in results:
            seen.add(kind)
            assert not res.x.flags.writeable
            with pytest.raises(ValueError):
                res.x[0] = 7.0
    assert seen == {"cold", "one pass", "pivoting"}


def test_warm_start_from_another_objective_matches_cold():
    rng = np.random.default_rng(SEED + 2)
    statuses = set()
    for _ in range(80):
        spec = _random_program(rng)
        template = LinearProgram(**spec)
        first = solve_lp(template)
        # a form that kept no pair solves warm as it solves cold
        same_lp_result(solve_lp(LinearProgram(**spec), warm=True), first)
        if first.status != "optimal":
            continue
        lp = template.with_objective(rng.normal(size=spec["c"].size))
        cold = solve_lp(fresh_program(lp))
        warm = solve_lp(lp, warm=True)
        statuses.add(cold.status)
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert abs(warm.value - cold.value) < DUAL_TOL
            assert abs(warm.dual_objective - cold.dual_objective) < DUAL_TOL
            assert abs(warm.value - warm.dual_objective) < DUAL_TOL
            # the final basis restarts its own program in a single pass
            again = solve_lp(lp, warm=True)
            assert again.iterations == 1 and again.basis == warm.basis
            assert again.value == warm.value
    assert statuses == {"optimal", "unbounded"}


def test_warm_start_sequences_repeat_bytes():
    def run():
        rng = np.random.default_rng(SEED + 4)
        out = []
        spec = _random_program(rng)
        while solve_lp(LinearProgram(**spec)).status != "optimal":
            spec = _random_program(rng)
        template = LinearProgram(**spec)
        for _ in range(12):
            out.append(solve_lp(template.with_objective(rng.normal(size=spec["c"].size)),
                                warm=True))
        return out

    for a, b in zip(run(), run(), strict=True):
        same_lp_result(a, b)


def test_program_keeps_private_read_only_copies_of_its_arrays():
    # min x0 + 2 x1 over x0 + x1 = 1, x0 <= 0.25, 0 <= x <= 1
    a_eq, b_eq = np.array([[1.0, 1.0]]), np.array([1.0])
    a_ub, b_ub = np.array([[1.0, 0.0]]), np.array([0.25])
    c = np.array([1.0, 2.0])
    lp = LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                       bounds=((0.0, 1.0), (0.0, 1.0)))
    first = solve_lp(lp)
    np.testing.assert_allclose(first.x, [0.25, 0.75], atol=1e-12)
    # the caller's arrays change after the first solve: x0 - x1 = 0, x0 <= 1
    a_eq[0, 1], b_eq[0], a_ub[0, 0], b_ub[0], c[0] = -1.0, 0.0, 1.0, 1.0, -1.0
    fresh = solve_lp(LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                                   bounds=((0.0, 1.0), (0.0, 1.0))))
    np.testing.assert_allclose(fresh.x, [0.0, 0.0], atol=1e-12)
    # the first program, its kept form and the programs derived from it do not see it
    same_lp_result(solve_lp(lp), first)
    same_lp_result(solve_lp(lp, warm=True), fresh_warm_solve(lp, first.basis))
    derived = lp.with_objective([1.0, 2.0])
    same_lp_result(solve_lp(derived), first)
    for arr in (lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, derived.c):
        with pytest.raises(ValueError):
            arr[0] = 7.0


def test_objective_swap_checks_the_new_objective():
    lp = LinearProgram(c=[1.0, 2.0, 3.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    solve_lp(lp)
    for bad in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 0.0], [math.inf, 0.0, 0.0],
                [[1.0, 2.0, 3.0]], []):
        with pytest.raises(LpError):
            lp.with_objective(bad)
    derived = lp.with_objective([3.0, 1.0, 2.0])
    assert derived.n_vars == 3 and derived.sense == lp.sense
    assert derived._form is lp._form
    same_lp_result(solve_lp(derived), solve_lp(fresh_program(derived)))


def test_starts_on_derived_programs_match_fresh_programs():
    rng = np.random.default_rng(SEED + 7)
    moved = 0
    for _ in range(30):
        spec = _random_program(rng)
        template = LinearProgram(**spec)
        if solve_lp(template).status != "optimal":
            continue
        for _ in range(4):
            lp = template.with_objective(rng.normal(size=spec["c"].size))
            kept = template._form.last.basis
            res = solve_lp(lp, warm=True)
            # the kept basis and inverse give what a fresh program gives from
            # the same basis
            same_lp_result(res, fresh_warm_solve(lp, kept))
            moved += res.status == "optimal" and res.basis != kept
    assert moved >= 20


def test_a_solve_reads_the_kept_pair_once():
    # a racing solve may replace the kept (basis, B^-1) pair at any moment; a
    # solve that read it twice could pair one basis with another's inverse.
    # Here every read of the pair alternates between two real pairs.
    rng = np.random.default_rng(SEED + 9)
    while True:
        template = LinearProgram(**_random_program(rng))
        c_a, c_b = rng.normal(size=(2, template.n_vars))
        res_a = solve_lp(template.with_objective(c_a))
        pair_a = template._form.last
        res_b = solve_lp(template.with_objective(c_b))
        if "optimal" == res_a.status == res_b.status and res_a.basis != res_b.basis:
            break
    pair_b = template._form.last
    form = template._form

    class Racing(type(form)):
        reads = 0

        @property
        def last(self):
            self.reads += 1
            return pair_a if self.reads % 2 else pair_b

        @last.setter
        def last(self, value):
            pass

    form.__class__ = Racing
    lp = template.with_objective(c_a)        # basis A is optimal: one pass with A^-1
    res = solve_lp(lp, warm=True)
    assert form.reads == 1
    same_lp_result(res, fresh_warm_solve(lp, res_a.basis))
    solve_lp(lp)                             # a cold solve reads no pair
    assert form.reads == 1


def _bits(res):
    """The fields ``same_lp_result`` compares, as one hashable key."""
    arrays = (res.x, res.tight)
    return (res.status, res.iterations, res.basis, np.float64(res.value).tobytes(),
            res.dual_objective, *(None if a is None else a.tobytes() for a in arrays))


def test_threads_sharing_a_form_match_fresh_programs():
    rng = np.random.default_rng(SEED + 8)
    while True:     # a program whose objectives end on at least three bases
        template = LinearProgram(**_random_program(rng))
        objectives = [rng.normal(size=template.n_vars) for _ in range(6)]
        ends = [solve_lp(template.with_objective(c)) for c in objectives]
        if len({r.basis for r in ends if r.status == "optimal"}) >= 3:
            break
    # without threads: every objective restarted from every optimal basis the
    # program reaches, until the restarts end on no new basis
    table = [set() for _ in objectives]
    seen, todo = set(), [r.basis for r in ends if r.status == "optimal"]
    while todo:
        basis = todo.pop()
        if basis in seen:
            continue
        seen.add(basis)
        for k, c in enumerate(objectives):
            res = fresh_warm_solve(template.with_objective(c), basis)
            table[k].add(_bits(res))
            if res.status == "optimal":
                todo.append(res.basis)
    errors = []

    def work(k):
        # each solve restarts from whatever pair another thread last kept; a
        # basis paired with another's inverse would move x off every entry
        try:
            for i in range(150):
                j = (k + i) % len(objectives)
                res = solve_lp(template.with_objective(objectives[j]), warm=True)
                assert _bits(res) in table[j], (j, res.basis)
        except Exception as err:           # reported by the main thread
            errors.append(err)

    for k in range(6):
        work(k)
    assert not errors, errors[0]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]


def test_objective_scale_keeps_status_and_value_in_few_passes(monkeypatch):
    # reduced costs scale with c, so a fixed absolute test lets rounding in
    # them pass for improving columns at 1e9 and beyond; a spin would hit
    # the (lowered) iteration cap
    monkeypatch.setattr(sandwichext.lp, "MAX_ITER", 500)
    rng = np.random.default_rng(SEED + 5)
    checked = 0
    for _ in range(40):
        spec = _random_program(rng)
        if solve_lp(LinearProgram(**spec)).status != "optimal":
            continue
        c = rng.normal(size=spec["c"].size)
        base = solve_lp(LinearProgram(**{**spec, "c": c}))
        for scale in (1e9, 1e12):
            template = LinearProgram(**spec)
            solve_lp(template)                  # keeps the first objective's pair
            lp = template.with_objective(c * scale)
            # warm first: the cold solve replaces the kept pair
            for res in (solve_lp(lp, warm=True), solve_lp(lp)):
                assert res.status == base.status
                if base.status == "optimal":
                    assert res.value == pytest.approx(base.value * scale, rel=1e-9,
                                                      abs=1e-9 * scale)
                    assert res.iterations <= 50
                    checked += 1
    assert checked >= 40


def _face_programs(rng):
    """Random programs whose optimal face is often more than a vertex: the
    objective is a row normal, a bound direction, or has repeated entries."""
    while True:
        spec = _random_program(rng)
        n = spec["c"].size
        kind = int(rng.integers(0, 3))
        if kind == 0 and spec["a_ub"] is not None:
            spec["c"] = -spec["a_ub"][0] + spec["a_eq"].T @ rng.normal(size=len(spec["b_eq"]))
        elif kind == 1:
            spec["c"] = np.eye(n)[int(rng.integers(0, n))] * rng.choice([-1.0, 1.0])
        else:
            spec["c"] = rng.integers(-1, 2, size=n).astype(float)
        spec["sense"] = str(rng.choice(["min", "max"]))
        yield spec


def test_always_tight_marks_hold_at_scipy_optimum_and_fix_the_value():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(SEED + 6)
    marked = faces = 0
    programs = _face_programs(rng)
    while faces < 60:
        spec = next(programs)
        res = solve_lp(LinearProgram(**spec))
        if res.status != "optimal":
            continue
        faces += 1
        a_ub = np.zeros((0, spec["c"].size)) if spec["a_ub"] is None else spec["a_ub"]
        b_ub = np.zeros(0) if spec["b_ub"] is None else spec["b_ub"]
        lo, hi = np.array(spec["bounds"]).T
        m_ub, n = b_ub.size, lo.size
        rows, at_lo, at_hi = np.split(res.tight, [m_ub, m_ub + n])
        assert not (at_lo & (lo == -math.inf)).any()
        assert not (at_hi & (hi == math.inf)).any()
        marked += int(res.tight.sum())
        sgn = 1.0 if spec["sense"] == "min" else -1.0
        sci_bounds = [(None if l == -math.inf else l, None if h == math.inf else h)
                      for l, h in zip(lo, hi)]
        ref = optimize.linprog(sgn * spec["c"], A_ub=a_ub if m_ub else None,
                               b_ub=b_ub if m_ub else None, A_eq=spec["a_eq"],
                               b_eq=spec["b_eq"], bounds=sci_bounds, method="highs")
        assert ref.status == 0
        x = ref.x
        np.testing.assert_allclose(a_ub[rows] @ x, b_ub[rows], atol=1e-7)
        np.testing.assert_allclose(x[at_lo], lo[at_lo], atol=1e-7)
        np.testing.assert_allclose(x[at_hi], hi[at_hi], atol=1e-7)
        # over the face the marks describe, the objective is constant
        face_bounds = [(l, l) if m else (h, h) if M else bnd
                       for bnd, l, h, m, M in zip(sci_bounds, lo, hi, at_lo, at_hi)]
        keep = ~rows
        for direction in (1.0, -1.0):
            ext = optimize.linprog(
                direction * spec["c"], A_ub=a_ub[keep] if keep.any() else None,
                b_ub=b_ub[keep] if keep.any() else None,
                A_eq=np.vstack([spec["a_eq"], a_ub[rows]]),
                b_eq=np.concatenate([spec["b_eq"], b_ub[rows]]),
                bounds=face_bounds, method="highs")
            assert ext.status == 0
            assert direction * ext.fun == pytest.approx(res.value, abs=1e-7)
    assert marked > 0
