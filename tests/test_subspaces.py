import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandwichext import (
    BoundPair,
    FilteredSpace,
    LevelError,
    Piece,
    PolyhedralOperator,
    RandomVariable,
    full_space,
    indicator,
    maximal_extension,
    span_closure,
)

TOL = 1e-9
SEED = 20240815


def binom():
    return FilteredSpace(
        probs=np.full(4, 0.25),
        levels=[[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
        time_labels=[0.0, 1.0, 2.0],
    )


def test_full_space_dimensions():
    space = binom()
    sub = full_space(space, 2, 1)
    assert sub.dim == 4
    assert sub.block_dim(0) == 2 and sub.block_dim(1) == 2
    sub0 = full_space(space, 1, 0)
    assert sub0.dim == 2  # level-1 measurables on the trivial block


def test_span_closure_includes_constants_and_splits_generators():
    space = binom()
    g = space.rv([1.0, -1.0, 0.0, 0.0])
    sub = span_closure(space, 2, 1, [g])
    # block {0,1}: constants + spread = dim 2; block {2,3}: constants only
    assert sub.block_dim(0) == 2
    assert sub.block_dim(1) == 1
    assert sub.dim == 3
    assert sub.contains(space.rv([3.0, 1.0, 2.0, 2.0]))
    assert not sub.contains(space.rv([0.0, 0.0, 1.0, 0.0]))
    # indicator-stable: each level-1 block restriction stays inside
    cut = g.values * indicator(space, [0, 1], 1).values
    assert sub.contains(space.rv(cut))


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_nearly_constant_generators_keep_the_basis_orthonormal(eps):
    # a generator's part orthogonal to the block constant is eps of it;
    # one projection leaves that part up to 3e-7 off orthogonal to the
    # constant at eps = 1e-9, and the second restores rounding level
    rng = np.random.default_rng(SEED)
    space = FilteredSpace(rng.dirichlet(np.ones(9)),
                          [[list(range(9))], [[0, 1, 2], [3, 4, 5], [6, 7, 8]],
                           [[i] for i in range(9)]], [0, 1, 2])
    sub = span_closure(space, 2, 1, [space.rv(1.0 + eps * rng.normal(size=9))])
    mat = np.column_stack([v.values for v in sub.basis])
    assert sub.dim == 6
    np.testing.assert_allclose(mat.T @ (space.probs[:, None] * mat), np.eye(6),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_large_generators_constant_on_blocks_add_no_direction(seed):
    # projecting 1e9 x (a level-1 payoff) off each block constant leaves
    # rounding noise near 1e-7, far above RANK_TOL; measured against the
    # generator's own size it is no direction, while a part 1e-3 of it
    # off the constant is one
    rng = np.random.default_rng(seed)
    space = FilteredSpace(rng.dirichlet(np.ones(9)),
                          [[list(range(9))], [[0, 1, 2], [3, 4, 5], [6, 7, 8]],
                           [[i] for i in range(9)]], [0, 1, 2])
    level_a = np.repeat(rng.normal(size=3), 3)
    sub = span_closure(space, 2, 1, [space.rv(1e9 * level_a)])
    assert sub.dim == 3
    assert not sub.contains(space.rv(rng.normal(size=9)))
    v = rng.normal(size=9)
    sub = span_closure(space, 2, 1, [space.rv(1e9 * level_a * (1.0 + 1e-3 * v))])
    assert sub.dim == 6
    assert sub.contains(space.rv(level_a * v))


def test_contains_rejects_finer_levels():
    space = binom()
    sub = full_space(space, 1, 0)
    assert sub.contains(space.rv([2.0, 2.0, -1.0, -1.0], level=1))
    assert not sub.contains(space.rv([1.0, 2.0, 3.0, 4.0]))  # level 2 payoff


def test_coefficients_round_trip():
    rng = np.random.default_rng(SEED)
    space = binom()
    sub = span_closure(space, 2, 1, [space.rv([1.0, -1.0, 0.0, 0.0])])
    mat = np.column_stack([b.values for b in sub.basis])
    for _ in range(10):
        coef = rng.normal(size=sub.dim)
        x = space.rv(mat @ coef)
        back = sub.coefficients(x)
        np.testing.assert_allclose(mat @ back, x.values, atol=TOL)


def test_generator_level_guard():
    space = binom()
    with pytest.raises(LevelError):
        span_closure(space, 1, 0, [space.rv([1.0, 2.0, 3.0, 4.0])])
    with pytest.raises(LevelError):
        span_closure(space, 0, 1, [])


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
def test_membership_does_not_depend_on_payoff_scale(scale):
    space = binom()
    g = space.rv([1.0, -1.0, 0.0, 0.0])
    sub = span_closure(space, 2, 0, [g])
    member = space.rv(scale * g.values)
    assert sub.contains(member)
    op = PolyhedralOperator(sub, (
        Piece(space.rv(np.ones(4)), space.rv(np.zeros(4), level=0)),
        Piece(space.rv([1.5, 0.5, 1.0, 1.0]), space.rv(np.zeros(4), level=0)),
    ))
    # max(E[X], E[f X]) = max(0, scale / 4)
    np.testing.assert_allclose(op.evaluate(member).values, scale / 4.0, rtol=1e-12)
    if scale >= 1.0:
        assert not sub.contains(space.rv(scale * np.array([0.0, 0.0, 1.0, 0.0])))


@st.composite
def skewed_trees(draw):
    """A b-ary tree whose atom masses span nine decades, so sibling masses
    differ by ratios down to 1e-9, with a pair of levels and a seed."""
    b, T = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    n = b ** T
    decades = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    raw = 10.0 ** -np.array(decades, dtype=float)
    levels = [[list(range(k * b ** (T - t), (k + 1) * b ** (T - t)))
               for k in range(b ** t)] for t in range(T + 1)]
    space = FilteredSpace(raw / raw.sum(), levels, list(range(T + 1)))
    level_a = draw(st.integers(0, T - 1))
    level_b = draw(st.integers(level_a + 1, T))
    return space, level_b, level_a, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(skewed_trees(), st.integers(0, 3))
def test_span_closure_is_exact_on_skewed_masses(case, n_gens):
    space, lb, la, seed = case
    rng = np.random.default_rng(seed)
    fine = space._layout[lb]
    gens = [RandomVariable(fine.broadcast(rng.normal(size=fine.probs.size)), lb)
            for _ in range(n_gens)]
    if n_gens >= 2:     # a dependent generator adds no dimension
        gens.append(RandomVariable(gens[0].values - 2.0 * gens[1].values, lb))
    sub = span_closure(space, lb, la, gens)
    mat = np.column_stack([v.values for v in sub.basis])
    # measurable by construction: no spread at all on level_b blocks
    assert not fine.spread(mat.T).any()
    np.testing.assert_allclose(mat.T @ (space.probs[:, None] * mat), np.eye(sub.dim),
                               rtol=0, atol=1e-12)
    # each block basis leads with the normalized block constant
    for block, local in zip(space.blocks(la), sub.block_bases):
        np.testing.assert_allclose(local[:, 0], 1.0 / np.sqrt(space.probs[list(block)].sum()),
                                   rtol=1e-14, atol=0)
    assert sub.contains(RandomVariable(np.ones(space.n_atoms), lb))
    for g in gens:
        assert sub.contains(g)
        for a in range(space._layout[la].probs.size):
            cut = g.values * (space._layout[la].index == a)
            assert sub.contains(RandomVariable(cut, lb))
    # the maximal extension restricted to the domain is the base operator
    op = tilted_operator(space, lb, la, sub, rng)
    n = space.n_atoms
    ext = maximal_extension(op, BoundPair.linear(
        space, lb, la, RandomVariable(np.full(n, 0.25), lb),
        RandomVariable(np.full(n, 2.0), lb)))
    for _ in range(3):
        X = RandomVariable(mat @ rng.normal(size=sub.dim), lb)
        tol = 1e-7 * max(1.0, float(np.abs(X.values).max()))
        np.testing.assert_allclose(ext.evaluate(X).values, op.evaluate(X).values,
                                   rtol=0, atol=tol)


def tilted_operator(space, lb, la, domain, rng, n_pieces=3):
    """Pieces with densities 1 + u / 2 for level_b payoffs u of zero block
    mean and sup norm at most one, so every density lies in [0.5, 1.5]
    whatever the masses; penalties have a zero floor on every block."""
    fine, coarse = space._layout[lb], space._layout[la]
    pens = rng.uniform(0.0, 0.5, size=(n_pieces, coarse.probs.size))
    pens -= pens.min(axis=0)
    pieces = []
    for pen in pens:
        h = fine.broadcast(rng.normal(size=fine.probs.size))
        u = h - coarse.broadcast(coarse.means(h))
        u /= max(1.0, float(np.abs(u).max()))
        pieces.append(Piece(RandomVariable(1.0 + u / 2.0, lb),
                            RandomVariable(coarse.broadcast(pen), la)))
    return PolyhedralOperator(domain, tuple(pieces))
