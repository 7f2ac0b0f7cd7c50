import numpy as np
import pytest

from sandwichext import (
    FilteredSpace,
    LevelError,
    Piece,
    PolyhedralOperator,
    full_space,
    indicator,
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


def test_project_block_is_conditional_projection():
    rng = np.random.default_rng(SEED + 1)
    space = binom()
    sub = span_closure(space, 2, 1, [space.rv([1.0, -1.0, 0.0, 0.0])])
    x = rng.normal(size=4)
    proj = sub.project_block(1, x[[2, 3]])
    # block {2,3} holds constants only, so the projection is the block mean
    np.testing.assert_allclose(proj, np.full(2, x[2:].mean()), atol=TOL)


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
