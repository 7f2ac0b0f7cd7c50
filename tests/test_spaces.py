import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_block_means, loop_block_spread, loop_segments
from sandwichext import (
    FilteredSpace,
    LevelError,
    MeasurabilityError,
    SpaceError,
    at_level,
    cond_expectation,
    indicator,
    pointwise_max,
)

TOL = 1e-12
MEAS_TOL = 1e-12


def three_level():
    return FilteredSpace(
        probs=np.array([0.1, 0.2, 0.3, 0.4]),
        levels=[[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
        time_labels=[0.0, 0.5, 1.0],
    )


def test_construction_normalizes_blocks():
    # unsorted blocks and plain lists are canonicalized
    space = FilteredSpace(
        probs=[0.5, 0.25, 0.25],
        levels=[[[2, 1, 0]], [[1], [0], [2]]],
        time_labels=[0, 1],
    )
    assert space.n_atoms == 3
    assert space.blocks(0) == ((0, 1, 2),)
    assert space.blocks(1) == ((0,), (1,), (2,))
    assert space.last_level == 1
    assert space.block_of(0, 2) == 0
    assert space.block_prob(0, 0) == pytest.approx(1.0, abs=TOL)


def test_construction_rejects_bad_data():
    ok_levels = [[[0, 1]], [[0], [1]]]
    with pytest.raises(SpaceError):
        FilteredSpace([0.5, 0.4], ok_levels, [0, 1])
    with pytest.raises(SpaceError):
        FilteredSpace([1.0, 0.0], ok_levels, [0, 1])
    with pytest.raises(SpaceError):
        FilteredSpace([0.5, 0.5], [[[0], [1]], [[0, 1]]], [0, 1])
    with pytest.raises(SpaceError):
        FilteredSpace([0.5, 0.5], [[[0, 1]]], [0])  # last level not discrete
    with pytest.raises(SpaceError):
        FilteredSpace([0.5, 0.5], ok_levels, [1, 1])
    with pytest.raises(SpaceError):
        FilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [0, 1]]], [0, 1])
    with pytest.raises(SpaceError):
        FilteredSpace([0.5, 0.5], [[[0, 1]], [[0], []]], [0, 1])
    with pytest.raises(SpaceError):
        FilteredSpace([0.5, 0.5], ok_levels, [0, 1], p_norm=0.5)


def test_rv_levels_and_measurability():
    space = three_level()
    x = space.rv([1.0, 2.0, 3.0, 4.0])
    assert x.level == space.last_level
    y = space.rv([5.0, 5.0, -1.0, -1.0], level=1)
    assert y.level == 1
    with pytest.raises(MeasurabilityError):
        space.rv([5.0, 5.0 + 1e-6, -1.0, -1.0], level=1)
    with pytest.raises(MeasurabilityError):
        space.rv([1.0, 2.0, 3.0])  # wrong length
    with pytest.raises(MeasurabilityError):
        space.rv([1.0, np.inf, 0.0, 0.0])
    with pytest.raises(LevelError):
        space.rv(np.zeros(4), level=7)


def test_rv_values_are_frozen():
    space = three_level()
    x = space.rv([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        x.values[0] = 9.0


def test_cond_expectation_weighted_average():
    space = three_level()
    x = space.rv([1.0, 2.0, 3.0, 4.0])
    e1 = cond_expectation(space, x, 1)
    # block averages under (0.1, 0.2) and (0.3, 0.4)
    np.testing.assert_allclose(
        e1.values, [5.0 / 3.0, 5.0 / 3.0, 25.0 / 7.0, 25.0 / 7.0], atol=TOL)
    e0 = cond_expectation(space, x, 0)
    assert e0.values[0] == pytest.approx(3.0, abs=TOL)
    # tower property
    np.testing.assert_allclose(
        cond_expectation(space, e1, 0).values, e0.values, atol=TOL)
    with pytest.raises(LevelError):
        cond_expectation(space, e1, 2)


def test_at_level_retags_and_checks():
    space = three_level()
    x = space.rv([2.0, 2.0, 7.0, 7.0])
    y = at_level(space, x, 1)
    assert y.level == 1
    assert at_level(space, y, 1) is y
    with pytest.raises(MeasurabilityError):
        at_level(space, space.rv([1.0, 2.0, 3.0, 4.0]), 1)


def test_indicator_respects_blocks():
    space = three_level()
    z = indicator(space, [0, 1], 1)
    np.testing.assert_allclose(z.values, [1.0, 1.0, 0.0, 0.0], atol=0)
    assert z.level == 1
    with pytest.raises(MeasurabilityError):
        indicator(space, [0], 1)  # splits the first block
    with pytest.raises(MeasurabilityError):
        indicator(space, [9], 1)


def test_pointwise_max():
    space = three_level()
    a = space.rv([1.0, 5.0, 0.0, 2.0])
    b = space.rv([3.0, 1.0, 1.0, 1.0])
    m = pointwise_max([a, b])
    np.testing.assert_allclose(m.values, [3.0, 5.0, 1.0, 2.0], atol=0)
    with pytest.raises(LevelError):
        pointwise_max([a, cond_expectation(space, b, 1)])
    with pytest.raises(ValueError):
        pointwise_max([])


def test_norms():
    space = three_level()
    x = space.rv([-2.0, 1.0, 1.0, 1.0])
    assert space.norm(x) == pytest.approx(2.0, abs=TOL)
    sp2 = FilteredSpace(space.probs, space.levels, space.time_labels, p_norm=2.0)
    assert sp2.norm(sp2.rv(x.values)) == pytest.approx(
        math.sqrt(0.1 * 4.0 + 0.9), abs=TOL)


# --------------------------------------------------------------------------
# the level primitive against plain per-block loops


@st.composite
def partition_chains(draw):
    """A random space: levels group atoms by growing prefixes of random labels."""
    n = draw(st.integers(1, 12))
    n_coarse = draw(st.integers(1, 3))
    labels = [draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
              for _ in range(n_coarse)]
    levels = []
    for k in range(1, n_coarse + 1):
        groups = {}
        for w in range(n):
            groups.setdefault(tuple(lab[w] for lab in labels[:k]), []).append(w)
        if not levels or len(groups) > len(levels[-1]):
            levels.append(list(groups.values()))
    if not levels or len(levels[-1]) < n:
        levels.append([[w] for w in range(n)])
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    space = FilteredSpace(raw / raw.sum(), levels, list(range(len(levels))))
    values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return space, values


@settings(max_examples=80, deadline=None)
@given(partition_chains())
def test_block_means_and_spread_match_loops(case):
    space, values = case
    batch = np.stack([values, values**2, -values])
    for k in range(space.n_levels):
        blocks = space._layout[k]
        want = loop_block_means(space.probs, space.blocks(k), values)
        np.testing.assert_allclose(blocks.means(values), want,
                                   rtol=1e-12, atol=1e-12 * np.abs(values).max())
        np.testing.assert_allclose(
            blocks.means(batch),
            [loop_block_means(space.probs, space.blocks(k), v) for v in batch],
            rtol=1e-12, atol=1e-12 * np.abs(batch).max())
        np.testing.assert_array_equal(
            blocks.spread(values), loop_block_spread(space.blocks(k), values))
        np.testing.assert_allclose(
            blocks.probs, loop_block_means(space.probs, space.blocks(k),
                                           np.ones(space.n_atoms))
            * [sum(space.probs[w] for w in b) for b in space.blocks(k)],
            rtol=1e-12)
        by_block = np.arange(len(space.blocks(k)), dtype=float)
        for b, block in enumerate(space.blocks(k)):
            assert all(blocks.broadcast(by_block)[w] == b for w in block)


@settings(max_examples=80, deadline=None)
@given(partition_chains())
def test_segment_maps_match_loops(case):
    space, _ = case
    for a in range(space.n_levels):
        for b in range(a, space.n_levels):
            segments = space._segments(b, a)
            want = loop_segments(space.probs, space.blocks(b), space.blocks(a))
            assert len(segments) == len(want)
            for sg, (atoms, segs) in zip(segments, want):
                assert sg.atoms.tolist() == atoms
                assert sg.ids.tolist() == [seg[0] for seg in segs]
                assert sg.reps.tolist() == [seg[1] for seg in segs]
                np.testing.assert_allclose(sg.rows.probs, [seg[2] for seg in segs],
                                           rtol=1e-12)
                assert sg.prob == pytest.approx(sum(space.probs[w] for w in atoms),
                                                rel=1e-12)
                for s, seg in enumerate(segs):
                    assert sorted(np.flatnonzero(sg.rows.index == s)) == seg[3]
                    assert sg.rows.firsts[s] == seg[3][0]


@settings(max_examples=80, deadline=None)
@given(partition_chains(), st.data())
def test_infinite_entry_stays_in_its_block(case, data):
    space, values = case
    hot = data.draw(st.integers(0, space.n_atoms - 1))
    values = values.copy()
    values[hot] = math.inf
    for k in range(space.n_levels):
        means = space._layout[k].means(values)
        want = loop_block_means(space.probs, space.blocks(k), values)
        hot_block = space.block_of(k, hot)
        assert means[hot_block] == math.inf
        rest = np.arange(means.size) != hot_block
        rest_atoms = space._layout[k].index != hot_block
        assert np.all(np.isfinite(means[rest]))
        scale = np.abs(values[rest_atoms]).max(initial=1.0)
        np.testing.assert_allclose(means[rest], want[rest], rtol=1e-12,
                                   atol=1e-12 * scale)


@settings(max_examples=80, deadline=None)
@given(partition_chains(), st.data())
def test_rv_rejects_spread_not_distance_from_first_atom(case, data):
    space, _ = case
    wide = [(k, block) for k in range(space.n_levels)
            for block in space.blocks(k) if len(block) >= 3]
    if not wide:
        return
    k, block = data.draw(st.sampled_from(wide))
    # every atom is within MEAS_TOL of the block's first atom, but the
    # block's max - min is 1.5 MEAS_TOL
    values = np.zeros(space.n_atoms)
    values[block[1]] = 0.75 * MEAS_TOL
    values[block[2]] = -0.75 * MEAS_TOL
    assert np.all(np.abs(values[list(block)] - values[block[0]]) <= MEAS_TOL)
    with pytest.raises(MeasurabilityError):
        space.rv(values, k)
    values[block[2]] = 0.0
    assert space.rv(values, k).level == k
