"""Finite filtered probability spaces and random variables on them.

A space is a finite set of atoms with strictly positive probabilities and a
chain of partitions that refine from left to right, the last one being the
discrete partition. Random variables are vectors over the finest atoms tagged
with the coarsest partition level at which they are measurable. Conditional
expectation onto a coarser level is the probability-weighted block average.

Every per-block computation in the package goes through one private
primitive, :class:`_Blocks`: a partition laid out so that block sums, block
means, within-block spreads and broadcasts back onto atoms are single numpy
reductions over a payoff or a stacked batch of payoffs. A space holds one per
level and, per pair of levels, a cached segment map: the fine blocks
(segments) inside each coarse block, as a ``_Blocks`` over that block's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_TOL = 1e-12
MEAS_TOL = 1e-12


class SpaceError(ValueError):
    """Invalid space data: bad probabilities, partitions or time labels."""


class LevelError(ValueError):
    """A partition level index outside the space's chain, or ordered wrongly."""


class MeasurabilityError(ValueError):
    """Values are not constant on the blocks of the declared level."""


def _finite(values: np.ndarray) -> None:
    """Raise ``MeasurabilityError`` unless every value is finite."""
    if np.count_nonzero(np.isfinite(values)) != values.size:   # faster than .all()
        raise MeasurabilityError("values must be finite")


def _canonical_partition(blocks, n_atoms: int) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    canon = []
    for block in blocks:
        b = tuple(sorted(int(w) for w in block))
        if not b:
            raise SpaceError("empty block in partition")
        if any(w < 0 or w >= n_atoms for w in b):
            raise SpaceError(f"atom index out of range in block {b}")
        if seen.intersection(b):
            raise SpaceError(f"overlapping blocks at atoms {sorted(seen.intersection(b))}")
        seen.update(b)
        canon.append(b)
    if len(seen) != n_atoms:
        raise SpaceError("partition does not cover all atoms")
    canon.sort(key=lambda b: b[0])
    return tuple(canon)


@dataclass(frozen=True, eq=False)
class _Blocks:
    """A partition of positions 0..n-1 laid out for per-block reductions.

    ``order`` lists the positions block by block, ascending inside a block,
    and ``starts`` holds each block's offset in ``order``. Reductions run
    segment-wise (``reduceat``), never through an indicator-matrix product,
    so a +inf entry stays confined to its own block. ``values`` may be one
    vector over the positions or a stacked batch with positions last.
    """

    index: np.ndarray      # block of each position
    order: np.ndarray
    starts: np.ndarray
    firsts: np.ndarray     # lowest position of every block, its representative
    weights: np.ndarray    # probability of each position
    probs: np.ndarray      # probability of each block

    @classmethod
    def build(cls, index: np.ndarray, weights: np.ndarray) -> "_Blocks":
        order = np.argsort(index, kind="stable")
        starts = np.searchsorted(index[order], np.arange(index.max() + 1))
        arrays = (index, order, starts, order[starts], weights,
                  np.add.reduceat(weights[order], starts))
        for arr in arrays:
            arr.setflags(write=False)
        return cls(*arrays)

    def sums(self, values) -> np.ndarray:
        return np.add.reduceat(values[..., self.order], self.starts, axis=-1)

    def means(self, values) -> np.ndarray:
        """Probability-weighted block averages."""
        return self.sums(self.weights * values) / self.probs

    def spread(self, values) -> np.ndarray:
        """Max minus min of the values on every block."""
        grouped = values[..., self.order]
        return (np.maximum.reduceat(grouped, self.starts, axis=-1)
                - np.minimum.reduceat(grouped, self.starts, axis=-1))

    def broadcast(self, by_block) -> np.ndarray:
        """Per-block values written back onto every position of the block."""
        return by_block[..., self.index]


@dataclass(frozen=True, eq=False)
class _Segments:
    """The blocks of a fine level (segments) inside one coarse block.

    ``rows`` partitions the coarse block's atoms (listed ascending in
    ``atoms``) into its segments, so ``rows.firsts`` are the rows of the
    segments' representative atoms and ``rows.probs`` their probabilities.
    """

    atoms: np.ndarray
    ids: np.ndarray        # fine-level block number of each segment
    reps: np.ndarray       # representative (lowest) atom of each segment
    rows: _Blocks
    prob: float            # probability of the coarse block


@dataclass(frozen=True, eq=False)
class FilteredSpace:
    """Atoms, probabilities, a refining chain of partitions and time labels.

    ``p_norm`` is metadata only; it selects which L_p norm :meth:`norm`
    reports and plays no role in any computation.
    """

    probs: np.ndarray
    levels: tuple[tuple[tuple[int, ...], ...], ...]
    time_labels: tuple[float, ...]
    p_norm: float = math.inf
    _layout: tuple[_Blocks, ...] = field(init=False, repr=False)
    _segment_maps: dict = field(init=False, repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).copy()
        if probs.ndim != 1 or probs.size == 0:
            raise SpaceError("probs must be a nonempty vector")
        if np.any(probs <= 0.0):
            raise SpaceError("zero or negative probability atoms are rejected")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise SpaceError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

        n = probs.size
        if not self.levels:
            raise SpaceError("at least one partition level is required")
        canon = tuple(_canonical_partition(lv, n) for lv in self.levels)
        layout = []
        for lv in canon:
            idx = np.empty(n, dtype=int)
            for b, block in enumerate(lv):
                idx[list(block)] = b
            layout.append(_Blocks.build(idx, probs))
        for k in range(len(canon) - 1):
            # every fine block must sit inside one coarse block
            if np.any(layout[k + 1].spread(layout[k].index) != 0):
                raise SpaceError(f"level {k + 1} does not refine level {k}")
        if canon[-1] != tuple((w,) for w in range(n)):
            raise SpaceError("last level must be the discrete partition")
        object.__setattr__(self, "levels", canon)

        labels = tuple(float(t) for t in self.time_labels)
        if len(labels) != len(canon):
            raise SpaceError("one time label per level is required")
        if any(labels[i + 1] <= labels[i] for i in range(len(labels) - 1)):
            raise SpaceError("time labels must be strictly increasing")
        object.__setattr__(self, "time_labels", labels)

        if not (1.0 <= self.p_norm or self.p_norm == math.inf):
            raise SpaceError("p_norm must lie in [1, inf]")
        object.__setattr__(self, "_layout", tuple(layout))
        object.__setattr__(self, "_segment_maps", {})

    @property
    def n_atoms(self) -> int:
        return self.probs.size

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def last_level(self) -> int:
        return len(self.levels) - 1

    def check_level(self, level: int) -> int:
        if not isinstance(level, (int, np.integer)) or not 0 <= level < self.n_levels:
            raise LevelError(f"level {level!r} not in [0, {self.n_levels})")
        return int(level)

    def blocks(self, level: int) -> tuple[tuple[int, ...], ...]:
        return self.levels[self.check_level(level)]

    def block_of(self, level: int, atom: int) -> int:
        return int(self._layout[self.check_level(level)].index[atom])

    def _segments(self, level_b: int, level_a: int) -> tuple[_Segments, ...]:
        """Segment map of the level_b blocks inside each level_a block, cached."""
        key = (level_b, level_a)
        if key not in self._segment_maps:
            fine, coarse = self._layout[level_b], self._layout[level_a]
            segs = []
            for atoms, prob in zip(np.split(coarse.order, coarse.starts[1:]),
                                   coarse.probs):
                ids, local = np.unique(fine.index[atoms], return_inverse=True)
                segs.append(_Segments(atoms, ids, fine.firsts[ids], _Blocks.build(
                    local, self.probs[atoms]), float(prob)))
            self._segment_maps[key] = tuple(segs)
        return self._segment_maps[key]

    def rv(self, values, level: int | None = None) -> "RandomVariable":
        """Build a random variable, checking measurability at ``level``.

        ``level`` defaults to the finest level.
        """
        vals = np.asarray(values, dtype=float)
        if vals.shape != (self.n_atoms,):
            raise MeasurabilityError(
                f"values shape {vals.shape} does not match {self.n_atoms} atoms")
        _finite(vals)
        lv = self.last_level if level is None else self.check_level(level)
        spread = self._layout[lv].spread(vals)
        bad = np.flatnonzero(spread > MEAS_TOL)
        if bad.size:
            raise MeasurabilityError(
                f"values vary by {spread[bad[0]]:.3e} on block "
                f"{self.levels[lv][bad[0]]} of level {lv}")
        out = vals.copy()
        out.setflags(write=False)
        return RandomVariable(out, lv)

    def norm(self, X: "RandomVariable") -> float:
        """L_p norm of X for the space's metadata exponent."""
        if self.p_norm == math.inf:
            return float(np.abs(X.values).max())
        return float((self.probs @ np.abs(X.values) ** self.p_norm) ** (1.0 / self.p_norm))


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A vector over the finest atoms plus the level it is measurable at."""

    values: np.ndarray
    level: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not vals.flags.writeable:
            object.__setattr__(self, "values", vals)
        else:
            vals = vals.copy()
            vals.setflags(write=False)
            object.__setattr__(self, "values", vals)


def at_level(space: FilteredSpace, X: RandomVariable, level: int) -> RandomVariable:
    """Re-tag X at another level; coarsening re-checks measurability."""
    lv = space.check_level(level)
    if lv == X.level:
        return X
    return space.rv(X.values, lv)


def cond_expectation(space: FilteredSpace, X: RandomVariable, level: int) -> RandomVariable:
    """E[X | level]: probability-weighted average over each block.

    ``level`` must be at least as coarse as the level X is declared at.
    """
    lv = space.check_level(level)
    if lv > X.level:
        raise LevelError(
            f"cannot condition to level {lv} finer than declared level {X.level}")
    blocks = space._layout[lv]
    return RandomVariable(blocks.broadcast(blocks.means(X.values)), lv)


def indicator(space: FilteredSpace, atoms, level: int) -> RandomVariable:
    """Indicator of a set of atoms, which must be a union of blocks of ``level``."""
    lv = space.check_level(level)
    target = set(int(w) for w in atoms)
    if any(w < 0 or w >= space.n_atoms for w in target):
        raise MeasurabilityError("atom index out of range")
    vals = np.zeros(space.n_atoms)
    vals[sorted(target)] = 1.0
    split = np.flatnonzero(space._layout[lv].spread(vals))
    if split.size:
        raise MeasurabilityError(
            f"set {sorted(target)} splits block {space.levels[lv][split[0]]} "
            f"of level {lv}")
    return RandomVariable(vals, lv)


def pointwise_max(xs: list[RandomVariable]) -> RandomVariable:
    """Atomwise maximum of random variables declared at one common level."""
    if not xs:
        raise ValueError("pointwise_max of an empty list")
    level = xs[0].level
    if any(x.level != level for x in xs):
        raise LevelError("pointwise_max requires a common level")
    vals = np.max(np.stack([x.values for x in xs]), axis=0)
    vals.setflags(write=False)
    return RandomVariable(vals, level)
