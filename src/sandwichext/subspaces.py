"""Subspaces of payoffs that are stable under coarse-level indicators.

The spans handled here contain the constants and are closed under
multiplication by indicators of the blocks of a chosen coarse level. Any such
span decomposes as a direct sum of its restrictions to those blocks, so we
store one probability-weighted orthonormal basis per block and assemble the
global basis from the pieces. Blocks are disjoint, so coordinates and
projections for every block at once are products with the zero-extended
global basis matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import FilteredSpace, LevelError, RandomVariable

RANK_TOL = 1e-10
MEMBER_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Subspace:
    """A span of payoffs at ``level_b`` closed under ``level_a`` indicators.

    ``block_bases[a]`` holds, for block ``a`` of the coarse level, a matrix of
    shape (block size, local dimension) whose columns are orthonormal for the
    local inner product sum_w p_w u_w v_w, column 0 the block constant
    1 / sqrt(P(a)). The global basis is the union of the zero-extended
    columns. Each column must be exactly constant on the level_b blocks.
    :func:`span_closure` builds both and nothing re-checks them.
    """

    space: FilteredSpace
    level_b: int
    level_a: int
    block_bases: tuple[np.ndarray, ...]
    _basis_rvs: tuple[RandomVariable, ...] = field(init=False, repr=False)
    _matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # the level_a layout's order lists the atoms block by block, in the
        # row order of each block's local basis
        order = self.space._layout[self.level_a].order
        matrix = np.zeros((self.space.n_atoms, self.dim))
        row = col = 0
        for mat in self.block_bases:
            matrix[order[row:row + mat.shape[0]], col:col + mat.shape[1]] = mat
            row += mat.shape[0]
            col += mat.shape[1]
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_basis_rvs", tuple(
            RandomVariable(v, self.level_b) for v in matrix.T))

    @property
    def dim(self) -> int:
        return sum(mat.shape[1] for mat in self.block_bases)

    @property
    def basis(self) -> tuple[RandomVariable, ...]:
        return self._basis_rvs

    def block_dim(self, a: int) -> int:
        return self.block_bases[a].shape[1]

    def contains(self, X: RandomVariable, tol: float = MEMBER_TOL) -> bool:
        """Membership test: weighted residual norm below ``tol`` relative to X.

        The bound is ``tol`` times the weighted L2 norm of X, floored at 1,
        so scaling a payoff does not change the verdict.
        """
        if X.level > self.level_b:
            return False
        probs = self.space.probs
        resid = X.values - self._matrix @ self.coefficients(X)
        scale = max(1.0, float(np.sqrt(probs @ X.values**2)))
        return float(np.sqrt(probs @ resid**2)) < tol * scale

    def coefficients(self, X: RandomVariable) -> np.ndarray:
        """Coordinates of X in the global basis (no membership check)."""
        return self._matrix.T @ (self.space.probs * X.values)


def span_closure(space: FilteredSpace, level_b: int, level_a: int,
                 generators: list[RandomVariable]) -> Subspace:
    """Smallest indicator-stable span containing the constants and generators.

    Closure under multiplication by level_a block indicators splits every
    generator into per-block pieces, so the result is the blockwise span of
    the restricted generators together with the block constants. With no
    generators this yields exactly the level_a measurable payoffs.

    Each block is reduced on one row per level_b segment, weighted by the
    segment's mass, and the reduced rows are broadcast to the segment's
    atoms. The basis is therefore exactly level_b measurable whatever the
    atom masses; generators are read at each segment's representative atom.
    Each block basis leads with the normalized constant; the generators not
    zero on the block, projected off it, are reduced by an SVD, cut at
    RANK_TOL times their norm before the projection (floored at 1).
    """
    lb = space.check_level(level_b)
    la = space.check_level(level_a)
    if la > lb:
        raise LevelError(f"level_a {la} must be at least as coarse as level_b {lb}")
    for g in generators:
        if g.level > lb:
            raise LevelError("generator finer than level_b")

    gens = np.array([g.values for g in generators]).reshape(-1, space.n_atoms)
    bases = []
    for sg in space._segments(lb, la):
        # in sqrt(p)-scaled rows the constant is the unit vector e; dropping
        # zero generators gives equal blocks equal bits, and projecting twice
        # keeps nearly constant ones orthogonal ("twice is enough")
        sq = np.sqrt(sg.rows.probs)
        e = sq / np.sqrt(sg.prob)
        gen = gens[:, sg.reps].T
        gen = sq[:, None] * gen[:, gen.any(axis=0)]
        # the rank cut scales with the generators, not with what projecting
        # them leaves: rounding noise off a large block constant is no column
        size = float(np.linalg.norm(gen))
        for _ in range(2):
            gen = gen - np.outer(e, e @ gen)
        u, s, _ = np.linalg.svd(gen, full_matrices=False)
        rank = int(np.sum(s > RANK_TOL * max(1.0, size)))
        local = np.column_stack([np.full(sq.size, 1.0 / np.sqrt(sg.prob)),
                                 u[:, :rank] / sq[:, None]])
        bases.append(local[sg.rows.index])
    return Subspace(space, lb, la, tuple(bases))


def full_space(space: FilteredSpace, level_b: int, level_a: int) -> Subspace:
    """The whole of the level_b measurable payoffs as a Subspace."""
    # block indicators of level_b span exactly that space
    lb = space.check_level(level_b)
    blocks = space._layout[lb]
    gens = [RandomVariable(v, lb)
            for v in blocks.broadcast(np.eye(blocks.probs.size))]
    return span_closure(space, lb, level_a, gens)
