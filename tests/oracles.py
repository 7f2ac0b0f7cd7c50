"""Independent test-side routes to values the library computes.

Nothing here calls the library's simplex or extension code: conjugates go
through scipy's LP solver, extension values through exact vertex enumeration
of the joint density-matching polytope, and the two shipped multi-period
fixtures through hand-derived closed forms. Tests compare these against the
library implementations.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import optimize

FEAS_TOL = 1e-9


def scipy_conjugate(op, f_values) -> np.ndarray:
    """Minimal penalty of a density, one value per coarse block.

    Per block: maximize <f, B beta>_a - u over (beta, u) subject to
    u >= <f_j, B beta>_a - c_j for every piece; unbounded means the density
    is not representable on the block and the conjugate is +inf.
    """
    space = op.space
    f_values = np.asarray(f_values, dtype=float)
    out = []
    for a, block in enumerate(space.blocks(op.level_a)):
        ix = list(block)
        p = space.probs[ix]
        pa = float(p.sum())
        bmat = op.domain.block_bases[a]
        d = bmat.shape[1]
        w = bmat.T @ (p * f_values[ix]) / pa
        rows = []
        rhs = []
        for pc in op.pieces:
            wj = bmat.T @ (p * pc.density.values[ix]) / pa
            rows.append(np.append(wj, -1.0))
            rhs.append(float(pc.penalty.values[ix[0]]))
        res = optimize.linprog(
            c=np.append(-w, 1.0), A_ub=np.array(rows), b_ub=np.array(rhs),
            bounds=[(None, None)] * (d + 1), method="highs")
        if res.status == 3:
            out.append(math.inf)
        elif res.status == 0:
            out.append(max(0.0, -float(res.fun)))
        else:
            raise RuntimeError(f"conjugate oracle LP status {res.status}")
    return np.array(out)


def scipy_box_budget_feasible(probs, lower, upper) -> bool:
    """Whether some f with lo <= f <= hi has E[f] = 1 on one block.

    scipy's LP over the atoms, with the budget row in conditional weights
    (probs / their sum), so that its feasibility tolerance is relative to the
    block's mass.
    """
    p = np.asarray(probs, dtype=float)
    res = optimize.linprog(np.zeros(p.size), A_eq=[p / p.sum()], b_eq=[1.0],
                           bounds=list(zip(lower, upper)), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"box-budget oracle LP status {res.status}")
    return res.status == 0


def box_budget_vertices(lower, upper, probs) -> np.ndarray:
    """All vertices of {lo <= f <= hi, E[f] = 1} on one block.

    Every vertex has at most one coordinate strictly between its bounds, so
    enumerating the fractional position and the bound pattern of the rest is
    exhaustive.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    p = np.asarray(probs, dtype=float)
    total = float(p.sum())
    n = lo.size
    verts = []
    for frac in range(n):
        others = [i for i in range(n) if i != frac]
        for pattern in itertools.product((0, 1), repeat=n - 1):
            f = np.empty(n)
            for i, side in zip(others, pattern):
                f[i] = hi[i] if side else lo[i]
            rest = total - float(p[others] @ f[others])
            f[frac] = rest / p[frac]
            if lo[frac] - FEAS_TOL <= f[frac] <= hi[frac] + FEAS_TOL:
                verts.append(np.clip(f, lo, hi))
    if not verts:
        raise ValueError("empty box-budget polytope")
    return np.unique(np.round(np.array(verts), 12), axis=0)


def support_by_vertices(weights, probs, lower, upper) -> float:
    """Support value E[f W]/E[1] maximized over box-budget vertices."""
    verts = box_budget_vertices(lower, upper, probs)
    p = np.asarray(probs, dtype=float)
    w = np.asarray(weights, dtype=float)
    return float((verts @ (p * w)).max() / p.sum())


def vertex_dual_max(op, bounds, X) -> np.ndarray:
    """Extension value by exhaustive vertex enumeration of the dual program.

    Per coarse block the dual maximizes E[f X] - c.theta over
    {lo <= f <= hi, E[f] = 1, theta in the simplex, f matches F theta on the
    domain}. Vertices are enumerated by activating bound constraints until
    the equality system is square; the best feasible solution is exact.
    Linear bound pairs only.
    """
    space = op.space
    if bounds.kind != "linear":
        raise ValueError("vertex oracle only handles linear bounds")
    lo_all = bounds.m_kernels[0].values
    hi_all = bounds.M_kernels[0].values
    x_vals = np.asarray(X.values if hasattr(X, "values") else X, dtype=float)
    out = np.empty(space.n_atoms)
    for a, block in enumerate(space.blocks(op.level_a)):
        ix = list(block)
        p = space.probs[ix]
        pa = float(p.sum())
        lo = lo_all[ix]
        hi = hi_all[ix]
        bmat = op.domain.block_bases[a]
        n = len(ix)
        k = len(op.pieces)
        d = bmat.shape[1]
        fmat = np.column_stack([pc.density.values[ix] for pc in op.pieces])
        pens = np.array([pc.penalty.values[ix[0]] for pc in op.pieces])
        # equality rows over z = (f, theta)
        a_eq = np.zeros((d + 2, n + k))
        b_eq = np.zeros(d + 2)
        a_eq[0, :n] = p / pa
        b_eq[0] = 1.0
        a_eq[1, n:] = 1.0
        b_eq[1] = 1.0
        a_eq[2:, :n] = bmat.T * p
        a_eq[2:, n:] = -(bmat.T * p) @ fmat
        # the constant-direction matching row is implied by the budget and
        # simplex rows; keep an independent subset so stacked systems can be
        # square and nonsingular
        keep: list[int] = []
        for r in range(d + 2):
            cand = a_eq[keep + [r]]
            if np.linalg.matrix_rank(cand, tol=1e-10) == len(keep) + 1:
                keep.append(r)
        a_eq = a_eq[keep]
        b_eq = b_eq[keep]
        obj = np.concatenate([p * x_vals[ix] / pa, -pens])
        n_active = n + k - len(keep)
        best = -math.inf
        for active in itertools.combinations(range(n + k), max(n_active, 0)):
            f_active = [i for i in active if i < n]
            for sides in itertools.product((0, 1), repeat=len(f_active)):
                rows = np.zeros((len(active), n + k))
                vals = np.zeros(len(active))
                si = iter(sides)
                for r, i in enumerate(active):
                    rows[r, i] = 1.0
                    if i < n:
                        vals[r] = hi[i] if next(si) else lo[i]
                mat = np.vstack([a_eq, rows])
                rhs = np.concatenate([b_eq, vals])
                try:
                    z = np.linalg.solve(mat, rhs)
                except np.linalg.LinAlgError:
                    continue
                f, th = z[:n], z[n:]
                if (np.any(f < lo - FEAS_TOL) or np.any(f > hi + FEAS_TOL)
                        or np.any(th < -FEAS_TOL)):
                    continue
                best = max(best, float(obj @ z))
        if math.isinf(best):
            raise ValueError(f"no dual vertex found on block {a}")
        out[ix] = best
    return out


def fix_b_parametric(x_vals, n_grid: int = 2001) -> float:
    """FIX-B extension value by enumerating the one-parameter density family.

    Matching the operator on span{1, (1, 0, -1)} forces f = (t, 3 - 2t, t)
    with zero penalty, and the box [0.5, 2] pins t to [0.5, 1.25]; the value
    is the best E[f X] along that segment.
    """
    x0, x1, x2 = (float(v) for v in x_vals)
    ts = np.linspace(0.5, 1.25, n_grid)
    vals = (x0 * ts + x1 * (3.0 - 2.0 * ts) + x2 * ts) / 3.0
    return float(vals.max())


# --------------------------------------------------------------------------
# closed forms for the restricted two-period fixture
#
# Space: four uniform atoms (uu, ud, du, dd), levels trivial / {uu,ud},{du,dd}
# / discrete. Step (0, 1): pieces 1 and (1.2, 1.2, 0.8, 0.8) with penalties
# 0 and 0.05 on the full level-1 domain. Step (1, 2): pieces 1 and
# (1.4, 0.6, 1.3, 0.7) with penalties 0 and (0.1, 0.1, 0.05, 0.05) on the
# span of {1, (1, -1, 0, 0)} closed under level-1 indicators. Boxes [0.5, 2]
# on both steps.


def alpha01_restricted(b_u: float) -> float:
    """Step-(0, 1) minimal penalty of the density (b_u, 2 - b_u)."""
    if 1.0 - FEAS_TOL <= b_u <= 1.2 + FEAS_TOL:
        return 0.25 * max(b_u - 1.0, 0.0)
    return math.inf


def alpha12_restricted(a_first: float, block: int) -> float:
    """Step-(1, 2) minimal penalty on one level-1 block.

    ``a_first`` is the density value on the block's first atom (the mate is
    2 - a_first). On the first block the domain sees the spread generator,
    pinning a to [1, 1.4] with an interpolated penalty; on the second the
    domain is trivial and any box density costs nothing.
    """
    if not 0.5 - FEAS_TOL <= a_first <= 1.5 + FEAS_TOL:
        return math.inf
    if block == 0:
        if 1.0 - FEAS_TOL <= a_first <= 1.4 + FEAS_TOL:
            return 0.25 * max(a_first - 1.0, 0.0)
        return math.inf
    return 0.0


def restricted_product_price(x_vals) -> float:
    """Composed (0, 2) value by brute force over product densities.

    The objective is bilinear in (b, a, c), so scanning the vertex grid of
    the one-dimensional parameter boxes is exact: b in {1, 1.2} for the
    first step, a in {1, 1.4} on the first block and c in {0.5, 1.5}
    (penalty-free) on the second.
    """
    x = np.asarray(x_vals, dtype=float)
    best = -math.inf
    for b in (1.0, 1.2):
        for a in (1.0, 1.4):
            for c in (0.5, 1.5):
                f = np.array([b * a, b * (2.0 - a),
                              (2.0 - b) * c, (2.0 - b) * (2.0 - c)])
                pen = alpha01_restricted(b) \
                    + 0.5 * b * alpha12_restricted(a, 0) \
                    + 0.5 * (2.0 - b) * alpha12_restricted(c, 1)
                best = max(best, float(f @ x) / 4.0 - pen)
    return best


def restricted_cocycle_penalty(q_vals) -> float:
    """Closed-form (0, 2) penalty of a product density on the fixture.

    Splits the density into its step factors and adds the step penalties
    along the cocycle: alpha_{0,2} = alpha_{0,1} + E_Q[alpha_{1,2} | F_0].
    """
    q = np.asarray(q_vals, dtype=float)
    b_u = 0.5 * (q[0] + q[1])
    b_d = 0.5 * (q[2] + q[3])
    a_first = q[0] / b_u if b_u > 1e-300 else 1.0
    c_first = q[2] / b_d if b_d > 1e-300 else 1.0
    return alpha01_restricted(b_u) \
        + 0.5 * b_u * alpha12_restricted(a_first, 0) \
        + 0.5 * b_d * alpha12_restricted(c_first, 1)


# --------------------------------------------------------------------------
# per-block aggregation by plain loops over the partition's blocks


def loop_block_means(probs, blocks, values) -> np.ndarray:
    """Probability-weighted average of values over each block, atom by atom."""
    out = []
    for block in blocks:
        num = 0.0
        den = 0.0
        for w in block:
            num += probs[w] * values[w]
            den += probs[w]
        out.append(num / den)
    return np.array(out)


def loop_block_spread(blocks, values) -> np.ndarray:
    """Largest minus smallest value on each block."""
    return np.array([max(values[w] for w in block) - min(values[w] for w in block)
                     for block in blocks])


def loop_segments(probs, fine_blocks, coarse_blocks) -> list:
    """Per coarse block: (atoms, [(fine block number, representative atom,
    probability, rows of the segment's atoms inside the coarse block)]).

    Segments are listed by their lowest atom, rows ascending.
    """
    out = []
    for block in coarse_blocks:
        atoms = sorted(block)
        segs = []
        for b, fine in enumerate(fine_blocks):
            if set(fine) <= set(atoms):
                rows = sorted(atoms.index(w) for w in fine)
                segs.append((b, min(fine), sum(probs[w] for w in fine), rows))
        segs.sort(key=lambda seg: seg[1])
        out.append((atoms, segs))
    return out


# --------------------------------------------------------------------------
# density polytope membership from the kernels


def scipy_density_margin(segment_atoms, m_kernels, M_kernels, f_values) -> float:
    """Largest uniform slack of a density inside one block's kernel envelope.

    ``segment_atoms`` lists the atoms of each segment of the block; kernels
    and the density are atom arrays, read at each segment's first atom. The
    envelope asks for simplex weights lam, mu with
    sum_k lam_k m_k <= f <= sum_k mu_k M_k and f >= 0 on every segment.
    The result is the largest t for which some (lam, mu) meets every one of
    these rows with slack t, so it is positive inside the envelope and
    negative outside; the unit-mean budget is left to the caller.
    """
    firsts = [seg[0] for seg in segment_atoms]
    km = np.array([[k[w] for k in m_kernels] for w in firsts])
    kM = np.array([[k[w] for k in M_kernels] for w in firsts])
    fs = np.array([f_values[w] for w in firsts])
    nm, nM = km.shape[1], kM.shape[1]
    # variables (lam, mu, t); maximize t
    rows = []
    rhs = []
    for i in range(len(firsts)):
        rows.append(np.concatenate([km[i], np.zeros(nM), [1.0]]))
        rhs.append(fs[i])                       # lam.km + t <= f
        rows.append(np.concatenate([np.zeros(nm), -kM[i], [1.0]]))
        rhs.append(-fs[i])                      # f + t <= mu.kM
    a_eq = np.zeros((2, nm + nM + 1))
    a_eq[0, :nm] = 1.0
    a_eq[1, nm:nm + nM] = 1.0
    res = optimize.linprog(
        c=np.concatenate([np.zeros(nm + nM), [-1.0]]),
        A_ub=np.array(rows), b_ub=np.array(rhs), A_eq=a_eq, b_eq=[1.0, 1.0],
        bounds=[(0, None)] * (nm + nM) + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"membership oracle LP status {res.status}")
    return min(-float(res.fun), float(fs.min()))
