"""Shared fixtures: reference matrices, small graphs, and test-side oracles."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

import scipy.linalg

from sddkit import (AsymmetricMatrixError, BipartiteComponent, DomainError,
                    LoopGraph, MatrixError, MatrixFormatError, RetinaProblem,
                    RetinaSolution, SForm,
                    SingularBlockError, SingularMatrixError, SymMatrix,
                    adjugate_bound, analyze_bipartition, block_det_ratio,
                    condition_bound, det_lower_bound, det_upper_bound_balanced,
                    eig_interval_check, eigen_sym, incidence, inf_norm, inverse_dense,
                    lower_bound_trivial, main_bound, randmat, sform_dense,
                    sform_inf_norm_inverse, sform_inverse, signless_laplacian,
                    spectral_route_bound, varah_bound, xi_functional)
from sddkit import bounds, retina
from sddkit.bounds import SuiteRecord
from sddkit.graphlimit import _require_compatible
from sddkit.matcore import DominanceReport, _check_pivot, _mean_with_transpose
from sddkit.retina import DOMAIN_FLOOR, _finish

# Two balanced 4x4 matrices; H differs from J in the (1,2) entry (rebalanced).
J4_BALANCED = SymMatrix(np.array([
    [12, 4, 1, 7],
    [4, 9, 3, 2],
    [1, 3, 7, 3],
    [7, 2, 3, 12],
], dtype=float))

H4_BALANCED = SymMatrix(np.array([
    [9, 1, 1, 7],
    [1, 6, 3, 2],
    [1, 3, 7, 3],
    [7, 2, 3, 12],
], dtype=float))

# 3x3 pair where the (1,2) entry was lowered without rebalancing.
J3 = SymMatrix(np.array([[3, 2, 1], [2, 3, 1], [1, 1, 2]], dtype=float))
H3 = SymMatrix(np.array([[3, 1, 1], [1, 3, 1], [1, 1, 2]], dtype=float))

# diag(1e280) + 1e-290 [[3, 1], [1, 3]]: positive definite, det ratio 8/9, and
# its largest entry is inside [2^-960, 2^960], so no kernel scales it.
# Prescaled by 2^-931, the small block flushes to zero.
MIXED_SCALES = SymMatrix(np.block([[np.array([[1e280]]), np.zeros((1, 2))],
                                   [np.zeros((2, 1)), 1e-290 * np.array([[3.0, 1], [1, 3]])]]))


def k4_with_one_small_edge(small: float) -> SymMatrix:
    """The balanced 4 x 4 matrix of off-diagonal entries 1e30 but J_12 =
    J_21 = ``small``: its ell = small is far below its m = 1e30."""
    a = np.full((4, 4), 1e30)
    a[0, 1] = a[1, 0] = small
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, a.sum(axis=1))
    return SymMatrix(a)


# Single seeded instances: one randmat.draw_sdd draw, assembled by
# randmat.assemble_sdd as a stack of one, as the trial engine builds them.

def assembled(draws: np.ndarray) -> SymMatrix:
    """The matrix of one instance's :func:`randmat.draw_sdd` draws."""
    return SymMatrix(randmat.assemble_sdd(draws[None])[0])


def random_balanced(rng, n: int, lo: float = 1.0, hi: float = 3.0) -> SymMatrix:
    """Positive symmetric matrix with every dominance margin exactly zero."""
    return assembled(randmat.draw_sdd(rng, n, lo, hi, balanced=True))


def random_dominant(rng, n: int, lo: float = 1.0, hi: float = 3.0,
                    margin_hi: float = 2.0) -> SymMatrix:
    """Positive SDD matrix with margins uniform in [0, margin_hi]."""
    return assembled(randmat.draw_sdd(rng, n, lo, hi, margin_hi=margin_hi))


def random_geq_sform(rng, S: SForm, bump_hi: float = 2.0,
                     nonzero: bool = False) -> SymMatrix:
    """SDD matrix entrywise >= the dense realization of S.

    Adds a nonnegative SDD increment (off-diagonal bumps in [0, bump_hi],
    extra margins in [0, 2]); with ``nonzero`` the increment is guaranteed
    to be nonzero so the result differs from S.
    """
    while True:
        inc = randmat.assemble_sdd(randmat.draw_sdd(rng, S.n, 0.0, bump_hi)[None])[0]
        if not nonzero or inc.max() > 0:
            break
    return SymMatrix(sform_dense(S).entries + inc)


def tiny_strictly_dominant(shift: int) -> SymMatrix:
    """The n = 60 strictly dominant instance of ``trial_rng(1, 60)`` (margins
    in [0.05, 2]) times 2^-shift: near the bottom of the float range."""
    draws = randmat.draw_sdd(randmat.trial_rng(1, 60), 60, margin_lo=0.05)
    return SymMatrix(np.ldexp(assembled(draws).entries, -shift))


def singular_trailing_block(n, start, seed):
    """Symmetric n x n matrix whose trailing block from 0-based row ``start``
    is singular (its first two rows are equal) while every smaller trailing
    block is a nonsingular, strictly dominant integer matrix."""
    rng = np.random.default_rng(seed)
    m = n - start
    c = np.triu(rng.integers(1, 4, size=(m - 1, m - 1)).astype(float), 1)
    c = c + c.T
    np.fill_diagonal(c, c.sum(axis=1) + 1.0)
    dup = np.vstack([np.eye(m - 1)[:1], np.eye(m - 1)])
    a = np.triu(rng.uniform(1.0, 3.0, size=(n, n)), 1)
    a = a + a.T
    a[start:, start:] = dup @ c @ dup.T
    head = np.arange(start)
    a[head, head] = 0.0
    a[head, head] = a[:start].sum(axis=1) + 1.0
    return SymMatrix(a)


def symmetrize(entries: np.ndarray) -> SymMatrix:
    """Average a nearly-symmetric array with its transpose (test-side oracle,
    formerly ``matcore.symmetrize``).

    Raises :class:`AsymmetricMatrixError` if the largest skew exceeds
    ``1e-8 * max(1, |entries|_max)``: asymmetry that large signals a
    genuinely asymmetric input, not roundoff.
    """
    a = np.asarray(entries, dtype=float)
    skew = float(np.abs(a - a.T).max())
    scale = max(1.0, float(np.abs(a).max()))
    if skew > 1e-8 * scale:
        raise AsymmetricMatrixError(
            f"asymmetry {skew:.3e} exceeds guard 1.0e-08 * {scale:.3e}")
    return _mean_with_transpose(a)


def load_matrix_by_rows(path) -> SymMatrix:
    """``matcore.load_matrix`` parsing every token of every row (test-side
    oracle): the same entries, and the same errors with the same ``line``."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixFormatError("empty file", line=1)
    if not lines[0].isascii() or "_" in lines[0]:
        raise MatrixFormatError(f"not a plain ASCII decimal line: {lines[0]!r}", line=1)
    head = lines[0].split()
    if len(head) != 1:
        raise MatrixFormatError(f"expected a single dimension, got {lines[0]!r}", line=1)
    try:
        n = int(head[0])
    except ValueError:
        raise MatrixFormatError(f"bad dimension {head[0]!r}", line=1) from None
    if n < 1:
        raise MatrixFormatError(f"dimension must be >= 1, got {n}", line=1)
    rows = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.isascii() or "_" in raw:
            raise MatrixFormatError(f"not a plain ASCII decimal line: {raw!r}", line=lineno)
        if not raw.strip():
            continue
        if len(rows) == n:
            raise MatrixFormatError(f"unexpected content after {n} rows", line=lineno)
        parts = raw.split()
        if len(parts) != n:
            raise MatrixFormatError(f"expected {n} entries, got {len(parts)}", line=lineno)
        try:
            row = list(map(float, parts))
        except ValueError:
            raise MatrixFormatError(f"bad number in row {raw!r}", line=lineno) from None
        if not all(map(math.isfinite, row)):
            raise MatrixFormatError(f"non-finite entry in row {raw!r}", line=lineno)
        rows.append(row)
    if len(rows) != n:
        raise MatrixFormatError(f"expected {n} rows, found {len(rows)}", line=lineno)
    a = np.array(rows, dtype=float)
    skew = float(np.abs(a - a.T).max())
    scale = max(float(np.abs(a).max()), np.finfo(float).tiny)
    if skew > 1e-9 * scale:
        raise AsymmetricMatrixError(
            f"matrix file is not symmetric: relative skew {skew / scale:.3e} > 1e-9"
        )
    if skew == 0.0:
        return SymMatrix(a)
    return _mean_with_transpose(a)


def classify_by_matrix(J: SymMatrix) -> DominanceReport:
    """``matcore.classify`` on one matrix by its own reductions (test-side
    oracle, the per-matrix code the stacked kernel replaced)."""
    a = np.abs(J.entries)
    tol = 1e-12 * float(a.sum(axis=1).max())
    d = 2.0 * a.diagonal() - a.sum(axis=1)
    if J.n >= 2:
        off = J.entries[~np.eye(J.n, dtype=bool)]
        min_off, max_off = float(off.min()), float(off.max())
    else:
        min_off = max_off = None
    return DominanceReport(
        deltas=d,
        is_dominant=bool((d >= -tol).all()),
        is_balanced=bool((np.abs(d) <= tol).all()),
        is_strictly_dominant=bool((d > tol).all()),
        min_offdiag=min_off,
        max_offdiag=max_off,
        max_delta=float(d.max()),
    )


def jt_matrix(t: float) -> np.ndarray:
    """Non-symmetric balanced family whose inverse norm grows without bound."""
    return np.array([
        [2 + t, 1, 1 + t],
        [1, 2 + t, 1 + t],
        [1, 1, 2],
    ], dtype=float)


def inverse_by_unscaled_lu(J: SymMatrix) -> SymMatrix:
    """``inverse_dense`` without its power-of-two prescale (test-side
    oracle, its former expression): the LU of J itself, its smallest pivot
    judged against J's own floor."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(J.entries, check_finite=False)
    _check_pivot(float(np.abs(lu.diagonal()).min()), J.n, inf_norm(J))
    inv = scipy.linalg.lu_solve((lu, piv), np.eye(J.n, order="F"),
                                overwrite_b=True, check_finite=False)
    return _mean_with_transpose(inv)


def general_inverse(a: np.ndarray) -> np.ndarray:
    """Dense inverse without any symmetry assumption (test-side oracle)."""
    return np.linalg.inv(np.asarray(a, dtype=float))


def block_det_ratio_by_inverses(J: SymMatrix) -> tuple[np.ndarray, float]:
    """Trailing-block factors 1 - b' B^{-1} b / J_ii, one dense inverse of
    each trailing block B (test-side oracle for ``block_det_ratio``).

    Names the largest singular trailing block, the first one met from the
    top.
    """
    a = J.entries
    n = J.n
    factors = np.empty(max(n - 1, 0))
    for i in range(n - 1):
        b = a[i, i + 1:]
        try:
            binv = inverse_dense(SymMatrix(a[i + 1:, i + 1:]))
        except SingularMatrixError as exc:
            raise SingularBlockError(
                f"trailing block starting at row {i + 2} is singular",
                block_index=i + 2,
            ) from exc
        factors[i] = 1.0 - float(b @ (binv.entries @ b)) / a[i, i]
    return factors, float(np.prod(factors))


def block_det_ratio_unblocked(J: SymMatrix) -> tuple[np.ndarray, float]:
    """The bottom-up elimination of ``block_det_ratio`` as one rank-one
    update of the whole leading block per pivot (test-side oracle for the
    panel-blocked kernel).

    Block norms are summed per block rather than from row-suffix sums.
    """
    a = J.entries
    n = J.n
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    w = a.copy()
    for k in range(n - 1, 0, -1):
        pivot = w[k, k]
        block_norm = float(np.abs(a[k:, k:]).sum(axis=1).max())
        if abs(pivot) <= (n - k) * eps * max(block_norm, tiny):
            raise SingularBlockError(
                f"trailing block starting at row {k + 1} is singular "
                f"(pivot {abs(pivot):.3e})",
                block_index=k + 1,
            )
        col = w[:k, k]
        w[:k, :k] -= np.outer(col / pivot, col)
    factors = w.diagonal()[:-1] / a.diagonal()[:-1]
    return factors, float(np.prod(factors))


def eigen_sym_by_jacobi(M: SymMatrix, max_sweeps: int = 100):
    """Cyclic Jacobi rotations; returns (eigenvalues asc, eigenvectors).

    Test-side oracle for ``eigen_sym``: plain Python rotations that share no
    code with LAPACK.
    """
    a0 = M.entries
    n = a0.shape[0]
    a = a0.copy()
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    scale = float(np.abs(a0).sum(axis=1).max())
    stop = 1e-12 * scale
    skip = stop / (10.0 * n)
    iu = np.triu_indices(n, 1)
    for _ in range(max_sweeps):
        if float(np.abs(a[iu]).max()) <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                a[p, q] = a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    lams = a.diagonal().copy()
    order = np.argsort(lams, kind="stable")
    return lams[order], v[:, order]


def chain_cycle(n: int) -> LoopGraph:
    """Cycle 1-2-...-n-1 (the chain with the closing edge {1, n})."""
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return LoopGraph(n, edges)


def star(n: int) -> LoopGraph:
    """Edges {1, i} for i = 2..n."""
    return LoopGraph(n, [(1, i) for i in range(2, n + 1)])


def bits(a: np.ndarray) -> np.ndarray:
    """The entries' IEEE bit patterns, for bitwise comparison (-0.0 != 0.0)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def format_matrix_by_entries(entries: np.ndarray) -> str:
    """One line per row of ``format(v, ".12g")`` tokens, one call per entry
    (test-side oracle for ``cli._print_matrix``)."""
    return "".join(" ".join(format(v, ".12g") for v in row) + "\n" for row in entries)


def print_matrix_by_blocks(entries: np.ndarray, rows: int = 32) -> str:
    """The text of ``cli._print_matrix`` from a printer that dedupes and
    looks up every entry of each block of ``rows`` rows, ignoring symmetry
    (test-side oracle, the printer's former algorithm)."""
    a = np.ascontiguousarray(entries, dtype=np.float64)
    seen = np.empty(0, dtype=np.int64)
    seen_tokens = np.empty(0, dtype=object)
    lines = []
    for start in range(0, a.shape[0], rows):
        block = a[start:start + rows]
        keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
        pos = np.searchsorted(seen, keys)
        new = pos == seen.size
        new[~new] = seen[pos[~new]] != keys[~new]
        tokens = np.empty(keys.size, dtype=object)
        tokens[~new] = seen_tokens[pos[~new]]
        tokens[new] = [format(v, ".12g") for v in keys[new].view(np.float64).tolist()]
        seen = np.insert(seen, pos[new], keys[new])
        seen_tokens = np.insert(seen_tokens, pos[new], tokens[new])
        lines += [" ".join(row) + "\n" for row in tokens[inverse.reshape(block.shape)].tolist()]
    return "".join(lines)


def basis_matrix_by_columns(B) -> np.ndarray:
    """The U basis that ``graphlimit._basis`` gives as (head, tail, sign)
    columns, as a dense matrix stacked from one n-vector per column
    (test-side oracle)."""
    n = B.n
    cols = []
    for comp in B.components:
        if isinstance(comp, BipartiteComponent):
            verts = comp.vertices
            anchor = verts[0]
            anchor_side_p = anchor in comp.vertices_p
            for v in verts[1:]:
                same_side = (v in comp.vertices_p) == anchor_side_p
                col = np.zeros(n)
                col[anchor - 1] = 1.0
                col[v - 1] = -1.0 if same_side else 1.0
                cols.append(col)
        else:
            for v in comp.vertices:
                col = np.zeros(n)
                col[v - 1] = 1.0
                cols.append(col)
    if not cols:
        return np.zeros((n, 0))
    return np.column_stack(cols)


def u_route_by_cho_solve(S, B) -> np.ndarray:
    """The u-route by a Cholesky solve against all n columns of (S^{-1} U)',
    a full product and the mean with the transpose (test-side oracle, the
    route's former expression)."""
    Sinv = sform_inverse(S).entries
    U = basis_matrix_by_columns(B)
    if U.shape[1] == 0:
        return Sinv
    SiU = Sinv @ U
    cho = scipy.linalg.cho_factor(U.T @ SiU, check_finite=False)
    N = Sinv - SiU @ scipy.linalg.cho_solve(cho, SiU.T, check_finite=False)
    return symmetrize(N).entries


def limit_numeric_by_lu(S, G: LoopGraph, t: float) -> np.ndarray:
    """(S + t P)^{-1} by the pivoted-LU inverse :func:`inverse_dense`
    (test-side oracle, the former ``limit_numeric``)."""
    A = sform_dense(S).entries + t * signless_laplacian(G).entries
    return inverse_dense(SymMatrix(A)).entries


def limit_test_graph(n: int, seed: int) -> LoopGraph:
    """A path of odd length, a star, an odd cycle and a path carrying a
    self-loop, on a seeded permutation of the vertex labels (n >= 16).

    The path and the star are unbalanced bipartite components, so the limit
    matrix is dense on 3n/4 of the vertices."""
    rng = np.random.default_rng(seed)
    sizes = {"path": 2 * (n // 8) + 1, "star": 3 * n // 4 - 2 * (n // 8) - 1,
             "odd_cycle": 2 * (n // 16) + 1}
    sizes["loop_path"] = n - sum(sizes.values())
    label = [int(v) + 1 for v in rng.permutation(n)]
    edges = []
    start = 0
    for kind, k in sizes.items():
        v = label[start:start + k]
        start += k
        if kind == "star":
            edges += [(v[0], w) for w in v[1:]]
        else:
            edges += list(zip(v, v[1:]))
        if kind == "odd_cycle":
            edges.append((v[-1], v[0]))
        if kind == "loop_path":
            edges.append((v[0], v[0]))
    return LoopGraph(n, edges)


@dataclass(frozen=True)
class BlockConstants:
    """The r x r per-block magnitudes of the limit matrix.

    ``zero_limit`` marks r == 0 (every component non-bipartite, N = 0);
    ``values`` is then an empty 0 x 0 array.
    """

    values: np.ndarray
    zero_limit: bool


def limit_block_constants(S, B) -> BlockConstants:
    """Per-block magnitudes c_ij of the limit matrix over bipartite components
    (test-side oracle restating ``limit_closed_form`` block by block).

    c_ii = ell/(alpha(alpha+ell*gamma)(p_i+q_i)) (alpha/ell + gamma
           - (p_i-q_i)^2/(p_i+q_i)) and, for j != i,
    c_ij = -ell/(alpha(alpha+ell*gamma)) ((p_i-q_i)/(p_i+q_i))
           ((p_j-q_j)/(p_j+q_j)).
    """
    _require_compatible(S, B)
    bip = B.bipartite_components
    r = len(bip)
    if r == 0:
        return BlockConstants(values=np.zeros((0, 0)), zero_limit=True)
    alpha, ell, gamma = S.alpha, S.ell, B.gamma
    imb = np.array([(c.p - c.q) / (c.p + c.q) for c in bip])
    sizes = np.array([c.p + c.q for c in bip], dtype=float)
    coeff = ell / (alpha * (alpha + ell * gamma))
    values = -coeff * np.outer(imb, imb)
    for i, c in enumerate(bip):
        values[i, i] = (coeff / sizes[i]) * (
            alpha / ell + gamma - (c.p - c.q) ** 2 / sizes[i]
        )
    return BlockConstants(values=values, zero_limit=False)


def incidence_rank(G: LoopGraph) -> int:
    """Numeric rank of the incidence matrix, computed per component
    (test-side oracle for n minus the number of bipartite components).

    Uses singular values with cutoff 1e-8 times the largest one.
    """
    summary = analyze_bipartition(G)
    total = 0
    for comp in summary.components:
        verts = comp.vertices
        vset = set(verts)
        local = {v: i + 1 for i, v in enumerate(sorted(verts))}
        sub_edges = [
            (local[i], local[j]) for (i, j) in G.edges if i in vset and j in vset
        ]
        sub = LoopGraph(len(verts), sub_edges)
        L = incidence(sub)
        if L.shape[1] == 0:
            continue
        sv = np.linalg.svd(L, compute_uv=False)
        total += int((sv > 1e-8 * sv[0]).sum())
    return total


class SingularUpdateError(MatrixError):
    """Rank-one update denominator 1 + t*u'Ku is (numerically) zero."""


def smw_update(K: SymMatrix, u: np.ndarray, t: float, tol: float = 1e-12) -> SymMatrix:
    """Inverse of J + t*uu' given K = J^{-1} (test-side oracle).

    Returns K - (t / (1 + t*u'Ku)) (Ku)(Ku)'.  Raises
    :class:`SingularUpdateError` when the denominator is below tolerance.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (K.n,):
        raise MatrixError(f"update vector has shape {u.shape}, expected ({K.n},)")
    Ku = K.entries @ u
    uKu = float(u @ Ku)
    denom = 1.0 + t * uKu
    if abs(denom) <= tol * max(1.0, abs(t * uKu)):
        raise SingularUpdateError(
            f"update denominator 1 + t*u'Ku = {denom:.3e} is numerically zero"
        )
    return SymMatrix(K.entries - (t / denom) * np.outer(Ku, Ku))


def loewner_geq(A: SymMatrix, B: SymMatrix, tol: float = 1e-10) -> bool:
    """True iff A - B is positive semidefinite up to -tol on its spectrum
    (test-side oracle)."""
    if A.n != B.n:
        raise MatrixError(f"dimension mismatch: {A.n} vs {B.n}")
    lams = eigen_sym(SymMatrix(A.entries - B.entries))
    return bool(lams[0] >= -tol)


# Test-side oracles for the retina solver: every pair sum built and scanned
# for the domain floor on each call, a fresh Jacobian wrapped in SymMatrix
# per Newton step, and sample_degrees reading its rates from the full
# pair-sum matrix.

def reject_non_finite(x: np.ndarray, name: str) -> None:
    """ValueError naming the first NaN or infinite entry of x, if any."""
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] = {x[bad[0]]} is not finite")


def pair_sums_by_scan(x: np.ndarray, floor: float) -> np.ndarray:
    """x_i + x_j with inf on the diagonal; a non-finite entry of x raises
    ValueError, and then the first pair within ``floor`` of zero, in
    row-major order, raises :class:`DomainError`."""
    reject_non_finite(x, "x")
    z = x[:, None] + x[None, :]
    np.fill_diagonal(z, np.inf)
    small = np.abs(z) < floor
    if small.any():
        i, j = np.argwhere(small)[0]
        raise DomainError(
            f"pairwise sum x[{i}] + x[{j}] = {z[i, j]:.3e} is within "
            f"{floor:.1e} of zero (indices are 0-based)",
            pair=(int(i), int(j)),
        )
    return z


def f_map_by_scan(x: np.ndarray) -> np.ndarray:
    z = pair_sums_by_scan(np.asarray(x, dtype=float), DOMAIN_FLOOR)
    return -(1.0 / z).sum(axis=1)


def jacobian_by_scan(x: np.ndarray) -> SymMatrix:
    z = pair_sums_by_scan(np.asarray(x, dtype=float), DOMAIN_FLOOR)
    w = 1.0 / (z * z)
    np.fill_diagonal(w, w.sum(axis=1))
    return SymMatrix(w)


def residual_by_scan(theta: np.ndarray, d: np.ndarray) -> np.ndarray:
    return f_map_by_scan(-np.asarray(theta, dtype=float)) - np.asarray(d, dtype=float)


def mean_field_start_by_scan(d: np.ndarray) -> np.ndarray:
    """The mean-field start of ``solve_retina``: u + s (h - u) for the first
    s of 1, 1/2, ..., 1/32 whose pair sums, all n^2 of them scanned, are at
    least DOMAIN_FLOOR, where u is the uniform point and h_i = g_i -
    mean(g)/2 with g_i = (n-1)/d_i the mean-field point; u when none is,
    when h is not finite, or when every target is the same."""
    n = len(d)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.full(n, max((n - 1) / (2.0 * float(d.mean())), DOMAIN_FLOOR))
        if len(set(d.tolist())) == 1:
            return u
        g = (n - 1) / d
        h = g - g.mean() / 2
    if not np.isfinite(h).all():
        return u
    for s in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
        theta = u + s * (h - u)
        if pair_sums_by_scan(theta, 0.0).min() >= DOMAIN_FLOOR:
            return theta
    return u


def retina_start_by_scan(d: np.ndarray) -> np.ndarray:
    """The start of ``solve_retina``: below n = ``_CG_MIN_N``, for equal
    targets, or where it has an entry <= 0, the mean-field start; otherwise
    that start after ``_FIELD_SWEEPS`` half Newton steps in log theta, each
    theta_i on its own equation against the means of ``_FIELD_BINS``
    equal-count bins of the sorted theta, with its self pair taken out.  A
    sweep is kept while it is finite and its pair sums, all n^2 of them
    scanned, are at least DOMAIN_FLOOR."""
    theta = mean_field_start_by_scan(d)
    n = len(d)
    if n < retina._CG_MIN_N or len(set(d.tolist())) == 1 or (theta <= 0).any():
        return theta
    m = retina._FIELD_BINS
    edges = [q * n // m for q in range(m + 1)]
    counts = np.array([b - a for a, b in zip(edges, edges[1:])], dtype=float)
    w = counts[:, None]
    with np.errstate(all="ignore"):
        for _ in range(retina._FIELD_SWEEPS):
            c = np.add.reduceat(np.sort(theta), edges[:-1]) / counts
            z = np.add.outer(c, theta)
            g = (w / z).sum(axis=0) - 0.5 / theta - d
            slope = 0.5 / theta - theta * (w / z / z).sum(axis=0)
            cand = theta * np.exp(0.5 * np.clip(-g / slope, -2.0, 2.0))
            if not (np.isfinite(cand).all()
                    and pair_sums_by_scan(cand, 0.0).min() >= DOMAIN_FLOOR):
                break
            theta = cand
    return theta


def solve_retina_by_scan(prob: RetinaProblem, tol: float = 1e-10,
                         max_iter: int = 80) -> RetinaSolution:
    """Damped Newton iteration of ``solve_retina`` with a fresh SymMatrix
    Jacobian per step, read from n = ``_CG_MIN_N`` on by the solver's own
    ``_cg_direction`` (so that the match is a bitwise test of the scans and
    of the solver's in-place buffer), and factored from a copy below that
    and where CG gives no direction."""
    d = prob.d
    n = prob.n
    theta = retina_start_by_scan(d)
    r = residual_by_scan(theta, d)
    r_inf = float(np.abs(r).max())
    stop = tol * min(1.0, float(d.max()))
    for it in range(1, max_iter + 1):
        if r_inf <= stop:
            return _finish(theta, r_inf, it - 1, True, n)
        w = jacobian_by_scan(-theta)
        step = retina._cg_direction(w.entries, r) if n >= retina._CG_MIN_N else None
        if step is None:
            try:
                cho = scipy.linalg.cho_factor(w.entries, check_finite=False)
            except scipy.linalg.LinAlgError:
                return _finish(theta, r_inf, it - 1, False, n)
            step = scipy.linalg.cho_solve(cho, r, check_finite=False)
        lam = 1.0
        step_inf = float(np.abs(step).max())
        while True:
            cand = theta + lam * step
            low = np.partition(cand, 1)[:2]
            if low[0] + low[1] >= DOMAIN_FLOOR:
                r_new = residual_by_scan(cand, d)
                r_new_inf = float(np.abs(r_new).max())
                if r_new_inf < r_inf:
                    theta, r, r_inf = cand, r_new, r_new_inf
                    break
            lam *= 0.5
            if lam * step_inf < 1e-14:
                return _finish(theta, r_inf, it, False, n)
    return _finish(theta, r_inf, max_iter, r_inf <= stop, n)


def sample_degrees_by_scan(theta: np.ndarray, seed: int) -> np.ndarray:
    """``sample_degrees`` with its rates, and its positivity scan, on the
    full pair-sum matrix."""
    theta = np.asarray(theta, dtype=float)
    n = len(theta)
    if int(seed) != seed or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    reject_non_finite(theta, "theta")
    z = pair_sums_by_scan(theta, 0.0)
    if (z <= 0).any():
        i, j = np.argwhere(z <= 0)[0]
        raise DomainError(
            f"theta[{i}] + theta[{j}] = {z[i, j]:.3e} must be positive",
            pair=(int(i), int(j)),
        )
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    iu = np.triu_indices(n, 1)
    draws = gen.standard_exponential(len(iu[0]))
    weights = draws / z[iu]
    d = np.zeros(n)
    np.add.at(d, iu[0], weights)
    np.add.at(d, iu[1], weights)
    return d


# The conjecture search as its own engine, with its own record, ledger and
# tolerance rule (test-side oracle for ``bounds.conjecture_search``).

CONJECTURES = ("lower_norm", "det_upper")
_MODE_TAG = {"lower_norm": 101, "det_upper": 102}


def _tol(x: float) -> float:
    return 1e-9 * max(1.0, abs(x))


@dataclass(frozen=True)
class ConjectureRecord:
    trial: int
    n: int
    params: dict
    lhs: float
    rhs: float
    slack: float
    violation: bool


@dataclass(frozen=True)
class ConjectureLedger:
    """Outcome of a seeded random search; violations are findings, not errors."""

    mode: str
    trials: int
    seed: int
    records: list
    min_slack: float
    violations: list


def _lower_norm_record(trial: int, J: SymMatrix, alpha: float, m: float) -> ConjectureRecord:
    # Conjectured: inf_norm(J^{-1}) >= inf_norm(S(alpha, m)^{-1}) whenever
    # 0 < J <= alpha*I + m*ones entrywise and J is SDD.
    n = J.n
    lhs = (alpha + 2.0 * m * (n - 1)) / (alpha * (alpha + m * n))
    rhs = J.inv_inf_norm
    slack = rhs - lhs
    tol = _tol(lhs)
    return ConjectureRecord(trial=trial, n=n,
                            params={"alpha": alpha, "m": m},
                            lhs=lhs, rhs=rhs, slack=slack,
                            violation=bool(slack < -tol))


def _det_upper_record(trial: int, J: SymMatrix) -> ConjectureRecord:
    # Conjectured: det ratio of a positive balanced J is at most
    # 2 (1 - 1/(n-1))^{n-1}, the ratio of the balanced reference matrix.
    n = J.n
    _, ratio = J.elimination
    bound = 2.0 * (1.0 - 1.0 / (n - 1)) ** (n - 1)
    slack = bound - ratio
    tol = _tol(bound)
    return ConjectureRecord(trial=trial, n=n, params={},
                            lhs=ratio, rhs=bound, slack=slack,
                            violation=bool(slack < -tol))


def conjecture_search_ledger(mode: str, trials: int, seed: int) -> ConjectureLedger:
    """Deterministic seeded random search over a conjectured inequality.

    mode "lower_norm": SDD matrices 0 < J <= alpha*I + m*ones, testing
    whether the family member is the norm minimizer (trial 0 probes the
    conjectured equality case J = alpha*I + m*ones exactly).
    mode "det_upper": positive balanced matrices, testing the determinant
    ratio against the balanced reference value.

    A violated inequality is recorded as a finding in the ledger, never
    raised.
    """
    if mode not in CONJECTURES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {CONJECTURES}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    records = []
    for t in range(trials):
        rng = randmat.trial_rng(seed, _MODE_TAG[mode], t)
        n = int(rng.integers(3, 11))
        if mode == "lower_norm":
            m = float(rng.uniform(0.5, 2.0))
            margin_cap = float(rng.uniform(0.0, 2.0 * m))
            alpha = (n - 2) * m + margin_cap
            if t == 0:
                J = sform_dense(SForm(n, alpha, m))
            else:
                J = random_dominant(rng, n, lo=0.05 * m, hi=m, margin_hi=margin_cap)
            records.append(_lower_norm_record(t, J, alpha, m))
        else:
            J = random_balanced(rng, n, lo=0.2, hi=3.0)
            records.append(_det_upper_record(t, J))
    min_slack = min(r.slack for r in records)
    violations = [r.trial for r in records if r.violation]
    return ConjectureLedger(mode=mode, trials=trials, seed=seed,
                            records=records, min_slack=float(min_slack),
                            violations=violations)


# The seeded-trial engine as a loop over trials, one matrix at a time
# (test-side oracle for ``bounds._trials``, its former expression).

def suite_records_one_by_one(suite: str, trial: int, rng, n: int) -> list:
    """One trial's (params, report) pairs, drawing the instance from ``rng``."""
    if suite == "lower_norm":
        m = float(rng.uniform(0.5, 2.0))
        margin_cap = float(rng.uniform(0.0, 2.0 * m))
        alpha = (n - 2) * m + margin_cap
        S = SForm(n, alpha, m)
        J = sform_dense(S) if trial == 0 else random_dominant(
            rng, n, lo=0.05 * m, hi=m, margin_hi=margin_cap)
        return [({"alpha": alpha, "m": m},
                 bounds._report("lower_norm_conjecture", sform_inf_norm_inverse(S),
                                J.inv_inf_norm, n=n))]
    if suite == "det_upper":
        _, ratio = block_det_ratio(random_balanced(rng, n, lo=0.2, hi=3.0))
        return [({}, bounds._report("det_upper_conjecture", ratio,
                                    2.0 * (1.0 - 1.0 / (n - 1)) ** (n - 1), n=n))]
    if suite == "varah":
        return [({}, varah_bound(assembled(randmat.draw_sdd(rng, n, margin_lo=0.05))))]
    if suite == "main":
        ell = float(rng.uniform(0.5, 2.0))
        alpha = (n - 2) * ell + float(rng.uniform(0.0, 2.0 * ell))
        S = SForm(n, alpha, ell)
        J = random_geq_sform(rng, S, bump_hi=2.0 * ell)
        return [({"alpha": alpha, "ell": ell}, main_bound(J, S))]
    if suite == "lower":
        return [({}, lower_bound_trivial(random_dominant(rng, n)))]
    if suite == "spectral":
        ell = float(rng.uniform(0.3, 1.5))
        J = random_dominant(rng, n, lo=ell, hi=3.0 * ell)
        return [({"ell": ell}, spectral_route_bound(J, ell))]
    if suite == "cond":
        return [({}, condition_bound(random_dominant(rng, n)))]
    if suite == "eig":
        balanced = trial % 2 == 0
        J = random_balanced(rng, n) if balanced else random_dominant(rng, n)
        return [({"i": i, "balanced": balanced}, eig_interval_check(J, i=i))
                for i in range(1, n)]
    if suite == "det":
        if trial % 2 == 0:
            J = random_balanced(rng, n)
            return [({"balanced": True}, det_lower_bound(J)),
                    ({"balanced": True}, det_upper_bound_balanced(J))]
        J = random_dominant(rng, n)
        return [({"balanced": False}, det_lower_bound(J))]
    if suite == "adjugate":
        return [({}, adjugate_bound(random_balanced(rng, n)))]
    assert suite == "xi", suite
    ell = float(rng.uniform(0.5, 2.0))
    alpha = (n - 2) * ell * (1.0 + float(rng.uniform(0.0, 1.0)))
    S = SForm(n, alpha, ell)
    G = randmat.random_loop_graph(rng, n, p_edge=0.4, p_loop=0.15)
    if G.num_edges == 0:
        G = type(G)(n, [(1, 2)])
    res = xi_functional(S, signless_laplacian(G))
    agreement = float(np.abs(res.per_row - res.per_row_closed).max())
    report = bounds._report("xi", -res.xi, 0.0, n=n, alpha=alpha, ell=ell,
                            edges=G.num_edges, route_gap=agreement)
    return [({"alpha": alpha, "ell": ell, "edges": G.num_edges}, report)]


def trials_one_by_one(name: str, lo: int, hi: int, trials: int, seed: int) -> list:
    """``bounds._trials`` drawing and analysing one trial after another."""
    out = []
    for t in range(trials):
        rng = randmat.trial_rng(seed, bounds._TAG[name], t)
        n = int(rng.integers(lo, hi + 1))
        out.extend(SuiteRecord(name, t, n, params, report)
                   for params, report in suite_records_one_by_one(name, t, rng, n))
    return out
