"""Shared fixtures: reference matrices, small graphs, and test-side oracles."""

import math

import numpy as np

from sddkit import (LoopGraph, SingularBlockError, SingularMatrixError,
                    SymMatrix, inverse_dense)

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


def jt_matrix(t: float) -> np.ndarray:
    """Non-symmetric balanced family whose inverse norm grows without bound."""
    return np.array([
        [2 + t, 1, 1 + t],
        [1, 2 + t, 1 + t],
        [1, 1, 2],
    ], dtype=float)


def jt_inverse_closed(t: float) -> np.ndarray:
    return 0.25 * np.array([
        [(t + 3) / (t + 1), (t - 1) / (t + 1), -t - 1],
        [(t - 1) / (t + 1), (t + 3) / (t + 1), -t - 1],
        [-1, -1, t + 3],
    ])


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
