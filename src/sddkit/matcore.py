"""Dense symmetric-matrix kernels and the analysis of one matrix.

Construction and validation of symmetric matrices, diagonal-dominance
diagnostics, an LU-based inversion oracle, infinity norms, the LAPACK
symmetric eigensolver with a per-pair residual certificate, and matrix
text I/O.

A :class:`SymMatrix` never changes, so it carries its own analysis, each
part computed on first use and kept for the matrix's lifetime: the
dominance report, the SDD elimination without pivoting that gives the
determinant ratio (det(J) itself is never formed), and inf_norm(J^{-1}).
Every bound and CLI command reads these members instead of deriving them
again.

All operations are pure functions of their inputs.  Matrix values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

__all__ = [
    "SymMatrix",
    "DominanceReport",
    "MatrixError",
    "AsymmetricMatrixError",
    "SingularMatrixError",
    "SingularBlockError",
    "EigenConvergenceError",
    "MatrixFormatError",
    "symmetrize",
    "delta",
    "classify",
    "inverse_dense",
    "inf_norm",
    "eigen_sym",
    "load_matrix",
    "save_matrix",
]


class MatrixError(ValueError):
    """Base error for invalid matrix inputs."""


class AsymmetricMatrixError(MatrixError):
    """Input matrix is not symmetric (or drifted beyond the skew guard)."""


class SingularMatrixError(MatrixError):
    """Matrix is singular to working precision.

    Carries the magnitude of the smallest LU pivot in ``pivot``.
    """

    def __init__(self, message: str, pivot: float):
        super().__init__(message)
        self.pivot = pivot


class SingularBlockError(MatrixError):
    """A trailing block in the determinant factorization is singular."""

    def __init__(self, message: str, block_index: int):
        super().__init__(message)
        self.block_index = block_index


class EigenConvergenceError(RuntimeError):
    """The LAPACK symmetric eigensolver returned a pair that misses the
    per-pair residual certificate, or failed to converge (residual inf).

    Carries the attained worst per-pair residual in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class MatrixFormatError(MatrixError):
    """Malformed matrix text file.  ``line`` is the offending 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense symmetric real matrix, the universal numeric carrier.

    The entry array is validated (square, n >= 1, finite, exactly symmetric)
    and frozen read-only at construction.  Asymmetric input is rejected; use
    :func:`symmetrize` for results of floating-point arithmetic that are
    symmetric only up to roundoff.

    The analysis members are computed on first use and kept; a computation
    that raises stores nothing and raises again on the next read.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MatrixError(f"expected a square 2-d array, got shape {a.shape}")
        if a.shape[0] < 1:
            raise MatrixError("matrix dimension must be >= 1")
        if not np.isfinite(a).all():
            i, j = np.argwhere(~np.isfinite(a))[0]
            raise MatrixError(f"non-finite entry {a[i, j]} at ({i}, {j})")
        if not np.array_equal(a, a.T):
            raise AsymmetricMatrixError("matrix entries are not symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def dominance(self) -> "DominanceReport":
        """The :func:`classify` report."""
        return classify(self)

    @cached_property
    def elimination(self) -> tuple[np.ndarray, float]:
        """(factors, ratio) of the SDD elimination, ``factors`` read-only;
        see :func:`sddkit.bounds.block_det_ratio`."""
        return _eliminate(self)

    @cached_property
    def inv_inf_norm(self) -> float:
        """inf_norm(J^{-1}) from :func:`inverse_dense`."""
        return inf_norm(inverse_dense(self))


@dataclass(frozen=True)
class DominanceReport:
    """Diagonal-dominance diagnostics for one symmetric matrix.

    ``min_offdiag``/``max_offdiag`` are ``None`` for n == 1 (no off-diagonal
    entries exist); callers must treat that as an explicit marker.
    """

    deltas: np.ndarray
    is_dominant: bool
    is_balanced: bool
    is_strictly_dominant: bool
    min_offdiag: float | None
    max_offdiag: float | None
    max_delta: float


def symmetrize(entries: np.ndarray) -> SymMatrix:
    """Average a nearly-symmetric array with its transpose.

    Restores the exact-symmetry invariant after floating-point arithmetic on
    outside input.  Raises :class:`AsymmetricMatrixError` if the largest skew
    exceeds ``1e-8 * max(1, |entries|_max)``: asymmetry that large signals a
    genuinely asymmetric input, not roundoff.
    """
    a = np.asarray(entries, dtype=float)
    if not a.size:
        return SymMatrix(a)
    # One scratch array holds the skew, then |a|; it is freed before the mean.
    work = np.subtract(a, a.T)
    skew = float(np.abs(work, out=work).max())
    scale = max(1.0, float(np.abs(a, out=work).max()))
    del work
    if skew > 1e-8 * scale:
        raise AsymmetricMatrixError(
            f"asymmetry {skew:.3e} exceeds guard 1.0e-08 * {scale:.3e}")
    return _mean_with_transpose(a)


def _mean_with_transpose(a: np.ndarray) -> SymMatrix:
    """(a + a') / 2, correctly rounded and without overflow, as a SymMatrix.

    No asymmetry guard: callers pass arrays that are symmetric up to their
    own roundoff.
    """
    with np.errstate(over="ignore"):
        work = np.add(a, a.T)
    np.divide(work, 2.0, out=work)
    # Where a sum overflowed, halve the two entries first: that is exact at
    # this size, so the mean is still correctly rounded, and every finite sum
    # keeps its (a + a') / 2 bits, subnormal ones included.
    over = np.isinf(work)
    if over.any():
        work[over] = a[over] / 2.0 + a.T[over] / 2.0
    return SymMatrix(work)


def delta(J: SymMatrix) -> np.ndarray:
    """Per-row dominance margins |J_ii| - sum_{j != i} |J_ij|."""
    a = np.abs(J.entries)
    return 2.0 * a.diagonal() - a.sum(axis=1)


def classify(J: SymMatrix) -> DominanceReport:
    """Classify dominance within tol = 1e-12 * inf_norm(J) on the margins
    (floating balanced matrices rarely have exact zero margins).

    dominant iff delta_i >= -tol for all i; balanced iff |delta_i| <= tol for
    all i; strictly dominant iff delta_i > tol for all i.  Margins use |J_ii|,
    so a negative diagonal can pass; bounds that need J_ii > 0 check it.
    """
    tol = 1e-12 * inf_norm(J)
    d = delta(J)
    a = J.entries
    n = J.n
    if n >= 2:
        off = a[~np.eye(n, dtype=bool)]
        min_off: float | None = float(off.min())
        max_off: float | None = float(off.max())
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


def inf_norm(M: SymMatrix) -> float:
    """Maximum absolute row sum."""
    return float(np.abs(M.entries).sum(axis=1).max())


def inverse_dense(J: SymMatrix) -> SymMatrix:
    """Invert via pivoted LU and re-symmetrize the result.

    Pivoted LU (rather than Cholesky) so the same oracle inverts indefinite
    matrices.  Raises :class:`SingularMatrixError` carrying the smallest
    pivot magnitude when the matrix is singular to working precision.
    """
    a = J.entries
    n = J.n
    with warnings.catch_warnings():
        # Exactly singular input triggers a scipy warning before our own
        # pivot check runs; the check below raises in that case.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(lu.diagonal())
    floor = n * np.finfo(float).eps * max(inf_norm(J), np.finfo(float).tiny)
    smallest = float(pivots.min())
    if smallest <= floor:
        raise SingularMatrixError(
            f"matrix singular to working precision (pivot {smallest:.3e})",
            pivot=smallest,
        )
    # Solve into a Fortran-ordered identity in place, so LAPACK needs no
    # copy of it, and free the factor before the mean takes its scratch.
    # The solve is asymmetric only by roundoff, which grows with the
    # condition number, so no skew guard applies.
    inv = scipy.linalg.lu_solve((lu, piv), np.eye(n, order="F"),
                                overwrite_b=True, check_finite=False)
    del lu
    return _mean_with_transpose(inv)


def _trailing_block_norms(a: np.ndarray) -> np.ndarray:
    """inf_norm(a[k:, k:]) for every k, from row-suffix sums in O(n^2)."""
    suffix = np.cumsum(np.abs(a)[:, ::-1], axis=1)[:, ::-1]
    return np.maximum.accumulate(suffix[::-1], axis=0)[::-1].diagonal()


# Rows per elimination panel: the pivots of a panel update only its own
# columns one by one, and the block to its left once, by one matrix product.
_PANEL = 32


def _eliminate(J: SymMatrix) -> tuple[np.ndarray, float]:
    """The bottom-up elimination of :func:`sddkit.bounds.block_det_ratio`.

    It runs in panels of ``_PANEL`` rows from the bottom.  Within a panel
    each pivot updates only the panel's columns; the block to the panel's
    left then takes the panel's whole Schur update, C D^{-1} C', as one
    matrix product.  For n <= ``_PANEL`` there is one panel and the steps
    are the plain rank-one updates.
    """
    a = J.entries
    n = J.n
    floors = (n - np.arange(n)) * np.finfo(float).eps * np.maximum(
        _trailing_block_norms(a), np.finfo(float).tiny)
    w = a.copy()
    for e in range(n, 0, -_PANEL):
        s = max(e - _PANEL, 0)
        for k in range(e - 1, max(s, 1) - 1, -1):
            pivot = w[k, k]
            if abs(pivot) <= floors[k]:
                raise SingularBlockError(
                    f"trailing block starting at row {k + 1} is singular "
                    f"(pivot {abs(pivot):.3e})",
                    block_index=k + 1,
                )
            col = w[:k, k]
            w[:k, s:k] -= np.outer(col / pivot, col[s:k])
        if s:
            C = w[:s, s:e]
            w[:s, :s] -= (C / w.diagonal()[s:e]) @ C.T
    factors = w.diagonal()[:-1] / a.diagonal()[:-1]
    factors.setflags(write=False)
    return factors, float(np.prod(factors))


def eigen_sym(M: SymMatrix) -> np.ndarray:
    """All eigenvalues, ascending, by the LAPACK symmetric eigensolver
    (``numpy.linalg.eigh``) with a per-pair residual certificate.

    Each computed pair satisfies |M v - lam v|_2 <= 1e-10 * inf_norm(M);
    otherwise :class:`EigenConvergenceError` reports the attained residual.
    """
    a = M.entries
    try:
        lams, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"LAPACK eigensolver failed: {exc}",
                                    residual=math.inf) from exc
    resid_cols = a @ vecs - vecs * lams
    residual = float(np.sqrt((resid_cols * resid_cols).sum(axis=0)).max())
    bound = 1e-10 * inf_norm(M)
    if residual > bound:
        raise EigenConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {bound:.3e}",
            residual=residual,
        )
    return lams


# Matrix text format: first line "n", then n whitespace-separated rows of n
# finite decimal reals.  Symmetry is validated on load with 1e-9 relative
# tolerance.

def load_matrix(path) -> SymMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixFormatError("empty file", line=1)
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
        # A finite sum rules out inf and nan; finite entries can still sum
        # past the largest float, so an infinite sum is checked entry-wise.
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
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


def save_matrix(M: SymMatrix, path) -> None:
    # 17 significant digits round-trips float64 exactly.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{M.n}\n")
        for row in M.entries:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")
