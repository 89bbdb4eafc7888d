"""Dense symmetric-matrix kernels and the analysis of one matrix.

Construction and validation of symmetric matrices, diagonal-dominance
diagnostics, an LU-based inversion oracle and a Cholesky inverse for
positive definite input, infinity norms, the LAPACK symmetric eigensolver
with a per-pair residual certificate, and matrix text I/O.

A :class:`SymMatrix` never changes, so it carries its own analysis: the
dominance report, the SDD elimination without pivoting that gives the
determinant ratio (det(J) itself is never formed), and inf_norm(J^{-1}).
Each is the matrix's row of a kernel run once, at the first read, on its
whole stack of same-size matrices (:func:`_classify_stack`,
:func:`_eliminate_stack`, :func:`_inv_norm_stack`; :func:`_eigen_stack`
too takes stacks).  Every bound and CLI command reads these members.

One rule keeps the kernels inside the float range: a matrix whose largest
|entry| lies outside [2^-960, 2^960] is scaled into [0.5, 1) by a power of
two (:func:`_prescaled`), any other matrix is used as it is, every infinity
norm that a decision reads is taken at that scale (:func:`_unit_inf_norm`),
and every closed form is evaluated at unit scale by :func:`_at_unit_scale`.

All operations are pure functions of their inputs.  Matrix values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field

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
    """Matrix is singular to working precision, or its inverse has an entry
    past the float range.

    Carries the smallest pivot in ``pivot``: the magnitude of the smallest LU
    pivot, or the smallest squared Cholesky pivot (the failing, non-positive
    one if the factorization broke down).
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
    and frozen read-only at construction.  It is copied first unless it is
    already a read-only float64 array that owns its memory.  Asymmetric input
    is rejected, so results of floating-point arithmetic that are symmetric
    only up to roundoff are averaged with their transpose first.

    Each analysis member reads the matrix's row of a stack kernel; a row
    that is an error raises on every read.
    """

    entries: np.ndarray
    # (stack, kernel results by member, row): the matrix is stack[row].
    _stack: tuple = field(init=False, repr=False)

    def __post_init__(self):
        a = self.entries
        # A read-only float array that owns its memory was handed over by a
        # caller that never writes to it again (see _adopt); anything else is
        # copied, so later writes by the caller cannot reach the matrix.
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                and a.flags.owndata and not a.flags.writeable):
            a = np.array(a, dtype=float)
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
        object.__setattr__(self, "_stack", (a[None], {}, 0))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def _row(self, member: str, kernel):
        """This matrix's row of ``kernel``, run on the whole stack once."""
        stack, results, row = self._stack
        if member not in results:
            results.setdefault(member, kernel(stack))
        out = results[member][row]
        if isinstance(out, Exception):
            raise out.with_traceback(None)
        return out

    @property
    def dominance(self) -> "DominanceReport":
        """The :func:`classify` report, from :func:`_classify_stack`."""
        return self._row("dominance", _classify_stack)

    @property
    def elimination(self) -> tuple[np.ndarray, float]:
        """(factors, ratio) of :func:`_eliminate_stack`, ``factors``
        read-only; see :func:`sddkit.bounds.block_det_ratio`."""
        return self._row("elimination", _eliminate_stack)

    @property
    def inv_inf_norm(self) -> float:
        """inf_norm(J^{-1}), from :func:`_inv_norm_stack`."""
        return self._row("inv_inf_norm", _inv_norm_stack)


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


def _adopt(a: np.ndarray) -> SymMatrix:
    """A SymMatrix holding ``a`` itself, not a copy, for a float64 array the
    caller just built and never writes to again; every check still runs."""
    a.setflags(write=False)
    return SymMatrix(a)


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
    return _adopt(work)


def _fill_upper(a: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of the square array ``a`` onto its upper
    triangle, in place, and return ``a``.

    It goes by blocks of rows, so it needs no n x n temporary.
    """
    n = a.shape[0]
    step = 64
    for s in range(0, n, step):
        e = min(s + step, n)
        block = a[s:e, s:e]
        upper = np.triu_indices(e - s, 1)
        block[upper] = block.T[upper]
        a[s:e, e:] = a[e:, s:e].T
    return a


def delta(J: SymMatrix) -> np.ndarray:
    """Per-row dominance margins |J_ii| - sum_{j != i} |J_ij|: a copy of
    ``J.dominance.deltas``."""
    return J.dominance.deltas.copy()


def classify(J: SymMatrix) -> DominanceReport:
    """Classify dominance within tol = 1e-12 * inf_norm(J) on the margins
    (floating balanced matrices rarely have exact zero margins).

    dominant iff delta_i >= -tol for all i; balanced iff |delta_i| <= tol for
    all i; strictly dominant iff delta_i > tol for all i.  Margins use |J_ii|,
    so a negative diagonal can pass; bounds that need J_ii > 0 check it.
    This is ``J.dominance``, J's row of :func:`_classify_stack`.
    """
    return J.dominance


def _classify_stack(a: np.ndarray) -> list[DominanceReport]:
    """The :func:`classify` report of each matrix of the (k, n, n) stack
    ``a``, from whole-stack reductions along the last axis.

    Each row's sums, and each matrix's norm, tolerance and off-diagonal
    extremes, reduce that row or matrix alone, so every field keeps the bits
    of a stack of one.

    The margins 2|J_ii| - sum_j |J_ij| are formed on |J| prescaled
    (:func:`_prescaled`) and scaled back, to +-inf past the float range.
    """
    k, n = a.shape[:2]
    w, e = _prescaled(np.abs(a), copy=False)
    rows = w.sum(axis=2)
    d = 2.0 * w.diagonal(axis1=1, axis2=2) - rows
    tol = (1e-12 * rows.max(axis=1))[:, None]
    if n >= 2:
        # In row order, a matrix's entries after its first are n - 1 runs of
        # n off-diagonal entries, each run followed by a diagonal one.  The
        # runs are gathered in that order, by slicing, not by a mask over
        # the stack, which numpy indexes entry by entry.
        off = a.reshape(k, n * n)[:, 1:].reshape(k, n - 1, n + 1)[:, :, :n].reshape(k, -1)
        lows, highs = off.min(axis=1).tolist(), off.max(axis=1).tolist()
    else:
        lows = highs = [None] * k
    # (is_dominant, is_balanced, is_strictly_dominant) of each matrix
    flags = zip((d >= -tol).all(axis=1).tolist(), (np.abs(d) <= tol).all(axis=1).tolist(),
                (d > tol).all(axis=1).tolist())
    with np.errstate(over="ignore"):
        d = np.ldexp(d, e[:, None])
    return [DominanceReport(deltas, *flag, lo, hi, top)
            for deltas, flag, lo, hi, top in zip(d, flags, lows, highs, d.max(axis=1).tolist())]


def inf_norm(M: SymMatrix) -> float:
    """Maximum absolute row sum; inf where it is past the largest float."""
    with np.errstate(over="ignore"):
        return float(np.abs(M.entries).sum(axis=1).max())


def _unit_inf_norm(a: np.ndarray) -> tuple[float, int]:
    """(inf_norm(a 2^-e), e) for the matrix ``a``, with e the exponent of
    :func:`_prescaled`: the infinity norm every decision reads, finite for
    any finite ``a``, and inf_norm(a) itself where e = 0."""
    w, e = _prescaled(np.abs(a), copy=False)
    return float(w.sum(axis=1).max()), int(e)


def _cond_inf(J: SymMatrix) -> float:
    """inf_norm(J) * inf_norm(J^{-1}), of degree 0 in J, formed at J's unit
    scale (:func:`_unit_inf_norm`), so it is finite where inf_norm(J) alone
    is past the float range."""
    norm, e = _unit_inf_norm(J.entries)
    with np.errstate(over="ignore"):
        return norm * float(np.ldexp(J.inv_inf_norm, e))


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _at_unit_scale(form, degree: int, *params: float) -> float:
    """``form(*params)`` for a closed form homogeneous of degree ``degree``
    in its non-negative ``params``, evaluated on them times 2^-e, e the
    exponent (``frexp``'s) of the largest, and multiplied by 2^(degree e)
    once, to inf past the largest float: exact, so the value keeps the
    unscaled bits wherever those neither over- nor underflow.  A nonzero
    parameter over 2^1022 times below the largest would lose bits or be
    flushed to zero at that scale, so with one the form as it stands is
    kept where it is a normal float."""
    e = math.frexp(max(params))[1]
    scaled = [math.ldexp(p, -e) for p in params]
    if any(p and s < _TINY for p, s in zip(params, scaled)):
        with contextlib.suppress(ZeroDivisionError):
            if _TINY <= abs(value := form(*params)) < math.inf:
                return value
    value = form(*scaled)
    try:
        return math.ldexp(value, degree * e)
    except OverflowError:
        return math.inf


def _floor(size, norm):
    """size * eps * max(norm, tiny), element-wise: every factorization's
    singular floor for a pivot of a size x size matrix of inf-norm ``norm``."""
    return size * _EPS * np.maximum(norm, _TINY)


def _check_pivot(smallest: float, n: int, norm: float, failed: bool = False,
                 e: int = 0) -> None:
    """Raise :class:`SingularMatrixError` if the factorization ``failed`` or
    the smallest pivot of an n x n matrix of infinity norm ``norm`` is at or
    below its :func:`_floor`; the error carries the pivot times 2^e."""
    if failed or smallest <= _floor(n, norm):
        pivot = math.ldexp(smallest, e)
        raise SingularMatrixError(
            f"matrix singular to working precision (pivot {pivot:.3e})",
            pivot=pivot,
        )


def inverse_dense(J: SymMatrix) -> SymMatrix:
    """Invert via pivoted LU and re-symmetrize the result.

    Pivoted LU (rather than Cholesky) so the same oracle inverts indefinite
    matrices.  J is prescaled (:func:`_prescaled`), the inverse scaled back.
    Raises :class:`SingularMatrixError` carrying the smallest pivot
    magnitude, in J's units, when J is singular to working precision, or
    when an entry of its inverse is past the float range.
    """
    return _inverse(J.entries)


def _inverse(a: np.ndarray, as_norm: bool = False):
    """:func:`inverse_dense` of the symmetric array ``a``, or with ``as_norm``
    the inverse's inf_norm, which past the float range raises the error of
    an entry past it, though every entry is finite."""
    n = a.shape[0]
    # a is symmetric, so its transpose is the same matrix in Fortran order:
    # the scaled copy is factored in place, and its transpose is C-ordered,
    # so the norm sums each row as inf_norm does.
    scaled, e = _prescaled(a.T)
    e = int(e)
    norm = float(np.abs(scaled.T).sum(axis=1).max())
    with warnings.catch_warnings():
        # Exactly singular input triggers a scipy warning before our own
        # pivot check runs; the check below raises in that case.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(scaled, overwrite_a=True, check_finite=False)
    smallest = float(np.abs(lu.diagonal()).min())
    _check_pivot(smallest, n, norm, e=e)
    # Solve into a Fortran-ordered identity in place, so LAPACK needs no
    # copy of it, and free the factor before the mean takes its scratch.
    # The solve is asymmetric only by roundoff, which grows with the
    # condition number, so no skew guard applies.
    inv = scipy.linalg.lu_solve((lu, piv), np.eye(n, order="F"),
                                overwrite_b=True, check_finite=False)
    del lu, scaled
    with np.errstate(over="ignore"):
        np.ldexp(inv, -e, out=inv)
    inv = _mean_with_transpose(_in_range(inv, smallest, e))
    return _in_range(inf_norm(inv), smallest, e) if as_norm else inv


def _in_range(x, smallest: float, e: int):
    """``x``, the inverse of a matrix prescaled by 2^-e (:func:`_prescaled`)
    or that inverse's inf_norm, in the matrix's own units; past the float
    range, the range rule of both inverses raises :class:`SingularMatrixError`
    carrying the smallest pivot ``smallest`` times 2^e."""
    if not np.isfinite(x).all():
        pivot = math.ldexp(smallest, e)
        raise SingularMatrixError(f"inverse past the float range (pivot {pivot:.3e})", pivot=pivot)
    return x


def _inv_norm_stack(a: np.ndarray) -> list:
    """inf_norm(J^{-1}) of each matrix J of the (k, n, n) stack ``a``, one
    :func:`inverse_dense` LU per matrix, or J's :class:`SingularMatrixError`."""
    out = []
    for m in a:
        try:
            out.append(_inverse(m, as_norm=True))
        except SingularMatrixError as err:
            out.append(err)
    return out


def _inverse_cholesky(a: np.ndarray) -> SymMatrix:
    """The inverse of the symmetric positive definite, C-ordered float64
    array ``a``, computed in ``a``'s own memory, which the caller hands over.

    One Cholesky factorization (``potrf``, n^3/3 flops) and the inverse from
    the factor (``potri``, 2n^3/3).  Both work on one triangle, which is then
    copied onto the other, so the result is exactly symmetric with no
    averaging.  As in :func:`inverse_dense`, ``a`` is prescaled
    (:func:`_prescaled`) and the inverse scaled back once.  A factorization
    that breaks down, or a squared pivot at or below :func:`inverse_dense`'s
    floor, raises :class:`SingularMatrixError`, as does an inverse entry
    past the float range.
    """
    n = a.shape[0]
    e = int(_prescaled(a, copy=False)[1])  # a is scaled in place
    norm = float(np.abs(a).sum(axis=1).max())
    # a is symmetric, so its transpose is the same matrix in Fortran order,
    # which LAPACK works on in place; its upper triangle is a's lower one.
    f, info = scipy.linalg.lapack.dpotrf(a.T, lower=0, clean=0, overwrite_a=1)
    pivots = f.diagonal()
    # potrf stops at the first squared pivot that is not positive and leaves
    # it in place.
    smallest = float(pivots[info - 1]) if info else float((pivots * pivots).min())
    _check_pivot(smallest, n, norm, failed=info > 0, e=e)
    # Every pivot is positive, so potri cannot fail.
    scipy.linalg.lapack.dpotri(f, lower=0, overwrite_c=1)
    with np.errstate(over="ignore"):
        np.ldexp(_fill_upper(a), -e, out=a)
    return _adopt(_in_range(a, smallest, e))


def _trailing_block_norms(a: np.ndarray) -> np.ndarray:
    """inf_norm(a[k:, k:]) for every k, from row-suffix sums in O(n^2), for
    one matrix or for each matrix of a stack, in one scratch array."""
    w = np.abs(a)
    suffix = w[..., ::-1]
    np.cumsum(suffix, axis=-1, out=suffix)  # w_ij: the sum of |a_il| over l >= j
    below = w[..., ::-1, :]
    np.maximum.accumulate(below, axis=-2, out=below)  # then the max of those over rows >= i
    return np.diagonal(w, axis1=-2, axis2=-1)


def _pivot_floors(a: np.ndarray) -> np.ndarray:
    """The singular floor of every pivot: (n - k) * eps * inf_norm(a[k:, k:]),
    the :func:`_floor` of the trailing block from row k."""
    n = a.shape[-1]
    return _floor(n - np.arange(n), _trailing_block_norms(a))


def _prescaled(a: np.ndarray, copy: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of the stack ``a``, or the one matrix ``a``, times 2^-e,
    and e: in a new array, or with ``copy`` false in ``a``, which the
    caller hands over.

    The float-range rule of every matrix kernel: e is the exponent
    (``frexp``'s) of the matrix's largest |a_ij| where that lies outside
    [2^-960, 2^960], which scales it into [0.5, 1), and 0 for any other
    matrix, which keeps its bits, so a small block beside large entries is
    not pushed into the subnormal range.  A power of two scales every step
    of an elimination or LU, and its floors, exactly while they stay
    normal, so a scaled matrix's pivot ratios keep their bits, and entries
    near either end of the float range neither overflow nor lose bits.
    """
    largest = np.abs(a).max(axis=(-2, -1))
    far = (largest < 2.0 ** -960) | (largest > 2.0 ** 960)
    e = np.where(far, np.frexp(largest)[1], 0)
    w = a.copy(order="K") if copy else a
    if far.any():
        w[far] = np.ldexp(w[far], -e[far, None, None])
    return w, e


def _singular_block(k: int, pivot: float) -> SingularBlockError:
    return SingularBlockError(
        f"trailing block starting at row {k + 1} is singular "
        f"(pivot {abs(pivot):.3e})",
        block_index=k + 1,
    )


# Rows per elimination panel: the pivots of a panel update only its own
# columns one by one, and the block to its left once, by one matrix product.
_PANEL = 32


def _pivots(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pivots of the elimination of each matrix of the (k, n, n) stack
    ``a``, and the row of each one's first singular pivot, -1 for none.
    The elimination runs in ``a``'s own memory, which the caller hands over;
    the pivots are a view of its diagonals.

    The rows go in panels of ``_PANEL`` from the bottom.  Within a panel
    each pivot updates only the panel's columns, element-wise on the whole
    stack; the block to the panel's left then takes the panel's whole Schur
    update, C D^{-1} C', as one stacked matrix product.  Each matrix's
    pivots are bitwise those of its own elimination.

    The loops judge no pivot: a matrix runs on past a singular one, and what
    it divides by that pivot lands only in its own rows above it, which no
    result reads.  A pivot is final once its row is reached, so afterwards
    one pass takes each matrix's first singular pivot from the bottom.  A
    pivot is singular unless its magnitude exceeds its floor, so a NaN pivot
    is singular too; the pivot of row 0 is only a factor and is not judged.
    """
    n = a.shape[-1]
    floors = _pivot_floors(a)
    w = a
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for e in range(n, 0, -_PANEL):
            s = max(e - _PANEL, 0)
            for k in range(e - 1, max(s, 1) - 1, -1):
                col = w[:, :k, k]
                w[:, :k, s:k] -= (col / w[:, k, k, None])[:, :, None] * col[:, None, s:k]
            if s:
                C = w[:, :s, s:e]
                D = np.diagonal(w, axis1=1, axis2=2)[:, None, s:e]
                w[:, :s, :s] -= (C / D) @ np.swapaxes(C, 1, 2)
    pivots = np.diagonal(w, axis1=1, axis2=2)
    regular = np.abs(pivots) > floors
    regular[:, 0] = True  # the pivot of row 0 is only a factor
    return pivots, np.where(regular, -1, np.arange(n)).max(axis=1)


def _eliminate_stack(a: np.ndarray) -> list:
    """The bottom-up elimination of :func:`sddkit.bounds.block_det_ratio`
    for each matrix of the (k, n, n) stack ``a``: per matrix, the pair
    (factors, ratio) with ``factors`` read-only, or the
    :class:`SingularBlockError` of its first singular pivot, in the
    matrix's own units.  The whole stack, prescaled (:func:`_prescaled`),
    runs through :func:`_pivots`, which spreads numpy's fixed cost per step
    over the stack.
    """
    scaled, e = _prescaled(a)
    diag = np.diagonal(scaled, axis1=1, axis2=2).copy()
    pivots, singular = _pivots(scaled)
    ok = singular < 0
    factors = pivots[ok, :-1] / diag[ok, :-1]
    factors.setflags(write=False)
    done = zip(factors, np.prod(factors, axis=1).tolist())
    return [next(done) if k < 0 else _singular_block(k, math.ldexp(float(pivots[j, k]), int(e[j])))
            for j, k in enumerate(singular.tolist())]


def _stack_of(a: np.ndarray) -> list[SymMatrix]:
    """A :class:`SymMatrix` of each matrix of the (k, n, n) stack ``a``,
    which the caller hands over, all sharing one run of each stack kernel
    on ``a``: each row has the bits of a stack of one."""
    a.setflags(write=False)
    results = {}
    mats = [SymMatrix(m) for m in a]
    for row, J in enumerate(mats):
        object.__setattr__(J, "_stack", (a, results, row))
    return mats


def _eigen_stack(a: np.ndarray) -> tuple[np.ndarray, list]:
    """The eigenvalues, ascending, of each matrix of the (k, n, n) stack
    ``a`` by one ``numpy.linalg.eigh`` call, and per matrix None or the
    :class:`EigenConvergenceError` of its residual certificate (see
    :func:`eigen_sym`).

    LAPACK runs on the matrices one by one, and the residuals are
    element-wise or per matrix, so each matrix's eigenvalues and residual
    are bitwise those of its own call.  A LAPACK failure raises for the
    whole stack.

    Each matrix's residual is formed at unit scale: its residual columns
    are scaled by 2^-e, e the exponent of its largest |entry| (which, unlike
    its norm, is never past the float range), before they are squared, and
    the residual by 2^e after.  That is exact, so the residual keeps its
    bits, and the squares stay finite.
    """
    try:
        lams, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"LAPACK eigensolver failed: {exc}",
                                    residual=math.inf) from exc
    w = np.abs(a)
    with np.errstate(over="ignore"):
        norms = w.sum(axis=2).max(axis=1)
    e = np.frexp(w.max(axis=(1, 2)))[1]
    resid_cols = a @ vecs - vecs * lams[:, None, :]
    np.ldexp(resid_cols, -e[:, None, None], out=resid_cols)
    residuals = np.ldexp(np.sqrt((resid_cols * resid_cols).sum(axis=1)).max(axis=1), e)
    bounds = 1e-10 * norms
    return lams, [EigenConvergenceError(f"eigenpair residual {r:.3e} exceeds {b:.3e}",
                                        residual=r) if r > b else None
                  for r, b in zip(residuals.tolist(), bounds.tolist())]


def eigen_sym(M: SymMatrix) -> np.ndarray:
    """All eigenvalues, ascending, by the LAPACK symmetric eigensolver
    (``numpy.linalg.eigh``) with a per-pair residual certificate.

    Each computed pair satisfies |M v - lam v|_2 <= 1e-10 * inf_norm(M);
    otherwise :class:`EigenConvergenceError` reports the attained residual.
    One matrix is a stack of one for :func:`_eigen_stack`.
    """
    lams, errors = _eigen_stack(M.entries[None])
    if errors[0] is not None:
        raise errors[0]
    return lams[0]


def _require_plain_text(raw: str, line: int, error) -> None:
    """Raise ``error`` for a line that is not ASCII or holds a ``_``.

    Python's int() and float() also read digits of other scripts (Arabic-
    Indic one-two as 12) and ``_`` digit separators (``1_000``), which no
    decimal numeral of a file format here contains.  ``str.isascii`` is O(1)
    in CPython.
    """
    if not raw.isascii() or "_" in raw:
        raise error(f"not a plain ASCII decimal line: {raw!r}", line=line)


def _numbered_lines(fh, error):
    """Yield ``(lineno, line)`` for the text file ``fh``, numbered and split
    exactly as ``str.splitlines`` splits the whole text, one physical line
    at a time; each line must pass :func:`_require_plain_text`.

    A physical line can hold several logical ones: besides ``\\n``,
    splitlines also breaks at ``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``,
    ``\\u2028`` and ``\\u2029``.

    The loaders open ``fh`` with ``errors="surrogateescape"``: a byte that is
    not UTF-8 then reads as a lone surrogate, which is not ASCII, so the
    line holding it is rejected with its number.
    """
    lineno = 0
    for physical in fh:
        for line in physical.splitlines():
            lineno += 1
            _require_plain_text(line, lineno, error)
            yield lineno, line


def _read_count(lines, error, noun: str) -> int:
    """The single integer >= 1 on the first of the numbered ``lines``;
    ``error`` at line 1 names it by ``noun``."""
    first = next(lines, None)
    if first is None:
        raise error("empty file", line=1)
    head = first[1].split()
    if len(head) != 1:
        raise error(f"expected a single {noun}, got {first[1]!r}", line=1)
    try:
        n = int(head[0])
    except ValueError:
        raise error(f"bad {noun} {head[0]!r}", line=1) from None
    if n < 1:
        raise error(f"{noun} must be >= 1, got {n}", line=1)
    return n


# Matrix text format: first line "n", then n rows of n finite decimal reals,
# separated by any whitespace; blank lines are skipped.  Every line must be
# ASCII without "_".  The file must be symmetric to 1e-9 relative skew, and
# a nearly symmetric one is averaged with its transpose.  Mirrored entries
# are usually spelled alike (save_matrix spells both with .17g), so an entry
# below the diagonal is parsed only when its text differs from its mirror's:
# a file of identical spellings costs n(n+1)/2 decimal parses, not n^2.

def load_matrix(path) -> SymMatrix:
    """Read a matrix text file (format above) as a :class:`SymMatrix`.

    One pass over the lines, read one at a time, filling the n x n array
    as each row arrives.  Each row's entries on and above the diagonal are
    parsed.  An entry below it whose text equals its mirror's takes the
    mirror's parsed value; any other, such as ``1.0`` mirroring ``1``, is
    parsed itself.  So the entries are bitwise those of parsing every token.
    Besides the array, only the column tokens not yet mirrored are kept,
    about n^2/4 strings at most.

    Raises :class:`MatrixFormatError` with the 1-based ``line`` of the first
    bad line: a line that is not ASCII or holds a ``_``, content after n
    rows, a row of the wrong length, a bad number, a non-finite entry, or
    missing rows (reported at the last line).  Raises
    :class:`AsymmetricMatrixError` past the skew tolerance.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = _numbered_lines(fh, MatrixFormatError)
        n = _read_count(lines, MatrixFormatError, "dimension")
        cols = []          # cols[k]: the tokens (j, k) of the rows j < k read so far
        i = 0              # rows read
        lineno = 1
        respelled = False  # some entry below the diagonal is spelled unlike its mirror
        for lineno, raw in lines:
            if not raw.strip():
                continue
            if i == n:
                raise MatrixFormatError(f"unexpected content after {n} rows", line=lineno)
            mirror = cols[i] if i else []
            # A line that starts with the mirror's tokens, as save_matrix writes
            # them, needs only its remainder split.
            prefix = " ".join(mirror)
            if i and raw.startswith(prefix) and raw[len(prefix):len(prefix) + 1] in (" ", "\t"):
                lower, upper = mirror, raw[len(prefix) + 1:].split()
            else:
                parts = raw.split()
                lower, upper = parts[:i], parts[i:]
            if len(lower) + len(upper) != n:
                raise MatrixFormatError(f"expected {n} entries, got {len(lower) + len(upper)}",
                                        line=lineno)
            diff = [j for j in range(i) if lower[j] != mirror[j]] if lower != mirror else []
            try:
                values = list(map(float, upper))
                fixed = [float(lower[j]) for j in diff]
            except ValueError:
                raise MatrixFormatError(f"bad number in row {raw!r}", line=lineno) from None
            # A finite sum rules out inf and nan; finite entries can still sum
            # past the largest float, so an infinite sum is checked entry-wise.
            # Mirrored entries were checked with their own row.
            if not math.isfinite(sum(values) + sum(fixed)) \
                    and not all(map(math.isfinite, values + fixed)):
                raise MatrixFormatError(f"non-finite entry in row {raw!r}", line=lineno)
            if not i:
                # Allocated once the first row holds n entries, so a dimension
                # line the file does not back claims no memory.
                a = np.empty((n, n))
                cols = [[] for _ in range(n)]
            for col, token in zip(cols[i + 1:], upper[1:]):
                col.append(token)
            cols[i] = None
            a[i, i:] = values
            a[i, :i] = a[:i, i]
            if diff:
                a[i, diff] = fixed
                respelled = True
            i += 1
    if i != n:
        raise MatrixFormatError(f"expected {n} rows, found {i}", line=lineno)
    if not respelled:
        # Every entry below the diagonal holds its mirror's bits.
        return _adopt(a)
    skew = float(np.abs(a - a.T).max())
    scale = max(float(np.abs(a).max()), np.finfo(np.float64).tiny)
    if skew > 1e-9 * scale:
        raise AsymmetricMatrixError(
            f"matrix file is not symmetric: relative skew {skew / scale:.3e} > 1e-9"
        )
    if skew == 0.0:
        return _adopt(a)
    return _mean_with_transpose(a)


def save_matrix(M: SymMatrix, path) -> None:
    # 17 significant digits round-trips float64 exactly.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{M.n}\n")
        for row in M.entries:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")
