"""Inequality certificates for SDD positive matrices.

Each operation evaluates one inequality on a concrete matrix and returns a
:class:`BoundReport` with both sides, a holds flag, the signed slack, and
the parameters that entered the bound.  Reports never pass silently: a
violated precondition yields an inapplicable report, and a vacuous bound
(no information) is flagged rather than dropped.

Comparisons use tol = 1e-9 * max(1, |rhs|), recorded in the report context.
The hypotheses are checked with margins relative to the entries (1e-12
times the largest off-diagonal entry or the infinity norm), so a report
on 2^k J keeps the verdict of the report on J.

One seeded-trial engine runs both the verification suites
(:func:`verify_suite`) and the searches over the paper's two conjectured
inequalities (:func:`conjecture_search`); each yields a list of
:class:`SuiteRecord`, one per report.  The engine draws its trials in
chunks and analyses each chunk's matrices of one size as one stack, with
the same records, bit for bit, as running the trials one by one.  Every
suite has one analysis shape: an optional kernel call that turns the
stack into one item per trial, then a per-trial function of that item.
No suite classifies its matrices one by one: the determinant suites
classify and eliminate each stack at once
(:func:`sddkit.matcore._eliminated`) and then call the public bounds, which
read each matrix's dominance report and elimination; the eig suite
classifies the raw stack (:func:`sddkit.matcore._classify_stack`), gates
each report, and solves the matrices that pass in one stacked check that
:func:`eig_interval_check` runs as a stack of one.  Every bound has one
implementation, and one gate (``_gate``) serves them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .matcore import (
    EigenConvergenceError,
    MatrixError,
    SingularBlockError,
    SymMatrix,
    _classify_stack,
    _eigen_stack,
    _eliminate_stack,
    _eliminated,
    _floor,
    eigen_sym,
    inf_norm,
)
from .sform import SForm, sform_dense, sform_inf_norm_inverse, sform_inverse
from .graphlimit import signless_laplacian
from . import randmat

__all__ = [
    "BoundReport",
    "XiResult",
    "SingularBlockError",
    "varah_bound",
    "main_bound",
    "lower_bound_trivial",
    "spectral_route_bound",
    "condition_bound",
    "eig_interval_check",
    "block_det_ratio",
    "det_ratio_lu",
    "det_lower_bound",
    "det_upper_bound_balanced",
    "adjugate_bound",
    "hadamard_sanity",
    "xi_functional",
    "conjecture_search",
    "SuiteRecord",
    "verify_suite",
    "SUITES",
    "CONJECTURES",
]


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality: lhs <= rhs up to the recorded tolerance.

    ``vacuous`` marks bounds that carry no information (trivially true or a
    non-positive lower bound); ``applicable`` is False when a precondition
    failed, in which case lhs/rhs/slack are NaN and holds is False.
    """

    name: str
    lhs: float
    rhs: float
    holds: bool
    slack: float
    vacuous: bool
    applicable: bool
    context: dict = field(default_factory=dict)


def _report(name: str, lhs: float, rhs: float, vacuous: bool = False,
            **context) -> BoundReport:
    context["tol"] = tol = 1e-9 * max(1.0, abs(rhs))
    return BoundReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        holds=bool(lhs <= rhs + tol),
        slack=float(rhs - lhs),
        vacuous=vacuous,
        applicable=True,
        context=context,
    )


def _inapplicable(name: str, reason: str, **context) -> BoundReport:
    context["reason"] = reason
    nan = float("nan")
    return BoundReport(
        name=name, lhs=nan, rhs=nan, holds=False, slack=nan,
        vacuous=True, applicable=False, context=context,
    )


def _gate(name: str, rep, diag: np.ndarray, ell, m, need: str = "dominant"):
    """Check the hypotheses the interval-type bounds share, on the
    :func:`~sddkit.matcore.classify` report ``rep`` of an n x n matrix J and
    its diagonal ``diag``.

    In order: n >= 3, [ell, m] brackets the off-diagonal entries up to
    1e-12 times the largest of them (a missing end defaults to the observed
    extreme), J is diagonally ``need`` ("dominant" or "balanced"), and
    every J_ii > 0 (dominance is measured with |J_ii|).  A single-matrix
    bound passes ``J.dominance``; the eig suite passes the reports of one
    :func:`~sddkit.matcore._classify_stack` call.  Returns (ell, m, bad)
    where ``bad`` is the inapplicable report for the first failed
    hypothesis, else None.
    """
    n = diag.size
    if n < 3:
        return ell, m, _inapplicable(name, "needs n >= 3", n=n)
    if ell is None:
        ell = rep.min_offdiag
    if m is None:
        m = rep.max_offdiag
    slack = 1e-12 * rep.max_offdiag
    if not (0 < ell <= rep.min_offdiag + slack and rep.max_offdiag <= m + slack):
        return ell, m, _inapplicable(
            name, "[ell, m] does not bracket the off-diagonals",
            n=n, ell=float(ell), m=float(m))
    if not (rep.is_balanced if need == "balanced" else rep.is_dominant):
        return ell, m, _inapplicable(name, f"J not diagonally {need}", n=n)
    if not (diag > 0).all():
        return ell, m, _inapplicable(name, "needs a positive diagonal", n=n)
    return float(ell), float(m), None


def varah_bound(J: SymMatrix) -> BoundReport:
    """inf_norm(J^{-1}) <= max_i 1/margin_i for strictly dominant J.

    Inapplicable when any dominance margin is <= 0 (in particular for
    balanced matrices).
    """
    d = J.dominance.deltas
    if d.min() <= 0:
        return _inapplicable("varah", "not strictly diagonally dominant", n=J.n,
                             min_delta=float(d.min()))
    lhs = J.inv_inf_norm
    rhs = 1.0 / float(d.min())
    return _report("varah", lhs, rhs, n=J.n, min_delta=float(d.min()))


def main_bound(J: SymMatrix, S: SForm) -> BoundReport:
    """inf_norm(J^{-1}) <= (alpha + 2 ell (n-1))/(alpha (alpha + ell n)).

    Requires J symmetric diagonally dominant with J >= dense(S) entrywise,
    up to 1e-12 inf_norm(J), and S dominant; equality holds exactly when J
    equals dense(S).
    """
    if J.n != S.n:
        return _inapplicable("main", f"dimension mismatch {J.n} vs {S.n}")
    if not S.is_dominant:
        return _inapplicable("main", "reference family not diagonally dominant",
                             n=S.n, alpha=S.alpha, ell=S.ell)
    rep = J.dominance
    if not rep.is_dominant:
        return _inapplicable("main", "J not diagonally dominant", n=J.n)
    # dense(S) holds ell off the diagonal and alpha + ell on it; subtracting a
    # constant rounds monotonically, so each part's least difference is its
    # least entry minus that constant, bitwise the least entry of J - dense(S).
    gap = min(rep.min_offdiag - S.ell,
              float(J.entries.diagonal().min()) - (S.alpha + S.ell))
    if gap < -1e-12 * inf_norm(J):
        return _inapplicable("main", "J not entrywise >= reference matrix",
                             n=J.n, worst_gap=gap)
    lhs = J.inv_inf_norm
    rhs = sform_inf_norm_inverse(S)
    return _report("main", lhs, rhs, n=J.n, alpha=S.alpha, ell=S.ell)


def lower_bound_trivial(J: SymMatrix) -> BoundReport:
    """1/(2 m (n-1) + delta_max) <= inf_norm(J^{-1}).

    m is the largest off-diagonal entry and delta_max the largest dominance
    margin; follows from submultiplicativity of the infinity norm.
    """
    rep = J.dominance
    if J.n < 2 or rep.min_offdiag is None or rep.min_offdiag <= 0:
        return _inapplicable("lower", "needs positive off-diagonal entries", n=J.n)
    if not rep.is_dominant:
        return _inapplicable("lower", "J not diagonally dominant", n=J.n)
    m_hat = rep.max_offdiag
    d_hat = max(rep.max_delta, 0.0)
    lhs = 1.0 / (2.0 * m_hat * (J.n - 1) + d_hat)
    rhs = J.inv_inf_norm
    return _report("lower", lhs, rhs, n=J.n, m=m_hat, delta=d_hat)


def spectral_route_bound(J: SymMatrix, ell: float | None = None) -> BoundReport:
    """inf_norm(J^{-1}) <= sqrt(n) / ((n-2) ell) via the spectral norm.

    The context records the intermediate sqrt(n)/lambda_min and, for
    comparison, the sharper O(1/n) bound (3n-4)/(2 ell (n-2)(n-1)); the gap
    between the two is why the spectral route is too weak for large n.
    """
    ell, _, bad = _gate("spectral", J.dominance, J.entries.diagonal(), ell, None)
    if bad is not None:
        return bad
    n = J.n
    lams = eigen_sym(J)
    lhs = J.inv_inf_norm
    rhs = math.sqrt(n) / ((n - 2) * ell)
    intermediate = math.sqrt(n) / lams[0]
    sharp = (3 * n - 4) / (2.0 * ell * (n - 2) * (n - 1))
    return _report("spectral", lhs, rhs, n=n, ell=ell,
                   intermediate=float(intermediate), sharp_rhs=float(sharp))


def condition_bound(J: SymMatrix, ell: float | None = None) -> BoundReport:
    """cond_inf(J) <= (2 m (n-1) + delta_max)(3n-4) / (2 ell (n-2)(n-1)).

    For large n the right side approaches 3 m / ell.
    """
    rep = J.dominance
    ell, _, bad = _gate("cond", rep, J.entries.diagonal(), ell, None)
    if bad is not None:
        return bad
    n = J.n
    m_hat = rep.max_offdiag
    d_hat = max(rep.max_delta, 0.0)
    lhs = inf_norm(J) * J.inv_inf_norm
    rhs = (2.0 * m_hat * (n - 1) + d_hat) * (3 * n - 4) / (2.0 * ell * (n - 2) * (n - 1))
    return _report("cond", lhs, rhs, n=n, ell=ell, m=m_hat, delta=d_hat)


def eig_interval_check(J: SymMatrix, ell: float | None = None,
                       m: float | None = None, i: int = 1) -> BoundReport:
    """Eigenvalue intervals for the trailing (n-i+1)-dimensional block.

    For balanced J with off-diagonal entries in [ell, m], the block's
    eigenvalues satisfy (n-2) ell <= lam_j <= (n-2) m for all but the
    largest, and (2n-i-1) ell <= lam_max <= (2n-i-1) m.  For dominant
    (non-balanced) J only the lower bounds are asserted.

    The report compresses all interval constraints into one comparison:
    lhs is the largest violation across constraints and rhs is 0, so
    slack is the worst margin by which the eigenvalues clear the intervals.
    J runs as a stack of one through the eig suite's implementation, with
    its own ``dominance`` report.
    """
    n = J.n
    if not 1 <= i <= n - 1:
        return _inapplicable("eig", f"block index {i} outside 1..{n - 1}", n=n, i=i)
    out, = _eig_checks(J.entries[None], [J.dominance], [i], ell, m)
    if isinstance(out, EigenConvergenceError):
        raise out
    return out[0]


def _eig_checks(a: np.ndarray, reports: list, blocks, ell=None, m=None) -> list:
    """The :func:`eig_interval_check` reports of each block i in ``blocks``
    (each in 1..n-1) for each matrix of the (k, n, n) stack ``a`` of
    symmetric matrices, whose :func:`~sddkit.matcore.classify` reports are
    ``reports``: per matrix, its reports in block order, or the
    :class:`EigenConvergenceError` of its first uncertified block.

    Each matrix passes the gate once: a matrix that fails it gets that one
    outcome as each block's report, with the block's ``i`` in its context.
    Each block's eigenvalues come from one stacked eigensolve over the
    matrices that passed (:func:`sddkit.matcore._eigen_stack`), bitwise
    those of a stack of one.
    """
    n = a.shape[1]
    gates = [_gate("eig", rep, diag, ell, m)
             for rep, diag in zip(reports, a.diagonal(axis1=1, axis2=2))]
    out = [[] if bad is None else
           [replace(bad, context={"n": n, "i": i, **bad.context}) for i in blocks]
           for _, _, bad in gates]
    rows = [j for j, gate in enumerate(gates) if gate[2] is None]
    if not rows:
        return out
    stack = a[rows]
    ell_col = np.array([gates[j][0] for j in rows])[:, None]
    m_col = np.array([gates[j][1] for j in rows])[:, None]
    for i in blocks:
        lams, errors = _eigen_stack(np.ascontiguousarray(stack[:, i - 1:, i - 1:]))
        coef = np.full(n - i + 1, n - 2.0)
        coef[-1] = 2 * n - i - 1
        low = (coef * ell_col - lams).max(axis=1).tolist()
        high = (lams - coef * m_col).max(axis=1).tolist()
        for j, err, lo, hi, lmin, lmax in zip(rows, errors, low, high,
                                              lams[:, 0].tolist(), lams[:, -1].tolist()):
            if isinstance(out[j], Exception):
                continue
            if err is not None:
                out[j] = err  # the matrix stops at its first uncertified block
                continue
            ell_j, m_j, _ = gates[j]
            balanced = reports[j].is_balanced
            out[j].append(_report("eig", max(lo, hi) if balanced else lo, 0.0,
                                  n=n, i=i, ell=ell_j, m=m_j, balanced=balanced,
                                  lambda_min=lmin, lambda_max=lmax))
    return out


def block_det_ratio(J: SymMatrix) -> tuple[np.ndarray, float]:
    """det(J) / prod(J_ii) by the trailing-block factorization.

    Factor i is 1 - b' B^{-1} b / J_ii, where B is the trailing block one
    past row i and b the off-diagonal stub of row i; the product of the
    n-1 factors equals the determinant ratio.

    All factors come from one symmetric elimination without pivoting, run
    from the last row up.  Its pivot d_i is the Schur complement of B in
    the trailing block starting at row i, J_ii - b' B^{-1} b, so factor i
    is d_i / J_ii: one O(n^3) factorization instead of n-1 inverses.
    Skipping pivoting is safe on the diagonally dominant matrices the
    bounds take, because a Schur complement of a diagonally dominant
    matrix is again diagonally dominant, which bounds the growth of the
    entries by a factor of 2 (Wilkinson; Varah 1975).

    The pivot of the block starting at row k (1-based) is singular when
    |d| <= size * eps * inf_norm(block), the floor :func:`inverse_dense`
    uses.  The elimination runs on past a singular pivot and reports the
    first one from the bottom, so :class:`SingularBlockError` names the
    smallest singular trailing block, that is the largest starting row when
    blocks are nested.  The pivot of row 1 is only a factor: a singular J
    whose trailing blocks are nonsingular gives ratio 0.

    A pivot is singular unless its magnitude exceeds the floor, so a NaN
    pivot is singular too.  Each matrix is first scaled by a power of two
    that brings its largest entry into [0.5, 1): the factors keep their
    bits, and entries near the largest float no longer overflow to a NaN
    ratio.  The elimination runs in panels of 32 rows
    (``matcore._PANEL``) on a whole stack of same-size matrices at once
    (:func:`sddkit.matcore._eliminate_stack`): the seeded-trial engine
    passes its stacks (:func:`sddkit.matcore._eliminated` stores each
    matrix's pair in its ``elimination`` member), and a single matrix runs
    as a stack of one.  Each matrix gets the same bits either way.

    Returns ``J.elimination``, so each matrix is eliminated once and every
    determinant bound reads the same pair, with ``factors`` read-only.
    """
    return J.elimination


def det_ratio_lu(J: SymMatrix) -> float:
    """det(J) / prod(J_ii) via the LU determinant (log-scaled for safety)."""
    diag = J.entries.diagonal()
    if (diag <= 0).any():
        raise MatrixError("determinant ratio needs positive diagonal entries")
    sign, logabs = np.linalg.slogdet(J.entries)
    if sign == 0:
        return 0.0
    return float(sign * np.exp(logabs - np.log(diag).sum()))


def det_lower_bound(J: SymMatrix, ell: float | None = None,
                    m: float | None = None) -> BoundReport:
    """det ratio >= (1 - sqrt(m/ell)(1 + m/ell)/(2(n-2)))^{n-1} for SDD J.

    When the base is <= 0 the bound carries no information: the report is
    flagged vacuous and the left side degrades to -inf rather than an
    oscillating power of a negative number.
    """
    ell, m, bad = _gate("det_lower", J.dominance, J.entries.diagonal(), ell, m)
    if bad is not None:
        return bad
    _, ratio = block_det_ratio(J)
    n = J.n
    base = 1.0 - math.sqrt(m / ell) * (1.0 + m / ell) / (2.0 * (n - 2))
    if base <= 0:
        return _report("det_lower", float("-inf"), ratio, vacuous=True,
                       n=n, ell=ell, m=m, base=base)
    lhs = base ** (n - 1)
    return _report("det_lower", lhs, ratio, n=n, ell=ell, m=m, base=base)


def det_upper_bound_balanced(J: SymMatrix, ell: float | None = None,
                             m: float | None = None) -> BoundReport:
    """det ratio <= exp(-ell^2 / (4 m^2)) for balanced J."""
    ell, m, bad = _gate("det_upper", J.dominance, J.entries.diagonal(), ell, m,
                        need="balanced")
    if bad is not None:
        return bad
    _, ratio = block_det_ratio(J)
    return _report("det_upper", ratio, _balanced_decay(ell, m), n=J.n, ell=ell, m=m)


def _balanced_decay(ell: float, m: float) -> float:
    """exp(-ell^2 / (4 m^2)), with ell and m first scaled by 2^-e, where e is
    the exponent (``frexp``'s) of m: the scaling is exact, so the value keeps
    its bits at unit scale, and m^2 then lies in [1/4, 1), so the quotient
    is finite at any scale of the entries."""
    e = math.frexp(m)[1]
    ell, m = math.ldexp(ell, -e), math.ldexp(m, -e)
    return math.exp(-ell * ell / (4.0 * m * m))


def adjugate_bound(J: SymMatrix, ell: float | None = None,
                   m: float | None = None) -> BoundReport:
    """inf_norm(adjugate)/prod(J_ii) <= (3n-4)/(2 ell (n-2)(n-1)) e^{-ell^2/4m^2}.

    Computed as |det ratio| * inf_norm(J^{-1}), since adj(J) = det(J) J^{-1};
    the ratio stays finite where det(J) itself overflows.  Balanced J only.
    """
    ell, m, bad = _gate("adjugate", J.dominance, J.entries.diagonal(), ell, m,
                        need="balanced")
    if bad is not None:
        return bad
    _, ratio = block_det_ratio(J)
    n = J.n
    lhs = abs(ratio) * J.inv_inf_norm
    rhs = ((3 * n - 4) / (2.0 * ell * (n - 2) * (n - 1))) * _balanced_decay(ell, m)
    return _report("adjugate", lhs, rhs, n=n, ell=ell, m=m)


def hadamard_sanity(J: SymMatrix) -> BoundReport:
    """det ratio <= 1 for any positive semidefinite J (classical).

    Inapplicable unless every J_ii > 0 and J is PSD, which holds exactly
    when every elimination pivot (factor times J_ii) is >= 0: J is congruent
    to its pivots.  The zero pivot of a singular PSD J may round either way,
    so a pivot within n * eps * inf_norm(J) of zero counts as zero.
    """
    diag = J.entries.diagonal()
    if not (diag > 0).all():
        return _inapplicable("hadamard", "needs a positive diagonal", n=J.n)
    factors, ratio = block_det_ratio(J)
    # A pivot past the largest float is an infinite one of the same sign.
    with np.errstate(over="ignore"):
        pivots = factors * diag[:-1]
    if (pivots < -_floor(J.n, inf_norm(J))).any():
        return _inapplicable("hadamard", "J not positive semidefinite", n=J.n)
    return _report("hadamard", ratio, 1.0, n=J.n)


@dataclass(frozen=True)
class XiResult:
    """Row-wise positivity functional of Q = S^{-1} P S^{-1}.

    ``xi`` is min_i (Q_ii - sum_{j != i} Q_ij); ``per_row`` the direct
    row values, ``per_row_closed`` the closed-form evaluation they are
    checked against.  ``zero_input`` marks P == 0, where the functional is
    identically zero (positivity needs a nonzero P).
    """

    xi: float
    per_row: np.ndarray
    per_row_closed: np.ndarray
    zero_input: bool


def xi_functional(S: SForm, P: SymMatrix) -> XiResult:
    """Evaluate the positivity functional two ways and cross-check.

    Direct route: form Q = S^{-1} P S^{-1} densely and take row functionals
    Q_ii - sum_{j != i} Q_ij.  Closed route, with rho = alpha/ell and
    b = ell/(alpha(alpha + ell n)):

        b^2 [ ((rho+n-2)(rho+4)+4) margin_i(P)
              + (2(rho+n-1)(n-3)+rho) P_ii
              + (rho+2) sum_{j,k != i} P_jk ].

    The two evaluations must agree to 1e-10 relative; disagreement raises,
    since it can only come from a coding error.
    """
    if P.n != S.n:
        raise ValueError(f"dimension mismatch: sform n={S.n}, P n={P.n}")
    if not S.is_dominant:
        raise ValueError("reference family must be diagonally dominant")
    if float(P.entries.min()) < 0:
        raise ValueError("P must be entrywise nonnegative")
    if not P.dominance.is_dominant:
        raise ValueError("P must be diagonally dominant")
    n = S.n
    if not P.entries.any():
        zeros = np.zeros(n)
        return XiResult(xi=0.0, per_row=zeros, per_row_closed=zeros.copy(),
                        zero_input=True)
    Sinv = sform_inverse(S).entries
    Q = Sinv @ P.entries @ Sinv
    direct = 2.0 * Q.diagonal() - Q.sum(axis=1)
    rho = S.alpha / S.ell
    b = S.ell / (S.alpha * (S.alpha + S.ell * n))
    diag = P.entries.diagonal()
    rowsum = P.entries.sum(axis=1)
    total = float(P.entries.sum())
    rest = total - 2.0 * rowsum + diag
    closed = (b * b) * (
        ((rho + n - 2) * (rho + 4) + 4) * P.dominance.deltas
        + (2 * (rho + n - 1) * (n - 3) + rho) * diag
        + (rho + 2) * rest
    )
    scale = max(float(np.abs(closed).max()), np.finfo(float).tiny)
    if not np.allclose(direct, closed, rtol=1e-10, atol=1e-10 * scale):
        worst = float(np.abs(direct - closed).max())
        raise ArithmeticError(
            f"positivity functional routes disagree by {worst:.3e} "
            f"(scale {scale:.3e}); direct and closed form should match"
        )
    return XiResult(xi=float(direct.min()), per_row=direct,
                    per_row_closed=closed, zero_input=False)


# ---------------------------------------------------------------------------
# Seeded trials: the randomized verification suites, one inequality family
# each, and the searches over the two conjectured extremal inequalities.

SUITES = ("varah", "main", "lower", "spectral", "cond", "eig", "det",
          "adjugate", "xi")
CONJECTURES = ("lower_norm", "det_upper")
_TAG = {"lower_norm": 101, "det_upper": 102,
        **{name: 200 + k for k, name in enumerate(SUITES)}}


@dataclass(frozen=True)
class SuiteRecord:
    """One report of one seeded trial; ``suite`` is the suite or the
    conjecture mode, ``params`` the drawn values the instance was built from."""

    suite: str
    trial: int
    n: int
    params: dict
    report: BoundReport


def _draw(suite: str, trial: int, rng, n: int) -> tuple[dict, np.ndarray | None, object]:
    """One trial's draws from ``rng``, in the order its instance is built:
    the params its records carry, the :func:`randmat.draw_sdd` draws of its
    matrix (None when it has none), and the S-form or graph it also needs."""
    if suite == "lower_norm":
        # Conjectured: inf_norm(J^{-1}) >= inf_norm(S(alpha, m)^{-1}) whenever
        # 0 < J <= alpha*I + m*ones entrywise and J is SDD.  Trial 0 is
        # J = S(alpha, m) itself.
        m = float(rng.uniform(0.5, 2.0))
        margin_cap = float(rng.uniform(0.0, 2.0 * m))
        alpha = (n - 2) * m + margin_cap
        draws = None if trial == 0 else randmat.draw_sdd(
            rng, n, lo=0.05 * m, hi=m, margin_hi=margin_cap)
        return {"alpha": alpha, "m": m}, draws, SForm(n, alpha, m)
    if suite == "det_upper":
        # Conjectured: det ratio of a positive balanced J is at most
        # 2 (1 - 1/(n-1))^{n-1}, the ratio of the balanced reference matrix.
        return {}, randmat.draw_sdd(rng, n, lo=0.2, hi=3.0, balanced=True), None
    if suite == "varah":
        return {}, randmat.draw_sdd(rng, n, margin_lo=0.05), None
    if suite == "main":
        # J is S plus the drawn SDD increment, so J >= S entrywise.
        ell = float(rng.uniform(0.5, 2.0))
        alpha = (n - 2) * ell + float(rng.uniform(0.0, 2.0 * ell))
        return ({"alpha": alpha, "ell": ell}, randmat.draw_sdd(rng, n, 0.0, 2.0 * ell),
                SForm(n, alpha, ell))
    if suite in ("lower", "cond"):
        return {}, randmat.draw_sdd(rng, n), None
    if suite == "spectral":
        ell = float(rng.uniform(0.3, 1.5))
        return {"ell": ell}, randmat.draw_sdd(rng, n, lo=ell, hi=3.0 * ell), None
    if suite in ("eig", "det"):
        balanced = trial % 2 == 0
        return {"balanced": balanced}, randmat.draw_sdd(rng, n, balanced=balanced), None
    if suite == "adjugate":
        return {}, randmat.draw_sdd(rng, n, balanced=True), None
    # suite == "xi"; the public callers reject unknown names before any draw
    ell = float(rng.uniform(0.5, 2.0))
    alpha = (n - 2) * ell * (1.0 + float(rng.uniform(0.0, 1.0)))
    G = randmat.random_loop_graph(rng, n, p_edge=0.4, p_loop=0.15)
    if G.num_edges == 0:
        G = type(G)(n, [(1, 2)])
    return {"alpha": alpha, "ell": ell, "edges": G.num_edges}, None, (SForm(n, alpha, ell), G)


def _lower_norm_records(params, a, S):
    J = sform_dense(S) if a is None else SymMatrix(a)
    return [(params, _report("lower_norm_conjecture", sform_inf_norm_inverse(S),
                             J.inv_inf_norm, n=S.n))]


def _det_upper_records(params, elimination, _):
    factors, ratio = elimination
    n = factors.size + 1
    return [(params, _report("det_upper_conjecture", ratio,
                             2.0 * (1.0 - 1.0 / (n - 1)) ** (n - 1), n=n))]


def _det_records(params, J, _):
    out = [(params, det_lower_bound(J))]
    if params["balanced"]:
        out.append((params, det_upper_bound_balanced(J)))
    return out


def _xi_records(params, a, extra):
    S, G = extra
    res = xi_functional(S, signless_laplacian(G))
    agreement = float(np.abs(res.per_row - res.per_row_closed).max())
    return [(params, _report("xi", -res.xi, 0.0, n=S.n, alpha=S.alpha, ell=S.ell,
                             edges=G.num_edges, route_gap=agreement))]


# The analysis of each suite, one shape for all: a pair (records, prepare).
# ``prepare``, or None, turns the (k, n, n) stack of the matrices that one
# chunk's trials of one n drew into one item per trial by one kernel call;
# ``records(params, item, extra)`` gives one trial's (params, report) pairs
# from its item, else from its assembled matrix (None when it drew none).
# An item that is an exception is raised as its trial's error.  det_upper
# looks ``_eliminate_stack`` up when it runs, so a patched kernel is used.
_ANALYSES = {
    "lower_norm": (_lower_norm_records, None),
    "det_upper": (_det_upper_records, lambda a: _eliminate_stack(a)),
    "varah": (lambda params, a, _: [(params, varah_bound(SymMatrix(a)))], None),
    "main": (lambda params, a, S: [
        (params, main_bound(SymMatrix(sform_dense(S).entries + a), S))], None),
    "lower": (lambda params, a, _: [(params, lower_bound_trivial(SymMatrix(a)))], None),
    "spectral": (lambda params, a, _: [
        (params, spectral_route_bound(SymMatrix(a), params["ell"]))], None),
    "cond": (lambda params, a, _: [(params, condition_bound(SymMatrix(a)))], None),
    "eig": (lambda params, reports, _: [({"i": i, **params}, r)
                                        for i, r in enumerate(reports, 1)],
            lambda a: _eig_checks(a, _classify_stack(a), range(1, a.shape[1]))),
    "det": (_det_records, _eliminated),
    "adjugate": (lambda params, J, _: [(params, adjugate_bound(J))], _eliminated),
    "xi": (_xi_records, None),
}

# Matrix entries per chunk: a run draws and analyses as many trials at once
# as this many entries hold at the largest n of its range (455 trials at
# n = 12), so a chunk's stacks stay O(2^16) floats whatever the trial count
# and n.  Measured on eig (1000 trials, n 3..12), det (1000) and det_upper
# (2000, n 3..10), one BLAS thread: 32 trials per chunk took 1.6-1.9x the
# time of 2048, 256 took 1.04-1.07x, and 512 to 1024 within 5%.
_CHUNK_ENTRIES = 2 ** 16


def _trials(name: str, lo: int, hi: int, trials: int, seed: int) -> list[SuiteRecord]:
    """Each trial draws its dimension uniformly from lo..hi and its instance
    from a per-trial generator keyed by (seed, name, trial), so results do
    not depend on scheduling or on other suites.  Each chunk's generators
    come from one :func:`randmat.trial_rngs` call, bitwise those of
    :func:`randmat.trial_rng`.

    Trials are drawn in order, in chunks of ``_CHUNK_ENTRIES / hi^2``.  Each
    chunk's matrices of one n are assembled as one stack, which the suite's
    ``prepare`` turns into one item per trial (see ``_ANALYSES``); then each
    trial's ``records`` run in trial order.  So records come out in trial
    order, and the first failing trial raises its error, as if the trials
    ran one by one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    records, prepare = _ANALYSES[name]
    size = max(1, _CHUNK_ENTRIES // (hi * hi))
    out = []
    for first in range(0, trials, size):
        chunk = range(first, min(first + size, trials))
        drawn = []
        groups = {}  # n: (position in the chunk, draws) of each trial that drew a matrix
        for t, rng in zip(chunk, randmat.trial_rngs((seed, _TAG[name]), chunk)):
            n = int(rng.integers(lo, hi + 1))
            params, draws, extra = _draw(name, t, rng, n)
            if draws is not None:
                groups.setdefault(n, []).append((len(drawn), draws))
            drawn.append((n, params, extra))
        items = [None] * len(drawn)
        for members in groups.values():
            stack = randmat.assemble_sdd(np.array([d for _, d in members]))
            for (j, _), item in zip(members, stack if prepare is None else prepare(stack)):
                items[j] = item
        for t, (n, params, extra), item in zip(chunk, drawn, items):
            if isinstance(item, Exception):
                raise item
            out.extend(SuiteRecord(name, t, n, p, report)
                       for p, report in records(params, item, extra))
    return out


def verify_suite(suite: str, n_range: tuple[int, int], trials: int,
                 seed: int) -> list[SuiteRecord]:
    """Run one randomized inequality suite; deterministic in (suite, seed)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    lo, hi = n_range
    if not (3 <= lo <= hi):
        raise ValueError(f"need 3 <= n_lo <= n_hi, got {n_range}")
    return _trials(suite, lo, hi, trials, seed)


def conjecture_search(mode: str, trials: int, seed: int) -> list[SuiteRecord]:
    """Deterministic seeded random search over a conjectured inequality,
    with n drawn from 3..10; each record's ``suite`` is ``mode``.

    mode "lower_norm": SDD matrices 0 < J <= alpha*I + m*ones, testing
    whether the family member is the norm minimizer (trial 0 probes the
    conjectured equality case J = alpha*I + m*ones exactly).  The report's
    lhs is inf_norm(S(alpha, m)^{-1}) and its rhs inf_norm(J^{-1}).
    mode "det_upper": positive balanced matrices, testing the determinant
    ratio (lhs) against the balanced reference value (rhs).

    A record whose report does not hold is a finding about the conjecture,
    never an error.
    """
    if mode not in CONJECTURES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {CONJECTURES}")
    return _trials(mode, 3, 10, trials, seed)
