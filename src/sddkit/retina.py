"""Degree-sequence moment matching for maximum-entropy weighted graphs.

The model puts independent exponential weights with mean 1/(theta_i +
theta_j) on the edges of a complete graph.  Matching an observed degree
sequence d means solving

    d_i = sum_{j != i} 1/(theta_i + theta_j),    i = 1..n,

written here through the map F with F_i(x) = -sum_{j != i} 1/(x_i + x_j),
so that d = F(-theta).  The Jacobian of F is symmetric, diagonally balanced,
and positive definite on the feasible domain, which makes a damped Newton
iteration safe and gives a Lipschitz constant for the inverse map:

    |F^{-1}(d) - F^{-1}(d_hat)|_inf <= (3n-4)/(2 ell (n-1)(n-2)) |d - d_hat|_inf,

with ell a lower bound on 1/(theta_i + theta_j)^2 over the relevant domain.
The solver reports that constant evaluated at the converged iterate; that is
a local, heuristic certificate, not a rigorous domain-wide one.

The Newton solve starts at a mean-field point: with every other theta_j
replaced by one self-consistent value, d_i = (n-1)/(theta_i + t) gives
theta_i = g_i - mean(g)/2 with g_i = (n-1)/d_i, which is the exact root
for constant d.  It is blended toward the uniform point until its pair sums
are in the domain (``_mean_field_start``).  At n = 400 a sampled target
takes 4 Newton steps from it, against 6 from the uniform point.  From n =
``_CG_MIN_N`` on, a few O(n m) sweeps of a self-consistent field over m
quantiles of theta refine it, and the same target takes 2 (``_start``).
Each step's direction solves a system in the Jacobian: from n = ``_CG_MIN_N``
on by conjugate gradients preconditioned by its diagonal, some ten O(n^2)
products, and below that by one O(n^3) Cholesky factorization (see
``solve_retina``).

The equations are homogeneous: theta solves d exactly when theta 2^-k solves
d 2^k.  So the solver runs at unit scale, on d 2^-k with its largest target
in [0.5, 1), and scales the solution back once; that is its one scale rule.
There it keeps every theta_i + theta_j at or above ``DOMAIN_FLOOR``; f_map,
jacobian and residual raise DomainError for a pair sum within it of zero, and
ValueError, before any pair sum is formed, for a NaN or infinite entry.

A solve holds one n x n array.  f_map and residual form the reciprocals of
the pair sums in blocks of ``_ROWS`` rows and can leave the pair sums in a
buffer of the caller's (``out``); the solver builds each Jacobian in place
from the pair sums its accepted residual left there.

sample_degrees holds 12 bytes an edge, one weight and one column index, and
forms its edges' rates and row indices a block of rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matcore import _EPS, SymMatrix, _at_unit_scale

__all__ = [
    "DomainError",
    "RetinaProblem",
    "RetinaSolution",
    "MleTrial",
    "ConsistencySummary",
    "f_map",
    "jacobian",
    "residual",
    "solve_retina",
    "sample_degrees",
    "consistency_experiment",
]

DOMAIN_FLOOR = 1e-10
# Newton steps before solve_retina gives up with converged=False.
MAX_ITER = 80
# Rows per block of reciprocals in f_map, whose (_ROWS, n) scratch is small
# beside the n x n pair sums; blocks of 32, 64 and 128 rows solve in the same
# time at n = 400 and n = 2000.
_ROWS = 64
# Edges per block of sample_degrees, whose per-block indices and rates (about
# 24 B an edge, 0.75 MB a block) are small beside its 12 B an edge for the
# whole graph.  In a loop of n = 400 trials, blocks of 2**14 or 2**15 edges
# take no minor page faults; blocks of 2**16 edges (0.5 MB arrays) took up
# to 300 a trial, as the allocator gave their pages back and mapped them
# again, and ran the loop no faster than one block of all edges.
_SAMPLE_EDGES = 2**15
# Newton steps from n = _CG_MIN_N on by preconditioned conjugate gradients
# (_cg_direction), below it by Cholesky.  With one BLAS thread, a sampled
# target with theta in [0.5, 2] or [0.01, 100] solves in about the same time
# both ways at n = 130 to 160, and by CG in 0.7 of the Cholesky time at 200.
_CG_MIN_N = 160
# CG iterations per Newton step: the bound (1/2) sqrt(kappa) ln(2/_CG_RTOL)
# reaches 100 at kappa = 36.  Sampled targets at n = 400 and 1000, theta in
# [0.01, 100] and narrower, have kappa below 10 and take 6 to 13 iterations.
_CG_MAX_ITER = 100
# The residual, relative to the Newton right-hand side in the infinity norm,
# at which CG stops.
_CG_RTOL = 1e-14
# Bins of the quantized field and sweeps of it in _start.  Sampled n = 400
# targets with theta in [5, 50] take 3 Newton steps in 71 of 80 trials after
# five sweeps, 2 steps in 60 after six; more sweeps save no further step.
_FIELD_BINS = 32
_FIELD_SWEEPS = 6


class DomainError(ValueError):
    """A pairwise sum x_i + x_j left the admissible domain.

    ``pair`` holds the offending zero-based index pair.
    """

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair


def _require_finite(x: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first NaN or infinite entry of x as name[i]."""
    finite = np.isfinite(x)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{name}[{i}] = {x[i]} is not finite")


def _low_pair_sum(x: np.ndarray) -> float:
    """fl(a + b) for the two smallest entries a, b of x (len(x) >= 2).

    Rounding is monotone, so this is a lower bound on every computed pair
    sum x_i + x_j with i != j, attained by that pair.
    """
    low = np.partition(x, 1)[:2]
    return low[0] + low[1]


def _first_nonpositive_pair(x: np.ndarray) -> tuple[int, int]:
    """The first pair (i, j), i != j, in row-major order with fl(x_i + x_j)
    <= 0, found in O(n) (len(x) >= 2; one such pair must exist).

    Rounding is monotone, so row i's smallest pair sum is x_i plus the
    smallest entry other than x_i: the second smallest entry of x for the
    first index of the smallest one, the smallest entry for every other i.
    """
    low = np.partition(x, 1)[:2]
    others = np.full(len(x), low[0])
    others[np.argmin(x)] = low[1]
    i = int(np.argmax(x + others <= 0))
    row = x[i] + x
    row[i] = np.inf
    return i, int(np.argmax(row <= 0))


def _pair_sums(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x_i + x_j with inf on the diagonal, so 1/z is 0 there; written into
    ``out`` when given.

    A NaN or infinite entry of x is rejected first, by index, with
    ValueError.  Raises :class:`DomainError` naming the first pair whose sum
    is within ``DOMAIN_FLOOR`` of zero.  The n^2 scan for that pair runs only
    when an O(n) test fails: rounding is monotone, so every computed pair sum
    lies between fl(two smallest entries) and fl(two largest entries), and no
    pair is within the floor of zero when the two smallest sum to at least
    the floor or the two largest to at most minus the floor.  The test passes
    only when the scan would find nothing, so the error, its pair and its
    message are those of the scan alone.
    """
    _require_finite(x, "x")
    n = len(x)
    z = np.empty((n, n)) if out is None else out
    # Each row copied, then the column added in place: x_j + x_i has the bits
    # of x_i + x_j, and one contiguous copy beats a broadcast read of both.
    np.copyto(z, x)
    np.add(z, x[:, None], out=z)
    np.fill_diagonal(z, np.inf)
    if n >= 2 and (_low_pair_sum(x) >= DOMAIN_FLOOR or _low_pair_sum(-x) >= DOMAIN_FLOOR):
        return z
    small = np.abs(z) < DOMAIN_FLOOR
    if small.any():
        i, j = np.argwhere(small)[0]
        raise DomainError(
            f"pairwise sum x[{i}] + x[{j}] = {z[i, j]:.3e} is within "
            f"{DOMAIN_FLOOR:.1e} of zero (indices are 0-based)",
            pair=(int(i), int(j)),
        )
    return z


def _reciprocal_row_sums(z: np.ndarray) -> np.ndarray:
    """sum_j 1/z_ij for each row i of the n x n array z, which is left as it
    is: the reciprocals are formed ``_ROWS`` rows at a time in one (_ROWS, n)
    scratch array.  A C-ordered block's rows reduce exactly as z's own rows
    do, so each sum has the bits of ``(1.0 / z).sum(axis=1)``."""
    n = len(z)
    sums = np.empty(n)
    scratch = np.empty((min(_ROWS, n), n))
    for a in range(0, n, _ROWS):
        block = np.divide(1.0, z[a:a + _ROWS], out=scratch[:min(_ROWS, n - a)])
        block.sum(axis=1, out=sums[a:a + _ROWS])
    return sums


def f_map(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """F_i(x) = -sum_{j != i} 1/(x_i + x_j); the pair sums x_i + x_j (inf on
    the diagonal) are left in ``out`` when given.

    With x = -theta and all theta_i + theta_j > 0 this returns the expected
    degree sequence: d = F(-theta) means d_i = sum_{j != i} 1/(theta_i + theta_j).
    """
    return -_reciprocal_row_sums(_pair_sums(np.asarray(x, dtype=float), out))


def _jacobian_from_pair_sums(w: np.ndarray) -> np.ndarray:
    """The Jacobian of f_map built in place from its pair sums ``w`` (inf on
    the diagonal): squared, reciprocal, then the row sums on the diagonal."""
    np.multiply(w, w, out=w)
    np.divide(1.0, w, out=w)
    np.fill_diagonal(w, w.sum(axis=1))
    return w


def jacobian(x: np.ndarray) -> SymMatrix:
    """Jacobian of f_map at x: off-diagonal 1/(x_i+x_j)^2, diagonal row sums.

    Diagonally balanced by construction, and positive definite whenever all
    pairwise sums are nonzero and n >= 3.
    """
    return SymMatrix(_jacobian_from_pair_sums(
        _pair_sums(np.asarray(x, dtype=float))))


def residual(theta: np.ndarray, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Moment-matching residual F(-theta) - d; the pair sums of -theta are
    left in ``out`` when given, as by :func:`f_map`."""
    return f_map(-np.asarray(theta, dtype=float), out) - np.asarray(d, dtype=float)


@dataclass(frozen=True)
class RetinaProblem:
    """A degree-sequence instance: at least three finite targets d > 0, each
    below the sum of the others.

    The last condition is necessary.  Each weight w_ij = 1/(theta_i +
    theta_j) > 0 counts toward both d_i and d_j, so sum_{j != i} d_j = d_i +
    2 * (the weights of the pairs without i), and n >= 3 leaves at least one
    such pair.  A target with d_i >= sum_{j != i} d_j is rejected, naming i
    and the margin sum_{j != i} d_j - d_i.  For when the estimate exists
    exactly, see Hillar and Wibisono, "Maximum entropy distributions on
    graphs", arXiv:1301.3321; this check is only the necessary condition
    above, and the solver may still fail to converge on targets that pass it.
    """

    d: np.ndarray

    def __post_init__(self):
        d = np.array(self.d, dtype=float)
        if d.ndim != 1 or len(d) < 3:
            raise ValueError(f"need a degree vector of length >= 3, got shape {d.shape}")
        _require_finite(d, "target degree d")
        if not (d > 0).all():
            raise ValueError("all target degrees must be positive")
        # Only the largest target can reach the sum of the others.  Its
        # margin sum_{j != i} d_j - d_i is rounded once, by fsum from -d_i
        # up: the others are positive, so the exact running sum only grows,
        # and it passes the largest float only where the margin is positive.
        i = int(np.argmax(d))
        try:
            margin = math.fsum(np.append(-d[i], np.delete(d, i)))
        except OverflowError:
            margin = math.inf
        if margin <= 0:
            raise ValueError(
                f"infeasible target degrees: d[{i}] = {d[i]:g} is not below the "
                f"sum of the others (margin {margin:g})")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return len(self.d)


@dataclass(frozen=True)
class RetinaSolution:
    """Solver output with a Lipschitz error certificate.

    ``ell_used`` is min over pairs of 1/(theta_i + theta_j)^2 at the final
    iterate; ``lipschitz_const`` is (3n-4)/(2 ell (n-1)(n-2)) and
    ``error_certificate`` that constant times the residual norm.  The
    constant is evaluated locally (``certificate_is_local``), so the
    certificate is heuristic rather than a rigorous domain-wide bound.
    Each of the three is computed at unit scale and scaled back once, so it
    is inf or 0 only where its value is past the float range: at theta
    near 1e160 the constant is inf while the certificate is finite.
    ``theta`` and ``residual_inf`` are in the units of the targets, scaled
    back from the solver's unit-scale solve.  ``converged`` is True when
    ``residual_inf`` met the solver's stopping test, max(tol * min(1,
    max(d)), n * eps * max(d)).
    """

    theta: np.ndarray
    residual_inf: float
    iterations: int
    lipschitz_const: float
    error_certificate: float
    converged: bool
    ell_used: float
    certificate_is_local: bool = True


def _finish(theta, r_inf, iters, converged, n) -> RetinaSolution:
    # Every pair sum is positive on the solver's domain, so the smallest
    # 1/(theta_i + theta_j)^2 belongs to the largest pair sum z, which is
    # minus the smallest pair sum of -theta (negation commutes with
    # rounding); so ell equals the minimum over all pairs exactly.  ell and
    # the constant are closed forms in z, of degrees -2 and 2.
    z = -_low_pair_sum(-theta)

    def lip(z):
        return (3 * n - 4) / (2.0 * (1.0 / (z * z)) * (n - 1) * (n - 2))
    return RetinaSolution(
        theta=theta,
        residual_inf=float(r_inf),
        iterations=iters,
        lipschitz_const=_at_unit_scale(lip, 2, z),
        error_certificate=_at_unit_scale(lambda z: lip(z) * r_inf, 2, z),
        converged=converged,
        ell_used=_at_unit_scale(lambda z: 1.0 / (z * z), -2, z),
    )


def _start(d: np.ndarray) -> np.ndarray:
    """The Newton start for targets d: the mean-field point
    (:func:`_mean_field_start`), refined from n = ``_CG_MIN_N`` on by
    ``_FIELD_SWEEPS`` damped sweeps of a quantized self-consistent field.

    Each equation d_i = sum_{j != i} 1/(theta_i + theta_j) sees the other
    theta_j only through their distribution.  A sweep quantizes it: theta
    sorted into m = ``_FIELD_BINS`` bins of equal count, with counts w_q and
    means c_q, and each theta_i then takes one Newton step on its own
    equation with that field held fixed,

        g_i(x) = sum_q w_q/(x + c_q) - 1/(2x) - d_i = 0,

    where -1/(2x) takes out the self pair, counted in x's own bin as
    1/(x + c_q) with c_q near x.  Each sweep costs O(n m), against O(n^2)
    for one residual.  Two details make the map converge:

    - The step is taken in log x: x' = x exp(s) with s = -g/(x g'),
      clipped to [-2, 2], which keeps every theta_i positive.  With a plain
      step in x, the first sweep leaves the domain in each of ten sampled
      n = 400 problems with theta in [0.1, 10], and the start is unchanged.
    - Every theta moves half its step.  The pair sums are pinned by d, so
      shifting every theta_j by delta moves each theta_i's root by about
      -delta: the undamped map has eigenvalue -1 on the uniform mode.  At
      n = 400, theta in [0.5, 2], its ||r||_inf stays between 19 and 21
      over eight sweeps; the half step maps that eigenvalue to 0, and
      ||r||_inf goes 30, 3.8, 1.6, 0.75, 0.38, 0.22, 0.14 in six sweeps.

    From there Newton takes 2 steps, not 4.  Ten problems a row (theta
    uniform in the range, sampled degrees or the exact f_map(-theta); three
    at n = 1000), Newton steps and the best of five solve times, one BLAS
    thread:

        n     theta range  targets   steps      time
        400   [0.5, 2]     sampled   40 -> 20   37.9 -> 26.1 ms
        400   [0.5, 2]     exact     40 -> 20   37.0 -> 25.9 ms
        400   [0.1, 10]    sampled   65 -> 41   64.8 -> 48.1 ms
        400   [0.01, 100]  sampled   75 -> 51   81.0 -> 59.3 ms
        400   [5, 50]      sampled   58 -> 35   57.8 -> 39.5 ms
        1000  [0.5, 2]     sampled   12 -> 6    74.3 -> 41.8 ms
        160   [0.5, 2]     sampled   40 -> 20    9.2 ->  7.9 ms

    Six sweeps cost about 0.4 ms at n = 400, against about 0.8 ms for
    each Newton step they save.

    Below n = ``_CG_MIN_N`` each Newton step is a small Cholesky solve.
    Thirty sampled trials take half the steps from the refined point (76
    against 136 at n = 30), but at n = 30 in 9 ms against 6, at n = 100 in
    the same 18 ms, and at n = 150 in 35 ms against 39.  The refinement
    shares the crossover of the CG steps, so that every n below it keeps
    its start, and its bits: the start there is the mean-field point.  It
    is that point as well where every target is the same (it is then
    exact), and where it has an entry <= 0, which has no logarithm.  A
    sweep that leaves an entry not finite or a pair sum below
    ``DOMAIN_FLOOR`` ends the refinement at the point before it.
    """
    theta = _mean_field_start(d)
    n = len(d)
    if n < _CG_MIN_N or d.min() == d.max() or not (theta > 0).all():
        return theta
    # the first entry of each bin of the sorted theta, and the bin counts
    firsts = np.arange(_FIELD_BINS) * n // _FIELD_BINS
    counts = np.diff(firsts, append=n).astype(float)
    # a pair sum past the largest float ends in a point that is not finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_FIELD_SWEEPS):
            c = np.add.reduceat(np.sort(theta), firsts) / counts
            # (m, n): the sums over q add whole rows, not m-entry rows
            z = c[:, None] + theta
            field = counts[:, None] / z
            g = field.sum(axis=0) - 0.5 / theta - d
            field /= z
            # x g'(x), the slope of g_i in log x
            slope = 0.5 / theta - theta * field.sum(axis=0)
            cand = theta * np.exp(0.5 * np.clip(-g / slope, -2.0, 2.0))
            if not np.isfinite(cand).all() or _low_pair_sum(cand) < DOMAIN_FLOOR:
                break
            theta = cand
    return theta


def _mean_field_start(d: np.ndarray) -> np.ndarray:
    """The mean-field point h for targets d, blended toward the uniform
    point u until it is in the domain.

    u_i = (n-1)/(2 mean(d)) solves the equations exactly when every
    target is the same; the solver passes d at unit scale, with mean(d) in
    [0.5/n, 1), so u_i lies in ((n-1)/2, n(n-1)], far above the floor.
    The mean-field point keeps each theta_i but replaces every other
    theta_j by one value t: then d_i = (n-1)/(theta_i + t), so theta_i =
    g_i - t with g_i = (n-1)/d_i, and the self-consistent t = mean(theta) =
    mean(g) - t gives t = mean(g)/2 and

        h_i = g_i - mean(g)/2.

    For constant d, h = g/2 = u; the rounded means of d and g can move h
    off u in the last bits, so constant d starts at u itself.  Otherwise h
    follows how the targets are spread, where u ignores it, and at n = 400
    it saves two of the six Newton steps (each a Jacobian, a direction
    solve and at least one residual) of a sampled target.  But where the
    targets are spread widely h can leave the domain: h_i + h_j < 0 once
    g_i + g_j < mean(g).  So the start is u + s (h - u) for the first s of
    1, 1/2, ..., 1/32 whose smallest pair sum is at least ``DOMAIN_FLOOR``,
    and u if none is.  A target so small that g overflows leaves h not
    finite, and the start is u.
    """
    n = len(d)
    u = np.full(n, (n - 1) / (2.0 * float(d.mean())))
    if d.min() == d.max():
        return u
    with np.errstate(over="ignore", invalid="ignore"):
        g = (n - 1) / d
        h = g - g.mean() / 2
    if not np.isfinite(h).all():
        return u
    step = h - u
    for k in range(6):
        theta = u + math.ldexp(1.0, -k) * step
        if _low_pair_sum(theta) >= DOMAIN_FLOOR:
            return theta
    return u


def _cg_direction(jac: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """x with jac @ x = r by conjugate gradients preconditioned by
    1/diag(jac), from x = 0, once the recurred residual is at most
    ``_CG_RTOL`` times r in the infinity norm; jac is read, not written.

    None where that takes more than ``_CG_MAX_ITER`` iterations, where a
    diagonal entry of jac is not positive and finite, and where a curvature
    p^T jac p is not positive and finite (an overflow included).
    """
    diag = jac.diagonal().copy()
    if not (np.isfinite(diag).all() and (diag > 0).all()):
        return None
    x = np.zeros(len(r))
    res = r.copy()
    stop = _CG_RTOL * float(np.abs(r).max())
    # an overflow ends in a curvature that is not finite, which is checked
    with np.errstate(over="ignore", invalid="ignore"):
        z = res / diag
        p = z.copy()
        rz = float(res @ z)
        for _ in range(_CG_MAX_ITER):
            q = jac @ p
            pq = float(p @ q)
            if not 0 < pq < math.inf:
                return None
            alpha = rz / pq
            x += alpha * p
            res -= alpha * q
            if float(np.abs(res).max()) <= stop:
                return x
            np.divide(res, diag, out=z)
            rz, rz_old = float(res @ z), rz
            p *= rz / rz_old
            p += z
    return None


def _newton_direction(jac: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """The solution of jac @ x = r for the Jacobian ``jac``, built in place
    in the solver's buffer, which may be overwritten; None where jac is not
    positive definite in floating point.

    From n = ``_CG_MIN_N`` on it is :func:`_cg_direction`'s where that
    gives one.  Otherwise, and below n = ``_CG_MIN_N``, it is found by
    Cholesky, whose failed pivot is the one test of positive definiteness
    that ends a solve.  The factorization is in place: jac is exactly
    symmetric, so LAPACK reads its transpose, which is Fortran-ordered and
    needs no copy.
    """
    if len(r) >= _CG_MIN_N:
        x = _cg_direction(jac, r)
        if x is not None:
            return x
    f, info = scipy.linalg.lapack.dpotrf(jac.T, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        return None
    return scipy.linalg.lapack.dpotrs(f, r, lower=0)[0]


def solve_retina(prob: RetinaProblem, tol: float = 1e-10) -> RetinaSolution:
    """Damped Newton iteration on the moment-matching residual.

    Starts from the mean-field point theta_i = g_i - mean(g)/2, g_i =
    (n-1)/d_i, blended toward the uniform closed form (n-1)/(2 mean(d))
    until every pair sum is at or above the domain floor (see
    ``_mean_field_start``); both are exact for constant d, and the
    mean-field point follows the spread of the targets, which saves about a
    third of the steps of a sampled target.  From n = ``_CG_MIN_N`` on,
    ``_start`` refines that point by six O(n m) sweeps of a self-consistent
    field: theta quantized into m = 32 bins of equal count, each theta_i
    moved half of one Newton step in log theta_i on its own equation with
    the field held fixed and its self pair taken out.  The half step damps
    the uniform mode, on which the undamped map has eigenvalue -1, and the
    log step keeps theta positive.  Sampled n = 400 targets then take 2
    Newton steps, not 4 (the table is in ``_start``).  Each step solves the
    Jacobian system J step = r for the Newton direction (see below), then
    backtracks (halving) until every pairwise sum stays at or above the
    domain floor and the residual norm decreases.  It stops when the residual norm is at most
    ``max(tol * min(1, max(d)), n * eps * max(d))``.  The first term is
    ``tol`` itself for targets of 1 and above and relative to the largest
    target below that, so a start close to tiny targets in absolute terms
    only is not taken for a solution; the second is the targets' own
    rounding, which no residual row sum of n terms gets under, so large
    targets can be met.  A tol that is NaN, infinite or negative is
    rejected with ValueError before any work: an infinite one would certify
    any start, and a NaN one no solution.  A stalled line search, a
    Jacobian that is not positive definite in floating point (its squared
    pair sums can overflow where the targets span hundreds of decades), or
    ``MAX_ITER`` steps return converged=False rather than raising: a
    solution is only guaranteed to exist almost surely.

    The solve runs at unit scale.  With k the ``frexp`` exponent of max(d),
    it solves for d 2^-k, whose largest target is in [0.5, 1), and hands
    theta 2^-k and the residual norm times 2^k to the certificate.  Its
    stopping threshold is the one above times 2^-k, formed at unit scale so
    that it does not underflow for tiny targets.  So the domain floor, the
    line search's floor on lam |step|_inf and the start's blend act on a
    problem of one scale, and the solution for d 2^j is the one for d times
    2^-j, bit for bit.  Nothing else moves: each operation of the solve is
    a sum, product, quotient or square root, or takes a ratio, and these
    commute with a power of two while the values stay normal floats.  Where
    no floor acts on the unscaled targets, as on sampled ones, the solution
    has the bits it has unscaled.  Scaling d loses bits only in targets
    below 2^(k-1022), far under the stopping floor n eps max(d).  A
    solution past the float range (for subnormal targets) is rejected with
    ValueError.

    The Newton direction needs no factorization.  J has off-diagonal
    entries J_ij = 1/(theta_i + theta_j)^2 > 0 and diagonal D = diag(J) with
    D_ii = sum_{j != i} J_ij, so

        x^T (2D - J) x = sum_{i<j} J_ij (x_i - x_j)^2 >= 0,
        x^T J x        = sum_{i<j} J_ij (x_i + x_j)^2 >  0   (x != 0, n >= 3):

    2D - J is a weighted graph Laplacian, and J is positive definite, as
    no x != 0 has x_i = -x_j on all three pairs of a triangle.  So the
    eigenvalues of D^-1/2 J D^-1/2 lie in (0, 2], and conjugate gradients
    preconditioned by 1/diag(J) (Hestenes and Stiefel 1952; Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., 6.11) cut the error by
    2 ((sqrt(k) - 1)/(sqrt(k) + 1))^m in m iterations, with k = 2/lambda_min
    at most: about (1/2) sqrt(k) ln(2/eps) iterations reach eps.  Each is
    one O(n^2) product with J.  Sampled targets have k below 10 and take 6
    to 13 iterations a step at n = 400 and 1000.  So from n = ``_CG_MIN_N``
    (160) on, each direction is found by :func:`_cg_direction`, from x = 0,
    to a residual of at most 1e-14 of r in the infinity norm.  Below n =
    160 a Cholesky factorization is faster, and the direction is found by
    it.  It is found by Cholesky as well where CG misses that tolerance in
    ``_CG_MAX_ITER`` (100) iterations, as a direction cut short need not
    lower the residual's infinity norm, which the line search asks of every
    step; and where CG meets a diagonal or a curvature that is not positive,
    so that, as below n = 160, a failed Cholesky pivot ends the solve.

    One n x n buffer serves every step.  Each candidate is evaluated through
    :func:`residual`, which leaves the candidate's pair sums in the buffer;
    the line search ends only on an accepted candidate, so the buffer then
    holds the new iterate's pair sums, and the next Jacobian is built from
    them in place (squared, reciprocal, row sums on the diagonal) with no
    second pass over the pairs.  CG reads it there; Cholesky factors it in
    place (see :func:`_newton_direction`).
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    n = prob.n
    k = math.frexp(float(prob.d.max()))[1]
    d = np.ldexp(prob.d, -k)
    dmax = float(d.max())
    # max(tol min(1, max d), n eps max d) 2^-k: min(1, max d) 2^-k is dmax
    # for k <= 0 and 2^-k for k > 0, which alone forms 2^-k (it may overflow
    # for k < 0)
    stop = max(tol * min(dmax, math.ldexp(1.0, -max(k, 0))), n * _EPS * dmax)

    def finish(theta, r_inf, iters, converged):
        with np.errstate(over="ignore"):
            out, r_inf = np.ldexp(theta, -k), float(np.ldexp(r_inf, k))
        if not np.isfinite(out).all():
            raise ValueError(f"the solution is past the float range: theta["
                             f"{np.argmax(theta)}] = {theta.max():.6g} * 2^{-k}")
        return _finish(out, r_inf, iters, converged, n)

    theta = _start(d)
    w = np.empty((n, n))
    r = residual(theta, d, w)
    r_inf = float(np.abs(r).max())
    for it in range(1, MAX_ITER + 1):
        if r_inf <= stop:
            return finish(theta, r_inf, it - 1, True)
        # w holds the pair sums of -theta, left there by theta's residual; a
        # square past the largest float gives an entry of 0
        with np.errstate(over="ignore"):
            jac = _jacobian_from_pair_sums(w)
        step = _newton_direction(jac, r)
        if step is None:  # not positive definite in floating point
            return finish(theta, r_inf, it - 1, False)
        lam = 1.0
        step_inf = float(np.abs(step).max())
        while True:
            cand = theta + lam * step
            if _low_pair_sum(cand) >= DOMAIN_FLOOR:  # the smallest pair sum
                r_new = residual(cand, d, w)
                r_new_inf = float(np.abs(r_new).max())
                if r_new_inf < r_inf:
                    theta, r, r_inf = cand, r_new, r_new_inf
                    break
            lam *= 0.5
            if lam * step_inf < 1e-14:
                return finish(theta, r_inf, it, False)
    return finish(theta, r_inf, MAX_ITER, r_inf <= stop)


def sample_degrees(theta: np.ndarray, seed: int) -> np.ndarray:
    """Row sums of one sampled weighted graph under parameters theta.

    Edge {i, j} (i < j) gets an independent Exponential draw with rate
    theta_i + theta_j from a counter-based Philox stream keyed by ``seed``,
    with the counter advancing in canonical (i, j) order.  The draw for an
    edge therefore depends only on (seed, i, j): sampling is a pure
    function of (theta, seed), order-independent, and parallel-safe.
    A NaN or infinite theta_i raises ValueError, before any pair sum; a
    pair sum <= 0 raises DomainError naming the first such pair, found in
    O(n).

    The draws are turned into weights in place, in blocks of whole rows of
    at most ``_SAMPLE_EDGES`` edges (one row if a row is longer), and each
    edge's column index is kept as an int32: 12 bytes an edge in all, plus
    one block's rates and row indices.  Each block adds its weights to its
    rows' ends as it goes; the column ends are added in one sweep over all
    edges at the end.  So every vertex gets its row-end weights first and
    then its column-end weights, each in edge order, as in one scatter of
    all row ends followed by one of all column ends, and d has those bits.
    Adding a block's column ends with its row ends would reach rows of later
    blocks before their own row ends, and move d in its last bits.
    """
    theta = np.asarray(theta, dtype=float)
    n = len(theta)
    if int(seed) != seed or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    _require_finite(theta, "theta")
    # every pair sum is positive if the smallest one is
    if n >= 2 and not _low_pair_sum(theta) > 0:
        i, j = _first_nonpositive_pair(theta)
        raise DomainError(
            f"theta[{i}] + theta[{j}] = {theta[i] + theta[j]:.3e} must be positive",
            pair=(i, j),
        )
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    # Row i holds the edges (i, i+1), ..., (i, n-1), in counter order, from
    # edge start[i] to start[i + 1]; its edge e has column e - start[i] + i + 1.
    counts = np.arange(n - 1, -1, -1)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    w = gen.standard_exponential(int(start[-1]))
    cols = np.empty(len(w), dtype=np.int32)
    d = np.zeros(n)
    a = 0
    while a < n - 1:
        # rows a..b-1: the whole rows that fit in _SAMPLE_EDGES edges, at least one
        b = max(a + 1, int(np.searchsorted(start, start[a] + _SAMPLE_EDGES, "right")) - 1)
        edges = slice(start[a], start[b])
        block_cols = np.arange(start[a], start[b])
        block_cols -= np.repeat(start[a:b] - np.arange(a + 1, b + 1), counts[a:b])
        cols[edges] = block_cols
        rates = np.repeat(theta[a:b], counts[a:b])
        rates += theta[block_cols]
        np.divide(w[edges], rates, out=w[edges])
        np.add.at(d, np.repeat(np.arange(a, b), counts[a:b]), w[edges])
        a = b
    # column ends last: they reach rows of later blocks, whose row ends come first
    np.add.at(d, cols, w)
    return d


@dataclass(frozen=True)
class MleTrial:
    """One replayable estimation trial (``seed`` is the sampling seed)."""

    theta_true: np.ndarray
    d_hat: np.ndarray
    theta_hat: np.ndarray
    err_inf: float
    bound: float
    within_bound: bool
    seed: int
    converged: bool
    residual_inf: float
    iterations: int


@dataclass(frozen=True)
class ConsistencySummary:
    n: int
    k: float
    trials: int
    converged: int
    within: int
    fraction_within: float
    target: float
    meets_target: bool
    median_err: float
    bound: float


def consistency_bound(n: int, k: float, theta_lo: float, theta_hi: float) -> float:
    """(150 sqrt(m)/ell) sqrt(k log n / n) with m, ell from the theta range.

    The range [lo, hi] gives 1/m <= (theta_i + theta_j)^2 <= 1/ell via
    m = 1/(2 lo)^2 and ell = 1/(2 hi)^2.
    """
    m = 1.0 / (2.0 * theta_lo) ** 2
    ell = 1.0 / (2.0 * theta_hi) ** 2
    return (150.0 * math.sqrt(m) / ell) * math.sqrt(k * math.log(n) / n)


def _trial_sampling_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial, 1]).generate_state(1, np.uint64)[0])


def consistency_experiment(n: int, k: float, trials: int,
                           theta_range: tuple[float, float],
                           seed: int) -> tuple[list[MleTrial], ConsistencySummary]:
    """Sample-and-recover trials at one size n.

    Per trial: draw theta uniform in the declared range, sample a degree
    sequence, solve the moment-matching system, and compare the recovery
    error against the consistency bound.  Non-converged trials are recorded
    but excluded from the within-bound fraction.  Everything is a pure
    function of (seed, trial index).  A theta range whose consistency bound
    is not a finite float is rejected with ValueError.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 < k < math.inf:
        raise ValueError(f"k must be finite and > 1, got {k}")
    lo, hi = theta_range
    if not (0 < lo <= hi < math.inf):
        raise ValueError(f"need 0 < lo <= hi < inf, got {theta_range}")
    try:
        bound = consistency_bound(n, k, lo, hi)
    except (OverflowError, ZeroDivisionError):  # (2 lo)^2 or (2 hi)^2 out of range
        bound = math.nan
    if not math.isfinite(bound):
        raise ValueError(f"the consistency bound is not a finite float for theta "
                         f"range {lo:g},{hi:g}")
    results = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t, 0])
        theta = rng.uniform(lo, hi, size=n)
        samp_seed = _trial_sampling_seed(seed, t)
        d_hat = sample_degrees(theta, samp_seed)
        sol = solve_retina(RetinaProblem(d_hat), tol=1e-9)
        err = float(np.abs(theta - sol.theta).max())
        results.append(MleTrial(
            theta_true=theta,
            d_hat=d_hat,
            theta_hat=sol.theta,
            err_inf=err,
            bound=bound,
            within_bound=bool(sol.converged and err <= bound),
            seed=samp_seed,
            converged=sol.converged,
            residual_inf=sol.residual_inf,
            iterations=sol.iterations,
        ))
    converged = [r for r in results if r.converged]
    within = sum(1 for r in converged if r.within_bound)
    fraction = within / len(converged) if converged else 0.0
    try:
        target = 1.0 - 3.0 / n ** (k - 1)
    except OverflowError:
        # n^(k-1) past the largest float puts 3 / n^(k-1) far below the
        # spacing of floats at 1.0, so the target rounds to exactly 1.
        target = 1.0
    errs = sorted(r.err_inf for r in converged)
    median = errs[len(errs) // 2] if errs else float("nan")
    summary = ConsistencySummary(
        n=n, k=k, trials=trials, converged=len(converged), within=within,
        fraction_within=fraction, target=target,
        meets_target=bool(fraction >= target), median_err=float(median),
        bound=bound,
    )
    return results, summary

