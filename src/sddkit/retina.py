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

The solver keeps every theta_i + theta_j at or above ``DOMAIN_FLOOR``; f_map,
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

from .matcore import _EPS, SymMatrix

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


def _pair_sums(x: np.ndarray, floor: float, out: np.ndarray | None = None) -> np.ndarray:
    """x_i + x_j with inf on the diagonal, so 1/z is 0 there; written into
    ``out`` when given.

    A NaN or infinite entry of x is rejected first, by index, with
    ValueError.  Raises :class:`DomainError` naming the first pair whose sum
    is within ``floor`` of zero; floor 0 checks nothing.  The n^2 scan for
    that pair runs only when an O(n) test fails: rounding is monotone, so every
    computed pair sum lies between fl(two smallest entries) and fl(two
    largest entries), and no pair is within ``floor`` of zero when the two
    smallest sum to at least ``floor`` or the two largest to at most
    ``-floor``.  The test passes only when the scan would find nothing, so
    the error, its pair and its message are those of the scan alone.
    """
    _require_finite(x, "x")
    n = len(x)
    z = np.empty((n, n)) if out is None else out
    # Each row copied, then the column added in place: x_j + x_i has the bits
    # of x_i + x_j, and one contiguous copy beats a broadcast read of both.
    np.copyto(z, x)
    np.add(z, x[:, None], out=z)
    np.fill_diagonal(z, np.inf)
    if n >= 2 and (_low_pair_sum(x) >= floor or _low_pair_sum(-x) >= floor):
        return z
    small = np.abs(z) < floor
    if small.any():
        i, j = np.argwhere(small)[0]
        raise DomainError(
            f"pairwise sum x[{i}] + x[{j}] = {z[i, j]:.3e} is within "
            f"{floor:.1e} of zero (indices are 0-based)",
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
    return -_reciprocal_row_sums(_pair_sums(np.asarray(x, dtype=float), DOMAIN_FLOOR, out))


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
        _pair_sums(np.asarray(x, dtype=float), DOMAIN_FLOOR)))


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
        # margin sum_{j != i} d_j - d_i is rounded once.
        i = int(np.argmax(d))
        margin = math.fsum(np.append(np.delete(d, i), -d[i]))
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
    ``converged`` is True when ``residual_inf`` met the solver's stopping
    test, max(tol * min(1, max(d)), n * eps * max(d)).
    """

    theta: np.ndarray
    residual_inf: float
    iterations: int
    lipschitz_const: float
    error_certificate: float
    converged: bool
    ell_used: float
    certificate_is_local: bool = True


def _scaled(x: float, e: int) -> float:
    """x * 2^e rounded once; inf where that is past the largest float."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _finish(theta, r_inf, iters, converged, n) -> RetinaSolution:
    # Every pair sum is positive on the solver's domain, so the smallest
    # 1/(theta_i + theta_j)^2 belongs to the largest pair sum, which is minus
    # the smallest pair sum of -theta (negation commutes with rounding); so
    # ell equals the minimum over all pairs exactly.  That sum is first
    # scaled by 2^-e, with e its exponent (frexp's), into [1/2, 1), as in
    # bounds._balanced_decay: the scaling is exact, so ell, the constant and
    # the certificate keep their bits wherever nothing over- or underflows,
    # and none of them over- or underflows before it is scaled back.
    z = _low_pair_sum(-theta)
    e = math.frexp(z)[1]
    z = math.ldexp(z, -e)
    ell = 1.0 / (z * z)
    lip = (3 * n - 4) / (2.0 * ell * (n - 1) * (n - 2))
    return RetinaSolution(
        theta=theta,
        residual_inf=float(r_inf),
        iterations=iters,
        lipschitz_const=_scaled(lip, 2 * e),
        error_certificate=_scaled(lip * r_inf, 2 * e),
        converged=converged,
        ell_used=_scaled(ell, -2 * e),
    )


def solve_retina(prob: RetinaProblem, tol: float = 1e-10) -> RetinaSolution:
    """Damped Newton iteration on the moment-matching residual.

    Starts from the uniform closed form theta_i = (n-1)/(2 mean(d)), which
    is exact for constant d and keeps the iterate in the positive-sum
    domain.  Each step solves the balanced positive definite Jacobian
    system by Cholesky, then backtracks (halving) until every pairwise sum
    stays at or above the domain floor and the residual norm decreases.
    It stops when the residual norm is at most
    ``max(tol * min(1, max(d)), n * eps * max(d))``.  The first term is
    ``tol`` itself for targets of 1 and above and relative to the largest
    target below that, so a start close to tiny targets in absolute terms
    only is not taken for a solution; the second is the targets' own
    rounding, which no residual row sum of n terms gets under, so large
    targets can be met.  A stalled line search, a Jacobian that is not
    positive definite in floating point (at theta near 1e160 the squared
    pair sums overflow and its entries are 0), or ``MAX_ITER`` steps return
    converged=False rather than raising: a solution is only guaranteed to
    exist almost surely.

    One n x n buffer serves every step.  Each candidate is evaluated through
    :func:`residual`, which leaves the candidate's pair sums in the buffer;
    the line search ends only on an accepted candidate, so the buffer then
    holds the new iterate's pair sums, and the next Jacobian is built from
    them in place (squared, reciprocal, row sums on the diagonal) with no
    second pass over the pairs.  Cholesky factors it in place too: the
    Jacobian is exactly symmetric, so LAPACK reads the buffer's transpose,
    which is Fortran-ordered and needs no copy.
    """
    d = prob.d
    n = prob.n
    # uniform closed form; clamped so the start respects the domain floor
    theta = np.full(n, max((n - 1) / (2.0 * float(d.mean())), DOMAIN_FLOOR))
    w = np.empty((n, n))
    r = residual(theta, d, w)
    r_inf = float(np.abs(r).max())
    dmax = float(d.max())
    stop = max(tol * min(1.0, dmax), n * _EPS * dmax)
    for it in range(1, MAX_ITER + 1):
        if r_inf <= stop:
            return _finish(theta, r_inf, it - 1, True, n)
        # w holds the pair sums of -theta, left there by theta's residual; a
        # square past the largest float gives an entry of 0
        with np.errstate(over="ignore"):
            jac = _jacobian_from_pair_sums(w)
        f, info = scipy.linalg.lapack.dpotrf(jac.T, lower=0, clean=0, overwrite_a=1)
        if info > 0:  # not positive definite in floating point
            return _finish(theta, r_inf, it - 1, False, n)
        step = scipy.linalg.lapack.dpotrs(f, r, lower=0)[0]
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
                return _finish(theta, r_inf, it, False, n)
    return _finish(theta, r_inf, MAX_ITER, r_inf <= stop, n)


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

