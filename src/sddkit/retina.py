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
jacobian and residual raise DomainError for a pair sum within it of zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matcore import SymMatrix

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


class DomainError(ValueError):
    """A pairwise sum x_i + x_j left the admissible domain.

    ``pair`` holds the offending zero-based index pair.
    """

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair


def _low_pair_sum(x: np.ndarray) -> float:
    """fl(a + b) for the two smallest entries a, b of x (len(x) >= 2).

    Rounding is monotone, so this is a lower bound on every computed pair
    sum x_i + x_j with i != j, attained by that pair.
    """
    low = np.partition(x, 1)[:2]
    return low[0] + low[1]


def _pair_sums(x: np.ndarray, floor: float, out: np.ndarray | None = None) -> np.ndarray:
    """x_i + x_j with inf on the diagonal, so 1/z is 0 there; written into
    ``out`` when given.

    Raises :class:`DomainError` naming the first pair whose sum is within
    ``floor`` of zero; floor 0 checks nothing.  The n^2 scan for that pair
    runs only when an O(n) test fails: rounding is monotone, so every
    computed pair sum lies between fl(two smallest entries) and fl(two
    largest entries), and no pair is within ``floor`` of zero when the two
    smallest sum to at least ``floor`` or the two largest to at most
    ``-floor``.  The test passes only when the scan would find nothing, so
    the error, its pair and its message are those of the scan alone.
    """
    z = np.add(x[:, None], x[None, :], out=out)
    np.fill_diagonal(z, np.inf)
    if len(x) >= 2 and (_low_pair_sum(x) >= floor or _low_pair_sum(-x) >= floor):
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


def f_map(x: np.ndarray) -> np.ndarray:
    """F_i(x) = -sum_{j != i} 1/(x_i + x_j).

    With x = -theta and all theta_i + theta_j > 0 this returns the expected
    degree sequence: d = F(-theta) means d_i = sum_{j != i} 1/(theta_i + theta_j).
    """
    z = _pair_sums(np.asarray(x, dtype=float), DOMAIN_FLOOR)
    return -np.divide(1.0, z, out=z).sum(axis=1)


def _jacobian_entries(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entries of the Jacobian of f_map at x, written into ``out`` when given:
    pair sums, squared, reciprocal, then the row sums on the diagonal."""
    w = _pair_sums(x, DOMAIN_FLOOR, out)
    np.multiply(w, w, out=w)
    np.divide(1.0, w, out=w)
    np.fill_diagonal(w, w.sum(axis=1))
    return w


def jacobian(x: np.ndarray) -> SymMatrix:
    """Jacobian of f_map at x: off-diagonal 1/(x_i+x_j)^2, diagonal row sums.

    Diagonally balanced by construction, and positive definite whenever all
    pairwise sums are nonzero and n >= 3.
    """
    return SymMatrix(_jacobian_entries(np.asarray(x, dtype=float)))


def residual(theta: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Moment-matching residual F(-theta) - d."""
    return f_map(-np.asarray(theta, dtype=float)) - np.asarray(d, dtype=float)


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
        if not np.isfinite(d).all():
            i = int(np.flatnonzero(~np.isfinite(d))[0])
            raise ValueError(f"target degree d[{i}] = {d[i]} is not finite")
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
    """

    theta: np.ndarray
    residual_inf: float
    iterations: int
    lipschitz_const: float
    error_certificate: float
    converged: bool
    ell_used: float
    certificate_is_local: bool = True


def _local_ell(theta: np.ndarray) -> float:
    # Every pair sum is positive on the solver's domain, so the smallest
    # 1/(theta_i + theta_j)^2 belongs to the largest pair sum, which is minus
    # the smallest pair sum of -theta (negation commutes with rounding); so
    # this equals the minimum over all pairs exactly.
    z = _low_pair_sum(-theta)
    return float(1.0 / (z * z))


def _finish(theta, r_inf, iters, converged, n) -> RetinaSolution:
    ell = _local_ell(theta)
    lip = (3 * n - 4) / (2.0 * ell * (n - 1) * (n - 2))
    return RetinaSolution(
        theta=theta,
        residual_inf=float(r_inf),
        iterations=iters,
        lipschitz_const=float(lip),
        error_certificate=float(lip * r_inf),
        converged=converged,
        ell_used=ell,
    )


def solve_retina(prob: RetinaProblem, tol: float = 1e-10,
                 max_iter: int = 80) -> RetinaSolution:
    """Damped Newton iteration on the moment-matching residual.

    Starts from the uniform closed form theta_i = (n-1)/(2 mean(d)), which
    is exact for constant d and keeps the iterate in the positive-sum
    domain.  Each step solves the balanced positive definite Jacobian
    system by Cholesky, then backtracks (halving) until every pairwise sum
    stays at or above the domain floor and the residual norm decreases.
    A stalled line search or the iteration cap returns converged=False
    rather than raising: a solution is only guaranteed to exist almost
    surely.

    One n x n buffer serves every step: the step's Jacobian is built into
    it (pair sums, squared, reciprocal, row sums on the diagonal) and
    Cholesky factors it in place.  The Jacobian is exactly symmetric, so
    LAPACK reads the buffer's transpose, which is Fortran-ordered and needs
    no copy.  Each candidate is evaluated through :func:`residual`.
    """
    d = prob.d
    n = prob.n
    # uniform closed form; clamped so the start respects the domain floor
    theta = np.full(n, max((n - 1) / (2.0 * float(d.mean())), DOMAIN_FLOOR))
    r = residual(theta, d)
    r_inf = float(np.abs(r).max())
    w = np.empty((n, n))
    for it in range(1, max_iter + 1):
        if r_inf <= tol:
            return _finish(theta, r_inf, it - 1, True, n)
        _jacobian_entries(-theta, out=w)
        try:
            cho = scipy.linalg.cho_factor(w.T, overwrite_a=True, check_finite=False)
        except scipy.linalg.LinAlgError:
            return _finish(theta, r_inf, it - 1, False, n)
        step = scipy.linalg.cho_solve(cho, r, check_finite=False)
        lam = 1.0
        step_inf = float(np.abs(step).max())
        while True:
            cand = theta + lam * step
            if _low_pair_sum(cand) >= DOMAIN_FLOOR:  # the smallest pair sum
                r_new = residual(cand, d)
                r_new_inf = float(np.abs(r_new).max())
                if r_new_inf < r_inf:
                    theta, r, r_inf = cand, r_new, r_new_inf
                    break
            lam *= 0.5
            if lam * step_inf < 1e-14:
                return _finish(theta, r_inf, it, False, n)
    converged = r_inf <= tol
    return _finish(theta, r_inf, max_iter, converged, n)


def sample_degrees(theta: np.ndarray, seed: int) -> np.ndarray:
    """Row sums of one sampled weighted graph under parameters theta.

    Edge {i, j} (i < j) gets an independent Exponential draw with rate
    theta_i + theta_j from a counter-based Philox stream keyed by ``seed``,
    with the counter advancing in canonical (i, j) order.  The draw for an
    edge therefore depends only on (seed, i, j): sampling is a pure
    function of (theta, seed), order-independent, and parallel-safe.
    """
    theta = np.asarray(theta, dtype=float)
    n = len(theta)
    if int(seed) != seed or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    # every pair sum is positive if the smallest one is
    if n >= 2 and not _low_pair_sum(theta) > 0:
        z = _pair_sums(theta, 0.0)
        if (z <= 0).any():
            i, j = np.argwhere(z <= 0)[0]
            raise DomainError(
                f"theta[{i}] + theta[{j}] = {z[i, j]:.3e} must be positive",
                pair=(int(i), int(j)),
            )
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    iu = np.triu_indices(n, 1)
    draws = gen.standard_exponential(len(iu[0]))
    weights = draws / (theta[iu[0]] + theta[iu[1]])
    d = np.zeros(n)
    np.add.at(d, iu[0], weights)
    np.add.at(d, iu[1], weights)
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
    function of (seed, trial index).
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
    bound = consistency_bound(n, k, lo, hi)
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

