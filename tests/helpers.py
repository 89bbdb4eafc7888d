"""Shared fixtures: reference matrices, small graphs, and test-side oracles."""

import math
from dataclasses import dataclass

import numpy as np

import scipy.linalg

from sddkit import (BipartiteComponent, DomainError, LoopGraph, MatrixError,
                    RetinaProblem, RetinaSolution, SForm, SingularBlockError,
                    SingularMatrixError, SymMatrix, analyze_bipartition,
                    eigen_sym, incidence, inverse_dense, randmat, sform_dense)
from sddkit.graphlimit import _require_compatible
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


def basis_matrix_by_columns(B) -> np.ndarray:
    """The U basis of ``graphlimit._basis_matrix`` stacked from one n-vector
    per column (test-side oracle)."""
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

def pair_sums_by_scan(x: np.ndarray, floor: float) -> np.ndarray:
    """x_i + x_j with inf on the diagonal; the first pair within ``floor``
    of zero, in row-major order, raises :class:`DomainError`."""
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


def solve_retina_by_scan(prob: RetinaProblem, tol: float = 1e-10,
                         max_iter: int = 80) -> RetinaSolution:
    """Damped Newton iteration of ``solve_retina`` with a fresh SymMatrix
    Jacobian per step, factored from a copy."""
    d = prob.d
    n = prob.n
    theta = np.full(n, max((n - 1) / (2.0 * float(d.mean())), DOMAIN_FLOOR))
    r = residual_by_scan(theta, d)
    r_inf = float(np.abs(r).max())
    for it in range(1, max_iter + 1):
        if r_inf <= tol:
            return _finish(theta, r_inf, it - 1, True, n)
        w = jacobian_by_scan(-theta)
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
    converged = r_inf <= tol
    return _finish(theta, r_inf, max_iter, converged, n)


def sample_degrees_by_scan(theta: np.ndarray, seed: int) -> np.ndarray:
    """``sample_degrees`` with its rates, and its positivity scan, on the
    full pair-sum matrix."""
    theta = np.asarray(theta, dtype=float)
    n = len(theta)
    if int(seed) != seed or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
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
                J = randmat.random_dominant(rng, n, lo=0.05 * m, hi=m,
                                            margin_hi=margin_cap)
            records.append(_lower_norm_record(t, J, alpha, m))
        else:
            J = randmat.random_balanced(rng, n, lo=0.2, hi=3.0)
            records.append(_det_upper_record(t, J))
    min_slack = min(r.slack for r in records)
    violations = [r.trial for r in records if r.violation]
    return ConjectureLedger(mode=mode, trials=trials, seed=seed,
                            records=records, min_slack=float(min_slack),
                            violations=violations)
