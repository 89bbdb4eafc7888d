"""End-to-end acceptance checks, one test per contract item.

Each test pins the tolerance it must meet; the conftest hook prints a
PASS/FAIL line per item after the run.
"""

import time

import numpy as np
import pytest

from helpers import (
    H3,
    H4_BALANCED,
    J3,
    J4_BALANCED,
    chain_cycle,
    general_inverse,
    jt_matrix,
    random_balanced,
    random_dominant,
    random_geq_sform,
    star,
)
from sddkit import (
    AsymmetricMatrixError,
    LoopGraph,
    SForm,
    analyze_bipartition,
    conjecture_search,
    det_lower_bound,
    det_ratio_lu,
    det_upper_bound_balanced,
    block_det_ratio,
    eig_interval_check,
    f_map,
    incidence,
    inf_norm,
    inverse_dense,
    jacobian,
    limit_closed_form,
    limit_inf_norm,
    limit_numeric,
    limit_u_route,
    load_matrix,
    main_bound,
    sform_dense,
    sform_inf_norm_inverse,
    sform_inverse,
    signless_laplacian,
    solve_retina,
    xi_functional,
)
from sddkit.retina import RetinaProblem, consistency_experiment
from sddkit.randmat import random_loop_graph, trial_rng

SEED = 20260811


def _route_corpus(count=500):
    """(SForm, LoopGraph) cases: fixed edge/self-loop/isolated-vertex
    specials, then seeded random graphs up to n = 12."""
    cases = [
        (SForm(5, 3.0, 1.0), LoopGraph(5)),                        # empty
        (SForm(4, 2.0, 1.0), LoopGraph(4, [(2, 2)])),              # lone self-loop
        (SForm(6, 4.0, 1.0), LoopGraph(6, [(1, 2), (4, 5)])),      # disconnected
        (SForm(7, 5.0, 1.0), LoopGraph(7, [(1, 2), (3, 3), (5, 6)])),
        (SForm(5, 3.0, 1.0), LoopGraph(5, [(1, 2)])),              # isolated rest
    ]
    rng = trial_rng(SEED, 5)
    while len(cases) < count:
        n = int(rng.integers(3, 13))
        ell = float(rng.uniform(0.5, 2.0))
        alpha = (n - 2) * ell + float(rng.uniform(0.0, 2.0 * ell))
        cases.append((SForm(n, alpha, ell),
                      random_loop_graph(rng, n, p_edge=0.25, p_loop=0.15)))
    return cases


def test_closed_form_inverse_roundtrip():
    # 100 random (n, alpha, ell): closed-form inverse times dense = identity
    # to 1e-12, in under a second.
    rng = trial_rng(SEED, 1)
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(3, 51))
        S = SForm(n, float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0)))
        prod = sform_inverse(S).entries @ sform_dense(S).entries
        assert np.abs(prod - np.eye(n)).max() <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"closed-form roundtrip took {elapsed:.2f}s"


def test_reference_norm_constant_and_bound_tightness():
    # the balanced n=4 member has inverse norm exactly 2/3, and the norm
    # bound has strictly positive slack off the reference point
    S = SForm(4, 2.0, 1.0)
    assert sform_inf_norm_inverse(S) == 2.0 / 3.0
    tight = main_bound(sform_dense(S), S)
    assert tight.holds and abs(tight.slack) < 1e-10
    rng = trial_rng(SEED, 2)
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        ell = float(rng.uniform(0.5, 2.0))
        alpha = (n - 2) * ell + float(rng.uniform(0.0, 2.0 * ell))
        Sr = SForm(n, alpha, ell)
        J = random_geq_sform(rng, Sr, bump_hi=2.0 * ell, nonzero=True)
        rep = main_bound(J, Sr)
        assert rep.applicable and rep.holds
        assert rep.slack > 0.0, f"zero slack off the reference point (n={n})"


def test_cycle_limit_values():
    S = SForm(4, 2.0, 1.0)
    g = chain_cycle(4)
    got = limit_numeric(S, g, 1.0).entries
    expect = np.array([
        [11, -4, 1, -4],
        [-4, 11, -4, 1],
        [1, -4, 11, -4],
        [-4, 1, -4, 11],
    ]) / 40.0
    assert np.abs(got - expect).max() <= 1e-12
    alternating = np.array([[(-1.0) ** (i + j) / 8 for j in range(4)] for i in range(4)])
    assert np.abs(limit_numeric(S, g, 1e8).entries - alternating).max() <= 1e-5


def test_star_limit_values():
    for n in (4, 6, 10):
        S = SForm(n, float(n - 2), 1.0)
        B = analyze_bipartition(star(n))
        N = limit_closed_form(S, B).entries
        c = 1.0 / (2 * (n - 1) * (n - 2))
        expect = np.full((n, n), c)
        expect[0, 1:] = -c
        expect[1:, 0] = -c
        assert np.abs(N - expect).max() <= 1e-14
        assert abs(limit_inf_norm(S, B) - inf_norm(limit_closed_form(S, B))) <= 1e-12


def test_route_agreement_corpus():
    cases = _route_corpus(500)
    saw_loops = saw_disconnected = saw_isolated = 0
    for S, g in cases:
        B = analyze_bipartition(g)
        N = limit_closed_form(S, B)
        assert np.abs(limit_u_route(S, B).entries - N.entries).max() <= 1e-9
        assert np.abs(limit_numeric(S, g, 1e8).entries - N.entries).max() <= 1e-5
        L = incidence(g)
        if L.shape[1]:
            assert np.abs(N.entries @ L).max() <= 1e-9
        if any(i == j for i, j in g.edges):
            saw_loops += 1
        if len(B.components) > 1:
            saw_disconnected += 1
        if any(len(c.vertices) == 1 for c in B.components):
            saw_isolated += 1
    assert saw_loops > 20 and saw_disconnected > 50 and saw_isolated > 20


def test_extremal_gap_corpus():
    for S, g in _route_corpus(500):
        B = analyze_bipartition(g)
        limit_norm = limit_inf_norm(S, B)
        ref_norm = sform_inf_norm_inverse(S)
        if g.num_edges == 0:
            assert abs(limit_norm - ref_norm) <= 1e-14
        else:
            assert limit_norm < ref_norm


def test_determinant_machinery():
    # factorization vs LU ratio on 1000 instances
    rng = trial_rng(SEED, 7)
    for trial in range(1000):
        n = int(rng.integers(3, 13))
        J = (random_balanced(rng, n) if trial % 2 == 0 else random_dominant(rng, n))
        _, ratio = block_det_ratio(J)
        lu = det_ratio_lu(J)
        assert abs(ratio - lu) <= 1e-9 * max(1.0, abs(lu))
        low = det_lower_bound(J)
        assert low.applicable
        if not low.vacuous:
            assert low.holds
        if trial % 2 == 0:
            up = det_upper_bound_balanced(J)
            assert up.applicable and up.holds
    # balanced reference value at n=4
    _, ratio = block_det_ratio(sform_dense(SForm(4, 2.0, 1.0)))
    assert abs(ratio - 16.0 / 27.0) <= 1e-12
    # paired-block family with closed-form determinant
    for k in (2, 3, 4):
        for m in (1.0, 10.0):
            ell = 1.0
            A = (k * m + k * ell - 2 * ell) * np.eye(k) + ell * np.ones((k, k))
            Bm = m * np.ones((k, k))
            from sddkit import SymMatrix
            J = SymMatrix(np.block([[A, Bm], [Bm, A]]))
            det_closed = (4 * ell * (k - 1) * (k * m + k * ell - ell)
                          * (k * m + k * ell - 2 * ell) ** (2 * k - 2))
            ratio_closed = det_closed / (k * m + k * ell - ell) ** (2 * k)
            _, ratio = block_det_ratio(J)
            assert abs(ratio - ratio_closed) <= 1e-9 * ratio_closed


def test_eigenvalue_intervals():
    rng = trial_rng(SEED, 8)
    for trial in range(2000):
        n = int(rng.integers(3, 13))
        balanced = trial < 1000
        J = random_balanced(rng, n) if balanced else random_dominant(rng, n)
        for i in range(1, n):
            rep = eig_interval_check(J, i=i)
            assert rep.applicable and rep.holds, (trial, n, i, rep)
            assert rep.context["balanced"] == balanced


def test_positivity_functional():
    rng = trial_rng(SEED, 9)
    checked = 0
    while checked < 500:
        n = int(rng.integers(3, 11))
        ell = float(rng.uniform(0.5, 2.0))
        alpha = (n - 2) * ell * (1.0 + float(rng.uniform(0.0, 1.0)))
        S = SForm(n, alpha, ell)
        g = random_loop_graph(rng, n, p_edge=0.4, p_loop=0.2)
        if g.num_edges == 0:
            continue
        res = xi_functional(S, signless_laplacian(g))
        assert res.xi > 0.0
        scale = max(float(np.abs(res.per_row_closed).max()), np.finfo(float).tiny)
        assert np.abs(res.per_row - res.per_row_closed).max() <= 1e-10 * scale
        checked += 1


def test_asymmetric_counterexamples(tmp_path):
    # rebalancing examples: lowering one entry grows the inverse norm
    assert inf_norm(inverse_dense(H4_BALANCED)) < inf_norm(inverse_dense(J4_BALANCED))
    assert inf_norm(inverse_dense(H3)) < inf_norm(inverse_dense(J3))
    # the symmetric loader rejects the non-symmetric balanced family
    path = tmp_path / "jt.txt"
    rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in jt_matrix(1.0))
    path.write_text("3\n" + rows + "\n")
    with pytest.raises(AsymmetricMatrixError):
        load_matrix(path)
    # without symmetry the inverse norm grows unboundedly in t
    norms = []
    for t in (1.0, 10.0, 100.0):
        inv = general_inverse(jt_matrix(t))
        norms.append(np.abs(inv).sum(axis=1).max())
        # closed-form inverse of the family, for cross-checking the oracle
        expect = 0.25 * np.array([
            [(t + 3) / (t + 1), (t - 1) / (t + 1), -t - 1],
            [(t - 1) / (t + 1), (t + 3) / (t + 1), -t - 1],
            [-1, -1, t + 3],
        ])
        assert np.abs(inv - expect).max() <= 1e-10
    assert norms[0] < norms[1] < norms[2]


def test_estimator_roundtrip_and_lipschitz():
    rng = trial_rng(SEED, 11)
    for _ in range(200):
        n = int(rng.integers(4, 51))
        theta = rng.uniform(0.5, 2.0, size=n)
        sol = solve_retina(RetinaProblem(f_map(-theta)))
        assert sol.converged
        assert np.abs(sol.theta - theta).max() <= 1e-8
    # analytic Jacobian against central differences
    for _ in range(20):
        n = int(rng.integers(4, 13))
        x = -rng.uniform(0.5, 2.0, size=n)
        J = jacobian(x).entries
        h = 1e-5
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            col = (f_map(x + e) - f_map(x - e)) / (2 * h)
            assert np.abs(J[:, j] - col).max() <= 1e-6 * max(1.0, np.abs(col).max())
    # inverse-map Lipschitz inequality on perturbation pairs
    for _ in range(200):
        n = int(rng.integers(4, 31))
        theta = rng.uniform(0.5, 2.0, size=n)
        d = f_map(-theta)
        eps = rng.uniform(-1e-3, 1e-3, size=n)
        sol1 = solve_retina(RetinaProblem(d))
        sol2 = solve_retina(RetinaProblem(d + eps))
        assert sol1.converged and sol2.converged
        ell = min(sol1.ell_used, sol2.ell_used)
        lip = (3 * n - 4) / (2.0 * ell * (n - 1) * (n - 2))
        assert np.abs(sol2.theta - sol1.theta).max() <= lip * np.abs(eps).max() + 1e-9


def test_estimator_consistency_sweep():
    start = time.perf_counter()
    medians = []
    for n in (50, 100, 200, 400):
        _, summary = consistency_experiment(n, 2.0, 200, (0.5, 2.0), seed=SEED)
        assert summary.converged == summary.trials, f"non-converged trials at n={n}"
        assert summary.fraction_within >= summary.target, (
            f"n={n}: {summary.fraction_within} < {summary.target}")
        medians.append(summary.median_err)
    assert all(a >= b for a, b in zip(medians, medians[1:])), medians
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"consistency sweep took {elapsed:.0f}s"


def test_conjecture_searches():
    for mode in ("lower_norm", "det_upper"):
        records = conjecture_search(mode, trials=10_000, seed=SEED)
        assert len(records) == 10_000
        min_slack = min(r.report.slack for r in records)
        assert np.isfinite(min_slack)
        # violations are findings, not failures; surface them loudly
        findings = [r for r in records if not r.report.holds]
        for r in findings:
            print(f"[finding] {mode} violated at trial {r.trial}: n={r.n} "
                  f"lhs={r.report.lhs!r} rhs={r.report.rhs!r} slack={r.report.slack!r}")
        print(f"[acceptance-info] {mode}: min_slack={min_slack:.3e} "
              f"violations={len(findings)}")
