import gc
import math
import weakref

import numpy as np
import pytest

from helpers import (J4_BALANCED, bits, block_det_ratio_by_inverses,
                     block_det_ratio_unblocked, conjecture_search_ledger)
from sddkit import (
    LoopGraph,
    SForm,
    SingularBlockError,
    SymMatrix,
    adjugate_bound,
    block_det_ratio,
    condition_bound,
    conjecture_search,
    det_lower_bound,
    det_ratio_lu,
    det_upper_bound_balanced,
    eig_interval_check,
    hadamard_sanity,
    inf_norm,
    lower_bound_trivial,
    main_bound,
    sform_dense,
    signless_laplacian,
    spectral_route_bound,
    varah_bound,
    verify_suite,
    xi_functional,
)
from sddkit import bounds, matcore
from sddkit.bounds import CONJECTURES, SUITES
from sddkit.randmat import random_balanced, random_dominant, trial_rng


def ones_plus(alpha, n):
    return SymMatrix(alpha * np.eye(n) + np.ones((n, n)))


# Trailing blocks have determinants -3, -7, 34.
INDEFINITE4 = SymMatrix(np.array([
    [1.0, 2, 0, 1],
    [2, -1, 3, 0],
    [0, 3, 2, 1],
    [1, 0, 1, -3],
]))


S42 = SForm(4, 2.0, 1.0)


class TestVarah:
    def test_strictly_dominant(self):
        r = varah_bound(ones_plus(3, 4))
        assert r.holds and r.rhs == 1.0
        assert r.lhs == pytest.approx(3 / 7, abs=1e-14)

    def test_diagonal_is_tight(self):
        r = varah_bound(SymMatrix(10.0 * np.eye(3)))
        assert r.holds and r.lhs == pytest.approx(r.rhs, abs=1e-15)
        assert r.slack == pytest.approx(0.0, abs=1e-15)

    def test_balanced_inapplicable(self):
        r = varah_bound(ones_plus(2, 4))
        assert not r.applicable and not r.holds and r.vacuous


class TestMainBound:
    def test_tight_at_reference(self):
        r = main_bound(sform_dense(S42), S42)
        assert r.holds
        assert abs(r.slack) < 1e-10

    def test_balanced_example(self):
        r = main_bound(J4_BALANCED, S42)
        assert r.holds and r.rhs == pytest.approx(2 / 3, abs=1e-15)
        assert r.slack > 0

    def test_homogeneity(self):
        J2 = SymMatrix(2 * sform_dense(S42).entries)
        r = main_bound(J2, S42)
        assert r.holds
        assert r.lhs == pytest.approx(r.rhs / 2, abs=1e-12)

    def test_entrywise_violation_is_inapplicable(self):
        below = SymMatrix(0.5 * sform_dense(S42).entries)
        r = main_bound(below, S42)
        assert not r.applicable and "reason" in r.context

    def test_not_dominant_is_inapplicable(self):
        a = sform_dense(S42).entries.copy()
        a = a - 2.0 * np.eye(4)  # kill the diagonal margin
        r = main_bound(SymMatrix(a), S42)
        assert not r.applicable

    def test_dimension_mismatch_is_inapplicable(self):
        r = main_bound(SymMatrix(np.eye(3) + np.ones((3, 3))), S42)
        assert not r.applicable


class TestLowerBound:
    def test_reference_value(self):
        r = lower_bound_trivial(ones_plus(2, 4))
        assert r.lhs == pytest.approx(1 / 6, abs=1e-15)
        assert r.rhs == pytest.approx(2 / 3, abs=1e-12)
        assert r.holds

    def test_homogeneity(self):
        r1 = lower_bound_trivial(ones_plus(2, 4))
        r2 = lower_bound_trivial(SymMatrix(2 * ones_plus(2, 4).entries))
        assert r2.lhs == pytest.approx(r1.lhs / 2, abs=1e-15)
        assert r2.rhs == pytest.approx(r1.rhs / 2, abs=1e-12)
        assert r2.holds

    def test_random_suite(self):
        rng = trial_rng(103)
        for _ in range(30):
            r = lower_bound_trivial(random_dominant(rng, int(rng.integers(3, 9))))
            assert r.holds


class TestSpectralRoute:
    def test_reference(self):
        r = spectral_route_bound(ones_plus(2, 4), 1.0)
        assert r.holds and r.rhs == pytest.approx(1.0, abs=1e-15)
        assert r.lhs == pytest.approx(2 / 3, abs=1e-12)
        # lambda_min = (n-2) ell exactly, so the intermediate link is tight
        assert r.context["intermediate"] == pytest.approx(1.0, abs=1e-12)

    def test_rate_gap_at_large_n(self):
        # sqrt(n)/((n-2) ell) decays like 1/sqrt(n); the sharp bound like 1/n.
        n, ell = 100, 1.0
        loose = math.sqrt(n) / ((n - 2) * ell)
        sharp = (3 * n - 4) / (2 * ell * (n - 2) * (n - 1))
        assert loose == pytest.approx(10 / 98, abs=1e-15)
        assert sharp == pytest.approx(296 / 19404, abs=1e-15)
        assert loose / sharp > 6

    def test_context_records_gap(self):
        r = spectral_route_bound(ones_plus(2, 4), 1.0)
        assert r.context["sharp_rhs"] == pytest.approx(2 / 3, abs=1e-15)


class TestConditionBound:
    def test_reference(self):
        # inf_norm = 6 and inv norm = 2/3 make the condition number 4,
        # exactly the bound value at the balanced reference matrix.
        r = condition_bound(ones_plus(2, 4))
        assert r.holds
        assert r.lhs == pytest.approx(4.0, abs=1e-12)
        assert r.rhs == pytest.approx(4.0, abs=1e-15)

    def test_large_n_limit_of_bound(self):
        n = 10 ** 6
        rhs = (2 * 1 * (n - 1) + 0) * (3 * n - 4) / (2 * 1 * (n - 2) * (n - 1))
        assert rhs == pytest.approx(3.0, abs=1e-4)

    def test_scale_invariance_of_condition_number(self):
        rng = trial_rng(107)
        J = random_dominant(rng, 6)
        r1 = condition_bound(J)
        r2 = condition_bound(SymMatrix(3 * J.entries))
        assert r2.lhs == pytest.approx(r1.lhs, rel=1e-12)


class TestEigIntervals:
    def test_reference_hits_endpoints(self):
        r = eig_interval_check(ones_plus(2, 4), i=1)
        assert r.holds
        assert r.context["lambda_min"] == pytest.approx(2.0, abs=1e-10)
        assert r.context["lambda_max"] == pytest.approx(6.0, abs=1e-10)

    def test_random_balanced_all_blocks(self):
        rng = trial_rng(109)
        J = random_balanced(rng, 6, lo=1.0, hi=3.0)
        for i in range(1, 6):
            assert eig_interval_check(J, i=i).holds

    def test_dominant_skips_upper_bounds(self):
        # a huge diagonal margin pushes eigenvalues far above (n-2)*m,
        # which only the balanced case forbids
        rng = trial_rng(113)
        J = random_dominant(rng, 5, lo=1.0, hi=2.0, margin_hi=50.0)
        for i in range(1, 5):
            r = eig_interval_check(J, i=i)
            assert r.holds and not r.context["balanced"]

    def test_bad_block_index(self):
        r = eig_interval_check(ones_plus(2, 4), i=4)
        assert not r.applicable


# The six interval-type certificates share one precondition gate: n >= 3,
# [ell, m] brackets the off-diagonals, J dominant (or balanced), J_ii > 0.
GATED = [
    ("spectral", spectral_route_bound, "dominant"),
    ("cond", condition_bound, "dominant"),
    ("eig", lambda J, ell=None: eig_interval_check(J, ell, i=1), "dominant"),
    ("det_lower", det_lower_bound, "dominant"),
    ("det_upper", det_upper_bound_balanced, "balanced"),
    ("adjugate", adjugate_bound, "balanced"),
]


@pytest.mark.parametrize("name, bound, need", GATED, ids=[g[0] for g in GATED])
@pytest.mark.parametrize("case", ["n2", "ell_above_min", "hypothesis", "negative_diagonal"])
def test_gate_reports_first_failed_precondition(name, bound, need, case):
    if case == "n2":
        r = bound(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        reason, context = "needs n >= 3", {"n": 2}
    elif case == "ell_above_min":
        # J4_BALANCED has off-diagonals 1..7, so ell = 2 leaves the 1s outside
        r = bound(J4_BALANCED, ell=2.0)
        reason = "[ell, m] does not bracket the off-diagonals"
        context = {"n": 4, "ell": 2.0, "m": 7.0}
    elif case == "negative_diagonal":
        # dominant, or balanced, in |J_ii|: diagonal -4 or -3, off-diagonals 1
        r = bound(SymMatrix((-5.0 if need == "dominant" else -4.0) * np.eye(4)
                            + np.ones((4, 4))))
        reason, context = "needs a positive diagonal", {"n": 4}
    elif need == "dominant":
        r = bound(SymMatrix(np.array([[1.0, 1, 1], [1, 3, 1], [1, 1, 3]])))
        reason, context = "J not diagonally dominant", {"n": 3}
    else:
        r = bound(ones_plus(3, 3))
        reason, context = "J not diagonally balanced", {"n": 3}
    if name == "eig":
        context["i"] = 1
    assert r.applicable is False
    assert r.name == name
    assert r.context == dict(context, reason=reason)


class TestBlockDetRatio:
    def test_diagonal(self):
        factors, ratio = block_det_ratio(SymMatrix(np.diag([2.0, 3.0, 4.0])))
        np.testing.assert_array_equal(factors, [1.0, 1.0])
        assert ratio == 1.0

    def test_reference_value(self):
        _, ratio = block_det_ratio(ones_plus(2, 4))
        assert ratio == pytest.approx(16 / 27, abs=1e-12)

    def test_matches_lu_route(self):
        rng = trial_rng(127)
        for _ in range(40):
            J = random_dominant(rng, int(rng.integers(3, 13)))
            _, ratio = block_det_ratio(J)
            assert ratio == pytest.approx(det_ratio_lu(J), rel=1e-9)

    def test_balanced_example_matches_lu(self):
        _, ratio = block_det_ratio(J4_BALANCED)
        assert ratio == pytest.approx(det_ratio_lu(J4_BALANCED), rel=1e-12)

    def test_singular_block_named(self):
        a = np.ones((3, 3))
        a[0, 0] = 5.0
        with pytest.raises(SingularBlockError) as err:
            block_det_ratio(SymMatrix(a))
        assert err.value.block_index == 2

    def test_nested_singular_blocks_name_the_smallest(self):
        # The blocks from rows 2 and 3 are both singular; elimination runs
        # from the bottom, so it stops at the smaller one, row 3, while the
        # per-block inverse route meets the larger one, row 2, first.
        a = np.ones((4, 4))
        a[0, 0] = 5.0
        J = SymMatrix(a)
        with pytest.raises(SingularBlockError) as err:
            block_det_ratio(J)
        assert err.value.block_index == 3
        with pytest.raises(SingularBlockError) as err:
            block_det_ratio_by_inverses(J)
        assert err.value.block_index == 2

    def test_singular_matrix_with_regular_blocks_gives_zero(self):
        # Signless Laplacian of the path 2-1-3: bipartite, hence singular,
        # while its trailing blocks are identities.
        J = SymMatrix(np.array([[2.0, 1, 1], [1, 1, 0], [1, 0, 1]]))
        factors, ratio = block_det_ratio(J)
        np.testing.assert_array_equal(factors, [0.0, 1.0])
        assert ratio == 0.0

    @pytest.mark.parametrize("n", [*range(3, 13), 60, 150])
    @pytest.mark.parametrize("make", [random_dominant, random_balanced])
    def test_factors_match_inverse_oracle(self, make, n):
        J = make(trial_rng(151, n), n)
        factors, ratio = block_det_ratio(J)
        ref_factors, ref_ratio = block_det_ratio_by_inverses(J)
        np.testing.assert_allclose(factors, ref_factors, rtol=1e-12, atol=0)
        assert ratio == pytest.approx(ref_ratio, rel=1e-12)

    def test_indefinite_factors_match_inverse_oracle(self):
        factors, ratio = block_det_ratio(INDEFINITE4)
        ref_factors, ref_ratio = block_det_ratio_by_inverses(INDEFINITE4)
        np.testing.assert_allclose(factors, ref_factors, rtol=1e-12, atol=0)
        assert ratio == pytest.approx(ref_ratio, rel=1e-12)


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


class TestPanelElimination:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 12, matcore._SCALAR_MAX,
                                   matcore._SCALAR_MAX + 1, 31, 32])
    @pytest.mark.parametrize("make", [random_dominant, random_balanced])
    def test_single_panel_is_bitwise_the_unblocked_loop(self, make, n):
        J = make(trial_rng(161, n), n)
        factors, ratio = block_det_ratio(J)
        ref_factors, ref_ratio = block_det_ratio_unblocked(J)
        np.testing.assert_array_equal(bits(factors), bits(ref_factors))
        assert bits(np.array(ratio)) == bits(np.array(ref_ratio))

    def test_kernel_by_size(self, monkeypatch):
        ran = []
        for name in ("_pivots_scalar", "_pivots_panel"):
            kernel = getattr(matcore, name)
            monkeypatch.setattr(matcore, name,
                                lambda a, name=name, kernel=kernel:
                                ran.append((name, len(a))) or kernel(a))
        for n in (matcore._SCALAR_MAX, matcore._SCALAR_MAX + 1):
            block_det_ratio(random_dominant(trial_rng(179, n), n))
        assert ran == [("_pivots_scalar", matcore._SCALAR_MAX),
                       ("_pivots_panel", matcore._SCALAR_MAX + 1)]

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -1030], ids=["unit", "subnormal"])
    def test_near_singular_pivots_same_in_both_kernels(self, scale):
        # For every n up to the crossover and every row k >= 1, shift J_kk so
        # that the Schur pivot at k lands near c times its floor; rounding
        # puts it on either side of the floor.  Both kernels must agree on
        # every pivot's bits, or raise the same error at the same block.
        def outcome(kernel, a):
            try:
                return bits(np.asarray(kernel(a))).tolist()
            except SingularBlockError as err:
                return type(err), str(err), err.block_index

        raised = 0
        cases = 0
        for n in range(2, matcore._SCALAR_MAX + 1):
            base = random_dominant(trial_rng(181, n), n).entries * scale
            floors = matcore._pivot_floors(base)
            for k in range(1, n):
                # The elimination of a[k:, k:] ends at the pivot of row k.
                schur = matcore._pivots_panel(base[k:, k:])[0]
                for c in (0.0, 0.5, -0.5, 1.0, 2.0):
                    a = base.copy()
                    a[k, k] += c * floors[k] - schur
                    panel = outcome(matcore._pivots_panel, a)
                    assert outcome(matcore._pivots_scalar, a) == panel, (n, k, c)
                    raised += isinstance(panel, tuple)
                    cases += 1
        assert 0 < raised < cases

    def test_indefinite_is_bitwise_the_unblocked_loop(self):
        factors, ratio = block_det_ratio(INDEFINITE4)
        ref_factors, ref_ratio = block_det_ratio_unblocked(INDEFINITE4)
        np.testing.assert_array_equal(bits(factors), bits(ref_factors))
        assert ratio == ref_ratio

    @pytest.mark.parametrize("n", [33, 64, 65, 97, 150, 300])
    @pytest.mark.parametrize("make", [random_dominant, random_balanced])
    def test_panels_match_the_unblocked_loop(self, make, n):
        J = make(trial_rng(163, n), n)
        factors, ratio = block_det_ratio(J)
        ref_factors, ref_ratio = block_det_ratio_unblocked(J)
        np.testing.assert_allclose(factors, ref_factors, rtol=1e-13, atol=0)
        assert ratio == pytest.approx(ref_ratio, rel=1e-13)

    @pytest.mark.parametrize("n, start", [(50, 9), (80, 3), (70, 37)])
    def test_singular_block_inside_a_later_panel(self, n, start):
        # Panels run [n-32, n), then the 32 rows above, and so on; each
        # start lies below the first panel.
        J = singular_trailing_block(n, start, seed=n)
        with pytest.raises(SingularBlockError) as err:
            block_det_ratio(J)
        assert err.value.block_index == start + 1
        with pytest.raises(SingularBlockError) as ref:
            block_det_ratio_unblocked(J)
        assert ref.value.block_index == start + 1

    def test_singular_block_raises_on_every_call(self):
        J = singular_trailing_block(40, 5, seed=3)
        for _ in range(2):
            with pytest.raises(SingularBlockError) as err:
                block_det_ratio(J)
            assert err.value.block_index == 6
        with pytest.raises(SingularBlockError):
            hadamard_sanity(J)

    def test_factors_are_read_only(self):
        factors, _ = block_det_ratio(random_balanced(trial_rng(167), 40))
        assert not factors.flags.writeable
        with pytest.raises(ValueError):
            factors[0] = 1.0

    def test_one_elimination_per_matrix(self, monkeypatch):
        calls = []
        kernel = matcore._eliminate
        monkeypatch.setattr(matcore, "_eliminate",
                            lambda J: calls.append(J.n) or kernel(J))
        J = random_balanced(trial_rng(173), 7)
        first = block_det_ratio(J)
        for bound in (det_lower_bound, det_upper_bound_balanced,
                      adjugate_bound, hadamard_sanity):
            assert bound(J).applicable
        assert block_det_ratio(J) is first
        assert calls == [7]

    def test_determinant_bounds_read_block_det_ratio(self, monkeypatch):
        # The per-layer trace counts the eliminations behind the bounds
        # where they are read, at block_det_ratio.
        calls = []
        layer = bounds.block_det_ratio
        monkeypatch.setattr(bounds, "block_det_ratio",
                            lambda J: calls.append(J.n) or layer(J))
        J = random_balanced(trial_rng(173), 7)
        for bound in (det_lower_bound, det_upper_bound_balanced,
                      adjugate_bound, hadamard_sanity):
            assert bound(J).applicable
        assert calls == [7] * 4

    def test_matrix_is_collected_after_its_analysis(self):
        J = random_dominant(trial_rng(179), 6)
        block_det_ratio(J)
        det_lower_bound(J)
        varah_bound(J)
        alive = weakref.ref(J)
        del J
        gc.collect()
        assert alive() is None

    def test_eig_suite_classifies_each_matrix_once(self, monkeypatch):
        calls = []
        classify = matcore.classify
        monkeypatch.setattr(matcore, "classify",
                            lambda J: calls.append(J.n) or classify(J))
        records = verify_suite("eig", (6, 6), trials=4, seed=11)
        assert len(records) == 4 * 5
        assert calls == [6] * 4


def block_pair_example(k, ell, m):
    """Balanced 2k x 2k block matrix with closed-form determinant."""
    A = (k * m + k * ell - 2 * ell) * np.eye(k) + ell * np.ones((k, k))
    B = m * np.ones((k, k))
    return SymMatrix(np.block([[A, B], [B, A]]))


def block_pair_ratio(k, ell, m):
    det = 4 * ell * (k - 1) * (k * m + k * ell - ell) * (k * m + k * ell - 2 * ell) ** (2 * k - 2)
    return det / (k * m + k * ell - ell) ** (2 * k)


class TestDetLowerBound:
    def test_reference(self):
        r = det_lower_bound(ones_plus(2, 4))
        assert r.holds and not r.vacuous
        assert r.lhs == pytest.approx(1 / 8, abs=1e-15)
        assert r.rhs == pytest.approx(16 / 27, abs=1e-12)

    def test_equal_entry_limit(self):
        # with m = ell the base is 1 - 1/(n-2) and the bound tends to 1/e
        n = 10 ** 6
        bound = (1 - 1 / (n - 2)) ** (n - 1)
        assert bound == pytest.approx(math.exp(-1), abs=1e-5)

    def test_vacuous_flag_tracks_base_sign(self):
        # n = 3 with m/ell = 100: base = 1 - 0.5*10*101 < 0
        a = np.array([[101.0, 1, 100], [1, 102, 1], [100, 1, 102]])
        J = SymMatrix(a)
        r = det_lower_bound(J)
        assert r.vacuous and r.applicable
        assert r.lhs == float("-inf") and r.holds
        assert r.context["base"] <= 0
        r2 = det_lower_bound(ones_plus(2, 4))
        assert not r2.vacuous and r2.context["base"] > 0

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("m", [1.0, 10.0])
    def test_block_pair_closed_form(self, k, m):
        J = block_pair_example(k, 1.0, m)
        _, ratio = block_det_ratio(J)
        assert ratio == pytest.approx(block_pair_ratio(k, 1.0, m), rel=1e-9)
        r = det_lower_bound(J)
        assert r.holds


class TestDetUpperBound:
    def test_reference(self):
        r = det_upper_bound_balanced(ones_plus(2, 4))
        assert r.holds
        assert r.lhs == pytest.approx(16 / 27, abs=1e-12)
        assert r.rhs == pytest.approx(math.exp(-0.25), abs=1e-15)

    def test_hadamard_sanity(self):
        rng = trial_rng(131)
        for _ in range(20):
            J = random_dominant(rng, int(rng.integers(3, 10)))
            assert hadamard_sanity(J).holds

    def test_random_balanced(self):
        rng = trial_rng(137)
        for _ in range(20):
            r = det_upper_bound_balanced(random_balanced(rng, 8, lo=1.0, hi=2.0))
            assert r.holds

    def test_dominant_inapplicable(self):
        rng = trial_rng(139)
        J = random_dominant(rng, 5, margin_hi=3.0)
        assert not det_upper_bound_balanced(J).applicable


class TestHadamard:
    def test_indefinite_is_inapplicable(self):
        # eigenvalues -1.69, -1, 7.69; the det ratio 3.25 exceeds 1
        J = SymMatrix(np.array([[2.0, 3, 3], [3, 2, 3], [3, 3, 1]]))
        assert J.elimination[1] == pytest.approx(3.25)
        r = hadamard_sanity(J)
        assert not r.applicable
        assert r.context == {"n": 3, "reason": "J not positive semidefinite"}

    def test_non_positive_diagonal_is_inapplicable(self):
        r = hadamard_sanity(SymMatrix(-5.0 * np.eye(4) + np.ones((4, 4))))
        assert r.context == {"n": 4, "reason": "needs a positive diagonal"}

    def test_singular_psd_holds(self):
        # path Laplacian: PSD with a zero row-1 pivot
        r = hadamard_sanity(SymMatrix(np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])))
        assert r.applicable and r.holds and r.lhs == 0.0
        # a weighted Laplacian whose zero row-1 pivot rounds below zero
        w = np.triu(trial_rng(211, 4).uniform(0.5, 2.0, size=(6, 6)), 1)
        J = SymMatrix(np.diag((w + w.T).sum(axis=1)) - (w + w.T))
        assert J.elimination[0][0] < 0
        assert hadamard_sanity(J).holds

    def test_applicable_exactly_when_positive_definite(self):
        rng = trial_rng(199)
        seen = set()
        for _ in range(200):
            n = int(rng.integers(2, 8))
            b = rng.normal(size=(n, n))
            a = b + b.T
            np.fill_diagonal(a, np.abs(a.diagonal()) + rng.uniform(0.0, 4.0))
            r = hadamard_sanity(SymMatrix(a))
            positive_definite = bool(np.linalg.eigvalsh(a)[0] > 0)
            assert r.applicable == positive_definite
            assert r.holds == positive_definite
            seen.add(positive_definite)
        assert seen == {True, False}


class TestAdjugateBound:
    def test_reference_value(self):
        # adjugate norm over the diagonal product is det_ratio * inv_norm:
        # (16/27)(2/3) = 32/81 at the balanced reference matrix.
        r = adjugate_bound(ones_plus(2, 4))
        assert r.holds
        assert r.lhs == pytest.approx(32 / 81, rel=1e-12)
        assert r.rhs == pytest.approx((2 / 3) * math.exp(-0.25), abs=1e-15)

    def test_rescaled_instance_still_holds(self):
        r = adjugate_bound(SymMatrix(2.5 * ones_plus(2, 4).entries))
        assert r.holds

    def test_random_balanced(self):
        rng = trial_rng(149)
        for _ in range(20):
            r = adjugate_bound(random_balanced(rng, 6, lo=1.0, hi=3.0))
            assert r.holds

    def test_finite_where_determinant_overflows(self):
        # det(J) is about 1e800 here, beyond float range; the ratio is not.
        J = random_balanced(trial_rng(157), 300)
        r = adjugate_bound(J)
        assert math.isfinite(r.lhs) and r.lhs > 0
        assert r.holds and r.applicable


class TestXiFunctional:
    def test_single_edge(self):
        P = signless_laplacian(LoopGraph(4, [(1, 2)]))
        res = xi_functional(S42, P)
        assert res.xi > 0
        np.testing.assert_allclose(res.per_row, np.full(4, 1 / 9), atol=1e-15)

    def test_zero_input_flagged(self):
        res = xi_functional(S42, SymMatrix(np.zeros((4, 4))))
        assert res.zero_input and res.xi == 0.0

    def test_routes_agree_on_random_laplacians(self):
        rng = trial_rng(151)
        from sddkit.randmat import random_loop_graph
        for _ in range(40):
            n = int(rng.integers(3, 11))
            ell = float(rng.uniform(0.5, 2.0))
            S = SForm(n, (n - 2) * ell * (1 + float(rng.uniform(0, 1))), ell)
            g = random_loop_graph(rng, n, 0.4, 0.2)
            if g.num_edges == 0:
                continue
            res = xi_functional(S, signless_laplacian(g))
            assert res.xi > 0
            scale = max(np.abs(res.per_row_closed).max(), 1e-300)
            assert np.abs(res.per_row - res.per_row_closed).max() <= 1e-10 * scale

    def test_rejects_negative_entries(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = -1.0
        a[0, 0] = a[1, 1] = 1.0
        with pytest.raises(ValueError):
            xi_functional(SForm(3, 2.0, 1.0), SymMatrix(a))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            xi_functional(SForm(4, 2.0, 1.0), SymMatrix(np.zeros((3, 3))))

    def test_rejects_non_dominant_p(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0  # adjacency only: margins are negative
        with pytest.raises(ValueError):
            xi_functional(SForm(3, 2.0, 1.0), SymMatrix(a))


class TestConjectureSearch:
    def test_lower_norm_equality_case(self):
        records = conjecture_search("lower_norm", trials=1, seed=5)
        assert abs(records[0].report.slack) < 1e-12  # trial 0 is the family member

    def test_det_upper_equality_case(self):
        for n in (4, 7):
            S = SForm.balanced(n)
            _, ratio = block_det_ratio(sform_dense(S))
            bound = 2 * (1 - 1 / (n - 1)) ** (n - 1)
            assert ratio == pytest.approx(bound, rel=1e-12)

    def test_search_is_deterministic(self):
        a = conjecture_search("det_upper", 25, seed=9)
        b = conjecture_search("det_upper", 25, seed=9)
        assert [r.report.slack for r in a] == [r.report.slack for r in b]

    def test_det_upper_search_reads_block_det_ratio(self, monkeypatch):
        expected = conjecture_search("det_upper", 20, 0)
        calls = []
        layer = bounds.block_det_ratio
        monkeypatch.setattr(bounds, "block_det_ratio",
                            lambda J: calls.append(J.n) or layer(J))
        assert conjecture_search("det_upper", 20, 0) == expected
        assert len(calls) == 20

    def test_records_shape(self):
        records = conjecture_search("lower_norm", 50, seed=1)
        assert [r.trial for r in records] == list(range(50))
        assert all(r.suite == "lower_norm" for r in records)
        assert np.isfinite(min(r.report.slack for r in records))
        assert all(r.report.holds == (r.report.slack >= -r.report.context["tol"])
                   for r in records)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            conjecture_search("nope", 1, 0)
        with pytest.raises(ValueError):
            conjecture_search("det_upper", 0, 0)

    @pytest.mark.parametrize("mode", CONJECTURES)
    def test_matches_separate_engine(self, mode):
        # The suite engine reproduces the search's own former engine bit for
        # bit; only the tolerance differs (1e-9 max(1, |rhs|) instead of
        # 1e-9 max(1, |lhs|) for lower_norm), and no trial here lies between.
        for seed in (0, 7, 71):
            records = conjecture_search(mode, 300, seed)
            ledger = conjecture_search_ledger(mode, 300, seed)
            assert len(records) == len(ledger.records) == 300
            for rec, old in zip(records, ledger.records):
                r = rec.report
                assert (rec.suite, rec.trial, rec.n, rec.params) == \
                    (mode, old.trial, old.n, old.params)
                assert bits(np.array([r.lhs, r.rhs, r.slack])).tolist() == \
                    bits(np.array([old.lhs, old.rhs, old.slack])).tolist()
                assert (not r.holds) == old.violation


class TestVerifySuites:
    @pytest.mark.parametrize("suite", SUITES)
    def test_full_scale_runs_hold(self, suite):
        # every applicable report must hold across 1000 random instances
        records = verify_suite(suite, (3, 12), trials=1000, seed=3)
        assert len(records) >= 1000
        for rec in records:
            if rec.report.applicable:
                assert rec.report.holds, (suite, rec.trial, rec.report)

    def test_deterministic(self):
        a = verify_suite("main", (3, 8), 10, seed=4)
        b = verify_suite("main", (3, 8), 10, seed=4)
        assert [r.report.slack for r in a] == [r.report.slack for r in b]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            verify_suite("main", (1, 5), 10, 0)
        with pytest.raises(ValueError):
            verify_suite("nope", (3, 5), 10, 0)
        for mode in CONJECTURES:
            with pytest.raises(ValueError):
                verify_suite(mode, (3, 5), 10, 0)
