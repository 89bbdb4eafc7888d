import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (H4_BALANCED, J3, H3, J4_BALANCED, SingularUpdateError, bits,
                     eigen_sym_by_jacobi, jt_matrix, loewner_geq, smw_update,
                     symmetrize)
from sddkit import (
    AsymmetricMatrixError,
    EigenConvergenceError,
    MatrixError,
    MatrixFormatError,
    SingularBlockError,
    SingularMatrixError,
    SymMatrix,
    classify,
    delta,
    eigen_sym,
    inf_norm,
    inverse_dense,
    load_matrix,
    save_matrix,
)
from sddkit.randmat import random_balanced, random_dominant, trial_rng


def ones_plus(alpha, n):
    return SymMatrix(alpha * np.eye(n) + np.ones((n, n)))


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricMatrixError):
            SymMatrix(jt_matrix(1.0))

    def test_rejects_non_square(self):
        with pytest.raises(MatrixError):
            SymMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(MatrixError, match="non-finite entry") as err:
            SymMatrix(np.array([[1.0, bad], [bad, 1.0]]))
        assert not isinstance(err.value, AsymmetricMatrixError)

    def test_entries_are_read_only(self):
        M = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            M.entries[0, 0] = 5.0

    def test_symmetrize_guard(self):
        a = np.eye(3)
        a[0, 1] = 1e-3
        with pytest.raises(AsymmetricMatrixError):
            symmetrize(a)
        a[0, 1] = 1e-12
        M = symmetrize(a)
        assert M.entries[0, 1] == M.entries[1, 0]

    def test_symmetrize_near_the_largest_float(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = symmetrize(np.full((2, 2), 1e308))
        np.testing.assert_array_equal(M.entries, np.full((2, 2), 1e308))

    def test_symmetrize_halves_first_only_where_the_sum_overflows(self):
        tiny = 5e-324
        a = np.array([[1.7e308, 1.0e308, tiny],
                      [1.0e308 * (1 + 4e-16), 1.7e308, 3.0],
                      [2 * tiny, 3.0, tiny]])
        M = symmetrize(a).entries
        with np.errstate(over="ignore"):
            total = a + a.T
        finite = np.isfinite(total)
        assert not finite.all() and finite.any()
        np.testing.assert_array_equal(bits(M[finite]), bits(total[finite] / 2.0))
        np.testing.assert_array_equal(bits(M[~finite]),
                                      bits(a[~finite] / 2.0 + a.T[~finite] / 2.0))


class TestAnalysis:
    def test_dominance_is_the_default_classify_report(self):
        J = random_balanced(trial_rng(191), 7)
        rep, ref = J.dominance, classify(J)
        assert J.dominance is rep
        np.testing.assert_array_equal(bits(rep.deltas), bits(ref.deltas))
        assert (rep.is_dominant, rep.is_balanced, rep.is_strictly_dominant,
                rep.min_offdiag, rep.max_offdiag, rep.max_delta) == (
            ref.is_dominant, ref.is_balanced, ref.is_strictly_dominant,
            ref.min_offdiag, ref.max_offdiag, ref.max_delta)

    def test_inv_inf_norm_is_the_norm_of_the_inverse(self):
        J = random_dominant(trial_rng(193), 9)
        assert J.inv_inf_norm == inf_norm(inverse_dense(J))

    def test_a_failed_part_is_not_stored(self):
        J = SymMatrix(np.ones((3, 3)))
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                J.inv_inf_norm
            with pytest.raises(SingularBlockError):
                J.elimination
        assert "inv_inf_norm" not in vars(J) and "elimination" not in vars(J)


class TestDelta:
    def test_identity(self):
        np.testing.assert_array_equal(delta(SymMatrix(np.eye(3))), [1, 1, 1])

    def test_balanced_reference(self):
        np.testing.assert_array_equal(delta(ones_plus(2, 4)), np.zeros(4))

    def test_balanced_example(self):
        np.testing.assert_array_equal(delta(J4_BALANCED), np.zeros(4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_permutation_equivariant(self, seed, n):
        rng = trial_rng(seed)
        J = random_dominant(rng, n)
        perm = rng.permutation(n)
        JP = SymMatrix(J.entries[np.ix_(perm, perm)])
        np.testing.assert_allclose(delta(JP), delta(J)[perm], atol=1e-12)


class TestClassify:
    def test_balanced_not_strict(self):
        rep = classify(ones_plus(2, 4))
        assert rep.is_balanced and rep.is_dominant and not rep.is_strictly_dominant

    def test_strictly_dominant(self):
        rep = classify(ones_plus(3, 4))
        assert rep.is_strictly_dominant
        np.testing.assert_array_equal(rep.deltas, np.ones(4))

    def test_offdiag_stats(self):
        rep = classify(H4_BALANCED)
        assert rep.is_balanced
        assert rep.min_offdiag == 1 and rep.max_offdiag == 7

    def test_exact_integer_balanced_at_zero_tol(self):
        assert classify(J4_BALANCED).is_balanced

    def test_single_entry_has_no_offdiag(self):
        rep = classify(SymMatrix(np.array([[4.0]])))
        assert rep.min_offdiag is None and rep.max_offdiag is None


class TestInverseDense:
    def test_identity(self):
        np.testing.assert_array_equal(inverse_dense(SymMatrix(np.eye(5))).entries, np.eye(5))

    def test_reference_closed_form(self):
        # Oracle: (alpha I + ones)^{-1} = (1/alpha) I - 1/(alpha(alpha+n)) ones
        # at alpha=2, n=4 gives diagonal 5/12, off-diagonal -1/12.
        inv = inverse_dense(ones_plus(2, 4))
        expect = (5.0 / 12.0) * np.eye(4) - (1.0 / 12.0) * (np.ones((4, 4)) - np.eye(4))
        np.testing.assert_allclose(inv.entries, expect, atol=1e-14)

    def test_rebalancing_can_grow_the_norm(self):
        assert inf_norm(inverse_dense(H3)) < inf_norm(inverse_dense(J3))
        assert inf_norm(inverse_dense(H4_BALANCED)) < inf_norm(inverse_dense(J4_BALANCED))

    def test_singular_reports_pivot(self):
        with pytest.raises(SingularMatrixError) as err:
            inverse_dense(SymMatrix(np.ones((2, 2))))
        assert err.value.pivot >= 0.0

    def test_ill_conditioned_inverse_is_averaged_without_the_skew_guard(self):
        # hilbert(9) is positive definite with cond ~ 5e11; its LU inverse is
        # asymmetric by 2.3e3 against entries near 1.2e11, past symmetrize's
        # 1e-8 guard, though only by roundoff.
        H = SymMatrix(scipy.linalg.hilbert(9))
        raw = scipy.linalg.lu_solve(scipy.linalg.lu_factor(H.entries), np.eye(9))
        with pytest.raises(AsymmetricMatrixError):
            symmetrize(raw)  # the public guard stays
        inv = inverse_dense(H).entries
        np.testing.assert_array_equal(bits(inv), bits((raw + raw.T) / 2.0))
        np.testing.assert_allclose(inv, scipy.linalg.invhilbert(9), rtol=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 12))
    def test_roundtrip_random_sdd(self, seed, n):
        J = random_dominant(trial_rng(seed), n)
        prod = inverse_dense(J).entries @ J.entries
        np.testing.assert_allclose(prod, np.eye(n), atol=1e-9)


def _inverse_with_fresh_arrays(a):
    # lu_solve on a C-ordered identity, then (inv + inv') / 2, each step
    # into a new array.
    lu_piv = scipy.linalg.lu_factor(a, check_finite=False)
    inv = scipy.linalg.lu_solve(lu_piv, np.eye(a.shape[0]), check_finite=False)
    return (inv + inv.T) / 2.0


class TestInverseDenseBits:
    @pytest.mark.parametrize("n", [*range(3, 13), 800])
    def test_in_place_solve_is_bitwise_equal_to_fresh_arrays(self, n):
        J = random_dominant(trial_rng(181, n), n)
        np.testing.assert_array_equal(bits(inverse_dense(J).entries),
                                      bits(_inverse_with_fresh_arrays(J.entries)))

    @pytest.mark.parametrize("n", [3, 12, 100])
    def test_symmetrize_bitwise_equal_to_halved_sum(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = a + a.T + 1e-12 * rng.standard_normal((n, n))
        np.testing.assert_array_equal(bits(symmetrize(a).entries),
                                      bits((a + a.T) / 2.0))


class TestInfNorm:
    def test_identity(self):
        assert inf_norm(SymMatrix(np.eye(7))) == 1.0

    def test_reference_inverse_norms(self):
        assert inf_norm(inverse_dense(ones_plus(2, 4))) == pytest.approx(2 / 3, abs=1e-14)
        assert inf_norm(inverse_dense(ones_plus(3, 4))) == pytest.approx(3 / 7, abs=1e-14)


class TestEigenSym:
    def test_balanced_reference_spectrum(self):
        lams = eigen_sym(ones_plus(3, 5))
        np.testing.assert_allclose(lams, [3, 3, 3, 3, 8], atol=1e-10)

    def test_diagonal(self):
        np.testing.assert_allclose(eigen_sym(SymMatrix(np.diag([1.0, 2.0, 3.0]))),
                                   [1, 2, 3], atol=1e-14)

    def test_strictly_dominant_reference(self):
        np.testing.assert_allclose(eigen_sym(ones_plus(5, 4)), [5, 5, 5, 9], atol=1e-10)

    def test_single_entry(self):
        np.testing.assert_array_equal(eigen_sym(SymMatrix(np.array([[-2.0]]))), [-2.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 15))
    def test_matches_lapack(self, seed, n):
        rng = trial_rng(seed)
        a = rng.normal(size=(n, n))
        M = symmetrize(a + a.T)
        np.testing.assert_allclose(eigen_sym(M), np.linalg.eigvalsh(M.entries),
                                   atol=1e-10 * max(1.0, inf_norm(M)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12))
    def test_sum_is_trace(self, seed, n):
        J = random_dominant(trial_rng(seed), n)
        assert abs(eigen_sym(J).sum() - np.trace(J.entries)) <= 1e-8 * n * inf_norm(J)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_matches_jacobi_oracle(self, n):
        def check(M):
            tol = 1e-10 * inf_norm(M)
            want, vecs = eigen_sym_by_jacobi(M)
            assert np.linalg.norm(M.entries @ vecs - vecs * want, axis=0).max() <= tol
            np.testing.assert_allclose(eigen_sym(M), want, rtol=0, atol=tol)

        rng = trial_rng(n)
        for J in (random_dominant(rng, n), random_balanced(rng, n)):
            for k in range(n - 1):  # J itself, then its trailing blocks
                check(SymMatrix(J.entries[k:, k:]))
        # S-forms alpha*I + ell*ones: alpha is an (n-1)-fold eigenvalue
        for alpha, ell in (((n - 2) * 1.0, 1.0), ((n - 2) * 0.37 + 1.5, 0.37)):
            check(SymMatrix(alpha * np.eye(n) + ell * np.ones((n, n))))

    def test_nonconvergence_reports_residual(self, monkeypatch):
        M = ones_plus(2, 4)
        eigh = np.linalg.eigh

        def perturbed(a):
            lams, vecs = eigh(a)
            return lams + 1e-6, vecs

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(EigenConvergenceError) as err:
            eigen_sym(M)
        assert err.value.residual > 0

    def test_lapack_failure_reports_infinite_residual(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigenConvergenceError) as err:
            eigen_sym(ones_plus(2, 4))
        assert err.value.residual == math.inf


class TestSmwUpdate:
    def test_zero_t_is_identity_map(self):
        K = inverse_dense(J4_BALANCED)
        out = smw_update(K, np.array([1.0, 0, 1, 0]), 0.0)
        np.testing.assert_array_equal(out.entries, K.entries)

    def test_scalar_case(self):
        out = smw_update(SymMatrix(np.eye(3)), np.array([1.0, 0, 0]), 1.0)
        expect = np.eye(3)
        expect[0, 0] = 0.5
        np.testing.assert_allclose(out.entries, expect, atol=1e-15)

    def test_singular_update(self):
        with pytest.raises(SingularUpdateError):
            smw_update(SymMatrix(np.eye(3)), np.array([1.0, 0, 0]), -1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 10),
           st.floats(-10, 10), st.booleans())
    def test_agrees_with_dense_inverse(self, seed, n, t, pair):
        rng = trial_rng(seed)
        J = random_dominant(rng, n)
        i, j = rng.integers(0, n, size=2)
        u = np.zeros(n)
        u[i] = 1.0
        if pair and j != i:
            u[j] = 1.0
        updated = SymMatrix(J.entries + t * np.outer(u, u))
        try:
            expect = inverse_dense(updated)
        except SingularMatrixError:
            return
        K = inverse_dense(J)
        try:
            got = smw_update(K, u, t)
        except SingularUpdateError:
            return
        np.testing.assert_allclose(got.entries, expect.entries, atol=1e-9)


class TestLoewner:
    def test_reflexive(self):
        assert loewner_geq(J4_BALANCED, J4_BALANCED, tol=0.0)

    def test_balanced_dominates_reference(self):
        S = ones_plus(2, 4)
        assert loewner_geq(J4_BALANCED, S)

    def test_scaling_reverses(self):
        S = ones_plus(2, 4)
        assert not loewner_geq(S, SymMatrix(3 * S.entries))

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixError):
            loewner_geq(J3, J4_BALANCED)


class TestMatrixIO:
    def test_roundtrip_bitwise(self, tmp_path):
        J = inverse_dense(J4_BALANCED)
        path = tmp_path / "m.txt"
        save_matrix(J, path)
        back = load_matrix(path)
        np.testing.assert_array_equal(back.entries, J.entries)

    def test_rejects_asymmetric_file(self, tmp_path):
        path = tmp_path / "jt.txt"
        rows = "\n".join(" ".join(str(v) for v in row) for row in jt_matrix(1.0))
        path.write_text("3\n" + rows + "\n")
        with pytest.raises(AsymmetricMatrixError):
            load_matrix(path)

    def test_bad_dimension_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x\n")
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.line == 1

    def test_short_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n0\n")
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("text, line", [
        ("2\n1 inf\ninf 1\n", 2),
        ("2\n1 0\n0 nan\n", 3),
    ], ids=["inf", "nan"])
    def test_rejects_non_finite_entry(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.line == line
        assert "non-finite" in str(err.value)

    def test_non_finite_row_reported_before_a_later_malformed_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 inf 0\n1 x 0\n0 0 1\n")
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.line == 2
        assert "non-finite" in str(err.value)

    def test_row_whose_sum_overflows_loads(self, tmp_path):
        # Each row sums past the largest float; every entry is finite, and
        # so is the average of the matrix with its transpose.
        a = np.full((4, 4), 6e307)
        path = tmp_path / "big.txt"
        path.write_text("4\n" + "\n".join(" ".join(["6e307"] * 4) for _ in range(4)) + "\n")
        assert not math.isfinite(sum(a[0].tolist()))
        np.testing.assert_array_equal(load_matrix(path).entries, a)

    def test_symmetric_file_near_the_largest_float_loads(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("2\n1e308 1e308\n1e308 1e308\n")
        np.testing.assert_array_equal(load_matrix(path).entries, np.full((2, 2), 1e308))

    def test_nearly_symmetric_file_near_the_largest_float_is_averaged(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("2\n1e308 1.0000000001e308\n1e308 1e308\n")
        got = load_matrix(path).entries
        mean = 1e308 / 2 + 1.0000000001e308 / 2
        np.testing.assert_array_equal(got, [[1e308, mean], [mean, 1e308]])

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 0 0\n")
        with pytest.raises(MatrixFormatError):
            load_matrix(path)
