import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (H4_BALANCED, J3, H3, J4_BALANCED, SingularUpdateError, bits,
                     classify_by_matrix, eigen_sym_by_jacobi, jt_matrix, load_matrix_by_rows, loewner_geq,
                     inverse_by_unscaled_lu, random_balanced, random_dominant, smw_update,
                     symmetrize, tiny_strictly_dominant)
from sddkit import (
    AsymmetricMatrixError,
    EigenConvergenceError,
    GraphFormatError,
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
    load_graph,
    load_matrix,
    save_matrix,
)
from sddkit import matcore
from sddkit.randmat import trial_rng


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

    def test_copies_a_writeable_array(self):
        x = np.array([[2.0, 1.0], [1.0, 2.0]])
        M = SymMatrix(x)
        x[0, 1] = x[1, 0] = 5.0
        assert M.entries[0, 1] == 1.0 and x.flags.writeable

    def test_adopts_a_fresh_array(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        M = matcore._adopt(a)
        assert M.entries is a and not a.flags.writeable

    def test_mean_with_transpose_keeps_one_matrix(self):
        a = random_dominant(trial_rng(400, 3), 400).entries
        tracemalloc.start()
        try:
            M = matcore._mean_with_transpose(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.entries.base is None and peak < 1.5 * a.nbytes

    @pytest.mark.parametrize("a", [
        np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(3),
        np.array([[1.0, np.inf], [np.inf, 1.0]]), jt_matrix(1.0),
    ], ids=["non-square", "empty", "1-d", "non-finite", "asymmetric"])
    def test_adopted_arrays_are_validated(self, a):
        with pytest.raises(MatrixError) as copied:
            SymMatrix(a.copy())
        with pytest.raises(type(copied.value), match=re.escape(str(copied.value))):
            matcore._adopt(a.copy())

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


def report_fields(rep):
    """Every field of a dominance report, floats as bits, with the type of
    each scalar field."""
    scalars = (rep.is_dominant, rep.is_balanced, rep.is_strictly_dominant,
               rep.min_offdiag, rep.max_offdiag, rep.max_delta)
    return (bits(rep.deltas).tolist(), rep.deltas.shape,
            [v if v is None or isinstance(v, bool) else np.float64(v).view(np.int64).item()
             for v in scalars],
            [type(v) for v in scalars])


def at_tolerance() -> np.ndarray:
    """A 3 x 3 integer matrix of inf-norm 1e12, so tol = 1e-12 * 1e12 = 1
    exactly, whose margins are exactly 0, +tol and -tol: dominant and
    balanced, not strictly dominant."""
    return np.array([[5e11, 2.5e11, 2.5e11],
                     [2.5e11, 3.5e11 + 1, 1e11],
                     [2.5e11, 1e11, 3.5e11 - 1]])


class TestClassifyStack:
    """The stacked kernel against the per-matrix classification."""

    def assert_each_is_its_own(self, a):
        reps = matcore._classify_stack(a)
        assert len(reps) == len(a)
        for rep, m in zip(reps, a):
            ref = report_fields(classify_by_matrix(SymMatrix(m)))
            assert report_fields(rep) == ref
            assert report_fields(classify(SymMatrix(m))) == ref
        return reps

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 16, 17, 33, 40])
    def test_random_stacks(self, n):
        rng = trial_rng(601, n)
        mats = []
        for _ in range(3):
            noise = rng.uniform(-1.0, 1.0, (n, n))
            neg = random_dominant(rng, n).entries.copy()
            flip = rng.random(n) < 0.5
            neg[flip, flip] *= -1.0
            # off-diagonal zeros of both signs: the extremes keep the sign
            # that a reduction in row order picks
            zeros = np.where(rng.random((n, n)) < 0.5, 0.0, -0.0)
            np.fill_diagonal(zeros, 1.0)
            mats += [random_dominant(rng, n).entries, random_balanced(rng, n).entries,
                     noise + noise.T, neg, zeros]
        reps = self.assert_each_is_its_own(np.array(mats))
        assert {(r.is_dominant, r.is_balanced) for r in reps[1::5]} == {(True, True)}
        if n == 1:
            assert all(r.min_offdiag is None and r.max_offdiag is None for r in reps)

    def test_margins_exactly_at_tolerance(self):
        a = at_tolerance()
        assert classify_by_matrix(SymMatrix(a)).deltas.tolist() == [0.0, 1.0, -1.0]
        past = a.copy()
        past[2, 2] -= 1.0   # margin -2 tol: not dominant
        over = a.copy()
        over[1, 1] += 1.0   # margin +2 tol: dominant, not balanced
        strict = a + 2.0 * np.eye(3)
        reps = self.assert_each_is_its_own(np.array([a, past, over, strict, a[::-1, ::-1]]))
        assert [(r.is_dominant, r.is_balanced, r.is_strictly_dominant) for r in reps] == [
            (True, True, False), (False, False, False), (True, False, False),
            (True, False, False), (True, True, False)]

    def test_mixed_scales_keep_each_matrix_its_tolerance(self):
        # A tolerance taken over the whole stack would make the small
        # matrices' margins of -2 tol vanish next to the large one's norm.
        a = at_tolerance()
        past = a.copy()
        past[2, 2] -= 1.0
        big = 2.0 ** 60 * random_dominant(trial_rng(607), 3).entries
        mats = [2.0 ** -60 * past, big, 2.0 ** -60 * a, 2.0 ** 60 * past, a]
        reps = self.assert_each_is_its_own(np.array(mats))
        assert [r.is_dominant for r in reps] == [False, True, True, False, True]
        assert [r.is_balanced for r in reps[2::2]] == [True, True]


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


class TestInverseDensePrescale:
    @pytest.mark.parametrize("n", [*range(1, 41), 64, 120, 300])
    def test_bitwise_equal_to_unscaled_lu_in_the_normal_range(self, n):
        rng = trial_rng(n, 5)
        for J in (random_dominant(rng, n), random_balanced(rng, n),
                  random_dominant(rng, n, lo=1e-3, hi=1e3, margin_hi=1e-6)):
            try:
                expect = inverse_by_unscaled_lu(J)
            except SingularMatrixError as exc:
                with pytest.raises(SingularMatrixError) as err:
                    inverse_dense(J)
                assert err.value.pivot == exc.pivot and str(err.value) == str(exc)
                continue
            np.testing.assert_array_equal(bits(inverse_dense(J).entries), bits(expect.entries))

    def test_inverse_past_the_float_range_is_singular(self):
        # The true inf_norm(J^{-1}) is about 3.9e309.
        J = SymMatrix(1e-310 * (3.0 * np.eye(3) + np.ones((3, 3))))
        with pytest.raises(SingularMatrixError, match="past the float range") as err:
            inverse_dense(J)
        assert err.value.pivot == pytest.approx(3.6e-310, rel=1e-12)

    def test_subnormal_entries_keep_the_inverse_norm(self):
        # The LU of the subnormal entries themselves returns the diagonal
        # unchanged; the norm came out 0.908 times the true one.
        J = tiny_strictly_dominant(1030)
        exact = math.ldexp(inf_norm(inverse_dense(SymMatrix(np.ldexp(J.entries, 1030)))), 1030)
        assert J.inv_inf_norm == pytest.approx(exact, rel=1e-14)

    def test_singular_pivot_is_in_the_matrix_units(self):
        with pytest.raises(SingularMatrixError) as err:
            inverse_dense(SymMatrix(np.full((2, 2), 2.0 ** -1070)))
        assert err.value.pivot == 0.0
        with pytest.raises(SingularMatrixError) as err:
            inverse_dense(SymMatrix(np.diag([2.0 ** 900, 2.0 ** 800, 2.0 ** 700])))
        assert err.value.pivot == 2.0 ** 700


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


# Line boundaries of str.splitlines besides "\n" and "\r\n".
LINE_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

# Spellings of one value; mirrored entries may use different ones.
SPELLINGS = (lambda v: format(v, ".17g"), repr, lambda v: format(v, ".20e"))
BAD_TOKENS = ("x", "1.2.3", "--1", "1e", "0x10", "1,5")
NON_FINITE_TOKENS = ("inf", "-inf", "nan", "Infinity", "1e400")
CORRUPTIONS = ("bad_upper", "bad_lower", "non_finite_upper", "non_finite_lower",
               "underscore", "short_row", "long_row", "extra_row", "missing_row")


@st.composite
def matrix_texts(draw):
    """The text of a symmetric matrix file: each mirrored pair spelled alike
    or differently (.17g, repr, .20e, 1 / 1.0, 0 / -0, a nearby or a far
    value), varied whitespace and line ends, and at most one corruption."""
    n = draw(st.integers(1, 6))
    value = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                      st.sampled_from([0.0, -0.0, 1e308, 5e-324, 0.1]))
    spelling = st.sampled_from(SPELLINGS)
    grid = [[""] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(value)
            grid[i][j] = draw(spelling)(v)
            if j == i:
                continue
            mirror = draw(st.sampled_from(["same", "same", "respelled", "zero_sign",
                                           "near", "far"]))
            w = {"zero_sign": -v if v == 0 else v,
                 "near": float(np.nextafter(v, np.inf)), "far": v + 1.0}.get(mirror, v)
            grid[j][i] = grid[i][j] if mirror == "same" else draw(spelling)(w)
    corruption = draw(st.sampled_from((None,) * 4 + CORRUPTIONS))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if corruption in ("bad_upper", "bad_lower", "non_finite_upper",
                      "non_finite_lower", "underscore"):
        # The entry on the named side of the diagonal, if a side is named.
        lo, hi = min(i, j), max(i, j)
        if corruption.endswith("upper"):
            i, j = lo, hi
        elif corruption.endswith("lower"):
            i, j = hi, lo
        tokens = {"bad": BAD_TOKENS, "non": NON_FINITE_TOKENS}.get(corruption[:3])
        grid[i][j] = draw(st.sampled_from(tokens)) if tokens else "1_000"
    elif corruption == "short_row":
        del grid[i][j]
    elif corruption == "long_row":
        grid[i].insert(j, "1")
    elif corruption == "extra_row":
        grid.insert(i + 1, list(grid[i]))
    elif corruption == "missing_row":
        del grid[i]
    gap = st.sampled_from([" ", " ", "\t", "   ", " \t "])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [str(n)]
    for row in grid:
        text = row[0] if row else ""
        for token in row[1:]:
            text += draw(gap) + token
        lines.append(draw(st.sampled_from(["", "", " ", "\t"])) + text
                     + draw(st.sampled_from(["", "", " "])))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


def load_outcome(loader, path):
    """Entry bits, or the error's class, message and line."""
    try:
        return bits(loader(path).entries).tolist()
    except MatrixError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


class TestLoadMatrixOracle:
    @settings(max_examples=400, deadline=None)
    @given(text=matrix_texts())
    def test_matches_parsing_every_token(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("load") / "m.txt"
        path.write_bytes(text.encode())
        assert load_outcome(load_matrix, path) == load_outcome(load_matrix_by_rows, path)

    @pytest.mark.parametrize("text", [
        "3\n1 2 3\n2 1 4\n3 4 1\n",          # mirrors spelled alike
        "2\n1 2\n2.0 1\n",                   # 1 / 1.0 spellings
        "2\n1 0\n-0 1\n",                    # -0 below a 0
        "2\n1 0.1\n0.10000000000000001 1\n",  # repr / .17g
        "2\n1 1_000\n1000 1\n",
        "2\n1 2\n2.0000000000001 1\n",       # averaged
        "2\n1 2\n3 1\n",                     # asymmetric
        "2\n1 2\n2 x\n",
        "2\n1 2\n x 1\n",
        "2\n1 2\n2 inf\n",
        "2\n1 2\n\tinf 1\n",
        "2\n1 2\n2 1 1\n",
        "2\n1 2\n2\n",
        "2\n1 2\n2 1\n2 1\n",
        "3\n1 2 3\n2 1 4\n",
        "2\r\n1 2\r\n\r\n  2\t1  \r\n",
        # str.splitlines breaks lines at each of these, also inside a row.
        *(text.format(brk) for brk in LINE_BREAKS for text in (
            "2{}1 2\n2 1\n", "2\n1 2{}2 1\n", "2\n1 2\n2 1{}", "2\n1{}2\n2 1\n",
            "2\n1 2{0}{0}2 1\n")),
    ])
    def test_examples(self, text, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(text.encode())
        assert load_outcome(load_matrix, path) == load_outcome(load_matrix_by_rows, path)


class TestLoadMatrixRejectsNonDecimal:
    @pytest.mark.parametrize("text, line", [
        ("2\n1 1_000\n1000 1\n", 2),
        ("2\n1 1000\n1_000 1\n", 3),
        ("2_0\n" + "1 0\n" * 20, 1),
        ("\u0662\n1 12\n12 1\n", 1),
        ("2\n1 \u0661\u0662\n12 1\n", 2),
        ("2\n1 12\n\uff11\uff12 1\n", 3),
        ("2\n1 12\n\u00a0\n12 1\n", 3),
    ], ids=["underscore_upper", "underscore_lower", "underscore_dimension",
            "arabic_indic_dimension", "arabic_indic_upper", "fullwidth_lower",
            "non_ascii_blank"])
    def test_rejected_with_line(self, text, line, tmp_path):
        # float() reads each of these: "1_000" as 1000.0, "\u0661\u0662" as 12.0.
        path = tmp_path / "m.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.line == line
        assert "not a plain ASCII decimal line" in str(err.value)

    def test_non_utf8_byte_rejected_with_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"2\n1 2\n2 \xff\n")
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert str(err.value) == "line 3: not a plain ASCII decimal line: '2 \\udcff'"


class TestCountHeader:
    @pytest.mark.parametrize("loader, error, noun", [
        (load_matrix, MatrixFormatError, "dimension"),
        (load_graph, GraphFormatError, "vertex count"),
    ], ids=["matrix", "graph"])
    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("2 3\n1 2\n", "expected a single {noun}, got '2 3'"),
        ("x\n1 2\n", "bad {noun} 'x'"),
        ("0\n", "{noun} must be >= 1, got 0"),
        ("\u0662\n1 2\n", "not a plain ASCII decimal line: " + repr("\u0662")),
    ], ids=["empty", "two_tokens", "not_a_number", "zero", "non_ascii_digit"])
    def test_both_loaders_reject_with_their_own_class(self, loader, error, noun,
                                                      text, message, tmp_path):
        path = tmp_path / "head.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error) as err:
            loader(path)
        assert err.value.line == 1
        assert str(err.value) == "line 1: " + message.format(noun=noun)


class TestLoadMatrixCost:
    @staticmethod
    def count_parses(monkeypatch, path) -> tuple[np.ndarray, int]:
        """load_matrix(path).entries and its number of ``float`` calls on text."""
        count = [0]

        def counting_float(x=0.0):
            count[0] += isinstance(x, str)
            return float(x)

        with monkeypatch.context() as m:
            m.setattr(matcore, "float", counting_float, raising=False)
            entries = load_matrix(path).entries
        return entries, count[0]

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_saved_file_parses_each_mirrored_pair_once(self, n, tmp_path, monkeypatch):
        J = random_dominant(trial_rng(n, 0), n)
        path = tmp_path / "m.txt"
        save_matrix(J, path)
        entries, parses = self.count_parses(monkeypatch, path)
        assert bits(entries).tolist() == bits(J.entries).tolist()
        assert parses == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_respelled_lower_part_parses_every_token(self, n, tmp_path, monkeypatch):
        a = random_dominant(trial_rng(n, 1), n).entries
        path = tmp_path / "m.txt"
        path.write_text(f"{n}\n" + "".join(
            " ".join(format(v, ".20e" if j < i else ".17g") for j, v in enumerate(row)) + "\n"
            for i, row in enumerate(a)))
        entries, parses = self.count_parses(monkeypatch, path)
        assert bits(entries).tolist() == bits(a).tolist()
        assert parses == n * n

    def test_peak_memory_of_one_load(self, tmp_path):
        n = 300
        path = tmp_path / "m.txt"
        save_matrix(random_balanced(trial_rng(n, 2), n), path)
        load_matrix(path)
        tracemalloc.start()
        try:
            load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n * n
