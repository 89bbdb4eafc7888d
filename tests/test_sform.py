import numpy as np
import pytest

from sddkit import (
    SForm,
    eigen_sym,
    inf_norm,
    inverse_dense,
    sform_dense,
    sform_eigenvalues,
    sform_inf_norm_inverse,
    sform_inverse,
)
from helpers import bits
from sddkit.randmat import random_geq_sform, trial_rng


class TestSFormType:
    @pytest.mark.parametrize("n,alpha,ell", [(2, 1, 1), (1, 1, 1), (4, 0, 1),
                                             (4, -1, 1), (4, 1, 0), (4, 1, -2)])
    def test_rejects_degenerate_parameters(self, n, alpha, ell):
        with pytest.raises(ValueError):
            SForm(n, alpha, ell)

    def test_dominance_threshold(self):
        assert SForm(5, 3.0, 1.0).is_dominant
        assert not SForm(5, 2.9, 1.0).is_dominant

    def test_balanced_constructor(self):
        S = SForm.balanced(6)
        assert S.alpha == 4.0 and S.is_dominant


class TestDense:
    def test_small(self):
        np.testing.assert_array_equal(
            sform_dense(SForm(3, 1, 1)).entries,
            [[2, 1, 1], [1, 2, 1], [1, 1, 2]])

    def test_diag_and_off(self):
        a = sform_dense(SForm(4, 2, 1)).entries
        assert a[0, 0] == 3 and a[0, 1] == 1

    def test_homogeneity(self):
        np.testing.assert_array_equal(
            sform_dense(SForm(4, 2, 2)).entries,
            2 * sform_dense(SForm(4, 1, 1)).entries)


class TestInverse:
    def test_closed_form_values(self):
        inv = sform_inverse(SForm(4, 2, 1)).entries
        assert inv[0, 0] == pytest.approx(5 / 12, abs=1e-15)
        assert inv[0, 1] == pytest.approx(-1 / 12, abs=1e-15)

    def test_small_case(self):
        np.testing.assert_allclose(
            sform_inverse(SForm(3, 1, 1)).entries,
            np.eye(3) - np.ones((3, 3)) / 4, atol=1e-15)

    def test_large_case_coefficients(self):
        inv = sform_inverse(SForm(16, 14, 1)).entries
        assert inv[0, 1] == pytest.approx(-1 / (14 * 30), abs=1e-16)
        assert inv[0, 0] == pytest.approx(1 / 14 - 1 / (14 * 30), abs=1e-15)

    def test_product_is_identity(self):
        rng = trial_rng(2024)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            S = SForm(n, float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10)))
            prod = sform_inverse(S).entries @ sform_dense(S).entries
            np.testing.assert_allclose(prod, np.eye(n), atol=1e-12)

    def test_matches_dense_oracle(self):
        S = SForm(16, 14, 1)
        np.testing.assert_allclose(sform_inverse(S).entries,
                                   inverse_dense(sform_dense(S)).entries,
                                   atol=1e-12)


def _sforms(n: int):
    rng = trial_rng(n)
    return [SForm.balanced(n, float(rng.uniform(0.1, 3.0))),
            SForm(n, float(rng.uniform(0.1, 50.0)), float(rng.uniform(0.1, 3.0))),
            SForm(n, 798.0, 1.0)]


class TestFilledConstruction:
    """Both closed forms fill one n x n array; every entry must carry the
    bits of the alpha*eye + ell*ones expressions they replace."""

    @pytest.mark.parametrize("n", list(range(3, 13)) + [800])
    def test_dense_bitwise(self, n):
        for S in _sforms(n):
            expect = S.alpha * np.eye(n) + S.ell * np.ones((n, n))
            assert np.array_equal(bits(sform_dense(S).entries), bits(expect))

    @pytest.mark.parametrize("n", list(range(3, 13)) + [800])
    def test_inverse_bitwise(self, n):
        for S in _sforms(n):
            a = 1.0 / S.alpha
            b = S.ell / (S.alpha * (S.alpha + S.ell * S.n))
            expect = a * np.eye(n) - b * np.ones((n, n))
            assert np.array_equal(bits(sform_inverse(S).entries), bits(expect))


class TestInfNormInverse:
    @pytest.mark.parametrize("n,alpha,ell,expect", [
        (4, 2, 1, 2 / 3),       # balanced: (3n-4)/(2 ell (n-2)(n-1))
        (3, 1, 1, 5 / 4),
        (4, 3, 1, 3 / 7),
    ])
    def test_known_values(self, n, alpha, ell, expect):
        assert sform_inf_norm_inverse(SForm(n, alpha, ell)) == pytest.approx(expect, abs=1e-15)

    def test_equals_norm_of_inverse(self):
        rng = trial_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            S = SForm(n, float(rng.uniform(0.2, 5)), float(rng.uniform(0.2, 5)))
            closed = sform_inf_norm_inverse(S)
            direct = inf_norm(sform_inverse(S))
            assert abs(closed - direct) <= 1e-14 * max(1.0, abs(closed))


class TestEigenvalues:
    @pytest.mark.parametrize("n,alpha,ell,expect", [
        (5, 3, 1, (3, 8)),
        (4, 5, 1, (5, 9)),
    ])
    def test_known_values(self, n, alpha, ell, expect):
        assert sform_eigenvalues(SForm(n, alpha, ell)) == expect

    def test_matches_eigensolver(self):
        rng = trial_rng(11)
        for _ in range(10):
            n = int(rng.integers(3, 15))
            S = SForm(n, float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 5)))
            small, big = sform_eigenvalues(S)
            lams = eigen_sym(sform_dense(S))
            np.testing.assert_allclose(lams[:-1], np.full(n - 1, small), atol=1e-9)
            assert lams[-1] == pytest.approx(big, abs=1e-9)


class TestMonotonicityProbe:
    def test_entrywise_growth_shrinks_inverse_norm(self):
        # Any SDD matrix entrywise above a dominant member has a smaller
        # inverse norm than the member's closed form.
        rng = trial_rng(13)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            ell = float(rng.uniform(0.5, 2))
            alpha = (n - 2) * ell + float(rng.uniform(0, 2 * ell))
            S = SForm(n, alpha, ell)
            J = random_geq_sform(rng, S)
            assert inf_norm(inverse_dense(J)) <= sform_inf_norm_inverse(S) + 1e-10
