import gc
import math
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from helpers import (J4_BALANCED, MIXED_SCALES, bits, block_det_ratio_by_inverses,
                     block_det_ratio_unblocked, chain_cycle, conjecture_search_ledger,
                     k4_with_one_small_edge, random_balanced, random_dominant, singular_trailing_block,
                     tiny_strictly_dominant, trials_one_by_one)
from sddkit import (
    EigenConvergenceError,
    LoopGraph,
    MatrixError,
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
from sddkit.randmat import trial_rng

# Balanced, off-diagonal 6e307: its row sums, lambda_max and the closed forms'
# denominators, each 2.4e308, are past the largest float.
FAR_BALANCED = 6e307 * (np.eye(3) + np.ones((3, 3)))


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

    def test_margin_without_a_finite_reciprocal_warns_nothing(self):
        # The smallest margin is below 1 / max float, about 5.6e-309.
        J = tiny_strictly_dominant(1022)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = varah_bound(J)
        assert r.applicable and r.holds and r.rhs == math.inf
        assert math.isfinite(r.lhs)

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

    @pytest.mark.filterwarnings("error")
    def test_entrywise_violation_past_the_float_range_is_inapplicable(self):
        # inf_norm(J) = 2.2e308 is past the largest float, so a tolerance
        # 1e-12 inf_norm(J) would forgive any gap; at unit scale the gap of
        # -4e307 is found, as at scale 1
        J = SymMatrix(1e307 * (np.full((3, 3), 5.0) + 7.0 * np.eye(3)))
        r = main_bound(J, SForm(3, 8e307, 8e307))
        assert not r.applicable and r.context["reason"] == "J not entrywise >= reference matrix"
        assert r.context["worst_gap"] == pytest.approx(-4e307, rel=1e-15, abs=0)

    def test_not_dominant_is_inapplicable(self):
        a = sform_dense(S42).entries.copy()
        a = a - 2.0 * np.eye(4)  # kill the diagonal margin
        r = main_bound(SymMatrix(a), S42)
        assert not r.applicable

    def test_dimension_mismatch_is_inapplicable(self):
        r = main_bound(SymMatrix(np.eye(3) + np.ones((3, 3))), S42)
        assert not r.applicable

    @pytest.mark.filterwarnings("error")
    def test_tight_at_a_reference_past_the_float_range(self):
        # alpha (alpha + ell n) = 4e400 is past the largest float, the bound
        # 5e200 / 4e400 is not; equality holds, so the slack is rounding
        S = SForm(3, 1e200, 1e200)
        r = main_bound(sform_dense(S), S)
        assert r.rhs == pytest.approx(1.25e-200, rel=1e-15, abs=0)
        assert r.holds and abs(r.slack) <= 1e-15 * r.rhs

    def test_non_dominant_reference_is_inapplicable(self):
        S = SForm(4, 1.0, 1.0)  # alpha < (n-2) ell
        r = main_bound(sform_dense(S), S)
        assert not r.applicable
        assert r.context == {"n": 4, "alpha": 1.0, "ell": 1.0,
                             "reason": "reference family not diagonally dominant"}


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

    @pytest.mark.parametrize("a", [3.0 * np.eye(4), ones_plus(3, 4).entries - 2.0,
                                   np.eye(1)], ids=["zero", "negative", "n1"])
    def test_non_positive_off_diagonal_is_inapplicable(self, a):
        r = lower_bound_trivial(SymMatrix(a))
        assert not r.applicable
        assert r.context == {"n": len(a), "reason": "needs positive off-diagonal entries"}

    def test_not_dominant_is_inapplicable(self):
        r = lower_bound_trivial(ones_plus(0.5, 4))
        assert not r.applicable
        assert r.context == {"n": 4, "reason": "J not diagonally dominant"}

    @pytest.mark.filterwarnings("error")
    def test_closed_form_past_the_float_range(self):
        # 2 m (n-1) = 2.4e308 is past the largest float, 1/(2 m (n-1)) is not
        r = lower_bound_trivial(SymMatrix(FAR_BALANCED))
        assert r.lhs == pytest.approx(1 / 2.4 * 1e-308, rel=1e-14, abs=0)
        assert r.lhs < r.rhs and r.holds


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

    @pytest.mark.filterwarnings("error")
    def test_norm_past_the_float_range(self):
        # |J|'s row sums, 2.4e308, are past the largest float, and the
        # eigensolve's residual certificate forms them at a smaller scale
        r = spectral_route_bound(SymMatrix(FAR_BALANCED))
        assert r.lhs == pytest.approx(1.25 / 6e307, rel=1e-14, abs=0)
        assert r.rhs == pytest.approx(math.sqrt(3) / 6e307, rel=1e-15, abs=0)
        assert r.lhs < r.rhs and r.holds

    @pytest.mark.filterwarnings("error")
    def test_sharp_rhs_past_the_float_range(self):
        # 2 ell (n-2)(n-1) = 2.4e308 is past the largest float, the sharp
        # bound (3n-4) / (2 ell (n-2)(n-1)) = 5 / 2.4e308 is not
        r = spectral_route_bound(SymMatrix(FAR_BALANCED))
        assert r.context["sharp_rhs"] == pytest.approx(5 / 2.4 * 1e-308, rel=1e-14, abs=0)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("diagonal, lhs, rhs", [(2.0, 5.0, 5.0), (2.5, 11 / 3, 5.625)],
                             ids=["balanced", "dominant"])
    def test_sides_past_the_float_range_are_formed_at_unit_scale(self, diagonal, lhs, rhs):
        # Off-diagonal 6e307: inf_norm(J) and 2 m (n-1) are past the largest
        # float, but both sides have degree 0 in J and are formed at unit
        # scale, so the report is the one at off-diagonal 1: 5 <= 5 at the
        # balanced reference.
        r = condition_bound(SymMatrix(6e307 * (np.eye(3) * (diagonal - 1) + np.ones((3, 3)))))
        assert r.applicable and r.holds
        assert r.lhs == pytest.approx(lhs, rel=1e-15, abs=0)
        assert r.rhs == rhs


class TestReport:
    @pytest.mark.parametrize("lhs, rhs, side", [(math.nan, 1.0, "lhs"), (1.0, math.nan, "rhs"),
                                                (math.nan, math.nan, "lhs")])
    def test_a_nan_side_makes_it_inapplicable(self, lhs, rhs, side):
        r = bounds._report("x", lhs, rhs, n=3)
        assert (r.applicable, r.holds, r.vacuous) == (False, False, True)
        assert r.context == {"n": 3, "reason": f"{side} is NaN (past the float range)"}

    def test_infinite_sides_are_compared(self):
        assert bounds._report("x", -math.inf, 0.5, vacuous=True).holds
        assert not bounds._report("x", math.inf, 0.5).holds


class TestEigIntervals:
    def test_reference_hits_endpoints(self):
        r = eig_interval_check(ones_plus(2, 4), i=1)
        assert r.holds
        assert r.context["lambda_min"] == pytest.approx(2.0, abs=1e-10)
        assert r.context["lambda_max"] == pytest.approx(6.0, abs=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_eigenvalue_past_the_float_range_is_inapplicable(self):
        # lambda_max = 2.4e308 and its interval ends are inf, so its margin
        # is inf - inf
        r = eig_interval_check(SymMatrix(FAR_BALANCED))
        assert not r.applicable and r.context["reason"] == "lhs is NaN (past the float range)"
        assert r.context["lambda_max"] == math.inf

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


# Each single-matrix bound and its degree in J: both sides of its report on
# c J are c^degree times those on J.
SINGLE_MATRIX_BOUNDS = ((varah_bound, -1), (lower_bound_trivial, -1),
                        (spectral_route_bound, -1), (condition_bound, 0),
                        (eig_interval_check, 1), (det_lower_bound, 0),
                        (det_upper_bound_balanced, 0), (adjugate_bound, -1),
                        (hadamard_sanity, 0))


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def test_verdicts_keep_under_power_of_two_scaling():
    # Every inequality is homogeneous in J, and 2^k J is exact in floating
    # point, so each report on 2^k J must give the verdict of the report on
    # J, at scales near the largest and the smallest normal floats too, and
    # no bound may raise.  Away from those scales both sides scale exactly
    # by the bound's degree.  A permutation P only relabels the rows, so
    # P J P' gives J's verdicts too (not its bits: the elimination does not
    # pivot).
    def verdict(r):
        return r.applicable, r.holds, r.vacuous

    def reports(J):
        return [bound(J) for bound, _ in SINGLE_MATRIX_BOUNDS]

    def changed(case, ref, got):
        return [(case, bound.__name__, verdict(r), verdict(g))
                for (bound, _), r, g in zip(SINGLE_MATRIX_BOUNDS, ref, got)
                if verdict(r) != verdict(g)]

    # An explicit ell 100 times the smallest off-diagonal entry lies outside
    # the bracket at every scale, and a J below S by 1e-3 I is never >= S.
    explicit_ell = (spectral_route_bound, condition_bound, det_lower_bound)
    below = sform_dense(SForm(6, 5.0, 1.0)).entries - 1e-3 * np.eye(6)

    def below_sform(k):
        return verdict(main_bound(SymMatrix(np.ldexp(below, k)),
                                  SForm(6, math.ldexp(5.0, k), math.ldexp(1.0, k))))

    rng = trial_rng(199)
    mismatches = []
    for t in range(200):
        n = int(rng.integers(3, 12))
        a = (random_balanced if t % 2 else random_dominant)(rng, n).entries
        J = SymMatrix(a)
        ref = reports(J)
        for k in (-1000, -60, -30, 30, 60, 1000):
            got = reports(SymMatrix(np.ldexp(a, k)))
            mismatches += changed((t, k), ref, got)
            if abs(k) < 1000:
                mismatches += [(t, k, bound.__name__, side)
                               for (bound, degree), r, g in zip(SINGLE_MATRIX_BOUNDS, ref, got)
                               for side in ("lhs", "rhs")
                               if not same_float(math.ldexp(getattr(r, side), k * degree),
                                                 getattr(g, side))]
        perm = trial_rng(211, t).permutation(n)
        mismatches += changed((t, "permuted"), ref, reports(SymMatrix(a[np.ix_(perm, perm)])))
        ell = 100.0 * J.dominance.min_offdiag
        for k in (-50, -60):
            Jk = SymMatrix(np.ldexp(a, k))
            mismatches += [(t, k, bound.__name__, "explicit ell") for bound in explicit_ell
                           if verdict(bound(Jk, math.ldexp(ell, k))) != verdict(bound(J, ell))]
    mismatches += [("main below S", k) for k in (-50, -60) if below_sform(k) != below_sform(0)]
    assert mismatches == []


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

    def test_small_block_beside_large_entries(self):
        factors, ratio = block_det_ratio(MIXED_SCALES)
        np.testing.assert_array_equal(factors, [1.0, 8 / 9])
        assert ratio == pytest.approx(det_ratio_lu(MIXED_SCALES), rel=1e-12)

    def test_indefinite_factors_match_inverse_oracle(self):
        factors, ratio = block_det_ratio(INDEFINITE4)
        ref_factors, ref_ratio = block_det_ratio_by_inverses(INDEFINITE4)
        np.testing.assert_allclose(factors, ref_factors, rtol=1e-12, atol=0)
        assert ratio == pytest.approx(ref_ratio, rel=1e-12)


class TestDetRatioLu:
    @pytest.mark.parametrize("diag", [[0.0, 1.0], [1.0, -2.0]], ids=["zero", "negative"])
    def test_non_positive_diagonal_rejected(self, diag):
        J = SymMatrix(np.diag(diag) + np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(MatrixError) as err:
            det_ratio_lu(J)
        assert str(err.value) == "determinant ratio needs positive diagonal entries"

    def test_exactly_singular_matrix_gives_zero(self):
        # LU leaves an exact zero pivot, so the sign is 0 and no log is taken
        ratio = det_ratio_lu(SymMatrix(np.ones((3, 3))))
        np.testing.assert_array_equal(bits([ratio]), bits([0.0]))

    @pytest.mark.parametrize("scale", [1e-310, 1e-300, 2.0 ** -962, 2.0 ** 959, 1e300, 4e307])
    def test_ratio_at_the_ends_of_the_float_range(self, scale):
        # det([[4,1,1],[1,4,1],[1,1,4]]) / 4^3 = 54/64; the LU of the
        # subnormal entries of 1e-310 J returned their diagonal unchanged
        # (ratio 1).
        J = SymMatrix(scale * (3.0 * np.eye(3) + np.ones((3, 3))))
        assert det_ratio_lu(J) == pytest.approx(0.84375, rel=1e-14)
        assert det_ratio_lu(J) == pytest.approx(block_det_ratio(J)[1], rel=1e-14)

    @pytest.mark.parametrize("k", [-950, -500, 0, 500, 950])
    def test_inside_the_range_is_the_unscaled_lu(self, k):
        # A largest entry in [2^-960, 2^960] is factored as it is, so the
        # ratio keeps the bits it had before any prescaling.
        rng = trial_rng(227, k + 1000)
        for n in range(3, 13):
            for make in (random_dominant, random_balanced):
                a = np.ldexp(make(rng, n).entries, k)
                assert 2.0 ** -960 <= np.abs(a).max() <= 2.0 ** 960
                sign, logabs = np.linalg.slogdet(a)
                expect = sign * np.exp(logabs - np.log(a.diagonal()).sum())
                assert bits([det_ratio_lu(SymMatrix(a))]) == bits([expect])


def _reports_at_scale(a: np.ndarray, k: int) -> list:
    """The lower, spectral, main, det_upper and adjugate reports on 2^k J,
    main against the balanced reference of ell = J's least off-diagonal,
    scaled along with J; det_upper and adjugate only for balanced J."""
    J = SymMatrix(np.ldexp(a, k))
    ell = math.ldexp(float(a[~np.eye(len(a), dtype=bool)].min()), k)
    out = [lower_bound_trivial(J), spectral_route_bound(J),
           main_bound(J, SForm.balanced(len(a), ell))]
    if J.dominance.is_balanced:
        out += [det_upper_bound_balanced(J), adjugate_bound(J)]
    return out


@pytest.mark.blas_bits
class TestPowerOfTwoEquivariance:
    """A report on 2^k J is the report on J with each side times
    2^(degree k), bit for bit: J^{-1}'s norm and the closed forms have
    degree -1 in J, the determinant ratio and its bound degree 0.  k runs
    inside [2^-960, 2^960], where no kernel scales J, and outside it."""

    @pytest.mark.parametrize("k", [-1000, -900, -60, 0, 60, 900, 1000])
    @pytest.mark.parametrize("make", [random_balanced, random_dominant])
    def test_sides_scale_by_a_power_of_two(self, make, k):
        a = make(trial_rng(619), 6).entries
        unit, scaled = _reports_at_scale(a, 0), _reports_at_scale(a, k)
        assert [r.name for r in scaled] == [r.name for r in unit]
        assert len(unit) == (5 if make is random_balanced else 3)
        for u, s in zip(unit, scaled):
            assert (s.applicable, s.holds) == (u.applicable, u.holds) == (True, True)
            degree = 0 if u.name == "det_upper" else -1
            sides = [(u.lhs, s.lhs), (u.rhs, s.rhs)]
            if u.name == "spectral":
                sides.append((u.context["sharp_rhs"], s.context["sharp_rhs"]))
            for at_unit, at_k in sides:
                expect = math.ldexp(at_unit, degree * k)
                assert 2.0 ** -1022 <= expect < math.inf  # a normal float
                assert bits([at_k]) == bits([expect]), (u.name, at_unit, at_k)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["dominant", "balanced", "indefinite", "below_reference"])
    def test_verdicts_where_the_row_sums_overflow(self, case):
        # 2^k J with its largest entry in [2^1023, 2^1024): inf_norm(2^k J)
        # is past the largest float, and the hadamard, main and cond reports
        # keep the verdicts, and reasons, of the reports on J.  main compares
        # with the balanced reference of ell = J's least off-diagonal, or
        # with a given reference, which J does not dominate entrywise.
        rng = trial_rng(631)
        a, S = {
            "dominant": (random_dominant(rng, 6).entries, None),
            "balanced": (random_balanced(rng, 6).entries, None),
            "indefinite": (np.array([[1.0, 1.5, 0], [1.5, 1, 0], [0, 0, 1]]), SForm(3, 1.0, 0.5)),
            "below_reference": (np.full((3, 3), 5.0) + 7.0 * np.eye(3), SForm(3, 6.0, 6.0)),
        }[case]
        S = S or SForm.balanced(len(a), float(a[~np.eye(len(a), dtype=bool)].min()))

        def verdicts(k):
            J = SymMatrix(np.ldexp(a, k))
            Sk = SForm(S.n, math.ldexp(S.alpha, k), math.ldexp(S.ell, k))
            return [(r.name, r.applicable, r.holds, r.context.get("reason"))
                    for r in (hadamard_sanity(J), main_bound(J, Sk), condition_bound(J))]

        k = 1024 - math.frexp(float(np.abs(a).max()))[1]
        assert inf_norm(SymMatrix(np.ldexp(a, k))) == math.inf
        unit = verdicts(0)
        assert verdicts(k) == unit
        expect = {"dominant": [True] * 3, "balanced": [True] * 3,
                  "indefinite": [False] * 3, "below_reference": [True, False, True]}[case]
        assert [applicable for _, applicable, _, _ in unit] == expect


class TestPanelElimination:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 16, 17, 31, 32])
    @pytest.mark.parametrize("make", [random_dominant, random_balanced])
    def test_single_panel_is_bitwise_the_unblocked_loop(self, make, n):
        J = make(trial_rng(161, n), n)
        factors, ratio = block_det_ratio(J)
        ref_factors, ref_ratio = block_det_ratio_unblocked(J)
        np.testing.assert_array_equal(bits(factors), bits(ref_factors))
        assert bits(np.array(ratio)) == bits(np.array(ref_ratio))

    def test_near_singular_pivots_match_the_unblocked_loop(self):
        # For every n up to the panel size, and a few sizes of two and
        # three panels, and every row k >= 1, shift J_kk so that the Schur
        # pivot at k lands near c times its floor.  The kernel must find
        # the oracle's singular block, or none where the oracle finds none.
        # c = 1 is left out: there the pivot sits on its floor, and the two
        # ways of summing the block norms may round it to either side.
        def singular_block(eliminate, J):
            try:
                eliminate(J)
            except SingularBlockError as err:
                return err.block_index
            return None

        raised = 0
        cases = 0
        for n in [*range(2, matcore._PANEL + 1), 33, 40, 65, 70]:
            base = random_dominant(trial_rng(181, n), n).entries
            floors = matcore._pivot_floors(base)
            for k in range(1, n):
                # The elimination of a[k:, k:] ends at the pivot of row k.
                schur = matcore._pivots(base[None, k:, k:].copy())[0][0, 0]
                for c in (0.0, 0.5, -0.5, 2.0):
                    a = base.copy()
                    a[k, k] += c * floors[k] - schur
                    J = SymMatrix(a)
                    block = singular_block(block_det_ratio, J)
                    assert block == singular_block(block_det_ratio_unblocked, J), (n, k, c)
                    raised += block is not None
                    cases += 1
        assert 0 < raised < cases

    @staticmethod
    def stacked_and_single_outcomes(mats):
        """Each matrix's outcome in one stack, and on its own: the bits of
        its factors and ratio, or its error's class, message and block."""
        def outcome(result):
            if isinstance(result, SingularBlockError):
                return type(result), str(result), result.block_index
            factors, ratio = result
            return bits(factors).tolist(), bits(np.array(ratio)).tolist()

        def single(a):
            try:
                return outcome(block_det_ratio(SymMatrix(a)))
            except SingularBlockError as err:
                return outcome(err)

        stacked = [outcome(r) for r in matcore._eliminate_stack(np.array(mats))]
        return stacked, [single(a) for a in mats]

    @pytest.mark.parametrize("n", [3, 4, 7, 12, matcore._PANEL, matcore._PANEL + 1, 40, 65, 70])
    def test_mixed_stack_gives_each_matrix_its_own_outcome(self, n):
        rng = trial_rng(191, n)
        mats = []
        for start in range(1, n - 1):
            mats.append(singular_trailing_block(n, start, seed=start).entries)
            mats.append(random_dominant(rng, n).entries)
        stacked, single = self.stacked_and_single_outcomes(mats)
        assert stacked == single
        assert [o[2] for o in stacked[::2]] == list(range(2, n))

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -1030], ids=["unit", "subnormal"])
    def test_near_singular_stack_gives_each_matrix_its_own_outcome(self, scale):
        # The cases of test_near_singular_pivots_match_the_unblocked_loop up
        # to the panel size, c = 1 among them, each n's cases in one stack
        # with the unshifted matrix.
        raised = 0
        for n in range(2, matcore._PANEL + 1):
            base = random_dominant(trial_rng(181, n), n).entries * scale
            floors = matcore._pivot_floors(base)
            mats = [base]
            for k in range(1, n):
                schur = matcore._pivots(base[None, k:, k:].copy())[0][0, 0]
                for c in (0.0, 0.5, -0.5, 1.0, 2.0):
                    a = base.copy()
                    a[k, k] += c * floors[k] - schur
                    mats.append(a)
            stacked, single = self.stacked_and_single_outcomes(mats)
            assert stacked == single, n
            raised += sum(len(o) == 3 for o in stacked)
        assert raised > 0

    def test_stack_of_fills_each_member_from_one_stack(self, monkeypatch):
        rng = trial_rng(193)
        mats = np.array([random_balanced(rng, 9).entries,
                         singular_trailing_block(9, 4, seed=5).entries,
                         random_dominant(rng, 9).entries])
        singles = [SymMatrix(a) for a in mats]
        stacks = []
        kernel = matcore._eliminate_stack
        monkeypatch.setattr(matcore, "_eliminate_stack",
                            lambda a: stacks.append(a.shape) or kernel(a))
        primed = matcore._stack_of(mats.copy())
        for J, a in zip(primed, mats):
            np.testing.assert_array_equal(bits(J.entries), bits(a))
        for J, single in ((primed[0], singles[0]), (primed[2], singles[2])):
            factors, ratio = J.elimination
            ref_factors, ref_ratio = single.elimination
            assert bits(factors).tolist() == bits(ref_factors).tolist()
            assert bits(np.array(ratio)).tolist() == bits(np.array(ref_ratio)).tolist()
            assert J.elimination[0] is factors
        # The failed elimination is kept as its error: every read raises the
        # error the matrix raises on its own, and no read runs the kernel
        # again.
        for _ in range(2):
            with pytest.raises(SingularBlockError) as err:
                primed[1].elimination
            with pytest.raises(SingularBlockError) as ref:
                singles[1].elimination
            assert str(err.value) == str(ref.value)
            assert err.value.block_index == ref.value.block_index == 5
        assert stacks == [(3, 9, 9), (1, 9, 9), (1, 9, 9), (1, 9, 9)]

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
        kernel = matcore._eliminate_stack
        monkeypatch.setattr(matcore, "_eliminate_stack",
                            lambda a: calls.append(a.shape) or kernel(a))
        J = random_balanced(trial_rng(173), 7)
        first = block_det_ratio(J)
        for bound in (det_lower_bound, det_upper_bound_balanced,
                      adjugate_bound, hadamard_sanity):
            assert bound(J).applicable
        assert block_det_ratio(J) is first
        assert calls == [(1, 7, 7)]

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
        # One stacked classification per same-n stack, of the stack's size,
        # and none per matrix: classify itself is a stack of one.
        calls = classify_stack_calls(monkeypatch)
        records = verify_suite("eig", (6, 6), trials=4, seed=11)
        assert len(records) == 4 * 5
        assert all(r.report.applicable for r in records)
        assert calls == [(4, 6, 6)]

    @pytest.mark.parametrize("suite", ["det", "adjugate"])
    def test_determinant_suites_classify_each_stack_once(self, suite, monkeypatch):
        calls = classify_stack_calls(monkeypatch)
        records = verify_suite(suite, (6, 6), trials=4, seed=11)
        assert records and all(r.report.applicable for r in records)
        assert calls == [(4, 6, 6)]


def classify_stack_calls(monkeypatch) -> list:
    """A list that receives the shape of each stack ``matcore._classify_stack``
    classifies after this call, through either module's binding."""
    calls = []
    kernel = matcore._classify_stack
    for module in (matcore, bounds):
        monkeypatch.setattr(module, "_classify_stack",
                            lambda a: calls.append(a.shape) or kernel(a))
    return calls


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

    @pytest.mark.filterwarnings("error")
    def test_indefinite_past_the_float_range_is_inapplicable(self):
        # Row sums of 2.5e308 are past the largest float, so a floor
        # n eps inf_norm(J) would forgive the pivot -1.25e308; at unit scale
        # it is found, as at scale 1
        J = SymMatrix(1e308 * np.array([[1.0, 1.5, 0], [1.5, 1, 0], [0, 0, 1]]))
        r = hadamard_sanity(J)
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

    @pytest.mark.filterwarnings("error")
    def test_closed_form_past_the_float_range(self):
        # 2 ell (n-2)(n-1) = 2.4e308 is past the largest float, the right
        # side is not, and it holds without the tolerance
        r = adjugate_bound(SymMatrix(FAR_BALANCED))
        assert r.rhs == pytest.approx(5 / 2.4 * 1e-308 * math.exp(-0.25), rel=1e-14, abs=0)
        assert 0 < r.lhs < r.rhs and r.holds

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("explicit", [False, True])
    @pytest.mark.parametrize("small", [1e-300, 1e-290])
    def test_least_off_diagonal_far_below_the_largest(self, small, explicit):
        # ell/m is 1e-330, below the least subnormal, or 1e-320, subnormal:
        # scaled by m's exponent, ell was flushed to zero (a
        # ZeroDivisionError) or lost bits.  exp(-ell^2/4m^2) is 1.
        J = k4_with_one_small_edge(small)
        r = adjugate_bound(J, small, 1e30) if explicit else adjugate_bound(J)
        assert bits([r.rhs]) == bits([8 / (2.0 * small * 2 * 3)])
        assert r.holds


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

    def test_rejects_non_dominant_reference(self):
        with pytest.raises(ValueError,
                           match="^reference family must be diagonally dominant$"):
            xi_functional(SForm(4, 1.0, 1.0), SymMatrix(np.zeros((4, 4))))

    def test_rejects_non_dominant_p(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0  # adjacency only: margins are negative
        with pytest.raises(ValueError):
            xi_functional(SForm(3, 2.0, 1.0), SymMatrix(a))

    def test_verdicts_and_values_keep_under_power_of_two_scaling(self):
        # xi is linear in P, and 2^k P is exact: a P with a margin of -0.5
        # is rejected at every scale, also where its norm is below 1, and a
        # dominant P's functional scales by exactly 2^k.
        P = signless_laplacian(chain_cycle(4)).entries
        short = P.copy()
        short[0, 0] -= 0.5
        ref = xi_functional(S42, SymMatrix(P))
        for k in (0, -30, 30, -60, 60):
            with pytest.raises(ValueError, match="^P must be diagonally dominant$"):
                xi_functional(S42, SymMatrix(np.ldexp(short, k)))
            res = xi_functional(S42, SymMatrix(np.ldexp(P, k)))
            assert res.xi == math.ldexp(ref.xi, k)
            assert np.array_equal(bits(res.per_row), bits(np.ldexp(ref.per_row, k)))

    @pytest.mark.parametrize("a", [math.ldexp(1.1, -520), 1e-155, 1.3e-156, 3.3e-160])
    def test_small_reference_family(self, a):
        # b = ell/(alpha(alpha + ell n)) is near 1/a^2, so b*b passes the
        # largest float (or a^2 is subnormal), though Q = S^-1 P S^-1 is
        # finite.  The functional is homogeneous of degree -2 in (alpha, ell).
        P = SymMatrix(1e-20 * signless_laplacian(LoopGraph(3, [(1, 2), (2, 3)])).entries)
        ref = xi_functional(SForm(3, 1.0, 1.0), P)
        res = xi_functional(SForm(3, a, a), P)
        assert math.isfinite(res.xi) and res.xi > 0
        np.testing.assert_allclose(res.per_row, ref.per_row / a / a, rtol=1e-12)
        np.testing.assert_allclose(res.per_row_closed, ref.per_row / a / a, rtol=1e-12)

    def test_direct_route_past_the_float_range(self):
        P = SymMatrix(1e-20 * signless_laplacian(LoopGraph(3, [(1, 2), (2, 3)])).entries)
        with pytest.raises(OverflowError, match="past the float range"):
            xi_functional(SForm(3, 1e-200, 1e-200), P)


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

    def test_det_upper_search_eliminates_in_stacks(self, monkeypatch):
        # The search eliminates each size's matrices as one stack, with no
        # per-matrix block_det_ratio call.
        expected = conjecture_search("det_upper", 20, 0)
        calls = []
        layer = bounds.block_det_ratio
        monkeypatch.setattr(bounds, "block_det_ratio",
                            lambda J: calls.append(J.n) or layer(J))
        stacks = []
        kernel = bounds._eliminate_stack
        monkeypatch.setattr(bounds, "_eliminate_stack",
                            lambda a: stacks.append(a.shape) or kernel(a))
        assert conjecture_search("det_upper", 20, 0) == expected
        assert calls == []
        assert sum(k for k, _, _ in stacks) == 20
        assert len({n for _, n, _ in stacks}) == len(stacks)

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

    @pytest.mark.parametrize("suite", ["det", "adjugate"])
    def test_det_suites_eliminate_in_stacks(self, suite, monkeypatch):
        # Each chunk's matrices of one n are eliminated as one stack, and no
        # bound eliminates a matrix on its own: every call is a chunk group.
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", 8 * 12 * 12)  # 8 trials a chunk
        expected = verify_suite(suite, (3, 12), 30, seed=5)
        stacks = []
        kernel = matcore._eliminate_stack
        monkeypatch.setattr(matcore, "_eliminate_stack",
                            lambda a: stacks.append(a.shape[:2]) or kernel(a))
        records = verify_suite(suite, (3, 12), 30, seed=5)
        assert [record_fields(r) for r in records] == [record_fields(r) for r in expected]
        n_of = {r.trial: r.n for r in records}
        chunks = [range(first, min(first + 8, 30)) for first in range(0, 30, 8)]
        assert stacks == [(k, n) for chunk in chunks
                          for n, k in Counter(n_of[t] for t in chunk).items()]

    @pytest.mark.parametrize("suite, kernels", [
        ("varah", ("_classify_stack", "_inv_norm_stack")),
        ("lower", ("_classify_stack", "_inv_norm_stack")),
        ("spectral", ("_classify_stack", "_inv_norm_stack")),
        ("cond", ("_classify_stack", "_inv_norm_stack")),
        ("det", ("_classify_stack", "_eliminate_stack")),
        ("adjugate", ("_classify_stack", "_eliminate_stack", "_inv_norm_stack")),
        ("lower_norm", ("_inv_norm_stack",)),
    ])
    def test_matrix_suites_run_each_kernel_once_per_group(self, suite, kernels, monkeypatch):
        # Each kernel a suite reads runs once per (chunk, n) group, on the
        # whole group, and never on one matrix of it: the bounds read the
        # members of the group's matrices.  Trial 0 of lower_norm draws no
        # matrix; its J is S itself, a stack of one.
        hi = 10 if suite in CONJECTURES else 12
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", 8 * 12 * 12)
        size = bounds._CHUNK_ENTRIES // (hi * hi)

        def run():
            if suite in CONJECTURES:
                return conjecture_search(suite, 30, 5)
            return verify_suite(suite, (3, hi), 30, seed=5)

        expected = run()
        calls = {}
        for name in ("_classify_stack", "_eliminate_stack", "_inv_norm_stack"):
            kernel = getattr(matcore, name)
            calls[name] = log = []
            monkeypatch.setattr(matcore, name, lambda a, log=log, kernel=kernel:
                                log.append(a.shape) or kernel(a))
        records = run()
        assert [record_fields(r) for r in records] == [record_fields(r) for r in expected]
        n_of = {r.trial: r.n for r in records}
        groups = Counter((k, n, n) for first in range(0, 30, size)
                         for n, k in Counter(n_of[t] for t in range(first, min(first + size, 30))
                                             if suite != "lower_norm" or t > 0).items())
        if suite == "lower_norm":
            groups[(1, n_of[0], n_of[0])] += 1
        assert {name: Counter(log) for name, log in calls.items()} == {
            name: groups if name in kernels else Counter() for name in calls}

    def test_eig_suite_solves_in_stacks(self, monkeypatch):
        # Each chunk's matrices of one n get one eigensolve per block, over
        # the whole group, and no matrix goes through eig_interval_check.
        expected = verify_suite("eig", (3, 12), 30, seed=5)
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", 8 * 12 * 12)  # 8 trials a chunk
        calls, stacks = [], []
        single = bounds.eig_interval_check
        monkeypatch.setattr(bounds, "eig_interval_check",
                            lambda J, *args, **kw: calls.append(J.n) or single(J, *args, **kw))
        kernel = bounds._eigen_stack
        monkeypatch.setattr(bounds, "_eigen_stack",
                            lambda a: stacks.append(a.shape) or kernel(a))
        records = verify_suite("eig", (3, 12), 30, seed=5)
        assert [record_fields(r) for r in records] == [record_fields(r) for r in expected]
        assert all(r.report.applicable for r in records)
        assert calls == []
        n_of = {r.trial: r.n for r in records}
        chunks = [range(first, min(first + 8, 30)) for first in range(0, 30, 8)]
        assert stacks == [(k, n - i + 1, n - i + 1) for chunk in chunks
                          for n, k in Counter(n_of[t] for t in chunk).items()
                          for i in range(1, n)]

    @pytest.mark.parametrize("ell, m", [(None, None), (1.0, 3.0)])
    def test_mixed_gate_stack_gives_each_matrix_its_own_reports(self, ell, m):
        # Matrices that each fail one hypothesis, interleaved with ones that
        # pass: every matrix gets exactly the reports eig_interval_check
        # gives it alone, context key order included.
        rng = trial_rng(211)
        n = 6
        not_dominant = random_dominant(rng, n).entries.copy()
        not_dominant[2, 2] -= 20.0
        negative_diagonal = random_balanced(rng, n).entries.copy()
        negative_diagonal[4, 4] *= -1.0
        unbracketed = random_dominant(rng, n).entries.copy()
        unbracketed[0, 3] = unbracketed[3, 0] = -0.5
        a = np.array([random_balanced(rng, n).entries, not_dominant,
                      random_dominant(rng, n).entries, negative_diagonal,
                      random_balanced(rng, n).entries, unbracketed,
                      random_dominant(rng, n, margin_hi=50.0).entries])
        blocks = range(1, n)
        out = bounds._eig_checks(a, matcore._classify_stack(a), blocks, ell, m)

        def fields(r):
            return (r.name, bits(np.array([r.lhs, r.rhs, r.slack])).tolist(), r.holds,
                    r.vacuous, r.applicable, list(r.context.items()))

        assert len(out) == len(a)
        for reports, entries in zip(out, a):
            J = SymMatrix(entries)
            assert [fields(r) for r in reports] == [
                fields(eig_interval_check(J, ell, m, i)) for i in blocks]
        assert [r[0].context.get("reason") for r in out] == [
            None, "J not diagonally dominant", None, "needs a positive diagonal",
            None, "[ell, m] does not bracket the off-diagonals", None]

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
            with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
                conjecture_search(mode, 10, -1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            verify_suite("main", (3, 5), 10, -1)


def record_fields(rec):
    """A record's fields, with lhs, rhs and slack as bits."""
    r = rec.report
    return (rec.suite, rec.trial, rec.n, rec.params, r.name,
            bits(np.array([r.lhs, r.rhs, r.slack])).tolist(),
            r.holds, r.vacuous, r.applicable, r.context)


class TestTrialEngine:
    """The stacked engine against the loop over trials it replaced."""

    @pytest.mark.parametrize("seed", [0, 7, 71])
    @pytest.mark.parametrize("n_range, trials", [((3, 12), 41), ((30, 34), 9)],
                             ids=["n3-12", "n30-34"])
    @pytest.mark.parametrize("name", SUITES + CONJECTURES)
    def test_records_equal_the_loop(self, name, n_range, trials, seed, monkeypatch):
        # Chunks of 4 trials, so the trials cross several chunk boundaries
        # and end in a partial chunk; the range 30..34 crosses _PANEL.
        lo, hi = n_range
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", 4 * hi * hi)
        engine = bounds._trials(name, lo, hi, trials, seed)
        loop = trials_one_by_one(name, lo, hi, trials, seed)
        assert len(engine) == len(loop) >= trials
        assert [record_fields(r) for r in engine] == [record_fields(r) for r in loop]

    @pytest.mark.parametrize("name", ["det", "adjugate", "det_upper"])
    def test_first_singular_trial_raises_as_in_the_loop(self, name, monkeypatch):
        # Every matrix whose last diagonal entry is within 1% of its largest
        # entry gets an infinite floor for its last pivot.  Trials of several
        # sizes fail, and at this seed a group analysed before the first
        # failing trial's group holds a later failing trial: both must raise
        # the first one's error.
        floors = matcore._pivot_floors

        def some_singular(a):
            f = floors(a).copy()
            f[..., -1] = np.where(a[..., -1, -1] >= 0.99 * np.abs(a).max(axis=(-2, -1)),
                                  np.inf, f[..., -1])
            return f

        monkeypatch.setattr(matcore, "_pivot_floors", some_singular)
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", 40 * 12 * 12)
        with pytest.raises(SingularBlockError) as loop:
            trials_one_by_one(name, 3, 12, 300, 1)
        with pytest.raises(SingularBlockError) as engine:
            bounds._trials(name, 3, 12, 300, 1)
        assert (str(engine.value), engine.value.block_index) == \
            (str(loop.value), loop.value.block_index)

    def test_first_uncertified_eigensolve_raises_as_in_the_loop(self, monkeypatch):
        # Blocks whose (0, 1) entry is above 2.99 get eigenvalues that miss
        # the residual certificate; at this seed, as above, a group analysed
        # first holds a later failing trial.
        eigh = np.linalg.eigh

        def perturbed(a):
            lams, vecs = eigh(a)
            return lams + 1e-3 * (a[..., :1, 1] > 2.99), vecs

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", 40 * 12 * 12)
        with pytest.raises(EigenConvergenceError) as loop:
            trials_one_by_one("eig", 3, 12, 200, 4)
        with pytest.raises(EigenConvergenceError) as engine:
            bounds._trials("eig", 3, 12, 200, 4)
        assert str(engine.value) == str(loop.value)
