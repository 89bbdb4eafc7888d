import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from helpers import (bits, f_map_by_scan, jacobian_by_scan, loewner_geq, residual_by_scan,
                     mean_field_start_by_scan, retina_start_by_scan, sample_degrees_by_scan,
                     solve_retina_by_scan)
from sddkit import (
    DomainError,
    RetinaProblem,
    SForm,
    classify,
    consistency_experiment,
    f_map,
    jacobian,
    residual,
    sample_degrees,
    sform_dense,
    solve_retina,
)
from sddkit import retina
from sddkit.retina import DOMAIN_FLOOR, consistency_bound
from sddkit.randmat import trial_rng


class TestFMap:
    def test_uniform(self):
        np.testing.assert_allclose(f_map(-np.ones(4)), np.full(4, 1.5), atol=1e-15)

    def test_direct_evaluation(self):
        got = f_map(-np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            got, [1 / 3 + 1 / 4, 1 / 3 + 1 / 5, 1 / 4 + 1 / 5], atol=1e-15)

    def test_domain_error_names_pair(self):
        x = np.array([1.0, -1.0 + 1e-12, 5.0])
        with pytest.raises(DomainError) as err:
            f_map(x)
        assert err.value.pair == (0, 1)


class TestJacobian:
    def test_domain_error_names_pair(self):
        x = np.array([1.0, -1.0 + 1e-12, 5.0])
        with pytest.raises(DomainError) as err:
            jacobian(x)
        assert err.value.pair == (0, 1)

    def test_uniform_values(self):
        J = jacobian(-np.ones(4)).entries
        assert J[0, 1] == pytest.approx(0.25, abs=1e-15)
        assert J[0, 0] == pytest.approx(0.75, abs=1e-15)

    def test_balanced_positive(self):
        rng = trial_rng(211)
        for _ in range(10):
            theta = rng.uniform(0.5, 2.0, size=6)
            J = jacobian(-theta)
            rep = classify(J)
            assert rep.is_balanced and rep.min_offdiag > 0

    def test_matches_central_differences(self):
        rng = trial_rng(223)
        for _ in range(5):
            n = int(rng.integers(4, 9))
            x = -rng.uniform(0.5, 2.0, size=n)
            J = jacobian(x).entries
            h = 1e-5
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                col = (f_map(x + e) - f_map(x - e)) / (2 * h)
                np.testing.assert_allclose(J[:, j], col, rtol=1e-6, atol=1e-8)

    def test_dominates_reference_family(self):
        rng = trial_rng(227)
        theta = rng.uniform(0.5, 2.0, size=6)
        J = jacobian(-theta)
        ell = classify(J).min_offdiag
        S = SForm(6, 4.0 * ell, ell)  # (n-2) * ell
        assert loewner_geq(J, sform_dense(S), tol=1e-10)


class TestSolve:
    def test_uniform_is_exact_at_init(self):
        sol = solve_retina(RetinaProblem(np.full(4, 1.5)))
        assert sol.converged and sol.iterations == 0
        np.testing.assert_allclose(sol.theta, np.ones(4), atol=1e-12)
        assert sol.residual_inf <= 1e-12

    def test_roundtrip_recovery(self):
        rng = trial_rng(229)
        for _ in range(10):
            n = int(rng.integers(4, 21))
            theta = rng.uniform(0.5, 2.0, size=n)
            sol = solve_retina(RetinaProblem(f_map(-theta)))
            assert sol.converged
            assert np.abs(sol.theta - theta).max() <= 1e-8

    def test_perturbation_obeys_lipschitz_constant(self):
        rng = trial_rng(233)
        for _ in range(10):
            n = int(rng.integers(5, 15))
            theta = rng.uniform(0.5, 2.0, size=n)
            d = f_map(-theta)
            eps = rng.uniform(-1e-3, 1e-3, size=n)
            sol1 = solve_retina(RetinaProblem(d))
            sol2 = solve_retina(RetinaProblem(d + eps))
            # the slope bound needs the smaller derivative floor of the
            # two endpoints (pair sums are linear along the segment)
            ell = min(sol1.ell_used, sol2.ell_used)
            lip = (3 * n - 4) / (2 * ell * (n - 1) * (n - 2))
            assert np.abs(sol2.theta - sol1.theta).max() <= lip * np.abs(eps).max() + 1e-9

    def test_certificate_fields(self):
        sol = solve_retina(RetinaProblem(np.array([1.0, 1.1, 0.9, 1.2])))
        assert sol.converged
        assert sol.certificate_is_local
        assert sol.error_certificate == pytest.approx(
            sol.lipschitz_const * sol.residual_inf)
        assert sol.ell_used > 0

    @pytest.mark.parametrize("d", [
        f_map(-trial_rng(239).uniform(0.5, 2.0, size=9)),
        f_map(-np.array([0.7, 1.9, 1.3, 1.9, 0.8])),
        np.full(5, 2.0),
    ], ids=["random", "repeated_max", "uniform"])
    def test_ell_used_is_min_over_pairs(self, d):
        sol = solve_retina(RetinaProblem(d))
        th = sol.theta
        n = len(th)
        brute = min(1.0 / ((th[i] + th[j]) * (th[i] + th[j]))
                    for i in range(n) for j in range(n) if i != j)
        assert sol.ell_used == brute

    def test_infeasible_targets_fail_gracefully(self):
        # row 1 wants tiny pair sums, rows 2-3 want huge ones: no solution,
        # and the problem is rejected before any Newton step.
        with pytest.raises(ValueError, match=r"d\[0\] = 1000 .* \(margin -999\.998\)"):
            RetinaProblem(np.array([1000.0, 1e-3, 1e-3]))

    @pytest.mark.parametrize("d, index, margin", [
        ([1.0, 1.0, 50.0], 2, "-48"),
        ([1.0, 2.0, 3.5], 2, "-0.5"),
        ([5.0, 1.0, 1.0, 1.0], 0, "-2"),
        ([1.0, 2.0, 3.0], 2, "0"),
    ], ids=["far", "near", "n4", "boundary"])
    def test_rejects_target_not_below_the_others(self, d, index, margin):
        with pytest.raises(ValueError, match=rf"infeasible .* d\[{index}\] = .*"
                                             rf"\(margin {margin}\)"):
            RetinaProblem(np.array(d))

    @pytest.mark.filterwarnings("error")
    def test_certificate_at_extreme_scale(self):
        # theta near 1e160 at n = 400: ell = 1/z^2 is subnormal, and the
        # constant, about (3/(2n)) z^2, is past the largest float, but their
        # product with the residual norm is not.
        n = 400
        sol = solve_retina(RetinaProblem(1e-160 * sample_degrees(_true_theta(n, 0), 100)))
        assert sol.converged
        top = np.sort(sol.theta)[-2:]
        zmax = Fraction(top[0] + top[1])
        ell = 1 / zmax ** 2
        assert abs(Fraction(sol.ell_used) - ell) <= ell * Fraction(2) ** -50 + Fraction(2) ** -1074
        assert sol.lipschitz_const == math.inf
        cert = Fraction(3 * n - 4, 2 * (n - 1) * (n - 2)) * zmax ** 2 * Fraction(sol.residual_inf)
        assert 0 < sol.error_certificate < math.inf
        assert abs(Fraction(sol.error_certificate) - cert) <= cert * Fraction(2) ** -50

    @pytest.mark.parametrize("s", [1e-20, 1e-8])
    def test_tiny_targets_are_met_relative_to_their_size(self, s):
        # Within 1e-10 of d in absolute terms, the start is 12.5% off it at
        # s = 1e-20, and the second step still 0.16% off at s = 1e-8.
        d = s * np.array([1.0, 1.1, 0.9, 1.2])
        sol = solve_retina(RetinaProblem(d))
        assert sol.converged and sol.iterations == 4
        assert sol.residual_inf <= 1e-10 * d.max()
        np.testing.assert_allclose(f_map(-sol.theta), d, rtol=1e-10)

    @pytest.mark.parametrize("s", [1e6, 1e8])
    def test_large_targets_are_met_to_their_rounding(self, s):
        # No residual row sum gets below about n * eps * max(d), which is
        # past the absolute 1e-10 here: the solution is found to 2e-16
        # relative, and must count as converged.
        d = s * np.array([1.0, 1.1, 0.9, 1.2])
        sol = solve_retina(RetinaProblem(d))
        assert sol.converged
        assert sol.residual_inf <= 4 * np.finfo(float).eps * d.max()
        np.testing.assert_allclose(f_map(-sol.theta), d, rtol=1e-14)

    def test_large_random_targets_are_met_to_their_rounding(self):
        theta = trial_rng(251).uniform(0.5, 2.0, size=50)
        sol = solve_retina(RetinaProblem(1e6 * f_map(-theta)))
        assert sol.converged
        np.testing.assert_allclose(1e6 * sol.theta, theta, rtol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_tiny_targets_solve_at_unit_scale(self):
        # At theta near 1.4e160 every squared pair sum would overflow, but
        # the solve runs at unit scale and converges as at d near 1.
        sol = solve_retina(RetinaProblem(1e-160 * np.array([1.0, 1.1, 0.9, 1.2])))
        assert (sol.converged, sol.iterations) == (True, 4)

    @pytest.mark.filterwarnings("error")
    def test_zero_jacobian_ends_unconverged(self, monkeypatch):
        # A Jacobian that is 0 (its squared pair sums can overflow where the
        # targets span hundreds of decades) fails its Cholesky factorization
        # at the start: converged=False, and no warning.
        monkeypatch.setattr(retina, "_jacobian_from_pair_sums", lambda w: np.zeros_like(w))
        d = 1e-160 * np.array([1.0, 1.1, 0.9, 1.2])
        sol = solve_retina(RetinaProblem(d))
        assert (sol.converged, sol.iterations) == (False, 0)
        assert sol.residual_inf > 1e-10 * d.max()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [1e11, 1e300, 1e-300])
    def test_targets_far_from_one_are_met_to_their_rounding(self, s):
        # At s = 1e11 the solution's pair sums, near 3e-11, lie under the
        # absolute DOMAIN_FLOOR, which held the solve off them; at 1e300 and
        # 1e-300 it ended after one step or at the start.  (f_map checks
        # the solution at theta s, whose pair sums are near 1.)
        d = s * np.array([1.0, 1.1, 0.9, 1.2])
        sol = solve_retina(RetinaProblem(d))
        assert (sol.converged, sol.iterations) == (True, 4)
        assert sol.residual_inf <= 4 * np.finfo(float).eps * d.max()
        np.testing.assert_allclose(f_map(-s * sol.theta), d / s, rtol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_certificate_at_tiny_scale(self):
        # pair sums of 2^-539: 1/z^2 = 2^1078 is past the largest float and
        # the constant below the smallest subnormal
        sol = retina._finish(np.full(4, 2.0 ** -540), 0.0, 0, True, 4)
        assert (sol.ell_used, sol.lipschitz_const, sol.error_certificate) == (math.inf, 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_targets_near_the_largest_float(self):
        # The three sum past the largest float, yet each is below the sum of
        # the other two; the margin is formed at a power-of-two scale.
        assert RetinaProblem(np.array([1e308, 1.1e308, 0.9e308])).n == 3
        with pytest.raises(ValueError, match=r"d\[2\] = 1\.7e\+308 is not below the sum "
                                             r"of the others \(margin -6e\+307\)"):
            RetinaProblem(np.array([1e308, 1e307, 1.7e308]))
        many = np.full(20, 1.7e308)
        assert RetinaProblem(many).n == 20
        with pytest.raises(ValueError, match=r"margin -1\.7e\+308"):
            RetinaProblem(np.append(np.full(19, 2.0 ** -1074), 1.7e308))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9], ids=["inf", "nan", "negative"])
    def test_rejects_tol_before_any_work(self, tol, monkeypatch):
        # Unchecked, tol = inf certified this start (residual 2.4) as
        # converged, and tol = nan ran 5 steps to a residual of 7.1e-15 and
        # reported it unconverged.
        prob = RetinaProblem(sample_degrees(_true_theta(50, 0), 100))
        monkeypatch.setattr(retina, "_start", lambda d: pytest.fail("solve started"))
        with pytest.raises(ValueError, match=rf"^tol must be finite and >= 0, got {tol}$"):
            solve_retina(prob, tol=tol)

    def test_zero_tol_stops_at_the_rounding_floor(self):
        prob = RetinaProblem(sample_degrees(_true_theta(50, 0), 100))
        sol = solve_retina(prob, tol=0.0)
        assert sol.converged
        assert sol.residual_inf <= 50 * np.finfo(float).eps * prob.d.max()

    def test_feasible_target_near_the_bound_converges(self):
        sol = solve_retina(RetinaProblem(np.array([1.0, 2.0, 2.99])))
        assert sol.converged
        np.testing.assert_allclose(f_map(-sol.theta), [1.0, 2.0, 2.99], rtol=1e-9)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_degree(self, bad):
        with pytest.raises(ValueError, match=r"d\[2\] = .* is not finite"):
            RetinaProblem(np.array([1.0, 2.0, bad]))

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            RetinaProblem(np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            RetinaProblem(np.array([1.0, 1.0]))


class TestSampleDegrees:
    def test_deterministic(self):
        theta = np.array([1.0, 0.7, 1.3, 2.0])
        np.testing.assert_array_equal(sample_degrees(theta, 42),
                                      sample_degrees(theta, 42))
        assert not np.array_equal(sample_degrees(theta, 42),
                                  sample_degrees(theta, 43))

    def test_uniform_mean(self):
        # E[d_i] = 1.5 per vertex at theta = 1; check a Monte Carlo mean
        # against its standard error.
        theta = np.ones(4)
        reps = 10_000
        acc = np.zeros(4)
        acc2 = np.zeros(4)
        for s in range(reps):
            d = sample_degrees(theta, s)
            acc += d
            acc2 += d * d
        mean = acc / reps
        se = np.sqrt((acc2 / reps - mean ** 2) / reps)
        expect = f_map(-theta)
        assert (np.abs(mean - expect) <= 3 * se).all()

    def test_mean_matches_f_map_general(self):
        rng = trial_rng(239)
        theta = rng.uniform(0.5, 2.0, size=6)
        reps = 4000
        acc = np.zeros(6)
        for s in range(reps):
            acc += sample_degrees(theta, s)
        np.testing.assert_allclose(acc / reps, f_map(-theta), rtol=0.05)

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError) as err:
            sample_degrees(np.array([1.0, -1.0, 1.0]), 0)
        assert err.value.pair == (0, 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            sample_degrees(np.ones(3), -1)


class TestConsistencyExperiment:
    def test_replayable(self):
        t1, s1 = consistency_experiment(20, 2.0, 3, (0.5, 2.0), seed=7)
        t2, s2 = consistency_experiment(20, 2.0, 3, (0.5, 2.0), seed=7)
        for a, b in zip(t1, t2):
            np.testing.assert_array_equal(a.d_hat, b.d_hat)
            assert a.err_inf == b.err_inf and a.seed == b.seed

    def test_summary_accounting(self):
        trials, summary = consistency_experiment(20, 2.0, 5, (0.5, 2.0), seed=11)
        assert summary.trials == 5
        assert summary.converged == sum(t.converged for t in trials)
        assert summary.within == sum(t.within_bound for t in trials)
        assert 0.0 <= summary.fraction_within <= 1.0
        assert summary.target == pytest.approx(1 - 3 / 20)

    @pytest.mark.parametrize("k, target", [(2.0, 1.0 - 3.0 / 10 ** (2.0 - 1)), (400.0, 1.0)])
    def test_target_bits(self, k, target):
        # n^(k-1) overflows a float at k = 400; the target is then exactly 1.
        _, summary = consistency_experiment(10, k, 1, (0.5, 2.0), seed=0)
        assert summary.target.hex() == target.hex()

    def test_bound_formula(self):
        # theta in [0.5, 2] gives m = 1 and ell = 1/16
        b = consistency_bound(100, 2.0, 0.5, 2.0)
        assert b == pytest.approx(2400 * np.sqrt(2 * np.log(100) / 100), rel=1e-12)

    @pytest.mark.parametrize("theta_range", [(1e160, 2e160), (1e-200, 2e-200),
                                             (1e-150, 1e150)],
                             ids=["overflows", "divides_by_zero", "infinite"])
    def test_rejects_range_without_finite_bound(self, theta_range):
        with pytest.raises(ValueError, match="consistency bound is not a finite float"):
            consistency_experiment(10, 2.0, 1, theta_range, seed=0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            consistency_experiment(20, 1.0, 5, (0.5, 2.0), seed=0)
        with pytest.raises(ValueError):
            consistency_experiment(20, 2.0, 0, (0.5, 2.0), seed=0)
        with pytest.raises(ValueError):
            consistency_experiment(20, 2.0, 5, (2.0, 0.5), seed=0)


class TestResidualFunction:
    def test_zero_at_exact_solution(self):
        theta = np.array([1.0, 1.2, 0.8, 1.5])
        r = residual(theta, f_map(-theta))
        np.testing.assert_allclose(r, 0.0, atol=1e-15)


def _outcome(fn, *args):
    """fn's result, or the type, message and pair of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err), getattr(err, "pair", None)


def _assert_same_outcome(new, old):
    if isinstance(old, tuple):
        assert new == old
    else:
        assert not isinstance(new, tuple), new
        np.testing.assert_array_equal(bits(new), bits(old))


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes, as
    tracemalloc sees it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


FLOOR = DOMAIN_FLOOR
INSIDE = np.nextafter(FLOOR, 0.0) / 2  # two of these sum to just under the floor
NAN = np.nan

# x for f_map and jacobian (and -x for residual): the error the domain
# check raises (None for none), then the entries.  A NaN or infinite entry
# is rejected, with ValueError, before any pair sum is formed.
DOMAIN_CASES = {
    "mixed_sign_error": (DomainError, [1.0, -1.0 + 1e-12, 5.0]),
    "mixed_sign_clear": (None, [1.0, -3.0, 5.0, -0.5]),
    "at_floor": (None, [FLOOR / 2, FLOOR / 2, 1.0]),
    "at_minus_floor": (None, [-1.0, -FLOOR / 2, -FLOOR / 2]),
    "inside_floor": (DomainError, [1.0, INSIDE, 2.0, INSIDE]),
    "all_negative_clear": (None, list(-trial_rng(241).uniform(0.5, 2.0, size=7))),
    "all_negative_error": (DomainError, [-3.0, -1e-11, -2.0, -4e-11]),
    "n2_error": (DomainError, [1.0, -1.0]),
    "n2_clear": (None, [1.0, 2.0]),
    "n1": (None, [0.0]),
    "nan_clear": (ValueError, [NAN, 1.0, 2.0]),
    "nan_only": (ValueError, [NAN, NAN, NAN]),
    "nan_mixed_clear": (ValueError, [NAN, 1.0, -3.0]),
    "nan_error": (ValueError, [NAN, 1.0, -1.0]),
    "inf_clear": (ValueError, [1.0, np.inf, 2.0]),
    "minus_inf_error": (ValueError, [1.0, -1.0, -np.inf]),
}

# theta for sample_degrees: the error raised (DomainError when a pair sum is
# <= 0, None for none), then the entries.
SAMPLE_DOMAIN_CASES = {
    "mixed_sign": (DomainError, [2.0, -1.0, -3.0, 4.0]),
    "zero_sum": (DomainError, [1.0, -1.0, 1.0]),
    "zero_pair": (DomainError, [1.0, 0.0, 0.0]),
    "all_negative": (DomainError, [-1.0, -2.0, -3.0]),
    "n2_error": (DomainError, [1.0, -1.0]),
    "n2_clear": (None, [1.0, 2.0]),
    "tiny_positive_pair": (None, [1e-300, 0.0, 2.0]),
    "nan_clear": (ValueError, [NAN, 1.0, 2.0]),
    "nan_scan_clear": (ValueError, [NAN, NAN, 1.0]),
    "nan_error": (ValueError, [NAN, -1.0, -2.0]),
    "inf_clear": (ValueError, [np.inf, 1.0, 1.0]),
}


class TestDomainCheckMatchesScan:
    """The O(n) domain test decides exactly what the n^2 scan decides: the
    same DomainError message and pair, or the same result bits."""

    @pytest.mark.parametrize("error, x", DOMAIN_CASES.values(), ids=DOMAIN_CASES.keys())
    def test_f_map_jacobian_residual(self, error, x):
        x = np.array(x)
        d = np.ones(len(x))
        old = _outcome(f_map_by_scan, x)
        assert (old[0] if isinstance(old, tuple) else None) is error
        _assert_same_outcome(_outcome(f_map, x), old)
        _assert_same_outcome(_outcome(lambda y: jacobian(y).entries, x),
                             _outcome(lambda y: jacobian_by_scan(y).entries, x))
        _assert_same_outcome(_outcome(residual, -x, d), _outcome(residual_by_scan, -x, d))

    @pytest.mark.parametrize("error, theta", SAMPLE_DOMAIN_CASES.values(),
                             ids=SAMPLE_DOMAIN_CASES.keys())
    def test_sample_degrees(self, error, theta):
        theta = np.array(theta)
        old = _outcome(sample_degrees_by_scan, theta, 3)
        assert (old[0] if isinstance(old, tuple) else None) is error
        _assert_same_outcome(_outcome(sample_degrees, theta, 3), old)

    @pytest.mark.parametrize("seed", range(40))
    def test_sample_degrees_with_ties(self, seed):
        # entries from a small set, so the smallest two tie, a pair sums to
        # exactly zero or to a subnormal, and several pairs fail at once
        rng = trial_rng(4100 + seed)
        values = [-2.0, -1.0, -1e-300, 0.0, 1e-300, 1.0, 2.0]
        theta = rng.choice(values, size=int(rng.integers(2, 9)))
        _assert_same_outcome(_outcome(sample_degrees, theta, 3),
                             _outcome(sample_degrees_by_scan, theta, 3))

    def test_sample_degrees_pair_in_linear_memory(self):
        n = 3000
        theta = np.ones(n)
        theta[[2000, 2500]] = -1.0
        outcome, peak = _traced_peak(_outcome, sample_degrees, theta, 3)
        assert outcome == (DomainError, "theta[0] + theta[2000] = 0.000e+00 must be positive",
                           (0, 2000))
        assert peak < 8 * n * n / 16


class TestNonFiniteInput:
    """A NaN or infinite entry is named by its index, with ValueError,
    before any of the n^2 pair sums is formed."""

    @pytest.mark.parametrize("bad", [NAN, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("name", ["f_map", "jacobian", "residual", "sample_degrees"])
    def test_rejected_by_index_in_linear_memory(self, name, bad):
        n = 1000
        x = np.ones(n)
        x[[700, 900]] = bad
        call, label = {
            "f_map": (lambda: f_map(x), "x"),
            "jacobian": (lambda: jacobian(x), "x"),
            # residual(theta) evaluates f_map at x = -theta
            "residual": (lambda: residual(-x, np.ones(n)), "x"),
            "sample_degrees": (lambda: sample_degrees(x, 3), "theta"),
        }[name]
        outcome, peak = _traced_peak(_outcome, call)
        assert outcome == (ValueError, f"{label}[700] = {bad} is not finite", None)
        assert peak < 8 * n * n / 16


def _true_theta(n, seed, lo=0.5, hi=2.0):
    return np.random.default_rng([seed, n]).uniform(lo, hi, size=n)


@pytest.mark.blas_bits
class TestBitwiseOracles:
    """solve_retina and sample_degrees equal, bit for bit, the oracles that
    scan every pair sum, wrap each step's Jacobian in a SymMatrix and read
    the sampling rates from the full pair-sum matrix."""

    @staticmethod
    def assert_same_solution(prob, **kw):
        new = solve_retina(prob, **kw)
        old = solve_retina_by_scan(prob, max_iter=retina.MAX_ITER, **kw)
        np.testing.assert_array_equal(bits(new.theta), bits(old.theta))
        np.testing.assert_array_equal(bits([new.residual_inf, new.ell_used]),
                                      bits([old.residual_inf, old.ell_used]))
        assert (new.iterations, new.converged) == (old.iterations, old.converged)
        return new

    @pytest.mark.parametrize("n, seed", [(n, s) for n in range(3, 13) for s in range(3)]
                             + [(50, 0), (50, 1), (50, 2), (400, 0), (400, 1), (1000, 0)])
    def test_sample_then_solve(self, n, seed):
        theta = _true_theta(n, seed)
        d = sample_degrees(theta, 100 + seed)
        np.testing.assert_array_equal(bits(d), bits(sample_degrees_by_scan(theta, 100 + seed)))
        self.assert_same_solution(RetinaProblem(d), tol=1e-9)

    def test_run_with_line_search_halvings(self, monkeypatch):
        calls = []

        def counting_residual(*args):
            calls.append(1)
            return residual(*args)

        monkeypatch.setattr(retina, "residual", counting_residual)
        d = f_map(-_true_theta(50, 0, 0.05, 10.0))
        sol = self.assert_same_solution(RetinaProblem(d))
        assert sol.converged
        # one residual at the start and one per accepted step; more means
        # the line search halved at least once
        assert len(calls) > sol.iterations + 1

    def test_run_capped_by_max_iter(self, monkeypatch):
        monkeypatch.setattr(retina, "MAX_ITER", 2)
        d = sample_degrees(_true_theta(50, 0), 7)
        sol = self.assert_same_solution(RetinaProblem(d))
        assert not sol.converged and sol.iterations == 2

    @pytest.mark.parametrize("max_iter", [30, 80])
    def test_unconverged_feasible_targets(self, max_iter, monkeypatch):
        # Feasible (weights 999.985, 0.015 and 0.005), but the run stops
        # short of the residual tolerance.
        monkeypatch.setattr(retina, "MAX_ITER", max_iter)
        sol = self.assert_same_solution(RetinaProblem(np.array([1000.0, 999.99, 0.02])))
        assert not sol.converged

    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    def test_targets_met_to_their_rounding(self, tol):
        # No residual row sum gets below about n * eps * max(d), past tol
        # here: both stop at that floor, in 4 steps.
        d = 1e6 * f_map(-trial_rng(251).uniform(0.5, 2.0, size=50))
        sol = self.assert_same_solution(RetinaProblem(d), tol=tol)
        assert (sol.converged, sol.iterations) == (True, 4)


@pytest.mark.blas_bits
class TestPowerOfTwoEquivariance:
    """The equations are homogeneous: theta solves d exactly when theta
    2^-j solves d 2^j.  The solve runs at unit scale, so the solution for
    d 2^j is the one for d times 2^-j, bit for bit, with the same steps."""

    @pytest.mark.parametrize("n, seed", [(n, s) for n in (30, 400) for s in range(3)])
    def test_solution_scales_by_a_power_of_two(self, n, seed):
        d = sample_degrees(_true_theta(n, seed), 100 + seed)
        unit = solve_retina(RetinaProblem(d), tol=0.0)
        assert unit.converged
        for j in (-1000, -500, -1, 1, 500, 1000):
            sol = solve_retina(RetinaProblem(np.ldexp(d, j)), tol=0.0)
            np.testing.assert_array_equal(bits(sol.theta), bits(np.ldexp(unit.theta, -j)))
            assert bits([math.ldexp(sol.residual_inf, -j)]) == bits([unit.residual_inf])
            assert (sol.iterations, sol.converged) == (unit.iterations, unit.converged)


def _cell_problems(n, theta_range, targets, seeds=6):
    """One problem per seed: theta uniform in the range, and its sampled
    degrees, or the exact f_map(-theta) for targets "exact"."""
    problems = []
    for seed in range(seeds):
        theta = _true_theta(n, seed, *theta_range)
        d = sample_degrees(theta, 100 + seed) if targets == "sampled" else f_map(-theta)
        problems.append(RetinaProblem(d))
    return problems


def _uniform_start(d):
    """The uniform closed form theta_i = (n-1)/(2 mean(d)), at least the floor."""
    return np.full(len(d), max((len(d) - 1) / (2.0 * float(d.mean())), DOMAIN_FLOOR))


@pytest.mark.blas_bits
class TestStart:
    """solve_retina starts at the mean-field point h_i = g_i - mean(g)/2,
    g_i = (n-1)/d_i, blended toward the uniform point u until its pair sums
    clear the domain floor; from n = _CG_MIN_N on, refined by sweeps of a
    quantized self-consistent field."""

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 9, 30, 400])
    def test_constant_targets_start_at_the_uniform_point(self, n):
        # the means of d and g are rounded, and for many of these values
        # h = g - mean(g)/2 is then a few bits off u
        for v in [0.1, 1 / 3, 1.5, 2 / 3, 0.7, *trial_rng(4200 + n).uniform(1e-3, 1e3, 20)]:
            d = np.full(n, v)
            np.testing.assert_array_equal(bits(retina._start(d)), bits(_uniform_start(d)))

    @pytest.mark.parametrize("small, blend", [
        (0.5, 1.0), (0.2, 0.5), (0.1, 0.25), (0.05, 0.125), (0.02, 0.0625),
        (0.01, 0.03125), (0.005, 0.0), (2e-5, 0.0)])
    def test_blend_is_the_first_in_the_domain(self, small, blend):
        # For d = (1, 1, small), h_1 + h_2 = 8/3 - 2/(3 small) is negative
        # below small = 1/4 and falls with it, so the blend toward u must
        # shrink: blend 0 is u itself.
        d = np.array([1.0, 1.0, small])
        u = _uniform_start(d)
        g = 2 / d
        expect = u + blend * (g - g.mean() / 2 - u)
        start = retina._start(d)
        np.testing.assert_array_equal(bits(start), bits(expect))
        np.testing.assert_array_equal(bits(start), bits(retina_start_by_scan(d)))
        TestBitwiseOracles.assert_same_solution(RetinaProblem(d))

    @pytest.mark.parametrize("n", [3, 30, 100, retina._CG_MIN_N - 1])
    @pytest.mark.parametrize("targets", ["sampled", "exact"])
    def test_below_the_crossover_the_start_is_the_mean_field_point(self, n, targets):
        for d in (p.d for p in _cell_problems(n, (0.1, 10.0), targets, seeds=3)):
            np.testing.assert_array_equal(bits(retina._start(d)),
                                          bits(mean_field_start_by_scan(d)))

    # (n, theta range, targets): sampled degrees, or the exact f_map(-theta)
    STEP_CELLS = [(400, (0.5, 2.0), "sampled"), (400, (0.5, 2.0), "exact"),
                  (400, (0.1, 10.0), "sampled"), (400, (0.01, 100.0), "sampled"),
                  (400, (5.0, 50.0), "sampled"), (30, (0.5, 2.0), "sampled"),
                  (1000, (0.5, 2.0), "exact")]

    @pytest.mark.parametrize("theta_range, targets",
                             [(r, t) for n, r, t in STEP_CELLS if n == 400])
    def test_refined_start_is_closer_and_in_the_domain(self, theta_range, targets):
        refined = 0
        for d in (p.d for p in _cell_problems(400, theta_range, targets)):
            start, mean_field = retina._start(d), mean_field_start_by_scan(d)
            if not (mean_field > 0).all():
                # no logarithm: the start stays at the mean-field point
                np.testing.assert_array_equal(bits(start), bits(mean_field))
                continue
            refined += 1
            assert np.isfinite(start).all() and (start > 0).all()
            assert retina._low_pair_sum(start) >= DOMAIN_FLOOR
            assert np.abs(residual(start, d)).max() < np.abs(residual(mean_field, d)).max()
        # one problem of the [5, 50] cell has a mean-field entry <= 0
        assert refined >= 5

    @pytest.mark.parametrize("n, theta_range, targets", STEP_CELLS)
    def test_fewer_steps_than_the_uniform_start(self, n, theta_range, targets, monkeypatch):
        # Six trials a cell (three at n = 1000): a single trial may take a
        # step more than from u (one at theta in [5, 50] does), but every
        # cell's total is smaller.  No cell takes more steps than from the
        # mean-field point, and the cells above the crossover at theta in
        # [0.5, 2] take strictly fewer: 2 a trial, against 4.
        problems = _cell_problems(n, theta_range, targets, seeds=6 if n <= 400 else 3)
        steps = {}
        for name, start in [("refined", retina._start), ("mean_field", mean_field_start_by_scan),
                            ("uniform", _uniform_start)]:
            monkeypatch.setattr(retina, "_start", start)
            sols = [solve_retina(p, tol=1e-9) for p in problems]
            assert all(sol.converged for sol in sols)
            steps[name] = [sol.iterations for sol in sols]
        assert sum(steps["refined"]) < sum(steps["uniform"])
        assert sum(steps["refined"]) <= sum(steps["mean_field"])
        if n >= retina._CG_MIN_N and theta_range == (0.5, 2.0):
            assert max(steps["refined"]) <= 2 < min(steps["mean_field"])

    @pytest.mark.parametrize("d, message", [
        (5e-324 * np.ones(3), r"theta\[0\] = 2 \* 2\^1073"),
        (1e-310 * np.array([1.0, 1.1, 0.9]), r"theta\[2\] = 2\.46265 \* 2\^1029"),
    ], ids=["smallest_subnormal", "subnormal"])
    def test_solution_past_the_float_range_is_rejected(self, d, message):
        # At unit scale the solve converges, but its solution, near 1e310
        # and past, is past the largest float: one ValueError, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the solution is past the float range: "
                                                 + message + "$"):
                solve_retina(RetinaProblem(d))


@pytest.mark.blas_bits
class TestNewtonDirection:
    """From n = _CG_MIN_N on, each Newton direction is found by conjugate
    gradients preconditioned by the Jacobian's diagonal, and the solve ends
    as it does with every direction found by Cholesky; Cholesky finds the
    directions CG does not give."""

    CELLS = sorted({(theta_range, targets) for _, theta_range, targets in TestStart.STEP_CELLS})

    @pytest.mark.parametrize("n", [400, 1000])
    @pytest.mark.parametrize("theta_range, targets", CELLS)
    def test_same_solve_as_cholesky(self, n, theta_range, targets, monkeypatch):
        # Each direction is the Cholesky one to 1e-12 of its largest entry
        # (CG's tolerance of 1e-14 leaves at most 4e-14, one of 1e-6 leaves
        # 1e-7 to 2e-6).  The solves then agree to 1e-13 of max |theta|,
        # which alone would not see the looser tolerance: Newton's last step
        # squares the direction's error away.
        assert n >= retina._CG_MIN_N
        problems = _cell_problems(n, theta_range, targets, seeds=6 if n == 400 else 3)
        errors = []
        real_cg = retina._cg_direction

        def checked_cg(jac, r):
            x = real_cg(jac, r)
            exact = scipy.linalg.cho_solve(scipy.linalg.cho_factor(jac), r)
            errors.append(np.abs(x - exact).max() / np.abs(exact).max())
            return x

        monkeypatch.setattr(retina, "_cg_direction", checked_cg)
        cg = [solve_retina(p, tol=1e-9) for p in problems]
        # CG giving no direction leaves every direction to Cholesky, and the
        # start as it is
        monkeypatch.setattr(retina, "_cg_direction", lambda jac, r: None)
        cholesky = [solve_retina(p, tol=1e-9) for p in problems]
        assert len(errors) == sum(sol.iterations for sol in cg)
        assert max(errors) <= 1e-12
        for new, old in zip(cg, cholesky):
            assert (new.iterations, new.converged) == (old.iterations, old.converged)
            assert np.abs(new.theta - old.theta).max() <= 1e-13 * np.abs(old.theta).max()

    @pytest.mark.filterwarnings("error")
    def test_tiny_targets_solve_at_unit_scale(self):
        # theta near 1e160, where the squared pair sums would overflow: at
        # unit scale the solve takes the 2 steps of the unscaled target.
        d = sample_degrees(_true_theta(400, 0), 100)
        steps = solve_retina(RetinaProblem(d)).iterations
        sol = solve_retina(RetinaProblem(1e-160 * d))
        assert (sol.converged, sol.iterations) == (True, steps) == (True, 2)

    @pytest.mark.filterwarnings("error")
    def test_zero_jacobian_ends_unconverged(self, monkeypatch):
        # CG meets a diagonal that is not positive, Cholesky's first pivot
        # fails, and the solve ends at the start, with no warning.
        monkeypatch.setattr(retina, "_jacobian_from_pair_sums", lambda w: np.zeros_like(w))
        d = 1e-160 * sample_degrees(_true_theta(400, 0), 100)
        sol = solve_retina(RetinaProblem(d))
        assert (sol.converged, sol.iterations) == (False, 0)
        assert sol.residual_inf > 1e-10 * d.max()

    @pytest.mark.filterwarnings("error")
    def test_direction_cut_off_by_the_cap_is_found_by_cholesky(self, monkeypatch):
        # One CG iteration never meets the tolerance, so every direction is
        # found by Cholesky: the solve is the one in which CG gives no
        # direction.  (Fed to the line search, these one-iteration
        # directions take 15 steps, against 2; from the mean-field start
        # they stall it at step 4 with the residual norm at 0.24.)
        prob = RetinaProblem(sample_degrees(_true_theta(400, 0), 100))
        real_cg = retina._cg_direction
        monkeypatch.setattr(retina, "_cg_direction", lambda jac, r: None)
        cholesky = solve_retina(prob, tol=1e-9)
        monkeypatch.setattr(retina, "_CG_MAX_ITER", 1)
        calls = []
        monkeypatch.setattr(retina, "_cg_direction", lambda *a: calls.append(1) or real_cg(*a))
        capped = TestBitwiseOracles.assert_same_solution(prob, tol=1e-9)
        # CG ran at every step, in the solver and in its oracle
        assert capped.converged and len(calls) == 2 * capped.iterations
        assert (capped.iterations, capped.converged) == (cholesky.iterations, cholesky.converged)
        np.testing.assert_array_equal(bits(capped.theta), bits(cholesky.theta))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("jac, r", [
        ([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]),
        ([[1.0, 0.0], [0.0, np.inf]], [1.0, 1.0]),
        ([[1.0, 2.0], [2.0, 1.0]], [1.0, -1.0]),
        ([[1.0, 1e308], [1e308, 1.0]], [1.0, 1.0]),
    ], ids=["zero_diagonal", "infinite_diagonal", "negative_curvature", "curvature_overflows"])
    def test_no_direction_where_not_positive_definite(self, jac, r):
        assert retina._cg_direction(np.array(jac), np.array(r)) is None


def _straddling_sizes(edges):
    """For k = 1, 2: the largest n whose n(n-1)/2 edges are at most k
    blocks' worth of ``edges``, and the next n."""
    sizes = []
    for k in (1, 2):
        n = 2
        while (n + 1) * n // 2 <= k * edges:
            n += 1
        sizes += [n, n + 1]
    return sizes


class TestSampleInBlocks:
    """sample_degrees weights its edges in blocks of rows of at most
    _SAMPLE_EDGES edges, and scatters every row end before any column end:
    the same bits as one scatter of all row ends and then all column ends."""

    @pytest.mark.parametrize("n", _straddling_sizes(retina._SAMPLE_EDGES))
    def test_sizes_at_block_boundaries(self, n):
        theta = _true_theta(n, 1)
        np.testing.assert_array_equal(bits(sample_degrees(theta, 5)),
                                      bits(sample_degrees_by_scan(theta, 5)))

    @pytest.mark.parametrize("edges", [1, 7, 100])
    def test_many_blocks(self, edges, monkeypatch):
        monkeypatch.setattr(retina, "_SAMPLE_EDGES", edges)
        for n in range(3, 41):
            theta = _true_theta(n, 2)
            np.testing.assert_array_equal(bits(sample_degrees(theta, n)),
                                          bits(sample_degrees_by_scan(theta, n)))

    def test_fewer_than_three_vertices(self):
        assert sample_degrees(np.array([]), 3).tolist() == []
        assert bits(sample_degrees(np.array([0.7]), 3)).tolist() == bits([0.0]).tolist()
        theta = np.array([0.7, 1.1])
        d = sample_degrees(theta, 3)
        assert d[0] == d[1] > 0
        np.testing.assert_array_equal(bits(d), bits(sample_degrees_by_scan(theta, 3)))

    def test_peak_memory_is_twelve_bytes_an_edge(self):
        # one float64 weight and one int32 column per edge, plus one block
        n = 2000
        d, peak = _traced_peak(sample_degrees, _true_theta(n, 0), 100)
        assert len(d) == n
        assert peak <= 25 * 2**20


class TestOneBuffer:
    """One n x n array per solve: each residual leaves its pair sums in it,
    and the next Jacobian is built there from the accepted candidate's."""

    def test_peak_memory_is_one_square(self):
        n = 1000
        prob = RetinaProblem(sample_degrees(_true_theta(n, 0), 100))
        sol, peak = _traced_peak(solve_retina, prob, 1e-9)
        assert sol.converged and sol.iterations > 0
        assert peak <= 1.25 * 8 * n * n

    def test_jacobian_reuses_the_accepted_pair_sums(self, monkeypatch):
        d = f_map(-_true_theta(50, 0, 0.05, 10.0))
        pair_sums, residuals = [], []
        real_pair_sums, real_residual = retina._pair_sums, retina.residual
        monkeypatch.setattr(retina, "_pair_sums",
                            lambda *a: pair_sums.append(1) or real_pair_sums(*a))
        monkeypatch.setattr(retina, "residual",
                            lambda *a: residuals.append(1) or real_residual(*a))
        sol = solve_retina(RetinaProblem(d))
        assert sol.converged and sol.iterations > 0
        # the line search halved (more residuals than steps + 1), and no
        # Jacobian formed pair sums of its own
        assert len(residuals) > sol.iterations + 1
        assert len(pair_sums) == len(residuals)
