"""The output checker on captured stdout and on small limit runs.

The ``data/`` files are stdout of the program captured at workload seed 0
(matrix paths shortened to file names).
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

import checker
import workloads
from checker import FAILED, OK, WRONG

DATA = Path(__file__).resolve().parent / "data"


def _read(name):
    return (DATA / name).read_text(encoding="utf-8")


def test_balanced_n200_adjugate_nan_is_exactly_one_failure():
    out = _read("detbounds_balanced_n200_seed0.out")
    assert "adjugate: lhs=nan" in out and "VIOLATED" in out
    verdicts = checker.check_detbounds(out, 1, balanced=True)
    # det_lower, det_upper, adjugate, hadamard, then the det_ratio agreement
    assert verdicts == [OK, OK, FAILED, OK, OK]


def test_dominant_n200_passes():
    out = _read("detbounds_dominant_n200_seed0.out")
    assert checker.check_detbounds(out, 0, balanced=False) == [OK, OK, OK]


def test_detbounds_holds_with_numbers_that_violate_is_wrong():
    out = _read("detbounds_dominant_n200_seed0.out").replace(
        "hadamard: lhs=", "hadamard: lhs=2", 1)
    assert checker.check_detbounds(out, 0, balanced=False) == [OK, WRONG, OK]


def test_detbounds_ratio_disagreement_is_wrong():
    lines = _read("detbounds_dominant_n200_seed0.out").splitlines()
    lines = [l if not l.startswith("det_ratio_lu=") else "det_ratio_lu=0.5" for l in lines]
    assert checker.check_detbounds("\n".join(lines), 0, balanced=False)[-1] == WRONG


def test_detbounds_error_exit_fails_every_operation():
    assert checker.check_detbounds("", 2, balanced=True) == [FAILED] * 5


def test_suite_explore_mle_seed_outputs_pass():
    assert checker.check_verify(_read("verify_seed0.out"), 0, 100) == [OK] * 100
    assert checker.check_explore(_read("explore_seed0.out"), 0, 1000) == [OK] * 1000
    assert checker.check_mle(_read("mle_seed0.out"), 0, 10) == [OK] * 10


def test_verify_violation_fails_its_trial_only():
    out = _read("verify_seed0.out").replace("violations=0", "violations=1")
    out += "VIOLATED trial=7 n=5 params=i=1 lhs=1 rhs=0\n"
    verdicts = checker.check_verify(out, 1, 100)
    assert verdicts.count(FAILED) == 1 and verdicts[7] == FAILED
    assert WRONG not in verdicts


def test_verify_exit_code_alone_is_not_trusted():
    out = _read("verify_seed0.out").replace("violations=0", "violations=1")
    assert set(checker.check_verify(out, 0, 100)) == {WRONG}


def test_mle_non_converged_trials_fail():
    out = _read("mle_seed0.out").replace("converged=10 within_bound=10",
                                         "converged=8 within_bound=8")
    out = out.replace("result: ok", "result: FAIL")
    assert checker.check_mle(out, 1, 10).count(FAILED) == 2


def _limit_outputs(tmp_path, n=24, seed=3):
    """Run the three limit modes on a small seeded graph of the workload's shape."""
    from sddkit import cli

    edges, _ = workloads.limit_graph(np.random.default_rng(seed), n)
    path = tmp_path / "g.edges"
    path.write_text(f"{n}\n" + "".join(f"{i} {j}\n" for i, j in edges))
    sform = (n, float(n - 2), 1.0)
    calls = [workloads.Call(["limit", "--sform", f"{n},{n - 2},1", "--graph", str(path)]
                            + flags, "limit", 1,
                            {"edges": edges, "sform": sform, "t": 1e8,
                             "bipartite": 2, "mode": mode})
             for mode, flags in (("closed-form", ["--closed-form"]),
                                 ("u-route", ["--u-route"]),
                                 ("numeric", ["--t", "1e8"]))]
    results = []
    for call in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(call.argv)
        results.append((buf.getvalue(), rc))
    return calls, results


def _perturb_first_entry(out):
    lines = out.splitlines()
    k = next(i for i, l in enumerate(lines) if l.startswith("mode: ")) + 1
    row = lines[k].split()
    row[0] = format(float(row[0]) * (1 + 1e-6) + 1e-9, ".12g")
    lines[k] = " ".join(row)
    return "\n".join(lines) + "\n"


def test_limit_modes_agree(tmp_path):
    calls, results = _limit_outputs(tmp_path)
    assert checker.check_pass(calls, results) == [[OK], [OK], [OK]]


@pytest.mark.parametrize("mode", [1, 2])
def test_mismatched_limit_mode_is_one_failure(tmp_path, mode):
    calls, results = _limit_outputs(tmp_path)
    out, rc = results[mode]
    results[mode] = (_perturb_first_entry(out), rc)
    verdicts = [v for vs in checker.check_pass(calls, results) for v in vs]
    assert verdicts.count(OK) == 2 and verdicts[mode] == WRONG


def test_rate_bound_covers_finite_t_gap(tmp_path):
    calls, results = _limit_outputs(tmp_path)
    info = calls[0].info
    N = checker._limit_output(results[0][0], 24)[0]
    X = checker._limit_output(results[2][0], 24)[0]
    P = checker.signless_laplacian(24, info["edges"])
    bound = checker.rate_bound(P, 22.0, 1.0, 1e8, 2)
    assert 0 < float(np.abs(X - N).max()) <= bound
