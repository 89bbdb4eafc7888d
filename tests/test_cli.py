import contextlib
import io

import numpy as np
import pytest
import scipy.linalg

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (J4_BALANCED, bits, format_matrix_by_entries, jt_matrix,
                     limit_test_graph, print_matrix_by_blocks, random_balanced,
                     random_dominant)
from sddkit import (SForm, analyze_bipartition, limit_closed_form,
                    limit_numeric, limit_u_route, save_graph, save_matrix,
                    SymMatrix)
from sddkit import bounds, cli, matcore, retina
from sddkit.cli import _print_matrix, main
from sddkit.randmat import trial_rng


@pytest.fixture
def j4_file(tmp_path):
    path = tmp_path / "j4.txt"
    save_matrix(J4_BALANCED, path)
    return str(path)


@pytest.fixture
def cycle4_file(tmp_path):
    path = tmp_path / "cycle4.edges"
    path.write_text("4\n1 2\n2 3\n3 4\n1 4\n")
    return str(path)


class TestInspect:
    def test_balanced_example(self, j4_file, capsys):
        assert main(["inspect", "--matrix", j4_file]) == 0
        out = capsys.readouterr().out
        assert "balanced" in out
        assert "ell_hat=1" in out
        assert "m_hat=7" in out
        assert "inv_inf_norm=" in out

    def test_one_factorization_per_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "dominant.txt"
        save_matrix(SymMatrix(np.array([[5.0, 1, 2], [1, 4, 1], [2, 1, 6]])), path)
        calls = []
        lu_factor = scipy.linalg.lu_factor
        monkeypatch.setattr(scipy.linalg, "lu_factor",
                            lambda a, **kw: calls.append(a.shape) or lu_factor(a, **kw))
        assert main(["inspect", "--matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert "strictly dominant" in out and "varah: lhs=" in out
        assert calls == [(3, 3)]

    @pytest.mark.parametrize("n", [9, 10])
    def test_ill_conditioned_hilbert_matrix(self, n, tmp_path, capsys):
        # Positive definite, so the inverse exists; its LU inverse is
        # asymmetric by roundoff far above 1e-8 relative.
        path = tmp_path / "hilbert.txt"
        save_matrix(SymMatrix(scipy.linalg.hilbert(n)), path)
        assert main(["inspect", "--matrix", str(path)]) == 0
        captured = capsys.readouterr()
        assert "inv_inf_norm=" in captured.out and captured.err == ""

    def test_one_by_one_matrix_has_no_off_diagonal(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("1\n2\n")
        assert main(["inspect", "--matrix", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == [f"matrix: {path} (n=1)", "classification: strictly dominant",
                             "deltas: 2", "off-diagonal: none (n=1)"]

    def test_inverse_past_the_float_range_exits_one(self, tmp_path, capsys):
        # The true inf_norm(J^{-1}) is about 3.9e309.
        path = tmp_path / "tiny.txt"
        save_matrix(SymMatrix(1e-310 * (3.0 * np.eye(3) + np.ones((3, 3)))), path)
        assert main(["inspect", "--matrix", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].startswith(
            "inverse: FAILED (inverse past the float range")
        assert captured.err == ""

    def test_singular_matrix_exits_one(self, tmp_path, capsys):
        path = tmp_path / "sing.txt"
        save_matrix(SymMatrix(np.ones((2, 2))), path)
        assert main(["inspect", "--matrix", str(path)]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestLimit:
    def test_closed_form_cycle(self, cycle4_file, capsys):
        assert main(["limit", "--sform", "4,2,1", "--graph", cycle4_file,
                     "--closed-form"]) == 0
        out = capsys.readouterr().out
        assert "0.125 -0.125 0.125 -0.125" in out
        assert "inf_norm=0.5" in out
        assert "bipartite(p=2,q=2)" in out

    def test_u_route_matches(self, cycle4_file, capsys):
        main(["limit", "--sform", "4,2,1", "--graph", cycle4_file, "--closed-form"])
        closed = capsys.readouterr().out.splitlines()
        main(["limit", "--sform", "4,2,1", "--graph", cycle4_file, "--u-route"])
        uroute = capsys.readouterr().out.splitlines()
        assert closed[4:] == uroute[4:]  # same matrix and norms after the mode line

    def test_finite_t(self, cycle4_file, capsys):
        assert main(["limit", "--sform", "4,2,1", "--graph", cycle4_file,
                     "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert "0.275" in out and "-0.1" in out and "0.025" in out

    @pytest.mark.parametrize("mode", [["--closed-form"], ["--u-route"], ["--t", "1"]])
    def test_graph_size_checked_before_analysis(self, mode, tmp_path, capsys, monkeypatch):
        # Analysing a graph allocates per vertex, so a header claiming 10^9
        # vertices must be rejected first; the sentinel fails the test
        # before anything is allocated.
        path = tmp_path / "huge.edges"
        path.write_text(f"{10**9}\n1 2\n")

        def sentinel(G):
            raise AssertionError("graph analysed before its size was checked")

        monkeypatch.setattr(cli, "analyze_bipartition", sentinel)
        assert main(["limit", "--sform", "4,2,1", "--graph", str(path), *mode]) == 2
        captured = capsys.readouterr()
        assert "dimension mismatch: sform n=4, graph n=1000000000" in captured.err
        assert captured.out == ""


def _print_cases():
    rng = np.random.default_rng(17)
    x = 1.0 / 3.0
    signed_zeros = rng.choice([0.0, -0.0, 1.5, -1.5], size=(70, 70))
    signed_zeros[0, :2] = [0.0, -0.0]
    # The rows of the last block bring a value no earlier block has.
    last_block_new = rng.choice([x, 0.25], size=(70, 70))
    last_block_new[69, 3] = 0.75
    # +0 above the diagonal and -0 below it, the first in one block and its
    # mirror in another.
    zeros_across_diagonal = np.full((40, 40), 2.5)
    zeros_across_diagonal[np.triu_indices(40, 1)] = 0.0
    zeros_across_diagonal[np.tril_indices(40, -1)] = -0.0
    return {
        "1x1": np.array([[0.1]]),
        "n32": rng.standard_normal((32, 32)),
        "n33_all_distinct": np.arange(33 * 33).reshape(33, 33) / 7.0,
        "last_block_new": last_block_new,
        "zeros_across_diagonal": zeros_across_diagonal,
        "n64": rng.standard_normal((64, 64)),
        "n65": rng.standard_normal((65, 65)),
        "n130": rng.integers(-4, 5, size=(130, 130)) / 7.0,
        "signed_zeros": signed_zeros,
        "repeated": rng.choice([x, -2.0 / 7.0, 0.1, 1e-5], size=(100, 100)),
        "past_12_digits": np.array([[x, np.nextafter(x, 1.0), x * (1 + 1e-13)],
                                    [0.1234567890123, 0.1234567890124, -x],
                                    [1e15 + 1, 1e15 + 2, 1e15 + 3]]),
        "extreme_magnitudes": np.array([[1e-300, 1e300], [-1e300, -1e-300]]),
        "dense_200": rng.uniform(-1.0, 1.0, size=(200, 200)),
    }


class TestPrintMatrix:
    @pytest.mark.parametrize("name", list(_print_cases()))
    def test_matches_per_entry_formatting(self, name, capsys):
        entries = _print_cases()[name]
        _print_matrix(entries)
        assert capsys.readouterr().out == format_matrix_by_entries(entries)

    @pytest.mark.parametrize("name", ["n130", "signed_zeros", "last_block_new",
                                      "zeros_across_diagonal", "limit_n150"])
    def test_formats_each_distinct_value_once(self, name, capsys, monkeypatch):
        if name == "limit_n150":
            B = analyze_bipartition(limit_test_graph(150, seed=3))
            entries = limit_closed_form(SForm(150, 148.0, 1.0), B).entries
        else:
            entries = _print_cases()[name]
        calls = []
        monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or format(v, ".12g"))
        _print_matrix(entries)
        assert capsys.readouterr().out == format_matrix_by_entries(entries)
        assert len(calls) == np.unique(bits(entries)).size


@st.composite
def nearly_symmetric_matrices(draw):
    """A symmetric matrix from a small pool of values (signed zeros,
    subnormals, values equal to 12 digits), then some entries below the
    diagonal replaced: by the mirror with its zero sign flipped, by the next
    float toward zero, or by another pool value."""
    n = draw(st.integers(1, 100))
    pool = draw(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1 / 3,
                         np.nextafter(1 / 3, 1.0), 1e300, -1.5]),
        st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.array(pool)[rng.integers(0, len(pool), size=(n, n))]
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower]
    change = rng.random(lower[0].size) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    rows, cols = lower[0][change], lower[1][change]
    mirror = a[cols, rows]
    how = rng.integers(0, 3, size=rows.size)
    a[rows, cols] = np.where(how == 0, np.where(mirror == 0, -mirror, mirror),
                             np.where(how == 1, np.nextafter(mirror, 0.0),
                                      np.array(pool)[rng.integers(0, len(pool), size=rows.size)]))
    return a


class TestPrintMatrixAgainstBlockPrinter:
    @settings(max_examples=300, deadline=None)
    @given(entries=nearly_symmetric_matrices())
    @example(entries=np.array([[-0.0]]))
    @example(entries=np.array([[1.0, 0.0], [-0.0, 1.0]]))
    @example(entries=np.array([[1.0, 5e-324], [-5e-324, 1.0]]))
    def test_same_bytes(self, entries):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _print_matrix(entries)
        assert out.getvalue() == print_matrix_by_blocks(entries)

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 70, 97])
    def test_signed_zero_mirrors(self, n, capsys):
        # +0 on and above the diagonal, -0 below it, so every mirrored pair's
        # bits differ; each block's zeros straddle its diagonal block.
        entries = np.zeros((n, n))
        entries[np.tril_indices(n, -1)] = -0.0
        _print_matrix(entries)
        out = capsys.readouterr().out
        assert out == print_matrix_by_blocks(entries) == format_matrix_by_entries(entries)


class TestLimitMatrixBytes:
    N = 150

    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("limit") / "g150.edges"
        save_graph(limit_test_graph(self.N, seed=3), path)
        return str(path)

    @pytest.mark.parametrize("flags,route", [
        (["--closed-form"], lambda S, G, B: limit_closed_form(S, B)),
        (["--u-route"], lambda S, G, B: limit_u_route(S, B)),
        (["--t", "1e8"], lambda S, G, B: limit_numeric(S, G, 1e8)),
    ], ids=["closed-form", "u-route", "t=1e8"])
    def test_matrix_lines_match_oracle_and_repeat(self, graph_file, flags, route, capsys):
        S = SForm(self.N, self.N - 2.0, 1.0)
        G = limit_test_graph(self.N, seed=3)
        B = analyze_bipartition(G)
        assert B.r == 2 and B.s > 0
        N = route(S, G, B)
        argv = ["limit", "--sform", f"{self.N},{self.N - 2},1", "--graph", graph_file] + flags
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        lines = first.splitlines(keepends=True)
        assert "".join(lines[4:4 + self.N]) == format_matrix_by_entries(N.entries)
        assert lines[4 + self.N].startswith("inf_norm=")


class TestDetbounds:
    def test_balanced_matrix(self, j4_file, capsys):
        assert main(["detbounds", "--matrix", j4_file]) == 0
        out = capsys.readouterr().out
        assert "det_ratio=" in out
        assert "det_lower:" in out
        assert "det_upper:" in out
        assert "adjugate:" in out
        assert "hadamard:" in out
        assert "VIOLATED" not in out

    def test_indefinite_matrix_skips_hadamard(self, tmp_path, capsys):
        path = tmp_path / "indefinite.txt"
        path.write_text("3\n2 3 3\n3 2 3\n3 3 1\n")
        assert main(["detbounds", "--matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hadamard: inapplicable (J not positive semidefinite)\n" in out
        assert "VIOLATED" not in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_balanced_file_at_extreme_scale_holds(self, tmp_path, capsys, k):
        # exp(-ell^2/4m^2) used to form inf/inf (k = 1000: rhs=nan, VIOLATED)
        # or 0/0 (k = -1000: a ZeroDivisionError traceback).
        J = random_balanced(trial_rng(3), 8)
        path = tmp_path / "scaled.txt"
        save_matrix(SymMatrix(np.ldexp(J.entries, k)), path)
        assert main(["detbounds", "--matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" not in out
        upper = next(line for line in out.splitlines() if line.startswith("det_upper:"))
        rhs = float(upper.split("rhs=")[1].split()[0])
        assert np.isfinite(rhs) and upper.endswith(" holds")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ratio_near_the_largest_float_is_finite(self, tmp_path, capsys):
        # Entries near 2^1000, and J_33 shifted so that the Schur pivot of
        # row 3 (0-based) is twice its floor: the updates after that pivot
        # used to overflow, and the ratio printed as nan.
        base = random_dominant(trial_rng(181, 6), 6).entries * 2.0 ** 1000
        floors = matcore._pivot_floors(base)
        a = base.copy()
        a[3, 3] += 2 * floors[3] - matcore._pivots(base[None, 3:, 3:].copy())[0][0, 0]
        path = tmp_path / "huge.txt"
        save_matrix(SymMatrix(a), path)
        assert main(["detbounds", "--matrix", str(path)]) == 0
        values = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
                      if line.startswith("det_ratio"))
        ratio, lu = float(values["det_ratio"]), float(values["det_ratio_lu"])
        assert np.isfinite(ratio)
        assert ratio == pytest.approx(lu, rel=1e-3)
        assert lu == pytest.approx(-0.31, abs=0.005)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("text", ["2\n0 1\n1 1\n", "3\n4 1 1\n1 -2 1\n1 1 4\n"],
                             ids=["zero", "negative"])
    def test_non_positive_diagonal_rejected_before_output(self, tmp_path, capsys, text):
        # The diagonal is checked before any output, and before the
        # elimination could divide by the entry (a warning, made an error).
        path = tmp_path / "diag.txt"
        path.write_text(text)
        assert main(["detbounds", "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: determinant ratio needs positive diagonal entries\n"

    def test_violated_report_exits_one(self, j4_file, capsys, monkeypatch):
        assert main(["detbounds", "--matrix", j4_file]) == 0
        clean = capsys.readouterr().out.splitlines()
        monkeypatch.setattr(cli.bnd, "det_lower_bound",
                            lambda J, ell, m: bounds._report("det_lower", 2.0, 1.0, n=J.n))
        assert main(["detbounds", "--matrix", j4_file]) == 1
        lines = capsys.readouterr().out.splitlines()
        k = next(i for i, line in enumerate(clean) if line.startswith("det_lower:"))
        assert lines[k] == "det_lower: lhs=2 rhs=1 slack=-1 VIOLATED"
        assert lines[:k] + lines[k + 1:] == clean[:k] + clean[k + 1:]

    def test_one_elimination_per_file(self, j4_file, capsys, monkeypatch):
        calls = []
        kernel = matcore._eliminate
        monkeypatch.setattr(matcore, "_eliminate",
                            lambda J: calls.append(J.n) or kernel(J))
        assert main(["detbounds", "--matrix", j4_file]) == 0
        assert "adjugate:" in capsys.readouterr().out
        assert calls == [4]

    def test_one_classification_per_file(self, j4_file, capsys, monkeypatch):
        # classify runs the stacked kernel on a stack of one, whichever
        # module holds a binding to classify itself.
        calls = []
        kernel = matcore._classify_stack
        monkeypatch.setattr(matcore, "_classify_stack",
                            lambda a: calls.append(a.shape) or kernel(a))
        assert main(["detbounds", "--matrix", j4_file]) == 0
        assert "det_upper:" in capsys.readouterr().out
        assert calls == [(1, 4, 4)]


class TestVerify:
    def test_main_suite_runs_clean(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["verify", "--suite", "main", "--n-range", "3,8",
                     "--trials", "10", "--seed", "7", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "violations=0" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "suite,trial,n,params,lhs,rhs,slack,holds,vacuous"
        assert len(lines) == 11

    def test_violations_listed_and_exit_one(self, capsys, monkeypatch):
        records = [
            bounds.SuiteRecord("main", 0, 4, {"m": 2.0, "k": 1}, bounds._report("main", 1.0, 1.5)),
            bounds.SuiteRecord("main", 1, 3, {}, bounds._inapplicable("main", "not dominant")),
            bounds.SuiteRecord("main", 2, 5, {"m": 2.5, "k": 3}, bounds._report("main", 3.0, 1.5)),
            bounds.SuiteRecord("main", 3, 6, {"m": 3.0}, bounds._report("main", 4.0, 0.5)),
        ]
        monkeypatch.setattr(cli.bnd, "verify_suite", lambda *args: records)
        assert main(["verify", "--suite", "main", "--trials", "4"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "suite=main trials=4 n_range=3,12 seed=0",
            "reports=4 applicable=3 violations=2 vacuous=0",
            "min_slack=-3.5",
            "VIOLATED trial=2 n=5 params=k=3;m=2.5 lhs=3 rhs=1.5",
            "VIOLATED trial=3 n=6 params=m=3 lhs=4 rhs=0.5",
        ]

    def test_csv_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["verify", "--suite", "det", "--n-range", "3,8",
                "--trials", "8", "--seed", "3"]
        main(args + ["--csv", str(p1)])
        main(args + ["--csv", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


class TestMle:
    def test_small_run(self, tmp_path, capsys):
        csv_path = tmp_path / "mle.csv"
        assert main(["mle", "--n", "20", "--k", "2", "--trials", "4",
                     "--seed", "1", "--theta-range", "0.5,2.0",
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "result: ok" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trial,n,err_inf,bound,within_bound,residual_inf,iterations,converged"
        assert len(lines) == 5

    def test_target_past_float_range(self, capsys):
        assert main(["mle", "--n", "10", "--trials", "1", "--k", "400"]) == 0
        captured = capsys.readouterr()
        assert " target=1\n" in captured.out
        assert "Traceback" not in captured.err

    def test_stdout_deterministic(self, capsys):
        args = ["mle", "--n", "15", "--trials", "3", "--seed", "9"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestExplore:
    def test_lower_norm(self, capsys):
        assert main(["explore", "--conjecture", "lower-norm", "--trials", "20",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "min_slack=" in out and "violations=0" in out

    def test_det_upper_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "c.csv"
        assert main(["explore", "--conjecture", "det-upper", "--trials", "10",
                     "--seed", "0", "--csv", str(csv_path)]) == 0
        assert csv_path.read_text().splitlines()[0] == \
            "trial,n,params,lhs,rhs,slack,violation"

    def test_findings_listed_up_to_twenty(self, capsys, monkeypatch):
        records = [bounds.SuiteRecord("det_upper", t, 4, {"m": 2.0},
                                      bounds._report("det_upper_conjecture", 1.0 + t, 0.5))
                   for t in range(25)]
        records[3] = bounds.SuiteRecord("det_upper", 3, 4, {}, bounds._report("det_upper", 0.25, 0.5))
        monkeypatch.setattr(cli.bnd, "conjecture_search", lambda *args: records)
        assert main(["explore", "--conjecture", "det-upper", "--trials", "25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["conjecture=det-upper trials=25 seed=0",
                             "min_slack=-24.5 violations=24"]
        assert lines[2:] == [f"FINDING trial={t} n=4 params=m=2 lhs={1 + t} rhs=0.5 "
                             f"slack={-0.5 - t:g}"
                             for t in [0, 1, 2] + list(range(4, 21))]


class TestFailureCorpus:
    def test_missing_file(self, capsys):
        assert main(["inspect", "--matrix", "/nonexistent/m.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_matrix(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2\n")
        assert main(["inspect", "--matrix", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["inspect", "detbounds"])
    def test_non_finite_matrix_rejected(self, tmp_path, capsys, subcommand):
        path = tmp_path / "inf.txt"
        path.write_text("2\n1 inf\ninf 1\n")
        assert main([subcommand, "--matrix", str(path)]) == 2
        assert "line 2: non-finite" in capsys.readouterr().err

    def test_asymmetric_matrix_rejected(self, tmp_path, capsys):
        path = tmp_path / "jt.txt"
        rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in jt_matrix(1.0))
        path.write_text("3\n" + rows + "\n")
        assert main(["inspect", "--matrix", str(path)]) == 2
        assert "not symmetric" in capsys.readouterr().err

    def test_malformed_graph(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("3\n1 2 3\n")
        assert main(["limit", "--sform", "3,1,1", "--graph", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_singular_finite_t_exits_one(self, tmp_path, capsys):
        path = tmp_path / "g800.edges"
        save_graph(limit_test_graph(800, seed=5), path)
        assert main(["limit", "--sform", "800,798,1", "--graph", str(path),
                     "--t", "1e16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: solver failed: matrix singular")

    @pytest.mark.parametrize("text, line", [
        ("12\n2 1_0\n", 2),
        ("1_2\n2 10\n", 1),
        ("\u0661\u0662\n1 2\n", 1),
        ("12\n1 2\n\uff11 2\n", 3),
        ("12\n1 2\n\u00a0\n", 3),
    ], ids=["underscore", "underscore_count", "arabic_indic_count",
            "fullwidth_digit", "non_ascii_blank"])
    def test_non_decimal_graph_text(self, text, line, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text(text, encoding="utf-8")
        assert main(["limit", "--sform", "12,10,1", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: not a plain ASCII decimal line")

    @pytest.mark.parametrize("argv", [
        ["inspect", "--matrix", "DIR"],
        ["detbounds", "--matrix", "DIR"],
        ["limit", "--sform", "4,2,1", "--graph", "DIR"],
        ["verify", "--suite", "main", "--trials", "2", "--csv", "DIR"],
        ["mle", "--n", "10", "--trials", "1", "--csv", "DIR"],
        ["explore", "--conjecture", "det-upper", "--trials", "2", "--csv", "DIR"],
    ], ids=["inspect_matrix", "detbounds_matrix", "limit_graph", "verify_csv", "mle_csv",
            "explore_csv"])
    def test_directory_path_exits_two(self, argv, tmp_path, capsys):
        assert main([str(tmp_path) if a == "DIR" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @staticmethod
    def _no_trials(*args):
        raise AssertionError("the trial engine ran")

    TRIAL_COMMANDS = pytest.mark.parametrize("argv, engine", [
        (["verify", "--suite", "eig", "--trials", "3000"], (bounds, "verify_suite")),
        (["mle", "--n", "10", "--trials", "1"], (retina, "consistency_experiment")),
        (["explore", "--conjecture", "det-upper", "--trials", "2"],
         (bounds, "conjecture_search")),
    ], ids=["verify", "mle", "explore"])

    @TRIAL_COMMANDS
    def test_csv_path_fails_before_any_trial(self, argv, engine, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(*engine, self._no_trials)
        assert main(argv + ["--csv", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @TRIAL_COMMANDS
    def test_negative_seed_rejected_before_any_trial(self, argv, engine, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(*engine, self._no_trials)
        path = tmp_path / "out.csv"
        assert main(argv + ["--seed", "-1", "--csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0, got -1\n"
        assert not path.exists()

    def test_uncertified_eigensolve_exits_one(self, capsys, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(a):
            lams, vecs = eigh(a)
            return lams + 1e-3, vecs

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        assert main(["verify", "--suite", "eig", "--n-range", "3,5", "--trials", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: solver failed: eigenpair residual ")

    def test_bad_graph_vertex(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("3\n1 2\n1 x\n")
        assert main(["limit", "--sform", "3,1,1", "--graph", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: bad vertex in '1 x'\n"

    def test_bad_sform_argument(self, cycle4_file):
        assert main(["limit", "--sform", "4,2", "--graph", cycle4_file]) == 2

    @pytest.mark.parametrize("argv, value", [
        (["limit", "--sform", "4,inf,1", "--graph", "CYCLE4", "--u-route"], "inf"),
        (["limit", "--sform", "4,inf,1", "--graph", "CYCLE4"], "inf"),
        (["limit", "--sform", "4,2,inf", "--graph", "CYCLE4"], "inf"),
        (["mle", "--n", "10", "--trials", "1", "--theta-range", "0.5,inf"], "inf"),
        (["mle", "--n", "-3"], "-3"),
        (["verify", "--suite", "det", "--n-range", "3.7,4"], "3.7"),
        (["limit", "--sform", "4,2,1", "--graph", "CYCLE4", "--t", "inf"],
         "t must be finite and > 0, got inf"),
        (["limit", "--sform", "4,2,1", "--graph", "CYCLE4", "--t", "1e308"], "t=1e+308"),
        (["mle", "--n", "10", "--trials", "1", "--k", "nan"], "k must be finite and > 1, got nan"),
        (["mle", "--n", "10", "--trials", "1", "--k", "inf"], "k must be finite and > 1, got inf"),
        (["detbounds", "--matrix", "J4", "--ell", "nan"], "ell must be finite and > 0, got nan"),
        (["detbounds", "--matrix", "J4", "--m", "nan"], "m must be finite and > 0, got nan"),
        (["detbounds", "--matrix", "J4", "--ell", "inf"], "ell must be finite and > 0, got inf"),
        (["detbounds", "--matrix", "J4", "--m", "inf"], "m must be finite and > 0, got inf"),
        (["detbounds", "--matrix", "J4", "--ell", "0"], "ell must be finite and > 0, got 0.0"),
        (["detbounds", "--matrix", "J4", "--ell", "-1"], "ell must be finite and > 0, got -1.0"),
        (["mle", "--n", "10", "--trials", "1", "--theta-range", "1e160,2e160"],
         "not a finite float for theta range 1e+160,2e+160"),
        (["mle", "--n", "10", "--trials", "1", "--theta-range", "1e-200,2e-200"],
         "not a finite float for theta range 1e-200,2e-200"),
        (["mle", "--n", "10", "--trials", "1", "--theta-range", "1e-150,1e150"],
         "not a finite float for theta range 1e-150,1e+150"),
        (["verify", "--suite", "det", "--n-range", "3"], "expected '--n-range' as 'a,b', got '3'"),
        (["mle", "--n", "10", "--theta-range", "0.5,1,2"],
         "expected '--theta-range' as 'a,b', got '0.5,1,2'"),
    ], ids=["sform_inf_u_route", "sform_inf_closed_form", "sform_ell_inf",
            "theta_range_inf", "mle_negative_n", "n_range_not_integer",
            "limit_t_inf", "limit_t_overflows", "mle_k_nan", "mle_k_inf",
            "detbounds_ell_nan", "detbounds_m_nan", "detbounds_ell_inf",
            "detbounds_m_inf", "detbounds_ell_zero", "detbounds_ell_negative",
            "mle_bound_overflows", "mle_bound_divides_by_zero", "mle_bound_infinite",
            "n_range_not_a_pair", "theta_range_not_a_pair"])
    @pytest.mark.filterwarnings("error")
    def test_excluded_input_rejected(self, argv, value, cycle4_file, j4_file, capsys):
        files = {"CYCLE4": cycle4_file, "J4": j4_file}
        argv = [files.get(a, a) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert value in lines[0]
        assert "Traceback" not in captured.err and captured.out == ""

    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify"])  # --suite is required
        assert err.value.code == 2

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nope"])
        assert err.value.code == 2


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_parsers(self, j4_file, cycle4_file,
                                                       capsys, monkeypatch):
        calls = [
            ["inspect", "--matrix", j4_file],
            ["limit", "--sform", "4,2,1", "--graph", cycle4_file, "--t", "2"],
            ["limit", "--sform", "4,2,1", "--graph", cycle4_file, "--t", "2",
             "--u-route"],  # mutually exclusive: a usage error
            ["limit", "--sform", "4,2,1", "--graph", cycle4_file, "--u-route"],
            ["detbounds", "--matrix", j4_file, "--ell", "1"],
            ["inspect", "--matrix", j4_file],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        shared = [run(argv) for argv in calls]
        assert len(built) == 1
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        cli._parser.cache_clear()
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0]
        assert "not allowed with argument" in shared[2][2]
