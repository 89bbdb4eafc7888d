import numpy as np
import pytest
import scipy.linalg

from helpers import (basis_matrix_by_columns, bits, chain_cycle, incidence_rank,
                     limit_block_constants, limit_numeric_by_lu, limit_test_graph,
                     star, u_route_by_cho_solve)
from sddkit import (
    BipartiteComponent,
    GraphFormatError,
    LoopGraph,
    NonBipartiteComponent,
    SForm,
    analyze_bipartition,
    incidence,
    inf_norm,
    limit_closed_form,
    limit_inf_norm,
    limit_numeric,
    limit_u_route,
    load_graph,
    save_graph,
    sform_inf_norm_inverse,
    SingularMatrixError,
    SymMatrix,
    sform_dense,
    sform_inverse,
    signless_laplacian,
)
from sddkit import graphlimit
from sddkit.graphlimit import _basis, _basis_product
from sddkit.randmat import random_loop_graph, trial_rng

S4 = SForm(4, 2.0, 1.0)


def random_cases(count, seed, n_hi=12, p_loop=0.15):
    rng = trial_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, n_hi + 1))
        ell = float(rng.uniform(0.5, 2.0))
        alpha = (n - 2) * ell + float(rng.uniform(0.0, 2.0 * ell))
        yield SForm(n, alpha, ell), random_loop_graph(rng, n, p_edge=0.3, p_loop=p_loop)


class TestLoopGraph:
    def test_canonicalizes_and_dedupes(self):
        g = LoopGraph(4, [(2, 1), (1, 2), (3, 3)])
        assert g.edge_list == [(1, 2), (3, 3)]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LoopGraph(3, [(1, 4)])

    @pytest.mark.parametrize("n", [0, -2, 2.5])
    def test_rejects_bad_vertex_count(self, n):
        with pytest.raises(ValueError) as err:
            LoopGraph(n)
        assert str(err.value) == f"vertex count must be an integer >= 1, got {n}"


class TestSignlessLaplacian:
    def test_empty_graph(self):
        np.testing.assert_array_equal(signless_laplacian(LoopGraph(3)).entries, np.zeros((3, 3)))

    def test_cycle(self):
        P = signless_laplacian(chain_cycle(4)).entries
        np.testing.assert_array_equal(P.diagonal(), [2, 2, 2, 2])
        assert P[0, 1] == P[1, 2] == P[2, 3] == P[0, 3] == 1
        assert P[0, 2] == P[1, 3] == 0

    def test_self_loop(self):
        np.testing.assert_array_equal(
            signless_laplacian(LoopGraph(1, [(1, 1)])).entries, [[2.0]])

    def test_margins_are_zero_or_two(self):
        g = LoopGraph(5, [(1, 2), (2, 3), (4, 4)])
        P = signless_laplacian(g)
        from sddkit import delta
        np.testing.assert_array_equal(delta(P), [0, 0, 0, 2, 0])


class TestIncidence:
    def test_single_edge(self):
        np.testing.assert_array_equal(incidence(LoopGraph(2, [(1, 2)])), [[1.0], [1.0]])

    def test_self_loop_column(self):
        L = incidence(LoopGraph(2, [(1, 1)]))
        np.testing.assert_allclose(L, [[np.sqrt(2)], [0.0]])

    def test_factorizes_laplacian(self):
        rng = trial_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            g = random_loop_graph(rng, n, p_edge=0.4, p_loop=0.3)
            L = incidence(g)
            P = signless_laplacian(g).entries
            if any(i == j for i, j in g.edges):
                # sqrt(2)**2 is one ulp off of 2 in float arithmetic
                np.testing.assert_allclose(L @ L.T, P, atol=5e-16)
            else:
                np.testing.assert_array_equal(L @ L.T, P)


class TestAnalyzeBipartition:
    def test_even_cycle(self):
        B = analyze_bipartition(chain_cycle(4))
        assert B.r == 1 and B.s == 0 and B.gamma == 0 and B.d == 0
        comp = B.components[0]
        assert isinstance(comp, BipartiteComponent) and (comp.p, comp.q) == (2, 2)
        # ties keep the side of the lowest-indexed vertex first
        assert comp.vertices_p == (1, 3) and comp.vertices_q == (2, 4)

    def test_star(self):
        for n in (4, 6, 10):
            B = analyze_bipartition(star(n))
            comp = B.components[0]
            assert (comp.p, comp.q) == (n - 1, 1)
            assert comp.vertices_q == (1,)
            assert B.gamma == pytest.approx((n - 2) ** 2 / n)
            assert B.d == n - 2

    def test_odd_cycle(self):
        B = analyze_bipartition(chain_cycle(5))
        assert B.r == 0 and B.s == 5
        assert isinstance(B.components[0], NonBipartiteComponent)

    def test_self_loop_is_non_bipartite(self):
        B = analyze_bipartition(LoopGraph(3, [(1, 2), (3, 3)]))
        kinds = [type(c) for c in B.components]
        assert kinds == [BipartiteComponent, NonBipartiteComponent]
        assert B.r == 1 and B.s == 1

    def test_isolated_vertices_are_one_zero_components(self):
        B = analyze_bipartition(LoopGraph(3))
        assert B.r == 3 and B.gamma == 3.0 and B.d == 3.0
        assert all(c.q == 0 for c in B.components)

    def test_components_partition_vertices(self):
        rng = trial_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            g = random_loop_graph(rng, n, 0.3, 0.2)
            B = analyze_bipartition(g)
            seen = sorted(v for c in B.components for v in (
                c.vertices if isinstance(c, NonBipartiteComponent) else c.vertices))
            assert seen == list(range(1, n + 1))
            assert B.s == n - sum(c.p + c.q for c in B.bipartite_components)


class TestClosedForm:
    def test_even_cycle_alternating(self):
        N = limit_closed_form(S4, analyze_bipartition(chain_cycle(4))).entries
        expect = np.array([[(-1.0) ** (i + j) / 8 for j in range(4)] for i in range(4)])
        np.testing.assert_allclose(N, expect, atol=1e-15)

    def test_star_pattern(self):
        N = limit_closed_form(S4, analyze_bipartition(star(4))).entries
        c = 1 / 12
        expect = np.full((4, 4), c)
        expect[0, 1:] = -c
        expect[1:, 0] = -c
        np.testing.assert_allclose(N, expect, atol=1e-15)

    def test_non_bipartite_gives_zero(self):
        S5 = SForm(5, 3.0, 1.0)
        N = limit_closed_form(S5, analyze_bipartition(chain_cycle(5)))
        np.testing.assert_array_equal(N.entries, np.zeros((5, 5)))

    def test_requires_dominant_reference(self):
        with pytest.raises(ValueError):
            limit_closed_form(SForm(5, 1.0, 1.0), analyze_bipartition(chain_cycle(5)))

    def test_empty_graph_recovers_reference_inverse(self):
        B = analyze_bipartition(LoopGraph(4))
        np.testing.assert_allclose(limit_closed_form(S4, B).entries,
                                   sform_inverse(S4).entries, atol=1e-15)


class TestBlockConstants:
    def test_star_diagonal_constant(self):
        bc = limit_block_constants(S4, analyze_bipartition(star(4)))
        assert not bc.zero_limit
        assert bc.values[0, 0] == pytest.approx(1 / 12, abs=1e-15)

    def test_equal_sides_zero_cross_terms(self):
        g = LoopGraph(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
        S8 = SForm(8, 6.0, 1.0)
        bc = limit_block_constants(S8, analyze_bipartition(g))
        off = bc.values[~np.eye(4, dtype=bool)]
        np.testing.assert_array_equal(off, np.zeros(12))

    def test_single_balanced_component(self):
        # one (2, 2) component: gamma = 0 so c_11 = 1/(4 alpha)
        B = analyze_bipartition(chain_cycle(4))
        for alpha in (2.0, 3.5):
            bc = limit_block_constants(SForm(4, alpha, 1.0), B)
            assert bc.values[0, 0] == pytest.approx(1 / (4 * alpha), abs=1e-15)

    def test_zero_limit_marker(self):
        bc = limit_block_constants(SForm(5, 3.0, 1.0), analyze_bipartition(chain_cycle(5)))
        assert bc.zero_limit and bc.values.shape == (0, 0)

    def test_magnitudes_match_closed_form(self):
        for S, g in random_cases(40, seed=23):
            B = analyze_bipartition(g)
            bc = limit_block_constants(S, B)
            if bc.zero_limit:
                continue
            N = limit_closed_form(S, B).entries
            bip = B.bipartite_components
            for i, ci in enumerate(bip):
                rows = [v - 1 for v in ci.vertices]
                for j, cj in enumerate(bip):
                    cols = [v - 1 for v in cj.vertices]
                    block = np.abs(N[np.ix_(rows, cols)])
                    np.testing.assert_allclose(block, abs(bc.values[i, j]), atol=1e-10)


class TestURoute:
    def test_even_cycle(self):
        B = analyze_bipartition(chain_cycle(4))
        np.testing.assert_allclose(limit_u_route(S4, B).entries,
                                   limit_closed_form(S4, B).entries, atol=1e-10)

    def test_star_n6(self):
        S6 = SForm(6, 4.0, 1.0)
        B = analyze_bipartition(star(6))
        np.testing.assert_allclose(limit_u_route(S6, B).entries,
                                   limit_closed_form(S6, B).entries, atol=1e-10)

    def test_all_non_bipartite_vanishes(self):
        g = LoopGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        S6 = SForm(6, 4.0, 1.0)
        N = limit_u_route(S6, analyze_bipartition(g))
        np.testing.assert_allclose(N.entries, np.zeros((6, 6)), atol=1e-10)

    def test_rank_deficient_basis_is_reported_as_a_bug(self, monkeypatch):
        # A last column e_0 - e_0 = 0 puts an exact 0 on the diagonal of
        # U' S^-1 U, so its Cholesky factorization must fail.
        def with_zero_column(B):
            head, tail, sign = _basis(B)
            return np.append(head, 0), np.append(tail, 0), np.append(sign, -1.0)

        monkeypatch.setattr(graphlimit, "_basis", with_zero_column)
        with pytest.raises(AssertionError) as err:
            limit_u_route(S4, analyze_bipartition(chain_cycle(4)))
        assert str(err.value) == ("U' S^-1 U not positive definite: "
                                  "basis construction is broken")


def upper_onto_lower(a: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose upper triangle is ``a``'s, by selection."""
    return np.where(np.triu(np.ones(a.shape, dtype=bool)), a, a.T)


def u_route_by_formula(S: SForm, B) -> np.ndarray:
    """The u-route's LAPACK/BLAS calls on the dense U, stacked column by column."""
    Sinv = sform_inverse(S).entries
    U = basis_matrix_by_columns(B)
    if U.shape[1] == 0:
        return Sinv
    SiU = Sinv @ U
    R, _ = scipy.linalg.cho_factor(U.T @ SiU, check_finite=False)
    X = scipy.linalg.blas.dtrsm(1.0, R, SiU.T, trans_a=1)
    return upper_onto_lower(scipy.linalg.blas.dsyrk(-1.0, X, beta=1.0, c=Sinv, trans=1))


def numeric_by_formula(S: SForm, G, t: float) -> np.ndarray:
    """limit_numeric's LAPACK calls on the dense S + t P."""
    A = sform_dense(S).entries + t * signless_laplacian(G).entries
    factor, info = scipy.linalg.lapack.dpotrf(A)
    assert info == 0
    inv, info = scipy.linalg.lapack.dpotri(factor)
    assert info == 0
    return upper_onto_lower(inv)


def _bitwise_cases():
    cases = list(random_cases(40, seed=808))
    cases += [(S4, chain_cycle(4)), (SForm(6, 4.0, 1.0), star(6)),
              (SForm(5, 3.0, 1.0), LoopGraph(5)),
              (SForm(6, 4.0, 1.0), LoopGraph(6, [(1, 2), (2, 3), (1, 3), (4, 4)]))]
    cases.append((SForm(800, 798.0, 1.0), limit_test_graph(800, seed=5)))
    return cases


def basis_matrix_from_index(B) -> np.ndarray:
    """The dense U that ``graphlimit._basis`` describes by index and sign."""
    head, tail, sign = _basis(B)
    cols = np.arange(head.size)
    U = np.zeros((B.n, head.size))
    U[head, cols] = 1.0
    U[tail, cols] += sign
    return U


class TestRoutesBitwise:
    """The memory-lean basis, u-route and finite-t inverse give the bits of
    the same LAPACK/BLAS calls on the plain dense matrices."""

    def test_basis_and_u_route(self):
        for S, G in _bitwise_cases():
            B = analyze_bipartition(G)
            U = basis_matrix_from_index(B)
            assert U.shape == (G.n, G.n - B.r)
            assert np.array_equal(bits(U), bits(basis_matrix_by_columns(B)))
            assert np.array_equal(bits(limit_u_route(S, B).entries),
                                  bits(u_route_by_formula(S, B)))

    @pytest.mark.parametrize("S,G,columns", [
        # identity columns only: a self-loop, a triangle and a self-loop
        (SForm(5, 3.0, 1.0), LoopGraph(5, [(1, 1), (2, 3), (3, 4), (2, 4), (5, 5)]), 5),
        # r = n: no columns, so N is S^{-1} itself
        (SForm(4, 2.0, 1.0), LoopGraph(4), 0),
        (SForm(3, 2.0, 1.0), LoopGraph(3, [(2, 3)]), 1),
    ], ids=["non_bipartite_only", "isolated_only", "single_edge"])
    def test_u_route_small_graphs(self, S, G, columns):
        B = analyze_bipartition(G)
        assert _basis(B)[0].size == columns
        assert np.array_equal(bits(limit_u_route(S, B).entries),
                              bits(u_route_by_formula(S, B)))

    def test_gathers_give_the_products_bits(self):
        # The off-diagonal entries of the last S^{-1} underflow to -0, which
        # the products turn into +0, alone or summed with another -0.
        cases = _bitwise_cases()
        cases.append((SForm(5, 1e200, 1e-200), LoopGraph(5, [(1, 2), (3, 4), (4, 5), (3, 5)])))
        for S, G in cases:
            B = analyze_bipartition(G)
            U = basis_matrix_by_columns(B)
            Sinv = sform_inverse(S).entries
            SiU = _basis_product(Sinv, _basis(B), axis=1)
            assert SiU.flags.c_contiguous
            assert np.array_equal(bits(SiU), bits(Sinv @ U))
            assert np.array_equal(bits(_basis_product(SiU, _basis(B), axis=0)),
                                  bits(U.T @ (Sinv @ U)))

    def test_numeric(self):
        for S, G in _bitwise_cases():
            assert np.array_equal(bits(limit_numeric(S, G, 1e8).entries),
                                  bits(numeric_by_formula(S, G, 1e8)))

    def test_routes_are_bitwise_symmetric(self):
        for S, G in _bitwise_cases():
            for N in (limit_u_route(S, analyze_bipartition(G)).entries,
                      limit_numeric(S, G, 1e8).entries):
                assert np.array_equal(bits(N), bits(N.T))


class TestRoutesAgainstFormerOracles:
    """The Cholesky routes against the cho_solve u-route and the LU inverse
    they replaced."""

    def test_u_route(self):
        # Within 1e-10 of max|N|, or of max|S^{-1}| where the limit is zero
        # and N is roundoff left from cancelling S^{-1}.
        for S, G in _bitwise_cases():
            B = analyze_bipartition(G)
            old = u_route_by_cho_solve(S, B)
            new = limit_u_route(S, B).entries
            scale = np.abs(old if B.r else sform_inverse(S).entries).max()
            assert np.abs(new - old).max() <= 1e-10 * scale

    def test_numeric_at_n800(self):
        S, G = _bitwise_cases()[-1]
        assert S.n == 800
        old = limit_numeric_by_lu(S, G, 1e8)
        new = limit_numeric(S, G, 1e8).entries
        assert np.abs(new - old).max() <= 1e-10 * np.abs(old).max()

    def test_numeric(self):
        # Two backward-stable inverses of S + 1e8 P agree only to the size of
        # their forward errors, cond_inf * eps relative; on the small cases
        # that exceeds 1e-10 (up to 4.4e-9 apart, with LU itself up to
        # 1.9e-9 from an iteratively refined inverse).
        for S, G in _bitwise_cases():
            A = sform_dense(S).entries + 1e8 * signless_laplacian(G).entries
            tol = max(1e-10, np.linalg.cond(A, np.inf) * np.finfo(float).eps)
            old = limit_numeric_by_lu(S, G, 1e8)
            new = limit_numeric(S, G, 1e8).entries
            assert np.abs(new - old).max() <= tol * np.abs(old).max()

    def test_singular_sum_still_raises(self):
        S, G = SForm(800, 798.0, 1.0), limit_test_graph(800, seed=5)
        with pytest.raises(SingularMatrixError) as err:
            limit_numeric_by_lu(S, G, 1e16)
        floor = 800 * np.finfo(float).eps * inf_norm(
            SymMatrix(sform_dense(S).entries + 1e16 * signless_laplacian(G).entries))
        assert err.value.pivot <= floor
        with pytest.raises(SingularMatrixError) as err:
            limit_numeric(S, G, 1e16)
        assert err.value.pivot <= floor


class TestNumericLimit:
    def test_cycle_at_t1(self):
        got = limit_numeric(S4, chain_cycle(4), 1.0).entries
        expect = np.array([
            [11, -4, 1, -4],
            [-4, 11, -4, 1],
            [1, -4, 11, -4],
            [-4, 1, -4, 11],
        ]) / 40.0
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_cycle_with_chord_at_t1(self):
        g = LoopGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        got = limit_numeric(S4, g, 1.0).entries
        expect = np.array([
            [7, -2, -1, -2],
            [-2, 8, -2, 0],
            [-1, -2, 7, -2],
            [-2, 0, -2, 8],
        ]) / 32.0
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_large_t_approaches_closed_form(self):
        g = chain_cycle(4)
        N = limit_closed_form(S4, analyze_bipartition(g)).entries
        np.testing.assert_allclose(limit_numeric(S4, g, 1e8).entries, N, atol=1e-6)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            limit_numeric(S4, chain_cycle(4), 0.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError) as err:
            limit_numeric(S4, chain_cycle(5), 1.0)
        assert str(err.value) == "dimension mismatch: sform n=4, graph n=5"


@pytest.mark.parametrize("route", [limit_closed_form, limit_u_route, limit_inf_norm])
def test_limit_routes_reject_dimension_mismatch(route):
    with pytest.raises(ValueError) as err:
        route(S4, analyze_bipartition(chain_cycle(5)))
    assert str(err.value) == "dimension mismatch: sform n=4, graph n=5"


class TestLimitInfNorm:
    def test_star(self):
        assert limit_inf_norm(S4, analyze_bipartition(star(4))) == pytest.approx(1 / 3, abs=1e-15)

    def test_even_cycle(self):
        assert limit_inf_norm(S4, analyze_bipartition(chain_cycle(4))) == pytest.approx(0.5, abs=1e-15)

    def test_non_bipartite_zero(self):
        assert limit_inf_norm(SForm(5, 3.0, 1.0), analyze_bipartition(chain_cycle(5))) == 0.0

    def test_matches_matrix_norm(self):
        for S, g in random_cases(60, seed=29):
            B = analyze_bipartition(g)
            closed = limit_inf_norm(S, B)
            direct = inf_norm(limit_closed_form(S, B))
            assert abs(closed - direct) <= 1e-10


class TestRouteAgreementProperties:
    def test_three_routes_and_kernel(self):
        for S, g in random_cases(80, seed=31):
            B = analyze_bipartition(g)
            N = limit_closed_form(S, B)
            np.testing.assert_allclose(limit_u_route(S, B).entries, N.entries, atol=1e-9)
            np.testing.assert_allclose(limit_numeric(S, g, 1e8).entries, N.entries,
                                       atol=1e-5)
            L = incidence(g)
            if L.shape[1]:
                np.testing.assert_allclose(N.entries @ L, 0.0, atol=1e-9)

    def test_edge_columns_alternate(self):
        for S, g in random_cases(30, seed=37):
            N = limit_closed_form(S, analyze_bipartition(g)).entries
            for i, j in g.edge_list:
                if i == j:
                    np.testing.assert_allclose(N[:, i - 1], 0.0, atol=1e-12)
                else:
                    np.testing.assert_allclose(N[:, i - 1], -N[:, j - 1], atol=1e-12)

    def test_extremal_gap(self):
        for S, g in random_cases(50, seed=41):
            gap = sform_inf_norm_inverse(S) - limit_inf_norm(S, analyze_bipartition(g))
            if g.num_edges == 0:
                assert abs(gap) <= 1e-14
            else:
                assert gap > 0

    def test_norm_monotone_below_reference_for_finite_t(self):
        for S, g in random_cases(15, seed=43):
            if g.num_edges == 0:
                continue
            ref = sform_inf_norm_inverse(S)
            for t in (0.01, 1.0, 100.0, 1e4):
                assert inf_norm(limit_numeric(S, g, t)) < ref


class TestIncidenceRank:
    def test_single_edge(self):
        assert incidence_rank(LoopGraph(2, [(1, 2)])) == 1

    def test_odd_cycle_full_rank(self):
        assert incidence_rank(chain_cycle(5)) == 5

    def test_even_cycle_rank_deficient(self):
        assert incidence_rank(chain_cycle(4)) == 3

    def test_counts_bipartite_components(self):
        rng = trial_rng(47)
        for _ in range(30):
            n = int(rng.integers(1, 11))
            g = random_loop_graph(rng, n, 0.3, 0.2)
            B = analyze_bipartition(g)
            assert incidence_rank(g) == n - B.r


class TestGraphIO:
    def test_roundtrip(self, tmp_path):
        g = LoopGraph(5, [(1, 2), (4, 4), (2, 5)])
        path = tmp_path / "g.edges"
        save_graph(g, path)
        assert load_graph(path).edges == g.edges

    def test_cycle_file(self, tmp_path):
        path = tmp_path / "cycle4.edges"
        path.write_text("4\n1 2\n2 3\n3 4\n1 4\n")
        g = load_graph(path)
        assert g.num_edges == 4 and g.n == 4

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.edges"
        path.write_text("4\n1 2\n\n2 3\n  \t\n3 4\n\n")
        g = load_graph(path)
        assert g.n == 4 and g.edge_list == [(1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize("text, line", [
        ("12\n2 1_0\n", 2),
        ("1_2\n2 10\n", 1),
        ("\u0661\u0662\n1 2\n", 1),
        ("12\n1 2\n\u0661 \u0662\n", 3),
    ], ids=["underscore_vertex", "underscore_count", "arabic_indic_count",
            "arabic_indic_edge"])
    def test_rejects_non_decimal_numerals(self, text, line, tmp_path):
        # int() reads each of these: "1_0" as 10, "\u0661\u0662" as 12.
        path = tmp_path / "g.edges"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert err.value.line == line
        assert "not a plain ASCII decimal line" in str(err.value)

    def test_non_utf8_byte_rejected_with_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(b"3\n1 2\n2 \xff\n")
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert str(err.value) == "line 3: not a plain ASCII decimal line: '2 \\udcff'"

    def test_bad_edge_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3\n1 2\n2 9\n")
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert err.value.line == 3
