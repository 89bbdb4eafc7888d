"""Graph-side combinatorics for limits of (S + t*P)^{-1} as t grows.

P is the signless Laplacian D + A of an undirected graph (self-loops
allowed), S is the reference family alpha*I + ell*ones.  The limit matrix N
is determined entirely by the bipartition structure of the connected
components, and this module computes it three independent ways:

* ``limit_closed_form`` -- the block formula built from per-component
  bipartition sizes (p_i, q_i),
* ``limit_u_route`` -- the rank-factorization route through a basis U of
  range(P), N = S^{-1} - S^{-1} U (U' S^{-1} U)^{-1} U' S^{-1}; each column of U
  holds one or two +-1 entries, so U is kept as index and sign arrays and its
  products are gathers, and the correction is one triangular solve and one
  symmetric rank-k update from the Cholesky factor of U' S^{-1} U,
* ``limit_numeric`` -- the Cholesky inverse of S + t P at large finite t (the
  oracle).

S, S + t P and U' S^{-1} U are symmetric positive definite, so both dense
routes factor by Cholesky, compute one triangle and copy it onto the other:
their results are exactly symmetric without averaging with the transpose.

Vertices are numbered 1..n everywhere, matching the edge-list file format;
the per-vertex side labels keep y, Y, and N in original vertex order so no
relabeling permutation ever materializes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matcore import (SymMatrix, _adopt, _fill_upper, _inverse_cholesky,
                      _numbered_lines, _read_count)
from .sform import SForm, _rank_one, sform_dense, sform_inverse

__all__ = [
    "LoopGraph",
    "BipartiteComponent",
    "NonBipartiteComponent",
    "BipartitionSummary",
    "GraphFormatError",
    "signless_laplacian",
    "incidence",
    "analyze_bipartition",
    "limit_closed_form",
    "limit_u_route",
    "limit_numeric",
    "limit_inf_norm",
    "load_graph",
    "save_graph",
]


class GraphFormatError(ValueError):
    """Malformed edge-list text file.  ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class LoopGraph:
    """Undirected unweighted graph on vertices 1..n, self-loops allowed.

    Edges are stored as canonical (min, max) pairs; duplicates collapse.
    """

    n: int
    edges: frozenset

    def __init__(self, n: int, edges=()):
        if int(n) != n or n < 1:
            raise ValueError(f"vertex count must be an integer >= 1, got {n}")
        canon = set()
        for e in edges:
            i, j = e
            i, j = int(i), int(j)
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {e} has an endpoint outside 1..{n}")
            canon.add((min(i, j), max(i, j)))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", frozenset(canon))

    @property
    def edge_list(self) -> list[tuple[int, int]]:
        """Edges in canonical lexicographic order."""
        return sorted(self.edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BipartiteComponent:
    """One bipartite component with sides of sizes p >= q.

    ``vertices_p`` holds the larger side (ties keep the side of the
    component's lowest-indexed vertex first).  An isolated vertex is the
    (1, 0) case with an empty q side.
    """

    vertices_p: tuple
    vertices_q: tuple

    @property
    def p(self) -> int:
        return len(self.vertices_p)

    @property
    def q(self) -> int:
        return len(self.vertices_q)

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(self.vertices_p + self.vertices_q))


@dataclass(frozen=True)
class NonBipartiteComponent:
    """A component carrying a self-loop or an odd cycle."""

    vertices: tuple


@dataclass(frozen=True)
class BipartitionSummary:
    """Per-component bipartition structure of a graph on vertices 1..n.

    r counts bipartite components, s the total vertices in non-bipartite
    ones; gamma = sum (p_i - q_i)^2 / (p_i + q_i) and d = sum (p_i - q_i)
    range over the bipartite components only.
    """

    n: int
    components: tuple
    r: int
    s: int
    gamma: float
    d: float

    @property
    def bipartite_components(self) -> list[BipartiteComponent]:
        return [c for c in self.components if isinstance(c, BipartiteComponent)]


def signless_laplacian(G: LoopGraph) -> SymMatrix:
    """P = D + A; a self-loop at v contributes 2 to P_vv.

    Off-diagonal entries are 0/1 and the dominance margin of each row is 0
    for loop-free vertices and 2 where a self-loop is present.
    """
    n = G.n
    P = np.zeros((n, n))
    for i, j in G.edges:
        if i == j:
            P[i - 1, i - 1] += 2.0
        else:
            P[i - 1, j - 1] = 1.0
            P[j - 1, i - 1] = 1.0
            P[i - 1, i - 1] += 1.0
            P[j - 1, j - 1] += 1.0
    return _adopt(P)


def incidence(G: LoopGraph) -> np.ndarray:
    """Vertex-edge incidence matrix L with L L' = signless_laplacian(G).

    Columns follow the canonical lexicographic edge order; a non-loop edge
    {i, j} contributes 1 at both endpoints, a self-loop contributes sqrt(2).
    """
    edges = G.edge_list
    L = np.zeros((G.n, len(edges)))
    for col, (i, j) in enumerate(edges):
        if i == j:
            L[i - 1, col] = np.sqrt(2.0)
        else:
            L[i - 1, col] = 1.0
            L[j - 1, col] = 1.0
    return L


def _neighbors(G: LoopGraph):
    adj = {v: [] for v in range(1, G.n + 1)}
    loops = set()
    for i, j in G.edges:
        if i == j:
            loops.add(i)
        else:
            adj[i].append(j)
            adj[j].append(i)
    return adj, loops


def analyze_bipartition(G: LoopGraph) -> BipartitionSummary:
    """Find components by BFS, two-color each, and summarize.

    A self-loop or an odd cycle marks a component non-bipartite.  Within a
    bipartite component the side containing its lowest-indexed vertex comes
    first, then sides swap if needed so p >= q.  Isolated vertices count as
    (1, 0)-bipartite components.
    """
    adj, loops = _neighbors(G)
    color = {}
    components = []
    for start in range(1, G.n + 1):
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        verts = [start]
        odd = start in loops
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    verts.append(w)
                    if w in loops:
                        odd = True
                    queue.append(w)
                elif color[w] == color[v]:
                    odd = True
        verts.sort()
        if odd:
            components.append(NonBipartiteComponent(vertices=tuple(verts)))
        else:
            side0 = tuple(v for v in verts if color[v] == 0)
            side1 = tuple(v for v in verts if color[v] == 1)
            if len(side1) > len(side0):
                side0, side1 = side1, side0
            components.append(BipartiteComponent(vertices_p=side0, vertices_q=side1))
    bip = [c for c in components if isinstance(c, BipartiteComponent)]
    gamma = sum((c.p - c.q) ** 2 / (c.p + c.q) for c in bip)
    d = sum(c.p - c.q for c in bip)
    s = sum(len(c.vertices) for c in components if isinstance(c, NonBipartiteComponent))
    return BipartitionSummary(
        n=G.n,
        components=tuple(components),
        r=len(bip),
        s=s,
        gamma=float(gamma),
        d=float(d),
    )


def _require_compatible(S: SForm, B: BipartitionSummary) -> None:
    if S.n != B.n:
        raise ValueError(f"dimension mismatch: sform n={S.n}, graph n={B.n}")
    if not S.is_dominant:
        raise ValueError(
            f"reference family must be diagonally dominant "
            f"(alpha={S.alpha} < (n-2)*ell={(S.n - 2) * S.ell})"
        )


def _side_vectors(B: BipartitionSummary):
    """Per-vertex y vector and block matrix Y in original vertex order."""
    n = B.n
    y = np.zeros(n)
    Y = np.zeros((n, n))
    for comp in B.bipartite_components:
        w = comp.p + comp.q
        imbalance = (comp.p - comp.q) / w
        sign = np.zeros(n)
        for v in comp.vertices_p:
            sign[v - 1] = 1.0
        for v in comp.vertices_q:
            sign[v - 1] = -1.0
        idx = [v - 1 for v in comp.vertices]
        y[idx] = imbalance * sign[idx]
        block_sign = np.outer(sign[idx], sign[idx])
        Y[np.ix_(idx, idx)] = block_sign / w
    return y, Y


def limit_closed_form(S: SForm, B: BipartitionSummary) -> SymMatrix:
    """N = (1/alpha) Y - ell/(alpha(alpha + ell*gamma)) y y'.

    y carries +-(p_i - q_i)/(p_i + q_i) on the two sides of each bipartite
    component (zero on non-bipartite vertices); Y holds +-1/(p_i + q_i) on
    same-side/cross-side pairs within each bipartite component.
    """
    _require_compatible(S, B)
    y, Y = _side_vectors(B)
    N = Y / S.alpha - _rank_one(S, B.gamma) * np.outer(y, y)
    return _adopt(N)


def _basis(B: BipartitionSummary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column basis U as (head, tail, sign): column c of U is
    e_head[c] + sign[c] e_tail[c], with 0-based vertex indices.

    Per bipartite component, one column per non-anchor vertex v: head is the
    anchor (the component's lowest vertex), tail is v, and sign is -1 when v
    is on the anchor's side, +1 otherwise.  Each vertex of a non-bipartite
    component gives an identity column: head = tail = v and sign 0.
    """
    head, tail, sign = [], [], []
    for comp in B.components:
        if isinstance(comp, BipartiteComponent):
            anchor, *rest = comp.vertices
            side_p = set(comp.vertices_p)
            anchor_side_p = anchor in side_p
            for v in rest:
                head.append(anchor - 1)
                tail.append(v - 1)
                sign.append(-1.0 if (v in side_p) == anchor_side_p else 1.0)
        else:
            for v in comp.vertices:
                head.append(v - 1)
                tail.append(v - 1)
                sign.append(0.0)
    return np.array(head, dtype=np.intp), np.array(tail, dtype=np.intp), np.array(sign)


def _basis_product(a: np.ndarray, basis, axis: int) -> np.ndarray:
    """a U (axis=1) or U' a (axis=0) by gathering columns or rows of ``a``,
    bitwise equal to the GEMM against the dense U.

    Every product with an entry of U is exact and all but two are zero, so
    each GEMM entry is the one correctly rounded sum of the two gathered
    terms, in any summation order.  GEMM accumulates from +0, so adding +0
    turns a -0 sum into +0 as well.  The result is C-ordered, like the GEMM's.
    """
    head, tail, sign = basis
    out = np.take(a, tail, axis=axis)
    np.multiply(out, sign if axis == 1 else sign[:, None], out=out)
    np.add(out, np.take(a, head, axis=axis), out=out)
    out += 0.0
    return out


def limit_u_route(S: SForm, B: BipartitionSummary) -> SymMatrix:
    """N = S^{-1} - S^{-1} U (U' S^{-1} U)^{-1} U' S^{-1}.

    U is held as index and sign arrays (:func:`_basis`), so S^{-1} U and
    U' S^{-1} U are O(n^2) gathers (:func:`_basis_product`) with the bits of
    the dense products.  With the Cholesky factor U' S^{-1} U = R'R, the
    correction is X'X for X = R'^{-1} (S^{-1} U)': one triangular solve and
    one symmetric rank-k update (SYRK) that subtracts X'X from S^{-1} in
    place, about 2.3 n^3 flops with the factorization.  SYRK computes one
    triangle, which is copied onto the other, so N is exactly symmetric with
    no averaging.
    """
    _require_compatible(S, B)
    # A writeable copy: SYRK accumulates into it.
    Sinv = sform_inverse(S).entries.copy()
    basis = _basis(B)
    if basis[0].size == 0:
        return _adopt(Sinv)
    SiU = _basis_product(Sinv, basis, axis=1)
    # U' S^{-1} U as gathered, symmetric to rounding only (potrf reads this
    # upper triangle), is positive definite whenever U has full column rank,
    # which the construction guarantees; failure means a bug here.
    R, info = scipy.linalg.lapack.dpotrf(_basis_product(SiU, basis, axis=0), lower=0, clean=0)
    if info:
        raise AssertionError("U' S^-1 U not positive definite: basis construction is broken")
    # SiU' is Fortran-ordered, so BLAS solves in SiU's memory and writes the
    # upper triangle of Sinv' (Sinv's lower one) in Sinv's memory.
    X = scipy.linalg.blas.dtrsm(1.0, R, SiU.T, trans_a=1, overwrite_b=1)
    del R
    scipy.linalg.blas.dsyrk(-1.0, X, beta=1.0, c=Sinv.T, trans=1, overwrite_c=1)
    return _adopt(_fill_upper(Sinv))


def limit_numeric(S: SForm, G: LoopGraph, t: float) -> SymMatrix:
    """The raw finite-t inverse (sform_dense(S) + t * signless_laplacian)^{-1}.

    This is the oracle the closed forms are checked against, not the limit
    itself; entries approach the limit at rate O(1/t).  S + t P is positive
    definite (S is, and P is semidefinite), so it is inverted by Cholesky,
    about n^3 flops, with one triangle copied onto the other: the result is
    exactly symmetric with no averaging.  S + t P is worked at the power-of-
    two scale of :func:`~sddkit.matcore._prescaled`.  A squared pivot at or
    below n * eps * inf_norm(S + t P), as at t = 1e16 on large graphs, or
    an inverse past the float range raises
    :class:`~sddkit.matcore.SingularMatrixError`.
    """
    if not 0 < t < np.inf:
        raise ValueError(f"t must be finite and > 0, got {t}")
    if S.n != G.n:
        raise ValueError(f"dimension mismatch: sform n={S.n}, graph n={G.n}")
    with np.errstate(over="ignore"):
        a = sform_dense(S).entries + t * signless_laplacian(G).entries
    if not np.isfinite(a.max()):
        raise ValueError(f"t={t} makes S + t*P overflow")
    return _inverse_cholesky(a)


def limit_inf_norm(S: SForm, B: BipartitionSummary) -> float:
    """Closed form for the infinity norm of the limit matrix.

    Zero when no component is bipartite; otherwise
    1/alpha + ell/(alpha(alpha+ell*gamma)) *
    max_i (p_i - q_i)(d - 2(p_i - q_i)) / (p_i + q_i).
    """
    _require_compatible(S, B)
    bip = B.bipartite_components
    if not bip:
        return 0.0
    best = max((c.p - c.q) * (B.d - 2 * (c.p - c.q)) / (c.p + c.q) for c in bip)
    return 1.0 / S.alpha + _rank_one(S, B.gamma) * best


# Edge-list text format: first line "n", then one edge per line "i j"
# (1-based; i == j denotes a self-loop).  Every line must be ASCII without "_".

def load_graph(path) -> LoopGraph:
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = _numbered_lines(fh, GraphFormatError)
        n = _read_count(lines, GraphFormatError, "vertex count")
        edges = []
        for lineno, raw in lines:
            if not raw.strip():
                continue
            parts = raw.split()
            if len(parts) != 2:
                raise GraphFormatError(f"expected 'i j', got {raw!r}", line=lineno)
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"bad vertex in {raw!r}", line=lineno) from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphFormatError(f"vertex outside 1..{n} in {raw!r}", line=lineno)
            edges.append((i, j))
    return LoopGraph(n, edges)


def save_graph(G: LoopGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{G.n}\n")
        for i, j in G.edge_list:
            fh.write(f"{i} {j}\n")
