"""Graph-side combinatorics for limits of (S + t*P)^{-1} as t grows.

P is the signless Laplacian D + A of an undirected graph (self-loops
allowed), S is the reference family alpha*I + ell*ones.  The limit matrix N
is determined entirely by the bipartition structure of the connected
components, and this module computes it three independent ways:

* ``limit_closed_form`` -- the block formula built from per-component
  bipartition sizes (p_i, q_i),
* ``limit_u_route`` -- the rank-factorization route through a basis matrix U
  with N = S^{-1} - S^{-1} U (U' S^{-1} U)^{-1} U' S^{-1},
* ``limit_numeric`` -- a plain dense inverse at large finite t (the oracle).

Vertices are numbered 1..n everywhere, matching the edge-list file format;
the per-vertex side labels keep y, Y, and N in original vertex order so no
relabeling permutation ever materializes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matcore import SymMatrix, _mean_with_transpose, inverse_dense
from .sform import SForm, sform_dense, sform_inverse

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
    return SymMatrix(P)


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
    alpha, ell = S.alpha, S.ell
    N = Y / alpha - (ell / (alpha * (alpha + ell * B.gamma))) * np.outer(y, y)
    return SymMatrix(N)


def _basis_matrix(B: BipartitionSummary) -> np.ndarray:
    """Column basis U: per bipartite component, columns e_anchor + sigma_v e_v
    over the non-anchor vertices (sigma = -1 on the anchor's side, +1 on the
    other); identity columns for non-bipartite components."""
    U = np.zeros((B.n, B.n - B.r))
    col = 0
    for comp in B.components:
        if isinstance(comp, BipartiteComponent):
            verts = comp.vertices
            anchor = verts[0]
            side_p = set(comp.vertices_p)
            anchor_side_p = anchor in side_p
            for v in verts[1:]:
                same_side = (v in side_p) == anchor_side_p
                U[anchor - 1, col] = 1.0
                U[v - 1, col] = -1.0 if same_side else 1.0
                col += 1
        else:
            for v in comp.vertices:
                U[v - 1, col] = 1.0
                col += 1
    return U


def limit_u_route(S: SForm, B: BipartitionSummary) -> SymMatrix:
    """N = S^{-1} - S^{-1} U (U' S^{-1} U)^{-1} U' S^{-1} with dense kernels."""
    _require_compatible(S, B)
    Sinv = sform_inverse(S).entries
    U = _basis_matrix(B)
    if U.shape[1] == 0:
        return SymMatrix(Sinv)
    SiU = Sinv @ U
    try:
        cho = scipy.linalg.cho_factor(U.T @ SiU, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        # U' S^{-1} U is positive definite whenever U has full column rank,
        # which the construction guarantees; failure means a bug here.
        raise AssertionError(
            "U' S^-1 U not positive definite: basis construction is broken"
        ) from exc
    # Release each n x n intermediate once it is spent; holding all of them
    # made this route the memory peak of a large `limit` run.
    del U
    N = SiU @ scipy.linalg.cho_solve(cho, SiU.T, check_finite=False)
    del SiU, cho
    np.subtract(Sinv, N, out=N)
    return _mean_with_transpose(N)


def limit_numeric(S: SForm, G: LoopGraph, t: float) -> SymMatrix:
    """The raw finite-t inverse (sform_dense(S) + t * signless_laplacian)^{-1}.

    This is the oracle the closed forms are checked against, not the limit
    itself; entries approach the limit at rate O(1/t).
    """
    if not 0 < t < np.inf:
        raise ValueError(f"t must be finite and > 0, got {t}")
    if S.n != G.n:
        raise ValueError(f"dimension mismatch: sform n={S.n}, graph n={G.n}")
    with np.errstate(over="ignore"):
        a = sform_dense(S).entries + t * signless_laplacian(G).entries
    if not np.isfinite(a.max()):
        raise ValueError(f"t={t} makes S + t*P overflow")
    # J holds a copy, so the sum is freed before the inversion starts.
    J = SymMatrix(a)
    del a
    return inverse_dense(J)


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
    alpha, ell, gamma, d = S.alpha, S.ell, B.gamma, B.d
    best = max((c.p - c.q) * (d - 2 * (c.p - c.q)) / (c.p + c.q) for c in bip)
    return 1.0 / alpha + (ell / (alpha * (alpha + ell * gamma))) * best


# Edge-list text format: first line "n", then one edge per line "i j"
# (1-based; i == j denotes a self-loop).

def load_graph(path) -> LoopGraph:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GraphFormatError("empty file", line=1)
    head = lines[0].split()
    if len(head) != 1:
        raise GraphFormatError(f"expected a single vertex count, got {lines[0]!r}", line=1)
    try:
        n = int(head[0])
    except ValueError:
        raise GraphFormatError(f"bad vertex count {head[0]!r}", line=1) from None
    if n < 1:
        raise GraphFormatError(f"vertex count must be >= 1, got {n}", line=1)
    edges = []
    for lineno, raw in enumerate(lines[1:], start=2):
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
