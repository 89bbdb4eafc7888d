"""Seeded random instances for the verification suites.

Every generator takes a numpy Generator so suites can derive per-trial
streams from (seed, trial-index) and stay deterministic regardless of
execution order.  An SDD instance is drawn per trial (:func:`draw_sdd`) and
built by one stacked assembly (:func:`assemble_sdd`): the seeded-trial
engine assembles a whole group of trials at once, and each single-matrix
generator assembles a stack of one.
"""

from __future__ import annotations

import numpy as np

from .matcore import SymMatrix
from .sform import SForm, sform_dense
from .graphlimit import LoopGraph

__all__ = [
    "trial_rng",
    "draw_sdd",
    "assemble_sdd",
    "random_balanced",
    "random_dominant",
    "random_strictly_dominant",
    "random_geq_sform",
    "random_loop_graph",
]


def trial_rng(*key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, trial, ...) key."""
    return np.random.default_rng(list(key))


def draw_sdd(rng, n: int, lo: float = 1.0, hi: float = 3.0, margin_lo: float = 0.0,
             margin_hi: float = 2.0, balanced: bool = False) -> np.ndarray:
    """One SDD instance's draws from ``rng``, as one (n, n) array: the
    off-diagonal entries, uniform in [lo, hi], above the diagonal, and the
    dominance margins, uniform in [margin_lo, margin_hi], on it (zero and
    not drawn when ``balanced``).  The entries below the diagonal are drawn
    but not used.  :func:`assemble_sdd` builds the matrices."""
    draws = rng.uniform(lo, hi, size=(n, n))
    np.fill_diagonal(draws, 0.0 if balanced else rng.uniform(margin_lo, margin_hi, size=n))
    return draws


def assemble_sdd(draws: np.ndarray) -> np.ndarray:
    """The symmetric matrices of a (k, n, n) stack of :func:`draw_sdd`
    draws: each draw's upper triangle mirrored, and each diagonal entry its
    row's off-diagonal sum plus its margin."""
    off = np.triu(draws, 1)
    off = off + np.swapaxes(off, -1, -2)
    i = np.arange(draws.shape[-1])
    off[..., i, i] = off.sum(axis=-1) + draws[..., i, i]
    return off


def _one(draws: np.ndarray) -> SymMatrix:
    """The matrix of one instance's draws, assembled as a stack of one."""
    return SymMatrix(assemble_sdd(draws[None])[0])


def random_balanced(rng, n: int, lo: float = 1.0, hi: float = 3.0) -> SymMatrix:
    """Positive symmetric matrix with every dominance margin exactly zero."""
    return _one(draw_sdd(rng, n, lo, hi, balanced=True))


def random_dominant(rng, n: int, lo: float = 1.0, hi: float = 3.0,
                    margin_hi: float = 2.0) -> SymMatrix:
    """Positive SDD matrix with margins uniform in [0, margin_hi]."""
    return _one(draw_sdd(rng, n, lo, hi, margin_hi=margin_hi))


def random_strictly_dominant(rng, n: int) -> SymMatrix:
    """Positive SDD matrix with off-diagonals uniform in [1, 3] and margins
    uniform in [0.05, 2], so bounded away from zero."""
    return _one(draw_sdd(rng, n, margin_lo=0.05))


def random_geq_sform(rng, S: SForm, bump_hi: float = 2.0,
                     nonzero: bool = False) -> SymMatrix:
    """SDD matrix entrywise >= the dense realization of S.

    Adds a nonnegative SDD increment (off-diagonal bumps in [0, bump_hi],
    extra margins in [0, 2]); with ``nonzero`` the increment is guaranteed
    to be nonzero so the result differs from S.
    """
    while True:
        inc = assemble_sdd(draw_sdd(rng, S.n, 0.0, bump_hi)[None])[0]
        if not nonzero or inc.max() > 0:
            break
    return SymMatrix(sform_dense(S).entries + inc)


def random_loop_graph(rng, n: int, p_edge: float = 0.3,
                      p_loop: float = 0.0) -> LoopGraph:
    """Erdos-Renyi style graph on 1..n, optionally with self-loops."""
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < p_edge:
                edges.append((i, j))
        if p_loop and rng.random() < p_loop:
            edges.append((i, i))
    return LoopGraph(n, edges)
