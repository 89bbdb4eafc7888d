"""Seeded random instances for the verification suites.

Every generator takes a numpy Generator so suites can derive per-trial
streams from (seed, trial-index) and stay deterministic regardless of
execution order.
"""

from __future__ import annotations

import numpy as np

from .matcore import SymMatrix
from .sform import SForm, sform_dense
from .graphlimit import LoopGraph

__all__ = [
    "trial_rng",
    "random_balanced",
    "random_dominant",
    "random_strictly_dominant",
    "random_geq_sform",
    "random_loop_graph",
]


def trial_rng(*key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, trial, ...) key."""
    return np.random.default_rng(list(key))


def _symmetric_off(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """Symmetric array with zero diagonal and off-diagonals uniform in [lo, hi]."""
    off = np.triu(rng.uniform(lo, hi, size=(n, n)), 1)
    return off + off.T


def _with_diagonal(off: np.ndarray, margins: np.ndarray) -> SymMatrix:
    """Row sums plus ``margins`` on the zero diagonal of a fresh ``off``."""
    np.fill_diagonal(off, off.sum(axis=1) + margins)
    return SymMatrix(off)


def random_balanced(rng, n: int, lo: float = 1.0, hi: float = 3.0) -> SymMatrix:
    """Positive symmetric matrix with every dominance margin exactly zero."""
    off = _symmetric_off(rng, n, lo, hi)
    return _with_diagonal(off, np.zeros(n))


def random_dominant(rng, n: int, lo: float = 1.0, hi: float = 3.0,
                    margin_hi: float = 2.0) -> SymMatrix:
    """Positive SDD matrix with margins uniform in [0, margin_hi]."""
    off = _symmetric_off(rng, n, lo, hi)
    return _with_diagonal(off, rng.uniform(0.0, margin_hi, size=n))


def random_strictly_dominant(rng, n: int) -> SymMatrix:
    """Positive SDD matrix with off-diagonals uniform in [1, 3] and margins
    uniform in [0.05, 2], so bounded away from zero."""
    off = _symmetric_off(rng, n, 1.0, 3.0)
    return _with_diagonal(off, rng.uniform(0.05, 2.0, size=n))


def random_geq_sform(rng, S: SForm, bump_hi: float = 2.0,
                     nonzero: bool = False) -> SymMatrix:
    """SDD matrix entrywise >= the dense realization of S.

    Adds a nonnegative SDD increment (off-diagonal bumps in [0, bump_hi],
    extra margins in [0, 2]); with ``nonzero`` the increment is guaranteed
    to be nonzero so the result differs from S.
    """
    n = S.n
    while True:
        bump = _symmetric_off(rng, n, 0.0, bump_hi)
        margins = rng.uniform(0.0, 2.0, size=n)
        inc = _with_diagonal(bump, margins).entries
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
