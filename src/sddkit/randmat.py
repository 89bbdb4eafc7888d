"""Seeded random instances for the verification suites.

Every generator takes a numpy Generator so suites can derive per-trial
streams from (seed, trial-index) and stay deterministic regardless of
execution order.  An SDD instance is drawn per trial (:func:`draw_sdd`) and
built by one stacked assembly (:func:`assemble_sdd`): the seeded-trial
engine assembles a whole group of trials at once, and each single-matrix
generator assembles a stack of one.

A trial's generator is ``default_rng([*prefix, t])`` (:func:`trial_rng`).
Building one costs a ``SeedSequence`` hash and a PCG64 seeding, more than a
small trial's own draws, so :func:`trial_rngs` builds a whole range of them
at once: it runs numpy's ``SeedSequence`` hash once, on arrays with one
column per trial, and hands each trial's four uint64 state words to PCG64
through numpy's public ``ISeedSequence`` interface, so PCG64's own code
still does the 128-bit seeding.  NEP 19 keeps both the ``SeedSequence``
hash and the PCG64 stream fixed across numpy versions, so the generators
stay bitwise those of :func:`trial_rng`; the tests compare the two.
"""

from __future__ import annotations

import functools

import numpy as np

from .matcore import SymMatrix
from .sform import SForm, sform_dense
from .graphlimit import LoopGraph

__all__ = [
    "trial_rng",
    "trial_rngs",
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


# numpy's SeedSequence constants (pool of four 32-bit words).  The hash
# constants of mix_entropy and generate_state do not depend on the data.
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` hash constants from ``init``, as a column."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & _M32)
    return np.array(c, dtype=np.uint32)[:, None]


# generate_state(4, uint64) reads eight 32-bit words, cycling the pool.
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
_STATE_SOURCES = np.arange(2 * _POOL) % _POOL
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


@functools.cache
def _mix_constants(words: int) -> np.ndarray:
    """mix_entropy's hash constants for a key of ``words`` words: four to
    fill the pool, three per pool word to mix it, four per word past the
    pool, and one past the last."""
    return _hash_constants(_INIT_A, _MULT_A, _POOL * max(words, _POOL))


def _hashmix(value: np.ndarray, c: np.ndarray, i: int, m: int) -> np.ndarray:
    """numpy's hashmix of ``value`` by the hash calls i..i+m-1, one row each."""
    value = value ^ c[i:i + m]
    value *= c[i + 1:i + m + 1]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    r ^= r >> 16
    return r


def _key_words(n: int) -> list[int]:
    """SeedSequence's words of a non-negative int: 32-bit little-endian
    words, and [0] for 0."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


class _StateWords(np.random.bit_generator.ISeedSequence):
    """One trial's PCG64 state words, handed to PCG64 as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or dtype is not np.uint64:
            raise ValueError("a trial's state words serve only PCG64's four uint64 words")
        return self.words


def trial_rngs(prefix: tuple[int, ...], trials: range) -> list[np.random.Generator]:
    """The generator of ``trial_rng(*prefix, t)`` for each t in ``trials``,
    bit for bit, from one SeedSequence hash over the whole range.

    Each trial's key is the words of ``prefix`` and then t's one word, so
    every trial's hash runs the same steps on one column of a (words, k)
    array.  The prefix and the indices must be >= 0, and the indices
    below 2^32.
    """
    if any(k < 0 for k in prefix):
        raise ValueError(f"key must be >= 0, got {tuple(prefix)}")
    if trials and not 0 <= min(trials[0], trials[-1]) <= max(trials[0], trials[-1]) <= _M32:
        raise ValueError(f"trial indices must be in [0, 2^32), got {trials}")
    head = [w for k in prefix for w in _key_words(k)]
    words = len(head) + 1
    c = _mix_constants(words)
    key = np.zeros((max(words, _POOL), len(trials)), dtype=np.uint32)
    key[:words - 1] = np.array(head, dtype=np.uint32)[:, None]
    key[words - 1] = np.arange(trials.start, trials.stop, trials.step)
    # mix_entropy: fill the pool (zero past the key), mix every pool word
    # into the other three, then mix each word past the pool into all four.
    pool = _hashmix(key[:_POOL], c, 0, _POOL)
    i = _POOL
    for s in range(_POOL):
        pool[_OTHERS[s]] = _mix(pool[_OTHERS[s]], _hashmix(pool[s], c, i, _POOL - 1))
        i += _POOL - 1
    for s in range(_POOL, words):
        pool = _mix(pool, _hashmix(key[s], c, i, _POOL))
        i += _POOL
    state = _hashmix(pool[_STATE_SOURCES], _STATE_CONSTANTS, 0, 2 * _POOL)
    state = np.ascontiguousarray(state.T).view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in state]


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
