"""The four benchmark workloads: seeded inputs and the CLI calls of one pass.

A pass is the fixed, ordered list of ``sddkit`` command lines a workload runs;
the benchmark repeats passes one after another (a closed loop with a single
client).  Every input file is made here from a numpy ``Generator`` keyed by
the workload seed, never by ``sddkit.randmat``, so a change to the program
cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("suites-small", "det-large", "mle", "limit")

# Per-pass sizes.  The eig suite runs as one call per n in 3..12 with equal
# trials: with a single --n-range 3,12 call the program draws each trial's n
# from the seed, and since an n=12 trial costs ~70x an n=3 one the pass cost
# would move ~14% between seeds.  Equal trials per n keep the same uniform
# mix of n at every seed.
SUITE_NS = range(3, 13)
SUITE_TRIALS = 15
EXPLORE_TRIALS = 500
DET_SIZES = (120, 200, 300)
MLE_N = 400
MLE_TRIALS = 10
LIMIT_N = 800
LIMIT_SFORM = (LIMIT_N, 798.0, 1.0)
LIMIT_T = 1e8

# Operations in one detbounds call: one per bound report, plus the
# det_ratio / det_ratio_lu agreement.
DET_REPORTS = {True: ("det_lower", "det_upper", "adjugate", "hadamard"),
               False: ("det_lower", "hadamard")}

# How each workload's time tracks the host's speed (see reference.py): the
# seconds the reference kernel takes on the host the benchmark was tuned on,
# the exponent with which the workload's time follows the kernel's (the one
# that gave the least spread over twenty runs per workload there), and the
# repeats of each kernel part.
REFERENCE = {
    "suites-small": (0.030, 0.9, {"interpreter": 3, "small_numpy": 2}),
    "det-large": (0.018, 0.8, {"trailing_lu": 2}),
    "mle": (0.033, 1.0, {"elementwise": 3, "dense_lu": 1, "interpreter": 1}),
    "limit": (0.020, 1.0, {"formatting": 4, "dense_lu": 1, "interpreter": 1}),
}

_TAG = {name: 7100 + k for k, name in enumerate(WORKLOADS)}


@dataclass
class Call:
    """One CLI invocation of a pass and what its checker needs.

    ``ops`` is the number of operations the call attempts; it is fixed by the
    workload, not read from the program's output.
    """

    argv: list
    kind: str
    ops: int
    info: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return format(float(x), "g")


def write_matrix(path: str, a: np.ndarray) -> None:
    """Write ``a`` in the ``load_matrix`` text format (17 digits round-trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{a.shape[0]}\n")
        for row in a:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def sdd_matrix(rng: np.random.Generator, n: int, balanced: bool) -> np.ndarray:
    """Symmetric positive matrix, off-diagonals in [1, 3], row margins zero
    (balanced) or uniform in [0, 2] (dominant)."""
    off = np.triu(rng.uniform(1.0, 3.0, size=(n, n)), 1)
    off = off + off.T
    margins = np.zeros(n) if balanced else rng.uniform(0.0, 2.0, size=n)
    a = off.copy()
    np.fill_diagonal(a, off.sum(axis=1) + margins)
    return a


def limit_graph(rng: np.random.Generator, n: int = LIMIT_N):
    """One path, one star, one odd cycle and one path carrying a self-loop.

    Component sizes come from the seed, but the two bipartite components
    always cover 3n/4 vertices and the path has odd length (so both are
    unbalanced and the limit is dense on all of them): the printed matrix has
    the same number of nonzero entries at every seed.  Vertex labels are a seeded
    permutation, so components interleave in the file.  Returns
    ``(edges, sizes)`` with 1-based edges.
    """
    bip, rest = 3 * n // 4, n - 3 * n // 4
    path = 2 * int(rng.integers(bip // 8, bip // 4 + 1)) + 1
    star = bip - path
    cycle = 2 * int(rng.integers(rest // 4, rest // 3 + 1)) + 1
    loop = rest - cycle
    label = rng.permutation(n) + 1
    sizes = {"path": path, "star": star, "odd_cycle": cycle, "loop_path": loop}
    edges = []
    start = 0
    for kind, k in sizes.items():
        v = label[start:start + k]
        start += k
        if kind == "star":
            edges += [(v[0], v[i]) for i in range(1, k)]
        else:
            edges += [(v[i], v[i + 1]) for i in range(k - 1)]
        if kind == "odd_cycle":
            edges.append((v[-1], v[0]))
        if kind == "loop_path":
            edges.append((v[0], v[0]))
    return [(int(i), int(j)) for i, j in edges], sizes


def build(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's input files into ``workdir``; return its calls."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([seed, _TAG[workload]])
    s = str(seed)
    if workload == "suites-small":
        return [Call(["verify", "--suite", "eig", "--n-range", f"{n},{n}",
                      "--trials", str(SUITE_TRIALS), "--seed", s],
                     "verify", SUITE_TRIALS) for n in SUITE_NS] + [
                Call(["explore", "--conjecture", "det-upper",
                      "--trials", str(EXPLORE_TRIALS), "--seed", s],
                     "explore", EXPLORE_TRIALS)]
    if workload == "det-large":
        calls = []
        for n in DET_SIZES:
            for balanced in (True, False):
                path = os.path.join(workdir, f"{'bal' if balanced else 'dom'}{n}.txt")
                write_matrix(path, sdd_matrix(rng, n, balanced))
                calls.append(Call(["detbounds", "--matrix", path], "detbounds",
                                  len(DET_REPORTS[balanced]) + 1,
                                  {"n": n, "balanced": balanced}))
        return calls
    if workload == "mle":
        return [Call(["mle", "--n", str(MLE_N), "--k", "2",
                      "--trials", str(MLE_TRIALS), "--seed", s], "mle", MLE_TRIALS)]
    edges, _ = limit_graph(rng)
    path = os.path.join(workdir, "graph.edges")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{LIMIT_N}\n")
        fh.writelines(f"{i} {j}\n" for i, j in edges)
    sform = ",".join(_fmt(v) for v in LIMIT_SFORM)
    # null(P) has one dimension per bipartite component: the path and the star.
    info = {"edges": edges, "sform": LIMIT_SFORM, "t": LIMIT_T, "bipartite": 2}
    base = ["limit", "--sform", sform, "--graph", path]
    modes = (("closed-form", ["--closed-form"]), ("u-route", ["--u-route"]),
             ("numeric", ["--t", _fmt(LIMIT_T)]))
    return [Call(base + flags, "limit", 1, dict(info, mode=mode)) for mode, flags in modes]
