"""A fixed kernel that times the host, so program times can be scaled.

On a shared host the speed flips between a fast and a slow state (up to 2x)
every few seconds, and the program's process time moves with it.  The
benchmark runs a fixed kernel between every two timed calls and reports each
call's time scaled by the kernel's: "reference seconds".  Interpreter-bound
and BLAS-bound code slow down by different factors (about 1.9x and 1.2x in
the slow state), so each workload's kernel mixes the parts below the way its
own time splits, and the scaling uses the power with which the workload's
time was seen to follow the kernel's (``workloads.REFERENCE``).  The kernel
never calls sddkit, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
import scipy.linalg


class Reference:
    """One workload's kernel: ``mix`` maps a part to its repeats per run,
    ``nominal_s`` is the seconds a run takes on the tuning host, and a time
    is scaled by ``(nominal_s / kernel seconds) ** elasticity``."""

    def __init__(self, nominal_s: float, elasticity: float, mix: dict):
        rng = np.random.default_rng(0)
        self.nominal_s = nominal_s
        self.elasticity = elasticity
        self.mix = mix
        self.small = rng.random((8, 8))
        self.dense = rng.random((200, 200)) + 200.0 * np.eye(200)
        self.block = rng.random((120, 120)) + 120.0 * np.eye(120)
        self.pairs = rng.random(400) + 1.0

    def interpreter(self):
        """Scalar float arithmetic in the interpreter, as in Jacobi rotations."""
        x = 0.3
        for _ in range(15000):
            x = 0.5 * math.copysign(1.0, x) / (abs(x) + math.hypot(x, 1.0)) + 0.1

    def small_numpy(self):
        """Many numpy operations on tiny arrays: per-call overhead."""
        a = self.small
        for _ in range(1500):
            col = a[:, 1].copy()
            a[:, 2] = 0.5 * col - 0.1 * a[:, 3]

    def formatting(self):
        """Float formatting, as in printing a matrix."""
        " ".join(format(v, ".12g") for v in self.dense[:12].ravel())

    def dense_lu(self):
        """One dense inverse of moderate size."""
        np.linalg.inv(self.dense)

    def trailing_lu(self):
        """LU inverses of shrinking trailing blocks, as in block_det_ratio."""
        for i in range(0, 119, 4):
            b = self.block[i:, i:]
            lu = scipy.linalg.lu_factor(b, check_finite=False)
            scipy.linalg.lu_solve(lu, np.eye(len(b)), check_finite=False)

    def elementwise(self):
        """Elementwise work on n x n arrays and a Cholesky, as in retina."""
        z = self.pairs[:, None] + self.pairs[None, :]
        w = 1.0 / z ** 2
        np.fill_diagonal(w, w.sum(axis=1))
        np.linalg.cholesky(w)

    def time(self) -> float:
        """Seconds for one run of the kernel."""
        t0 = perf_counter()
        for part, repeats in self.mix.items():
            run = getattr(self, part)
            for _ in range(repeats):
                run()
        return perf_counter() - t0


def scale(times, refs, nominal_s: float, elasticity: float = 1.0) -> list:
    """``times`` in reference seconds; ``times[k]`` ran between reference
    runs ``refs[k]`` and ``refs[k + 1]``, which take ``nominal_s`` on the
    tuning host.

    Each time is scaled by the median of the (up to) four reference runs
    nearest it, two before and two after, which tells the state the call
    ran in more steadily than the one run on each side.
    """
    return [t * (nominal_s / statistics.median(refs[max(0, k - 1):k + 3])) ** elasticity
            for k, t in enumerate(times)]
