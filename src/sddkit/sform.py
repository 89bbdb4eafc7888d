"""The structured two-parameter family alpha*I + ell*ones.

This family is the extremal reference for every inverse-norm bound in the
package: its inverse, eigenvalues, and the infinity norm of its inverse all
have closed forms, so downstream checks can bypass numeric factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import SymMatrix, _adopt, _at_unit_scale

__all__ = [
    "SForm",
    "sform_dense",
    "sform_inverse",
    "sform_inf_norm_inverse",
    "sform_eigenvalues",
]


@dataclass(frozen=True)
class SForm:
    """Parameters (n, alpha, ell) of the matrix alpha*I_n + ell*ones.

    Requires n >= 3 and finite alpha, ell > 0; every result built on this
    family assumes that much, so smaller or degenerate inputs are rejected
    rather than special-cased.  The family is diagonally dominant exactly when
    alpha >= (n-2)*ell, with per-row margin alpha - (n-2)*ell.
    """

    n: int
    alpha: float
    ell: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ValueError(f"n must be an integer >= 3, got {self.n}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 < self.ell < math.inf:
            raise ValueError(f"ell must be finite and > 0, got {self.ell}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "ell", float(self.ell))

    @property
    def is_dominant(self) -> bool:
        return self.alpha >= (self.n - 2) * self.ell

    @classmethod
    def balanced(cls, n: int, ell: float = 1.0) -> "SForm":
        """The diagonally balanced member: alpha = (n-2)*ell."""
        return cls(n, (n - 2) * ell, ell)


def sform_dense(S: SForm) -> SymMatrix:
    """Dense realization: diagonal alpha + ell, off-diagonal ell."""
    a = np.full((S.n, S.n), S.ell)
    np.fill_diagonal(a, S.alpha + S.ell)
    return _adopt(a)


def sform_inverse(S: SForm) -> SymMatrix:
    """Closed-form inverse (1/alpha) I - ell/(alpha(alpha + ell n)) ones."""
    b = _rank_one(S, S.n)
    inv = np.full((S.n, S.n), -b)
    np.fill_diagonal(inv, 1.0 / S.alpha - b)
    return _adopt(inv)


def _rank_one(S: SForm, size: float) -> float:
    """ell/(alpha(alpha + ell*size)): in S's inverse size = n, in the limit gamma."""
    return _at_unit_scale(lambda alpha, ell: ell / (alpha * (alpha + ell * size)),
                          -1, S.alpha, S.ell)


def sform_inf_norm_inverse(S: SForm) -> float:
    """Closed form (alpha + 2 ell (n-1)) / (alpha (alpha + ell n)).

    For the balanced member alpha = (n-2) ell this evaluates to
    (3n-4) / (2 ell (n-2)(n-1)).
    """
    return _at_unit_scale(lambda alpha, ell: (alpha + 2.0 * ell * (S.n - 1))
                          / (alpha * (alpha + ell * S.n)), -1, S.alpha, S.ell)


def sform_eigenvalues(S: SForm) -> tuple[float, float]:
    """(alpha with multiplicity n-1, alpha + ell*n)."""
    return (S.alpha, S.alpha + S.ell * S.n)
