"""Orthonormal dictionaries and atom-selection rules.

Atoms are stored unsigned; selection maximizes the absolute gradient
coefficient and the sign travels with the coefficient, which halves the
atom set relative to keeping ``+phi`` and ``-phi`` separately.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Sequence

import numpy as np

from .core import Vector, as_point

SELECTION_STRATEGIES = ("exact", "first_admissible", "random_admissible")


class Dictionary(ABC):
    """An orthonormal basis of R^n with analysis and synthesis maps."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of atoms (equals the ambient dimension)."""

    @abstractmethod
    def analyze(self, x: Vector) -> Vector:
        """Inner products of x against every atom."""

    @abstractmethod
    def synthesize(self, coeffs) -> Vector:
        """Linear combination of atoms from a sparse index->value map or a dense vector."""

    @abstractmethod
    def subset(self, indices: Sequence[int]) -> np.ndarray:
        """Matrix (n x k) whose columns are the requested atoms, in that order."""

    def _dense_coeffs(self, coeffs) -> Vector:
        if isinstance(coeffs, Mapping):
            c = np.zeros(self.size)
            for j, v in coeffs.items():
                c[int(j)] = float(v)
            return c
        return as_point(coeffs, self.size)


class CanonicalBasis(Dictionary):
    """Standard unit vectors."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._n = int(dimension)

    @property
    def size(self) -> int:
        return self._n

    def analyze(self, x: Vector) -> Vector:
        return as_point(x, self._n).copy()

    def synthesize(self, coeffs) -> Vector:
        return self._dense_coeffs(coeffs).copy()

    def subset(self, indices: Sequence[int]) -> np.ndarray:
        B = np.zeros((self._n, len(indices)))
        for col, j in enumerate(indices):
            B[j, col] = 1.0
        return B


class RotatedBasis(Dictionary):
    """Columns of a seeded random orthogonal matrix.

    The matrix is the Q factor of a seeded Gaussian matrix; the QR reduction
    applies Householder reflections, so Q is orthogonal to machine precision.
    Column signs are normalized against the R diagonal for reproducibility.
    """

    def __init__(self, dimension: int, seed: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._n = int(dimension)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        q, r = np.linalg.qr(rng.standard_normal((self._n, self._n)))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        self.q = q * signs

    @property
    def size(self) -> int:
        return self._n

    def analyze(self, x: Vector) -> Vector:
        return self.q.T @ as_point(x, self._n)

    def synthesize(self, coeffs) -> Vector:
        if isinstance(coeffs, Mapping) and coeffs:
            idx = sorted(int(j) for j in coeffs)
            vals = np.array([float(coeffs[j]) for j in idx])
            return self.q[:, idx] @ vals
        return self.q @ self._dense_coeffs(coeffs)

    def subset(self, indices: Sequence[int]) -> np.ndarray:
        return self.q[:, list(indices)].copy()


def weak_select(coeffs, t: float, strategy: str = "exact", seed=None) -> tuple[int, float]:
    """Pick an index whose |coefficient| is at least t times the maximum.

    strategy: "exact" returns the argmax, ties broken toward the lowest index
    so traces are reproducible; "first_admissible" the lowest admissible
    index; "random_admissible" a seeded uniform draw over the admissible
    set.  ``seed`` may be an int or a numpy Generator.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    if c.size == 0:
        raise ValueError("empty coefficient sequence")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"weakness parameter t={t} outside (0, 1]")
    if strategy not in SELECTION_STRATEGIES:
        raise ValueError(f"unknown selection strategy {strategy!r}")
    mags = np.abs(c)
    if strategy == "exact":
        j = int(np.argmax(mags))
        return j, float(c[j])
    admissible = np.flatnonzero(mags >= t * mags.max())
    if strategy == "first_admissible":
        j = int(admissible[0])
    else:
        rng = np.random.default_rng(seed)
        j = int(admissible[rng.integers(len(admissible))])
    return j, float(c[j])
