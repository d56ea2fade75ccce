"""Orthonormal dictionaries and atom-selection rules.

Atoms are stored unsigned; selection maximizes the absolute gradient
coefficient and the sign travels with the coefficient, which halves the
atom set relative to keeping ``+phi`` and ``-phi`` separately.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import Vector, as_point

if TYPE_CHECKING:
    from .objectives import LeastSquaresForm

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
    def synthesize(self, coeffs: Vector) -> Vector:
        """Linear combination of atoms from a dense coefficient vector."""

    @abstractmethod
    def subset(self, indices: Sequence[int]) -> np.ndarray:
        """Matrix (n x k) whose columns are the requested atoms, in that order."""

    def image(self, form: LeastSquaresForm, indices: Sequence[int]) -> np.ndarray:
        """The (m x k) block S B of a least-squares form's S on ``subset(indices)``."""
        return form.apply(self.subset(indices))

    def gram_image(self, form: LeastSquaresForm, indices: Sequence[int]) -> np.ndarray | None:
        """The (n x k) block S^T S B on ``subset(indices)`` where it is read, not computed.

        None here: off the canonical basis the block costs a product with S^T
        per atom, as much as the S^T r it would save.
        """
        return None


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

    def synthesize(self, coeffs: Vector) -> Vector:
        return as_point(coeffs, self._n).copy()

    def subset(self, indices: Sequence[int]) -> np.ndarray:
        B = np.zeros((self._n, len(indices)))
        for col, j in enumerate(indices):
            B[j, col] = 1.0
        return B

    def image(self, form: LeastSquaresForm, indices: Sequence[int]) -> np.ndarray:
        """S's own columns at ``indices``, read without applying S to a unit block."""
        return form.columns(indices)

    def gram_image(self, form: LeastSquaresForm, indices: Sequence[int]) -> np.ndarray | None:
        """G's own columns at ``indices``, read as :meth:`image` reads S's; None without G."""
        return None if form.gram is None else form.gram[:, indices]


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

    def synthesize(self, coeffs: Vector) -> Vector:
        return self.q @ as_point(coeffs, self._n)

    def subset(self, indices: Sequence[int]) -> np.ndarray:
        return np.take(self.q, list(indices), axis=1)


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
