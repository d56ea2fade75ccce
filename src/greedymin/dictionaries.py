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

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._n = int(dimension)

    @property
    def size(self) -> int:
        """Number of atoms (equals the ambient dimension)."""
        return self._n

    @abstractmethod
    def analyze(self, x: Vector) -> Vector:
        """Inner products of x against every atom."""

    @abstractmethod
    def synthesize(self, coeffs: Vector) -> Vector:
        """Linear combination of atoms from a dense coefficient vector."""

    @abstractmethod
    def subset(self, indices: Sequence[int]) -> np.ndarray:
        """Matrix (n x k) whose columns are the requested atoms, in that order."""

    def compose(self, form: LeastSquaresForm) -> LeastSquaresForm:
        """The form of z -> E(D z), c ||S D z - y||^2, in the atoms' coefficients.

        Its map is S D, its columns are S applied to the atoms and its
        adjoint is D^T S^T; y and c are the form's.  It carries no G: D^T G D
        would cost a product with S^T per atom, as much as the D^T S^T r it
        would save.
        """
        return form._replace(apply=lambda block: form.apply(self.subset(range(self._n)) @ block),
                             columns=lambda idx: form.apply(self.subset(idx)),
                             adjoint=lambda v: self.analyze(form.adjoint(v)),
                             gram=None, adjoint_rhs=None)


class CanonicalBasis(Dictionary):
    """Standard unit vectors."""

    def analyze(self, x: Vector) -> Vector:
        return as_point(x, self._n).copy()

    def synthesize(self, coeffs: Vector) -> Vector:
        return as_point(coeffs, self._n).copy()

    def subset(self, indices: Sequence[int]) -> np.ndarray:
        B = np.zeros((self._n, len(indices)))
        for col, j in enumerate(indices):
            B[j, col] = 1.0
        return B

    def compose(self, form: LeastSquaresForm) -> LeastSquaresForm:
        """The form itself: D is the identity, so its columns, G's included, are read."""
        return form


class RotatedBasis(Dictionary):
    """Columns of a seeded random orthogonal matrix.

    The matrix is the Q factor of a seeded Gaussian matrix; the QR reduction
    applies Householder reflections, so Q is orthogonal to machine precision.
    Column signs are normalized against the R diagonal for reproducibility.
    """

    def __init__(self, dimension: int, seed: int):
        super().__init__(dimension)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        q, r = np.linalg.qr(rng.standard_normal((self._n, self._n)))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        self.q = q * signs

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
