"""Vector arithmetic, the curvature record, and the per-step solver trace.

Everything here treats a point of the ambient space as a dense 1-D float64
array, and a stack of points as a 2-D array with one point per row.  The
ambient dimension is finite and fixed per experiment; tests confirm that
padding a problem with inactive coordinates does not change any result.
``CurvatureParams`` is the one hypothesis of the rate theorems: both power
bounds on the Bregman gap and the region where they hold.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

#: columns of the trace CSV, one row per solver step
TRACE_CSV_HEADER = "k,E_k,e_k,dist_to_min,selected_index,grad_coeff,grad_sup,stopped"


def as_point(x, dim: int | None = None) -> Vector:
    """Coerce to a finite 1-D float64 vector, optionally checking its length."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {a.shape}")
    return as_points(a, dim)


def as_points(x, dim: int | None = None) -> Vector:
    """Coerce a point (n,) or a stack of points (m, n) to finite float64.

    With ``dim`` the last axis must have that length.  The shape is checked
    before the copy to contiguous memory, which would make a scalar (1,).
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim not in (1, 2):
        raise ValueError(f"expected a point (n,) or a stack (m, n), got shape {a.shape}")
    a = np.ascontiguousarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("point has non-finite entries")
    if dim is not None and a.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {a.shape[-1]}")
    return a


def norm(a: Vector) -> float:
    """Euclidean norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


def support_of(coeffs: Vector, tol: float) -> NDArray[np.intp]:
    """Indices whose coefficient magnitude exceeds tol * max(1, max |c|)."""
    c = np.abs(np.asarray(coeffs, dtype=np.float64))
    return np.flatnonzero(c > tol * max(1.0, float(c.max(initial=0.0))))


@dataclass(frozen=True)
class CurvatureParams:
    """Power bounds on the Bregman gap over one region.

    beta * ||x' - x||**p <= gap(x, x') <= alpha * ||x' - x||**q whenever x
    is in the level set and ||x' - x|| <= radius; grad_bound bounds the
    gradient norm over the level set.
    """

    alpha: float
    q: float                     # smoothness exponent in (1, 2]
    beta: float
    p: float                     # convexity exponent >= 2
    radius: float
    grad_bound: float

    def __post_init__(self):
        for name in ("alpha", "beta", "radius", "grad_bound"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 1.0 < self.q <= 2.0:
            raise ValueError(f"smoothness exponent {self.q} outside (1, 2]")
        if not self.p >= 2.0:
            raise ValueError(f"convexity exponent {self.p} below 2")


@dataclass
class TraceStep:
    """One row of a greedy-solver run.

    ``grad_coeff`` and ``grad_sup`` are selection-time data, i.e. gradient
    coefficients at the previous iterate; the row for step 0 carries the
    gradient sup at the start point and no selection.
    """

    k: int
    value: float
    error: float | None          # value - min value, when the minimizer is known
    dist: float | None           # distance to the known minimizer
    selected: int | None         # atom chosen at this step
    grad_coeff: float | None     # gradient coefficient of the chosen atom
    grad_sup: float              # sup of |gradient coefficients| at selection
    stopped: bool                # stopping rule fired at this iterate


def _csv_num(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


class IterateTrace:
    """Ordered per-step records of a single greedy run and its final iterate ``x``."""

    def __init__(self, steps: Sequence[TraceStep], x: Vector):
        self.steps = list(steps)
        self.x = x

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    def __getitem__(self, i) -> TraceStep:
        return self.steps[i]

    @property
    def support(self) -> list[int]:
        """Selected atom indices in selection order."""
        return [s.selected for s in self.steps if s.selected is not None]

    @property
    def final(self) -> TraceStep:
        return self.steps[-1]

    @property
    def has_errors(self) -> bool:
        return all(s.error is not None for s in self.steps)

    def to_csv(self, path) -> None:
        """Write the trace; floats at 17 significant digits, one row per step."""
        write_csv(path, TRACE_CSV_HEADER.split(","),
                  ([s.k, s.value, s.error, s.dist, s.selected, s.grad_coeff, s.grad_sup,
                    "true" if s.stopped else "false"] for s in self.steps))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file with ``\\n`` line ends.

    Strings are written as given, None as an empty cell, integers in
    decimal and floats at 17 significant digits; ``csv.writer`` quotes any
    cell that contains a comma.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else _csv_num(v) for v in row]
                         for row in rows)
