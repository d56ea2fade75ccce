"""Output checks behind ``fail_ratio``.

A command passes when it exits with 0, its report starts with
``STATUS: OK``, ``demo-cs`` reports ``support_recovered: true``, a ``run``
report's ``rate_fit`` agrees with a fit of its own trace, its outputs are
identical to the first repeat of the same run (``wall_time_s`` lines
aside), and, where a stored reference exists for the seed, its observables
match that reference:

* every ``selected_index`` sequence equals the reference exactly;
* every value series (``E_k``, ``e_k``, the ``bound_k`` and ``margin``
  columns of ``bounds.csv``, the moduli columns) matches within
  ``|a - b| <= rtol * |b| + atol * max_k |b_k|``;
* every number on the report lines of ``run`` and ``demo-cs`` (the rate
  constants, the recursion and bound summaries, ``sampled_isometry_ratio``)
  matches within ``rtol * |b|``.  Not stored: the inputs (``config``),
  ``wall_time_s``, and the values at round-off level (``E_final``,
  ``error_final``, ``distance_to_planted``) or fitted to it (``rate_fit``).

Tolerances were set from equivalent computations that only re-order
floating-point work: solving the restricted problems by Cholesky of the
permuted normal equations (quadratic) or by QR (least squares) instead
of the shipped solves, summing the power-sum terms in reverse, and
regrouping the Bregman gap of the constant estimator.  Those kept every
``selected_index`` and moved ``E_k``/``e_k`` by at most 4e-16 relative, or
2e-16 of the series maximum for errors at round-off level (where relative
differences reach 6x).  They moved ``bound_k``/``margin`` by at most 9e-16
relative and no stored report number at its 6 printed digits, while
``E_final``, ``error_final`` and ``distance_to_planted`` moved by up to 6x
and ``rate_fit`` by up to 2.6%.  They moved the moduli, which are second
differences of objective values, by up to 3.5e-6 relative and 6e-11 of the
column maximum.  The tolerances leave a margin of 16x or more over those
(10x over one unit of the 6th digit for report numbers), and a wrong
solve moves E_k by far more than 1e-8.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

# (rtol, atol) per kind of series; see tolerance()
TRACE_TOL = (1e-8, 1e-12)
MODULI_TOL = (1e-4, 1e-9)
REPORT_TOL = (1e-4, 0.0)
# rate_fit against the refit of the trace: log-space values, the absolute
# term covers a residual at round-off level
FIT_TOL = (1e-4, 1e-9)
MODULI_COLUMNS = ("u", "rho", "rho1", "delta1")
BOUNDS_COLUMNS = ("bound_k", "margin")
REPORT_SKIP = ("name", "config", "wall_time_s", "E_final", "error_final",
               "distance_to_planted", "rate_fit")
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class CheckError(Exception):
    """An output is missing or differs from what it should be."""


def _only(outdir: Path, suffix: str) -> Path:
    found = sorted(outdir.glob(f"*{suffix}"))
    if len(found) != 1:
        raise CheckError(f"expected one *{suffix} in the output, found {len(found)}")
    return found[0]


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tolerance(name: str) -> tuple[float, float]:
    """(rtol, atol) of the series ``name``."""
    if name in MODULI_COLUMNS:
        return MODULI_TOL
    if name.startswith("report."):
        return REPORT_TOL
    return TRACE_TOL


def _report_series(report: list[str]) -> dict[str, list[float]]:
    """The numbers on each ``key: ...`` report line, keyed ``report.<key>``."""
    out = {}
    for line in report[1:]:
        key, sep, rest = line.partition(": ")
        numbers = [float(t) for t in NUMBER.findall(rest)]
        if sep and key not in REPORT_SKIP and numbers:
            out[f"report.{key}"] = numbers
    return out


def _check_rate_fit(report: list[str], trace: list[dict[str, str]]) -> None:
    """The reported ``rate_fit`` must be the log-log fit of the trace's e_k.

    Least squares of log e_k on log k over the last ``tail_fraction`` of the
    steps k >= 1 with e_k > 0, as ``greedymin.analysis.fit_rate`` documents.
    """
    line = next((ln for ln in report if ln.startswith("rate_fit: slope=")), None)
    if line is None:
        return
    config = next((ln for ln in report if ln.startswith("config: ")), "")
    tail = re.search(r"\banalysis\.tail_fraction=([^;]+)", config)
    if tail is None:
        raise CheckError("report config names no analysis.tail_fraction")
    points = [(math.log(int(r["k"])), math.log(float(r["e_k"]))) for r in trace
              if int(r["k"]) >= 1 and r["e_k"] and float(r["e_k"]) > 0.0]
    points = points[-math.ceil(float(tail.group(1)) * len(points)):]
    if len(points) < 2:
        raise CheckError("rate_fit is reported, but the trace has under 2 positive errors")
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    slope = (sum((x - mx) * (y - my) for x, y in points)
             / sum((x - mx) ** 2 for x, _ in points))
    intercept = my - slope * mx
    residual = math.sqrt(sum((y - slope * x - intercept) ** 2 for x, y in points)
                         / len(points))
    reported = [float(t) for t in NUMBER.findall(line.partition(": ")[2])]
    if len(reported) != 3:
        raise CheckError(f"rate_fit line has {len(reported)} numbers, expected 3")
    rtol, atol = FIT_TOL
    for name, a, b in zip(("slope", "intercept", "residual"), reported,
                          (slope, intercept, residual)):
        if not abs(a - b) <= rtol * abs(b) + atol:
            raise CheckError(f"rate_fit {name} = {a!r}, the trace's e_k give {b!r}")


def observables(kind: str, outdir: Path, supports: list[list[int]]) -> dict:
    """What the reference check compares, read from one command's outputs.

    ``supports`` are the selected-atom sequences the solver-entry hook saw,
    in call order; ``compare`` writes no per-variant trace file.
    """
    report = _only(outdir, ".txt").read_text().splitlines()
    if not report or report[0] != "STATUS: OK":
        raise CheckError(f"report status is {report[0] if report else 'missing'!r}")
    if kind in ("run", "demo-cs"):
        trace = _rows(_only(outdir, ".trace.csv"))
        if kind == "demo-cs" and "support_recovered: true" not in report:
            raise CheckError("demo-cs did not report support_recovered: true")
        _check_rate_fit(report, trace)
        series = {"E_k": [float(r["E_k"]) for r in trace], **_report_series(report)}
        if kind == "run":
            bounds = _rows(_only(outdir, ".bounds.csv"))
            series.update({f"bounds.{col}": [float(r[col]) for r in bounds]
                           for col in BOUNDS_COLUMNS})
        selected = [int(r["selected_index"]) for r in trace if r["selected_index"]]
        return {"selected": [selected], "series": series}
    if kind == "compare":
        with open(_only(outdir, ".compare.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        series = {col: [float(r[i]) for r in body if r[i] != ""]
                  for i, col in enumerate(header) if i > 0}
        return {"selected": supports, "series": series}
    if kind == "moduli":
        rows = _rows(_only(outdir, ".moduli.csv"))
        return {"selected": [],
                "series": {col: [float(r[col]) for r in rows] for col in MODULI_COLUMNS}}
    raise CheckError(f"unknown command kind {kind!r}")


def output_digest(outdir: Path) -> str:
    """Hash of every output file, ignoring the timing lines of reports."""
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*")):
        if not path.is_file():
            continue
        h.update(path.name.encode() + b"\0")
        for line in path.read_bytes().splitlines(keepends=True):
            if not line.startswith(b"wall_time_s:"):
                h.update(line)
    return h.hexdigest()


def compare_to_reference(obs: dict, ref: dict) -> None:
    """Raise :class:`CheckError` at the first difference beyond tolerance."""
    if obs["selected"] != ref["selected"]:
        raise CheckError("selected_index sequence differs from the reference")
    if sorted(obs["series"]) != sorted(ref["series"]):
        raise CheckError("output columns differ from the reference")
    for name, ref_vals in ref["series"].items():
        vals = obs["series"][name]
        if len(vals) != len(ref_vals):
            raise CheckError(f"{name}: {len(vals)} rows, reference has {len(ref_vals)}")
        rtol, atol = tolerance(name)
        floor = atol * max((abs(v) for v in ref_vals), default=0.0)
        for k, (a, b) in enumerate(zip(vals, ref_vals)):
            if not (math.isfinite(a) and abs(a - b) <= rtol * abs(b) + floor):
                raise CheckError(f"{name}[{k}] = {a!r}, reference {b!r}")


def reference_path(ref_dir: Path, workload: str, seed: int) -> Path:
    return ref_dir / f"{workload}-seed{seed}.json"


def load_reference(ref_dir: Path, workload: str, seed: int) -> list[dict] | None:
    """Per-command observables stored for this workload and seed, if any."""
    path = reference_path(ref_dir, workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["commands"]
