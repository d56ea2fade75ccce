"""Tests of the benchmark's own checks and span accounting.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFS = sorted((BENCH / "reference").glob("*.json"))


def _commands(path: Path) -> list[dict]:
    return json.loads(path.read_text())["commands"]


def test_every_workload_has_a_default_seed_reference():
    for workload in WORKLOADS:
        assert check.load_reference(BENCH / "reference", workload, 1) is not None


def test_references_hold_constants_bounds_and_isometry_ratio():
    for workload in ("quad_run", "powersum_verify"):
        run = check.load_reference(BENCH / "reference", workload, 1)[0]["series"]
        assert {"report.alpha", "report.radius", "report.gain", "report.recursion",
                "report.bounds", "bounds.bound_k", "bounds.margin"} <= set(run)
    demo = check.load_reference(BENCH / "reference", "demo_cs", 1)[0]["series"]
    assert "report.sampled_isometry_ratio" in demo


@pytest.mark.parametrize("path", REFS, ids=[p.stem for p in REFS])
def test_reference_matches_itself_and_tiny_rounding(path):
    for ref in _commands(path):
        check.compare_to_reference(ref, ref)
        nudged = copy.deepcopy(ref)
        for values in nudged["series"].values():
            values[:] = [v * (1 + 4e-16) for v in values]
        check.compare_to_reference(nudged, ref)


@pytest.mark.parametrize("path", REFS, ids=[p.stem for p in REFS])
def test_perturbed_reference_is_a_failure(path):
    for ref in _commands(path):
        for name, values in ref["series"].items():
            k = max(range(len(values)), key=lambda i: abs(values[i]))
            rtol = check.tolerance(name)[0]
            bad = copy.deepcopy(ref)
            bad["series"][name][k] *= 1 + 10 * rtol
            with pytest.raises(check.CheckError):
                check.compare_to_reference(bad, ref)
        for i, selected in enumerate(ref["selected"]):
            if len(selected) >= 2:
                bad = copy.deepcopy(ref)
                bad["selected"][i][0], bad["selected"][i][1] = selected[1], selected[0]
                with pytest.raises(check.CheckError):
                    check.compare_to_reference(bad, ref)


TRACE = ("k,E_k,e_k,dist_to_min,selected_index,grad_coeff,grad_sup,stopped\n"
         "0,8.0,8.0,2.0,,,2.0,false\n1,4.0,4.0,1.0,3,2.0,2.0,false\n"
         "2,2.0,2.0,0.5,1,1.0,1.0,false\n3,0.5,0.5,0.1,2,0.5,0.5,true\n")


def _rate_fit_line(slope_factor: float = 1.0) -> str:
    """The report line ``greedymin.analysis.fit_rate`` gives for TRACE."""
    lk, le = np.log([1.0, 2.0, 3.0]), np.log([4.0, 2.0, 0.5])
    slope, intercept = np.polyfit(lk, le, 1)
    residual = np.sqrt(np.mean((le - (slope * lk + intercept)) ** 2))
    return (f"rate_fit: slope={slope * slope_factor:.6g} intercept={intercept:.6g} "
            f"residual={residual:.6g}\n")


def _write_run_outputs(outdir: Path, status: str, extra: str = "") -> None:
    outdir.mkdir()
    (outdir / "x.report.txt").write_text(
        f"STATUS: {status}\nname: x\nconfig: analysis.tail_fraction=1.0; seed=2\n"
        f"alpha: 1.5  q: 2\n{extra}wall_time_s: 0.123\n")
    (outdir / "x.trace.csv").write_text(TRACE)
    (outdir / "x.bounds.csv").write_text("k,e_k,bound_k,margin\n2,2.0,3.0,1.0\n"
                                         "3,0.5,2.5,2.0\n")


def test_observables_require_status_ok_and_recovery(tmp_path):
    _write_run_outputs(tmp_path / "ok", "OK")
    obs = check.observables("run", tmp_path / "ok", [])
    assert obs == {"selected": [[3, 1, 2]],
                   "series": {"E_k": [8.0, 4.0, 2.0, 0.5], "report.alpha": [1.5, 2.0],
                              "bounds.bound_k": [3.0, 2.5], "bounds.margin": [1.0, 2.0]}}
    _write_run_outputs(tmp_path / "bad", "VIOLATION")
    with pytest.raises(check.CheckError):
        check.observables("run", tmp_path / "bad", [])
    with pytest.raises(check.CheckError):
        check.observables("demo-cs", tmp_path / "ok", [])
    _write_run_outputs(tmp_path / "cs", "OK", "support_recovered: true\n")
    check.observables("demo-cs", tmp_path / "cs", [])


def test_rate_fit_must_match_the_trace(tmp_path):
    _write_run_outputs(tmp_path / "ok", "OK", _rate_fit_line())
    assert "report.rate_fit" not in check.observables("run", tmp_path / "ok", [])["series"]
    _write_run_outputs(tmp_path / "bad", "OK", _rate_fit_line(1.001))
    with pytest.raises(check.CheckError):
        check.observables("run", tmp_path / "bad", [])


def test_digest_ignores_wall_time_only(tmp_path):
    _write_run_outputs(tmp_path / "a", "OK")
    _write_run_outputs(tmp_path / "b", "OK")
    report = tmp_path / "b" / "x.report.txt"
    report.write_text(report.read_text().replace("0.123", "9.999"))
    assert check.output_digest(tmp_path / "a") == check.output_digest(tmp_path / "b")
    report.write_text(report.read_text().replace("name: x", "name: y"))
    assert check.output_digest(tmp_path / "a") != check.output_digest(tmp_path / "b")


def test_self_time_subtracts_children():
    # main [0, 10] > command [1, 9] > greedy [2, 6] > value [3, 4]; value [7, 8]
    # under the command directly, so it belongs to neither solve nor estimate.
    names = ["cli.main", "harness.command", "solvers.greedy", "objectives.value"]
    spans = (array("i", [0, 1, 2, 3, 3]), array("i", [-1, 0, 1, 2, 1]),
             array("d", [0, 1, 2, 3, 7]), array("d", [10, 9, 6, 4, 8]))
    record = {"names": names, "extras": [[2, 5, 100]], "counts": {}}
    m = layers.workload_metrics([layers.span_metrics(record, spans)])
    assert m["harness.command.self_s"] == 8 - 4 - 1
    assert m["solvers.greedy.self_s"] == 4 - 1
    assert m["objectives.value.solve.calls"] == 1
    assert m.get("objectives.value.estimate.calls", 0) == 0
    assert m["solvers.steps"] == 5
    assert m["core.trace_bytes_computed"] == 6 * 100 * 8
    assert m["share.command_self"] == pytest.approx(3 / 10)


def test_nested_solver_entries_record_one_solve():
    class Trace:
        support = [4, 2]

    rec = tracer.Recorder()

    def wrap(fn):
        inner = tracer.span_wrapper(rec, "solvers.greedy", fn, None)
        return tracer._greedy_entry_wrapper(rec, fn, inner)

    def run_wcga():
        return Trace()

    run_wcga = wrap(run_wcga)
    run_omp = wrap(lambda: run_wcga())
    run_omp()
    run_wcga()
    assert rec.supports == [[4, 2], [4, 2]]
    assert len(rec.code) == 2


def test_traced_child_finds_every_hook(tmp_path):
    record = tmp_path / "rec.json"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(record), str(BENCH.parent / "src"),
         "1", "--", "--quiet", "--output-dir", str(out),
         "demo-cs", "--rows", "20", "--cols", "40", "--sparsity", "2", "--seed", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert rec["missing"] == {}
    assert rec["first_solver"] > rec["t_main"]
    assert len(rec["supports"]) == 1 and len(rec["supports"][0]) == 2
    m = layers.span_metrics(rec, tracer.read_spans(str(record), rec["span_count"]))
    assert m["solvers.greedy.calls"] == 1
    assert m["solvers.restricted_minimize.calls"] == 2
    assert m["objectives.argmin_in_span.calls"] == 2
    assert m["harness.command.self_s"] > 0
