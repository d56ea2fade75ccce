"""The traffic-lines tool: which package lines a command leaves unrun."""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "traffic_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("traffic_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line_of(path: Path, text: str) -> int:
    lines = [i for i, line in enumerate(path.read_text().splitlines(), 1) if text in line]
    assert len(lines) == 1, (text, lines)
    return lines[0]


def test_a_shipped_config_leaves_descent_unrun_and_runs_the_exact_step():
    # quadratic.cfg has a least-squares form, so every restricted solve is exact:
    # the descent's lines are listed, the exact branch's are not; a docstring,
    # which has no code, is never listed
    tool = _load_tool()
    before = sys.gettrace()

    def outer(frame, event, arg):
        return None

    sys.settrace(outer)
    try:
        unrun = tool.unrun_lines([["run", str(ROOT / "configs" / "quadratic.cfg")]])
        assert sys.gettrace() is outer  # the tracer that was active is put back
    finally:
        sys.settrace(before)
    solvers = tool.PACKAGE / "solvers.py"
    lines = {line for path, line in unrun if path == solvers}
    assert _line_of(solvers, "basis = dictionary.subset(idx)") in lines
    assert _line_of(solvers, "factor.record_atoms(new)") not in lines
    docstring = _line_of(solvers, '"""Minimize the objective over the span of the atoms')
    assert docstring not in tool.statement_lines(solvers)
    assert all(path.parent == tool.PACKAGE for path, _ in unrun)
