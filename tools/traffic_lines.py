"""List the greedymin statement lines that a fixed set of commands never runs.

Usage:
    PYTHONPATH=<checkout>/src python3 tools/traffic_lines.py

Runs, in one process under the standard library's ``trace``, every command
of the matrix of ``tools/golden_outputs.py`` and the commands that
``perfbench/workloads.generate(workload, 1)`` returns for each of the four
benchmark workloads, each through ``greedymin.cli.main`` with its outputs
in a temporary directory.  It then prints, as ``path:line: source`` rows,
every statement line inside a function of ``src/greedymin`` that no command
ran, followed by their count.  Module and class bodies are not listed: they
run on import.  A statement counts as a line when the compiler gives it code
of its own (docstrings, ``global`` and the like have none); a statement
spanning several lines is run when its first line is.

Only the standard library, greedymin and the two modules named above are
used; nothing under ``perfbench/`` is written.
"""
from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import sys
import tempfile
import trace
import warnings
from pathlib import Path
from types import CodeType

import greedymin
from greedymin.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(greedymin.__file__).resolve().parent
SEED = 1  # the workloads' seed


def _load(path: Path):
    """The module at ``path``, loaded without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"_traffic_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements inside functions that carry code of their own."""
    source = path.read_text()
    with_code: set[int] = set()
    pending = [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        pending += [c for c in code.co_consts if isinstance(c, CodeType)]
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            starts.update(stmt.lineno for stmt in ast.walk(node)
                          if isinstance(stmt, ast.stmt) and stmt is not node)
    return starts & with_code


def run_traced(runs: list[list[str]]) -> dict[str, set[int]]:
    """Run each argument list through the CLI; the lines run, by file name.

    Every module is traced: ``trace`` keys its ignore list on a module's bare
    name, so ignoring numpy's directory would also drop ``greedymin/core.py``
    if ``numpy/ma/core.py`` ran first.  The package's files are picked out after.
    """
    tracer = trace.Trace(count=1, trace=0)
    previous = sys.gettrace()
    with tempfile.TemporaryDirectory() as tmp:
        for i, args in enumerate(runs):
            out = io.StringIO()
            with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(out)):
                warnings.simplefilter("ignore")
                try:
                    tracer.runfunc(main, ["--output-dir", str(Path(tmp) / str(i)), *args])
                finally:
                    sys.settrace(previous)
    seen: dict[str, set[int]] = {}
    for filename, line in tracer.results().counts:
        seen.setdefault(filename, set()).add(line)
    return seen


def traffic(workdir: Path) -> list[list[str]]:
    """The golden matrix and the four benchmark workloads at ``SEED``, as CLI arguments."""
    golden_outputs = _load(ROOT / "tools" / "golden_outputs.py")
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    runs = [args for _, args in golden_outputs.commands(workdir)]
    for workload in workloads.WORKLOADS:
        runs += [["--quiet", *cmd.args]
                 for cmd in workloads.generate(workload, SEED, workdir / workload)]
    return runs


def unrun_lines(runs: list[list[str]]) -> list[tuple[Path, int]]:
    """(file, line) of every function statement of the package that ``runs`` never run."""
    seen = run_traced(runs)
    return [(path, line) for path in sorted(PACKAGE.glob("*.py"))
            for line in sorted(statement_lines(path) - seen.get(str(path), set()))]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        unrun = unrun_lines(traffic(Path(tmp)))
    texts = {}
    for path, line in unrun:
        text = texts.setdefault(path, path.read_text().splitlines())[line - 1].strip()
        print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {text}")
    print(f"{len(unrun)} statement lines not run")
