"""Run one ``greedymin`` CLI command in a fresh process, with benchmark hooks.

Usage: python3 child.py RECORD SRC_DIR TRACED -- CLI_ARGS...

Imports ``greedymin`` from SRC_DIR (refusing any other copy), installs the
hooks from :mod:`tracer` (only the solver-entry hook unless TRACED is 1),
calls ``greedymin.cli.main`` and writes the record to RECORD.  The exit
code is the CLI's.
"""
from __future__ import annotations

import os
import sys
import time


def main() -> int:
    record_path, src_dir, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        print("usage: child.py RECORD SRC_DIR TRACED -- CLI_ARGS...", file=sys.stderr)
        return 64
    cli_args = sys.argv[5:]
    sys.path.insert(0, src_dir)

    import numpy  # noqa: F401  (before greedymin, so t_numpy cannot depend on it)
    t_numpy = time.monotonic()
    import greedymin.cli

    pkg_dir = os.path.dirname(os.path.realpath(greedymin.__file__))
    if os.path.dirname(pkg_dir) != os.path.realpath(src_dir):
        print(f"greedymin imported from {pkg_dir}, not from {src_dir}", file=sys.stderr)
        return 65

    import tracer

    rec = tracer.Recorder()
    tracer.install(rec, traced)
    entry = greedymin.cli.main
    if traced:
        entry = tracer.span_wrapper(rec, "cli.main", entry, None)
    t_main = time.monotonic()
    code = entry(cli_args)
    rec.write(record_path, {"t_numpy": t_numpy, "t_main": t_main})
    return code


if __name__ == "__main__":
    sys.exit(main())
