"""Fixed host-speed reference program, timed from launch to exit like a command.

The benchmark runs it before its warm-up and after its timed loop, in a
child process pinned like the commands, and reports ``host.calib_s``.  It
never imports greedymin, so no change to the program under test can move
it: it shows how fast the shared host was during the run.
Its parts follow the kinds of work the workloads do: interpreter start and
imports, single-threaded BLAS, building and solving with tall n x k matrices
(the restricted solves), and many small numpy calls driven from Python
(the Monte Carlo estimators).  Prints the numpy version and BLAS build.
"""
from __future__ import annotations

import json

import numpy as np


def kernel() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    for _ in range(20):
        a = a @ a
        a /= np.linalg.norm(a)
    n = 3000
    c = rng.standard_normal(n)
    w = rng.uniform(0.5, 2.0, n)
    acc = float(a[0, 0])
    for k in range(20, 300, 40):
        idx = np.sort(rng.choice(n, k, replace=False))
        basis = np.zeros((n, k))
        basis[idx, np.arange(k)] = 1.0
        wb = w[:, None] * basis
        acc += float(np.linalg.solve(basis.T @ wb, wb.T @ c)[0])
    v, u = c[:200], w[:200]
    for _ in range(20000):
        d = v - u
        acc += float(np.dot(u * d, d))
    return acc


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    if not np.isfinite(kernel()):
        raise SystemExit("calibration kernel produced a non-finite value")
    print(json.dumps({"numpy": np.__version__, "blas": blas_build()}))
