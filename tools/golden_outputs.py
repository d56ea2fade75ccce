"""Run a fixed matrix of greedymin CLI commands and keep every output.

Usage:
    PYTHONPATH=<checkout>/src python3 tools/golden_outputs.py OUTDIR

Each command runs through ``greedymin.cli.main`` with ``--output-dir
OUTDIR/<label>``.  Its stdout goes to ``OUTDIR/<label>/stdout.txt``, its
stderr to ``OUTDIR/<label>/stderr.txt`` and its exit code to
``OUTDIR/<label>/exit_code.txt``.  The stderr file holds the command's
warnings, one ``<Category>: <message>`` line each without the source file
and line, which differ between checkouts, followed by what it printed to
stderr (its ``error:`` line), so moved or reworded messages show up in the
comparison too.  Each command starts with a fresh warnings registry, as a
new process would.  Lines starting with
``wall_time_s:`` are removed from every file, so two runs of the same code
give identical directories.  To check that a change leaves the outputs
alone, run this once against each checkout and compare the directories:

    PYTHONPATH=old/src python3 tools/golden_outputs.py /tmp/golden-old
    PYTHONPATH=new/src python3 tools/golden_outputs.py /tmp/golden-new
    diff -r /tmp/golden-old /tmp/golden-new

Configs are read from ``configs/`` next to this directory; the derived
configs below add lines to them, and a later key overrides an earlier one;
a derived config with no base is written whole.
Only the standard library and greedymin are used.
"""
from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

from greedymin.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
VARIANTS = ["omp", "wcga:t=0.5,strategy=first_admissible",
            "wcga:t=0.7,strategy=random_admissible"]

# label -> (base config, extra config lines, commands run on it); with base
# None the extra lines are the whole config
DERIVED = {
    "quadratic_wcga": ("quadratic", "solver.algorithm = wcga\n"
                                    "solver.weakness = [1.0, 0.5, 0.8]\n"
                                    "solver.selection_strategy = random_admissible\n",
                       ("run",)),
    # q < p with a schedule: the t_j^(q/(q-1))-weighted polynomial bound
    "powersum_wcga": ("powersum", "solver.algorithm = wcga\n"
                                  "solver.weakness = [1.0, 0.5, 0.8]\n"
                                  "solver.selection_strategy = first_admissible\n",
                      ("run",)),
    # overstated curvature: the claimed contraction cannot hold (exit 2)
    "quadratic_overstated": ("quadratic", "analysis.alpha = 1.0\nanalysis.beta = 4.0\n"
                                          "analysis.radius = 50.0\n"
                                          "analysis.grad_bound = 10.0\n",
                             ("run", "compare")),
    # minimizer at the origin: the constants are skipped, moduli has nothing to sample
    "quadratic_origin": ("quadratic", "objective.center_sparsity = 0\n",
                         ("run", "moduli", "compare")),
    "powersum_override": ("powersum", "analysis.alpha = 2.0e7\nanalysis.beta = 1.0e-4\n"
                                      "analysis.radius = 10.0\n"
                                      "analysis.grad_bound = 1.0e4\n",
                          ("run",)),
    # p = 2: the exact span solve, sampled constants and the moduli stencil
    # at the objective's exponent
    "powersum_p2": ("powersum", "objective.exponent = 2\nanalysis.p = 2.0\n",
                    ("run", "moduli")),
    # a center near 1e6: the synthesized final x carries round-off far above
    # inner_tol on the support, and the form is checked relative to E'(0)
    "quadratic_scaled": ("quadratic", "objective.center_low = 1.0e6\n"
                                      "objective.center_high = 2.0e6\n", ("run",)),
    # a rotated basis: the exact step's dense Gram-Schmidt projection
    "quadratic_rotated": ("quadratic", "dictionary.type = rotated\n", ("run", "compare")),
    # a rotated basis: the only label whose exact step applies a dense S to
    # its atoms (every other least-squares label reads A's columns) and takes
    # S^T r although its tall A's form carries G
    "least_squares_rotated": ("least_squares", "dictionary.type = rotated\n",
                              ("run", "compare")),
    # wide matrix: no closed-form level-set diameter
    "least_squares_wide": ("least_squares", "objective.rows = 20\n", ("run", "moduli")),
    # a config of its own: an explicit center and a list of weights
    "quadratic_explicit": (None, "name = quadratic_explicit\ndimension = 6\nseed = 5\n"
                                 "objective.type = diagonal_quadratic\n"
                                 "objective.center = [0.0, 1.5, 0.0, -2.0, 0.0, 1.0]\n"
                                 "objective.weights = [0.5, 1.0, 2.0, 1.5, 0.75, 1.25]\n"
                                 "dictionary.type = rotated\n",
                           ("run", "moduli", "compare")),
    # powersum.cfg's override with no analysis.p: p is the objective's 4
    "powersum_override_default_p": (None, "name = powersum_override_default_p\n"
                                          "dimension = 50\nseed = 16\n"
                                          "objective.type = power_sum\n"
                                          "objective.exponent = 4\n"
                                          "objective.center_sparsity = 3\n"
                                          "objective.weights_low = 0.001\n"
                                          "objective.weights_high = 1000\n"
                                          "objective.weights_log = true\n"
                                          "dictionary.type = rotated\n"
                                          "solver.algorithm = omp\n"
                                          "solver.max_steps = 200\n"
                                          "solver.max_inner_iters = 3000\n"
                                          "analysis.tail_fraction = 1.0\n"
                                          "analysis.q = 2.0\n"
                                          "analysis.alpha = 2.0e7\n"
                                          "analysis.beta = 1.0e-4\n"
                                          "analysis.radius = 10.0\n"
                                          "analysis.grad_bound = 1.0e4\n",
                                    ("run",)),
    # p = 200: E overflows on the sampled ball, so moduli's sampled E and
    # run's pair_radius ** p are not finite (exit 1)
    "powersum_p200": (None, "name = powersum_p200\ndimension = 4\nseed = 3\n"
                            "objective.type = power_sum\n"
                            "objective.exponent = 200\n"
                            "objective.center = [10, 0, 0, 2]\n"
                            "objective.weights_low = 1\n"
                            "objective.weights_high = 2\n",
                      ("run", "moduli")),
    # a center whose E(0) overflows at p = 4 (exit 1)
    "powersum_huge_center": (None, "name = powersum_huge_center\ndimension = 4\nseed = 3\n"
                                   "objective.type = power_sum\n"
                                   "objective.exponent = 4\n"
                                   "objective.center = [1e90, 0, 0, 2]\n"
                                   "objective.weights_low = 1\n"
                                   "objective.weights_high = 2\n",
                             ("run", "moduli")),
}


def commands(cfg_dir: Path) -> list[tuple[str, list[str]]]:
    """(label, CLI arguments after the global flags) for every command."""
    out = []
    for name in ("quadratic", "least_squares", "powersum"):
        path = str(CONFIGS / f"{name}.cfg")
        out += [(f"run-{name}", ["run", path]),
                (f"moduli-{name}", ["moduli", path]),
                (f"compare-{name}", ["compare", path, "--algs", *VARIANTS])]
    for label, (base, extra, cmds) in DERIVED.items():
        path = cfg_dir / f"{label}.cfg"
        path.write_text(("" if base is None else (CONFIGS / f"{base}.cfg").read_text()) + extra)
        for cmd in cmds:
            algs = ["--algs", *VARIANTS] if cmd == "compare" else []
            out.append((f"{cmd}-{label}", [cmd, str(path), *algs]))
    for rows, cols, sparsity, seed in ((50, 200, 4, 7), (16, 16, 0, 2)):
        out.append((f"demo-cs-{rows}x{cols}-s{sparsity}-seed{seed}",
                    ["demo-cs", "--rows", str(rows), "--cols", str(cols),
                     "--sparsity", str(sparsity), "--seed", str(seed)]))
    return out


def strip_timing(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith("wall_time_s:")))


def run_all(outdir: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for label, args in commands(Path(tmp)):
            dest = outdir / label
            dest.mkdir(parents=True, exist_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
                code = main(["--output-dir", str(dest), *args])
            (dest / "stdout.txt").write_text(stdout.getvalue())
            (dest / "stderr.txt").write_text(
                "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
                + stderr.getvalue())
            (dest / "exit_code.txt").write_text(f"{code}\n")
            for path in dest.iterdir():
                strip_timing(path)
            print(f"{label}: exit {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: golden_outputs.py OUTDIR")
    run_all(Path(sys.argv[1]))
