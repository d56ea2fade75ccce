"""The four benchmark workloads, generated from a workload seed.

Each workload is a list of ``greedymin`` CLI commands.  Config files are
written into a scratch directory; the program sees only those files and
the command-line arguments built here.  The problem sizes are scaled up
from the shipped ``configs/`` (which finish in 10-20 ms, mostly interpreter
start-up) so that solver and analysis work dominates each command.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("quad_run", "lsq_compare", "powersum_verify", "demo_cs")

LSQ_VARIANTS = ("omp", "wcga:t=0.5,strategy=first_admissible",
                "wcga:t=0.7,strategy=random_admissible")

# Restricted solve dominates: exact normal-equation solve over a growing
# n x k atom matrix at every one of ~300 steps.
QUAD_CFG = """\
name = quad_run
dimension = 3000
seed = {seed}
output_dir = out
objective.type = diagonal_quadratic
objective.center_sparsity = 300
objective.weights_low = 0.5
objective.weights_high = 2.0
dictionary.type = canonical
solver.algorithm = omp
solver.max_steps = 310
analysis.tail_fraction = 1.0
"""

# Dense matvecs, lstsq restricted solves and SVD set-up; compare's own
# bound loop runs with WCGA weakness schedules.
LSQ_CFG = """\
name = lsq_compare
dimension = 600
seed = {seed}
output_dir = out
objective.type = least_squares
objective.rows = 1200
objective.center_sparsity = 60
dictionary.type = canonical
solver.algorithm = omp
solver.max_steps = 100
analysis.tail_fraction = 1.0
"""

# Monte Carlo analysis dominates; inner solves take the iterative
# Newton/Armijo path because p = 4 has no exact restricted solve.
POWERSUM_CFG = """\
name = powersum_verify
dimension = 200
seed = {seed}
output_dir = out
objective.type = power_sum
objective.exponent = 4
objective.center_sparsity = 20
objective.weights_low = 0.001
objective.weights_high = 1000
objective.weights_log = true
dictionary.type = rotated
solver.algorithm = omp
solver.max_steps = 200
solver.max_inner_iters = 3000
analysis.tail_fraction = 1.0
analysis.q = 2.0
analysis.p = 4.0
analysis.sample_count = 400
"""

DEMO_ROWS, DEMO_COLS, DEMO_SPARSITY = 300, 1500, 30


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its kind (the subcommand) and its arguments."""

    kind: str
    args: tuple[str, ...]


def generate(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's inputs for ``seed`` into ``workdir``; return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    workdir.mkdir(parents=True, exist_ok=True)

    def write_cfg(name: str, template: str) -> str:
        path = workdir / f"{name}.cfg"
        path.write_text(template.format(seed=seed))
        return str(path)

    if workload == "quad_run":
        return [Command("run", ("run", write_cfg(workload, QUAD_CFG)))]
    if workload == "lsq_compare":
        cfg = write_cfg(workload, LSQ_CFG)
        return [Command("compare", ("compare", cfg, "--algs", *LSQ_VARIANTS))]
    if workload == "powersum_verify":
        cfg = write_cfg(workload, POWERSUM_CFG)
        return [Command("run", ("run", cfg)), Command("moduli", ("moduli", cfg))]
    return [Command("demo-cs", ("demo-cs", "--rows", str(DEMO_ROWS),
                                "--cols", str(DEMO_COLS),
                                "--sparsity", str(DEMO_SPARSITY), "--seed", str(seed)))]
