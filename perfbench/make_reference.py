"""Store reference observables for the output check.

Usage (from the repository root):

    python3 perfbench/make_reference.py --seeds 0 1 2

Runs every workload once per seed with the current sources and writes
``perfbench/reference/<workload>-seed<seed>.json``.  Regenerate only when
a change is meant to alter the outputs, and say so with the change.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

import check
from run import BENCH_DIR, REFERENCE_DIR, run_command
from workloads import WORKLOADS, generate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    workdir = BENCH_DIR / "_work" / "reference"
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for workload in WORKLOADS:
            for seed in args.seeds:
                shutil.rmtree(workdir, ignore_errors=True)
                commands = []
                for i, cmd in enumerate(generate(workload, seed, workdir / "inputs")):
                    outdir = workdir / f"c{i}"
                    res = run_command(cmd, outdir, traced=False)
                    if res["code"] != 0 or res["record"] is None:
                        print(f"{workload} seed {seed}: {cmd.kind} failed "
                              f"(exit {res['code']})", file=sys.stderr)
                        return 1
                    commands.append(check.observables(cmd.kind, outdir,
                                                      res["record"]["supports"]))
                path = check.reference_path(REFERENCE_DIR, workload, seed)
                path.write_text(json.dumps({"workload": workload, "seed": seed,
                                            "commands": commands}) + "\n")
                print(f"wrote {path.relative_to(BENCH_DIR.parent)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
