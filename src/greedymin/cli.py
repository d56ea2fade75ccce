"""Command-line front end.

Exit codes: 0 success, 1 execution/config error, 2 the experiment ran but a
theory check was violated.
"""
from __future__ import annotations

import argparse
import sys

from .config import load_config
from .harness import run_compare, run_demo_cs, run_experiment, run_moduli


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedymin",
        description="Greedy convex minimization over orthonormal dictionaries "
                    "with convergence-rate verification.")
    parser.add_argument("--output-dir", default=None,
                        help="override the config's output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and check the rate bounds")
    p_run.add_argument("config")

    p_mod = sub.add_parser("moduli", help="estimate the smoothness/convexity moduli")
    p_mod.add_argument("config")

    p_cmp = sub.add_parser("compare", help="run several solver variants on one problem")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--algs", nargs="+", required=True,
                       help="variants like omp or wcga:t=0.5,strategy=first_admissible")

    p_demo = sub.add_parser("demo-cs", help="sparse-recovery demo on a Gaussian matrix")
    p_demo.add_argument("--rows", type=int, required=True)
    p_demo.add_argument("--cols", type=int, required=True)
    p_demo.add_argument("--sparsity", type=int, required=True)
    p_demo.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo-cs":
            status = run_demo_cs(args.rows, args.cols, args.sparsity, args.seed,
                                 output_dir=args.output_dir or "runs", quiet=args.quiet)
        else:
            cfg = load_config(args.config)
            if args.command == "run":
                status = run_experiment(cfg, output_dir=args.output_dir, quiet=args.quiet)
            elif args.command == "moduli":
                status = run_moduli(cfg, output_dir=args.output_dir, quiet=args.quiet)
            else:
                status = run_compare(cfg, args.algs, output_dir=args.output_dir,
                                     quiet=args.quiet)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if status == "OK" else 2


if __name__ == "__main__":
    sys.exit(main())
