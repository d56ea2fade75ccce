"""greedymin benchmark: one workload, fresh CLI processes, medians over a timed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload quad_run --seed 1 --seconds 25 --trace 0

Each repeat runs the workload's ``greedymin`` commands (``--quiet`` and a
scratch ``--output-dir``), one fresh process per command, with BLAS pinned
to one thread in the child processes only.  One untimed warm-up repeat
comes first.  Repeats continue until ``--seconds`` have passed; the
reported value of each metric is its median over the repeats, and the
end-to-end times are scaled to a reference host speed (see ``HOST_REF_S``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats and prints the per-layer metrics, including
the tracing overhead.  The last line of stdout is the result as JSON.
Every command's outputs are checked (see ``check.py``); failed commands
count in ``failed`` and make ``correct`` false.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import check
import layers
import tracer
from workloads import WORKLOADS, Command, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
DEFAULT_SEED = 1
MIN_REPEATS = 3
# End-to-end times are scaled to a reference host speed by
# sqrt(HOST_REF_S / host.numpy_s), where host.numpy_s is the run's median
# time from process launch until numpy is imported, sampled in every
# command (child.py imports numpy before greedymin, so no change to
# greedymin moves it) and in one probe process after every repeat.  The
# shared host's speed moves start-up and the workloads together, the
# workloads about half as much in log terms; see README.md.
HOST_REF_S = 0.125
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in PIN_VARS})
    return env


def spawn(argv: list[str], stdout, stderr) -> tuple[int, float, object]:
    """Run a child to completion; return (exit code, wall seconds, rusage)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, env=child_env(), stdout=stdout, stderr=stderr,
                            cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_command(cmd: Command, outdir: Path, traced: bool) -> dict:
    """One fresh ``greedymin`` process; timings, exit code and hook record."""
    outdir.mkdir(parents=True)
    record_path = str(outdir.parent / f"{outdir.name}.record.json")
    argv = [sys.executable, str(BENCH_DIR / "child.py"), record_path, str(SRC),
            "1" if traced else "0", "--", "--quiet", "--output-dir", str(outdir),
            *cmd.args]
    launch = time.monotonic()
    with open(outdir.parent / f"{outdir.name}.stderr", "wb") as err:
        code, wall, usage = spawn(argv, subprocess.DEVNULL, err)
    result = {"code": code, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
              "rss_mb": usage.ru_maxrss / 1024.0, "record": None}
    if os.path.exists(record_path):
        record = json.loads(Path(record_path).read_text())
        result["record"] = record
        result["record_path"] = record_path
        result["startup"] = record["t_main"] - launch
        result["host"] = record["t_numpy"] - launch
        if record["first_solver"] is not None:
            result["setup"] = record["first_solver"] - launch
    return result


def check_command(cmd: Command, res: dict, outdir: Path, first: dict,
                  reference: dict | None) -> str | None:
    """None when the command passed, else the reason it failed."""
    if res["code"] != 0:
        return f"exit code {res['code']}"
    if res["record"] is None:
        return "no hook record written"
    try:
        obs = check.observables(cmd.kind, outdir, res["record"]["supports"])
        digest = check.output_digest(outdir)
        if first.setdefault("digest", digest) != digest:
            raise check.CheckError("outputs differ from the first repeat of this run")
        if first.setdefault("supports", res["record"]["supports"]) != res["record"]["supports"]:
            raise check.CheckError("selected atoms differ from the first repeat of this run")
        if reference is not None:
            check.compare_to_reference(obs, reference)
    except (check.CheckError, OSError, ValueError, KeyError) as exc:
        return str(exc)
    return None


class Runner:
    """Runs the workload's commands and checks every output."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.commands = generate(workload, seed, workdir / "inputs")
        self.workdir = workdir
        refs = check.load_reference(REFERENCE_DIR, workload, seed)
        self.references = refs if refs is not None else [None] * len(self.commands)
        self.firsts = [{} for _ in self.commands]
        self.attempted = 0
        self.failures: list[str] = []
        self.count = 0

    def repeat(self, traced: bool) -> dict:
        """Run every command once; return the repeat's measured values."""
        self.count += 1
        results, per_cmd, out_bytes = [], [], 0
        for i, cmd in enumerate(self.commands):
            outdir = self.workdir / f"r{self.count}c{i}"
            res = run_command(cmd, outdir, traced)
            self.attempted += 1
            reason = check_command(cmd, res, outdir, self.firsts[i], self.references[i])
            if reason is not None:
                self.failures.append(f"repeat {self.count} {cmd.kind}: {reason}")
            results.append(res)
            out_bytes += sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
            if traced and res["record"] is not None:
                spans = tracer.read_spans(res["record_path"], res["record"]["span_count"])
                per_cmd.append((res["record"], layers.span_metrics(res["record"], spans)))
            shutil.rmtree(outdir)
        host = [r["host"] for r in results if "host" in r] + [numpy_probe()]
        setups = [r["setup"] for r in results if "setup" in r]
        out = {"wall_s": sum(r["wall"] for r in results),
               "cpu_s": sum(r["cpu"] for r in results),
               "setup_s": sum(setups) if setups else None,
               "peak_rss_mb": max(r["rss_mb"] for r in results),
               "host": host}
        if traced:
            out["layers"] = layers.workload_metrics([m for _, m in per_cmd])
            out["layers"]["cli.startup_s"] = sum(r.get("startup", 0.0) for r in results)
            out["layers"]["harness.output_bytes"] = out_bytes
            out["missing"] = {k: v for rec, _ in per_cmd for k, v in rec["missing"].items()}
        return out


def numpy_probe() -> float:
    """Seconds from launch until numpy is imported, in a process that does no more."""
    launch = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", "import numpy, time; print(time.monotonic())"],
                          env=child_env(), capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout) - launch


def calibrate(out_path: Path) -> float:
    """Launch-to-exit seconds of the host-speed reference program."""
    with open(out_path, "wb") as out:
        code, wall, _ = spawn([sys.executable, str(BENCH_DIR / "calib.py")], out,
                              subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"calibration program exited with {code}")
    return wall


def environment(seed: int, calib: dict) -> dict:
    """Host, library and pinning facts recorded with every result."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    env = child_env()
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": calib["numpy"],
            "blas": calib["blas"], "child_env": {v: env[v] for v in PIN_VARS},
            "git_commit": commit, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "greedymin" / "cli.py").is_file():
        print(f"error: greedymin sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 2

    workdir = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    runner = Runner(args.workload, args.seed, workdir)
    calib_out = workdir / "calib.json"
    calibs = [calibrate(calib_out)]
    runner.repeat(traced=False)      # warm-up: bytecode caches, first-repeat outputs
    plain, traced = [], []
    start = time.monotonic()
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        (traced if use_trace else plain).append(runner.repeat(use_trace))
        enough = len(plain) >= MIN_REPEATS and (not args.trace or len(traced) >= MIN_REPEATS)
        if enough and time.monotonic() - start >= args.seconds:
            break
    calibs.append(calibrate(calib_out))

    failed = len(runner.failures)
    for reason in runner.failures:
        print(f"FAIL {reason}", file=sys.stderr)
    if any(r["setup_s"] is None for r in plain):
        print("error: the greedy solver entry was never reached; setup_s is undefined",
              file=sys.stderr)
        return 1
    measured = {k: median([r[k] for r in plain]) for k in END_TO_END}
    numpy_s = median([h for r in plain + traced for h in r["host"]])
    scale = (HOST_REF_S / numpy_s) ** 0.5
    e2e = {k: v * scale if END_TO_END[k] == "s" else v for k, v in measured.items()}
    calib_s = median(calibs)

    print(f"workload {args.workload}  seed {args.seed}  repeats {len(plain)} untraced"
          + (f", {len(traced)} traced" if args.trace else ""))
    print(f"  host.numpy_s {numpy_s:.4f} s: times scaled by "
          f"sqrt({HOST_REF_S} / {numpy_s:.4f}) = {scale:.4f}")
    for k, unit in END_TO_END.items():
        print(f"  {k:12s} {e2e[k]:12.4f} {unit}   (measured {measured[k]:.4f} {unit})")
    print(f"  {'fail_ratio':12s} {failed / runner.attempted:12.4f} "
          f"({failed}/{runner.attempted} commands)")
    print(f"  host.calib_s {calib_s:.4f} s (diagnostic)")
    print("env " + json.dumps(environment(args.seed, json.loads(calib_out.read_text()))))

    if args.trace:
        host = {"host.calib_s": calib_s, "host.numpy_s": numpy_s,
                "trace.overhead_s": median([r["wall_s"] for r in traced]) - measured["wall_s"]}
        metrics = per_layer_metrics(traced, host)
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer_metrics(traced: list[dict], host: dict[str, float]) -> dict:
    """Medians over the traced repeats, or absent where a hook was missing."""
    missing: dict[str, str] = {}
    for r in traced:
        missing.update(r["missing"])
    out = {}
    for name, (unit, hooks) in layers.METRICS.items():
        gone = [h for h in hooks if h in missing]
        if gone:
            reason = "; ".join(f"{h}: {missing[h]}" for h in gone)
            print(f"warning: {name} absent ({reason})", file=sys.stderr)
            out[name] = {"value": None, "unit": unit, "absent": reason}
            continue
        value = host[name] if name in host else median(
            [r["layers"].get(name, 0.0) for r in traced])
        out[name] = {"value": value, "unit": unit}
        print(f"  {name:48s} {value:14.6g} {unit}")
    return out


if __name__ == "__main__":
    sys.exit(main())
