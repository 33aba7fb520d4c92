"""Run one workload of the ordgroups benchmark and print its metrics.

    python3 benchmarks/run.py --workload selftest --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout: the program is imported from
`src/`, nothing is installed. Workloads (see workloads.py):

  bulk      in-process CLI commands on 10^6-row samples
  cli       one fresh `ordgroups` interpreter per command
  selftest  the acceptance suite in one warm process, fresh seed per op; not
            in BENCHMARK.json, since about 1 suite seed in 10 fails (see
            README.md), but runnable by hand and for its per-layer metrics

Each op is sent by one caller after the previous one returned (a closed loop
with one client). With --trace 0 the run starts SETUPS workload processes,
times each from spawn to ready (set-up), and lets the last one run whole
cycles of ops for --seconds. With --trace 1 it starts one, runs every op
plain and traced, and reports the per-layer metrics of tracer.py instead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics ({name: {value, unit}}). The lines before it restate the
metrics for a reader, with the workload's own figures (error_rate, and
suite_s or op_p90_ms where they apply). Ops that fail are logged on
standard error and counted, never retried.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".bench_work"
SETUPS = 9
DEADLINE_S = 170.0
# BLAS/OpenMP pools in the benchmark's processes; at most nproc
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "samples_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
# op_p90_ms is printed only when at least this many ops lie beyond it
P90_MIN_OPS = 100


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def _worker(argv: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Start one workload process: (seconds from spawn to ready, its later output)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"workload process exited with code {code} (see standard error)")
    return setup_s, rest


def timed_metrics(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    walls, rows = result["walls"], result["rows"]
    if not walls:
        raise BenchError("no op completed")
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(walls) * 1e3,
        "samples_per_s": sum(rows) / sum(walls),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [f"setup_s is the median of {len(setups)} set-ups",
             f"op_p50_ms is the median of {len(walls)} ops"]
    return values, notes


def workload_extras(workload: str, result: dict) -> list[str]:
    """The workload's own figures, printed for a reader but not gated."""
    lines = [f"error_rate     {result['failed'] / result['attempted']:.4f} "
             f"({result['failed']} of {result['attempted']} ops failed)"]
    walls = result.get("walls") or []
    if workload == "selftest" and walls:
        lines.append(f"suite_s        {statistics.median(walls):.4f} s (= op_p50_ms / 1000)")
    if workload == "cli" and walls:
        if len(walls) >= P90_MIN_OPS:
            p90 = statistics.quantiles(walls, n=10, method="inclusive")[-1]
            lines.append(f"op_p90_ms      {p90 * 1e3:.2f} ms")
        else:
            lines.append(f"op_p90_ms      not reported: {len(walls)} ops, "
                         f"needs {P90_MIN_OPS} (run longer with --seconds)")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "ordgroups" / "__init__.py").is_file():
        sys.stderr.write(f"no ordgroups source under {ROOT / 'src'}; "
                         "run from the root of a source checkout\n")
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    env = _env()
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work", str(WORK_DIR)]

    try:
        setups = []
        for _ in range(0 if args.trace else SETUPS - 1):
            setups.append(_worker(worker_argv + ["--setup-only"], env, deadline)[0])
        setup_s, out = _worker(worker_argv, env, deadline)
        setups.append(setup_s)
        result = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            values = result["layers"]
            units = {s["name"]: s["unit"] for s in tracing.metric_specs()}
            shown = {s["name"]: s["unit"] for s in tracing.metric_specs(suite_only=True)}
            notes = ["per-layer values are per op: totals over the traced ops / ops",
                     "* marks layers only the acceptance suite reaches (not in the result line)"]
        else:
            values, notes = timed_metrics(result, setups)
            units = shown = END_TO_END
    except (BenchError, json.JSONDecodeError, IndexError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed")
    for note in notes:
        print(f"  {note}")
    for name, unit in shown.items():
        mark = " " if name in units else "*"
        print(f" {mark}{name:<48} {values[name]:.6g} {unit}")
    for line in workload_extras(args.workload, result):
        print(f"  {line}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
