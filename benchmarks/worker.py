"""One workload process: set up, say `ready`, run timed ops, print raw results.

run.py starts this file and times it from spawn to the `ready` line: that is
set-up (interpreter start, imports, input generation and, for the in-process
workloads, one untimed warm-up op). Unless --setup-only is given, the worker
then runs whole cycles of ops, one at a time, until --seconds have passed,
and prints one JSON line of raw results.

With --trace 1 every op runs twice, once plain and once traced, in
alternating order; the two reports must be byte-identical. Per-layer metrics
come from the traced runs, and the spans are written to the work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
CLI_ENTRY = HERE / "cli_entry.py"
CHILD_TIMEOUT_S = 120


class InProcess:
    """Runs ops in this process: the selftest suite or `ordgroups.cli.main`."""

    def __init__(self, workload: str, work: Path):
        start = time.perf_counter()
        importlib.import_module("ordgroups.cli")
        self.import_s = time.perf_counter() - start
        self.workload = workload
        self.out = work / f"report-{os.getpid()}.json"
        # modules, not functions: a tracer rebinds the module attributes
        self.cli = sys.modules["ordgroups.cli"]
        self.jsonio = sys.modules["ordgroups.jsonio"]
        self.selftest = sys.modules["ordgroups.selftest"]

    def call(self, op: workloads.Op, tracer=None):
        """(wall seconds, exit code, report text) of one op."""
        if tracer is not None:
            tracer.op = op.index
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            if self.workload == "selftest":
                cfg = self.selftest.RunConfig(seed=op.seed, samples=op.request.rows)
                text = self.jsonio.dumps(self.selftest.run_all(cfg))
                code = 0
            else:
                code = self.cli.main([*op.argv, "--out", str(self.out)])
            wall = time.perf_counter() - start
        if self.workload != "selftest":
            text = self.out.read_text() if self.out.exists() else None
            self.out.unlink(missing_ok=True)
        return wall, code, text

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Subprocess:
    """Runs each op as a fresh interpreter executing the ordgroups entry point."""

    def __init__(self, workload: str, work: Path):
        self.trace_file = work / f"spans-child-{os.getpid()}.json"
        self.import_s: list[float] = []
        self.process_s: list[float] = []

    def call(self, op: workloads.Op, tracer=None):
        env = dict(os.environ)
        if tracer is not None:
            env["BENCH_TRACE_FILE"] = str(self.trace_file)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(CLI_ENTRY), *op.argv], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        if "Traceback" in proc.stderr:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"op {op.index} printed a traceback")
        if tracer is None:
            self.process_s.append(wall)
        else:
            self._merge(tracer, op.index)
        return wall, proc.returncode, proc.stdout

    def _merge(self, tracer, index: int) -> None:
        child = json.loads(self.trace_file.read_text())
        self.trace_file.unlink()
        self.import_s.append(child["import_s"])
        offset = len(tracer.spans)
        for _op, name, start, end, parent, units in child["spans"]:
            tracer.spans.append([index, name, start, end, parent + offset if parent >= 0 else -1, units])
        tracer.sample_keys.update((index, *key[1:]) for key in child["sample_keys"])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_op(runner, op, tracer=None):
    """(wall, report text, reasons the op failed)."""
    try:
        wall, code, text = runner.call(op, tracer)
    except Exception as exc:  # the op boundary: record and count the failure
        traceback.print_exc(file=sys.stderr)
        return None, None, [f"raised {type(exc).__name__}: {exc}"]
    return wall, text, workloads.verdict_errors(op.request, code, text)


def run_pair(runner, op, tracer):
    """Run op plain and traced, alternating which goes first so that warm
    caches favour neither: (plain wall, traced wall, reasons the op failed)."""
    order = (None, tracer) if op.index % 2 == 0 else (tracer, None)
    runs = {t is tracer: run_op(runner, op, t) for t in order}
    (wall, text, errors), (twall, ttext, terrors) = runs[False], runs[True]
    errors = errors + [f"traced: {e}" for e in terrors]
    if not errors and text != ttext:
        errors.append("traced report differs from the plain report")
    return wall, twall, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="directory for reports and span files")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    work = Path(args.work)

    runner = (Subprocess if args.workload == "cli" else InProcess)(args.workload, work)
    warm = workloads.warmup(args.workload, args.seed)
    if warm is not None:
        runner.call(warm)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    cycle = len(workloads.CYCLES[args.workload])
    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls, rows = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        for _ in range(cycle):
            op = workloads.op(args.workload, args.seed, attempted)
            attempted += 1
            if tracer is None:
                wall, _text, errors = run_op(runner, op)
            else:
                wall, twall, errors = run_pair(runner, op, tracer)
                if twall is not None:
                    traced_walls.append(twall)
            if errors:
                failed += 1
                kind = op.request.argv[0] if op.request.argv else "selftest"
                sys.stderr.write(f"op {op.index} ({kind}, seed {op.seed}) failed: "
                                 f"{'; '.join(errors)}\n")
            if wall is not None:
                walls.append(wall)
                rows.append(op.request.rows)

    result = {"attempted": attempted, "failed": failed}
    if tracer is None:
        result.update(walls=walls, rows=rows, peak_rss_mb=runner.peak_rss_mb())
    else:
        layers = tracing.aggregate(tracer.spans, tracer.sample_keys, attempted)
        if isinstance(runner, Subprocess):
            layers["cli.import_s"] = statistics.fmean(runner.import_s or [0.0])
            layers["cli.process_s"] = statistics.fmean(runner.process_s or [0.0])
        else:
            layers["cli.import_s"] = runner.import_s
            layers["cli.process_s"] = 0.0
        layers["trace.overhead_ratio"] = sum(traced_walls) / sum(walls) if walls else 0.0
        result["layers"] = layers
        (work / f"spans-{args.workload}.json").write_text(json.dumps(tracer.dump()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
