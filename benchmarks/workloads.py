"""The benchmark's workloads: which ops each sends and the verdict each expects.

A workload is a fixed cycle of requests. Op `i` of a run with workload seed
`n` is request `i % len(cycle)` with seed `n * SEED_BLOCK + i`, so every op
gets a fresh seed and the same workload seed always gives the same ops. The
untimed warm-up op uses the last seed of the block, which no timed op reaches.

This module imports nothing from ordgroups: the expected verdicts are known
from the requests themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SEED_BLOCK = 1_000_000
SELFTEST_SAMPLES = 1000
BULK_SAMPLES = 1_000_000
CLI_SAMPLES = 1000  # the ordgroups default; cli ops do not pass --samples

WORKLOADS = ("selftest", "bulk", "cli")
# the workloads BENCHMARK.json lists. selftest is left out because the suite
# fails its criterion 8 on about 1 seed in 10 at this code (README.md,
# Correctness), and a listed workload must have no failing op; it stays
# runnable, and still counts those failures, when started by name.
GATED = ("bulk", "cli")


@dataclass(frozen=True)
class Request:
    """One entry of a workload's cycle.

    argv is the ordgroups command line without --seed (empty for a selftest
    op); rows is the number of sample rows the op requests (0 when it draws
    none); expect_exit and expect are the verdict: the exit code and fields
    the JSON report must hold. Nested dicts match nested fields, and an int
    expected for a list field is the list's length.
    """

    argv: tuple[str, ...]
    rows: int
    expect_exit: int = 0
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    request: Request
    seed: int
    index: int

    @property
    def argv(self) -> list[str]:
        return [*self.request.argv, "--seed", str(self.seed)]


def _law(family: str, **params) -> str:
    return json.dumps({"family": family, "params": params}, sort_keys=True)


def _witness_request() -> tuple[str, ...]:
    # the README example: semidirect_rr(2) -> semidirect_rr(1) by diag(1, 2)
    return ("witness-verify", "--source", _law("semidirect_rr", c=2.0),
            "--target", _law("semidirect_rr", c=1.0), "--matrix", "[[1,0],[0,2]]",
            "--source-order", "1,0", "--target-order", "1,0")


SELFTEST_CYCLE = (Request((), SELFTEST_SAMPLES, expect={"passed": True}),)

_BULK = ("--samples", str(BULK_SAMPLES))
BULK_CYCLE = (
    Request(("axioms", "--law", _law("t_k", k=1.0), *_BULK), BULK_SAMPLES),
    Request(("order-check", "--law", _law("k_cd", c=1.0, d=1.0), "--order", "0,1,2",
             "--normal-coords", "1,2", *_BULK), BULK_SAMPLES),
    Request(("order-check", "--law", _law("semidirect_rr", c=1.0), "--order", "1,0", *_BULK),
            BULK_SAMPLES),
    Request(("classify", "--law", _law("e_c", c=-4.0), "--order", "0,1,2", *_BULK),
            BULK_SAMPLES, expect={"label": "E_minus"}),
    Request(("classify", "--law", _law("g_cd", c=1.0, d=2.0), "--order", "0,1,2", *_BULK),
            BULK_SAMPLES, expect={"label": "ProdAff_order_zyx"}),
    Request(("classify", "--law", _law("t_k", k=1.0), "--order", "2,1,0", *_BULK),
            BULK_SAMPLES, expect={"label": "T_plus"}),
    Request((*_witness_request(), *_BULK), BULK_SAMPLES),
    Request(("cocycle-check", "--cocycle", '{"cocycle":"g3","k":1}', *_BULK), BULK_SAMPLES),
)

CLI_CYCLE = (
    # e_c(1/2) is the Heisenberg chart: z = 3 + 6 + (1*5 - 2*4)/2
    Request(("eval", "--law", _law("e_c", c=0.5), "--op", "mul", "--a", "1,2,3", "--b", "4,5,6"),
            0, expect={"result": [5.0, 7.0, 7.5]}),
    Request(("axioms", "--law", _law("t_k", k=1.0)), CLI_SAMPLES),
    Request(("order-check", "--law", _law("semidirect_rr", c=1.0), "--order", "1,0"), CLI_SAMPLES),
    # the documented non-ordered control: the normal coordinate first fails
    Request(("order-check", "--law", _law("semidirect_rr", c=1.0), "--order", "0,1"), CLI_SAMPLES,
            expect_exit=4, expect={"translation": {"passed": False}}),
    Request(("cocycle-check", "--cocycle", '{"cocycle":"heis","c":0.5}'), CLI_SAMPLES,
            expect={"passed": True}),
    Request(("classify", "--law", _law("e_c", c=-4.0), "--order", "0,1,2"), CLI_SAMPLES,
            expect={"label": "E_minus"}),
    # without --order: every e_c chart is the Heisenberg group
    Request(("classify", "--law", _law("e_c", c=-4.0)), CLI_SAMPLES, expect={"label": "Heis"}),
    Request(_witness_request(), CLI_SAMPLES, expect={"verification": {"passed": True}}),
    Request(("catalog",), 0, expect={"classes": 17}),
)

CYCLES = {"selftest": SELFTEST_CYCLE, "bulk": BULK_CYCLE, "cli": CLI_CYCLE}
# the untimed warm-up op: the cheapest request of each cycle
WARMUP = {"selftest": SELFTEST_CYCLE[0], "bulk": BULK_CYCLE[-1], "cli": None}


def op(workload: str, seed: int, index: int) -> Op:
    cycle = CYCLES[workload]
    return Op(cycle[index % len(cycle)], seed * SEED_BLOCK + index, index)


def warmup(workload: str, seed: int) -> Op | None:
    request = WARMUP[workload]
    return None if request is None else Op(request, seed * SEED_BLOCK + SEED_BLOCK - 1, -1)


def verdict_errors(request: Request, exit_code: int, report_text: str | None) -> list[str]:
    """Why an op's outcome differs from its expected verdict; empty when it matches."""
    errors = []
    if exit_code != request.expect_exit:
        errors.append(f"exit {exit_code}, expected {request.expect_exit}")
    if not request.expect:
        return errors
    try:
        report = json.loads(report_text or "")
    except json.JSONDecodeError:
        return errors + ["report is not JSON"]
    errors += _mismatches(request.expect, report, "")
    if errors and isinstance(report, dict) and "criteria" in report:
        failing = [c["name"] for c in report["criteria"] if not c["passed"]]
        errors.append(f"failing criteria: {', '.join(failing)}")
    return errors


def _mismatches(expect: dict, report, path: str) -> list[str]:
    out = []
    for key, want in expect.items():
        where = f"{path}.{key}"
        if not isinstance(report, dict) or key not in report:
            out.append(f"{where} missing")
            continue
        got = report[key]
        if isinstance(want, dict):
            out += _mismatches(want, got, where)
        elif isinstance(want, int) and not isinstance(want, bool) and isinstance(got, list):
            if len(got) != want:
                out.append(f"{where} has {len(got)} entries, expected {want}")
        elif got != want:
            out.append(f"{where} = {got!r}, expected {want!r}")
    return out
