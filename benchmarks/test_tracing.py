"""Checks of the benchmark itself: tracing changes no result and leaves nothing
behind, the wrappers see module-internal calls, and BENCHMARK.json names
exactly the metrics run.py prints.

    python3 -m pytest benchmarks/test_tracing.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ordgroups import cli, jsonio, selftest  # noqa: E402


def _suite(seed):
    return jsonio.dumps(selftest.run_all(selftest.RunConfig(seed=seed, samples=1000)))


def test_traced_selftest_report_is_byte_identical_and_unwrapped():
    before = tracer.snapshot()
    plain = _suite(0)
    t = tracer.Tracer()
    with t:
        traced = _suite(0)
    assert traced == plain
    assert tracer.snapshot() == before
    assert t.spans


@pytest.mark.parametrize("index", range(len(workloads.BULK_CYCLE)))
def test_traced_cli_report_is_byte_identical(tmp_path, index):
    request = workloads.BULK_CYCLE[index]
    # the bulk requests at a small sample count: same code paths, quick
    argv = [*request.argv[:-2], "--samples", "500", "--seed", "3"]
    before = tracer.snapshot()
    reports = []
    for traced in (False, True):
        out = tmp_path / f"{traced}.json"
        t = tracer.Tracer()
        if traced:
            with t:
                code = cli.main([*argv, "--out", str(out)])
        else:
            code = cli.main([*argv, "--out", str(out)])
        assert workloads.verdict_errors(request, code, out.read_text()) == []
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert tracer.snapshot() == before


def test_wrappers_catch_module_internal_calls():
    t = tracer.Tracer()
    with t:
        _suite(0)
    layers = tracer.aggregate(t.spans, t.sample_keys, ops=1)
    assert layers["tolerance.sample.calls"] == 4158
    assert layers["classify.classify_ordered.calls"] == 400
    assert layers["classify.verify_witness.calls"] == 625
    assert layers["orders.check_translation_invariance.calls"] == 418
    assert layers["tolerance.sample.distinct_ratio"] == pytest.approx(61 / 4158)
    for name in tracer.CRITERIA:
        assert layers[f"selftest.{name}.busy_s"] > 0
    reported = {m["name"] for m in tracer.metric_specs()}
    assert "selftest.criterion_one_param_family.busy_s" not in reported
    assert reported | set(layers) == {m["name"] for m in tracer.metric_specs(suite_only=True)}


def test_aggregate_busy_and_self_time():
    spans = [
        [0, "groups.mul", 0.0, 10.0, -1, 4],   # a product law's mul ...
        [0, "groups.mul", 1.0, 3.0, 0, 4],     # ... calls its factors' mul
        [0, "groups.mul", 4.0, 8.0, 0, 4],
        [0, "orders.lex_less", 12.0, 13.0, -1, 7],
    ]
    layers = tracer.aggregate(spans, set(), ops=2)
    assert layers["groups.mul.calls"] == 1.5
    assert layers["groups.mul.rows"] == 6
    assert layers["groups.mul.busy_s"] == 5.0
    assert layers["groups.mul.self_s"] == 5.0
    assert layers["orders.lex_less.busy_s"] == 0.5


def test_verdicts():
    control = workloads.CLI_CYCLE[3]
    assert workloads.verdict_errors(control, 4, '{"translation":{"passed":false}}') == []
    assert workloads.verdict_errors(control, 0, '{"translation":{"passed":true}}') != []
    catalog = workloads.CLI_CYCLE[-1]
    assert workloads.verdict_errors(catalog, 0, json.dumps({"classes": [{}] * 17})) == []
    assert workloads.verdict_errors(catalog, 0, json.dumps({"classes": [{}] * 16})) != []
    assert workloads.verdict_errors(workloads.SELFTEST_CYCLE[0], 0, "not json") != []


def test_ops_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        ops = [workloads.op(name, 7, i) for i in range(20)]
        assert ops == [workloads.op(name, 7, i) for i in range(20)]
        assert len({o.seed for o in ops}) == 20
        warm = workloads.warmup(name, 7)
        assert warm is None or warm.seed not in {o.seed for o in ops}


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == tracer.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GATED)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
