"""Submodules load on first use: a CLI subcommand runs only the modules it calls.

Each check starts a fresh interpreter, since this test process has long since
loaded every module. A lazy module is told apart by `type(m)`: reading
`m.__class__`, or any other attribute, would load it.
"""

import json
import os
import subprocess
import sys

import pytest

import ordgroups

_SRC = os.path.dirname(os.path.dirname(ordgroups.__file__))

# argv: the --out file, then the subcommand
_CLI_PROBE = """
import json, sys, types

import ordgroups.cli

code = ordgroups.cli.main(sys.argv[2:] + ["--out", sys.argv[1]])
print(json.dumps({
    "code": code,
    "executed": sorted(name for name, m in sys.modules.items()
                       if name.startswith("ordgroups.") and type(m) is types.ModuleType),
    "registered": sorted(name for name in sys.modules if name.startswith("ordgroups.")),
    "futures": "concurrent.futures" in sys.modules,
}))
"""

_EXPORTS_PROBE = """
import importlib, json

import ordgroups

listed = dir(ordgroups)
print(json.dumps([name for name in ordgroups.__all__
                  if name not in listed or getattr(ordgroups, name) is not getattr(
                      importlib.import_module(f"ordgroups.{ordgroups._EXPORTS[name]}"), name)]))
"""

_EVERY = [f"ordgroups.{m}" for m in ("actions", "classify", "cli", "cohomology", "errors",
                                     "groups", "jsonio", "orders", "selftest", "tolerance")]


def _fresh(code, *argv):
    """The JSON a fresh interpreter running `code` with `argv` prints."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return json.loads(proc.stdout)


def test_eval_runs_no_checking_module(tmp_path):
    out = tmp_path / "out"
    got = _fresh(_CLI_PROBE, str(out), "eval", "--law", '{"family":"e_c","params":{"c":0.5}}',
                 "--op", "mul", "--a", "1,2,3", "--b", "4,5,6")
    assert got["code"] == 0
    assert json.loads(out.read_text()) == {"result": [5.0, 7.0, 7.5]}
    assert got["executed"] == [f"ordgroups.{m}" for m in ("cli", "errors", "groups", "jsonio",
                                                          "tolerance")]
    # unexecuted, yet in sys.modules for code that looks them up there
    assert got["registered"] == _EVERY


def test_classify_runs_no_cohomology_actions_or_selftest(tmp_path):
    out = tmp_path / "out"
    got = _fresh(_CLI_PROBE, str(out), "classify", "--law", '{"family":"e_c","params":{"c":-4}}',
                 "--order", "0,1,2")
    assert got["code"] == 0
    assert json.loads(out.read_text())["label"] == "E_minus"
    assert got["executed"] == [f"ordgroups.{m}" for m in ("classify", "cli", "errors", "groups",
                                                          "jsonio", "orders", "tolerance")]
    assert got["registered"] == _EVERY
    # 1000 samples fit in one row block: no worker thread, no thread pool
    assert got["futures"] is False


@pytest.mark.parametrize("argv", [
    ("cocycle-check", "--cocycle", '{"cocycle":"heis"}'),
    ("axioms", "--law", '{"family":"from_cocycle","params":{"cocycle":"g3","k":1}}'),
], ids=["cocycle-check", "axioms-from_cocycle"])
def test_cocycle_commands_run_no_orders_classify_or_selftest(tmp_path, argv):
    out = tmp_path / "out"
    got = _fresh(_CLI_PROBE, str(out), *argv)
    assert got["code"] == 0
    assert got["executed"] == [f"ordgroups.{m}" for m in ("actions", "cli", "cohomology", "errors",
                                                          "groups", "jsonio", "tolerance")]
    assert got["registered"] == _EVERY


def test_a_draw_past_one_block_loads_the_thread_pool(tmp_path):
    out = tmp_path / "out"
    got = _fresh(_CLI_PROBE, str(out), "axioms", "--law", '{"family":"t_k","params":{"k":1}}',
                 "--samples", "300000")
    assert got["code"] == 0
    assert got["futures"] is True


def test_every_public_name_is_its_submodule_s_attribute():
    # the names that fail to resolve, or that dir() leaves out
    assert _fresh(_EXPORTS_PROBE) == []
    assert len(set(ordgroups.__all__)) == len(ordgroups.__all__) == 58
