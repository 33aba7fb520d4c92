"""CLI surface: subcommands, exit codes, deterministic JSON output."""

import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ordgroups.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_mul_central_chart(capsys):
    code, out = run_cli(
        capsys, "eval", "--law", '{"family":"e_c","params":{"c":0.5}}',
        "--op", "mul", "--a", "1,2,3", "--b", "4,5,6")
    assert code == 0
    assert json.loads(out) == {"result": [5.0, 7.0, 7.5]}


def test_eval_mul_zeros(capsys):
    code, out = run_cli(
        capsys, "eval", "--law", '{"family":"t_k","params":{"k":1}}',
        "--op", "mul", "--a", "0,0,0", "--b", "0,0,0")
    assert code == 0
    assert json.loads(out) == {"result": [0.0, 0.0, 0.0]}


def test_eval_mul_nonsplit_chart(capsys):
    code, out = run_cli(
        capsys, "eval", "--law", '{"family":"t_k","params":{"k":1}}',
        "--op", "mul", "--a", "0,0,1", "--b", "0,1,0")
    assert code == 0
    result = json.loads(out)["result"]
    assert result[0] == pytest.approx(np.e, abs=1e-12)
    assert result[1] == pytest.approx(np.e, abs=1e-12)
    assert result[2] == 1.0


def test_eval_inv_and_conj_and_comm(capsys):
    code, out = run_cli(
        capsys, "eval", "--law", '{"family":"semidirect_rr","params":{"c":1}}',
        "--op", "inv", "--a", "1,0")
    assert code == 0 and json.loads(out)["result"] == [-1.0, 0.0]

    code, out = run_cli(
        capsys, "eval", "--law", '{"family":"k_cd","params":{"c":2,"d":3}}',
        "--op", "conj", "--a", "1,0,0", "--b", "0,1,1")
    assert code == 0
    got = json.loads(out)["result"]
    assert got[1] == pytest.approx(np.exp(2.0), rel=1e-15)

    code, out = run_cli(
        capsys, "eval", "--law", '{"family":"e_c","params":{"c":1}}',
        "--op", "comm", "--a", "1,0,0", "--b", "0,1,0")
    assert code == 0 and json.loads(out)["result"] == [0.0, 0.0, 2.0]


def test_eval_exit_code_on_malformed_json(capsys):
    code, _ = run_cli(capsys, "eval", "--law", "{not json", "--op", "mul",
                      "--a", "0,0", "--b", "0,0")
    assert code == 2


def test_eval_exit_code_on_bad_element(capsys):
    code, _ = run_cli(
        capsys, "eval", "--law", '{"family":"additive","params":{"n":2}}',
        "--op", "mul", "--a", "1,banana", "--b", "0,0")
    assert code == 2


def test_eval_exit_code_on_overflow(capsys):
    code, _ = run_cli(
        capsys, "eval", "--law", '{"family":"g_cd","params":{"c":1,"d":0}}',
        "--op", "mul", "--a", "710,0,0", "--b", "0,0,1")
    assert code == 3


def test_axioms_pass_and_custom_tolerance_fail(capsys):
    law = '{"family":"t_k","params":{"k":1}}'
    code, out = run_cli(capsys, "axioms", "--law", law, "--samples", "300")
    assert code == 0 and json.loads(out)["report"]["passed"]
    code, out = run_cli(capsys, "axioms", "--law", law, "--samples", "300",
                        "--abs-tol", "1e-18", "--rel-tol", "1e-18")
    assert code == 4
    assert not json.loads(out)["report"]["passed"]


def test_order_check_pass_and_fail(capsys):
    law = '{"family":"semidirect_rr","params":{"c":1}}'
    code, out = run_cli(capsys, "order-check", "--law", law, "--order", "1,0")
    assert code == 0 and json.loads(out)["translation"]["passed"]

    code, out = run_cli(capsys, "order-check", "--law", law, "--order", "0,1")
    assert code == 4
    rep = json.loads(out)["translation"]
    assert rep["right_ok"] is False
    assert rep["counterexample_right"] is not None


def test_order_check_with_normal_coords(capsys):
    code, out = run_cli(
        capsys, "order-check", "--law", '{"family":"k_cd","params":{"c":1,"d":1}}',
        "--order", "0,1,2", "--normal-coords", "1,2")
    assert code == 0
    assert json.loads(out)["conjugation"]["passed"]


def test_cocycle_check(capsys):
    code, out = run_cli(capsys, "cocycle-check", "--cocycle",
                        '{"cocycle":"heis","c":0.5}')
    assert code == 0 and json.loads(out)["passed"]
    code, out = run_cli(capsys, "cocycle-check", "--cocycle",
                        '{"cocycle":"g3","k":1}')
    assert code == 0 and json.loads(out)["passed"]
    code, _ = run_cli(capsys, "cocycle-check", "--cocycle", '{"cocycle":"nope"}')
    assert code == 2


@pytest.mark.parametrize("box", ["3", "6", "8", "10"])
@pytest.mark.parametrize("cocycle", ['{"cocycle":"g3","k":1}', '{"cocycle":"g3","k":-2}',
                                     '{"cocycle":"heis","c":0.5}'])
def test_cocycle_check_agrees_with_the_extension_builder(capsys, cocycle, box):
    # one cocycle verdict: the command passes a cochain exactly when
    # extension_from_cocycle accepts it at the same seed, samples and box
    from ordgroups import DomainError, SampleConfig, extension_from_cocycle
    from ordgroups.jsonio import named_cocycle

    code, out = run_cli(capsys, "cocycle-check", "--cocycle", cocycle, "--box", box)
    f = named_cocycle(json.loads(cocycle))
    try:
        extension_from_cocycle(f.module, f, SampleConfig(box=float(box)))
        accepted = True
    except DomainError:
        accepted = False
    payload = json.loads(out)
    assert (code, payload["passed"]) == ((0, True) if accepted else (4, False))
    assert accepted  # each is a true cocycle
    if "g3" in cocycle and box in ("8", "10"):
        # the terms of dg3 reach about 2e5 at box 8: a residual over abs_tol
        # (and over the old fixed cap of 2e-9) is rounding, not a defect
        assert 1e-9 < payload["residual"] < 1e-5


def test_classify_ordered_central_chart(capsys):
    code, out = run_cli(
        capsys, "classify", "--law", '{"family":"e_c","params":{"c":-4}}',
        "--order", "0,1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "E_minus"
    assert payload["witness"]["matrix"] == [[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert payload["verification"]["passed"]


def test_classify_group_level(capsys):
    code, out = run_cli(capsys, "classify", "--law",
                        '{"family":"additive","params":{"n":2}}')
    assert code == 0
    assert json.loads(out)["label"] == "R2_abelian"


def test_classify_diagonal_parameter(capsys):
    code, out = run_cli(
        capsys, "classify", "--law", '{"family":"k_cd","params":{"c":2,"d":6}}',
        "--order", "0,1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "K_plus"
    assert payload["params"]["f"] == 3.0


def test_classify_exit_codes(capsys):
    # not an ordered group: domain error
    code, _ = run_cli(
        capsys, "classify", "--law", '{"family":"semidirect_rr","params":{"c":1}}',
        "--order", "0,1")
    assert code == 3
    # unattainable tolerance: witness verification failure
    code, _ = run_cli(
        capsys, "classify", "--law", '{"family":"t_k","params":{"k":3}}',
        "--order", "2,1,0", "--abs-tol", "1e-30", "--rel-tol", "1e-30")
    assert code == 4
    # a parameter ratio whose witness floating point cannot invert: domain
    # error, where a ratio of 1e10 still classifies
    code = main(["classify", "--law", '{"family":"k_cd","params":{"c":1e-300,"d":1}}',
                 "--order", "0,1,2"])
    assert code == 3
    assert "K_plus(f=9.999999999999999e+299)" in capsys.readouterr().err
    code, out = run_cli(
        capsys, "classify", "--law", '{"family":"k_cd","params":{"c":1e-10,"d":1}}',
        "--order", "0,1,2")
    assert code == 0
    assert json.loads(out)["params"] == {"f": 1e10}


def test_witness_verify_roundtrip(capsys):
    code, out = run_cli(
        capsys, "witness-verify",
        "--source", '{"family":"semidirect_rr","params":{"c":2}}',
        "--target", '{"family":"semidirect_rr","params":{"c":1}}',
        "--matrix", "[[1,0],[0,2]]",
        "--source-order", "1,0", "--target-order", "1,0")
    assert code == 0
    rep = json.loads(out)["verification"]
    assert rep["passed"] and rep["order_ok"]

    code, out = run_cli(
        capsys, "witness-verify",
        "--source", '{"family":"semidirect_rr","params":{"c":2}}',
        "--target", '{"family":"semidirect_rr","params":{"c":1}}',
        "--matrix", "[[1,0],[0,3]]")
    assert code == 4


@pytest.mark.parametrize("matrix", ["[[1,0],[0,2]]", "[[1,0],[0,3]]"])
def test_witness_verify_flags_agree_with_the_verification(capsys, matrix):
    code, out = run_cli(
        capsys, "witness-verify",
        "--source", '{"family":"semidirect_rr","params":{"c":2}}',
        "--target", '{"family":"semidirect_rr","params":{"c":1}}',
        "--matrix", matrix, "--source-order", "1,0", "--target-order", "1,0")
    report = json.loads(out)
    rep, wit = report["verification"], report["witness"]
    assert code == (0 if rep["passed"] else 4)
    assert wit["group_verified"] is rep["group_ok"]
    assert wit["order_verified"] is bool(rep["order_ok"])


def test_witness_verify_invertibility_is_scale_aware(capsys):
    r3 = '{"family":"additive","params":{"n":3}}'
    code, out = run_cli(capsys, "witness-verify", "--source", r3, "--target", r3,
                        "--matrix", "[[1e-5,0,0],[0,1e-5,0],[0,0,1e-5]]")
    assert code == 0
    rep = json.loads(out)["verification"]
    assert rep["invertible"] and rep["passed"]

    code, out = run_cli(capsys, "witness-verify", "--source", r3, "--target", r3,
                        "--matrix", "[[1e-5,2e-5,0],[2e-5,4e-5,0],[0,0,1e-5]]")
    assert code == 4
    assert not json.loads(out)["verification"]["invertible"]


def test_catalog_counts(capsys):
    code, out = run_cli(capsys, "catalog")
    assert code == 0
    classes = json.loads(out)["classes"]
    assert len(classes) == 17
    code, out = run_cli(capsys, "catalog", "--dim", "2")
    assert len(json.loads(out)["classes"]) == 3


def test_selftest_small_run(capsys):
    code, out = run_cli(capsys, "selftest", "--samples", "60")
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"]
    assert len(payload["criteria"]) == 8


def test_selftest_degenerate_single_sample(capsys):
    code, out = run_cli(capsys, "selftest", "--samples", "1")
    assert code == 0
    assert json.loads(out)["passed"]


def test_selftest_absurd_tolerance_reports_failures(capsys):
    code, out = run_cli(capsys, "selftest", "--samples", "60",
                        "--abs-tol", "1e-18", "--rel-tol", "1e-18")
    assert code == 4
    payload = json.loads(out)
    assert not payload["passed"]
    failing = [c["name"] for c in payload["criteria"] if not c["passed"]]
    assert failing  # locations of the floating-point failures


def test_reports_are_byte_identical(capsys):
    args = ["selftest", "--samples", "40", "--seed", "3"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run_cli(capsys, "catalog", "--dim", "1", "--out", str(out_file))
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["classes"][0]["label"] == "R"


def test_json_file_input(tmp_path, capsys):
    law_file = tmp_path / "law.json"
    law_file.write_text('{"family":"e_c","params":{"c":0.5}}')
    code, out = run_cli(capsys, "eval", "--json", str(law_file),
                        "--op", "mul", "--a", "1,2,3", "--b", "4,5,6")
    assert code == 0
    assert json.loads(out)["result"] == [5.0, 7.0, 7.5]


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ordgroups.cli", "eval",
         "--law", '{"family":"additive","params":{"n":1}}',
         "--op", "mul", "--a", "1", "--b", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"result": [3.0]}


# --- input errors exit 2 without a traceback -------------------------------------

_SD = '{"family":"semidirect_rr","params":{"c":1}}'
_R3 = '{"family":"additive","params":{"n":3}}'
_SD300 = '{"family":"semidirect_rr","params":{"c":300}}'


def _assert_input_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("order-check", "--law", _SD, "--order", "0,x"),
    ("classify", "--law", _SD, "--order", "1,x"),
    ("order-check", "--law", _R3, "--order", "0,1,2", "--normal-coords", "1,y"),
    ("witness-verify", "--source", _SD, "--target", _SD, "--matrix", "[[1,0],[0,1]]",
     "--source-order", "1,0.5", "--target-order", "1,0"),
    ("witness-verify", "--source", _SD, "--target", _SD, "--matrix", "[[1,0],[0,1]]",
     "--source-order", "1,0", "--target-order", "one,0"),
], ids=["order", "classify-order", "normal-coords", "source-order", "target-order"])
def test_non_integer_index_list_is_an_input_error(capsys, argv):
    _assert_input_error(capsys, *argv)


@pytest.mark.parametrize("op", ["mul", "conj", "comm"])
def test_eval_binary_op_without_b_is_an_input_error(capsys, op):
    _assert_input_error(capsys, "eval", "--law", _SD, "--op", op, "--a", "1,0")


@pytest.mark.parametrize("matrix", ["[[1,0],[0,1],[0,0]]", "[[1,0,0],[0,1,0]]", "[[1,0],[0]]"])
def test_witness_between_dimensions_is_an_input_error(capsys, matrix):
    # a 2 -> 3 map is never an isomorphism, whichever way the matrix is laid out
    _assert_input_error(capsys, "witness-verify", "--source", _SD, "--target", _R3,
                        "--matrix", matrix)



@pytest.mark.parametrize("box", ["1e308", "9e307", "inf"])
@pytest.mark.parametrize("argv", [
    ("axioms", "--law", '{"family":"additive","params":{"n":1}}'),
    ("order-check", "--law", _SD, "--order", "1,0"),
    ("cocycle-check", "--cocycle", '{"cocycle":"heis","c":0.5}'),
], ids=["axioms", "order-check", "cocycle-check"])
def test_box_whose_width_overflows_is_an_input_error(capsys, argv, box):
    # samples are uniform on [-box, box]: a width 2 * box of inf would give
    # inf samples, not an overflow report
    _assert_input_error(capsys, *argv, "--box", box)


def test_json_naming_a_directory_is_an_input_error(tmp_path, capsys):
    _assert_input_error(capsys, "axioms", "--json", str(tmp_path))


def test_out_naming_a_directory_is_an_input_error(tmp_path, capsys):
    _assert_input_error(capsys, "catalog", "--dim", "1", "--out", str(tmp_path))


def test_json_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    law_file = tmp_path / "law.json"
    law_file.write_bytes(b"\xff\xfe{")
    _assert_input_error(capsys, "axioms", "--json", str(law_file))


_DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("argv", [
    ("cocycle-check", "--cocycle", _DEEP),
    ("axioms", "--law", _DEEP),
    ("witness-verify", "--source", _SD, "--target", _SD, "--matrix", _DEEP),
], ids=["cocycle", "law", "matrix"])
def test_json_nested_past_the_recursion_limit_is_an_input_error(capsys, argv):
    _assert_input_error(capsys, *argv)


# JSON strings and the NaN/Infinity literals Python's json module accepts
@pytest.mark.parametrize("value", ['"nan"', "NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("law", [
    '{"family":"semidirect_rr","params":{"c":%s}}',
    '{"family":"from_cocycle","params":{"cocycle":"heis","c":%s}}',
], ids=["semidirect_rr", "from_cocycle"])
def test_non_finite_law_parameter_is_an_input_error(capsys, law, value):
    _assert_input_error(capsys, "order-check", "--law", law % value, "--order", "1,0")


@pytest.mark.parametrize("argv", [
    ("cocycle-check", "--cocycle", '{"cocycle":"heis","c":"nan"}'),
    ("cocycle-check", "--cocycle", "[1]"),
    ("cocycle-check", "--cocycle", '"x"'),
    ("cocycle-check", "--cocycle", '{"cocycle":"g3","k":"abc"}'),
    ("axioms", "--law", '{"family":"additive","params":{"n":"nan"}}'),
    ("axioms", "--law", '{"family":"additive","params":{"n":2.5}}'),
], ids=["cocycle-nan", "cocycle-list", "cocycle-string", "cocycle-text", "additive-nan",
        "additive-2.5"])
def test_bad_descriptor_is_an_input_error(capsys, argv):
    _assert_input_error(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("witness-verify", "--source", _SD300, "--target", _SD300, "--matrix", "[[1,0],[0,1]]"),
    ("cocycle-check", "--cocycle", '{"cocycle":"g3","k":1e300}', "--box", "50"),
], ids=["witness-verify", "cocycle-check"])
def test_overflow_leaves_stderr_empty(capsys, argv):
    # the reports carry the NaN; numpy's RuntimeWarnings must not reach stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    assert code == 4
    assert caught == []
    assert capsys.readouterr().err == ""


def test_not_an_ordered_group_message_prints_plain_floats(capsys):
    code = main(["classify", "--law", _SD, "--order", "0,1"])
    err = capsys.readouterr().err
    assert code == 3 and "np.float64" not in err
    m = re.fullmatch(r"domain error: pair is not an ordered group: (left|right) translation "
                     r"fails at g=\[(.*)\], h=\[(.*)\], h'=\[(.*)\]\n", err)
    assert m is not None
    for coords in m.groups()[1:]:
        assert all(math.isfinite(float(v)) for v in coords.split(", "))
