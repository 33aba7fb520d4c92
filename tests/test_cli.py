"""CLI surface: subcommands, exit codes, deterministic JSON output."""

import json
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


@pytest.mark.parametrize("law, a, want", [
    ('{"family":"e_c","params":{"c":1}}', "1e200,1e200,0",
     "[-9.9999999999999997e+199,-9.9999999999999997e+199,-0.0]"),
    ('{"family":"from_cocycle","params":{"cocycle":"heis","c":1}}', "0,1e200,1e200",
     "[-0.0,-9.9999999999999997e+199,-9.9999999999999997e+199]"),
    ('{"family":"e_c","params":{"c":1}}', "1,2,-0.0", "[-1.0,-2.0,0.0]"),
], ids=["e_c-overflowing-xy", "from_cocycle-overflowing-xy", "e_c-negative-zero"])
def test_the_heis_inverse_adds_no_cocycle_term(capsys, law, a, want):
    # heis vanishes on (g, g^-1) although x (-y) and y (-x) may overflow: the
    # inverse of (x, y, z) is (-x, -y, -z), finite, with no term added to z
    code, out = run_cli(capsys, "eval", "--law", law, "--op", "inv", "--a", a)
    assert (code, out) == (0, f'{{"result":{want}}}\n')


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
        extension_from_cocycle(f, SampleConfig(box=float(box)))
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


@pytest.mark.parametrize("order", [("--order", "0,1,2,3"), ()], ids=["ordered", "group"])
@pytest.mark.parametrize("factor", [
    {"family": "additive", "params": {"n": 2}},
    {"family": "semidirect_rr", "params": {"c": 1}},
], ids=["additive2^2", "semidirect_rr^2"])
def test_classify_past_dimension_3_is_a_domain_error_before_any_sample(
        capsys, monkeypatch, factor, order):
    from ordgroups.tolerance import SampleConfig

    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(SampleConfig, "sample", no_draw)
    law = json.dumps({"family": "product", "params": {"a": factor, "b": factor}})
    code = main(["classify", "--law", law, *order])
    assert (code, capsys.readouterr().err) == (
        3, "domain error: classification covers dimensions 1 to 3 only\n")


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
def test_witness_verify_states_its_verdict_once(capsys, matrix):
    code, out = run_cli(
        capsys, "witness-verify",
        "--source", '{"family":"semidirect_rr","params":{"c":2}}',
        "--target", '{"family":"semidirect_rr","params":{"c":1}}',
        "--matrix", matrix, "--source-order", "1,0", "--target-order", "1,0")
    report = json.loads(out)
    rep, wit = report["verification"], report["witness"]
    assert code == (0 if rep["passed"] else 4)
    # the witness describes the map; only the verification judges it
    assert sorted(wit) == ["map", "matrix", "order_pair", "source", "target"]
    assert wit["order_pair"] == [[1, 0], [1, 0]]


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


@pytest.mark.parametrize("box", ["0.4", "1e-300"])
def test_selftest_box_below_its_positive_draws_is_no_traceback(capsys, box):
    # criterion 6 draws positive coordinates from 0.5 up to the box
    code, out = run_cli(capsys, "selftest", "--samples", "60", "--box", box)
    assert code in (0, 4)
    assert json.loads(out)["passed"] == (code == 0)


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
    # half an order claim is no claim to drop silently
    ("witness-verify", "--source", _SD, "--target", _SD, "--matrix", "[[1,0],[0,1]]",
     "--source-order", "1,0"),
], ids=["order", "classify-order", "normal-coords", "source-order", "target-order",
        "one-sided-order"])
def test_non_integer_index_list_is_an_input_error(capsys, argv):
    _assert_input_error(capsys, *argv)


@pytest.mark.parametrize("op", ["mul", "conj", "comm"])
def test_eval_binary_op_without_b_is_an_input_error(capsys, op):
    _assert_input_error(capsys, "eval", "--law", _SD, "--op", op, "--a", "1,0")


@pytest.mark.parametrize("matrix, entry", [("[[1,0],[0,1e400]]", "[1][1] must be finite, got inf"),
                                           ("[[1,null],[0,1]]", "[0][1] must be finite, got None"),
                                           ("[[NaN,0],[0,1]]", "[0][0] must be finite, got nan")],
                         ids=["overflow", "null", "nan"])
def test_non_finite_witness_matrix_entry_is_an_input_error(capsys, matrix, entry):
    # malformed input, not a false "not invertible" verdict (exit 4)
    code = main(["witness-verify", "--source", _SD, "--target", _SD, "--matrix", matrix])
    assert code == 2
    assert capsys.readouterr().err == f"input error: witness matrix entry {entry}\n"


@pytest.mark.parametrize("matrix", ["[[1,0],[0,1],[0,0]]", "[[1,0,0],[0,1,0]]", "[[1,0],[0]]"])
def test_witness_between_dimensions_is_an_input_error(capsys, matrix):
    # a 2 -> 3 map is never an isomorphism, whichever way the matrix is laid out
    _assert_input_error(capsys, "witness-verify", "--source", _SD, "--target", _R3,
                        "--matrix", matrix)


@pytest.mark.parametrize("orders, message", [
    (("0,1,2", "1,0"), "source order (0, 1, 2) has length 3, but the source law has dimension 2"),
    (("1,0", "0"), "target order (0,) has length 1, but the target law has dimension 2"),
], ids=["source", "target"])
def test_order_claim_of_the_wrong_length_is_an_input_error(capsys, orders, message):
    # malformed input, not a failed order claim (exit 4)
    code = main(["witness-verify", "--source", _SD, "--target", _SD, "--matrix", "[[1,0],[0,1]]",
                 "--source-order", orders[0], "--target-order", orders[1]])
    assert code == 2
    assert capsys.readouterr().err == f"input error: {message}\n"



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


@pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
def test_an_infinite_tolerance_is_an_input_error(capsys, flag):
    # diag(1, 5) is no homomorphism of the affine group (hom_residual about
    # 8.5e6), and an infinite bound would pass it
    argv = ["witness-verify", "--source", _SD, "--target", _SD, "--matrix", "[[1,0],[0,5]]"]
    assert main(argv) == 4
    assert main(argv + [flag, "inf"]) == 2
    assert capsys.readouterr().err == "input error: tolerances must be finite\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--abs-tol", "0", "tolerances must be strictly positive"),
    ("--abs-tol", "nan", "tolerances must be strictly positive"),
    ("--rel-tol", "inf", "tolerances must be finite"),
    ("--samples", "0", "sample count must be >= 1"),
    ("--box", "0", "box must be positive and finite"),
    ("--box", "nan", "box must be positive and finite"),
    ("--seed", "-1", "seed must be an unsigned integer"),
], ids=["--abs-tol-0", "--abs-tol-nan", "--rel-tol-inf", "--samples-0", "--box-0", "--box-nan",
        "--seed--1"])
def test_selftest_rejects_a_malformed_flag_as_axioms_does(capsys, flag, value, message):
    # one input error before any criterion runs, not a report of criteria
    # that failed (or passed)
    assert main(["axioms", "--law", '{"family":"additive","params":{"n":1}}', flag, value]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert main(["selftest", "--samples", "10", flag, value]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("cocycle-check", "--cocycle", '{"cocycle":"heis"}'),
    ("witness-verify", "--source", _SD, "--target", _SD, "--matrix", "[[1,0],[0,1]]"),
    ("catalog",),
    ("selftest", "--samples", "1"),
], ids=["cocycle-check", "witness-verify", "catalog", "selftest"])
def test_json_is_an_option_of_the_law_commands_only(capsys, argv):
    # these read no law descriptor: a --json file they ignored would hide a typo
    code = main([*argv, "--json", "missing.json"])
    err = capsys.readouterr().err
    assert code == 2 and "unrecognized arguments: --json missing.json" in err


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


def _nested_product(depth):
    """A product law descriptor depth levels deep, a line factor at each level."""
    law = leaf = {"family": "additive", "params": {"n": 1}}
    for _ in range(depth):
        law = {"family": "product", "params": {"a": law, "b": leaf}}
    return json.dumps(law)


def test_product_nested_too_deep_to_report_is_an_input_error(tmp_path, capsys, monkeypatch):
    # valid JSON well inside the parser's limit, but the report would repeat
    # the descriptor past the recursion limit of writing it; that is known
    # once the law is built, so no sampled check runs
    from ordgroups import cli

    def not_called(*args):
        raise AssertionError("a sampled check ran for a law too deep to report")

    law_file = tmp_path / "law.json"
    law_file.write_text(_nested_product(200))
    monkeypatch.setattr(cli, "check_group_axioms", not_called)
    monkeypatch.setattr(cli.orders, "check_translation_invariance", not_called)
    for argv in (("axioms",), ("order-check", "--order", ",".join(map(str, range(201))))):
        code = main([*argv, "--json", str(law_file)])
        assert (code, capsys.readouterr().err) == (
            2, "input error: report nested too deeply to write\n")
    monkeypatch.undo()
    law_file.write_text(_nested_product(100))
    code, out = run_cli(capsys, "axioms", "--json", str(law_file))
    assert code == 0 and json.loads(out)["law"]["dim"] == 101


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
    # an order of another length than the law: no KeyError from the bracket table
    ("classify", "--law", '{"family":"e_c","params":{"c":1}}', "--order", "0,1"),
], ids=["cocycle-nan", "cocycle-list", "cocycle-string", "cocycle-text", "additive-nan",
        "additive-2.5", "classify-order-length"])
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
    assert err == ("domain error: SemidirectRR with significance (0, 1) is not an ordered "
                   "group: [e_1, e_0] = 1.0 e_0 is more significant than e_1, so the flag "
                   "is not a chain of ideals\n")


_HEIS_LAW = '{"family":"from_cocycle","params":{"cocycle":"heis"}}'


@pytest.mark.parametrize("law, order, label", [
    (_HEIS_LAW, None, "Heis"),
    # [e_1, e_2] = 2c e_0 puts the module last: slot B = 2c = 1 > 0
    (_HEIS_LAW, "1,2,0", "E_plus"),
    ('{"family":"from_cocycle","params":{"cocycle":"g3","k":-2}}', None, "G3"),
    ('{"family":"from_cocycle","params":{"cocycle":"g3"}}', "2,1,0", "T_plus"),
])
def test_a_named_cocycle_law_classifies_through_its_bracket_table(capsys, law, order, label):
    code, out = run_cli(capsys, "classify", "--law", law, *(("--order", order) if order else ()))
    assert code == 0
    assert json.loads(out)["label"] == label


def test_the_heis_cocycle_law_breaks_the_chart_order_flag(capsys):
    code = main(["classify", "--law", _HEIS_LAW, "--order", "0,1,2"])
    assert code == 3
    assert capsys.readouterr().err == (
        "domain error: CocycleLaw with significance (0, 1, 2) is not an ordered group: "
        "[e_1, e_2] = 1.0 e_0 is more significant than e_2, so the flag is not a chain of "
        "ideals\n")
