"""Acceptance suite: every criterion at its stated tolerance.

Each test runs one seeded criterion and prints a single pass/fail line;
`ordgroups selftest` runs the same functions from the command line.
"""

import json

import numpy as np

from ordgroups.selftest import (
    RunConfig,
    criterion_classifier_roundtrip,
    criterion_cochain_calculus,
    criterion_extension_builder,
    criterion_group_axioms,
    criterion_one_param_family,
    criterion_ordered_checks,
    criterion_separating_invariants,
    criterion_witnesses,
    run_all,
)

CFG = RunConfig(seed=0, samples=1000, box=3.0, abs_tol=1e-9, rel_tol=1e-9)


def _report(index, result, note=""):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {index}: {result.name} {note}")
    assert result.passed, json.dumps(result.to_dict(), default=str)[:2000]


def test_criterion_1_group_axioms():
    result = criterion_group_axioms(CFG)
    _report(1, result, f"(67 laws, residuals <= {CFG.abs_tol})")
    assert result.details["laws_checked"] == 67
    assert all(v <= 1e-9 for v in result.details["max_residuals"].values())


def test_criterion_2_cochain_calculus():
    result = criterion_cochain_calculus(CFG)
    _report(2, result)
    assert result.details["dd_residual"] <= 1e-9
    assert result.details["heis_cocycle_residual"] <= 1e-9
    assert result.details["g3_cocycle_residual"] <= 1e-9
    assert result.details["corrupted_residual"] > 1e-3
    assert result.details["corrupted_rejected"]


def test_criterion_3_extension_builder():
    result = criterion_extension_builder(CFG)
    _report(3, result)
    for key in ("heis_vs_ec", "g3_vs_tk", "split_vs_tk0"):
        assert result.details[key] <= 1e-9


def test_criterion_4_isomorphism_witnesses():
    result = criterion_witnesses(CFG)
    _report(4, result, f"({result.details['witnesses']} witness maps)")
    assert result.details["max_hom_residual"] <= 1e-9
    assert result.details["failures"] == []


def test_criterion_5_ordered_group_checks():
    result = criterion_ordered_checks(CFG)
    _report(5, result, "(canonical catalog at 10^4 samples + negative control)")
    for entry in result.details["classes"]:
        assert entry["passed"], entry
        assert entry["pairs"] >= 10_000
    control = result.details["negative_control"]
    assert control["right_failed"]
    assert control["left_ok"]
    assert control["documented_counterexample_holds"]


def test_criterion_6_separating_invariants():
    result = criterion_separating_invariants(CFG)
    _report(6, result)
    assert result.details["e_commutator_exact"]
    assert result.details["e_commutator_sign_separation"]
    assert result.details["e_pair"]["invariant"] == "commutator_sign"
    assert "conjugation" in result.details["aff_pair"]["invariant"]
    assert result.details["nontrivial_vs_product_pair"]
    assert result.details["identical_not_separated"]


def test_criterion_7_classifier_roundtrip():
    result = criterion_classifier_roundtrip(CFG, total=200)
    _report(7, result, "(200 random parameter draws)")
    assert result.details["draws"] == 200
    assert result.details["max_hom_residual"] <= 1e-9
    assert result.details["failures"] == []


def test_criterion_8_one_param_homomorphisms():
    result = criterion_one_param_family(CFG)
    _report(8, result)
    assert result.details["max_residual"] <= 1e-9


# seeds among 0-199 where an absolute 1e-9 bound failed on values near 1e7
ONE_PARAM_SEEDS = (7, 37, 38, 48, 51, 71, 80, 83, 91, 95, 101, 111, 127, 128,
                   147, 151, 163, 175, 179, 181, 193)


def test_criterion_8_uses_the_mixed_tolerance_rule():
    for seed in ONE_PARAM_SEEDS:
        result = criterion_one_param_family(RunConfig(seed=seed))
        assert result.passed, seed
        # the reported residual is the raw one, above the absolute tolerance
        assert result.details["max_residual"] > 1e-9, seed


def test_criterion_8_fails_a_perturbed_homomorphism(monkeypatch):
    from ordgroups import selftest

    calls = []
    exact = selftest.one_param_through

    def perturbed(law, base, w):
        # per (law, base) the criterion calls lhs, the two rhs factors, then
        # the point at 1; scale lhs by 1 + 1e-6
        calls.append(None)
        out = exact(law, base, w)
        return out * (1.0 + 1e-6) if len(calls) % 4 == 1 else out

    monkeypatch.setattr(selftest, "one_param_through", perturbed)
    for seed in (0,) + ONE_PARAM_SEEDS[:3]:
        assert not criterion_one_param_family(RunConfig(seed=seed)).passed, seed


# One perturbed input per criterion: each criterion passes on its checks'
# verdicts, so a 1e-6 defect in what it checks must fail it.


def test_criterion_1_fails_a_perturbed_law(monkeypatch):
    from ordgroups.groups import Tk

    exact = Tk.mul
    monkeypatch.setattr(Tk, "mul", lambda self, a, b: exact(self, a, b) * (1.0 + 1e-6))
    assert not criterion_group_axioms(CFG).passed


def test_criterion_2_fails_a_perturbed_cocycle(monkeypatch):
    from ordgroups import selftest
    from ordgroups.cohomology import Cochain

    exact = selftest.heis_cocycle

    def perturbed(c):
        # 1e-6 (x x')^2 is not a cocycle of the trivial action
        f = exact(c)
        return Cochain(2, lambda g, h: f.fn(g, h) + 1e-6 * (g[..., :1] * h[..., :1]) ** 2,
                       f.module)

    monkeypatch.setattr(selftest, "heis_cocycle", perturbed)
    result = criterion_cochain_calculus(CFG)
    assert not result.passed
    assert result.details["corrupted_rejected"]


def test_criterion_3_fails_a_perturbed_reference_law(monkeypatch):
    from ordgroups import selftest
    from ordgroups.groups import Ec

    monkeypatch.setattr(selftest, "heisenberg", lambda: Ec(0.5 + 1e-6))
    result = criterion_extension_builder(CFG)
    assert not result.passed
    assert result.details["heis_vs_ec"] > 1e-9


def test_criterion_4_fails_perturbed_witnesses(monkeypatch):
    from ordgroups import selftest

    exact = selftest.linear_witness
    monkeypatch.setattr(selftest, "linear_witness", lambda source, target, matrix, **kw: exact(
        source, target, np.asarray(matrix) * (1.0 + 1e-6), **kw))
    result = criterion_witnesses(CFG)
    assert not result.passed
    # the two chart changes are function witnesses, left exact
    assert "sut3_to_heis" not in result.details["failures"]
    assert len(result.details["failures"]) == result.details["witnesses"] - 2


def test_criterion_6_fails_a_perturbed_commutator(monkeypatch):
    from ordgroups import selftest

    exact = selftest.commutator
    monkeypatch.setattr(selftest, "commutator",
                        lambda law, g, h: exact(law, g, h) * (1.0 + 1e-6))
    result = criterion_separating_invariants(CFG)
    assert not result.passed
    assert not result.details["e_commutator_exact"]
    assert result.details["e_commutator_sign_separation"]


def test_criterion_7_fails_a_perturbed_law(monkeypatch):
    from ordgroups import selftest
    from ordgroups.groups import SemidirectRR

    class Skewed(SemidirectRR):
        # a 1e-6 y y' term in the normal coordinate keeps the order (it is
        # equal on pairs that tie in y) but no witness is a homomorphism
        def mul(self, a, b):
            out = super().mul(a, b)
            out[..., 0] += 1e-6 * a[..., 1] * b[..., 1]
            return out

    monkeypatch.setattr(selftest, "SemidirectRR", Skewed)
    result = criterion_classifier_roundtrip(CFG, total=12)
    assert not result.passed
    failure = result.details["failures"][0]
    assert failure["law"]["family"] == "semidirect_rr"
    assert not failure["verified"] and failure["same_label"] and failure["identity"]


def test_suite_summary_is_deterministic():
    from ordgroups.jsonio import dumps

    first = dumps(run_all(RunConfig(samples=80, seed=12)))
    second = dumps(run_all(RunConfig(samples=80, seed=12)))
    assert first == second


def test_suite_runs_under_time_budget():
    import time

    start = time.monotonic()
    report = run_all(CFG)
    elapsed = time.monotonic() - start
    print(f"full suite: {elapsed:.2f}s")
    assert report["passed"]
    assert elapsed < 10.0
