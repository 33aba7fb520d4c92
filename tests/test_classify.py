"""Canonical classification, witness verification, separating invariants."""

import functools
from itertools import combinations, permutations

import numpy as np
import pytest

from ordgroups import (
    Additive,
    Cochain,
    DomainError,
    Ec,
    Evidence,
    GCd,
    KCd,
    LexOrder,
    NotSeparated,
    OrderedGroupSpec,
    Product,
    SampleConfig,
    SemidirectRR,
    SUT3,
    Tk,
    check_translation_invariance,
    classify_group,
    classify_ordered,
    commutator,
    compose_witness,
    conjugate,
    enumerate_canonical,
    extension_from_cocycle,
    function_witness,
    g3_module,
    heisenberg,
    invert_witness,
    linear_witness,
    separating_invariant,
    verify_witness,
)
from ordgroups.classify import _breaking_bracket, _flag_table, _table_invariants
from ordgroups.selftest import _law_grid, _paper_witnesses
from ordgroups.tolerance import DEFAULT_TOL

CFG = SampleConfig(seed=9, count=800)
XYZ = LexOrder((0, 1, 2))
REV2 = LexOrder((1, 0))


def _unnamed_cocycle_law():
    """The split extension over g3_module() from the zero cochain, which
    names no cocycle: a law with no bracket table."""
    zero = Cochain(2, lambda g, h: np.zeros(g.shape[:-1] + (1,)), g3_module())
    return extension_from_cocycle(zero, CFG)


# --- group-level classification ------------------------------------------------


def test_central_extension_classifies_to_heisenberg_chart():
    cls, wit = classify_group(Ec(3.0), CFG)
    assert cls.label == "Heis"
    # canonical-to-input scaling of the center by twice the parameter
    assert wit.source == heisenberg()
    assert wit.target == Ec(3.0)
    assert np.array_equal(wit.matrix, np.diag([1.0, 1.0, 6.0]))
    assert wit.verification.group_ok


def test_nonsplit_family_classifies_to_unit_parameter():
    cls, wit = classify_group(Tk(-2.0), CFG)
    assert cls.label == "G3"
    assert np.array_equal(wit.matrix, np.diag([-0.5, 1.0, 1.0]))
    assert wit.verification.group_ok


def test_abelian_classification():
    cls, wit = classify_group(Additive(3), CFG)
    assert cls.label == "R3"
    assert np.array_equal(wit.matrix, np.eye(3))
    assert classify_group(Additive(1), CFG)[0].label == "R"
    assert classify_group(SemidirectRR(0.0), CFG)[0].label == "R2_abelian"
    assert classify_group(Ec(0.0), CFG)[0].label == "R3"
    assert classify_group(GCd(0.0, 0.0), CFG)[0].label == "R3"


def test_unitriangular_chart_is_heisenberg():
    cls, wit = classify_group(SUT3(), CFG)
    assert cls.label == "Heis"
    assert wit.matrix is None
    assert wit.verification.group_ok


def test_affine_group_level():
    cls, wit = classify_group(SemidirectRR(-2.0), CFG)
    assert cls.label == "Aff"
    assert wit.verification.group_ok


def test_product_with_line_classifies_to_prodaff():
    for law in (
        GCd(2.0, 3.0),
        GCd(0.0, -1.0),
        KCd(2.0, 0.0),
        KCd(0.0, 3.0),
        Product(SemidirectRR(2.0), Additive(1)),
        Product(Additive(1), SemidirectRR(-1.0)),
    ):
        cls, wit = classify_group(law, CFG)
        assert cls.label == "ProdAff", law
        assert wit.verification.group_ok, law


def test_diagonal_family_normalizes_parameter_into_unit_interval():
    cls_a, wit_a = classify_group(KCd(2.0, 6.0), CFG)
    cls_b, wit_b = classify_group(KCd(6.0, 2.0), CFG)
    assert cls_a.label == cls_b.label == "SD2"
    assert cls_a.param_dict["c"] == pytest.approx(1.0 / 3.0)
    assert cls_a.params == cls_b.params
    assert wit_a.verification.group_ok and wit_b.verification.group_ok
    assert -1.0 <= cls_a.param_dict["c"] <= 1.0


def test_split_nonabelian_tk_routes_to_diagonal_family():
    cls, wit = classify_group(Tk(0.0), CFG)
    assert cls.label == "SD2"
    assert cls.param_dict["c"] == 1.0
    assert wit.verification.group_ok


def test_out_of_scope_descriptors_rejected():
    law = _unnamed_cocycle_law()
    # a law from an unnamed cochain declares no bracket table, nor does a
    # product with one
    assert law.brackets() is None
    assert Product(Additive(1), law).brackets() is None
    assert Product(law, Additive(1)).brackets() is None
    with pytest.raises(DomainError):
        classify_group(law, CFG)
    with pytest.raises(DomainError):
        classify_group(Product(Additive(2), Additive(2)), CFG)


def test_an_order_on_a_law_with_no_bracket_table_has_no_canonical_form():
    # a descriptor names only cocycles with a table, so the CLI cannot reach this
    with pytest.raises(DomainError) as exc:
        classify_ordered(_unnamed_cocycle_law(), XYZ, CFG)
    assert str(exc.value) == "no canonical form for CocycleLaw with significance (0, 1, 2)"


# --- ordered classification -------------------------------------------------------


def test_ordered_affine_chart():
    cls, wit = classify_ordered(SemidirectRR(-2.0), REV2, CFG)
    assert cls.label == "Aff_minus"
    # acting coordinate is scaled in this chart (the normal one stays fixed)
    assert np.array_equal(wit.matrix, np.diag([1.0, 2.0]))
    assert wit.verification.group_ok and wit.verification.order_ok


def test_ordered_central_extension():
    cls, wit = classify_ordered(Ec(-4.0), XYZ, CFG)
    assert cls.label == "E_minus"
    assert np.array_equal(wit.matrix, np.diag([4.0, 1.0, 1.0]))
    assert wit.verification.order_ok


def test_ordered_shear_witness():
    cls, wit = classify_ordered(GCd(2.0, 3.0), XYZ, CFG)
    assert cls.label == "ProdAff_order_zyx"
    assert cls.param_dict == {"d": 1.0}
    assert np.array_equal(wit.matrix, [[1, 0, 0], [2, 3, 0], [0, 0, 1]])
    assert wit.verification.group_ok and wit.verification.order_ok


def test_ordered_gcd_all_sign_cases():
    cases = [
        (GCd(2.0, -3.0), "ProdAff_order_zyx", {"d": -1.0}),
        (GCd(2.0, 0.0), "ProdAff_order_yzx", {"c": 1.0}),
        (GCd(-2.0, 0.0), "ProdAff_order_yzx", {"c": -1.0}),
        (GCd(0.0, 2.0), "ProdAff_order_zyx", {"d": 1.0}),
    ]
    for law, label, params in cases:
        cls, wit = classify_ordered(law, XYZ, CFG)
        assert (cls.label, cls.param_dict) == (label, params), law
        assert wit.verification.group_ok and wit.verification.order_ok


def test_ordered_diagonal_family_carries_its_parameter():
    cls, wit = classify_ordered(KCd(2.0, 6.0), XYZ, CFG)
    assert cls.label == "K_plus"
    assert cls.param_dict["f"] == pytest.approx(3.0)
    assert np.array_equal(wit.matrix, np.diag([2.0, 1.0, 1.0]))

    cls, _ = classify_ordered(KCd(-2.0, 6.0), XYZ, CFG)
    assert cls.label == "K_minus"
    assert cls.param_dict["f"] == pytest.approx(3.0)


def test_ordered_kcd_degenerate_routes():
    cls, wit = classify_ordered(KCd(2.0, 0.0), XYZ, CFG)
    assert (cls.label, cls.param_dict) == ("ProdAff_order_yxz", {"c": 1.0})
    # a vanishing first exponent leaves the product family, not the diagonal one
    cls, wit = classify_ordered(KCd(0.0, 5.0), XYZ, CFG)
    assert (cls.label, cls.param_dict) == ("ProdAff_order_yzx", {"c": 1.0})
    assert wit.verification.group_ok and wit.verification.order_ok


def test_ordered_nonsplit_chart():
    tchart = LexOrder((2, 1, 0))
    cls, wit = classify_ordered(Tk(-2.0), tchart, CFG)
    assert cls.label == "T_minus"
    assert np.array_equal(wit.matrix, np.diag([0.5, 1.0, 1.0]))
    assert wit.verification.order_ok

    # the split chart is the diagonal family under both orders with z first
    for sig in [(2, 1, 0), (2, 0, 1)]:
        cls, wit = classify_ordered(Tk(0.0), LexOrder(sig), CFG)
        assert (cls.label, cls.param_dict) == ("K_plus", {"f": 1.0})
        assert wit.verification.passed, sig


@pytest.mark.parametrize("seed", [3, 4242, 90017])
def test_split_nonsplit_chart_witness_reverses_the_chart(seed):
    # (x, y, z) -> (z, y, x) maps z >> y >> x onto x >> y >> z; the
    # isomorphism (x, y, z) -> (z, x, y) would map it onto x >> z >> y
    cls, wit = classify_ordered(Tk(0.0), LexOrder((2, 1, 0)), SampleConfig(seed=seed))
    assert cls.label == "K_plus"
    assert np.array_equal(wit.matrix, [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert wit.verification.group_ok and wit.verification.order_ok


def test_ordered_swapped_plane_flips_the_sign():
    cls, wit = classify_ordered(Ec(2.0), LexOrder((1, 0, 2)), CFG)
    assert cls.label == "E_minus"
    assert wit.verification.group_ok and wit.verification.order_ok


def test_ordered_unitriangular_chart():
    cls, wit = classify_ordered(SUT3(), XYZ, CFG)
    assert cls.label == "E_plus"
    assert wit.matrix is None
    assert wit.verification.group_ok and wit.verification.order_ok


def test_ordered_products_both_presentations():
    cls, wit = classify_ordered(
        Product(SemidirectRR(2.0), Additive(1)), LexOrder((1, 0, 2)), CFG)
    assert (cls.label, cls.param_dict) == ("ProdAff_order_yxz", {"c": 1.0})
    assert wit.verification.order_ok

    cls, wit = classify_ordered(
        Product(Additive(1), SemidirectRR(-1.5)), LexOrder((2, 1, 0)), CFG)
    assert (cls.label, cls.param_dict) == ("ProdAff_order_yxz", {"c": -1.0})
    assert wit.verification.order_ok

    cls, wit = classify_ordered(
        Product(SemidirectRR(2.0), Additive(1)), LexOrder((1, 2, 0)), CFG)
    assert (cls.label, cls.param_dict) == ("ProdAff_order_yzx", {"c": 1.0})
    assert wit.verification.order_ok


# the charts of Aff x R with c as their exponent, and their (normal, acting,
# free) coordinates
ROLE_CHARTS = {
    "affine_first": (lambda c: Product(SemidirectRR(c), Additive(1)), (0, 1, 2)),
    "line_first": (lambda c: Product(Additive(1), SemidirectRR(c)), (1, 2, 0)),
    "gcd_x": (lambda c: GCd(c, 0.0), (2, 0, 1)),
    "gcd_y": (lambda c: GCd(0.0, c), (2, 1, 0)),
    "kcd_y": (lambda c: KCd(c, 0.0), (1, 0, 2)),
    "kcd_z": (lambda c: KCd(0.0, c), (2, 0, 1)),
    # a JSON -0.0 exponent is a zero one: its witness entries stay 0.0
    "gcd_x_negzero": (lambda c: GCd(c, -0.0), (2, 0, 1)),
    "kcd_z_negzero": (lambda c: KCd(-0.0, c), (2, 0, 1)),
}


@pytest.mark.parametrize("c", [1.0, -1.0, 2.5, -2.5])
@pytest.mark.parametrize("chart", list(ROLE_CHARTS))
def test_ordered_product_line_then_acting_then_normal(c, chart):
    # every chart of Aff x R under each of its three orders: acting >> normal,
    # with the free coordinate first (zyx), in between (yzx) or last (yxz)
    make, (norm, act, free) = ROLE_CHARTS[chart]
    s = 1.0 if c > 0 else -1.0
    patterns = [
        ((act, norm, free), "ProdAff_order_yxz", KCd(s, 0.0), {"c": s}),
        ((act, free, norm), "ProdAff_order_yzx", GCd(s, 0.0), {"c": s}),
        ((free, act, norm), "ProdAff_order_zyx", GCd(0.0, s), {"d": s}),
    ]
    for sig, label, canon, params in patterns:
        cls, wit = classify_ordered(make(c), LexOrder(sig), CFG)
        assert (cls.label, cls.param_dict) == (label, params), sig
        assert cls.law == canon and cls.order == XYZ
        # coordinates in significance order, the acting one scaled by |c|
        expected = np.zeros((3, 3))
        for row, col in enumerate(sig):
            expected[row, col] = abs(c) if col == act else 1.0
        assert np.array_equal(wit.matrix, expected), sig
        assert not np.signbit(wit.matrix[wit.matrix == 0.0]).any(), sig
        assert wit.verification.passed and wit.verification.order_ok, sig


def test_every_ordered_pair_classifies_with_a_verified_witness():
    # a pair classifies exactly when its lexicographic order is bi-invariant,
    # which is exactly when its coordinate flag is a chain of ideals
    cfg = SampleConfig(seed=3, count=400)
    laws = _law_grid() + [Tk(0.0)]
    for c in (1.0, -1.0, 2.0):
        laws += [Product(SemidirectRR(c), Additive(1)), Product(Additive(1), SemidirectRR(c))]
    wrong = []
    for law in laws:
        for sig in permutations(range(law.dim)):
            order = LexOrder(sig)
            try:
                _, wit = classify_ordered(law, order, cfg)
                classified = wit.verification.passed
            except DomainError:
                classified = False
            ordered = check_translation_invariance(OrderedGroupSpec(law, order), cfg).passed
            admitted = _breaking_bracket(law.brackets(), sig) is None
            if classified != ordered or admitted != ordered:
                wrong.append((law, sig))
    assert wrong == []


def test_ordered_abelian_any_significance():
    cls, wit = classify_ordered(Additive(3), LexOrder((2, 0, 1)), CFG)
    assert cls.label == "R3"
    assert wit.verification.order_ok
    assert abs(np.linalg.det(wit.matrix)) == 1.0


def test_non_ordered_pair_raises_with_counterexample():
    # the counterexample is the bracket that breaks the flag, read off the table
    with pytest.raises(DomainError) as exc:
        classify_ordered(SemidirectRR(1.0), LexOrder((0, 1)), CFG)
    assert str(exc.value) == (
        "SemidirectRR with significance (0, 1) is not an ordered group: [e_1, e_0] = 1.0 e_0 "
        "is more significant than e_1, so the flag is not a chain of ideals")


@pytest.mark.parametrize("law", [GCd(0.0, 30.0), KCd(0.0, 30.0)], ids=["g_cd", "k_cd"])
def test_ordered_pair_whose_translated_images_tie_classifies(law):
    # z1 + e^{30 y1} z2 absorbs z1 on most samples, so translated images of
    # pairs that differ only in z tie in floating point; the table admits the
    # order, and the witness verifies
    _, wit = classify_ordered(law, XYZ, CFG)
    assert wit.verification.passed


# --- witness verification -----------------------------------------------------------


def test_chart_change_witness_verifies_tightly():
    from ordgroups import heis_to_sut3, sut3_to_heis

    wit = function_witness(SUT3(), heisenberg(), sut3_to_heis, heis_to_sut3)
    rep = verify_witness(wit, CFG)
    assert rep.passed
    assert rep.hom_residual <= 1e-12


def test_witness_verdict_is_per_coordinate():
    # on Aff x R with c = 2 the normal coordinate of a product reaches about
    # 1e3 at box 3, the free one only 6; a 1e-8 z^2 defect on the free
    # coordinate breaks the homomorphism there by up to about 2e-7, far over
    # that coordinate's bound though under 1e-9 * 1e3
    from ordgroups import function_witness

    law = Product(SemidirectRR(2.0), Additive(1))

    def forward(a):
        out = np.array(a, dtype=float)
        out[..., 2] += 1e-8 * out[..., 2] ** 2
        return out

    def inverse(a):
        out = np.array(a, dtype=float)
        out[..., 2] = 2.0 * out[..., 2] / (1.0 + np.sqrt(1.0 + 4e-8 * out[..., 2]))
        return out

    rep = verify_witness(function_witness(law, law, forward, inverse), SampleConfig(seed=0))
    assert 1e-8 < rep.hom_residual < 1e-6
    assert rep.roundtrip_residual < 1e-12
    assert not rep.group_ok and not rep.passed


def test_module_swap_witness():
    for c in (2.0, -3.0):
        wit = linear_witness(
            KCd(c, 1.0), KCd(1.0 / c, 1.0),
            [[c, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        rep = verify_witness(wit, CFG)
        assert rep.passed
        assert rep.hom_residual <= 1e-9


def test_corrupted_witness_fails():
    # a plane shear keeps the determinant, so corrupt the center scaling
    m = np.diag([4.0, 1.0, 1.0])
    m[2, 2] += 1e-3
    wit = linear_witness(Ec(-4.0), Ec(-1.0), m)
    rep = verify_witness(wit, CFG)
    assert not rep.passed
    assert rep.hom_residual > 1e-6


@pytest.mark.parametrize("pair", [((0, 1, 2), (1, 0)), ((1, 0), (0,))], ids=["source", "target"])
def test_witness_order_claim_must_match_the_dimension(monkeypatch, pair):
    from ordgroups import InputError

    # both constructors reject the claim before any sample is drawn
    monkeypatch.setattr(SampleConfig, "rng", lambda *_: pytest.fail("a sample was drawn"))
    law, claim = SemidirectRR(1.0), tuple(LexOrder(sig) for sig in pair)
    with pytest.raises(InputError, match="has length"):
        linear_witness(law, law, np.eye(2), order_pair=claim)
    with pytest.raises(InputError, match="has length"):
        function_witness(law, law, lambda a: a, lambda a: a, order_pair=claim)


def test_singular_witness_reported_not_inverted():
    wit = linear_witness(Additive(2), Additive(2), [[1.0, 1.0], [1.0, 1.0]])
    rep = verify_witness(wit, CFG)
    assert not rep.invertible and not rep.passed


@pytest.mark.parametrize("scale", [1e-5, 1e-100, 1e100])
def test_invertibility_does_not_depend_on_the_matrix_scale(scale):
    # |det| of the valid diag(1e-5, 1e-5, 1e-5) is 1e-15
    wit = linear_witness(Additive(3), Additive(3), scale * np.eye(3))
    assert verify_witness(wit, CFG).invertible
    singular = scale * np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    assert not verify_witness(linear_witness(Additive(3), Additive(3), singular), CFG).invertible


def test_non_finite_witness_matrix_is_not_invertible():
    wit = linear_witness(Additive(2), Additive(2), [[np.nan, 0.0], [0.0, 1.0]])
    rep = verify_witness(wit, CFG)
    assert not rep.invertible and not rep.passed


def test_witness_composition_through_the_canonical_chart():
    # two members of the central family compose to a direct isomorphism
    _, w_c = classify_group(Ec(2.0), CFG)   # canonical -> Ec(2)
    _, w_d = classify_group(Ec(-5.0), CFG)  # canonical -> Ec(-5)
    direct = compose_witness(w_d, invert_witness(w_c))  # Ec(2) -> Ec(-5)
    assert direct.source == Ec(2.0) and direct.target == Ec(-5.0)
    rep = verify_witness(direct, CFG)
    assert rep.passed
    assert rep.hom_residual <= 1e-9


def test_inverse_and_composite_of_an_ordered_linear_witness_keep_its_order_claim():
    # inv of the shear [[1, 0, 0], [2, 3, 0], [0, 0, 1]] leaves 2.8e-17 above
    # the diagonal, which the exact order rule would read as a real entry
    ordered = [w for _, w in _paper_witnesses() if w.matrix is not None and w.order_pair]
    ordered += [classify_ordered(law, order, CFG)[1] for law, order in
                [(GCd(2.0, 3.0), XYZ), (GCd(1.0, 2.0), LexOrder((1, 0, 2))), (Ec(-4.0), XYZ)]]
    for w in ordered:
        back = invert_witness(w)
        assert verify_witness(back, CFG).order_ok, w.matrix
        assert verify_witness(compose_witness(w, back), CFG).order_ok, w.matrix


# --- canonical catalog ----------------------------------------------------------------


def test_enumerate_counts():
    assert len(enumerate_canonical(1)) == 1
    assert [c.label for c, _, _ in enumerate_canonical(2)] == [
        "R2_abelian", "Aff_plus", "Aff_minus"]
    labels = [c.label for c, _, _ in enumerate_canonical(3)]
    assert labels.count("ProdAff_order_yzx") == 2
    assert labels.count("ProdAff_order_zyx") == 2
    assert labels.count("ProdAff_order_yxz") == 2
    for expected in ("R3", "E_plus", "E_minus", "K_plus", "K_minus", "T_plus", "T_minus"):
        assert expected in labels
    assert len(labels) == 13


def test_classification_is_idempotent_on_the_catalog():
    for dim in (1, 2, 3):
        for cls, law, order in enumerate_canonical(dim):
            got, wit = classify_ordered(law, order, CFG)
            assert (got.label, got.params) == (cls.label, cls.params)
            assert np.array_equal(wit.matrix, np.eye(dim))
            assert wit.verification.group_ok and wit.verification.order_ok


def test_enumerate_rejects_other_dimensions():
    from ordgroups import InputError

    with pytest.raises(InputError):
        enumerate_canonical(4)


# --- separating invariants ---------------------------------------------------------------


def test_central_pair_separated_by_commutator_sign():
    ev = separating_invariant(
        OrderedGroupSpec(Ec(1.0), XYZ), OrderedGroupSpec(Ec(-1.0), XYZ))
    assert isinstance(ev, Evidence)
    assert ev.invariant == "commutator_sign"
    assert (ev.value_a, ev.value_b) == (1, -1)


def test_affine_pair_separated_by_conjugation_direction():
    ev = separating_invariant(
        OrderedGroupSpec(SemidirectRR(1.0), REV2),
        OrderedGroupSpec(SemidirectRR(-1.0), REV2))
    assert isinstance(ev, Evidence)
    assert ev.invariant == "fiber_conjugation_direction"
    assert (ev.value_a, ev.value_b) == (1, -1)


def test_abelian_pair_separated_from_affine():
    ev = separating_invariant(
        OrderedGroupSpec(Additive(2), REV2),
        OrderedGroupSpec(SemidirectRR(1.0), REV2))
    assert isinstance(ev, Evidence)
    assert ev.invariant == "abelian"


def test_nontrivial_action_separated_from_product_by_convex_plane():
    ev = separating_invariant(
        OrderedGroupSpec(GCd(0.0, 1.0), XYZ),
        OrderedGroupSpec(KCd(1.0, 0.0), XYZ))
    assert isinstance(ev, Evidence)
    assert ev.invariant == "abelian_convex_plane"
    assert (ev.value_a, ev.value_b) == (False, True)


def test_nonsplit_pair_separated_by_commutator_sign():
    t = LexOrder((2, 1, 0))
    ev = separating_invariant(
        OrderedGroupSpec(Tk(1.0), t), OrderedGroupSpec(Tk(-1.0), t))
    assert isinstance(ev, Evidence)
    assert ev.invariant == "commutator_sign"


def test_plane_action_variants_separated():
    ev = separating_invariant(
        OrderedGroupSpec(GCd(0.0, 1.0), XYZ),
        OrderedGroupSpec(GCd(0.0, -1.0), XYZ))
    assert isinstance(ev, Evidence)
    assert ev.invariant == "middle_action_on_fiber"

    ev = separating_invariant(
        OrderedGroupSpec(GCd(1.0, 0.0), XYZ),
        OrderedGroupSpec(GCd(-1.0, 0.0), XYZ))
    assert isinstance(ev, Evidence)
    assert ev.invariant == "fiber_conjugation_direction"


def test_identical_specs_not_separated():
    out = separating_invariant(
        OrderedGroupSpec(Ec(1.0), XYZ), OrderedGroupSpec(Ec(1.0), XYZ))
    assert isinstance(out, NotSeparated)


def test_diagonal_family_parameter_is_catalog_knowledge():
    out = separating_invariant(
        OrderedGroupSpec(KCd(1.0, 2.0), XYZ),
        OrderedGroupSpec(KCd(1.0, 3.0), XYZ))
    assert isinstance(out, NotSeparated)


@pytest.mark.parametrize("law_a, law_b, sig", [
    (GCd(1.0, 0.1), GCd(-1.0, 0.1), (0, 1, 2)),
    (GCd(0.1, 2.0), GCd(0.1, -1.0), (1, 0, 2)),
])
def test_one_ordered_class_is_not_separated_by_the_sign_of_a_mixed_character(law_a, law_b, sig):
    # e_sig0 and e_sig1 both act on e_z, so the fiber's conjugation character
    # reads the middle coordinate too: on the positive cone, where g_sig0 may
    # be tiny next to |g_sig1|, its sign is mixed. A box with g_sig0 >= 0.5
    # once read it as the sign of the leading coefficient alone.
    order = LexOrder(sig)
    out = separating_invariant(OrderedGroupSpec(law_a, order), OrderedGroupSpec(law_b, order))
    assert isinstance(out, NotSeparated)
    assert classify_ordered(law_a, order)[0] == classify_ordered(law_b, order)[0]


@pytest.mark.parametrize("spec", [
    # span{e_x, e_z} is no ideal: [e_z, e_y] = k e_x + e_y
    OrderedGroupSpec(Tk(3.0), LexOrder((1, 2, 0))),
    OrderedGroupSpec(_unnamed_cocycle_law(), XYZ),
], ids=["flag not a chain of ideals", "no bracket table"])
def test_separating_invariant_rejects_a_spec_outside_the_admitted_ordered_groups(spec):
    other = OrderedGroupSpec(Ec(1.0), XYZ)
    for a, b in ((spec, other), (other, spec)):
        with pytest.raises(DomainError, match="chain of ideals"):
            separating_invariant(a, b)


def test_separating_invariant_on_a_law_with_no_bracket_table_says_so():
    spec = OrderedGroupSpec(_unnamed_cocycle_law(), XYZ)
    with pytest.raises(DomainError) as exc:
        separating_invariant(spec, OrderedGroupSpec(Ec(1.0), XYZ))
    assert str(exc.value) == ("CocycleLaw with significance (0, 1, 2) has no bracket table "
                              "whose flag is a chain of ideals")


def test_separating_invariant_past_dimension_3_is_a_domain_error():
    spec = OrderedGroupSpec(Product(Additive(2), Additive(2)), LexOrder((0, 1, 2, 3)))
    with pytest.raises(DomainError, match="dimensions 1 to 3 only"):
        separating_invariant(spec, spec)


@pytest.mark.parametrize("law, sig, abelian, direction", [
    (Additive(2), (0, 1), True, 0),
    (SemidirectRR(2.0), (1, 0), False, 1),
    (SemidirectRR(-0.5), (1, 0), False, -1),
], ids=["abelian", "expanding", "contracting"])
def test_dimension_two_invariants_read_off_the_table(law, sig, abelian, direction):
    # [e_y, e_x] = c e_x: conjugation by the leading e_y scales the fiber by
    # e^{c g_y}, which expands it on the positive cone when c > 0
    assert _table_invariants(OrderedGroupSpec(law, LexOrder(sig))) == {
        "abelian": abelian, "fiber_conjugation_direction": direction}


def test_one_dimensional_specs_carry_no_invariant():
    line = OrderedGroupSpec(Additive(1), LexOrder((0,)))
    assert _table_invariants(line) == {}
    assert isinstance(separating_invariant(line, line), NotSeparated)
    ev = separating_invariant(line, OrderedGroupSpec(Additive(2), REV2))
    assert (ev.invariant, ev.value_a, ev.value_b) == ("dimension", 1, 2)


def test_dimension_mismatch_is_evidence():
    ev = separating_invariant(
        OrderedGroupSpec(Additive(2), REV2), OrderedGroupSpec(Additive(3), XYZ))
    assert isinstance(ev, Evidence)
    assert ev.invariant == "dimension"


def test_battery_separates_the_whole_catalog_pairwise(monkeypatch):
    # every pair of distinct canonical classes in one dimension is told apart;
    # within the diagonal families only the catalog parameter distinguishes.
    # The battery reads the bracket tables and draws no sample.
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(SampleConfig, "sample", no_draw)
    monkeypatch.setattr(SampleConfig, "rng", no_draw)
    for dim in (2, 3):
        entries = enumerate_canonical(dim)
        for i, (cls_a, law_a, ord_a) in enumerate(entries):
            for cls_b, law_b, ord_b in entries[i + 1:]:
                ev = separating_invariant(
                    OrderedGroupSpec(law_a, ord_a), OrderedGroupSpec(law_b, ord_b))
                assert isinstance(ev, Evidence), (cls_a.label, cls_a.params,
                                                  cls_b.label, cls_b.params)


@functools.lru_cache(maxsize=None)
def _classified_specs():
    """(spec, class, witness) for every pair whose flag the law's table admits:
    the selftest grid, the catalog, and GCd/KCd over a 9-value grid that
    reaches exponents ten times apart."""
    grid = (-2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0)
    laws = _law_grid() + [law for dim in (1, 2, 3) for _, law, _ in enumerate_canonical(dim)]
    laws += [family(c, d) for family in (GCd, KCd) for c in grid for d in grid]
    cfg = SampleConfig(seed=3, count=200)
    out = []
    for law in dict.fromkeys(laws):
        for sig in permutations(range(law.dim)):
            if _breaking_bracket(law.brackets(), sig) is None:
                cls, wit = classify_ordered(law, LexOrder(sig), cfg)
                out.append((OrderedGroupSpec(law, LexOrder(sig)), cls, wit))
    return out


def test_specs_of_one_ordered_class_are_never_separated():
    # the classifier is the oracle: a verified order-preserving witness joins
    # the two specs, so no invariant of ordered groups may tell them apart
    classes = {}
    for spec, cls, wit in _classified_specs():
        assert wit.verification.passed, spec
        classes.setdefault((cls.label, cls.params), []).append(spec)
    separated = [(a, b, ev) for specs in classes.values()
                 for i, a in enumerate(specs) for b in specs[i + 1:]
                 if isinstance(ev := separating_invariant(a, b), Evidence)]
    assert separated == []


def test_flag_tables_fill_four_slots_and_name_catalog_classes():
    # a chain of ideals leaves the slots A = (1,0,1), B = (2,0,1), C = (2,0,2)
    # and D = (2,1,2), and the Jacobi identity on the flag basis reads A D = 0.
    # Each ordered class is a catalog entry, K up to its free f.
    slots = {1: set(), 2: {(1, 0, 1)}, 3: {(1, 0, 1), (2, 0, 1), (2, 0, 2), (2, 1, 2)}}
    catalog = {(cls.label, cls.params): cls
               for dim in (1, 2, 3) for cls, _, _ in enumerate_canonical(dim)}
    wrong = []
    for spec, cls, _ in _classified_specs():
        flag = _flag_table(spec.law, spec.order.significance)
        a, d = flag.get((1, 0, 1), 0.0), flag.get((2, 1, 2), 0.0)
        if not set(flag) <= slots[spec.law.dim] or a * d != 0.0:
            wrong.append((spec, flag))
        if cls.label.startswith("K_"):
            k = catalog[cls.label, (("f", 2.0),)]
            if (cls.law, cls.order) != (KCd(k.law.c, cls.param_dict["f"]), k.order):
                wrong.append((spec, cls))
        elif cls != catalog.get((cls.label, cls.params)):
            wrong.append((spec, cls))
    assert wrong == []


def _cone(rng, dim, coords, n=600):
    """n elements supported on coords and positive in an order that ranks
    coords[0] first: it is 1e-3 in every other row and up to 3 elsewhere,
    and the other coordinates reach +-30."""
    x = np.zeros((n, dim))
    x[:, coords[0]] = np.where(np.arange(n) % 2, 1e-3, rng.uniform(1e-3, 3.0, n))
    for i in coords[1:]:
        x[:, i] = rng.uniform(-30.0, 30.0, n)
    return x


def _sampled_sign(values, scale):
    """+1, -1 or 0 when every row has that sign beyond 1e-9 of the scale, else None."""
    cut = 1e-9 * max(1.0, scale)
    signs = set(np.where(values > cut, 1, np.where(values < -cut, -1, 0)).tolist())
    return signs.pop() if len(signs) == 1 else None


def test_table_invariants_are_the_group_s_signs_across_the_positive_cone():
    # each value the table gives, None included, is what conjugations and
    # commutators of the group show where a box of half-width 3 never looks
    rng = np.random.default_rng(16)
    wrong = []
    for spec, _, _ in _classified_specs():
        law, sig = spec.law, spec.order.significance
        if law.dim == 1:
            continue

        def direction(g, h, i):
            return _sampled_sign(conjugate(law, g, h)[:, i] - h[:, i], np.abs(h).max())

        mid, fib = sig[-2:]
        a, b = _cone(rng, law.dim, sig[-2:]), _cone(rng, law.dim, sig[-2:])
        g, h_fib = _cone(rng, law.dim, sig), _cone(rng, law.dim, (fib,))
        sampled = {"abelian" if law.dim == 2 else "abelian_convex_plane":
                   DEFAULT_TOL.close(law.mul(a, b), law.mul(b, a)),
                   "fiber_conjugation_direction": direction(g, h_fib, fib)}
        if law.dim == 3:
            h_mid = _cone(rng, 3, (mid,))
            comm = commutator(law, g, h_mid)
            sampled["commutator_sign"] = _sampled_sign(comm[:, fib], np.abs(comm).max())
            sampled["middle_conjugation_direction"] = direction(g, h_mid, mid)
            sampled["middle_action_on_fiber"] = direction(_cone(rng, 3, (mid,)), h_fib, fib)
        table = _table_invariants(spec)
        wrong += [(spec, name, v, sampled[name]) for name, v in table.items()
                  if sampled[name] != v]
    assert wrong == []


def _bracket(table, u, v):
    """[u, v] from the bracket table, bilinear in the two coordinate vectors."""
    out = np.zeros(len(u))
    for (k, i, j), b in table.items():
        out[k] += b * (u[i] * v[j] - u[j] * v[i])
    return out


def _lie_defects(wit):
    """The pairs i < j where M [e_i, e_j] and [M e_i, M e_j] differ beyond 1e-12
    relative: a linear group isomorphism's differential preserves brackets."""
    m, src, tgt = wit.matrix, wit.source.brackets(), wit.target.brackets()
    e = np.eye(len(m))
    out = []
    for i, j in combinations(range(len(m)), 2):
        lhs, rhs = m @ _bracket(src, e[i], e[j]), _bracket(tgt, m[:, i], m[:, j])
        if np.abs(lhs - rhs).max() > 1e-12 * max(1.0, np.abs(lhs).max(), np.abs(rhs).max()):
            out.append((i, j, lhs.tolist(), rhs.tolist()))
    return out


def test_linear_witnesses_are_lie_algebra_homomorphisms():
    witnesses = [wit for _, _, wit in _classified_specs()]
    witnesses += [classify_group(law, SampleConfig(seed=3, count=200))[1]
                  for law in dict.fromkeys(spec.law for spec, _, _ in _classified_specs())]
    witnesses += [wit for _, wit in _paper_witnesses()]
    linear = [wit for wit in witnesses if wit.matrix is not None]
    assert len(linear) > 500
    failing = [(wit.source, wit.target, d) for wit in linear if (d := _lie_defects(wit))]
    assert failing == []


# --- one pair draw and one verification per classification --------------------------


def _count_calls(monkeypatch, name, *modules):
    """Count the calls made through the name `name` in each of the modules."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("law, sig", [
    (Ec(-4.0), (0, 1, 2)),
    (GCd(1.0, 2.0), (1, 0, 2)),
    (Tk(1.0), (2, 1, 0)),
    (SUT3(), (0, 1, 2)),
    (SemidirectRR(2.0), (1, 0)),
])
def test_classify_ordered_draws_pairs_once_and_verifies_once(monkeypatch, law, sig):
    from ordgroups import classify as classify_mod

    pairs = _count_calls(monkeypatch, "_ordered_pairs", classify_mod)
    verifies = _count_calls(monkeypatch, "verify_witness", classify_mod)
    streams, rng = [], SampleConfig.rng

    def counting_rng(self, stream=0):
        streams.append(stream)
        return rng(self, stream)

    monkeypatch.setattr(SampleConfig, "rng", counting_rng)
    _, wit = classify_ordered(law, LexOrder(sig), CFG)
    # a linear witness's order claim is read off its matrix, so it draws no
    # pair stream (11 or 12); the SUT3 chart change is a function and draws once
    linear = wit.matrix is not None
    assert linear is not isinstance(law, SUT3)
    assert len(pairs) == (0 if linear else 1) and len(verifies) == 1
    pair_streams = [s for s in streams if s in (11, 12)]
    assert pair_streams == ([] if linear else [11, 12])
    # the table decides bi-invariance: no translating element (stream 13) is drawn
    assert streams and 13 not in streams
    # the shared pairs give the report a fresh, full verification would give
    assert wit.verification == verify_witness(wit, CFG)
    assert wit.verification.group_ok and wit.verification.order_ok


def test_cli_classify_reports_the_classification_s_own_verification(monkeypatch, capsys):
    import json

    from ordgroups import classify as classify_mod
    from ordgroups import cli, jsonio

    # cli calls verify_witness through the classify module, so one patch sees every call
    verifies = _count_calls(monkeypatch, "verify_witness", classify_mod)
    desc = '{"family":"k_cd","params":{"c":2,"d":-3}}'
    law = jsonio.law_from_descriptor(json.loads(desc))
    cfg = SampleConfig(seed=5, count=700)
    for order in ("0,1,2", None):
        verifies.clear()
        argv = ["classify", "--law", desc, "--seed", "5", "--samples", "700"]
        code = cli.main(argv + (["--order", order] if order else []))
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and len(verifies) == 1
        if order:
            _, wit = classify_ordered(law, LexOrder((0, 1, 2)), cfg)
        else:
            _, wit = classify_group(law, cfg)
        assert payload["verification"] == verify_witness(wit, cfg).to_dict()
