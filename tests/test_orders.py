"""Lexicographic comparison and ordered-group verification."""

from itertools import permutations

import numpy as np
import pytest

from ordgroups import (
    Additive,
    Comparison,
    Ec,
    GCd,
    InputError,
    KCd,
    LexOrder,
    OrderedGroupSpec,
    SampleConfig,
    SemidirectRR,
    check_conjugation_order_preserving,
    check_translation_invariance,
    classify_ordered,
    compare,
    lex_less,
    multiply,
    verify_witness,
)
from ordgroups.orders import _ordered_pairs

RNG = np.random.default_rng(11)


def test_compare_worked_examples():
    o = LexOrder((0, 1, 2))
    assert compare(o, [1, 0, 0], [0, 9, 9]) is Comparison.GT
    assert compare(LexOrder((2, 1, 0)), [9, 9, 0], [0, 0, 1]) is Comparison.LT
    assert compare(o, [1, 2, 3], [1, 2, 3]) is Comparison.EQ


def test_compare_breaks_ties_down_the_significance_list():
    o = LexOrder((1, 0))
    assert compare(o, [5, 1], [0, 1]) is Comparison.GT
    assert compare(o, [0, 1], [0, 1]) is Comparison.EQ


def test_lex_order_must_be_a_permutation():
    with pytest.raises(InputError):
        LexOrder((0, 0, 1))
    with pytest.raises(InputError):
        LexOrder((0, 2))


def test_spec_dimensions_must_match():
    with pytest.raises(InputError):
        OrderedGroupSpec(Additive(3), LexOrder((0, 1)))


def test_compare_is_a_total_order_on_samples():
    o = LexOrder((2, 0, 1))
    pts = RNG.uniform(-3, 3, (60, 3))
    for a in pts[:20]:
        for b in pts[20:40]:
            ab, ba = compare(o, a, b), compare(o, b, a)
            assert ab.value == -ba.value  # antisymmetry
    for a, b, c in zip(pts[:20], pts[20:40], pts[40:]):
        trio = sorted([tuple(a), tuple(b), tuple(c)],
                      key=lambda t: tuple(t[i] for i in o.significance))
        assert compare(o, trio[0], trio[1]) is not Comparison.GT
        assert compare(o, trio[1], trio[2]) is not Comparison.GT
        assert compare(o, trio[0], trio[2]) is not Comparison.GT  # transitivity


def test_lex_less_matches_scalar_compare():
    o = LexOrder((1, 0))
    a = RNG.uniform(-3, 3, (500, 2))
    b = RNG.uniform(-3, 3, (500, 2))
    batch = lex_less(o, a, b)
    for i in range(0, 500, 37):
        assert batch[i] == (compare(o, a[i], b[i]) is Comparison.LT)


# --- translation invariance ---------------------------------------------------


def test_affine_chart_with_acting_major_order_is_ordered():
    spec = OrderedGroupSpec(SemidirectRR(1.0), LexOrder((1, 0)))
    rep = check_translation_invariance(spec, SampleConfig(seed=1, count=2000))
    assert rep.left_ok and rep.right_ok


def test_affine_chart_with_normal_major_order_fails_on_the_right():
    spec = OrderedGroupSpec(SemidirectRR(1.0), LexOrder((0, 1)))
    rep = check_translation_invariance(spec, SampleConfig(seed=1, count=2000))
    assert rep.left_ok
    assert not rep.right_ok
    assert rep.counterexample_right is not None

    # the documented counterexample, evaluated directly
    law, order = spec.law, spec.order
    h, hp, g = np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([-1.0, 0.0])
    assert compare(order, h, hp) is Comparison.LT
    hg, hpg = multiply(law, h, g), multiply(law, hp, g)
    assert np.allclose(hg, [0.0, 0.0])
    assert np.allclose(hpg, [1.0 - np.e, 1.0])
    assert compare(order, hg, hpg) is Comparison.GT


def test_abelian_group_is_ordered_under_every_significance():
    for sig in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
        spec = OrderedGroupSpec(Additive(3), LexOrder(sig))
        rep = check_translation_invariance(spec, SampleConfig(seed=2, count=1000))
        assert rep.passed


def test_counterexample_fields_populated_on_failure():
    spec = OrderedGroupSpec(SemidirectRR(1.0), LexOrder((0, 1)))
    rep = check_translation_invariance(spec, SampleConfig(seed=3, count=2000))
    g, h, hp = rep.counterexample_right
    law, order = spec.law, spec.order
    assert compare(order, h, hp) is Comparison.LT
    assert compare(order, multiply(law, h, g), multiply(law, hp, g)) is not Comparison.LT


# --- conjugation order preservation --------------------------------------------


def test_conjugation_preserves_order_on_diagonal_module():
    spec = OrderedGroupSpec(KCd(1.0, 1.0), LexOrder((0, 1, 2)))
    rep = check_conjugation_order_preserving(spec, (1, 2), SampleConfig(seed=4))
    assert rep.passed


def test_conjugation_preserves_order_on_center():
    spec = OrderedGroupSpec(Ec(1.0), LexOrder((0, 1, 2)))
    rep = check_conjugation_order_preserving(spec, (2,), SampleConfig(seed=5))
    assert rep.passed


def test_conjugation_preserves_order_on_scaled_fiber():
    spec = OrderedGroupSpec(GCd(0.0, 1.0), LexOrder((0, 1, 2)))
    rep = check_conjugation_order_preserving(spec, (2,), SampleConfig(seed=6))
    assert rep.passed


def test_non_closed_coordinates_rejected():
    # the plane spanned by the first two central-extension coordinates leaks
    # into the center under multiplication
    spec = OrderedGroupSpec(Ec(1.0), LexOrder((0, 1, 2)))
    with pytest.raises(InputError):
        check_conjugation_order_preserving(spec, (0, 1), SampleConfig(seed=7))
    with pytest.raises(InputError):
        check_conjugation_order_preserving(spec, (0, 5), SampleConfig(seed=7))


# --- transport through verified order isomorphisms ------------------------------


def test_ordered_property_transports_through_verified_witness():
    cfg = SampleConfig(seed=8, count=1000)
    source = OrderedGroupSpec(Ec(2.0), LexOrder((0, 1, 2)))
    assert check_translation_invariance(source, cfg).passed
    cls, wit = classify_ordered(source.law, source.order, cfg)
    assert wit.order_verified and verify_witness(wit, cfg).passed
    target = OrderedGroupSpec(cls.law, cls.order)
    assert check_translation_invariance(target, cfg).passed


# --- the sampled pair builder ------------------------------------------------------


def _reference_ordered_pairs(order, cfg, dim):
    """The per-block construction: one sort and tie mask per shared-prefix block."""
    h = cfg.sample(dim, stream=11)
    hp = cfg.sample(dim, stream=12)
    blocks = [(h, hp)]
    for k in range(1, dim):
        shared = hp.copy()
        for idx in order.significance[:k]:
            shared[:, idx] = h[:, idx]
        blocks.append((h, shared))
    lo, hi = [], []
    for a, b in blocks:
        swap = lex_less(order, b, a)
        eq = ~swap & ~lex_less(order, a, b)
        a2 = np.where(swap[:, None], b, a)
        b2 = np.where(swap[:, None], a, b)
        lo.append(a2[~eq])
        hi.append(b2[~eq])
    return np.concatenate(lo, axis=0), np.concatenate(hi, axis=0)


class _CoarseSamples(SampleConfig):
    """Samples rounded to a coarse grid, so coordinates and whole rows tie."""

    def sample(self, dim, stream=0, count=None):
        return np.round(super().sample(dim, stream, count))


def _assembled_pairs(pairs):
    """lo and hi assembled from the blocks through the swap mask."""
    lo, hi = [], []
    for block in pairs.blocks():
        swap = block.swap[:, None]
        lo.append(np.where(swap, block.b, block.a))
        hi.append(np.where(swap, block.a, block.b))
        assert block.kept.stop - block.kept.start == block.swap.size
    assert sum(len(x) for x in lo) == pairs.count
    return np.concatenate(lo, axis=0), np.concatenate(hi, axis=0)


@pytest.mark.parametrize("cfg", [SampleConfig(seed=4, count=300), _CoarseSamples(seed=4, count=300)],
                         ids=["continuous", "coarse"])
def test_ordered_pairs_match_the_per_block_construction(cfg):
    for dim in (1, 2, 3):
        for sig in permutations(range(dim)):
            order = LexOrder(sig)
            lo, hi = _assembled_pairs(_ordered_pairs(order, cfg, dim))
            ref_lo, ref_hi = _reference_ordered_pairs(order, cfg, dim)
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi), sig
            assert lex_less(order, lo, hi).all()
            if isinstance(cfg, _CoarseSamples):
                # ties were dropped, so the tie-removal branch ran
                assert lo.shape[0] < dim * cfg.count
