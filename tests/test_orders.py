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
from ordgroups import tolerance
from ordgroups.orders import PairBlock, SampledPairs, _lex_compare, _ordered_pairs

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
    assert wit.verification.order_ok and verify_witness(wit, cfg).passed
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

    def sample(self, dim, stream=0, count=None, start=0, out=None):
        return np.round(super().sample(dim, stream, count, start, out), out=out)


def _assembled_pairs(pairs, cfg):
    """lo and hi assembled from the blocks through the swap mask: each level's
    kept rows, the levels concatenated in order. The blocks are those an
    identity side sees in one scan: it keeps every pair in order, so it sees
    every level of every row block, a block's levels in turn on one thread."""
    h = cfg.sample(pairs.order.dim, 11)
    lo, hi = ([[] for _ in range(pairs.levels)] for _ in range(2))
    stop = [0] * pairs.levels
    seen = {}

    def record(g, block):
        k = len(seen.setdefault(block.rows.start, []))
        swap = block.swap[:, None]
        seen[block.rows.start].append((k, block.rows, np.array_equal(h[block.rows], block.a),
                                       block.keep.shape == block.swap.shape == (len(block.a),),
                                       np.where(swap, block.b, block.a)[block.keep],
                                       np.where(swap, block.a, block.b)[block.keep]))
        return block.a, block.b

    count, (hit,) = pairs.scan((pairs.order, record))
    assert hit is None
    for k, rows, drawn, shaped, block_lo, block_hi in (
            block for start in sorted(seen) for block in seen[start]):
        # each level's blocks cover its rows of the draws in order
        assert rows.start == stop[k]
        stop[k] = rows.stop
        assert drawn and shaped
        lo[k].append(block_lo)
        hi[k].append(block_hi)
    assert stop == [cfg.count] * pairs.levels
    lo, hi = (np.concatenate([rows for level in side for rows in level]) for side in (lo, hi))
    assert len(lo) == count
    return lo, hi


@pytest.mark.parametrize("cfg", [SampleConfig(seed=4, count=300), _CoarseSamples(seed=4, count=300)],
                         ids=["continuous", "coarse"])
def test_ordered_pairs_match_the_per_block_construction(cfg):
    for dim in (1, 2, 3):
        for sig in permutations(range(dim)):
            order = LexOrder(sig)
            lo, hi = _assembled_pairs(_ordered_pairs(order, cfg, dim), cfg)
            ref_lo, ref_hi = _reference_ordered_pairs(order, cfg, dim)
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi), sig
            assert lex_less(order, lo, hi).all()
            if isinstance(cfg, _CoarseSamples):
                # some rows tie, so the tie mask was exercised
                assert lo.shape[0] < dim * cfg.count


# --- the early-exit comparison ----------------------------------------------------

_SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])


def _scalar_compare(order, a, b):
    """compare, which takes finite elements only, or the same loop on the
    floats of a row with a NaN, an inf or a -0.0 in it."""
    if np.isfinite(a).all() and np.isfinite(b).all():
        return compare(order, a, b)
    for idx in order.significance:
        if a[idx] < b[idx]:
            return Comparison.LT
        if a[idx] > b[idx]:
            return Comparison.GT
    return Comparison.EQ


def _lex_blocks(order, seed, n=200):
    """(a, b) blocks of n rows whose first 0 .. dim most significant
    coordinates tie on every row, then on every other row; each with a fifth
    of its entries NaN, +-inf or +-0.0, and once with none."""
    rng = np.random.default_rng(seed)
    for special in (0.0, 0.2):
        for tied in range(order.dim + 1):
            for rows in (slice(None), slice(None, None, 2)):
                a, b = rng.uniform(-3, 3, (2, n, order.dim))
                for x in (a, b):
                    mask = rng.random(x.shape) < special
                    x[mask] = rng.choice(_SPECIAL, mask.sum())
                for idx in order.significance[:tied]:
                    b[rows, idx] = a[rows, idx]
                yield np.asfortranarray(a), np.asfortranarray(b)


def _old_lex_compare(significance, a, b):
    """The comparison before its early exit: every coordinate, every row."""
    shape = np.broadcast_shapes(a.shape, b.shape)[:-1]
    less, decided = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    for idx in significance:
        lt, gt = a[..., idx] < b[..., idx], a[..., idx] > b[..., idx]
        less |= ~decided & lt
        decided |= lt | gt
    return less, decided


def _assert_oracle(order, got, pairs):
    """got = (less, differ) holds compare's verdict on each pair (a, b) in turn."""
    less, differ = got
    assert less.shape == differ.shape == (len(pairs),)
    for i, (a, b) in enumerate(pairs):
        c = _scalar_compare(order, a, b)
        assert less[i] == (c is Comparison.LT) and differ[i] == (c is not Comparison.EQ)


@pytest.mark.parametrize("sig", [sig for dim in (1, 2, 3) for sig in permutations(range(dim))],
                         ids=str)
def test_lex_compare_matches_the_scalar_oracle_row_by_row(sig):
    order = LexOrder(sig)
    for a, b in _lex_blocks(order, seed=len(sig) * 10 + sig[0]):
        less, differ = _lex_compare(sig, a, b)
        assert np.array_equal(lex_less(order, a, b), less)
        old_less, old_differ = _old_lex_compare(sig, a, b)
        assert np.array_equal(less, old_less) and np.array_equal(differ, old_differ)
        _assert_oracle(order, (less, differ), list(zip(a, b)))
        # one element against a stack, both ways round
        _assert_oracle(order, _lex_compare(sig, a[0], b), [(a[0], y) for y in b])
        _assert_oracle(order, _lex_compare(sig, b, a[0]), [(y, a[0]) for y in b])


def test_lex_compare_of_single_elements_is_a_0d_array():
    order = LexOrder((1, 0))
    for a, b, want in (([0.0, 1.0], [5.0, 2.0], (True, True)),
                       ([5.0, 1.0], [0.0, 1.0], (False, True)),
                       ([0.0, 1.0], [-0.0, 1.0], (False, False)),
                       ([np.nan, 1.0], [0.0, 1.0], (False, False))):
        a, b = np.array(a), np.array(b)
        less, differ = _lex_compare(order.significance, a, b)
        assert type(less) is np.ndarray and less.shape == () and differ.shape == ()
        assert (bool(less), bool(differ)) == want
        assert type(lex_less(order, a, b)) is np.ndarray
    # a 0-dimensional order ties every pair
    less, differ = _lex_compare((), np.zeros((3, 0)), np.zeros((3, 0)))
    assert not less.any() and not differ.any()


def _pair_block(swap, keep):
    n = len(swap)
    return PairBlock(np.empty((n, 0)), np.empty((n, 0)), swap, slice(0, n), keep)


@pytest.mark.parametrize("sig", [(0,), (1, 0), (0, 1, 2), (2, 0, 1)], ids=str)
def test_first_misordered_matches_the_swap_formula(sig):
    # a row whose pair ties (keep false) is never a hit, also where its images
    # tie or are NaN; a kept row keeps the swap formula's verdict
    order = LexOrder(sig)
    rng = np.random.default_rng(len(sig))
    masked_misses = 0
    for fa, fb in _lex_blocks(order, seed=7 + len(sig)):
        swap = rng.random(len(fa)) < 0.5
        keep = rng.random(len(fa)) < 0.7
        less, differ = _lex_compare(sig, fa, fb)
        old = np.where(swap, less | ~differ, ~less)
        masked_misses += np.count_nonzero(~keep & ~differ)
        # every row on its own, then the block's first hit
        for i in range(len(fa)):
            block = _pair_block(swap[i:i + 1], keep[i:i + 1])
            hit = block.first_misordered(order, fa[i:i + 1], fb[i:i + 1])
            assert (hit == 0) == (old[i] and keep[i])
            lo, hi = (fb[i], fa[i]) if swap[i] else (fa[i], fb[i])
            assert old[i] == (_scalar_compare(order, lo, hi) is not Comparison.LT)
        first = np.flatnonzero(old & keep)
        want = int(first[0]) if first.size else None
        assert _pair_block(swap, keep).first_misordered(order, fa, fb) == want
    # masked rows whose images tie or are NaN were among the inputs
    assert masked_misses > 0


def test_scan_counts_and_hits_only_the_kept_pairs(monkeypatch):
    # under x >> y, rows 0 and 3 tie at both levels and row 1 at level 1,
    # where its x is shared and its y equals h's
    order = LexOrder((0, 1))
    h = np.asfortranarray(RNG.uniform(-3, 3, (6, 2)))
    hp = np.asfortranarray(RNG.uniform(-3, 3, (6, 2)))
    hp[[0, 3]] = h[[0, 3]]
    hp[1, 1] = h[1, 1]

    class Fixed(SampleConfig):
        """h and h' as streams 1 and 2; row r of any other stream is (r, r)."""

        def sample(self, dim, stream=0, count=None, start=0, out=None):
            if stream in (1, 2):
                got = (h, hp)[stream - 1][start:start + count]
            else:
                got = np.repeat(np.arange(start, start + count, dtype=float)[:, None], dim, 1)
            out = np.empty((count, dim), order="F") if out is None else out
            out[:] = got
            return out

    # row blocks of 4 rows: rows 0-3 and 4-5
    monkeypatch.setattr(tolerance, "BLOCK_ROWS", 4)
    pairs = SampledPairs(order, 2, Fixed(count=6), (1, 2))
    keeps = {}

    def identity(g, block):
        keeps.setdefault(block.rows.start, []).append(block.keep.tolist())
        return block.a, block.b

    def nan_images(g, block):
        # NaN, so misordered, on every row from g row 8 on: level 1, row 2
        nan = np.where(g[:, :1] >= 8, np.nan, 0.0)
        return block.a + nan, block.b + nan

    count, hits = pairs.scan((order, identity),
                             (order, lambda g, block: (np.nan * block.a, np.nan * block.b)),
                             (order, nan_images), g=3)
    assert keeps == {0: [[False, True, True, False], [False, False, True, False]],
                     4: [[True, True], [True, True]]}
    assert count == 4 + 3
    # the identity keeps every pair in order; NaN images hit the first kept
    # pair, level 0 row 1 (g row 1), and from g row 8 the first kept pair at
    # or past it, level 1 row 2 (g row 6 + 2)
    assert hits[0] is None
    for hit, g_row, pair in zip(hits[1:], (1, 6 + 2),
                                ((h[1], hp[1]), (h[2], (h[2, 0], hp[2, 1])))):
        assert hit[0].tolist() == [g_row] * 2
        lo, hi = sorted(map(tuple, pair))
        assert hit[1].tolist() == list(lo) and hit[2].tolist() == list(hi)


def test_tied_and_nan_images_count_as_misordered():
    order = LexOrder((0, 1))
    fa = np.array([[1.0, 2.0], [np.nan, 0.0], [0.0, 1.0], [-0.0, 3.0]])
    fb = np.array([[1.0, 2.0], [5.0, 0.0], [0.0, np.nan], [0.0, 3.0]])
    for swap in (False, True):
        for i in range(len(fa)):
            for keep in (True, False):
                # a kept pair hits; a masked one (its pair tied) never does
                block = _pair_block(np.array([swap]), np.array([keep]))
                hit = block.first_misordered(order, fa[i:i + 1], fb[i:i + 1])
                assert hit == (0 if keep else None)
    # images in order on both sides of the swap bit are no hit
    fa, fb = np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([[1.0, 0.0], [2.0, -1.0]])
    block = _pair_block(np.array([False, True]), np.array([True, True]))
    assert block.first_misordered(order, fa, fb) is None
