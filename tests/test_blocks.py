"""Blocked evaluation: every sampled check gives the same report at any block size.

The checks evaluate their rows in blocks of tolerance.BLOCK_ROWS and reduce
across blocks by max, all or first failing row. Each report here is compared
across a small odd block size (many blocks and a ragged tail), a size that
divides the row counts, and a size above the row count (one block, the
whole-array evaluation), NaN residuals included.

The ordered-pair checks are also compared with the whole-array construction
they replaced, which materialized the sorted pairs lo < hi.
"""

import itertools
import json
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from ordgroups import tolerance
from ordgroups.cli import main
from ordgroups.classify import classify_ordered, function_witness, linear_witness, verify_witness
from ordgroups.cohomology import check_cocycle, cocycle_residual, g3_cocycle, heis_cocycle
from ordgroups.errors import DomainError, InputError
from ordgroups.groups import (
    SUT3,
    Additive,
    Ec,
    GCd,
    KCd,
    SemidirectRR,
    Tk,
    _matvec,
    check_group_axioms,
)
from ordgroups.jsonio import dumps
from ordgroups.orders import (
    InvarianceReport,
    LexOrder,
    OrderedGroupSpec,
    PairBlock,
    _ordered_pairs,
    check_conjugation_order_preserving,
    check_translation_invariance,
    lex_less,
)
from ordgroups.tolerance import SampleConfig, Tolerance

# 300 samples give 300, 600 and 900 rows: 2 divides each, 7 leaves a
# ragged tail on each, 1 << 20 is one block. At this seed the failing checks
# below first fail past row 2, so a first row taken within its block, not
# overall, shows.
CFG = SampleConfig(seed=22, count=300)
BLOCK_SIZES = (2, 7, 1 << 20)


def _same_at_every_block_size(monkeypatch, check):
    """check()'s report, asserting it serializes identically at every block size."""
    reports = []
    for size in BLOCK_SIZES:
        monkeypatch.setattr(tolerance, "BLOCK_ROWS", size)
        reports.append(dumps(check()))
    assert reports == [reports[-1]] * len(reports)
    return check()


def test_row_blocks_cover_the_rows_in_order(monkeypatch):
    monkeypatch.setattr(tolerance, "BLOCK_ROWS", 7)
    blocks = list(tolerance.row_blocks(20))
    assert [(b.start, b.stop) for b in blocks] == [(0, 7), (7, 14), (14, 20)]
    assert list(tolerance.row_blocks(0)) == []


@pytest.mark.parametrize("law, tol", [
    (Tk(1.0), Tolerance()),
    (GCd(1.0, 2.0), Tolerance()),
    # fails on tolerance, not overflow: the residuals are finite maxima
    (KCd(2.0, 6.0), Tolerance(1e-18, 1e-18)),
])
def test_axioms(monkeypatch, law, tol):
    rep = _same_at_every_block_size(monkeypatch, lambda: check_group_axioms(law, CFG, tol))
    assert not rep.overflow


def test_axioms_overflow(monkeypatch):
    rep = _same_at_every_block_size(
        monkeypatch, lambda: check_group_axioms(SemidirectRR(300.0), CFG))
    assert rep.overflow and not rep.passed
    assert rep.associativity == float("inf")


def test_translation_counterexample_is_the_first_failing_row(monkeypatch):
    # the non-ordered control: the normal coordinate first
    spec = OrderedGroupSpec(SemidirectRR(1.0), LexOrder((0, 1)))
    rep = _same_at_every_block_size(monkeypatch, lambda: check_translation_invariance(spec, CFG))
    assert rep.left_ok and not rep.right_ok
    assert rep.counterexample_right is not None


def test_translation_passing(monkeypatch):
    spec = OrderedGroupSpec(Tk(1.0), LexOrder((2, 1, 0)))
    rep = _same_at_every_block_size(monkeypatch, lambda: check_translation_invariance(spec, CFG))
    assert rep.passed and rep.checked == 900


@pytest.mark.parametrize("law, order, coords, passed", [
    (KCd(1.0, 1.0), (0, 1, 2), (1, 2), True),
    # conjugating (0, t) by (x, y) gives (x (1 - e^t), t): order-reversing for x > 0
    (SemidirectRR(1.0), (0, 1), (1,), False),
])
def test_conjugation(monkeypatch, law, order, coords, passed):
    spec = OrderedGroupSpec(law, LexOrder(order))
    rep = _same_at_every_block_size(
        monkeypatch, lambda: check_conjugation_order_preserving(spec, coords, CFG))
    assert rep.passed is passed
    assert (rep.counterexample_left is None) is passed


@pytest.mark.parametrize("matrix, orders, passed", [
    ([[1, 0], [0, 2]], ((1, 0), (1, 0)), True),
    ([[1, 0], [0, 3]], ((1, 0), (1, 0)), False),
    ([[-1, 0], [0, 2]], ((1, 0), (1, 0)), False),
])
def test_witness(monkeypatch, matrix, orders, passed):
    w = linear_witness(SemidirectRR(2.0), SemidirectRR(1.0), matrix,
                       order_pair=(LexOrder(orders[0]), LexOrder(orders[1])))
    rep = _same_at_every_block_size(monkeypatch, lambda: verify_witness(w, CFG))
    assert rep.passed is passed


@pytest.mark.parametrize("order_pair", [None, (LexOrder((1, 0)), LexOrder((1, 0)))])
def test_witness_nan_residual(monkeypatch, order_pair):
    law = SemidirectRR(300.0)
    w = linear_witness(law, law, np.eye(2), order_pair=order_pair)
    with np.errstate(all="ignore"):
        rep = _same_at_every_block_size(monkeypatch, lambda: verify_witness(w, CFG))
    assert np.isnan(rep.hom_residual) and not rep.passed


def test_nan_after_finite_blocks_still_fails_the_witness(monkeypatch):
    # block 0 holds only finite residuals and the NaN arrives in a later
    # block: a running Python max would drop it and pass the witness
    law = SemidirectRR(300.0)
    cfg = SampleConfig(seed=6, count=1000)
    a, b = cfg.sample(2, stream=61), cfg.sample(2, stream=62)
    with np.errstate(all="ignore"):
        first_nan = int(np.flatnonzero(~np.isfinite(law.mul(a, b)).all(axis=1))[0])
    assert first_nan > 0
    monkeypatch.setattr(tolerance, "BLOCK_ROWS", first_nan)
    with np.errstate(all="ignore"):
        rep = verify_witness(linear_witness(law, law, np.eye(2)), cfg)
    assert np.isnan(rep.hom_residual) and not rep.group_ok and not rep.passed


@pytest.mark.parametrize("cochain, cfg, overflows", [
    (g3_cocycle(1.0), CFG, False),
    (heis_cocycle(0.5), CFG, False),
    # k e^{z1} y2 overflows at box 50: a domain error, which names the same
    # first overflowing row at every block size
    (g3_cocycle(1e300), SampleConfig(seed=22, count=300, box=50.0), True),
])
def test_cocycle_residual(monkeypatch, cochain, cfg, overflows):
    def check():
        try:
            return cocycle_residual(cochain, cfg)
        except DomainError as exc:
            return str(exc)

    with np.errstate(all="ignore"):
        result = _same_at_every_block_size(monkeypatch, check)
    assert isinstance(result, str) is overflows


# --- the ordered pairs against the whole-array construction ------------------------


class _CoarseSamples(SampleConfig):
    """Samples rounded to a coarse grid, so coordinates and whole rows tie."""

    def sample(self, dim, stream=0, count=None, start=0, out=None):
        return np.round(super().sample(dim, stream, count, start, out), out=out)


COARSE = _CoarseSamples(seed=22, count=300)


def _whole_sorted_pairs(order, a, b):
    """Rows of a and b (broadcast, flattened) sorted into lo < hi, ties
    dropped, and the flattened mask of the rows kept."""
    swap = lex_less(order, b, a)
    keep = (swap | lex_less(order, a, b)).reshape(-1)
    lo = np.where(swap[..., None], b, a).reshape(-1, a.shape[-1])
    hi = np.where(swap[..., None], a, b).reshape(-1, a.shape[-1])
    return lo[keep], hi[keep], keep


def _whole_ordered_pairs(order, cfg, dim):
    h = cfg.sample(dim, stream=11)
    hp = np.empty((dim,) + h.shape)
    hp[:] = cfg.sample(dim, stream=12)
    for k, idx in enumerate(order.significance[:-1]):
        hp[k + 1:, :, idx] = h[:, idx]
    return _whole_sorted_pairs(order, h, hp)


def _first_misordered(order, f_lo, f_hi):
    bad = np.flatnonzero(~lex_less(order, f_lo, f_hi))
    return int(bad[0]) if bad.size else None


def _whole_translation_hits(spec, cfg):
    """(g, lo, hi) as whole arrays, and the first failing pair of the left
    and of the right check."""
    law, order = spec.law, spec.order
    lo, hi, keep = _whole_ordered_pairs(order, cfg, law.dim)
    # pair (k, j) translates by row k * n + j: the flattened levels
    g = cfg.sample(law.dim, stream=13, count=keep.size)[keep]
    left = _first_misordered(order, law.mul(g, lo), law.mul(g, hi))
    right = _first_misordered(order, law.mul(lo, g), law.mul(hi, g))
    return (g, lo, hi), (left, right)


def _whole_translation(spec, cfg):
    (g, lo, hi), (left, right) = _whole_translation_hits(spec, cfg)
    ce = (lambda i: None if i is None else (g[i], lo[i], hi[i]))
    return InvarianceReport(left is None, right is None, lo.shape[0], ce(left), ce(right))


def _whole_supported(cfg, dim, coords, stream):
    out = cfg.sample(dim, stream)
    out[:, [i for i in range(dim) if i not in coords]] = 0.0
    return out


def _whole_conjugation(spec, coords, cfg):
    law, order = spec.law, spec.order
    lo, hi, keep = _whole_sorted_pairs(order, _whole_supported(cfg, law.dim, coords, 23),
                                       _whole_supported(cfg, law.dim, coords, 24))
    g = cfg.sample(law.dim, stream=25)[keep]
    ginv = law.inv(g)
    i = _first_misordered(order, law.mul(law.mul(g, lo), ginv), law.mul(law.mul(g, hi), ginv))
    return InvarianceReport(i is None, True, lo.shape[0],
                            None if i is None else (g[i], lo[i], hi[i]))


@pytest.mark.parametrize("cfg", [CFG, COARSE], ids=["continuous", "coarse"])
@pytest.mark.parametrize("law, order", [
    (SemidirectRR(1.0), (0, 1)),  # the non-ordered control: a counterexample
    (SemidirectRR(1.0), (1, 0)),
    (Tk(1.0), (2, 1, 0)),
    (Ec(-4.0), (0, 1, 2)),
    (KCd(1.0, 1.0), (0, 1, 2)),
    (Ec(1.0), (2, 0, 1)),  # not ordered: fails past the first level
    # e^{c y} overflows: images tie at inf or are NaN, which counts as misordered
    (SemidirectRR(1e300), (1, 0)),
])
def test_translation_matches_the_whole_array_pairs(monkeypatch, cfg, law, order):
    spec = OrderedGroupSpec(law, LexOrder(order))
    with np.errstate(all="ignore"):
        rep = _same_at_every_block_size(monkeypatch, lambda: check_translation_invariance(spec, cfg))
        assert dumps(rep) == dumps(_whole_translation(spec, cfg))


@pytest.mark.parametrize("size", [2, 7])
@pytest.mark.parametrize("seed, law, order", [
    (7, Ec(1.0), (2, 0, 1)),  # the left check fails first
    (17, SUT3(), (2, 0, 1)),  # the right check fails first
])
def test_one_pass_translation_keeps_each_sides_first_counterexample(monkeypatch, size, seed,
                                                                   law, order):
    # both sides fail, first in different blocks: the pass goes on past the
    # first side's hit, evaluating only the other side, and must still find
    # that side's first failing pair
    cfg = SampleConfig(seed=seed, count=300)
    spec = OrderedGroupSpec(law, LexOrder(order))
    _, hits = _whole_translation_hits(spec, cfg)
    # continuous samples tie no pair, so pair i < count is row i of level 0
    assert max(hits) < cfg.count and len({i // size for i in hits}) == 2
    monkeypatch.setattr(tolerance, "BLOCK_ROWS", size)
    rep = check_translation_invariance(spec, cfg)
    assert not rep.left_ok and not rep.right_ok
    assert dumps(rep) == dumps(_whole_translation(spec, cfg))


def test_translation_cases_cover_ties_and_counterexamples():
    for cfg in (CFG, COARSE):
        spec = OrderedGroupSpec(Ec(1.0), LexOrder((2, 0, 1)))
        rep = check_translation_invariance(spec, cfg)
        assert not rep.passed
    # the coarse grid ties whole rows, which the pairs mask
    rep = check_translation_invariance(OrderedGroupSpec(Tk(1.0), LexOrder((2, 1, 0))), COARSE)
    assert rep.passed and rep.checked < 3 * COARSE.count


@pytest.mark.parametrize("cfg", [CFG, COARSE], ids=["continuous", "coarse"])
@pytest.mark.parametrize("law, order, coords", [
    (KCd(1.0, 1.0), (0, 1, 2), (1, 2)),
    (SemidirectRR(1.0), (0, 1), (1,)),  # order-reversing: a counterexample
])
def test_conjugation_matches_the_whole_array_pairs(monkeypatch, cfg, law, order, coords):
    spec = OrderedGroupSpec(law, LexOrder(order))
    rep = _same_at_every_block_size(
        monkeypatch, lambda: check_conjugation_order_preserving(spec, coords, cfg))
    assert dumps(rep) == dumps(_whole_conjugation(spec, coords, cfg))


def _matvec_witness(source, target, matrix, orders):
    """The map a -> matrix @ a as a function witness, whose order claim is
    checked on the sampled pairs rather than decided from a matrix."""
    m = np.asarray(matrix, dtype=float)
    m_inv = np.linalg.inv(m)
    return function_witness(source, target, lambda a: _matvec(m, a), lambda a: _matvec(m_inv, a),
                            order_pair=(LexOrder(orders[0]), LexOrder(orders[1])))


@pytest.mark.parametrize("cfg", [CFG, COARSE], ids=["continuous", "coarse"])
@pytest.mark.parametrize("source, target, matrix, orders", [
    (SemidirectRR(2.0), SemidirectRR(1.0), [[1, 0], [0, 2]], ((1, 0), (1, 0))),
    (SemidirectRR(2.0), SemidirectRR(1.0), [[-1, 0], [0, 2]], ((1, 0), (1, 0))),
    (Ec(-4.0), Ec(-1.0), np.diag([4.0, 1.0, 1.0]), ((0, 1, 2), (0, 1, 2))),
    (Ec(-4.0), Ec(-1.0), np.diag([4.0, 1.0, 1.0]), ((0, 1, 2), (0, 2, 1))),
    # the images overflow: pairs of one sign tie at inf
    (Additive(2), Additive(2), [[1e308, 0], [0, 1e308]], ((0, 1), (0, 1))),
])
def test_witness_order_matches_the_whole_array_pairs(monkeypatch, cfg, source, target,
                                                     matrix, orders):
    w = _matvec_witness(source, target, matrix, orders)
    lo, hi, _ = _whole_ordered_pairs(w.order_pair[0], cfg, source.dim)
    with np.errstate(all="ignore"):
        rep = _same_at_every_block_size(monkeypatch, lambda: verify_witness(w, cfg))
        whole = _first_misordered(w.order_pair[1], w.apply(lo), w.apply(hi)) is None
    assert rep.order_ok is whole


def test_an_overflowing_linear_witness_is_monotone_but_no_homomorphism():
    # the sampled images tie at inf, but the matrix is a positive diagonal: the
    # order claim holds, and the overflow shows in the group check instead
    w = linear_witness(Additive(2), Additive(2), [[1e308, 0], [0, 1e308]],
                       order_pair=(LexOrder((0, 1)), LexOrder((0, 1))))
    with np.errstate(all="ignore"):
        rep = verify_witness(w, CFG)
    assert rep.order_ok is True and rep.group_ok is False and not rep.passed


def _oracle_matrices(rng, n):
    """In the frame of rows in target and columns in source significance:
    lower triangular matrices with a positive diagonal, each also with one
    diagonal entry negated and with one entry of size 0.5 to 2 above the
    diagonal."""
    out = []
    for _ in range(3):
        a = np.tril(rng.uniform(-2, 2, (n, n)), -1) + np.diag(rng.uniform(0.5, 2, n))
        negated = a.copy()
        i = rng.integers(n)
        negated[i, i] *= -1
        out += [a, negated]
        if n > 1:
            above = a.copy()
            i, j = sorted(rng.choice(n, 2, replace=False))
            above[i, j] = rng.choice((-1, 1)) * rng.uniform(0.5, 2)
            out.append(above)
    return out


def test_linear_witness_order_matches_the_whole_array_pairs():
    # the matrix rule against the sampled reference, wherever no images tie
    rng = np.random.default_rng(5)
    verdicts = []
    for n in (1, 2, 3):
        for ssig, tsig in itertools.product(itertools.permutations(range(n)), repeat=2):
            source, target = LexOrder(ssig), LexOrder(tsig)
            lo, hi, _ = _whole_ordered_pairs(source, CFG, n)
            for a in _oracle_matrices(rng, n):
                m = np.zeros((n, n))
                m[np.ix_(tsig, ssig)] = a
                w = linear_witness(Additive(n), Additive(n), m, order_pair=(source, target))
                f_lo, f_hi = w.apply(lo), w.apply(hi)
                if (~lex_less(target, f_lo, f_hi) & ~lex_less(target, f_hi, f_lo)).any():
                    continue
                whole = _first_misordered(target, f_lo, f_hi) is None
                assert verify_witness(w, CFG).order_ok is whole, (ssig, tsig, a)
                verdicts.append(whole)
    assert len(verdicts) > 300 and True in verdicts and False in verdicts


def test_linear_witness_order_rejects_what_the_samples_miss():
    # (x, y) -> (x + 1e-12 y, y) reverses (0, 0) < (1e-13, -1), but sampled
    # differences in x dwarf 1e-12 y; the matrix rule sees the entry
    matrix, orders = [[1, 1e-12], [0, 1]], ((0, 1), (0, 1))
    sampled = verify_witness(_matvec_witness(Additive(2), Additive(2), matrix, orders), CFG)
    assert sampled.order_ok is True
    w = linear_witness(Additive(2), Additive(2), matrix,
                       order_pair=(LexOrder(orders[0]), LexOrder(orders[1])))
    rep = verify_witness(w, CFG)
    assert rep.group_ok and rep.order_ok is False and not rep.passed


def _scanned_blocks(pairs, check=lambda block: None):
    """(kept pairs, [(level, PairBlock)]) of one scan, row blocks in order and
    the levels of each in turn, each block copied out of the buffers its
    thread reuses. An identity side keeps every pair in order, so it sees
    every level of every row block, a block's levels in turn on one thread;
    check(block) runs on each as the scan builds it."""
    seen = {}

    def record(g, block):
        check(block)
        seen.setdefault(block.rows.start, []).append(
            PairBlock(block.a.copy(), block.b.copy(), block.swap, block.rows, block.keep))
        return block.a, block.b

    count, (hit,) = pairs.scan((pairs.order, record))
    assert hit is None
    return count, [(k, block) for start in sorted(seen) for k, block in enumerate(seen[start])]


def test_blocks_expose_their_rows_of_the_draws(monkeypatch):
    order = LexOrder((0, 1, 2))
    n = COARSE.count
    h, hp = COARSE.sample(3, 11), COARSE.sample(3, 12)
    ref_lo, ref_hi, ref_keep = _whole_ordered_pairs(order, COARSE, 3)
    for size in BLOCK_SIZES:
        monkeypatch.setattr(tolerance, "BLOCK_ROWS", size)
        pairs = _ordered_pairs(order, COARSE, 3)
        count, blocks = _scanned_blocks(pairs)
        stop = [0] * pairs.levels
        lo, hi = np.full((2, pairs.levels, n, 3), np.nan)
        keep = np.zeros((pairs.levels, n), dtype=bool)
        for k, block in blocks:
            # each level's blocks cover its rows of the draws in order
            assert block.rows.start == stop[k]
            stop[k] = block.rows.stop
            assert np.array_equal(h[block.rows], block.a)
            unshared = list(order.significance[k:])
            assert np.array_equal(hp[block.rows][:, unshared], block.b[:, unshared])
            swap = block.swap[:, None]
            lo[k, block.rows] = np.where(swap, block.b, block.a)
            hi[k, block.rows] = np.where(swap, block.a, block.b)
            keep[k, block.rows] = block.keep
        assert stop == [n] * pairs.levels
        # the kept rows, level-major, are the whole-array pairs
        keep = keep.reshape(-1)
        assert np.array_equal(keep, ref_keep)
        assert np.array_equal(lo.reshape(-1, 3)[keep], ref_lo)
        assert np.array_equal(hi.reshape(-1, 3)[keep], ref_hi)
        assert np.count_nonzero(keep) == count < 3 * n


class _TiedRows(SampleConfig):
    """Continuous samples, except that every 7th row of stream 12 repeats
    stream 11: those pairs tie at every level, and no coordinate ties
    elsewhere."""

    def sample(self, dim, stream=0, count=None, start=0, out=None):
        out = super().sample(dim, stream, count, start, out)
        if stream == 12:
            rows = np.flatnonzero((start + np.arange(len(out))) % 7 == 0)
            out[rows] = super().sample(dim, 11, count, start)[rows]
        return out


@pytest.mark.parametrize("size", [2, 7, 1 << 20])
def test_ties_leave_each_pair_its_own_translating_element(monkeypatch, size):
    # x is a homomorphism to R on e_c, so only pairs sharing x can fail: the
    # first hits lie past level 0, whose kept count the ties cut short, and
    # still read the g row of their own level and row
    cfg = _TiedRows(seed=22, count=300)
    spec = OrderedGroupSpec(Ec(1.0), LexOrder((0, 2, 1)))
    ties = len(range(0, cfg.count, 7))
    _, hits = _whole_translation_hits(spec, cfg)
    assert all(i is not None and i >= cfg.count - ties for i in hits)
    monkeypatch.setattr(tolerance, "BLOCK_ROWS", size)
    rep = check_translation_invariance(spec, cfg)
    assert rep.checked == 3 * (cfg.count - ties)
    assert dumps(rep) == dumps(_whole_translation(spec, cfg))


def _peak_in_sample_arrays(check, count=1 << 19, dim=3):
    """The peak memory check(cfg) allocates at count rows, in units of one
    (count, dim) float64 array. 2^19 rows are 16 blocks, so the blocks that
    two threads hold at once are an eighth of a whole draw."""
    tracemalloc.start()
    try:
        check(SampleConfig(count=count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (count * dim * 8)


# Each pin is 10-14 % above the highest peak of ten runs on two threads,
# which vary with how the blocks interleave. A thread's workspace holds only
# its draws, and a verdict holds at most three scratch arrays of a block


def test_classification_memory_stays_below_0_95_sample_arrays():
    # the whole-array pairs held about 10 to 13 arrays of count x dim doubles;
    # the two pair draws h, h' are whole, the translating elements streamed.
    # Measured 0.69-0.84 (0.86-1.00 with a fill-row block per thread)
    assert _peak_in_sample_arrays(
        lambda cfg: classify_ordered(Ec(-4.0), LexOrder((0, 1, 2)), cfg)) < 0.95


def test_axiom_memory_stays_below_1_2_sample_arrays():
    # the three operand draws, whole, were three arrays. Measured 1.00-1.07
    # (1.25-1.32 with a fill-row block per thread and unfused verdicts)
    assert _peak_in_sample_arrays(lambda cfg: check_group_axioms(Tk(1.0), cfg)) < 1.2


def test_cocycle_memory_stays_below_0_6_sample_arrays():
    # the three draws on the 2-dim acting chart, whole, were two arrays.
    # Measured 0.545 (0.566-0.629 with a fill-row block per thread)
    assert _peak_in_sample_arrays(lambda cfg: check_cocycle(g3_cocycle(1.0), cfg)) < 0.6


def _peak_bytes(check, count):
    tracemalloc.start()
    try:
        check(SampleConfig(count=count))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check", [
    lambda cfg: check_translation_invariance(
        OrderedGroupSpec(Ec(-4.0), LexOrder((0, 1, 2))), cfg),
    lambda cfg: check_conjugation_order_preserving(
        OrderedGroupSpec(KCd(1.0, 1.0), LexOrder((0, 1, 2))), (1, 2), cfg),
    lambda cfg: classify_ordered(Ec(-4.0), LexOrder((0, 1, 2)), cfg),
], ids=["translation", "conjugation", "classification"])
def test_order_check_memory_does_not_grow_with_the_samples(check):
    # every draw is streamed: tripling the rows past a few blocks leaves the
    # peak where it was; whole pair draws h, h' alone grew
    # from 9.6 to 28.8 MB
    assert _peak_bytes(check, 600_000) <= 1.2 * _peak_bytes(check, 200_000)


# --- coordinate-major layout ---------------------------------------------------


def test_samples_are_one_row_major_draw_stored_coordinate_major():
    cfg = SampleConfig(seed=5, box=2.5)
    rows = tolerance.BLOCK_ROWS
    for count in (1, rows - 1, rows, 2 * rows + 7):
        got = cfg.sample(3, stream=11, count=count)
        assert np.array_equal(got, cfg.rng(11).uniform(-cfg.box, cfg.box, (count, 3)))
        assert got.flags.f_contiguous


@pytest.mark.parametrize("box", [5e-324, 1e-300, 0.5, 3.0, 7.25, 1e150, 8.9e307])
def test_samples_are_generator_uniform_bit_for_bit(box):
    # each block is its own Generator.uniform call after the skipped rows;
    # one whole Generator.uniform draw is the reference, also across the
    # widest box whose width 2 * box is finite
    rows = tolerance.BLOCK_ROWS
    cfg = SampleConfig(seed=9, box=box)
    for dim in (1, 2, 3):
        for count, start in ((1, 0), (rows + 5, 3), (2 * rows - 1, rows + 1), (1000, 2 * rows + 7)):
            rng = cfg.rng(13)
            rng.bit_generator.advance(start * dim)
            ref = rng.uniform(-box, box, (count, dim))
            assert np.array_equal(cfg.sample(dim, 13, count, start), ref)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_streamed_rows_equal_the_whole_draw(dim):
    cfg = SampleConfig(seed=5, box=2.5)
    rows = tolerance.BLOCK_ROWS
    for stream in (11, 13):
        for start in (0, 1, rows - 1, 2 * rows + 7):
            # a count past BLOCK_ROWS also crosses a block inside the draw
            for count in (1, rows + 3):
                got = cfg.sample(dim, stream, count, start)
                assert np.array_equal(got, cfg.sample(dim, stream, start + count)[start:])
                assert got.flags.f_contiguous


@pytest.mark.parametrize("count, sizes", [
    (2, [2]),  # one block, on the calling thread
    (5, [3, 2]),  # a ragged block
    (12, [3] * 4),
    (13, [3] * 4 + [1]),
    (31, [3] * 10 + [1]),
    (20, [3] * 6 + [2]),
])
def test_map_blocks_gets_the_draws_rows_in_block_order(monkeypatch, count, sizes):
    monkeypatch.setattr(tolerance, "BLOCK_ROWS", 3)
    cfg = SampleConfig(seed=3, count=count)

    def copies(rows, *draws):
        # each coordinate column of a block is contiguous
        assert all(d.strides[0] == d.itemsize for d in draws)
        return rows, [d.copy() for d in draws]

    blocks = cfg.map_blocks(2, (5, 6), copies)
    assert [(rows.start, rows.stop - rows.start) for rows, _ in blocks] == list(
        zip(np.cumsum([0] + sizes[:-1]).tolist(), sizes))
    for stream, got in zip((5, 6), zip(*(draws for _, draws in blocks))):
        assert np.array_equal(np.concatenate(got), cfg.sample(2, stream))


# --- row blocks checked on two threads -----------------------------------------

# ten blocks of 2^15 rows
THREADED = 300_000
THREADED_CFG = SampleConfig(seed=22, count=THREADED)


def _witness_verify(cfg):
    # the README example: semidirect_rr(2) -> semidirect_rr(1) by diag(1, 2)
    orders = (LexOrder((1, 0)), LexOrder((1, 0)))
    return verify_witness(linear_witness(SemidirectRR(2.0), SemidirectRR(1.0),
                                         [[1, 0], [0, 2]], order_pair=orders), cfg)


def _threads_sampling(monkeypatch):
    """The set of threads that call SampleConfig.sample from now on."""
    threads = set()
    sample = SampleConfig.sample

    def recording(self, *args, **kwargs):
        threads.add(threading.get_ident())
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(SampleConfig, "sample", recording)
    return threads


def _hit_levels_and_blocks(spec, cfg, size):
    """The levels and the row blocks of size rows where the whole-array pairs
    have a misordered left or right translation."""
    law, order = spec.law, spec.order
    (g, lo, hi), _ = _whole_translation_hits(spec, cfg)
    bad = ~lex_less(order, law.mul(g, lo), law.mul(g, hi))
    bad |= ~lex_less(order, law.mul(lo, g), law.mul(hi, g))
    pair = np.flatnonzero(_whole_ordered_pairs(order, cfg, law.dim)[2])[bad]
    return set((pair // cfg.count).tolist()), set((pair % cfg.count // size).tolist())


# failing translation checks: the first hit is the lowest level's, then the
# earliest block's, whichever thread finds a hit first
FAILING_TRANSLATIONS = [
    (OrderedGroupSpec(SemidirectRR(1.0), LexOrder((0, 1))), SampleConfig(seed=22, count=300)),
    (OrderedGroupSpec(Ec(1.0), LexOrder((0, 2, 1))), _TiedRows(seed=22, count=300)),
]


def _translation(spec):
    return lambda cfg: check_translation_invariance(spec, cfg)


@pytest.mark.parametrize("check, cfg, size", [
    (lambda cfg: check_group_axioms(Tk(1.0), cfg), THREADED_CFG, None),
    (lambda cfg: check_cocycle(g3_cocycle(1.0), cfg), THREADED_CFG, None),
    (lambda cfg: classify_ordered(Ec(-4.0), LexOrder((0, 1, 2)), cfg), THREADED_CFG, None),
    (_witness_verify, THREADED_CFG, None),
    (lambda cfg: check_conjugation_order_preserving(
        OrderedGroupSpec(KCd(1.0, 1.0), LexOrder((0, 1, 2))), (1, 2), cfg), THREADED_CFG, None),
    *[(_translation(spec), cfg, 7) for spec, cfg in FAILING_TRANSLATIONS],
], ids=["axioms", "cocycle", "classification", "witness", "conjugation",
        "translation", "translation-ties"])
def test_block_parallel_reports_equal_the_one_thread_report(monkeypatch, check, cfg, size):
    threads = _threads_sampling(monkeypatch)
    if size is not None:
        monkeypatch.setattr(tolerance, "BLOCK_ROWS", size)
    threaded = dumps(check(cfg))
    assert threads - {threading.get_ident()}  # some block ran on a worker thread
    threads.clear()
    # one block covers every row: it runs on the calling thread
    monkeypatch.setattr(tolerance, "BLOCK_ROWS", cfg.count)
    assert dumps(check(cfg)) == threaded
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("spec, cfg", FAILING_TRANSLATIONS, ids=["continuous", "ties"])
def test_the_failing_translations_hit_on_several_levels_and_blocks(spec, cfg):
    levels, blocks = _hit_levels_and_blocks(spec, cfg, 7)
    assert len(levels) > 1 and len(blocks) > 1


def test_first_hits_hold_under_frequent_thread_switches(monkeypatch):
    # each task keeps its own hits and the reduction picks the lowest level's,
    # then the earliest block's: switching threads every microsecond, so that
    # tasks interleave between any two bytecodes, must leave every report as it is
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for spec, cfg in FAILING_TRANSLATIONS:
            monkeypatch.setattr(tolerance, "BLOCK_ROWS", cfg.count)
            one = dumps(check_translation_invariance(spec, cfg))
            monkeypatch.setattr(tolerance, "BLOCK_ROWS", 7)
            for _ in range(10):
                assert dumps(check_translation_invariance(spec, cfg)) == one
    finally:
        sys.setswitchinterval(interval)


class _RejectsBlocks(SampleConfig):
    """Draws that reject the rows of blocks 3 and 5 as malformed input, block
    3 only after block 5 has."""

    def sample(self, dim, stream=0, count=None, start=0, out=None):
        block = start // tolerance.BLOCK_ROWS
        if block in (3, 5):
            time.sleep(0.2 if block == 3 else 0.0)
            raise InputError(f"block {block} rejected")
        return super().sample(dim, stream, count, start, out)


def test_an_input_error_reaches_the_caller_as_the_earliest_block_s():
    running = threading.active_count()
    with pytest.raises(InputError, match="^block 3 rejected$"):
        check_group_axioms(Tk(1.0), _RejectsBlocks(count=THREADED))
    # the blocks in flight are finished and the workers joined
    assert threading.active_count() == running


def test_a_check_leaves_no_thread_running():
    running = threading.active_count()
    assert check_group_axioms(Tk(1.0), SampleConfig(count=THREADED)).passed
    assert threading.active_count() == running


def test_floating_point_state_reaches_the_workers(tmp_path, capsys):
    # e^{300 y} overflows: ignored under the caller's errstate, which each
    # worker must run under too, or a block's overflow warns (here: raises)
    law = '{"family":"semidirect_rr","params":{"c":300}}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["axioms", "--law", law, "--samples", str(THREADED),
                     "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "out").read_text())["report"]["overflow"] is True


def test_pair_blocks_keep_contiguous_columns(monkeypatch):
    def contiguous(block):
        assert block.a.strides[0] == block.b.strides[0] == block.a.itemsize

    for size in BLOCK_SIZES:
        monkeypatch.setattr(tolerance, "BLOCK_ROWS", size)
        pairs = _ordered_pairs(LexOrder((2, 0, 1)), CFG, 3)
        # continuous samples: no pair ties
        assert _scanned_blocks(pairs, contiguous)[0] == 3 * CFG.count
