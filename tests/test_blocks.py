"""Blocked evaluation: every sampled check gives the same report at any block size.

The checks evaluate their rows in blocks of tolerance.BLOCK_ROWS and reduce
across blocks by max, all or first failing row. Each report here is compared
across a small odd block size (many blocks and a ragged tail), a size that
divides the row counts, and a size above the row count (one block, the
whole-array evaluation), NaN residuals included.
"""

import numpy as np
import pytest

from ordgroups import tolerance
from ordgroups.classify import linear_witness, verify_witness
from ordgroups.cohomology import cocycle_residual, g3_cocycle, heis_cocycle
from ordgroups.groups import GCd, KCd, SemidirectRR, Tk, check_group_axioms
from ordgroups.jsonio import dumps
from ordgroups.orders import (
    LexOrder,
    OrderedGroupSpec,
    check_conjugation_order_preserving,
    check_translation_invariance,
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
    assert tolerance.first_row(20, lambda rows: np.arange(20)[rows] >= 9) == 9
    assert tolerance.first_row(20, lambda rows: np.zeros(rows.stop - rows.start, bool)) is None


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


@pytest.mark.parametrize("cochain, cfg, nan", [
    (g3_cocycle(1.0), CFG, False),
    (heis_cocycle(0.5), CFG, False),
    # k e^{z1} y2 overflows at box 50: the residual is NaN
    (g3_cocycle(1e300), SampleConfig(seed=22, count=300, box=50.0), True),
])
def test_cocycle_residual(monkeypatch, cochain, cfg, nan):
    with np.errstate(all="ignore"):
        residual = _same_at_every_block_size(monkeypatch, lambda: cocycle_residual(cochain, cfg))
    assert bool(np.isnan(residual)) is nan
