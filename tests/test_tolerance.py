"""The tolerance rule's verdicts against a whole-array reference: the
largest gap or residual bit for bit and the same pass flag on an edge grid,
and the scratch memory of one verdict."""

import functools
import tracemalloc

import numpy as np
import pytest

from ordgroups import Tolerance

# the rule written out one whole array at a time, as the verdicts once ran it


def _ref_verdict(tol, gap, parts):
    worst = np.max(gap, initial=-np.inf)
    if worst <= tol.abs_tol:
        return worst, True
    scale = functools.reduce(np.maximum, map(np.abs, parts))
    return worst, bool(np.all((gap <= tol.abs_tol + tol.rel_tol * scale) & (gap < np.inf)))


def _ref_check(tol, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return _ref_verdict(tol, np.abs(u - v), (u, v))


def _ref_residual(tol, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gap = np.abs(u - v)
    scale = np.maximum(np.abs(u), np.abs(v))
    return np.max(gap / (1.0 + scale), initial=-np.inf), _ref_verdict(tol, gap, (scale,))[1]


TOLERANCES = [Tolerance(), Tolerance(1e-3, 1e-6), Tolerance(1e-300, 1e-15)]

TINY = np.finfo(float).smallest_subnormal
# NaN, the infinities, signed zeros, subnormals, the smallest normal, values
# on either side of the default abs_tol, and finite values up to the largest
GRID = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, TINY, -TINY, 3 * TINY,
                 np.finfo(float).smallest_normal, 5e-10, 1e-9, np.nextafter(1e-9, 1.0),
                 2e-9, -1e-9, 1.0, -1.0, 1.5, 1e9, -1e9, 1e300, -1e300,
                 np.finfo(float).max, -np.finfo(float).max])


def _bits(x):
    return np.float64(x).view(np.int64)


def _same(got, ref):
    assert _bits(got[0]) == _bits(ref[0]), (got, ref)
    assert type(got[1]) is bool and got[1] == ref[1], (got, ref)


def _rule_cases():
    """(u, v) pairs: every pair of grid values, one by one and as one stack;
    a scalar v = 0.0; and a (dim,) element against an (n, dim) stack, both
    ways."""
    u, v = (a.ravel() for a in np.meshgrid(GRID, GRID))
    cases = [(a, b) for a, b in zip(u, v)]
    cases += [(u, v), (u.reshape(-1, 1), v.reshape(-1, 1)),
              (np.asfortranarray(u[:len(u) // 3 * 3].reshape(-1, 3)), 0.0),
              (GRID.reshape(-1, 1), 0.0), (0.0, GRID.reshape(-1, 1))]
    stack = GRID[:21].reshape(7, 3)
    for row in GRID[:21].reshape(7, 3):
        cases += [(row, stack), (stack, row)]
    return cases


STEPS = (0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0)
BASES = (0.0, 1.0, -3.0, 1e3, 1e6)


def _near_bounds(tol):
    """(u, v) with gaps of each step times the bound at u: abs_tol at u = 0,
    abs_tol + rel_tol |u| at the other bases."""
    for base in BASES:
        bound = tol.abs_tol + tol.rel_tol * abs(base)
        for step in STEPS:
            yield np.array([base]), np.array([base + step * bound])


@pytest.mark.parametrize("tol", TOLERANCES, ids=repr)
def test_check_and_residual_equal_the_whole_array_rule(tol):
    flags = set()
    for u, v in [*_rule_cases(), *_near_bounds(tol)]:
        before = [np.array(u, copy=True), np.array(v, copy=True)]
        # overflow and NaN are what the grid is for
        with np.errstate(all="ignore"):
            _same(tol.check(u, v), _ref_check(tol, u, v))
            got = tol.residual(u, v)
            _same(got, _ref_residual(tol, u, v))
            assert tol.close(u, v) == _ref_check(tol, u, v)[1]
        # no verdict writes into its operands
        assert all(np.array_equal(b, a, equal_nan=True) for a, b in zip((u, v), before))
        flags.add(got[1])
    assert flags == {True, False}


@pytest.mark.parametrize("tol", TOLERANCES, ids=repr)
def test_the_near_cases_pass_and_fail_on_either_side_of_each_bound(tol):
    flags = np.array([tol.check(u, v)[1] for u, v in _near_bounds(tol)])
    flags = flags.reshape(len(BASES), len(STEPS))
    assert flags[:, 0].all() and not flags[:, -1].any()


def _coboundary_cases(tol):
    """The terms of sums that should vanish, as check_coboundary passes them:
    pairs +-a, +-b that cancel exactly and a leftover term of half abs_tol,
    of abs_tol plus half the rel-rule part, or of twice the whole bound at the
    row's scale; with a (dim,) term broadcast over the stack, and with a NaN,
    infinite, signed-zero, subnormal or huge term entry."""
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-5, 5, (2, 6, 2))
    scale = np.maximum(np.abs(a), np.abs(b))
    for left in (np.full_like(a, 0.5 * tol.abs_tol), tol.abs_tol + 0.5 * tol.rel_tol * scale,
                 2 * (tol.abs_tol + tol.rel_tol * scale)):
        for terms in ([left], [a, -a, left], [a, -a, b, -b, left],
                      [a, -a, left, np.array([tol.abs_tol, -0.0])]):
            yield terms
            for value in (np.nan, np.inf, -np.inf, -0.0, TINY, 1e300):
                bad = [t.copy() for t in terms]
                bad[0][3, 1] = value
                yield bad


@pytest.mark.parametrize("tol", TOLERANCES, ids=repr)
def test_a_coboundary_verdict_equals_the_whole_array_rule(tol):
    flags = set()
    for terms in _coboundary_cases(tol):
        with np.errstate(all="ignore"):
            gap = np.abs(functools.reduce(np.add, terms))
            before = [t.copy() for t in (gap, *terms)]
            got = tol.verdict(gap, terms)
            _same(got, _ref_verdict(tol, gap, terms))
        assert all(np.array_equal(b, a, equal_nan=True) for a, b in zip((gap, *terms), before))
        flags.add(got[1])
    assert flags == {True, False}


@pytest.mark.parametrize("method", ["check", "residual"])
@pytest.mark.parametrize("v", ["stack", "zero"])
def test_a_verdict_holds_at_most_three_arrays_of_its_block(method, v):
    # gaps above abs_tol, so the rule reads every scale, on a coordinate-major
    # block of 2^15 rows of 3 coordinates, as laws return them
    rng = np.random.default_rng(2)
    u = np.asfortranarray(rng.uniform(-3, 3, (1 << 15, 3)))
    other = np.asfortranarray(u + rng.uniform(-1e-6, 1e-6, u.shape)) if v == "stack" else 0.0
    tracemalloc.start()
    try:
        getattr(Tolerance(), method)(u, other)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the unfused rule held five to seven; a bool array is an eighth of one
    assert peak < 3.3 * u.nbytes
