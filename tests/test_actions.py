"""Exponential actions: exponent matrices, evaluation, multiplicativity, positive
scale factors."""

import numpy as np
import pytest

from ordgroups import (
    InputError,
    SemidirectRR,
    act,
    affine_on_semidirect,
    character,
    diagonal,
)
from ordgroups.actions import ExpAction, scale_factors, trivial

RNG = np.random.default_rng(23)


def test_act_character_worked_example():
    a = character(1.0, 0.0)
    assert np.allclose(act(a, [np.log(2.0), 7.0], [3.0]), [6.0])


def test_act_identity_fixes_module():
    n = RNG.uniform(-3, 3, 1)
    for a in (character(2.0, -1.0), affine_on_semidirect(1.0)):
        assert np.allclose(act(a, np.zeros(2), n), n)
    pair = RNG.uniform(-3, 3, 2)
    assert np.allclose(act(diagonal(2.0, 1.0), np.zeros(1), pair), pair)


@pytest.mark.parametrize("x", [5.0, -100.0, np.inf, np.nan])
def test_act_affine_ignores_normal_coordinate(x):
    # the exponent matrix has a zero in the normal column: that column is never read
    a = affine_on_semidirect(1.0)
    assert np.allclose(act(a, [x, np.log(3.0)], [2.0]), [6.0])


def test_act_checks_dimensions():
    with pytest.raises(InputError):
        act(character(1.0), [1.0, 2.0], [1.0])
    with pytest.raises(InputError):
        act(diagonal(1.0, 2.0), [1.0], [1.0])


def test_trivial_action_fixes_every_module_element():
    for k in (1, 2, 3):
        g = RNG.uniform(-30, 30, (100, k))
        n = RNG.uniform(-3, 3, (100, 1))
        assert np.array_equal(scale_factors(trivial(k), g), np.ones((100, 1)))
        assert np.array_equal(act(trivial(k), g, n), n)


def test_each_constructor_is_its_exponent_matrix():
    # one row per module coordinate, one column per acting coordinate
    cases = [
        (character(0.7, -1.3, 2), ((0.7, -1.3, 2.0),), 3, 1),
        (trivial(2), ((0.0, 0.0),), 2, 1),
        (diagonal(2, -1), ((2.0,), (-1.0,)), 1, 2),
        (affine_on_semidirect(-1.5), ((0.0, -1.5),), 2, 1),
    ]
    for action, exponents, acting_dim, module_dim in cases:
        assert action == ExpAction(exponents)
        assert action.exponents == exponents
        assert all(type(c) is float for row in action.exponents for c in row)
        assert (action.acting_dim, action.module_dim) == (acting_dim, module_dim)


@pytest.mark.parametrize("exponents", [(), ((),), ((), ()), ((1.0, 2.0), (3.0,))],
                         ids=["no-rows", "empty-row", "empty-rows", "ragged"])
def test_action_rejects_a_matrix_that_is_not_rectangular(exponents):
    with pytest.raises(InputError, match="non-empty rectangular matrix"):
        ExpAction(exponents)


@pytest.mark.parametrize("make", [lambda: character(float("inf")),
                                  lambda: diagonal(float("nan"), 1.0),
                                  lambda: ExpAction(((1.0, 2.0), (3.0, -float("inf"))))],
                         ids=["character-inf", "diagonal-nan", "matrix-minus-inf"])
def test_action_constructors_reject_non_finite_exponents(make):
    # only a finite exponent makes every scaling positive, hence order preserving
    with pytest.raises(InputError, match="must be finite"):
        make()


def test_actions_are_multiplicative():
    # gamma(g h) = gamma(g) . gamma(h) over the acting group's own law
    g = RNG.uniform(-3, 3, (500, 2))
    h = RNG.uniform(-3, 3, (500, 2))
    cases = [
        (character(0.7, -0.3), g + h),
        (affine_on_semidirect(-1.2), SemidirectRR(1.0).mul(g, h)),
    ]
    for action, gh in cases:
        lhs = scale_factors(action, gh)
        rhs = scale_factors(action, g) * scale_factors(action, h)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    t, s = g[:, :1], h[:, :1]
    d = diagonal(2.0, -1.0)
    assert np.allclose(scale_factors(d, t + s),
                       scale_factors(d, t) * scale_factors(d, s), rtol=1e-12)


def test_scale_factors_always_positive_hence_monotone():
    for action in (character(1.5, -2.0), diagonal(-3.0, 0.5), affine_on_semidirect(2.0)):
        g = RNG.uniform(-3, 3, (200, action.acting_dim))
        assert np.all(scale_factors(action, g) > 0)
        # for a fixed acting element, increasing module sequences stay increasing
        for row in g[:5]:
            seq = np.sort(RNG.uniform(-3, 3, (50, action.module_dim)), axis=0)
            scaled = act(action, row, seq)
            assert np.all(np.diff(scaled, axis=0) >= 0)


def test_character_factors_do_not_depend_on_the_sample_layout():
    # each factor sums the nonzero terms in column order, whatever the layout
    from ordgroups import SampleConfig

    action = character(0.7, -1.3, 0.4)
    g = SampleConfig(seed=3, count=1000).sample(3, stream=51)
    assert g.flags.f_contiguous
    want = np.exp(0.7 * g[:, 0] - 1.3 * g[:, 1] + 0.4 * g[:, 2])[:, None]
    for x, rows in ((g, slice(None)), (np.ascontiguousarray(g), slice(None)),
                    (g[5:700], slice(5, 700))):
        assert np.array_equal(scale_factors(action, x), want[rows])
