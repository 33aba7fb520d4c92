"""Exponential actions: evaluation, multiplicativity, positive scale factors."""

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
from ordgroups.actions import (
    AFFINE_ON_SEMIDIRECT,
    DIAGONAL,
    ExpAction,
    scale_factors,
    trivial,
)

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


def test_act_affine_ignores_normal_coordinate():
    a = affine_on_semidirect(1.0)
    assert np.allclose(act(a, [5.0, np.log(3.0)], [2.0]), [6.0])
    assert np.allclose(act(a, [-100.0, np.log(3.0)], [2.0]), [6.0])


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


def test_action_constructors_reject_malformed_exponents():
    with pytest.raises(InputError, match="unknown action kind"):
        ExpAction("rotation", (1.0,))
    with pytest.raises(InputError, match="exactly two"):
        ExpAction(DIAGONAL, (1.0,))
    with pytest.raises(InputError, match="single exponent"):
        ExpAction(AFFINE_ON_SEMIDIRECT, (1.0, 2.0))
    assert diagonal(2, -1).descriptor() == {"kind": "diagonal", "coeffs": [2.0, -1.0]}


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
    # BLAS sums a column-major matrix-vector product in another order, which
    # changes the last bits of e^{c . g} for two or more coordinates
    from ordgroups import SampleConfig

    action = character(0.7, -1.3, 0.4)
    g = SampleConfig(seed=3, count=1000).sample(3, stream=51)
    assert g.flags.f_contiguous
    want = np.exp(np.ascontiguousarray(g) @ np.asarray(action.coeffs))[:, None]
    for x, rows in ((g, slice(None)), (np.ascontiguousarray(g), slice(None)),
                    (g[5:700], slice(5, 700))):
        assert np.array_equal(scale_factors(action, x), want[rows])
