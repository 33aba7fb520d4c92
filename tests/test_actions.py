"""G-modules: exponent matrices, evaluation, multiplicativity, positive scale
factors."""

import numpy as np
import pytest

from ordgroups import Additive, GModule, InputError, SemidirectRR, act
from ordgroups.actions import scale_factors

RNG = np.random.default_rng(23)

# (y, z) in the affine chart SemidirectRR(1) scales a line by e^{c z}
AFFINE = SemidirectRR(1.0)


def test_act_character_worked_example():
    m = GModule(Additive(2), ((1.0, 0.0),))
    assert np.allclose(act(m, [np.log(2.0), 7.0], [3.0]), [6.0])


def test_act_identity_fixes_module():
    n = RNG.uniform(-3, 3, 1)
    for m in (GModule(Additive(2), ((2.0, -1.0),)), GModule(AFFINE, ((0.0, 1.0),))):
        assert np.allclose(act(m, np.zeros(2), n), n)
    pair = RNG.uniform(-3, 3, 2)
    assert np.allclose(act(GModule(Additive(1), ((2.0,), (1.0,))), np.zeros(1), pair), pair)


@pytest.mark.parametrize("x", [5.0, -100.0, np.inf, np.nan])
def test_act_affine_ignores_normal_coordinate(x):
    # the exponent matrix has a zero in the normal column: that column is never read
    m = GModule(AFFINE, ((0.0, 1.0),))
    assert np.allclose(act(m, [x, np.log(3.0)], [2.0]), [6.0])


def test_act_checks_dimensions():
    with pytest.raises(InputError, match="acting element has 2 coordinates"):
        act(GModule(Additive(1), ((1.0,),)), [1.0, 2.0], [1.0])
    with pytest.raises(InputError, match="module element has 1 coordinates"):
        act(GModule(Additive(1), ((1.0,), (2.0,))), [1.0], [1.0])


def test_trivial_action_fixes_every_module_element():
    for k in (1, 2, 3):
        m = GModule(Additive(k), ((0.0,) * k,))
        g = RNG.uniform(-30, 30, (100, k))
        n = RNG.uniform(-3, 3, (100, 1))
        assert np.array_equal(scale_factors(m, g), np.ones((100, 1)))
        assert np.array_equal(act(m, g, n), n)


def test_a_module_stores_float_exponents_and_derives_its_additive_chart():
    # one row per module coordinate, one column per acting coordinate
    m = GModule(Additive(1), ((2,), (-1,)))
    assert m.exponents == ((2.0,), (-1.0,))
    assert all(type(c) is float for row in m.exponents for c in row)
    assert m.N == Additive(2)
    assert m == GModule(Additive(1), ((2.0,), (-1.0,)))
    with pytest.raises(AttributeError):
        m.N = Additive(1)


@pytest.mark.parametrize("H, exponents", [
    (Additive(1), ()),
    (Additive(1), ((),)),
    (Additive(1), ((), ())),
    (Additive(2), ((1.0, 2.0), (3.0,))),
], ids=["no-rows", "empty-row", "empty-rows", "ragged"])
def test_action_rejects_a_matrix_that_is_not_rectangular(H, exponents):
    with pytest.raises(InputError, match="form a matrix of 1 to 3 rows"):
        GModule(H, exponents)


@pytest.mark.parametrize("exponents", [((float("inf"),),),
                                       ((float("nan"),), (1.0,)),
                                       ((1.0,), (-float("inf"),))],
                         ids=["inf", "nan", "minus-inf"])
def test_module_rejects_non_finite_exponents(exponents):
    # only a finite exponent makes every scaling positive, hence order preserving
    with pytest.raises(InputError, match="must be finite"):
        GModule(Additive(1), exponents)


def test_actions_are_multiplicative():
    # e^{C gh} = e^{C g} e^{C h} over the acting group's own law
    g = RNG.uniform(-3, 3, (500, 2))
    h = RNG.uniform(-3, 3, (500, 2))
    cases = [
        (GModule(Additive(2), ((0.7, -0.3),)), g + h),
        (GModule(AFFINE, ((0.0, -1.2),)), AFFINE.mul(g, h)),
    ]
    for m, gh in cases:
        lhs = scale_factors(m, gh)
        rhs = scale_factors(m, g) * scale_factors(m, h)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    t, s = g[:, :1], h[:, :1]
    d = GModule(Additive(1), ((2.0,), (-1.0,)))
    assert np.allclose(scale_factors(d, t + s),
                       scale_factors(d, t) * scale_factors(d, s), rtol=1e-12)


def test_scale_factors_always_positive_hence_monotone():
    for m in (GModule(Additive(2), ((1.5, -2.0),)),
              GModule(Additive(1), ((-3.0,), (0.5,))),
              GModule(AFFINE, ((0.0, 2.0),))):
        g = RNG.uniform(-3, 3, (200, m.H.dim))
        assert np.all(scale_factors(m, g) > 0)
        # for a fixed acting element, increasing module sequences stay increasing
        for row in g[:5]:
            seq = np.sort(RNG.uniform(-3, 3, (50, m.N.dim)), axis=0)
            scaled = act(m, row, seq)
            assert np.all(np.diff(scaled, axis=0) >= 0)


def test_character_factors_do_not_depend_on_the_sample_layout():
    # each factor sums the nonzero terms in column order, whatever the layout
    from ordgroups import SampleConfig

    m = GModule(Additive(3), ((0.7, -1.3, 0.4),))
    g = SampleConfig(seed=3, count=1000).sample(3, stream=51)
    assert g.flags.f_contiguous
    want = np.exp(0.7 * g[:, 0] - 1.3 * g[:, 1] + 0.4 * g[:, 2])[:, None]
    for x, rows in ((g, slice(None)), (np.ascontiguousarray(g), slice(None)),
                    (g[5:700], slice(5, 700))):
        assert np.array_equal(scale_factors(m, x), want[rows])
