"""Exponential actions: evaluation, standardization, exponent recovery."""

import numpy as np
import pytest

from ordgroups import (
    DomainError,
    InputError,
    SemidirectRR,
    act,
    affine_on_semidirect,
    character,
    diagonal,
    infer_exponents,
    is_nontrivial,
    standardize_action,
    trivial,
)
from ordgroups.actions import scale_factors

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


def test_is_nontrivial():
    assert not is_nontrivial(character(0.0, 0.0))
    assert is_nontrivial(character(2.0, -1.0))
    assert not is_nontrivial(diagonal(0.0, 0.0))
    assert not is_nontrivial(trivial(3))


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


# --- standardization -----------------------------------------------------------


def test_standardize_worked_examples():
    _, psi = standardize_action(character(3.0, 0.0))
    assert np.array_equal(psi, np.diag([3.0, 1.0]))
    _, psi = standardize_action(character(1.0, 0.0))
    assert np.array_equal(psi, np.eye(2))
    _, psi = standardize_action(character(2.0, 5.0))
    assert np.array_equal(psi, [[2.0, 5.0], [0.0, 1.0]])


def test_standardize_pivot_not_in_first_column():
    std, psi = standardize_action(character(0.0, 2.0))
    assert np.array_equal(psi, [[0.0, 2.0], [1.0, 0.0]])
    assert abs(np.linalg.det(psi)) > 1e-12
    assert std.coeffs == (1.0, 0.0)


def test_standardize_agrees_with_original_action():
    action = character(-1.5, 0.0, 2.5)
    std, psi = standardize_action(action)
    x = RNG.uniform(-3, 3, (400, 3))
    n = RNG.uniform(-3, 3, (400, 1))
    assert np.allclose(act(action, x, n), act(std, x @ psi.T, n), rtol=1e-12)
    assert abs(np.linalg.det(psi)) > 1e-12


def test_standardize_rejects_trivial_and_non_character():
    with pytest.raises(DomainError):
        standardize_action(character(0.0, 0.0))
    with pytest.raises(DomainError):
        standardize_action(diagonal(1.0, 2.0))


# --- exponent recovery -----------------------------------------------------------


def _samples_from(action, count, dim):
    out = []
    for _ in range(count):
        g = RNG.uniform(-3, 3, dim)
        n = RNG.uniform(-3, 3, 1)
        out.append((g, n, act(action, g, n)))
    return out


def test_infer_exponents_round_trip():
    fit = infer_exponents(_samples_from(character(1.0, 0.0), 50, 2))
    assert np.allclose(fit.coeffs, [1.0, 0.0], atol=1e-9)
    assert fit.residual <= 1e-9


def test_infer_exponents_trivial_action():
    fit = infer_exponents(_samples_from(character(0.0, 0.0, 0.0), 40, 3))
    assert np.allclose(fit.coeffs, 0.0, atol=1e-12)


def test_infer_exponents_diagonal_channelwise():
    d = diagonal(2.0, 1.0)
    first, second = [], []
    for _ in range(50):
        t = RNG.uniform(-3, 3, 1)
        n = RNG.uniform(-3, 3, 2)
        out = act(d, t, n)
        first.append((t, n[:1], out[:1]))
        second.append((t, n[1:], out[1:]))
    assert np.allclose(infer_exponents(first).coeffs, [2.0], atol=1e-9)
    assert np.allclose(infer_exponents(second).coeffs, [1.0], atol=1e-9)


def test_infer_exponents_skips_zero_module_samples():
    action = character(1.0, -1.0)
    samples = _samples_from(action, 30, 2)
    samples.insert(0, (np.array([1.0, 1.0]), np.array([0.0]), np.array([0.0])))
    fit = infer_exponents(samples)
    assert fit.used == 30
    assert np.allclose(fit.coeffs, [1.0, -1.0], atol=1e-9)


def test_infer_exponents_rank_deficient():
    action = character(1.0, 2.0)
    g = np.array([1.0, 1.0])
    samples = [(g * i, np.array([1.0]), act(action, g * i, [1.0])) for i in (1, 2, 3)]
    with pytest.raises(DomainError):
        infer_exponents(samples)


def test_infer_exponents_rejects_sign_flips():
    with pytest.raises(DomainError):
        infer_exponents([(np.array([1.0]), np.array([1.0]), np.array([-2.0]))])


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
