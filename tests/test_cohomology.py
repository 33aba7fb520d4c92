"""Coboundary calculus, cocycle verification, extension construction."""

import numpy as np
import pytest

from ordgroups import (
    Additive,
    Cochain,
    DomainError,
    GModule,
    InputError,
    LexOrder,
    OrderedGroupSpec,
    SampleConfig,
    SemidirectRR,
    Tk,
    check_group_axioms,
    check_translation_invariance,
    coboundary,
    cocycle_residual,
    extension_from_cocycle,
    g3_cocycle,
    g3_module,
    heis_cocycle,
    heis_module,
    heisenberg,
)
from ordgroups.cohomology import CocycleLaw, check_cocycle

RNG = np.random.default_rng(31)
CFG = SampleConfig(seed=5, count=600)


def line_module(*character) -> GModule:
    return GModule(Additive(len(character)), (character,))


# --- coboundary formula ----------------------------------------------------


def test_coboundary_of_constant_trivial_action_vanishes():
    f = Cochain(0, lambda: np.array([4.2]), line_module(0.0))
    df = coboundary(f)
    g = RNG.uniform(-3, 3, (100, 1))
    assert np.allclose(df.fn(g), 0.0)


def test_coboundary_of_constant_under_character():
    f = Cochain(0, lambda: np.array([1.0]), line_module(1.0))
    df = coboundary(f)
    # e^g - 1, evaluated where the exponential hits 2
    assert np.allclose(df.fn(np.array([np.log(2.0)])), [1.0])
    g = RNG.uniform(-2, 2, (50, 1))
    assert np.allclose(df.fn(g), np.exp(g) - 1.0)
    # a degree-0 cochain's terms are e^{C g} m and -m, bit for bit, signed zero included
    for m in (np.array([1.0]), np.array([0.0]), np.array([-0.0])):
        terms = coboundary(Cochain(0, lambda: m, line_module(1.0))).terms(g)
        assert len(terms) == 2
        assert np.array_equal(terms[0].view(np.int64), (np.exp(g) * m).view(np.int64))
        assert np.array_equal(terms[1].view(np.int64), (-m).view(np.int64))


def test_coboundary_of_degree_one_square():
    mod = line_module(0.0)
    f = Cochain(1, lambda g: g**2, mod)
    df = coboundary(f)
    assert np.allclose(df.fn(np.array([1.0]), np.array([1.0])), [-2.0])
    g, h = RNG.uniform(-2, 2, (40, 1)), RNG.uniform(-2, 2, (40, 1))
    assert np.allclose(df.fn(g, h), -2.0 * g * h)


def test_coboundary_squares_to_zero_on_bounded_cochains():
    mods = [
        (heis_module(), None),
        (g3_module(), (1,)),  # acting coordinate stays bounded under products
    ]
    for mod, coords in mods:
        idx = list(range(mod.H.dim)) if coords is None else list(coords)

        def poly(g):
            v = g[..., idx]
            return (v @ np.arange(1.0, len(idx) + 1) + (v**2).sum(axis=-1))[..., None]

        def expo(g):
            return np.exp(0.4 * g[..., idx].sum(axis=-1))[..., None]

        for f in (Cochain(0, lambda: np.array([0.7]), mod),
                  Cochain(1, poly, mod),
                  Cochain(1, expo, mod)):
            ddf = coboundary(coboundary(f))
            args = [CFG.sample(mod.H.dim, stream=70 + i) for i in range(ddf.degree)]
            assert np.max(np.abs(ddf.fn(*args))) <= 1e-9


# --- cocycle residuals -------------------------------------------------------


def test_standard_cocycles_have_vanishing_coboundary():
    assert cocycle_residual(heis_cocycle(1.0), CFG) <= 1e-9
    assert cocycle_residual(heis_cocycle(-0.5), CFG) == pytest.approx(0.0, abs=1e-12)
    assert cocycle_residual(g3_cocycle(1.0), CFG) <= 1e-9
    assert cocycle_residual(g3_cocycle(-2.0), CFG) <= 1e-9


def test_constant_two_cochain_is_a_cocycle_under_trivial_action():
    mod = heis_module()
    f = Cochain(2, lambda g, h: np.ones(g.shape[:-1] + (1,)), mod)
    assert cocycle_residual(f, CFG) == 0.0


def test_cocycle_residual_requires_degree_two():
    with pytest.raises(InputError):
        cocycle_residual(Cochain(0, lambda: np.array([1.0]), heis_module()), CFG)


@pytest.mark.parametrize("f, box", [
    (g3_cocycle(1e306), 3.0), (heis_cocycle(1e307), 3.0), (g3_cocycle(1.0), 800.0),
], ids=["g3 k=1e306", "heis c=1e307", "g3 box=800"])
def test_a_coboundary_that_overflows_is_inconclusive_not_failed(f, box):
    # both are cocycles identically; where a term of the sum overflows, the
    # check can say nothing, and names the operands of the first such row
    cfg = SampleConfig(seed=5, count=600, box=box)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="the coboundary overflows at sample row") as err:
            check_cocycle(f, cfg)
        row = int(str(err.value).split("sample row ")[1].split(",")[0])
        operands = [cfg.sample(2, stream)[row] for stream in (31, 32, 33)]
        assert str(err.value).count(repr(float(operands[2][1]))) == 1
        assert not np.all(np.isfinite(coboundary(f).fn(*operands)))
        # no row before it overflows
        rows = [cfg.sample(2, stream, count=row) for stream in (31, 32, 33)]
        assert np.all(np.isfinite(coboundary(f).fn(*rows)))


def test_perturbed_cocycle_is_detected():
    base = g3_cocycle(1.0)

    def bad(g, h):
        return base.fn(g, h) + (h[..., 0] * g[..., 1])[..., None]

    residual = cocycle_residual(Cochain(2, bad, base.module), CFG)
    assert residual > 1e-3


# --- extensions ----------------------------------------------------------------


def _pointwise_gap(law_a, law_b, perm=None, count=1000):
    u = CFG.sample(law_a.dim, stream=77, count=count)
    v = CFG.sample(law_a.dim, stream=78, count=count)
    if perm is None:
        return float(np.max(np.abs(law_a.mul(u, v) - law_b.mul(u, v))))
    lhs = law_a.mul(u, v)[:, perm]
    rhs = law_b.mul(u[:, perm], v[:, perm])
    return float(np.max(np.abs(lhs - rhs)))


def test_extension_reproduces_central_family():
    law = extension_from_cocycle(heis_cocycle(0.5), CFG)
    # module-first chart (z, x, y); compare after moving the module last
    assert _pointwise_gap(law, heisenberg(), perm=[1, 2, 0]) <= 1e-9


def test_extension_reproduces_nonsplit_family():
    for k in (1.0, -2.0):
        law = extension_from_cocycle(g3_cocycle(k), CFG)
        assert _pointwise_gap(law, Tk(k)) <= 1e-9
        assert check_group_axioms(law, CFG).passed


def test_zero_cocycle_gives_split_law():
    mod = g3_module()
    zero = Cochain(2, lambda g, h: np.zeros(g.shape[:-1] + (1,)), mod)
    law = extension_from_cocycle(zero, CFG)
    assert _pointwise_gap(law, Tk(0.0)) == 0.0


def test_extension_rejects_non_cocycles():
    base = g3_cocycle(1.0)

    def bad(g, h):
        return base.fn(g, h) + (h[..., 0] * g[..., 1])[..., None]

    with pytest.raises(DomainError):
        extension_from_cocycle(Cochain(2, bad, base.module), CFG)


def test_associativity_defect_equals_coboundary():
    # the law built from any 2-cochain misassociates by exactly the coboundary
    base = g3_cocycle(1.0)

    def bad(g, h):
        return base.fn(g, h) + (h[..., 0] * g[..., 1])[..., None]

    cochain = Cochain(2, bad, base.module)
    law = CocycleLaw(cochain)
    df = coboundary(cochain)
    a = CFG.sample(3, stream=79, count=300)
    b = CFG.sample(3, stream=80, count=300)
    c = CFG.sample(3, stream=81, count=300)
    defect = law.mul(law.mul(a, b), c) - law.mul(a, law.mul(b, c))
    expected = df.fn(a[:, 1:], b[:, 1:], c[:, 1:])
    assert np.allclose(defect[:, :1], -expected, atol=1e-9)
    assert np.allclose(defect[:, 1:], 0.0, atol=1e-12)

    clean = extension_from_cocycle(base, CFG)
    good_defect = clean.mul(clean.mul(a, b), c) - clean.mul(a, clean.mul(b, c))
    assert np.max(np.abs(good_defect)) <= 1e-9


def test_cohomologous_cocycles_give_isomorphic_laws():
    mod = g3_module()
    shift = Cochain(1, lambda g: (0.8 * g[..., 1] ** 2)[..., None], mod)
    f = g3_cocycle(1.0)
    f_shifted = Cochain(
        2, lambda g, h: f.fn(g, h) + coboundary(shift).fn(g, h), mod)
    law_a = extension_from_cocycle(f, CFG)
    law_b = extension_from_cocycle(f_shifted, CFG)

    def phi(pt):  # (a, h) -> (a - shift(h), h), from the f law to the shifted law
        return np.concatenate([pt[..., :1] - shift.fn(pt[..., 1:]), pt[..., 1:]], axis=-1)

    u = CFG.sample(3, stream=82)
    v = CFG.sample(3, stream=83)
    lhs = phi(law_a.mul(u, v))
    rhs = law_b.mul(phi(u), phi(v))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_unnormalized_cocycle_is_rejected():
    # f(e, e) = 2.5 would make (-2.5, e), not (0, e), the law's identity
    off = Cochain(2, lambda g, h: heis_cocycle(1.0).fn(g, h) + 2.5, heis_module())
    assert cocycle_residual(off, CFG) <= 1e-9  # a cocycle all the same
    with pytest.raises(DomainError, match=r"does not vanish at \(e, e\)"):
        extension_from_cocycle(off, CFG)


@pytest.mark.parametrize("H, exponents", [
    (Additive(2), ((1.0,),)),  # one column, for a 2-dimensional H
    (SemidirectRR(1.0), ((0.0, 1.0), (1.0,))),
    (Additive(2), ()),
    (Additive(1), ((float("nan"),),)),
    (Additive(1), ((1.0,), (2.0,), (3.0,), (4.0,))),
], ids=["wrong-columns", "ragged", "empty", "non-finite", "four-rows"])
def test_module_shapes_validated(H, exponents):
    with pytest.raises(InputError):
        GModule(H, exponents)


# --- extensions ordered lexicographically, quotient chart first --------------


def test_ordered_extension_trivial_case():
    mod = heis_module()
    zero = Cochain(2, lambda g, h: np.zeros(g.shape[:-1] + (1,)), mod)
    spec = OrderedGroupSpec(extension_from_cocycle(zero, CFG), LexOrder((1, 2, 0)))
    assert check_translation_invariance(spec, CFG).passed


def test_ordered_extension_central_cocycle():
    law = extension_from_cocycle(heis_cocycle(1.0), CFG)
    rep = check_translation_invariance(OrderedGroupSpec(law, LexOrder((1, 2, 0))), CFG)
    assert rep.left_ok and rep.right_ok


def test_ordered_extension_nonsplit_cocycle():
    # quotient coordinates (significance acting-first) dominate the fiber
    law = extension_from_cocycle(g3_cocycle(1.0), CFG)
    rep = check_translation_invariance(OrderedGroupSpec(law, LexOrder((2, 1, 0))), CFG)
    assert rep.left_ok and rep.right_ok
