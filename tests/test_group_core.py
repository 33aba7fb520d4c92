"""Group laws: worked examples against independent oracles, axiom runs,
chart transport, serialization, and input validation."""

import numpy as np
import pytest

from ordgroups import (
    Additive,
    CocycleLaw,
    Ec,
    GCd,
    GModule,
    InputError,
    KCd,
    LexOrder,
    Product,
    SampleConfig,
    SemidirectRR,
    SUT3,
    Tk,
    Tolerance,
    act,
    check_group_axioms,
    commutator,
    compare,
    conjugate,
    dumps,
    extension_from_cocycle,
    g3_cocycle,
    g3_module,
    heis_cocycle,
    heis_module,
    heis_to_sut3,
    heisenberg,
    invert,
    law_from_descriptor,
    multiply,
    one_param_through,
    sut3_to_heis,
)
from ordgroups.actions import scale_factors
from ordgroups.groups import _NAMED, _matvec
from ordgroups.tolerance import DEFAULT_TOL

RNG = np.random.default_rng(7)


# --- independent oracles ---------------------------------------------------


def sut3_matrix(x, y, z):
    return np.array([[1.0, x, z], [0.0, 1.0, y], [0.0, 0.0, 1.0]])


def sut3_from_matrix(m):
    return np.array([m[0, 1], m[1, 2], m[0, 2]])


def sd_matrix(c, x, y):
    # (x, y) acts on the line as t -> e^{c y} t + x
    return np.array([[np.exp(c * y), x], [0.0, 1.0]])


def sd_from_matrix(c, m):
    return np.array([m[0, 1], np.log(m[0, 0]) / c])


def test_sut3_law_matches_matrix_multiplication():
    law = SUT3()
    for _ in range(200):
        a = RNG.uniform(-3, 3, 3)
        b = RNG.uniform(-3, 3, 3)
        expected = sut3_from_matrix(sut3_matrix(*a) @ sut3_matrix(*b))
        assert np.allclose(multiply(law, a, b), expected, atol=1e-12)


def test_semidirect_law_matches_matrix_representation():
    for c in (1.0, -2.0):
        law = SemidirectRR(c)
        for _ in range(200):
            a = RNG.uniform(-3, 3, 2)
            b = RNG.uniform(-3, 3, 2)
            expected = sd_from_matrix(c, sd_matrix(c, *a) @ sd_matrix(c, *b))
            assert np.allclose(multiply(law, a, b), expected, atol=1e-12)


def _numerical_brackets(law, h=1e-4):
    """B[k, i, j], the e_k coefficient of [e_i, e_j]: the mixed second central
    difference of mul at the identity, antisymmetrised in i and j."""
    n = law.dim
    signs = np.array([1.0, -1.0])
    # a = s h e_i against b = t h e_j for every (i, s, j, t) at once
    a = h * np.eye(n)[:, None, None, None, :] * signs[None, :, None, None, None]
    b = h * np.eye(n)[None, None, :, None, :] * signs[None, None, None, :, None]
    mixed = np.einsum("s,t,isjtk->kij", signs, signs, law.mul(a, b)) / (4 * h * h)
    return mixed - mixed.transpose(0, 2, 1)


_BRACKET_PARAMS = (-2.0, -0.5, 0.0, 1.0, 2.5)


@pytest.mark.parametrize("law", [
    Additive(1), Additive(2), Additive(3), SUT3(), Tk(0.0),
    *(SemidirectRR(c) for c in _BRACKET_PARAMS),
    *(Ec(c) for c in _BRACKET_PARAMS),
    *(Tk(k) for k in _BRACKET_PARAMS),
    *(GCd(c, d) for c in _BRACKET_PARAMS for d in _BRACKET_PARAMS),
    *(KCd(c, d) for c in _BRACKET_PARAMS for d in _BRACKET_PARAMS),
    *(Product(SemidirectRR(c), Additive(1)) for c in _BRACKET_PARAMS),
    *(Product(Additive(1), SemidirectRR(c)) for c in _BRACKET_PARAMS),
    Product(Additive(1), Ec(-2.0)), Product(SemidirectRR(1.0), SemidirectRR(-0.5)),
    Product(Additive(2), KCd(1.0, 2.5)),
    # numpy parameters still give a table of Python floats
    KCd(np.float64(0.5), np.float64(-2.0)), Product(Additive(1), SemidirectRR(np.float64(2.5))),
    # cocycle laws from named cocycles
    *(pytest.param(extension_from_cocycle(heis_cocycle(c)),
                   id=f"from_cocycle heis c={c}") for c in (-2.0, 0.5)),
    *(pytest.param(extension_from_cocycle(g3_cocycle(k)),
                   id=f"from_cocycle g3 k={k}") for k in (-2.0, 1.0)),
], ids=repr)
def test_declared_brackets_match_the_second_difference_of_mul(law):
    table = law.brackets()
    assert all(type(b) is float and b != 0.0 for b in table.values())
    # one entry of each antisymmetric pair
    assert not any((k, j, i) in table for k, i, j in table)
    declared = np.zeros((law.dim,) * 3)
    for (k, i, j), b in table.items():
        declared[k, i, j], declared[k, j, i] = b, -b
    assert np.allclose(_numerical_brackets(law), declared, rtol=0.0, atol=1e-6)


# each family's bracket table written out: the reference for its derived table
_LITERAL_TABLES = {
    SemidirectRR: lambda L: {(0, 1, 0): L.c},
    Ec: lambda L: {(2, 0, 1): 2 * L.c},
    SUT3: lambda L: {(2, 0, 1): 1.0},
    GCd: lambda L: {(2, 0, 2): L.c, (2, 1, 2): L.d},
    KCd: lambda L: {(1, 0, 1): L.c, (2, 0, 2): L.d},
    Tk: lambda L: {(0, 2, 0): 1.0, (0, 2, 1): L.k, (1, 2, 1): 1.0},
}


@pytest.mark.parametrize("law", [
    SUT3(),
    *(SemidirectRR(c) for c in _BRACKET_PARAMS),
    *(Ec(c) for c in _BRACKET_PARAMS),
    *(Tk(k) for k in _BRACKET_PARAMS),
    *(GCd(c, d) for c in _BRACKET_PARAMS for d in _BRACKET_PARAMS),
    *(KCd(c, d) for c in _BRACKET_PARAMS for d in _BRACKET_PARAMS),
], ids=repr)
def test_derived_tables_keep_the_declared_entries_in_order(law):
    # _breaking_bracket reports the first breaking entry, so the order counts
    literal = {key: float(b) for key, b in _LITERAL_TABLES[type(law)](law).items() if b != 0.0}
    assert list(law.brackets().items()) == list(literal.items())


def test_a_product_s_table_lists_its_first_factor_s_entries_first():
    # each factor's entries in its own order, shifted to its columns
    law = Product(Product(Tk(2.0), SemidirectRR(-0.5)), SemidirectRR(3.0))
    assert list(law.brackets().items()) == [
        ((0, 2, 0), 1.0), ((0, 2, 1), 2.0), ((1, 2, 1), 1.0), ((3, 4, 3), -0.5), ((5, 6, 5), 3.0)]


@pytest.mark.parametrize("c", _BRACKET_PARAMS)
def test_a_named_cocycle_law_derives_its_bracket_table(c):
    heis = extension_from_cocycle(heis_cocycle(c))
    assert heis.brackets() == ({(0, 1, 2): 2 * c} if c else {})
    g3 = extension_from_cocycle(g3_cocycle(c))
    assert list(g3.brackets().items()) == list(Tk(c).brackets().items())


# --- multiply --------------------------------------------------------------


def test_multiply_ec_half_worked_example():
    # oracle: SUT3 matrices composed with the chart change z -> z - xy/2
    a_s, b_s = heis_to_sut3([1, 2, 3]), heis_to_sut3([4, 5, 6])
    expected = sut3_to_heis(sut3_from_matrix(sut3_matrix(*a_s) @ sut3_matrix(*b_s)))
    got = multiply(heisenberg(), [1, 2, 3], [4, 5, 6])
    assert np.allclose(got, expected, atol=1e-12)
    assert np.allclose(got, [5.0, 7.0, 7.5], atol=1e-12)


def test_multiply_identity_is_all_zeros():
    assert np.array_equal(multiply(Additive(3), [1, 2, 3], [0, 0, 0]), [1, 2, 3])


def test_multiply_semidirect_worked_example():
    got = multiply(SemidirectRR(1.0), [0, 1], [1, 0])
    assert np.allclose(got, [np.e, 1.0], atol=1e-12)


def test_multiply_rejects_dimension_mismatch_and_nonfinite():
    with pytest.raises(InputError):
        multiply(Additive(2), [1, 2, 3], [0, 0])
    with pytest.raises(InputError):
        multiply(Additive(2), [np.inf, 0], [0, 0])
    with pytest.raises(InputError):
        multiply(Additive(2), [np.nan, 0], [0, 0])


# --- invert ----------------------------------------------------------------


def test_invert_semidirect_examples():
    assert np.allclose(invert(SemidirectRR(1.0), [1, 0]), [-1, 0])
    assert np.allclose(invert(SemidirectRR(1.0), [np.e, 1]), [-1, -1], atol=1e-12)


def test_invert_ec_is_negation_for_every_parameter():
    for c in (0.0, 0.5, -3.0):
        a = RNG.uniform(-3, 3, 3)
        assert np.array_equal(invert(Ec(c), a), -a)


@pytest.mark.parametrize(
    "law",
    [
        Additive(2),
        SemidirectRR(-2.0),
        Ec(3.0),
        SUT3(),
        GCd(2.0, -1.0),
        KCd(-1.0, 2.0),
        Tk(-2.0),
        Product(SemidirectRR(1.0), Additive(1)),
    ],
)
def test_closed_form_inverses_cancel(law):
    e = law.identity()
    for _ in range(100):
        a = RNG.uniform(-3, 3, law.dim)
        assert np.allclose(multiply(law, a, invert(law, a)), e, atol=1e-10)
        assert np.allclose(multiply(law, invert(law, a), a), e, atol=1e-10)


# --- memory layout ---------------------------------------------------------

# the laws as the interleaving np.stack(..., axis=-1) formulas wrote them
_REF_MUL = {
    SemidirectRR: lambda L, x1, y1, x2, y2: [x1 + np.exp(L.c * y1) * x2, y1 + y2],
    Ec: lambda L, x1, y1, z1, x2, y2, z2: [
        x1 + x2, y1 + y2, z1 + z2 + L.c * (x1 * y2 - y1 * x2)],
    SUT3: lambda L, x1, y1, z1, x2, y2, z2: [x1 + x2, y1 + y2, z1 + z2 + x1 * y2],
    GCd: lambda L, x1, y1, z1, x2, y2, z2: [
        x1 + x2, y1 + y2, z1 + np.exp(L.c * x1 + L.d * y1) * z2],
    KCd: lambda L, x1, y1, z1, x2, y2, z2: [
        x1 + x2, y1 + np.exp(L.c * x1) * y2, z1 + np.exp(L.d * x1) * z2],
    Tk: lambda L, x1, y1, z1, x2, y2, z2: [
        x1 + x2 * np.exp(z1) + L.k * y2 * z1 * np.exp(z1), y1 + y2 * np.exp(z1), z1 + z2],
}
_REF_INV = {
    SemidirectRR: lambda L, x, y: [-np.exp(-L.c * y) * x, -y],
    SUT3: lambda L, x, y, z: [-x, -y, x * y - z],
    GCd: lambda L, x, y, z: [-x, -y, -np.exp(-(L.c * x + L.d * y)) * z],
    KCd: lambda L, x, y, z: [-x, -np.exp(-L.c * x) * y, -np.exp(-L.d * x) * z],
    Tk: lambda L, x, y, z: [np.exp(-z) * (L.k * y * z - x), -y * np.exp(-z), -z],
}


def _ref_mul(law, a, b):
    if isinstance(law, Product):
        k = law.a.dim
        return np.concatenate([_ref_mul(law.a, a[..., :k], b[..., :k]),
                               _ref_mul(law.b, a[..., k:], b[..., k:])], axis=-1)
    if isinstance(law, CocycleLaw):
        m = law.cochain.module
        k = m.N.dim
        part_n = a[..., :k] + act(m, a[..., k:], b[..., :k]) + law.cochain.fn(a[..., k:], b[..., k:])
        return np.concatenate([part_n, _ref_mul(m.H, a[..., k:], b[..., k:])], axis=-1)
    if isinstance(law, Additive):
        return a + b
    cols = [a[..., i] for i in range(law.dim)] + [b[..., i] for i in range(law.dim)]
    return np.stack(_REF_MUL[type(law)](law, *cols), axis=-1)


def _ref_inv(law, a):
    if isinstance(law, Product):
        k = law.a.dim
        return np.concatenate([_ref_inv(law.a, a[..., :k]), _ref_inv(law.b, a[..., k:])], axis=-1)
    if isinstance(law, CocycleLaw) and law.cochain.descriptor["cocycle"] == "g3":
        # the same chart as t_k, whose closed form the g3 law's inverse rounds as
        return _ref_inv(Tk(law.cochain.descriptor["k"]), a)
    if isinstance(law, CocycleLaw):
        # e_c's chart with its columns (x, y, z) at [1, 2, 0]: heis adds no
        # term on (g, g^-1), where f(g, g^-1) would add +0.0 to z = -0.0
        return _ref_inv(Ec(law.cochain.descriptor["c"]), a[..., [1, 2, 0]])[..., [2, 0, 1]]
    if isinstance(law, (Additive, Ec)):
        return -a
    return np.stack(_REF_INV[type(law)](law, *(a[..., i] for i in range(law.dim))), axis=-1)


@pytest.mark.parametrize("law", [
    Additive(2), SemidirectRR(-2.0), Ec(3.0), SUT3(), GCd(2.0, -1.0), KCd(-1.0, 2.0), Tk(-2.0),
    Product(SemidirectRR(1.0), Additive(1)),
    Product(Additive(1), Product(SemidirectRR(-0.5), Additive(1))),
    extension_from_cocycle(heis_cocycle(0.5)),
    extension_from_cocycle(g3_cocycle(1.0)),
    # degenerate and negative parameters, where a generic path skips a term
    *(pytest.param(law, id=repr(law)) for law in (
        SemidirectRR(0.0), SemidirectRR(1.0), Ec(0.0), Ec(1.0), Ec(-0.5), GCd(0.0, 2.0),
        GCd(1.0, 0.0), GCd(0.0, 0.0), GCd(-0.5, -2.0), KCd(0.0, -1.0), KCd(1.0, 0.0),
        KCd(0.0, 0.0), Tk(0.0), Tk(1.0), Tk(-0.5))),
    *(pytest.param(extension_from_cocycle(heis_cocycle(c)),
                   id=f"from_cocycle heis c={c}") for c in (0.0, -2.0)),
    *(pytest.param(extension_from_cocycle(g3_cocycle(k)),
                   id=f"from_cocycle g3 k={k}") for k in (0.0, -3.0)),
], ids=lambda law: law.family)
def test_laws_give_the_same_bits_in_either_layout(law):
    cfg = SampleConfig(seed=4, count=1000)
    # samples, then the rows of _ZERO_GRID, its columns cut or repeated to
    # the law's dimension, against the grid reversed
    grid = _ZERO_GRID[:, np.arange(law.dim) % 3]
    a = np.asfortranarray(np.concatenate([cfg.sample(law.dim, stream=1), grid]))
    b = np.asfortranarray(np.concatenate([cfg.sample(law.dim, stream=2), grid[::-1]]))
    ca, cb = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.flags.f_contiguous and ca.flags.c_contiguous
    with np.errstate(over="ignore", invalid="ignore"):
        want_mul, want_inv = _bits(_ref_mul(law, ca, cb)), _bits(_ref_inv(law, ca))
        # row-major, coordinate-major, and a row block of coordinate-major rows
        for x, y, rows in ((ca, cb, slice(None)), (a, b, slice(None)),
                           (a[17:1500], b[17:1500], slice(17, 1500))):
            got_mul, got_inv = law.mul(x, y), law.inv(x)
            # bit for bit: -0.0 is not +0.0, and a NaN is the same NaN
            assert np.array_equal(_bits(got_mul), want_mul[rows])
            assert np.array_equal(_bits(got_inv), want_inv[rows])
            if not x.flags.c_contiguous:
                # coordinate-major in, coordinate-major out
                assert got_mul.strides[0] == got_inv.strides[0] == got_mul.itemsize


# --- the cocycle on (g, g^-1) ----------------------------------------------

# signed zeros, subnormal-range and e^{+-700}-range coordinates, every row of them
_ZERO_GRID = np.array(np.meshgrid(*[[0.0, -0.0, 1.0, 2.0, -2.0, 0.5, 1e-300, 700.0, -700.0]] * 3,
                                  indexing="ij")).reshape(3, -1).T


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("law", [Ec(0.5), Ec(-3.0), Ec(0.0), SUT3(), Tk(1.0), Tk(-2.5), Tk(0.0)],
                         ids=repr)
def test_each_named_cocycle_s_value_on_inverses_is_its_formula_s(law):
    # oracle: the declared closed form against the formula at (g, g^-1)
    level = law.levels[-1]
    x = np.zeros((1000, law.dim))
    g = x[:, level.base] = SampleConfig(seed=6, count=1000).sample(2, stream=1)
    # the inverse of (0, g) has g^-1 in its base columns
    want = level.cocycle(g, law.inv(x)[:, level.base])
    (_, on_inverses), p = _NAMED[level.cocycle.func], level.cocycle.args[0]
    if on_inverses is None:  # declared exactly 0
        assert np.all(want == 0.0)
    else:
        assert DEFAULT_TOL.check(on_inverses(p, g), want)[1]


@pytest.mark.parametrize("k", [0.0, -0.0, 1.0, -3.0])
def test_the_t_k_inverse_is_its_closed_form_bit_for_bit(k):
    # signed zeros included, and the g3 law's inverse in the same bits
    law = Tk(k)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _bits(_ref_inv(law, _ZERO_GRID))
        assert np.array_equal(_bits(law.inv(_ZERO_GRID)), want)
        assert np.array_equal(_bits(extension_from_cocycle(g3_cocycle(k)).inv(_ZERO_GRID)), want)
    # x' = +0.0 where x = k y z exactly
    assert not np.signbit(law.inv(np.array([2.0 * k, 1.0, 2.0]))[0])


@pytest.mark.parametrize("module", [
    # the modules of SemidirectRR(-2), SemidirectRR(0), Ec(0.5), SUT3,
    # GCd(2, -1), GCd(0, 0), KCd(-1, 0.5), KCd(0, 3), Tk(1) and the g3 law
    GModule(Additive(1), ((-2.0,),)), GModule(Additive(1), ((0.0,),)),
    heis_module(), heis_module(),
    GModule(Additive(2), ((2.0, -1.0),)), GModule(Additive(2), ((0.0, 0.0),)),
    GModule(Additive(1), ((-1.0,), (0.5,))), GModule(Additive(1), ((0.0,), (3.0,))),
    g3_module(), g3_module(),
    heis_module(), g3_module(),
], ids=repr)
def test_scale_factors_are_the_extension_level_s_scalings_bit_for_bit(module):
    # oracle: e^{C g} with each exponent summed row by row, as witnesses sum it
    g = _ZERO_GRID[:, :module.H.dim]
    with np.errstate(over="ignore"):  # e^{1400} is inf on both sides
        want = np.exp(_matvec(np.asarray(module.exponents), g))
        got, scalings = scale_factors(module, g), list(module.scalings(g))
    assert np.array_equal(_bits(got), _bits(want))
    for r, s in enumerate(scalings):
        if s is None:
            assert not any(module.exponents[r]) and np.all(want[:, r] == 1.0)
        else:
            assert np.array_equal(_bits(s), _bits(want[:, r]))


def test_the_sut3_inverse_is_plus_zero_at_z_equal_x_y():
    # z' = x y - z rounds to +0.0 where z = x y, as -z - (-x y) does
    got = SUT3().inv(np.array([[2.0, 3.0, 6.0], [-0.5, 4.0, -2.0], [0.0, 0.0, 0.0]]))
    assert np.array_equal(got[:, 2], np.zeros(3)) and not np.signbit(got[:, 2]).any()


# --- conjugate / commutator ------------------------------------------------


def test_conjugate_kcd_closed_form_worked_example():
    got = conjugate(KCd(2.0, 3.0), [1, 0, 0], [0, 1, 1])
    assert np.allclose(got, [0.0, np.exp(2), np.exp(3)], atol=1e-12)


def test_conjugate_kcd_closed_form_on_samples():
    c, d = -1.5, 0.75
    law = KCd(c, d)
    for _ in range(300):
        g = RNG.uniform(-3, 3, 3)
        h = np.array([0.0, *RNG.uniform(-3, 3, 2)])
        expected = [0.0, np.exp(c * g[0]) * h[1], np.exp(d * g[0]) * h[2]]
        assert np.allclose(conjugate(law, g, h), expected, atol=1e-9)


def test_conjugate_abelian_fixes_everything():
    g, h = RNG.uniform(-3, 3, 2), RNG.uniform(-3, 3, 2)
    assert np.allclose(conjugate(Additive(2), g, h), h)


def test_conjugate_semidirect_matches_matrix_oracle():
    g, h = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    m = sd_matrix(1, *g) @ sd_matrix(1, *h) @ np.linalg.inv(sd_matrix(1, *g))
    assert np.allclose(conjugate(SemidirectRR(1.0), g, h), sd_from_matrix(1, m))
    assert np.allclose(conjugate(SemidirectRR(1.0), g, h), [np.e, 0.0])


def test_commutator_central_extension_sign():
    g, h = [1, 0, 0], [0, 1, 0]
    assert np.allclose(commutator(Ec(1.0), g, h), [0, 0, 2])
    assert np.allclose(commutator(Ec(-1.0), g, h), [0, 0, -2])
    assert np.allclose(commutator(Additive(3), RNG.uniform(-3, 3, 3), RNG.uniform(-3, 3, 3)), 0)


def test_commutator_identity_in_central_family_is_exact():
    # (a, b, *) against (0, k, *) lands on the center with value 2cak
    for c in (0.5, -2.0):
        law = Ec(c)
        for _ in range(200):
            a, k = RNG.uniform(0.1, 3, 2)
            g = np.array([a, RNG.uniform(-3, 3), RNG.uniform(-3, 3)])
            h = np.array([0.0, k, RNG.uniform(-3, 3)])
            got = commutator(law, g, h)
            assert np.allclose(got, [0, 0, 2 * c * a * k], atol=1e-12)


@pytest.mark.parametrize("law", [Tk(1.0), KCd(1.0, -2.0), Product(SemidirectRR(1.0), Additive(1))])
@pytest.mark.parametrize("op", [multiply, conjugate, commutator])
def test_element_ops_on_a_stack_equal_the_row_by_row_calls(op, law):
    g = RNG.uniform(-3, 3, (4, 5, 3))
    h = RNG.uniform(-3, 3, (4, 5, 3))
    rows = [op(law, gi, hi) for gi, hi in zip(g.reshape(-1, 3), h.reshape(-1, 3))]
    assert np.array_equal(op(law, g, h), np.reshape(rows, (4, 5, 3)))
    assert np.array_equal(invert(law, g), np.reshape([invert(law, gi) for gi in g.reshape(-1, 3)],
                                                     (4, 5, 3)))


def test_stacked_elements_are_still_validated():
    with pytest.raises(InputError):
        commutator(Tk(1.0), np.zeros((4, 2)), np.zeros((4, 2)))  # wrong last axis
    with pytest.raises(InputError):
        conjugate(Tk(1.0), np.full((4, 3), np.nan), np.zeros((4, 3)))
    with pytest.raises(InputError):
        invert(Additive(1), 1.0)  # a 0-d element
    with pytest.raises(InputError):
        one_param_through(KCd(1.0, 1.0), np.zeros((2, 3)), np.array(0.5))
    with pytest.raises(InputError):
        compare(LexOrder((0, 1)), np.zeros((2, 2)), np.ones((2, 2)))


def test_center_of_central_extension_commutes_exactly():
    law = Ec(2.0)
    for _ in range(100):
        z = np.array([0.0, 0.0, RNG.uniform(-3, 3)])
        g = RNG.uniform(-3, 3, 3)
        assert np.array_equal(multiply(law, z, g), multiply(law, g, z))


# --- axiom checker ----------------------------------------------------------


def test_axiom_checker_passes_nonsplit_family():
    rep = check_group_axioms(Tk(1.0), SampleConfig(seed=3, count=1000, box=3.0))
    assert rep.passed
    assert rep.associativity <= 1e-9


def test_axiom_checker_additive_is_exact():
    rep = check_group_axioms(Additive(3), SampleConfig(seed=3, count=500))
    assert rep.passed
    # identity and inverse are exact; float addition itself reassociates
    # within one ulp, so associativity is only machine-exact
    assert rep.associativity <= 1e-15
    assert rep.identity == 0.0
    assert rep.inverse == 0.0


def test_axiom_checker_on_cocycle_built_law():
    law = extension_from_cocycle(heis_cocycle(0.5))
    rep = check_group_axioms(law, SampleConfig(seed=4, count=500))
    assert rep.passed


def test_axiom_checker_reports_overflow_instead_of_raising():
    rep = check_group_axioms(GCd(2.0, 2.0), SampleConfig(seed=5, count=200, box=500.0))
    assert rep.overflow
    assert not rep.passed


def test_axiom_checker_flags_a_broken_law():
    class Broken(Additive):
        def mul(self, a, b):
            return a + b + 0.5

    rep = check_group_axioms(Broken(2), SampleConfig(seed=6, count=100))
    assert not rep.passed


# --- tolerance rule ----------------------------------------------------------


def test_the_abs_tol_shortcut_gives_the_full_rules_verdict():
    tol = Tolerance()
    rng = np.random.default_rng(8)
    below = rng.uniform(0.0, tol.abs_tol, size=(64, 3))
    below[5, 1] = tol.abs_tol
    scale = rng.uniform(0.0, 10.0, size=(64, 3))

    def full_rule(gap, scale):
        return bool(np.all((gap <= tol.abs_tol + tol.rel_tol * scale) & np.isfinite(gap)))

    class Unread:
        def __iter__(self):
            raise AssertionError("the parts were read for gaps within abs_tol")

    assert tol.verdict(below, Unread()) == (below.max(), True) and full_rule(below, scale)
    just_above = np.nextafter(tol.abs_tol, np.inf)
    cases = [(just_above, 0.0), (just_above, 1.0), (2 * tol.abs_tol, 0.5),
             (2 * tol.abs_tol, 1.0), (np.inf, 1.0), (np.inf, np.inf), (np.nan, np.nan)]
    verdicts = []
    for value, at in cases:
        gap, sc = below.copy(), scale.copy()
        gap[17, 2], sc[17, 2] = value, at
        worst, ok = tol.verdict(gap, (sc,))
        assert ok == full_rule(gap, sc), (value, at)
        assert worst == value or np.isnan(value) and np.isnan(worst)
        verdicts.append(ok)
    assert verdicts == [False, True, False, True, False, False, False]


# --- chart transport ---------------------------------------------------------


def test_chart_change_worked_examples():
    assert np.allclose(sut3_to_heis([2, 3, 4]), [2, 3, 1])
    z = RNG.uniform(-3, 3)
    assert np.allclose(sut3_to_heis([0, 0, z]), [0, 0, z])


def test_chart_change_round_trip_and_homomorphism():
    sut, heis = SUT3(), heisenberg()
    a = RNG.uniform(-3, 3, (1000, 3))
    b = RNG.uniform(-3, 3, (1000, 3))
    assert np.allclose(heis_to_sut3(sut3_to_heis(a)), a, atol=1e-12)
    lhs = sut3_to_heis(sut.mul(a, b))
    rhs = heis.mul(sut3_to_heis(a), sut3_to_heis(b))
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_chart_change_needs_three_coordinates():
    with pytest.raises(InputError):
        sut3_to_heis([1.0, 2.0])


# --- one-parameter subgroups -------------------------------------------------


def test_one_param_subgroup_through_element():
    law = KCd(1.0, 2.0)
    g = np.array([1.2, -0.7, 2.1])
    assert np.allclose(one_param_through(law, g, np.array(1.0)), g, atol=1e-12)
    assert np.allclose(one_param_through(law, g, np.array(0.0)), [0, 0, 0])


def test_one_param_subgroup_zero_acting_branch():
    law = KCd(1.0, 2.0)
    g = np.array([0.0, 1.5, -2.0])
    w = np.array(0.25)
    assert np.allclose(one_param_through(law, g, w), [0.0, 0.375, -0.5])


def test_one_param_subgroup_needs_k_chart():
    with pytest.raises(InputError):
        one_param_through(Ec(1.0), [1, 2, 3], np.array(0.5))  # type: ignore[arg-type]


# --- serialization -----------------------------------------------------------


@pytest.mark.parametrize(
    "law",
    [
        Additive(3),
        SemidirectRR(-2.0),
        Ec(0.5),
        SUT3(),
        GCd(1.0, -2.0),
        KCd(0.0, 2.0),
        Tk(-1.0),
        Product(SemidirectRR(1.0), Additive(1)),
    ],
)
def test_law_descriptor_round_trip(law):
    desc = law.descriptor()
    rebuilt = law_from_descriptor(desc)
    assert rebuilt.descriptor() == desc
    a = RNG.uniform(-2, 2, law.dim)
    b = RNG.uniform(-2, 2, law.dim)
    assert np.array_equal(law.mul(a, b), rebuilt.mul(a, b))


def test_from_cocycle_descriptor_round_trip():
    # k used to be read back from the cochain as f((0,1),(1,0))/e, which is an
    # ulp off for -2.98
    cases = [{"cocycle": "heis", "c": 0.5}]
    cases += [{"cocycle": "g3", "k": k} for k in (-2.98, 0.1, 1.0)]
    for params in cases:
        desc = {"family": "from_cocycle", "params": params}
        out = law_from_descriptor(desc).descriptor()
        assert out == {**desc, "dim": 3}
        assert law_from_descriptor(out).descriptor() == out


@pytest.mark.parametrize("law, dim", [
    (SemidirectRR(-2.0), 2), (Ec(0.5), 3), (SUT3(), 3), (GCd(1.0, -2.0), 3), (KCd(0.0, 2.0), 3),
    (Tk(-1.0), 3), (CocycleLaw(heis_cocycle(0.5)), 3), (CocycleLaw(g3_cocycle(2.0)), 3),
], ids=lambda x: getattr(x, "family", None))
def test_an_extension_law_builds_its_level_once_and_reads_its_dim_off_it(law, dim):
    assert law.levels is law.levels
    widths = [level.cols.stop - level.cols.start for level in law.levels]
    assert law.dim == law.descriptor()["dim"] == sum(widths) == dim
    assert law.identity().shape == (dim,)


def _tower_laws():
    from ordgroups.classify import enumerate_canonical
    from ordgroups.selftest import _law_grid

    laws = _law_grid() + [law for dim in (1, 2, 3) for _, law, _ in enumerate_canonical(dim)]
    return laws + [CocycleLaw(heis_cocycle(0.5)), CocycleLaw(g3_cocycle(-2.0)),
                   Product(Tk(1.0), SemidirectRR(2.0)), Product(Additive(1), Ec(-1.0))]


@pytest.mark.parametrize("law", _tower_laws(), ids=lambda law: dumps(law.descriptor()))
def test_each_level_reads_only_the_columns_of_the_levels_below_it(law):
    # the theorem's chain of normal subgroups with one-dimensional quotients,
    # on the level list: each column is written once, and a level's exponent
    # rows and cocycle read only columns that earlier levels wrote
    written = []
    for level in law.levels:
        cols = range(law.dim)[level.cols]
        assert len(level.exponents) == len(cols) > 0
        read = {j for row in level.exponents for j, _ in row} | set(range(law.dim)[level.base])
        assert read <= set(written) and not set(cols) & set(written)
        written += cols
    assert sorted(written) == list(range(law.dim))


def test_additive_dimension_is_an_integer():
    assert Additive(2.0) == Additive(2) and type(Additive(2.0).n) is int
    for n in (0, 2.5, 4):
        with pytest.raises(InputError):
            Additive(n)


def test_unknown_family_rejected():
    with pytest.raises(InputError):
        law_from_descriptor({"family": "octonion"})
