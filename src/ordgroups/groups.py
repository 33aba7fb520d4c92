"""Closed-form group laws on coordinate charts of dimension 1 to 3.

Every law is one list of levels (_Level), ordered bottom up and built once
per law, and one mul, inv and bracket table (_Tower) run over it. A level
writes a block m of the law's columns from the columns g below it:
m m' = m + e^{C g} m' + f(g, g'), with an exponent row of C per column of m
and an optional 2-cocycle f. Each distinct row's e^{...} is computed once per
call. Additive(n) is one level with C = 0 and no cocycle; Product(a, b) puts
b's levels, moved past a's columns, below a's. Every other law is one
extension step (m, g)(m', g') = (m + e^{C g} m' + f(g, g'), g g'): a GModule
(the acting law H of g and the exponent matrix C, a row per module
coordinate, a column per coordinate of H), the module block m first or last,
and an optional named 2-cocycle f. Its levels are H's, moved to the base
columns, then the module block's:

  law              the module's H             module        C             cocycle
  SemidirectRR(c)  Additive(1) on y           x, first      ((c,),)       -
  Ec(c)            Additive(2) on (x, y)      z, last       ((0, 0),)     heis: c (x1 y2 - y1 x2)
  SUT3             Additive(2) on (x, y)      z, last       ((0, 0),)     sut3: x1 y2
  GCd(c, d)        Additive(2) on (x, y)      z, last       ((c, d),)     -
  KCd(c, d)        Additive(1) on x           (y, z), last  ((c,), (d,))  -
  Tk(k)            SemidirectRR(1) on (y, z)  x, first      ((0, 1),)     g3: k y2 z1 e^{z1}
  CocycleLaw       its cochain's module's H   N, first      the module's  its cochain

All operations broadcast over stacked inputs of shape (..., dim), in either
memory layout. Samples and law results are coordinate-major: an (n, dim)
array whose coordinate columns are each contiguous, so every coordinate a
law reads and writes is a unit-stride column. The layout changes no value:
each coordinate comes from the same elementwise operations, and samples keep
the values and the generator order of one row-major draw.

A law's descriptor is {"family", "params", "dim"}: its class's family name
and its dataclass fields, so the fields are the one statement of the format
that jsonio.law_from_descriptor reads back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import InputError
from .tolerance import DEFAULT_TOL, SampleConfig, Tolerance


def as_coords(x, dim: int | None = None) -> np.ndarray:
    """Validate elements: a finite float array of shape (..., dim), one element
    per row of the leading axes."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        raise InputError("element must be a coordinate vector, got a scalar")
    if dim is not None and a.shape[-1] != dim:
        raise InputError(f"element has {a.shape[-1]} coordinates, law expects {dim}")
    if not np.all(np.isfinite(a)):
        raise InputError("element coordinates must be finite")
    return a


def _element(x, dim: int) -> np.ndarray:
    """Validate exactly one element, for the operations that take no stack."""
    a = as_coords(x, dim)
    if a.ndim != 1:
        raise InputError(f"element must be a flat coordinate vector, got shape {a.shape}")
    return a


def _result(dim: int, *operands) -> np.ndarray:
    """The uninitialized (..., dim) result of an operation on stacks of
    elements, coordinate-major: its stack shape is the operands' broadcast one.
    Each level writes its columns with out=."""
    shape = np.broadcast_shapes(*(x.shape[:-1] for x in operands))
    return np.empty(shape + (dim,), order="F")


def _combination(terms, a: np.ndarray) -> np.ndarray | None:
    """sum_j m a[..., j] over the (j, m) of terms with m nonzero, accumulated
    in order with no multiplication by 1; None if there is no such term."""
    acc = None
    for j, mij in terms:
        if mij != 0.0:
            term = a[..., j] if mij == 1.0 else mij * a[..., j]
            acc = term if acc is None else acc + term
    return acc


def _scaling(row, a: np.ndarray, memo: dict) -> np.ndarray | None:
    """e^{...} of a row's _combination over a, once per memo; None for a zero row."""
    if row not in memo:
        acc = _combination(row, a)
        memo[row] = None if acc is None else np.exp(acc)
    return memo[row]


def _matvec(matrix: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-by-row application, accumulating nonzero terms in column order.

    Matches the operation order of the law implementations bit for bit, so
    witnesses like the shear maps reproduce the exponent arguments exactly
    instead of differing by an ulp that e^24 then amplifies. No value depends
    on the memory layout of `a`.
    """
    out = np.empty(a.shape[:-1] + (matrix.shape[0],), order="F")
    for i, row in enumerate(matrix):
        acc = _combination(enumerate(row), a)
        out[..., i] = 0.0 if acc is None else acc
    return out


class GroupLaw:
    """Base for all chart group laws. Subclasses are immutable dataclasses
    whose fields are the law's parameters; `family` names them in descriptors.
    Every law is a _Tower, which gives it dim, mul, inv and brackets()."""

    family: str

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def descriptor(self) -> dict:
        params = {}
        for f in fields(self):
            value = getattr(self, f.name)
            params[f.name] = value.descriptor() if isinstance(value, GroupLaw) else value
        return {"family": self.family, "params": params, "dim": self.dim}


class _Level(NamedTuple):
    """The law columns a level writes; one exponent row per column, the (law
    column, coefficient) pairs of its nonzero entries; the base columns its
    cocycle reads; and the cocycle: None, functools.partial(formula, p) for a
    named one (_NAMED), or any 2-cochain, which returns the whole block."""

    cols: slice
    exponents: tuple[tuple[tuple[int, float], ...], ...]
    base: slice = slice(0, 0)
    cocycle: Callable | None = None


def _moved(level: _Level, k: int) -> _Level:
    """The level with every column it writes or reads k columns further on."""
    rows = tuple(tuple((j + k, x) for j, x in row) for row in level.exponents)
    return _Level(slice(level.cols.start + k, level.cols.stop + k), rows,
                  slice(level.base.start + k, level.base.stop + k), level.cocycle)


class _Tower(GroupLaw):
    """A law run as its levels, bottom up: _levels() builds them from the
    law's fields once, when the law is made, and dim, mul, inv and the
    bracket table are written once, here."""

    def __post_init__(self):
        # the laws a law is made of are made first, so no law's levels are
        # built recursively, however deep a product nests
        object.__setattr__(self, "levels", self._levels())

    @functools.cached_property
    def dim(self) -> int:
        return sum(level.cols.stop - level.cols.start for level in self.levels)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out, memo = _result(self.dim, a, b), {}
        for cols, rows, base, cocycle in self.levels:
            m1, m2, m = a[..., cols], b[..., cols], out[..., cols]
            if cocycle is None and not any(rows):
                np.add(m1, m2, out=m)
                continue
            f = None if cocycle is None else cocycle(a[..., base], b[..., base])
            for r, row in enumerate(rows):
                s, col = _scaling(row, a, memo), m[..., r]
                np.add(m1[..., r], m2[..., r] if s is None else np.multiply(s, m2[..., r], out=col),
                       out=col)
                if f is not None:
                    np.add(col, f[..., r], out=col)
        return out

    def inv(self, a: np.ndarray) -> np.ndarray:
        # each level's g^-1 is the columns below it, already written; m is
        # negated first: it keeps t_k's x' = +0.0 where x = k y z exactly
        out, memo = _result(self.dim, a), {}
        for cols, rows, base, cocycle in self.levels:
            m = out[..., cols]
            np.negative(a[..., cols], out=m)
            f = None if cocycle is None else _on_inverses(cocycle, a[..., base], out[..., base])
            for r, row in enumerate(rows):
                s, col = _scaling(row, out, memo), m[..., r]
                if f is not None:
                    np.subtract(col, f[..., r], out=col)
                if s is not None:
                    np.multiply(s, col, out=col)
        return out

    def brackets(self) -> dict | None:
        """The Lie bracket in closed form, {(k, i, j): b} for [e_i, e_j] = b e_k + ...,
        one entry per antisymmetric pair and no zeros; None if a level's
        cocycle is not a named one. Read top down: each level's action part
        [e_j, e_m] = C[m][j] e_m, then its named cocycle's bracket part."""
        table = {}
        for cols, rows, base, f in reversed(self.levels):
            named = None if f is None else _NAMED.get(getattr(f, "func", None))
            if f is not None and named is None:
                return None
            table.update(((m, j, m), x) for m, row in enumerate(rows, cols.start) for j, x in row)
            if named is not None:
                (i, j, b), _ = named
                table[cols.start, base.start + i, base.start + j] = b * f.args[0]
        return {key: float(b) for key, b in table.items() if b != 0.0}


@dataclass(frozen=True)
class Additive(_Tower):
    family = "additive"
    n: int = 1

    def __post_init__(self):
        # a membership test, so 2.0 is 2 and 2.5 is rejected
        if self.n not in (1, 2, 3):
            raise InputError(f"additive charts cover the dimensions 1, 2 and 3, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        super().__post_init__()

    def _levels(self):
        return (_Level(slice(0, self.n), ((),) * self.n),)


@dataclass(frozen=True)
class GModule:
    """The additive chart N = Additive(len(exponents)), acted on by H: g scales
    module coordinate m by e^{(C g)_m}, C = exponents, one row per module
    coordinate and one column per coordinate of H. C is also the action's
    part of the bracket table, [e_{h_j}, e_{n_m}] = C[m][j] e_{n_m}."""

    H: GroupLaw
    exponents: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(c) for c in row) for row in self.exponents)
        object.__setattr__(self, "exponents", rows)
        # a finite exponent gives a positive scaling, which preserves every
        # lexicographic order of the module; Additive caps the module at 3
        if not (1 <= len(rows) <= 3 and all(len(row) == self.H.dim for row in rows)
                and np.all(np.isfinite(rows))):
            raise InputError("module exponents must be finite and form a matrix of 1 to 3 "
                             f"rows of {self.H.dim} columns, one per acting coordinate, "
                             f"got {rows}")

    @property
    def N(self) -> Additive:
        return Additive(len(self.exponents))

    def scalings(self, g: np.ndarray) -> Iterator[np.ndarray | None]:
        """e^{(C g)_m} for each module coordinate m in turn, its exponent
        summed by _combination as a level sums it; None for a zero row."""
        for row in self.exponents:
            acc = _combination(enumerate(row), g)
            yield None if acc is None else np.exp(acc)


def _extension(module: GModule, module_first: bool, cocycle: Callable | None = None):
    """The levels of one extension step (module docstring): the levels of
    the module's H, moved to the base columns, then the module block's."""
    p, n = len(module.exponents), module.H.dim
    k, m = (p, 0) if module_first else (0, n)
    rows = tuple(tuple((k + j, x) for j, x in enumerate(row) if x != 0.0)
                 for row in module.exponents)
    return (*(_moved(level, k) for level in module.H.levels),
            _Level(slice(m, m + p), rows, slice(k, k + n), cocycle))


def heis_module() -> GModule:
    """The trivial line over the plane: the module of the heis and sut3 cocycles."""
    return GModule(Additive(2), ((0.0, 0.0),))


def g3_module() -> GModule:
    """The line over the affine chart (y, z), scaled by e^{z}: the module of g3."""
    return GModule(SemidirectRR(1.0), ((0.0, 1.0),))


def _heis(c, g, h):
    """The determinant 2-cocycle on the plane: c (x1 y2 - y1 x2)."""
    return (c * (g[..., 0] * h[..., 1] - g[..., 1] * h[..., 0]))[..., None]


def _g3(k, g, h):
    """The nonsplit 2-cocycle on the affine chart (y, z): k y2 z1 e^{z1}."""
    return (k * h[..., 0] * g[..., 1] * np.exp(g[..., 1]))[..., None]


def _sut3(_, g, h):
    """The unitriangular 2-cocycle on the plane: x1 y2, for the parameter 1."""
    return (g[..., 0] * h[..., 1])[..., None]


# each named 2-cocycle f = functools.partial(formula, p), by its formula: its
# bracket part (i, j, b), [e_i, e_j] = b p e_m on the base coordinates, and
# its value f(g, g^-1) in closed form as a function of (p, g), None where it
# is exactly 0
_NAMED = {
    # c (x (-y) - y (-x)) is exactly 0, though its products may overflow
    _heis: ((0, 1, 2.0), None),
    # k (-y e^{-z}) z e^{z}, whose e^{-z} e^{z} may overflow or underflow
    _g3: ((1, 0, 1.0), lambda k, g: (-(k * g[..., 0]) * g[..., 1])[..., None]),
    # x (-y)
    _sut3: ((0, 1, 1.0), lambda _, g: (-g[..., 0] * g[..., 1])[..., None]),
}


def _on_inverses(f: Callable, g: np.ndarray, ginv: np.ndarray) -> np.ndarray | None:
    """f(g, g^-1): a named cocycle's closed form (_NAMED), any other cochain
    evaluated; None where f is exactly 0."""
    named = _NAMED.get(getattr(f, "func", None))
    if named is None:
        return f(g, ginv)
    _, value = named
    return None if value is None else value(f.args[0], g)


@dataclass(frozen=True)
class SemidirectRR(_Tower):
    family = "semidirect_rr"
    c: float = 1.0

    def _levels(self):
        return _extension(GModule(Additive(1), ((self.c,),)), True)


@dataclass(frozen=True)
class Ec(_Tower):
    family = "e_c"
    c: float

    def _levels(self):
        return _extension(heis_module(), False, functools.partial(_heis, self.c))


def heisenberg() -> Ec:
    """The Heisenberg chart: Ec with the half-determinant cocycle."""
    return Ec(0.5)


@dataclass(frozen=True)
class SUT3(_Tower):
    family = "sut3"

    def _levels(self):
        return _extension(heis_module(), False, functools.partial(_sut3, 1.0))


@dataclass(frozen=True)
class GCd(_Tower):
    family = "g_cd"
    c: float
    d: float

    def _levels(self):
        return _extension(GModule(Additive(2), ((self.c, self.d),)), False)


@dataclass(frozen=True)
class KCd(_Tower):
    family = "k_cd"
    c: float
    d: float

    def _levels(self):
        return _extension(GModule(Additive(1), ((self.c,), (self.d,))), False)


@dataclass(frozen=True)
class Tk(_Tower):
    family = "t_k"
    k: float

    def _levels(self):
        return _extension(g3_module(), True, functools.partial(_g3, self.k))


@dataclass(frozen=True)
class Product(_Tower):
    family = "product"
    a: GroupLaw
    b: GroupLaw

    def _levels(self):
        # b's levels below a's, so that the table, read top down, lists a's
        # entries first
        return (*(_moved(level, self.a.dim) for level in self.b.levels), *self.a.levels)


# ---------------------------------------------------------------------------
# element-level operations


def multiply(law: GroupLaw, a, b) -> np.ndarray:
    a = as_coords(a, law.dim)
    b = as_coords(b, law.dim)
    return law.mul(a, b)


def invert(law: GroupLaw, a) -> np.ndarray:
    a = as_coords(a, law.dim)
    return law.inv(a)


def conjugate(law: GroupLaw, g, h) -> np.ndarray:
    """g * h * g^-1."""
    g = as_coords(g, law.dim)
    h = as_coords(h, law.dim)
    return law.mul(law.mul(g, h), law.inv(g))


def commutator(law: GroupLaw, g, h) -> np.ndarray:
    """g * h * g^-1 * h^-1."""
    g = as_coords(g, law.dim)
    h = as_coords(h, law.dim)
    return law.mul(law.mul(law.mul(g, h), law.inv(g)), law.inv(h))


def _shear(a, s: float) -> np.ndarray:
    """(x, y, z) -> (x, y, z + s x y), the chart changes between SUT3 and Heisenberg."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 3:
        raise InputError("chart change needs 3 coordinates")
    x, y, z = a[..., 0], a[..., 1], a[..., 2]
    out = _result(3, a)
    out[..., :2] = a[..., :2]
    np.add(z, s * x * y, out=out[..., 2])
    return out


def sut3_to_heis(a) -> np.ndarray:
    """Chart change transporting the unitriangular law to the Heisenberg law."""
    return _shear(a, -0.5)


def heis_to_sut3(a) -> np.ndarray:
    return _shear(a, 0.5)


def one_param_through(law: KCd, g, w) -> np.ndarray:
    """One-parameter subgroup through g in a KCd chart, evaluated at w.

    Interpolates exponentially along the acting coordinate and linearly when a
    channel's exponent vanishes (in particular when g has acting coordinate 0).
    h(0) = identity, h(1) = g, and h(w + w') = h(w) * h(w').
    """
    if not isinstance(law, KCd):
        raise InputError("one_param_through is defined on KCd charts")
    g = _element(g, 3)
    w = np.asarray(w, dtype=float)
    t, u, v = g[0], g[1], g[2]

    def coef(exponent):
        # exponent 0 is the straight-line branch; expm1 keeps small exponents stable
        if exponent == 0.0:
            return w
        return np.expm1(exponent * w) / np.expm1(exponent)

    out = np.empty(w.shape + (3,), order="F")
    np.multiply(w, t, out=out[..., 0])
    np.multiply(coef(law.c * t), u, out=out[..., 1])
    np.multiply(coef(law.d * t), v, out=out[..., 2])
    return out


# ---------------------------------------------------------------------------
# axiom verification


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    associativity: float
    identity: float
    inverse: float
    overflow: bool = False

    def to_dict(self):
        return {
            "passed": self.passed,
            "max_associativity_residual": self.associativity,
            "max_identity_residual": self.identity,
            "max_inverse_residual": self.inverse,
            "overflow": self.overflow,
        }


def _axiom_claims(law: GroupLaw, x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """(claim, u, v) on one block of rows: claim 0 associativity, 1 identity,
    2 inverses, each asserting u = v row by row. Yielded one at a time so only
    one claim's products are alive at once."""
    e = law.identity()
    yield 0, law.mul(law.mul(x, y), z), law.mul(x, law.mul(y, z))
    yield 1, law.mul(x, e), x
    yield 1, law.mul(e, x), x
    xinv = law.inv(x)
    yield 2, law.mul(x, xinv), 0.0
    yield 2, law.mul(xinv, x), 0.0


def check_group_axioms(
    law: GroupLaw, cfg: SampleConfig = SampleConfig(), tol: Tolerance = DEFAULT_TOL
) -> AxiomReport:
    """Sampled residuals for associativity, identity and inverses.

    Residuals are policy-normalized gaps |u - v| / (1 + max(|u|, |v|)), which
    matter because the exponential laws reach magnitudes ~e^24 on
    associativity triples; the report passes when every sampled coordinate
    satisfies |u - v| <= abs_tol + rel_tol * max(|u|, |v|). A non-finite
    product is reported as overflow, with residual inf on each claim whose
    gap is not finite.
    """
    def block(rows, a, b, c):
        resid, close = np.full(3, -np.inf), True
        for claim, u, v in _axiom_claims(law, a, b, c):
            gap, ok = tol.residual(u, v)
            resid[claim] = np.maximum(resid[claim], gap)
            close = close and ok
        return resid, close

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        blocks = cfg.map_blocks(law.dim, (1, 2, 3), block)
    resid = functools.reduce(np.maximum, (resid for resid, _ in blocks))
    close = all(close for _, close in blocks)
    # a NaN gap is a non-finite u or v (Tolerance.residual), whose raw gap is
    # not finite either, so such a row has already failed
    overflow = bool(np.isnan(resid).any())
    if overflow:
        resid[np.isnan(resid)] = np.inf
    return AxiomReport(close, *(float(r) for r in resid), overflow=overflow)
