"""Closed-form group laws on coordinate charts of dimension 1 to 3.

Every law acts on flat coordinate vectors; the chart conventions are:

  Additive(n)        (x...)        coordinatewise addition
  SemidirectRR(c)    (x, y)        x normal, y acting:  (x1 + e^{c y1} x2, y1 + y2)
  Ec(c)              (x, y, z)     z central:  z1 + z2 + c (x1 y2 - y1 x2)
  SUT3               (x, y, z)     unitriangular 3x3 chart:  z1 + z2 + x1 y2
  GCd(c, d)          (x, y, z)     z1 + e^{c x1 + d y1} z2
  KCd(c, d)          (x, y, z)     x acting:  (y1 + e^{c x1} y2, z1 + e^{d x1} z2)
  Tk(k)              (x, y, z)     x1 + x2 e^{z1} + k y2 z1 e^{z1}, y1 + y2 e^{z1}, z1 + z2
  Product(a, b)      concatenated charts

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
    Each coordinate's last operation writes into its column with out=, so no
    column is computed into a temporary and copied."""
    shape = np.broadcast_shapes(*(x.shape[:-1] for x in operands))
    return np.empty(shape + (dim,), order="F")


def _nonzero(table: dict) -> dict:
    """A bracket table without its zeros, its entries as Python floats."""
    return {key: float(b) for key, b in table.items() if b != 0.0}


def _matvec(matrix: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-by-row application, accumulating nonzero terms in column order.

    Matches the operation order of the law implementations bit for bit, so
    witnesses like the shear maps reproduce the exponent arguments exactly
    instead of differing by an ulp that e^24 then amplifies. No value depends
    on the memory layout of `a`.
    """
    out = np.empty(a.shape[:-1] + (matrix.shape[0],), order="F")
    for i in range(matrix.shape[0]):
        acc = None
        for j in range(matrix.shape[1]):
            mij = matrix[i, j]
            if mij != 0.0:
                term = a[..., j] if mij == 1.0 else mij * a[..., j]
                acc = term if acc is None else acc + term
        out[..., i] = 0.0 if acc is None else acc
    return out


class GroupLaw:
    """Base for all chart group laws. Subclasses are immutable dataclasses
    whose fields are the law's parameters; `family` names them in descriptors."""

    family: str

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inv(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def brackets(self) -> dict | None:
        """The Lie bracket in closed form, {(k, i, j): b} for [e_i, e_j] = b e_k + ...,
        one entry per antisymmetric pair and no zeros; None if the law declares none."""
        return None

    def descriptor(self) -> dict:
        params = {}
        for f in fields(self):
            value = getattr(self, f.name)
            params[f.name] = value.descriptor() if isinstance(value, GroupLaw) else value
        return {"family": self.family, "params": params, "dim": self.dim}


@dataclass(frozen=True)
class Additive(GroupLaw):
    family = "additive"
    n: int = 1

    def __post_init__(self):
        # a membership test, so 2.0 is 2 and 2.5 is rejected
        if self.n not in (1, 2, 3):
            raise InputError(f"additive charts cover the dimensions 1, 2 and 3, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def dim(self):
        return self.n

    def brackets(self):
        return {}

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a


@dataclass(frozen=True)
class SemidirectRR(GroupLaw):
    family = "semidirect_rr"
    dim = 2
    c: float = 1.0

    def brackets(self):
        return _nonzero({(0, 1, 0): self.c})

    def mul(self, a, b):
        x1, y1 = a[..., 0], a[..., 1]
        x2, y2 = b[..., 0], b[..., 1]
        out = _result(2, a, b)
        np.add(x1, np.exp(self.c * y1) * x2, out=out[..., 0])
        np.add(y1, y2, out=out[..., 1])
        return out

    def inv(self, a):
        x, y = a[..., 0], a[..., 1]
        out = _result(2, a)
        np.multiply(-np.exp(-self.c * y), x, out=out[..., 0])
        np.negative(y, out=out[..., 1])
        return out


@dataclass(frozen=True)
class Ec(GroupLaw):
    family = "e_c"
    dim = 3
    c: float

    def brackets(self):
        return _nonzero({(2, 0, 1): 2 * self.c})

    def mul(self, a, b):
        x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2]
        x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2]
        out = _result(3, a, b)
        np.add(a[..., :2], b[..., :2], out=out[..., :2])
        np.add(z1 + z2, self.c * (x1 * y2 - y1 * x2), out=out[..., 2])
        return out

    def inv(self, a):
        # the central correction vanishes: det of (v, -v) rows is 0
        return -a


def heisenberg() -> Ec:
    """The Heisenberg chart: Ec with the half-determinant cocycle."""
    return Ec(0.5)


@dataclass(frozen=True)
class SUT3(GroupLaw):
    family = "sut3"
    dim = 3

    def brackets(self):
        return {(2, 0, 1): 1.0}

    def mul(self, a, b):
        x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2]
        x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2]
        out = _result(3, a, b)
        np.add(a[..., :2], b[..., :2], out=out[..., :2])
        np.add(z1 + z2, x1 * y2, out=out[..., 2])
        return out

    def inv(self, a):
        x, y, z = a[..., 0], a[..., 1], a[..., 2]
        out = _result(3, a)
        np.negative(a[..., :2], out=out[..., :2])
        np.subtract(x * y, z, out=out[..., 2])
        return out


@dataclass(frozen=True)
class GCd(GroupLaw):
    family = "g_cd"
    dim = 3
    c: float
    d: float

    def brackets(self):
        return _nonzero({(2, 0, 2): self.c, (2, 1, 2): self.d})

    def mul(self, a, b):
        x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2]
        x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2]
        s = np.exp(self.c * x1 + self.d * y1)
        out = _result(3, a, b)
        np.add(a[..., :2], b[..., :2], out=out[..., :2])
        np.add(z1, s * z2, out=out[..., 2])
        return out

    def inv(self, a):
        x, y, z = a[..., 0], a[..., 1], a[..., 2]
        out = _result(3, a)
        np.negative(a[..., :2], out=out[..., :2])
        np.multiply(-np.exp(-(self.c * x + self.d * y)), z, out=out[..., 2])
        return out


@dataclass(frozen=True)
class KCd(GroupLaw):
    family = "k_cd"
    dim = 3
    c: float
    d: float

    def brackets(self):
        return _nonzero({(1, 0, 1): self.c, (2, 0, 2): self.d})

    def mul(self, a, b):
        x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2]
        x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2]
        out = _result(3, a, b)
        np.add(x1, x2, out=out[..., 0])
        np.add(y1, np.exp(self.c * x1) * y2, out=out[..., 1])
        np.add(z1, np.exp(self.d * x1) * z2, out=out[..., 2])
        return out

    def inv(self, a):
        x, y, z = a[..., 0], a[..., 1], a[..., 2]
        out = _result(3, a)
        np.negative(x, out=out[..., 0])
        np.multiply(-np.exp(-self.c * x), y, out=out[..., 1])
        np.multiply(-np.exp(-self.d * x), z, out=out[..., 2])
        return out


@dataclass(frozen=True)
class Tk(GroupLaw):
    family = "t_k"
    dim = 3
    k: float

    def brackets(self):
        return _nonzero({(0, 2, 0): 1.0, (0, 2, 1): self.k, (1, 2, 1): 1.0})

    def mul(self, a, b):
        x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2]
        x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2]
        e = np.exp(z1)
        out = _result(3, a, b)
        np.add(x1 + x2 * e, self.k * y2 * z1 * e, out=out[..., 0])
        np.add(y1, y2 * e, out=out[..., 1])
        np.add(z1, z2, out=out[..., 2])
        return out

    def inv(self, a):
        x, y, z = a[..., 0], a[..., 1], a[..., 2]
        e = np.exp(-z)
        out = _result(3, a)
        np.multiply(e, self.k * y * z - x, out=out[..., 0])
        np.multiply(-y, e, out=out[..., 1])
        np.negative(z, out=out[..., 2])
        return out


@dataclass(frozen=True)
class Product(GroupLaw):
    family = "product"
    a: GroupLaw
    b: GroupLaw

    @property
    def dim(self):
        return self.a.dim + self.b.dim

    def brackets(self):
        ta, tb, k = self.a.brackets(), self.b.brackets(), self.a.dim
        if ta is None or tb is None:
            return None
        return {**ta, **{(x + k, i + k, j + k): b for (x, i, j), b in tb.items()}}

    def mul(self, u, v):
        k = self.a.dim
        out = _result(self.dim, u, v)
        out[..., :k] = self.a.mul(u[..., :k], v[..., :k])
        out[..., k:] = self.b.mul(u[..., k:], v[..., k:])
        return out

    def inv(self, u):
        k = self.a.dim
        out = _result(self.dim, u)
        out[..., :k] = self.a.inv(u[..., :k])
        out[..., k:] = self.b.inv(u[..., k:])
        return out


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
