"""Cochain calculus and group extensions built from 2-cocycles.

A degree-n cochain is a function from n-tuples of acting-chart elements to
module elements. The coboundary of an n-cochain f is

    (df)(g1, ..., g_{n+1}) = gamma(g1) f(g2, ..., g_{n+1})
                             + sum_i (-1)^i f(g1, ..., g_i g_{i+1}, ..., g_{n+1})
                             + (-1)^{n+1} f(g1, ..., gn)

Cochain callables must be pure and accept stacked arguments of shape
(..., dim H), returning (..., dim N).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .actions import ExpAction, act, affine_on_semidirect, trivial
from .errors import DomainError, InputError
from .groups import Additive, GroupLaw, SemidirectRR, _result
from .tolerance import DEFAULT_TOL, SampleConfig, Tolerance


@dataclass(frozen=True)
class GModule:
    """An abelian chart group N acted on exponentially by a chart group H."""

    H: GroupLaw
    N: Additive
    gamma: ExpAction

    def __post_init__(self):
        if not isinstance(self.N, Additive):
            raise InputError("module part must be an additive law")
        if self.gamma.acting_dim != self.H.dim:
            raise InputError("action acting-chart dimension does not match H")
        if self.gamma.module_dim != self.N.dim:
            raise InputError("action module dimension does not match N")

    def act(self, g: np.ndarray, n: np.ndarray) -> np.ndarray:
        return act(self.gamma, g, n)


def heis_module() -> GModule:
    return GModule(H=Additive(2), N=Additive(1), gamma=trivial(2))


def g3_module(c: float = 1.0) -> GModule:
    return GModule(H=SemidirectRR(1.0), N=Additive(1), gamma=affine_on_semidirect(c))


@dataclass(frozen=True)
class Cochain:
    """A degree-n cochain; a named one carries its descriptor, e.g.
    {"cocycle": "heis", "c": 0.5}, which its extension law reports, and a
    coboundary its terms: the list of signed summands of fn, in fn's order."""

    degree: int
    fn: Callable
    module: GModule
    # left out of eq and hash: a dict would make the cochain unhashable
    descriptor: dict | None = field(default=None, compare=False)
    terms: Callable | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise InputError("cochain degree must be >= 0")


def heis_cocycle(c: float) -> Cochain:
    """The determinant 2-cocycle on the abelian plane: c * (x1 y2 - y1 x2)."""

    def fn(g, h):
        return (c * (g[..., 0] * h[..., 1] - g[..., 1] * h[..., 0]))[..., None]

    return Cochain(degree=2, fn=fn, module=heis_module(),
                   descriptor={"cocycle": "heis", "c": float(c)})


def g3_cocycle(k: float) -> Cochain:
    """The nonsplit 2-cocycle on the affine chart: k * y2 z1 e^{z1}."""

    def fn(g, h):
        return (k * h[..., 0] * g[..., 1] * np.exp(g[..., 1]))[..., None]

    return Cochain(degree=2, fn=fn, module=g3_module(1.0),
                   descriptor={"cocycle": "g3", "k": float(k)})


def coboundary(f: Cochain) -> Cochain:
    """The degree-raising coboundary of a cochain, evaluated pointwise."""
    module, n = f.module, f.degree

    def terms(*gs):
        if n == 0:
            m = f.fn()
            return [module.act(gs[0], m), -m]
        out = [module.act(gs[0], f.fn(*gs[1:]))]
        for i in range(1, n + 1):
            merged = gs[: i - 1] + (module.H.mul(gs[i - 1], gs[i]),) + gs[i + 1:]
            out.append((-1.0) ** i * f.fn(*merged))
        return out + [(-1.0) ** (n + 1) * f.fn(*gs[:-1])]

    return Cochain(degree=n + 1, module=module, terms=terms,
                   fn=lambda *gs: functools.reduce(np.add, terms(*gs)))


@dataclass(frozen=True)
class CoboundaryReport:
    passed: bool
    residual: float

    def to_dict(self):
        return {"passed": self.passed, "max_residual": self.residual}


def check_coboundary(
    f: Cochain, cfg: SampleConfig, streams, tol: Tolerance = DEFAULT_TOL
) -> CoboundaryReport:
    """Whether df vanishes on cfg's draws from streams, one stream per
    argument of df, drawn one row block at a time. The residual is the
    largest raw |df|; each coordinate passes on the tolerance rule against the
    largest |term| of the sum in its row."""
    df = coboundary(f)

    def block(rows, *gs):
        terms = df.terms(*gs)
        return tol.verdict(np.abs(functools.reduce(np.add, terms)), terms)

    blocks = cfg.map_blocks(f.module.H.dim, streams, block)
    worst = functools.reduce(np.maximum, (gap for gap, _ in blocks), -np.inf)
    return CoboundaryReport(passed=all(ok for _, ok in blocks), residual=float(worst))


def check_cocycle(
    f: Cochain, cfg: SampleConfig = SampleConfig(), tol: Tolerance = DEFAULT_TOL
) -> CoboundaryReport:
    """Whether the degree-2 cochain f is a cocycle: df vanishes on sampled triples."""
    if f.degree != 2:
        raise InputError("cocycle residual is defined for degree-2 cochains")
    return check_coboundary(f, cfg, (31, 32, 33), tol)


def cocycle_residual(f: Cochain, cfg: SampleConfig = SampleConfig()) -> float:
    """Max norm of the coboundary of a degree-2 cochain over sampled triples."""
    return check_cocycle(f, cfg).residual


def normalize_cocycle(f: Cochain) -> Cochain:
    """Shift f by a constant coboundary so that f(e, e) = 0."""
    module = f.module
    e = module.H.identity()
    v = np.atleast_1d(f.fn(e, e))
    if np.all(v == 0.0):
        return f
    shift = coboundary(Cochain(degree=1, fn=lambda g: np.broadcast_to(
        v, g.shape[:-1] + (module.N.dim,)), module=module))

    def fn(g, h):
        return f.fn(g, h) - shift.fn(g, h)

    return Cochain(degree=2, fn=fn, module=module, descriptor=f.descriptor)


@dataclass(frozen=True)
class CocycleLaw(GroupLaw):
    """Extension law on module-first coordinates (N..., H...) built from a 2-cocycle."""

    family = "from_cocycle"
    module: GModule
    cochain: Cochain

    @property
    def dim(self):
        return self.module.N.dim + self.module.H.dim

    def _split(self, a):
        k = self.module.N.dim
        return a[..., :k], a[..., k:]

    def mul(self, a, b):
        m1, g1 = self._split(a)
        m2, g2 = self._split(b)
        k = self.module.N.dim
        out = _result(self.dim, a, b)
        np.add(m1 + self.module.act(g1, m2), self.cochain.fn(g1, g2), out=out[..., :k])
        out[..., k:] = self.module.H.mul(g1, g2)
        return out

    def inv(self, a):
        m, g = self._split(a)
        ginv = self.module.H.inv(g)
        corr = m + self.cochain.fn(g, ginv)
        k = self.module.N.dim
        out = _result(self.dim, a)
        np.negative(self.module.act(ginv, corr), out=out[..., :k])
        out[..., k:] = ginv
        return out

    def descriptor(self):
        params = dict(self.cochain.descriptor or {})
        return {"family": self.family, "params": params, "dim": self.dim}


def extension_from_cocycle(
    module: GModule,
    f: Cochain,
    cfg: SampleConfig = SampleConfig(),
    tol: Tolerance = DEFAULT_TOL,
) -> CocycleLaw:
    """Build the extension group law (a, g)(b, h) = (a + gamma(g) b + f(g, h), g h).

    Rejects cochains whose coboundary does not vanish on samples, since the
    resulting law would not be associative.
    """
    if f.degree != 2:
        raise InputError("extensions are built from degree-2 cochains")
    if f.module != module:
        raise InputError("cochain module does not match the extension module")
    f = normalize_cocycle(f)
    rep = check_cocycle(f, cfg, tol)
    if not rep.passed:
        raise DomainError(
            f"cochain is not a cocycle (residual {rep.residual:.3g}); extension would "
            "not be associative"
        )
    return CocycleLaw(module=module, cochain=f)
