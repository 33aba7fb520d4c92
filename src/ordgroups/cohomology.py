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

from .actions import ExpAction, act, affine_on_semidirect, scale_factors, trivial
from .errors import DomainError, InputError
from .groups import Additive, GroupLaw, SemidirectRR, _result
from .orders import LexOrder, OrderedGroupSpec, SampledPairs
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

    def __call__(self, *args: np.ndarray) -> np.ndarray:
        if len(args) != self.degree:
            raise InputError(f"degree-{self.degree} cochain takes {self.degree} arguments")
        return self.fn(*args)


def constant_cochain(module: GModule, value) -> Cochain:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.shape != (module.N.dim,):
        raise InputError("constant must be a module element")
    return Cochain(degree=0, fn=lambda: v, module=module)


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
    f: Cochain, cfg: SampleConfig, streams, tol: Tolerance = DEFAULT_TOL,
    target: Cochain | None = None
) -> CoboundaryReport:
    """Whether df - target (df when target is None) vanishes on cfg's draws
    from streams, one stream per argument of df, drawn one row block at a
    time. The residual is the largest raw |df - target|; each coordinate
    passes on the tolerance rule against the largest |term| of the sum in its
    row."""
    df = coboundary(f)
    worst, passed = -np.inf, True
    for gs in cfg.sample_blocks(f.module.H.dim, streams):
        terms = df.terms(*gs) + ([] if target is None else [-target.fn(*gs)])
        gap, ok = tol.verdict(np.abs(functools.reduce(np.add, terms)), terms)
        worst, passed = np.maximum(worst, gap), passed and ok
    return CoboundaryReport(passed=passed, residual=float(worst))


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


def verify_coboundary_witness(
    f: Cochain, g: Cochain, cfg: SampleConfig = SampleConfig(), tol: Tolerance = DEFAULT_TOL
) -> CoboundaryReport:
    """Check that the degree-1 cochain g satisfies dg = f on sampled pairs."""
    if f.degree != 2 or g.degree != 1:
        raise InputError("witness check takes a degree-2 cochain and a degree-1 cochain")
    if f.module != g.module:
        raise InputError("cochains live over different modules")
    return check_coboundary(g, cfg, (41, 42), tol, f)


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


def ordered_extension(
    module: GModule,
    order_h: LexOrder,
    order_n: LexOrder,
    f: Cochain,
    cfg: SampleConfig = SampleConfig(),
    tol: Tolerance = DEFAULT_TOL,
) -> OrderedGroupSpec:
    """Extension law ordered lexicographically, quotient chart most significant.

    Requires the action to preserve the module order; exponential scalings are
    positive, which is verified on samples rather than assumed.
    """
    if order_h.dim != module.H.dim or order_n.dim != module.N.dim:
        raise InputError("orders do not match module chart dimensions")
    if not _action_order_preserving(module, order_n, cfg):
        raise DomainError("action does not preserve the module order")
    law = extension_from_cocycle(module, f, cfg, tol)
    k = module.N.dim
    significance = tuple(k + i for i in order_h.significance) + tuple(
        order_n.significance
    )
    return OrderedGroupSpec(law=law, order=LexOrder(significance))


def _action_order_preserving(module: GModule, order_n: LexOrder, cfg: SampleConfig) -> bool:
    n = min(cfg.count, 256)
    factors = scale_factors(module.gamma, cfg.sample(module.H.dim, stream=51, count=n))
    if np.any(factors <= 0):
        return False
    pairs = SampledPairs(order_n, 1, n,
                         functools.partial(cfg.sample_blocks, module.N.dim, (52, 53), n))
    _, (hit,) = pairs.scan((order_n, lambda _, block: (
        factors[block.rows] * block.a, factors[block.rows] * block.b)))
    return hit is None
