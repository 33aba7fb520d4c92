"""Cochain calculus and group extensions built from 2-cocycles.

A degree-n cochain is a function from n-tuples of acting-chart elements to
module elements. The coboundary of an n-cochain f is

    (df)(g1, ..., g_{n+1}) = e^{C g1} f(g2, ..., g_{n+1})
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

from .actions import act
from .errors import DomainError, InputError
from .groups import GModule, _extension, _g3, _heis, _Tower, g3_module, heis_module
from .tolerance import DEFAULT_TOL, SampleConfig, Tolerance


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
    return Cochain(degree=2, fn=functools.partial(_heis, c), module=heis_module(),
                   descriptor={"cocycle": "heis", "c": float(c)})


def g3_cocycle(k: float) -> Cochain:
    """The nonsplit 2-cocycle on the affine chart: k * y2 z1 e^{z1}."""
    return Cochain(degree=2, fn=functools.partial(_g3, k), module=g3_module(),
                   descriptor={"cocycle": "g3", "k": float(k)})


def coboundary(f: Cochain) -> Cochain:
    """The degree-raising coboundary of a cochain, evaluated pointwise."""
    module, n = f.module, f.degree

    def terms(*gs):
        out = [act(module, gs[0], f.fn(*gs[1:]))]
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
    largest |term| of the sum in its row. A row whose sum is not finite, a
    term or the sum having overflowed, decides nothing: a DomainError names
    the first such row's operands."""
    df = coboundary(f)

    def block(rows, *gs):
        terms = df.terms(*gs)
        total = functools.reduce(np.add, terms)
        overflow = np.flatnonzero(~np.isfinite(total).all(axis=-1))
        if overflow.size:
            i = overflow[0]
            raise DomainError(f"the coboundary overflows at sample row {rows.start + i}, operands "
                              f"{[g[i].tolist() for g in gs]}: whether it vanishes is not known")
        return tol.verdict(np.abs(total), terms)

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


@dataclass(frozen=True)
class CocycleLaw(_Tower):
    """Extension law on module-first coordinates (N..., H...) built from a
    2-cocycle over its module; its bracket table is None unless the cocycle
    is a named one."""

    family = "from_cocycle"
    cochain: Cochain

    def _levels(self):
        return _extension(self.cochain.module, True, self.cochain.fn)

    def descriptor(self):
        params = dict(self.cochain.descriptor or {})
        return {"family": self.family, "params": params, "dim": self.dim}


def extension_from_cocycle(
    f: Cochain,
    cfg: SampleConfig = SampleConfig(),
    tol: Tolerance = DEFAULT_TOL,
) -> CocycleLaw:
    """Build the extension group law (a, g)(b, h) = (a + e^{C g} b + f(g, h), g h)
    over f's module.

    Rejects cochains with f(e, e) != 0, whose law would not have (0, e) as its
    identity, and cochains whose coboundary does not vanish on samples, since
    the resulting law would not be associative.
    """
    if f.degree != 2:
        raise InputError("extensions are built from degree-2 cochains")
    e = f.module.H.identity()
    if np.any(f.fn(e, e) != 0.0):
        raise DomainError("cochain does not vanish at (e, e); the extension's identity "
                          "would not be (0, e)")
    rep = check_cocycle(f, cfg, tol)
    if not rep.passed:
        raise DomainError(
            f"cochain is not a cocycle (residual {rep.residual:.3g}); extension would "
            "not be associative"
        )
    return CocycleLaw(f)
