"""G-modules: abelian chart groups acted on exponentially by a chart group.

A module is its acting law H and its exponent matrix C, one row per module
coordinate and one column per coordinate of H: g scales module coordinate m
by e^{(C g)_m}, and the module itself is the additive chart of len(C)
coordinates. C is also the action's part of the bracket table,
[e_{h_j}, e_{n_m}] = C[m][j] e_{n_m}. The extension base of the chart laws
(groups._Extension) computes the same e^{C g}, each exponent summed in the
same order. For example, ((0, 1),) over SemidirectRR(1) on (y, z) scales a
line by e^{z}, and ((c,), (d,)) over Additive(1) scales the plane by
(e^{c t}, e^{d t}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .groups import Additive, GroupLaw, _matvec


@dataclass(frozen=True)
class GModule:
    """The additive chart N = Additive(len(exponents)), acted on by H through e^{C g}."""

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

    def act(self, g: np.ndarray, n: np.ndarray) -> np.ndarray:
        return act(self, g, n)


def scale_factors(module: GModule, g: np.ndarray) -> np.ndarray:
    """Per-module-coordinate positive scalings applied by g; shape (..., N.dim)."""
    g = np.asarray(g, dtype=float)
    if g.shape[-1] != module.H.dim:
        raise InputError(
            f"acting element has {g.shape[-1]} coordinates, module expects {module.H.dim}"
        )
    out = _matvec(np.asarray(module.exponents), g)
    return np.exp(out, out=out)


def act(module: GModule, g, n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape[-1] != module.N.dim:
        raise InputError(
            f"module element has {n.shape[-1]} coordinates, module expects {module.N.dim}"
        )
    return scale_factors(module, g) * n
