"""Exponential actions on abelian chart groups.

An action is its exponent matrix C, one row per module coordinate and one
column per acting coordinate: g scales module coordinate m by e^{(C g)_m}.
C is also the action's part of the bracket table, [e_{h_j}, e_{n_m}] =
C[m][j] e_{n_m}. The extension base of the chart laws (groups._Extension)
computes the same e^{C g}, each exponent summed in the same order. The
constructors:

  character(c1, ..., cn)     ((c1, ..., cn),)  g acts on scalars by e^{c . g}
  diagonal(c, d)             ((c,), (d,))      scalar t acts on the plane by (e^{c t} u, e^{d t} v)
  affine_on_semidirect(c)    ((0, c),)         (x, y) in a semidirect chart acts on scalars by e^{c y}
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .groups import _matvec


@dataclass(frozen=True)
class ExpAction:
    exponents: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(c) for c in row) for row in self.exponents)
        object.__setattr__(self, "exponents", rows)
        # a finite exponent gives a positive scaling, which preserves every
        # lexicographic order of the module
        widths = {len(row) for row in rows}
        if len(widths) != 1 or 0 in widths or not np.all(np.isfinite(rows)):
            raise InputError("action exponents must be finite and form a non-empty "
                             f"rectangular matrix, got {rows}")

    @property
    def acting_dim(self) -> int:
        return len(self.exponents[0])

    @property
    def module_dim(self) -> int:
        return len(self.exponents)


def character(*coeffs: float) -> ExpAction:
    return ExpAction((coeffs,))


def trivial(acting_dim: int) -> ExpAction:
    return ExpAction(((0.0,) * acting_dim,))


def diagonal(c: float, d: float) -> ExpAction:
    return ExpAction(((c,), (d,)))


def affine_on_semidirect(c: float) -> ExpAction:
    return ExpAction(((0.0, c),))


def scale_factors(action: ExpAction, g: np.ndarray) -> np.ndarray:
    """Per-module-coordinate positive scalings applied by g; shape (..., module_dim)."""
    g = np.asarray(g, dtype=float)
    if g.shape[-1] != action.acting_dim:
        raise InputError(
            f"acting element has {g.shape[-1]} coordinates, action expects {action.acting_dim}"
        )
    out = _matvec(np.asarray(action.exponents), g)
    return np.exp(out, out=out)


def act(action: ExpAction, g, n) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    n = np.asarray(n, dtype=float)
    if n.shape[-1] != action.module_dim:
        raise InputError(
            f"module element has {n.shape[-1]} coordinates, action expects {action.module_dim}"
        )
    return scale_factors(action, g) * n
