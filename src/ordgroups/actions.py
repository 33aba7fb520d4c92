"""Exponential actions on abelian chart groups.

Three kinds cover everything in scope:

  character(c1, ..., cn)     g acts on scalars by e^{c . g}
  diagonal(c, d)             scalar t acts on the plane by (e^{c t} u, e^{d t} v)
  affine_on_semidirect(c)    (x, y) in a semidirect chart acts on scalars by e^{c y}
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

CHARACTER = "character"
DIAGONAL = "diagonal"
AFFINE_ON_SEMIDIRECT = "affine_on_semidirect"
_KINDS = (CHARACTER, DIAGONAL, AFFINE_ON_SEMIDIRECT)


@dataclass(frozen=True)
class ExpAction:
    kind: str
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown action kind {self.kind!r}")
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if self.kind == DIAGONAL and len(coeffs) != 2:
            raise InputError("diagonal action takes exactly two exponents")
        if self.kind == AFFINE_ON_SEMIDIRECT and len(coeffs) != 1:
            raise InputError("affine_on_semidirect takes a single exponent")

    @property
    def acting_dim(self) -> int:
        if self.kind == CHARACTER:
            return len(self.coeffs)
        if self.kind == DIAGONAL:
            return 1
        return 2

    @property
    def module_dim(self) -> int:
        return 2 if self.kind == DIAGONAL else 1

    def descriptor(self) -> dict:
        return {"kind": self.kind, "coeffs": list(self.coeffs)}


def character(*coeffs: float) -> ExpAction:
    return ExpAction(CHARACTER, tuple(coeffs))


def trivial(acting_dim: int) -> ExpAction:
    return ExpAction(CHARACTER, (0.0,) * acting_dim)


def diagonal(c: float, d: float) -> ExpAction:
    return ExpAction(DIAGONAL, (c, d))


def affine_on_semidirect(c: float) -> ExpAction:
    return ExpAction(AFFINE_ON_SEMIDIRECT, (c,))


def scale_factors(action: ExpAction, g: np.ndarray) -> np.ndarray:
    """Per-module-coordinate positive scalings applied by g; shape (..., module_dim)."""
    g = np.asarray(g, dtype=float)
    if g.shape[-1] != action.acting_dim:
        raise InputError(
            f"acting element has {g.shape[-1]} coordinates, action expects {action.acting_dim}"
        )
    if action.kind == CHARACTER:
        c = np.asarray(action.coeffs)
        # BLAS may sum a column-major g in another order: keep the row-major bits
        return np.exp(np.ascontiguousarray(g) @ c)[..., None]
    if action.kind == DIAGONAL:
        t = g[..., 0]
        c, d = action.coeffs
        return np.stack([np.exp(c * t), np.exp(d * t)], axis=-1)
    # affine_on_semidirect ignores the normal coordinate of the acting chart
    return np.exp(action.coeffs[0] * g[..., 1])[..., None]


def act(action: ExpAction, g, n) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    n = np.asarray(n, dtype=float)
    if n.shape[-1] != action.module_dim:
        raise InputError(
            f"module element has {n.shape[-1]} coordinates, action expects {action.module_dim}"
        )
    return scale_factors(action, g) * n
