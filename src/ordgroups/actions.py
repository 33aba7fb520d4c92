"""Exponential actions on abelian chart groups.

Three kinds cover everything in scope:

  character(c1, ..., cn)     g acts on scalars by e^{c . g}
  diagonal(c, d)             scalar t acts on the plane by (e^{c t} u, e^{d t} v)
  affine_on_semidirect(c)    (x, y) in a semidirect chart acts on scalars by e^{c y}
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError

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


def is_nontrivial(action: ExpAction) -> bool:
    return any(c != 0.0 for c in action.coeffs)


def standardize_action(action: ExpAction) -> tuple[ExpAction, np.ndarray]:
    """Reduce a nontrivial character to the first-coordinate exponential.

    Returns (standard, psi) with act(action, x, n) == act(standard, psi @ x, n)
    and psi an exactly invertible matrix: first row is the coefficient vector,
    remaining rows are standard basis vectors skipping the pivot column.
    """
    if action.kind != CHARACTER:
        raise DomainError("standardization is defined for character actions")
    if not is_nontrivial(action):
        raise DomainError("trivial action cannot be standardized")
    c = np.asarray(action.coeffs)
    n = c.shape[0]
    pivot = int(np.flatnonzero(c)[0])
    rows = [c]
    for j in range(n):
        if j != pivot:
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
    psi = np.stack(rows, axis=0)
    standard = character(*([1.0] + [0.0] * (n - 1)))
    return standard, psi


@dataclass(frozen=True)
class ExponentFit:
    coeffs: np.ndarray
    residual: float
    used: int


def infer_exponents(samples) -> ExponentFit:
    """Least-squares recovery of character exponents from (g, n, g.n) triples.

    Uses log(output / n) = <c, g>; zero-module samples are skipped.
    """
    rows, rhs = [], []
    for g, n, out in samples:
        g = np.atleast_1d(np.asarray(g, dtype=float))
        n = float(np.asarray(n).reshape(-1)[0])
        out = float(np.asarray(out).reshape(-1)[0])
        if n == 0.0:
            continue
        ratio = out / n
        if ratio <= 0:
            raise DomainError("sample ratio not positive: data is not a character action")
        rows.append(g)
        rhs.append(np.log(ratio))
    if not rows:
        raise DomainError("no usable samples (all module parts zero)")
    a = np.stack(rows, axis=0)
    b = np.asarray(rhs)
    if a.shape[0] < a.shape[1] or np.linalg.matrix_rank(a) < a.shape[1]:
        raise DomainError("acting samples do not span the chart (rank-deficient fit)")
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.max(np.abs(a @ coeffs - b))) if a.size else 0.0
    return ExponentFit(coeffs=coeffs, residual=residual, used=len(rows))
