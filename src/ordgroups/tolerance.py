"""Tolerance policy, seeded sampling and row blocks shared by all checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Tolerance:
    """Mixed absolute/relative comparison: |u-v| <= abs + rel*max(|u|,|v|)."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise InputError("tolerances must be strictly positive")

    def bound(self, scale: float = 0.0) -> float:
        return self.abs_tol + self.rel_tol * abs(scale)

    def residual(self, u, v) -> tuple[float, bool]:
        """One pass over u and v: the largest normalized gap
        |u - v| / (1 + max(|u|, |v|)), and whether every coordinate is close.

        The gap is NaN when u or v holds a non-finite value, and inf when u
        and v are finite but u - v overflows.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        gap = np.abs(u - v)
        scale = np.maximum(np.abs(u), np.abs(v))
        worst = np.max(gap / (1.0 + scale), initial=-np.inf)
        return worst, bool(np.all(gap <= self.abs_tol + self.rel_tol * scale))

    def close(self, u, v) -> bool:
        return self.residual(u, v)[1]


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling: coordinates uniform on [-box, box]."""

    seed: int = 0
    count: int = 1000
    box: float = 3.0

    def __post_init__(self):
        if self.count < 1:
            raise InputError("sample count must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be an unsigned integer")
        if not (self.box > 0 and np.isfinite(self.box)):
            raise InputError("box must be positive and finite")

    def rng(self, stream: int = 0) -> np.random.Generator:
        # stream isolates independent draws under one seed
        return np.random.default_rng((self.seed, stream))

    def sample(self, dim: int, stream: int = 0, count: int | None = None) -> np.ndarray:
        """(n, dim) coordinate-major: filled one row block at a time from one
        generator, which gives the values of one uniform (n, dim) draw."""
        n = self.count if count is None else count
        rng = self.rng(stream)
        out = np.empty((n, dim), order="F")
        for rows in row_blocks(n):
            out[rows] = rng.uniform(-self.box, self.box, size=(rows.stop - rows.start, dim))
        return out


DEFAULT_TOL = Tolerance()

# Rows per block of a sampled check. A block of 3 float64 coordinates is
# 768 KiB, so the few temporaries a check holds per block stay in a 4 MiB L2.
BLOCK_ROWS = 1 << 15


def row_blocks(n: int):
    """Consecutive slices of at most BLOCK_ROWS rows covering rows 0..n-1.

    Sampled checks evaluate their row-wise work one block at a time and reduce
    across blocks by max, all or first row, which gives the whole-array result
    bit for bit. Maxima are reduced with np.max/np.maximum, never Python's
    max, so a NaN in any block propagates as it does through a whole-array
    np.max.
    """
    for start in range(0, n, BLOCK_ROWS):
        yield slice(start, min(start + BLOCK_ROWS, n))
