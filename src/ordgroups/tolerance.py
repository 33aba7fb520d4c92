"""Tolerance policy, seeded sampling and row blocks shared by all checks."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Tolerance:
    """The one pass rule of every floating-point verdict, coordinate by
    coordinate: gap <= abs_tol + rel_tol * scale, where a gap that is not
    finite fails. An identity u = v has gap |u - v| and scale max(|u|, |v|);
    a coboundary sum that should vanish has gap |sum| and, as scale, the
    largest |term| of its row (cohomology.check_coboundary)."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise InputError("tolerances must be strictly positive")

    def verdict(self, gap, parts) -> tuple[float, bool]:
        """The largest gap (NaN if any is), and whether every gap passes
        against the scale max |part| over the parts of its coordinate: the
        two sides of an identity, or the terms of a sum that should vanish.
        The parts are read only when some gap exceeds abs_tol; the full rule
        passes the others, as a finite gap comes from finite parts."""
        worst = np.max(gap, initial=-np.inf)
        if worst <= self.abs_tol:
            return worst, True
        scale = functools.reduce(np.maximum, map(np.abs, parts))
        return worst, bool(np.all((gap <= self.abs_tol + self.rel_tol * scale) & (gap < np.inf)))

    def check(self, u, v) -> tuple[float, bool]:
        """The identity u = v: the largest raw gap |u - v|, and whether every
        coordinate is close."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return self.verdict(np.abs(u - v), (u, v))

    def close(self, u, v) -> bool:
        return self.check(u, v)[1]

    def residual(self, u, v) -> tuple[float, bool]:
        """check with each gap normalized to |u - v| / (1 + max(|u|, |v|)): NaN
        where u or v is not finite, inf where finite u - v overflows."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        gap = np.abs(u - v)
        scale = np.maximum(np.abs(u), np.abs(v))
        return np.max(gap / (1.0 + scale), initial=-np.inf), self.verdict(gap, (scale,))[1]


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
