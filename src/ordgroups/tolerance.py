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
        if not np.isfinite(2 * self.box):
            # samples are -box + 2 box u: an infinite width would give inf samples
            raise InputError(f"box {self.box!r} is too large: 2 * box overflows")

    def rng(self, stream: int = 0) -> np.random.Generator:
        # stream isolates independent draws under one seed
        return np.random.default_rng((self.seed, stream))

    def sample(self, dim: int, stream: int = 0, count: int | None = None,
               start: int = 0) -> np.ndarray:
        """Rows start .. start + count (count defaults to self.count) of the
        stream's one row-major uniform draw, as a coordinate-major (count, dim)
        array. The generator skips the first start rows (PCG64 advances by any
        number of draws) and fills the rest one row block at a time, so a check
        can draw each of its blocks on its own and get the whole draw's values.
        This is the one sampling hook: every draw goes through it.

        Each block is filled as Generator.uniform(-box, box) fills it, bit for
        bit: -box + 2 box u for u from Generator.random, in one reused
        row-major buffer, copied once into the result."""
        n = self.count if count is None else count
        rng = self.rng(stream)
        rng.bit_generator.advance(start * dim)
        out = np.empty((n, dim), order="F")
        buf = np.empty((min(n, BLOCK_ROWS), dim))
        for rows in row_blocks(n):
            block = buf[:rows.stop - rows.start]
            rng.random(out=block)
            block *= 2 * self.box
            block += -self.box
            out[rows] = block
        return out

    def sample_blocks(self, dim: int, streams, count: int | None = None):
        """Per row block of rows 0 .. count (count defaults to self.count),
        that block of each stream's draw. The streams are drawn DRAW_BLOCKS
        blocks at a time through sample."""
        n = self.count if count is None else count
        step = DRAW_BLOCKS * BLOCK_ROWS
        for start in range(0, n, step):
            draws = [self.sample(dim, s, min(step, n - start), start) for s in streams]
            for rows in row_blocks(len(draws[0])):
                yield [d[rows] for d in draws]
            # freed before the next draw is made, unless the caller holds a block
            del draws


DEFAULT_TOL = Tolerance()

# Rows per block of a sampled check. A block of 3 float64 coordinates is
# 768 KiB, so the few temporaries a check holds per block stay in a 4 MiB L2.
BLOCK_ROWS = 1 << 15
# Blocks per draw in sample_blocks: about 3 MiB per stream at 3 coordinates.
# glibc's malloc hands freed memory back to the system above a threshold set
# by the largest mapping it has released. When nothing larger than a block had
# been freed, each block's temporaries were handed back and faulted in again:
# a 10^6-row axiom check after a cocycle check took about 85,000 page faults
# and 0.2 s more (x86-64 Linux, glibc, numpy 2.4). Freeing one draw of 4
# blocks lifts the threshold above the temporaries of a block.
DRAW_BLOCKS = 4


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

