"""Tolerance policy, seeded sampling and row blocks shared by all checks."""

from __future__ import annotations

import contextvars
import threading
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
        if not (np.isfinite(self.abs_tol) and np.isfinite(self.rel_tol)):
            # an infinite bound passes every finite gap: it would check nothing
            raise InputError("tolerances must be finite")

    def verdict(self, gap, parts) -> tuple[float, bool]:
        """The largest gap (NaN if any is), and whether every gap passes
        against the scale max |part| over the parts of its coordinate: the
        two sides of an identity, or the terms of a sum that should vanish.
        The parts are read only when some gap exceeds abs_tol; the full rule
        passes the others, as a finite gap comes from finite parts."""
        worst = np.max(gap, initial=-np.inf)
        if worst <= self.abs_tol:
            return worst, True
        return worst, self._within(worst, gap, _max_abs(parts, gap)[0])

    def check(self, u, v) -> tuple[float, bool]:
        """The identity u = v: the largest raw gap |u - v|, and whether every
        coordinate is close."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return self.verdict(_abs_gap(u, v), (u, v))

    def close(self, u, v) -> bool:
        return self.check(u, v)[1]

    def residual(self, u, v) -> tuple[float, bool]:
        """check with each gap normalized to |u - v| / (1 + max(|u|, |v|)): NaN
        where u or v is not finite, inf where finite u - v overflows."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        gap = _abs_gap(u, v)
        scale, spare = _max_abs((u, v), gap)
        np.add(scale, 1.0, out=spare)
        resid = np.max(np.divide(gap, spare, out=spare), initial=-np.inf)
        worst = np.max(gap, initial=-np.inf)
        return resid, bool(worst <= self.abs_tol) or self._within(worst, gap, scale)

    def _within(self, worst, gap, scale) -> bool:
        """Whether every gap, the largest being worst > abs_tol, passes the
        rule against its scale, which becomes the bound in place."""
        np.multiply(scale, self.rel_tol, out=scale)
        np.add(scale, self.abs_tol, out=scale)
        # a gap that is NaN or inf makes worst so, and fails
        return bool(worst < np.inf and np.all(gap <= scale))


def _abs_gap(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|u - v| in one new array of the broadcast shape."""
    gap = np.subtract(u, v, out=...)
    return np.abs(gap, out=gap)


def _max_abs(parts, like: np.ndarray):
    """max |part| over the parts, in a new array of like's shape, and the
    spare array of that shape that held each further |part| (None for one
    part): with the gap, the three arrays a verdict works in."""
    scale, spare = np.abs(parts[0], out=np.empty_like(like)), None
    for part in parts[1:]:
        spare = np.abs(part, out=np.empty_like(like) if spare is None else spare)
        np.maximum(scale, spare, out=scale)
    return scale, spare


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
               start: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """Rows start .. start + count (count defaults to self.count) of the
        stream's one row-major uniform draw, as a coordinate-major (count, dim)
        array. The generator skips the first start rows (PCG64 advances by any
        number of draws) and fills the rest one row block at a time, so a check
        can draw each of its blocks on its own and get the whole draw's values.
        This is the one sampling hook: every draw goes through it.

        Each block is one Generator.uniform(-box, box) draw of its rows,
        row-major, written once into the columns of the result: out, a given
        (count, dim) array, or a new coordinate-major one."""
        n = self.count if count is None else count
        rng = self.rng(stream)
        rng.bit_generator.advance(start * dim)
        if out is None:
            out = np.empty((n, dim), order="F")
        for rows in row_blocks(n):
            out[rows] = rng.uniform(-self.box, self.box, (rows.stop - rows.start, dim))
        return out

    def map_blocks(self, dim: int, streams, fn) -> list:
        """[fn(rows, *draws) for rows in row_blocks(self.count)]: draws are that
        block of each stream's draw, views of an array the thread reuses, so
        fn returns none of them and calls no map_blocks. Each block is one task
        that draws its rows through sample. Past one block, two worker threads
        run the tasks, each in a copy of the caller's context (numpy's errstate
        is a context variable); results come back in block order, an error as
        the earliest failing block's. One block runs on the calling thread."""
        blocks = list(row_blocks(self.count))

        def task(rows):
            n = rows.stop - rows.start
            buf = _workspace(len(streams) * dim * n).reshape(len(streams), dim, n)
            return fn(rows, *(self.sample(dim, s, n, rows.start, part.T)
                              for s, part in zip(streams, buf)))

        if len(blocks) <= 1:
            return [task(rows) for rows in blocks]
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(2) as pool:
            tasks = [pool.submit(contextvars.copy_context().run, task, rows) for rows in blocks]
            try:
                return [t.result() for t in tasks]
            finally:
                for t in tasks:  # after an error, start no further block
                    t.cancel()


DEFAULT_TOL = Tolerance()

# Rows per block of a sampled check, set by per-block call overhead (a block of
# 3 float64 coordinates, 768 KiB, and its temporaries outgrow a 2 MiB L2): on 2
# cores, a cycle of the 8 bulk benchmark commands at 10^6 rows took 693-830 ms
# at 2^14 rows against 574-711 ms at 2^15, and was level at 2^16.
BLOCK_ROWS = 1 << 15

# Each thread reuses one array for its blocks' draws: two cycles of the 8
# bulk benchmark commands at 10^6 rows took 19,000-45,000 minor page faults,
# against 365,000-651,000 with new draw arrays per block (glibc 2.36, 2
# cores). The rest follow glibc's dynamic mmap and trim thresholds, which
# the largest array freed so far sets: with both fixed (MALLOC_MMAP_THRESHOLD_
# and MALLOC_TRIM_THRESHOLD_), a repeated command faults under 20 pages.
_local = threading.local()


def _workspace(size: int) -> np.ndarray:
    """The first size elements of the calling thread's reused float64 array,
    which holds a map_blocks task's draws. A worker's array ends with its
    map_blocks."""
    buf = getattr(_local, "buf", None)
    if buf is None or buf.size < size:
        buf = _local.buf = np.empty(size)
    return buf[:size]


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

