"""Lexicographic orders on charts and ordered-group verification.

Comparisons are exact: sampled continuous coordinates tie with probability
zero, and deliberately constructed ties must compare equal, so no tolerance
is applied anywhere in this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .groups import GroupLaw, _element
from .tolerance import SampleConfig, row_blocks


class Comparison(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1


@dataclass(frozen=True)
class LexOrder:
    """Coordinate significance, most significant first: (0, 1, 2) is x >> y >> z."""

    significance: tuple[int, ...]

    def __post_init__(self):
        sig = tuple(int(i) for i in self.significance)
        object.__setattr__(self, "significance", sig)
        if sorted(sig) != list(range(len(sig))):
            raise InputError(f"significance {sig} is not a permutation of 0..{len(sig) - 1}")

    @property
    def dim(self) -> int:
        return len(self.significance)


@dataclass(frozen=True)
class OrderedGroupSpec:
    law: GroupLaw
    order: LexOrder

    def __post_init__(self):
        if self.law.dim != self.order.dim:
            raise InputError("order dimension does not match law dimension")


def compare(order: LexOrder, a, b) -> Comparison:
    a = _element(a, order.dim)
    b = _element(b, order.dim)
    for idx in order.significance:
        if a[idx] < b[idx]:
            return Comparison.LT
        if a[idx] > b[idx]:
            return Comparison.GT
    return Comparison.EQ


def _lex_compare(significance, a: np.ndarray, b: np.ndarray):
    """Row-wise (a < b, a != b) along significance, a and b broadcast together."""
    shape = np.broadcast_shapes(a.shape, b.shape)[:-1]
    less = np.zeros(shape, dtype=bool)
    decided = np.zeros(shape, dtype=bool)
    for idx in significance:
        lt = a[..., idx] < b[..., idx]
        gt = a[..., idx] > b[..., idx]
        less |= ~decided & lt
        decided |= lt | gt
    return less, decided


def lex_less(order: LexOrder, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized strict a < b along significance; shapes (..., dim)."""
    return _lex_compare(order.significance, a, b)[0]


@dataclass(frozen=True)
class InvarianceReport:
    left_ok: bool
    right_ok: bool
    checked: int
    counterexample_left: tuple | None = None
    counterexample_right: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.left_ok and self.right_ok

    def to_dict(self):
        def ce(t):
            return None if t is None else {
                "g": list(t[0]), "h": list(t[1]), "h_prime": list(t[2])
            }

        return {
            "passed": self.passed,
            "left_ok": self.left_ok,
            "right_ok": self.right_ok,
            "pairs_checked": self.checked,
            "counterexample_left": ce(self.counterexample_left),
            "counterexample_right": ce(self.counterexample_right),
        }


class PairBlock(NamedTuple):
    """One block of sampled pairs: row i is the pair (a[i], b[i]) sorted by
    swap[i], which is true where b[i] < a[i], so lo, hi = b, a there and a, b
    elsewhere. kept slices the block out of the kept-pair index; raw holds its
    rows of the two draws (a slice, or indices when ties were dropped)."""

    a: np.ndarray
    b: np.ndarray
    swap: np.ndarray
    kept: slice
    raw: slice | np.ndarray


class SampledPairs:
    """Sampled pairs lo < hi, kept as two draws h, h' of shape (n, dim) plus
    one swap byte and one tie byte per pair; lo and hi are never materialized.

    Level k pairs row j of h with row j of h' whose k most significant
    coordinates are taken from h, so levels > 1 exercise the tie-breaking
    coordinates. Pairs are indexed level-major with ties (equal rows) dropped:
    count pairs in all, and a draw of count rows lines up with that index.
    """

    def __init__(self, order: LexOrder, h: np.ndarray, hp: np.ndarray, levels: int):
        self.order, self.h, self.hp = order, h, hp
        n = h.shape[0]
        self.swap = np.empty((levels, n), dtype=bool)
        self.tie = np.empty((levels, n), dtype=bool)
        for k in range(levels):
            # the k shared coordinates are equal, so only the rest can decide
            for rows in row_blocks(n):
                swap, differ = _lex_compare(order.significance[k:], hp[rows], h[rows])
                self.swap[k, rows] = swap
                self.tie[k, rows] = ~differ
        self.count = self.tie.size - int(np.count_nonzero(self.tie))

    def _shared(self, k: int, rows: slice) -> np.ndarray:
        """Rows of h' with their k most significant coordinates taken from h."""
        if k == 0:
            return self.hp[rows]
        shared = list(self.order.significance[:k])
        b = self.hp[rows].copy(order="F")
        b[:, shared] = self.h[rows, shared]
        return b

    def blocks(self):
        """The pairs in kept-pair order, rebuilt one row block at a time."""
        start = 0
        for k in range(self.swap.shape[0]):
            for rows in row_blocks(self.h.shape[0]):
                a, b, swap, raw = self.h[rows], self._shared(k, rows), self.swap[k, rows], rows
                tie = self.tie[k, rows]
                if tie.any():
                    keep = ~tie
                    a, b, swap = a[keep], b[keep], swap[keep]
                    raw = rows.start + np.flatnonzero(keep)
                if swap.size:
                    yield PairBlock(a, b, swap, slice(start, start + swap.size), raw)
                    start += swap.size

    def first_misordered(self, order: LexOrder, images):
        """The first pair lo < hi whose images are not increasing in order, as
        (index, lo, hi), or None. images(block) returns (f(a), f(b)).

        Reading the verdict through the swap bit gives ~lex_less(f(lo), f(hi))
        bit for bit, NaN included: where swap, f(hi) < f(lo) fails unless
        f(a) > f(b), that is unless f(a) and f(b) differ and f(a) is not less.
        """
        for block in self.blocks():
            less, differ = _lex_compare(order.significance, *images(block))
            hits = np.flatnonzero(np.where(block.swap, less | ~differ, ~less))
            if hits.size:
                i = int(hits[0])
                a, b = block.a[i], block.b[i]
                return (block.kept.start + i,) + ((b, a) if block.swap[i] else (a, b))
        return None


def _ordered_pairs(order: LexOrder, cfg: SampleConfig, dim: int) -> SampledPairs:
    """Sampled h < h' pairs, including pairs sharing leading significance coords.

    Random pairs almost surely differ in the most significant coordinate, so
    tie-breaking coordinates are exercised with shared-prefix variants: level
    k of h' takes its k most significant coordinates from h.
    """
    return SampledPairs(order, cfg.sample(dim, stream=11), cfg.sample(dim, stream=12), dim)


def check_translation_invariance(
    spec: OrderedGroupSpec, cfg: SampleConfig = SampleConfig()
) -> InvarianceReport:
    """Verify g*h < g*h' (left) and h*g < h'*g (right) on sampled h < h'."""
    return _translation_report(spec, cfg, _ordered_pairs(spec.order, cfg, spec.law.dim))


def _translation_report(spec: OrderedGroupSpec, cfg: SampleConfig,
                        pairs: SampledPairs) -> InvarianceReport:
    """check_translation_invariance on pairs the caller drew with _ordered_pairs."""
    law, order = spec.law, spec.order
    g = cfg.sample(law.dim, stream=13, count=pairs.count)

    def first(translate):
        hit = pairs.first_misordered(order, lambda block: (
            translate(g[block.kept], block.a), translate(g[block.kept], block.b)))
        return None if hit is None else (g[hit[0]].copy(), hit[1].copy(), hit[2].copy())

    left = first(law.mul)
    right = first(lambda x, h: law.mul(h, x))
    return InvarianceReport(
        left_ok=left is None,
        right_ok=right is None,
        checked=pairs.count,
        counterexample_left=left,
        counterexample_right=right,
    )


def _supported(cfg: SampleConfig, dim: int, coords: tuple[int, ...], stream: int) -> np.ndarray:
    out = cfg.sample(dim, stream=stream)
    out[:, [i for i in range(dim) if i not in coords]] = 0.0
    return out


def check_conjugation_order_preserving(
    spec: OrderedGroupSpec,
    normal_coords: tuple[int, ...],
    cfg: SampleConfig = SampleConfig(),
) -> InvarianceReport:
    """Verify that conjugation by sampled g preserves order on the coordinate
    subgroup supported on normal_coords (which must be closed under the law)."""
    law, order = spec.law, spec.order
    coords = tuple(sorted(set(int(i) for i in normal_coords)))
    if any(i < 0 or i >= law.dim for i in coords):
        raise InputError("normal_coords outside chart dimensions")

    _check_closed(law, coords, cfg)
    pairs = SampledPairs(order, _supported(cfg, law.dim, coords, stream=23),
                         _supported(cfg, law.dim, coords, stream=24), 1)
    g = cfg.sample(law.dim, stream=25, count=pairs.count)

    def conjugates(block):
        gb = g[block.kept]
        ginv = law.inv(gb)
        return law.mul(law.mul(gb, block.a), ginv), law.mul(law.mul(gb, block.b), ginv)

    hit = pairs.first_misordered(order, conjugates)
    return InvarianceReport(
        left_ok=hit is None,
        right_ok=True,
        checked=pairs.count,
        counterexample_left=None if hit is None else (g[hit[0]],) + hit[1:],
    )


def _check_closed(law: GroupLaw, coords: tuple[int, ...], cfg: SampleConfig) -> None:
    """Raise InputError unless products of elements supported on coords stay
    exactly supported on coords, on sampled probes (a NaN product passes)."""
    outside = [i for i in range(law.dim) if i not in coords]
    if not outside:
        return
    probe_a = _supported(cfg, law.dim, coords, stream=21)
    probe_b = _supported(cfg, law.dim, coords, stream=22)
    if np.max([np.max(np.abs(law.mul(probe_a[rows], probe_b[rows])[:, outside]))
               for rows in row_blocks(cfg.count)]) > 0:
        raise InputError(f"coordinates {coords} are not closed under multiplication")
