"""Lexicographic orders on charts and ordered-group verification.

Comparisons are exact: sampled continuous coordinates tie with probability
zero, and deliberately constructed ties must compare equal, so no tolerance
is applied anywhere in this module. A comparison decides each row from the
most significant coordinate and stops once every row of the block is
decided. Images that tie, or that a NaN leaves undecided, are a violation.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .groups import GroupLaw, _element
from .tolerance import SampleConfig


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
    """Row-wise (a < b, a != b) along significance, a and b broadcast together.
    The most significant coordinate sets both; a later one is compared only
    while some row is still undecided."""
    shape = np.broadcast_shapes(a.shape, b.shape)[:-1]
    if not significance:  # a 0-dimensional order: every pair ties
        return np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    first, *rest = significance
    less = np.less(a[..., first], b[..., first], out=np.empty(shape, dtype=bool))
    decided = np.greater(a[..., first], b[..., first], out=np.empty(shape, dtype=bool))
    decided |= less
    for idx in rest:
        if decided.all():
            break
        lt = a[..., idx] < b[..., idx]
        less |= ~decided & lt
        decided |= lt | (a[..., idx] > b[..., idx])
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
    elsewhere. rows is the block's slice of the two draws; keep is false on
    the rows whose pair ties (equal rows), which are no pair and never hit."""

    a: np.ndarray
    b: np.ndarray
    swap: np.ndarray
    rows: slice
    keep: np.ndarray

    def first_misordered(self, order: LexOrder, fa: np.ndarray, fb: np.ndarray) -> int | None:
        """The first kept row whose pair lo < hi has images not increasing in
        order, or None, given fa, fb = f(a), f(b).

        Read through the swap bit this is ~lex_less(f(lo), f(hi)) bit for bit,
        NaN included: images that tie (or compare NaN) hit, and images that
        differ are in order exactly where f(a) < f(b) disagrees with swap.
        """
        less, differ = _lex_compare(order.significance, fa, fb)
        hits = np.flatnonzero((~differ | (less == self.swap)) & self.keep)
        return int(hits[0]) if hits.size else None

    def pair(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i as its sorted pair (lo, hi), copied out of the draws."""
        lo, hi = (self.b[i], self.a[i]) if self.swap[i] else (self.a[i], self.b[i])
        return lo.copy(), hi.copy()


class SampledPairs:
    """Sampled pairs lo < hi from two draws h, h' of n rows. draw() returns
    an iterator over row blocks of rows 0 .. n, each the block's rows of h
    and of h' (SampleConfig.sample_blocks). No whole draw is held: each pass
    draws the rows again and builds every level's pair block for a row block
    before moving on.

    Level k pairs row j of h with row j of h' whose k most significant
    coordinates are taken from h, so levels > 1 exercise the tie-breaking
    coordinates. Pair (k, j) reads row k * n + j of a draw of one row per
    pair; a pair that ties (equal rows) is masked, not dropped.
    """

    def __init__(self, order: LexOrder, levels: int, n: int, draw):
        self.order, self.levels, self.n, self.draw = order, levels, n, draw

    def _shared(self, k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Rows b of h' with their k most significant coordinates taken from
        the rows a of h."""
        if k == 0:
            return b
        shared = list(self.order.significance[:k])
        b = b.copy(order="F")
        b[:, shared] = a[:, shared]
        return b

    def blocks(self):
        """(level, PairBlock) for each row block and level: the levels of one
        row block in turn, row blocks in order."""
        rows = slice(0, 0)
        for h, hp in self.draw():
            rows = slice(rows.stop, rows.stop + len(h))
            for k in range(self.levels):
                # the k shared coordinates are equal, so only the rest can decide
                swap, keep = _lex_compare(self.order.significance[k:], hp, h)
                yield k, PairBlock(h, self._shared(k, h, hp), swap, rows, keep)
            del h, hp  # views of the draws: let them go before the next are made

    def scan(self, *sides, g=None):
        """(pairs, hits): the number of kept pairs and, per side (order,
        images), the first kept pair lo < hi, level-major, whose images are not
        increasing in order, as (g row, lo, hi), or None.

        images(g, block) returns (f(a), f(b)), where g is the block's rows of
        g(count, start), pair (k, j) at row k * n + j (None without g): drawn
        once per block and shared by the sides. A side evaluates a level only
        while it has no hit at that level or below, and stops once it has one
        at level 0.
        """
        pairs, hits = 0, [None] * len(sides)
        first = [self.levels] * len(sides)  # the lowest level with a hit
        for k, block in self.blocks():
            pairs += int(np.count_nonzero(block.keep))
            live = [side for side in range(len(sides)) if k < first[side]]
            start = k * self.n + block.rows.start
            gk = None if g is None or not live else g(len(block.swap), start)
            for side in live:
                order, images = sides[side]
                i = block.first_misordered(order, *images(gk, block))
                if i is not None:
                    first[side] = k
                    hits[side] = (None if gk is None else gk[i].copy(), *block.pair(i))
            del block  # views of the draws: let them go before the next are made
        return pairs, hits


def _ordered_pairs(order: LexOrder, cfg: SampleConfig, dim: int) -> SampledPairs:
    """Sampled h < h' pairs, including pairs sharing leading significance coords.

    Random pairs almost surely differ in the most significant coordinate, so
    tie-breaking coordinates are exercised with shared-prefix variants: level
    k of h' takes its k most significant coordinates from h.
    """
    return SampledPairs(order, dim, cfg.count,
                        functools.partial(cfg.sample_blocks, dim, (11, 12)))


def check_translation_invariance(
    spec: OrderedGroupSpec, cfg: SampleConfig = SampleConfig()
) -> InvarianceReport:
    """Verify g*h < g*h' (left) and h*g < h'*g (right) on sampled h < h'.

    The translating elements g come from stream 13, one row per pair.
    The left and right checks run in one pass over the pairs, so each block
    of g is drawn once; each side keeps its own first counterexample."""
    pairs = _ordered_pairs(spec.order, cfg, spec.law.dim)
    checked, (left, right) = pairs.scan(*_translation_sides(spec),
                                        g=functools.partial(cfg.sample, spec.law.dim, 13))
    return InvarianceReport(left_ok=left is None, right_ok=right is None, checked=checked,
                            counterexample_left=left, counterexample_right=right)


def _translation_sides(spec: OrderedGroupSpec):
    """The left and right translation checks as SampledPairs.scan sides."""
    law, order = spec.law, spec.order
    return ((order, lambda g, block: (law.mul(g, block.a), law.mul(g, block.b))),
            (order, lambda g, block: (law.mul(block.a, g), law.mul(block.b, g))))


def _supported_blocks(cfg: SampleConfig, dim: int, coords: tuple[int, ...], streams):
    """cfg.sample_blocks(dim, streams) with the coordinates outside coords
    zeroed."""
    outside = [i for i in range(dim) if i not in coords]
    for block in cfg.sample_blocks(dim, streams):
        for part in block:
            part[:, outside] = 0.0
        yield block
        del block, part  # views of the draws: let them go before the next are made


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
    pairs = SampledPairs(order, 1, cfg.count,
                         lambda: _supported_blocks(cfg, law.dim, coords, (23, 24)))

    def conjugates(g, block):
        ginv = law.inv(g)
        return law.mul(law.mul(g, block.a), ginv), law.mul(law.mul(g, block.b), ginv)

    checked, (hit,) = pairs.scan((order, conjugates), g=functools.partial(cfg.sample, law.dim, 25))
    return InvarianceReport(left_ok=hit is None, right_ok=True, checked=checked,
                            counterexample_left=hit)


def _check_closed(law: GroupLaw, coords: tuple[int, ...], cfg: SampleConfig) -> None:
    """Raise InputError unless products of elements supported on coords stay
    exactly supported on coords, on sampled probes (a NaN product passes)."""
    outside = [i for i in range(law.dim) if i not in coords]
    if not outside:
        return
    worst = []
    for a, b in _supported_blocks(cfg, law.dim, coords, (21, 22)):
        worst.append(np.max(np.abs(law.mul(a, b)[:, outside])))
        del a, b  # views of the draws: let them go before the next are made
    if np.max(worst) > 0:
        raise InputError(f"coordinates {coords} are not closed under multiplication")
