"""Lexicographic orders on charts and ordered-group verification.

Comparisons are exact: sampled continuous coordinates tie with probability
zero, and deliberately constructed ties must compare equal, so no tolerance
is applied anywhere in this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .groups import GroupLaw, _element
from .tolerance import SampleConfig, first_row, row_blocks


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


def _lex_compare(order: LexOrder, a: np.ndarray, b: np.ndarray):
    """Row-wise (a < b, a != b) along significance, a and b broadcast together."""
    shape = np.broadcast_shapes(a.shape, b.shape)[:-1]
    less = np.zeros(shape, dtype=bool)
    decided = np.zeros(shape, dtype=bool)
    for idx in order.significance:
        lt = a[..., idx] < b[..., idx]
        gt = a[..., idx] > b[..., idx]
        less |= ~decided & lt
        decided |= lt | gt
    return less, decided


def lex_less(order: LexOrder, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized strict a < b along significance; shapes (..., dim)."""
    return _lex_compare(order, a, b)[0]


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


def _sorted_pairs(order: LexOrder, a: np.ndarray, b: np.ndarray):
    """Rows of a and b (broadcast together, then flattened) sorted into lo < hi,
    dropping ties. Columns past order.dim ride along uncompared."""
    swap, differ = _lex_compare(order, b, a)
    lo = np.where(swap[..., None], b, a).reshape(-1, a.shape[-1])
    hi = np.where(swap[..., None], a, b).reshape(-1, a.shape[-1])
    if differ.all():
        return lo, hi
    keep = differ.reshape(-1)
    return lo[keep], hi[keep]


def _ordered_pairs(order: LexOrder, cfg: SampleConfig, dim: int):
    """Sampled h < h' pairs, including pairs sharing leading significance coords.

    Random pairs almost surely differ in the most significant coordinate, so
    tie-breaking coordinates are exercised with shared-prefix variants: block
    k of h' takes its k most significant coordinates from h.
    """
    h = cfg.sample(dim, stream=11)
    hp = np.empty((dim,) + h.shape)
    hp[:] = cfg.sample(dim, stream=12)
    for k, idx in enumerate(order.significance[:-1]):
        hp[k + 1:, :, idx] = h[:, idx]
    return _sorted_pairs(order, h, hp)


def check_translation_invariance(
    spec: OrderedGroupSpec, cfg: SampleConfig = SampleConfig()
) -> InvarianceReport:
    """Verify g*h < g*h' (left) and h*g < h'*g (right) on sampled h < h'."""
    return _translation_report(spec, cfg, *_ordered_pairs(spec.order, cfg, spec.law.dim))


def _translation_report(spec: OrderedGroupSpec, cfg: SampleConfig, lo, hi) -> InvarianceReport:
    """check_translation_invariance on pairs the caller drew with _ordered_pairs."""
    law, order = spec.law, spec.order
    n = lo.shape[0]
    g = cfg.sample(law.dim, stream=13, count=n)

    def first(translate):
        i = first_row(n, lambda rows: ~lex_less(
            order, translate(g[rows], lo[rows]), translate(g[rows], hi[rows])))
        return None if i is None else (g[i].copy(), lo[i].copy(), hi[i].copy())

    left = first(law.mul)
    right = first(lambda x, h: law.mul(h, x))
    return InvarianceReport(
        left_ok=left is None,
        right_ok=right is None,
        checked=int(n),
        counterexample_left=left,
        counterexample_right=right,
    )


def _supported(cfg: SampleConfig, dim: int, coords: tuple[int, ...], stream: int) -> np.ndarray:
    full = cfg.sample(dim, stream=stream)
    out = np.zeros_like(full)
    for idx in coords:
        out[:, idx] = full[:, idx]
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

    probe_a = _supported(cfg, law.dim, coords, stream=21)
    probe_b = _supported(cfg, law.dim, coords, stream=22)
    outside = [i for i in range(law.dim) if i not in coords]
    if outside and np.max([np.max(np.abs(law.mul(probe_a[rows], probe_b[rows])[:, outside]))
                           for rows in row_blocks(cfg.count)]) > 1e-12:
        raise InputError(f"coordinates {coords} are not closed under multiplication")

    n1 = _supported(cfg, law.dim, coords, stream=23)
    n2 = _supported(cfg, law.dim, coords, stream=24)
    lo, hi = _sorted_pairs(order, n1, n2)
    n = lo.shape[0]
    g = cfg.sample(law.dim, stream=25, count=n)

    def bad(rows):
        gb = g[rows]
        ginv = law.inv(gb)
        return ~lex_less(order, law.mul(law.mul(gb, lo[rows]), ginv),
                         law.mul(law.mul(gb, hi[rows]), ginv))

    i = first_row(n, bad)
    return InvarianceReport(
        left_ok=i is None,
        right_ok=True,
        checked=int(n),
        counterexample_left=None if i is None else (g[i], lo[i], hi[i]),
    )
