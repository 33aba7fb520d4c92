"""Canonical forms and numerically verified isomorphism witnesses.

Group-level labels:   R, R2_abelian, Aff, R3, Heis, ProdAff, SD2(c), G3.
Ordered labels:       R, R2_abelian, Aff_plus/minus, R3, E_plus/minus,
                      ProdAff_order_yzx / _zyx / _yxz (sign parameter),
                      K_plus(f) / K_minus(f), T_plus / T_minus.

The three ProdAff labels name the order type of the product-with-a-line
group; the sign parameter distinguishes the expanding and contracting
variants, which are not isomorphic as ordered groups.

The group level reads the law's bracket table (GroupLaw.brackets) in one of
five forms: abelian, every bracket 0; affine, a derived algebra e_k that is
not central, [e_i, e_k] = chi_i e_k for a character chi; Heisenberg, a
central derived algebra e_k; derived plane, two coordinates on which the
third acts by a diagonal 2x2 ad; nonsplit G3, whose ad is not diagonal. Its
one named case is SUT3, whose chart change is nonlinear.

A lexicographic order is bi-invariant exactly when its coordinate flag is a
chain of ideals: the span of its k least significant coordinates is an ideal
for every k. The ordered level decides that from the table alone, and a pair
it does not admit is a domain error naming the bracket that breaks the flag.
An admitted table, written in the flag's rank coordinates, is its flag table:
it has at most four slots, A, B, C and D (_SLOTS). The ordered level picks the
class from which slots are nonzero, and the separating invariants are their
signs. Its one named case is SUT3, whose chart change is nonlinear.

Both levels cover dimensions 1 to 3 and reject a larger law before drawing
any sample. Every witness is an explicit coordinate map with named source and
target laws; classification verifies each witness numerically, once, and
returns it carrying that verification, a WitnessReport, as its only verdict.
A linear witness's order claim is decided exactly from its matrix; a function
witness's claim (SUT3 and compositions through it) is checked on samples.
The separating invariants draw no sample.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InputError
from .groups import (
    Additive,
    Ec,
    GCd,
    GroupLaw,
    KCd,
    Product,
    SemidirectRR,
    SUT3,
    Tk,
    _matvec,
    heis_to_sut3,
    heisenberg,
    sut3_to_heis,
)
from .orders import LexOrder, OrderedGroupSpec, _ordered_pairs
from .tolerance import DEFAULT_TOL, SampleConfig, Tolerance


@dataclass(frozen=True)
class CanonicalClass:
    label: str
    params: tuple[tuple[str, float], ...]
    law: GroupLaw
    order: LexOrder | None = None

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def to_dict(self):
        return {"label": self.label, "params": self.param_dict}


def _cls(label, law, order=None, **params) -> CanonicalClass:
    items = tuple(sorted((k, float(v)) for k, v in params.items()))
    o = LexOrder(order) if isinstance(order, tuple) else order
    return CanonicalClass(label=label, params=items, law=law, order=o)


@dataclass(frozen=True)
class IsoWitness:
    source: GroupLaw
    target: GroupLaw
    matrix: np.ndarray | None = None
    forward: Callable | None = None
    inverse: Callable | None = None
    map_name: str | None = None
    order_pair: tuple[LexOrder, LexOrder] | None = None
    verification: WitnessReport | None = None

    def __post_init__(self):
        # an order claim whose length differs from its law's dimension is
        # malformed input, rejected before any sample is drawn
        for side, law, order in zip(("source", "target"), (self.source, self.target),
                                    self.order_pair or ()):
            if order.dim != law.dim:
                raise InputError(f"{side} order {order.significance} has length {order.dim}, "
                                 f"but the {side} law has dimension {law.dim}")

    def apply(self, a: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return _matvec(self.matrix, a)
        return self.forward(a)

    def apply_inverse(self, a: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return _matvec(self._inverse_matrix, a)
        return self.inverse(a)

    @functools.cached_property
    def _inverse_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    def to_dict(self):
        return {
            "source": self.source.descriptor(),
            "target": self.target.descriptor(),
            "matrix": None if self.matrix is None else self.matrix.tolist(),
            "map": self.map_name,
            "order_pair": None
            if self.order_pair is None
            else [list(self.order_pair[0].significance), list(self.order_pair[1].significance)],
        }


def linear_witness(source, target, matrix, order_pair=None, name=None) -> IsoWitness:
    """The map a -> matrix @ a; matrix has shape (target.dim, source.dim)."""
    try:
        m = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"witness matrix is not a numeric matrix: {exc}") from exc
    if source.dim != target.dim or m.shape != (target.dim, source.dim):
        raise InputError(f"a {m.shape} witness matrix is no isomorphism from "
                         f"dimension {source.dim} to {target.dim}")
    return IsoWitness(source=source, target=target, matrix=m,
                      order_pair=order_pair, map_name=name)


def function_witness(source, target, forward, inverse, order_pair=None, name=None) -> IsoWitness:
    return IsoWitness(source=source, target=target, forward=forward,
                      inverse=inverse, order_pair=order_pair, map_name=name)


def invert_witness(w: IsoWitness) -> IsoWitness:
    pair = None if w.order_pair is None else (w.order_pair[1], w.order_pair[0])
    if w.matrix is not None:
        m = np.linalg.inv(w.matrix)
        if pair is not None and _monotone(w.matrix, *w.order_pair):
            # the inverse of a triangular matrix is triangular: what inv leaves
            # above the triangle is rounding of exact zeros
            frame = np.ix_(pair[1].significance, pair[0].significance)
            m[frame] = np.tril(m[frame])
        return linear_witness(w.target, w.source, m, order_pair=pair)
    return function_witness(w.target, w.source, w.inverse, w.forward,
                            order_pair=pair, name=f"inverse({w.map_name})")


def compose_witness(outer: IsoWitness, inner: IsoWitness) -> IsoWitness:
    """The witness outer . inner, from inner.source to outer.target."""
    pair = None
    if inner.order_pair is not None and outer.order_pair is not None:
        pair = (inner.order_pair[0], outer.order_pair[1])
    if inner.matrix is not None and outer.matrix is not None:
        return linear_witness(inner.source, outer.target,
                              outer.matrix @ inner.matrix, order_pair=pair)
    fwd = lambda a: outer.apply(inner.apply(a))
    bwd = lambda a: inner.apply_inverse(outer.apply_inverse(a))
    name = f"{outer.map_name or 'linear'} . {inner.map_name or 'linear'}"
    return function_witness(inner.source, outer.target, fwd, bwd,
                            order_pair=pair, name=name)


@dataclass(frozen=True)
class WitnessReport:
    hom_residual: float
    roundtrip_residual: float
    invertible: bool
    group_ok: bool
    order_ok: bool | None
    checked: int

    @property
    def passed(self) -> bool:
        return self.group_ok and self.order_ok is not False

    def to_dict(self):
        return {
            "passed": self.passed,
            "hom_residual": self.hom_residual,
            "roundtrip_residual": self.roundtrip_residual,
            "invertible": self.invertible,
            "group_ok": self.group_ok,
            "order_ok": self.order_ok,
            "pairs_checked": self.checked,
        }


def verify_witness(
    w: IsoWitness, cfg: SampleConfig = SampleConfig(), tol: Tolerance = DEFAULT_TOL
) -> WitnessReport:
    """Homomorphism, round-trip and (when claimed) order-monotonicity residuals."""
    # a condition number, unlike a determinant, does not change when the
    # matrix is rescaled; the bound 1/(n eps) is the one numpy's matrix_rank
    # applies, and a singular or non-finite matrix has an inf or NaN one
    if w.matrix is not None and not (
            np.linalg.cond(w.matrix, 1) < 1.0 / (len(w.matrix) * np.finfo(float).eps)):
        return WitnessReport(float("inf"), float("inf"), False, False, None, cfg.count)

    def block(rows, x, y):
        # the identities w(ab) = w(a)w(b) and w^-1(w(a)) = a
        fx = w.apply(x)
        hom = tol.check(w.apply(w.source.mul(x, y)), w.target.mul(fx, w.apply(y)))
        roundtrip = tol.check(w.apply_inverse(fx), x)
        return np.array([hom[0], roundtrip[0]]), hom[1] and roundtrip[1]

    blocks = cfg.map_blocks(w.source.dim, (61, 62), block)
    hom, roundtrip = (float(v) for v in functools.reduce(np.maximum, (gap for gap, _ in blocks)))
    group_ok = all(ok for _, ok in blocks)

    # w maps each source pair lo < hi to a pair increasing in the target order
    order_ok = None
    if w.order_pair is not None:
        source, target = w.order_pair
        if w.matrix is not None:
            order_ok = _monotone(w.matrix, source, target)
        else:
            side = target, lambda g, block: (w.apply(block.a), w.apply(block.b))
            order_ok = _ordered_pairs(source, cfg, w.source.dim).scan(side)[1][0] is None

    return WitnessReport(hom, roundtrip, True, group_ok, order_ok, cfg.count)


def _monotone(matrix: np.ndarray, source: LexOrder, target: LexOrder) -> bool:
    """Whether v -> matrix @ v is increasing from the source order to the
    target order, decided exactly from the invertible matrix.

    Both orders are additive, so f(h') - f(h) = matrix (h' - h), and the map is
    increasing exactly when it takes every positive difference to a positive
    one. Read with rows in target significance and columns in source
    significance, that holds exactly when the matrix is lower triangular with
    a positive diagonal: the first nonzero entry of a difference then leads
    its image with the same sign, and an entry above the diagonal, however
    small, lets a large enough difference in a less significant coordinate
    outweigh a leading one.
    """
    a = matrix[np.ix_(target.significance, source.significance)]
    return not np.triu(a, 1).any() and bool((np.diag(a) > 0).all())


# ---------------------------------------------------------------------------
# canonical realizations


# The ordered kinds of each dimension, each named by the nonzero slots of its
# flag table ("" is abelian), and the abelian classes' labels and orders.
_KINDS = {1: ("",), 2: ("", "A"), 3: ("", "B", "C", "D", "A", "AC", "ABC")}
_ABELIAN = {1: ("R", (0,)), 2: ("R2_abelian", (1, 0)), 3: ("R3", (0, 1, 2))}


def _ordered_class(dim: int, kind: str, s: float, f: float | None) -> CanonicalClass:
    """The canonical ordered class of a kind in dim: s is the sign of the
    character that leads it, f (K only) its fiber character over |A|."""
    sign = "plus" if s > 0 else "minus"
    if not kind:
        label, order = _ABELIAN[dim]
        return _cls(label, Additive(dim), order)
    if dim == 2:
        return _cls(f"Aff_{sign}", SemidirectRR(s), (1, 0))
    if kind == "B":
        return _cls(f"E_{sign}", Ec(s), (0, 1, 2))
    if kind == "C":
        return _cls("ProdAff_order_yzx", GCd(s, 0.0), (0, 1, 2), c=s)
    if kind == "D":
        return _cls("ProdAff_order_zyx", GCd(0.0, s), (0, 1, 2), d=s)
    if kind == "A":
        return _cls("ProdAff_order_yxz", KCd(s, 0.0), (0, 1, 2), c=s)
    if kind == "AC":
        return _cls(f"K_{sign}", KCd(s, f), (0, 1, 2), f=f)
    return _cls(f"T_{sign}", Tk(s), (2, 1, 0))


def enumerate_canonical(dim: int) -> list[tuple[CanonicalClass, GroupLaw, LexOrder]]:
    """The ordered canonical catalog: (class, law, order) per class, each kind
    with both signs. K's f is free; the catalog represents it by 2."""
    if dim not in _KINDS:
        raise InputError("canonical catalogs exist for dimensions 1, 2, 3")
    classes = [_ordered_class(dim, kind, s, 2.0) for kind in _KINDS[dim]
               for s in ((1.0, -1.0) if kind else (1.0,))]
    return [(c, c.law, c.order) for c in classes]


# ---------------------------------------------------------------------------
# the bracket table


def _coefficients(table: dict) -> dict:
    """The table closed under antisymmetry: b for both (k, i, j) and (k, j, i)."""
    return {**table, **{(k, j, i): -b for (k, i, j), b in table.items()}}


def _breaking_bracket(table: dict, sig: tuple[int, ...]) -> tuple[int, int, int] | None:
    """The first entry (k, i, j) of the table whose e_k is more significant
    than the less significant of e_i and e_j. None exactly when the k least
    significant coordinates of sig span an ideal for every k."""
    rank = {c: r for r, c in enumerate(sig)}
    return next(((k, i, j) for k, i, j in table if rank[k] < max(rank[i], rank[j])), None)


# The slots a chain of ideals leaves in a flag table of dimension 3: A, the
# leading coordinate's character on the middle quotient; B, the fiber part of
# [e_0, e_1]; C and D, the leading and the middle coordinate's characters on
# the fiber. Dimension 2 has only A; the Jacobi identity gives A D = 0.
_SLOTS = ((1, 0, 1), (2, 0, 1), (2, 0, 2), (2, 1, 2))


def _flag_table(law: GroupLaw, sig: tuple[int, ...]) -> dict | None:
    """The law's bracket table in the rank coordinates of sig, rank 0 the most
    significant: {(k, i, j): b} with i < j for [e_sig[i], e_sig[j]] = b e_sig[k].
    None when the law declares no table; a DomainError naming the bracket that
    breaks the flag when the table does not admit sig."""
    table = law.brackets()
    if table is None:
        return None
    bad = _breaking_bracket(table, sig)
    if bad is not None:
        k, i, j = bad
        raise DomainError(f"{type(law).__name__} with significance {sig} is not an ordered "
                          f"group: [e_{i}, e_{j}] = {table[bad]} e_{k} is more significant "
                          f"than e_{max(i, j, key=sig.index)}, so the flag is not a chain of "
                          f"ideals")
    rank = {c: r for r, c in enumerate(sig)}
    return {(rank[k], rank[i], rank[j]): b
            for (k, i, j), b in _coefficients(table).items() if rank[i] < rank[j]}


def _slots(flag: dict) -> list[float]:
    """A, B, C and D of a flag table, 0.0 for an empty slot."""
    return [flag.get(slot, 0.0) for slot in _SLOTS]


# ---------------------------------------------------------------------------
# group-level classification


def classify_group(
    law: GroupLaw, cfg: SampleConfig = SampleConfig(), tol: Tolerance = DEFAULT_TOL
) -> tuple[CanonicalClass, IsoWitness]:
    """Canonical group-isomorphism class plus a verified witness map."""
    _require_dimension(law)
    cls, wit = _classify_group(law)
    rep = verify_witness(wit, cfg, tol)
    _require_invertible(law, cls, rep)
    return cls, dataclasses.replace(wit, verification=rep)


def _require_dimension(law: GroupLaw) -> None:
    """The range both levels classify, checked before any sample is drawn."""
    if law.dim > 3:
        raise DomainError("classification covers dimensions 1 to 3 only")


def _require_invertible(law: GroupLaw, cls: CanonicalClass, rep: WitnessReport) -> None:
    """A witness too ill-conditioned to invert in floating point puts the
    parameters outside what can be classified numerically: a domain error,
    not a failed verification."""
    if not rep.invertible:
        params = ", ".join(f"{k}={v!r}" for k, v in cls.params)
        target = f"{cls.label}({params})" if params else cls.label
        raise DomainError(f"the witness from {law!r} to {target} is not invertible "
                          f"in floating point")


def _classify_group(law: GroupLaw) -> tuple[CanonicalClass, IsoWitness]:
    n = law.dim
    if isinstance(law, SUT3):
        target = heisenberg()
        return _cls("Heis", target), function_witness(law, target, sut3_to_heis, heis_to_sut3,
                                                      name="sut3_to_heis")

    # the table in one of five forms: abelian; affine, [e_i, e_k] = chi_i e_k
    # for one derived coordinate e_k; Heisenberg, one central derived
    # coordinate; derived plane, [e_a, e_p] = lam_p e_p on the other two; the
    # nonsplit G3, [e_2, e_0] = e_0 and [e_2, e_1] = k e_0 + e_1 with k != 0
    table = law.brackets()
    if table == {}:
        target = Additive(n)
        return _cls(_ABELIAN[n][0], target), linear_witness(law, target, np.eye(n))
    coeff = _coefficients(table or {})
    k = coeff.get((0, 2, 1))
    if len(coeff) == 6 and k and coeff.get((0, 2, 0)) == coeff.get((1, 2, 1)) == 1.0:
        target = Tk(1.0)
        return _cls("G3", target), linear_witness(law, target, np.diag([1.0 / k, 1.0, 1.0]))
    derived = sorted({k for k, _, _ in coeff})
    matrix = np.zeros((n, n))
    if len(derived) == 1 and all(derived[0] in (i, j) for _, i, j in table):
        # rows e_k, the character chi and, in dimension 3, the last coordinate
        # that completes them
        k = derived[0]
        chi = [coeff.get((k, i, k), 0.0) for i in range(n)]
        matrix[0, k], matrix[1] = 1.0, chi
        target = SemidirectRR(1.0)
        if n == 3:
            matrix[2, max({0, 1, 2} - {k, next(i for i, x in enumerate(chi) if x)})] = 1.0
            target = Product(target, Additive(1))
        return _cls("Aff" if n == 2 else "ProdAff", target), linear_witness(law, target, matrix)

    if len(derived) == 1 and len(table) == 1:
        # canonical to input: e_0, e_1 to the bracket's factors, e_2 to it
        (k, i, j), b = next(iter(table.items()))
        matrix[i, 0], matrix[j, 1], matrix[k, 2] = 1.0, 1.0, b
        target = heisenberg()
        return _cls("Heis", target), linear_witness(target, law, matrix)

    if len(derived) == 2 and n == 3:
        a = 3 - sum(derived)
        if all({i, j} == {a, x} for x, i, j in table):
            # the acting coordinate scaled by the larger eigenvalue, then the plane
            lam = {p: coeff[p, a, p] for p in derived}
            (p, lp), (q, lq) = sorted(lam.items(), key=lambda item: abs(item[1]))
            matrix[0, a], matrix[1, p], matrix[2, q] = lq, 1.0, 1.0
            sd2 = KCd(lp / lq, 1.0)
            return (_cls("SD2", sd2, c=lp / lq),
                    linear_witness(law, sd2, matrix, name="module_swap" if p > q else None))
    raise DomainError(f"descriptor outside the classified families: {type(law).__name__}")


# ---------------------------------------------------------------------------
# ordered classification


def classify_ordered(
    law: GroupLaw,
    order: LexOrder,
    cfg: SampleConfig = SampleConfig(),
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[CanonicalClass, IsoWitness]:
    """Canonical ordered class with an order-preserving verified witness.

    Whether the pair is an ordered group is read off the law's bracket table
    and draws no sample: a pair whose flag is not a chain of ideals is a
    DomainError naming the bracket that breaks it. Only the witness is
    checked on samples.
    """
    _require_dimension(law)
    OrderedGroupSpec(law, order)  # the order's length against the law's dimension
    cls, wit = _classify_ordered(law, order.significance)
    wit = dataclasses.replace(wit, order_pair=(order, cls.order))
    rep = verify_witness(wit, cfg, tol)
    _require_invertible(law, cls, rep)
    return cls, dataclasses.replace(wit, verification=rep)


def _perm_matrix(src_sig: tuple[int, ...], dst_sig: tuple[int, ...]) -> np.ndarray:
    m = np.zeros((len(src_sig), len(src_sig)))
    for s, t in zip(src_sig, dst_sig):
        m[t, s] = 1.0
    return m


def _classify_ordered(law: GroupLaw, sig: tuple[int, ...]):
    flag = _flag_table(law, sig)
    if isinstance(law, SUT3):
        canon, tail = _classify_ordered(heisenberg(), sig)
        return canon, compose_witness(tail, _classify_group(law)[1])

    # the nonzero slots name the kind (a law with no table has none) and
    # `lead`, the character whose sign picks the class; the witness sends each
    # rank to the same rank and then takes `entries`, {(rank row, rank
    # column): x}, each x nonzero
    a, b, c, d = _slots(flag or {})
    kind = None if flag is None else "".join(n for n, x in zip("ABCD", (a, b, c, d)) if x)
    if kind in ("", "A", "C", "AC"):
        # the leading coordinate scales by the size of its first character
        lead = a or c or 1.0
        entries = {(0, 0): abs(lead)} if kind else {}
    elif kind in ("D", "CD"):
        # the middle coordinate's row is the fiber's character, negated if D < 0
        lead, kind = d, "D"
        entries = {(1, r): x if d > 0 else -x for r, x in enumerate((c, d)) if x}
    elif kind == "B":
        # E(s) has B = 2 s: the leading coordinate scales by |B| / 2
        lead, entries = b, {(0, 0): abs(b) / 2}
    elif kind == "ABC" and a == c == 1.0:
        # T(s) has B = s: the fiber scales by 1 / |B|
        lead, entries = b, {(2, 2): 1.0 / abs(b)}
    else:
        raise DomainError(f"no canonical form for {type(law).__name__} with significance {sig}")
    s = 1.0 if lead > 0 else -1.0
    canon = _ordered_class(law.dim, kind, s, c / abs(a) if kind == "AC" else None)
    matrix = _perm_matrix(sig, canon.order.significance)
    for (row, col), x in entries.items():
        matrix[canon.order.significance[row], sig[col]] = x
    return canon, linear_witness(law, canon.law, matrix)


# ---------------------------------------------------------------------------
# separating invariants


@dataclass(frozen=True)
class Evidence:
    invariant: str
    value_a: object
    value_b: object

    def to_dict(self):
        return {
            "separated": True,
            "invariant": self.invariant,
            "value_a": self.value_a,
            "value_b": self.value_b,
        }


@dataclass(frozen=True)
class NotSeparated:
    def to_dict(self):
        return {"separated": False}


def _table_invariants(spec: OrderedGroupSpec) -> dict:
    """The battery: the signs of the flag table's slots.

    Each direction is the sign of a Lie-algebra character over the positive
    cone: None (mixed) when D makes the character read the middle coordinate
    too, since the cone holds elements whose leading coordinate is tiny next
    to the others.
    """
    law, sig = spec.law, spec.order.significance
    _require_dimension(law)
    flag = _flag_table(law, sig)
    if flag is None:
        raise DomainError(f"{type(law).__name__} with significance {sig} has no bracket "
                          f"table whose flag is a chain of ideals")
    a, b, c, d = ((x > 0) - (x < 0) for x in _slots(flag))
    if law.dim == 1:
        return {}
    if law.dim == 2:
        return {"abelian": not flag, "fiber_conjugation_direction": a}
    return {
        "abelian_convex_plane": not d,
        "commutator_sign": None if d else b,
        "fiber_conjugation_direction": None if d else c,
        "middle_conjugation_direction": a,
        "middle_action_on_fiber": d,
    }


_BATTERY = (
    "abelian",
    "abelian_convex_plane",
    "commutator_sign",
    "fiber_conjugation_direction",
    "middle_conjugation_direction",
    "middle_action_on_fiber",
)


def separating_invariant(a: OrderedGroupSpec, b: OrderedGroupSpec):
    """First computable invariant telling the two ordered specs apart.

    Each spec must have dimension 1 to 3 and a law that declares a bracket
    table under which its order's flag is a chain of ideals (the ordered
    groups classify_ordered admits), or this is a DomainError. The invariants
    are read off that table, so no sample is drawn. Returns Evidence naming
    the invariant, or NotSeparated when the battery cannot tell them apart
    (as for the diagonal family, whose parameter is catalog knowledge).
    """
    va, vb = _table_invariants(a), _table_invariants(b)
    if a.law.dim != b.law.dim:
        return Evidence("dimension", a.law.dim, b.law.dim)
    for name in _BATTERY:
        x, y = va.get(name), vb.get(name)
        if x is not None and y is not None and x != y:
            return Evidence(name, x, y)
    return NotSeparated()
