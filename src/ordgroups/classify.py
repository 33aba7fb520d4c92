"""Canonical forms and numerically verified isomorphism witnesses.

Group-level labels:   R, R2_abelian, Aff, R3, Heis, ProdAff, SD2(c), G3.
Ordered labels:       R, R2_abelian, Aff_plus/minus, R3, E_plus/minus,
                      ProdAff_order_yzx / _zyx / _yxz (sign parameter),
                      K_plus(f) / K_minus(f), T_plus / T_minus.

The three ProdAff labels name the order type of the product-with-a-line
group; the sign parameter distinguishes the expanding and contracting
variants, which are not isomorphic as ordered groups.

Both levels read the law's bracket table (GroupLaw.brackets) in one of four
forms: abelian, every bracket 0; affine, a derived algebra e_k that is not
central, [e_i, e_k] = chi_i e_k for a character chi; Heisenberg, a central
derived algebra e_k; derived plane, two coordinates on which the third acts
by a diagonal 2x2 ad. A lexicographic order is bi-invariant only when its
coordinate flag is a chain of ideals: the span of its k least significant
coordinates is an ideal for every k. Named cases: SUT3, whose chart change
is nonlinear, and the nonsplit Tk(k != 0), whose ad is not diagonal.

Both levels cover dimensions 1 to 3 and reject a larger law before drawing
any sample. Every witness is an explicit coordinate map with named source and
target laws; classification verifies each witness numerically, once, and
returns it carrying that verification, a WitnessReport, as its only verdict.
The separating invariants are read off the same table under the order's flag
and draw no sample.
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
    heis_to_sut3,
    heisenberg,
    sut3_to_heis,
)
from .orders import (
    LexOrder,
    OrderedGroupSpec,
    _ordered_pairs,
    _translation_sides,
)
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


def _matvec(matrix: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-by-row application, accumulating nonzero terms in column order.

    Matches the operation order of the law implementations bit for bit, so
    witnesses like the shear maps reproduce the exponent arguments exactly
    instead of differing by an ulp that e^24 then amplifies.
    """
    out = np.empty(a.shape[:-1] + (matrix.shape[0],), order="F")
    for i in range(matrix.shape[0]):
        acc = None
        for j in range(matrix.shape[1]):
            mij = matrix[i, j]
            if mij != 0.0:
                term = a[..., j] if mij == 1.0 else mij * a[..., j]
                acc = term if acc is None else acc + term
        out[..., i] = 0.0 if acc is None else acc
    return out


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
        return linear_witness(w.target, w.source, np.linalg.inv(w.matrix), order_pair=pair)
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

    # per block, the identities w(ab) = w(a)w(b) and w^-1(w(a)) = a
    worst = np.full(2, -np.inf)
    group_ok = True
    for x, y in cfg.sample_blocks(w.source.dim, (61, 62)):
        fx = w.apply(x)
        for i, (u, v) in enumerate(((w.apply(w.source.mul(x, y)), w.target.mul(fx, w.apply(y))),
                                    (w.apply_inverse(fx), x))):
            gap, ok = tol.check(u, v)
            worst[i] = np.maximum(worst[i], gap)
            group_ok = group_ok and ok
        del x, y, v  # views of the draws: let them go before the next are made
    hom, roundtrip = (float(v) for v in worst)

    order_ok = None
    if w.order_pair is not None:
        pairs = _ordered_pairs(w.order_pair[0], cfg, w.source.dim)
        order_ok = pairs.scan(_order_side(w, w.order_pair[1]))[1][0] is None

    return WitnessReport(hom, roundtrip, True, group_ok, order_ok, cfg.count)


def _order_side(w: IsoWitness, target: LexOrder):
    """The check that w maps each source pair lo < hi to a pair increasing in
    target, as a SampledPairs.scan side."""
    return target, lambda g, block: (w.apply(block.a), w.apply(block.b))


# ---------------------------------------------------------------------------
# canonical realizations


def _canonical_ordered(dim: int) -> list[CanonicalClass]:
    if dim == 1:
        return [_cls("R", Additive(1), (0,))]
    if dim == 2:
        return [
            _cls("R2_abelian", Additive(2), (1, 0)),
            _cls("Aff_plus", SemidirectRR(1.0), (1, 0)),
            _cls("Aff_minus", SemidirectRR(-1.0), (1, 0)),
        ]
    if dim == 3:
        out = [
            _cls("R3", Additive(3), (0, 1, 2)),
            _cls("E_plus", Ec(1.0), (0, 1, 2)),
            _cls("E_minus", Ec(-1.0), (0, 1, 2)),
            _cls("ProdAff_order_yzx", GCd(1.0, 0.0), (0, 1, 2), c=1),
            _cls("ProdAff_order_yzx", GCd(-1.0, 0.0), (0, 1, 2), c=-1),
            _cls("ProdAff_order_zyx", GCd(0.0, 1.0), (0, 1, 2), d=1),
            _cls("ProdAff_order_zyx", GCd(0.0, -1.0), (0, 1, 2), d=-1),
            _cls("ProdAff_order_yxz", KCd(1.0, 0.0), (0, 1, 2), c=1),
            _cls("ProdAff_order_yxz", KCd(-1.0, 0.0), (0, 1, 2), c=-1),
            # representatives of the one-parameter families: f is free
            _cls("K_plus", KCd(1.0, 2.0), (0, 1, 2), f=2.0),
            _cls("K_minus", KCd(-1.0, 2.0), (0, 1, 2), f=2.0),
            _cls("T_plus", Tk(1.0), (2, 1, 0)),
            _cls("T_minus", Tk(-1.0), (2, 1, 0)),
        ]
        return out
    raise InputError("canonical catalogs exist for dimensions 1, 2, 3")


def enumerate_canonical(dim: int) -> list[tuple[CanonicalClass, GroupLaw, LexOrder]]:
    """The ordered canonical catalog: (class, law, order) per class."""
    return [(c, c.law, c.order) for c in _canonical_ordered(dim)]


# ---------------------------------------------------------------------------
# the bracket table


def _bracket_form(law: GroupLaw):
    """The law's bracket table as ("abelian",), ("affine", k, chi),
    ("heisenberg", k, i, j, b) for [e_i, e_j] = b e_k or ("plane", a, lam) for
    [e_a, e_p] = lam[p] e_p; None for no table or no form."""
    table = law.brackets()
    if not table:
        return None if table is None else ("abelian",)
    coeff = _coefficients(table)
    derived = sorted({k for k, _, _ in table})
    if len(derived) == 1:
        k = derived[0]
        if all(k in (i, j) for _, i, j in table):
            return "affine", k, [coeff.get((k, i, k), 0.0) for i in range(law.dim)]
        if len(table) == 1:
            (_, i, j), b = next(iter(table.items()))
            return "heisenberg", k, i, j, b
    if len(derived) == 2 and law.dim == 3:
        a = 3 - sum(derived)
        if all({i, j} == {a, x} for x, i, j in table):
            return "plane", a, {p: coeff[p, a, p] for p in derived}
    return None


def _coefficients(table: dict) -> dict:
    """The table closed under antisymmetry: b for both (k, i, j) and (k, j, i)."""
    return {**table, **{(k, j, i): -b for (k, i, j), b in table.items()}}


def _admits(table: dict, sig: tuple[int, ...]) -> bool:
    """Whether the k least significant coordinates of sig span an ideal for
    every k: no bracket is more significant than its less significant factor."""
    rank = {c: r for r, c in enumerate(sig)}
    return all(rank[k] >= max(rank[i], rank[j]) for k, i, j in table)


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
    if isinstance(law, Tk) and law.k != 0.0:
        target = Tk(1.0)
        return _cls("G3", target), linear_witness(law, target, np.diag([1.0 / law.k, 1.0, 1.0]))

    form = _bracket_form(law)
    if form is None:
        raise DomainError(f"descriptor outside the classified families: {type(law).__name__}")
    matrix = np.zeros((n, n))
    if form[0] == "abelian":
        target = Additive(n)
        label = {1: "R", 2: "R2_abelian", 3: "R3"}[n]
        return _cls(label, target), linear_witness(law, target, np.eye(n))

    if form[0] == "heisenberg":
        # canonical to input: e_0, e_1 to the bracket's factors, e_2 to it
        _, k, i, j, b = form
        matrix[i, 0], matrix[j, 1], matrix[k, 2] = 1.0, 1.0, b
        target = heisenberg()
        return _cls("Heis", target), linear_witness(target, law, matrix)

    if form[0] == "affine":
        # rows e_k, the character chi and, in dimension 3, the last coordinate
        # that completes them
        _, k, chi = form
        matrix[0, k], matrix[1] = 1.0, chi
        target = SemidirectRR(1.0)
        if n == 3:
            matrix[2, max({0, 1, 2} - {k, next(i for i, x in enumerate(chi) if x)})] = 1.0
            target = Product(target, Additive(1))
        return _cls("Aff" if n == 2 else "ProdAff", target), linear_witness(law, target, matrix)

    # the acting coordinate scaled by the larger eigenvalue, then the plane
    _, a, lam = form
    (p, lp), (q, lq) = sorted(lam.items(), key=lambda item: abs(item[1]))
    matrix[0, a], matrix[1, p], matrix[2, q] = lq, 1.0, 1.0
    sd2 = KCd(lp / lq, 1.0)
    return (_cls("SD2", sd2, c=lp / lq),
            linear_witness(law, sd2, matrix, name="module_swap" if p > q else None))


# ---------------------------------------------------------------------------
# ordered classification


def classify_ordered(
    law: GroupLaw,
    order: LexOrder,
    cfg: SampleConfig = SampleConfig(),
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[CanonicalClass, IsoWitness]:
    """Canonical ordered class with an order-preserving verified witness.

    The pair must already be an ordered group; bi-invariance is checked on
    samples first and a counterexample is reported on failure.
    """
    # the witness samples nothing, so it is found first and its order claim is
    # checked in the translation check's one pass; errors keep their order:
    # dimension, order length, translation, no canonical form, invertibility
    _require_dimension(law)
    spec = OrderedGroupSpec(law, order)
    try:
        cls, wit = _classify_ordered(law, order.significance)
    except DomainError as exc:
        unclassified, rep = exc, None
    else:
        # wit makes no order claim yet, so verify_witness checks the group
        # claims only; an invertible witness's order claim joins the pass
        unclassified, rep = None, verify_witness(wit, cfg, tol)
    sides = _translation_sides(spec)
    if rep is not None and rep.invertible:
        sides += (_order_side(wit, cls.order),)
    _, (left, right, *monotone) = _ordered_pairs(order, cfg, law.dim).scan(
        *sides, g=functools.partial(cfg.sample, law.dim, 13))
    if left is not None or right is not None:
        ce = left or right
        side = "left" if left else "right"
        raise DomainError(
            f"pair is not an ordered group: {side} translation fails at "
            f"g={ce[0].tolist()}, h={ce[1].tolist()}, h'={ce[2].tolist()}"
        )
    if unclassified is not None:
        raise unclassified
    _require_invertible(law, cls, rep)
    wit = dataclasses.replace(wit, order_pair=(order, cls.order))
    rep = dataclasses.replace(rep, order_ok=monotone[0] is None)
    return cls, dataclasses.replace(wit, verification=rep)


def _perm_matrix(src_sig: tuple[int, ...], dst_sig: tuple[int, ...]) -> np.ndarray:
    m = np.zeros((len(src_sig), len(src_sig)))
    for s, t in zip(src_sig, dst_sig):
        m[t, s] = 1.0
    return m


def _classify_ordered(law: GroupLaw, sig: tuple[int, ...]):
    if isinstance(law, Tk) and law.k != 0.0 and sig == (2, 1, 0):
        s = 1.0 if law.k > 0 else -1.0
        canon = _cls("T_plus" if s > 0 else "T_minus", Tk(s), (2, 1, 0))
        return canon, linear_witness(law, canon.law, np.diag([1.0 / abs(law.k), 1.0, 1.0]))

    form = _bracket_form(law)
    if form is None or not _admits(law.brackets(), sig):
        raise DomainError(f"no canonical form for {type(law).__name__} with significance {sig}")

    if form[0] == "abelian":
        canon = _canonical_ordered(law.dim)[0]
        return canon, linear_witness(law, canon.law, _perm_matrix(sig, canon.order.significance))

    if isinstance(law, SUT3):
        canon, tail = _classify_ordered(heisenberg(), sig)
        return canon, compose_witness(tail, _classify_group(law)[1])

    # the witness lists the coordinates in significance order and writes the
    # entries `row` into the acting coordinate's row
    if form[0] == "affine":
        # the least significant coordinate acting on e_k acts, and the place
        # of the remaining coordinate picks the order type
        _, k, chi = form
        act = max((i for i, x in enumerate(chi) if x), key=sig.index)
        s = 1.0 if chi[act] > 0 else -1.0
        if law.dim == 2:
            canon = _cls("Aff_plus" if s > 0 else "Aff_minus", SemidirectRR(s), (1, 0))
        else:
            canon = [_cls("ProdAff_order_zyx", GCd(0.0, s), (0, 1, 2), d=s),
                     _cls("ProdAff_order_yzx", GCd(s, 0.0), (0, 1, 2), c=s),
                     _cls("ProdAff_order_yxz", KCd(s, 0.0), (0, 1, 2), c=s),
                     ][sig.index(3 - k - act)]
        # s chi's nonzero entries only, so a zero stays 0.0 and never -0.0
        row = {i: s * x for i, x in enumerate(chi) if x}
    elif form[0] == "heisenberg":
        # [e_sig0, e_sig1] = b e_sig2 and E(s) has 2 s: e_sig0 scales by |b| / 2
        _, _, i, _, b = form
        b = b if i == sig[0] else -b
        act, s = sig[0], 1.0 if b > 0 else -1.0
        canon = _cls("E_plus" if s > 0 else "E_minus", Ec(s), (0, 1, 2))
        row = {act: abs(b) / 2}
    else:
        # e_act leads; the middle coordinate's eigenvalue scales it and its
        # sign picks K_plus or K_minus
        _, act, lam = form
        mid = lam[sig[1]]
        s, f = 1.0 if mid > 0 else -1.0, lam[sig[2]] / abs(mid)
        canon = _cls("K_plus" if s > 0 else "K_minus", KCd(s, f), (0, 1, 2), f=f)
        row = {act: abs(mid)}
    matrix = _perm_matrix(sig, canon.order.significance)
    for i, x in row.items():
        matrix[canon.order.significance[sig.index(act)], i] = x
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
    """The battery read off the bracket table under the order's flag.

    Each direction is the sign of a Lie-algebra character over the positive
    cone: None (mixed) when the character reads a coordinate other than the
    leading one, since the cone holds elements whose leading coordinate is
    tiny next to the others.
    """
    law, sig = spec.law, spec.order.significance
    _require_dimension(law)
    table = law.brackets()
    if table is None or not _admits(table, sig):
        raise DomainError(f"{type(law).__name__} with significance {sig} has no bracket "
                          f"table whose flag is a chain of ideals")
    coeff = _coefficients(table)

    def sign(k, i, j):
        """The sign of the coefficient of e_k in [e_i, e_j]."""
        b = coeff.get((k, i, j), 0.0)
        return (b > 0) - (b < 0)

    if law.dim == 1:
        return {}
    if law.dim == 2:
        s0, fib = sig
        return {"abelian": not table, "fiber_conjugation_direction": sign(fib, s0, fib)}
    s0, mid, fib = sig
    return {
        "abelian_convex_plane": all({i, j} != {mid, fib} for _, i, j in table),
        "commutator_sign": None if sign(fib, fib, mid) else sign(fib, s0, mid),
        "fiber_conjugation_direction": None if sign(fib, mid, fib) else sign(fib, s0, fib),
        "middle_conjugation_direction": sign(mid, s0, mid),
        "middle_action_on_fiber": sign(fib, mid, fib),
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
