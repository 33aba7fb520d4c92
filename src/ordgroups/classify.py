"""Canonical forms and numerically verified isomorphism witnesses.

Group-level labels:   R, R2_abelian, Aff, R3, Heis, ProdAff, SD2(c), G3.
Ordered labels:       R, R2_abelian, Aff_plus/minus, R3, E_plus/minus,
                      ProdAff_order_yzx / _zyx / _yxz (sign parameter),
                      K_plus(f) / K_minus(f), T_plus / T_minus.

The three ProdAff labels name the order type of the product-with-a-line
group; the sign parameter distinguishes the expanding and contracting
variants, which are not isomorphic as ordered groups.

Six charts present Aff x R: both Product orders of an affine chart with a
line, GCd(c, 0), GCd(0, d), KCd(c, 0) and KCd(0, d). In each, one coordinate
is normal, one acts on it by e^(c t) and one is free (central). _roles reads
those three chart indices, and one branch classifies all six charts from
them. A lexicographic order is bi-invariant only when the acting coordinate
is more significant than the normal one, so the free coordinate's place
picks the order type: first (zyx), between the two (yzx) or last (yxz).

Every witness is an explicit coordinate map with named source and target
laws; classification verifies each witness numerically, once, and returns it
carrying that verification.
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
    commutator,
    conjugate,
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
    out = np.zeros(a.shape[:-1] + (matrix.shape[0],), order="F")
    for i in range(matrix.shape[0]):
        acc = None
        for j in range(matrix.shape[1]):
            mij = matrix[i, j]
            if mij != 0.0:
                term = a[..., j] if mij == 1.0 else mij * a[..., j]
                acc = term if acc is None else acc + term
        if acc is not None:
            out[..., i] = acc
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

    @property
    def group_verified(self) -> bool:
        return self.verification is not None and self.verification.group_ok

    @property
    def order_verified(self) -> bool:
        return self.verification is not None and bool(self.verification.order_ok)

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
            "group_verified": self.group_verified,
            "order_verified": self.order_verified,
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
# group-level classification


def _is_abelian_law(law: GroupLaw) -> bool:
    if isinstance(law, Additive):
        return True
    if isinstance(law, SemidirectRR):
        return law.c == 0.0
    if isinstance(law, Ec):
        return law.c == 0.0
    if isinstance(law, (GCd, KCd)):
        return law.c == 0.0 and law.d == 0.0
    if isinstance(law, Product):
        return _is_abelian_law(law.a) and _is_abelian_law(law.b)
    return False


_RN_LABEL = {1: "R", 2: "R2_abelian", 3: "R3"}


def _roles(law: GroupLaw):
    """Chart indices (normal, acting, free) and the exponent c of an Aff x R
    chart, whose acting coordinate t scales the normal one by e^(c t); None
    for any other chart. Abelian charts (c = 0) are classified before this."""
    if isinstance(law, Product):
        if isinstance(law.a, SemidirectRR) and isinstance(law.b, Additive) and law.b.n == 1:
            return 0, 1, 2, law.a.c
        if isinstance(law.a, Additive) and law.a.n == 1 and isinstance(law.b, SemidirectRR):
            return 1, 2, 0, law.b.c
    if isinstance(law, GCd) and 0.0 in (law.c, law.d):
        return (2, 0, 1, law.c) if law.d == 0.0 else (2, 1, 0, law.d)
    if isinstance(law, KCd) and 0.0 in (law.c, law.d):
        return (1, 0, 2, law.c) if law.d == 0.0 else (2, 0, 1, law.d)
    return None


def classify_group(
    law: GroupLaw, cfg: SampleConfig = SampleConfig(), tol: Tolerance = DEFAULT_TOL
) -> tuple[CanonicalClass, IsoWitness]:
    """Canonical group-isomorphism class plus a verified witness map."""
    cls, wit = _classify_group(law)
    rep = verify_witness(wit, cfg, tol)
    _require_invertible(law, cls, rep)
    return cls, dataclasses.replace(wit, verification=rep)


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
    if n > 3:
        raise DomainError("classification covers dimensions 1 to 3 only")

    if _is_abelian_law(law):
        target = Additive(n)
        return _cls(_RN_LABEL[n], target), linear_witness(law, target, np.eye(n))

    if isinstance(law, SemidirectRR):
        target = SemidirectRR(1.0)
        return (
            _cls("Aff", target),
            linear_witness(law, target, [[1.0, 0.0], [0.0, law.c]]),
        )

    if isinstance(law, Ec):
        # the canonical-to-input scaling map doubles the cocycle coefficient
        target = heisenberg()
        return (
            _cls("Heis", target),
            linear_witness(target, law, np.diag([1.0, 1.0, 2.0 * law.c])),
        )

    if isinstance(law, SUT3):
        target = heisenberg()
        return (
            _cls("Heis", target),
            function_witness(law, target, sut3_to_heis, heis_to_sut3,
                             name="sut3_to_heis"),
        )

    parts = _roles(law)
    if parts is not None:
        i_norm, i_act, i_free, c = parts
        target = Product(SemidirectRR(1.0), Additive(1))
        matrix = np.zeros((3, 3))
        matrix[0, i_norm] = 1.0
        matrix[1, i_act] = c
        matrix[2, i_free] = 1.0
        return _cls("ProdAff", target), linear_witness(law, target, matrix)

    if isinstance(law, GCd):
        # the character c x + d y acts on z; y completes it to plane coordinates
        target = Product(SemidirectRR(1.0), Additive(1))
        matrix = [[0.0, 0.0, 1.0], [law.c, law.d, 0.0], [0.0, 1.0, 0.0]]
        return _cls("ProdAff", target), linear_witness(law, target, matrix)

    if isinstance(law, KCd):
        c, d = law.c, law.d
        if abs(c) <= abs(d):
            t = c / d
            sd2 = KCd(t, 1.0)
            return (
                _cls("SD2", sd2, c=t),
                linear_witness(law, sd2, np.diag([d, 1.0, 1.0])),
            )
        t = d / c
        sd2 = KCd(t, 1.0)
        swap_scale = [[c, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        return (
            _cls("SD2", sd2, c=t),
            linear_witness(law, sd2, swap_scale, name="module_swap"),
        )

    if isinstance(law, Tk):
        if law.k == 0.0:
            sd2 = KCd(1.0, 1.0)
            perm = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
            return _cls("SD2", sd2, c=1.0), linear_witness(law, sd2, perm)
        target = Tk(1.0)
        return (
            _cls("G3", target),
            linear_witness(law, target, np.diag([1.0 / law.k, 1.0, 1.0])),
        )

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

    The pair must already be an ordered group; bi-invariance is checked on
    samples first and a counterexample is reported on failure.
    """
    # the witness samples nothing, so it is found first and its order claim
    # checked in the translation check's one pass over the pairs; the errors
    # keep their order: translation, then no canonical form, then invertibility
    try:
        cls, wit = _classify_ordered(law, order.significance)
    except DomainError as exc:
        unclassified, rep = exc, None
    else:
        # wit makes no order claim yet, so verify_witness checks the group
        # claims only; an invertible witness's order claim joins the pass
        unclassified, rep = None, verify_witness(wit, cfg, tol)
    sides = _translation_sides(OrderedGroupSpec(law, order))
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
    n = law.dim

    if _is_abelian_law(law):
        canon = _canonical_ordered(n)[0]
        matrix = _perm_matrix(sig, canon.order.significance)
        return canon, linear_witness(law, canon.law, matrix)

    if isinstance(law, SemidirectRR) and sig == (1, 0):
        s = 1.0 if law.c > 0 else -1.0
        canon = _cls("Aff_plus" if s > 0 else "Aff_minus", SemidirectRR(s), (1, 0))
        return canon, linear_witness(law, canon.law, np.diag([1.0, abs(law.c)]))

    if isinstance(law, Ec):
        if sig == (0, 1, 2):
            s = 1.0 if law.c > 0 else -1.0
            canon = _cls("E_plus" if s > 0 else "E_minus", Ec(s), (0, 1, 2))
            return canon, linear_witness(law, canon.law, np.diag([abs(law.c), 1.0, 1.0]))
        if sig == (1, 0, 2):
            # swapping the plane coordinates flips the cocycle sign
            canon, tail = _classify_ordered(Ec(-law.c), (0, 1, 2))
            return canon, linear_witness(law, canon.law, tail.matrix @ _perm_matrix(sig, (0, 1, 2)))

    if isinstance(law, SUT3) and sig in ((0, 1, 2), (1, 0, 2)):
        canon, tail = _classify_ordered(heisenberg(), sig)
        fwd = (lambda a: tail.apply(sut3_to_heis(a)))
        bwd = (lambda a: heis_to_sut3(tail.apply_inverse(a)))
        return canon, function_witness(law, canon.law, fwd, bwd,
                                       name="sut3_to_heis . linear")

    parts = _roles(law)
    if parts is not None:
        i_norm, i_act, i_free, c = parts
        if sig.index(i_act) < sig.index(i_norm):
            # the place of the free coordinate picks the order type
            s = 1.0 if c > 0 else -1.0
            canon = [_cls("ProdAff_order_zyx", GCd(0.0, s), (0, 1, 2), d=s),
                     _cls("ProdAff_order_yzx", GCd(s, 0.0), (0, 1, 2), c=s),
                     _cls("ProdAff_order_yxz", KCd(s, 0.0), (0, 1, 2), c=s)][sig.index(i_free)]
            # coordinates in significance order, the acting one scaled by |c|
            matrix = _perm_matrix(sig, (0, 1, 2))
            matrix[:, i_act] *= abs(c)
            return canon, linear_witness(law, canon.law, matrix)

    if isinstance(law, GCd):
        if sig == (0, 1, 2):
            s = 1.0 if law.d > 0 else -1.0
            canon = _cls("ProdAff_order_zyx", GCd(0.0, s), (0, 1, 2), d=s)
            matrix = [[1.0, 0.0, 0.0], [s * law.c, s * law.d, 0.0], [0.0, 0.0, 1.0]]
            return canon, linear_witness(law, canon.law, matrix)
        if sig == (1, 0, 2):
            canon, tail = _classify_ordered(GCd(law.d, law.c), (0, 1, 2))
            return canon, linear_witness(law, canon.law, tail.matrix @ _perm_matrix(sig, (0, 1, 2)))

    if isinstance(law, KCd):
        c, d = law.c, law.d
        if sig == (0, 2, 1):
            canon, tail = _classify_ordered(KCd(d, c), (0, 1, 2))
            return canon, linear_witness(law, canon.law, tail.matrix @ _perm_matrix(sig, (0, 1, 2)))
        if sig == (0, 1, 2):
            if c > 0:
                canon = _cls("K_plus", KCd(1.0, d / c), (0, 1, 2), f=d / c)
            else:
                canon = _cls("K_minus", KCd(-1.0, -d / c), (0, 1, 2), f=-d / c)
            return canon, linear_witness(law, canon.law, np.diag([abs(c), 1.0, 1.0]))

    if isinstance(law, Tk) and law.k == 0.0 and sig[0] == 2:
        # split case: listing the coordinates in significance order lands in
        # the diagonal family, whose two module coordinates are interchangeable
        canon = _cls("K_plus", KCd(1.0, 1.0), (0, 1, 2), f=1.0)
        return canon, linear_witness(law, canon.law, _perm_matrix(sig, (0, 1, 2)))

    if isinstance(law, Tk) and sig == (2, 1, 0):
        s = 1.0 if law.k > 0 else -1.0
        canon = _cls("T_plus" if s > 0 else "T_minus", Tk(s), (2, 1, 0))
        return canon, linear_witness(law, canon.law, np.diag([1.0 / abs(law.k), 1.0, 1.0]))

    raise DomainError(
        f"no canonical form for {type(law).__name__} with significance {sig}"
    )


# ---------------------------------------------------------------------------
# separating invariants


@dataclass(frozen=True)
class Evidence:
    invariant: str
    value_a: object
    value_b: object
    samples: int

    def to_dict(self):
        return {
            "separated": True,
            "invariant": self.invariant,
            "value_a": self.value_a,
            "value_b": self.value_b,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class NotSeparated:
    samples: int = 0

    def to_dict(self):
        return {"separated": False, "samples": self.samples}


def _positive(rng, count, box):
    return rng.uniform(0.5, box, size=count)


def _mixed_sign_profile(values: np.ndarray, scale: float):
    """Collapse sampled signed quantities to +1 / 0 / -1, or None when mixed."""
    cut = 1e-9 * max(1.0, scale)
    pos = values > cut
    neg = values < -cut
    if pos.all():
        return 1
    if neg.all():
        return -1
    if (~pos & ~neg).all():
        return 0
    return None


def _invariant_values(spec: OrderedGroupSpec, cfg: SampleConfig) -> dict:
    law, order = spec.law, spec.order
    sig = order.significance
    dim = law.dim
    rng = cfg.rng(stream=71)
    count = cfg.count
    box = cfg.box

    def rand_g():
        g = rng.uniform(-box, box, size=(count, dim))
        g[:, sig[0]] = _positive(rng, count, box)
        return g

    def supported(idx, positive):
        v = np.zeros((count, dim))
        v[:, idx] = _positive(rng, count, box) if positive else rng.uniform(
            -box, box, size=count)
        return v

    values: dict = {}
    if dim >= 2:
        if dim == 2:
            a = rng.uniform(-box, box, size=(count, dim))
            b = rng.uniform(-box, box, size=(count, dim))
            values["abelian"] = DEFAULT_TOL.close(law.mul(a, b), law.mul(b, a))
            g = rand_g()
            h = supported(sig[1], positive=True)
            delta = conjugate(law, g, h)[:, sig[1]] - h[:, sig[1]]
            values["fiber_conjugation_direction"] = _mixed_sign_profile(
                delta, float(np.max(np.abs(h))))
            return values

        # dim 3: convex plane on the two least significant coordinates
        plane = [sig[1], sig[2]]
        pa = np.zeros((count, dim))
        pb = np.zeros((count, dim))
        for idx in plane:
            pa[:, idx] = rng.uniform(-box, box, size=count)
            pb[:, idx] = rng.uniform(-box, box, size=count)
        values["abelian_convex_plane"] = DEFAULT_TOL.close(law.mul(pa, pb), law.mul(pb, pa))

        g = rand_g()
        h_mid = supported(sig[1], positive=True)
        comm2 = commutator(law, g, h_mid)
        values["commutator_sign"] = _mixed_sign_profile(
            comm2[:, sig[2]], float(np.max(np.abs(comm2))))

        h_fib = supported(sig[2], positive=True)
        delta = conjugate(law, g, h_fib)[:, sig[2]] - h_fib[:, sig[2]]
        values["fiber_conjugation_direction"] = _mixed_sign_profile(
            delta, float(np.max(np.abs(h_fib))))

        delta = conjugate(law, g, h_mid)[:, sig[1]] - h_mid[:, sig[1]]
        values["middle_conjugation_direction"] = _mixed_sign_profile(
            delta, float(np.max(np.abs(h_mid))))

        u_mid = supported(sig[1], positive=True)
        delta = conjugate(law, u_mid, h_fib)[:, sig[2]] - h_fib[:, sig[2]]
        values["middle_action_on_fiber"] = _mixed_sign_profile(
            delta, float(np.max(np.abs(h_fib))))
    return values


_BATTERY = (
    "abelian",
    "abelian_convex_plane",
    "commutator_sign",
    "fiber_conjugation_direction",
    "middle_conjugation_direction",
    "middle_action_on_fiber",
)


def separating_invariant(
    a: OrderedGroupSpec, b: OrderedGroupSpec, cfg: SampleConfig = SampleConfig()
):
    """First computable invariant telling the two ordered specs apart.

    Both specs are assumed to pass the ordered-group checks. Returns Evidence
    naming the invariant, or NotSeparated when the battery cannot tell them
    apart (as for the diagonal family, whose parameter is catalog knowledge).
    """
    if a.law.dim != b.law.dim:
        return Evidence("dimension", a.law.dim, b.law.dim, 0)
    va = _invariant_values(a, cfg)
    vb = _invariant_values(b, cfg)
    for name in _BATTERY:
        if name not in va or name not in vb:
            continue
        if va[name] is None or vb[name] is None:
            continue
        if va[name] != vb[name]:
            return Evidence(name, va[name], vb[name], cfg.count)
    return NotSeparated(samples=cfg.count)
