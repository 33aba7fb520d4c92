"""Seeded acceptance suite shared by the CLI selftest and the test suite.

Each criterion draws from its own sampler (seed + criterion index) so the
criteria can run in any order, or concurrently, with identical results.
A criterion passes on the verdicts of its checks, each through the one
Tolerance rule; the residuals it reports are the raw largest gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import (
    Evidence,
    classify_ordered,
    enumerate_canonical,
    function_witness,
    linear_witness,
    separating_invariant,
    verify_witness,
)
from .cohomology import (
    Cochain,
    check_coboundary,
    check_cocycle,
    coboundary,
    cocycle_residual,
    extension_from_cocycle,
    g3_cocycle,
    heis_cocycle,
)
from .errors import DomainError, InputError
from .groups import (
    Additive,
    Ec,
    GCd,
    KCd,
    Product,
    SemidirectRR,
    SUT3,
    Tk,
    check_group_axioms,
    commutator,
    g3_module,
    heis_module,
    heis_to_sut3,
    heisenberg,
    one_param_through,
    sut3_to_heis,
)
from .orders import (
    LexOrder,
    OrderedGroupSpec,
    check_conjugation_order_preserving,
    check_translation_invariance,
    compare,
    Comparison,
)
from .tolerance import SampleConfig, Tolerance


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    samples: int = 1000
    box: float = 3.0
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def tolerance(self) -> Tolerance:
        return Tolerance(self.abs_tol, self.rel_tol)

    def sampler(self, criterion_index: int, count: int | None = None) -> SampleConfig:
        return SampleConfig(
            seed=self.seed + criterion_index,
            count=self.samples if count is None else count,
            box=self.box,
        )


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "details": self.details}


def _law_grid():
    laws = [Additive(1), Additive(2), Additive(3)]
    laws += [SemidirectRR(c) for c in (-2.0, -1.0, 1.0, 2.0)]
    laws += [Ec(c) for c in (-4.0, -1.0, 0.5, 1.0, 3.0)]
    laws.append(SUT3())
    grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    laws += [GCd(c, d) for c in grid for d in grid]
    laws += [KCd(c, d) for c in grid for d in grid]
    laws += [Tk(k) for k in (-2.0, -1.0, 1.0, 2.0)]
    return laws


def criterion_group_axioms(cfg: RunConfig) -> CriterionResult:
    sc = cfg.sampler(1)
    tol = cfg.tolerance()
    worst = {"associativity": 0.0, "identity": 0.0, "inverse": 0.0}
    worst_law = None
    all_passed = True
    for law in _law_grid():
        rep = check_group_axioms(law, sc, tol)
        all_passed = all_passed and rep.passed
        peak = max(rep.associativity, rep.identity, rep.inverse)
        if peak >= max(worst.values()):
            worst_law = law.descriptor()
        for key in worst:
            worst[key] = max(worst[key], getattr(rep, key))
    return CriterionResult(
        "group_axioms",
        all_passed,
        {"max_residuals": worst, "worst_law": worst_law, "laws_checked": len(_law_grid())},
    )


def _random_test_cochains(module, rng, coords=None):
    """Seeded polynomial and exponential cochains of degrees 0 and 1.

    coords restricts the cochain to chart coordinates that stay bounded under
    products (the normal coordinate of an affine chart grows exponentially,
    which would swamp the cancellation this criterion measures).
    """
    dim = module.H.dim
    idx = list(range(dim)) if coords is None else list(coords)
    const = rng.uniform(-1, 1, size=module.N.dim)
    lin = rng.uniform(-1, 1, size=len(idx))
    quad = rng.uniform(-1, 1, size=(len(idx), len(idx)))
    expw = rng.uniform(-0.5, 0.5, size=len(idx))
    amp = rng.uniform(-1, 1)

    def poly(g):
        v = g[..., idx]
        val = v @ lin + np.einsum("...i,ij,...j->...", v, quad, v)
        return val[..., None]

    def expo(g):
        return (amp * np.exp(g[..., idx] @ expw))[..., None]

    return [
        Cochain(0, lambda: const, module),
        Cochain(1, poly, module),
        Cochain(1, expo, module),
    ]


def criterion_cochain_calculus(cfg: RunConfig) -> CriterionResult:
    sc = cfg.sampler(2)
    tol = cfg.tolerance()
    details = {}

    # d(d(f)) vanishes for random test cochains over both module shapes;
    # over the affine chart the cochains read the acting coordinate, which
    # stays bounded under products
    dd = []
    for module, coords in ((heis_module(), None), (g3_module(), (1,))):
        rng = sc.rng(stream=81)
        for f in _random_test_cochains(module, rng, coords):
            dd.append(check_coboundary(coboundary(f), sc, range(82, 84 + f.degree), tol))
    details["dd_residual"] = max([0.0] + [r.residual for r in dd])

    heis = [check_cocycle(heis_cocycle(c), sc, tol) for c in (0.5, 1.0, -1.0)]
    g3 = [check_cocycle(g3_cocycle(k), sc, tol) for k in (1.0, -2.0)]
    details["heis_cocycle_residual"] = max(r.residual for r in heis)
    details["g3_cocycle_residual"] = max(r.residual for r in g3)

    base = g3_cocycle(1.0)

    def corrupted(g, h):
        # the cocycle's own pairing, stripped of its exponential factor,
        # breaks the cocycle identity with an O(1) residual
        return base.fn(g, h) + (h[..., 0] * g[..., 1])[..., None]

    bad = Cochain(2, corrupted, base.module)
    bad_res = cocycle_residual(bad, sc)
    details["corrupted_residual"] = bad_res
    rejected = False
    try:
        extension_from_cocycle(bad, sc, cfg.tolerance())
    except DomainError:
        rejected = True
    details["corrupted_rejected"] = rejected

    passed = all(r.passed for r in dd + heis + g3) and bad_res > 1e-3 and rejected
    return CriterionResult("cochain_calculus", passed, details)


def _law_agreement(law_a, law_b, sc: SampleConfig, tol: Tolerance, perm=None):
    """The largest gap between the two laws on sampled pairs, law_a's
    coordinates sent through the permutation perm, and whether they agree."""
    u = sc.sample(law_a.dim, stream=83)
    v = sc.sample(law_a.dim, stream=84)
    if perm is None:
        lhs = law_a.mul(u, v)
        rhs = law_b.mul(u, v)
    else:
        lhs = law_a.mul(u, v)[:, perm]
        rhs = law_b.mul(u[:, perm], v[:, perm])
    gap, ok = tol.check(lhs, rhs)
    return float(gap), ok


def criterion_extension_builder(cfg: RunConfig) -> CriterionResult:
    sc = cfg.sampler(3)
    tol = cfg.tolerance()
    heis_law = extension_from_cocycle(heis_cocycle(0.5), sc, tol)
    # cocycle chart is module-first (z, x, y); compare against the z-last chart
    checks = {"heis_vs_ec": [_law_agreement(heis_law, heisenberg(), sc, tol, perm=[1, 2, 0])]}
    checks["g3_vs_tk"] = [
        _law_agreement(extension_from_cocycle(g3_cocycle(k), sc, tol), Tk(k), sc, tol)
        for k in (1.0, -2.0)]
    zero = Cochain(2, lambda g, h: np.zeros(g.shape[:-1] + (1,)), g3_module())
    split = extension_from_cocycle(zero, sc, tol)
    checks["split_vs_tk0"] = [_law_agreement(split, Tk(0.0), sc, tol)]

    details = {key: max(gap for gap, _ in found) for key, found in checks.items()}
    passed = all(ok for found in checks.values() for _, ok in found)
    return CriterionResult("extension_builder", passed, details)


def _paper_witnesses():
    """Every named isomorphism witness, with order claims where stated."""
    rev = LexOrder((1, 0))
    xy = LexOrder((0, 1, 2))
    tchart = LexOrder((2, 1, 0))
    heis = heisenberg()
    out = []

    out.append(("sut3_to_heis", function_witness(
        SUT3(), heis, sut3_to_heis, heis_to_sut3, name="sut3_to_heis")))
    out.append(("heis_to_sut3", function_witness(
        heis, SUT3(), heis_to_sut3, sut3_to_heis, name="heis_to_sut3")))

    for c, d in ((2.0, 1.0), (-1.0, 2.0), (3.0, -2.0)):
        out.append((f"semidirect_{c}_{d}", linear_witness(
            SemidirectRR(c), SemidirectRR(d), np.diag([1.0, c / d]))))

    for c in (1.0, -4.0, 3.0):
        out.append((f"heis_scaling_{c}", linear_witness(
            heis, Ec(c), np.diag([1.0, 1.0, 2.0 * c]))))

    for c in (2.0, -3.0):
        out.append((f"module_swap_{c}", linear_witness(
            KCd(c, 1.0), KCd(1.0 / c, 1.0),
            [[c, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])))

    for k in (-2.0, 3.0):
        out.append((f"tk_scaling_{k}", linear_witness(
            Tk(k), Tk(1.0), np.diag([1.0 / k, 1.0, 1.0]))))

    # ordered canonicalization witnesses
    for c in (-2.0, 3.0):
        s = 1.0 if c > 0 else -1.0
        out.append((f"aff_ordered_{c}", linear_witness(
            SemidirectRR(c), SemidirectRR(s), np.diag([1.0, abs(c)]),
            order_pair=(rev, rev))))
    for c in (-4.0, 3.0):
        s = 1.0 if c > 0 else -1.0
        out.append((f"ec_ordered_{c}", linear_witness(
            Ec(c), Ec(s), np.diag([abs(c), 1.0, 1.0]), order_pair=(xy, xy))))
    out.append(("gcd_shear_pos", linear_witness(
        GCd(2.0, 3.0), GCd(0.0, 1.0),
        [[1.0, 0.0, 0.0], [2.0, 3.0, 0.0], [0.0, 0.0, 1.0]], order_pair=(xy, xy))))
    out.append(("gcd_shear_neg", linear_witness(
        GCd(2.0, -3.0), GCd(0.0, -1.0),
        [[1.0, 0.0, 0.0], [-2.0, 3.0, 0.0], [0.0, 0.0, 1.0]], order_pair=(xy, xy))))
    out.append(("gcd_scale_pos", linear_witness(
        GCd(2.0, 0.0), GCd(1.0, 0.0), np.diag([2.0, 1.0, 1.0]), order_pair=(xy, xy))))
    out.append(("gcd_scale_neg", linear_witness(
        GCd(-2.0, 0.0), GCd(-1.0, 0.0), np.diag([2.0, 1.0, 1.0]), order_pair=(xy, xy))))
    out.append(("kcd_ordered_pos", linear_witness(
        KCd(2.0, 6.0), KCd(1.0, 3.0), np.diag([2.0, 1.0, 1.0]), order_pair=(xy, xy))))
    out.append(("kcd_ordered_neg", linear_witness(
        KCd(-2.0, 6.0), KCd(-1.0, 3.0), np.diag([2.0, 1.0, 1.0]), order_pair=(xy, xy))))
    out.append(("kcd_trivial_fiber", linear_witness(
        KCd(2.0, 0.0), KCd(1.0, 0.0), np.diag([2.0, 1.0, 1.0]), order_pair=(xy, xy))))
    for k in (-2.0, 3.0):
        s = 1.0 if k > 0 else -1.0
        out.append((f"tk_ordered_{k}", linear_witness(
            Tk(k), Tk(s), np.diag([1.0 / abs(k), 1.0, 1.0]),
            order_pair=(tchart, tchart))))
    return out


def criterion_witnesses(cfg: RunConfig) -> CriterionResult:
    sc = cfg.sampler(4)
    tol = cfg.tolerance()
    worst_hom = 0.0
    worst_name = None
    failures = []
    for name, wit in _paper_witnesses():
        rep = verify_witness(wit, sc, tol)
        if rep.hom_residual > worst_hom:
            worst_hom, worst_name = rep.hom_residual, name
        # a claimed order that fails, or cannot be checked, fails rep.passed
        if not rep.passed:
            failures.append(name)
    return CriterionResult(
        "isomorphism_witnesses",
        not failures,
        {"witnesses": len(_paper_witnesses()), "max_hom_residual": worst_hom,
         "worst": worst_name, "failures": failures},
    )


def criterion_ordered_checks(cfg: RunConfig) -> CriterionResult:
    sc = cfg.sampler(5, count=cfg.samples * 10)
    details = {"classes": []}
    ok = True
    for dim in (1, 2, 3):
        for cls, law, order in enumerate_canonical(dim):
            spec = OrderedGroupSpec(law, order)
            rep = check_translation_invariance(spec, sc)
            conj_ok = True
            sig = order.significance
            if dim >= 2:
                for coords in ([sig[-1]], list(sig[1:])):
                    crep = check_conjugation_order_preserving(spec, tuple(coords), sc)
                    conj_ok = conj_ok and crep.passed
            entry_ok = rep.passed and conj_ok
            ok = ok and entry_ok
            details["classes"].append({**cls.to_dict(), "passed": entry_ok, "pairs": rep.checked})

    # negative control: dominant normal coordinate breaks right invariance
    bad = OrderedGroupSpec(SemidirectRR(1.0), LexOrder((0, 1)))
    rep = check_translation_invariance(bad, sc)
    h, hp, g = np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([-1.0, 0.0])
    law = bad.law
    doc_holds = (
        compare(bad.order, h, hp) is Comparison.LT
        and compare(bad.order, law.mul(h, g), law.mul(hp, g)) is Comparison.GT
    )
    details["negative_control"] = {
        "right_failed": not rep.right_ok,
        "left_ok": rep.left_ok,
        "documented_counterexample_holds": doc_holds,
    }
    ok = ok and not rep.right_ok and doc_holds
    return CriterionResult("ordered_group_checks", ok, details)


def criterion_separating_invariants(cfg: RunConfig) -> CriterionResult:
    sc = cfg.sampler(6)
    tol = cfg.tolerance()
    details = {}
    rng = sc.rng(stream=91)
    n = sc.count
    # uniform needs low <= high: below a box of 0.5 the positive coordinates are the box
    low = min(0.5, sc.box)

    # commutator in the central-extension family: exact value, full separation
    exact_ok = True
    signs_ok = True
    for c in (1.0, -1.0):
        law = Ec(c)
        g = np.column_stack([
            rng.uniform(low, sc.box, n),
            rng.uniform(-sc.box, sc.box, n),
            rng.uniform(-sc.box, sc.box, n),
        ])
        h = np.column_stack([
            np.zeros(n),
            rng.uniform(low, sc.box, n),
            rng.uniform(-sc.box, sc.box, n),
        ])
        comm = commutator(law, g, h)
        expect = np.column_stack(
            [np.zeros(n), np.zeros(n), 2.0 * c * g[:, 0] * h[:, 1]])
        exact_ok = exact_ok and tol.close(comm, expect)
        signs = np.sign(comm[:, 2])
        signs_ok = signs_ok and bool(np.all(signs == (1.0 if c > 0 else -1.0)))
    details["e_commutator_exact"] = exact_ok
    details["e_commutator_sign_separation"] = signs_ok

    xy = LexOrder((0, 1, 2))
    e_plus = OrderedGroupSpec(Ec(1.0), xy)
    e_minus = OrderedGroupSpec(Ec(-1.0), xy)
    ev = separating_invariant(e_plus, e_minus)
    details["e_pair"] = ev.to_dict()
    sep_e = isinstance(ev, Evidence) and ev.invariant == "commutator_sign"

    rev = LexOrder((1, 0))
    ev = separating_invariant(
        OrderedGroupSpec(SemidirectRR(1.0), rev),
        OrderedGroupSpec(SemidirectRR(-1.0), rev))
    details["aff_pair"] = ev.to_dict()
    sep_aff = isinstance(ev, Evidence) and "conjugation" in ev.invariant

    sep_abelian = True
    for gg, kk in ((GCd(0.0, 1.0), KCd(1.0, 0.0)), (GCd(0.0, -1.0), KCd(-1.0, 0.0))):
        ev = separating_invariant(
            OrderedGroupSpec(gg, xy), OrderedGroupSpec(kk, xy))
        sep_abelian = sep_abelian and isinstance(ev, Evidence) and (
            ev.invariant == "abelian_convex_plane")
    details["nontrivial_vs_product_pair"] = sep_abelian

    ev = separating_invariant(e_plus, OrderedGroupSpec(Ec(1.0), xy))
    details["identical_not_separated"] = not isinstance(ev, Evidence)

    passed = all([exact_ok, signs_ok, sep_e, sep_aff, sep_abelian,
                  details["identical_not_separated"]])
    return CriterionResult("separating_invariants", passed, details)


def _random_family_draws(rng, total: int):
    """Parameter draws across every classified family, canonical chart orders."""
    draws = []
    xy = (0, 1, 2)

    def par(signed=True):
        v = rng.uniform(0.25, 2.0)
        if signed and rng.uniform() < 0.5:
            v = -v
        return float(v)

    makers = [
        lambda: (SemidirectRR(par()), (1, 0)),
        lambda: (Ec(par()), xy),
        lambda: (SUT3(), xy),
        lambda: (GCd(par(), par()), xy),
        lambda: (GCd(par(), 0.0), xy),
        lambda: (GCd(0.0, par()), xy),
        lambda: (KCd(par(), par()), xy),
        lambda: (KCd(par(), 0.0), xy),
        lambda: (Tk(par()), (2, 1, 0)),
        lambda: (Additive(3), (2, 0, 1)),
        lambda: (Product(SemidirectRR(par()), Additive(1)), (1, 0, 2)),
        lambda: (Product(Additive(1), SemidirectRR(par())), (2, 1, 0)),
    ]
    for i in range(total):
        law, sig = makers[i % len(makers)]()
        draws.append((law, LexOrder(sig)))
    return draws


def criterion_classifier_roundtrip(cfg: RunConfig, total: int = 200) -> CriterionResult:
    sc = cfg.sampler(7)
    tol = cfg.tolerance()
    rng = sc.rng(stream=92)
    failures = []
    worst = 0.0
    for law, order in _random_family_draws(rng, total):
        cls, wit = classify_ordered(law, order, sc, tol)
        rep = wit.verification
        worst = max(worst, rep.hom_residual)
        ok = rep.passed
        cls2, wit2 = classify_ordered(cls.law, cls.order, sc, tol)
        same = cls2.label == cls.label and cls2.params == cls.params
        ident = wit2.matrix is not None and np.array_equal(
            wit2.matrix, np.eye(cls.law.dim))
        if not (ok and same and ident):
            failures.append({"law": law.descriptor(), "label": cls.label,
                             "verified": ok, "same_label": same, "identity": ident})
    return CriterionResult(
        "classifier_roundtrip",
        not failures,
        {"draws": total, "max_hom_residual": worst, "failures": failures[:5]},
    )


def criterion_one_param_family(cfg: RunConfig) -> CriterionResult:
    sc = cfg.sampler(8)
    tol = cfg.tolerance()
    rng = sc.rng(stream=93)
    n = sc.count
    worst = 0.0
    # the values reach about 1e7, so the pass rule is the mixed per-coordinate
    # one; max_residual stays the raw largest |lhs - rhs|
    passed = True
    for c, d in ((1.0, 2.0), (1.0, -0.5), (-1.0, 3.0), (2.0, 2.0)):
        law = KCd(c, d)
        for acting_zero in (False, True):
            base = rng.uniform(-sc.box, sc.box, size=3)
            if acting_zero:
                base[0] = 0.0
            # the interpolation interval: w + w' stays within one subgroup period
            w1 = rng.uniform(-1.0, 1.0, size=n)
            w2 = rng.uniform(-1.0, 1.0, size=n)
            lhs = one_param_through(law, base, w1 + w2)
            rhs = law.mul(one_param_through(law, base, w1),
                          one_param_through(law, base, w2))
            at_one = one_param_through(law, base, np.array(1.0))
            for gap, ok in (tol.check(lhs, rhs), tol.check(at_one, base)):
                worst, passed = max(worst, float(gap)), passed and ok
    return CriterionResult(
        "one_param_homomorphisms", passed, {"max_residual": worst}
    )


CRITERIA = (
    criterion_group_axioms,
    criterion_cochain_calculus,
    criterion_extension_builder,
    criterion_witnesses,
    criterion_ordered_checks,
    criterion_separating_invariants,
    criterion_classifier_roundtrip,
    criterion_one_param_family,
)


def run_all(cfg: RunConfig = RunConfig()) -> dict:
    results = []
    for fn in CRITERIA:
        name = fn.__name__.removeprefix("criterion_")
        try:
            results.append(fn(cfg))
        except (DomainError, InputError) as exc:
            # a criterion can reject its own construction under absurd
            # tolerances; report that as the criterion's failure
            results.append(CriterionResult(name, False, {"error": str(exc)}))
    return {
        "config": {
            "seed": cfg.seed, "samples": cfg.samples, "box": cfg.box,
            "abs_tol": cfg.abs_tol, "rel_tol": cfg.rel_tol,
        },
        "criteria": [r.to_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
