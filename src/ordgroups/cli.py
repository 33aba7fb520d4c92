"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 math domain error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

# lazy module objects (see __init__): each subcommand runs only the modules it calls
from . import classify, cohomology, orders, selftest
from .errors import DomainError, InputError
from .groups import as_coords, check_group_axioms, commutator, conjugate, invert, multiply
from .jsonio import dumps, law_from_descriptor, named_cocycle, order_from_descriptor
from .tolerance import SampleConfig, Tolerance

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--box", type=float, default=3.0)
    p.add_argument("--abs-tol", type=float, default=1e-9)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--json", dest="json_file", default=None,
                   help="read the law/request descriptor from a JSON file")
    p.add_argument("--out", default=None, help="write the JSON report to a file")


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("JSON nested too deeply") from exc


def _law_arg(args):
    if args.json_file:
        with open(args.json_file, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise InputError(f"{args.json_file} is not UTF-8: {exc}") from exc
        return law_from_descriptor(_parse_json(text))
    if getattr(args, "law", None) is None:
        raise InputError("a law descriptor is required (--law or --json)")
    return law_from_descriptor(_parse_json(args.law))


def _indices(text: str) -> list[int]:
    try:
        return [int(i) for i in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad index list {text!r}: {exc}") from exc


def _coords(text: str) -> np.ndarray:
    try:
        return as_coords([float(v) for v in text.split(",") if v != ""])
    except ValueError as exc:
        raise InputError(f"bad element {text!r}: {exc}") from exc


def _emit(args, payload) -> None:
    text = dumps(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _sample_config(args) -> SampleConfig:
    return SampleConfig(seed=args.seed, count=args.samples, box=args.box)


def _tolerance(args) -> Tolerance:
    return Tolerance(args.abs_tol, args.rel_tol)


def cmd_eval(args) -> int:
    law = _law_arg(args)
    a = _coords(args.a)
    if args.op != "inv" and args.b is None:
        raise InputError(f"--op {args.op} needs a second element (--b)")
    if args.op == "mul":
        result = multiply(law, a, _coords(args.b))
    elif args.op == "inv":
        result = invert(law, a)
    elif args.op == "conj":
        result = conjugate(law, a, _coords(args.b))
    elif args.op == "comm":
        result = commutator(law, a, _coords(args.b))
    else:
        raise InputError(f"unknown op {args.op!r}")
    if not np.all(np.isfinite(result)):
        raise DomainError("result overflowed the floating-point range")
    _emit(args, {"result": result})
    return EXIT_OK


def cmd_axioms(args) -> int:
    law = _law_arg(args)
    rep = check_group_axioms(law, _sample_config(args), _tolerance(args))
    _emit(args, {"law": law.descriptor(), "report": rep.to_dict()})
    return EXIT_OK if rep.passed else EXIT_VERIFY


def cmd_order_check(args) -> int:
    law = _law_arg(args)
    order = order_from_descriptor(_indices(args.order))
    spec = orders.OrderedGroupSpec(law, order)
    cfg = _sample_config(args)
    rep = orders.check_translation_invariance(spec, cfg)
    payload = {"law": law.descriptor(), "order": list(order.significance),
               "translation": rep.to_dict()}
    ok = rep.passed
    if args.normal_coords:
        crep = orders.check_conjugation_order_preserving(spec, _indices(args.normal_coords), cfg)
        payload["conjugation"] = crep.to_dict()
        ok = ok and crep.passed
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_cocycle_check(args) -> int:
    desc = _parse_json(args.cocycle)
    rep = cohomology.check_cocycle(named_cocycle(desc), _sample_config(args), _tolerance(args))
    _emit(args, {"cocycle": desc, "residual": rep.residual, "passed": rep.passed})
    return EXIT_OK if rep.passed else EXIT_VERIFY


def cmd_classify(args) -> int:
    law = _law_arg(args)
    cfg = _sample_config(args)
    tol = _tolerance(args)
    if args.order:
        order = order_from_descriptor(_indices(args.order))
        cls, wit = classify.classify_ordered(law, order, cfg, tol)
    else:
        cls, wit = classify.classify_group(law, cfg, tol)
    payload = {
        "label": cls.label,
        "params": cls.param_dict,
        "canonical": cls.law.descriptor(),
        "canonical_order": None if cls.order is None else list(cls.order.significance),
        "witness": wit.to_dict(),
        "verification": wit.verification.to_dict(),
    }
    _emit(args, payload)
    return EXIT_OK if wit.verification.passed else EXIT_VERIFY


def cmd_witness_verify(args) -> int:
    source = law_from_descriptor(_parse_json(args.source))
    target = law_from_descriptor(_parse_json(args.target))
    matrix = _parse_json(args.matrix)
    pair = None
    if args.source_order and args.target_order:
        pair = (
            order_from_descriptor(_indices(args.source_order)),
            order_from_descriptor(_indices(args.target_order)),
        )
    wit = classify.linear_witness(source, target, matrix, order_pair=pair)
    rep = classify.verify_witness(wit, _sample_config(args), _tolerance(args))
    # the verified witness, so its flags agree with the verification
    _emit(args, {"witness": dataclasses.replace(wit, verification=rep).to_dict(),
                 "verification": rep.to_dict()})
    return EXIT_OK if rep.passed else EXIT_VERIFY


def cmd_catalog(args) -> int:
    entries = []
    dims = [args.dim] if args.dim else [1, 2, 3]
    for dim in dims:
        for cls, law, order in classify.enumerate_canonical(dim):
            entries.append({
                "dim": dim,
                "label": cls.label,
                "params": cls.param_dict,
                "law": law.descriptor(),
                "order": list(order.significance),
            })
    _emit(args, {"classes": entries})
    return EXIT_OK


def cmd_selftest(args) -> int:
    cfg = selftest.RunConfig(seed=args.seed, samples=args.samples, box=args.box,
                             abs_tol=args.abs_tol, rel_tol=args.rel_tol)
    report = selftest.run_all(cfg)
    _emit(args, report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordgroups",
        description="Verify and classify low-dimensional ordered group charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="apply a group operation to elements")
    p.add_argument("--law", default=None, help="law descriptor JSON")
    p.add_argument("--op", required=True, choices=["mul", "inv", "conj", "comm"])
    p.add_argument("--a", required=True, help="comma-separated coordinates")
    p.add_argument("--b", default=None, help="second element when the op needs one")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("axioms", help="sampled group-axiom residuals")
    p.add_argument("--law", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("order-check", help="translation / conjugation order checks")
    p.add_argument("--law", default=None)
    p.add_argument("--order", required=True, help="significance list, e.g. 0,1,2")
    p.add_argument("--normal-coords", default=None,
                   help="verify conjugation order preservation on these coordinates")
    _add_common(p)
    p.set_defaults(fn=cmd_order_check)

    p = sub.add_parser("cocycle-check", help="residual of a named 2-cocycle")
    p.add_argument("--cocycle", required=True,
                   help='e.g. {"cocycle":"heis","c":0.5} or {"cocycle":"g3","k":1}')
    _add_common(p)
    p.set_defaults(fn=cmd_cocycle_check)

    p = sub.add_parser("classify", help="canonical class plus verified witness")
    p.add_argument("--law", default=None)
    p.add_argument("--order", default=None, help="classify as an ordered group")
    _add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("witness-verify", help="verify an explicit witness matrix")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--matrix", required=True, help="JSON row-major matrix")
    p.add_argument("--source-order", default=None)
    p.add_argument("--target-order", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_witness_verify)

    p = sub.add_parser("catalog", help="enumerate the canonical ordered classes")
    p.add_argument("--dim", type=int, choices=[1, 2, 3], default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_common(p)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        # overflow and NaN show in the reports; numpy's warnings would only
        # add source lines to stderr
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except OSError as exc:
        # an unreadable --json or unwritable --out: a missing file, a directory
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
