"""JSON descriptors and deterministic report emission.

Numbers are written with 17 significant digits so doubles round-trip and
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import get_type_hints

import numpy as np

# lazy module objects (see __init__): `eval` and `axioms` never run them
from . import cohomology, orders
from .errors import InputError
from .groups import Additive, Ec, GCd, GroupLaw, KCd, Product, SemidirectRR, SUT3, Tk

# family name -> law class; each field of the class is one descriptor parameter
_FAMILIES = {cls.family: cls for cls in (Additive, SemidirectRR, Ec, SUT3, GCd, KCd, Tk, Product)}


def law_from_descriptor(desc: dict) -> GroupLaw:
    """Build a group law from its JSON descriptor (the inverse of `descriptor()`).
    A key it does not read, and a 'dim' its law does not have, are input errors."""
    if not isinstance(desc, dict) or "family" not in desc:
        raise InputError("law descriptor must be an object with a 'family' field")
    _known(desc, ("family", "params", "dim"), "a law descriptor")
    family = desc["family"]
    params = desc.get("params", {}) or {}
    if not isinstance(params, dict):
        raise InputError(f"family {family!r} needs a 'params' object")
    if family == "from_cocycle":
        # a named cocycle is a cocycle identically: no sampled check to run
        law = cohomology.CocycleLaw(named_cocycle(params))
    else:
        cls = _FAMILIES.get(family) if isinstance(family, str) else None
        if cls is None:
            raise InputError(f"unknown law family {family!r}")
        if cls is Additive:
            params = {"n": desc.get("dim", 1), **params}
        _known(params, [f.name for f in fields(cls)], f"family {family!r}")
        hints = get_type_hints(cls)
        args = {}
        for f in fields(cls):
            if f.name not in params:
                raise InputError(f"family {family!r} needs parameter {f.name!r}")
            value = params[f.name]
            is_law = hints[f.name] is GroupLaw
            args[f.name] = law_from_descriptor(value) if is_law else _finite(value, f.name)
        law = cls(**args)
    if "dim" in desc and _finite(desc["dim"], "dim") != law.dim:
        raise InputError(f"'dim' is {desc['dim']!r}, but the law has dimension {law.dim}")
    return law


def named_cocycle(desc: dict) -> cohomology.Cochain:
    """The 2-cocycle a descriptor names: {"cocycle": "heis", "c": c}, c 0.5 by
    default, or {"cocycle": "g3", "k": k}, k 1 by default."""
    name = desc.get("cocycle") if isinstance(desc, dict) else None
    if name == "heis":
        _known(desc, ("cocycle", "c"), "the cocycle 'heis'")
        return cohomology.heis_cocycle(_finite(desc.get("c", 0.5), "c"))
    if name == "g3":
        _known(desc, ("cocycle", "k"), "the cocycle 'g3'")
        return cohomology.g3_cocycle(_finite(desc.get("k", 1.0), "k"))
    raise InputError("a cocycle descriptor is an object naming the cocycle 'heis' or 'g3'")


def _known(desc: dict, keys, what: str) -> None:
    """An input error naming the first key of desc that is not one of keys."""
    for key in desc:
        if key not in keys:
            raise InputError(f"{what} has no key {key!r}; its keys are {sorted(keys)}")


def _finite(value, key: str) -> float:
    """A law parameter as a float; non-numeric and non-finite values are input
    errors, since a NaN or infinite law has no meaningful samples."""
    try:
        if isinstance(value, bool):  # float(True) is 1.0, but true is no number
            raise TypeError
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"parameter {key!r} is not a number: {value!r}") from exc
    if not math.isfinite(x):
        raise InputError(f"parameter {key!r} must be finite, got {value!r}")
    return x


def order_from_descriptor(desc) -> orders.LexOrder:
    if isinstance(desc, dict):
        desc = desc.get("significance")
    if desc is None:
        raise InputError("order descriptor needs a 'significance' list")
    return orders.LexOrder(tuple(int(i) for i in desc))


# ---------------------------------------------------------------------------
# deterministic emission


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _emit(obj) -> str:
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, (np.floating, float)):
        return _format_float(float(obj))
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(json.dumps(str(k)) + ":" + _emit(v) for k, v in items) + "}"
    if hasattr(obj, "to_dict"):
        return _emit(obj.to_dict())
    raise InputError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize a report deterministically (sorted keys, 17-digit floats)."""
    try:
        return _emit(obj)
    except RecursionError as exc:
        # a law descriptor nested a few hundred deep, e.g. products of products
        raise InputError("report nested too deeply to write") from exc
