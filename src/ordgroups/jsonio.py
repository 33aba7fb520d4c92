"""JSON descriptors and deterministic report emission.

Numbers are written with 17 significant digits so doubles round-trip and
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .actions import ExpAction
from .cohomology import extension_from_cocycle, g3_cocycle, g3_module, heis_cocycle, heis_module
from .errors import InputError
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
)
from .orders import LexOrder


def law_from_descriptor(desc: dict) -> GroupLaw:
    """Build a group law from its JSON descriptor."""
    if not isinstance(desc, dict) or "family" not in desc:
        raise InputError("law descriptor must be an object with a 'family' field")
    family = desc["family"]
    params = desc.get("params", {}) or {}

    def need(key):
        if key not in params:
            raise InputError(f"family {family!r} needs parameter {key!r}")
        return _finite(params[key], key)

    if family == "additive":
        n = int(params.get("n", desc.get("dim", 1)))
        return Additive(n)
    if family == "semidirect_rr":
        return SemidirectRR(need("c"))
    if family == "e_c":
        return Ec(need("c"))
    if family == "sut3":
        return SUT3()
    if family == "g_cd":
        return GCd(need("c"), need("d"))
    if family == "k_cd":
        return KCd(need("c"), need("d"))
    if family == "t_k":
        return Tk(need("k"))
    if family == "product":
        if "a" not in params or "b" not in params:
            raise InputError("product law needs sub-descriptors 'a' and 'b'")
        return Product(law_from_descriptor(params["a"]), law_from_descriptor(params["b"]))
    if family == "from_cocycle":
        return _cocycle_law_from_params(params)
    raise InputError(f"unknown law family {family!r}")


def _finite(value, key: str) -> float:
    """A law parameter as a float; non-numeric and non-finite values are input
    errors, since a NaN or infinite law has no meaningful samples."""
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"parameter {key!r} is not a number: {value!r}") from exc
    if not math.isfinite(x):
        raise InputError(f"parameter {key!r} must be finite, got {value!r}")
    return x


def _cocycle_law_from_params(params: dict) -> GroupLaw:
    name = params.get("cocycle")
    if name == "heis":
        f = heis_cocycle(_finite(params.get("c", 0.5), "c"))
        return extension_from_cocycle(heis_module(), f)
    if name == "g3":
        f = g3_cocycle(_finite(params.get("k", 1.0), "k"))
        return extension_from_cocycle(g3_module(1.0), f)
    raise InputError("from_cocycle descriptors support the named cocycles 'heis' and 'g3'")


def order_from_descriptor(desc) -> LexOrder:
    if isinstance(desc, dict):
        desc = desc.get("significance")
    if desc is None:
        raise InputError("order descriptor needs a 'significance' list")
    return LexOrder(tuple(int(i) for i in desc))


def action_from_descriptor(desc: dict) -> ExpAction:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise InputError("action descriptor must be an object with a 'kind' field")
    return ExpAction(desc["kind"], tuple(float(c) for c in desc.get("coeffs", ())))


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
    return _emit(obj)
