"""Span tracing for the ordgroups benchmark, installed from outside the package.

`Tracer.install()` wraps the public functions of the ordgroups modules, the
`mul`/`inv` methods of every law class, `SampleConfig.sample` and the eight
selftest criteria. Every module-level name bound to a wrapped function is
rebound, in every ordgroups module, so calls made inside the package (for
example `classify` calling `_ordered_pairs`, or `selftest` calling
`classify_ordered`) are caught too. `uninstall()` puts every original back.

Each wrapped call records one span (op, name, start, end, parent, units).
Spans stay in memory until the benchmark aggregates them or writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# (module, function, units): units counts the work in one call from its result
_FUNCTIONS = (
    ("groups", "check_group_axioms", None),
    ("orders", "lex_less", "rows"),
    ("orders", "_ordered_pairs", None),
    ("orders", "check_translation_invariance", None),
    ("orders", "check_conjugation_order_preserving", None),
    ("classify", "classify_ordered", None),
    ("classify", "classify_group", None),
    ("classify", "verify_witness", None),
    ("classify", "separating_invariant", None),
    ("cohomology", "cocycle_residual", None),
    ("cohomology", "extension_from_cocycle", None),
    ("cohomology", "coboundary", None),
    ("actions", "act", "rows"),
    ("jsonio", "dumps", "bytes"),
    ("jsonio", "law_from_descriptor", None),
    ("cli", "main", None),
)

# per-layer metrics the aggregation reports: span name -> statistics
LAYERS = {
    "groups.mul": ("calls", "rows", "busy_s", "self_s"),
    "groups.inv": ("calls", "rows", "busy_s", "self_s"),
    "groups.check_group_axioms": ("calls", "busy_s", "self_s"),
    "tolerance.sample": ("calls", "rows", "busy_s", "self_s"),
    "orders.lex_less": ("calls", "rows", "busy_s", "self_s"),
    "orders._ordered_pairs": ("calls", "busy_s", "self_s"),
    "orders.check_translation_invariance": ("calls", "busy_s", "self_s"),
    "orders.check_conjugation_order_preserving": ("calls", "busy_s", "self_s"),
    "classify.classify_ordered": ("calls", "busy_s", "self_s"),
    "classify.classify_group": ("calls", "busy_s", "self_s"),
    "classify.verify_witness": ("calls", "busy_s", "self_s"),
    "classify.separating_invariant": ("calls", "busy_s", "self_s"),
    "cohomology.cocycle_residual": ("calls", "busy_s"),
    "cohomology.extension_from_cocycle": ("calls", "busy_s"),
    "cohomology.coboundary": ("calls",),
    "actions.act": ("calls", "rows", "busy_s"),
    "jsonio.dumps": ("calls", "bytes", "busy_s"),
    "jsonio.law_from_descriptor": ("busy_s",),
    "cli.main": ("busy_s",),
}

CRITERIA = (
    "criterion_group_axioms",
    "criterion_cochain_calculus",
    "criterion_extension_builder",
    "criterion_witnesses",
    "criterion_ordered_checks",
    "criterion_separating_invariants",
    "criterion_classifier_roundtrip",
    "criterion_one_param_family",
)
LAYERS.update({f"selftest.{name}": ("busy_s",) for name in CRITERIA})

# metrics derived from several spans or measured around processes: unit, better
DERIVED = {
    "tolerance.sample.distinct_ratio": ("ratio", "higher"),
    "classify.verifies_per_classification": ("ratio", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.process_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

_UNITS = {"calls": "count", "rows": "rows", "bytes": "bytes", "busy_s": "s", "self_s": "s"}


# layers that only the acceptance suite reaches, so that no workload of
# BENCHMARK.json does: aggregated and printed for a reader, but left out of
# the result line, where they would always read 0
SUITE_ONLY = {
    "classify.separating_invariant",
    "cohomology.extension_from_cocycle",
    *(f"selftest.{name}" for name in CRITERIA),
}


def metric_specs(suite_only: bool = False) -> list[dict]:
    """Every per-layer metric of the result line as {name, unit, better}, in
    report order; with suite_only, also those of the SUITE_ONLY layers."""
    specs = [{"name": f"{layer}.{stat}", "unit": _UNITS[stat], "better": "lower"}
             for layer, stats in LAYERS.items() for stat in stats
             if suite_only or layer not in SUITE_ONLY]
    specs += [{"name": name, "unit": unit, "better": better}
              for name, (unit, better) in DERIVED.items()]
    return specs


def _units(kind: str, result) -> int:
    """Work done by one call: rows of its result (comparisons for a mask) or bytes."""
    if kind == "bytes":
        return len(result.encode())
    if result.dtype == bool or result.ndim == 0:
        return int(result.size)
    return int(result.size // max(result.shape[-1], 1))


class Tracer:
    """Records spans around ordgroups calls while installed."""

    def __init__(self):
        self.spans: list = []
        self.sample_keys: set = set()
        self.op = 0
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, kind=None, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [self.op, name, start, end, parent, 0]
            if kind is not None:
                spans[idx][5] = _units(kind, result)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        importlib.import_module("ordgroups.cli")
        for mod_name, fn_name, kind in _FUNCTIONS:
            original = getattr(sys.modules[f"ordgroups.{mod_name}"], fn_name)
            self._rebind(original, self._wrap(f"{mod_name}.{fn_name}", original, kind))

        selftest = sys.modules["ordgroups.selftest"]
        wrapped = []
        for fn in selftest.CRITERIA:
            w = self._wrap(f"selftest.{fn.__name__}", fn)
            self._rebind(fn, w)
            wrapped.append(w)
        self._set(selftest, "CRITERIA", tuple(wrapped))

        tolerance = sys.modules["ordgroups.tolerance"]
        sample = tolerance.SampleConfig.sample
        signature = inspect.signature(sample)

        def record_key(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            cfg = bound.arguments["self"]
            n, dim = result.shape
            self.sample_keys.add((self.op, cfg.seed, bound.arguments["stream"], n, dim, cfg.box))

        self._set(tolerance.SampleConfig, "sample",
                  self._wrap("tolerance.sample", sample, "rows", record_key))

        for cls in _law_classes(sys.modules["ordgroups.groups"].GroupLaw):
            for method in ("mul", "inv"):
                if method in cls.__dict__:
                    self._set(cls, method,
                              self._wrap(f"groups.{method}", cls.__dict__[method], "rows"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        """The recorded spans and sample keys as plain JSON-ready data."""
        return {"spans": self.spans, "sample_keys": sorted(self.sample_keys)}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ordgroups" or name.startswith("ordgroups."))]


def _law_classes(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def snapshot() -> dict:
    """Identity of every attribute a tracer may patch, to check it left none behind."""
    importlib.import_module("ordgroups.cli")
    state = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            state[(mod.__name__, attr)] = id(value)
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    state[(mod.__name__, attr, cattr)] = id(cvalue)
    return state


def aggregate(spans, sample_keys, ops: int) -> dict:
    """Per-op layer metrics from spans: calls, work units, busy and self time.

    busy_s counts only the outermost span of a name (a Product law's `mul`
    calls its factors' `mul`); self_s is a span's time minus its children's.
    """
    ops = max(ops, 1)
    calls, units, busy, self_time = Counter(), Counter(), Counter(), Counter()
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    for i, (_op, name, start, end, parent, n) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        units[name] += n
        self_time[name] += dur - child_time[i]
        p = parent
        while p >= 0 and spans[p][1] != name:
            p = spans[p][4]
        if p < 0:
            busy[name] += dur

    by_stat = {"calls": calls, "rows": units, "bytes": units, "busy_s": busy, "self_s": self_time}
    out = {f"{layer}.{stat}": by_stat[stat][layer] / ops
           for layer, stats in LAYERS.items() for stat in stats}
    n_sample = calls["tolerance.sample"]
    out["tolerance.sample.distinct_ratio"] = len(sample_keys) / n_sample if n_sample else 0.0
    n_classify = calls["classify.classify_ordered"] + calls["classify.classify_group"]
    n_verify = calls["classify.verify_witness"]
    out["classify.verifies_per_classification"] = n_verify / n_classify if n_classify else 0.0
    return out
