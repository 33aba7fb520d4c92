"""Explicit charts, cohomology and ordered classification for low-dimensional
solvable groups.

Each submodule loads on first use: `import ordgroups` binds every submodule
as a lazy module, which runs only when one of its attributes is first read,
and the public names below resolve through their submodule when asked for.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the public names it defines, re-exported here
_PUBLIC = {
    "actions": "GModule act",
    "classify": "CanonicalClass Evidence IsoWitness NotSeparated classify_group "
                "classify_ordered compose_witness enumerate_canonical function_witness "
                "invert_witness linear_witness separating_invariant verify_witness",
    "cohomology": "Cochain CocycleLaw coboundary cocycle_residual extension_from_cocycle "
                  "g3_cocycle g3_module heis_cocycle heis_module normalize_cocycle",
    "errors": "DomainError InputError",
    "groups": "Additive Ec GCd GroupLaw KCd Product SemidirectRR SUT3 Tk check_group_axioms "
              "commutator conjugate heis_to_sut3 heisenberg invert multiply "
              "one_param_through sut3_to_heis",
    "jsonio": "dumps law_from_descriptor order_from_descriptor",
    "orders": "Comparison LexOrder OrderedGroupSpec check_conjugation_order_preserving "
              "check_translation_invariance compare lex_less",
    "selftest": "RunConfig run_all",
    "tolerance": "SampleConfig Tolerance",
}
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_EXPORTS)


def _lazy(name: str):
    """Put submodule `name` in sys.modules unexecuted; it runs on first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# errors is a few lines that every other module imports at once
for _name in _PUBLIC:
    if _name != "errors":
        globals()[_name] = _lazy(_name)
del _name


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
