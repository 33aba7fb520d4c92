"""The module action of groups.GModule on its module's elements.

A module over H is scaled by e^{C g}, which GModule.scalings computes as the
laws' levels (groups._Tower) do, each exponent summed in the same order. For
example, ((0, 1),) over SemidirectRR(1) on (y, z) scales a line by e^{z},
and ((c,), (d,)) over Additive(1) scales the plane by (e^{c t}, e^{d t}).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .groups import GModule


def scale_factors(module: GModule, g: np.ndarray) -> np.ndarray:
    """Per-module-coordinate positive scalings applied by g; shape (..., N.dim)."""
    g = np.asarray(g, dtype=float)
    if g.shape[-1] != module.H.dim:
        raise InputError(
            f"acting element has {g.shape[-1]} coordinates, module expects {module.H.dim}"
        )
    out = np.empty(g.shape[:-1] + (len(module.exponents),), order="F")
    for r, s in enumerate(module.scalings(g)):
        out[..., r] = 1.0 if s is None else s
    return out


def act(module: GModule, g, n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape[-1] != module.N.dim:
        raise InputError(
            f"module element has {n.shape[-1]} coordinates, module expects {module.N.dim}"
        )
    return scale_factors(module, g) * n
