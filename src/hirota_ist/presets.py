"""Hard-coded figure parameter sets.

Each preset pins the coefficients, seed eigenvalue, and symmetric norming
constant C1 = [[g1, g0], [g0, gm1]] of one published breather-wave panel.
They are data, not computation, and must not drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownPreset
from .grids import GridSpec
from .solitons import DiscreteEigenpair, SolitonSpec, expand_quartets
from .spectral import Background

DEFAULT_GRID = GridSpec(xmin=-5.0, xmax=5.0, nx=201, tmin=-3.0, tmax=3.0, nt=121)

# name -> (alpha, beta, zeta1, (g1, g0, gm1))
_TABLE: dict[str, tuple[float, float, complex, tuple[complex, complex, complex]]] = {
    "fig3a": (1.0, 0.1, 2j, (1, 1, 1)),
    "fig3d": (1.0, 1.0, 2j, (1, 1, 1)),
    "fig4": (-1.0, 0.01, 2j, (1, 2, 1)),
    "fig5": (-1.0, 0.01, 0.5 + 0.8j, (0, 1, 0)),
    "fig6": (1.0, 0.01, 1 + 2j, (1, 1, 2)),
    "fig7": (1.0, 0.1, 1 + 2j, (1j, 1 + 1j, 1j)),
    "fig8": (-1.0, 0.1, 2j, (2j, 1j, 2j)),
    "fig9": (-1.0, 0.1, 2j, (1, 1j, 1)),
    "fig10a": (1.0, 0.1, 2j, (1, 2, 4)),
    "fig10d": (1.0, 1.0, 2j, (1, 2, 4)),
    "fig11": (1.0, 0.1, 0.5 + (math.sqrt(3) / 2) * 1j, (1j, 2, -4j)),
}


@dataclass(frozen=True)
class Preset:
    name: str
    bg: Background
    seeds: tuple[DiscreteEigenpair, ...]
    grid: GridSpec
    spec: SolitonSpec = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "spec", expand_quartets(self.seeds, self.bg))


def preset_names() -> list[str]:
    return list(_TABLE)


def preset(name: str) -> Preset:
    """Load one preset, its quartet-expanded spec built and checked."""
    if name not in _TABLE:
        raise UnknownPreset(f"unknown preset {name!r}; known: {', '.join(_TABLE)}")
    alpha, beta, zeta, (g1, g0, gm1) = _TABLE[name]
    eye = np.eye(2, dtype=complex)
    bg = Background(sigma=-1, k0=1.0, alpha=alpha, beta=beta, Qplus=eye, Qminus=eye)
    seed = DiscreteEigenpair(zn=zeta, Cn=np.array([[g1, g0], [g0, gm1]], dtype=complex))
    return Preset(name=name, bg=bg, seeds=(seed,), grid=DEFAULT_GRID)
