"""Species data and fundamental constants (SI throughout)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import scipy.constants as _const

from .errors import InvalidArgumentError

#: angular frequency of 1 MHz and of 1 kHz, rad/s; config files and outputs use w / 2pi
MHZ = 2.0 * math.pi * 1e6
KHZ = 2.0 * math.pi * 1e3


@dataclass(frozen=True)
class SpeciesConstants:
    """Mass of a singly charged ion species; its charge is `scipy.constants.e`."""

    mass: float  # kg

    def __post_init__(self):
        if not self.mass > 0:
            raise InvalidArgumentError(f"ion mass must be positive, got {self.mass}")

    @property
    def coulomb_coefficient(self) -> float:
        """e^2 / (4 pi eps0) in J*m."""
        return _const.e**2 / (4.0 * 3.141592653589793 * _const.epsilon_0)


#: 171Yb+ singly charged, the species used for all bundled scenarios.
YB171 = SpeciesConstants(mass=170.936323 * _const.atomic_mass)

_SPECIES_TABLE = {
    "Yb171": YB171,
}


def species_by_name(name: str) -> SpeciesConstants:
    try:
        return _SPECIES_TABLE[name]
    except KeyError:
        known = ", ".join(sorted(_SPECIES_TABLE))
        raise InvalidArgumentError(f"unknown species {name!r} (known: {known})") from None
