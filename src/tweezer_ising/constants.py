"""Species data and fundamental constants (SI throughout)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError

#: angular frequency of 1 MHz and of 1 kHz, rad/s; config files and outputs use w / 2pi
MHZ = 2.0 * math.pi * 1e6
KHZ = 2.0 * math.pi * 1e3

# CODATA 2022, bit for bit the values of scipy 1.17.1's `scipy.constants`
# (HBAR is its own expression, the exact h over 2 pi); that module loads
# scipy's array-API layer, which takes about as long as the whole package
# import without it
HBAR = 6.62607015e-34 / (2 * math.pi)  # J s
EPSILON_0 = 8.8541878188e-12  # F/m
ELEMENTARY_CHARGE = 1.602176634e-19  # C
ATOMIC_MASS = 1.66053906892e-27  # kg
SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class SpeciesConstants:
    """Mass of a singly charged ion species; its charge is ELEMENTARY_CHARGE."""

    mass: float  # kg

    def __post_init__(self):
        if not self.mass > 0:
            raise InvalidArgumentError(f"ion mass must be positive, got {self.mass}")

    @property
    def coulomb_coefficient(self) -> float:
        """e^2 / (4 pi eps0) in J*m."""
        return ELEMENTARY_CHARGE**2 / (4.0 * 3.141592653589793 * EPSILON_0)


#: 171Yb+ singly charged, the species used for all bundled scenarios.
YB171 = SpeciesConstants(mass=170.936323 * ATOMIC_MASS)

_SPECIES_TABLE = {
    "Yb171": YB171,
}


def species_by_name(name: str) -> SpeciesConstants:
    try:
        return _SPECIES_TABLE[name]
    except KeyError:
        known = ", ".join(sorted(_SPECIES_TABLE))
        raise InvalidArgumentError(f"unknown species {name!r} (known: {known})") from None


def species_name(species: SpeciesConstants) -> str:
    """The table name of `species`, the inverse of `species_by_name`."""
    for name, known in _SPECIES_TABLE.items():
        if known == species:
            return name
    raise InvalidArgumentError(f"species {species} is not in the species table")
