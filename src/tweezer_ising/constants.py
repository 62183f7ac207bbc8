"""Species data and fundamental constants (SI throughout)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import scipy.constants as _const

from .errors import InvalidArgumentError

#: angular frequency of 1 MHz and of 1 kHz, rad/s; config files and outputs use w / 2pi
MHZ = 2.0 * math.pi * 1e6
KHZ = 2.0 * math.pi * 1e3


@dataclass(frozen=True)
class FundamentalConstants:
    """SI values of the constants entering the potential and the drive."""

    hbar: float = _const.hbar
    epsilon0: float = _const.epsilon_0
    e: float = _const.e
    c: float = _const.c


@dataclass(frozen=True)
class SpeciesConstants:
    """Mass and charge of the trapped ion species."""

    mass: float  # kg
    charge: float = _const.e  # C
    fundamental: FundamentalConstants = field(default_factory=FundamentalConstants)

    def __post_init__(self):
        if not self.mass > 0:
            raise InvalidArgumentError(f"ion mass must be positive, got {self.mass}")
        if not self.charge > 0:
            raise InvalidArgumentError(f"ion charge must be positive, got {self.charge}")

    @property
    def coulomb_coefficient(self) -> float:
        """q^2 / (4 pi eps0) in J*m."""
        return self.charge**2 / (4.0 * 3.141592653589793 * self.fundamental.epsilon0)


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
