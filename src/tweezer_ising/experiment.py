"""Experimental feasibility estimators and the tweezer-misalignment scan.

The optical estimators use a two-line (D1/D2) polarizability model of the
Gaussian tweezer at focus.  They are order-of-magnitude tools; the
package accepts them within a factor of two of the reference values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
import scipy.constants as const

from .constants import SpeciesConstants
from .coupling import realized_coupling
from .crystal import solve_equilibrium
from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    UnstableCrystalError,
    ValidityError,
)
from .modes import AXIS_INDEX

#: minimum detuning from any transition, in linewidths
MIN_DETUNING_LINEWIDTHS = 10.0


@dataclass(frozen=True)
class TweezerBeam:
    power: float  # W
    waist: float  # m
    wavelength: float  # m
    polarization: str = "linear"

    def __post_init__(self):
        for name in ("power", "waist", "wavelength"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be positive")

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * const.c / self.wavelength

    @property
    def peak_intensity(self) -> float:
        return 2.0 * self.power / (np.pi * self.waist**2)


@dataclass(frozen=True)
class Transition:
    label: str
    omega0: float  # rad/s
    gamma: float  # rad/s

    def __post_init__(self):
        if not self.omega0 > 0 or not self.gamma > 0:
            raise InvalidArgumentError("transition frequency and linewidth must be positive")


@dataclass(frozen=True)
class AtomicLines:
    transitions: tuple
    hyperfine_splitting: float  # rad/s

    def __post_init__(self):
        if not self.transitions:
            raise InvalidArgumentError("need at least one transition")
        if not self.hyperfine_splitting > 0:
            raise InvalidArgumentError("hyperfine splitting must be positive")


#: 171Yb+ D1/D2 lines (lifetimes 8.12 ns and 6.15 ns) and the 12.6 GHz qubit splitting
YB_PLUS_LINES = AtomicLines(
    transitions=(
        Transition("D1", 2.0 * np.pi * const.c / 369.5e-9, 1.0 / 8.12e-9),
        Transition("D2", 2.0 * np.pi * const.c / 328.9e-9, 1.0 / 6.15e-9),
    ),
    hyperfine_splitting=2.0 * np.pi * 12.6428e9,
)


def load_atomic_lines(path: Union[str, Path], hyperfine_splitting: float) -> AtomicLines:
    """Transitions from a plain-text file: 'label wavelength_nm linewidth_MHz' per line.

    The linewidth column is Gamma / 2pi in MHz.
    """
    transitions = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise InvalidArgumentError(f"{path}:{lineno}: expected 'label wavelength_nm linewidth_MHz'")
            label, wl_nm, lw_mhz = parts[0], float(parts[1]), float(parts[2])
            transitions.append(
                Transition(label, 2.0 * np.pi * const.c / (wl_nm * 1e-9), 2.0 * np.pi * lw_mhz * 1e6)
            )
    return AtomicLines(tuple(transitions), hyperfine_splitting)


def _check_detuning(beam: TweezerBeam, lines: AtomicLines) -> None:
    w = beam.omega
    for tr in lines.transitions:
        if abs(tr.omega0 - w) <= MIN_DETUNING_LINEWIDTHS * tr.gamma:
            raise ValidityError(
                f"tweezer wavelength within {MIN_DETUNING_LINEWIDTHS} linewidths of {tr.label}"
            )


def scattering_rate(beam: TweezerBeam, lines: AtomicLines) -> float:
    """Photon scattering rate (1/s) at the focus, summed over the lines."""
    _check_detuning(beam, lines)
    w = beam.omega
    rate = 0.0
    for tr in lines.transitions:
        w0, g = tr.omega0, tr.gamma
        rate += (
            (3.0 * const.c**2 / (const.hbar * w0**3))
            * (w / w0) ** 3
            * (g / (w0 - w) + g / (w0 + w)) ** 2
            * beam.power
            / beam.waist**2
        )
    return rate


def dipole_potential(beam: TweezerBeam, lines: AtomicLines) -> float:
    """Two-line dipole potential at focus (J); negative means attractive."""
    _check_detuning(beam, lines)
    w = beam.omega
    u = 0.0
    for tr in lines.transitions:
        w0, g = tr.omega0, tr.gamma
        u -= (
            (3.0 * np.pi * const.c**2 / (2.0 * w0**3))
            * (g / (w0 - w) + g / (w0 + w))
            * beam.peak_intensity
        )
    return u


def tweezer_trap_frequency(beam: TweezerBeam, lines: AtomicLines, species: SpeciesConstants) -> float:
    """Harmonic pinning frequency (rad/s) from the focus curvature.

    Positive for a confining (red-detuned) beam; a blue-detuned beam
    returns the signed anti-confinement frequency.
    """
    u0 = dipole_potential(beam, lines)
    curvature = -4.0 * u0 / (species.mass * beam.waist**2)  # rad^2/s^2
    return float(np.sign(curvature) * np.sqrt(abs(curvature)))


def differential_stark_shift(beam: TweezerBeam, lines: AtomicLines) -> float:
    """|Stark shift difference| between the hyperfine qubit states (rad/s).

    The qubit splitting changes the detuning seen by the upper state, so
    the common shift is rescaled by the splitting over the effective
    detuning: |U0|/hbar * w_hf / D_eff, with 1/D_eff the depth-weighted
    mean of the inverse co-rotating detunings.  Scales as P / w^2.
    """
    _check_detuning(beam, lines)
    w = beam.omega
    depth_total = 0.0
    inv_detuning = 0.0
    for tr in lines.transitions:
        w0, g = tr.omega0, tr.gamma
        depth = (3.0 * np.pi * const.c**2 / (2.0 * w0**3)) * (
            g / (w0 - w) + g / (w0 + w)
        ) * beam.peak_intensity
        depth_total += abs(depth)
        inv_detuning += abs(depth) / abs(w0 - w)
    return depth_total / const.hbar * lines.hyperfine_splitting * (inv_detuning / depth_total)


def stark_homogenize(
    desired_omegas: Sequence[float],
    reference: TweezerBeam,
    lines: AtomicLines,
    species: SpeciesConstants,
) -> list[TweezerBeam]:
    """Per-ion (power, waist) with uniform differential Stark shift.

    Keeps P_i / w_i^2 equal to the reference while matching each pinning
    frequency: w_i = w_ref * W_ref / W_i and P_i = P_ref * (W_ref / W_i)^2.
    Zero pinning would need an infinite waist and is rejected.
    """
    omega_ref = tweezer_trap_frequency(reference, lines, species)
    if omega_ref <= 0:
        raise ValidityError("reference beam must be confining")
    beams = []
    for om in desired_omegas:
        if not om > 0:
            raise InvalidArgumentError(
                "stark_homogenize needs strictly positive pinning; exclude unpinned ions"
            )
        ratio = omega_ref / om
        beams.append(
            TweezerBeam(
                power=reference.power * ratio**2,
                waist=reference.waist * ratio,
                wavelength=reference.wavelength,
                polarization=reference.polarization,
            )
        )
    return beams


# ---------------------------------------------------------------------------
# misalignment Monte Carlo


@dataclass
class MisalignmentScan:
    records: list  # (average misalignment (m), epsilon)
    aligned_epsilon: float
    n_failed: int
    failed_samples: list


def misalignment_scan(
    result,
    displacement_scale: Union[float, Sequence[float]],
    samples: int,
    seed: int,
    axes: Optional[Sequence[str]] = None,
) -> MisalignmentScan:
    """Re-solve the crystal with randomly offset tweezers and re-grade the error.

    Each sample draws one offset per tweezer, uniform in a ball of the
    sample's radius restricted to the given axes (default: the pinning
    axes).  Offsets shift the equilibrium, so positions are re-solved with
    the offset tweezers in the potential before the spectrum and coupling
    error are recomputed.  Samples whose equilibrium solve fails are
    excluded and counted.  Streams are per-sample seeded, so the output is
    independent of evaluation order.

    Raises InvalidArgumentError, before any solve, when the scales are
    empty, not finite or negative, when `samples` is negative, or when
    `axes` is empty or names an axis other than x, y, z (or 0, 1, 2).
    """
    scales = np.atleast_1d(np.asarray(displacement_scale, dtype=float))
    if scales.size == 0 or not np.all(np.isfinite(scales)) or np.any(scales < 0):
        raise InvalidArgumentError("displacement scales must be a nonempty set of finite, nonnegative lengths")
    if samples < 0:
        raise InvalidArgumentError("samples must be nonnegative")
    axes = tuple(axes if axes is not None else result.pin_axes)
    axis_idx = [AXIS_INDEX.get(a) if isinstance(a, str) else int(a) for a in axes]
    if not axis_idx or any(a not in (0, 1, 2) for a in axis_idx):
        raise InvalidArgumentError(f"misalignment axes must be among x, y, z; got {axes!r}")
    crystal = result.crystal
    pattern = result.tweezers
    n = crystal.n_ions
    dim = len(axis_idx)

    def epsilon_at(positions):
        eps, _, _, _ = realized_coupling(
            positions, crystal.trap, crystal.species, pattern.curvatures,
            result.mu, result.drive.drive_axis, result.drive.resonance_guard, result.target,
        )
        return eps

    aligned_eps = epsilon_at(crystal.positions)

    records = []
    failed = []
    for i in range(samples):
        scale = float(scales[i % scales.size])
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
        offsets = np.zeros((n, 3))
        if scale > 0:
            direction = rng.standard_normal((n, dim))
            # np.linalg.norm(..., axis=1) here and below, as numpy computes it
            norms = np.sqrt(np.add.reduce(direction * direction, axis=1, keepdims=True))
            norms[norms == 0] = 1.0
            radius = scale * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / dim)
            offsets[:, axis_idx] = radius * direction / norms
        avg = float(np.sqrt(np.add.reduce(offsets * offsets, axis=1)).mean())
        try:
            shifted = solve_equilibrium(
                crystal.trap,
                crystal.species,
                n,
                crystal.positions,
                tweezers=pattern.with_offsets(offsets),
                tweezer_reference=crystal.positions,
            )
            eps = epsilon_at(shifted.positions)
        except (ConvergenceError, UnstableCrystalError) as err:
            failed.append((i, type(err).__name__))
            continue
        records.append((avg, eps))
    return MisalignmentScan(records, aligned_eps, len(failed), failed)

