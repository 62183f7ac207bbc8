"""Phonon-mediated Ising couplings, residual spin-motion diagnostics, error metric.

The coupling of a drive detuned by mu from the phonon spectrum is

    J[j, k] = g^2 sum_m w_m eta_j^m eta_k^m / (mu^2 - w_m^2)

which, after substituting the Lamb-Dicke parameters, collapses to the
projected resolvent (g^2 hbar k^2 / 2M) * B (mu^2 - A)^-1 B^T with B the
drive-axis projection of the eigenvectors.  When g or k_eff are not
supplied the global prefactor is taken as 1 and J is reported in units of
g^2 hbar k^2 / 2M; the normalized error metric is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .constants import SpeciesConstants
from .errors import (
    InvalidArgumentError,
    ResonanceError,
    UndefinedNormalizationError,
)
from .modes import (
    ModeSpectrum,
    axis_vector,
    euclidean_norm,
    lamb_dicke,
    mass_scaled_hessian,
    mode_projections,
    mode_spectrum,
)

if TYPE_CHECKING:
    from .crystal import TrapConfig

DEFAULT_RESONANCE_GUARD = 2.0 * np.pi * 1e3  # rad/s


@dataclass(frozen=True)
class DriveConfig:
    """Bichromatic drive: beatnote, strength, wavevector, axis, mode subset."""

    mu: float  # rad/s
    drive_axis: Union[str, Sequence[float]] = "y"
    g: Optional[float] = None  # rad/s
    k_eff: Optional[float] = None  # rad/m
    mode_mask: Optional[np.ndarray] = None  # boolean over modes, None = all
    resonance_guard: float = DEFAULT_RESONANCE_GUARD

    def __post_init__(self):
        if not self.mu > 0:
            raise InvalidArgumentError("beatnote frequency must be positive")
        if self.resonance_guard < 0:
            raise InvalidArgumentError("resonance guard must be nonnegative")
        object.__setattr__(self, "drive_axis", axis_vector(self.drive_axis))

    def mask_for(self, spectrum: ModeSpectrum) -> np.ndarray:
        if self.mode_mask is None:
            return np.ones(spectrum.n_modes, dtype=bool)
        mask = np.asarray(self.mode_mask)
        if mask.dtype != bool:
            out = np.zeros(spectrum.n_modes, dtype=bool)
            out[np.asarray(mask, dtype=int)] = True
            return out
        if mask.size != spectrum.n_modes:
            raise InvalidArgumentError("mode mask length disagrees with spectrum")
        return mask


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric coupling matrix with zero diagonal."""

    matrix: np.ndarray  # (N, N)
    scale: Optional[float] = None  # normalization applied, if any

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("coupling matrix must be square")
        m = 0.5 * (m + m.T)
        m.reshape(-1)[:: m.shape[0] + 1] = 0.0
        object.__setattr__(self, "matrix", m)

    @property
    def n_ions(self) -> int:
        return self.matrix.shape[0]


def check_resonance(spectrum: ModeSpectrum, drive: DriveConfig) -> None:
    mask = drive.mask_for(spectrum)
    if not np.any(mask):
        return
    gap = np.abs(drive.mu - spectrum.frequencies[mask])
    if np.min(gap) <= drive.resonance_guard:
        worst = spectrum.frequencies[mask][np.argmin(gap)]
        raise ResonanceError(
            f"beatnote {drive.mu:.6e} within guard {drive.resonance_guard:.3e} "
            f"of mode at {worst:.6e} rad/s"
        )


def coupling_prefactor(drive: DriveConfig, species: SpeciesConstants) -> float:
    """g^2 hbar k^2 / 2M, or 1.0 when drive strength is left symbolic."""
    if drive.g is None or drive.k_eff is None:
        return 1.0
    hbar = species.fundamental.hbar
    return drive.g**2 * hbar * drive.k_eff**2 / (2.0 * species.mass)


def coupling_matrix(
    spectrum: ModeSpectrum,
    drive: DriveConfig,
    species: SpeciesConstants,
) -> CouplingMatrix:
    """Evaluate the detuned mode sum for every ion pair; diagonal zeroed."""
    check_resonance(spectrum, drive)
    mask = drive.mask_for(spectrum)
    proj = mode_projections(spectrum, drive.drive_axis)[:, mask]
    theta = 1.0 / (drive.mu**2 - spectrum.eigenvalues[mask])
    j = coupling_prefactor(drive, species) * ((proj * theta) @ proj.T)
    return CouplingMatrix(j)


def residual_displacement(
    spectrum: ModeSpectrum,
    drive: DriveConfig,
    t: float,
    species: SpeciesConstants,
) -> np.ndarray:
    """Per-ion, per-mode residual displacement amplitude at time t (N, B).

    Closed form of the first propagator term; exactly zero at t = 0.
    Masked-out modes report zero.
    """
    check_resonance(spectrum, drive)
    g = drive.g if drive.g is not None else 1.0
    k = drive.k_eff if drive.k_eff is not None else 1.0
    eta = lamb_dicke(spectrum, k, drive.drive_axis, species)
    mask = drive.mask_for(spectrum)
    w = spectrum.frequencies[mask]
    mu = drive.mu
    bracket = mu - np.exp(1j * w * t) * (mu * np.cos(mu * t) - 1j * w * np.sin(mu * t))
    gamma = np.zeros((spectrum.n_ions, spectrum.n_modes), dtype=complex)
    gamma[:, mask] = (-1j * g) * eta[:, mask] * (bracket / (mu**2 - w**2))[None, :]
    return gamma


def ising_phase(
    spectrum: ModeSpectrum,
    drive: DriveConfig,
    j: int,
    k: int,
    t,
    species: SpeciesConstants,
):
    """Accumulated two-spin phase for the ordered pair (j, k) at time(s) t.

    The secular term g^2 sum_m eta_j eta_k w_m t / (mu^2 - w_m^2) is exactly
    J[j, k] * t, with J as coupling_matrix defines it; the remainder is a
    bounded, zero-mean sum of oscillations at mu - w_m, mu + w_m and 2 mu,
    dominated by the slow beats at mu - w_m.  A slope fit therefore needs a
    window of many beat periods 2 pi / |mu - w_m|.  The closed form is
    exactly zero at t = 0.
    """
    check_resonance(spectrum, drive)
    g = drive.g if drive.g is not None else 1.0
    keff = drive.k_eff if drive.k_eff is not None else 1.0
    eta = lamb_dicke(spectrum, keff, drive.drive_axis, species)
    mask = drive.mask_for(spectrum)
    w = spectrum.frequencies[mask]
    mu = drive.mu
    tt = np.asarray(t, dtype=float)[..., None]
    terms = (
        mu * np.sin((mu - w) * tt) / (mu - w)
        - mu * np.sin((mu + w) * tt) / (mu + w)
        + w * np.sin(2.0 * mu * tt) / (2.0 * mu)
        - w * tt
    )
    coeff = eta[j, mask] * eta[k, mask] / (mu**2 - w**2)
    out = -(g**2) * np.sum(coeff * terms, axis=-1)
    return float(out) if np.isscalar(t) else out


def max_abs_offdiag(matrix: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest |entry| off the diagonal of a square matrix and its first
    (row, col) in row-major order.

    A 1x1 matrix has no off-diagonal entry; its magnitude is 0.0 at (0, 0).
    """
    a = np.abs(np.asarray(matrix, dtype=float), order="C")
    n = a.shape[1]
    a.reshape(-1)[:: n + 1] = -1.0
    p, q = divmod(int(a.argmax()), n)
    return max(float(a[p, q]), 0.0), (p, q)


def coupling_error(
    j_target: Union[CouplingMatrix, np.ndarray],
    j: Union[CouplingMatrix, np.ndarray],
) -> tuple[float, CouplingMatrix]:
    """Normalized Frobenius error and the rescaled coupling matrix.

    J is rescaled so its largest off-diagonal magnitude matches the
    target's, then eps = ||J_T - J~||_F / ||J_T||_F.
    """
    jt = j_target.matrix if isinstance(j_target, CouplingMatrix) else np.asarray(j_target, dtype=float)
    jm = j.matrix if isinstance(j, CouplingMatrix) else np.asarray(j, dtype=float)
    if jt.shape != jm.shape:
        raise InvalidArgumentError("coupling matrices must have equal shape")
    max_t, _ = max_abs_offdiag(jt)
    max_j, _ = max_abs_offdiag(jm)
    if max_j <= 0.0 or max_t <= 0.0:
        raise UndefinedNormalizationError("cannot normalize an identically zero coupling matrix")
    scale = max_t / max_j
    jtilde = jm * scale
    # numpy's division: a norm that underflows to 0 gives NaN, not an exception
    eps = float(np.divide(euclidean_norm(jt - jtilde), euclidean_norm(jt)))
    return eps, CouplingMatrix(jtilde, scale=scale)


def realized_coupling(
    positions: np.ndarray,
    trap: TrapConfig,
    species: SpeciesConstants,
    curvatures: np.ndarray,
    mu: float,
    drive_axis: np.ndarray,
    resonance_guard: float,
    target: Union[CouplingMatrix, np.ndarray],
) -> tuple[float, CouplingMatrix, ModeSpectrum, DriveConfig]:
    """Error, rescaled coupling, spectrum and drive of a pinned configuration.

    The full Hessian spectrum at the given positions and pinning drives
    the beatnote; modes orthogonal to the drive axis are masked out so the
    resonance guard only applies to modes that enter the coupling.
    Returns (eps, J rescaled to the target, spectrum, drive).
    """
    a = mass_scaled_hessian(positions, trap, species, curvatures)
    spectrum = mode_spectrum(a, freq_scale=trap.omega_bar)
    coupled = np.any(np.abs(mode_projections(spectrum, drive_axis)) > 1e-10, axis=0)
    drive = DriveConfig(
        mu=mu, drive_axis=drive_axis, mode_mask=coupled, resonance_guard=resonance_guard
    )
    eps, realized = coupling_error(target, coupling_matrix(spectrum, drive, species))
    return eps, realized, spectrum, drive
