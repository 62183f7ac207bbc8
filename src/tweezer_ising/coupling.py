"""Phonon-mediated Ising couplings, residual spin-motion diagnostics, error metric.

The coupling of a drive detuned by mu from the phonon spectrum is

    J[j, k] = g^2 sum_m w_m eta_j^m eta_k^m / (mu^2 - w_m^2)

which, after substituting the Lamb-Dicke parameters, collapses to the
projected resolvent (g^2 hbar k^2 / 2M) * B (mu^2 - A)^-1 B^T with B the
drive-axis projection of the eigenvectors.  When g or k_eff are not
supplied the global prefactor is taken as 1 and J is reported in units of
g^2 hbar k^2 / 2M; the normalized error metric is unaffected.

J and eps come from eigenvectors in five steps, each written once for one
matrix or a stack: the projection ``modes._placement(...) @ eigenvectors``,
`_mode_sum`, `_symmetric_zero_diagonal`, `_largest_offdiag` and
`_rescaled_errors`.  `mode_projections`, `coupling_matrix`, `max_abs_offdiag`
and `coupling_error` are their one-matrix calls; the scan's grader
`grade_hessians` and the objective `optimizer.PinProblem.epsilon_parts`
run them stacked.  `_mode_sum` and `_zero_diagonal` are steps of the
gradient kernel too (see `sensitivity`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

import numpy as np
import scipy.constants as const

from .constants import KHZ, SpeciesConstants
from .errors import (
    InvalidArgumentError,
    ResonanceError,
    UndefinedNormalizationError,
)
from .modes import (
    ModeSpectrum,
    _placement,
    axis_vector,
    euclidean_norm,
    lamb_dicke,
    mass_scaled_hessian,
    mode_projections,
    spectra,
)

if TYPE_CHECKING:
    from .crystal import TrapConfig

DEFAULT_RESONANCE_GUARD = KHZ  # rad/s


@dataclass(frozen=True)
class DriveConfig:
    """Bichromatic drive: beatnote, strength, wavevector, axis, mode subset."""

    mu: float  # rad/s
    drive_axis: Union[str, Sequence[float]] = "y"
    g: Optional[float] = None  # rad/s
    k_eff: Optional[float] = None  # rad/m
    # boolean over modes, or the indices of the included modes (integral
    # values in [0, n_modes)); None = all
    mode_mask: Optional[np.ndarray] = None
    resonance_guard: float = DEFAULT_RESONANCE_GUARD

    def __post_init__(self):
        if not self.mu > 0:
            raise InvalidArgumentError("beatnote frequency must be positive")
        if not self.resonance_guard >= 0:
            raise InvalidArgumentError("resonance guard must be nonnegative")
        object.__setattr__(self, "drive_axis", axis_vector(self.drive_axis))

    def mask_for(self, spectrum: ModeSpectrum) -> np.ndarray:
        if self.mode_mask is None:
            return np.ones(spectrum.n_modes, dtype=bool)
        mask = np.asarray(self.mode_mask)
        if mask.dtype != bool:
            n = spectrum.n_modes
            indices = mask.reshape(-1).tolist()
            if not all(float(i).is_integer() and 0 <= i < n for i in indices):
                raise InvalidArgumentError(f"mode indices must be integers in [0, {n}), got {indices}")
            out = np.zeros(n, dtype=bool)
            out[np.asarray(indices, dtype=int)] = True
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
        m = _symmetric_zero_diagonal(m)
        m.flags.writeable = False  # `_peak_and_norm` caches what is computed from it
        object.__setattr__(self, "matrix", m)

    @property
    def n_ions(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _peak_and_norm(self) -> tuple[float, float]:
        """`_target_side` of the matrix: a scan grades every sample
        against one target."""
        return _target_side(self.matrix)


def _symmetric_zero_diagonal(m: np.ndarray) -> np.ndarray:
    """0.5 (m + m^T) with its diagonal zeroed, of one matrix or a stack."""
    m = np.ascontiguousarray(m + m.swapaxes(-1, -2))
    m *= 0.5
    return _zero_diagonal(m)


def _zero_diagonal(m: np.ndarray) -> np.ndarray:
    """A C-contiguous matrix or stack with its diagonal zeroed in place."""
    n = m.shape[-1]
    m.reshape(m.shape[:-2] + (n * n,))[..., :: n + 1] = 0.0
    return m


def _as_matrix(j: Union[CouplingMatrix, np.ndarray]) -> np.ndarray:
    """The array of a coupling argument given as a CouplingMatrix or array-like."""
    return j.matrix if isinstance(j, CouplingMatrix) else np.asarray(j, dtype=float)


def check_resonance(spectrum: ModeSpectrum, drive: DriveConfig) -> np.ndarray:
    """Raise the ResonanceError of a beatnote within the guard of a masked
    mode; otherwise return the drive's mode mask for the spectrum."""
    mask = drive.mask_for(spectrum)
    err = _resonance(drive, spectrum.frequencies, mask)
    if err is not None:
        raise err
    return mask


def _resonance(drive: DriveConfig, frequencies: np.ndarray, mask: np.ndarray) -> Optional[ResonanceError]:
    """The ResonanceError of a beatnote within the guard of a masked mode, or None."""
    if not np.any(mask):
        return None
    gap = np.abs(drive.mu - frequencies[mask])
    if np.min(gap) <= drive.resonance_guard:
        worst = frequencies[mask][np.argmin(gap)]
        return ResonanceError(
            f"beatnote {drive.mu:.6e} within guard {drive.resonance_guard:.3e} "
            f"of mode at {worst:.6e} rad/s"
        )
    return None


def coupling_prefactor(drive: DriveConfig, species: SpeciesConstants) -> float:
    """g^2 hbar k^2 / 2M, or 1.0 when drive strength is left symbolic."""
    if drive.g is None or drive.k_eff is None:
        return 1.0
    return drive.g**2 * const.hbar * drive.k_eff**2 / (2.0 * species.mass)


def coupling_matrix(
    spectrum: ModeSpectrum,
    drive: DriveConfig,
    species: SpeciesConstants,
) -> CouplingMatrix:
    """Evaluate the detuned mode sum for every ion pair; diagonal zeroed."""
    mask = check_resonance(spectrum, drive)
    proj = mode_projections(spectrum, drive.drive_axis)[..., mask]
    mode_sum = _mode_sum(proj, 1.0 / (drive.mu**2 - spectrum.eigenvalues[mask]))
    return CouplingMatrix(coupling_prefactor(drive, species) * mode_sum)


def _mode_sum(w: np.ndarray, theta: np.ndarray, v: Optional[np.ndarray] = None) -> np.ndarray:
    """(w theta) v^T of (N, B) projections, (B,) factors and (M, B) rows `v`
    (default `w`: J), or a stack.  Masked projections come as `proj[..., mask]`,
    laid out mask-outermost: BLAS then gives each matrix its lone bits, which
    a C-ordered `take` breaks."""
    return (w * theta[..., None, :]) @ (w if v is None else v).swapaxes(-1, -2)


def _drive_terms(spectrum: ModeSpectrum, drive: DriveConfig, species: SpeciesConstants):
    """The resonance check, then g and k_eff (1 where symbolic), the Lamb-Dicke
    parameters eta (N, B), the mode mask, the masked frequencies and mu."""
    mask = check_resonance(spectrum, drive)
    g = drive.g if drive.g is not None else 1.0
    k = drive.k_eff if drive.k_eff is not None else 1.0
    eta = lamb_dicke(spectrum, k, drive.drive_axis, species)
    return g, eta, mask, spectrum.frequencies[mask], drive.mu


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
    g, eta, mask, w, mu = _drive_terms(spectrum, drive, species)
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
    g, eta, mask, w, mu = _drive_terms(spectrum, drive, species)
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
    The one-matrix call of `_largest_offdiag`."""
    a = np.asarray(matrix, dtype=float)
    peak, at = _largest_offdiag(a[None])
    return float(peak[0]), divmod(int(at[0]), a.shape[1])


def _largest_offdiag(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of a (K, N, N) stack's largest |off-diagonal entry|, at
    least 0.0, and its first flat row-major index; a NaN entry wins."""
    n = j.shape[-1]
    mag = np.abs(j, order="C").reshape(len(j), n * n)
    mag[:, :: n + 1] = -1.0
    return mag.max(1, initial=0.0), mag.argmax(1)


def _rescaled_errors(target: np.ndarray, t_norm: float, max_t: float, j: np.ndarray, peaks: np.ndarray):
    """(s, r, eps) of a (K, N, N) stack with nonzero largest couplings
    `peaks`: s = max_t / peak, r = target - s J and eps = sqrt(r·r) / t_norm."""
    s = max_t / peaks
    r = s[:, None, None] * j
    np.subtract(target, r, out=r)  # in place: one (K, N, N) array fewer at a batch's peak
    flat = r.reshape(len(r), target.size)
    return s, r, np.sqrt(np.vecdot(flat, flat)) / t_norm


def _target_side(jt: np.ndarray) -> tuple[float, float]:
    """The target's side of `coupling_error`: its largest |off-diagonal
    entry| and its Frobenius norm."""
    (peak,), _ = _largest_offdiag(jt[None])
    return peak, euclidean_norm(jt)


def coupling_error(
    j_target: Union[CouplingMatrix, np.ndarray],
    j: Union[CouplingMatrix, np.ndarray],
) -> tuple[float, CouplingMatrix]:
    """Normalized Frobenius error and the rescaled coupling matrix.

    J is rescaled so its largest off-diagonal magnitude matches the
    target's, then eps = ||J_T - J~||_F / ||J_T||_F: the one-matrix call of
    `_largest_offdiag` and `_rescaled_errors`.  A CouplingMatrix target's
    largest coupling and norm are computed once, on its first call."""
    jt = _as_matrix(j_target)
    jm = _as_matrix(j)
    if jt.shape != jm.shape or jt.ndim != 2 or jt.shape[0] != jt.shape[1]:
        raise InvalidArgumentError("coupling matrices must be square and of equal shape")
    max_t, t_norm = j_target._peak_and_norm if isinstance(j_target, CouplingMatrix) else _target_side(jt)
    max_j, _ = _largest_offdiag(jm[None])
    if max_j[0] <= 0.0 or max_t <= 0.0:
        raise UndefinedNormalizationError("cannot normalize an identically zero coupling matrix")
    # numpy's division: a norm that underflows to 0 gives NaN, not an exception
    (scale,), _, (eps,) = _rescaled_errors(jt, t_norm, max_t, jm[None], max_j)
    return float(eps), CouplingMatrix(jm * scale, scale=float(scale))


class Grades(NamedTuple):
    """What `grade_hessians` found for each matrix of a stack.

    Rows of a lane whose coupling is an exception are not its spectrum.
    """

    eigenvalues: np.ndarray  # (K, B) rad^2/s^2
    eigenvectors: np.ndarray  # (K, B, B), deterministic signs
    frequencies: np.ndarray  # (K, B) rad/s
    coupled: Optional[np.ndarray]  # (K, B) bool, modes with a drive-axis amplitude
    couplings: list  # per lane: J (N, N), symmetric, zero diagonal; or the exception


def grade_hessians(
    hessians: np.ndarray,
    freq_scale: float,
    mu: float,
    drive_axis: np.ndarray,
    resonance_guard: float,
    species: SpeciesConstants,
) -> Grades:
    """The unnormalized couplings of a (K, 3N, 3N) stack of pinned Hessians.

    Each lane gets the J, or the exception, of a lone `mode_spectrum` and
    `coupling_matrix` with the drive masked to the lane's coupled modes:
    the spectrum (`modes.spectra`), the drive projection and coupled-mode
    masks, the resonance guard over the coupled modes and J run stacked.
    Lanes that share a mask share one stacked product.
    """
    lam, vec, couplings = spectra(hessians, freq_scale)  # None where the spectrum holds
    freqs = np.sqrt(np.clip(lam, 0.0, None))
    try:
        drive = DriveConfig(mu=mu, drive_axis=drive_axis, resonance_guard=resonance_guard)
    except InvalidArgumentError as err:  # what each lane with a spectrum raises next
        return Grades(lam, vec, freqs, None, [j or err for j in couplings])
    n = lam.shape[1] // 3
    # mode_projections(spectrum, drive.drive_axis), as coupling_matrix projects
    proj = _placement(np.arange(3 * n), n, drive.drive_axis) @ vec
    coupled = np.any(np.abs(proj) > 1e-10, axis=1)
    nearest = np.where(coupled, np.abs(drive.mu - freqs), np.inf).min(axis=1)
    for k in np.flatnonzero(coupled.any(axis=1) & (nearest <= drive.resonance_guard)):
        couplings[k] = couplings[k] or _resonance(drive, freqs[k], coupled[k])
    groups: dict = {}
    for k, j in enumerate(couplings):
        if j is None:
            groups.setdefault(coupled[k].tobytes(), []).append(k)
    prefactor = coupling_prefactor(drive, species)
    for lanes in groups.values():
        mask = coupled[lanes[0]]
        mode_sum = _mode_sum(proj[lanes][..., mask], 1.0 / (drive.mu**2 - lam[lanes][..., mask]))
        for k, j in zip(lanes, _symmetric_zero_diagonal(prefactor * mode_sum)):
            couplings[k] = j
    return Grades(lam, vec, freqs, coupled, couplings)


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
    Returns (eps, J rescaled to the target, spectrum, drive).  The
    one-lane call of `grade_hessians`.
    """
    a = mass_scaled_hessian(positions, trap, species, curvatures)
    grades = grade_hessians(a[None], trap.omega_bar, mu, drive_axis, resonance_guard, species)
    (j,) = grades.couplings
    if isinstance(j, Exception):
        raise j
    b = a.shape[0]
    lam, vec, freqs = grades.eigenvalues[0], grades.eigenvectors[0], grades.frequencies[0]
    spectrum = ModeSpectrum(freqs, lam, vec, np.arange(b), b // 3, trap.omega_bar)
    drive = DriveConfig(
        mu=mu, drive_axis=drive_axis, mode_mask=grades.coupled[0], resonance_guard=resonance_guard
    )
    eps, realized = coupling_error(target, j)
    return eps, realized, spectrum, drive
