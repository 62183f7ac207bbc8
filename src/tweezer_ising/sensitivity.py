"""Gradients of coupling entries with respect to diagonal Hessian elements.

J is a projected resolvent, so d J[k, l] / d A[b, b] = y[k, b] y[l, b] with
y = (w Theta) u^T the resolvent rows, finite for degenerate spectra.  Each
step of the gradient kernel is written once, for one matrix or a stack:
`coupling._mode_sum` forms y and dJ/dmu = (w dTheta/dmu) w^T,
`coupling._zero_diagonal` zeroes dJ/dmu's diagonal, and
`optimizer.PinProblem.orbit_sums` sums block rows into pinning parameters.
`coupling_jacobian_diag` forms y and the (N, N, P) Jacobian of one spectrum,
whose pairs `optimizer.sign_feasibility` orbit-sums; the objective's gradient
(`PinProblem.epsilon_parts`) runs every step stacked over lanes and
contracts y with its residual without forming the Jacobian.  Masked drives
use a per-mode-pair kernel, which needs a non-degenerate mask boundary.

`coupling_gradient_adjoint` is the strict wrapper over that kernel: it
refuses spectra with eigenvalue pairs inside the degeneracy tolerance and
returns the requested pairs.  `coupling_gradient_fd`, central finite
differences over a caller-supplied builder, is the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import SpeciesConstants
from .coupling import CouplingMatrix, DriveConfig, _as_matrix, _mode_sum, check_resonance, coupling_prefactor
from .errors import DegenerateSpectrumError, InvalidArgumentError
from .modes import TOL_DEGENERACY_REL, ModeSpectrum, mode_projections


@dataclass(frozen=True)
class CouplingGradient:
    """d J[k, l] / d A[b, b] for requested pairs over diagonal coordinates."""

    pairs: tuple  # ((k, l), ...)
    coords: np.ndarray  # (P,) flattened coordinate indices differentiated
    values: np.ndarray  # (n_pairs, P)

    def row(self, pair) -> np.ndarray:
        return self.values[self.pairs.index(tuple(pair))]


def all_pairs(n_ions: int) -> tuple:
    return tuple((k, l) for k in range(n_ions) for l in range(k + 1, n_ions))


def assert_nondegenerate(spectrum: ModeSpectrum) -> None:
    tol = TOL_DEGENERACY_REL * spectrum.freq_scale**2
    gaps = np.diff(spectrum.eigenvalues)
    if gaps.size and np.min(gaps) < tol:
        m = int(np.argmin(gaps))
        raise DegenerateSpectrumError(
            f"eigenvalues {m} and {m + 1} separated by {gaps[m]:.3e} < {tol:.3e} rad^2/s^2; "
            "perturb the pinning by ~1e-6*wbar^2 and retry"
        )


def coupling_jacobian_diag(
    spectrum: ModeSpectrum,
    drive: DriveConfig,
    species: SpeciesConstants,
    coords: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Jacobian d J[k, l] / d A[b, b], shape (N, N, P).

    Uses the resolvent identity, well defined for degenerate spectra when
    all modes are included; masked drives fall back to the per-mode kernel
    and require the mask boundary to be non-degenerate.
    """
    mask = check_resonance(spectrum, drive)
    rows = _coord_rows(spectrum, coords)
    pref = coupling_prefactor(drive, species)
    proj = mode_projections(spectrum, drive.drive_axis)
    theta = np.zeros(spectrum.n_modes)
    theta[mask] = 1.0 / (drive.mu**2 - spectrum.eigenvalues[mask])
    ub = spectrum.eigenvectors[rows, :]  # (P, B)
    if np.all(mask):
        y = _mode_sum(proj, theta, ub)  # (N, P) resolvent rows at coords
        return pref * y[:, None, :] * y[None, :, :]
    kernel = _masked_kernel(spectrum, theta, mask)
    z = np.einsum("km,bm,mn->bkn", proj, ub, kernel, optimize=True)
    d = np.einsum("bkn,bn,ln->klb", z, ub, proj, optimize=True)
    return pref * d


def _masked_kernel(spectrum, theta, mask):
    lam = spectrum.eigenvalues
    tol = TOL_DEGENERACY_REL * spectrum.freq_scale**2
    gap = lam[:, None] - lam[None, :]
    cross = mask[:, None] ^ mask[None, :]
    if np.any(np.abs(gap[cross]) < tol):
        raise DegenerateSpectrumError(
            "mode mask boundary crosses a degenerate pair; gradient undefined"
        )
    # within the mask the divided difference of the resolvent collapses to
    # Theta_m * Theta_n; across the boundary only the included mode carries
    # a Theta factor
    kernel = theta[:, None] * theta[None, :]
    in_out = mask[:, None] & ~mask[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel[in_out] = (theta[:, None] / gap)[in_out]
        kernel[in_out.T] = (theta[None, :] / (-gap))[in_out.T]
    return kernel


def coupling_gradient_adjoint(
    hessian,
    spectrum: ModeSpectrum,
    drive: DriveConfig,
    pairs: Sequence,
    species: SpeciesConstants,
    coords: Optional[np.ndarray] = None,
) -> CouplingGradient:
    """Gradient of the requested pairs' couplings over diagonal coordinates.

    Refuses spectra with eigenvalue pairs inside the degeneracy tolerance;
    callers may perturb the pinning slightly and retry, or use
    coupling_jacobian_diag for unmasked drives.  `hessian` is not read;
    the spectrum carries everything the gradient needs.
    """
    assert_nondegenerate(spectrum)
    jac = coupling_jacobian_diag(spectrum, drive, species, coords)
    pairs = tuple(tuple(pq) for pq in pairs)
    k, l = np.array(pairs, dtype=int).reshape(-1, 2).T
    return CouplingGradient(pairs, spectrum.coords[_coord_rows(spectrum, coords)], jac[k, l])


def _coord_rows(spectrum: ModeSpectrum, coords) -> np.ndarray:
    if coords is None:
        return np.arange(spectrum.coords.size)
    coords = np.asarray(coords, dtype=int)
    lookup = {int(c): i for i, c in enumerate(spectrum.coords)}
    try:
        return np.array([lookup[int(c)] for c in coords], dtype=int)
    except KeyError as err:
        raise InvalidArgumentError(f"coordinate {err} not present in spectrum") from None


def coupling_gradient_fd(
    builder: Callable[[np.ndarray], CouplingMatrix],
    base: np.ndarray,
    step: float,
    pairs: Optional[Sequence] = None,
) -> CouplingGradient:
    """Central finite differences of J entries over each pinning coordinate.

    `builder` maps a pinning vector (curvatures, rad^2/s^2) to a coupling
    matrix; builder failures propagate.
    """
    if not step > 0:
        raise InvalidArgumentError("step must be positive")
    base = np.asarray(base, dtype=float)
    j0 = _as_matrix(builder(base))
    n = j0.shape[0]
    if pairs is None:
        pairs = all_pairs(n)
    k, l = np.array(pairs, dtype=int).reshape(-1, 2).T
    values = np.empty((len(pairs), base.size))
    for i, delta in enumerate(np.eye(base.size) * step):
        d = (_as_matrix(builder(base + delta)) - _as_matrix(builder(base - delta))) / (2.0 * step)
        values[:, i] = d[k, l]
    return CouplingGradient(tuple(tuple(pq) for pq in pairs), np.arange(base.size), values)
