"""Mass-scaled Hessian with optical pinning, phonon spectrum, Lamb-Dicke amplitudes.

The Hessian convention follows the small-oscillation Lagrangian: A is the
second derivative of the total potential at equilibrium divided by the ion
mass, so its entries carry rad^2/s^2 and a tweezer adds its curvature
tensor directly on the corresponding ion block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .constants import HBAR, SpeciesConstants
from .errors import (
    InvalidArgumentError,
    UnstableCrystalError,
    ZeroFrequencyModeError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .crystal import IonCrystal, TrapConfig

AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

#: eigenvalue floor, relative to wbar^2; below it the crystal is unstable
TOL_PSD_REL = 1e-6
#: eigenvalue pairs closer than this (relative to wbar^2) count as degenerate
TOL_DEGENERACY_REL = 1e-9
#: fraction of squared norm on one axis set for direction classification
DIRECTION_PURITY = 0.99


def euclidean_norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a float array without its dispatch: the square
    root of the dot product of its flattened self, as numpy computes it."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) of a float array, as numpy computes it."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def pair_planes(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component-major pair terms of positions (..., N, 3): the differences
    (3, ..., N, N) whose [a, ..., j, i] entry is r_i,a - r_j,a, ion i's
    displacement from its partner j along axis a, and the distances
    (..., N, N), sqrt((d_x^2 + d_y^2) + d_z^2) as `row_norms` adds them.

    The partner axis comes first so that a sum over partners runs over axis
    -2, in order j = 0..N-1, as numpy reduces an axis that is not the last
    one; over the contiguous last axis numpy would switch to pairwise
    summation.  Each plane is C-contiguous.
    """
    p = np.ascontiguousarray(np.moveaxis(pos, -1, 0))
    diff = p[..., None, :] - p[..., :, None]
    return diff, np.sqrt((diff[0] * diff[0] + diff[1] * diff[1]) + diff[2] * diff[2])


def check_pin_axes(axes) -> None:
    """Raise InvalidArgumentError for an empty set of pinning axes, whose
    pins would act on nothing, or for an axis that is not x, y or z."""
    if len(axes) == 0:
        raise InvalidArgumentError("pin axes must name at least one of x, y, z")
    for ax in axes:
        if ax not in AXIS_INDEX:
            raise InvalidArgumentError(f"unknown pin axis {ax!r}")


def axis_vector(axis: Union[str, Sequence[float]]) -> np.ndarray:
    """Unit vector from an axis name ('y'), a name list ('yz'), or a 3-vector."""
    if isinstance(axis, str):
        v = np.zeros(3)
        for ch in axis:
            if ch not in AXIS_INDEX:
                raise InvalidArgumentError(f"unknown axis {axis!r}")
            v[AXIS_INDEX[ch]] = 1.0
    else:
        v = np.asarray(axis, dtype=float)
        if v.shape != (3,):
            raise InvalidArgumentError("drive axis must be a 3-vector or axis name")
    norm = euclidean_norm(v)
    if norm == 0:
        raise InvalidArgumentError("drive axis must be nonzero")
    return v / norm


@dataclass(frozen=True)
class TweezerPattern:
    """Per-ion pinning curvature tensors and optional center offsets.

    curvatures[i] is the symmetric 3x3 tensor of the local optical
    potential at ion i in rad^2/s^2 (negative entries = anti-confinement);
    offsets[i] is the tweezer center displacement from the aligned
    equilibrium in meters.
    """

    curvatures: np.ndarray  # (N, 3, 3)
    offsets: np.ndarray = None  # (N, 3)

    def __post_init__(self):
        curv = np.asarray(self.curvatures, dtype=float)
        if curv.ndim != 3 or curv.shape[1:] != (3, 3):
            raise InvalidArgumentError("curvatures must have shape (N, 3, 3)")
        if not np.allclose(curv, np.transpose(curv, (0, 2, 1)), rtol=0, atol=1e-9 * (np.abs(curv).max() + 1.0)):
            raise InvalidArgumentError("curvature tensors must be symmetric")
        off = self.offsets
        off = np.zeros((curv.shape[0], 3)) if off is None else np.asarray(off, dtype=float)
        if off.shape != (curv.shape[0], 3):
            raise InvalidArgumentError("offsets must have shape (N, 3)")
        if not np.all(np.isfinite(off)) or not np.all(np.isfinite(curv)):
            raise InvalidArgumentError("pattern entries must be finite")
        object.__setattr__(self, "curvatures", curv)
        object.__setattr__(self, "offsets", off)

    @property
    def n_ions(self) -> int:
        return self.curvatures.shape[0]

    def with_offsets(self, offsets: np.ndarray) -> "TweezerPattern":
        """This pattern's curvatures with new offsets.

        Only the offsets are checked: the curvatures passed the full check
        when this pattern was made.
        """
        off = np.asarray(offsets, dtype=float)
        if off.shape != (self.n_ions, 3):
            raise InvalidArgumentError("offsets must have shape (N, 3)")
        if not np.isfinite(off).all():
            raise InvalidArgumentError("pattern entries must be finite")
        moved = object.__new__(TweezerPattern)
        object.__setattr__(moved, "curvatures", self.curvatures)
        object.__setattr__(moved, "offsets", off)
        return moved

    @classmethod
    def zero(cls, n_ions: int) -> "TweezerPattern":
        return cls(np.zeros((n_ions, 3, 3)))

    @classmethod
    def from_frequencies(
        cls,
        omegas: np.ndarray,
        axes: Union[str, Sequence[str]] = "y",
        offsets: Optional[np.ndarray] = None,
    ) -> "TweezerPattern":
        """Diagonal pattern from per-ion pinning frequencies (rad/s).

        Negative frequencies encode anti-confinement through a signed
        square: curvature = sign(omega) * omega^2 on each listed axis.  An
        axis other than the names x, y and z, an integer index among them,
        raises InvalidArgumentError.
        """
        check_pin_axes(axes)
        w = np.asarray(omegas, dtype=float)
        curv = np.zeros((w.size, 3, 3))
        for ax in axes:
            a = AXIS_INDEX[ax]
            curv[:, a, a] = np.sign(w) * w**2
        return cls(curv, offsets)


@dataclass(frozen=True)
class HessianMatrix:
    """Mass-scaled Hessian of the total potential at equilibrium."""

    matrix: np.ndarray  # (3N, 3N), rad^2/s^2
    n_ions: int
    freq_scale: float  # wbar (rad/s) used for dimensionless tolerances

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        scale = np.abs(a).max() or 1.0
        if not np.allclose(a, a.T, rtol=0, atol=1e-12 * scale):
            raise InvalidArgumentError("Hessian must be symmetric")
        object.__setattr__(self, "matrix", 0.5 * (a + a.T))


def mass_scaled_hessian(
    positions: np.ndarray,
    trap: "TrapConfig",
    species: SpeciesConstants,
    curvatures: Optional[np.ndarray] = None,
    planes: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """(1/M) * grad^2 V at the given positions, shape (3N, 3N).

    Valid at any distinct-ion configuration; physical normal modes require
    an equilibrium.  The pinning contribution is block diagonal and does
    not depend on tweezer centers.

    A stack of configurations, positions of shape (K, N, 3), gives a
    (K, 3N, 3N) stack whose every matrix has the bits of its lone call;
    the curvatures, (N, 3, 3) or (K, N, 3, 3), are shared or per matrix.
    ``planes`` are the positions' `pair_planes`, when the caller has them
    (the equilibrium descents compute them for the force); they are read,
    not written, and give the bits of the call that computes them.

    The pair blocks are built component-major, one (..., N, N) plane per
    entry (a, b) of ion pair (i, j): t = ((3 u_a) u_b - delta_ab) times
    k / r^3, with u the unit difference and k the Coulomb coefficient over
    the mass; the off-diagonal block is 0.0 - t.  The diagonal block of
    ion i sums t over its partners j in order j = 0..N-1, and the trap and
    the tweezer curvatures are added to that sum in turn.  The pair terms
    are mirror images bit for bit (u_ji = -u_ij exactly, and a product of
    two of them keeps its bits when both change sign), so t_ij = t_ji, and
    that sum is the one over the first ion axis, axis -2, which numpy adds
    in order; over the contiguous last axis it would sum pairwise.
    """
    pos = np.asarray(positions, dtype=float)
    lead, n = pos.shape[:-2], pos.shape[-2]
    out = np.empty(lead + (n, 3, n, 3))
    if n > 1:
        diff, dist = pair_planes(pos) if planes is None else planes
        dist = dist.copy()
        dist.reshape(lead + (n * n,))[..., :: n + 1] = 1.0
        unit = diff / dist
        ke2_m = species.coulomb_coefficient / species.mass
        t = (3.0 * unit)[:, None] * unit[None, :]
        for ax in range(3):
            t[ax, ax] -= 1.0
        t *= ke2_m / dist**3
        # the (i, i) entries, as a strided view of the flat ion pairs
        t.reshape((3, 3) + lead + (n * n,))[..., :: n + 1] = 0.0
        np.subtract(0.0, t, out=np.moveaxis(out, (-3, -1), (0, 1)))
        blocks = np.moveaxis(t.sum(axis=-2), (0, 1), (-2, -1))
    else:
        blocks = np.zeros(lead + (1, 3, 3))
    omegas = trap.omegas
    for ax in range(3):
        blocks[..., ax, ax] += omegas[ax] ** 2
    if curvatures is not None:
        blocks += curvatures
    ions = np.arange(n)
    out[..., ions, :, ions, :] = np.moveaxis(blocks, -3, 0)
    return out.reshape(lead + (3 * n, 3 * n))


def build_hessian(crystal: "IonCrystal", tweezers: Optional[TweezerPattern] = None) -> HessianMatrix:
    """Hessian of the crystal including centered pinning.

    Offset tweezers change the equilibrium first; re-solve and rebuild at
    the shifted positions instead of calling this with nonzero offsets.
    """
    curv = None
    if tweezers is not None:
        if tweezers.n_ions != crystal.n_ions:
            raise InvalidArgumentError("pattern size disagrees with crystal")
        if np.any(tweezers.offsets != 0.0):
            raise InvalidArgumentError(
                "build_hessian expects centered tweezers; re-solve the equilibrium for offset patterns"
            )
        curv = tweezers.curvatures
    a = mass_scaled_hessian(crystal.positions, crystal.trap, crystal.species, curv)
    return HessianMatrix(a, crystal.n_ions, crystal.trap.omega_bar)


@dataclass(frozen=True)
class ModeSpectrum:
    """Sorted phonon frequencies and orthonormal eigenvectors.

    `coords` maps eigenvector rows to flattened coordinate indices
    (3*ion + axis); a full spectrum has coords = arange(3N), a block
    spectrum a subset.  ``direction_weights[m, a]`` is mode m's squared
    norm on the rows of axis a, summed over those rows in order, for full
    and block spectra alike; it is computed from the eigenvectors, never
    passed in.
    """

    frequencies: np.ndarray  # (B,) rad/s, ascending
    eigenvalues: np.ndarray  # (B,) rad^2/s^2
    eigenvectors: np.ndarray  # (B, B), columns are modes
    coords: np.ndarray  # (B,) int
    n_ions: int
    freq_scale: float
    direction_weights: np.ndarray = field(init=False)  # (B, 3)

    def __post_init__(self):
        axes = np.asarray(self.coords) % 3
        w = np.stack([np.sum(self.eigenvectors[axes == a] ** 2, axis=0) for a in range(3)], axis=1)
        object.__setattr__(self, "direction_weights", w)

    @property
    def n_modes(self) -> int:
        return len(self.frequencies)

    def modes_along(self, axis: Union[str, Sequence[float]]) -> np.ndarray:
        """Boolean mask of modes with at least DIRECTION_PURITY of their
        squared norm on the given axes."""
        v = axis_vector(axis)
        on = np.flatnonzero(np.abs(v) > 0)
        return self.direction_weights[:, on].sum(axis=1) >= DIRECTION_PURITY


def mode_spectrum(
    hessian: Union[HessianMatrix, np.ndarray],
    freq_scale: Optional[float] = None,
    coords: Optional[np.ndarray] = None,
    n_ions: Optional[int] = None,
) -> ModeSpectrum:
    """Eigendecomposition with deterministic signs and a stability check.

    Eigenvalues below -TOL_PSD_REL * wbar^2 raise UnstableCrystalError;
    small negatives in the tolerance band are clipped to zero frequency.
    Degenerate groups are re-orthogonalized against the canonical basis so
    repeated runs give identical eigenvectors.
    """
    if isinstance(hessian, HessianMatrix):
        a = hessian.matrix  # exactly symmetric, so `spectra` leaves its bits as they are
        freq_scale = freq_scale or hessian.freq_scale
        n_ions = n_ions or hessian.n_ions
    else:
        a = np.asarray(hessian, dtype=float)
    if coords is None:
        coords = np.arange(a.shape[0])
        if n_ions is None:
            n_ions = a.shape[0] // 3
    coords = np.asarray(coords, dtype=int)
    if n_ions is None:
        raise InvalidArgumentError("n_ions required for block spectra")
    if freq_scale is None:
        freq_scale = float(np.sqrt(np.mean(np.abs(np.diag(a))))) or 1.0
    lam, vec, (err,) = spectra(a[None], freq_scale)
    if err is not None:
        raise err
    return ModeSpectrum(np.sqrt(np.clip(lam[0], 0.0, None)), lam[0], vec[0], coords, n_ions, freq_scale)


def spectra(hessians: np.ndarray, freq_scale: float) -> tuple[np.ndarray, np.ndarray, list]:
    """Eigendecompositions of a (K, B, B) stack of Hessians, full or block,
    each matrix with the bits of its lone decomposition; `mode_spectrum`
    is the call for a stack of one.

    The symmetry check, the symmetrization, one `eigh` (a stack of one
    included), the stability floor and the eigenvector signs run stacked;
    a matrix that fails the quick symmetry test is checked alone with
    `np.allclose`, a degenerate one is re-orthogonalized alone, and if the
    stacked `eigh` raises, each matrix is decomposed alone.  Returns the
    eigenvalues (K, B), the eigenvectors (K, B, B) and, per matrix, None or
    the exception `mode_spectrum` raises for it; the rows of a matrix with
    an exception are not its spectrum.
    """
    a = np.asarray(hessians, dtype=float)
    errors: list = [None] * len(a)
    scale = np.abs(a).max(axis=(1, 2))
    scale[scale == 0.0] = 1.0
    atol = 1e-10 * scale
    swapped = a.swapaxes(1, 2)
    quick = (np.abs(a - swapped).max(axis=(1, 2)) <= atol) & (atol < np.inf)
    for k in np.flatnonzero(~quick):
        if not np.allclose(a[k], a[k].T, rtol=0, atol=atol[k]):
            errors[k] = InvalidArgumentError("Hessian must be symmetric")
    a = 0.5 * (a + swapped)
    live = [k for k, err in enumerate(errors) if err is None]
    lam = np.zeros(a.shape[:2])
    vec = np.zeros(a.shape)
    try:
        if live:
            lam[live], vec[live] = np.linalg.eigh(a[live])
    except np.linalg.LinAlgError:
        for k in list(live):
            try:
                lam[k], vec[k] = np.linalg.eigh(a[k])
            except np.linalg.LinAlgError as err:
                errors[k] = err
                live.remove(k)
    floor = TOL_PSD_REL * freq_scale**2
    for k in np.flatnonzero(lam[:, 0] < -floor):
        errors[k] = UnstableCrystalError(
            f"lowest eigenvalue {lam[k, 0]:.6e} below stability floor -{floor:.6e} (rad^2/s^2)"
        )
        live.remove(k)
    vec[live] = _deterministic_eigenvectors(lam[live], vec[live], TOL_DEGENERACY_REL * freq_scale**2)
    return lam, vec, errors


def _deterministic_eigenvectors(lam, vec, tol):
    """A (K, B, B) stack of eigenvectors with each degenerate group
    re-orthogonalized, in place, and each mode's sign fixed."""
    for k in np.flatnonzero((np.diff(lam) < tol).any(axis=-1)):
        _canonicalize_groups(lam[k], vec[k], tol)
    # sign convention: the largest-magnitude component of each mode is positive
    pick = np.argmax(np.abs(vec), axis=-2)
    signs = np.sign(np.take_along_axis(vec, pick[..., None, :], axis=-2))
    signs[signs == 0] = 1.0
    return vec * signs


def _canonicalize_groups(lam, vec, tol):
    """Replace, in place, each group of eigenvectors whose eigenvalues sit
    closer than tol by its canonical subspace basis."""
    b = vec.shape[0]
    start = 0
    while start < b:
        stop = start + 1
        while stop < b and lam[stop] - lam[stop - 1] < tol:
            stop += 1
        if stop - start > 1:
            vec[:, start:stop] = _canonical_subspace_basis(vec[:, start:stop])
        start = stop


def _canonical_subspace_basis(basis):
    # project canonical unit vectors into the degenerate subspace in index
    # order and orthonormalize; deterministic regardless of LAPACK's choice
    dim = basis.shape[1]
    proj = basis @ basis.T
    out = []
    for j in range(basis.shape[0]):
        v = proj[:, j].copy()
        for u in out:
            v -= u * (u @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            out.append(v / norm)
            if len(out) == dim:
                break
    if len(out) != dim:  # pragma: no cover - subspace always spans
        return basis
    return np.column_stack(out)


def lamb_dicke(
    spectrum: ModeSpectrum,
    k_eff: float,
    drive_axis: Union[str, Sequence[float]],
    species: SpeciesConstants,
) -> np.ndarray:
    """Lamb-Dicke parameters eta[j, m] = k_eff * b_jm * sqrt(hbar / 2 M w_m).

    b_jm is the drive-axis projection of mode m at ion j.  A zero-frequency
    mode with nonzero projection raises ZeroFrequencyModeError.
    """
    if not k_eff > 0:
        raise InvalidArgumentError("k_eff must be positive")
    proj = mode_projections(spectrum, drive_axis)
    coupled = np.any(np.abs(proj) > 1e-12, axis=0)
    if np.any(coupled & (spectrum.frequencies == 0.0)):
        raise ZeroFrequencyModeError("a zero-frequency mode couples to the drive")
    zp = np.zeros_like(spectrum.frequencies)
    ok = spectrum.frequencies > 0
    zp[ok] = np.sqrt(HBAR / (2.0 * species.mass * spectrum.frequencies[ok]))
    eta = k_eff * proj * zp[None, :]
    eta[:, ~coupled] = 0.0
    return eta


def mode_projections(spectrum: ModeSpectrum, drive_axis: Union[str, Sequence[float]]) -> np.ndarray:
    """Drive-axis amplitude of each mode at each ion, shape (N, B)."""
    return _placement(spectrum.coords, spectrum.n_ions, drive_axis) @ spectrum.eigenvectors


def _placement(coords: np.ndarray, n_ions: int, drive_axis: Union[str, Sequence[float]]) -> np.ndarray:
    """The (N, B) matrix whose column r holds the unit drive axis's component
    `coords[r] % 3` in row `coords[r] // 3`: times full or block eigenvectors,
    (B, B) or a (K, B, B) stack, it gives each ion's drive-axis amplitude."""
    v = axis_vector(drive_axis)
    coords = np.asarray(coords)
    out = np.zeros((n_ions, coords.size))
    out[coords // 3, np.arange(coords.size)] = v[coords % 3]
    return out


def block_coords(n_ions: int, axes: Sequence[Union[str, int]]) -> np.ndarray:
    """Flattened coordinate indices of the given axes for every ion."""
    idx = sorted(AXIS_INDEX[a] if isinstance(a, str) else int(a) for a in axes)
    return np.array([3 * i + a for i in range(n_ions) for a in idx], dtype=int)
