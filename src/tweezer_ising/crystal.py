"""Trapping potential, ion equilibrium positions, and ideal lattice geometries.

Everything is SI internally: positions in meters, angular frequencies in
rad/s, energies in joules.  Positions are (N, 3) arrays with columns
(x, y, z); the flattened coordinate index of ion i along axis a is 3*i + a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .constants import SpeciesConstants
from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    NonPlanarError,
    SingularGeometryError,
)
from .modes import TOL_PSD_REL, TweezerPattern, euclidean_norm, mass_scaled_hessian

AXIS_NAMES = ("x", "y", "z")

#: converged equilibrium: |grad V| / (M wbar^2 lbar) below this
TOL_EQUILIBRIUM = 1e-10
#: minimum pairwise distance during iterations, in units of lbar
DIST_FLOOR = 1e-3
#: max out-of-structure coordinate of a converged 1D/2D crystal, in lbar
TOL_EXTENT = 1e-6


@dataclass(frozen=True)
class TrapConfig:
    """Harmonic trap frequencies (rad/s) and the number of ions."""

    omega_x: float
    omega_y: float
    omega_z: float
    n_ions: int

    def __post_init__(self):
        for name in ("omega_x", "omega_y", "omega_z"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be positive")
        if self.n_ions < 1:
            raise InvalidArgumentError("n_ions must be at least 1")

    @property
    def omegas(self) -> np.ndarray:
        return np.array([self.omega_x, self.omega_y, self.omega_z])

    @property
    def omega_bar(self) -> float:
        """Geometric mean trap frequency, used for dimensionless tolerances."""
        return float(np.cbrt(self.omega_x * self.omega_y * self.omega_z))

    def replace_axis(self, axis: str, omega: float) -> "TrapConfig":
        kwargs = {
            "omega_x": self.omega_x,
            "omega_y": self.omega_y,
            "omega_z": self.omega_z,
            "n_ions": self.n_ions,
        }
        kwargs["omega_" + axis] = omega
        return TrapConfig(**kwargs)


@dataclass(frozen=True)
class IonCrystal:
    """A converged crystal: trap, species, and equilibrium positions."""

    trap: TrapConfig
    species: SpeciesConstants
    positions: np.ndarray  # (N, 3), meters
    dimensionality: str  # "chain" or "planar"
    extended_axes: tuple[int, ...]  # axis indices with nonzero extent

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.shape != (self.trap.n_ions, 3):
            raise InvalidArgumentError(
                f"positions must have shape ({self.trap.n_ions}, 3), got {pos.shape}"
            )
        if self.trap.n_ions > 1 and _pair_terms(pos)[2].min() <= 0:
            raise SingularGeometryError("crystal has coincident ions")
        object.__setattr__(self, "positions", pos)

    @property
    def n_ions(self) -> int:
        return self.trap.n_ions

    @property
    def length_scale(self) -> float:
        return length_scale(self.trap.omega_bar, self.species)


def length_scale(omega: float, species: SpeciesConstants) -> float:
    """Coulomb length (q^2 / (4 pi eps0 M omega^2))^(1/3)."""
    if not omega > 0:
        raise InvalidArgumentError("omega must be positive")
    return (species.coulomb_coefficient / (species.mass * omega**2)) ** (1.0 / 3.0)


def equidistant_spacing(omega_z_eff: float, n_ions: int, species: SpeciesConstants) -> float:
    """Inter-ion distance of the idealized equidistant crystal.

    d0 = (q^2 / (4 pi eps0 M omega^2))^(1/3) * 2 / N^0.56
    """
    if not omega_z_eff > 0:
        raise InvalidArgumentError("omega_z_eff must be positive")
    if n_ions < 2:
        raise InvalidArgumentError("need at least 2 ions for a spacing")
    return length_scale(omega_z_eff, species) * 2.0 / n_ions**0.56


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    return _pair_terms(positions)[1]


@lru_cache(maxsize=16)
def _pair_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the pairs i < j (np.triu_indices order) and of the
    pairs i != j (row-major) in an (n, n) array, built once per ion count."""
    upper = np.ravel_multi_index(np.triu_indices(n, 1), (n, n))
    off = np.flatnonzero(~np.eye(n, dtype=bool))
    upper.flags.writeable = off.flags.writeable = False
    return upper, off


def _pair_terms(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Differences (N, N, 3) and distances (N, N) of every ion pair, and the
    distances of the pairs i < j."""
    diff = pos[:, None, :] - pos[None, :, :]
    # np.linalg.norm(diff, axis=-1), as numpy computes it
    dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
    return diff, dist, dist.take(_pair_tables(pos.shape[0])[0])


def potential_and_gradient(
    positions: np.ndarray,
    trap: TrapConfig,
    species: SpeciesConstants,
    tweezers: Optional["TweezerPattern"] = None,
    tweezer_centers: Optional[np.ndarray] = None,
):
    """Total potential energy (J) and its exact gradient (N, 3) in J/m.

    The tweezer term is quadratic around fixed absolute centers; callers
    providing a pattern must also provide the centers (typically the
    aligned equilibrium plus the pattern offsets).
    """
    pos = np.asarray(positions, dtype=float).reshape(trap.n_ions, 3)
    pairs = _pair_terms(pos) if trap.n_ions > 1 else None
    return _potential_and_gradient(pos, pairs, trap, species, tweezers, tweezer_centers)


def _potential_and_gradient(pos, pairs, trap, species, tweezers, tweezer_centers):
    """`potential_and_gradient` at (N, 3) float positions whose `_pair_terms`
    are ``pairs`` (None for one ion)."""
    m = species.mass
    w2 = trap.omegas**2

    energy = 0.5 * m * (w2 * pos**2).sum()
    grad = m * w2 * pos

    if pairs is not None:
        diff, dist, upper = pairs
        if upper.min() <= 0.0:
            raise SingularGeometryError("coincident ions in potential evaluation")
        ke2 = species.coulomb_coefficient
        energy += ke2 * (1.0 / upper).sum()
        off = _pair_tables(trap.n_ions)[1]
        inv3 = np.zeros(dist.shape)
        inv3.put(off, dist.take(off) ** -3)
        grad += -ke2 * (diff * inv3[:, :, None]).sum(axis=1)

    if tweezers is not None:
        if tweezer_centers is None:
            raise InvalidArgumentError("tweezer_centers required when tweezers are present")
        u = pos - np.asarray(tweezer_centers, dtype=float)
        curv = tweezers.curvatures  # (N, 3, 3), rad^2/s^2
        energy += 0.5 * m * np.einsum("ia,iab,ib->", u, curv, u)
        grad += m * np.einsum("iab,ib->ia", curv, u)

    return energy, grad


def make_lattice(kind: str, n_ions: int, spacing: float, plane: tuple[int, int] = (1, 2)) -> np.ndarray:
    """Ideal lattice positions used as solver guesses and stage-1 geometry.

    chain: equidistant along z.  triangular: centered hexagonal lattice in
    the given plane (axis indices, default y-z), supported for centered
    hexagonal counts 1, 7, 19, 37, ...
    """
    if spacing <= 0:
        raise InvalidArgumentError("spacing must be positive")
    if kind == "chain":
        if n_ions < 1:
            raise InvalidArgumentError("chain needs at least one ion")
        pos = np.zeros((n_ions, 3))
        pos[:, 2] = (np.arange(n_ions) - (n_ions - 1) / 2.0) * spacing
        return pos
    if kind == "triangular":
        shells = hex_shells(n_ions)
        a, b = np.meshgrid(np.arange(-shells, shells + 1), np.arange(-shells, shells + 1))
        a, b = a.ravel(), b.ravel()
        keep = np.abs(a + b) <= shells
        keep &= (np.abs(a) <= shells) & (np.abs(b) <= shells)
        a, b = a[keep], b[keep]
        pos = np.zeros((a.size, 3))
        pos[:, plane[0]] = (a + 0.5 * b) * spacing
        pos[:, plane[1]] = (math.sqrt(3.0) / 2.0) * b * spacing
        order = np.lexsort((pos[:, plane[1]], pos[:, plane[0]], np.hypot(pos[:, plane[0]], pos[:, plane[1]])))
        return pos[order]
    raise InvalidArgumentError(f"unsupported lattice kind {kind!r}")


def hex_shells(n_ions: int) -> int:
    """Shell count k of a centered hexagonal lattice of n = 1 + 3 k (k + 1) ions."""
    # below one ion the root is undefined; k = 0 then fails the count check
    k = round((-3 + math.sqrt(12 * n_ions - 3)) / 6) if n_ions >= 1 else 0
    if 1 + 3 * k * (k + 1) != n_ions:
        raise InvalidArgumentError(
            f"{n_ions} is not a centered hexagonal count (1, 7, 19, 37, ...)"
        )
    return k


def triangular_start(
    trap: TrapConfig, species: SpeciesConstants, omega: float
) -> tuple[np.ndarray, tuple[int, int]]:
    """Triangular-lattice guess in the plane of the two weakest trap axes.

    The lattice constant is 1.5 length scales at `omega`.  Returns the
    positions and the plane (sorted axis indices).
    """
    weak = np.argsort(trap.omegas, kind="stable")[:2]
    plane = tuple(sorted(int(a) for a in weak))
    return make_lattice("triangular", trap.n_ions, 1.5 * length_scale(omega, species), plane=plane), plane


def default_chain_guess(trap: TrapConfig, species: SpeciesConstants) -> np.ndarray:
    """Equidistant chain along the weakest trap axis, a robust Newton guess."""
    weakest = int(np.argmin(trap.omegas))
    if trap.n_ions == 1:
        return np.zeros((1, 3))
    d0 = equidistant_spacing(trap.omegas[weakest], trap.n_ions, species)
    pos = np.zeros((trap.n_ions, 3))
    pos[:, weakest] = (np.arange(trap.n_ions) - (trap.n_ions - 1) / 2.0) * d0
    return pos


def solve_equilibrium(
    trap: TrapConfig,
    species: SpeciesConstants,
    n_ions: int,
    initial_guess: Optional[np.ndarray] = None,
    tweezers: Optional["TweezerPattern"] = None,
    tweezer_reference: Optional[np.ndarray] = None,
    max_iter: int = 200,
    require: Optional[str] = None,
) -> IonCrystal:
    """Damped Newton solve of grad V = 0.

    Centered tweezers (zero offsets) do not move the equilibrium; with
    offsets the pattern is anchored at `tweezer_reference` (defaulting to
    the tweezer-free solution from the same guess) and the crystal shifts.
    `require` optionally asserts the resulting dimensionality
    ("chain" or "planar").
    """
    if n_ions != trap.n_ions:
        raise InvalidArgumentError("n_ions disagrees with trap.n_ions")
    if initial_guess is None:
        initial_guess = default_chain_guess(trap, species)
    guess = np.asarray(initial_guess, dtype=float).reshape(n_ions, 3)
    if n_ions > 1 and _pair_terms(guess)[2].min() <= 0:
        raise InvalidArgumentError("initial guess has coincident ions")

    centers = None
    if tweezers is not None:
        if tweezer_reference is None:
            ref = solve_equilibrium(trap, species, n_ions, guess, max_iter=max_iter)
            tweezer_reference = ref.positions
        centers = np.asarray(tweezer_reference, dtype=float) + tweezers.offsets

    # descents can stall at saddles (a collinear chain past the zigzag
    # transition); kick deterministically and re-descend until a stable
    # stationary point is reached
    curv = tweezers.curvatures if tweezers is not None else None
    floor = TOL_PSD_REL * trap.omega_bar**2
    lbar = length_scale(trap.omega_bar, species)
    pos, residual = guess, np.inf
    for attempt in range(5):
        pos, residual = _newton_descent(pos, trap, species, tweezers, centers, max_iter)
        lam_min = np.linalg.eigvalsh(mass_scaled_hessian(pos, trap, species, curv))[0]
        if residual < TOL_EQUILIBRIUM and lam_min >= -floor:
            break
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1905, spawn_key=(attempt,))))
        pos = pos + min(1e-3 * 4.0**attempt, 3e-2) * lbar * rng.standard_normal(pos.shape)
    else:
        raise ConvergenceError(
            f"equilibrium solve stalled at scaled residual {residual:.3e}"
            + (" on an unstable stationary point" if lam_min < -floor else ""),
            residual=float(residual),
        )
    dimensionality, extended = _classify_geometry(pos, trap, species)
    if require is not None and dimensionality != require:
        raise NonPlanarError(
            f"crystal relaxed to {dimensionality!r}, required {require!r}"
        )
    return IonCrystal(trap, species, pos, dimensionality, extended)


def _newton_descent(pos, trap, species, tweezers, centers, max_iter):
    m = species.mass
    wbar = trap.omega_bar
    lbar = length_scale(wbar, species)
    force_scale = m * wbar**2 * lbar
    dist_floor = DIST_FLOOR * lbar
    n = trap.n_ions

    curv = tweezers.curvatures if tweezers is not None else None
    energy, grad = potential_and_gradient(pos, trap, species, tweezers, centers)
    for _ in range(max_iter):
        grad_norm = euclidean_norm(grad)
        residual = grad_norm / force_scale
        if residual < TOL_EQUILIBRIUM:
            return pos, residual
        hess = m * mass_scaled_hessian(pos, trap, species, curv)
        # cho_factor and cho_solve's LAPACK calls, without their wrappers
        factor, info = dpotrf(hess, lower=1, clean=0)
        if info == 0:
            step = dpotrs(factor, -grad.ravel(), lower=1)[0].reshape(n, 3)
        else:
            step = -grad / (m * wbar**2)  # indefinite Hessian: gradient descent
        g_dot_step = float((grad * step).sum())
        if g_dot_step >= 0:  # not a descent direction; fall back
            step = -grad / (m * wbar**2)
            g_dot_step = float((grad * step).sum())
        alpha = 1.0
        accepted = False
        while alpha > 1e-18:
            trial = pos + alpha * step
            pairs = None
            if n > 1:
                pairs = _pair_terms(trial)
                if pairs[2].min() < dist_floor:
                    alpha *= 0.5
                    continue
            e_t, g_t = _potential_and_gradient(trial, pairs, trap, species, tweezers, centers)
            # near the minimum the energy decrease drowns in rounding; a
            # shrinking force is the reliable acceptance signal there
            if e_t <= energy + 1e-4 * alpha * g_dot_step or euclidean_norm(g_t) < 0.9 * grad_norm:
                pos, energy, grad = trial, e_t, g_t
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    return pos, euclidean_norm(grad) / force_scale


def _classify_geometry(pos, trap, species):
    lbar = length_scale(trap.omega_bar, species)
    extents = np.abs(pos).max(axis=0)
    extended = tuple(int(a) for a in np.flatnonzero(extents > TOL_EXTENT * lbar))
    if len(extended) <= 1:
        axis = extended if extended else (int(np.argmin(trap.omegas)),)
        return "chain", axis
    if len(extended) == 2:
        return "planar", extended
    raise NonPlanarError("crystal extends along all three axes")
