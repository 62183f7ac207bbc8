"""Trapping potential, ion equilibrium positions, and ideal lattice geometries.

Everything is SI internally: positions in meters, angular frequencies in
rad/s, energies in joules.  Positions are (N, 3) arrays with columns
(x, y, z); the flattened coordinate index of ion i along axis a is 3*i + a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache, partial
from typing import Optional

import numpy as np

from .compiled import scipy_extension
from .constants import SpeciesConstants
from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    NonPlanarError,
    SingularGeometryError,
    as_integer,
)
from .modes import AXIS_INDEX, TOL_PSD_REL, TweezerPattern, euclidean_norm, mass_scaled_hessian, pair_planes


# the LAPACK wrappers alone: these are the objects `scipy.linalg.lapack`
# exports once it is imported, so every factor and solve keeps its bits
_flapack = scipy_extension("scipy.linalg._flapack")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs

#: converged equilibrium: |grad V| / (M wbar^2 lbar) below this
TOL_EQUILIBRIUM = 1e-10
#: minimum pairwise distance during iterations, in units of lbar
DIST_FLOOR = 1e-3
#: max out-of-structure coordinate of a converged 1D/2D crystal, in lbar
TOL_EXTENT = 1e-6
#: Newton steps per descent, the cap of `solve_equilibrium` and
#: `relax_equilibria` alike, so a relaxed lane is a solve's first descent
NEWTON_MAX_ITER = 200


@dataclass(frozen=True)
class TrapConfig:
    """Harmonic trap frequencies (rad/s) and the number of ions, an
    integer (Python or numpy) of at least 1."""

    omega_x: float
    omega_y: float
    omega_z: float
    n_ions: int

    def __post_init__(self):
        for name in ("omega_x", "omega_y", "omega_z"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be positive")
        if as_integer("n_ions", self.n_ions) < 1:
            raise InvalidArgumentError("n_ions must be at least 1")

    @property
    def omegas(self) -> np.ndarray:
        return np.array([self.omega_x, self.omega_y, self.omega_z])

    @property
    def omega_bar(self) -> float:
        """Geometric mean trap frequency, used for dimensionless tolerances."""
        return float(np.cbrt(self.omega_x * self.omega_y * self.omega_z))

    def replace_axis(self, axis: str, omega: float) -> "TrapConfig":
        if axis not in AXIS_INDEX:
            raise InvalidArgumentError(f"unknown trap axis {axis!r} (use x, y or z)")
        return replace(self, **{"omega_" + axis: omega})


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
    """`pair_planes` of positions (..., N, 3) and the distances of the pairs i < j."""
    diff, dist = pair_planes(pos)
    upper = _pair_tables(pos.shape[-2])[0]
    return diff, dist, dist.reshape(dist.shape[:-2] + (-1,)).take(upper, axis=-1)


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
    pos = np.asarray(positions, dtype=float).reshape(1, trap.n_ions, 3)
    pairs = _pair_terms(pos) if trap.n_ions > 1 else None
    if pairs is not None and pairs[2].min() <= 0.0:
        raise SingularGeometryError("coincident ions in potential evaluation")
    if tweezers is not None and tweezer_centers is None:
        raise InvalidArgumentError("tweezer_centers required when tweezers are present")
    energy_of, grads = _potentials_and_gradients(pos, pairs, trap, species)
    if tweezers is not None:
        centers = np.asarray(tweezer_centers, dtype=float)
        energy_of, grads = _with_tweezers(energy_of, grads, pos, species.mass, tweezers.curvatures, centers)
    return energy_of(0), grads[0]


def _potentials_and_gradients(pos, pairs, trap, species):
    """Tweezer-free energies and gradients (K, N, 3) at a (K, N, 3) stack
    of distinct-ion positions whose `_pair_terms` are ``pairs`` (None for
    one ion): the trap's and the Coulomb terms; `_with_tweezers` adds the
    tweezers'.

    The energies come as a function of the lane, so a caller pays only for
    those it reads.  Every lane has the bits of its lone evaluation: the
    gradient is stacked and each energy is summed on its own, because
    numpy's row sums of a stack do not add in the order of a lone sum.
    The Coulomb force on ion i sums (r_i - r_j) / r^3 over its partners j
    in order, over axis -2 of the component-major `pair_planes`, and the
    energy sums 1 / r over the pairs i < j.
    """
    m = species.mass
    w2 = trap.omegas**2

    harmonic = w2 * pos**2
    grad = m * w2 * pos
    if pairs is not None:
        diff, dist, upper = pairs
        ke2 = species.coulomb_coefficient
        inverse = 1.0 / upper
        off = _pair_tables(trap.n_ions)[1]
        inv3 = np.zeros(dist.shape)
        flat = inv3.reshape(len(pos), -1)
        flat[:, off] = dist.reshape(len(pos), -1)[:, off] ** -3
        grad += -ke2 * np.moveaxis((diff * inv3).sum(axis=-2), 0, -1)

    def energy_of(k):
        energy = 0.5 * m * harmonic[k].sum()
        if pairs is not None:
            energy += ke2 * inverse[k].sum()
        return energy

    return energy_of, grad


def _with_tweezers(energy_of, grad, pos, m, curv, centers):
    """The tweezer-free ``energy_of`` and ``grad`` (K, N, 3) of
    `_potentials_and_gradients` at positions ``pos`` (K, N, 3), with the
    term of tweezers of curvatures (N, 3, 3) around centers broadcasting to
    the positions added: lane k's gradient gains m curv (x - c) and its
    energy (m / 2) (x - c) curv (x - c), each after the tweezer-free sum,
    as a lone evaluation adds them.  Neither input is written to."""
    u = pos - centers
    grad = grad + m * np.einsum("iab,kib->kia", curv, u)

    def energy_with_tweezers(k):
        return energy_of(k) + 0.5 * m * np.einsum("ia,iab,ib->", u[k], curv, u[k])

    return energy_with_tweezers, grad


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
    max_iter: int = NEWTON_MAX_ITER,
    require: Optional[str] = None,
    first_descent: Optional[tuple] = None,
) -> IonCrystal:
    """Damped Newton solve of grad V = 0.

    Centered tweezers (zero offsets) do not move the equilibrium; with
    offsets the pattern is anchored at `tweezer_reference` (defaulting to
    the tweezer-free solution from the same guess) and the crystal shifts.
    `require` optionally asserts the resulting dimensionality
    ("chain" or "planar").  Its descents are those of `relax_equilibria`,
    run for one lane.

    A descent that ends below `TOL_EQUILIBRIUM` is kept when its crystal
    is stable (`_is_stable`: one Cholesky factorization, and `eigvalsh`
    only for a crystal it does not certify); otherwise it is kicked and
    repeated, up to five times.  The stability check reads the Hessian the
    descent built with its last point, so the check builds none.  A guess
    with coincident ions raises InvalidArgumentError from the first
    descent, which leaves it unmoved.  `max_iter`, the Newton steps per
    descent, is a nonnegative integer (InvalidArgumentError otherwise); 0
    checks the guess as it is.

    ``first_descent`` hands the solve the outcome of its own first
    descent, run elsewhere: ``(positions, residual, hessian)``, lane k of
    `relax_equilibria` run from ``initial_guess`` with these tweezers and
    `max_iter`.  The solve then skips that descent and runs its checks, and
    any kicks, from there, so it gives the bits of the solve without the
    hand-off.  Nothing checks that the hand-off is that outcome.
    """
    if n_ions != trap.n_ions:
        raise InvalidArgumentError("n_ions disagrees with trap.n_ions")
    max_iter = _newton_cap(max_iter)
    if initial_guess is None:
        initial_guess = default_chain_guess(trap, species)
    guess = np.asarray(initial_guess, dtype=float).reshape(n_ions, 3)

    curv = centers = None
    if tweezers is not None:
        if tweezer_reference is None:
            ref = solve_equilibrium(trap, species, n_ions, guess, max_iter=max_iter)
            tweezer_reference = ref.positions
        curv = tweezers.curvatures
        centers = (np.asarray(tweezer_reference, dtype=float) + tweezers.offsets)[None]

    scales = _Scales.of(trap, species)
    pos = guess
    # descents can stall at saddles (a collinear chain past the zigzag
    # transition); kick deterministically and re-descend
    for attempt in range(5):
        if attempt or first_descent is None:
            (pos,), (residual,), (hess,) = _descents(pos[None], trap, species, curv, centers, scales, max_iter)
        else:
            pos, residual, hess = first_descent
            pos = np.array(pos, dtype=float).reshape(n_ions, 3)  # the solved crystal's own positions
        # a lane that starts on coincident ions does not descend
        if np.isnan(residual) and n_ions > 1 and _pair_terms(pos)[2].min() <= 0:
            if attempt == 0:
                raise InvalidArgumentError("initial guess has coincident ions")
            raise SingularGeometryError("coincident ions in potential evaluation")  # a kick joined two ions
        stable = _is_stable(hess, scales.psd_floor)
        if residual < TOL_EQUILIBRIUM and stable:
            break
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1905, spawn_key=(attempt,))))
        pos = pos + min(1e-3 * 4.0**attempt, 3e-2) * scales.lbar * rng.standard_normal(pos.shape)
    else:
        raise ConvergenceError(
            f"equilibrium solve stalled at scaled residual {residual:.3e}"
            + ("" if stable else " on an unstable stationary point"),
            residual=float(residual),
        )
    dimensionality, extended = _classify_geometry(pos, trap, species)
    if require is not None and dimensionality != require:
        raise NonPlanarError(f"crystal relaxed to {dimensionality!r}, required {require!r}")
    # IonCrystal's checks cannot fail here: the positions have the trap's
    # shape, and a descent keeps only positions whose nearest ions are at
    # least the distance floor apart (or the guess, whose are not coincident)
    solved = object.__new__(IonCrystal)
    object.__setattr__(solved, "trap", trap)
    object.__setattr__(solved, "species", species)
    object.__setattr__(solved, "positions", pos)
    object.__setattr__(solved, "dimensionality", dimensionality)
    object.__setattr__(solved, "extended_axes", extended)
    return solved


def _is_stable(hess: np.ndarray, psd_floor: float) -> bool:
    """Whether ``np.linalg.eigvalsh(hess)[0] >= -psd_floor`` for a
    symmetric (n, n) ``hess``, mostly without the eigenvalues.

    A completed Cholesky factorization gives R R^T = H + E with ||E||_2 <=
    (n + 1) u ||R||_F^2 to first order, u = eps/2 (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3); R R^T is positive
    semidefinite, so lambda_min(H) >= -(n + 1) u ||R||_F^2.  `eigvalsh` is
    backward stable, within a small multiple of n u ||H||_2 <= n u ||R||_F^2;
    with that multiple up to n, its lambda_min is at least
    -n (n + 1) eps ||R||_F^2.  Where that bound is above -psd_floor, the
    eigenvalue test can only say stable.  For the 12-ion chain (n = 36,
    ||R||_F^2 ~ trace H ~ 270 wbar^2) the bound is ~8e-11 wbar^2 against a
    floor of 1e-6 wbar^2; at 100 ions it holds while trace H < ~5e4
    wbar^2.  A failed factorization (a marginal, unstable or non-finite H:
    a NaN anywhere in H reaches R) or a missed bound leaves the verdict to
    `eigvalsh`, which answers, or raises LinAlgError, as before.  So the
    verdict is the eigenvalue test's, not an approximation of it.
    """
    factor, info = dpotrf(hess, lower=1)
    n = len(hess)
    if info == 0 and n * (n + 1) * math.ulp(1.0) * (factor * factor).sum() < psd_floor:
        return True
    return bool(np.linalg.eigvalsh(hess)[0] >= -psd_floor)


def relax_equilibria(
    trap: TrapConfig,
    species: SpeciesConstants,
    guesses: np.ndarray,
    curvatures: Optional[np.ndarray] = None,
    centers: Optional[np.ndarray] = None,
    max_iter: int = NEWTON_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first Newton descent of `solve_equilibrium` for K lanes in lockstep.

    ``guesses`` and the tweezer ``centers`` are (K, N, 3) stacks of
    distinct-ion positions, N the trap's ion count; the tweezer
    ``curvatures`` (N, 3, 3), or None for no tweezers, are shared.  The
    lanes descend together in `_descents`, and every lane has the bits of
    its lone descent.  Guesses that are all one point, as the misalignment
    scan's broadcast of the aligned crystal, are evaluated once there, and
    the lanes' first Newton steps share one Cholesky factor.  Guesses of
    another shape, curvatures of another shape than (N, 3, 3), tweezer
    centers that are not of the guesses' shape, or a `max_iter` that is not
    a nonnegative integer, raise InvalidArgumentError before any descent.

    Returns the positions (K, N, 3) where the descents ended, their scaled
    residuals (K,) and the `mass_scaled_hessian`s (K, 3N, 3N) at those
    positions with the curvatures, each built from the pair terms of the
    lane's force evaluation there; a lane converged where its residual is
    below `TOL_EQUILIBRIUM`.  A lane that started on coincident ions is not
    evaluated: its residual and its Hessian are NaN.  Lane k is the
    ``first_descent`` of a `solve_equilibrium` from guess k with the same
    tweezers and `max_iter`.
    """
    shape = np.shape(guesses)
    if len(shape) != 3 or shape[1:] != (trap.n_ions, 3):
        raise InvalidArgumentError(f"guesses must have shape (K, {trap.n_ions}, 3), got {shape}")
    if curvatures is not None and np.shape(curvatures) != (trap.n_ions, 3, 3):
        raise InvalidArgumentError(
            f"tweezer curvatures must have shape ({trap.n_ions}, 3, 3), got {np.shape(curvatures)}"
        )
    if curvatures is not None and np.shape(centers) != shape:
        raise InvalidArgumentError(f"tweezer centers must have the guesses' shape {shape}, got {np.shape(centers)}")
    max_iter = _newton_cap(max_iter)
    return _descents(guesses, trap, species, curvatures, centers, _Scales.of(trap, species), max_iter)


def _newton_cap(max_iter) -> int:
    """`max_iter` as an int; a value that is not a nonnegative integer
    raises InvalidArgumentError."""
    max_iter = as_integer("max_iter", max_iter)
    if max_iter < 0:
        raise InvalidArgumentError(f"max_iter must be nonnegative, got {max_iter}")
    return max_iter


@dataclass(frozen=True)
class _Scales:
    """The constants of one trap and species that every lane shares."""

    m: float
    m_wbar2: float
    lbar: float
    force_scale: float
    dist_floor: float
    psd_floor: float

    @classmethod
    def of(cls, trap: TrapConfig, species: SpeciesConstants) -> "_Scales":
        m, wbar = species.mass, trap.omega_bar
        lbar = length_scale(wbar, species)
        return cls(m, m * wbar**2, lbar, m * wbar**2 * lbar, DIST_FLOOR * lbar, TOL_PSD_REL * wbar**2)


def _descents(pos, trap, species, curvatures, centers, scales, max_iter):
    """Damped Newton descents from a (K, N, 3) stack of positions, in lockstep.

    Each line-search round makes one `_evaluate` call at the lanes'
    trials, the start points first: one computation of their pair terms,
    from which come the energies, the gradients and the
    `mass_scaled_hessian`s of all of them; a trial closer than the
    distance floor gets no evaluation and halves its step.  When every
    lane starts at one point (the same bits, so 0.0 and -0.0 differ), that
    point is evaluated once: one pair-term pass, one tweezer-free energy
    and force and one Hessian for it, to which each lane adds its own
    tweezer force and energy; the lanes' first Newton steps then share the
    Cholesky factor of that Hessian, and each solves with it on its own.
    Each lane keeps the Hessian of the point it accepted, which gives its
    next Newton step and is returned with the point.  The Cholesky solves,
    norms, slopes and acceptance tests stay per lane, so every lane has the
    bits of its lone descent.  ``centers`` is a (K, N, 3) stack, or None
    without tweezers; neither it nor ``pos`` is written to.

    Returns the positions (K, N, 3), the scaled residuals (K,) and the
    Hessians (K, 3N, 3N) there; the residual and the Hessian are NaN for a
    lane that starts on coincident ions and so does not descend.
    """
    pos = np.array(pos, dtype=float)  # a copy: the caller's stack may be a view
    grad, step = np.empty_like(pos), np.empty_like(pos)
    hess = np.full((len(pos), 3 * pos.shape[1], 3 * pos.shape[1]), np.nan)
    norm, slope, alpha = np.full(len(pos), np.nan), np.empty(len(pos)), np.empty(len(pos))
    energy = [None] * len(pos)  # a float, or a function to call for it
    evaluate = partial(_evaluate, trap=trap, species=species, curvatures=curvatures, centers=centers)
    shared = len(pos) > 1 and bool((pos.view(np.uint64) == pos[:1].view(np.uint64)).all())
    lanes, energy_of, grads, hessians = evaluate(pos[:1] if shared else pos, np.arange(len(pos)), 0.0)
    lanes = lanes.tolist()
    for i, k in enumerate(lanes):
        grad[k], hess[k], energy[k], norm[k] = grads[i], hessians[i], partial(energy_of, i), euclidean_norm(grads[i])
    for newton_step in range(max_iter):
        lanes = [k for k in lanes if not norm[k] / scales.force_scale < TOL_EQUILIBRIUM]
        if not lanes:
            break
        # cho_factor and cho_solve's LAPACK calls, without their wrappers;
        # lanes that share their start share its Hessian's factor
        start = dpotrf(scales.m * hess[lanes[0]], lower=1, clean=0) if shared and not newton_step else None
        for k in lanes:
            factor, info = start if start is not None else dpotrf(scales.m * hess[k], lower=1, clean=0)
            if info == 0:
                step[k] = dpotrs(factor, -grad[k].ravel(), lower=1)[0].reshape(-1, 3)
            else:
                step[k] = -grad[k] / scales.m_wbar2  # indefinite Hessian: gradient descent
            slope[k] = float((grad[k] * step[k]).sum())
            if slope[k] >= 0:  # not a descent direction; fall back
                step[k] = -grad[k] / scales.m_wbar2
                slope[k] = float((grad[k] * step[k]).sum())
        alpha[lanes] = 1.0
        search = lanes
        while search:
            trials = pos[search] + alpha[search, None, None] * step[search]
            kept, energy_of, grads, hessians = evaluate(trials, np.array(search), scales.dist_floor)
            evaluated = dict(zip(kept.tolist(), range(len(kept))))
            retry = []
            for j, k in enumerate(search):
                i = evaluated.get(j)  # None: closer than the distance floor
                if i is not None:
                    # near the minimum the energy decrease drowns in rounding; a
                    # shrinking force is the reliable acceptance signal there, and
                    # when it holds, neither energy is needed
                    g_norm = euclidean_norm(grads[i])
                    shrinks = g_norm < 0.9 * norm[k]
                    if not shrinks:
                        energy[k] = energy[k]() if callable(energy[k]) else energy[k]
                        e_t = energy_of(i)
                    if shrinks or e_t <= energy[k] + 1e-4 * alpha[k] * slope[k]:
                        pos[k], grad[k], hess[k], norm[k] = trials[j], grads[i], hessians[i], g_norm
                        energy[k] = partial(energy_of, i) if shrinks else e_t
                        continue
                alpha[k] *= 0.5
                retry.append(k)
            search = [k for k in retry if alpha[k] > 1e-18]
        lanes = [k for k in lanes if alpha[k] > 1e-18]  # the others found no step: their descents end
    return pos, norm / scales.force_scale, hess


def _evaluate(trials, lanes, floor, trap, species, curvatures, centers):
    """The energies, gradients and Hessians of ``lanes`` at their (k, N, 3)
    ``trials`` whose nearest ions are not closer than ``floor`` and not
    coincident, from one computation of their pair terms: one stacked
    `_potentials_and_gradients` call, one `_with_tweezers` with each lane's
    tweezer centers, and one stacked `mass_scaled_hessian` (with the
    tweezer curvatures) handed its planes.  One trial for several lanes is
    their shared start: its pair terms, tweezer-free energy and gradient
    and Hessian are computed once, for a one-lane stack, and every lane
    gets them with its own tweezer term added, the bits of its own
    evaluation.  Returns the indices of the evaluated lanes among
    ``lanes``, the energies as a function of their position among them,
    their gradients and their Hessians."""
    shared = len(trials) < len(lanes)
    keep, pairs = np.arange(len(trials)), None
    if trap.n_ions > 1 and keep.size:
        pairs = _pair_terms(trials)
        nearest = pairs[2].min(axis=1)
        keep = np.flatnonzero(~((nearest < floor) | (nearest <= 0.0)))
        if 0 < keep.size < len(trials):
            trials = trials[keep]
            diff, dist, upper = pairs
            pairs = diff[:, keep], dist[keep], upper[keep]
    if not keep.size:
        return keep, None, None, None
    energy_of, grads = _potentials_and_gradients(trials, pairs, trap, species)
    hessians = mass_scaled_hessian(trials, trap, species, curvatures, None if pairs is None else pairs[:2])
    if shared:
        keep = np.arange(len(lanes))
        trials, grads, hessians = (np.broadcast_to(a, (len(lanes),) + a.shape[1:]) for a in (trials, grads, hessians))
        start_energy = cache(partial(energy_of, 0))  # summed once, when a lane first reads it
        energy_of = lambda k: start_energy()  # every lane's tweezer-free energy is the start's
    if curvatures is not None:
        energy_of, grads = _with_tweezers(energy_of, grads, trials, species.mass, curvatures, centers[lanes[keep]])
    return keep, energy_of, grads, hessians


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
