"""Three-stage synthesis of tweezer pinning patterns.

Stage 1 scans a (trap frequency, beatnote) grid over idealized geometry,
prunes cells with the sign-structure feasibility test, and optimizes the
per-ion pinning in each surviving cell.  Stage 2 re-optimizes with one
pinning value per symmetry orbit.  Stage 3 moves to the true
harmonic-trap equilibrium and re-optimizes beatnote and pinning jointly
from the warm start.

Internally the pinning variable is the signed curvature K = sign(w) w^2
(rad^2/s^2) so the objective stays smooth through zero pinning; bounds
and reported values use the signed frequency w.  The beatnote enters the
coupling only through the detuning factors, never the eigenproblem, so
its gradient is analytic as well.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .constants import SpeciesConstants
from .coupling import (
    DEFAULT_RESONANCE_GUARD,
    CouplingMatrix,
    DriveConfig,
    _as_matrix,
    _largest_offdiag,
    _mode_sum,
    _rescaled_errors,
    _symmetric_zero_diagonal,
    _target_side,
    _zero_diagonal,
    coupling_matrix,
    realized_coupling,
)
from .crystal import (
    IonCrystal,
    TrapConfig,
    equidistant_spacing,
    make_lattice,
    pairwise_distances,
    solve_equilibrium,
    triangular_start,
)
from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    ResonanceError,
    UndefinedNormalizationError,
    UnstableCrystalError,
    as_integer,
    as_seed,
)
from .feasibility import FeasibilityVerdict, SignConstraintSystem, build_sign_constraints, feasibility_test
from .modes import (
    AXIS_INDEX,
    TOL_PSD_REL,
    ModeSpectrum,
    TweezerPattern,
    _placement,
    axis_vector,
    block_coords,
    check_pin_axes,
    mass_scaled_hessian,
    mode_spectrum,
)
from .quasinewton import minimize_box, minimize_lockstep
from .sensitivity import CouplingGradient, all_pairs, coupling_jacobian_diag
from .targets import TargetSpec, build_target

#: positions match under a symmetry operation within this multiple of the length scale
TOL_ORBIT = 1e-6
#: the point groups `symmetry_orbits` partitions ions by
SYMMETRY_GROUPS = ("none", "reflection_z", "C6", "ladder_translation")
#: stage 3's crystal: the solved trap equilibrium, or stage 1's idealized lattice kept
FINAL_GEOMETRIES = ("harmonic", "fixed_lattice")


def _check_choice(option: str, value, choices: tuple) -> None:
    if value not in choices:
        raise InvalidArgumentError(f"unknown {option} {value!r}; expected one of {', '.join(choices)}")


def _check_bounds(name: str, bounds, positive: bool = False) -> None:
    """Raise InvalidArgumentError unless `bounds` is a finite, ordered pair
    whose lower bound is positive when `positive` is set."""
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidArgumentError(f"{name} bounds must be finite, got ({lo}, {hi})")
    if lo > hi:
        raise InvalidArgumentError(f"{name} bounds reversed: {lo} > {hi}")
    if positive and lo <= 0:
        raise InvalidArgumentError(f"{name} bounds must be positive, got ({lo}, {hi})")


@dataclass(frozen=True)
class SearchSpace:
    """Box bounds and search controls for the pipeline.

    Every bound of `omega_scan`, `mu` and `pin` is finite, each pair is
    ordered, the frequency lower bounds are positive, and a negative pin
    bound needs `allow_anticonfinement`.  `resonance_guard` and
    `start_fraction` are finite and nonnegative; the grid sizes, `restarts`
    and `max_iter` are integers (Python or numpy) of at least 1.
    """

    omega_scan: tuple[float, float]  # rad/s, bounds of the scanned trap axis
    mu: tuple[float, float]  # rad/s
    pin: tuple[float, float]  # rad/s, signed pinning frequency bounds
    pin_axes: tuple[str, ...] = ("y",)
    scan_axis: str = "z"
    resonance_guard: float = DEFAULT_RESONANCE_GUARD
    omega_grid: int = 12
    mu_grid: int = 24
    restarts: int = 8
    start_fraction: float = 0.1
    allow_anticonfinement: bool = False
    max_iter: int = 2000

    def __post_init__(self):
        _check_bounds("omega_scan", self.omega_scan, positive=True)
        _check_bounds("mu", self.mu, positive=True)
        _check_bounds("pin", self.pin)
        if self.pin[0] < 0 and not self.allow_anticonfinement:
            raise InvalidArgumentError(
                "negative pinning bound requires allow_anticonfinement"
            )
        for name in ("resonance_guard", "start_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise InvalidArgumentError(f"{name} must be finite and nonnegative, got {value}")
        for name in ("omega_grid", "mu_grid", "restarts", "max_iter"):
            as_integer(name, getattr(self, name))
        if self.restarts < 1 or self.omega_grid < 1 or self.mu_grid < 1:
            raise InvalidArgumentError("grid sizes and restarts must be at least 1")
        if self.max_iter < 1:
            raise InvalidArgumentError(f"max_iter must be at least 1, got {self.max_iter}")
        check_pin_axes(self.pin_axes)
        if self.scan_axis not in AXIS_INDEX:
            raise InvalidArgumentError(f"unknown scan axis {self.scan_axis!r}")

    @property
    def pin_curvature_bounds(self) -> tuple[float, float]:
        lo, hi = self.pin
        return (np.sign(lo) * lo**2, np.sign(hi) * hi**2)

    @property
    def pinning_sign(self) -> str:
        return "nonnegative" if self.pin[0] >= 0 else "free"


@dataclass(frozen=True)
class SymmetryCells:
    """Partition of ion indices into orbits of a declared symmetry group."""

    orbits: tuple  # ((i, j, ...), ...)

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)


@dataclass
class CellDiagnostics:
    omega_scan: float
    mu: float
    verdict: str  # feasible | infeasible | resonant | unstable
    margin: Optional[float] = None
    epsilon: Optional[float] = None


@dataclass
class Candidate:
    omega_scan: float
    mu: float
    pin_curvature: np.ndarray  # per-ion signed curvature, rad^2/s^2
    epsilon: float
    crystal: IonCrystal
    history: list = field(default_factory=list)
    converged: bool = True

    @property
    def pin_frequencies(self) -> np.ndarray:
        return np.sign(self.pin_curvature) * np.sqrt(np.abs(self.pin_curvature))


@dataclass
class OptimizationResult:
    omega_scan: float
    pin_frequencies: np.ndarray  # per-ion signed pinning frequency, rad/s
    pin_axes: tuple
    epsilon: float
    stage_epsilons: dict
    cells: list
    target: CouplingMatrix
    realized: CouplingMatrix  # normalized to the target scale
    spectrum: ModeSpectrum
    crystal: IonCrystal
    tweezers: TweezerPattern
    drive: DriveConfig
    stage3_counts: dict  # stage 3's iterations ("stage3") and objective calls ("stage3_evals")
    wall_time_s: float
    converged: bool
    histories: dict = field(default_factory=dict)

    @property
    def mu(self) -> float:  # the final beatnote, rad/s
        return self.drive.mu

    @property
    def iterations(self) -> dict:  # stage 3's counts and the stage-1 cell count
        return {**self.stage3_counts, "stage1_cells": len(self.cells)}


# ---------------------------------------------------------------------------
# symmetry orbits


def symmetry_orbits(crystal: IonCrystal, group: str) -> SymmetryCells:
    """Partition ions into orbits under a declared point symmetry.

    Supported groups: none; reflection_z (z -> -z); C6 (60 degree rotation
    in the crystal plane); ladder_translation, implemented as the two-fold
    axis (p, q) -> (-p, -q) of a finite ladder, the point remnant of its
    translation symmetry.
    """
    _check_choice("symmetry group", group, SYMMETRY_GROUPS)
    n = crystal.n_ions
    if group == "none":
        return SymmetryCells(tuple((i,) for i in range(n)))
    pos = crystal.positions
    tol = TOL_ORBIT * crystal.length_scale
    if group == "reflection_z":
        mapped = pos * np.array([1.0, 1.0, -1.0])
    elif group == "C6":
        if crystal.dimensionality != "planar":
            raise InvalidArgumentError("C6 orbits need a planar crystal")
        a, b = crystal.extended_axes
        c, s = np.cos(np.pi / 3.0), np.sin(np.pi / 3.0)
        mapped = pos.copy()
        mapped[:, a] = c * pos[:, a] - s * pos[:, b]
        mapped[:, b] = s * pos[:, a] + c * pos[:, b]
    else:  # ladder_translation
        if crystal.dimensionality != "planar":
            raise InvalidArgumentError("ladder orbits need a planar crystal")
        a, b = crystal.extended_axes
        mapped = pos.copy()
        mapped[:, a] = -pos[:, a]
        mapped[:, b] = -pos[:, b]

    # the orbits are the cycles of the one generating permutation, each
    # kept from its smallest ion
    perm = _match_permutation(pos, mapped, tol, group).tolist()
    orbits = []
    for i in range(n):
        cycle = [i]
        while perm[cycle[-1]] != i:
            cycle.append(perm[cycle[-1]])
        if min(cycle) == i:
            orbits.append(tuple(sorted(cycle)))
    return SymmetryCells(tuple(orbits))


def _match_permutation(pos, mapped, tol, group):
    n = pos.shape[0]
    perm = np.full(n, -1, dtype=int)
    for i in range(n):
        d = np.linalg.norm(pos - mapped[i], axis=1)
        j = int(np.argmin(d))
        if d[j] > tol:
            raise InvalidArgumentError(
                f"geometry lacks {group} symmetry: ion {i} maps {d[j]:.3e} m from any site"
            )
        perm[i] = j
    if len(set(perm.tolist())) != n:
        raise InvalidArgumentError(f"geometry lacks {group} symmetry: mapping not a permutation")
    return perm


# ---------------------------------------------------------------------------
# objective machinery


def beatnote_columns(mus) -> np.ndarray:
    """The (K, 2) rows ``(mu, mu**2)`` of `PinProblem.epsilon_parts`, one
    per beatnote.

    Each square is the beatnote's own scalar power: an array square
    (x * x) differs from it in the last bit for some beatnotes.
    """
    return np.array([(mu, mu**2) for mu in mus], dtype=float).reshape(-1, 2)


class PinProblem:
    """Normalized coupling error over pinning curvatures at fixed geometry.

    Precomputes the drive-relevant Hessian block, the target quantities and
    index arrays between the P orbit parameters and the block rows:
    `pin_diag` holds the flat positions of the pinned diagonal entries of
    the block and `pin_param` the parameter that pins each, and
    `row_groups` holds, per orbit row count w, the parameters with w rows
    and their (count, w) row indices, which `orbit_sums` sums over.  Every
    evaluation is one `epsilon_parts` call over a stack of lanes, a lone
    point a stack of one.  It costs one stacked eigendecomposition of the
    block, a few stacked matrix products and one gather per index array,
    its gradient only when asked for; no Python loop runs over orbits or
    lanes.  The stages minimize through its evaluators `pin_evaluator` and
    `pin_mu_evaluator`.  Orbits must be disjoint.
    """

    def __init__(
        self,
        crystal: IonCrystal,
        target: Union[CouplingMatrix, np.ndarray],
        drive_axis,
        pin_axes: Sequence[str],
        orbits: Optional[Sequence[Sequence[int]]] = None,
        resonance_guard: float = DEFAULT_RESONANCE_GUARD,
    ):
        check_pin_axes(pin_axes)
        self.crystal = crystal
        n = crystal.n_ions
        self.n_ions = n
        self.axis = axis_vector(drive_axis)
        self.wbar = crystal.trap.omega_bar
        self.guard = resonance_guard
        self.orbits = tuple(tuple(o) for o in (orbits if orbits is not None else [(i,) for i in range(n)]))

        a_full = mass_scaled_hessian(crystal.positions, crystal.trap, crystal.species)
        drive_axes = set(int(i) for i in np.flatnonzero(np.abs(self.axis) > 1e-15))
        pin_axis_idx = set(AXIS_INDEX[a] for a in pin_axes)
        need = sorted(drive_axes | pin_axis_idx)
        coords = block_coords(n, need)
        other = np.setdiff1d(np.arange(3 * n), coords)
        scale = np.abs(a_full).max()
        if other.size and np.abs(a_full[np.ix_(coords, other)]).max() > 1e-9 * scale:
            coords = np.arange(3 * n)  # no block structure; use the full Hessian
        self.coords = coords
        self.a0 = a_full[np.ix_(coords, coords)]
        self.b = coords.size

        self.proj = _placement(coords, n, drive_axis)

        # block rows touched by each orbit parameter
        pinned_axis = np.isin(coords % 3, list(pin_axis_idx))
        self.param_rows = [np.flatnonzero(pinned_axis & np.isin(coords // 3, orbit)) for orbit in self.orbits]
        n_params = len(self.orbits)
        row_param = np.full(self.b, n_params)
        by_width: dict[int, list[int]] = {}
        for i, rows in enumerate(self.param_rows):
            if np.any(row_param[rows] != n_params):
                raise InvalidArgumentError(f"orbit {self.orbits[i]} overlaps an earlier orbit")
            row_param[rows] = i
            by_width.setdefault(rows.size, []).append(i)
        # an unpinned diagonal entry is left as it is, as adding 0.0 would;
        # a basic slice where every row is pinned
        pinned = np.flatnonzero(row_param < n_params)
        self.pin_diag = slice(None, None, self.b + 1) if pinned.size == self.b else pinned * (self.b + 1)
        self.pin_param = row_param[pinned]
        # equal-width buckets keep each orbit's row sum in numpy's 1-D order;
        # zero padding to a common width would regroup sums of 9+ rows
        self.row_groups = tuple(
            (np.array(params), np.stack([self.param_rows[i] for i in params]))
            for _, params in sorted(by_width.items())
        )

        t = _as_matrix(target)
        self.target = t
        self.max_t, self.t_norm = _target_side(t)
        if self.max_t <= 0.0:
            raise UndefinedNormalizationError("target has no nonzero off-diagonal coupling")
        self.floor = TOL_PSD_REL * self.wbar**2
        self.k_scale = self.wbar**2  # overridden by set_scales
        self.mu_scale = self.wbar

    def set_scales(self, k_bounds: tuple[float, float], mu_bounds: tuple[float, float]):
        self.k_scale = max(abs(k_bounds[0]), abs(k_bounds[1]), 1e-12 * self.wbar**2)
        self.mu_scale = max(abs(mu_bounds[0]), abs(mu_bounds[1]))
        self.k_bounds = (k_bounds[0] / self.k_scale, k_bounds[1] / self.k_scale)
        self.mu_bounds = (mu_bounds[0] / self.mu_scale, mu_bounds[1] / self.mu_scale)

    # -- raw evaluation ----------------------------------------------------

    def expand(self, k_params: np.ndarray) -> np.ndarray:
        """Per-ion signed curvature vector from per-orbit parameters."""
        out = np.zeros(self.n_ions)
        for orbit, k in zip(self.orbits, k_params):
            for i in orbit:
                out[i] = k
        return out

    def epsilon_parts(self, k_stack, beat, with_mu=False):
        """ε of K lanes now and their gradients on demand: ``(eps, gradient)``.

        ``k_stack`` holds one pinning vector per lane, shape (K, P), or one
        row that every lane shares, whose block is decomposed once; ``beat``
        holds each lane's beatnote row of `beatnote_columns`.  ``eps``
        holds each lane's ε, +inf where it is undefined (an unstable or
        resonant spectrum, or J = 0).  ``gradient(rows)`` returns
        ``(grad_k, grad_mu)`` of the lanes ``rows``, each of which has an
        ε, from this evaluation's spectra and residuals: grad_k is
        (len(rows), P) and grad_mu (len(rows),), or None unless
        ``with_mu``.  One stacked eigendecomposition and the stacked steps
        of `coupling` (projection, mode sum, symmetrization, largest
        coupling, ε) serve every lane, and one stacked gradient serves the
        lanes asked for, so a trial the line search rejects never pays for
        one; each lane gets the bits a stack of one gives it.
        """
        n = self.n_ions
        count = len(beat)
        a = self.a0[None].repeat(len(k_stack), 0)
        a.reshape(len(k_stack), -1)[:, self.pin_diag] += k_stack.take(self.pin_param, 1)
        lam, u = np.linalg.eigh(a)
        del a  # one (K, B, B) array fewer at the batch's peak
        if len(k_stack) < count:  # one shared pinning: its spectrum serves every lane
            lam, u = np.broadcast_to(lam, (count, self.b)), np.broadcast_to(u, (count, self.b, self.b))
        gap = np.abs(beat[:, :1] - np.sqrt(np.maximum(lam, 0.0))).min(1)
        eps = np.full(count, np.inf)
        # unstable (a negative curvature) or resonant (mu in a mode's guard band)
        live = (~((lam[:, 0] < -self.floor) | (gap <= self.guard))).nonzero()[0]
        if live.size < count:
            lam, u = lam[live], u[live]
        theta = 1.0 / (beat[live, 1:] - lam)
        w = self.proj @ u
        j = _symmetric_zero_diagonal(_mode_sum(w, theta))
        max_j, at = _largest_offdiag(j)
        # a lane with J = 0 has no ε; NaN passes on, as in a lone call
        keep = (~(max_j <= 0.0)).nonzero()[0]
        kept_j = j if keep.size == len(j) else j[keep]  # no copy where every lane has an ε
        s, r, eps_keep = _rescaled_errors(self.target, self.t_norm, self.max_t, kept_j, max_j[keep])
        lanes = live[keep]
        eps[lanes] = eps_keep
        # each lane's position among the lanes with an ε
        position = np.zeros(count, dtype=int)
        position[lanes] = np.arange(lanes.size)

        def stacked(kept):
            """(grad_k, grad_mu) of the kept lanes ``kept``, whose ε is not 0."""
            c, b, ll = kept.size, self.b, keep[kept]
            j_k, at_k, rows = j[ll], at[ll], np.arange(c)
            g_mat = r[kept]
            correction = (g_mat * j_k).reshape(c, n * n).sum(1) / j_k.reshape(c, n * n)[rows, at_k]
            g_mat.reshape(c, n * n)[rows, at_k] -= correction
            g_mat *= (-s[kept] / (eps_keep[kept] * self.t_norm**2))[:, None, None]
            w_k, theta_k = w[ll], theta[ll]
            # dJ/dA_bb is the outer product of resolvent rows
            y = _mode_sum(w_k, theta_k, u[ll])  # (c, N, B)
            # the two matmuls numpy's einsum("kb,kl,lb->b", y, g_mat, y,
            # optimize=True) lowers to, operand for operand: same bits, no path search
            z = g_mat.transpose(0, 2, 1) @ y
            per_row = np.matmul(
                z.transpose(0, 2, 1).reshape(c, b, 1, n), y.transpose(0, 2, 1).reshape(c, b, n, 1)
            ).reshape(c, b)
            grad_k = self.orbit_sums(per_row)
            if not with_mu:
                return grad_k, None
            dtheta = (-2.0 * beat[lanes[kept], 0])[:, None] * theta_k**2
            dj_dmu = _zero_diagonal(_mode_sum(w_k, dtheta))
            return grad_k, (g_mat * dj_dmu).reshape(c, n * n).sum(1)

        def gradient(rows):
            kept = position[rows]
            nonzero = eps_keep[kept] != 0.0
            if nonzero.all():
                return stacked(kept)
            # ε = 0 is a minimum: its gradient is zero
            grad_k = np.zeros((kept.size, len(self.orbits)))
            grad_mu = np.zeros(kept.size) if with_mu else None
            if nonzero.any():
                part_k, part_mu = stacked(kept[nonzero])
                grad_k[nonzero] = part_k
                if with_mu:
                    grad_mu[nonzero] = part_mu
            return grad_k, grad_mu

        return eps, gradient

    def orbit_sums(self, per_row: np.ndarray) -> np.ndarray:
        """Each parameter's sum of its block rows' terms: the last axis of
        `per_row` mapped from the B block rows to the P parameters."""
        out = np.empty(per_row.shape[:-1] + (len(self.orbits),))
        for params, param_rows in self.row_groups:
            # take, not per_row[..., param_rows]: that result is laid out
            # lane-innermost, and numpy then sums each orbit in another order
            out[..., params] = per_row.take(param_rows, axis=-1).sum(axis=-1)
        return out

    # -- evaluators over scaled variables (see quasinewton.LaneEvaluator) ---

    def pin_evaluator(self, beat: np.ndarray):
        """Pinning-only: a point is the P scaled curvatures, and lane i
        sits at the beatnote row ``beat[i]``."""

        def evaluate(points, lanes):
            eps, gradient = self.epsilon_parts(points * self.k_scale, beat[lanes])
            return eps, lambda rows: gradient(rows)[0] * self.k_scale

        return evaluate

    def pin_mu_evaluator(self):
        """Joint beatnote and pinning: a point is the scaled μ followed by
        the P scaled curvatures."""

        def evaluate(points):
            mu = points[:, 0] * self.mu_scale
            eps, gradient = self.epsilon_parts(points[:, 1:] * self.k_scale, beatnote_columns(mu), with_mu=True)

            def grad(rows):
                grad_k, grad_mu = gradient(rows)
                return np.column_stack((grad_mu * self.mu_scale, grad_k * self.k_scale))

            return eps, grad

        # each lane's beatnote is in its point, so the lane indices are not read
        return lambda points, _: evaluate(points)

    def epsilon(self, k_params, mu) -> float:
        """ε at (k_params, mu), +inf where it is undefined: a stack of one."""
        eps, _ = self.epsilon_parts(np.asarray(k_params, dtype=float)[None], beatnote_columns((mu,)))
        return float(eps[0])

    @functools.cached_property
    def native_spectrum(self) -> ModeSpectrum:
        """The unpinned block's spectrum, once; an unstable block raises on every access."""
        return mode_spectrum(self.a0, freq_scale=self.wbar, coords=self.coords, n_ions=self.n_ions)


# ---------------------------------------------------------------------------
# stage-1 geometry


def stage1_geometry(
    target_spec: TargetSpec,
    trap_template: TrapConfig,
    species: SpeciesConstants,
    omega_value: float,
    scan_axis: str,
) -> IonCrystal:
    """Idealized crystal of the first optimization stage.

    Chains and triangular lattices are laid out exactly equidistant with
    the spacing set by the scanned frequency; the ladder, which has no
    ideal lattice, solves the harmonic equilibrium instead.
    """
    n = trap_template.n_ions
    trap = trap_template.replace_axis(scan_axis, omega_value)
    if target_spec.geometry == "ladder":
        return solve_equilibrium(trap, species, n)
    if target_spec.geometry == "chain":
        d0 = equidistant_spacing(omega_value, n, species)
        pos = make_lattice("chain", n, d0)
        return IonCrystal(trap, species, pos, "chain", (2,))
    if target_spec.geometry == "triangular":
        # the chain spacing formula badly misjudges 2D lattices; anchor the
        # idealized lattice constant to the solved crystal's closest pair
        guess, plane = triangular_start(trap, species, omega_value)
        solved = solve_equilibrium(trap, species, n, guess, require="planar")
        d = pairwise_distances(solved.positions)
        spacing = float(d[np.triu_indices(n, 1)].min())
        pos = make_lattice("triangular", n, spacing, plane=plane)
        return IonCrystal(trap, species, pos, "planar", plane)
    raise InvalidArgumentError(f"no stage-1 geometry for {target_spec.geometry!r}")


def default_drive_axis(pin_axes: Sequence[str]) -> np.ndarray:
    """The unit vector along the sum of the pinning axes."""
    return axis_vector("".join(pin_axes))


def _drive_axis(drive_axis, pin_axes: Sequence[str]) -> np.ndarray:
    """The unit drive axis: ``drive_axis``, or the pinning axes' default if None."""
    return default_drive_axis(pin_axes) if drive_axis is None else axis_vector(drive_axis)


# ---------------------------------------------------------------------------
# stages


def _grid(bounds: tuple[float, float], n: int) -> np.ndarray:
    if bounds[0] == bounds[1]:
        return np.array([bounds[0]])
    return np.linspace(bounds[0], bounds[1], n)


def _stage_problem(crystal: IonCrystal, target, axis, space: SearchSpace, orbits) -> PinProblem:
    """A stage's `PinProblem`, scaled to the search space's bounds."""
    problem = PinProblem(crystal, target, axis, space.pin_axes, orbits, space.resonance_guard)
    problem.set_scales(space.pin_curvature_bounds, space.mu)
    return problem


def _candidate(omega, mu, problem: PinProblem, run) -> Candidate:
    """The candidate a pinning-only minimizer run over `problem` reached."""
    pin = problem.expand(run.x * problem.k_scale)
    return Candidate(omega, mu, pin, float(run.fun), problem.crystal, list(run.history), run.converged)


def _orbit_means(pin_curvature: np.ndarray, orbits) -> np.ndarray:
    """Per-orbit start: the mean of the orbit's per-ion curvatures."""
    return np.array([np.mean(pin_curvature[list(o)]) for o in orbits])


def stage1_search(
    target_spec: TargetSpec,
    space: SearchSpace,
    trap_template: TrapConfig,
    species: SpeciesConstants,
    drive_axis=None,
    seed: int = 0,
):
    """Feasibility-filtered grid search; returns (candidates, cell diagnostics).

    Candidates are sorted by (epsilon, omega, mu); an empty list means no
    grid cell passed the feasibility test (see the diagnostics).  Each
    trap-frequency row shares one `PinProblem`: its cells are tested first,
    then every restart of every feasible cell runs as a lane of one
    `quasinewton.minimize_lockstep` call.  The row's restarts iterate as
    (lanes, P) arrays, and each round makes one `PinProblem.epsilon_parts`
    call for their trial points and one stacked gradient call for the
    trials it accepted; the beatnote rows are built once per row.  Each
    lane walks the path a lone `minimize_box` run takes, and each cell
    keeps its lowest-ε restart, the earliest on a tie.  A `seed` that is
    not a nonnegative integer raises InvalidArgumentError before any
    geometry is built.
    """
    seed = as_seed("seed", seed)
    axis = _drive_axis(drive_axis, space.pin_axes)
    omegas = _grid(space.omega_scan, space.omega_grid)
    mus = _grid(space.mu, space.mu_grid)

    candidates: list[Candidate] = []
    cells: list[CellDiagnostics] = []
    for row, omega in enumerate(omegas):
        crystal = stage1_geometry(target_spec, trap_template, species, omega, space.scan_axis)
        problem = _stage_problem(crystal, build_target(target_spec, crystal), axis, space, None)
        n_params = len(problem.orbits)
        feasible, starts, lane_mus = [], [], []
        for col, mu in enumerate(mus):
            cell_index = row * len(mus) + col
            diag = _cell_verdict(problem, omega, mu, axis, species, space)
            cells.append(diag)
            if diag.verdict != "feasible":
                continue
            feasible.append(diag)
            for r in range(space.restarts):
                starts.append(_random_start(space, n_params, seed, cell_index, r) / problem.k_scale)
                lane_mus.append(mu)
        runs = minimize_lockstep(
            problem.pin_evaluator(beatnote_columns(lane_mus)),
            np.array(starts).reshape(-1, n_params),
            problem.k_bounds[0],
            problem.k_bounds[1],
            max_iter=space.max_iter,
        )
        for c, diag in enumerate(feasible):
            # min keeps the first of equal values: the earliest restart
            best = min(runs[c * space.restarts : (c + 1) * space.restarts], key=lambda res: res.fun)
            diag.epsilon = float(best.fun)
            candidates.append(_candidate(omega, diag.mu, problem, best))
    candidates.sort(key=lambda c: (c.epsilon, c.omega_scan, c.mu))
    return candidates, cells


def _cell_verdict(problem: PinProblem, omega, mu, axis, species: SpeciesConstants, space: SearchSpace):
    """One grid cell's diagnostics from its feasibility test."""
    try:
        drive = DriveConfig(mu=mu, drive_axis=axis, resonance_guard=space.resonance_guard)
        _, verdict = sign_feasibility(problem, drive, species, space)
    except ResonanceError:
        return CellDiagnostics(omega, mu, "resonant")
    except UnstableCrystalError:
        return CellDiagnostics(omega, mu, "unstable")
    margin = None if np.isinf(verdict.margin) else float(verdict.margin)
    return CellDiagnostics(omega, mu, "feasible" if verdict.feasible else "infeasible", margin)


def sign_feasibility(
    problem: PinProblem,
    drive: DriveConfig,
    species: SpeciesConstants,
    space: SearchSpace,
) -> tuple[SignConstraintSystem, FeasibilityVerdict]:
    """Sign-structure feasibility of pinning the problem's native geometry.

    Builds the constraint rows against the problem's target from the
    unpinned coupling and its per-ion pinning gradient, one row per pair
    whose native sign disagrees with the target (``rows="sign_mismatch"``;
    the strict "magnitude" rows reject almost every cell of a sparse
    target), and tests them under `space.pinning_sign`.  `problem` has one
    orbit per ion: one pinning value acts on every pinned axis of its ion,
    so each pair's gradient is the orbit sum of its Jacobian row.
    """
    native, n = problem.native_spectrum, problem.n_ions
    jac = coupling_jacobian_diag(native, drive, species)[np.triu_indices(n, 1)]  # (pairs, B)
    grads = CouplingGradient(all_pairs(n), np.arange(n), problem.orbit_sums(jac))
    system = build_sign_constraints(
        problem.target, coupling_matrix(native, drive, species), grads, rows="sign_mismatch"
    )
    return system, feasibility_test(system, pinning_sign=space.pinning_sign)


def _random_start(space: SearchSpace, n_params: int, seed: int, cell: int, restart: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(cell, restart))))
    lo, hi = space.pin
    if hi > 0:
        w = rng.uniform(0.0, space.start_fraction * hi, size=n_params)
    else:
        w = rng.uniform(space.start_fraction * lo, 0.0, size=n_params)
    return np.sign(w) * w**2


def stage2_refine(
    candidate: Candidate,
    cells: SymmetryCells,
    space: SearchSpace,
    target_spec: TargetSpec,
    drive_axis=None,
) -> Candidate:
    """Pinning-only refinement with one value per symmetry orbit.

    The trap frequency and beatnote stay frozen; the start point is the
    orbit-averaged stage-1 pattern, so the refined error never exceeds the
    symmetrized input error.
    """
    axis = _drive_axis(drive_axis, space.pin_axes)
    crystal = candidate.crystal
    problem = _stage_problem(crystal, build_target(target_spec, crystal), axis, space, cells.orbits)
    k0 = _orbit_means(candidate.pin_curvature, cells.orbits)
    res = minimize_box(
        problem.pin_evaluator(beatnote_columns((candidate.mu,))),
        k0 / problem.k_scale,
        problem.k_bounds[0],
        problem.k_bounds[1],
        max_iter=space.max_iter,
    )
    return _candidate(candidate.omega_scan, candidate.mu, problem, res)


def stage3_finalize(
    candidate: Candidate,
    trap_template: TrapConfig,
    species: SpeciesConstants,
    space: SearchSpace,
    target_spec: TargetSpec,
    symmetry: str = "none",
    drive_axis=None,
    final_geometry: str = "harmonic",
) -> OptimizationResult:
    """Re-solve the true equilibrium and re-optimize beatnote and pinning.

    final_geometry "harmonic" solves the actual trap equilibrium at the
    candidate's scanned frequency (warm-started from the stage-1
    geometry); "fixed_lattice" keeps the idealized positions, for crystals
    held equidistant by a segmented trap.  The result holds no stage-1
    cells and only stage 3's history; `run_pipeline` adds the earlier
    stages' cells and histories.
    """
    t0 = time.perf_counter()
    _check_choice("final_geometry", final_geometry, FINAL_GEOMETRIES)
    axis = _drive_axis(drive_axis, space.pin_axes)
    if final_geometry == "harmonic":
        trap = trap_template.replace_axis(space.scan_axis, candidate.omega_scan)
        crystal = solve_equilibrium(trap, species, trap_template.n_ions, candidate.crystal.positions)
    else:
        crystal = candidate.crystal
    target = build_target(target_spec, crystal)
    orbits = symmetry_orbits(crystal, symmetry).orbits
    problem = _stage_problem(crystal, target, axis, space, orbits)

    k0 = _orbit_means(candidate.pin_curvature, orbits)
    x0 = np.concatenate([[candidate.mu / problem.mu_scale], k0 / problem.k_scale])
    lower = np.concatenate([[problem.mu_bounds[0]], np.full(k0.size, problem.k_bounds[0])])
    upper = np.concatenate([[problem.mu_bounds[1]], np.full(k0.size, problem.k_bounds[1])])
    res = minimize_box(problem.pin_mu_evaluator(), x0, lower, upper, max_iter=space.max_iter)
    mu_final = float(res.x[0] * problem.mu_scale)
    pin_k = problem.expand(res.x[1:] * problem.k_scale)
    pin_w = np.sign(pin_k) * np.sqrt(np.abs(pin_k))
    pattern = TweezerPattern.from_frequencies(pin_w, axes=space.pin_axes)

    eps, realized, spectrum, drive = realized_coupling(
        crystal.positions, crystal.trap, species, pattern.curvatures,
        mu_final, axis, space.resonance_guard, target,
    )

    stage_eps = {"stage2": candidate.epsilon, "stage3": eps}
    return OptimizationResult(
        omega_scan=candidate.omega_scan,
        pin_frequencies=pin_w,
        pin_axes=tuple(space.pin_axes),
        epsilon=eps,
        stage_epsilons=stage_eps,
        cells=[],
        target=target,
        realized=realized,
        spectrum=spectrum,
        crystal=crystal,
        tweezers=pattern,
        drive=drive,
        stage3_counts={"stage3": res.n_iter, "stage3_evals": res.n_eval},
        wall_time_s=time.perf_counter() - t0,
        converged=res.converged,
        histories={"stage3": list(res.history)},
    )


def run_pipeline(
    target_spec: TargetSpec,
    space: SearchSpace,
    trap_template: TrapConfig,
    species: SpeciesConstants,
    symmetry: str = "none",
    drive_axis=None,
    final_geometry: str = "harmonic",
    seed: int = 0,
) -> OptimizationResult:
    """stage 1 -> stage 2 -> stage 3; deterministic for fixed inputs and seed.

    An unknown `symmetry` or `final_geometry`, or a `seed` that is not a
    nonnegative integer, raises InvalidArgumentError before stage 1 runs.
    """
    t0 = time.perf_counter()
    _check_choice("symmetry group", symmetry, SYMMETRY_GROUPS)
    _check_choice("final_geometry", final_geometry, FINAL_GEOMETRIES)
    seed = as_seed("seed", seed)
    candidates, cell_diags = stage1_search(target_spec, space, trap_template, species, drive_axis, seed)
    if not candidates:
        summary = {}
        for c in cell_diags:
            summary[c.verdict] = summary.get(c.verdict, 0) + 1
        raise ConvergenceError(f"stage1: no feasible grid cell ({summary})")
    best = candidates[0]
    orbits = symmetry_orbits(best.crystal, symmetry)
    refined = stage2_refine(best, orbits, space, target_spec, drive_axis)
    result = stage3_finalize(
        refined, trap_template, species, space, target_spec, symmetry, drive_axis, final_geometry
    )
    result.cells = cell_diags
    result.histories = {"stage1": best.history, "stage2": refined.history, **result.histories}
    result.stage_epsilons["stage1"] = best.epsilon
    result.wall_time_s = time.perf_counter() - t0
    return result


def untweezed_baseline(
    target_spec: TargetSpec,
    trap: TrapConfig,
    species: SpeciesConstants,
    mu_range: tuple[float, float],
    drive_axis=None,
    pin_axes: tuple[str, ...] = ("y",),
    n_scan: int = 400,
    crystal: Optional[IonCrystal] = None,
):
    """Best error reachable by scanning the beatnote only, no tweezers.

    Returns (best_epsilon, best_mu, curve) with curve a list of (mu, eps)
    over the scanned range, points within DEFAULT_RESONANCE_GUARD of a
    coupled mode skipped.  `mu_range` must be finite, positive and
    ordered, and `n_scan` an integer of at least 1.  `crystal` defaults
    to the unpinned equilibrium of `trap`.
    """
    _check_bounds("mu_range", mu_range, positive=True)
    if as_integer("n_scan", n_scan) < 1:
        raise InvalidArgumentError(f"n_scan must be at least 1, got {n_scan}")
    check_pin_axes(pin_axes)
    axis = _drive_axis(drive_axis, pin_axes)
    if crystal is None:
        crystal = solve_equilibrium(trap, species, trap.n_ions)
    target = build_target(target_spec, crystal)
    problem = PinProblem(crystal, target, axis, pin_axes)
    mus = np.linspace(mu_range[0], mu_range[1], n_scan)
    eps, _ = problem.epsilon_parts(np.zeros((1, len(problem.orbits))), beatnote_columns(mus))
    curve = [(float(mu), float(e)) for mu, e in zip(mus, eps) if np.isfinite(e)]
    if not curve:
        raise ResonanceError("every scanned beatnote hit the resonance guard")
    best_mu, best_eps = min(curve, key=lambda p: (p[1], p[0]))
    return best_eps, best_mu, curve
