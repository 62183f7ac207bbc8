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
    coupling_matrix,
    max_abs_offdiag,
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
)
from .feasibility import FeasibilityVerdict, SignConstraintSystem, build_sign_constraints, feasibility_test
from .modes import (
    AXIS_INDEX,
    TOL_PSD_REL,
    ModeSpectrum,
    TweezerPattern,
    axis_vector,
    block_coords,
    mass_scaled_hessian,
    mode_spectrum,
)
from .quasinewton import minimize_box, minimize_box_steps, minimize_lockstep
from .sensitivity import CouplingGradient, all_pairs, coupling_jacobian_diag
from .targets import TargetSpec, build_target, crystal_adjacency

#: positions match under a symmetry operation within this multiple of the length scale
TOL_ORBIT = 1e-6


@dataclass(frozen=True)
class SearchSpace:
    """Box bounds and search controls for the pipeline."""

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
    line_search: str = "backtracking"
    max_iter: int = 2000
    tol_df: float = 1e-10
    tol_grad: float = 1e-8
    feasibility_pairs: str = "all"  # or "nearest_neighbor"
    # "sign_mismatch" passes cells whose native sign structure can be
    # corrected; "magnitude" (the strict variant) also demands first-order
    # progress on every magnitude deviation, which rejects almost every
    # cell for sparse targets
    feasibility_rows: str = "sign_mismatch"

    def __post_init__(self):
        for name in ("omega_scan", "mu", "pin"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidArgumentError(f"{name} bounds reversed: {lo} > {hi}")
        if self.omega_scan[0] <= 0 or self.mu[0] <= 0:
            raise InvalidArgumentError("frequency bounds must be positive")
        if self.pin[0] < 0 and not self.allow_anticonfinement:
            raise InvalidArgumentError(
                "negative pinning bound requires allow_anticonfinement"
            )
        if self.restarts < 1 or self.omega_grid < 1 or self.mu_grid < 1:
            raise InvalidArgumentError("grid sizes and restarts must be at least 1")
        if self.line_search not in ("backtracking", "wolfe"):
            raise InvalidArgumentError(
                f"line_search must be 'backtracking' or 'wolfe', got {self.line_search!r}"
            )
        if self.max_iter < 1:
            raise InvalidArgumentError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (self.tol_df >= 0.0 and self.tol_grad >= 0.0):
            raise InvalidArgumentError(
                f"tolerances must be nonnegative (tol_df={self.tol_df}, tol_grad={self.tol_grad})"
            )
        for ax in self.pin_axes:
            if ax not in AXIS_INDEX:
                raise InvalidArgumentError(f"unknown pin axis {ax!r}")
        if self.scan_axis not in AXIS_INDEX:
            raise InvalidArgumentError(f"unknown scan axis {self.scan_axis!r}")
        if self.feasibility_pairs not in ("all", "nearest_neighbor"):
            raise InvalidArgumentError("feasibility_pairs must be 'all' or 'nearest_neighbor'")
        if self.feasibility_rows not in ("sign_mismatch", "magnitude"):
            raise InvalidArgumentError("feasibility_rows must be 'sign_mismatch' or 'magnitude'")

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
    representatives: tuple
    group: str

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
    mu: float
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
    iterations: dict
    wall_time_s: float
    converged: bool
    histories: dict = field(default_factory=dict)

    @property
    def pattern(self) -> TweezerPattern:
        return self.tweezers


# ---------------------------------------------------------------------------
# symmetry orbits


def symmetry_orbits(crystal: IonCrystal, group: str) -> SymmetryCells:
    """Partition ions into orbits under a declared point symmetry.

    Supported groups: none; reflection_z (z -> -z); C6 (60 degree rotation
    in the crystal plane); ladder_translation, implemented as the two-fold
    axis (p, q) -> (-p, -q) of a finite ladder, the point remnant of its
    translation symmetry.
    """
    n = crystal.n_ions
    if group == "none":
        return SymmetryCells(tuple((i,) for i in range(n)), tuple(range(n)), group)
    pos = crystal.positions
    tol = TOL_ORBIT * crystal.length_scale
    if group == "reflection_z":
        mapped = pos * np.array([1.0, 1.0, -1.0])
        perms = [_match_permutation(pos, mapped, tol, group)]
    elif group == "C6":
        if crystal.dimensionality != "planar":
            raise InvalidArgumentError("C6 orbits need a planar crystal")
        a, b = crystal.extended_axes
        c, s = np.cos(np.pi / 3.0), np.sin(np.pi / 3.0)
        mapped = pos.copy()
        mapped[:, a] = c * pos[:, a] - s * pos[:, b]
        mapped[:, b] = s * pos[:, a] + c * pos[:, b]
        perms = [_match_permutation(pos, mapped, tol, group)]
    elif group == "ladder_translation":
        if crystal.dimensionality != "planar":
            raise InvalidArgumentError("ladder orbits need a planar crystal")
        a, b = crystal.extended_axes
        mapped = pos.copy()
        mapped[:, a] = -pos[:, a]
        mapped[:, b] = -pos[:, b]
        perms = [_match_permutation(pos, mapped, tol, group)]
    else:
        raise InvalidArgumentError(f"unknown symmetry group {group!r}")

    orbits = _orbits_from_permutations(n, perms)
    reps = tuple(min(o) for o in orbits)
    return SymmetryCells(orbits, reps, group)


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


def _orbits_from_permutations(n, perms):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in perms:
        for i in range(n):
            a, b = find(i), find(int(perm[i]))
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))


# ---------------------------------------------------------------------------
# objective machinery


class PinProblem:
    """Normalized coupling error over pinning curvatures at fixed geometry.

    Precomputes the drive-relevant Hessian block, the target quantities and
    index arrays between the P orbit parameters and the block rows:
    `pin_diag` holds the flat positions of the pinned diagonal entries of
    the block and `pin_param` the parameter that pins each, and
    `row_groups` holds, per orbit row count w, the parameters with w rows
    and their (count, w) row indices.  An evaluation costs one
    eigendecomposition of the block, a few matrix products and one gather
    per index array, its gradient only when asked for; no Python loop runs
    over orbits.  A batch of evaluations stacks the eigendecompositions
    and the products.  Orbits must be disjoint.
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

        ions = coords // 3
        axes = coords % 3
        self.proj = np.zeros((n, self.b))
        self.proj[ions, np.arange(self.b)] = self.axis[axes]

        # block rows touched by each orbit parameter
        self.param_rows = []
        for orbit in self.orbits:
            rows = [
                r
                for r, c in enumerate(coords)
                if (c // 3) in orbit and (c % 3) in pin_axis_idx
            ]
            self.param_rows.append(np.array(rows, dtype=int))
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

        t = target.matrix if isinstance(target, CouplingMatrix) else np.asarray(target, dtype=float)
        self.target = t
        self.t_norm = float(np.linalg.norm(t))
        self.max_t, _ = max_abs_offdiag(t)
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

    def epsilon_parts(self, k_params, mu):
        """ε at (k_params, mu) now and its gradient on demand.

        Returns None where ε is undefined (an unstable or resonant
        spectrum, or J = 0), else ``(eps, gradient)``: ``gradient()``
        returns ``(grad_k, grad_mu)`` from this evaluation's spectrum and
        residual.  A line search that rejects the point never pays for it.
        The one-lane case of `epsilon_parts_batch`.
        """
        return self._lanes(np.asarray(k_params, dtype=float)[None], (mu,), mu, mu**2)[0]

    def epsilon_parts_batch(self, k_stack, mus) -> list:
        """`epsilon_parts` for K lanes at once, one entry per lane.

        ``k_stack`` holds one pinning vector per lane, shape (K, P), and
        ``mus`` the K beatnotes.  One stacked eigendecomposition and stacked
        matrix products serve every lane, and each lane gets the bits
        `epsilon_parts` gives it alone.  The largest coupling, the norm and
        the gradient run per lane: a reduction over the stack would sum in
        another order.
        """
        # each lane's scalar mu**2: an array square (x * x) differs from the
        # scalar power in the last bit for some beatnotes
        return self._lanes(k_stack, mus, np.array(mus)[:, None], np.array([[mu**2] for mu in mus]))

    def _lanes(self, k_stack, mus, mu_col, mu_sq):
        """The kernel of `epsilon_parts_batch`; ``mu_col`` and ``mu_sq`` are
        the beatnotes and their squares as (K, 1) columns, or scalars for
        one lane."""
        n, b = self.n_ions, self.b
        count = len(mus)
        a = self.a0[None].repeat(count, 0)
        a.reshape(count, -1)[:, self.pin_diag] += k_stack.take(self.pin_param, 1)
        lam, u = np.linalg.eigh(a)
        gap = np.abs(mu_col - np.sqrt(np.maximum(lam, 0.0))).min(1).tolist()
        low = lam[:, 0].tolist()
        floor, guard = -self.floor, self.guard
        # unstable (a negative curvature) or resonant (mu in a mode's guard band)
        live = [i for i in range(count) if not (low[i] < floor or gap[i] <= guard)]
        out = [None] * count
        if not live:
            return out
        if len(live) < count:  # two or more lanes, so the columns are arrays
            lam, u, mu_sq = lam[live], u[live], mu_sq[live]
        theta = 1.0 / (mu_sq - lam)
        w = self.proj @ u
        wt = w * theta[:, None, :]
        j = wt @ w.transpose(0, 2, 1)
        j = 0.5 * (j + j.transpose(0, 2, 1))
        flat = j.reshape(len(live), -1)
        flat[:, :: n + 1] = 0.0
        # max_abs_offdiag of every lane at once: |J| with the diagonal at -1
        # and each lane's first row-major argmax; nothing here rounds
        mag = np.abs(flat)
        mag[:, :: n + 1] = -1.0
        at = mag.argmax(1)
        max_j = np.maximum(mag[np.arange(len(live)), at], 0.0)
        # a lane with J = 0 has no ε; NaN passes on, as in a lone call
        keep = np.flatnonzero(~(max_j <= 0.0))
        s = self.max_t / max_j[keep]
        r = self.target - s[:, None, None] * j[keep]
        for lane, s_l, r_l in zip(keep.tolist(), s.tolist(), r):
            p, q = divmod(int(at[lane]), n)
            r_flat = r_l.reshape(-1)
            # np.linalg.norm(r) without its dispatch: sqrt(r·r) over the flat array
            eps = math.sqrt(r_flat.dot(r_flat)) / self.t_norm
            i = live[lane]
            out[i] = eps, self._gradient(eps, r_l, j[lane], s_l, p, q, w, wt, u, theta, lane, mus[i])
        return out

    def _gradient(self, eps, r, j, s, p, q, w, wt, u, theta, lane, mu):
        """The ``gradient()`` of lane ``lane`` of a batch, over its intermediates."""

        def gradient():
            if eps == 0.0:
                return np.zeros(len(self.orbits)), 0.0
            n, b = self.n_ions, self.b
            w_l, wt_l, u_l, theta_l = w[lane], wt[lane], u[lane], theta[lane]
            g_mat = r.copy()
            g_mat[p, q] -= float((r * j).sum()) / j[p, q]
            g_mat *= -s / (eps * self.t_norm**2)
            # dJ/dA_bb is the outer product of resolvent rows
            y = wt_l @ u_l.T  # (N, B)
            # the two matmuls numpy's einsum("kb,kl,lb->b", y, g_mat, y,
            # optimize=True) lowers to, operand for operand: same bits, no path search
            z = g_mat.T @ y
            per_row = np.matmul(z.T.reshape(b, 1, n), y.T.reshape(b, n, 1)).reshape(b)
            grad_k = np.empty(len(self.orbits))
            for params, rows in self.row_groups:
                grad_k[params] = per_row[rows].sum(axis=1)
            dtheta = -2.0 * mu * theta_l**2
            dj_dmu = (w_l * dtheta) @ w_l.T
            dj_dmu.reshape(-1)[:: n + 1] = 0.0
            grad_mu = float((g_mat * dj_dmu).sum())
            return grad_k, grad_mu

        return gradient

    # -- objectives over scaled variables (see quasinewton.Objective) --------

    def objective_pin(self, mu):
        def fg(x):
            return self._scaled_pin(self.epsilon_parts(x * self.k_scale, mu), x)

        return fg

    def objective_pin_lanes(self, mus):
        """`objective_pin` for `quasinewton.minimize_lockstep`, lane i at beatnote
        ``mus[i]``: one `epsilon_parts_batch` call per round."""

        def evaluate(points, active):
            parts = self.epsilon_parts_batch(np.stack(points) * self.k_scale, [mus[i] for i in active])
            return [self._scaled_pin(lane, x) for lane, x in zip(parts, points)]

        return evaluate

    def _scaled_pin(self, parts, x):
        """`objective_pin`'s ``(f, grad)`` at scaled point x from `epsilon_parts`' entry."""
        if parts is None:
            return np.inf, lambda: np.zeros_like(x)
        eps, gradient = parts
        return eps, lambda: gradient()[0] * self.k_scale

    def objective_pin_mu(self):
        def fg(x):
            mu = x[0] * self.mu_scale
            parts = self.epsilon_parts(x[1:] * self.k_scale, mu)
            if parts is None:
                return np.inf, lambda: np.zeros_like(x)
            eps, gradient = parts

            def grad():
                grad_k, grad_mu = gradient()
                g = np.empty_like(x)
                g[0] = grad_mu * self.mu_scale
                g[1:] = grad_k * self.k_scale
                return g

            return eps, grad

        return fg

    def epsilon(self, k_params, mu) -> float:
        parts = self.epsilon_parts(np.asarray(k_params, dtype=float), mu)
        return np.inf if parts is None else parts[0]

    def native_spectrum(self) -> ModeSpectrum:
        return mode_spectrum(self.a0, freq_scale=self.wbar, coords=self.coords, n_ions=self.n_ions)


# ---------------------------------------------------------------------------
# stage-1 geometry


def stage1_geometry(
    target_spec: TargetSpec,
    trap_template: TrapConfig,
    species: SpeciesConstants,
    omega_value: float,
    scan_axis: str,
    geometry_mode: str,
) -> IonCrystal:
    """Idealized crystal of the first optimization stage.

    Chains and triangular lattices are laid out exactly equidistant with
    the spacing set by the scanned frequency; geometries without an ideal
    lattice (the ladder) solve the harmonic equilibrium instead.
    """
    n = trap_template.n_ions
    trap = trap_template.replace_axis(scan_axis, omega_value)
    if geometry_mode == "auto":
        geometry_mode = "harmonic" if target_spec.geometry == "ladder" else "fixed_lattice"
    if geometry_mode == "harmonic":
        guess = None
        if target_spec.geometry == "triangular":
            guess, _ = triangular_start(trap, species, omega_value)
        return solve_equilibrium(trap, species, n, guess)
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
    raise InvalidArgumentError(
        f"no ideal lattice for geometry {target_spec.geometry!r}; use harmonic mode"
    )


def default_drive_axis(pin_axes: Sequence[str]) -> np.ndarray:
    v = np.zeros(3)
    for ax in pin_axes:
        v[AXIS_INDEX[ax]] = 1.0
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# stages


def _grid(bounds: tuple[float, float], n: int) -> np.ndarray:
    if bounds[0] == bounds[1]:
        return np.array([bounds[0]])
    return np.linspace(bounds[0], bounds[1], n)


def stage1_search(
    target_spec: TargetSpec,
    space: SearchSpace,
    trap_template: TrapConfig,
    species: SpeciesConstants,
    drive_axis=None,
    geometry_mode: str = "auto",
    seed: int = 0,
):
    """Feasibility-filtered grid search; returns (candidates, cell diagnostics).

    Candidates are sorted by (epsilon, omega, mu); an empty list means no
    grid cell passed the feasibility test (see the diagnostics).  Each
    trap-frequency row shares one `PinProblem`: its cells are tested first,
    then every restart of every feasible cell runs in lockstep, one batched
    objective call per round (`quasinewton.minimize_lockstep`).  Each lane
    walks the path a lone `minimize_box` run takes, and each cell keeps its
    lowest-ε restart, the earliest on a tie.
    """
    axis = default_drive_axis(space.pin_axes) if drive_axis is None else axis_vector(drive_axis)
    omegas = _grid(space.omega_scan, space.omega_grid)
    mus = _grid(space.mu, space.mu_grid)

    candidates: list[Candidate] = []
    cells: list[CellDiagnostics] = []
    for row, omega in enumerate(omegas):
        crystal = stage1_geometry(target_spec, trap_template, species, omega, space.scan_axis, geometry_mode)
        target = build_target(target_spec, crystal)
        problem = PinProblem(crystal, target, axis, space.pin_axes, None, space.resonance_guard)
        problem.set_scales(space.pin_curvature_bounds, space.mu)
        n_params = len(problem.orbits)
        lower = np.full(n_params, problem.k_bounds[0])
        upper = np.full(n_params, problem.k_bounds[1])
        feasible, lanes, lane_mus = [], [], []
        for col, mu in enumerate(mus):
            cell_index = row * len(mus) + col
            diag = _cell_verdict(problem, omega, mu, axis, species, space)
            cells.append(diag)
            if diag.verdict != "feasible":
                continue
            feasible.append(diag)
            for r in range(space.restarts):
                x0 = _random_start(space, n_params, seed, cell_index, r) / problem.k_scale
                lanes.append(minimize_box_steps(
                    x0, lower, upper, line_search=space.line_search, max_iter=space.max_iter,
                    tol_df=space.tol_df, tol_grad=space.tol_grad,
                ))
                lane_mus.append(mu)
        runs = minimize_lockstep(problem.objective_pin_lanes(lane_mus), lanes)
        for c, diag in enumerate(feasible):
            # min keeps the first of equal values: the earliest restart
            best = min(runs[c * space.restarts : (c + 1) * space.restarts], key=lambda res: res.fun)
            diag.epsilon = float(best.fun)
            candidates.append(Candidate(
                omega_scan=omega,
                mu=diag.mu,
                pin_curvature=problem.expand(best.x * problem.k_scale),
                epsilon=float(best.fun),
                crystal=crystal,
                history=list(best.history),
                converged=best.converged,
            ))
    candidates.sort(key=lambda c: (c.epsilon, c.omega_scan, c.mu))
    return candidates, cells


def _cell_verdict(problem: PinProblem, omega, mu, axis, species: SpeciesConstants, space: SearchSpace):
    """One grid cell's diagnostics from its feasibility test."""
    diag = CellDiagnostics(omega, mu, "infeasible")
    try:
        drive = DriveConfig(mu=mu, drive_axis=axis, resonance_guard=space.resonance_guard)
        _, verdict = sign_feasibility(problem, drive, species, space)
    except ResonanceError:
        diag.verdict = "resonant"
        return diag
    except UnstableCrystalError:
        diag.verdict = "unstable"
        return diag
    diag.margin = None if np.isinf(verdict.margin) else float(verdict.margin)
    if verdict.feasible:
        diag.verdict = "feasible"
    return diag


def sign_feasibility(
    problem: PinProblem,
    drive: DriveConfig,
    species: SpeciesConstants,
    space: SearchSpace,
) -> tuple[SignConstraintSystem, FeasibilityVerdict]:
    """Sign-structure feasibility of pinning the problem's native geometry.

    Builds the constraint rows against the problem's target from the
    unpinned coupling and its per-ion pinning gradient, over the pairs
    `space.feasibility_pairs` selects, and tests them under
    `space.pinning_sign`.  `problem` has one orbit per ion.
    """
    crystal = problem.crystal
    pairs = all_pairs(crystal.n_ions)
    if space.feasibility_pairs == "nearest_neighbor":
        adj = crystal_adjacency(crystal)
        pairs = tuple((k, l) for k, l in pairs if adj[k, l])
    native = problem.native_spectrum()
    grads = _per_ion_gradient(coupling_jacobian_diag(native, drive, species), problem)
    system = build_sign_constraints(
        problem.target, coupling_matrix(native, drive, species), grads,
        selection=pairs, rows=space.feasibility_rows,
    )
    return system, feasibility_test(system, pinning_sign=space.pinning_sign)


def _per_ion_gradient(jac: np.ndarray, problem: PinProblem) -> CouplingGradient:
    """Collapse the per-coordinate Jacobian to one column per ion.

    One pinning value per ion acts on every configured axis, so the
    per-ion derivative sums the touched diagonal coordinates, which are
    the problem's parameter rows for per-ion orbits.
    """
    n = problem.n_ions
    cols = np.stack([jac[:, :, rows].sum(axis=2) for rows in problem.param_rows], axis=2)
    k, l = np.triu_indices(n, 1)
    return CouplingGradient(all_pairs(n), np.arange(n), cols[k, l])


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
    species: SpeciesConstants,
    drive_axis=None,
) -> Candidate:
    """Pinning-only refinement with one value per symmetry orbit.

    The trap frequency and beatnote stay frozen; the start point is the
    orbit-averaged stage-1 pattern, so the refined error never exceeds the
    symmetrized input error.
    """
    axis = default_drive_axis(space.pin_axes) if drive_axis is None else axis_vector(drive_axis)
    crystal = candidate.crystal
    target = build_target(target_spec, crystal)
    problem = PinProblem(crystal, target, axis, space.pin_axes, cells.orbits, space.resonance_guard)
    problem.set_scales(space.pin_curvature_bounds, space.mu)
    k0 = np.array([np.mean(candidate.pin_curvature[list(o)]) for o in cells.orbits])
    res = minimize_box(
        problem.objective_pin(candidate.mu),
        k0 / problem.k_scale,
        np.full(k0.size, problem.k_bounds[0]),
        np.full(k0.size, problem.k_bounds[1]),
        line_search=space.line_search,
        max_iter=space.max_iter,
        tol_df=space.tol_df,
        tol_grad=space.tol_grad,
    )
    return Candidate(
        omega_scan=candidate.omega_scan,
        mu=candidate.mu,
        pin_curvature=problem.expand(res.x * problem.k_scale),
        epsilon=float(res.fun),
        crystal=crystal,
        history=list(res.history),
        converged=res.converged,
    )


def stage3_finalize(
    candidate: Candidate,
    trap_template: TrapConfig,
    species: SpeciesConstants,
    space: SearchSpace,
    target_spec: TargetSpec,
    symmetry: str = "none",
    drive_axis=None,
    final_geometry: str = "harmonic",
    cells_diagnostics: Optional[list] = None,
    histories: Optional[dict] = None,
) -> OptimizationResult:
    """Re-solve the true equilibrium and re-optimize beatnote and pinning.

    final_geometry "harmonic" solves the actual trap equilibrium at the
    candidate's scanned frequency (warm-started from the stage-1
    geometry); "fixed_lattice" keeps the idealized positions, for crystals
    held equidistant by a segmented trap.
    """
    t0 = time.perf_counter()
    axis = default_drive_axis(space.pin_axes) if drive_axis is None else axis_vector(drive_axis)
    if final_geometry == "harmonic":
        trap = trap_template.replace_axis(space.scan_axis, candidate.omega_scan)
        crystal = solve_equilibrium(trap, species, trap_template.n_ions, candidate.crystal.positions)
    elif final_geometry == "fixed_lattice":
        crystal = candidate.crystal
    else:
        raise InvalidArgumentError(f"unknown final_geometry {final_geometry!r}")
    target = build_target(target_spec, crystal)
    orbits = symmetry_orbits(crystal, symmetry)
    problem = PinProblem(crystal, target, axis, space.pin_axes, orbits.orbits, space.resonance_guard)
    problem.set_scales(space.pin_curvature_bounds, space.mu)

    k0 = np.array([np.mean(candidate.pin_curvature[list(o)]) for o in orbits.orbits])
    x0 = np.concatenate([[candidate.mu / problem.mu_scale], k0 / problem.k_scale])
    lower = np.concatenate([[problem.mu_bounds[0]], np.full(k0.size, problem.k_bounds[0])])
    upper = np.concatenate([[problem.mu_bounds[1]], np.full(k0.size, problem.k_bounds[1])])
    res = minimize_box(
        problem.objective_pin_mu(),
        x0,
        lower,
        upper,
        line_search=space.line_search,
        max_iter=space.max_iter,
        tol_df=space.tol_df,
        tol_grad=space.tol_grad,
    )
    mu_final = float(res.x[0] * problem.mu_scale)
    pin_k = problem.expand(res.x[1:] * problem.k_scale)
    pin_w = np.sign(pin_k) * np.sqrt(np.abs(pin_k))
    pattern = TweezerPattern.from_frequencies(pin_w, axes=space.pin_axes)

    eps, realized, spectrum, drive = realized_coupling(
        crystal.positions, crystal.trap, species, pattern.curvatures,
        mu_final, axis, space.resonance_guard, target,
    )

    histories = dict(histories or {})
    histories["stage3"] = list(res.history)
    stage_eps = {"stage2": candidate.epsilon, "stage3": eps}
    return OptimizationResult(
        omega_scan=candidate.omega_scan,
        mu=mu_final,
        pin_frequencies=pin_w,
        pin_axes=tuple(space.pin_axes),
        epsilon=eps,
        stage_epsilons=stage_eps,
        cells=list(cells_diagnostics or []),
        target=target,
        realized=realized,
        spectrum=spectrum,
        crystal=crystal,
        tweezers=pattern,
        drive=drive,
        iterations={"stage3": res.n_iter, "stage3_evals": res.n_eval},
        wall_time_s=time.perf_counter() - t0,
        converged=res.converged,
        histories=histories,
    )


def run_pipeline(
    target_spec: TargetSpec,
    space: SearchSpace,
    trap_template: TrapConfig,
    species: SpeciesConstants,
    symmetry: str = "none",
    drive_axis=None,
    geometry_mode: str = "auto",
    final_geometry: str = "harmonic",
    seed: int = 0,
    threads: int = 1,
) -> OptimizationResult:
    """stage 1 -> stage 2 -> stage 3; deterministic for fixed inputs and seed.

    `threads` is accepted and ignored: the result never depended on it.
    """
    t0 = time.perf_counter()
    candidates, cell_diags = stage1_search(target_spec, space, trap_template, species, drive_axis, geometry_mode, seed)
    if not candidates:
        summary = {}
        for c in cell_diags:
            summary[c.verdict] = summary.get(c.verdict, 0) + 1
        raise ConvergenceError(f"stage1: no feasible grid cell ({summary})")
    best = candidates[0]
    orbits = symmetry_orbits(best.crystal, symmetry)
    refined = stage2_refine(best, orbits, space, target_spec, species, drive_axis)
    histories = {"stage1": best.history, "stage2": refined.history}
    result = stage3_finalize(
        refined,
        trap_template,
        species,
        space,
        target_spec,
        symmetry,
        drive_axis,
        final_geometry,
        cells_diagnostics=cell_diags,
        histories=histories,
    )
    result.stage_epsilons["stage1"] = best.epsilon
    result.stage_epsilons["stage2"] = refined.epsilon
    result.iterations["stage1_cells"] = len(cell_diags)
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
    resonance_guard: float = DEFAULT_RESONANCE_GUARD,
    crystal: Optional[IonCrystal] = None,
):
    """Best error reachable by scanning the beatnote only, no tweezers.

    Returns (best_epsilon, best_mu, curve) with curve a list of (mu, eps)
    over the scanned range, resonant points skipped.
    """
    axis = default_drive_axis(pin_axes) if drive_axis is None else axis_vector(drive_axis)
    if crystal is None:
        crystal = solve_equilibrium(trap, species, trap.n_ions)
    target = build_target(target_spec, crystal)
    problem = PinProblem(crystal, target, axis, pin_axes, None, resonance_guard)
    problem.set_scales((0.0, 0.0), mu_range)
    zeros = np.zeros(len(problem.orbits))
    curve = []
    for mu in np.linspace(mu_range[0], mu_range[1], n_scan):
        eps = problem.epsilon(zeros, mu)
        if np.isfinite(eps):
            curve.append((float(mu), float(eps)))
    if not curve:
        raise ResonanceError("every scanned beatnote hit the resonance guard")
    best_mu, best_eps = min(curve, key=lambda p: (p[1], p[0]))
    return best_eps, best_mu, curve
