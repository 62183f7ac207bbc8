"""Experimental feasibility estimators and the tweezer-misalignment scan.

The optical estimators use a two-line (D1/D2) polarizability model of the
Gaussian tweezer at focus.  They are order-of-magnitude tools; the
package accepts them within a factor of two of the reference values.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .constants import HBAR, SPEED_OF_LIGHT, SpeciesConstants
from .coupling import coupling_error, grade_hessians, realized_coupling
from .crystal import TOL_EQUILIBRIUM, relax_equilibria, solve_equilibrium
from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    UnstableCrystalError,
    ValidityError,
    as_integer,
    as_seed,
)
from .modes import AXIS_INDEX, row_norms
from .targets import data_lines

#: minimum detuning from any transition, in linewidths
MIN_DETUNING_LINEWIDTHS = 10.0
#: misalignment samples whose Newton descents run together and whose gradings
#: share one stacked eigh; bounds the stacked arrays of a block, the one
#: block of the scan alive at a time
SCAN_BLOCK = 16


@dataclass(frozen=True)
class TweezerBeam:
    power: float  # W
    waist: float  # m
    wavelength: float  # m

    def __post_init__(self):
        for name in ("power", "waist", "wavelength"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be positive")

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * SPEED_OF_LIGHT / self.wavelength

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
        Transition("D1", 2.0 * np.pi * SPEED_OF_LIGHT / 369.5e-9, 1.0 / 8.12e-9),
        Transition("D2", 2.0 * np.pi * SPEED_OF_LIGHT / 328.9e-9, 1.0 / 6.15e-9),
    ),
    hyperfine_splitting=2.0 * np.pi * 12.6428e9,
)


def load_atomic_lines(path: Union[str, Path], hyperfine_splitting: float) -> AtomicLines:
    """Transitions from a plain-text file: 'label wavelength_nm linewidth_MHz' per line.

    The linewidth column is Gamma / 2pi in MHz.
    """
    transitions = []
    for lineno, parts in data_lines(path):
        if len(parts) != 3:
            raise InvalidArgumentError(f"{path}:{lineno}: expected 'label wavelength_nm linewidth_MHz'")
        label = parts[0]
        try:
            wl_nm, lw_mhz = float(parts[1]), float(parts[2])
        except ValueError:
            raise InvalidArgumentError(
                f"{path}:{lineno}: wavelength and linewidth must be numbers, "
                f"got {parts[1]!r} {parts[2]!r}"
            ) from None
        transitions.append(
            Transition(label, 2.0 * np.pi * SPEED_OF_LIGHT / (wl_nm * 1e-9), 2.0 * np.pi * lw_mhz * 1e6)
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
            (3.0 * SPEED_OF_LIGHT**2 / (HBAR * w0**3))
            * (w / w0) ** 3
            * (g / (w0 - w) + g / (w0 + w)) ** 2
            * beam.power
            / beam.waist**2
        )
    return rate


def _line_depth(tr: Transition, beam: TweezerBeam) -> float:
    """One line's dipole depth at focus (J): minus its share of the potential."""
    w0, g, w = tr.omega0, tr.gamma, beam.omega
    return (3.0 * np.pi * SPEED_OF_LIGHT**2 / (2.0 * w0**3)) * (g / (w0 - w) + g / (w0 + w)) * beam.peak_intensity


def dipole_potential(beam: TweezerBeam, lines: AtomicLines) -> float:
    """Two-line dipole potential at focus (J); negative means attractive."""
    _check_detuning(beam, lines)
    u = 0.0
    for tr in lines.transitions:
        u -= _line_depth(tr, beam)
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
    depth_total = 0.0
    inv_detuning = 0.0
    for tr in lines.transitions:
        depth = abs(_line_depth(tr, beam))
        depth_total += depth
        inv_detuning += depth / abs(tr.omega0 - beam.omega)
    return depth_total / HBAR * lines.hyperfine_splitting * (inv_detuning / depth_total)


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
            )
        )
    return beams


# ---------------------------------------------------------------------------
# misalignment Monte Carlo


@dataclass
class MisalignmentScan:
    records: list  # (average misalignment (m), epsilon)
    aligned_epsilon: float
    failed_samples: list  # (sample index, error class name)

    @property
    def n_failed(self) -> int:
        return len(self.failed_samples)


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
    error are recomputed.  Streams are per-sample seeded, so the output is
    independent of evaluation order.

    After the aligned crystal's `realized_coupling`, the scan runs one
    loop per block of `SCAN_BLOCK` samples, and every sample gets the bits
    of one-at-a-time solves.  (0) Draw: each sample draws its offsets from
    its own stream, and the block's draws are shaped into offsets together
    (`_block_offsets`).  (1) Descend: the block's Newton descents run
    together (`relax_equilibria`, whose lockstep loop `crystal._descents`
    makes one stacked evaluation per line-search round: one pass over the
    trials' ion pairs gives their energies, forces and Hessians), not
    refilled as lanes finish; each lane returns with the Hessian of the
    point it ended on.  Every lane starts at the aligned crystal, so the
    start is evaluated once for the block (one Coulomb pass, force and
    Hessian, to which each lane adds its own tweezer force), and the
    lanes' first Newton steps share that Hessian's Cholesky factor.
    (2) Grade: one `grade_hessians` (one `eigh`) of the converged
    descents' Hessians; each sample's J, or the exception its
    grading raises, is kept until the block is finished.  (3) Finish, per
    sample in order: `solve_equilibrium` from the aligned crystal, handed
    its lane's descent and Hessian as ``first_descent``, so the solve
    repeats no descent and builds no Hessian for a lane it keeps; then, if
    the solve returned the descended positions, the graded J's
    `coupling_error`, and otherwise (no converged descent, or a kick) a
    lone `realized_coupling`; its record's average offset norm is read from
    the block's, computed once on its stacked offsets with each sample's
    bits.  The solve and its `coupling_error` stay per sample because a
    sample is timed and counted from one to the other.
    One block's Hessians and gradings are alive at a time.
    Samples whose equilibrium solve fails to converge, or whose crystal is
    unstable, are excluded and counted in sample order; any other error
    is raised from the first sample that raises it.

    The blocks run with numpy's OpenBLAS held at one thread
    (`_on_one_blas_thread`), and its previous thread count is back when
    the scan returns or raises.  `eigh` is the one call of the scan that
    OpenBLAS would split over its worker threads: the Newton steps and
    each solve's stability check are Cholesky factorizations (`dpotrf`,
    which runs on one thread at these sizes), and a solve decomposes its
    Hessian (`eigvalsh`) only where the factorization does not certify it
    stable, which no sample of the fig7 scan needs.  On the scan's
    (16, 36, 36) stacks the split is slower than one thread and keeps a
    second core busy; the thread count does not reorder `eigh`'s sums, so
    the bits are those of the pool.  Held at one thread, the pool never
    wakes, so the blocks need not grade back to back.  Where numpy has no
    OpenBLAS thread control, the scan runs on whatever threads BLAS
    chooses, and the pool may wake once per block, for its `eigh`.

    Raises InvalidArgumentError, before any solve, when the scales are
    empty, not finite or negative, when `samples` is not a nonnegative
    integer, when `seed` is not a nonnegative integer, or when `axes` is
    empty, names an axis other than x, y, z (or the integers 0, 1, 2), or
    names one axis twice.
    """
    scales = np.atleast_1d(np.asarray(displacement_scale, dtype=float))
    if scales.size == 0 or not np.all(np.isfinite(scales)) or np.any(scales < 0):
        raise InvalidArgumentError("displacement scales must be a nonempty set of finite, nonnegative lengths")
    samples = as_integer("samples", samples)
    if samples < 0:
        raise InvalidArgumentError("samples must be nonnegative")
    seed = as_seed("seed", seed)
    axes = tuple(axes if axes is not None else result.pin_axes)
    axis_idx = [AXIS_INDEX.get(a) if isinstance(a, str) else as_integer("misalignment axis", a) for a in axes]
    if not axis_idx or any(a not in (0, 1, 2) for a in axis_idx):
        raise InvalidArgumentError(f"misalignment axes must be among x, y, z; got {axes!r}")
    if len(set(axis_idx)) != len(axis_idx):
        raise InvalidArgumentError(f"misalignment axes must be distinct; got {axes!r}")
    return _on_one_blas_thread(_scan, result, scales, samples, seed, axis_idx)


def _scan(result, scales, samples, seed, axis_idx):
    """The block loop of `misalignment_scan`, on checked inputs."""
    crystal = result.crystal
    drive = (result.mu, result.drive.drive_axis, result.drive.resonance_guard)
    aligned_eps = realized_coupling(
        crystal.positions, crystal.trap, crystal.species, result.tweezers.curvatures, *drive, result.target
    )[0]
    records = []
    failed = []
    for start in range(0, samples, SCAN_BLOCK):
        block = range(start, min(start + SCAN_BLOCK, samples))
        offsets = _block_offsets(crystal.n_ions, axis_idx, scales, seed, block)
        _scan_block(result, drive, block, offsets, records, failed)
    return MisalignmentScan(records, aligned_eps, failed)


def _scan_block(result, drive, block, offsets, records, failed):
    """Relax, grade and finish the samples ``block`` of `_scan`, whose
    tweezer offsets are ``offsets`` (K, N, 3), appending each sample's
    record or failure; the block's Hessians and gradings are freed on
    return, so one block's are alive at a time."""
    crystal, pattern = result.crystal, result.tweezers
    trap, species = crystal.trap, crystal.species
    relaxed, residuals, hessians = relax_equilibria(
        trap,
        species,
        np.broadcast_to(crystal.positions, offsets.shape),
        pattern.curvatures,
        crystal.positions + offsets,
    )
    averages = row_norms(offsets).mean(axis=1)  # each sample's average offset norm
    converged = np.flatnonzero(residuals < TOL_EQUILIBRIUM).tolist()
    graded = {}  # converged lane -> its J, or the exception its grading raises
    if converged:
        graded = dict(zip(converged, grade_hessians(hessians[converged], trap.omega_bar, *drive, species).couplings))
    for k, (i, off) in enumerate(zip(block, offsets)):
        try:
            shifted = solve_equilibrium(
                trap,
                species,
                crystal.n_ions,
                crystal.positions,
                tweezers=pattern.with_offsets(off),
                tweezer_reference=crystal.positions,
                first_descent=(relaxed[k], residuals[k], hessians[k]),
            )
            if k in graded and np.array_equal(shifted.positions, relaxed[k]):
                if isinstance(graded[k], Exception):
                    raise graded[k]
                eps = coupling_error(result.target, graded[k])[0]
            else:
                eps = realized_coupling(
                    shifted.positions, trap, species, pattern.curvatures, *drive, result.target
                )[0]
        except (ConvergenceError, UnstableCrystalError) as err:
            failed.append((i, type(err).__name__))
            continue
        records.append((float(averages[k]), eps))


def _on_one_blas_thread(run, *args):
    """``run(*args)`` with numpy's OpenBLAS held at one thread; its thread
    count is restored afterwards, also when ``run`` raises.  A plain call
    where `_blas_thread_calls` finds no thread control."""
    calls = _blas_thread_calls()
    if calls is None:
        return run(*args)
    get_threads, set_threads = calls
    threads = get_threads()
    set_threads(1)
    try:
        return run(*args)
    finally:
        set_threads(threads)


@cache
def _blas_thread_calls():
    """The thread-count getter and setter of the OpenBLAS that numpy's
    wheel ships (``numpy.libs/libscipy_openblas64_-*.so``), or None where
    there is no such library or symbol.  Looked up on the first call,
    which loads nothing new: numpy loaded the library at its import."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


def _block_offsets(n, axis_idx, scales, seed, block):
    """The tweezer offsets (K, n, 3) of the K samples whose indices are
    ``block``: per ion, uniform in a ball of the sample's radius on
    the given axes.  Sample i draws its normals, then its uniforms, from
    its own stream, and a sample of radius zero draws nothing and is not
    offset; the norms, the radii and the scaling then run once on the
    block's stacked draws, each element as its sample alone would give it."""
    dim = len(axis_idx)
    radii = scales[np.asarray(block, dtype=int) % scales.size]
    direction = np.zeros((len(block), n, dim))
    spread = np.zeros((len(block), n, 1))
    for k, i in enumerate(block):
        if radii[k] > 0:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
            direction[k] = rng.standard_normal((n, dim))
            spread[k] = rng.uniform(0.0, 1.0, size=(n, 1))
    norms = row_norms(direction)[..., None]
    norms[norms == 0] = 1.0
    offsets = np.zeros((len(block), n, 3))
    offsets[..., axis_idx] = radii[:, None, None] * spread ** (1.0 / dim) * direction / norms
    return offsets
