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
from .crystal import relax_equilibria, solve_equilibrium
from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    UnstableCrystalError,
    ValidityError,
    as_integer,
)
from .modes import AXIS_INDEX, mass_scaled_hessian, row_norms
from .targets import data_lines

#: minimum detuning from any transition, in linewidths
MIN_DETUNING_LINEWIDTHS = 10.0
#: misalignment samples whose Newton descents run together and whose gradings
#: share one stacked eigh; bounds the stacked arrays of a block
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

    The scan makes three passes, and every sample gets the bits of
    one-at-a-time solves.  (1) Descend: the samples' Newton descents run in
    blocks of `SCAN_BLOCK` (`relax_equilibria`, whose lockstep loop
    `crystal._descents` makes one Hessian per iteration and one
    potential-and-gradient call per line-search round), not refilled as
    lanes finish.  (2) Grade: the aligned crystal's `realized_coupling`,
    then per block one stacked `mass_scaled_hessian` and one
    `grade_hessians` (one `eigh`) of the converged descents, back to back;
    only each sample's J, or the exception its grading raises, is kept.
    (3) Finish, per sample in order: `solve_equilibrium` from the descended
    positions (or from the aligned crystal, where the descent did not
    converge); then, if the solve returned the descended positions, the
    graded J's `coupling_error`, and otherwise (no converged descent, or a
    kick) a lone `realized_coupling`.  The solve and its `coupling_error`
    stay per sample because a sample is timed and counted from one to the
    other.
    Samples whose equilibrium solve fails to converge, or whose crystal is
    unstable, are excluded and counted in sample order; any other error
    is raised from the first sample that raises it.

    The passes run with numpy's OpenBLAS held at one thread
    (`_on_one_blas_thread`), and its previous thread count is back when
    the scan returns or raises.  `eigh` is the one call of the scan that
    OpenBLAS would split over its worker threads: the Newton steps and
    each solve's stability check are Cholesky factorizations (`dpotrf`,
    which runs on one thread at these sizes), and a solve decomposes its
    Hessian (`eigvalsh`) only where the factorization does not certify it
    stable, which no sample of the fig7 scan needs.  On the scan's
    (16, 36, 36) stacks the split is slower than one thread and keeps a
    second core busy; the thread count does not reorder `eigh`'s sums, so
    the bits are those of the pool.  Where numpy has no OpenBLAS thread
    control, the scan runs on whatever threads BLAS chooses.

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
    seed = as_integer("seed", seed)
    if seed < 0:
        raise InvalidArgumentError(f"seed must be nonnegative, got {seed}")
    axes = tuple(axes if axes is not None else result.pin_axes)
    axis_idx = [AXIS_INDEX.get(a) if isinstance(a, str) else as_integer("misalignment axis", a) for a in axes]
    if not axis_idx or any(a not in (0, 1, 2) for a in axis_idx):
        raise InvalidArgumentError(f"misalignment axes must be among x, y, z; got {axes!r}")
    if len(set(axis_idx)) != len(axis_idx):
        raise InvalidArgumentError(f"misalignment axes must be distinct; got {axes!r}")
    return _on_one_blas_thread(_scan, result, scales, samples, seed, axis_idx)


def _scan(result, scales, samples, seed, axis_idx):
    """The three passes of `misalignment_scan`, on checked inputs."""
    crystal = result.crystal
    trap, species = crystal.trap, crystal.species
    pattern = result.tweezers
    drive = (result.mu, result.drive.drive_axis, result.drive.resonance_guard)

    blocks = [range(start, min(start + SCAN_BLOCK, samples)) for start in range(0, samples, SCAN_BLOCK)]
    descended = []  # per block: the offsets and the relaxed positions (or None)
    for block in blocks:
        offsets = np.stack([_sample_offsets(crystal.n_ions, axis_idx, scales, seed, i) for i in block])
        relaxed = relax_equilibria(
            trap,
            species,
            np.broadcast_to(crystal.positions, offsets.shape),
            pattern.curvatures,
            crystal.positions + offsets,
        )
        descended.append((offsets, relaxed))

    aligned_eps = realized_coupling(
        crystal.positions, trap, species, pattern.curvatures, *drive, result.target
    )[0]
    graded = []  # per block: converged lane -> J, or the exception its grading raises
    for _, relaxed in descended:
        converged = [k for k, pos in enumerate(relaxed) if pos is not None]
        couplings = []
        if converged:
            stack = np.stack([relaxed[k] for k in converged])
            hessians = mass_scaled_hessian(stack, trap, species, pattern.curvatures)
            couplings = grade_hessians(hessians, trap.omega_bar, *drive, species).couplings
        graded.append(dict(zip(converged, couplings)))

    records = []
    failed = []
    for block, (offsets, relaxed), block_graded in zip(blocks, descended, graded):
        for k, (i, off, guess) in enumerate(zip(block, offsets, relaxed)):
            try:
                shifted = solve_equilibrium(
                    trap,
                    species,
                    crystal.n_ions,
                    crystal.positions if guess is None else guess,
                    tweezers=pattern.with_offsets(off),
                    tweezer_reference=crystal.positions,
                )
                if guess is not None and np.array_equal(shifted.positions, guess):
                    if isinstance(block_graded[k], Exception):
                        raise block_graded[k]
                    eps = coupling_error(result.target, block_graded[k])[0]
                else:
                    eps = realized_coupling(
                        shifted.positions, trap, species, pattern.curvatures, *drive, result.target
                    )[0]
            except (ConvergenceError, UnstableCrystalError) as err:
                failed.append((i, type(err).__name__))
                continue
            avg = float(row_norms(off).mean())
            records.append((avg, eps))
    return MisalignmentScan(records, aligned_eps, failed)


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


def _sample_offsets(n, axis_idx, scales, seed, i):
    """Sample i's tweezer offsets (n, 3): per ion, uniform in a ball of the
    sample's radius on the given axes, from the sample's own stream."""
    scale = float(scales[i % scales.size])
    offsets = np.zeros((n, 3))
    if scale > 0:
        dim = len(axis_idx)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
        direction = rng.standard_normal((n, dim))
        norms = row_norms(direction)[:, None]
        norms[norms == 0] = 1.0
        radius = scale * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / dim)
        offsets[:, axis_idx] = radius * direction / norms
    return offsets
