"""Physical invariants of the design objective on small crystals.

(a) `PinProblem`'s ε on its drive/pin block equals `realized_coupling`'s ε
    on the full Hessian wherever both are defined;
(b) relabelling the ions (positions, target and pins permuted alike)
    leaves ε unchanged;
(c) scaling every frequency by c (trap, pinning, beatnote and guard) with
    positions scaled by c^(-2/3) leaves ε unchanged: the mass-scaled
    Hessian scales by c^2 and the normalized coupling does not move.

Each holds up to rounding; the tolerance is a relative 1e-10.

(d) A degenerate radial trap (wx = wy) fails loudly, never with NaN: a
    beatnote inside the guard band of the top mode gives an infinite ε
    and a ResonanceError, the strict gradient refuses the degenerate
    spectrum, and the resolvent Jacobian and a small design stay finite.
"""

import numpy as np
import pytest

from tweezer_ising import YB171, TargetSpec, TrapConfig, build_target, solve_equilibrium, symmetry_orbits
from tweezer_ising.coupling import DEFAULT_RESONANCE_GUARD, DriveConfig, realized_coupling
from tweezer_ising.crystal import IonCrystal, triangular_start
from tweezer_ising.errors import DegenerateSpectrumError, ResonanceError, TweezerIsingError
from tweezer_ising.modes import AXIS_INDEX, axis_vector, mass_scaled_hessian, mode_spectrum
from tweezer_ising.optimizer import PinProblem, SearchSpace, run_pipeline
from tweezer_ising.sensitivity import all_pairs, coupling_gradient_adjoint, coupling_jacobian_diag

from conftest import MHZ

RTOL = 1e-10
POINTS = 20

#: name -> (trap, target, drive axis, pin axes, symmetry group)
CASES = {
    "chain5": (
        TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=5),
        ("nearest_neighbor", "chain"), "y", ("y",), "reflection_z",
    ),
    "triangle7": (
        TrapConfig(2.4 * MHZ, 0.16 * MHZ, 0.16 * MHZ, n_ions=7),
        ("triangular_af", "triangular"), "x", ("x",), "C6",
    ),
    "ladder6": (
        TrapConfig(0.6 * MHZ, 0.4 * MHZ, 0.14 * MHZ, n_ions=6),
        ("spin_ladder", "ladder"), "y", ("y", "z"), "ladder_translation",
    ),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    trap, (variant, geometry), drive, pin_axes, group = CASES[request.param]
    guess = triangular_start(trap, YB171, min(trap.omegas))[0] if geometry == "triangular" else None
    crystal = solve_equilibrium(trap, YB171, trap.n_ions, guess)
    target = build_target(TargetSpec(variant, geometry), crystal).matrix
    return crystal, target, drive, pin_axes, symmetry_orbits(crystal, group).orbits


def _points(problem, seed):
    """Random (per-parameter curvature, beatnote) pairs around the block's band."""
    w_hi = np.sqrt(np.linalg.eigvalsh(problem.a0)[-1])
    rng = np.random.default_rng(seed)
    for _ in range(POINTS):
        k = rng.uniform(-0.2, 1.0, len(problem.orbits)) * (0.4 * w_hi) ** 2 * 10.0 ** -rng.integers(0, 3)
        yield k, rng.uniform(0.3, 1.3) * w_hi


def test_block_epsilon_matches_full_hessian(case):
    crystal, target, drive, pin_axes, orbits = case
    problem = PinProblem(crystal, target, drive, pin_axes, orbits)
    compared = 0
    for k, mu in _points(problem, 1):
        eps = problem.epsilon(k, mu)
        curvatures = np.zeros((crystal.n_ions, 3, 3))
        for ax in pin_axes:
            curvatures[:, AXIS_INDEX[ax], AXIS_INDEX[ax]] = problem.expand(k)
        try:
            full = realized_coupling(
                crystal.positions, crystal.trap, YB171, curvatures, mu, axis_vector(drive),
                DEFAULT_RESONANCE_GUARD, target,
            )[0]
        except TweezerIsingError:
            continue
        if np.isfinite(eps):
            assert eps == pytest.approx(full, rel=RTOL)
            compared += 1
    assert compared >= POINTS // 2


def test_relabelling_ions_leaves_epsilon(case):
    crystal, target, drive, pin_axes, _ = case
    problem = PinProblem(crystal, target, drive, pin_axes)
    perm = np.random.default_rng(2).permutation(crystal.n_ions)
    moved = IonCrystal(
        crystal.trap, YB171, crystal.positions[perm], crystal.dimensionality, crystal.extended_axes
    )
    relabelled = PinProblem(moved, target[np.ix_(perm, perm)], drive, pin_axes)
    defined = 0
    for k, mu in _points(problem, 3):
        eps = problem.epsilon(k, mu)
        assert relabelled.epsilon(k[perm], mu) == pytest.approx(eps, rel=RTOL)
        defined += bool(np.isfinite(eps))
    assert defined >= POINTS // 2


def test_frequency_scaling_leaves_epsilon(case):
    crystal, target, drive, pin_axes, orbits = case
    c = 1.7
    problem = PinProblem(crystal, target, drive, pin_axes, orbits)
    t = crystal.trap
    trap = TrapConfig(c * t.omega_x, c * t.omega_y, c * t.omega_z, n_ions=t.n_ions)
    shrunk = IonCrystal(
        trap, YB171, crystal.positions * c ** (-2.0 / 3.0), crystal.dimensionality, crystal.extended_axes
    )
    scaled = PinProblem(shrunk, target, drive, pin_axes, orbits, c * DEFAULT_RESONANCE_GUARD)
    defined = 0
    for k, mu in _points(problem, 4):
        eps = problem.epsilon(k, mu)
        assert scaled.epsilon(c**2 * k, c * mu) == pytest.approx(eps, rel=RTOL)
        defined += bool(np.isfinite(eps))
    assert defined >= POINTS // 2


#: drive axis -> pinning axes on the degenerate radial trap
DEGENERATE_DRIVES = {"y": ("y",), "x": ("x",), "xy": ("x", "y")}


@pytest.fixture(scope="module")
def degenerate_chain():
    """A 5-ion chain in a trap with equal radial frequencies, and its full spectrum."""
    trap = TrapConfig(1.0 * MHZ, 1.0 * MHZ, 0.2 * MHZ, n_ions=5)
    crystal = solve_equilibrium(trap, YB171, trap.n_ions)
    spectrum = mode_spectrum(mass_scaled_hessian(crystal.positions, trap, YB171), freq_scale=trap.omega_bar)
    return crystal, spectrum


@pytest.mark.parametrize("drive", sorted(DEGENERATE_DRIVES))
def test_degenerate_radial_trap_fails_loudly(degenerate_chain, drive):
    crystal, spectrum = degenerate_chain
    target = build_target(TargetSpec("nearest_neighbor", "chain"), crystal).matrix
    problem = PinProblem(crystal, target, drive, DEGENERATE_DRIVES[drive])
    unpinned = np.zeros(len(problem.orbits))
    top = spectrum.frequencies[-1]
    # the x and y centre-of-mass modes share the top frequency
    assert spectrum.eigenvalues[-1] - spectrum.eigenvalues[-2] < 1e-9 * crystal.trap.omega_bar**2
    for detuning in (-0.9, -0.5, 0.0, 0.5, 0.9):
        mu = top + detuning * DEFAULT_RESONANCE_GUARD
        assert problem.epsilon(unpinned, mu) == np.inf
        with pytest.raises(ResonanceError):
            realized_coupling(
                crystal.positions, crystal.trap, YB171, np.zeros((crystal.n_ions, 3, 3)), mu,
                axis_vector(drive), DEFAULT_RESONANCE_GUARD, target,
            )
    drive_config = DriveConfig(mu=top + 50 * DEFAULT_RESONANCE_GUARD, drive_axis=drive)
    with pytest.raises(DegenerateSpectrumError):
        coupling_gradient_adjoint(None, spectrum, drive_config, all_pairs(crystal.n_ions), YB171)
    jacobian = coupling_jacobian_diag(spectrum, drive_config, YB171)
    assert np.isfinite(jacobian).all() and np.abs(jacobian).max() > 0
    assert np.isfinite(problem.epsilon(unpinned, drive_config.mu))


@pytest.mark.parametrize("drive", sorted(DEGENERATE_DRIVES))
def test_degenerate_radial_trap_design_stays_finite(degenerate_chain, drive):
    crystal, _ = degenerate_chain
    space = SearchSpace(
        omega_scan=(0.2 * MHZ, 0.2 * MHZ), mu=(1.02 * MHZ, 1.1 * MHZ), pin=(0.0, 0.3 * MHZ),
        pin_axes=DEGENERATE_DRIVES[drive], mu_grid=4, restarts=2,
    )
    result = run_pipeline(TargetSpec("nearest_neighbor", "chain"), space, crystal.trap, YB171, drive_axis=drive)
    assert all(np.isfinite(eps) for eps in result.stage_epsilons.values())
    assert np.isfinite(result.realized.matrix).all() and np.isfinite(result.spectrum.frequencies).all()
    assert result.epsilon < 1.0
