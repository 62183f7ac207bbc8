import numpy as np
import pytest

from tweezer_ising import (
    YB171,
    YB_PLUS_LINES,
    TrapConfig,
    TweezerBeam,
    differential_stark_shift,
    load_atomic_lines,
    misalignment_scan,
    scattering_rate,
    stark_homogenize,
    tweezer_trap_frequency,
)
from tweezer_ising.constants import KHZ
from tweezer_ising.errors import InvalidArgumentError, ValidityError

from conftest import MHZ

REFERENCE_BEAM = TweezerBeam(power=1.0, waist=1e-6, wavelength=1070e-9)


class TestScatteringRate:
    def test_reference_magnitude(self):
        rate = scattering_rate(REFERENCE_BEAM, YB_PLUS_LINES)
        assert 1.0 <= rate <= 4.0  # quoted as ~2 per second
        assert rate == pytest.approx(3.946, rel=1e-3)  # frozen regression

    def test_linear_in_power(self):
        r1 = scattering_rate(REFERENCE_BEAM, YB_PLUS_LINES)
        r2 = scattering_rate(TweezerBeam(2.0, 1e-6, 1070e-9), YB_PLUS_LINES)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_falls_with_wavelength(self):
        rates = [
            scattering_rate(TweezerBeam(1.0, 1e-6, wl), YB_PLUS_LINES)
            for wl in (0.8e-6, 1.6e-6, 3.2e-6, 8e-6)
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_near_resonance_rejected(self):
        with pytest.raises(ValidityError):
            scattering_rate(TweezerBeam(1.0, 1e-6, 369.5e-9), YB_PLUS_LINES)


class TestTweezerFrequency:
    def test_reference_magnitude(self):
        omega = tweezer_trap_frequency(REFERENCE_BEAM, YB_PLUS_LINES, YB171)
        assert 2 * np.pi * 100e3 <= omega <= 2 * np.pi * 400e3  # ~200 kHz
        assert omega / MHZ == pytest.approx(0.2683, rel=1e-3)  # frozen

    def test_square_root_power_scaling(self):
        o1 = tweezer_trap_frequency(REFERENCE_BEAM, YB_PLUS_LINES, YB171)
        o4 = tweezer_trap_frequency(TweezerBeam(4.0, 1e-6, 1070e-9), YB_PLUS_LINES, YB171)
        assert o4 == pytest.approx(2.0 * o1, rel=1e-12)

    def test_waist_scaling(self):
        o1 = tweezer_trap_frequency(REFERENCE_BEAM, YB_PLUS_LINES, YB171)
        o2 = tweezer_trap_frequency(TweezerBeam(1.0, 2e-6, 1070e-9), YB_PLUS_LINES, YB171)
        assert o2 == pytest.approx(o1 / 4.0, rel=1e-12)  # Omega^2 ~ P / w^4


class TestDifferentialStark:
    def test_reference_magnitude(self):
        shift = differential_stark_shift(REFERENCE_BEAM, YB_PLUS_LINES)
        assert 2 * np.pi * 6e3 <= shift <= 2 * np.pi * 24e3  # ~12 kHz within x2
        assert shift / (2 * np.pi * 1e3) == pytest.approx(6.733, rel=1e-3)  # frozen

    def test_linear_in_power(self):
        s1 = differential_stark_shift(REFERENCE_BEAM, YB_PLUS_LINES)
        s2 = differential_stark_shift(TweezerBeam(3.0, 1e-6, 1070e-9), YB_PLUS_LINES)
        assert s2 == pytest.approx(3.0 * s1, rel=1e-9)

    def test_inverse_square_waist(self):
        s1 = differential_stark_shift(REFERENCE_BEAM, YB_PLUS_LINES)
        s2 = differential_stark_shift(TweezerBeam(1.0, 2e-6, 1070e-9), YB_PLUS_LINES)
        assert s2 == pytest.approx(s1 / 4.0, rel=1e-9)

    def test_resonant_beam_rejected(self):
        with pytest.raises(ValidityError):
            differential_stark_shift(TweezerBeam(1.0, 1e-6, 369.5e-9), YB_PLUS_LINES)


class TestStarkHomogenize:
    def test_fixed_point(self):
        omega_ref = tweezer_trap_frequency(REFERENCE_BEAM, YB_PLUS_LINES, YB171)
        beams = stark_homogenize([omega_ref] * 3, REFERENCE_BEAM, YB_PLUS_LINES, YB171)
        for b in beams:
            assert b.power == pytest.approx(REFERENCE_BEAM.power, rel=1e-12)
            assert b.waist == pytest.approx(REFERENCE_BEAM.waist, rel=1e-12)

    def test_half_frequency_doubles_waist_quadruples_power(self):
        omega_ref = tweezer_trap_frequency(REFERENCE_BEAM, YB_PLUS_LINES, YB171)
        (beam,) = stark_homogenize([omega_ref / 2], REFERENCE_BEAM, YB_PLUS_LINES, YB171)
        assert beam.waist == pytest.approx(2 * REFERENCE_BEAM.waist, rel=1e-12)
        assert beam.power == pytest.approx(4 * REFERENCE_BEAM.power, rel=1e-12)
        ratio = beam.power / beam.waist**2
        ref_ratio = REFERENCE_BEAM.power / REFERENCE_BEAM.waist**2
        assert ratio == pytest.approx(ref_ratio, rel=1e-12)

    def test_round_trip_matches_requested_frequency(self):
        omega_ref = tweezer_trap_frequency(REFERENCE_BEAM, YB_PLUS_LINES, YB171)
        targets = [0.3 * omega_ref, 0.9 * omega_ref, 1.7 * omega_ref]
        beams = stark_homogenize(targets, REFERENCE_BEAM, YB_PLUS_LINES, YB171)
        for want, beam in zip(targets, beams):
            got = tweezer_trap_frequency(beam, YB_PLUS_LINES, YB171)
            assert got == pytest.approx(want, rel=1e-6)
        shifts = [differential_stark_shift(b, YB_PLUS_LINES) for b in beams]
        assert np.ptp(shifts) < 1e-9 * shifts[0]

    def test_zero_pinning_rejected(self):
        with pytest.raises(InvalidArgumentError):
            stark_homogenize([0.0], REFERENCE_BEAM, YB_PLUS_LINES, YB171)


class TestAtomicLinesFile:
    def test_load(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("# label wavelength_nm linewidth_MHz\nD1 369.5 19.6\nD2 328.9 25.9\n")
        lines = load_atomic_lines(path, hyperfine_splitting=2 * np.pi * 12.6428e9)
        assert len(lines.transitions) == 2
        assert lines.transitions[0].label == "D1"
        assert lines.transitions[0].gamma == pytest.approx(2 * np.pi * 19.6e6)
        rate_file = scattering_rate(REFERENCE_BEAM, lines)
        rate_builtin = scattering_rate(REFERENCE_BEAM, YB_PLUS_LINES)
        assert rate_file == pytest.approx(rate_builtin, rel=0.02)

    @pytest.mark.parametrize(
        "row", ["D2 328.9nm 25.9", "D2 328.9 fast", "D2 , 25.9"], ids=["wavelength", "linewidth", "comma"]
    )
    def test_non_number_names_file_and_line(self, tmp_path, row):
        # used to end in a bare ValueError from float()
        path = tmp_path / "lines.txt"
        path.write_text(f"# label wavelength_nm linewidth_MHz\nD1 369.5 19.6\n{row}\n")
        with pytest.raises(InvalidArgumentError, match=f"{path}:3: wavelength and linewidth must be numbers"):
            load_atomic_lines(path, hyperfine_splitting=2 * np.pi * 12.6428e9)

    def test_missing_file_names_it(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(InvalidArgumentError, match=f"cannot read {path}"):
            load_atomic_lines(path, hyperfine_splitting=2 * np.pi * 12.6428e9)


@pytest.fixture(scope="module")
def small_result():
    """A quick 4-ion optimization carrying everything the scan needs."""
    from tweezer_ising import SearchSpace, TargetSpec, run_pipeline

    trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
    space = SearchSpace(
        omega_scan=(0.25 * MHZ, 0.25 * MHZ),
        mu=(0.60 * MHZ, 0.75 * MHZ),
        pin=(0.0, 0.4 * MHZ),
        pin_axes=("y",),
        mu_grid=6,
        restarts=3,
    )
    return run_pipeline(
        TargetSpec("nearest_neighbor", "chain"), space, trap, YB171, symmetry="reflection_z", seed=7
    )


class TestMisalignmentScan:
    def test_zero_scale_reproduces_aligned_error(self, small_result):
        scan = misalignment_scan(small_result, 0.0, samples=4, seed=1)
        assert scan.n_failed == 0
        for avg, eps in scan.records:
            assert avg == 0.0
            assert eps == pytest.approx(scan.aligned_epsilon, rel=1e-12)
        assert scan.aligned_epsilon == small_result.epsilon

    def test_seed_determinism(self, small_result):
        s1 = misalignment_scan(small_result, 50e-9, samples=6, seed=3)
        s2 = misalignment_scan(small_result, 50e-9, samples=6, seed=3)
        assert s1.records == s2.records
        s3 = misalignment_scan(small_result, 50e-9, samples=6, seed=4)
        assert s1.records != s3.records

    def test_offsets_shift_equilibrium_to_first_order(self, small_result):
        # prediction: dr = A^-1 (curvature * offset) for small offsets
        from tweezer_ising.crystal import solve_equilibrium
        from tweezer_ising.modes import mass_scaled_hessian

        crystal = small_result.crystal
        pattern = small_result.tweezers
        rng = np.random.default_rng(5)
        offsets = np.zeros((4, 3))
        offsets[:, 1] = rng.uniform(-10e-9, 10e-9, 4)
        shifted = solve_equilibrium(
            crystal.trap,
            crystal.species,
            4,
            crystal.positions,
            tweezers=pattern.with_offsets(offsets),
            tweezer_reference=crystal.positions,
        )
        dr = (shifted.positions - crystal.positions).ravel()
        a = mass_scaled_hessian(crystal.positions, crystal.trap, crystal.species, pattern.curvatures)
        forcing = np.einsum("iab,ib->ia", pattern.curvatures, offsets).ravel()
        dr_pred = np.linalg.solve(a, forcing)
        assert np.linalg.norm(dr) > 0
        assert np.linalg.norm(dr - dr_pred) < 0.1 * np.linalg.norm(dr_pred)

    def test_mixed_scales_recorded(self, small_result):
        scan = misalignment_scan(small_result, [10e-9, 100e-9], samples=8, seed=2)
        avgs = np.array([r[0] for r in scan.records])
        assert (avgs[::2] < avgs[1::2]).all()  # alternating small/large scales

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"displacement_scale": []},
            {"displacement_scale": [10e-9, np.nan]},
            {"displacement_scale": np.nan},
            {"displacement_scale": [np.inf]},
            {"displacement_scale": -1e-9},
            {"samples": -3},
            {"samples": 2.5},
            {"samples": "3"},
            {"axes": ("q",)},
            {"axes": (5,)},
            {"axes": ()},
            {"axes": ("y", "y")},
            {"axes": ("y", 1)},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": 1.5, "displacement_scale": 0.0},
            {"axes": (1.7,)},
        ],
        ids=["empty", "nan_in_list", "nan", "inf", "negative", "negative_samples",
             "fractional_samples", "string_samples", "unknown_axis", "axis_index", "no_axes",
             "repeated_axis", "repeated_axis_index", "negative_seed",
             # the seed used to raise a bare TypeError, or pass unused where
             # every scale is 0, and an axis of 1.7 ran as axis 1
             "fractional_seed", "fractional_seed_zero_scales", "fractional_axis"],
    )
    def test_rejects_bad_inputs(self, small_result, kwargs):
        args = {"displacement_scale": 10e-9, "samples": 4, "seed": 1, **kwargs}
        with pytest.raises(InvalidArgumentError):
            misalignment_scan(small_result, **args)

    def test_inputs_checked_before_the_aligned_solve(self, monkeypatch, small_result):
        import tweezer_ising.experiment as experiment_mod

        def fail(*args, **kwargs):
            raise AssertionError("aligned solve ran before the input check")

        monkeypatch.setattr(experiment_mod, "realized_coupling", fail)
        with pytest.raises(InvalidArgumentError):
            misalignment_scan(small_result, [np.inf], samples=4, seed=1)
        with pytest.raises(InvalidArgumentError):
            misalignment_scan(small_result, 10e-9, samples=-1, seed=1)
        with pytest.raises(InvalidArgumentError):
            misalignment_scan(small_result, 10e-9, samples=2.5, seed=1)
        with pytest.raises(InvalidArgumentError):
            misalignment_scan(small_result, 10e-9, samples=4, seed=1, axes=("z", 2))
        # a negative seed used to reach numpy's SeedSequence after the aligned solve
        with pytest.raises(InvalidArgumentError, match="seed must be nonnegative"):
            misalignment_scan(small_result, 10e-9, samples=4, seed=-1)

    def test_numpy_integers_are_integers(self, small_result):
        scan = misalignment_scan(small_result, 10e-9, samples=np.int64(2), seed=np.int64(1), axes=(np.int64(1),))
        assert scan.records == misalignment_scan(small_result, 10e-9, samples=2, seed=1, axes=("y",)).records

    def test_zero_samples_give_an_empty_scan(self, small_result):
        scan = misalignment_scan(small_result, 10e-9, samples=0, seed=1)
        assert scan.records == [] and scan.n_failed == 0
        assert scan.aligned_epsilon == small_result.epsilon


# The scan as it ran before lockstep blocks: one `solve_equilibrium` and one
# grading per sample, in sample order; the grading is `realized_coupling`, or
# the public one-matrix calls with `_lone_epsilon`.


def _realized_epsilon(result, positions):
    """A sample's ε from `realized_coupling`, as the scan's arguments give it."""
    from tweezer_ising.coupling import realized_coupling

    crystal = result.crystal
    return realized_coupling(
        positions, crystal.trap, crystal.species, result.tweezers.curvatures,
        result.mu, result.drive.drive_axis, result.drive.resonance_guard, result.target,
    )[0]


def _lone_epsilon(result, positions):
    """A sample's ε from the public one-matrix calls: the full spectrum, the
    drive masked to the modes its axis reaches, `coupling_matrix` and
    `coupling_error`."""
    from tweezer_ising.coupling import DriveConfig, coupling_error, coupling_matrix
    from tweezer_ising.modes import mass_scaled_hessian, mode_projections, mode_spectrum

    trap, species = result.crystal.trap, result.crystal.species
    spectrum = mode_spectrum(mass_scaled_hessian(positions, trap, species, result.tweezers.curvatures), trap.omega_bar)
    drive = dict(mu=result.mu, drive_axis=result.drive.drive_axis, resonance_guard=result.drive.resonance_guard)
    coupled = np.any(np.abs(mode_projections(spectrum, DriveConfig(**drive).drive_axis)) > 1e-10, axis=0)
    j = coupling_matrix(spectrum, DriveConfig(**drive, mode_mask=coupled), species)
    return coupling_error(result.target, j)[0]


def _oracle_scan(result, scales, samples, seed, axes, epsilon_at=_realized_epsilon):
    from tweezer_ising.crystal import solve_equilibrium
    from tweezer_ising.errors import ConvergenceError, UnstableCrystalError
    from tweezer_ising.modes import AXIS_INDEX

    scales = np.atleast_1d(np.asarray(scales, dtype=float))
    axis_idx = [AXIS_INDEX.get(a) if isinstance(a, str) else int(a) for a in axes]
    crystal, pattern, n, dim = result.crystal, result.tweezers, result.crystal.n_ions, len(axis_idx)
    aligned_eps = epsilon_at(result, crystal.positions)
    records, failed = [], []
    for i in range(samples):
        scale = float(scales[i % scales.size])
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
        offsets = np.zeros((n, 3))
        if scale > 0:
            direction = rng.standard_normal((n, dim))
            norms = np.linalg.norm(direction, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            radius = scale * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / dim)
            offsets[:, axis_idx] = radius * direction / norms
        avg = float(np.linalg.norm(offsets, axis=1).mean())
        try:
            shifted = solve_equilibrium(
                crystal.trap, crystal.species, n, crystal.positions,
                tweezers=pattern.with_offsets(offsets), tweezer_reference=crystal.positions,
            )
            eps = epsilon_at(result, shifted.positions)
        except (ConvergenceError, UnstableCrystalError) as err:
            failed.append((i, type(err).__name__))
            continue
        records.append((avg, eps))
    return aligned_eps, records, failed


def _design(trap, guess, curvatures, mu, axis):
    """What the scan reads of a design, around a solved crystal."""
    from types import SimpleNamespace

    from tweezer_ising.coupling import DriveConfig
    from tweezer_ising.crystal import solve_equilibrium
    from tweezer_ising.modes import TweezerPattern

    n = trap.n_ions
    target = np.diag(np.ones(n - 1), 1)
    return SimpleNamespace(
        crystal=solve_equilibrium(trap, YB171, n, guess),
        tweezers=TweezerPattern(curvatures),
        mu=mu,
        pin_axes=(axis,),
        drive=DriveConfig(mu=mu, drive_axis=axis),
        target=target + target.T,
    )


@pytest.fixture(scope="module")
def leaky_chain():
    """A 5-ion chain whose end ions are anti-confined along the axis more
    strongly than the trap confines them: the Coulomb push of their
    neighbours holds them, and large offsets let them run away."""
    trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=5)
    curv = np.zeros((5, 3, 3))
    curv[:, 1, 1] = (0.3 * MHZ) ** 2
    curv[[0, 4], 2, 2] = -1.7 * trap.omega_z**2
    return _design(trap, None, curv, 1.3 * MHZ, "y")


@pytest.fixture(scope="module")
def planar_triangle():
    """A 7-ion triangle in the y-z plane, pinned along x."""
    from tweezer_ising.crystal import triangular_start

    trap = TrapConfig(2.4 * MHZ, 0.3 * MHZ, 0.3 * MHZ, n_ions=7)
    guess, _ = triangular_start(trap, YB171, 0.3 * MHZ)
    curv = np.zeros((7, 3, 3))
    curv[:, 0, 0] = np.array([0.2, 0.1, 0.3, 0.1, 0.2, 0.1, 0.1]) ** 2 * MHZ**2
    return _design(trap, guess, curv, 2.7 * MHZ, "x")


class TestLockstepScan:
    """Lockstep blocks give the records and failures of the per-sample loop."""

    @pytest.mark.parametrize("block", [16, 5])
    def test_chain_with_failing_samples(self, leaky_chain, monkeypatch, block):
        import tweezer_ising.experiment as experiment_mod

        monkeypatch.setattr(experiment_mod, "SCAN_BLOCK", block)
        args = ([1e-7, 1e-6, 3e-6], 12, 5, ("y", "z"))
        aligned, records, failed = _oracle_scan(leaky_chain, *args)
        scan = misalignment_scan(leaky_chain, *args[:3], axes=args[3])
        assert failed and records
        assert repr(scan.aligned_epsilon) == repr(aligned)
        assert scan.records == records
        assert scan.failed_samples == failed and scan.n_failed == len(failed)

    def test_planar_triangle_offsets_on_two_axes(self, planar_triangle, monkeypatch):
        import tweezer_ising.experiment as experiment_mod

        monkeypatch.setattr(experiment_mod, "SCAN_BLOCK", 4)
        args = ([1e-8, 1e-7, 1e-6, 3e-6], 10, 9, ("y", "z"))
        aligned, records, failed = _oracle_scan(planar_triangle, *args)
        scan = misalignment_scan(planar_triangle, *args[:3], axes=args[3])
        assert len(records) == 10
        assert scan.records == records and scan.failed_samples == failed

    def test_other_errors_come_from_the_first_sample(self, planar_triangle, monkeypatch):
        # an offset along x lifts the triangle out of its plane; the scale-0
        # sample before it succeeds
        import tweezer_ising.experiment as experiment_mod
        from tweezer_ising.errors import NonPlanarError

        monkeypatch.setattr(experiment_mod, "SCAN_BLOCK", 8)
        with pytest.raises(NonPlanarError) as expected:
            _oracle_scan(planar_triangle, [0.0, 1e-7], 6, 2, ("x", "y"))
        with pytest.raises(NonPlanarError) as got:
            misalignment_scan(planar_triangle, [0.0, 1e-7], 6, 2, axes=("x", "y"))
        assert str(got.value) == str(expected.value)


@pytest.fixture(scope="module")
def marginal_chain():
    """A 5-ion chain whose radial anti-pinning leaves its zigzag mode barely
    stable.  Axial offsets that squeeze it stop some descents on the
    collinear saddle, where the grading is unstable; the solve then kicks,
    and the kicked sample is graded alone (samples 2, 7, 10, 11 and 17 of
    MARGINAL) or fails (1 and 16).  The beatnote sits within the guard of a
    mode of sample 20 alone."""
    trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=5)
    curv = np.zeros((5, 3, 3))
    curv[:, 1, 1] = -0.37 * trap.omega_y**2
    curv[:, 2, 2] = (0.3 * MHZ) ** 2
    return _design(trap, None, curv, 0.39795797 * MHZ + 0.4 * KHZ, "y")


#: scales, seed and axes of the marginal chain's scans
MARGINAL = ([3e-7, 1e-6, 3e-6], 5, ("z",))


def _count_calls(monkeypatch, module, name, key=lambda *args: True):
    """Wrap module.name; returns the list of key(*args) of its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(key(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="module")
def fast_fig7():
    """The fast `nn_chain_12` design and the fast fig7 scan settings."""
    from tweezer_ising.scenarios import misalignment_settings, nn_chain_12, run_scenario

    return (run_scenario(nn_chain_12(fast=True)), *misalignment_settings(True))


class TestStackedGrading:
    """Each block's converged descents are graded in one stacked pass; the
    records, failures and errors stay those of the per-sample loop."""

    def test_saddle_lanes_defer_their_unstable_grading(self, marginal_chain):
        from tweezer_ising.coupling import grade_hessians
        from tweezer_ising.crystal import TOL_EQUILIBRIUM, relax_equilibria
        from tweezer_ising.errors import UnstableCrystalError
        from tweezer_ising.experiment import _block_offsets
        from tweezer_ising.modes import mass_scaled_hessian

        crystal, curv = marginal_chain.crystal, marginal_chain.tweezers.curvatures
        scales, seed, _ = MARGINAL
        offsets = _block_offsets(5, [2], np.array(scales), seed, (1, 2, 16))
        relaxed, residuals, hessians = relax_equilibria(
            crystal.trap, YB171, np.broadcast_to(crystal.positions, offsets.shape), curv, crystal.positions + offsets
        )
        assert (residuals < TOL_EQUILIBRIUM).all()
        assert hessians.tobytes() == mass_scaled_hessian(relaxed, crystal.trap, YB171, curv).tobytes()
        drive = marginal_chain.drive
        grades = grade_hessians(hessians, crystal.trap.omega_bar, drive.mu, drive.drive_axis, drive.resonance_guard, YB171)
        assert all(isinstance(j, UnstableCrystalError) for j in grades.couplings)

    @pytest.mark.parametrize("block", [16, 3])
    def test_deferred_errors_keep_sample_order(self, marginal_chain, monkeypatch, block):
        # samples 1 and 16: the grading would raise and the solve fails;
        # sample 20: the grading raises and the solve succeeds
        import tweezer_ising.experiment as experiment_mod
        from tweezer_ising.errors import ResonanceError

        monkeypatch.setattr(experiment_mod, "SCAN_BLOCK", block)
        scales, seed, axes = MARGINAL
        aligned, records, failed = _oracle_scan(marginal_chain, scales, 20, seed, axes)
        scan = misalignment_scan(marginal_chain, scales, 20, seed, axes=axes)
        assert failed == [(1, "ConvergenceError"), (16, "ConvergenceError")] and len(records) == 18
        assert repr(scan.aligned_epsilon) == repr(aligned)
        assert scan.records == records and scan.failed_samples == failed
        with pytest.raises(ResonanceError) as expected:
            _oracle_scan(marginal_chain, scales, 24, seed, axes)
        with pytest.raises(ResonanceError) as got:
            misalignment_scan(marginal_chain, scales, 24, seed, axes=axes)
        assert str(got.value) == str(expected.value)

    def test_one_stacked_eigh_per_block(self, marginal_chain, monkeypatch):
        # eigh calls on a stack of one: the aligned grading and the five
        # kicked samples, each a lone realized_coupling
        import tweezer_ising.experiment as experiment_mod

        eighs = _count_calls(monkeypatch, np.linalg, "eigh", lambda a: len(a))
        alone = _count_calls(monkeypatch, experiment_mod, "realized_coupling")
        scales, seed, axes = MARGINAL
        scan = misalignment_scan(marginal_chain, scales, 20, seed, axes=axes)
        assert len(scan.records) == 18
        assert eighs.count(1) == len(alone) == 6
        assert len(eighs) - eighs.count(1) == 2

    def test_fast_fig7_scan_makes_no_eigenvalues(self, fast_fig7, monkeypatch):
        # every finishing solve of the fast fig7 scan is certified stable by
        # its Cholesky factorization: no sample pays for a lone eigvalsh
        design, scales, samples, seed = fast_fig7
        calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        scan = misalignment_scan(design, scales, samples, seed)
        assert len(scan.records) == samples
        assert calls == []

    @pytest.mark.parametrize("max_iter", [200, 3], ids=["as_relaxed", "short_descents"])
    def test_unconverged_descents_are_graded_alone(self, leaky_chain, monkeypatch, max_iter):
        # the leaky chain's unconverged descents (samples 2, 5, 8, 11) fail
        # their solves; cut to three Newton steps, in the scan's descents
        # and solves and in the oracle's solves, four more descents end
        # unconverged, and their solves, kicked from where they stopped,
        # succeed and are graded alone
        from functools import partial

        import tweezer_ising.crystal as crystal_mod
        import tweezer_ising.experiment as experiment_mod

        for module, name in [(experiment_mod, "relax_equilibria"), (experiment_mod, "solve_equilibrium"),
                             (crystal_mod, "solve_equilibrium")]:
            monkeypatch.setattr(module, name, partial(getattr(module, name), max_iter=max_iter))
        stacks = _count_calls(monkeypatch, experiment_mod, "grade_hessians", lambda a, *rest: len(a))
        alone = _count_calls(monkeypatch, experiment_mod, "realized_coupling")
        args = ([1e-7, 1e-6, 3e-6], 12, 5, ("y", "z"))
        aligned, records, failed = _oracle_scan(leaky_chain, *args)
        scan = misalignment_scan(leaky_chain, *args[:3], axes=args[3])
        assert [i for i, _ in failed] == [2, 5, 8, 11]
        assert scan.records == records and scan.failed_samples == failed
        assert (stacks, len(alone)) == (([8], 1) if max_iter == 200 else ([4], 5))

    @pytest.mark.parametrize("block", [16, 3])
    def test_each_block_is_graded_before_its_solves(self, marginal_chain, monkeypatch, block):
        # the aligned grading, then per block its descents, its stacked
        # grading where a lane converged, and per sample its solve and its
        # coupling_error, or for a kicked sample its lone grading
        import tweezer_ising.experiment as experiment_mod
        from tweezer_ising.crystal import TOL_EQUILIBRIUM

        monkeypatch.setattr(experiment_mod, "SCAN_BLOCK", block)
        events, converged = [], []
        for name in ("relax_equilibria", "grade_hessians", "realized_coupling", "solve_equilibrium", "coupling_error"):
            _count_calls(monkeypatch, experiment_mod, name, lambda *args, name=name: events.append(name))
        relax = experiment_mod.relax_equilibria

        def relax_and_record(*args):
            relaxed, residuals, hessians = relax(*args)
            converged.append(bool((residuals < TOL_EQUILIBRIUM).any()))
            return relaxed, residuals, hessians

        monkeypatch.setattr(experiment_mod, "relax_equilibria", relax_and_record)
        scales, seed, axes = MARGINAL
        scan = misalignment_scan(marginal_chain, scales, 20, seed, axes=axes)
        failed, kicked = {1, 16}, {2, 7, 10, 11, 17}
        assert [i for i, _ in scan.failed_samples] == sorted(failed) and len(scan.records) == 18
        assert len(converged) == -(-20 // block) and any(converged)
        expected = ["realized_coupling"]
        for start, graded in zip(range(0, 20, block), converged):
            expected += ["relax_equilibria"] + ["grade_hessians"] * graded
            for i in range(start, min(start + block, 20)):
                expected += ["solve_equilibrium"]
                if i not in failed:
                    expected += ["realized_coupling" if i in kicked else "coupling_error"]
        assert events == expected

    @pytest.mark.parametrize("block", [16, 3])
    def test_a_later_grading_error_waits_for_the_earlier_samples(self, marginal_chain, monkeypatch, block):
        # every grading after the first block's gives each lane an error; an
        # error in sample 2's solve, in the first block, still comes first
        import tweezer_ising.experiment as experiment_mod

        monkeypatch.setattr(experiment_mod, "SCAN_BLOCK", block)
        grade, solve = experiment_mod.grade_hessians, experiment_mod.solve_equilibrium
        gradings, solves = [], []

        def grade_later_blocks_badly(hessians, *args):
            grades = grade(hessians, *args)
            gradings.append(len(hessians))
            if len(gradings) == 1:
                return grades
            return grades._replace(couplings=[LookupError("a later block's grading")] * len(hessians))

        def solve_raising_at_sample_2(*args, **kwargs):
            solves.append(len(solves))
            if solves[-1] == 2:
                raise ValueError("sample 2's solve")
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiment_mod, "grade_hessians", grade_later_blocks_badly)
        scales, seed, axes = MARGINAL
        with pytest.raises(LookupError):
            misalignment_scan(marginal_chain, scales, 20, seed, axes=axes)
        assert len(gradings) > 1
        gradings.clear()
        monkeypatch.setattr(experiment_mod, "solve_equilibrium", solve_raising_at_sample_2)
        with pytest.raises(ValueError, match="sample 2's solve"):
            misalignment_scan(marginal_chain, scales, 20, seed, axes=axes)
        assert len(solves) == 3

    def test_scan_grades_against_one_target_side(self, leaky_chain, monkeypatch):
        # each sample's coupling_error reads the target's largest coupling
        # and norm, computed once per CouplingMatrix, and has the bits of
        # the formula that computed them on every call
        from types import SimpleNamespace

        import tweezer_ising.coupling as coupling_mod
        import tweezer_ising.experiment as experiment_mod
        from tweezer_ising.coupling import CouplingMatrix, _as_matrix, _largest_offdiag, _rescaled_errors
        from tweezer_ising.modes import euclidean_norm

        def unhoisted_epsilon(target, j):
            jt, jm = _as_matrix(target), _as_matrix(j)
            (max_t, max_j), _ = _largest_offdiag(np.array([jt, jm]))
            return float(_rescaled_errors(jt, euclidean_norm(jt), max_t, jm[None], max_j[None])[2][0])

        error, graded = coupling_mod.coupling_error, []

        def spy(target, j):
            eps, realized = error(target, j)
            graded.append((target, j, eps))
            return eps, realized

        monkeypatch.setattr(coupling_mod, "coupling_error", spy)  # what realized_coupling calls
        monkeypatch.setattr(experiment_mod, "coupling_error", spy)
        sides = _count_calls(monkeypatch, coupling_mod, "_target_side")
        design = SimpleNamespace(**{**vars(leaky_chain), "target": CouplingMatrix(leaky_chain.target)})
        scan = misalignment_scan(design, [1e-7, 1e-6, 3e-6], 12, 5, axes=("y", "z"))
        assert len(sides) == 1
        assert len(graded) == len(scan.records) + 1 == 9
        assert [eps for _, _, eps in graded] == [scan.aligned_epsilon] + [eps for _, eps in scan.records]
        for target, j, eps in graded:
            assert repr(eps) == repr(unhoisted_epsilon(target, j))


def _hand_off_case(request, kind):
    """A design, its scan settings and sample lanes whose first descents
    are of one kind: converged on a stable crystal (the fast fig7 scan),
    converged on a saddle and kicked (the marginal chain; samples 1 and 16
    then fail), or unconverged (the leaky chain; all four fail)."""
    if kind == "converged":
        design, scales, _, seed = request.getfixturevalue("fast_fig7")
        return design, scales, seed, design.pin_axes, range(16)
    if kind == "unstable":
        scales, seed, axes = MARGINAL
        return request.getfixturevalue("marginal_chain"), scales, seed, axes, (1, 2, 7, 16)
    return request.getfixturevalue("leaky_chain"), [1e-7, 1e-6, 3e-6], 5, ("y", "z"), (2, 5, 8, 11)


class TestFirstDescentHandOff:
    """The scan hands each finishing solve its lane of the block's
    descents, with the lane's Hessian; the solve gives the bits of the
    solve that descends itself, and repeats no descent."""

    @pytest.mark.parametrize("kind", ["converged", "unstable", "unconverged"])
    def test_the_hand_off_is_bit_for_bit(self, request, kind):
        from tweezer_ising.crystal import TOL_EQUILIBRIUM, _is_stable, relax_equilibria, solve_equilibrium
        from tweezer_ising.errors import ConvergenceError
        from tweezer_ising.experiment import _block_offsets
        from tweezer_ising.modes import AXIS_INDEX, TOL_PSD_REL, mass_scaled_hessian

        design, scales, seed, axes, lanes = _hand_off_case(request, kind)
        crystal, pattern = design.crystal, design.tweezers
        trap, n = crystal.trap, crystal.n_ions
        scales = np.atleast_1d(np.asarray(scales, dtype=float))
        offsets = _block_offsets(n, [AXIS_INDEX[a] for a in axes], scales, seed, lanes)
        relaxed, residuals, hessians = relax_equilibria(
            trap, YB171, np.broadcast_to(crystal.positions, offsets.shape), pattern.curvatures, crystal.positions + offsets
        )
        assert hessians.tobytes() == mass_scaled_hessian(relaxed, trap, YB171, pattern.curvatures).tobytes()
        converged = (residuals < TOL_EQUILIBRIUM).tolist()
        stable = [_is_stable(h, TOL_PSD_REL * trap.omega_bar**2) for h in hessians]
        assert converged == [kind != "unconverged"] * len(lanes)
        if kind != "unconverged":
            assert stable == [kind == "converged"] * len(lanes)
        outcomes = []
        for k, off in enumerate(offsets):
            kwargs = dict(tweezers=pattern.with_offsets(off), tweezer_reference=crystal.positions)
            lane = []
            for hand_off in (None, (relaxed[k], residuals[k], hessians[k])):
                try:
                    solved = solve_equilibrium(trap, YB171, n, crystal.positions, first_descent=hand_off, **kwargs)
                except Exception as err:
                    lane.append((type(err), str(err)))
                else:
                    lane.append((solved.positions.tobytes(), solved.dimensionality, solved.extended_axes))
            assert lane[1] == lane[0]
            # the error class, or whether the solve kept the descended positions
            first = lane[0][0]
            outcomes.append(first if isinstance(first, type) else first == relaxed[k].tobytes())
        assert outcomes == {
            "converged": [True] * 16,  # the descended positions
            "unstable": [ConvergenceError, False, False, ConvergenceError],  # kicked
            "unconverged": [ConvergenceError] * 4,
        }[kind]

    def test_converged_solves_build_no_hessian_or_gradient(self, fast_fig7, monkeypatch):
        # every descent of the fast fig7 scan converges on a stable crystal:
        # its finishing solve checks the handed-over residual and Hessian
        import tweezer_ising.crystal as crystal_mod
        import tweezer_ising.experiment as experiment_mod

        design, scales, samples, seed = fast_fig7
        solving, solves, calls = [], [], []
        solve = experiment_mod.solve_equilibrium

        def traced_solve(*args, **kwargs):
            solving.append(True)
            solves.append(kwargs["first_descent"][2] is not None)  # handed a Hessian
            try:
                return solve(*args, **kwargs)
            finally:
                solving.pop()

        monkeypatch.setattr(experiment_mod, "solve_equilibrium", traced_solve)
        for name in ("mass_scaled_hessian", "_potentials_and_gradients"):
            real = getattr(crystal_mod, name)
            monkeypatch.setattr(
                crystal_mod, name, lambda *a, real=real, name=name: calls.append((name, bool(solving))) or real(*a)
            )
        scan = misalignment_scan(design, scales, samples, seed)
        assert len(scan.records) == samples and solves == [True] * samples
        assert {name for name, _ in calls} == {"mass_scaled_hessian", "_potentials_and_gradients"}
        assert [name for name, in_solve in calls if in_solve] == []

    def test_hessians_are_built_only_by_the_descents(self, fast_fig7, monkeypatch):
        # the block's descents return each lane's Hessian, which grades it
        # and checks its stability: no Hessian is built in the block loop or
        # in a finishing solve, only the aligned crystal's, by its grading
        import tweezer_ising.coupling as coupling_mod
        import tweezer_ising.crystal as crystal_mod
        import tweezer_ising.experiment as experiment_mod

        assert not hasattr(experiment_mod, "mass_scaled_hessian")
        design, scales, samples, seed = fast_fig7
        inside, builds = [], []
        for name in ("relax_equilibria", "solve_equilibrium"):
            real = getattr(experiment_mod, name)

            def traced(*args, real=real, name=name, **kwargs):
                inside.append(name)
                try:
                    return real(*args, **kwargs)
                finally:
                    inside.pop()

            monkeypatch.setattr(experiment_mod, name, traced)
        for module in (crystal_mod, coupling_mod):
            real = module.mass_scaled_hessian
            monkeypatch.setattr(
                module, "mass_scaled_hessian",
                lambda *a, real=real, module=module: builds.append((module.__name__, tuple(inside))) or real(*a),
            )
        scan = misalignment_scan(design, scales, samples, seed)
        assert len(scan.records) == samples
        assert builds[0] == ("tweezer_ising.coupling", ())
        assert set(builds[1:]) == {("tweezer_ising.crystal", ("relax_equilibria",))}

    def test_each_first_descent_runs_once(self, leaky_chain, monkeypatch):
        # a descent that does not converge is not run again by its finishing
        # solve: the scan makes the Newton steps of the per-sample loop
        import tweezer_ising.crystal as crystal_mod

        steps = []
        real = crystal_mod.dpotrf

        def counted(*args, **kwargs):
            steps.append("clean" in kwargs)  # a Newton step's factorization; the stability check passes no clean
            return real(*args, **kwargs)

        monkeypatch.setattr(crystal_mod, "dpotrf", counted)
        args = ([1e-7, 1e-6, 3e-6], 40, 5, ("y", "z"))
        aligned, records, failed = _oracle_scan(leaky_chain, *args)
        oracle_steps = steps.count(True)
        steps.clear()
        scan = misalignment_scan(leaky_chain, *args[:3], axes=args[3])
        assert len(failed) == 10
        assert repr(scan.aligned_epsilon) == repr(aligned)
        assert scan.records == records and scan.failed_samples == failed
        assert steps.count(True) == oracle_steps > 10 * 5 * 200

    def test_one_block_of_hessians_is_alive_at_a_time(self, fast_fig7):
        # a scan of ten blocks peaks, above what it returns, where a scan of
        # one block does: far below one more block's stacked Hessians
        import tracemalloc

        from tweezer_ising.experiment import SCAN_BLOCK

        design, scales, _, seed = fast_fig7
        misalignment_scan(design, scales, 1, seed)  # first-call caches
        above = []
        for samples in (SCAN_BLOCK, 10 * SCAN_BLOCK):
            tracemalloc.start()
            try:
                scan = misalignment_scan(design, scales, samples, seed)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(scan.records) == samples
            above.append(peak - kept)
        stack = SCAN_BLOCK * (3 * design.crystal.n_ions) ** 2 * 8  # one block's Hessians, bytes
        assert above[1] - above[0] < stack / 4


class TestBlockOffsets:
    """A block's offsets are each sample's draws from its own stream, shaped
    as one sample alone would shape them."""

    @staticmethod
    def _sample_offsets(n, axis_idx, scales, seed, i):
        scale = float(scales[i % scales.size])
        offsets = np.zeros((n, 3))
        if scale > 0:
            dim = len(axis_idx)
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
            direction = rng.standard_normal((n, dim))
            norms = np.linalg.norm(direction, axis=1)[:, None]
            norms[norms == 0] = 1.0
            radius = scale * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / dim)
            offsets[:, axis_idx] = radius * direction / norms
        return offsets

    @pytest.mark.parametrize("axis_idx", [[1], [2, 0], [0, 1, 2]])
    @pytest.mark.parametrize("block", [range(0, 16), range(32, 37), (3, 1, 7), ()])
    def test_each_sample_keeps_its_bits(self, axis_idx, block):
        from tweezer_ising.experiment import _block_offsets

        scales = np.array([0.0, 2e-8, 1e-7, 0.0, 3e-6])  # zero-scale samples draw nothing
        offsets = _block_offsets(12, axis_idx, scales, 11, block)
        assert offsets.shape == (len(block), 12, 3)
        for k, i in enumerate(block):
            assert offsets[k].tobytes() == self._sample_offsets(12, axis_idx, scales, 11, i).tobytes()
            assert (offsets[k] == 0).all() == (scales[i % 5] == 0)


class TestMultiAxisDrive:
    """A drive along more than one axis: the one-lane grading, the lone
    calls and the stacked scan project on the same unit vector.  Once
    `realized_coupling` projected a named axis on its unit vector and
    `coupling_matrix` on that vector normalized again, one ulp apart."""

    @pytest.fixture(scope="class", params=["yz", "xy", (0, 0.3, 1)], ids=["yz", "xy", "0-0.3-1"])
    def chain(self, request):
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=5)
        curv = np.zeros((5, 3, 3))
        curv[:, 1, 1] = (0.3 * MHZ) ** 2
        return request.param, _design(trap, None, curv, 1.3 * MHZ, request.param)

    def test_realized_coupling_is_the_lone_coupling(self, chain):
        from tweezer_ising.coupling import coupling_error, coupling_matrix, realized_coupling

        axis, design = chain
        crystal = design.crystal
        moved = crystal.positions + np.random.default_rng(3).uniform(-1e-7, 1e-7, crystal.positions.shape)
        for positions in (crystal.positions, moved):
            for given in (axis, design.drive.drive_axis):
                eps, realized, spectrum, drive = realized_coupling(
                    positions, crystal.trap, YB171, design.tweezers.curvatures,
                    design.mu, given, design.drive.resonance_guard, design.target,
                )
                want_eps, want = coupling_error(design.target, coupling_matrix(spectrum, drive, YB171))
                assert repr(eps) == repr(want_eps)
                assert realized.matrix.tobytes() == want.matrix.tobytes() and realized.scale == want.scale

    def test_scan_matches_the_lone_calls(self, chain, monkeypatch):
        import tweezer_ising.experiment as experiment_mod

        _, design = chain
        monkeypatch.setattr(experiment_mod, "SCAN_BLOCK", 4)
        args = ([1e-8, 1e-7, 3e-7], 9, 3, ("y", "z"))
        aligned, records, failed = _oracle_scan(design, *args, epsilon_at=_lone_epsilon)
        scan = misalignment_scan(design, *args[:3], axes=args[3])
        assert len(records) == 9 and not failed
        assert repr(scan.aligned_epsilon) == repr(aligned)
        assert scan.records == records and scan.failed_samples == failed


@pytest.fixture
def blas_threads(request):
    """numpy's OpenBLAS thread-count getter and setter, with a pool of at
    least two threads for the test and the count it found put back after."""
    from tweezer_ising.experiment import _blas_thread_calls

    calls = _blas_thread_calls()
    if calls is None:
        pytest.skip("numpy ships no OpenBLAS with a thread-count control here")
    get_threads, set_threads = calls
    found = get_threads()
    request.addfinalizer(lambda: set_threads(found))
    set_threads(max(found, 2))
    return get_threads, set_threads


class TestOneBlasThread:
    """The scan holds numpy's OpenBLAS at one thread and gives the pool
    back afterwards; the thread count moves no bit of `eigh`."""

    def test_every_eigh_of_the_fig7_scan_runs_on_one_thread(self, fast_fig7, blas_threads, monkeypatch):
        get_threads, _ = blas_threads
        before = get_threads()
        seen = _count_calls(monkeypatch, np.linalg, "eigh", lambda a: get_threads())
        design, scales, samples, seed = fast_fig7
        scan = misalignment_scan(design, scales, samples, seed)
        assert len(scan.records) == samples
        assert len(seen) > 1 and set(seen) == {1}
        assert before > 1 and get_threads() == before

    def test_the_count_is_restored_when_the_scan_raises(self, fast_fig7, blas_threads, monkeypatch):
        import tweezer_ising.experiment as experiment_mod

        get_threads, _ = blas_threads
        before, inside = get_threads(), []

        def grade_and_raise(*args):
            inside.append(get_threads())
            raise RuntimeError("grading interrupted")

        monkeypatch.setattr(experiment_mod, "grade_hessians", grade_and_raise)
        design, scales, samples, seed = fast_fig7
        with pytest.raises(RuntimeError, match="grading interrupted"):
            misalignment_scan(design, scales, samples, seed)
        assert inside == [1] and get_threads() == before

    def test_a_scan_without_thread_control_gives_the_same_records(self, small_result, monkeypatch):
        import tweezer_ising.experiment as experiment_mod

        args = ([1e-8, 1e-7, 3e-7], 20, 4)
        capped = misalignment_scan(small_result, *args)
        monkeypatch.setattr(experiment_mod, "_blas_thread_calls", lambda: None)
        plain = misalignment_scan(small_result, *args)
        assert len(capped.records) == 20
        assert repr(capped.aligned_epsilon) == repr(plain.aligned_epsilon)
        assert capped.records == plain.records and capped.failed_samples == plain.failed_samples

    @pytest.mark.parametrize("n", [12, 19, 36, 57])
    def test_stacked_eigh_has_the_same_bits_on_one_thread(self, blas_threads, n):
        get_threads, set_threads = blas_threads
        pool = get_threads()
        a = np.random.default_rng(n).standard_normal((8, n, n))
        a = a + a.transpose(0, 2, 1)
        lam, vec = np.linalg.eigh(a)
        set_threads(1)
        one_lam, one_vec = np.linalg.eigh(a)
        set_threads(pool)
        assert lam.tobytes() == one_lam.tobytes() and vec.tobytes() == one_vec.tobytes()
