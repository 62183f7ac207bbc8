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
            {"axes": ("q",)},
            {"axes": (5,)},
            {"axes": ()},
        ],
        ids=["empty", "nan_in_list", "nan", "inf", "negative", "negative_samples",
             "unknown_axis", "axis_index", "no_axes"],
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

    def test_zero_samples_give_an_empty_scan(self, small_result):
        scan = misalignment_scan(small_result, 10e-9, samples=0, seed=1)
        assert scan.records == [] and scan.n_failed == 0
        assert scan.aligned_epsilon == small_result.epsilon
