import numpy as np
import pytest
from dataclasses import replace

from tweezer_ising import (
    YB171,
    DriveConfig,
    TrapConfig,
    build_hessian,
    coupling_gradient_adjoint,
    coupling_gradient_fd,
    coupling_jacobian_diag,
    coupling_matrix,
    mode_spectrum,
    solve_equilibrium,
)
from tweezer_ising.errors import DegenerateSpectrumError
from tweezer_ising.modes import TweezerPattern, block_coords, mass_scaled_hessian, mode_projections
from tweezer_ising.sensitivity import all_pairs

from conftest import MHZ


def _pinned_chain(species, n, pin_mhz, seed=0, wy=0.6, wz=0.12):
    """Chain with random y pinning; returns (crystal, spectrum, y-coords)."""
    rng = np.random.default_rng(seed)
    trap = TrapConfig(2.0 * MHZ, wy * MHZ, wz * MHZ, n_ions=n)
    crystal = solve_equilibrium(trap, species, n)
    pins = rng.uniform(0.0, pin_mhz, n) * MHZ
    pattern = TweezerPattern.from_frequencies(pins, axes="y")
    spec = mode_spectrum(build_hessian(crystal, pattern))
    return crystal, pattern, spec


def _builder(crystal, base_pattern, drive, species, coords, block_only=False):
    """Pinning curvature vector over `coords` -> coupling matrix."""
    from tweezer_ising.modes import mass_scaled_hessian

    def build(curv_vector):
        a = mass_scaled_hessian(
            crystal.positions, crystal.trap, crystal.species, base_pattern.curvatures
        ).copy()
        a[coords, coords] += curv_vector
        if block_only:
            a = a[np.ix_(coords, coords)]
            spec = mode_spectrum(
                a, freq_scale=crystal.trap.omega_bar, coords=coords, n_ions=crystal.n_ions
            )
        else:
            spec = mode_spectrum(a, freq_scale=crystal.trap.omega_bar)
        return coupling_matrix(spec, drive, species)

    return build


class TestFiniteDifferenceOracle:
    def test_exact_on_affine_map(self):
        rng = np.random.default_rng(1)
        slope = rng.standard_normal((3, 3))
        slope = slope + slope.T
        np.fill_diagonal(slope, 0.0)
        weights = rng.standard_normal(4)

        def builder(v):
            return slope * float(weights @ v)

        grad = coupling_gradient_fd(builder, np.zeros(4), step=0.37, pairs=[(0, 1), (1, 2)])
        assert np.allclose(grad.row((0, 1)), slope[0, 1] * weights, rtol=1e-12)
        assert np.allclose(grad.row((1, 2)), slope[1, 2] * weights, rtol=1e-12)

    def test_quadratic_convergence_in_step(self):
        target = np.array([[0.0, 1.0], [1.0, 0.0]])

        def builder(v):
            return target * np.sin(float(v[0]))

        exact = np.cos(0.4)
        errs = []
        for h in (0.2, 0.1):
            g = coupling_gradient_fd(builder, np.array([0.4]), step=h, pairs=[(0, 1)])
            errs.append(abs(g.row((0, 1))[0] - exact))
        assert errs[1] == pytest.approx(errs[0] / 4.0, rel=0.05)


class TestAdjointGradient:
    def test_two_ion_uniform_pinning_directional_derivative(self, species):
        # closed form: J12(mu; pinning K on both ions) has modes at
        # lam + K, so dJ12/dK = sum of both per-ion entries
        trap = TrapConfig(2.5 * MHZ, 0.9 * MHZ, 0.3 * MHZ, n_ions=2)
        crystal = solve_equilibrium(trap, species, 2)
        spec = mode_spectrum(build_hessian(crystal))
        mu = 1.12 * trap.omega_y
        drive = DriveConfig(mu=mu, drive_axis="y")
        yc = block_coords(2, ["y"])
        grad = coupling_gradient_adjoint(build_hessian(crystal), spec, drive, [(0, 1)], species, coords=yc)
        directional = grad.row((0, 1)).sum()
        lam_com = trap.omega_y**2
        lam_rock = trap.omega_y**2 - trap.omega_z**2
        # J12(K) = 0.5/(mu^2 - lam_com - K) - 0.5/(mu^2 - lam_rock - K)
        expected = 0.5 / (mu**2 - lam_com) ** 2 - 0.5 / (mu**2 - lam_rock) ** 2
        assert directional == pytest.approx(expected, rel=1e-10)

    def test_coords_are_the_differentiated_coordinates(self, species):
        # on the y block of a 4-ion chain (coordinates 1, 4, 7, 10) the
        # field holds coordinates, not the block's row positions
        crystal, pattern, _ = _pinned_chain(species, 4, pin_mhz=0.25, seed=2)
        yc = block_coords(4, ["y"])
        hess = build_hessian(crystal, pattern)
        block = mass_scaled_hessian(crystal.positions, crystal.trap, species, pattern.curvatures)[np.ix_(yc, yc)]
        spec = mode_spectrum(block, freq_scale=crystal.trap.omega_bar, coords=yc, n_ions=4)
        drive = DriveConfig(mu=1.07 * spec.frequencies.max(), drive_axis="y")
        some = coupling_gradient_adjoint(hess, spec, drive, [(0, 1)], species, coords=[4, 7])
        every = coupling_gradient_adjoint(hess, spec, drive, [(0, 1)], species)
        assert some.coords.tolist() == [4, 7]
        assert every.coords.tolist() == yc.tolist() == [1, 4, 7, 10]
        assert some.values.tobytes() == every.values[:, 1:3].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_finite_differences(self, species, n):
        crystal, pattern, spec = _pinned_chain(species, n, pin_mhz=0.3, seed=n)
        mu = 1.07 * spec.frequencies.max()
        drive = DriveConfig(mu=mu, drive_axis="y")
        yc = block_coords(n, ["y"])
        pairs = all_pairs(n)
        adj = coupling_gradient_adjoint(build_hessian(crystal, pattern), spec, drive, pairs, species, coords=yc)
        builder = _builder(crystal, pattern, drive, species, yc)
        fd = coupling_gradient_fd(builder, np.zeros(n), step=1e-4 * crystal.trap.omega_bar**2, pairs=pairs)
        scale = np.abs(adj.values).max()
        assert np.abs(adj.values - fd.values).max() < 1e-6 * scale

    def test_gauge_invariance_under_sign_flips(self, species):
        crystal, pattern, spec = _pinned_chain(species, 4, pin_mhz=0.25, seed=9)
        drive = DriveConfig(mu=1.06 * spec.frequencies.max(), drive_axis="y")
        hess = build_hessian(crystal, pattern)
        yc = block_coords(4, ["y"])
        flipped = replace(spec, eigenvectors=-spec.eigenvectors)
        g1 = coupling_gradient_adjoint(hess, spec, drive, [(0, 2)], species, coords=yc)
        g2 = coupling_gradient_adjoint(hess, flipped, drive, [(0, 2)], species, coords=yc)
        assert np.allclose(g1.values, g2.values, rtol=1e-12)

    def test_degenerate_spectrum_refused(self, species):
        trap = TrapConfig(1.0 * MHZ, 1.0 * MHZ, 1.0 * MHZ, n_ions=1)
        crystal = solve_equilibrium(trap, species, 1)
        spec = mode_spectrum(build_hessian(crystal))
        drive = DriveConfig(mu=1.5 * MHZ, drive_axis="y")
        with pytest.raises(DegenerateSpectrumError):
            coupling_gradient_adjoint(build_hessian(crystal), spec, drive, [(0, 0)], species)

    def test_mode_mask_linearity(self, species):
        crystal, pattern, spec = _pinned_chain(species, 4, pin_mhz=0.2, seed=3)
        mu = 1.08 * spec.frequencies.max()
        yc = block_coords(4, ["y"])
        hess = build_hessian(crystal, pattern)
        pairs = [(0, 1), (1, 3)]
        masks = []
        half = np.zeros(spec.n_modes, dtype=bool)
        half[: spec.n_modes // 2] = True
        masks = [half, ~half]
        parts = [
            coupling_gradient_adjoint(
                hess, spec, DriveConfig(mu=mu, drive_axis="y", mode_mask=m), pairs, species, coords=yc
            ).values
            for m in masks
        ]
        full = coupling_gradient_adjoint(
            hess, spec, DriveConfig(mu=mu, drive_axis="y"), pairs, species, coords=yc
        ).values
        assert np.allclose(parts[0] + parts[1], full, rtol=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_masked_drive_matches_finite_differences(self, species, n):
        # a random half of the drive-coupled modes: exercises the masked
        # kernel's cross-boundary terms against the independent oracle
        crystal, pattern, spec = _pinned_chain(species, n, pin_mhz=0.3, seed=40 + n)
        rng = np.random.default_rng(n)
        coupled = np.flatnonzero(np.any(np.abs(mode_projections(spec, "y")) > 1e-10, axis=0))
        mask = np.zeros(spec.n_modes, dtype=bool)
        mask[rng.choice(coupled, coupled.size // 2, replace=False)] = True
        drive = DriveConfig(mu=1.07 * spec.frequencies.max(), drive_axis="y", mode_mask=mask)
        yc = block_coords(n, ["y"])
        pairs = all_pairs(n)
        adj = coupling_gradient_adjoint(build_hessian(crystal, pattern), spec, drive, pairs, species, coords=yc)
        builder = _builder(crystal, pattern, drive, species, yc)
        fd = coupling_gradient_fd(builder, np.zeros(n), step=1e-4 * crystal.trap.omega_bar**2, pairs=pairs)
        assert np.abs(adj.values - fd.values).max() < 1e-5 * np.abs(adj.values).max()

    def test_twelve_ion_chain_cross_check(self, species):
        crystal, pattern, spec = _pinned_chain(species, 12, pin_mhz=0.4, seed=13, wz=0.07)
        mu = 2 * np.pi * 0.49e6
        gaps = np.abs(mu - spec.frequencies)
        assert gaps.min() > 2 * np.pi * 1e3  # clear of the guard by construction
        drive = DriveConfig(mu=mu, drive_axis="y")
        yc = block_coords(12, ["y"])
        pairs = [(0, 1), (0, 11), (3, 7), (5, 6)]
        adj = coupling_gradient_adjoint(build_hessian(crystal, pattern), spec, drive, pairs, species, coords=yc)
        builder = _builder(crystal, pattern, drive, species, yc)
        fd = coupling_gradient_fd(builder, np.zeros(12), step=1e-4 * crystal.trap.omega_bar**2, pairs=pairs)
        # the beatnote sits ~10 kHz from a mode here, which amplifies the
        # finite-difference truncation error; 1e-5 is the acceptance level
        assert np.abs(adj.values - fd.values).max() < 1e-5 * np.abs(adj.values).max()


class TestResolventJacobian:
    def test_agrees_with_adjoint(self, species):
        crystal, pattern, spec = _pinned_chain(species, 5, pin_mhz=0.3, seed=5)
        drive = DriveConfig(mu=1.05 * spec.frequencies.max(), drive_axis="y")
        yc = block_coords(5, ["y"])
        jac = coupling_jacobian_diag(spec, drive, species, coords=yc)
        adj = coupling_gradient_adjoint(build_hessian(crystal, pattern), spec, drive, all_pairs(5), species, coords=yc)
        for r, (k, l) in enumerate(adj.pairs):
            assert np.allclose(jac[k, l, :], adj.values[r], rtol=1e-9)

    def test_defined_at_degeneracy_and_matches_fd(self, species):
        # C6-symmetric lattice: the transverse block has degenerate pairs
        trap = TrapConfig(2.4 * MHZ, 0.16 * MHZ, 0.16 * MHZ, n_ions=7)
        from tweezer_ising.crystal import IonCrystal, length_scale, make_lattice
        from tweezer_ising.modes import mass_scaled_hessian

        pos = make_lattice("triangular", 7, 1.6 * length_scale(trap.omega_y, species))
        crystal = IonCrystal(trap, species, pos, "planar", (1, 2))
        xc = block_coords(7, ["x"])
        a_block = mass_scaled_hessian(pos, trap, species)[np.ix_(xc, xc)]
        spec = mode_spectrum(a_block, freq_scale=trap.omega_bar, coords=xc, n_ions=7)
        gaps = np.diff(spec.eigenvalues)
        assert gaps.min() < 1e-9 * trap.omega_bar**2  # genuinely degenerate
        drive = DriveConfig(mu=1.03 * spec.frequencies.max(), drive_axis="x")
        jac = coupling_jacobian_diag(spec, drive, species, coords=xc)
        builder = _builder(crystal, TweezerPattern.zero(7), drive, species, xc, block_only=True)
        pairs = [(0, 1), (2, 5), (3, 6)]
        fd = coupling_gradient_fd(builder, np.zeros(7), step=1e-5 * trap.omega_bar**2, pairs=pairs)
        for r, (k, l) in enumerate(fd.pairs):
            assert np.allclose(jac[k, l, :], fd.values[r], rtol=1e-5, atol=1e-8 * np.abs(fd.values).max())


class TestOracleEquivalenceSweep:
    def test_random_instances(self, species):
        # broader randomized agreement; the acceptance suite runs 100 cases
        failures = 0
        for seed in range(10):
            n = 2 + seed % 5
            crystal, pattern, spec = _pinned_chain(species, n, pin_mhz=0.35, seed=100 + seed)
            mu = (1.04 + 0.01 * seed) * spec.frequencies.max()
            drive = DriveConfig(mu=mu, drive_axis="y")
            yc = block_coords(n, ["y"])
            pairs = all_pairs(n)
            adj = coupling_gradient_adjoint(
                build_hessian(crystal, pattern), spec, drive, pairs, species, coords=yc
            )
            fd = coupling_gradient_fd(
                _builder(crystal, pattern, drive, species, yc),
                np.zeros(n),
                step=1e-4 * crystal.trap.omega_bar**2,
                pairs=pairs,
            )
            if np.abs(adj.values - fd.values).max() > 1e-5 * np.abs(adj.values).max():
                failures += 1
        assert failures == 0
