import numpy as np
import pytest
import scipy.constants as const
from hypothesis import given, settings
from hypothesis import strategies as st

from tweezer_ising import (
    YB171,
    TrapConfig,
    build_hessian,
    lamb_dicke,
    mode_spectrum,
    solve_equilibrium,
)
from tweezer_ising.errors import (
    InvalidArgumentError,
    UnstableCrystalError,
    ZeroFrequencyModeError,
)
from tweezer_ising.modes import (
    ModeSpectrum,
    TweezerPattern,
    block_coords,
    mass_scaled_hessian,
    mode_projections,
)

from conftest import MHZ, lone_spectrum


def _single_ion(species, wx=1.3, wy=1.1, wz=0.4):
    trap = TrapConfig(wx * MHZ, wy * MHZ, wz * MHZ, n_ions=1)
    return solve_equilibrium(trap, species, 1), trap


class TestHessian:
    def test_single_ion_diagonal(self, species):
        crystal, trap = _single_ion(species)
        a = build_hessian(crystal).matrix
        assert np.allclose(a, np.diag([trap.omega_x**2, trap.omega_y**2, trap.omega_z**2]))

    def test_single_ion_isotropic_pinning(self, species):
        crystal, trap = _single_ion(species)
        omega_p = 0.5 * MHZ
        curv = omega_p**2 * np.eye(3)[None, :, :]
        a = build_hessian(crystal, TweezerPattern(curv)).matrix
        assert np.allclose(np.diag(a), trap.omegas**2 + omega_p**2)

    def test_two_ion_axial_eigenvalues(self, species):
        trap = TrapConfig(3.0 * MHZ, 3.0 * MHZ, 0.4 * MHZ, n_ions=2)
        crystal = solve_equilibrium(trap, species, 2)
        a = build_hessian(crystal).matrix
        zc = block_coords(2, ["z"])
        lam = np.linalg.eigvalsh(a[np.ix_(zc, zc)])
        assert np.allclose(lam, [trap.omega_z**2, 3 * trap.omega_z**2], rtol=1e-9)

    def test_offset_pattern_rejected(self, species):
        crystal, _ = _single_ion(species)
        pattern = TweezerPattern(np.zeros((1, 3, 3)), offsets=np.array([[1e-9, 0, 0]]))
        with pytest.raises(InvalidArgumentError):
            build_hessian(crystal, pattern)

    @pytest.mark.parametrize("axes", ["q", "yq", ("y", "Y")])
    def test_unknown_pattern_axis_rejected(self, axes):
        # an unknown letter used to raise a bare KeyError
        with pytest.raises(InvalidArgumentError, match="unknown pin axis"):
            TweezerPattern.from_frequencies(np.ones(2), axes=axes)

    def test_chain_block_decoupling(self, species):
        trap = TrapConfig(2.1 * MHZ, 1.6 * MHZ, 0.2 * MHZ, n_ions=5)
        crystal = solve_equilibrium(trap, species, 5)
        a = build_hessian(crystal).matrix
        for axes_a, axes_b in (("x", "y"), ("x", "z"), ("y", "z")):
            ca, cb = block_coords(5, axes_a), block_coords(5, axes_b)
            assert np.abs(a[np.ix_(ca, cb)]).max() < 1e-9 * np.abs(a).max()


class TestSpectrum:
    def test_two_ion_axial_modes(self, species):
        trap = TrapConfig(3.0 * MHZ, 3.0 * MHZ, 0.4 * MHZ, n_ions=2)
        crystal = solve_equilibrium(trap, species, 2)
        spec = mode_spectrum(build_hessian(crystal))
        axial = spec.modes_along("z")
        freqs = spec.frequencies[axial]
        assert np.allclose(freqs, [trap.omega_z, np.sqrt(3) * trap.omega_z], rtol=1e-9)
        com_col = spec.eigenvectors[:, np.flatnonzero(axial)[0]]
        zc = block_coords(2, ["z"])
        assert np.allclose(np.abs(com_col[zc]), 1 / np.sqrt(2), rtol=1e-9)

    def test_two_ion_radial_rocking_mode(self, species):
        trap = TrapConfig(3.0 * MHZ, 1.0 * MHZ, 0.4 * MHZ, n_ions=2)
        crystal = solve_equilibrium(trap, species, 2)
        spec = mode_spectrum(build_hessian(crystal))
        radial = spec.frequencies[spec.modes_along("y")]
        expected = np.sort([trap.omega_y, np.sqrt(trap.omega_y**2 - trap.omega_z**2)])
        assert np.allclose(np.sort(radial), expected, rtol=1e-9)

    def test_axial_com_is_exact(self, species):
        trap = TrapConfig(2.4 * MHZ, 2.0 * MHZ, 0.3 * MHZ, n_ions=5)
        crystal = solve_equilibrium(trap, species, 5)
        spec = mode_spectrum(build_hessian(crystal))
        lam = spec.eigenvalues
        assert np.min(np.abs(lam - trap.omega_z**2)) < 1e-10 * trap.omega_z**2

    def test_uniform_isotropic_pinning_shifts_eigenvalues(self, species):
        trap = TrapConfig(2.9 * MHZ, 2.2 * MHZ, 0.31 * MHZ, n_ions=4)
        crystal = solve_equilibrium(trap, species, 4)
        base = mode_spectrum(build_hessian(crystal))
        omega_p = 0.37 * MHZ
        curv = np.broadcast_to(omega_p**2 * np.eye(3), (4, 3, 3))
        pinned = mode_spectrum(build_hessian(crystal, TweezerPattern(np.array(curv))))
        assert np.allclose(pinned.eigenvalues, base.eigenvalues + omega_p**2, rtol=1e-10)
        assert np.allclose(np.abs(pinned.eigenvectors), np.abs(base.eigenvectors), atol=1e-8)

    def test_eigen_residual(self, species):
        trap = TrapConfig(2.3 * MHZ, 1.9 * MHZ, 0.26 * MHZ, n_ions=6)
        crystal = solve_equilibrium(trap, species, 6)
        a = build_hessian(crystal).matrix
        spec = mode_spectrum(a, freq_scale=trap.omega_bar)
        res = a @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
        assert np.linalg.norm(res) < 1e-9 * np.linalg.norm(a)

    @pytest.mark.parametrize("case", ["hessian", "array", "degenerate", "block", "asymmetric", "unstable"])
    def test_has_the_bits_of_one_lone_eigh(self, species, case):
        """`mode_spectrum` is the one-matrix call of the stacked `spectra`
        and keeps every bit, and every error, of one lone decomposition."""
        wy = 2.0 if case == "degenerate" else 1.7  # wx = wy pairs the x and y modes
        trap = TrapConfig(2.0 * MHZ, wy * MHZ, 0.25 * MHZ, n_ions=5)
        crystal = solve_equilibrium(trap, species, 5)
        curv = np.zeros((5, 3, 3))
        curv[:, 1, 1] = {"degenerate": 0.0, "unstable": -(2.5 * MHZ) ** 2}.get(case, (0.3 * MHZ) ** 2)
        hessian = build_hessian(crystal, TweezerPattern(curv))
        a = hessian.matrix.copy()
        if case == "asymmetric":
            a[0, 1] += 1e-6 * np.abs(a).max()
        args, kwargs = (hessian,), {}
        want = (a, hessian.freq_scale)
        if case in ("array", "asymmetric", "unstable"):
            args = (a,)
            want = (a, float(np.sqrt(np.mean(np.abs(np.diag(a))))))
        elif case in ("degenerate", "block"):
            coords = block_coords(5, ["x", "y"]) if case == "block" else np.arange(15)
            a = a[np.ix_(coords, coords)]
            args, kwargs = (a,), dict(freq_scale=trap.omega_bar, coords=coords, n_ions=5)
            want = (a, trap.omega_bar, coords, 5)
        try:
            want = lone_spectrum(*want)
        except Exception as err:
            with pytest.raises(type(err)) as got:
                mode_spectrum(*args, **kwargs)
            assert str(got.value) == str(err)
            return
        got = mode_spectrum(*args, **kwargs)
        for field in ("frequencies", "eigenvalues", "eigenvectors", "coords", "direction_weights"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert (got.n_ions, got.freq_scale) == (want.n_ions, want.freq_scale)
        if case == "degenerate":
            assert (np.diff(got.eigenvalues) < 1e-9 * trap.omega_bar**2).sum() == 5

    def test_anticonfinement_instability(self, species):
        trap = TrapConfig(1.0 * MHZ, 1.0 * MHZ, 0.3 * MHZ, n_ions=1)
        crystal = solve_equilibrium(trap, species, 1)
        curv = np.zeros((1, 3, 3))
        curv[0, 2, 2] = -(0.5 * MHZ) ** 2  # overwhelms the 0.3 MHz axial confinement
        with pytest.raises(UnstableCrystalError):
            mode_spectrum(build_hessian(crystal, TweezerPattern(curv)))

    def test_deterministic_signs(self, species):
        trap = TrapConfig(2.0 * MHZ, 1.5 * MHZ, 0.25 * MHZ, n_ions=4)
        crystal = solve_equilibrium(trap, species, 4)
        spec1 = mode_spectrum(build_hessian(crystal))
        spec2 = mode_spectrum(build_hessian(crystal))
        assert np.array_equal(spec1.eigenvectors, spec2.eigenvectors)
        peak = np.argmax(np.abs(spec1.eigenvectors), axis=0)
        assert np.all(spec1.eigenvectors[peak, np.arange(spec1.n_modes)] > 0)

    @given(st.integers(min_value=2, max_value=5), st.floats(min_value=0.05, max_value=0.8))
    @settings(max_examples=15, deadline=None)
    def test_uniform_pinning_shift_property(self, n, omega_p_mhz):
        trap = TrapConfig(2.7 * MHZ, 2.1 * MHZ, 0.3 * MHZ, n_ions=n)
        crystal = solve_equilibrium(trap, YB171, n)
        base = mode_spectrum(build_hessian(crystal))
        omega_p = omega_p_mhz * MHZ
        curv = np.array(np.broadcast_to(omega_p**2 * np.eye(3), (n, 3, 3)))
        pinned = mode_spectrum(build_hessian(crystal, TweezerPattern(curv)))
        assert np.allclose(pinned.eigenvalues, base.eigenvalues + omega_p**2, rtol=1e-10)


class TestStacksOfOne:
    """A lone Hessian runs as a stack of one and keeps the bits of the lone
    call; a full spectrum's direction weights keep the bits of the one sum
    over the ions.  (`mode_spectrum`, a stack of one, is pinned against a
    lone 2-D `eigh` by `TestSpectrum.test_has_the_bits_of_one_lone_eigh`.)"""

    @pytest.fixture(scope="class")
    def crystals(self, species):
        chain = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
        pattern = TweezerPattern.from_frequencies(np.linspace(0.05, 0.3, 12) * MHZ, axes="y")
        planar = TrapConfig(2.2 * MHZ, 0.6 * MHZ, 0.55 * MHZ, n_ions=7)
        return [
            (solve_equilibrium(chain, species, 12), pattern.curvatures),
            (solve_equilibrium(planar, species, 7), None),
        ]

    def test_hessian_of_a_stack_of_one(self, species, crystals):
        for crystal, curv in crystals:
            pos = crystal.positions
            lone = mass_scaled_hessian(pos, crystal.trap, species, curv)
            stacked = mass_scaled_hessian(pos[None], crystal.trap, species, curv)
            assert stacked.shape == (1,) + lone.shape
            assert stacked[0].tobytes() == lone.tobytes()

    @pytest.mark.parametrize("n_ions", [1, 2, 5, 12, 19])
    def test_direction_weights_of_a_full_spectrum(self, n_ions):
        # the per-axis row sums against the one sum over the ions of the
        # squared eigenvectors reshaped (N, 3, 3N)
        rng = np.random.default_rng(n_ions)
        b = 3 * n_ions
        for _ in range(20):
            vec = np.linalg.qr(rng.standard_normal((b, b)))[0]
            spec = ModeSpectrum(np.ones(b), np.ones(b), vec, np.arange(b), n_ions, 1.0)
            reshaped = np.ascontiguousarray((vec**2).reshape(n_ions, 3, -1).sum(axis=0).T)
            assert spec.direction_weights.tobytes() == reshaped.tobytes()


class TestLambDicke:
    def test_reference_value_single_ion(self, species):
        # sqrt(2) * 2pi / 369 nm at a 400 kHz mode: eta close to 0.2
        crystal, trap = _single_ion(species, wx=2.0, wy=1.5, wz=0.4)
        spec = mode_spectrum(build_hessian(crystal))
        k_eff = np.sqrt(2) * 2 * np.pi / 369e-9
        eta = lamb_dicke(spec, k_eff, "z", species)
        m = np.flatnonzero(spec.modes_along("z"))[0]
        expected = k_eff * np.sqrt(const.hbar / (2 * species.mass * trap.omega_z))
        assert eta[0, m] == pytest.approx(expected, rel=1e-12)
        assert eta[0, m] == pytest.approx(0.2070284, rel=1e-6)

    def test_quadrupled_frequency_halves_eta(self, species):
        crystal, _ = _single_ion(species, wz=0.4)
        crystal4, _ = _single_ion(species, wz=1.6)
        k = 2 * np.pi / 369e-9
        spec, spec4 = (mode_spectrum(build_hessian(c)) for c in (crystal, crystal4))
        eta = lamb_dicke(spec, k, "z", species)
        eta4 = lamb_dicke(spec4, k, "z", species)
        mz = np.flatnonzero(spec.modes_along("z"))[0]
        mz4 = np.flatnonzero(spec4.modes_along("z"))[0]
        assert eta4[0, mz4] == pytest.approx(eta[0, mz] / 2, rel=1e-12)

    def test_orthogonal_modes_have_zero_eta(self, species):
        trap = TrapConfig(2.2 * MHZ, 1.8 * MHZ, 0.3 * MHZ, n_ions=3)
        crystal = solve_equilibrium(trap, species, 3)
        spec = mode_spectrum(build_hessian(crystal))
        eta = lamb_dicke(spec, 1e7, "y", species)
        assert np.all(eta[:, spec.modes_along("x")] == 0.0)
        assert np.all(eta[:, spec.modes_along("z")] == 0.0)

    def test_zero_frequency_coupled_mode_rejected(self, species):
        a = np.diag([0.0, (1.0 * MHZ) ** 2, (2.0 * MHZ) ** 2])
        spec = mode_spectrum(a, freq_scale=1.0 * MHZ, n_ions=1)
        with pytest.raises(ZeroFrequencyModeError):
            lamb_dicke(spec, 1e7, "x", species)

    def test_projection_shape(self, species):
        trap = TrapConfig(2.2 * MHZ, 1.8 * MHZ, 0.3 * MHZ, n_ions=3)
        crystal = solve_equilibrium(trap, species, 3)
        spec = mode_spectrum(build_hessian(crystal))
        proj = mode_projections(spec, "y")
        assert proj.shape == (3, 9)
        # columns of y modes reproduce the eigenvector entries
        yc = block_coords(3, ["y"])
        ym = np.flatnonzero(spec.modes_along("y"))
        assert np.allclose(proj[:, ym], spec.eigenvectors[np.ix_(yc, ym)])
