import numpy as np
import pytest
import scipy.constants as const
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tweezer_ising import (
    YB171,
    DriveConfig,
    TrapConfig,
    build_hessian,
    coupling_error,
    coupling_matrix,
    ising_phase,
    lamb_dicke,
    mode_spectrum,
    residual_displacement,
    solve_equilibrium,
)
from tweezer_ising.coupling import (
    DEFAULT_RESONANCE_GUARD,
    CouplingMatrix,
    check_resonance,
    grade_hessians,
    max_abs_offdiag,
    realized_coupling,
)
from tweezer_ising.errors import InvalidArgumentError, ResonanceError, UndefinedNormalizationError
from tweezer_ising.modes import axis_vector, mass_scaled_hessian, mode_projections

from conftest import MHZ, lone_spectrum


def _chain(species, n, wx=2.0, wy=0.6, wz=0.12):
    trap = TrapConfig(wx * MHZ, wy * MHZ, wz * MHZ, n_ions=n)
    crystal = solve_equilibrium(trap, species, n)
    return crystal, mode_spectrum(build_hessian(crystal))


class TestCouplingMatrix:
    def test_two_ion_axial_closed_form(self, species):
        trap = TrapConfig(3.0 * MHZ, 2.6 * MHZ, 0.4 * MHZ, n_ions=2)
        crystal = solve_equilibrium(trap, species, 2)
        spec = mode_spectrum(build_hessian(crystal))
        g, k = 0.05 * MHZ, 2 * np.pi / 355e-9
        mu = 1.9 * trap.omega_z
        drive = DriveConfig(mu=mu, drive_axis="z", g=g, k_eff=k)
        j = coupling_matrix(spec, drive, species).matrix
        wz2 = trap.omega_z**2
        pref = g**2 * k**2 * const.hbar / (4.0 * species.mass)
        expected = pref * (1.0 / (mu**2 - wz2) - 1.0 / (mu**2 - 3 * wz2))
        assert j[0, 1] == pytest.approx(expected, rel=1e-10)
        assert j[0, 0] == 0.0 and j[1, 1] == 0.0

    def test_far_detuned_suppression(self, species):
        _, spec = _chain(species, 4)
        w_max = spec.frequencies.max()
        near = coupling_matrix(spec, DriveConfig(mu=1.1 * w_max, drive_axis="y"), species).matrix
        far = coupling_matrix(spec, DriveConfig(mu=1e4 * w_max, drive_axis="y"), species).matrix
        nz = np.abs(near) > 0
        assert np.all(np.abs(far[nz]) < 1e-6 * np.abs(near[nz]))

    def test_uniform_sign_structure_above_band(self, species):
        # detuned just above all radial modes, every coupling keeps one sign
        _, spec = _chain(species, 4)
        ym = spec.modes_along("y")
        mu = 1.05 * spec.frequencies[ym].max()
        j = coupling_matrix(spec, DriveConfig(mu=mu, drive_axis="y"), species).matrix
        off = j[np.triu_indices(4, 1)]
        assert np.all(off > 0)

    def test_exact_symmetry(self, species):
        _, spec = _chain(species, 5)
        j = coupling_matrix(spec, DriveConfig(mu=0.65 * MHZ, drive_axis="y"), species).matrix
        assert np.array_equal(j, j.T)

    def test_strength_scaling(self, species):
        _, spec = _chain(species, 3)
        base = dict(mu=0.65 * MHZ, drive_axis="y", k_eff=1e7)
        j1 = coupling_matrix(spec, DriveConfig(g=0.1 * MHZ, **base), species).matrix
        j2 = coupling_matrix(spec, DriveConfig(g=0.2 * MHZ, **base), species).matrix
        assert np.allclose(j2, 4.0 * j1, rtol=1e-12)

    def test_mode_mask_additivity(self, species):
        _, spec = _chain(species, 4)
        mu = 0.65 * MHZ
        full = coupling_matrix(spec, DriveConfig(mu=mu, drive_axis="y"), species).matrix
        half_a = np.zeros(spec.n_modes, dtype=bool)
        half_a[: spec.n_modes // 2] = True
        ja = coupling_matrix(spec, DriveConfig(mu=mu, drive_axis="y", mode_mask=half_a), species).matrix
        jb = coupling_matrix(spec, DriveConfig(mu=mu, drive_axis="y", mode_mask=~half_a), species).matrix
        assert np.allclose(ja + jb, full, rtol=1e-12)

    def test_single_isolated_mode_structure(self, species):
        # approaching one mode, J collapses onto its eigenvector outer product
        _, spec = _chain(species, 4)
        ym = np.flatnonzero(spec.modes_along("y"))
        m_star = ym[-1]
        from tweezer_ising.modes import block_coords

        by = spec.eigenvectors[block_coords(4, ["y"]), m_star]
        outer = np.outer(by, by)
        np.fill_diagonal(outer, 0.0)
        iu = np.triu_indices(4, 1)

        def contamination(detune_frac):
            mu = spec.frequencies[m_star] * (1 + detune_frac)
            j = coupling_matrix(spec, DriveConfig(mu=mu, drive_axis="y"), species).matrix
            scale = j[iu][np.argmax(np.abs(outer[iu]))] / outer[iu][np.argmax(np.abs(outer[iu]))]
            # bound: weight of the strongest competing pole relative to m*
            theta = 1.0 / (mu**2 - spec.eigenvalues)
            others = ym[ym != m_star]
            ratio = np.abs(theta[others]).max() / abs(theta[m_star])
            return np.abs(j[iu] - scale * outer[iu]).max() / np.abs(j[iu]).max(), ratio

        c1, r1 = contamination(8e-3)
        c2, r2 = contamination(2e-3)
        assert c2 < c1  # shrinks as the pole dominates
        assert c1 < 2.0 * r1
        assert c2 < 2.0 * r2

    def test_resonance_guard(self, species):
        _, spec = _chain(species, 3)
        mu = spec.frequencies[3] + 0.5 * 2 * np.pi * 1e3  # inside the 1 kHz guard
        with pytest.raises(ResonanceError):
            coupling_matrix(spec, DriveConfig(mu=mu, drive_axis="y"), species)


class TestDriveConfig:
    def test_nan_guard_rejected(self):
        # NaN < 0 is false, so a NaN guard used to pass and switch the guard off
        with pytest.raises(InvalidArgumentError, match="guard"):
            DriveConfig(mu=0.65 * MHZ, resonance_guard=np.nan)

    @pytest.mark.parametrize("indices", [[-1], [0.7], [12], [99]])
    def test_integer_mask_must_index_a_mode(self, species, indices):
        # [-1] used to pick the last mode, [0.7] mode 0, [99] a bare IndexError
        _, spec = _chain(species, 4)
        assert spec.n_modes == 12
        drive = DriveConfig(mu=0.65 * MHZ, drive_axis="y", mode_mask=np.array(indices))
        with pytest.raises(InvalidArgumentError, match="mode indices"):
            drive.mask_for(spec)

    def test_integer_mask_selects_listed_modes(self, species):
        _, spec = _chain(species, 4)
        want = np.zeros(spec.n_modes, dtype=bool)
        want[[1, 3]] = True
        for indices in ([1, 3], [1.0, 3.0], [3, 1, 3]):
            mask = DriveConfig(mu=0.65 * MHZ, mode_mask=np.array(indices)).mask_for(spec)
            assert np.array_equal(mask, want)
        with pytest.raises(InvalidArgumentError, match="length"):
            DriveConfig(mu=0.65 * MHZ, mode_mask=want[:-1]).mask_for(spec)


class TestResidualDisplacement:
    def test_zero_at_time_zero(self, species):
        _, spec = _chain(species, 3)
        drive = DriveConfig(mu=0.66 * MHZ, drive_axis="y", g=0.02 * MHZ, k_eff=1e7)
        gamma = residual_displacement(spec, drive, 0.0, species)
        assert np.all(gamma == 0.0)

    def test_linear_in_strength(self, species):
        _, spec = _chain(species, 3)
        t = 7.3 / (0.66 * MHZ)
        g1 = residual_displacement(
            spec, DriveConfig(mu=0.66 * MHZ, drive_axis="y", g=0.02 * MHZ, k_eff=1e7), t, species
        )
        g2 = residual_displacement(
            spec, DriveConfig(mu=0.66 * MHZ, drive_axis="y", g=0.04 * MHZ, k_eff=1e7), t, species
        )
        assert np.allclose(g2, 2.0 * g1, rtol=1e-12)

    def test_matches_quadrature_of_drive_integral(self, species):
        # oracle: gamma_jm(t) = -i g eta_jm int_0^t sin(mu s) exp(i w_m s) ds
        _, spec = _chain(species, 3)
        g, k = 0.02 * MHZ, 1e7
        mu = 0.66 * MHZ
        drive = DriveConfig(mu=mu, drive_axis="y", g=g, k_eff=k)
        eta = lamb_dicke(spec, k, "y", species)
        t = 11.0 / mu
        gamma = residual_displacement(spec, drive, t, species)
        for j in range(3):
            for m in np.flatnonzero(spec.modes_along("y")):
                w = spec.frequencies[m]
                re, _ = quad(lambda s: np.sin(mu * s) * np.cos(w * s), 0, t, limit=400)
                im, _ = quad(lambda s: np.sin(mu * s) * np.sin(w * s), 0, t, limit=400)
                expected = -1j * g * eta[j, m] * (re + 1j * im)
                assert gamma[j, m] == pytest.approx(expected, rel=1e-6)


class TestIsingPhase:
    def test_zero_at_time_zero(self, species):
        _, spec = _chain(species, 3)
        drive = DriveConfig(mu=0.66 * MHZ, drive_axis="y", g=0.02 * MHZ, k_eff=1e7)
        assert ising_phase(spec, drive, 0, 1, 0.0, species) == 0.0

    def test_long_time_slope_matches_coupling(self, species):
        _, spec = _chain(species, 3)
        mu = 0.67 * MHZ
        drive = DriveConfig(mu=mu, drive_axis="y", g=0.02 * MHZ, k_eff=1e7)
        j_mat = coupling_matrix(spec, drive, species).matrix
        # 2000 mu-periods hold 200-300 beats at mu - w_m, enough to average them out of the slope
        t = np.linspace(0.0, 2000 * 2 * np.pi / mu, 40001)
        beta = ising_phase(spec, drive, 0, 1, t, species)
        slope = np.polyfit(t, beta, 1)[0]
        assert slope == pytest.approx(j_mat[0, 1], rel=0.01)

    def test_matches_double_quadrature(self, species):
        # oracle: beta = -2 g^2 sum_m eta_j eta_k D_m(t) with the ordered
        # double integral D_m of sin(mu t') sin(mu t'') sin(w_m (t' - t''))
        from scipy.integrate import dblquad

        _, spec = _chain(species, 3)
        g, k = 0.02 * MHZ, 1e7
        mu = 0.66 * MHZ
        drive = DriveConfig(mu=mu, drive_axis="y", g=g, k_eff=k)
        eta = lamb_dicke(spec, k, "y", species)
        t = 6.0 / mu
        total = 0.0
        for m in np.flatnonzero(spec.modes_along("y")):
            w = spec.frequencies[m]
            d, err = dblquad(
                lambda t2, t1: np.sin(mu * t1) * np.sin(mu * t2) * np.sin(w * (t1 - t2)),
                0.0,
                t,
                lambda t1: 0.0,
                lambda t1: t1,
                epsabs=1e-13,
                epsrel=1e-11,
            )
            total += -2.0 * g**2 * eta[0, m] * eta[1, m] * d
        beta = ising_phase(spec, drive, 0, 1, t, species)
        assert beta == pytest.approx(total, rel=1e-5)


class TestMaxAbsOffdiag:
    def test_first_largest_entry_in_row_major_order(self):
        m = np.array([[9.0, -2.0, 1.0], [0.5, 9.0, 2.0], [2.0, 0.0, 9.0]])
        assert max_abs_offdiag(m) == (2.0, (0, 1))
        assert max_abs_offdiag(m.T) == (2.0, (0, 2))

    def test_no_offdiagonal_entry_is_zero(self):
        # a 1x1 matrix has no off-diagonal entry: magnitude 0, never negative
        assert max_abs_offdiag(np.array([[3.0]])) == (0.0, (0, 0))
        assert max_abs_offdiag(np.diag([1.0, -4.0]))[0] == 0.0

    def test_input_unchanged(self):
        m = np.array([[1.0, -3.0], [-3.0, 2.0]])
        max_abs_offdiag(m)
        assert np.array_equal(m, [[1.0, -3.0], [-3.0, 2.0]])


class TestCouplingError:
    def test_identity_target(self):
        rng = np.random.default_rng(3)
        j = rng.standard_normal((5, 5))
        j = j + j.T
        np.fill_diagonal(j, 0.0)
        eps, jt = coupling_error(j, j)
        assert eps == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(jt.matrix, j)

    def test_sign_flip_gives_two(self):
        rng = np.random.default_rng(4)
        j = rng.standard_normal((4, 4))
        j = j + j.T
        np.fill_diagonal(j, 0.0)
        eps, _ = coupling_error(j, -j)
        assert eps == pytest.approx(2.0, rel=1e-12)

    def test_random_pair_against_direct_norms(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        a, b = a + a.T, b + b.T
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(b, 0.0)
        eps, _ = coupling_error(a, b)
        off = ~np.eye(4, dtype=bool)
        scale = np.abs(a[off]).max() / np.abs(b[off]).max()
        expected = np.sqrt(np.sum((a - scale * b) ** 2)) / np.sqrt(np.sum(a**2))
        assert eps == pytest.approx(expected, rel=1e-12)

    def test_zero_matrix_rejected(self):
        j = np.zeros((3, 3))
        t = np.eye(3) - np.eye(3)
        with pytest.raises(UndefinedNormalizationError):
            coupling_error(np.ones((3, 3)) - np.eye(3), j)
        with pytest.raises(UndefinedNormalizationError):
            coupling_error(t, np.ones((3, 3)) - np.eye(3))

    @pytest.mark.parametrize("shapes", [((3, 3), (4, 4)), ((2, 3), (2, 3)), ((3,), (3,))], ids=str)
    def test_non_square_rejected(self, shapes):
        # equal non-square shapes used to give an ε from a meaningless search
        with pytest.raises(InvalidArgumentError, match="square"):
            coupling_error(np.ones(shapes[0]), np.ones(shapes[1]))

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((4, 4))
        j = rng.standard_normal((4, 4))
        t, j = t + t.T, j + j.T
        np.fill_diagonal(t, 0.0)
        np.fill_diagonal(j, 0.0)
        eps1, _ = coupling_error(t, j)
        eps2, _ = coupling_error(t, c * j)
        assert eps2 == pytest.approx(eps1, rel=1e-9)


class TestStackedGrader:
    """`grade_hessians` gives each lane of a stack the J, or the exception, of
    the lone formula that `realized_coupling` ran one matrix at a time."""

    MU = 1.1 * MHZ
    #: lane kinds, mixed into stacks: each lane's Hessian and what it exercises
    KINDS = ("degenerate", "pinned", "yz_offsets", "xyz_offsets", "resonant", "unstable", "asymmetric")

    @pytest.fixture(scope="class")
    def lanes(self, species):
        """16 pinned Hessians of one 5-ion chain in the ωx = ωy trap of
        tests/test_invariants.py case (d), cycling through KINDS."""
        trap = TrapConfig(1.0 * MHZ, 1.0 * MHZ, 0.2 * MHZ, n_ions=5)
        crystal = solve_equilibrium(trap, species, 5)
        rng = np.random.default_rng(11)
        hessians = []
        for i in range(16):
            kind = self.KINDS[i % len(self.KINDS)]
            curv = np.zeros((5, 3, 3))
            curv[:, 1, 1] = {
                "degenerate": 0.0,
                "resonant": self.MU**2 - trap.omega_y**2,  # the y centre-of-mass mode sits at mu
                "unstable": -2.0 * trap.omega_y**2,
            }.get(kind, (0.3 * MHZ) ** 2)
            pos = crystal.positions.copy()
            if kind.endswith("offsets"):
                moved = [0, 1, 2] if kind == "xyz_offsets" else [1, 2]
                pos[:, moved] += rng.uniform(-1e-7, 1e-7, (5, len(moved)))
            a = mass_scaled_hessian(pos, trap, species, curv)
            if kind == "asymmetric":
                a[0, 1] += 1e-6 * np.abs(a).max()
            hessians.append(a)
        return trap.omega_bar, np.stack(hessians)

    def _lone(self, a, freq_scale, species, mu=MU):
        """J of one Hessian as `realized_coupling` computed it before the grader."""
        spectrum = lone_spectrum(a, freq_scale)
        coupled = np.any(np.abs(mode_projections(spectrum, "y")) > 1e-10, axis=0)
        drive = DriveConfig(mu=mu, drive_axis="y", mode_mask=coupled)
        check_resonance(spectrum, drive)
        proj = mode_projections(spectrum, drive.drive_axis)[:, coupled]
        theta = 1.0 / (mu**2 - spectrum.eigenvalues[coupled])
        return CouplingMatrix((proj * theta) @ proj.T).matrix

    def _assert_lone_bits(self, stack, freq_scale, species, mu=MU):
        grades = grade_hessians(stack, freq_scale, mu, axis_vector("y"), DEFAULT_RESONANCE_GUARD, species)
        assert len(grades.couplings) == len(stack)
        for a, got in zip(stack, grades.couplings):
            try:
                want = self._lone(a, freq_scale, species, mu)
            except Exception as err:
                assert isinstance(got, type(err)) and str(got) == str(err)
            else:
                assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
        return grades

    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_each_lane_has_its_lone_bits(self, lanes, species, k):
        freq_scale, hessians = lanes
        for start in range(0, 16, k):
            self._assert_lone_bits(hessians[start : start + k], freq_scale, species)

    def test_the_stack_mixes_every_case(self, lanes, species):
        freq_scale, hessians = lanes
        grades = self._assert_lone_bits(hessians, freq_scale, species)
        kinds = [self.KINDS[i % len(self.KINDS)] for i in range(16)]
        errors = {kind: type(j).__name__ for kind, j in zip(kinds, grades.couplings) if isinstance(j, Exception)}
        assert errors == {
            "resonant": "ResonanceError",
            "unstable": "UnstableCrystalError",
            "asymmetric": "InvalidArgumentError",
        }
        graded = [k for k, j in enumerate(grades.couplings) if not isinstance(j, Exception)]
        # three masks, widening as offsets couple the y modes to z, then to x
        assert sorted({int(grades.coupled[k].sum()) for k in graded}) == [5, 9, 13]
        # the degenerate lane's x and y modes pair up, and go through the canonical basis
        lam = grades.eigenvalues[kinds.index("degenerate")]
        assert (np.diff(lam) < 1e-9 * freq_scale**2).sum() == 5

    def test_a_failing_stacked_eigh_falls_back_to_each_matrix(self, lanes, species, monkeypatch):
        freq_scale, hessians = lanes
        eigh = np.linalg.eigh

        def no_stacks(a):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", no_stacks)
        self._assert_lone_bits(hessians, freq_scale, species)

    def test_an_invalid_beatnote_fails_each_lane_after_its_spectrum(self, lanes, species):
        freq_scale, hessians = lanes
        grades = self._assert_lone_bits(hessians[:7], freq_scale, species, mu=-1.0)
        assert [type(j).__name__ for j in grades.couplings] == [
            "InvalidArgumentError", "InvalidArgumentError", "InvalidArgumentError", "InvalidArgumentError",
            "InvalidArgumentError", "UnstableCrystalError", "InvalidArgumentError",
        ]

    @pytest.mark.parametrize("kind", ["degenerate", "pinned", "xyz_offsets"])
    def test_realized_coupling_is_the_one_lane_call(self, species, kind):
        trap = TrapConfig(1.0 * MHZ, 1.0 * MHZ, 0.2 * MHZ, n_ions=5)
        crystal = solve_equilibrium(trap, species, 5)
        pos = crystal.positions.copy()
        if kind == "xyz_offsets":
            pos += np.random.default_rng(3).uniform(-1e-7, 1e-7, pos.shape)
        curv = np.zeros((5, 3, 3))
        curv[:, 1, 1] = 0.0 if kind == "degenerate" else (0.3 * MHZ) ** 2
        target = np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1)
        eps, realized, spectrum, drive = realized_coupling(
            pos, trap, species, curv, self.MU, axis_vector("y"), DEFAULT_RESONANCE_GUARD, target
        )
        a = mass_scaled_hessian(pos, trap, species, curv)
        want_spectrum = lone_spectrum(a, trap.omega_bar)
        want_eps, want_realized = coupling_error(target, self._lone(a, trap.omega_bar, species))
        assert repr(eps) == repr(want_eps)
        assert realized.matrix.tobytes() == want_realized.matrix.tobytes() and realized.scale == want_realized.scale
        for field in ("frequencies", "eigenvalues", "eigenvectors", "coords", "direction_weights"):
            assert getattr(spectrum, field).tobytes() == getattr(want_spectrum, field).tobytes(), field
        coupled = np.any(np.abs(mode_projections(want_spectrum, "y")) > 1e-10, axis=0)
        assert np.array_equal(drive.mode_mask, coupled) and drive.mu == self.MU
        assert drive.drive_axis.tobytes() == axis_vector("y").tobytes()
