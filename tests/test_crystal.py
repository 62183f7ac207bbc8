import numpy as np
import pytest
import scipy.constants as const
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tweezer_ising import (
    YB171,
    TrapConfig,
    equidistant_spacing,
    length_scale,
    make_lattice,
    potential_and_gradient,
    solve_equilibrium,
)
from tweezer_ising.crystal import (
    DIST_FLOOR,
    TOL_EQUILIBRIUM,
    _is_stable,
    default_chain_guess,
    hex_shells,
    pairwise_distances,
    relax_equilibria,
    triangular_start,
)
from tweezer_ising.errors import (
    ConvergenceError,
    InvalidArgumentError,
    SingularGeometryError,
)
from tweezer_ising.modes import TOL_PSD_REL, TweezerPattern, mass_scaled_hessian, pair_planes

from conftest import MHZ, fd_gradient


class TestTrapConfig:
    def test_replace_axis(self):
        trap = TrapConfig(2.0 * MHZ, 1.7 * MHZ, 0.2 * MHZ, n_ions=5)
        assert trap.replace_axis("y", 1.5 * MHZ) == TrapConfig(2.0 * MHZ, 1.5 * MHZ, 0.2 * MHZ, n_ions=5)

    @pytest.mark.parametrize("n_ions", [5.0, 5.5, "5", None, True])
    def test_rejects_a_non_integer_ion_count(self, n_ions):
        # 5.0 and 5.5 were accepted, and solve_equilibrium then died with a
        # bare TypeError ("'float' object cannot be interpreted as an integer");
        # True was read as one ion
        with pytest.raises(InvalidArgumentError, match=f"n_ions must be an integer, got {n_ions!r}"):
            TrapConfig(2.0 * MHZ, 1.7 * MHZ, 0.2 * MHZ, n_ions=n_ions)

    def test_accepts_a_numpy_integer_ion_count(self):
        assert TrapConfig(2.0 * MHZ, 1.7 * MHZ, 0.2 * MHZ, n_ions=np.int64(5)) == TrapConfig(
            2.0 * MHZ, 1.7 * MHZ, 0.2 * MHZ, n_ions=5
        )

    def test_replace_axis_rejects_an_unknown_axis(self):
        # used to raise TypeError for the keyword omega_w
        trap = TrapConfig(2.0 * MHZ, 1.7 * MHZ, 0.2 * MHZ, n_ions=5)
        with pytest.raises(InvalidArgumentError, match="unknown trap axis 'w'"):
            trap.replace_axis("w", 1.0 * MHZ)


class TestEquidistantSpacing:
    def test_frequency_power_law(self, species):
        w = 0.3 * MHZ
        ratio = equidistant_spacing(2 * w, 10, species) / equidistant_spacing(w, 10, species)
        assert ratio == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-12)

    def test_ion_count_scaling(self, species):
        w = 0.3 * MHZ
        ratio = equidistant_spacing(w, 6, species) / equidistant_spacing(w, 12, species)
        assert ratio == pytest.approx(2.0**0.56, rel=1e-12)

    def test_yb_reference_value(self, species):
        # independent evaluation of the defining formula in SI
        w = 2 * np.pi * 0.1e6
        ke2 = const.e**2 / (4 * np.pi * const.epsilon_0)
        mass = 170.936323 * const.atomic_mass
        expected = (ke2 / (mass * w**2)) ** (1 / 3) * 2 / 12**0.56
        d0 = equidistant_spacing(w, 12, species)
        assert d0 == pytest.approx(expected, rel=1e-12)
        # frozen regression value, micrometers
        assert d0 * 1e6 == pytest.approx(6.327441881995, rel=1e-9)

    def test_rejects_bad_inputs(self, species):
        with pytest.raises(InvalidArgumentError):
            equidistant_spacing(-1.0, 5, species)
        with pytest.raises(InvalidArgumentError):
            equidistant_spacing(1.0 * MHZ, 1, species)

    @given(st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=1.5, max_value=4.0))
    def test_frequency_ratio_property(self, w_mhz, factor):
        w = w_mhz * MHZ
        r = equidistant_spacing(factor * w, 8, YB171) / equidistant_spacing(w, 8, YB171)
        assert r == pytest.approx(factor ** (-2.0 / 3.0), rel=1e-9)


class TestPotential:
    def test_single_ion_at_origin(self, species):
        trap = TrapConfig(1.0 * MHZ, 1.0 * MHZ, 0.3 * MHZ, n_ions=1)
        e, g = potential_and_gradient(np.zeros((1, 3)), trap, species)
        assert e == 0.0
        assert np.all(g == 0.0)

    def test_two_ion_equilibrium_gradient_vanishes(self, species):
        trap = TrapConfig(2.0 * MHZ, 2.0 * MHZ, 0.2 * MHZ, n_ions=2)
        half = (0.5) ** (2.0 / 3.0) * length_scale(trap.omega_z, species)
        pos = np.array([[0, 0, -half], [0, 0, half]])
        _, g = potential_and_gradient(pos, trap, species)
        scale = species.mass * trap.omega_bar**2 * length_scale(trap.omega_bar, species)
        assert np.linalg.norm(g) / scale < 1e-10

    def test_gradient_matches_finite_differences(self, species, chain_trap):
        rng = np.random.default_rng(7)
        ell = length_scale(chain_trap.omega_bar, species)
        pos = make_lattice("chain", 5, 1.1 * ell) + 0.05 * ell * rng.standard_normal((5, 3))

        def energy(flat):
            e, _ = potential_and_gradient(flat.reshape(5, 3), chain_trap, species)
            return e

        _, grad = potential_and_gradient(pos, chain_trap, species)
        fd = fd_gradient(energy, pos.ravel(), 1e-7 * ell)
        assert np.allclose(grad.ravel(), fd, rtol=1e-8, atol=1e-8 * np.abs(fd).max())

    def test_gradient_with_offset_tweezers(self, species, chain_trap):
        rng = np.random.default_rng(11)
        ell = length_scale(chain_trap.omega_bar, species)
        pos = make_lattice("chain", 5, 1.2 * ell)
        pattern = TweezerPattern.from_frequencies(
            rng.uniform(0.1, 0.5, 5) * MHZ, axes="yz", offsets=rng.normal(0, 20e-9, (5, 3))
        )
        centers = pos + pattern.offsets

        def energy(flat):
            e, _ = potential_and_gradient(flat.reshape(5, 3), chain_trap, species, pattern, centers)
            return e

        _, grad = potential_and_gradient(pos, chain_trap, species, pattern, centers)
        fd = fd_gradient(energy, pos.ravel(), 1e-7 * ell)
        assert np.allclose(grad.ravel(), fd, rtol=1e-7, atol=1e-7 * np.abs(fd).max())

    def test_coincident_ions_rejected(self, species, chain_trap):
        pos = np.zeros((5, 3))
        with pytest.raises(SingularGeometryError):
            potential_and_gradient(pos, chain_trap, species)


class TestEquilibrium:
    def test_two_ion_axial_positions(self, species):
        trap = TrapConfig(2.0 * MHZ, 2.0 * MHZ, 0.2 * MHZ, n_ions=2)
        crystal = solve_equilibrium(trap, species, 2)
        expected = (0.5) ** (2.0 / 3.0) * length_scale(trap.omega_z, species)
        z = np.sort(crystal.positions[:, 2])
        assert np.allclose(z, [-expected, expected], rtol=1e-9)
        assert np.allclose(crystal.positions[:, :2], 0.0, atol=1e-12 * expected)

    def test_three_ion_axial_positions(self, species):
        trap = TrapConfig(2.0 * MHZ, 2.0 * MHZ, 0.2 * MHZ, n_ions=3)
        crystal = solve_equilibrium(trap, species, 3)
        ell = length_scale(trap.omega_z, species)
        z = np.sort(crystal.positions[:, 2]) / ell
        expected = (5.0 / 4.0) ** (1.0 / 3.0)
        assert z[1] == pytest.approx(0.0, abs=1e-9)
        assert z[0] == pytest.approx(-expected, rel=1e-9)
        assert z[2] == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(1.0772, abs=5e-5)

    def test_twelve_ion_chain(self, species):
        trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
        crystal = solve_equilibrium(trap, species, 12)
        assert crystal.dimensionality == "chain"
        ell = length_scale(trap.omega_bar, species)
        assert np.abs(crystal.positions[:, :2]).max() < 1e-6 * ell
        z = np.sort(crystal.positions[:, 2])
        assert np.allclose(z, -z[::-1], atol=1e-6 * ell)  # symmetric about origin

    def test_a_solve_from_its_solution_computes_its_pair_terms_once(self, species, monkeypatch):
        # the descent's one evaluation has the pair terms; the solved
        # crystal does not recompute them for IonCrystal's coincident-ion check
        import tweezer_ising.crystal as crystal_mod
        from tweezer_ising.crystal import IonCrystal

        trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
        solved = solve_equilibrium(trap, species, 12)
        real, calls = crystal_mod._pair_terms, []
        monkeypatch.setattr(crystal_mod, "_pair_terms", lambda pos: calls.append(pos.shape) or real(pos))
        again = solve_equilibrium(trap, species, 12, solved.positions)
        assert calls == [(1, 12, 3)]
        checked = IonCrystal(trap, species, solved.positions, "chain", solved.extended_axes)
        assert again.positions.tobytes() == solved.positions.tobytes() == checked.positions.tobytes()
        assert again.positions.dtype == checked.positions.dtype
        assert (again.trap, again.species, again.dimensionality, again.extended_axes) == (
            checked.trap, checked.species, checked.dimensionality, checked.extended_axes,
        )

    def test_centered_tweezers_leave_equilibrium(self, species):
        trap = TrapConfig(1.5 * MHZ, 1.2 * MHZ, 0.25 * MHZ, n_ions=4)
        bare = solve_equilibrium(trap, species, 4)
        pattern = TweezerPattern.from_frequencies(np.full(4, 0.4 * MHZ), axes="xyz")
        pinned = solve_equilibrium(trap, species, 4, tweezers=pattern)
        ell = length_scale(trap.omega_bar, species)
        assert np.abs(pinned.positions - bare.positions).max() < 1e-9 * ell

    def test_mirror_symmetry(self, species):
        trap = TrapConfig(1.8 * MHZ, 1.5 * MHZ, 0.22 * MHZ, n_ions=4)
        crystal = solve_equilibrium(trap, species, 4)
        ell = length_scale(trap.omega_bar, species)
        mirrored = crystal.positions * np.array([1.0, 1.0, -1.0])
        d = pairwise_distances(np.vstack([crystal.positions, mirrored]))
        # every mirrored site coincides with an original site
        match = d[:4, 4:].min(axis=1)
        assert match.max() < 1e-8 * ell

    def test_bad_guess_rejected(self, species):
        trap = TrapConfig(1.0 * MHZ, 1.0 * MHZ, 0.3 * MHZ, n_ions=2)
        with pytest.raises(InvalidArgumentError):
            solve_equilibrium(trap, species, 2, initial_guess=np.zeros((2, 3)))

    @pytest.mark.parametrize("tweezed", ["none", "reference_given", "reference_solved"])
    def test_coincident_guess_rejected_by_the_first_descent(self, species, chain_trap, tweezed, monkeypatch):
        # no pair terms of the guess are computed before the first descent,
        # which leaves a guess on coincident ions where it is; with tweezers
        # and no reference, the inner reference solve raises the same error
        import tweezer_ising.crystal as crystal_mod

        guess = default_chain_guess(chain_trap, species)
        guess[3] = guess[2]
        kwargs = {}
        if tweezed != "none":
            kwargs["tweezers"] = TweezerPattern.from_frequencies(np.full(5, 0.1 * MHZ), axes="y")
        if tweezed == "reference_given":
            kwargs["tweezer_reference"] = solve_equilibrium(chain_trap, species, 5).positions
        events = []
        for name in ("_pair_terms", "_descents"):
            real = getattr(crystal_mod, name)
            monkeypatch.setattr(crystal_mod, name, lambda *a, real=real, name=name: events.append(name) or real(*a))
        with pytest.raises(InvalidArgumentError, match="^initial guess has coincident ions$"):
            solve_equilibrium(chain_trap, species, 5, guess, **kwargs)
        assert events[0] == "_descents"

    def test_nonconvergence_reports_residual(self, species, monkeypatch):
        import tweezer_ising.crystal as crystal_mod

        trap = TrapConfig(1.2 * MHZ, 1.0 * MHZ, 0.2 * MHZ, n_ions=6)
        with pytest.raises(ConvergenceError) as err:
            solve_equilibrium(trap, species, 6, max_iter=1)
        assert err.value.residual is not None and err.value.residual > 0
        assert isinstance(crystal_mod.TOL_EQUILIBRIUM, float)


class TestLattices:
    def test_chain_positions(self):
        pos = make_lattice("chain", 3, 2.0e-6)
        assert np.allclose(pos[:, 2], [-2.0e-6, 0.0, 2.0e-6])
        assert np.allclose(pos[:, :2], 0.0)

    def test_hexagon_of_seven(self):
        d = 3.0e-6
        pos = make_lattice("triangular", 7, d)
        r = np.linalg.norm(pos[:, 1:], axis=1)
        assert np.isclose(r.min(), 0.0)
        assert np.allclose(np.sort(r)[1:], d, rtol=1e-12)

    def test_nineteen_site_edge_count(self):
        d = 5.0e-6
        pos = make_lattice("triangular", 19, d)
        assert pos.shape == (19, 3)
        dist = pairwise_distances(pos)
        iu = np.triu_indices(19, 1)
        at_spacing = np.abs(dist[iu] - d) < 1e-9 * d
        assert int(at_spacing.sum()) == 42

    def test_unsupported_counts(self):
        with pytest.raises(InvalidArgumentError):
            make_lattice("triangular", 10, 1e-6)
        # below one ion the shell formula used to end in "math domain error"
        for n in (0, -4):
            with pytest.raises(InvalidArgumentError, match="not a centered hexagonal count"):
                hex_shells(n)
            with pytest.raises(InvalidArgumentError, match="not a centered hexagonal count"):
                make_lattice("triangular", n, 1e-6)
        with pytest.raises(InvalidArgumentError):
            make_lattice("ring", 5, 1e-6)


class TestWithOffsets:
    def test_rejects_wrong_shape_and_non_finite_offsets(self):
        pattern = TweezerPattern.from_frequencies(np.full(4, 0.3 * MHZ), axes="y")
        with pytest.raises(InvalidArgumentError):
            pattern.with_offsets(np.zeros((3, 3)))
        with pytest.raises(InvalidArgumentError):
            pattern.with_offsets(np.zeros(12))
        for bad in (np.nan, np.inf, -np.inf):
            offsets = np.zeros((4, 3))
            offsets[2, 1] = bad
            with pytest.raises(InvalidArgumentError):
                pattern.with_offsets(offsets)

    def test_keeps_curvatures_and_takes_offsets(self):
        pattern = TweezerPattern.from_frequencies(np.full(4, 0.3 * MHZ), axes="yz")
        offsets = np.arange(12.0).reshape(4, 3) * 1e-9
        moved = pattern.with_offsets(offsets)
        assert moved.curvatures is pattern.curvatures
        assert np.array_equal(moved.offsets, offsets)
        assert moved.offsets.dtype == float


# Reference equilibrium solver: `potential_and_gradient`,
# `mass_scaled_hessian` and the Newton descent written with np.linalg.norm,
# np.triu_indices, boolean masks and scipy's Cholesky wrappers, driven by
# `solve_equilibrium`'s descend-and-kick loop.  The package solver must
# give the same position bytes.


def _oracle_pairwise_distances(positions):
    diff = positions[:, None, :] - positions[None, :, :]
    return np.linalg.norm(diff, axis=-1)


def _oracle_potential_and_gradient(positions, trap, species, tweezers=None, tweezer_centers=None):
    pos = np.asarray(positions, dtype=float).reshape(trap.n_ions, 3)
    m = species.mass
    w2 = trap.omegas**2

    energy = 0.5 * m * np.sum(w2 * pos**2)
    grad = m * w2 * pos

    if trap.n_ions > 1:
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        iu = np.triu_indices(trap.n_ions, 1)
        if np.min(dist[iu]) <= 0.0:
            raise SingularGeometryError("coincident ions in potential evaluation")
        ke2 = species.coulomb_coefficient
        energy += ke2 * np.sum(1.0 / dist[iu])
        inv3 = np.zeros_like(dist)
        mask = ~np.eye(trap.n_ions, dtype=bool)
        inv3[mask] = dist[mask] ** -3
        grad += -ke2 * np.sum(diff * inv3[:, :, None], axis=1)

    if tweezers is not None:
        if tweezer_centers is None:
            raise InvalidArgumentError("tweezer_centers required when tweezers are present")
        u = pos - np.asarray(tweezer_centers, dtype=float)
        curv = tweezers.curvatures  # (N, 3, 3), rad^2/s^2
        energy += 0.5 * m * np.einsum("ia,iab,ib->", u, curv, u)
        grad += m * np.einsum("iab,ib->ia", curv, u)

    return energy, grad


def _oracle_mass_scaled_hessian(positions, trap, species, curvatures=None):
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    a = np.zeros((n, n, 3, 3))
    if n > 1:
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, 1.0)
        unit = diff / dist[:, :, None]
        ke2_m = species.coulomb_coefficient / species.mass
        t = 3.0 * unit[:, :, :, None] * unit[:, :, None, :] - np.eye(3)
        t *= (ke2_m / dist**3)[:, :, None, None]
        mask = np.eye(n, dtype=bool)
        t[mask] = 0.0
        a -= t
        a[np.arange(n), np.arange(n)] = t.sum(axis=1)
    idx = np.arange(n)
    for ax in range(3):
        a[idx, idx, ax, ax] += trap.omegas[ax] ** 2
    if curvatures is not None:
        a[idx, idx] += curvatures
    return a.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


def _oracle_newton_descent(pos, trap, species, tweezers, centers, max_iter):
    m = species.mass
    wbar = trap.omega_bar
    lbar = length_scale(wbar, species)
    force_scale = m * wbar**2 * lbar
    dist_floor = DIST_FLOOR * lbar
    n = trap.n_ions

    curv = tweezers.curvatures if tweezers is not None else None
    energy, grad = _oracle_potential_and_gradient(pos, trap, species, tweezers, centers)
    for _ in range(max_iter):
        residual = np.linalg.norm(grad) / force_scale
        if residual < TOL_EQUILIBRIUM:
            return pos, residual
        hess = m * _oracle_mass_scaled_hessian(pos, trap, species, curv)
        try:
            factor = scipy.linalg.cho_factor(hess, lower=True, check_finite=False)
            step = scipy.linalg.cho_solve(factor, -grad.ravel(), check_finite=False)
            step = step.reshape(n, 3)
        except np.linalg.LinAlgError:
            step = -grad / (m * wbar**2)  # indefinite Hessian: gradient descent
        g_dot_step = float(np.sum(grad * step))
        if g_dot_step >= 0:  # not a descent direction; fall back
            step = -grad / (m * wbar**2)
            g_dot_step = float(np.sum(grad * step))
        alpha = 1.0
        accepted = False
        grad_norm = np.linalg.norm(grad)
        while alpha > 1e-18:
            trial = pos + alpha * step
            if n > 1:
                d = _oracle_pairwise_distances(trial)
                if np.min(d[np.triu_indices(n, 1)]) < dist_floor:
                    alpha *= 0.5
                    continue
            e_t, g_t = _oracle_potential_and_gradient(trial, trap, species, tweezers, centers)
            # near the minimum the energy decrease drowns in rounding; a
            # shrinking force is the reliable acceptance signal there
            if e_t <= energy + 1e-4 * alpha * g_dot_step or np.linalg.norm(g_t) < 0.9 * grad_norm:
                pos, energy, grad = trial, e_t, g_t
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    return pos, np.linalg.norm(grad) / force_scale


def _oracle_equilibrium(trap, species, guess, tweezers=None, centers=None, max_iter=200):
    """Positions and the number of kicks of `solve_equilibrium`'s loop."""
    curv = tweezers.curvatures if tweezers is not None else None
    floor = TOL_PSD_REL * trap.omega_bar**2
    lbar = length_scale(trap.omega_bar, species)
    pos = np.asarray(guess, dtype=float).reshape(trap.n_ions, 3)
    for attempt in range(5):
        pos, residual = _oracle_newton_descent(pos, trap, species, tweezers, centers, max_iter)
        lam_min = np.linalg.eigvalsh(_oracle_mass_scaled_hessian(pos, trap, species, curv))[0]
        if residual < TOL_EQUILIBRIUM and lam_min >= -floor:
            return pos, attempt
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1905, spawn_key=(attempt,))))
        pos = pos + min(1e-3 * 4.0**attempt, 3e-2) * lbar * rng.standard_normal(pos.shape)
    raise AssertionError("oracle did not converge")


class TestEquilibriumOracle:
    """`solve_equilibrium` gives the oracle's position bytes."""

    def test_chain_with_offset_tweezers(self, species):
        trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
        aligned = solve_equilibrium(trap, species, 12)
        rng = np.random.default_rng(21)
        pattern = TweezerPattern.from_frequencies(
            rng.uniform(0.05, 0.3, 12) * MHZ, axes="y", offsets=np.zeros((12, 3))
        )
        offsets = np.zeros((12, 3))
        offsets[:, 1] = rng.uniform(-200e-9, 200e-9, 12)
        moved = pattern.with_offsets(offsets)
        shifted = solve_equilibrium(
            trap, species, 12, aligned.positions, tweezers=moved, tweezer_reference=aligned.positions
        )
        expected, kicks = _oracle_equilibrium(
            trap, species, aligned.positions, moved, aligned.positions + offsets
        )
        assert kicks == 0
        assert np.abs(shifted.positions - aligned.positions).max() > 0
        assert shifted.positions.tobytes() == expected.tobytes()

    def test_planar_triangle(self, species):
        trap = TrapConfig(2.4 * MHZ, 0.16 * MHZ, 0.16 * MHZ, n_ions=19)
        guess, _ = triangular_start(trap, species, 0.16 * MHZ)
        crystal = solve_equilibrium(trap, species, 19, guess, require="planar")
        expected, _ = _oracle_equilibrium(trap, species, guess)
        assert crystal.dimensionality == "planar"
        assert crystal.positions.tobytes() == expected.tobytes()

    def test_kicked_off_a_saddle(self, species):
        # radial confinement below the zigzag transition: the collinear
        # guess descends to a saddle and needs a kick
        trap = TrapConfig(0.6 * MHZ, 0.4 * MHZ, 0.14 * MHZ, n_ions=12)
        guess = default_chain_guess(trap, species)
        crystal = solve_equilibrium(trap, species, 12, guess)
        expected, kicks = _oracle_equilibrium(trap, species, guess)
        assert kicks >= 1
        assert crystal.positions.tobytes() == expected.tobytes()


class TestHessianFromPairPlanes:
    """`mass_scaled_hessian` handed the `pair_planes` of its positions has
    the bits of the call that computes them, and both have the oracle's
    bits, for lone positions and for stacks of them."""

    @staticmethod
    def _crystal(species, kind):
        """Positions (N, 3), trap and tweezer curvatures of a solved crystal."""
        rng = np.random.default_rng(17)
        if kind == "chain12_offset":
            trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
            aligned = solve_equilibrium(trap, species, 12)
            offsets = np.zeros((12, 3))
            offsets[:, 1] = rng.uniform(-200e-9, 200e-9, 12)
            pattern = TweezerPattern.from_frequencies(rng.uniform(0.05, 0.3, 12) * MHZ, axes="y", offsets=offsets)
            solved = solve_equilibrium(
                trap, species, 12, aligned.positions, tweezers=pattern, tweezer_reference=aligned.positions
            )
        elif kind == "triangle19":
            trap = TrapConfig(2.4 * MHZ, 0.16 * MHZ, 0.16 * MHZ, n_ions=19)
            pattern = TweezerPattern.from_frequencies(rng.uniform(0.05, 0.3, 19) * MHZ, axes="x")
            solved = solve_equilibrium(trap, species, 19, triangular_start(trap, species, 0.16 * MHZ)[0], pattern)
        else:
            trap = TrapConfig(2.0 * MHZ, 1.7 * MHZ, 0.2 * MHZ, n_ions=2)
            pattern = TweezerPattern.from_frequencies(np.array([0.1, 0.2]) * MHZ, axes="yz")
            solved = solve_equilibrium(trap, species, 2, tweezers=pattern)
        return solved.positions, trap, pattern.curvatures

    @pytest.mark.parametrize("k", [None, 1, 2, 5, 16, 64], ids=["lone", "k1", "k2", "k5", "k16", "k64"])
    @pytest.mark.parametrize("kind", ["chain12_offset", "triangle19", "ions2"])
    def test_planes_give_the_bits_of_the_oracle(self, species, kind, k):
        positions, trap, curv = self._crystal(species, kind)
        if k is not None:
            # the crystal and k - 1 nudges of it
            nudges = np.random.default_rng(k).standard_normal((k, trap.n_ions, 3))
            nudges[0] = 0.0
            positions = positions + 1e-2 * length_scale(trap.omega_bar, species) * nudges
        for c in (None, curv):
            computed = mass_scaled_hessian(positions, trap, species, c)
            handed = mass_scaled_hessian(positions, trap, species, c, pair_planes(positions))
            assert computed.shape == positions.shape[:-2] + (3 * trap.n_ions, 3 * trap.n_ions)
            assert handed.tobytes() == computed.tobytes()
            lanes = computed.reshape(-1, 3 * trap.n_ions, 3 * trap.n_ions)
            for lane, pos in zip(lanes, positions.reshape(-1, trap.n_ions, 3)):
                assert lane.tobytes() == _oracle_mass_scaled_hessian(pos, trap, species, c).tobytes()

    def test_planes_are_read_not_written(self, species):
        positions, trap, curv = self._crystal(species, "chain12_offset")
        planes = pair_planes(positions)
        before = [a.tobytes() for a in planes]
        mass_scaled_hessian(positions, trap, species, curv, planes)
        assert [a.tobytes() for a in planes] == before

    def test_pair_planes_layout(self, species):
        # entry [a, ..., j, i] is r_i,a - r_j,a, and the distances are the oracle's
        positions, _, _ = self._crystal(species, "triangle19")
        stack = np.stack([positions, 2.0 * positions])
        diff, dist = pair_planes(stack)
        assert diff.shape == (3, 2, 19, 19) and dist.shape == (2, 19, 19)
        assert diff.flags.c_contiguous and dist.flags.c_contiguous
        for k, pos in enumerate(stack):
            expected = pos[:, None, :] - pos[None, :, :]  # [i, j, a] = r_i,a - r_j,a
            assert diff[:, k].tobytes() == np.ascontiguousarray(expected.transpose(2, 1, 0)).tobytes()
            assert dist[k].tobytes() == _oracle_pairwise_distances(pos).tobytes()


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """One entry per `np.linalg.eigvalsh` call the test makes."""
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
    return calls


class TestStabilityCheck:
    """`crystal._is_stable` gives the verdict of the eigenvalue test it
    replaced, ``eigvalsh(H)[0] >= -floor``, on Hessians of random crystals
    whose lowest eigenvalue is shifted above, near and below the floor."""

    # lowest eigenvalue, in units of the floor, and whether Cholesky completes
    CASES = {
        "well_above": (1e6, True),
        "just_above_zero": (1e-2, True),
        "just_below_zero": (-1e-2, False),
        "mid_band": (-0.5, False),
        "near_the_floor": (-0.99, False),
        "just_below_the_floor": (-1.01, False),
        "far_below": (-1e6, False),
    }

    @staticmethod
    def _hessian(trap, species, seed, planar):
        rng = np.random.default_rng(seed)
        lbar = length_scale(trap.omega_bar, species)
        pos = rng.uniform(-3.0, 3.0, (trap.n_ions, 3)) * lbar
        if planar:
            pos[:, 0] = 0.0
        curv = np.zeros((trap.n_ions, 3, 3))
        curv[:, 1, 1] = rng.uniform(0.0, 0.3 * MHZ, trap.n_ions) ** 2
        return mass_scaled_hessian(pos, trap, species, curv)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "trap, planar",
        [
            (TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12), False),
            (TrapConfig(2.4 * MHZ, 0.16 * MHZ, 0.16 * MHZ, n_ions=19), True),
        ],
        ids=["chain12", "triangle19"],
    )
    def test_agrees_with_the_eigenvalue_test(self, species, trap, planar, seed, case, eigvalsh_calls):
        floor = TOL_PSD_REL * trap.omega_bar**2
        shift, factors = self.CASES[case]
        hess = self._hessian(trap, species, seed, planar)
        hess[np.diag_indices_from(hess)] += shift * floor - np.linalg.eigvalsh(hess)[0]
        lam_min = np.linalg.eigvalsh(hess)[0]
        # the case is where it claims to be, at least 1e-3 floors from the floor
        assert abs(lam_min - shift * floor) < 1e-3 * floor
        assert (scipy.linalg.lapack.dpotrf(hess, lower=1)[1] == 0) is factors
        before = len(eigvalsh_calls)
        assert _is_stable(hess, floor) is bool(lam_min >= -floor) is (shift > -1)
        assert len(eigvalsh_calls) - before == (0 if factors else 1)

    def test_a_stable_solve_makes_no_eigenvalues(self, species, eigvalsh_calls):
        # from the guess and from the solved crystal, each stability check
        # is one Cholesky factorization
        trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
        solved = solve_equilibrium(trap, species, 12)
        again = solve_equilibrium(trap, species, 12, solved.positions)
        assert again.positions.tobytes() == solved.positions.tobytes()
        assert eigvalsh_calls == []

    def test_the_saddle_is_decided_by_eigvalsh(self, species, eigvalsh_calls):
        # the collinear descent of `TestEquilibriumOracle.test_kicked_off_a_saddle`
        # ends on a saddle, whose Cholesky factorization fails
        trap = TrapConfig(0.6 * MHZ, 0.4 * MHZ, 0.14 * MHZ, n_ions=12)
        solve_equilibrium(trap, species, 12, default_chain_guess(trap, species))
        assert len(eigvalsh_calls) >= 1

    def test_non_finite_hessian_goes_to_eigvalsh(self):
        for bad in (np.nan, np.inf):
            hess = np.eye(6)
            hess[4, 1] = hess[1, 4] = bad
            with pytest.raises(np.linalg.LinAlgError):
                _is_stable(hess, 1e-6)


class TestEquilibriumLockstep:
    """Each lane of `relax_equilibria` has the bits of its lone first
    descent, with the Hessian at its positions, and a `solve_equilibrium`
    handed that lane as its first descent has the bits of the solve that
    descends itself."""

    @staticmethod
    def _assert_lanes_match(trap, species, guesses, pattern=None, reference=None, offsets=None, max_iter=200):
        curv = centers = None
        if pattern is not None:
            curv, centers = pattern.curvatures, reference + offsets
        relaxed, residuals, hessians = relax_equilibria(trap, species, guesses, curv, centers, max_iter)
        assert relaxed.shape == np.shape(guesses) and residuals.shape == (len(guesses),)
        assert hessians.shape == (len(guesses), 3 * trap.n_ions, 3 * trap.n_ions)
        for k in range(len(guesses)):
            # every lane that was evaluated returns the Hessian at its positions
            assert not np.isnan(residuals[k])
            assert hessians[k].tobytes() == mass_scaled_hessian(relaxed[k], trap, species, curv).tobytes()
            kwargs = {} if pattern is None else {
                "tweezers": pattern.with_offsets(offsets[k]), "tweezer_reference": reference,
            }
            expected, residual = _oracle_newton_descent(
                guesses[k], trap, species, kwargs.get("tweezers"), None if centers is None else centers[k], max_iter
            )
            assert relaxed[k].tobytes() == expected.tobytes()
            assert (residuals[k] < TOL_EQUILIBRIUM) == (residual < TOL_EQUILIBRIUM)
            try:
                lone = solve_equilibrium(trap, species, trap.n_ions, guesses[k], max_iter=max_iter, **kwargs)
            except Exception as err:
                lone = err
            try:
                finished = solve_equilibrium(
                    trap, species, trap.n_ions, guesses[k], max_iter=max_iter,
                    first_descent=(relaxed[k], residuals[k], hessians[k]), **kwargs,
                )
            except Exception as err:
                assert type(lone) is type(err) and str(lone) == str(err)
                continue
            assert finished.positions.tobytes() == lone.positions.tobytes()
            assert (finished.dimensionality, finished.extended_axes) == (lone.dimensionality, lone.extended_axes)
        return relaxed, residuals, hessians

    def test_lanes_converge_in_different_rounds(self, species, monkeypatch):
        import tweezer_ising.crystal as crystal_mod

        trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
        aligned = solve_equilibrium(trap, species, 12)
        rng = np.random.default_rng(3)
        pattern = TweezerPattern.from_frequencies(rng.uniform(0.05, 0.3, 12) * MHZ, axes="y")
        offsets = np.zeros((6, 12, 3))
        for k, scale in enumerate([0.0, 1e-9, 1e-8, 1e-7, 3e-7, 1e-6]):
            offsets[k, :, 1:] = scale * rng.standard_normal((12, 2))
        guesses = np.broadcast_to(aligned.positions, offsets.shape)
        self._assert_lanes_match(trap, species, guesses, pattern, aligned.positions, offsets)

        # the lone solves take different numbers of Newton steps
        steps = []
        real = crystal_mod.mass_scaled_hessian
        for k in range(len(offsets)):
            calls = []
            monkeypatch.setattr(crystal_mod, "mass_scaled_hessian", lambda *a: calls.append(1) or real(*a))
            solve_equilibrium(
                trap, species, 12, aligned.positions,
                tweezers=pattern.with_offsets(offsets[k]), tweezer_reference=aligned.positions,
            )
            steps.append(len(calls))
        assert len(set(steps)) >= 3

    @staticmethod
    def _count_evaluations(monkeypatch):
        """Wrap the descents' Hessian builds and LAPACK calls; returns the
        lanes of each `mass_scaled_hessian` call and the counts of the
        Newton factorizations and solves."""
        import tweezer_ising.crystal as crystal_mod

        lanes, counts = [], {"dpotrf": 0, "dpotrs": 0}
        real_hessian, real_factor, real_solve = (
            crystal_mod.mass_scaled_hessian, crystal_mod.dpotrf, crystal_mod.dpotrs,
        )

        def hessian(pos, *args):
            lanes.append(len(pos))
            return real_hessian(pos, *args)

        def factor(*args, **kwargs):
            counts["dpotrf"] += 1
            return real_factor(*args, **kwargs)

        def solve(*args, **kwargs):
            counts["dpotrs"] += 1
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(crystal_mod, "mass_scaled_hessian", hessian)
        monkeypatch.setattr(crystal_mod, "dpotrf", factor)
        monkeypatch.setattr(crystal_mod, "dpotrs", solve)
        return lanes, counts

    def test_a_shared_start_is_evaluated_once(self, species, monkeypatch):
        # every lane starts at the aligned crystal, as in the misalignment
        # scan; lane 0's tweezers are not offset, so it is converged there
        trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
        aligned = solve_equilibrium(trap, species, 12)
        rng = np.random.default_rng(11)
        pattern = TweezerPattern.from_frequencies(rng.uniform(0.05, 0.3, 12) * MHZ, axes="yz")
        offsets = np.zeros((5, 12, 3))
        for k, scale in enumerate([0.0, 1e-9, 3e-8, 1e-7, 3e-7]):
            offsets[k, :, 1:] = scale * rng.standard_normal((12, 2))
        guesses = np.broadcast_to(aligned.positions, offsets.shape)
        centers = aligned.positions + offsets
        lanes, counts = self._count_evaluations(monkeypatch)
        relax_equilibria(trap, species, guesses, pattern.curvatures, centers)
        # the start is one lane's Hessian, and the four lanes that step
        # from it share one factorization
        assert lanes[0] == 1 and max(lanes[1:]) <= 4
        assert counts["dpotrf"] == counts["dpotrs"] - 3
        monkeypatch.undo()
        relaxed, residuals, _ = self._assert_lanes_match(trap, species, guesses, pattern, aligned.positions, offsets)
        assert residuals[0] < TOL_EQUILIBRIUM and relaxed[0].tobytes() == aligned.positions.tobytes()
        assert (residuals < TOL_EQUILIBRIUM).all()
        assert len({r.tobytes() for r in relaxed}) == 5

    @pytest.mark.parametrize("case", ["two_of_three", "signed_zeros"])
    def test_lanes_that_do_not_all_share_a_start_are_evaluated_apart(self, species, monkeypatch, case):
        # the first two lanes share a start and the third does not; or the
        # lanes' starts are equal values whose zeros differ in sign, which
        # the lone descents carry into different position bits
        trap = TrapConfig(2.0 * MHZ, 1.7 * MHZ, 0.2 * MHZ, n_ions=5)
        guess = default_chain_guess(trap, species)
        pattern = TweezerPattern.from_frequencies(np.full(5, 0.1 * MHZ), axes="y")
        if case == "two_of_three":
            nudge = 1e-2 * length_scale(trap.omega_bar, species) * np.random.default_rng(1).standard_normal((5, 3))
            guesses = np.stack([guess, guess, guess + nudge])
        else:
            signed = guess.copy()
            signed[:, :2] = -0.0
            guesses = np.stack([guess, signed])
            assert (guesses[1] == guesses[0]).all() and guesses[1].tobytes() != guesses[0].tobytes()
        offsets = np.zeros(guesses.shape)
        lanes, counts = self._count_evaluations(monkeypatch)
        relax_equilibria(trap, species, guesses, pattern.curvatures, guess + offsets)
        assert lanes[0] == len(guesses) and counts["dpotrf"] == counts["dpotrs"] > 0
        monkeypatch.undo()
        relaxed, _, _ = self._assert_lanes_match(trap, species, guesses, pattern, guess, offsets)
        if case == "signed_zeros":
            assert relaxed[0].tobytes() != relaxed[1].tobytes()

    def test_kicked_lane_beside_direct_ones(self, species):
        # below the zigzag transition the collinear guess needs a kick;
        # the solved crystal and a nudge of it do not
        trap = TrapConfig(0.6 * MHZ, 0.4 * MHZ, 0.14 * MHZ, n_ions=12)
        collinear = default_chain_guess(trap, species)
        zigzag = solve_equilibrium(trap, species, 12, collinear).positions
        _, kicks = _oracle_equilibrium(trap, species, collinear)
        assert kicks >= 1
        nudge = 1e-3 * length_scale(trap.omega_bar, species) * np.random.default_rng(0).standard_normal((12, 3))
        # the chain of a stiffer radial trap is a saddle here: its descent
        # converges at once, and the finishing solve kicks it off
        saddle = solve_equilibrium(TrapConfig(1.4 * MHZ, 1.2 * MHZ, 0.14 * MHZ, n_ions=12), species, 12).positions
        _, kicks = _oracle_equilibrium(trap, species, saddle)
        assert kicks >= 1
        guesses = np.stack([zigzag, collinear, zigzag + nudge, saddle])
        relaxed, residuals, _ = self._assert_lanes_match(trap, species, guesses)
        assert (residuals < TOL_EQUILIBRIUM).tolist() == [True, False, True, True]  # the collinear descent stalls
        assert relaxed[0].tobytes() == zigzag.tobytes()
        assert relaxed[3].tobytes() == saddle.tobytes()

    def test_lane_at_the_distance_floor(self, species, monkeypatch):
        import tweezer_ising.crystal as crystal_mod

        # stiff tweezers centred 8e-4 length scales apart pull two far ions
        # into one Newton step that lands inside the distance floor
        trap = TrapConfig(2.0 * MHZ, 1.7 * MHZ, 0.2 * MHZ, n_ions=2)
        lbar = length_scale(trap.omega_bar, species)
        pattern = TweezerPattern.from_frequencies(np.full(2, 0.3 * MHZ), axes="z")
        reference = np.array([[0.0, 0.0, -4e-4], [0.0, 0.0, 4e-4]]) * lbar
        guesses = np.array([[[0.0, 0.0, -g], [0.0, 0.0, g]] for g in (3.0, 5.0)]) * lbar
        nearest = []
        real = crystal_mod._pair_terms
        monkeypatch.setattr(crystal_mod, "_pair_terms", lambda pos: nearest.append(real(pos)[2].min()) or real(pos))
        self._assert_lanes_match(trap, species, guesses, pattern, reference, np.zeros((2, 2, 3)))
        assert min(nearest) < DIST_FLOOR * lbar
        solve_equilibrium(trap, species, 2, guesses[0], tweezers=pattern, tweezer_reference=reference)
        with pytest.raises(ConvergenceError):
            solve_equilibrium(trap, species, 2, guesses[1], tweezers=pattern, tweezer_reference=reference)

    def test_unconverged_lanes_are_kicked_from_where_they_stopped(self, species, monkeypatch):
        # one Newton step leaves the chain guesses unconverged; a solve
        # handed such a lane takes no step before its first kick
        import tweezer_ising.crystal as crystal_mod

        trap = TrapConfig(1.2 * MHZ, 1.0 * MHZ, 0.2 * MHZ, n_ions=6)
        solved = solve_equilibrium(trap, species, 6).positions
        guess = default_chain_guess(trap, species)
        guesses = np.stack([guess, solved, guess])
        relaxed, residuals, hessians = self._assert_lanes_match(trap, species, guesses, max_iter=1)
        assert (residuals < TOL_EQUILIBRIUM).tolist() == [False, True, False]
        assert relaxed[0].tobytes() == relaxed[2].tobytes() != guess.tobytes()
        assert relaxed[1].tobytes() == solved.tobytes()
        starts = []
        real = crystal_mod._descents
        monkeypatch.setattr(crystal_mod, "_descents", lambda pos, *a: starts.append(pos[0].copy()) or real(pos, *a))
        with pytest.raises(ConvergenceError):
            solve_equilibrium(
                trap, species, 6, guess, max_iter=1, first_descent=(relaxed[0], residuals[0], hessians[0])
            )
        kick = 1e-3 * length_scale(trap.omega_bar, species)
        assert len(starts) == 4 and 0 < np.abs(starts[0] - relaxed[0]).max() < 10 * kick

    def test_one_lane_and_no_lanes(self, species, chain_trap):
        guess = default_chain_guess(chain_trap, species)
        self._assert_lanes_match(chain_trap, species, guess[None])
        relaxed, residuals, hessians = relax_equilibria(chain_trap, species, np.zeros((0, 5, 3)))
        assert relaxed.shape == (0, 5, 3) and residuals.shape == (0,) and hessians.shape == (0, 15, 15)

    def test_a_lane_starting_on_coincident_ions_does_not_descend(self, species, chain_trap):
        guess = default_chain_guess(chain_trap, species)
        coincident = guess.copy()
        coincident[1] = coincident[0]
        relaxed, residuals, hessians = relax_equilibria(chain_trap, species, np.stack([guess, coincident, guess]))
        assert np.isnan(residuals[1]) and relaxed[1].tobytes() == coincident.tobytes()
        assert np.isnan(hessians[1]).all()
        (alone,), (residual,), (hessian,) = relax_equilibria(chain_trap, species, guess[None])
        assert relaxed[0].tobytes() == alone.tobytes() == relaxed[2].tobytes()
        assert residuals[0] == residual == residuals[2] < TOL_EQUILIBRIUM
        assert hessians[0].tobytes() == hessian.tobytes() == hessians[2].tobytes()
        assert hessian.tobytes() == mass_scaled_hessian(alone, chain_trap, species).tobytes()
        solved = solve_equilibrium(chain_trap, species, chain_trap.n_ions, guess)
        assert alone.tobytes() == solved.positions.tobytes()
        # lanes that all start on the coincident ions share that start
        relaxed, residuals, hessians = relax_equilibria(chain_trap, species, np.broadcast_to(coincident, (3, 5, 3)))
        assert np.isnan(residuals).all() and np.isnan(hessians).all()
        assert relaxed.tobytes() == np.stack([coincident] * 3).tobytes()
        # handed the lane, the solve raises what the solve from its guess raises
        with pytest.raises(InvalidArgumentError, match="^initial guess has coincident ions$"):
            solve_equilibrium(chain_trap, species, 5, coincident, first_descent=(relaxed[1], residuals[1], hessians[1]))

    @pytest.mark.parametrize("max_iter", [2.5, -1, "3", None, True])
    def test_rejects_a_bad_newton_cap(self, species, chain_trap, max_iter):
        # 2.5 used to raise a bare TypeError from range(), -1 ran no step
        # and reported a stalled descent, and True ran one step
        guess = default_chain_guess(chain_trap, species)
        with pytest.raises(InvalidArgumentError, match="^max_iter must be"):
            solve_equilibrium(chain_trap, species, 5, guess, max_iter=max_iter)
        with pytest.raises(InvalidArgumentError, match="^max_iter must be"):
            relax_equilibria(chain_trap, species, guess[None], max_iter=max_iter)

    def test_a_numpy_integer_newton_cap_is_accepted(self, species, chain_trap):
        guess = default_chain_guess(chain_trap, species)
        solved = solve_equilibrium(chain_trap, species, 5, guess, max_iter=np.int64(200))
        (relaxed,), _, _ = relax_equilibria(chain_trap, species, guess[None], max_iter=np.int64(200))
        assert relaxed.tobytes() == solved.positions.tobytes()

    @pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3), (2, 5, 2), (1, 2, 5, 3)])
    def test_rejects_guesses_that_are_not_a_stack_of_the_trap_s_ions(self, species, chain_trap, shape):
        # a lone (5, 3) guess used to raise numpy's AxisError
        with pytest.raises(InvalidArgumentError, match=r"^guesses must have shape \(K, 5, 3\)"):
            relax_equilibria(chain_trap, species, np.ones(shape))

    @pytest.mark.parametrize("centers", [None, "one crystal", "two lanes"])
    def test_rejects_tweezer_centers_that_are_not_the_guesses_shape(self, species, chain_trap, centers):
        # None used to raise a bare TypeError, and one crystal's (5, 3)
        # centers were read as one center per lane, with no error
        guess = default_chain_guess(chain_trap, species)
        centers = {None: None, "one crystal": guess, "two lanes": np.stack([guess, guess])}[centers]
        curv = TweezerPattern.from_frequencies(np.full(5, 0.1 * MHZ), axes="y").curvatures
        with pytest.raises(InvalidArgumentError, match=r"^tweezer centers must have the guesses' shape \(1, 5, 3\)"):
            relax_equilibria(chain_trap, species, guess[None], curv, centers)

    def test_rejects_per_lane_curvatures(self, species, chain_trap, monkeypatch):
        # a (K, N, 3, 3) stack of curvatures used to reach the tweezer
        # force's einsum and raise a bare numpy ValueError there
        import tweezer_ising.crystal as crystal_mod

        guess = default_chain_guess(chain_trap, species)
        curv = TweezerPattern.from_frequencies(np.full(5, 0.1 * MHZ), axes="y").curvatures
        monkeypatch.setattr(crystal_mod, "_descents", None)  # no descent runs
        with pytest.raises(InvalidArgumentError, match=r"^tweezer curvatures must have shape \(5, 3, 3\), got \(1, 5, 3, 3\)$"):
            relax_equilibria(chain_trap, species, guess[None], curv[None], guess[None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_a_non_finite_guess(self, species, chain_trap, bad, monkeypatch):
        # a NaN guess used to descend: a NaN nearest distance passes the
        # distance floor, so relax_equilibria returned a NaN residual and
        # Hessian, and solve_equilibrium ended in numpy's LinAlgError
        import tweezer_ising.crystal as crystal_mod

        guess = default_chain_guess(chain_trap, species)
        guess[2, 0] = bad
        monkeypatch.setattr(crystal_mod, "_descents", None)  # no descent runs
        with pytest.raises(InvalidArgumentError, match="^guesses must have finite coordinates$"):
            relax_equilibria(chain_trap, species, np.stack([default_chain_guess(chain_trap, species), guess]))
        with pytest.raises(InvalidArgumentError, match="^initial guess must have finite coordinates$"):
            solve_equilibrium(chain_trap, species, 5, guess)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_tweezer_centers(self, species, chain_trap, bad, monkeypatch):
        # the tweezer pattern checks its offsets; the reference they are
        # added to, and the centers handed to relax_equilibria, are checked here
        import tweezer_ising.crystal as crystal_mod

        guess = default_chain_guess(chain_trap, species)
        pattern = TweezerPattern.from_frequencies(np.full(5, 0.1 * MHZ), axes="y")
        centers = guess.copy()
        centers[4, 2] = bad
        monkeypatch.setattr(crystal_mod, "_descents", None)  # no descent runs
        with pytest.raises(InvalidArgumentError, match="^tweezer centers must have finite coordinates$"):
            relax_equilibria(chain_trap, species, guess[None], pattern.curvatures, centers[None])
        with pytest.raises(InvalidArgumentError, match="^tweezer centers must have finite coordinates$"):
            solve_equilibrium(chain_trap, species, 5, guess, tweezers=pattern, tweezer_reference=centers)

    def test_a_kick_onto_coincident_ions_raises(self, species, monkeypatch):
        # no Newton step (max_iter=0) leaves the guess unconverged; the
        # first kick, 1e-3 length scales along a stubbed draw of -1, moves
        # ion 1 exactly onto ion 0
        trap = TrapConfig(2.0 * MHZ, 1.7 * MHZ, 0.2 * MHZ, n_ions=2)
        kick = 1e-3 * length_scale(trap.omega_bar, species)
        guess = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, kick]])

        class Draw:
            def __init__(self, bit_generator):
                pass

            def standard_normal(self, shape):
                return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])

        monkeypatch.setattr(np.random, "Generator", Draw)
        with pytest.raises(SingularGeometryError, match="^coincident ions in potential evaluation$"):
            solve_equilibrium(trap, species, 2, guess, max_iter=0)

    def test_the_callers_arrays_are_not_written(self, species):
        # the scan passes broadcast views of the aligned crystal as guesses,
        # and a solve's guess is a view of the caller's positions
        trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
        aligned = solve_equilibrium(trap, species, 12)
        rng = np.random.default_rng(5)
        pattern = TweezerPattern.from_frequencies(rng.uniform(0.05, 0.3, 12) * MHZ, axes="y")
        offsets = np.zeros((4, 12, 3))
        offsets[:, :, 1] = rng.uniform(-200e-9, 200e-9, (4, 12))
        reference = aligned.positions.copy()
        guess = reference + 1e-3 * length_scale(trap.omega_bar, species)
        guesses = np.broadcast_to(guess, offsets.shape)
        centers = reference + offsets
        before = [a.tobytes() for a in (guess, reference, guesses, centers)]
        relaxed, residuals, hessians = relax_equilibria(trap, species, guesses, pattern.curvatures, centers)
        shifted = solve_equilibrium(
            trap, species, 12, guess, tweezers=pattern.with_offsets(offsets[0]), tweezer_reference=reference
        )
        assert (residuals < TOL_EQUILIBRIUM).all()
        assert np.abs(shifted.positions - guess).max() > 0
        assert [a.tobytes() for a in (guess, reference, guesses, centers)] == before
        # nor are the hand-off's arrays, and the solved crystal owns its positions
        assert hessians.tobytes() == mass_scaled_hessian(relaxed, trap, species, pattern.curvatures).tobytes()
        handed = [a.tobytes() for a in (relaxed, residuals, hessians)]
        finished = solve_equilibrium(
            trap, species, 12, guess, tweezers=pattern.with_offsets(offsets[0]), tweezer_reference=reference,
            first_descent=(relaxed[0], residuals[0], hessians[0]),
        )
        assert finished.positions.tobytes() == shifted.positions.tobytes()
        assert not np.shares_memory(finished.positions, relaxed)
        assert [a.tobytes() for a in (relaxed, residuals, hessians)] == handed
