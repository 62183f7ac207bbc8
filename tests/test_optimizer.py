from dataclasses import replace

import numpy as np
import pytest

from tweezer_ising import (
    YB171,
    DriveConfig,
    SearchSpace,
    TargetSpec,
    TrapConfig,
    coupling_jacobian_diag,
    coupling_matrix,
    mode_spectrum,
    run_pipeline,
    solve_equilibrium,
    symmetry_orbits,
)
from tweezer_ising.coupling import max_abs_offdiag
from tweezer_ising.crystal import IonCrystal, make_lattice
from tweezer_ising.errors import InvalidArgumentError, UndefinedNormalizationError, UnstableCrystalError
from tweezer_ising.feasibility import build_sign_constraints
from tweezer_ising import optimizer, quasinewton
from tweezer_ising.optimizer import (
    PinProblem,
    beatnote_columns,
    default_drive_axis,
    stage1_geometry,
    stage1_search,
    stage2_refine,
)
from tweezer_ising.sensitivity import CouplingGradient, all_pairs
from tweezer_ising.quasinewton import minimize_box
from tweezer_ising.scenarios import nn_chain_12, run_scenario
from tweezer_ising.targets import build_target

from conftest import MHZ


def _space(**kw):
    base = dict(
        omega_scan=(0.25 * MHZ, 0.25 * MHZ),
        mu=(0.60 * MHZ, 0.75 * MHZ),
        pin=(0.0, 0.4 * MHZ),
        pin_axes=("y",),
        scan_axis="z",
        mu_grid=6,
        restarts=3,
    )
    base.update(kw)
    return SearchSpace(**base)


@pytest.fixture(scope="module")
def chain5(species):
    return _chain5(species)


class TestSymmetryOrbits:
    def test_no_symmetry(self, chain5):
        cells = symmetry_orbits(chain5, "none")
        assert cells.n_orbits == 5
        assert all(len(o) == 1 for o in cells.orbits)

    def test_chain_reflection(self, species):
        trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
        crystal = solve_equilibrium(trap, species, 12)
        cells = symmetry_orbits(crystal, "reflection_z")
        assert cells.n_orbits == 6
        assert all(len(o) == 2 for o in cells.orbits)

    def test_hexagonal_c6_orbit_count(self, species):
        trap = TrapConfig(2.4 * MHZ, 0.16 * MHZ, 0.16 * MHZ, n_ions=19)
        pos = make_lattice("triangular", 19, 12e-6)
        crystal = IonCrystal(trap, species, pos, "planar", (1, 2))
        cells = symmetry_orbits(crystal, "C6")
        assert cells.n_orbits == 4
        assert sorted(len(o) for o in cells.orbits) == [1, 6, 6, 6]

    def test_ladder_two_fold_axis(self, species):
        trap = TrapConfig(0.6 * MHZ, 0.4 * MHZ, 0.14 * MHZ, n_ions=12)
        crystal = solve_equilibrium(trap, species, 12)
        cells = symmetry_orbits(crystal, "ladder_translation")
        assert cells.n_orbits == 6

    def test_missing_symmetry_rejected(self, chain5):
        with pytest.raises(InvalidArgumentError):
            symmetry_orbits(chain5, "C6")
        with pytest.raises(InvalidArgumentError):
            symmetry_orbits(chain5, "dihedral")


def _chain5(species):
    trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=5)
    return solve_equilibrium(trap, species, 5)


def _chain12(species):
    trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12)
    return solve_equilibrium(trap, species, 12)


def _triangle19(species):
    trap = TrapConfig(2.4 * MHZ, 0.16 * MHZ, 0.16 * MHZ, n_ions=19)
    return IonCrystal(trap, species, make_lattice("triangular", 19, 12e-6), "planar", (1, 2))


def _ladder12(species):
    trap = TrapConfig(0.6 * MHZ, 0.4 * MHZ, 0.14 * MHZ, n_ions=12)
    return solve_equilibrium(trap, species, 12)


def _fd_check(problem, k, mu, h_rel):
    """Analytic grad_k and grad_mu against central differences."""
    _, grad_k, grad_mu = _parts(problem, k, mu, True)
    h = h_rel * problem.k_scale
    for i in range(k.size):
        d = np.zeros(k.size)
        d[i] = h
        fd = (problem.epsilon(k + d, mu) - problem.epsilon(k - d, mu)) / (2 * h)
        assert grad_k[i] == pytest.approx(fd, rel=1e-5, abs=1e-12 / problem.k_scale)
    hmu = 1e-7 * mu
    fd_mu = (problem.epsilon(k, mu + hmu) - problem.epsilon(k, mu - hmu)) / (2 * hmu)
    assert grad_mu == pytest.approx(fd_mu, rel=1e-5)


class TestObjectiveGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pin_gradient_matches_fd(self, chain5, seed):
        t = build_target(TargetSpec("nearest_neighbor", "chain"), chain5)
        problem = PinProblem(chain5, t, "y", ("y",))
        problem.set_scales((0.0, (0.4 * MHZ) ** 2), (0.6 * MHZ, 0.75 * MHZ))
        rng = np.random.default_rng(seed)
        k = rng.uniform(0.0, (0.2 * MHZ) ** 2, 5)
        _fd_check(problem, k, 0.68 * MHZ, 1e-6)

    # orbits that pin several block rows each, so grad_k sums per-row terms

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reflection_orbits_match_fd(self, species, seed):
        crystal = _chain12(species)
        t = build_target(TargetSpec("nearest_neighbor", "chain"), crystal)
        problem = PinProblem(crystal, t, "y", ("y",), symmetry_orbits(crystal, "reflection_z").orbits)
        assert {rows.size for rows in problem.param_rows} == {2}
        problem.set_scales((0.0, (0.5 * MHZ) ** 2), (0.40 * MHZ, 0.55 * MHZ))
        k = np.random.default_rng(seed).uniform(0.0, (0.25 * MHZ) ** 2, len(problem.orbits))
        _fd_check(problem, k, 0.47 * MHZ, 1e-6)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_c6_orbits_match_fd(self, species, seed):
        crystal = _triangle19(species)
        t = build_target(TargetSpec("triangular_af", "triangular"), crystal)
        problem = PinProblem(crystal, t, "x", ("x",), symmetry_orbits(crystal, "C6").orbits)
        assert sorted(rows.size for rows in problem.param_rows) == [1, 6, 6, 6]
        problem.set_scales((0.0, (0.29 * MHZ) ** 2), (2.3 * MHZ, 2.45 * MHZ))
        k = np.random.default_rng(seed).uniform(0.0, (0.15 * MHZ) ** 2, len(problem.orbits))
        # the eigendecomposition's rounding needs a wider step on this block
        _fd_check(problem, k, 2.42 * MHZ, 1e-5)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_pin_axes_match_fd(self, chain5, seed):
        t = build_target(TargetSpec("nearest_neighbor", "chain"), chain5)
        problem = PinProblem(chain5, t, "y", ("y", "z"), symmetry_orbits(chain5, "reflection_z").orbits)
        assert sorted(rows.size for rows in problem.param_rows) == [2, 4, 4]
        problem.set_scales((0.0, (0.4 * MHZ) ** 2), (0.6 * MHZ, 0.75 * MHZ))
        k = np.random.default_rng(seed).uniform(0.0, (0.2 * MHZ) ** 2, len(problem.orbits))
        _fd_check(problem, k, 0.68 * MHZ, 1e-6)


def _reference_coupling(problem, k_params, mu):
    """The objective kernel's spectrum and J as first written, loop for loop."""
    diag_add = np.zeros(problem.b)
    for rows, k in zip(problem.param_rows, k_params):
        diag_add[rows] += k
    a = problem.a0.copy()
    a[np.diag_indices_from(a)] += diag_add
    lam, u = np.linalg.eigh(a)
    if lam[0] < -problem.floor:
        return None
    freqs = np.sqrt(np.clip(lam, 0.0, None))
    if np.min(np.abs(mu - freqs)) <= problem.guard:
        return None
    theta = 1.0 / (mu**2 - lam)
    w = problem.proj @ u
    wt = w * theta
    j = wt @ w.T
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return u, theta, w, wt, j


def _reference_parts(problem, k_params, mu, need_grad):
    """`PinProblem.epsilon_parts` as first written, loop for loop."""
    spectrum = _reference_coupling(problem, k_params, mu)
    if spectrum is None:
        return None
    u, theta, w, wt, j = spectrum
    max_j, (p, q) = max_abs_offdiag(j)
    if max_j <= 0.0:
        return None
    s = problem.max_t / max_j
    r = problem.target - s * j
    eps = float(np.linalg.norm(r) / problem.t_norm)
    if not need_grad:
        return eps, None, None
    if eps == 0.0:
        return eps, np.zeros(len(problem.orbits)), 0.0
    g_mat = r.copy()
    g_mat[p, q] -= float(np.sum(r * j)) / j[p, q]
    g_mat *= -s / (eps * problem.t_norm**2)
    y = wt @ u.T
    per_row = np.einsum("kb,kl,lb->b", y, g_mat, y, optimize=True)
    grad_k = np.array([per_row[rows].sum() for rows in problem.param_rows])
    dtheta = -2.0 * mu * theta**2
    dj_dmu = (w * dtheta) @ w.T
    np.fill_diagonal(dj_dmu, 0.0)
    grad_mu = float(np.sum(g_mat * dj_dmu))
    return eps, grad_k, grad_mu


def _parts(problem, k_params, mu, need_grad):
    """`epsilon_parts` on a stack of one lane, in `_reference_parts`' form;
    the gradient only if asked for."""
    k_stack = np.asarray(k_params, dtype=float)[None]
    eps, gradient = problem.epsilon_parts(k_stack, beatnote_columns((mu,)), with_mu=True)
    if eps[0] == np.inf:
        return None
    if not need_grad:
        return float(eps[0]), None, None
    grad_k, grad_mu = gradient(np.zeros(1, dtype=int))
    return float(eps[0]), grad_k[0], float(grad_mu[0])


def _assert_same_bits(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    if want[1] is None:
        assert got[1] is None and got[2] is None
        return
    assert got[1].shape == want[1].shape and got[1].tobytes() == want[1].tobytes()
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


class TestKernelBitIdentity:
    """`epsilon_parts` gives the same bits as the kernel's first formula.

    A stage-1 cell keeps the restart with the lowest ε, so the last bits
    of ε, grad_k and grad_mu decide which pattern a design returns, and
    the pinned ε values of `perfbench` and `tests/test_scenario_bits.py`
    depend on them.  The reference below contracts the gradient with
    `np.einsum(..., optimize=True)`; the kernel writes out the matmuls
    numpy lowers that einsum to, so these bits depend on numpy's einsum
    lowering as well as on the BLAS.
    """

    @pytest.mark.parametrize(
        "case", ["chain5_per_ion", "chain12_reflection", "triangle19_c6_xy", "ladder12_yz"]
    )
    def test_random_points(self, species, chain5, case):
        if case == "chain5_per_ion":
            crystal, drive, axes, orbits = chain5, "y", ("y",), None
            t = build_target(TargetSpec("nearest_neighbor", "chain"), crystal)
        elif case == "chain12_reflection":
            crystal, drive, axes = _chain12(species), "y", ("y",)
            orbits = symmetry_orbits(crystal, "reflection_z").orbits
            t = build_target(TargetSpec("nearest_neighbor", "chain"), crystal)
        elif case == "triangle19_c6_xy":
            crystal, drive, axes = _triangle19(species), "x", ("x", "y")
            orbits = symmetry_orbits(crystal, "C6").orbits
            t = build_target(TargetSpec("triangular_af", "triangular"), crystal)
        else:
            crystal, drive, axes = _ladder12(species), "y", ("y", "z")
            orbits = symmetry_orbits(crystal, "ladder_translation").orbits
            t = build_target(TargetSpec("spin_ladder", "ladder"), crystal)
        problem = PinProblem(crystal, t, drive, axes, orbits)
        if case == "triangle19_c6_xy":
            assert sorted(rows.size for rows in problem.param_rows) == [2, 12, 12, 12]
        lam = np.linalg.eigvalsh(problem.a0)
        w_hi = np.sqrt(lam[-1])
        rng = np.random.default_rng(7)
        verdicts = {"none": 0, "value": 0}
        for i in range(100):
            k = rng.uniform(-0.2, 1.0, len(problem.orbits)) * (0.4 * w_hi) ** 2 * 10.0 ** -rng.integers(0, 3)
            mu = rng.uniform(0.3, 1.3) * w_hi
            need_grad = i % 4 != 3
            want = _reference_parts(problem, k, mu, need_grad)
            _assert_same_bits(_parts(problem, k, mu, need_grad), want)
            verdicts["none" if want is None else "value"] += 1
        assert verdicts["value"] >= 50

    def test_none_and_zero_paths(self, chain5):
        t = build_target(TargetSpec("nearest_neighbor", "chain"), chain5)
        problem = PinProblem(chain5, t, "y", ("y",))
        k = np.full(5, (0.1 * MHZ) ** 2)
        # unstable: anti-pinning pulls the lowest block eigenvalue below zero
        unstable = np.full(5, -((1.0 * MHZ) ** 2))
        assert np.linalg.eigvalsh(problem.a0 + np.diag(unstable))[0] < -problem.floor
        # resonant: the beatnote sits on a pinned mode
        mu_res = float(np.sqrt(np.linalg.eigvalsh(problem.a0 + np.diag(k))[2]))
        for kk, mu in ((unstable, 0.68 * MHZ), (k, mu_res)):
            for need_grad in (True, False):
                assert _reference_parts(problem, kk, mu, need_grad) is None
            assert problem.epsilon(kk, mu) == np.inf
        # eps == 0: the target is the kernel's own J at (k, mu)
        j = _reference_coupling(problem, k, 0.68 * MHZ)[-1]
        exact = PinProblem(chain5, j, "y", ("y",))
        for need_grad in (True, False):
            want = _reference_parts(exact, k, 0.68 * MHZ, need_grad)
            assert want[0] == 0.0
            _assert_same_bits(_parts(exact, k, 0.68 * MHZ, need_grad), want)

    def test_zero_target_rejected(self, chain5):
        with pytest.raises(UndefinedNormalizationError):
            PinProblem(chain5, np.zeros((5, 5)), "y", ("y",))
        with pytest.raises(UndefinedNormalizationError):
            PinProblem(chain5, np.diag(np.arange(1.0, 6.0)), "y", ("y",))

    def test_overlapping_orbits_rejected(self, chain5):
        t = build_target(TargetSpec("nearest_neighbor", "chain"), chain5)
        with pytest.raises(InvalidArgumentError):
            PinProblem(chain5, t, "y", ("y",), [(0, 4), (1, 3), (2, 4)])


def _batch_problem(species, case):
    """`PinProblem`s with blocks of 12 (chain) and 19 (triangle) rows, all
    pinned in order; of 57 (the triangle's full Hessian pinned on x and y,
    so its z rows are unpinned); and of 24 (the ladder, two orbit widths)."""
    if case == "chain12_per_ion":
        crystal = _chain12(species)
        t = build_target(TargetSpec("nearest_neighbor", "chain"), crystal)
        return PinProblem(crystal, t, "y", ("y",))
    if case == "triangle19_per_ion":
        crystal = _triangle19(species)
        t = build_target(TargetSpec("triangular_af", "triangular"), crystal)
        return PinProblem(crystal, t, "x", ("x",))
    if case == "triangle19_c6_xy":
        crystal = _triangle19(species)
        t = build_target(TargetSpec("triangular_af", "triangular"), crystal)
        return PinProblem(crystal, t, "x", ("x", "y"), symmetry_orbits(crystal, "C6").orbits)
    crystal = _ladder12(species)
    t = build_target(TargetSpec("spin_ladder", "ladder"), crystal)
    return PinProblem(crystal, t, "y", ("y", "z"), symmetry_orbits(crystal, "ladder_translation").orbits)


def _pow_square_differs(rng, lo, hi, count):
    """Beatnotes in [lo, hi] whose scalar ``mu**2`` (C pow) is not the
    array square ``mu * mu``."""
    found = []
    while len(found) < count:
        cand = rng.uniform(lo, hi, 100000)
        found += [mu for mu, sq in zip(cand.tolist(), (cand**2).tolist()) if mu**2 != sq]
    return found[:count]


class TestBatchBitIdentity:
    """Each lane of `epsilon_parts` has the bits of a stack of one lane and
    of the kernel's first formula.

    Stage 1 evaluates the restarts of a trap-frequency row as one stack,
    with one stacked norm and one stacked gradient, so its designs depend
    on this.  Lanes mix beatnotes, good points with
    unstable, resonant and J = 0 ones (μ = ∞ makes every resolvent
    weight 0), and beatnotes whose scalar square differs from the array
    square: the batch squares each lane's μ as a scalar, as a lone call does.
    """

    @pytest.mark.parametrize(
        "case", ["chain12_per_ion", "triangle19_per_ion", "triangle19_c6_xy", "ladder12_yz"]
    )
    def test_lanes_match_lone_calls(self, species, case):
        problem = _batch_problem(species, case)
        assert problem.b == {"chain12_per_ion": 12, "triangle19_per_ion": 19,
                             "triangle19_c6_xy": 57, "ladder12_yz": 24}[case]
        lam = np.linalg.eigvalsh(problem.a0)
        w_hi = np.sqrt(lam[-1])
        p = len(problem.orbits)
        rng = np.random.default_rng(17)
        odd_mus = _pow_square_differs(rng, 0.3 * w_hi, 1.3 * w_hi, 60)

        def lane(kind):
            k = rng.uniform(-0.2, 1.0, p) * (0.4 * w_hi) ** 2 * 10.0 ** -rng.integers(0, 3)
            if kind == "unstable":
                return np.full(p, -((1.5 * w_hi) ** 2)), rng.uniform(0.3, 1.3) * w_hi
            if kind == "resonant":
                grid = np.zeros(problem.b)
                for rows, kk in zip(problem.param_rows, k):
                    grid[rows] += kk
                modes = np.sqrt(np.clip(np.linalg.eigvalsh(problem.a0 + np.diag(grid)), 0.0, None))
                return k, float(modes[rng.integers(0, modes.size)])
            if kind == "zero_j":
                return k, np.inf
            if kind == "odd_mu":
                return k, odd_mus.pop()
            return k, rng.uniform(0.3, 1.3) * w_hi

        kinds = ["good", "odd_mu", "unstable", "resonant", "zero_j"]
        weights = [0.35, 0.35, 0.1, 0.1, 0.1]
        verdicts = {"none": 0, "value": 0, "odd_mu value": 0}
        for count in (1, 2, 3, 8, 57):
            for _ in range(3 if count < 57 else 1):
                kind = rng.choice(kinds, size=count, p=weights).tolist()
                if count == 57:
                    kind[:5] = kinds
                lanes = [lane(one) for one in kind]
                k_stack = np.stack([k for k, _ in lanes])
                beat = beatnote_columns([mu for _, mu in lanes])
                eps, gradient = problem.epsilon_parts(k_stack, beat, with_mu=True)
                assert eps.shape == (count,)
                graded = np.flatnonzero(eps != np.inf)
                if graded.size:
                    # one stacked gradient for every lane with an ε; a subset
                    # and the pinning-only gradient give those lanes' bits too
                    grad_k, grad_mu = gradient(graded)
                    half_k, half_mu = gradient(graded[::2])
                    assert half_k.tobytes() == grad_k[::2].tobytes()
                    assert half_mu.tobytes() == grad_mu[::2].tobytes()
                    pin_k, no_mu = problem.epsilon_parts(k_stack, beat)[1](graded)
                    assert no_mu is None and pin_k.tobytes() == grad_k.tobytes()
                row = dict(zip(graded.tolist(), range(graded.size)))
                for i, (one, (k, mu)) in enumerate(zip(kind, lanes)):
                    want = _reference_parts(problem, k, mu, True)
                    _assert_same_bits(_parts(problem, k, mu, True), want)
                    got = None if i not in row else (eps[i], grad_k[row[i]], grad_mu[row[i]])
                    _assert_same_bits(got, want)
                    verdicts["none" if want is None else "value"] += 1
                    verdicts["odd_mu value"] += one == "odd_mu" and want is not None
        assert verdicts["none"] >= 15 and verdicts["value"] >= 30 and verdicts["odd_mu value"] >= 10

    @pytest.mark.parametrize("case", ["chain12_per_ion", "triangle19_c6_xy", "ladder12_yz"])
    def test_one_pinning_row_shared_by_every_lane(self, species, case):
        # a (1, P) k_stack is the pinning of every beatnote row: each lane,
        # resonant and J = 0 ones among them, and its gradient keep the bits
        # of the same row repeated per lane and of a lone call
        problem = _batch_problem(species, case)
        w_hi = np.sqrt(np.linalg.eigvalsh(problem.a0)[-1])
        rng = np.random.default_rng(23)
        k = rng.uniform(0.0, 1.0, len(problem.orbits)) * (0.2 * w_hi) ** 2
        grid = np.zeros(problem.b)
        for rows, kk in zip(problem.param_rows, k):
            grid[rows] += kk
        modes = np.sqrt(np.clip(np.linalg.eigvalsh(problem.a0 + np.diag(grid)), 0.0, None))
        mus = list(rng.uniform(0.3, 1.3, 9) * w_hi) + [float(modes[3]), np.inf]
        beat = beatnote_columns(mus)
        eps, gradient = problem.epsilon_parts(k[None], beat, with_mu=True)
        k_each = np.repeat(k[None], len(mus), 0)
        each_eps, each_gradient = problem.epsilon_parts(k_each, beat, with_mu=True)
        assert eps.tobytes() == each_eps.tobytes()
        graded = np.flatnonzero(eps != np.inf)
        assert eps[-2] == eps[-1] == np.inf and graded.size >= 6
        grad_k, grad_mu = gradient(graded)
        want_k, want_mu = each_gradient(graded)
        assert grad_k.tobytes() == want_k.tobytes() and grad_mu.tobytes() == want_mu.tobytes()
        half_k, _ = gradient(graded[1::2])
        assert half_k.tobytes() == grad_k[1::2].tobytes()
        row = dict(zip(graded.tolist(), range(graded.size)))
        for i, mu in enumerate(mus):
            got = (eps[i], grad_k[row[i]], grad_mu[row[i]]) if i in row else None
            _assert_same_bits(got, _parts(problem, k, mu, True))

    def test_zero_j_lane_is_none(self, chain5):
        t = build_target(TargetSpec("nearest_neighbor", "chain"), chain5)
        problem = PinProblem(chain5, t, "y", ("y",))
        k = np.full(5, (0.1 * MHZ) ** 2)
        assert problem.epsilon(k, np.inf) == np.inf
        eps, _ = problem.epsilon_parts(np.stack([k, k]), beatnote_columns([np.inf, 0.68 * MHZ]))
        assert eps[0] == np.inf and np.isfinite(eps[1])


class TestStage1:
    def test_identity_target_reaches_zero(self, species):
        # the normalized native couplings of one grid cell are trivially
        # attainable with zero pinning
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        space = _space(mu_grid=4, restarts=2, omega_scan=(0.25 * MHZ, 0.25 * MHZ))
        crystal = stage1_geometry(TargetSpec("nearest_neighbor", "chain"), trap, species, 0.25 * MHZ, "z")
        from tweezer_ising import DriveConfig, coupling_matrix
        from tweezer_ising.modes import build_hessian, mode_spectrum

        spec = mode_spectrum(build_hessian(crystal))
        j = None
        for mu_star in np.linspace(space.mu[0], space.mu[1], 4):
            try:
                j = coupling_matrix(spec, DriveConfig(mu=mu_star, drive_axis="y"), species).matrix
                break
            except Exception:
                continue
        assert j is not None
        peak, _ = max_abs_offdiag(j)
        target = TargetSpec("explicit", "chain", matrix=j / peak)
        candidates, cells = stage1_search(target, space, trap, species, seed=0)
        assert candidates, [c.verdict for c in cells]
        best = candidates[0]
        assert best.epsilon < 1e-6
        assert np.abs(best.pin_frequencies).max() < 0.02 * MHZ

    def test_all_cells_reported_when_infeasible(self, species):
        # a sign flip of the single coupling cannot be reached with purely
        # confining pinning far above the band
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=2)
        crystal = stage1_geometry(TargetSpec("nearest_neighbor", "chain"), trap, species, 0.25 * MHZ, "z")
        target = TargetSpec("explicit", "chain", matrix=np.array([[0.0, -1.0], [-1.0, 0.0]]))
        space = _space(mu=(2.0 * MHZ, 2.2 * MHZ), mu_grid=5, pin=(0.0, 0.3 * MHZ))
        candidates, cells = stage1_search(target, space, trap, species, seed=0)
        assert candidates == []
        assert len(cells) == 5
        assert {c.verdict for c in cells} <= {"infeasible", "resonant"}
        assert any(c.verdict == "infeasible" for c in cells)

    def test_candidates_sorted_and_bounded(self, species):
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        space = _space(mu_grid=5, restarts=2)
        candidates, _ = stage1_search(
            TargetSpec("nearest_neighbor", "chain"), space, trap, species, seed=1
        )
        eps = [c.epsilon for c in candidates]
        assert eps == sorted(eps)
        for c in candidates:
            assert np.all(c.pin_frequencies >= space.pin[0] - 1e-12)
            assert np.all(c.pin_frequencies <= space.pin[1] + 1e-12)
            assert space.mu[0] <= c.mu <= space.mu[1]
            assert all(h2 <= h1 + 1e-15 for h1, h2 in zip(c.history, c.history[1:]))


def _row_problems(target_spec, space, trap, species):
    """Stage 1's `PinProblem` of each trap frequency, keyed by it."""
    problems = {}
    for omega in np.linspace(space.omega_scan[0], space.omega_scan[1], space.omega_grid):
        crystal = stage1_geometry(target_spec, trap, species, omega, space.scan_axis)
        problem = PinProblem(crystal, build_target(target_spec, crystal), default_drive_axis(space.pin_axes),
                             space.pin_axes, None, space.resonance_guard)
        problem.set_scales(space.pin_curvature_bounds, space.mu)
        problems[omega] = problem
    return problems


def _lone_restarts(problem, space, seed, cell, mu):
    """One cell's restarts run one after another with `minimize_box`."""
    p = len(problem.orbits)
    lower, upper = np.full(p, problem.k_bounds[0]), np.full(p, problem.k_bounds[1])
    return [
        minimize_box(
            problem.pin_evaluator(beatnote_columns((mu,))),
            optimizer._random_start(space, p, seed, cell, r) / problem.k_scale,
            lower, upper, max_iter=space.max_iter,
        )
        for r in range(space.restarts)
    ]


class TestStage1Lockstep:
    """Stage 1 runs a row's restarts in lockstep; each cell keeps what the
    restarts run one by one would have given it, bit for bit."""

    # the minimizer's one line search, kept in the id so that it matches earlier runs
    @pytest.mark.parametrize("search", ["backtracking"])
    def test_matches_lone_restarts(self, species, search):
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        # rows of infeasible, resonant and feasible cells
        space = _space(omega_scan=(0.22 * MHZ, 0.25 * MHZ), omega_grid=2, mu=(0.7 * MHZ, 0.9 * MHZ),
                       mu_grid=5, restarts=3)
        tspec = TargetSpec("nearest_neighbor", "chain")
        candidates, cells = stage1_search(tspec, space, trap, species, seed=1)
        problems = _row_problems(tspec, space, trap, species)
        by_cell = {(c.omega_scan, c.mu): c for c in candidates}
        assert len(by_cell) == len(candidates)
        rows = set()
        for index, diag in enumerate(cells):
            if diag.verdict != "feasible":
                assert (diag.omega_scan, diag.mu) not in by_cell
                continue
            problem = problems[diag.omega_scan]
            runs = _lone_restarts(problem, space, 1, index, diag.mu)
            best = min(runs, key=lambda res: res.fun)  # the first on a tie
            cand = by_cell[diag.omega_scan, diag.mu]
            assert cand.pin_curvature.tobytes() == problem.expand(best.x * problem.k_scale).tobytes()
            assert np.float64(cand.epsilon).tobytes() == np.float64(best.fun).tobytes()
            assert np.array(cand.history).tobytes() == np.array(best.history).tobytes()
            assert cand.converged == best.converged and diag.epsilon == cand.epsilon
            assert cand.crystal.positions.tobytes() == problem.crystal.positions.tobytes()
            rows.add(diag.omega_scan)
        assert len(rows) == 2  # both rows ran restarts

    def test_nonfinite_start_raises_as_lone_restarts_do(self, species, monkeypatch):
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        space = _space(mu=(0.7 * MHZ, 0.9 * MHZ), pin=(0.0, 0.5 * MHZ), mu_grid=5, restarts=3)
        tspec = TargetSpec("nearest_neighbor", "chain")
        _, cells = stage1_search(tspec, space, trap, species, seed=1)
        feasible = [i for i, diag in enumerate(cells) if diag.verdict == "feasible"]
        assert len(feasible) >= 2
        bad, diag = feasible[1], cells[feasible[1]]
        (problem,) = _row_problems(tspec, space, trap, species).values()
        # a uniform pinning c lifts every mode of this all-pinned block by c:
        # put the highest mode below the beatnote onto it
        lam = np.linalg.eigvalsh(problem.a0)
        c = diag.mu**2 - lam[lam < diag.mu**2].max()
        assert 0.0 < c < space.pin_curvature_bounds[1]
        real_start = optimizer._random_start

        def start(space_, n_params, seed, cell, restart):
            if (cell, restart) == (bad, 1):
                return np.full(n_params, c)
            return real_start(space_, n_params, seed, cell, restart)

        monkeypatch.setattr(optimizer, "_random_start", start)
        with pytest.raises(InvalidArgumentError, match="not finite at the starting point"):
            _lone_restarts(problem, space, 1, bad, diag.mu)
        with pytest.raises(InvalidArgumentError, match="not finite at the starting point"):
            stage1_search(tspec, space, trap, species, seed=1)


class TestStage2:
    def test_trivial_orbits_match_direct_refinement(self, species):
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        space = _space(mu_grid=4, restarts=2)
        tspec = TargetSpec("nearest_neighbor", "chain")
        candidates, _ = stage1_search(tspec, space, trap, species, seed=2)
        best = candidates[0]
        cells_none = symmetry_orbits(best.crystal, "none")
        refined = stage2_refine(best, cells_none, space, tspec)
        # reparametrization identity: same search space, same start point
        assert refined.epsilon <= best.epsilon + 1e-8

    def test_symmetric_orbits_give_symmetric_pattern_and_descent(self, species):
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        space = _space(mu_grid=4, restarts=2)
        tspec = TargetSpec("nearest_neighbor", "chain")
        candidates, _ = stage1_search(tspec, space, trap, species, seed=2)
        best = candidates[0]
        cells = symmetry_orbits(best.crystal, "reflection_z")
        refined = stage2_refine(best, cells, space, tspec)
        for orbit in cells.orbits:
            vals = refined.pin_curvature[list(orbit)]
            assert np.ptp(vals) == 0.0
        # never worse than the symmetrized start it began from
        assert refined.history[-1] <= refined.history[0] + 1e-15


class TestPipeline:
    def test_determinism(self, species):
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        space = _space(mu_grid=4, restarts=2)
        tspec = TargetSpec("nearest_neighbor", "chain")
        r1 = run_pipeline(tspec, space, trap, species, symmetry="reflection_z", seed=5)
        r2 = run_pipeline(tspec, space, trap, species, symmetry="reflection_z", seed=5)
        assert r1.mu == r2.mu
        assert np.array_equal(r1.pin_frequencies, r2.pin_frequencies)
        assert r1.epsilon == r2.epsilon

    def test_result_respects_bounds_and_guard(self, species):
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        space = _space(mu_grid=5, restarts=2)
        tspec = TargetSpec("nearest_neighbor", "chain")
        res = run_pipeline(tspec, space, trap, species, symmetry="reflection_z", seed=7)
        assert space.mu[0] <= res.mu <= space.mu[1]
        assert np.all(res.pin_frequencies >= space.pin[0] - 1e-12)
        assert np.all(res.pin_frequencies <= space.pin[1] + 1e-12)
        coupled = res.drive.mask_for(res.spectrum)
        gaps = np.abs(res.mu - res.spectrum.frequencies[coupled])
        assert gaps.min() > space.resonance_guard
        # realized matrix carries the target normalization
        peak_t, _ = max_abs_offdiag(res.target.matrix)
        peak_r, _ = max_abs_offdiag(res.realized.matrix)
        assert peak_r == pytest.approx(peak_t, rel=1e-9)

    def test_symmetric_final_pattern(self, species):
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        space = _space(mu_grid=5, restarts=2)
        tspec = TargetSpec("nearest_neighbor", "chain")
        res = run_pipeline(tspec, space, trap, species, symmetry="reflection_z", seed=8)
        cells = symmetry_orbits(res.crystal, "reflection_z")
        assert cells.n_orbits == 2
        for orbit in cells.orbits:
            assert np.ptp(res.pin_frequencies[list(orbit)]) == 0.0

    def test_chain_epsilon_does_not_depend_on_the_seed(self):
        # the full nn_chain_12 preset at five pipeline seeds: on its 8-point
        # beatnote grid every seed ends at the one optimum (seeds 1-5 span
        # 0.0285430-0.0285552); on 24 points seeds 3-5 ended 1.3-3.5x worse
        epsilons = [run_scenario(nn_chain_12(), seed=seed).epsilon for seed in range(1, 6)]
        assert max(epsilons) <= 1.001 * min(epsilons), epsilons

    def test_every_design_evaluation_is_one_epsilon_parts_call(self, monkeypatch):
        # a tracer of PinProblem.epsilon_parts sees every evaluation of
        # stages 1-3; stage 1 once evaluated its rounds past it
        parts_calls, lane_counts = [], []
        parts, lockstep = PinProblem.epsilon_parts, quasinewton.minimize_lockstep

        def counted_parts(self, *args, **kwargs):
            parts_calls.append(1)
            return parts(self, *args, **kwargs)

        def counted_lockstep(evaluate, *args, **kwargs):
            def counted(points, lanes):
                lane_counts.append(lanes.size)
                return evaluate(points, lanes)

            return lockstep(counted, *args, **kwargs)

        monkeypatch.setattr(PinProblem, "epsilon_parts", counted_parts)
        monkeypatch.setattr(quasinewton, "minimize_lockstep", counted_lockstep)
        monkeypatch.setattr(optimizer, "minimize_lockstep", counted_lockstep)
        result = run_scenario(nn_chain_12(fast=True))
        assert len(parts_calls) == len(lane_counts)
        # stage 1's rounds of many lanes and stage 3's one-lane rounds among them
        assert max(lane_counts) > 1 and lane_counts.count(1) >= result.iterations["stage3_evals"]

    @pytest.mark.parametrize("choice", [{"symmetry": "C7"}, {"final_geometry": "bogus"}])
    def test_unknown_choice_raises_before_stage1(self, species, monkeypatch, choice):
        # both used to raise only after the whole stage-1 grid had run
        def no_stage1(*args, **kwargs):
            raise AssertionError("ran stage 1 for an unknown choice")

        monkeypatch.setattr(optimizer, "stage1_search", no_stage1)
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        (value,) = choice.values()
        with pytest.raises(InvalidArgumentError, match=f"unknown .*{value!r}"):
            run_pipeline(TargetSpec("nearest_neighbor", "chain"), _space(), trap, species, **choice)

    #: each entry point that takes a seed, and the stage-1 step it must not reach with a bad one
    SEEDED = {"run_pipeline": (run_pipeline, "stage1_search"), "stage1_search": (stage1_search, "stage1_geometry")}

    def _raises_before_stage1(self, species, monkeypatch, entry, seed, message):
        call, step = self.SEEDED[entry]

        def no_stage1(*args, **kwargs):
            raise AssertionError(f"ran {step} for seed {seed!r}")

        monkeypatch.setattr(optimizer, step, no_stage1)
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=4)
        with pytest.raises(InvalidArgumentError, match=message):
            call(TargetSpec("nearest_neighbor", "chain"), _space(), trap, species, seed=seed)

    @pytest.mark.parametrize("entry", sorted(SEEDED))
    def test_negative_seed_raises_before_stage1(self, species, monkeypatch, entry):
        # numpy's SeedSequence used to raise a bare ValueError, after the
        # stage-1 geometry was built and its feasibility tests had run
        self._raises_before_stage1(species, monkeypatch, entry, -1, "seed must be nonnegative, got -1")

    @pytest.mark.parametrize("entry", sorted(SEEDED))
    def test_fractional_seed_raises_before_stage1(self, species, monkeypatch, entry):
        # used to raise a bare TypeError from numpy's SeedSequence, after
        # stage 1 had built its geometry and tested its first cell
        self._raises_before_stage1(species, monkeypatch, entry, 1.5, "seed must be an integer, got 1.5")


class TestSearchSpaceValidation:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(InvalidArgumentError):
            _space(mu=(0.8 * MHZ, 0.6 * MHZ))

    @pytest.mark.parametrize(
        "controls",
        [
            {"max_iter": 0},
            {"max_iter": -1},
            {"max_iter": 2.5},
            {"restarts": 2.5},
            {"mu_grid": 2.5},
            {"omega_grid": 2.5},
        ],
    )
    def test_rejects_bad_search_controls(self, controls):
        # max_iter=0 used to return the start point of every search as the
        # design; max_iter=2.5 was accepted though no iteration count equals
        # it, and fractional grid sizes and restarts raised a bare TypeError
        # in stage 1
        with pytest.raises(InvalidArgumentError):
            _space(**controls)

    @pytest.mark.parametrize("axes", [(), ""])
    def test_rejects_empty_pin_axes(self, axes):
        # an empty set used to be a valid search whose pins act on no axis
        with pytest.raises(InvalidArgumentError, match="^pin axes must name at least one of x, y, z$"):
            _space(pin_axes=axes)

    def test_numpy_integer_counts_are_accepted(self):
        space = _space(max_iter=np.int64(3), restarts=np.int64(2), mu_grid=np.int64(4), omega_grid=np.int64(1))
        assert (space.max_iter, space.restarts, space.mu_grid, space.omega_grid) == (3, 2, 4, 1)

    @pytest.mark.parametrize(
        "bounds",
        [
            {"pin": (0.0, np.nan)},
            {"pin": (0.0, np.inf)},
            {"pin": (-np.inf, 0.4 * MHZ), "allow_anticonfinement": True},
            {"mu": (np.nan, 0.75 * MHZ)},
            {"mu": (0.6 * MHZ, np.inf)},
            {"omega_scan": (0.25 * MHZ, np.nan)},
            {"omega_scan": (0.25 * MHZ, np.inf)},
        ],
    )
    def test_rejects_nonfinite_bounds(self, bounds):
        # pin=(0, nan) used to end in numpy's "Eigenvalues did not converge"
        # and pin=(0, inf) in an OverflowError
        with pytest.raises(InvalidArgumentError, match="finite"):
            _space(**bounds)

    @pytest.mark.parametrize("name", ["resonance_guard", "start_fraction"])
    @pytest.mark.parametrize("value", [np.nan, -1.0, np.inf])
    def test_rejects_bad_guard_and_start_fraction(self, name, value):
        # a NaN guard used to switch the guard off without a word
        with pytest.raises(InvalidArgumentError, match=name):
            _space(**{name: value})

    def test_anticonfinement_needs_flag(self):
        with pytest.raises(InvalidArgumentError):
            _space(pin=(-0.2 * MHZ, 0.4 * MHZ))
        space = _space(pin=(-0.2 * MHZ, 0.4 * MHZ), allow_anticonfinement=True)
        assert space.pinning_sign == "free"
        lo, hi = space.pin_curvature_bounds
        assert lo == pytest.approx(-((0.2 * MHZ) ** 2))
        assert hi == pytest.approx((0.4 * MHZ) ** 2)


def _parent_sign_system(problem, drive, species):
    """`sign_feasibility`'s system built from the per-ion gradient form it
    had before the orbit sum: one column per ion, its Jacobian's pinned
    rows summed by fancy indexing, stacked."""
    native = mode_spectrum(problem.a0, freq_scale=problem.wbar, coords=problem.coords, n_ions=problem.n_ions)
    jac = coupling_jacobian_diag(native, drive, species)
    n = problem.n_ions
    cols = np.stack([jac[:, :, rows].sum(axis=2) for rows in problem.param_rows], axis=2)
    k, l = np.triu_indices(n, 1)
    grads = CouplingGradient(all_pairs(n), np.arange(n), cols[k, l])
    j_native = coupling_matrix(native, drive, species)
    return build_sign_constraints(problem.target, j_native, grads, rows="sign_mismatch")


def _pinned_coupling(problem, drive, species, ion, curvature):
    """The native block's J with `curvature` added on every pinned row of `ion`."""
    a = problem.a0.copy()
    rows = problem.param_rows[ion]
    a[rows, rows] += curvature
    spectrum = mode_spectrum(a, freq_scale=problem.wbar, coords=problem.coords, n_ions=problem.n_ions)
    return coupling_matrix(spectrum, drive, species).matrix


class TestSignFeasibility:
    """`optimizer.sign_feasibility` on a 5-ion chain pinned along y and the
    12-ion ladder pinned along y and z (two block rows per ion)."""

    CASES = {
        "chain5_y": (_chain5, ("y",), 0.85),
        "ladder12_yz": (_ladder12, ("y", "z"), 0.45),
    }

    def _setup(self, species, case):
        make, pin_axes, mu_mhz = self.CASES[case]
        crystal = make(species)
        n = crystal.n_ions
        rng = np.random.default_rng(n)
        signs = np.triu(rng.choice([-1.0, 1.0], (n, n)), 1)
        problem = PinProblem(crystal, signs + signs.T, default_drive_axis(pin_axes), pin_axes)
        drive = DriveConfig(mu=mu_mhz * MHZ, drive_axis=default_drive_axis(pin_axes))
        space = _space(pin_axes=pin_axes)
        return problem, drive, space

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_are_signed_pinning_derivatives(self, species, case):
        problem, drive, space = self._setup(species, case)
        system, _ = optimizer.sign_feasibility(problem, drive, species, space)
        assert system.n_rows > 0
        h = 1e-4 * problem.wbar**2
        fd = []
        for i in range(problem.n_ions):
            up, down = (_pinned_coupling(problem, drive, species, i, step) for step in (h, -h))
            fd.append((up - down) / (2 * h))
        for row, (k, l, sign) in zip(system.matrix, system.provenance):
            want = sign * np.array([d[k, l] for d in fd])
            assert row == pytest.approx(want, rel=1e-5, abs=1e-6 * np.abs(want).max())

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_keep_the_per_ion_gradient_bits(self, species, case):
        problem, drive, space = self._setup(species, case)
        system, _ = optimizer.sign_feasibility(problem, drive, species, space)
        want = _parent_sign_system(problem, drive, species)
        assert system.provenance == want.provenance and system.excluded == want.excluded
        assert system.matrix.tobytes() == want.matrix.tobytes()

    def test_native_block_is_decomposed_once(self, species, monkeypatch):
        problem, drive, space = self._setup(species, "chain5_y")
        calls, lone = [], optimizer.mode_spectrum
        monkeypatch.setattr(optimizer, "mode_spectrum", lambda *a, **kw: calls.append(1) or lone(*a, **kw))
        for mu in (0.85, 0.9, 0.95):
            optimizer.sign_feasibility(problem, replace(drive, mu=mu * MHZ), species, space)
        assert len(calls) == 1

    def test_unstable_native_block_fails_every_cell(self, species, monkeypatch):
        # an equidistant 12-ion chain in a weak transverse trap buckles along y
        trap = TrapConfig(2.0 * MHZ, 0.1 * MHZ, 0.25 * MHZ, n_ions=12)
        space = _space()
        spec = TargetSpec("nearest_neighbor", "chain")
        crystal = stage1_geometry(spec, trap, species, 0.25 * MHZ, "z")
        problem = PinProblem(crystal, build_target(spec, crystal), "y", ("y",))
        calls, lone = [], optimizer.mode_spectrum
        monkeypatch.setattr(optimizer, "mode_spectrum", lambda *a, **kw: calls.append(1) or lone(*a, **kw))
        mus = np.linspace(*space.mu, 4)
        cells = [optimizer._cell_verdict(problem, 0.25 * MHZ, mu, "y", species, space) for mu in mus]
        assert [cell.verdict for cell in cells] == ["unstable"] * 4
        assert len(calls) == 4  # the exception is raised again, not cached
        with pytest.raises(UnstableCrystalError):
            problem.native_spectrum


class TestUntweezedBaseline:
    def test_one_batch_gives_each_beatnote_its_lone_bits(self, monkeypatch):
        # 400 beatnotes across the y modes of a 12-ion chain, some within the
        # guard of a mode, as lanes of one batch call, against lone calls
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=12)
        spec, mu_range = TargetSpec("nearest_neighbor", "chain"), (0.55 * MHZ, 0.85 * MHZ)
        batches, batch = [], PinProblem.epsilon_parts

        def counted(self, k_stack, beat, *rest):
            batches.append((len(k_stack), len(beat)))
            return batch(self, k_stack, beat, *rest)

        monkeypatch.setattr(PinProblem, "epsilon_parts", counted)
        best_eps, best_mu, curve = optimizer.untweezed_baseline(spec, trap, YB171, mu_range)
        monkeypatch.undo()
        # one unpinned block that the 400 beatnote rows share
        assert batches == [(1, 400)]
        crystal = solve_equilibrium(trap, YB171, 12)
        problem = PinProblem(crystal, build_target(spec, crystal), "y", ("y",))
        lone = [(float(mu), problem.epsilon(np.zeros(12), mu)) for mu in np.linspace(*mu_range, 400)]
        want = [(mu, float(eps)) for mu, eps in lone if np.isfinite(eps)]
        assert 300 < len(want) < 400
        assert repr(curve) == repr(want)
        assert (best_mu, best_eps) == min(want, key=lambda p: (p[1], p[0]))

    @pytest.mark.parametrize("n_scan", [0, -2])
    def test_rejects_empty_scan_before_solving(self, n_scan, monkeypatch):
        # n_scan=0 used to blame the resonance guard; -2 ended in numpy's ValueError
        def no_solve(*args, **kwargs):
            raise AssertionError("solved an equilibrium for an empty scan")

        monkeypatch.setattr(optimizer, "solve_equilibrium", no_solve)
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=5)
        with pytest.raises(InvalidArgumentError, match="n_scan"):
            optimizer.untweezed_baseline(
                TargetSpec("nearest_neighbor", "chain"), trap, YB171, (0.6 * MHZ, 0.75 * MHZ), n_scan=n_scan
            )

    @pytest.mark.parametrize("n_scan", [2.5, 20.0])
    def test_rejects_non_integer_scan_before_solving(self, n_scan, monkeypatch):
        # used to solve the crystal and end in numpy's bare TypeError from linspace
        def no_solve(*args, **kwargs):
            raise AssertionError("solved an equilibrium for a non-integer scan")

        monkeypatch.setattr(optimizer, "solve_equilibrium", no_solve)
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=5)
        with pytest.raises(InvalidArgumentError, match=f"n_scan must be an integer, got {n_scan}"):
            optimizer.untweezed_baseline(
                TargetSpec("nearest_neighbor", "chain"), trap, YB171, (0.6 * MHZ, 0.75 * MHZ), n_scan=n_scan
            )

    @pytest.mark.parametrize(
        "mu_range",
        [(-1.0, 0.7 * MHZ), (np.nan, 0.75 * MHZ), (0.6 * MHZ, np.inf), (0.75 * MHZ, 0.6 * MHZ)],
        ids=["negative", "nan", "inf", "reversed"],
    )
    def test_rejects_bad_mu_range_before_solving(self, mu_range, monkeypatch):
        # (-1, 0.7 MHz) used to return best mu = -1 rad/s, (nan, 0.75 MHz) an
        # epsilon with only a RuntimeWarning, (0.6 MHz, inf) a ResonanceError
        def no_solve(*args, **kwargs):
            raise AssertionError("solved an equilibrium for a bad beatnote range")

        monkeypatch.setattr(optimizer, "solve_equilibrium", no_solve)
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=5)
        with pytest.raises(InvalidArgumentError, match="mu_range"):
            optimizer.untweezed_baseline(TargetSpec("nearest_neighbor", "chain"), trap, YB171, mu_range, n_scan=20)

    @pytest.mark.parametrize("drive_axis", [None, "y"], ids=["default_drive", "explicit_drive"])
    def test_rejects_unknown_pin_axis_before_solving(self, drive_axis, monkeypatch):
        # with an explicit drive axis this used to solve the crystal and then
        # raise a bare KeyError: 'q' from PinProblem
        def no_solve(*args, **kwargs):
            raise AssertionError("solved an equilibrium for an unknown pinning axis")

        monkeypatch.setattr(optimizer, "solve_equilibrium", no_solve)
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=5)
        with pytest.raises(InvalidArgumentError, match="unknown pin axis 'q'"):
            optimizer.untweezed_baseline(
                TargetSpec("nearest_neighbor", "chain"), trap, YB171, (0.6 * MHZ, 0.75 * MHZ),
                drive_axis=drive_axis, pin_axes=("q",), n_scan=20,
            )

    def test_pin_problem_rejects_unknown_pin_axis_first(self, chain5, monkeypatch):
        def no_hessian(*args, **kwargs):
            raise AssertionError("built a Hessian for an unknown pinning axis")

        t = build_target(TargetSpec("nearest_neighbor", "chain"), chain5)
        monkeypatch.setattr(optimizer, "mass_scaled_hessian", no_hessian)
        with pytest.raises(InvalidArgumentError, match="unknown pin axis 'q'"):
            PinProblem(chain5, t, "y", ("y", "q"))
