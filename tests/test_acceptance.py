"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the heavyweight pipeline scenarios are shared across criteria
through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from tweezer_ising import (
    YB171,
    YB_PLUS_LINES,
    DriveConfig,
    TrapConfig,
    TweezerBeam,
    build_hessian,
    coupling_matrix,
    differential_stark_shift,
    ising_phase,
    lamb_dicke,
    length_scale,
    misalignment_scan,
    mode_spectrum,
    scattering_rate,
    solve_equilibrium,
    tweezer_trap_frequency,
    untweezed_baseline,
)
from tweezer_ising.coupling import max_abs_offdiag
from tweezer_ising.feasibility import SignConstraintSystem, feasibility_test
from tweezer_ising.modes import TweezerPattern, block_coords
from tweezer_ising.scenarios import (
    frustrated_ladder_12,
    misalignment_settings,
    nn_chain_12,
    power_law_chain_12,
    power_law_exponents,
    run_scenario,
    triangular_af_19,
)
from tweezer_ising.sensitivity import all_pairs, coupling_gradient_adjoint, coupling_gradient_fd

MHZ = 2 * np.pi * 1e6


def _report(number, name, ok, detail):
    print(f"\nacceptance {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def nn_result():
    return run_scenario(nn_chain_12())


@pytest.fixture(scope="module")
def sl_result():
    return run_scenario(frustrated_ladder_12())


@pytest.fixture(scope="module")
def tl_result():
    return run_scenario(triangular_af_19())


def test_criterion_1_analytic_oracles():
    t0 = time.perf_counter()
    trap = TrapConfig(3.0 * MHZ, 3.0 * MHZ, 0.4 * MHZ, n_ions=2)
    crystal = solve_equilibrium(trap, YB171, 2)
    spec = mode_spectrum(build_hessian(crystal))
    axial = np.sort(spec.frequencies[spec.modes_along("z")])
    expected = np.array([trap.omega_z, np.sqrt(3.0) * trap.omega_z])
    mode_err = np.abs(axial / expected - 1.0).max()

    trap3 = TrapConfig(3.0 * MHZ, 3.0 * MHZ, 0.4 * MHZ, n_ions=3)
    crystal3 = solve_equilibrium(trap3, YB171, 3)
    ell = length_scale(trap3.omega_z, YB171)
    z = np.sort(crystal3.positions[:, 2]) / ell
    ratio = (5.0 / 4.0) ** (1.0 / 3.0)
    pos_err = max(abs(z[0] + ratio) / ratio, abs(z[2] - ratio) / ratio, abs(z[1]))
    elapsed = time.perf_counter() - t0
    ok = mode_err < 1e-9 and pos_err < 1e-9 and elapsed < 1.0
    _report(1, "analytic-oracles", ok,
            f"mode rel err {mode_err:.2e}, position rel err {pos_err:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_oracle_equivalence():
    t0 = time.perf_counter()
    rng_master = np.random.SeedSequence(2024)
    worst = 0.0
    n_cases = 100
    for case in range(n_cases):
        rng = np.random.default_rng(rng_master.spawn(1)[0])
        n = int(rng.integers(2, 7))
        trap = TrapConfig(2.0 * MHZ, rng.uniform(0.5, 0.9) * MHZ, rng.uniform(0.1, 0.2) * MHZ, n_ions=n)
        crystal = solve_equilibrium(trap, YB171, n)
        pins = rng.uniform(0.0, 0.35, n) * MHZ
        pattern = TweezerPattern.from_frequencies(pins, axes="y")
        spec = mode_spectrum(build_hessian(crystal, pattern))
        mu = rng.uniform(1.03, 1.25) * spec.frequencies.max()
        drive = DriveConfig(mu=mu, drive_axis="y")
        yc = block_coords(n, ["y"])
        pairs = all_pairs(n)
        adj = coupling_gradient_adjoint(spec, drive, pairs, YB171, coords=yc)

        from tweezer_ising.modes import mass_scaled_hessian

        def builder(kvec, crystal=crystal, pattern=pattern, drive=drive, yc=yc):
            a = mass_scaled_hessian(crystal.positions, crystal.trap, YB171, pattern.curvatures).copy()
            a[yc, yc] += kvec
            return coupling_matrix(mode_spectrum(a, freq_scale=crystal.trap.omega_bar), drive, YB171)

        fd = coupling_gradient_fd(builder, np.zeros(n), step=1e-4 * trap.omega_bar**2, pairs=pairs)
        worst = max(worst, np.abs(adj.values - fd.values).max() / np.abs(adj.values).max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    _report(2, "adjoint-gradient", ok, f"{n_cases} cases, worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_magnus_consistency():
    t0 = time.perf_counter()
    trap = TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.12 * MHZ, n_ions=3)
    crystal = solve_equilibrium(trap, YB171, 3)
    spec = mode_spectrum(build_hessian(crystal))
    mu = 0.67 * MHZ
    drive = DriveConfig(mu=mu, drive_axis="y", g=0.02 * MHZ, k_eff=1e7)
    j = coupling_matrix(spec, drive, YB171).matrix
    # 2000 mu-periods hold 200-300 beats at mu - w_m; 200 periods biased the (0, 2) slope by 1.1%
    t_axis = np.linspace(0.0, 2000 * 2 * np.pi / mu, 40001)
    worst = 0.0
    for a, b in ((0, 1), (0, 2), (1, 2)):
        beta = ising_phase(spec, drive, a, b, t_axis, YB171)
        slope = np.polyfit(t_axis, beta, 1)[0]
        worst = max(worst, abs(slope / j[a, b] - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and elapsed < 10.0
    _report(3, "magnus-consistency", ok, f"worst slope dev {worst:.2%}, {elapsed:.1f}s")


def test_criterion_4_nearest_neighbor_scenario(nn_result):
    t0 = time.perf_counter()
    scenario = nn_chain_12()
    baseline_eps, baseline_mu, _ = untweezed_baseline(
        scenario.target,
        scenario.trap,
        YB171,
        scenario.space.mu,
        drive_axis=scenario.drive_axis,
        pin_axes=scenario.space.pin_axes,
    )
    elapsed = time.perf_counter() - t0
    ratio = baseline_eps / nn_result.epsilon
    ok = ratio >= 3.0 and elapsed < 300.0
    _report(
        4,
        "nearest-neighbor-chain",
        ok,
        f"pinned eps {nn_result.epsilon:.4f} vs tweezer-free {baseline_eps:.4f} "
        f"({ratio:.1f}x, needs >= 3x), baseline mu/2pi {baseline_mu / MHZ:.3f} MHz",
    )


def test_criterion_5_power_law_sweep():
    exponents = power_law_exponents()
    curves = {"even": [], "uneven": []}
    unpinned = {}
    uneven_trap = power_law_chain_12(1.5, even=False).trap
    uneven_crystal = solve_equilibrium(uneven_trap, YB171, uneven_trap.n_ions)
    for xi in exponents:
        for label, even in (("even", True), ("uneven", False)):
            res = run_scenario(power_law_chain_12(xi, even))
            curves[label].append(res.epsilon)
        sc = power_law_chain_12(xi, even=False)
        unpinned[xi], _, _ = untweezed_baseline(
            sc.target, sc.trap, YB171, sc.space.mu,
            drive_axis=sc.drive_axis, pin_axes=sc.space.pin_axes, crystal=uneven_crystal,
        )
    details = []
    ok = True
    for label in ("even", "uneven"):
        eps = np.array(curves[label])
        xi_min = exponents[int(np.argmin(eps))]
        details.append(f"{label}: min at xi={xi_min:g}")
        ok &= 2.5 <= xi_min <= 3.5
    i15 = exponents.index(1.5)
    pinned_15 = curves["uneven"][i15]
    ok &= pinned_15 < unpinned[1.5]
    details.append(f"xi=1.5 pinned {pinned_15:.4f} < unpinned {unpinned[1.5]:.4f}")
    _report(5, "power-law-sweep", ok, "; ".join(details))


def _sign_and_residual(result):
    t = result.target.matrix
    j = result.realized.matrix
    iu = np.triu_indices(t.shape[0], 1)
    edges = t[iu] != 0
    signs_ok = int(np.sum(np.sign(j[iu][edges]) == np.sign(t[iu][edges])))
    max_t, _ = max_abs_offdiag(t)
    worst_residual = float(np.abs(j[iu][~edges]).max()) / max_t
    return signs_ok, int(edges.sum()), worst_residual


def test_criterion_6_two_dimensional_scenarios(sl_result, tl_result):
    sl_signs, sl_edges, sl_resid = _sign_and_residual(sl_result)
    tl_signs, tl_edges, tl_resid = _sign_and_residual(tl_result)
    ok = (
        sl_signs == sl_edges
        and tl_signs == tl_edges
        and sl_resid < 0.35
        and tl_resid < 0.35
        and sl_result.converged
        and tl_result.converged
    )
    _report(
        6,
        "two-dimensional-scenarios",
        ok,
        f"ladder signs {sl_signs}/{sl_edges} resid {sl_resid:.3f}; "
        f"triangular signs {tl_signs}/{tl_edges} resid {tl_resid:.3f} (cap 0.35)",
    )


def test_criterion_7_experimental_estimators():
    beam = TweezerBeam(power=1.0, waist=1e-6, wavelength=1070e-9)
    rate = scattering_rate(beam, YB_PLUS_LINES)
    omega_p = tweezer_trap_frequency(beam, YB_PLUS_LINES, YB171)
    stark = differential_stark_shift(beam, YB_PLUS_LINES)
    trap = TrapConfig(2.0 * MHZ, 1.5 * MHZ, 0.4 * MHZ, n_ions=1)
    spec = mode_spectrum(build_hessian(solve_equilibrium(trap, YB171, 1)))
    k_eff = np.sqrt(2.0) * 2 * np.pi / 369e-9
    eta = lamb_dicke(spec, k_eff, "z", YB171)[0, np.flatnonzero(spec.modes_along("z"))[0]]
    ok = (
        1.0 <= rate <= 4.0
        and 2 * np.pi * 100e3 <= omega_p <= 2 * np.pi * 400e3
        and 2 * np.pi * 6e3 <= stark <= 2 * np.pi * 24e3
        and abs(eta - 0.20) <= 0.02
    )
    _report(
        7,
        "experimental-estimators",
        ok,
        f"scattering {rate:.2f}/s in [1,4]; pinning {omega_p / (2 * np.pi * 1e3):.0f} kHz in [100,400]; "
        f"stark {stark / (2 * np.pi * 1e3):.1f} kHz in [6,24]; eta {eta:.3f} = 0.20 +/- 0.02",
    )


def test_criterion_8_misalignment_robustness(nn_result):
    scales, samples, seed = misalignment_settings()
    scan1 = misalignment_scan(nn_result, scales, samples, seed)
    scan2 = misalignment_scan(nn_result, scales, samples, seed)
    identical = scan1.records == scan2.records
    avgs = np.array([r[0] for r in scan1.records])
    eps = np.array([r[1] for r in scan1.records])
    small = avgs <= 100e-9
    median_small = float(np.median(eps[small]))
    improved = int(np.sum(eps < scan1.aligned_epsilon))
    ok = (
        identical
        and samples == 1000
        and scan1.n_failed == 0
        and median_small <= 2.0 * scan1.aligned_epsilon
        and improved >= 1
    )
    _report(
        8,
        "misalignment-robustness",
        ok,
        f"median eps {median_small:.4f} vs 2x aligned {2 * scan1.aligned_epsilon:.4f} "
        f"({int(small.sum())} samples <= 100 nm), {improved} samples improved, "
        f"deterministic={identical}",
    )


def test_criterion_9_feasibility_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    checks = 0
    ok = True
    # fixed sanity cases
    empty = feasibility_test(SignConstraintSystem(np.zeros((0, 3)), (), ()))
    ok &= empty.feasible and np.isinf(empty.margin)
    opposing = feasibility_test(
        SignConstraintSystem(np.array([[1.0, 0.0], [-1.0, 0.0]]), ((0, 1, 1.0), (0, 2, 1.0)), ())
    )
    ok &= not opposing.feasible
    while checks < 1000:
        c, p = rng.integers(1, 5), rng.integers(1, 5)
        x = rng.standard_normal((c, p))
        prov = tuple((0, i + 1, 1.0) for i in range(c))
        v = feasibility_test(SignConstraintSystem(x, prov, ()))
        # row scaling invariance
        scaled = x.copy()
        scaled[rng.integers(0, c)] *= rng.uniform(0.1, 10.0)
        ok &= feasibility_test(SignConstraintSystem(scaled, prov, ())).feasible == v.feasible
        # witness validity
        if v.feasible:
            ok &= bool(np.all(x @ v.witness > 0))
            # monotonicity under row removal
            if c > 1:
                keep = list(range(c))
                keep.remove(int(rng.integers(0, c)))
                sub = feasibility_test(SignConstraintSystem(x[keep], tuple(prov[i] for i in keep), ()))
                ok &= sub.feasible
        checks += 1
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(9, "feasibility-properties", ok, f"{checks} randomized cases, {elapsed:.1f}s")
