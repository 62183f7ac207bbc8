import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tweezer_ising
from tweezer_ising import build_sign_constraints, feasibility_test
from tweezer_ising.errors import InvalidArgumentError
from tweezer_ising.feasibility import SignConstraintSystem
from tweezer_ising.sensitivity import CouplingGradient


def _system(rows):
    m = np.atleast_2d(np.asarray(rows, dtype=float))
    prov = tuple((0, i + 1, 1.0) for i in range(m.shape[0]))
    return SignConstraintSystem(m, prov, ())


class TestFeasibilityTest:
    def test_orthant_rows(self):
        v = feasibility_test(_system([[1.0, 0.0], [0.0, 1.0]]))
        assert v.feasible
        assert v.margin == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(v.witness, [1.0, 1.0])

    def test_opposing_rows_infeasible(self):
        v = feasibility_test(_system([[1.0, 0.0], [-1.0, 0.0]]))
        assert not v.feasible
        assert v.witness is None

    def test_empty_system_vacuously_feasible(self):
        v = feasibility_test(SignConstraintSystem(np.zeros((0, 3)), (), ()))
        assert v.feasible
        assert np.isinf(v.margin)
        assert np.allclose(v.witness, 0.0)

    def test_nonnegative_regime_can_flip_verdict(self):
        # only a negative pinning satisfies this row
        v_free = feasibility_test(_system([[-1.0, 0.0]]), pinning_sign="free")
        v_nn = feasibility_test(_system([[-1.0, 0.0]]), pinning_sign="nonnegative")
        assert v_free.feasible and not v_nn.feasible

    def test_witness_satisfies_strict_inequalities(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal((rng.integers(1, 5), rng.integers(1, 5)))
            v = feasibility_test(_system(x))
            if v.feasible:
                assert np.all(x @ v.witness > 1e-9 * (1 - 1e-9))
                assert np.abs(v.witness).max() == pytest.approx(1.0)

    @pytest.mark.parametrize("pinning_sign", ["free", "nonnegative"])
    def test_one_row_and_one_column_match_lp(self, pinning_sign):
        # reference: the margin LP solved directly
        from scipy.optimize import linprog

        rng = np.random.default_rng(7)
        lo = 0.0 if pinning_sign == "nonnegative" else -1.0
        for _ in range(100):
            n = int(rng.integers(1, 6))
            x = rng.standard_normal((1, n) if rng.random() < 0.5 else (n, 1))
            n_c, n_p = x.shape
            ref = linprog(
                np.r_[np.zeros(n_p), -1.0],
                A_ub=np.hstack([-x, np.ones((n_c, 1))]),
                b_ub=np.zeros(n_c),
                bounds=[(lo, 1.0)] * n_p + [(None, None)],
                method="highs",
            )
            v = feasibility_test(_system(x), pinning_sign=pinning_sign)
            assert v.margin == pytest.approx(-ref.fun, rel=1e-12, abs=1e-15)
            assert v.feasible == (-ref.fun > 1e-9)
            if v.feasible:
                assert np.all(x @ v.witness > 0)
                assert np.abs(v.witness).max() == 1.0
                assert lo <= v.witness.min()

    @given(
        arrays(np.float64, (3, 3), elements=st.floats(-2, 2, allow_nan=False)),
        st.floats(min_value=0.01, max_value=100.0),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_scaling_invariance(self, x, scale, row):
        v1 = feasibility_test(_system(x))
        scaled = x.copy()
        scaled[row] *= scale
        v2 = feasibility_test(_system(scaled))
        assert v1.feasible == v2.feasible

    @given(arrays(np.float64, (4, 3), elements=st.floats(-2, 2, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_monotonic_under_row_removal(self, x):
        full = feasibility_test(_system(x))
        if full.feasible:
            for keep in itertools.combinations(range(4), 3):
                sub = feasibility_test(_system(x[list(keep)]))
                assert sub.feasible

    def test_sign_grid_agreement_small_systems(self):
        # grid search can only certify feasibility; it must never beat the LP
        rng = np.random.default_rng(42)
        grid_1d = np.array([-1.0, -0.5, -1 / 3, 0.5, 1 / 3, 1.0])
        checked_both_ways = 0
        for _ in range(1000):
            c, p = rng.integers(1, 5), rng.integers(1, 5)
            x = np.round(rng.standard_normal((c, p)), 2)
            verdict = feasibility_test(_system(x))
            found = None
            for omega in itertools.product(grid_1d, repeat=p):
                if np.all(x @ np.array(omega) > 1e-9):
                    found = omega
                    break
            if found is not None:
                assert verdict.feasible, f"grid found {found} but LP said infeasible for {x}"
                checked_both_ways += 1
            if not verdict.feasible:
                assert found is None
        assert checked_both_ways > 100  # the sweep exercised real positives


class TestBuildSignConstraints:
    def _gradients(self, n):
        pairs = tuple((k, l) for k in range(n) for l in range(k + 1, n))
        rng = np.random.default_rng(n)
        return CouplingGradient(pairs, np.arange(n), rng.standard_normal((len(pairs), n)))

    def test_target_equal_to_normalized_native_gives_empty_system(self):
        rng = np.random.default_rng(1)
        j0 = rng.standard_normal((4, 4))
        j0 = j0 + j0.T
        np.fill_diagonal(j0, 0.0)
        target = j0 / np.abs(j0).max()
        system = build_sign_constraints(target, 5.0 * j0, self._gradients(4))
        assert system.n_rows == 0
        assert len(system.excluded) == 6
        assert feasibility_test(system).feasible

    def test_single_pair_row_equals_signed_gradient(self):
        grads = self._gradients(3)
        j0 = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 0.1], [0.2, 0.1, 0.0]])
        target = np.array([[0.0, 1.0, -0.9], [1.0, 0.0, 0.1], [-0.9, 0.1, 0.0]])
        system = build_sign_constraints(target, j0, grads, selection=[(0, 2)])
        assert system.n_rows == 1
        k, l, sign = system.provenance[0]
        assert (k, l) == (0, 2) and sign == -1.0
        assert np.allclose(system.matrix[0], -grads.row((0, 2)))

    def test_reversed_and_duplicated_gradient_pairs(self):
        # a pair's gradient may be listed as (l, k); a pair listed twice
        # keeps its first row
        values = np.arange(12.0).reshape(4, 3) + 1.0
        grads = CouplingGradient(((1, 0), (0, 2), (0, 2), (1, 2)), np.arange(3), values)
        j0 = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 0.1], [0.2, 0.1, 0.0]])
        target = np.array([[0.0, -1.0, -0.9], [-1.0, 0.0, 0.1], [-0.9, 0.1, 0.0]])
        system = build_sign_constraints(target, j0, grads, selection=[(0, 1), (2, 0), (1, 2)])
        assert system.provenance == ((0, 1, -1.0), (2, 0, -1.0))
        assert system.excluded == ((1, 2),)
        assert system.matrix.tobytes() == (-values[:2]).tobytes()

    def test_missing_gradient_rejected(self):
        grads = CouplingGradient(((0, 1),), np.arange(3), np.ones((1, 3)))
        j = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.2], [0.5, 0.2, 0.0]])
        with pytest.raises(InvalidArgumentError):
            build_sign_constraints(-j, j, grads, selection=[(0, 2)])

    def test_provenance_recorded_per_row(self):
        grads = self._gradients(4)
        rng = np.random.default_rng(2)
        j0 = rng.standard_normal((4, 4))
        j0 = j0 + j0.T
        np.fill_diagonal(j0, 0.0)
        target = -j0 / np.abs(j0).max()
        system = build_sign_constraints(target, j0, grads)
        assert system.n_rows == len(system.provenance)
        assert system.n_rows + len(system.excluded) == 6


def test_the_lp_solver_is_imported_on_first_use():
    # scipy.optimize, with the scipy.linalg it loads, is ~0.4 s of a process
    # start: importing the package and building every scenario leave it out;
    # the first LP brings it in
    script = textwrap.dedent(
        """
        import sys

        import tweezer_ising.cli
        from tweezer_ising import feasibility_test, scenarios
        from tweezer_ising.feasibility import SignConstraintSystem

        for fast in (False, True):
            scenarios.nn_chain_12(fast), scenarios.frustrated_ladder_12(fast), scenarios.triangular_af_19(fast)
            for exponent in scenarios.power_law_exponents(fast):
                for even in (False, True):
                    scenarios.power_law_chain_12(exponent, even, fast)
            scenarios.misalignment_settings(fast)
        before = "scipy.optimize" in sys.modules
        feasibility_test(SignConstraintSystem([[1.0, 0.0], [0.0, 1.0]], ((0, 1, 1.0), (0, 2, 1.0)), ()))
        print(before, "scipy.optimize" in sys.modules)
        """
    )
    src = str(Path(tweezer_ising.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]
