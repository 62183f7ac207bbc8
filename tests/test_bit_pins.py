"""The stacked numpy forms the minimizer, the objective and the scan's
grader rely on give the bits of their one-lane forms.

`quasinewton.minimize_lockstep`, `PinProblem.epsilon_parts` and
`coupling.grade_hessians` run many lanes with one call each, and every
stage-1 design and misalignment record depends on each lane getting the
bits a lone run would give it.  The lone calls `mode_projections`,
`max_abs_offdiag` and `coupling_error` are one-lane calls of the same
stacked steps, so they depend on it too.  That holds because, on
the pinned numpy 2.4.6 with its OpenBLAS 0.3.31, each stacked form below
reduces each row with the same kernel and in the same order as the lone
form.  Nothing in numpy promises it, so these tests assert it: a numpy or
BLAS change that breaks it fails here, by name, instead of moving ε
silently.  They assert; they do not skip.
"""

import math

import numpy as np
import pytest

from tweezer_ising.coupling import _largest_offdiag, _mode_sum, max_abs_offdiag
from tweezer_ising.modes import _placement

SEED = 20261019


def _rows(rng, count, p):
    """count rows of length p, each at its own scale from 1e-30 to 1e5."""
    scales = 10.0 ** rng.uniform(-30, 5, (count, 1))
    return rng.standard_normal((count, p)) * scales


def _same(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestRowDots:
    """`np.vecdot` over rows against one `ndarray.dot` per row, as the
    two-loop recursion, the descent, Armijo and curvature tests use it."""

    @pytest.mark.parametrize("p", range(1, 80))
    def test_contiguous_rows(self, p):
        rng = np.random.default_rng([SEED, p])
        a, b = _rows(rng, 24, p), _rows(rng, 24, p)
        got = np.vecdot(a, b)
        assert all(_same(got[i], a[i].dot(b[i])) for i in range(24))
        kept = np.vecdot(a, b, keepdims=True)
        assert kept.shape == (24, 1) and _same(kept[:, 0], got)

    @pytest.mark.parametrize("p", [1, 2, 5, 12, 19, 33, 57, 79])
    def test_rows_of_a_curvature_memory(self, p):
        # the recursion reads pair j of every lane from a (K, m, P) memory:
        # rows with a stride of m * P between them
        rng = np.random.default_rng([SEED, 100 + p])
        memory = _rows(rng, 21 * 8, p).reshape(21, 8, p)
        q = _rows(rng, 21, p)
        pair_major = memory.transpose(1, 0, 2)
        for j in range(8):
            got = np.vecdot(pair_major[j], q, keepdims=True)[:, 0]
            assert all(_same(got[i], memory[i, j].copy().dot(q[i])) for i in range(21))


class TestLaneReductions:
    """The objective's per-lane reductions, stacked."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_flat_residual_norm(self, n):
        # ε's norm: sqrt(r·r) over each lane's flat N² residual, which the
        # lone coupling_error takes too, for any N
        rng = np.random.default_rng([SEED, n])
        r = rng.standard_normal((84, n, n)) * 10.0 ** rng.uniform(-3, 3, (84, 1, 1))
        flat = r.reshape(84, n * n)
        got = np.sqrt(np.vecdot(flat, flat))
        for i in range(84):
            lone = math.sqrt(r[i].reshape(-1).dot(r[i].reshape(-1)))
            assert _same(got[i], lone) and _same(got[i], np.linalg.norm(r[i]))

    @pytest.mark.parametrize("n", [5, 12, 19, 24])
    def test_flat_lane_sums(self, n):
        # the gradient's (r * J).sum() and (G * dJ/dmu).sum() of each lane
        rng = np.random.default_rng([SEED, 200 + n])
        a = rng.standard_normal((84, n, n)) * 10.0 ** rng.uniform(-20, 5, (84, 1, 1))
        got = a.reshape(84, -1).sum(1)
        assert all(_same(got[i], a[i].sum()) for i in range(84))

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 19])
    def test_largest_offdiag(self, n):
        # the objective's and the grader's stacked search against the lone
        # max_abs_offdiag, with ties, NaN entries and all-zero matrices mixed in
        rng = np.random.default_rng([SEED, 900 + n])
        j = rng.standard_normal((40, n, n)) * 10.0 ** rng.uniform(-20, 5, (40, 1, 1))
        j[1::5] = 0.0
        j[2::5, -1, 0] = np.nan
        j[3::5] = np.round(j[3::5])
        peaks, at = _largest_offdiag(j)
        for i in range(40):
            peak, (p, q) = max_abs_offdiag(j[i])
            assert _same(peaks[i], peak) and int(at[i]) == p * n + q
        assert (peaks[1::5] == 0.0).all()
        if n > 1:
            assert np.isnan(peaks[2::5]).all()

    @pytest.mark.parametrize("width", [1, 2, 6, 8, 9, 12, 16])
    def test_orbit_sums(self, width):
        # each orbit's sum of its per-row terms: `take` keeps the (lanes,
        # orbits, width) result row-major, and each orbit sums in 1-D order
        rng = np.random.default_rng([SEED, 300 + width])
        per_row = rng.standard_normal((21, 57)) * 10.0 ** rng.uniform(-20, 5, (21, 57))
        rows = np.stack([rng.permutation(57)[:width] for _ in range(3)])
        got = per_row.take(rows, axis=1).sum(axis=2)
        assert all(_same(got[i], per_row[i][rows].sum(axis=1)) for i in range(21))


class TestStackedMatmuls:
    """The batch's and the gradient's stacked matmuls against one lone call
    per lane, for every lane count stage 1 reaches (up to 84)."""

    @pytest.mark.parametrize("shape", [(12, 12), (19, 19), (12, 24), (19, 57)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_lane_counts(self, shape):
        n, b = shape
        rng = np.random.default_rng([SEED, n, b])
        proj = rng.standard_normal((n, b))
        for k in range(1, 85):
            u = rng.standard_normal((k, b, b))
            theta = 1.0 / rng.standard_normal((k, b))
            g_mat = rng.standard_normal((k, n, n))
            mu = rng.uniform(0.5, 2.0, k)
            w = proj @ u
            wt = w * theta[:, None, :]
            j = wt @ w.transpose(0, 2, 1)
            y = wt @ u.transpose(0, 2, 1)
            z = g_mat.transpose(0, 2, 1) @ y
            per_row = np.matmul(z.transpose(0, 2, 1).reshape(k, b, 1, n), y.transpose(0, 2, 1).reshape(k, b, n, 1))
            dtheta = (-2.0 * mu)[:, None] * theta**2
            dj = (w * dtheta[:, None, :]) @ w.transpose(0, 2, 1)
            for i in range(k):
                w_i = proj @ u[i]
                y_i = wt[i] @ u[i].T
                z_i = g_mat[i].T @ y_i
                assert _same(w[i], w_i)
                assert _same(j[i], wt[i] @ w[i].T)
                assert _same(y[i], y_i) and _same(z[i], z_i)
                assert _same(per_row[i], np.matmul(z_i.T.reshape(b, 1, n), y_i.T.reshape(b, n, 1)))
                assert _same(dj[i], (w[i] * (-2.0 * float(mu[i]) * theta[i] ** 2)) @ w[i].T)


class TestGradingForms:
    """The scan grader's stacked forms against one lone call per lane, for
    every block size up to 16 (`experiment.SCAN_BLOCK`), on the full 3N
    spectra of a 12- and a 19-ion crystal."""

    @staticmethod
    def _eigenvectors(rng, k, b):
        return np.linalg.eigh(rng.standard_normal((k, b, b)) + rng.standard_normal((k, b, b)).transpose(0, 2, 1))[1]

    @pytest.mark.parametrize("n", [12, 19])
    def test_eigh(self, n):
        rng = np.random.default_rng([SEED, 400 + n])
        for k in (2, 5, 16):
            a = rng.standard_normal((k, 3 * n, 3 * n)) * 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
            a = 0.5 * (a + a.transpose(0, 2, 1))
            lam, vec = np.linalg.eigh(a)
            for i in range(k):
                lone = np.linalg.eigh(a[i])
                assert _same(lam[i], lone[0]) and _same(vec[i], lone[1])

    @pytest.mark.parametrize("n", [12, 19])
    def test_placement_projection(self, n):
        # the drive projection: one (N, 3N) placement product with a stack
        # of full eigenvector matrices, against one product per matrix
        rng = np.random.default_rng([SEED, 500 + n])
        b = 3 * n
        for axis in ("y", "yz", rng.standard_normal(3)):
            place = _placement(np.arange(b), n, axis)
            for k in range(1, 17):
                vec = self._eigenvectors(rng, k, b)
                got = place @ vec
                assert all(_same(got[i], place @ vec[i]) for i in range(k))

    @pytest.mark.parametrize("width", [24, 36])
    @pytest.mark.parametrize("n", [12, 19])
    def test_masked_mode_sums(self, n, width):
        # (pm * theta) @ pm^T over the masked modes, with pm = proj[..., mask]
        # laid out mask-outermost, as the lone proj[:, mask] is
        rng = np.random.default_rng([SEED, 600 + n, width])
        b = 3 * n
        for k in range(1, 17):
            proj = rng.standard_normal((k, n, b)) * 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
            lam = rng.uniform(0.1, 2.0, (k, b))
            mask = np.zeros(b, dtype=bool)
            mask[rng.permutation(b)[:width]] = True
            mu = 1.05
            pm = proj[..., mask]
            theta = 1.0 / (mu**2 - lam[..., mask])
            got = (pm * theta[..., None, :]) @ pm.swapaxes(-1, -2)
            for i in range(k):
                pm_i = proj[i][:, mask]
                assert _same(got[i], (pm_i * (1.0 / (mu**2 - lam[i][mask]))) @ pm_i.T)

    @pytest.mark.parametrize("n", [12, 19])
    def test_sign_pick(self, n):
        # each mode's largest-magnitude component made positive
        rng = np.random.default_rng([SEED, 700 + n])
        b = 3 * n
        for k in (1, 2, 5, 16):
            vec = self._eigenvectors(rng, k, b)
            vec[0, :, 0] = 0.0  # a zero column keeps its sign +1
            pick = np.argmax(np.abs(vec), axis=-2)
            signs = np.sign(np.take_along_axis(vec, pick[..., None, :], axis=-2))
            signs[signs == 0] = 1.0
            got = vec * signs
            for i in range(k):
                lone_pick = np.argmax(np.abs(vec[i]), axis=0)
                lone_signs = np.sign(vec[i][lone_pick, np.arange(b)])
                lone_signs[lone_signs == 0] = 1.0
                assert _same(got[i], vec[i] * lone_signs)

    @pytest.mark.parametrize("n", [12, 19])
    def test_symmetrized_zero_diagonal(self, n):
        # 0.5 (a + a^T) of each matrix, then its diagonal zeroed
        rng = np.random.default_rng([SEED, 800 + n])
        diagonal = np.arange(n)
        for k in (1, 2, 5, 16):
            a = rng.standard_normal((k, n, n)) * 10.0 ** rng.uniform(-20, 5, (k, 1, 1))
            got = 0.5 * (a + a.swapaxes(-1, -2))
            got[..., diagonal, diagonal] = 0.0
            for i in range(k):
                lone = 0.5 * (a[i] + a[i].T)
                lone.reshape(-1)[:: n + 1] = 0.0
                assert _same(got[i], lone)


class TestResolventRows:
    """The gradient kernel's resolvent rows ``_mode_sum(w, theta, u)`` =
    (w theta) u^T, stacked as the objective's gradient runs them, against
    the lone product `sensitivity.coupling_jacobian_diag` forms, at 1–16
    lanes of the 12- and 19-ion blocks and the ladder's y+z block."""

    @pytest.mark.parametrize("shape", [(12, 12), (19, 19), (12, 24)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_stacked_against_lone(self, shape):
        n, b = shape
        rng = np.random.default_rng([SEED, 1100 + n, b])
        proj = rng.standard_normal((n, b))
        for k in range(1, 17):
            u = TestGradingForms._eigenvectors(rng, k, b)
            w = proj @ u
            theta = 1.0 / rng.standard_normal((k, b)) * 10.0 ** rng.uniform(-14, -10, (k, 1))
            got = _mode_sum(w, theta, u)
            for i in range(k):
                assert _same(got[i], _mode_sum(w[i], theta[i], u[i]))
                assert _same(got[i], (w[i] * theta[i]) @ u[i].T)


class TestBeatnoteScan:
    """`optimizer.untweezed_baseline` evaluates its 400 beatnotes as the
    lanes of one `epsilon_parts` call: its stacked forms at 400 lanes
    of the 12- and 19-ion blocks, against one lone call per lane."""

    @pytest.mark.parametrize("n", [12, 19])
    def test_four_hundred_lanes(self, n):
        rng = np.random.default_rng([SEED, 1000 + n])
        k = 400
        a = rng.standard_normal((n, n))
        a = np.broadcast_to(a + a.T, (k, n, n)) + np.diag(rng.uniform(0.0, 1e-3, n))
        lam, u = np.linalg.eigh(a)
        place = _placement(np.arange(n) * 3 + 1, n, "y")
        theta = 1.0 / (rng.uniform(0.5, 2.0, (k, 1)) - lam)
        w = place @ u
        j = (w * theta[:, None, :]) @ w.transpose(0, 2, 1)
        j = 0.5 * (j + j.swapaxes(-1, -2))
        j[:, np.arange(n), np.arange(n)] = 0.0
        peaks, at = _largest_offdiag(j)
        r = rng.standard_normal((n, n)) - (1.0 / peaks)[:, None, None] * j
        flat = r.reshape(k, n * n)
        norms = np.sqrt(np.vecdot(flat, flat))
        for i in range(k):
            lam_i, u_i = np.linalg.eigh(a[i])
            assert _same(lam[i], lam_i) and _same(u[i], u_i)
            w_i = place @ u_i
            j_i = (w_i * theta[i]) @ w_i.T
            j_i = 0.5 * (j_i + j_i.T)
            j_i.reshape(-1)[:: n + 1] = 0.0
            assert _same(w[i], w_i) and _same(j[i], j_i)
            assert _same(peaks[i], max_abs_offdiag(j_i)[0])
            assert _same(norms[i], math.sqrt(r[i].reshape(-1).dot(r[i].reshape(-1))))
