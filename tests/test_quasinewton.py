import math
from collections import deque

import numpy as np
import pytest

from tweezer_ising import TargetSpec, TrapConfig, solve_equilibrium, symmetry_orbits
from tweezer_ising.crystal import IonCrystal, make_lattice
from tweezer_ising.errors import InvalidArgumentError
from tweezer_ising.optimizer import PinProblem, beatnote_columns
from tweezer_ising import quasinewton
from tweezer_ising.quasinewton import MinimizeResult, minimize_box, minimize_lockstep
from tweezer_ising.targets import build_target

from conftest import MHZ


def quadratic(center, scales):
    center = np.asarray(center, float)
    scales = np.asarray(scales, float)

    def fg(x):
        d = x - center
        return float(np.sum(scales * d**2)), lambda: 2.0 * scales * d

    return fg


def rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2

    def grad():
        return np.array(
            [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1 - x[0]), 200.0 * (x[1] - x[0] ** 2)]
        )

    return f, grad


def barrier(x):
    # +inf region beyond x0 = 0.6; the optimum sits just inside it
    if x[0] > 0.6:
        return np.inf, lambda: np.zeros_like(x)
    d = x - np.array([0.55, 0.0])
    return float(d @ d), lambda: 2.0 * d


def _per_lane(objectives, log=None):
    """A `minimize_lockstep` evaluator that calls lane i's own objective;
    ``log`` collects each round's lanes and values."""

    def evaluate(points, lanes):
        values = [objectives[i](x) for i, x in zip(lanes.tolist(), points)]
        f = np.array([v for v, _ in values], dtype=float)
        if log is not None:
            log.append((lanes.tolist(), f.tolist()))
        return f, lambda rows: np.array([values[r][1]() for r in rows.tolist()])

    return evaluate


def _one(objective):
    """A one-point objective ``x -> (f, grad)`` as `minimize_box`'s one-lane evaluator."""
    return _per_lane((objective,))


#: the minimizer's one line search, kept in these tests' ids so that
#: their names match earlier runs of the suite
BACKTRACKING = pytest.mark.parametrize("search", ["backtracking"])


@BACKTRACKING
def test_unconstrained_quadratic(search):
    res = minimize_box(
        _one(quadratic([1.0, -2.0, 0.5], [1.0, 10.0, 0.1])),
        np.zeros(3),
        np.full(3, -10.0),
        np.full(3, 10.0),
    )
    assert res.converged
    assert np.allclose(res.x, [1.0, -2.0, 0.5], atol=1e-6)


@BACKTRACKING
def test_rosenbrock_inside_box(search):
    res = minimize_box(_one(rosenbrock), np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0))
    assert res.fun < 1e-12
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_active_bound_solution():
    # unconstrained optimum at (1, -2) but the box keeps x1 >= 0
    res = minimize_box(
        _one(quadratic([1.0, -2.0], [1.0, 1.0])), np.array([0.5, 0.5]), np.array([-5.0, 0.0]), np.full(2, 5.0)
    )
    assert res.converged
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-8)
    assert np.all(res.x >= [-5.0, 0.0]) and np.all(res.x <= [5.0, 5.0])


def test_monotone_history():
    res = minimize_box(_one(rosenbrock), np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0))
    h = np.array(res.history)
    assert np.all(np.diff(h) <= 0.0)


def test_deterministic():
    r1 = minimize_box(_one(rosenbrock), np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0))
    r2 = minimize_box(_one(rosenbrock), np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0))
    assert np.array_equal(r1.x, r2.x) and r1.fun == r2.fun


def test_barrier_region_avoided():
    # overshooting trials must be rejected and shortened, never accepted
    res = minimize_box(_one(barrier), np.array([0.0, 1.0]), np.full(2, -2.0), np.full(2, 2.0))
    assert res.x[0] <= 0.6
    assert np.allclose(res.x, [0.55, 0.0], atol=1e-6)
    assert np.all(np.isfinite(res.history))


def test_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        minimize_box(_one(rosenbrock), np.zeros(2), np.ones(2), np.zeros(2))

    def bad(x):
        return np.inf, lambda: np.zeros_like(x)

    with pytest.raises(InvalidArgumentError):
        minimize_box(_one(bad), np.zeros(2), np.zeros(2), np.ones(2))


@pytest.mark.parametrize(
    "controls",
    [
        {"memory": 0},
        {"memory": -1},
        {"max_iter": 0},
        {"max_iter": -5},
        {"memory": 2.5},
        {"max_iter": 2.5},
        {"memory": True, "max_iter": True},
        {"max_iter": True},
        {"memory": np.True_},
    ],
)
def test_rejects_bad_controls(controls):
    # memory=-1 used to raise a bare ValueError from deque, max_iter=0
    # returned the start point as an unconverged result, max_iter=2.5
    # ran on past its cap, which no iteration count equals, and
    # memory=True, max_iter=True ran one iteration
    with pytest.raises(InvalidArgumentError):
        minimize_box(_one(rosenbrock), np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0), **controls)


def test_numpy_integer_controls_are_integers():
    args = (_one(rosenbrock), np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0))
    res = minimize_box(*args, memory=np.int64(4), max_iter=np.int64(3))
    assert res.n_iter == 3 and res.x.tobytes() == minimize_box(*args, memory=4, max_iter=3).x.tobytes()


# ---------------------------------------------------------------------------
# the eager minimizer the lazy one replaced, kept verbatim as the oracle of
# its path: every value, every accepted point and every stopping decision


def _oracle_minimize_box(
    objective,
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    memory: int = 8,
    max_iter: int = 2000,
    tol_df: float = 1e-10,
    tol_grad: float = 1e-8,
) -> MinimizeResult:
    """Minimize objective(x) -> (f, grad) subject to lower <= x <= upper."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower > upper):
        raise InvalidArgumentError("lower bound exceeds upper bound")
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f, g = objective(x)
    n_eval = 1
    if not np.isfinite(f):
        raise InvalidArgumentError("objective is not finite at the starting point")
    history = [f]
    s_mem: deque = deque(maxlen=memory)
    y_mem: deque = deque(maxlen=memory)
    rho_mem: deque = deque(maxlen=memory)

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        pg = _oracle_projected_gradient(x, g, lower, upper)
        if np.max(np.abs(pg)) < tol_grad:
            converged = True
            break
        d = -_oracle_two_loop(pg, s_mem, y_mem, rho_mem)
        if float(d @ pg) > -1e-12 * (np.linalg.norm(d) * np.linalg.norm(pg) + 1e-300):
            d = -pg  # stale curvature; fall back to steepest descent

        step = _oracle_backtrack(objective, x, f, g, d, lower, upper)
        if step is None and not np.array_equal(d, -pg):
            d = -pg
            step = _oracle_backtrack(objective, x, f, g, d, lower, upper)
        if step is None:
            break  # no acceptable step along the projected gradient either
        x_new, f_new, g_new, evals = step
        n_eval += evals
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            s_mem.append(s)
            y_mem.append(y)
            rho_mem.append(1.0 / sy)
        df = f - f_new
        x, f, g = x_new, f_new, g_new
        history.append(f)
        if df < tol_df:
            converged = True
            break
    return MinimizeResult(x, f, g, it, n_eval, converged, history)


def _oracle_projected_gradient(x, g, lower, upper):
    pg = g.copy()
    pg[(x <= lower) & (g > 0)] = 0.0
    pg[(x >= upper) & (g < 0)] = 0.0
    return pg


def _oracle_two_loop(q, s_mem, y_mem, rho_mem):
    if not s_mem:
        return q
    q = q.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_mem), reversed(y_mem), reversed(rho_mem)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    s, y = s_mem[-1], y_mem[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(zip(s_mem, y_mem, rho_mem), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def _oracle_backtrack(objective, x, f, g, d, lower, upper, c1=1e-4, max_halvings=60):
    alpha = 1.0
    evals = 0
    for _ in range(max_halvings):
        x_t = np.clip(x + alpha * d, lower, upper)
        if np.array_equal(x_t, x):
            return None
        f_t, g_t = objective(x_t)
        evals += 1
        slope = float(g @ (x_t - x))
        sufficient = f + c1 * slope if slope < 0 else np.nextafter(f, -np.inf)
        if np.isfinite(f_t) and f_t <= sufficient:
            return x_t, f_t, g_t, evals
        alpha *= 0.5
    return None


def _eager(objective):
    """The oracle's objective protocol: the gradient with every finite value,
    zeros with +inf, as `PinProblem`'s objectives returned them."""

    def fg(x):
        f, grad = objective(x)
        return f, (grad() if math.isfinite(f) else np.zeros_like(x))

    return fg


class _Counted:
    """An objective that counts its values, +inf values and gradient calls,
    and records the value of each point whose gradient was asked for."""

    def __init__(self, objective):
        self.objective = objective
        self.values = 0
        self.infs = 0
        self.graded = []

    def __call__(self, x):
        f, grad = self.objective(x)
        self.values += 1
        self.infs += not math.isfinite(f)

        def counted():
            self.graded.append(f)
            return grad()

        return f, counted


def _stack_of_one(evaluate):
    """A `PinProblem` evaluator as a one-point objective ``x -> (f, grad)``:
    each call is a stack of one lane."""
    lane = np.zeros(1, dtype=int)

    def objective(x):
        f, gradient = evaluate(x[None], lane)
        return float(f[0]), lambda: gradient(lane)[0]

    return objective


def _pin_case(name, species):
    """(evaluator, lower, upper) of a seeded `PinProblem`, the evaluator
    the stages pass to the minimizer."""
    if name.startswith("chain5"):
        trap = TrapConfig(2.0 * MHZ, 0.8 * MHZ, 0.25 * MHZ, n_ions=5)
        crystal = solve_equilibrium(trap, species, 5)
        target = build_target(TargetSpec("nearest_neighbor", "chain"), crystal)
        problem = PinProblem(crystal, target, "y", ("y",))
        problem.set_scales((0.0, (0.4 * MHZ) ** 2), (0.6 * MHZ, 0.75 * MHZ))
        mu = 0.68 * MHZ
    else:
        trap = TrapConfig(2.4 * MHZ, 0.16 * MHZ, 0.16 * MHZ, n_ions=19)
        crystal = IonCrystal(trap, species, make_lattice("triangular", 19, 12e-6), "planar", (1, 2))
        orbits = symmetry_orbits(crystal, "C6").orbits
        target = build_target(TargetSpec("triangular_af", "triangular"), crystal)
        problem = PinProblem(crystal, target, "x", ("x",), orbits)
        problem.set_scales((0.0, (0.29 * MHZ) ** 2), (2.3 * MHZ, 2.45 * MHZ))
        mu = 2.42 * MHZ
    p = len(problem.orbits)
    k_lo, k_hi = np.full(p, problem.k_bounds[0]), np.full(p, problem.k_bounds[1])
    if name == "chain5_pin_mu":
        mu_lo, mu_hi = problem.mu_bounds
        lower, upper = np.concatenate(([mu_lo], k_lo)), np.concatenate(([mu_hi], k_hi))
        return problem.pin_mu_evaluator(), lower, upper
    return problem.pin_evaluator(beatnote_columns((mu,))), k_lo, k_hi


PIN_CASES = ["chain5_per_ion", "triangle19_c6", "chain5_pin_mu"]


def _pin_starts(objective, lower, upper, count=4):
    """Seeded start points in the box where the objective is finite."""
    rng = np.random.default_rng(11)
    starts = []
    while len(starts) < count:
        x0 = lower + rng.uniform(0.0, 1.0, lower.size) * (upper - lower)
        if math.isfinite(objective(x0)[0]):
            starts.append(x0)  # both minimizers refuse a +inf start
    return starts


def _analytic_runs():
    return [
        (rosenbrock, np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0)),
        (barrier, np.array([0.0, 1.0]), np.full(2, -2.0), np.full(2, 2.0)),
        (quadratic([1.0, -2.0], [1.0, 1.0]), np.array([0.5, 0.5]), np.array([-5.0, 0.0]), np.full(2, 5.0)),
    ]


def _oracle_run(objective, x0, lower, upper, **controls):
    """The oracle's run, its ``n_eval`` the number of objective calls it made.

    The eager copy leaves out of ``n_eval`` the trials of a line search
    that finds no step; the minimizer counts every call.  Everything else is
    compared as the copy returns it.
    """
    counted = _Counted(objective)
    want = _oracle_minimize_box(_eager(counted), x0, lower, upper, **controls)
    want.n_eval = counted.values
    return want


def _assert_same_run(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert got.grad.tobytes() == want.grad.tobytes()
    assert (got.n_iter, got.n_eval, got.converged) == (want.n_iter, want.n_eval, want.converged)
    assert np.array(got.history).tobytes() == np.array(want.history).tobytes()


class TestOraclePath:
    """The lazy minimizer walks the eager one's path, bit for bit.

    A stage-1 cell keeps its lowest-ε restart, so a minimizer that takes
    another path to a nearby point can change the design.
    """

    @BACKTRACKING
    @pytest.mark.parametrize("case", PIN_CASES)
    def test_pin_problem_runs(self, species, case, search):
        evaluate, lower, upper = _pin_case(case, species)
        objective = _stack_of_one(evaluate)
        counted = _Counted(objective)
        accepted = 0
        for x0 in _pin_starts(objective, lower, upper):
            want = _oracle_run(objective, x0, lower, upper)
            got = minimize_box(_one(counted), x0, lower, upper)
            _assert_same_run(got, want)
            # the stages' own call: the evaluator straight to the minimizer
            _assert_same_run(minimize_box(evaluate, x0, lower, upper), want)
            accepted += len(got.history)
        assert counted.values > accepted  # the runs rejected trials

    @BACKTRACKING
    def test_analytic_runs(self, search):
        runs = _analytic_runs()
        for objective, x0, lower, upper in runs:
            want = _oracle_run(objective, x0, lower, upper)
            got = minimize_box(_one(objective), x0, lower, upper)
            _assert_same_run(got, want)
        for memory in (1, 3):
            want = _oracle_run(rosenbrock, runs[0][1], *runs[0][2:], memory=memory)
            got = minimize_box(_one(rosenbrock), runs[0][1], *runs[0][2:], memory=memory)
            _assert_same_run(got, want)


class TestEvaluationCount:
    """``n_eval`` is the number of objective calls."""

    @BACKTRACKING
    @pytest.mark.parametrize("case", PIN_CASES)
    def test_pin_problem_runs(self, species, case, search):
        evaluate, lower, upper = _pin_case(case, species)
        objective = _stack_of_one(evaluate)
        for x0 in _pin_starts(objective, lower, upper):
            counted = _Counted(objective)
            res = minimize_box(_one(counted), x0, lower, upper)
            assert res.n_eval == counted.values

    @BACKTRACKING
    def test_analytic_runs(self, search):
        for objective, x0, lower, upper in _analytic_runs():
            counted = _Counted(objective)
            res = minimize_box(_one(counted), x0, lower, upper)
            assert res.n_eval == counted.values


class TestGradientOnDemand:
    @pytest.mark.parametrize("case", ["chain5_per_ion", "chain5_pin_mu"])
    def test_backtracking_grades_only_accepted_points(self, species, case):
        evaluate, lower, upper = _pin_case(case, species)
        objective = _stack_of_one(evaluate)
        x0 = lower + 0.3 * (upper - lower)
        counted = _Counted(objective)
        res = minimize_box(_one(counted), x0, lower, upper)
        # the start point, then each accepted trial, in order: never a
        # rejected or +inf trial
        assert counted.graded == res.history
        assert counted.values == res.n_eval
        assert counted.infs > 0 and counted.values - counted.infs > len(res.history)


def _lockstep(runs, log=None, **controls):
    """`minimize_lockstep` over runs ``(objective, x0, lower, upper)`` of one dimension."""
    objectives, x0, lower, upper = zip(*runs)
    return minimize_lockstep(_per_lane(objectives, log), np.stack(x0), np.stack(lower), np.stack(upper), **controls)


def _assert_lanes_match_oracle(runs, got, **controls):
    assert len(got) == len(runs)
    for (objective, x0, lower, upper), res in zip(runs, got):
        _assert_same_run(res, _oracle_run(objective, x0, lower, upper, **controls))


class _Detour:
    """Rosenbrock with a detour at ``base``, a point of the lane's path.

    After the run has evaluated ``base``, every point off the
    steepest-descent ray from it is +inf until a point on the ray meets the
    Armijo condition: the quasi-Newton search from ``base`` fails, and the
    lane must fall back to the projected gradient (no bound is active on
    this path).  The detour follows the points evaluated, which the eager
    oracle and the minimizer share.
    """

    def __init__(self, base):
        self.f_base, grad = rosenbrock(base)
        self.base, self.g_base = base, grad()
        self.state, self.infs = "before", 0

    def __call__(self, x):
        f, grad = rosenbrock(x)
        if self.state == "before" and np.array_equal(x, self.base):
            self.state = "detour"
        elif self.state == "detour":
            v = x - self.base
            if not v @ -self.g_base > (1.0 - 1e-9) * np.linalg.norm(v) * np.linalg.norm(self.g_base):
                self.infs += 1
                return np.inf, lambda: np.zeros_like(x)
            if f <= self.f_base + 1e-4 * (self.g_base @ v):
                self.state = "after"
        return f, grad


def _graded_points(objective, x0, lower, upper):
    """The points a lone run asked gradients for: its start and accepted points."""
    points = []

    def recording(x):
        f, grad = objective(x)

        def graded():
            points.append(x.copy())
            return grad()

        return f, graded

    minimize_box(_one(recording), x0, lower, upper)
    return points


class TestLockstep:
    """Each lane of `minimize_lockstep` gets the eager oracle's run, bit for
    bit: the point, value, gradient, counts and history."""

    def test_lanes_finish_in_different_rounds(self):
        runs = _analytic_runs() + [(rosenbrock, np.array([0.5, 2.0]), np.full(2, -5.0), np.full(2, 5.0))]
        log = []
        got = _lockstep(runs, log)
        _assert_lanes_match_oracle(runs, got)
        rounds = [len(lanes) for lanes, _ in log]
        assert rounds[0] == len(runs) and rounds[-1] < len(runs)
        assert len({res.n_eval for res in got}) > 1
        # one evaluation per lane per round, and each lane's rounds are its evaluations
        assert sum(rounds) == sum(res.n_eval for res in got)

    def test_each_dimension_is_its_own_call(self):
        # lanes of one call share P: 3-D lanes run beside each other, not beside 2-D ones
        runs = [
            (quadratic([0.3, 0.1, -0.2], [2.0, 1.0, 5.0]), np.zeros(3), np.full(3, -1.0), np.full(3, 1.0)),
            (quadratic([1.0, -2.0, 0.5], [1.0, 10.0, 0.1]), np.zeros(3), np.full(3, -10.0), np.full(3, 10.0)),
        ]
        _assert_lanes_match_oracle(runs, _lockstep(runs))

    def test_single_lane(self):
        runs = [(rosenbrock, np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0))]
        _assert_lanes_match_oracle(runs, _lockstep(runs))

    def test_no_lanes(self):
        def evaluate(points, lanes):
            raise AssertionError("no lane, no round")

        assert minimize_lockstep(evaluate, np.zeros((0, 2)), np.zeros(2), np.ones(2)) == []

    def test_round_where_every_lane_is_inf(self):
        # each start's first full step lands past the barrier at x0 = 0.6
        starts = [np.array([0.0, 1.0]), np.array([0.2, -0.5]), np.array([-0.4, 0.3])]
        runs = [(barrier, x0, np.full(2, -2.0), np.full(2, 2.0)) for x0 in starts]
        log = []
        got = _lockstep(runs, log)
        assert log[1] == ([0, 1, 2], [np.inf] * 3)
        _assert_lanes_match_oracle(runs, got)

    def test_first_nonfinite_start_raises(self):
        # lanes 1 and 3 start in the barrier: the start round raises, and no
        # second round runs
        starts = [np.array([0.0, 1.0]), np.array([0.7, 0.0]), np.array([0.1, 0.0]), np.array([0.9, 0.0])]
        runs = [(barrier, x0, np.full(2, -2.0), np.full(2, 2.0)) for x0 in starts]
        log = []
        with pytest.raises(InvalidArgumentError, match="not finite at the starting point"):
            _lockstep(runs, log)
        assert [lanes for lanes, _ in log] == [[0, 1, 2, 3]]
        with pytest.raises(InvalidArgumentError, match="not finite at the starting point"):
            minimize_box(_one(barrier), starts[1], np.full(2, -2.0), np.full(2, 2.0))

    def test_bad_controls_raise_before_any_round(self):
        def evaluate(points, lanes):
            raise AssertionError("no round runs")

        lower, upper = np.zeros((2, 2)), np.ones((2, 2))
        for controls in ({"memory": 0}, {"max_iter": 0}):
            with pytest.raises(InvalidArgumentError):
                minimize_lockstep(evaluate, np.zeros((2, 2)), lower, upper, **controls)
        start = np.zeros((2, 2))
        start[1, 0] = np.nan  # NaN compares False: no order test catches it
        with pytest.raises(InvalidArgumentError, match="a start point is NaN"):
            minimize_lockstep(evaluate, start, lower, upper)
        with pytest.raises(InvalidArgumentError, match="a start point is NaN"):
            minimize_box(evaluate, start[1], lower[1], upper[1])
        nan_bound = lower.copy()
        nan_bound[1, 1] = np.nan
        for bounds in ((nan_bound, upper), (lower, nan_bound)):
            with pytest.raises(InvalidArgumentError, match="a bound is NaN"):
                minimize_lockstep(evaluate, np.zeros((2, 2)), *bounds)
        with pytest.raises(InvalidArgumentError, match="a bound is NaN"):
            minimize_box(evaluate, np.zeros(2), np.nan, 1.0)
        # infinite bounds are valid: the lane runs
        assert minimize_box(_one(quadratic([1.0, -2.0], [1.0, 3.0])), np.zeros(2), -np.inf, np.inf).converged
        lower[1], upper[1] = 1.0, 0.0  # lane 1's bounds are reversed
        with pytest.raises(InvalidArgumentError, match="lower bound exceeds upper bound"):
            minimize_lockstep(evaluate, np.zeros((2, 2)), lower, upper)

    def test_memory_fills_in_different_rounds(self, monkeypatch):
        # starts whose first steps take different numbers of halvings
        runs = [
            (rosenbrock, np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0)),
            (quadratic([1.0, -2.0], [1e4, 1.0]), np.array([0.5, 0.5]), np.full(2, -5.0), np.full(2, 5.0)),
            (rosenbrock, np.array([-3.0, -3.0]), np.full(2, -5.0), np.full(2, 5.0)),
            (rosenbrock, np.array([4.0, -4.0]), np.full(2, -5.0), np.full(2, 5.0)),
        ]
        counts = []
        two_loop = quasinewton._two_loop_rows

        def recording(q, s, y, rho, pairs, gamma):
            counts.append(pairs.tolist())
            return two_loop(q, s, y, rho, pairs, gamma)

        monkeypatch.setattr(quasinewton, "_two_loop_rows", recording)
        got = _lockstep(runs, memory=3)
        _assert_lanes_match_oracle(runs, got, memory=3)
        # rounds where a full memory ran beside a filling one, and where every memory was full
        assert any(max(c) == 3 and min(c) < 3 for c in counts)
        assert any(min(c) == 3 and len(c) > 1 for c in counts)

    def test_partial_memories_keep_every_bit(self):
        # the recursion over lanes with 0, 1, 2 and 3 of 3 pairs against each
        # lane's own recursion; -0.0 entries would turn +0.0 if a lane took
        # part in a step it has no pair for
        rng = np.random.default_rng(5)
        counts, p = [0, 1, 2, 3], 4
        s, y = rng.standard_normal((4, 3, p)), rng.standard_normal((4, 3, p))
        q = rng.standard_normal((4, p))
        q[:, ::2] = -0.0
        rho, gamma = np.zeros((4, 3)), np.ones(4)
        for lane, count in enumerate(counts):
            s[lane, count:] = y[lane, count:] = 0.0
            rho[lane, :count] = 1.0 / np.vecdot(s[lane, :count], y[lane, :count])
            if count:
                gamma[lane] = s[lane, 0] @ y[lane, 0] / (y[lane, 0] @ y[lane, 0])
        got = quasinewton._two_loop_rows(q, s, y, rho, np.array(counts), gamma)
        for lane, count in enumerate(counts):
            # the oracle's memories run oldest first
            pairs = [deque(m[lane, :count][::-1]) for m in (s, y, rho)]
            assert got[lane].tobytes() == _oracle_two_loop(q[lane], *pairs).tobytes()
        assert np.signbit(got[0, ::2]).all()

    def test_lane_falls_back_to_projected_gradient(self):
        lo, hi = np.full(2, -5.0), np.full(2, 5.0)
        starts = [np.array([-1.2, 1.0]), np.array([0.5, 2.0])]
        # detours at the third and fifth accepted points of the lone runs
        bases = [_graded_points(rosenbrock, starts[0], lo, hi)[3], _graded_points(rosenbrock, starts[1], lo, hi)[5]]
        detours = [_Detour(base) for base in bases]
        runs = [(detours[0], starts[0], lo, hi), (rosenbrock, starts[1], lo, hi), (detours[1], starts[1], lo, hi)]
        got = _lockstep(runs)
        for detour, res in zip(detours, (got[0], got[2])):
            # the quasi-Newton search failed, the steepest-descent retry found
            # a step, and the lane went on
            assert detour.infs > 0 and detour.state == "after"
            assert res.n_iter > 6
        oracle_runs = [(_Detour(bases[0]), starts[0], lo, hi), runs[1], (_Detour(bases[1]), starts[1], lo, hi)]
        _assert_lanes_match_oracle(oracle_runs, got)
        assert got[2].history != got[1].history  # the same start without the detour

    def test_lane_stopped_by_max_iter(self):
        runs = [
            (rosenbrock, np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0)),
            (quadratic([1.0, -2.0], [1.0, 1.0]), np.array([0.5, 0.5]), np.full(2, -5.0), np.full(2, 5.0)),
        ]
        got = _lockstep(runs, max_iter=5)
        _assert_lanes_match_oracle(runs, got, max_iter=5)
        assert (got[0].n_iter, got[0].converged) == (5, False)
        assert got[1].converged and got[1].n_iter < 5

    def test_lane_resting_on_a_bound_face(self):
        # the second lane's optimum (1, -2) lies below its box's face x1 = 0
        runs = [
            (rosenbrock, np.array([-1.2, 1.0]), np.full(2, -5.0), np.full(2, 5.0)),
            (quadratic([1.0, -2.0], [1.0, 1.0]), np.array([0.5, 0.5]), np.array([-5.0, 0.0]), np.full(2, 5.0)),
            (quadratic([0.5, 3.0], [2.0, 1.0]), np.array([0.0, 0.0]), np.full(2, -1.0), np.full(2, 1.0)),
        ]
        got = _lockstep(runs)
        _assert_lanes_match_oracle(runs, got)
        assert got[1].x[1] == 0.0 and got[2].x[1] == 1.0
        assert got[1].converged and got[2].converged

    @pytest.mark.parametrize("case", ["chain5_per_ion", "triangle19_c6"])
    def test_pin_problem_lanes(self, species, case):
        evaluate, lower, upper = _pin_case(case, species)
        objective = _stack_of_one(evaluate)
        starts = _pin_starts(objective, lower, upper)
        runs = [(objective, x0, lower, upper) for x0 in starts]
        _assert_lanes_match_oracle(runs, _lockstep(runs))
