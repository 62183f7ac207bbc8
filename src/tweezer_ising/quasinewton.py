"""Box-constrained limited-memory quasi-Newton minimizer.

Projected-gradient L-BFGS with a monotone backtracking (Armijo) line
search.  Objectives may return +inf to mark forbidden regions (resonance
guard bands, unstable spectra); the line search treats such points as
rejected trials and halves the step, so iterates never settle in a
forbidden region.

An objective gives its value now and its gradient on demand: it returns
``(f, grad)``, where ``grad()`` computes the gradient at the same point.
The minimizer asks for the gradient of the start point once and then only
for the trial the line search accepts, so a rejected or +inf trial costs
one value and nothing more.

The minimizer, `minimize_box_steps`, is a lane of `lanes.run_lanes`: it
requests each point it wants evaluated (the start point, then every
line-search trial), receives ``(f, grad)`` for it, and returns the
`MinimizeResult`.  It never calls an objective itself, so its caller
decides how points are evaluated: `minimize_lockstep` serves many runs
together with one batched evaluation per round, and `minimize_box` is its
one-lane call.  Each run walks the same path either way, and ``n_eval``
counts every point it requested.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .lanes import run_lanes

#: ``objective(x) -> (f, grad)``: the value at x now, and a zero-argument
#: callable that returns the gradient at x when the minimizer needs it
Objective = Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]]
#: ``evaluate(points, active) -> [(f, grad), ...]``: an `Objective` over the
#: pending points of the lanes ``active`` of `minimize_lockstep`, one pair per point
LaneEvaluator = Callable[[list, list], Sequence[tuple[float, Callable[[], np.ndarray]]]]


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    n_iter: int
    n_eval: int
    converged: bool
    history: list = field(default_factory=list)  # accepted objective values


def minimize_box(
    objective: Objective,
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    memory: int = 8,
    max_iter: int = 2000,
    tol_df: float = 1e-10,
    tol_grad: float = 1e-8,
) -> MinimizeResult:
    """Minimize objective(x) -> (f, grad) subject to lower <= x <= upper.

    ``grad`` is the gradient on demand (see `Objective`).  Raises
    InvalidArgumentError for reversed bounds, ``memory`` or ``max_iter``
    below 1, a negative tolerance, or a start point where the objective is
    not finite.
    """
    steps = minimize_box_steps(x0, lower, upper, memory, max_iter, tol_df, tol_grad)
    return minimize_lockstep(lambda points, _: [objective(points[0])], [steps])[0]


def minimize_lockstep(evaluate: LaneEvaluator, lanes: Sequence[Generator]) -> list[MinimizeResult]:
    """Run `minimize_box_steps` lanes together; one result per lane, in order.

    Each round of `lanes.run_lanes` is one ``evaluate(points, active)`` call,
    ``active`` listing the pending lanes in ascending order; the first lane
    to raise (a bad control, or a start point that is not finite) raises.
    """
    return run_lanes(lanes, lambda pending: evaluate([x for _, x in pending], [i for i, _ in pending]))


def minimize_box_steps(
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    memory: int = 8,
    max_iter: int = 2000,
    tol_df: float = 1e-10,
    tol_grad: float = 1e-8,
) -> Generator[np.ndarray, tuple, MinimizeResult]:
    """`minimize_box` as a generator: yields points, receives ``(f, grad)``.

    See the module docstring for the protocol.  Its arguments are checked
    when the first point is asked for.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower > upper):
        raise InvalidArgumentError("lower bound exceeds upper bound")
    if memory < 1 or max_iter < 1:
        raise InvalidArgumentError(f"memory ({memory}) and max_iter ({max_iter}) must be at least 1")
    if not (tol_df >= 0.0 and tol_grad >= 0.0):
        raise InvalidArgumentError(f"tolerances must be nonnegative (tol_df={tol_df}, tol_grad={tol_grad})")
    x = _project(np.asarray(x0, dtype=float), lower, upper)
    f, grad = yield x
    n_eval = 1
    if not math.isfinite(f):
        raise InvalidArgumentError("objective is not finite at the starting point")
    g = grad()
    del grad  # a batched evaluation's thunk holds the whole batch
    history = [f]
    pairs: deque = deque(maxlen=memory)  # curvature pairs (s, y, 1/(s·y)), oldest first
    gamma = 1.0  # (s·y)/(y·y) of the newest pair: the initial inverse-Hessian scale

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        pg = _projected_gradient(x, g, lower, upper)
        if np.abs(pg).max() < tol_grad:
            converged = True
            break
        d = -_two_loop(pg, pairs, gamma)
        if d.dot(pg) > -1e-12 * (_norm(d) * _norm(pg) + 1e-300):
            d = -pg  # stale curvature; fall back to steepest descent

        step, evals = yield from _backtrack(x, f, g, d, lower, upper)
        n_eval += evals
        if step is None and not (d == -pg).all():
            d = -pg
            step, evals = yield from _backtrack(x, f, g, d, lower, upper)
            n_eval += evals
        if step is None:
            break  # no acceptable step along the projected gradient either
        x_new, f_new, g_new = step
        s = x_new - x
        y = g_new - g
        sy = float(s.dot(y))
        if sy > 1e-10 * _norm(s) * _norm(y):
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / float(y.dot(y))
        df = f - f_new
        x, f, g = x_new, f_new, g_new
        history.append(f)
        if df < tol_df:
            converged = True
            break
    return MinimizeResult(x, f, g, it, n_eval, converged, history)


def _norm(v):
    """np.linalg.norm of a 1-D float vector, without its dispatch: sqrt(v·v)."""
    return math.sqrt(v.dot(v))


def _project(x, lower, upper):
    """np.clip(x, lower, upper) without its dispatch: the same max, then min."""
    return np.minimum(np.maximum(x, lower), upper)


def _projected_gradient(x, g, lower, upper):
    pg = g.copy()
    pg[(x <= lower) & (g > 0)] = 0.0
    pg[(x >= upper) & (g < 0)] = 0.0
    return pg


def _two_loop(q, pairs, gamma):
    """The L-BFGS inverse-Hessian estimate applied to q (two-loop recursion)."""
    if not pairs:
        return q
    q = q.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * s.dot(q)
        alphas.append(a)
        q -= a * y
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * y.dot(q)) * s
    return q


def _backtrack(x, f, g, d, lower, upper, c1=1e-4, max_halvings=60):
    """Halve the step until the Armijo condition holds; the gradient of the
    accepted trial is the only one computed.

    A generator over trial points; returns ``(step, evals)`` with ``step``
    the accepted ``(x, f, g)`` or None.
    """
    alpha = 1.0
    evals = 0
    for _ in range(max_halvings):
        x_t = _project(x + alpha * d, lower, upper)
        if (x_t == x).all():
            return None, evals
        f_t, grad_t = yield x_t
        evals += 1
        if math.isfinite(f_t):
            slope = g.dot(x_t - x)
            sufficient = f + c1 * slope if slope < 0 else math.nextafter(f, -math.inf)
            if f_t <= sufficient:
                return (x_t, f_t, grad_t()), evals
        alpha *= 0.5
    return None, evals

