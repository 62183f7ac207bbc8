"""Box-constrained limited-memory quasi-Newton minimizer over arrays of lanes.

Projected-gradient L-BFGS with a monotone backtracking (Armijo) line
search.  An evaluator may return +inf to mark forbidden regions (resonance
guard bands, unstable spectra); the line search treats such points as
rejected trials and halves the step, so iterates never settle in a
forbidden region.

`minimize_lockstep` runs K minimizations of one dimension P, the lanes,
together.  Its state is arrays: iterates, gradients and search
directions are (K, P) and the curvature memory is (K, m, P), newest pair
first, with each lane's own pair count, scale γ, iteration count and
step length.  A round evaluates one line-search trial per running lane
with one ``evaluate`` call; the Armijo and curvature tests, the projected
gradient, the two-loop recursion, the descent check and the next trials
then run stacked over the lanes, each step on the rows its lanes' index
array picks, all of them or some.  Every reduction is a per-row dot
product (`np.vecdot`), which gives the bits of the 1-D `ndarray.dot` a
lone run takes on the pinned numpy and BLAS (`tests/test_bit_pins.py`),
so each lane walks the path it would walk alone.  A lane whose memory is
not yet full takes part only in the steps of the recursion it has pairs
for: nothing is zero-padded, as padding can flip a signed zero.

An evaluator gives values now and gradients on demand (`LaneEvaluator`):
the minimizer asks for the gradients of the start points once, then in
each round only for the trials the line search accepted, so a rejected
or +inf trial costs one value and nothing more.  `minimize_box` is the
one-lane call, with the same evaluator.  ``n_eval`` counts every point a
lane had evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, as_integer

#: ``evaluate(points, lanes) -> (f, gradient)``: the values at the (k, P)
#: trial points of the running ``lanes`` (their indices, ascending), +inf
#: where forbidden, and ``gradient(rows)``, the (len(rows), P) gradients at
#: ``points[rows]``
LaneEvaluator = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]

#: the Armijo constant and the most trials one line search evaluates
C1 = 1e-4
MAX_HALVINGS = 60
#: a lane converges when an accepted step lowers f by less than TOL_DF, or
#: when its projected gradient's largest entry is below TOL_GRAD
TOL_DF = 1e-10
TOL_GRAD = 1e-8


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
    evaluate: LaneEvaluator,
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    memory: int = 8,
    max_iter: int = 2000,
) -> MinimizeResult:
    """Minimize one lane from the (P,) ``x0`` subject to lower <= x <= upper.

    The one-lane call of `minimize_lockstep`: ``evaluate`` is a
    `LaneEvaluator` that sees (1, P) points and the lane index 0.  Raises
    InvalidArgumentError for a NaN bound or start, reversed bounds,
    ``memory`` or ``max_iter`` not an integer of at least 1, or a start
    point where the value is not finite.
    """
    return minimize_lockstep(evaluate, np.asarray(x0, dtype=float)[None], lower, upper, memory, max_iter)[0]


def minimize_lockstep(
    evaluate: LaneEvaluator,
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    memory: int = 8,
    max_iter: int = 2000,
) -> list[MinimizeResult]:
    """Minimize K lanes together; one result per lane, in lane order.

    Lane k starts at ``x0[k]`` of the (K, P) ``x0`` and stays within the
    bounds, which broadcast to (K, P).  Each round is one
    ``evaluate(points, lanes)`` call (see `LaneEvaluator`), and each lane
    gets the result a lone `minimize_box` run gives it.  Raises
    InvalidArgumentError before any round for a NaN bound or start or
    reversed bounds in any lane (infinite bounds are valid), or ``memory``
    or ``max_iter`` not an integer of at least 1, and after
    the first round if any start point's value is not finite.  No lanes
    means no round.
    """
    x0 = np.asarray(x0, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), x0.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), x0.shape)
    # NaN compares False, so it would pass the order test and make the start NaN
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise InvalidArgumentError("a bound is NaN")
    if np.any(lower > upper):
        raise InvalidArgumentError("lower bound exceeds upper bound")
    if np.isnan(x0).any():
        raise InvalidArgumentError("a start point is NaN")
    memory, max_iter = as_integer("memory", memory), as_integer("max_iter", max_iter)
    if memory < 1 or max_iter < 1:
        raise InvalidArgumentError(f"memory ({memory}) and max_iter ({max_iter}) must be at least 1")
    count, p = x0.shape
    if count == 0:
        return []
    everyone = np.arange(count)
    x = _project(x0, lower, upper)
    f, gradient = evaluate(x, everyone)
    if not np.isfinite(f).all():
        raise InvalidArgumentError("objective is not finite at the starting point")
    # the state is updated in place, so it holds copies of what the evaluator saw and gave
    st = _Lanes(
        ids=everyone, x=x.copy(), f=np.array(f, dtype=float), g=np.array(gradient(everyone), dtype=float),
        lower=lower, upper=upper,
        pg=np.zeros_like(x), d=np.zeros_like(x), alpha=np.ones(count), halvings=np.zeros(count, int),
        retried=np.zeros(count, bool), it=np.ones(count, int), n_eval=np.ones(count, int),
        s=np.zeros((count, memory, p)), y=np.zeros((count, memory, p)), rho=np.zeros((count, memory)),
        pairs=np.zeros(count, int), gamma=np.ones(count), stop=np.zeros(count, bool),
        converged=np.zeros(count, bool),
    )
    del gradient  # a batched evaluation's gradient holds the whole batch
    history = [[value] for value in st.f.tolist()]
    # each lane's result, written when it stops
    out = _Lanes(x=np.empty_like(x), f=np.empty(count), g=np.empty_like(x), it=np.empty(count, int),
                 n_eval=np.empty(count, int), converged=np.empty(count, bool))
    _begin(st, everyone)
    while True:
        t = _trials(st)
        if st.stop.any():
            t = t[~st.stop]
            _retire(st, out)
            if not st.ids.size:
                break
        f_t, gradient = evaluate(t, st.ids)
        st.n_eval += 1
        # every lane halves its step; `_begin` starts the accepted ones afresh
        st.alpha *= 0.5
        st.halvings += 1

        step = t - st.x
        slope = np.vecdot(st.g, step)
        sufficient = np.where(slope < 0, st.f + C1 * slope, np.nextafter(st.f, -np.inf))
        accepted = np.isfinite(f_t) & (f_t <= sufficient)
        acc = accepted.nonzero()[0]
        if acc.size:
            f_new, g_new = f_t[acc], gradient(acc)
            _remember(st, acc, step[acc], g_new - st.g[acc], memory)
            df = st.f[acc] - f_new
            st.x[acc], st.f[acc], st.g[acc] = t[acc], f_new, g_new
            for lane, value in zip(st.ids[acc].tolist(), f_new.tolist()):
                history[lane].append(value)
            done = df < TOL_DF
            ended = done | (st.it[acc] == max_iter)
            if ended.any():
                st.stop[acc[ended]] = True
                st.converged[acc[done]] = True
                acc = acc[~ended]
            st.it[acc] += 1
            _begin(st, acc)
        del gradient
        _fall_back(st, (~accepted & (st.halvings == MAX_HALVINGS)).nonzero()[0])

    return [
        MinimizeResult(np.array(x_k), f_k, np.array(g_k), it_k, n_eval_k, converged_k, history_k)
        for x_k, f_k, g_k, it_k, n_eval_k, converged_k, history_k in zip(
            out.x, out.f.tolist(), out.g, out.it.tolist(), out.n_eval.tolist(), out.converged.tolist(), history
        )
    ]


class _Lanes:
    """Arrays with one row per lane, held as attributes."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, rows):
        """Keep the given rows of every array, in order."""
        for name in list(self.__dict__):
            setattr(self, name, getattr(self, name)[rows])


def _project(x, lower, upper):
    """np.clip(x, lower, upper) without its dispatch: the same max, then min."""
    return np.minimum(np.maximum(x, lower), upper)


def _begin(st, index):
    """Start an iteration in lanes ``index``: stop those whose projected
    gradient has converged, give the rest a direction and a unit step."""
    if not index.size:
        return
    x, g = st.x[index], st.g[index]
    pg = g.copy()
    pg[(x <= st.lower[index]) & (g > 0)] = 0.0
    pg[(x >= st.upper[index]) & (g < 0)] = 0.0
    done = np.abs(pg).max(1) < TOL_GRAD
    if done.any():
        st.stop[index[done]] = st.converged[index[done]] = True
        index, pg = index[~done], pg[~done]
        if not index.size:
            return
    d = -_two_loop_rows(pg, st.s[index], st.y[index], st.rho[index], st.pairs[index], st.gamma[index])
    norms = np.sqrt(np.vecdot(d, d)) * np.sqrt(np.vecdot(pg, pg))
    stale = np.vecdot(d, pg) > -1e-12 * (norms + 1e-300)
    if stale.any():
        d[stale] = -pg[stale]  # stale curvature; fall back to steepest descent
    st.pg[index], st.d[index] = pg, d
    st.alpha[index], st.halvings[index], st.retried[index] = 1.0, 0, False


def _two_loop_rows(q, s, y, rho, pairs, gamma):
    """The L-BFGS inverse-Hessian estimate applied to each row of q.

    Row i holds ``pairs[i]`` curvature pairs ``(s, y, rho = 1/(s·y))``,
    newest first, and the scale ``gamma[i]`` (1 with no pair).  Step j of
    each loop writes only the rows with more than j pairs (``where``); the
    others keep their bits, and their unused memory is never read into them.
    """
    q = q.copy()
    s, y, rho = s.transpose(1, 0, 2), y.transpose(1, 0, 2), rho.T[:, :, None]  # pair-major views
    full = pairs.min()
    live = [True if j < full else (pairs > j)[:, None] for j in range(pairs.max())]
    alphas = []
    for j, rows in enumerate(live):  # newest pair first
        a = rho[j] * np.vecdot(s[j], q, keepdims=True)
        np.subtract(q, a * y[j], out=q, where=rows)
        alphas.append(a)
    q *= gamma[:, None]
    for j in reversed(range(len(live))):  # oldest pair first
        np.add(q, (alphas[j] - rho[j] * np.vecdot(y[j], q, keepdims=True)) * s[j], out=q, where=live[j])
    return q


def _remember(st, index, s, y, memory):
    """Push the step s and gradient change y of lanes ``index`` as their
    newest curvature pair where s·y is safely positive."""
    sy, yy = np.vecdot(s, y), np.vecdot(y, y)
    good = sy > 1e-10 * np.sqrt(np.vecdot(s, s)) * np.sqrt(yy)
    if not good.all():
        index, s, y, sy, yy = index[good], s[good], y[good], sy[good], yy[good]
    st.s[index, 1:], st.y[index, 1:], st.rho[index, 1:] = st.s[index, :-1], st.y[index, :-1], st.rho[index, :-1]
    st.s[index, 0], st.y[index, 0], st.rho[index, 0] = s, y, 1.0 / sy
    st.pairs[index] = np.minimum(st.pairs[index] + 1, memory)
    st.gamma[index] = sy / yy


def _fall_back(st, rows):
    """Lanes ``rows`` found no step: retry once along the projected
    gradient unless they already searched along it; stop the others.
    Returns the lanes that retry."""
    if not rows.size:
        return rows
    retry = ~st.retried[rows] & ~(st.d[rows] == -st.pg[rows]).all(1)
    st.stop[rows[~retry]] = True
    rows = rows[retry]
    st.d[rows] = -st.pg[rows]
    st.alpha[rows], st.halvings[rows], st.retried[rows] = 1.0, 0, True
    return rows


def _trials(st):
    """Every lane's next trial point; a lane whose trial does not move
    falls back or stops, as a failed line search does."""
    t = _project(st.x + st.alpha[:, None] * st.d, st.lower, st.upper)
    still = ((t == st.x).all(1) & ~st.stop).nonzero()[0]
    while still.size:
        rows = _fall_back(st, still)
        t[rows] = _project(st.x[rows] + st.alpha[rows, None] * st.d[rows], st.lower[rows], st.upper[rows])
        still = rows[(t[rows] == st.x[rows]).all(1)]
    return t


def _retire(st, out):
    """Write the stopped lanes' results to ``out`` and drop their rows."""
    rows = st.stop.nonzero()[0]
    for name, results in vars(out).items():
        results[st.ids[rows]] = getattr(st, name)[rows]
    st.keep(~st.stop)
