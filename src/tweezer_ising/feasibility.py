"""Sign-structure feasibility test for a target coupling graph.

For a fixed geometry and beatnote, each coupling that must change sign or
magnitude contributes one signed gradient row; the target is reachable to
first order iff some pinning vector makes all rows strictly positive.
The strict system X w > 0 is decided by maximizing the margin t subject
to X w >= t and |w|_inf <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .coupling import CouplingMatrix, _as_matrix, max_abs_offdiag
from .errors import InvalidArgumentError
from .sensitivity import CouplingGradient

#: minimum margin for a "feasible" verdict
TOL_MARGIN = 1e-9
#: couplings with |target - native| below this fraction of max|target| are satisfied already
TOL_DJ_FRACTION = 1e-3


@dataclass(frozen=True)
class SignConstraintSystem:
    """Rows of signed coupling gradients; one row per coupling to fix."""

    matrix: np.ndarray  # (C, P)
    provenance: tuple  # ((k, l, sign), ...) per row
    excluded: tuple  # pairs dropped because the native coupling already matches

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.size and m.shape[0] != len(self.provenance):
            raise InvalidArgumentError("one provenance entry required per row")
        object.__setattr__(self, "matrix", m)

    @property
    def n_rows(self) -> int:
        return 0 if self.matrix.size == 0 else self.matrix.shape[0]


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    margin: float
    witness: Optional[np.ndarray]  # unit inf-norm when feasible


def build_sign_constraints(
    j_target: Union[CouplingMatrix, np.ndarray],
    j_native: Union[CouplingMatrix, np.ndarray],
    gradients: CouplingGradient,
    selection: Optional[Sequence] = None,
    tol_dj: Optional[float] = None,
    rows: str = "magnitude",
) -> SignConstraintSystem:
    """Assemble X: row c = sign(dJ[k, l]) * grad J0[k, l] over pinning DOF.

    The native matrix is rescaled to the target's peak magnitude before
    differencing, and pairs already within tol_dj are excluded.  With
    rows="magnitude" every remaining selected pair contributes a row; with
    rows="sign_mismatch" only pairs whose native sign disagrees with a
    nonzero target entry do, the pure sign-structure criterion.
    """
    if rows not in ("magnitude", "sign_mismatch"):
        raise InvalidArgumentError(f"unknown row policy {rows!r}")
    jt = _as_matrix(j_target)
    j0 = _as_matrix(j_native)
    max_t, _ = max_abs_offdiag(jt)
    max_0, _ = max_abs_offdiag(j0)
    if max_0 <= 0 or max_t <= 0:
        raise InvalidArgumentError("cannot compare identically zero coupling matrices")
    j0n = j0 * (max_t / max_0)
    delta = jt - j0n
    if tol_dj is None:
        tol_dj = TOL_DJ_FRACTION * max_t

    pairs = tuple(tuple(p) for p in (selection if selection is not None else gradients.pairs))
    row_list, provenance, excluded = [], [], []
    for k, l in pairs:
        if (k, l) not in gradients.pairs and (l, k) not in gradients.pairs:
            raise InvalidArgumentError(f"no gradient supplied for pair ({k}, {l})")
        d = delta[k, l]
        satisfied = abs(d) < tol_dj
        if rows == "sign_mismatch":
            satisfied = abs(jt[k, l]) < tol_dj or np.sign(j0n[k, l]) == np.sign(jt[k, l])
        if satisfied:
            excluded.append((k, l))
            continue
        sign = 1.0 if d > 0 else -1.0
        key = (k, l) if (k, l) in gradients.pairs else (l, k)
        row_list.append(sign * gradients.row(key))
        provenance.append((k, l, sign))
    matrix = np.array(row_list) if row_list else np.zeros((0, gradients.values.shape[1]))
    return SignConstraintSystem(matrix, tuple(provenance), tuple(excluded))


def feasibility_test(
    system: SignConstraintSystem,
    pinning_sign: str = "free",
    tol_margin: float = TOL_MARGIN,
) -> FeasibilityVerdict:
    """Decide whether some pinning vector w satisfies X w > 0.

    Solves max t : X w >= t, |w|_inf <= 1 (w >= 0 when pinning_sign is
    "nonnegative").  An empty system is vacuously feasible with w = 0.
    One-row and one-column systems are decided in closed form, the rest
    by a HiGHS LP.
    """
    if pinning_sign not in ("free", "nonnegative"):
        raise InvalidArgumentError(f"unknown pinning_sign {pinning_sign!r}")
    x = system.matrix
    if system.n_rows == 0:
        width = x.shape[1] if x.ndim == 2 else 0
        return FeasibilityVerdict(True, np.inf, np.zeros(width))
    nonnegative = pinning_sign == "nonnegative"
    if x.shape[0] == 1:
        t_star, w = _one_row(x[0], nonnegative)
    elif x.shape[1] == 1:
        t_star, w = _one_column(x[:, 0], nonnegative)
    else:
        t_star, w = _margin_lp(x, 0.0 if nonnegative else -1.0)
    if t_star > tol_margin:
        w = w / np.max(np.abs(w))
        return FeasibilityVerdict(True, t_star, w)
    return FeasibilityVerdict(False, t_star, None)


def _one_row(row: np.ndarray, nonnegative: bool) -> tuple[float, np.ndarray]:
    # max x.w over the box: each w_i sits at the bound matching the sign of x_i
    w = (row > 0).astype(float) if nonnegative else np.sign(row)
    return float(row @ w), w


def _one_column(col: np.ndarray, nonnegative: bool) -> tuple[float, np.ndarray]:
    # min_c x_c w is w min(x) for w >= 0 and -|w| max(x) for w <= 0, so the
    # optimum sits at w = 1, w = -1 or w = 0
    up = float(np.min(col))
    down = -np.inf if nonnegative else -float(np.max(col))
    if up >= down:
        return max(up, 0.0), np.ones(1)
    return max(down, 0.0), -np.ones(1)


def _margin_lp(x: np.ndarray, lo: float) -> tuple[float, np.ndarray]:
    # imported on first use: scipy.optimize adds ~0.2 s to every process
    # start, and a triangle design or a misalignment scan never solves an LP
    from scipy.optimize import Bounds, LinearConstraint, milp

    n_c, n_p = x.shape
    # variables: [w (n_p), t]; minimize -t subject to -X w + t <= 0
    c = np.zeros(n_p + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-x, np.ones((n_c, 1))])
    lower = np.append(np.full(n_p, lo), -np.inf)
    upper = np.append(np.ones(n_p), np.inf)
    res = milp(c, constraints=LinearConstraint(a_ub, -np.inf, 0.0), bounds=Bounds(lower, upper))
    if not res.success:  # pragma: no cover - the region always contains w=0
        raise RuntimeError(f"feasibility LP failed: {res.message}")
    return -res.fun, res.x[:-1]
