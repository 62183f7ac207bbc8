"""Target coupling matrices for the bundled scenarios and user graphs.

Sign convention, used everywhere in this package: positive entries are
antiferromagnetic, negative ferromagnetic.  All built targets are
symmetric with zero diagonal and maximum magnitude 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .coupling import CouplingMatrix
from .crystal import IonCrystal, hex_shells, pairwise_distances
from .errors import InvalidArgumentError

#: pairs closer than this multiple of the minimum distance are nearest neighbors
NEIGHBOR_FACTOR = 1.3


@dataclass(frozen=True)
class TargetSpec:
    """Which interaction graph to build and on which geometry."""

    variant: str  # nearest_neighbor | power_law | spin_ladder | triangular_af | explicit
    geometry: str = "chain"  # chain | ladder | triangular
    sign: float = 1.0  # +1 antiferromagnetic, -1 ferromagnetic
    exponent: float = 3.0  # power-law decay
    rung_sign: float = -1.0
    leg_sign: float = 1.0
    matrix: Optional[np.ndarray] = None  # explicit variant
    neighbor_factor: float = NEIGHBOR_FACTOR
    distance_mode: str = "actual"  # actual | index (power_law on chains)

    def __post_init__(self):
        known = ("nearest_neighbor", "power_law", "spin_ladder", "triangular_af", "explicit")
        if self.variant not in known:
            raise InvalidArgumentError(f"unknown target variant {self.variant!r}")
        if self.exponent < 0:
            raise InvalidArgumentError("power-law exponent must be nonnegative")
        if self.sign not in (1.0, -1.0) or self.rung_sign not in (1.0, -1.0) or self.leg_sign not in (1.0, -1.0):
            raise InvalidArgumentError("signs must be +1 or -1")
        if self.distance_mode not in ("actual", "index"):
            raise InvalidArgumentError("distance_mode must be 'actual' or 'index'")
        if self.variant == "explicit":
            if self.matrix is None:
                raise InvalidArgumentError("explicit target needs a matrix")
            m = np.asarray(self.matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InvalidArgumentError("explicit target must be square")
            if not np.allclose(m, m.T, rtol=0, atol=1e-12 * (np.abs(m).max() or 1.0)):
                raise InvalidArgumentError("explicit target must be symmetric")
            if np.any(np.diag(m) != 0.0):
                raise InvalidArgumentError("explicit target must have zero diagonal")
            object.__setattr__(self, "matrix", m)


def neighbor_adjacency(positions: np.ndarray, factor: float = NEIGHBOR_FACTOR) -> np.ndarray:
    """Boolean adjacency of pairs within factor * (minimum pairwise distance)."""
    n = positions.shape[0]
    d = pairwise_distances(positions)
    iu = np.triu_indices(n, 1)
    d_min = d[iu].min()
    adj = (d < factor * d_min)
    np.fill_diagonal(adj, False)
    return adj


def chain_adjacency(positions: np.ndarray, axis: int) -> np.ndarray:
    """Adjacency of consecutive ions along a chain axis.

    Harmonic chains stretch toward the ends, so the distance-threshold rule
    can drop the outermost bonds; chain neighbors are ordinal instead.
    """
    n = positions.shape[0]
    order = np.argsort(positions[:, axis])
    adj = np.zeros((n, n), dtype=bool)
    for a, b in zip(order[:-1], order[1:]):
        adj[a, b] = adj[b, a] = True
    return adj


def crystal_adjacency(crystal: IonCrystal, factor: float = NEIGHBOR_FACTOR) -> np.ndarray:
    if crystal.dimensionality == "chain":
        return chain_adjacency(crystal.positions, crystal.extended_axes[0])
    return neighbor_adjacency(crystal.positions, factor)


def build_target(spec: TargetSpec, crystal: IonCrystal) -> CouplingMatrix:
    n = crystal.n_ions
    pos = crystal.positions
    if spec.variant == "explicit":
        if spec.matrix.shape[0] != n:
            raise InvalidArgumentError("explicit target size disagrees with crystal")
        return _normalized(spec.matrix)
    if spec.variant == "nearest_neighbor":
        adj = crystal_adjacency(crystal, spec.neighbor_factor)
        return _normalized(spec.sign * adj.astype(float))
    if spec.variant == "power_law":
        if spec.exponent == 0.0:
            j = spec.sign * (1.0 - np.eye(n))
            return _normalized(j)
        if spec.distance_mode == "index":
            if crystal.dimensionality != "chain":
                raise InvalidArgumentError("index-distance power law needs a chain")
            idx = np.arange(n, dtype=float)
            r = np.abs(idx[:, None] - idx[None, :])
        else:
            r = pairwise_distances(pos)
        iu = np.triu_indices(n, 1)
        r_min = r[iu].min()
        with np.errstate(divide="ignore"):
            j = spec.sign * (r_min / np.where(r > 0, r, np.inf)) ** spec.exponent
        np.fill_diagonal(j, 0.0)
        return _normalized(j)
    if spec.variant == "spin_ladder":
        ladder_legs(crystal)  # validates the two-row structure
        rung_axis, leg_axis = ladder_axes(crystal)
        adj = neighbor_adjacency(pos, spec.neighbor_factor)
        # a bond is a rung when it runs across the ladder, a leg when it
        # runs along it; near-axis end ions make leg-membership labels
        # unreliable, bond orientation is not
        d_rung = np.abs(pos[:, rung_axis][:, None] - pos[:, rung_axis][None, :])
        d_leg = np.abs(pos[:, leg_axis][:, None] - pos[:, leg_axis][None, :])
        j = np.where(d_rung > d_leg, spec.rung_sign, spec.leg_sign) * adj
        return _normalized(j)
    if spec.variant == "triangular_af":
        k = hex_shells(n)
        adj = neighbor_adjacency(pos, spec.neighbor_factor)
        edges = int(adj.sum()) // 2
        expected = 3 * k * (3 * k + 1)
        if edges != expected:
            raise InvalidArgumentError(
                f"geometry is not a centered hexagonal crystal: {edges} neighbor edges, expected {expected}"
            )
        return _normalized(adj.astype(float))
    raise InvalidArgumentError(f"unknown target variant {spec.variant!r}")


def ladder_axes(crystal: IonCrystal) -> tuple[int, int]:
    """(rung_axis, leg_axis) of a planar two-row crystal."""
    if crystal.dimensionality != "planar" or len(crystal.extended_axes) != 2:
        raise InvalidArgumentError("spin ladder target needs a planar two-row crystal")
    a, b = crystal.extended_axes
    extents = np.ptp(crystal.positions[:, [a, b]], axis=0)
    rung_axis = (a, b)[int(np.argmin(extents))]
    leg_axis = b if rung_axis == a else a
    return rung_axis, leg_axis


def ladder_legs(crystal: IonCrystal) -> np.ndarray:
    """Leg index (0/1) of each ion of a two-row crystal.

    The rows are told apart by the sign of the in-plane coordinate with the
    smaller extent; an ion sitting on the ladder axis is a geometry error.
    """
    rung_axis, _ = ladder_axes(crystal)
    coord = crystal.positions[:, rung_axis]
    tol = 1e-9 * crystal.length_scale
    if np.any(np.abs(coord) < tol):
        raise InvalidArgumentError("an ion sits on the ladder axis; not a two-row crystal")
    legs = (coord > 0).astype(int)
    if len(set(legs)) != 2:
        raise InvalidArgumentError("crystal does not split into two legs")
    return legs


def _normalized(j: np.ndarray) -> CouplingMatrix:
    j = np.asarray(j, dtype=float)
    peak = np.abs(j).max()
    if peak == 0:
        raise InvalidArgumentError("target matrix is identically zero")
    return CouplingMatrix(j / peak)


def data_lines(path: Union[str, Path]) -> list[tuple[int, list[str]]]:
    """(line number, whitespace-separated fields) of each line of a text
    file that holds anything before its '#' comment.  A file that cannot
    be read raises InvalidArgumentError naming it."""
    try:
        with open(path) as fh:
            text = fh.readlines()
    except OSError as err:
        raise InvalidArgumentError(f"cannot read {path}: {err.strerror or err}") from None
    fields = [(lineno, line.split("#")[0].split()) for lineno, line in enumerate(text, 1)]
    return [(lineno, parts) for lineno, parts in fields if parts]


def load_target_matrix(path: Union[str, Path]) -> np.ndarray:
    """Whitespace-separated matrix rows, one row per line."""
    rows = []
    for lineno, fields in data_lines(path):
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            raise InvalidArgumentError(
                f"{path}:{lineno}: matrix entries must be numbers, got {' '.join(fields)!r}"
            ) from None
        if len(fields) != len(rows[0]):
            raise InvalidArgumentError(f"{path}:{lineno}: expected {len(rows[0])} entries, got {len(fields)}")
    m = np.array(rows, ndmin=2)
    if m.shape[0] != m.shape[1]:
        raise InvalidArgumentError(f"{path}: expected a square matrix, got {m.shape}")
    return m


def load_target_edges(path: Union[str, Path], n_ions: int) -> np.ndarray:
    """Edge list 'i j value' per line with 1-based ion indices."""
    j = np.zeros((n_ions, n_ions))
    for lineno, parts in data_lines(path):
        if len(parts) != 3:
            raise InvalidArgumentError(f"{path}:{lineno}: expected 'i j value'")
        try:
            a, b, v = int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])
        except ValueError:
            raise InvalidArgumentError(
                f"{path}:{lineno}: expected integer ion indices and a number, got {' '.join(parts)!r}"
            ) from None
        if not (0 <= a < n_ions and 0 <= b < n_ions) or a == b:
            raise InvalidArgumentError(f"{path}:{lineno}: bad ion pair {parts[0]}, {parts[1]}")
        j[a, b] = j[b, a] = v
    return j
