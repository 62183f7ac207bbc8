import numpy as np
import pytest

from tweezer_ising import (
    TargetSpec,
    TrapConfig,
    build_target,
    load_target_edges,
    load_target_matrix,
    solve_equilibrium,
)
from tweezer_ising.crystal import IonCrystal, make_lattice
from tweezer_ising.errors import InvalidArgumentError

from conftest import MHZ


def _chain_crystal(species, n=4):
    trap = TrapConfig(2.0 * MHZ, 1.6 * MHZ, 0.2 * MHZ, n_ions=n)
    return solve_equilibrium(trap, species, n)


def _ideal_triangular(species, n=19, spacing=12e-6):
    trap = TrapConfig(2.4 * MHZ, 0.16 * MHZ, 0.16 * MHZ, n_ions=n)
    pos = make_lattice("triangular", n, spacing)
    return IonCrystal(trap, species, pos, "planar", (1, 2))


class TestBuildTarget:
    def test_nearest_neighbor_chain(self, species):
        crystal = _chain_crystal(species, 4)
        j = build_target(TargetSpec("nearest_neighbor", "chain"), crystal).matrix
        order = np.argsort(crystal.positions[:, 2])
        expected = np.zeros((4, 4))
        for a, b in zip(order[:-1], order[1:]):
            expected[a, b] = expected[b, a] = 1.0
        assert np.array_equal(j, expected)

    def test_power_law_ratio_on_equidistant_chain(self, species):
        trap = TrapConfig(2.0 * MHZ, 1.6 * MHZ, 0.2 * MHZ, n_ions=4)
        pos = make_lattice("chain", 4, 5e-6)
        crystal = IonCrystal(trap, species, pos, "chain", (2,))
        j = build_target(TargetSpec("power_law", "chain", exponent=3.0), crystal).matrix
        assert j[0, 2] / j[0, 1] == pytest.approx(1.0 / 8.0, rel=1e-12)
        assert j[0, 1] == pytest.approx(1.0)

    def test_power_law_zero_exponent_is_uniform(self, species):
        crystal = _chain_crystal(species, 5)
        j = build_target(TargetSpec("power_law", "chain", exponent=0.0), crystal).matrix
        off = ~np.eye(5, dtype=bool)
        assert np.all(j[off] == 1.0)

    def test_power_law_index_mode_ignores_geometry(self, species):
        crystal = _chain_crystal(species, 5)  # unevenly spaced
        j = build_target(
            TargetSpec("power_law", "chain", exponent=2.0, distance_mode="index"), crystal
        ).matrix
        order = np.argsort(crystal.positions[:, 2])
        a, b, c = order[0], order[1], order[2]
        assert j[a, c] / j[a, b] == pytest.approx(1.0 / 4.0, rel=1e-12)

    def test_triangular_edge_count(self, species):
        crystal = _ideal_triangular(species)
        j = build_target(TargetSpec("triangular_af", "triangular"), crystal).matrix
        iu = np.triu_indices(19, 1)
        assert int((j[iu] != 0).sum()) == 42
        assert np.all(j[iu][j[iu] != 0] == 1.0)  # antiferromagnetic positive

    def test_triangular_rejects_wrong_counts(self, species):
        crystal = _chain_crystal(species, 4)
        with pytest.raises(InvalidArgumentError):
            build_target(TargetSpec("triangular_af", "triangular"), crystal)

    def test_target_respects_point_symmetry(self, species):
        crystal = _ideal_triangular(species, 19)
        j = build_target(TargetSpec("triangular_af", "triangular"), crystal).matrix
        # 60 degree rotation permutes sites; J must be invariant
        pos = crystal.positions[:, 1:]
        c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
        rot = pos @ np.array([[c, s], [-s, c]])
        perm = [int(np.argmin(np.linalg.norm(pos - r, axis=1))) for r in rot]
        assert np.allclose(j[np.ix_(perm, perm)], j)

    def test_spin_ladder_signs(self, species):
        trap = TrapConfig(0.6 * MHZ, 0.4 * MHZ, 0.14 * MHZ, n_ions=12)
        crystal = solve_equilibrium(trap, species, 12)
        assert crystal.dimensionality == "planar"
        j = build_target(TargetSpec("spin_ladder", "ladder"), crystal).matrix
        from tweezer_ising.targets import ladder_axes, neighbor_adjacency

        rung_axis, leg_axis = ladder_axes(crystal)
        pos = crystal.positions
        adj = neighbor_adjacency(pos)
        n_rungs = n_legs = 0
        for k in range(12):
            for l in range(k + 1, 12):
                if not adj[k, l]:
                    assert j[k, l] == 0.0
                elif abs(pos[k, rung_axis] - pos[l, rung_axis]) > abs(pos[k, leg_axis] - pos[l, leg_axis]):
                    assert j[k, l] == -1.0  # across the ladder: ferromagnetic
                    n_rungs += 1
                else:
                    assert j[k, l] == 1.0  # along the ladder: antiferromagnetic
                    n_legs += 1
        assert n_rungs > 0 and n_legs > 0

    def test_spin_ladder_needs_two_rows(self, species):
        crystal = _chain_crystal(species, 4)
        with pytest.raises(InvalidArgumentError):
            build_target(TargetSpec("spin_ladder", "ladder"), crystal)

    def test_explicit_matrix_normalized(self, species):
        crystal = _chain_crystal(species, 3)
        m = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, -4.0], [0.0, -4.0, 0.0]])
        j = build_target(TargetSpec("explicit", "chain", matrix=m), crystal).matrix
        assert np.abs(j).max() == 1.0
        assert j[1, 2] == -1.0 and j[0, 1] == 0.5

    def test_all_outputs_normalized_symmetric(self, species):
        crystal = _chain_crystal(species, 5)
        for spec in (
            TargetSpec("nearest_neighbor", "chain"),
            TargetSpec("power_law", "chain", exponent=1.5),
            TargetSpec("nearest_neighbor", "chain", sign=-1.0),
        ):
            j = build_target(spec, crystal).matrix
            assert np.array_equal(j, j.T)
            assert np.all(np.diag(j) == 0.0)
            assert np.abs(j).max() == pytest.approx(1.0)


class TestTargetFiles:
    def test_matrix_file_round_trip(self, tmp_path):
        m = np.array([[0.0, 1.0, -0.25], [1.0, 0.0, 0.5], [-0.25, 0.5, 0.0]])
        path = tmp_path / "target.txt"
        np.savetxt(path, m)
        assert np.allclose(load_target_matrix(path), m)

    def test_edge_list(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# rung then leg\n1 2 -1.0\n2 3 0.5\n")
        j = load_target_edges(path, 3)
        assert j[0, 1] == -1.0 and j[1, 0] == -1.0
        assert j[1, 2] == 0.5
        assert j[0, 2] == 0.0

    def test_edge_list_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 1 2.0\n")
        with pytest.raises(InvalidArgumentError):
            load_target_edges(path, 3)

    def test_matrix_file_reads_the_bits_numpy_reads(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 5)) * 10.0 ** rng.integers(-30, 30, (5, 5))
        path = tmp_path / "target.txt"
        np.savetxt(path, m, fmt="%.17g", header="five ions")
        assert load_target_matrix(path).tobytes() == np.loadtxt(path, ndmin=2).tobytes()

    def test_missing_matrix_file_names_it(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(InvalidArgumentError, match=f"cannot read {path}"):
            load_target_matrix(path)

    def test_matrix_non_number_names_file_and_line(self, tmp_path):
        path = tmp_path / "target.txt"
        path.write_text("# target\n0 1\n1 foo\n")
        with pytest.raises(InvalidArgumentError, match=f"{path}:3: matrix entries must be numbers"):
            load_target_matrix(path)

    def test_ragged_matrix_names_file_and_line(self, tmp_path):
        path = tmp_path / "target.txt"
        path.write_text("0 1 2\n\n1 0\n")
        with pytest.raises(InvalidArgumentError, match=f"{path}:3: expected 3 entries, got 2"):
            load_target_matrix(path)

    def test_edge_non_number_names_file_and_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2 0.5\n1 2 x\n")
        with pytest.raises(InvalidArgumentError, match=f"{path}:2: expected integer ion indices and a number"):
            load_target_edges(path, 3)

    def test_missing_edge_file_names_it(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(InvalidArgumentError, match=f"cannot read {path}"):
            load_target_edges(path, 3)
