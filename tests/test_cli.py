import numpy as np
import pytest

from tweezer_ising import scenarios
from tweezer_ising.cli import main
from tweezer_ising.iofmt import (
    load_result,
    read_matrix_csv,
    read_summary,
    read_table_csv,
    save_result,
    write_matrix_csv,
    write_summary,
    write_table_csv,
)

SMALL_CONFIG = """
[run]
species = Yb171
seed = 5

[trap]
omega_x_mhz = 2.0
omega_y_mhz = 0.8
omega_z_mhz = 0.25
n_ions = 4
geometry = chain

[target]
variant = nearest_neighbor
sign = af

[drive]
axis = y
mu_mhz = 0.68

[search]
omega_min_mhz = 0.25
omega_max_mhz = 0.25
mu_min_mhz = 0.60
mu_max_mhz = 0.75
pin_min_mhz = 0.0
pin_max_mhz = 0.4
pin_axes = y
mu_grid = 5
restarts = 2
symmetry = reflection_z

[pinning]
omega_mhz = 0.1,0.2,0.2,0.1

[misalign]
scales_nm = 5,20
samples = 6

[experiment]
power_w = 1.0
waist_um = 1.0
wavelength_nm = 1070
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


class TestFileFormats:
    def test_matrix_round_trip(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((4, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m, "test_matrix", "arb")
        loaded, meta = read_matrix_csv(path)
        assert np.array_equal(loaded, m)  # exact, not approximate
        assert meta["name"] == "test_matrix"
        assert meta["n"] == "4"

    def test_table_round_trip(self, tmp_path):
        rows = [(0, 1.25, "ok"), (1, -3.5e-7, "bad")]
        path = tmp_path / "t.csv"
        write_table_csv(path, ["idx", "value", "tag"], rows, {"name": "demo"})
        cols, loaded, meta = read_table_csv(path)
        assert cols == ["idx", "value", "tag"]
        assert loaded[0][1] == 1.25 and loaded[1][1] == -3.5e-7
        assert meta["name"] == "demo"

    def test_summary_round_trip(self, tmp_path):
        path = tmp_path / "s.txt"
        write_summary(path, {"result": {"epsilon": 0.125, "list": [1.0, 2.5]}})
        loaded = read_summary(path)
        assert loaded["result"]["epsilon"] == "0.125"
        assert loaded["result"]["list"] == "1.0,2.5"

    # repr of ε after save_result and load_result, and whether the reload is
    # bit for bit: the triangle's positions lose their last bits in the
    # micrometre text of positions.csv
    RELOADED = {
        "nn_chain_12": ("0.028544842579508123", True),
        "triangular_af_19": ("0.18750803552233697", False),
    }

    @pytest.mark.parametrize("name", sorted(RELOADED))
    def test_saved_design_reloads(self, tmp_path, name):
        result = scenarios.run_scenario(getattr(scenarios, name)(fast=True))
        save_result(result, tmp_path)
        loaded = load_result(tmp_path)
        expected, exact = self.RELOADED[name]
        assert repr(loaded.epsilon) == expected
        if exact:
            assert repr(result.epsilon) == expected
            assert loaded.crystal.positions.tobytes() == result.crystal.positions.tobytes()
            assert loaded.realized.matrix.tobytes() == result.realized.matrix.tobytes()
        else:
            np.testing.assert_allclose(loaded.realized.matrix, result.realized.matrix, rtol=1e-9, atol=1e-12)


class TestExitCodes:
    def test_unknown_key_names_offender(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CONFIG.replace("n_ions = 4", "n_ions = 4\nbogus_key = 1"))
        code = main(["feasibility", "--config", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid-argument" in err
        assert "bogus_key" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("run", "threads", "1"),
            ("search", "line_search", "backtracking"),
            ("search", "stage1_geometry", "auto"),
            ("search", "feasibility_pairs", "all"),
            ("search", "feasibility_rows", "sign_mismatch"),
        ],
    )
    def test_retired_key_is_unknown(self, tmp_path, capsys, section, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1))
        assert main(["feasibility", "--config", str(bad)]) == 1
        assert f"unknown config key [{section}] {key}" in capsys.readouterr().err

    def test_retired_threads_flag_is_usage_error(self, config_path, capsys):
        assert main(["feasibility", "--config", str(config_path), "--threads", "2"]) == 1
        assert "--threads" in capsys.readouterr().err

    def test_duplicate_section_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "dup.cfg"
        bad.write_text(SMALL_CONFIG + "\n[trap]\nn_ions = 4\n")
        assert main(["feasibility", "--config", str(bad)]) == 1
        assert "invalid-argument" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CONFIG + "\n[plotting]\ncolor = red\n")
        assert main(["feasibility", "--config", str(bad)]) == 1
        assert "plotting" in capsys.readouterr().err

    def test_zero_max_iter_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CONFIG.replace("restarts = 2", "restarts = 2\nmax_iter = 0"))
        assert main(["optimize", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "invalid-argument" in err and "max_iter" in err

    @pytest.mark.parametrize("key", ["DRIVE__RESONANCE_GUARD_KHZ", "SEARCH__PIN_MAX_MHZ"])
    def test_nan_control_rejected(self, config_path, tmp_path, capsys, monkeypatch, key):
        # a NaN guard used to run with the guard off and write "nan" to
        # summary.txt; a NaN pin bound ended in a numpy traceback
        monkeypatch.setenv(f"TWEEZER_ISING__{key}", "nan")
        out = tmp_path / "o"
        assert main(["optimize", "--config", str(config_path), "--out", str(out)]) == 1
        assert "invalid-argument" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("kind", ["missing", "non_number"])
    def test_bad_matrix_file_is_validation_error(self, tmp_path, capsys, kind):
        matrix = tmp_path / "target.txt"
        if kind == "non_number":
            matrix.write_text("0 1 0 0\n1 0 foo 0\n0 1 0 1\n0 0 1 0\n")
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CONFIG.replace("variant = nearest_neighbor", f"variant = explicit\nmatrix_file = {matrix}"))
        assert main(["feasibility", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument: ") and str(matrix) in err

    @pytest.mark.parametrize("word, value", [("TRUE", True), ("yes", True), ("On", True), ("1", True),
                                             ("false", False), ("No", False), ("OFF", False), ("0", False)])
    def test_boolean_words(self, tmp_path, word, value):
        from tweezer_ising.config import parse_config

        cfg = tmp_path / "b.cfg"
        cfg.write_text(SMALL_CONFIG.replace("restarts = 2", f"restarts = 2\nallow_anticonfinement = {word}"))
        assert parse_config(cfg, env={}).space.allow_anticonfinement is value

    @pytest.mark.parametrize("source", ["file", "env", "override"])
    def test_malformed_boolean_rejected(self, config_path, tmp_path, source):
        from tweezer_ising.config import parse_config
        from tweezer_ising.errors import InvalidArgumentError

        path, env, overrides = config_path, {}, None
        if source == "file":
            path = tmp_path / "b.cfg"
            path.write_text(SMALL_CONFIG.replace("restarts = 2", "restarts = 2\nallow_anticonfinement = ture"))
        elif source == "env":
            env = {"TWEEZER_ISING__SEARCH__ALLOW_ANTICONFINEMENT": "ture"}
        else:
            overrides = {"search": {"allow_anticonfinement": "ture"}}
        with pytest.raises(InvalidArgumentError) as err:
            parse_config(path, env=env, overrides=overrides)
        assert str(err.value) == "bad value for [search] allow_anticonfinement: 'ture'"

    def test_missing_token_is_validation_error(self, capsys):
        assert main(["reproduce", "nonexistent-token"]) == 1

    def test_convergence_failure_exit_code(self, tmp_path, capsys):
        # an impossible sign flip with confining pinning far above the band
        cfg = SMALL_CONFIG.replace("n_ions = 4", "n_ions = 2")
        cfg = cfg.replace("variant = nearest_neighbor", "variant = nearest_neighbor")
        cfg = cfg.replace("sign = af", "sign = ferro")
        cfg = cfg.replace("mu_min_mhz = 0.60", "mu_min_mhz = 2.0")
        cfg = cfg.replace("mu_max_mhz = 0.75", "mu_max_mhz = 2.2")
        cfg = cfg.replace("mu_mhz = 0.68", "mu_mhz = 2.1")
        cfg = cfg.replace("omega_mhz = 0.1,0.2,0.2,0.1", "omega_mhz = 0.1,0.1")
        path = tmp_path / "hard.cfg"
        path.write_text(cfg)
        code = main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "convergence-failure" in capsys.readouterr().err


class TestSubcommands:
    def test_modes(self, config_path, tmp_path, capsys):
        out = tmp_path / "m"
        assert main(["modes", "--config", str(config_path), "--out", str(out)]) == 0
        vec, _ = read_matrix_csv(out / "eigenvectors.csv")
        assert vec.shape == (12, 12)
        cols, rows, _ = read_table_csv(out / "spectrum.csv")
        assert len(rows) == 12

    def test_couplings(self, config_path, tmp_path):
        out = tmp_path / "c"
        assert main(["couplings", "--config", str(config_path), "--out", str(out)]) == 0
        j, meta = read_matrix_csv(out / "couplings.csv")
        assert j.shape == (4, 4)
        assert np.array_equal(j, j.T)
        comparison = read_summary(out / "comparison.txt")
        assert float(comparison["comparison"]["epsilon"]) > 0

    def test_feasibility(self, config_path, tmp_path):
        out = tmp_path / "f"
        assert main(["feasibility", "--config", str(config_path), "--out", str(out)]) == 0
        summary = read_summary(out / "feasibility.txt")
        assert summary["feasibility"]["verdict"] in ("feasible", "infeasible")

    def test_optimize_misalign_round_trip(self, config_path, tmp_path):
        out = tmp_path / "opt"
        assert main(["optimize", "--config", str(config_path), "--out", str(out)]) == 0
        result = load_result(out)  # must reload into an equal record
        summary = read_summary(out / "summary.txt")
        assert result.epsilon == float(summary["result"]["epsilon"])
        out2 = tmp_path / "mis"
        code = main(
            ["misalign", "--config", str(config_path), "--out", str(out2), "--in", str(out)]
        )
        assert code == 0
        cols, rows, meta = read_table_csv(out2 / "misalignment.csv")
        assert len(rows) == 6
        assert float(meta["aligned_epsilon"]) == pytest.approx(result.epsilon, rel=1e-9)

    def test_optimize_rerun_is_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["optimize", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["optimize", "--config", str(config_path), "--out", str(out2)]) == 0
        for name in ("summary.txt", "realized_matrix.csv", "target_matrix.csv",
                     "positions.csv", "spectrum.csv", "tweezer_pattern.csv", "cells.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_experiment(self, config_path, tmp_path):
        out = tmp_path / "e"
        assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
        est = read_summary(out / "estimators.txt")["estimates"]
        assert 1.0 <= float(est["scattering_rate_per_s"]) <= 4.0
        beams_cols, beams, _ = read_table_csv(out / "homogenized_beams.csv")
        assert len(beams) == 4  # all pinning entries positive in the config

    def test_experiment_bad_lines_file_exits_1(self, config_path, tmp_path, capsys):
        lines = tmp_path / "lines.txt"
        lines.write_text("D1 369.5 19.6\nD2 328.9 n/a\n")
        cfg = tmp_path / "lines.cfg"
        cfg.write_text(config_path.read_text().replace("wavelength_nm = 1070", f"wavelength_nm = 1070\nlines_file = {lines}"))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert "invalid-argument" in err and f"{lines}:2" in err

    def test_env_override(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("TWEEZER_ISING__RUN__SEED", "9")
        from tweezer_ising.config import parse_config

        cfg = parse_config(config_path)
        assert cfg.seed == 9

    def test_env_override_rejects_unknown_key(self, config_path, monkeypatch):
        monkeypatch.setenv("TWEEZER_ISING__RUN__TYPO", "1")
        from tweezer_ising.config import parse_config
        from tweezer_ising.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            parse_config(config_path)

    def test_pin_axes_flag_overrides_config(self, config_path, tmp_path):
        out = tmp_path / "axes"
        code = main(
            ["modes", "--config", str(config_path), "--out", str(out), "--pin-axes", "yz"]
        )
        assert code == 0
