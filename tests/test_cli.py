import argparse
import dataclasses
import shutil

import numpy as np
import pytest

from tweezer_ising import scenarios
from tweezer_ising.cli import _build_parser, main
from tweezer_ising.constants import SpeciesConstants
from tweezer_ising.errors import InvalidArgumentError
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



@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A config file and the directory of its saved `optimize` run."""
    root = tmp_path_factory.mktemp("saved")
    config = root / "run.cfg"
    config.write_text(SMALL_CONFIG)
    assert main(["optimize", "--config", str(config), "--out", str(root / "opt")]) == 0
    return config, root / "opt"


def _edit_summary(section, key=None, value=None):
    """Drop a section of summary.txt, drop one of its keys, or set a key to `value`."""
    def edit(run):
        sections = read_summary(run / "summary.txt")
        if key is None:
            del sections[section]
        elif value is None:
            del sections[section][key]
        else:
            sections[section][key] = value
        write_summary(run / "summary.txt", sections)
    return edit


def _replace_text(name, old, new):
    def edit(run):
        text = (run / name).read_text()
        assert old in text
        (run / name).write_text(text.replace(old, new, 1))
    return edit


def _drop_last_position(run):
    positions, _ = read_matrix_csv(run / "positions.csv")
    write_matrix_csv(run / "positions.csv", positions[:-1], "positions", "um")


def _drop_last_realized_row(run):
    realized, _ = read_matrix_csv(run / "realized_matrix.csv")
    write_matrix_csv(run / "realized_matrix.csv", realized[:-1], "realized_matrix", "normalized")


class TestCorruptSavedRun:
    """A saved run is input from outside the program: each fault names its file and key."""

    CASES = {
        "missing_file": (lambda run: (run / "positions.csv").unlink(), r"positions\.csv"),
        "missing_section": (_edit_summary("drive"), r"summary\.txt: missing \[drive\] axis"),
        "missing_key": (_edit_summary("result", "mu_mhz"), r"summary\.txt: missing \[result\] mu_mhz"),
        "non_number_summary": (
            _replace_text("summary.txt", "omega_x_mhz = 2.0", "omega_x_mhz = two"),
            r"summary\.txt: bad value for \[trap\] omega_x_mhz",
        ),
        "non_number_stage_epsilon": (
            _replace_text("summary.txt", "epsilon_stage1 = ", "epsilon_stage1 = x"),
            r"summary\.txt: bad value for \[result\] epsilon_stage1",
        ),
        "malformed_summary": (_replace_text("summary.txt", "[run]", "run"), r"malformed summary file"),
        "nan_epsilon": (_edit_summary("result", "epsilon", "nan"), r"stored epsilon nan does not match"),
        "realized_shape": (_drop_last_realized_row, r"stored realized matrix disagrees"),
        "non_number_matrix": (_replace_text("target_matrix.csv", "0.0,", "zero,"), r"target_matrix\.csv"),
        "unknown_axis": (
            _replace_text("tweezer_pattern.csv", "# axes = y", "# axes = q"),
            r"tweezer_pattern\.csv: unknown axis 'q' in # axes",
        ),
        "missing_axes": (
            _replace_text("tweezer_pattern.csv", "# axes = y\n", ""), r"tweezer_pattern\.csv: missing # axes"
        ),
        "non_number_pin": (
            _replace_text("tweezer_pattern.csv", "0.0,0.", "0.0,x"), r"tweezer_pattern\.csv: pin_frequency_mhz"
        ),
        "pin_count": (_replace_text("tweezer_pattern.csv", "3.0,", "#3.0,"), r"tweezer_pattern\.csv: expected 4"),
        "position_rows": (_drop_last_position, r"positions\.csv: expected 4 rows of 3 coordinates"),
        "non_number_cell": (
            _replace_text("cells.csv", "0.25,0.6,", "0.25,mu,"), r"cells\.csv: bad stage-1 cell row"
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fault_names_file_and_key(self, saved_run, tmp_path, case):
        edit, message = self.CASES[case]
        run = tmp_path / "run"
        shutil.copytree(saved_run[1], run)
        edit(run)
        with pytest.raises(InvalidArgumentError, match=message):
            load_result(run)

    def test_species_is_saved_by_its_table_name(self, saved_run):
        assert read_summary(saved_run[1] / "summary.txt")["run"]["species"] == "Yb171"

    def test_species_outside_the_table_is_not_saved(self, saved_run, tmp_path):
        result = load_result(saved_run[1])
        crystal = dataclasses.replace(result.crystal, species=SpeciesConstants(mass=2 * result.crystal.species.mass))
        out = tmp_path / "run"
        with pytest.raises(InvalidArgumentError, match="not in the species table"):
            save_result(dataclasses.replace(result, crystal=crystal), out)
        assert not out.exists()

    def test_misalign_exits_with_validation_code(self, saved_run, tmp_path, capsys):
        config, saved = saved_run
        run = tmp_path / "run"
        shutil.copytree(saved, run)
        _replace_text("tweezer_pattern.csv", "# axes = y", "# axes = q")(run)
        code = main(["misalign", "--config", str(config), "--out", str(tmp_path / "mis"), "--in", str(run)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument: ") and "tweezer_pattern.csv" in err


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

    # the config-key overrides: reproduce reads no config, so it takes none of them
    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--allow-anticonfinement"], ["--pin-axes", "yz"]])
    def test_override_flag_on_reproduce_is_usage_error(self, flag, capsys):
        assert main(["reproduce", "fig3", *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument: unrecognized arguments") and flag[0] in err

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

    def test_negative_seed_flag_is_validation_error(self, config_path, tmp_path, capsys):
        # used to end in numpy's "expected non-negative integer" traceback
        out = tmp_path / "o"
        assert main(["optimize", "--config", str(config_path), "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument: ") and "[run] seed" in err
        assert not (out / "summary.txt").exists()

    def test_negative_seed_key_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CONFIG.replace("seed = 5", "seed = -5"))
        assert main(["feasibility", "--config", str(bad)]) == 1
        assert "[run] seed must be nonnegative, got -5" in capsys.readouterr().err

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


CONFIG_OPTIONS = ["--allow-anticonfinement", "--config", "--help", "--out", "--pin-axes", "--seed"]
#: every subcommand's options, and a positional by its name
OPTIONS = {
    "modes": CONFIG_OPTIONS,
    "couplings": CONFIG_OPTIONS,
    "feasibility": CONFIG_OPTIONS,
    "optimize": CONFIG_OPTIONS,
    "misalign": sorted(CONFIG_OPTIONS + ["--in"]),
    "experiment": CONFIG_OPTIONS,
    "reproduce": ["--fast", "--help", "--out", "token"],
}


def test_each_subcommand_takes_its_options():
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: sorted(action.option_strings[-1] if action.option_strings else action.dest for action in sub._actions)
        for name, sub in commands.choices.items()
    }
    assert found == OPTIONS


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
