import argparse
import dataclasses
import inspect
import shutil

import numpy as np
import pytest

from tweezer_ising import config, scenarios
from tweezer_ising.cli import _build_parser, main
from tweezer_ising.config import parse_config
from tweezer_ising.constants import KHZ, MHZ, YB171, SpeciesConstants
from tweezer_ising.errors import InvalidArgumentError
from tweezer_ising.experiment import YB_PLUS_LINES
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
from tweezer_ising.optimizer import SearchSpace, run_pipeline
from tweezer_ising.targets import TargetSpec

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


def _written_entries(path):
    """The sections, keys and values of an INI file as its lines spell them."""
    sections = {}
    for line in path.read_text().splitlines():
        if line.startswith("["):
            entries = sections.setdefault(line[1:-1], {})
        elif line:
            key, _, value = line.partition(" = ")
            entries[key] = value
    return sections


@pytest.fixture(scope="module")
def written_ini(saved_run, tmp_path_factory):
    """Every INI file the package writes: a saved run's summary.txt and the
    comparison, feasibility and estimator files of their subcommands."""
    config, run = saved_run
    root = tmp_path_factory.mktemp("ini")
    files = [run / "summary.txt"]
    for command, name in (("couplings", "comparison.txt"), ("feasibility", "feasibility.txt"),
                          ("experiment", "estimators.txt")):
        assert main([command, "--config", str(config), "--out", str(root / command)]) == 0
        files.append(root / command / name)
    return files


def test_each_written_ini_file_reads_back_key_for_key(written_ini):
    # the reader lower-cases keys and cuts inline ` #` comments for config
    # files; neither may change a file the package writes
    for path in written_ini:
        written = _written_entries(path)
        assert written and all(written.values()), path
        assert read_summary(path) == written, path


class TestCorruptSavedRun:
    """A saved run is input from outside the program: each fault names its file and key."""

    CASES = {
        "missing_file": (lambda run: (run / "positions.csv").unlink(), r"positions\.csv"),
        "missing_section": (_edit_summary("drive"), r"summary\.txt: missing \[drive\] axis"),
        "missing_key": (_edit_summary("result", "mu_mhz"), r"summary\.txt: missing \[result\] mu_mhz"),
        "missing_trap_key": (_edit_summary("trap", "n_ions"), r"summary\.txt: missing \[trap\] n_ions"),
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

    def test_blank_pin_axes_is_validation_error(self, tmp_path, capsys):
        # a blank pin_axes used to design pins that act on no axis, exit 0
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CONFIG.replace("pin_axes = y", "pin_axes ="))
        assert main(["optimize", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: invalid-argument: pin axes must name at least one of x, y, z\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("n_ions = 4\n", "", "missing config key [trap] n_ions"),
            ("omega_x_mhz = 2.0", "omega_x_mhz = two", "bad value for [trap] omega_x_mhz: 'two'"),
        ],
        ids=["missing", "malformed"],
    )
    def test_bad_trap_entry_names_section_and_key(self, tmp_path, old, new, message):
        # the saved-run side of the same reader: TestCorruptSavedRun's
        # missing_trap_key and non_number_summary
        from tweezer_ising.config import parse_config

        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG.replace(old, new))
        with pytest.raises(InvalidArgumentError) as err:
            parse_config(path, env={})
        assert str(err.value) == message

    @pytest.mark.parametrize("pin_axes, unit", [("x", [1.0, 0.0, 0.0]), ("y", [0.0, 1.0, 0.0]), ("yz", None)])
    def test_drive_axis_defaults_to_the_pinning_axes(self, tmp_path, pin_axes, unit):
        # without a [drive] axis line the config drives as run_pipeline
        # does with no drive axis: along the sum of the pinning axes
        from tweezer_ising.config import parse_config
        from tweezer_ising.coupling import DriveConfig
        from tweezer_ising.modes import axis_vector
        from tweezer_ising.optimizer import _drive_axis

        path = tmp_path / "axis.cfg"
        path.write_text(SMALL_CONFIG.replace("axis = y\n", "").replace("pin_axes = y", f"pin_axes = {pin_axes}"))
        cfg = parse_config(path, env={})
        assert cfg.space.pin_axes == tuple(pin_axes)
        pipeline = _drive_axis(None, cfg.space.pin_axes)
        for resolved in (axis_vector(cfg.drive_axis), _drive_axis(cfg.drive_axis, cfg.space.pin_axes),
                         DriveConfig(mu=cfg.mu, drive_axis=cfg.drive_axis).drive_axis):
            assert resolved.tobytes() == pipeline.tobytes()
        if unit is not None:
            assert pipeline.tolist() == unit
        given = tmp_path / "given.cfg"
        given.write_text(SMALL_CONFIG.replace("pin_axes = y", f"pin_axes = {pin_axes}").replace("axis = y", "axis = z"))
        assert parse_config(given, env={}).drive_axis == "z"

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

    def test_misalign_without_saved_run_designs_and_saves_it(self, saved_run, tmp_path):
        # the design misalign saves to aligned/ is the one optimize writes
        config, opt = saved_run
        out = tmp_path / "mis"
        assert main(["misalign", "--config", str(config), "--out", str(out)]) == 0
        aligned = out / "aligned"
        assert sorted(p.name for p in aligned.iterdir()) == sorted(p.name for p in opt.iterdir())
        for path in opt.iterdir():
            if path.name != "timings.txt":
                assert (aligned / path.name).read_bytes() == path.read_bytes(), path.name
        _, rows, meta = read_table_csv(out / "misalignment.csv")
        assert len(rows) == 6 and meta["failed"] == "0"
        assert float(meta["aligned_epsilon"]) == load_result(aligned).epsilon

    def test_modes_of_a_triangular_crystal(self, tmp_path):
        # a 7-ion triangular config starts its solve from `triangular_start`
        # and relaxes to a centred hexagon in the y-z plane
        text = (SMALL_CONFIG.replace("omega_x_mhz = 2.0", "omega_x_mhz = 3.0")
                .replace("omega_y_mhz = 0.8", "omega_y_mhz = 0.3").replace("omega_z_mhz = 0.25", "omega_z_mhz = 0.3")
                .replace("n_ions = 4", "n_ions = 7").replace("geometry = chain", "geometry = triangular")
                .replace("variant = nearest_neighbor", "variant = triangular_af")
                .replace("omega_mhz = 0.1,0.2,0.2,0.1", "omega_mhz = 0.1,0.2,0.2,0.1,0.1,0.1,0.1"))
        config = tmp_path / "tri.cfg"
        config.write_text(text)
        out = tmp_path / "m"
        assert main(["modes", "--config", str(config), "--out", str(out)]) == 0
        positions, _ = read_matrix_csv(out / "positions.csv")
        assert positions.shape == (7, 3) and np.all(positions[:, 0] == 0.0)
        radii = np.sort(np.linalg.norm(positions, axis=1))
        assert radii[0] < 1e-12 * radii[-1]
        np.testing.assert_allclose(radii[1:], radii[-1], rtol=1e-12)
        _, spectrum, _ = read_table_csv(out / "spectrum.csv")
        assert len(spectrum) == 21


#: the files each fast reproduce token writes: its tables, and the saved
#: run of each scenario it designs
REPRODUCED = {
    "fig3": (["summary_table.csv"], ["nn_chain_12"]),
    "fig4": (["power_law_errors.csv"], []),
    "fig5": (["summary_table.csv"], ["spin_ladder_12"]),
    "fig6": (["summary_table.csv"], ["triangular_af_19"]),
    "fig7": (["misalignment.csv"], ["nn_chain_12"]),
    "table1": (
        ["summary_table.csv"],
        ["nn_chain_12", "power_law_even_xi1.5", "power_law_even_xi3.5", "power_law_uneven_xi1.5", "power_law_uneven_xi3.5"],
    ),
    "table2": (["summary_table.csv"], ["spin_ladder_12", "triangular_af_19"]),
}
SAVED_FILES = ["cells.csv", "positions.csv", "realized_matrix.csv", "spectrum.csv", "summary.txt",
               "target_matrix.csv", "timings.txt", "tweezer_pattern.csv"]


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """The directory of each fast reproduce token's files."""
    root = tmp_path_factory.mktemp("reproduce")
    for token in scenarios.SCENARIO_TOKENS:
        assert main(["reproduce", token, "--fast", "--out", str(root / token)]) == 0
    return root


class TestReproduce:
    def test_every_token_is_covered(self):
        assert sorted(REPRODUCED) == sorted(scenarios.SCENARIO_TOKENS)

    @pytest.mark.parametrize("token", sorted(REPRODUCED))
    def test_each_token_writes_its_files(self, reproduced, token):
        tables, runs = REPRODUCED[token]
        out = reproduced / token
        assert sorted(p.name for p in out.iterdir()) == sorted(tables + runs)
        for run in runs:
            assert sorted(p.name for p in (out / run).iterdir()) == SAVED_FILES

    @pytest.mark.parametrize("token", sorted(t for t, (tables, _) in REPRODUCED.items() if "summary_table.csv" in tables))
    def test_summary_table_lists_each_saved_run(self, reproduced, token):
        cols, rows, meta = read_table_csv(reproduced / token / "summary_table.csv")
        assert cols == ["scenario", "omega_scan_mhz", "mu_mhz", "max_pin_mhz", "epsilon"] and meta["name"] == token
        assert sorted(row[0] for row in rows) == REPRODUCED[token][1]
        for name, *_, epsilon in rows:
            assert float(read_summary(reproduced / token / name / "summary.txt")["result"]["epsilon"]) == epsilon

    def test_summary_epsilon_is_the_scenarios(self, reproduced):
        _, rows, _ = read_table_csv(reproduced / "fig5" / "summary_table.csv")
        assert rows[0][-1] == scenarios.run_scenario(scenarios.frustrated_ladder_12(fast=True)).epsilon

    def test_one_scenario_saves_the_same_run_in_every_token(self, reproduced):
        for name, tokens in (("nn_chain_12", ("fig3", "fig7", "table1")), ("spin_ladder_12", ("fig5", "table2")),
                             ("triangular_af_19", ("fig6", "table2"))):
            first = reproduced / tokens[0] / name
            for token in tokens[1:]:
                for file in (f for f in SAVED_FILES if f != "timings.txt"):
                    assert (reproduced / token / name / file).read_bytes() == (first / file).read_bytes(), (token, file)

    def test_power_law_sweep(self, reproduced):
        cols, rows, _ = read_table_csv(reproduced / "fig4" / "power_law_errors.csv")
        assert cols == ["exponent", "epsilon_even", "epsilon_uneven", "epsilon_unpinned"]
        assert [row[0] for row in rows] == list(scenarios.power_law_exponents(fast=True))
        # the xi = 1.5 designs are table1's
        _, table, _ = read_table_csv(reproduced / "table1" / "summary_table.csv")
        epsilon = {row[0]: row[-1] for row in table}
        assert rows[0][1:3] == [epsilon["power_law_even_xi1.5"], epsilon["power_law_uneven_xi1.5"]]
        assert all(0 < row[3] for row in rows)

    def test_misalignment_scan(self, reproduced):
        _, rows, meta = read_table_csv(reproduced / "fig7" / "misalignment.csv")
        _, samples, _ = scenarios.misalignment_settings(fast=True)
        assert len(rows) == samples and meta["samples"] == str(samples) and meta["failed"] == "0"
        saved = read_summary(reproduced / "fig7" / "nn_chain_12" / "summary.txt")
        assert meta["aligned_epsilon"] == saved["result"]["epsilon"]

    def test_rerun_is_byte_identical_apart_from_timings(self, reproduced, tmp_path):
        assert main(["reproduce", "fig3", "--fast", "--out", str(tmp_path)]) == 0
        first = reproduced / "fig3"
        written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
        assert written == sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        for path in written:
            if path.name != "timings.txt":
                assert (tmp_path / path).read_bytes() == (first / path).read_bytes(), path


REQUIRED_ONLY = """
[trap]
omega_x_mhz = 2.0
omega_y_mhz = 0.8
omega_z_mhz = 0.25
n_ions = 4

[search]
omega_min_mhz = 0.25
omega_max_mhz = 0.25
mu_min_mhz = 0.60
mu_max_mhz = 0.75
pin_max_mhz = 0.4
"""


class TestConfigFormat:
    def test_required_keys_alone_take_the_owners_defaults(self, tmp_path):
        # each default is its owner's: the records', run_pipeline's, the
        # misalignment settings' and the atomic lines'
        path = tmp_path / "required.cfg"
        path.write_text(REQUIRED_ONLY)
        cfg = parse_config(path, env={})
        assert cfg.space == SearchSpace(omega_scan=(0.25 * MHZ, 0.25 * MHZ), mu=(0.6 * MHZ, 0.75 * MHZ), pin=(0.0, 0.4 * MHZ))
        assert cfg.target == TargetSpec("nearest_neighbor")
        pipeline = inspect.signature(run_pipeline).parameters
        assert (cfg.symmetry, cfg.final_geometry, cfg.seed) == tuple(
            pipeline[name].default for name in ("symmetry", "final_geometry", "seed")
        )
        scales, samples, _ = scenarios.misalignment_settings(False)
        assert cfg.misalign_scales.tobytes() == scales.tobytes() and cfg.misalign_samples == samples
        assert cfg.hyperfine == YB_PLUS_LINES.hyperfine_splitting
        assert (cfg.species, cfg.drive_axis, cfg.mu, cfg.g, cfg.k_eff, cfg.pinning, cfg.misalign_axes, cfg.lines_file) == (
            YB171, "y", None, None, None, None, None, None
        )
        assert (cfg.beam_power, cfg.beam_waist, cfg.beam_wavelength) == (1.0, 1e-6, 1070.0 * 1e-9)

    def test_the_table_is_the_format(self, config_path):
        # 46 keys in eight sections, no key name in two sections, and
        # SMALL_CONFIG's keys among them
        assert set(config.KEYS) == {"run", "trap", "target", "drive", "search", "pinning", "misalign", "experiment"}
        names = [key for keys in config.KEYS.values() for key in keys]
        assert len(names) == len(set(names)) == 46
        for section, entries in read_summary(config_path, kind="config").items():
            assert set(entries) <= set(config.KEYS[section]), section

    # one fault per file, and the message it gets
    FAULTS = {
        "unknown_section": (("\n[run]\n", "\n[Plotting]\ncolor = red\n[run]\n"), "unknown config section [Plotting]"),
        "unknown_key_section_spelling": (("[trap]", "[Trap]\nbogus = 1"), "unknown config key [Trap] bogus"),
        "missing": (("pin_max_mhz = 0.4\n", ""), "missing config key [search] pin_max_mhz"),
        "bad_value": (("mu_grid = 5", "mu_grid = five"), "bad value for [search] mu_grid: 'five'"),
        "bad_optional_value": (("mu_mhz = 0.68", "mu_mhz = fast"), "bad value for [drive] mu_mhz: 'fast'"),
        "bad_sign": (("sign = af", "sign = Up"), "bad [target] sign 'up'; use af or ferro"),
        "bad_geometry": (("geometry = chain", "geometry = ring"), "unknown geometry 'ring' in [trap] geometry"),
        "explicit_target": (
            ("variant = nearest_neighbor", "variant = explicit"), "explicit target needs matrix_file or edge_file"
        ),
        "pinning_length": (("omega_mhz = 0.1,0.2,0.2,0.1", "omega_mhz = 0.1,0.2"),
                           "[pinning] omega_mhz must list one value per ion"),
    }

    @pytest.mark.parametrize("case", sorted(FAULTS))
    def test_one_fault_one_message(self, tmp_path, case):
        (old, new), message = self.FAULTS[case]
        assert old in SMALL_CONFIG
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG.replace(old, new, 1))
        with pytest.raises(InvalidArgumentError) as err:
            parse_config(path, env={})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "env, overrides, message",
        [
            ({"TWEEZER_ISING__TRAP__BOGUS": "1"}, None, "override TWEEZER_ISING__TRAP__BOGUS names unknown key [trap] bogus"),
            ({"TWEEZER_ISING__PLOTTING__COLOR": "red"}, None,
             "override TWEEZER_ISING__PLOTTING__COLOR names unknown key [plotting] color"),
            ({"TWEEZER_ISING__SEED": "1"}, None, "malformed override variable TWEEZER_ISING__SEED"),
            ({}, {"search": {"bogus": "1"}}, "override names unknown key [search] bogus"),
            ({}, {"plotting": {"color": "red"}}, "override names unknown key [plotting] color"),
        ],
        ids=["env_key", "env_section", "env_malformed", "override_key", "override_section"],
    )
    def test_unknown_override_is_named(self, config_path, env, overrides, message):
        with pytest.raises(InvalidArgumentError) as err:
            parse_config(config_path, env=env, overrides=overrides)
        assert str(err.value) == message

    def test_override_order(self, config_path):
        # the environment overrides the file, and the overrides the environment
        env = {"TWEEZER_ISING__RUN__SEED": "7", "TWEEZER_ISING__SEARCH__MU_GRID": "3", "OTHER__RUN__SEED": "x"}
        cfg = parse_config(config_path, env=env, overrides={"run": {"seed": "9"}})
        assert (cfg.seed, cfg.space.mu_grid, cfg.space.restarts) == (9, 3, 2)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("scales_nm = 5,20", "scales_nm = 5,x", "bad value for [misalign] scales_nm: '5,x'"),
            ("omega_mhz = 0.1,0.2,0.2,0.1", "omega_mhz = 0.1,0.2,y,0.1",
             "bad value for [pinning] omega_mhz: '0.1,0.2,y,0.1'"),
            ("axis = y", "axis = 0,1,z", "bad value for [drive] axis: '0,1,z'"),
        ],
        ids=["scales", "pinning", "drive_axis"],
    )
    def test_bad_number_in_a_list_names_its_key(self, tmp_path, old, new, message):
        # used to end in a bare ValueError from float()
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG.replace(old, new))
        with pytest.raises(InvalidArgumentError) as err:
            parse_config(path, env={})
        assert str(err.value) == message

    def test_blank_optional_entries_read_as_unset(self, tmp_path):
        path = tmp_path / "blank.cfg"
        path.write_text(SMALL_CONFIG.replace("mu_mhz = 0.68", "mu_mhz =\nk_eff_per_m =")
                        .replace("omega_mhz = 0.1,0.2,0.2,0.1", "omega_mhz =").replace("samples = 6", "samples = 6\naxes ="))
        cfg = parse_config(path, env={})
        assert (cfg.mu, cfg.k_eff, cfg.pinning, cfg.misalign_axes) == (None, None, None, None)

    def test_units_are_converted_once(self, config_path):
        cfg = parse_config(config_path, env={"TWEEZER_ISING__DRIVE__RESONANCE_GUARD_KHZ": "2.5",
                                              "TWEEZER_ISING__EXPERIMENT__HYPERFINE_GHZ": "12.6428"})
        assert cfg.space.mu == (float("0.60") * MHZ, float("0.75") * MHZ) and cfg.mu == 0.68 * MHZ
        assert cfg.space.resonance_guard == 2.5 * KHZ
        assert cfg.pinning.tobytes() == (np.array([0.1, 0.2, 0.2, 0.1]) * MHZ).tobytes()
        assert cfg.misalign_scales.tobytes() == (np.array([5.0, 20.0]) * 1e-9).tobytes()
        assert (cfg.beam_waist, cfg.beam_wavelength) == (1.0 * 1e-6, 1070.0 * 1e-9)
        assert cfg.hyperfine == 12.6428 * 2.0 * np.pi * 1e9
