"""What the package loads: scipy's LAPACK wrappers and HiGHS's core alone,
and the physical constants as literals.

`scipy.linalg` and `scipy.constants` pull in scipy's array-API layer and
together took about half of a fresh `import tweezer_ising`; the package
calls two LAPACK routines and reads five numbers from them.  The first
feasibility LP imported `scipy.optimize`, about a third of a cold chain
design; the package runs the LP on HiGHS's compiled core.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.constants

import tweezer_ising
from tweezer_ising import compiled, constants, crystal, feasibility

FLAPACK = "scipy.linalg._flapack"
CORE = "scipy.optimize._highspy._core"


def _fresh(script):
    """The lines a script prints in a fresh interpreter that imports the package from its source."""
    src = str(Path(tweezer_ising.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split("\n")


@pytest.fixture(scope="module")
def fresh_import():
    """In a fresh interpreter: the heavy scipy modules the package import
    loaded, then whether its LAPACK routines are those `scipy.linalg.lapack`
    exports once it is imported."""
    return _fresh(
        """
        import sys

        import tweezer_ising
        from tweezer_ising import crystal

        print(*[m for m in ("scipy.linalg", "scipy.constants", "scipy.optimize") if m in sys.modules], sep=",")
        import scipy.linalg.lapack

        print(crystal.dpotrf is scipy.linalg.lapack.dpotrf, crystal.dpotrs is scipy.linalg.lapack.dpotrs)
        """
    )


def test_the_package_import_leaves_out_scipy_linalg_constants_and_optimize(fresh_import):
    assert fresh_import[0] == ""


def test_the_lapack_routines_are_the_ones_scipy_linalg_lapack_exports(fresh_import):
    assert fresh_import[1] == "True True"


@pytest.fixture
def hidden_extension_files(monkeypatch):
    """No compiled module file is found, and none may be loaded from one."""

    def no_loader(*args):
        raise AssertionError("loaded an extension file that should be hidden")

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".hidden"])
    monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader", no_loader)
    return monkeypatch


def test_without_the_extension_file_the_routines_come_from_scipy_linalg_lapack(hidden_extension_files):
    lapack = importlib.import_module("scipy.linalg.lapack")
    hidden_extension_files.delitem(sys.modules, FLAPACK)
    flapack = compiled.scipy_extension(FLAPACK)
    assert flapack.dpotrf is lapack.dpotrf is crystal.dpotrf
    assert flapack.dpotrs is lapack.dpotrs is crystal.dpotrs


#: a sign-constraint system with exact zeros, solved in and out of a fresh interpreter
SYSTEM = [[1.0, 0.0, -2.0], [0.5, 3.0, 0.0], [0.1, -1.0, 1.0]]


def _lp_bits(margin, witness):
    return (np.float64(margin).tobytes() + np.asarray(witness, dtype=float).tobytes()).hex()


def test_without_the_extension_file_the_lp_solver_comes_from_its_scipy_import(hidden_extension_files):
    x = np.array(SYSTEM)
    core = compiled.scipy_extension(CORE)
    before = _lp_bits(*feasibility._margin_lp(x, -1.0))
    hidden_extension_files.delitem(sys.modules, CORE)
    assert compiled.scipy_extension(CORE) is core is sys.modules[CORE]
    assert _lp_bits(*feasibility._margin_lp(x, -1.0)) == before


@pytest.fixture(scope="module")
def fresh_design():
    """In a fresh interpreter, after a fast `nn_chain_12` design: the heavy
    scipy modules it loaded; then, once `scipy.optimize` is imported, whether
    it runs on the HiGHS core the package loaded, and the bits of one margin
    LP from the package and from `milp`."""
    return _fresh(
        f"""
        import sys

        import numpy as np

        from tweezer_ising import feasibility, scenarios

        scenarios.run_scenario(scenarios.nn_chain_12(fast=True))
        heavy = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special")
        print(*[m for m in heavy if m in sys.modules], sep=",")
        core = sys.modules["{CORE}"]
        x = np.array({SYSTEM!r})
        margin, witness = feasibility._margin_lp(x, -1.0)

        import scipy.optimize._highspy._highs_wrapper as wrapper
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.optimize._highspy import _core

        print(sys.modules["{CORE}"] is core, _core is core, wrapper._h is core)
        res = milp(
            np.r_[0.0, 0.0, 0.0, -1.0],
            constraints=LinearConstraint(np.hstack([-x, np.ones((3, 1))]), -np.inf, 0.0),
            bounds=Bounds(np.r_[-1.0, -1.0, -1.0, -np.inf], np.r_[1.0, 1.0, 1.0, np.inf]),
        )
        bits = [(np.float64(m).tobytes() + np.asarray(w).tobytes()).hex() for m, w in ((margin, witness), (-res.fun, res.x[:-1]))]
        print(*bits)
        """
    )


def test_a_chain_design_leaves_scipy_optimize_linalg_sparse_and_special_out(fresh_design):
    assert fresh_design[0] == ""


def test_a_later_scipy_optimize_import_runs_on_the_core_the_package_loaded(fresh_design):
    assert fresh_design[1] == "True True True"


def test_milp_gives_the_packages_margin_lp_bits_after_the_package_loaded_its_core(fresh_design):
    package, scipy_milp = fresh_design[2].split()
    assert package == scipy_milp == _lp_bits(*feasibility._margin_lp(np.array(SYSTEM), -1.0))


@pytest.mark.skipif(scipy.__version__ != "1.17.1", reason="the literals are scipy 1.17.1's CODATA 2022 table")
@pytest.mark.parametrize(
    "name, scipy_name",
    [
        ("HBAR", "hbar"),
        ("EPSILON_0", "epsilon_0"),
        ("ELEMENTARY_CHARGE", "e"),
        ("ATOMIC_MASS", "atomic_mass"),
        ("SPEED_OF_LIGHT", "c"),
    ],
)
def test_each_constant_is_scipys_value(name, scipy_name):
    assert getattr(constants, name) == getattr(scipy.constants, scipy_name)
