"""What the package import loads: scipy's LAPACK wrappers alone, and the
physical constants as literals.

`scipy.linalg` and `scipy.constants` pull in scipy's array-API layer and
together took about half of a fresh `import tweezer_ising`; the package
calls two LAPACK routines and reads five numbers from them.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy
import scipy.constants

import tweezer_ising
from tweezer_ising import constants, crystal

FLAPACK = "scipy.linalg._flapack"


@pytest.fixture(scope="module")
def fresh_import():
    """In a fresh interpreter: the heavy scipy modules the package import
    loaded, then whether its LAPACK routines are those `scipy.linalg.lapack`
    exports once it is imported."""
    script = textwrap.dedent(
        """
        import sys

        import tweezer_ising
        from tweezer_ising import crystal

        print(*[m for m in ("scipy.linalg", "scipy.constants", "scipy.optimize") if m in sys.modules], sep=",")
        import scipy.linalg.lapack

        print(crystal.dpotrf is scipy.linalg.lapack.dpotrf, crystal.dpotrs is scipy.linalg.lapack.dpotrs)
        """
    )
    src = str(Path(tweezer_ising.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    return out.stdout.split("\n")


def test_the_package_import_leaves_out_scipy_linalg_constants_and_optimize(fresh_import):
    assert fresh_import[0] == ""


def test_the_lapack_routines_are_the_ones_scipy_linalg_lapack_exports(fresh_import):
    assert fresh_import[1] == "True True"


def test_without_the_extension_file_the_routines_come_from_scipy_linalg_lapack(monkeypatch):
    lapack = importlib.import_module("scipy.linalg.lapack")

    def no_loader(*args):
        raise AssertionError("loaded an extension file that should be hidden")

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".hidden"])
    monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader", no_loader)
    monkeypatch.delitem(sys.modules, FLAPACK)
    dpotrf, dpotrs = crystal._lapack_wrappers()
    assert dpotrf is lapack.dpotrf is crystal.dpotrf
    assert dpotrs is lapack.dpotrs is crystal.dpotrs


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
