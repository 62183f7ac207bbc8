"""Bundled scenario presets behind the `reproduce` subcommand.

Each preset fixes trap, target, bounds, and seeds for one of the studied
configurations: the 12-ion nearest-neighbor chain, the power-law chains
(equidistant and harmonic), the frustrated 12-ion spin ladder, the 19-ion
triangular antiferromagnet, and the misalignment robustness scan.  "fast"
mode shrinks grids, restarts, and sample counts for smoke runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import MHZ, YB171
from .crystal import TrapConfig
from .optimizer import SearchSpace, run_pipeline
from .targets import TargetSpec


@dataclass(frozen=True)
class Scenario:
    name: str
    trap: TrapConfig
    target: TargetSpec
    space: SearchSpace
    symmetry: str
    drive_axis: str
    final_geometry: str = "harmonic"
    seed: int = 0


def nn_chain_12(fast: bool = False) -> Scenario:
    """Homogeneous antiferromagnetic nearest-neighbor chain, 12 ions."""
    return Scenario(
        name="nn_chain_12",
        trap=TrapConfig(2.0 * MHZ, 0.6 * MHZ, 0.07 * MHZ, n_ions=12),
        target=TargetSpec("nearest_neighbor", "chain"),
        space=SearchSpace(
            omega_scan=(0.07 * MHZ, 0.07 * MHZ),
            mu=(0.40 * MHZ, 0.55 * MHZ),
            pin=(0.0, 0.5 * MHZ),
            pin_axes=("y",),
            scan_axis="z",
            mu_grid=8 if fast else 24,
            restarts=3 if fast else 8,
        ),
        symmetry="reflection_z",
        drive_axis="y",
        seed=1,
    )


def power_law_chain_12(exponent: float, even: bool, fast: bool = False) -> Scenario:
    """Tunable power-law chain; `even` picks the segmented-trap idealization.

    The equidistant crystal's effective axial frequency stays a scanned
    stage-1 coordinate: at the nominal tabulated value the d0-spaced chain
    is radially unstable, so the scan covers the stable range instead.
    """
    if even:
        trap = TrapConfig(0.6 * MHZ, 0.6 * MHZ, 0.33 * MHZ, n_ions=12)
        omega_scan = (0.05 * MHZ, 0.095 * MHZ)
        omega_grid = 2 if fast else 4
        final = "fixed_lattice"
    else:
        trap = TrapConfig(0.6 * MHZ, 0.6 * MHZ, 0.10 * MHZ, n_ions=12)
        omega_scan = (0.10 * MHZ, 0.10 * MHZ)
        omega_grid = 1
        final = "harmonic"
    return Scenario(
        name=f"power_law_{'even' if even else 'uneven'}_xi{exponent:g}",
        trap=trap,
        target=TargetSpec("power_law", "chain", exponent=exponent),
        space=SearchSpace(
            omega_scan=omega_scan,
            mu=(0.65 * MHZ, 4.6 * MHZ),
            pin=(0.0, 2.0 * MHZ),
            pin_axes=("x",),
            scan_axis="z",
            omega_grid=omega_grid,
            mu_grid=8 if fast else 14,
            restarts=3 if fast else 6,
        ),
        symmetry="reflection_z",
        drive_axis="x",
        final_geometry=final,
        seed=11,
    )


def frustrated_ladder_12(fast: bool = False) -> Scenario:
    """Frustrated spin ladder: ferromagnetic rungs, antiferromagnetic legs."""
    return Scenario(
        name="spin_ladder_12",
        trap=TrapConfig(0.6 * MHZ, 0.4 * MHZ, 0.14 * MHZ, n_ions=12),
        target=TargetSpec("spin_ladder", "ladder"),
        space=SearchSpace(
            omega_scan=(0.14 * MHZ, 0.14 * MHZ),
            mu=(4.0 * MHZ, 4.4 * MHZ),
            pin=(0.0, 0.7 * MHZ),
            pin_axes=("y", "z"),
            scan_axis="z",
            mu_grid=4 if fast else 9,
            restarts=3 if fast else 8,
        ),
        symmetry="ladder_translation",
        drive_axis="y",
        seed=3,
    )


def triangular_af_19(fast: bool = False) -> Scenario:
    """19-ion triangular lattice with uniform antiferromagnetic neighbors."""
    return Scenario(
        name="triangular_af_19",
        trap=TrapConfig(2.4 * MHZ, 0.16 * MHZ, 0.16 * MHZ, n_ions=19),
        target=TargetSpec("triangular_af", "triangular"),
        space=SearchSpace(
            omega_scan=(0.16 * MHZ, 0.16 * MHZ),
            mu=(2.3 * MHZ, 2.45 * MHZ),
            pin=(0.0, 0.29 * MHZ),
            pin_axes=("x",),
            scan_axis="z",
            mu_grid=6 if fast else 16,
            restarts=3 if fast else 8,
        ),
        symmetry="C6",
        drive_axis="x",
        seed=4,
    )


def power_law_exponents(fast: bool = False):
    return (1.5, 3.0) if fast else (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def misalignment_settings(fast: bool = False):
    """(scales in meters, sample count, seed) for the robustness scan."""
    scales = np.array([1.0, 3.0, 10.0, 30.0, 100.0, 300.0]) * 1e-9
    return scales, (60 if fast else 1000), 123


SCENARIO_TOKENS = ("fig3", "fig4", "fig5", "fig6", "fig7", "table1", "table2")


def run_scenario(scenario: Scenario, seed: Optional[int] = None):
    return run_pipeline(
        scenario.target,
        scenario.space,
        scenario.trap,
        YB171,
        symmetry=scenario.symmetry,
        drive_axis=scenario.drive_axis,
        final_geometry=scenario.final_geometry,
        seed=scenario.seed if seed is None else seed,
    )
