"""Run configuration: INI files with strict keys and environment overrides.

Frequencies in config files are w / 2pi in MHz, lengths in micrometers,
misalignments in nanometers; each value is converted to SI units (angular
frequencies in rad/s) exactly once.  The file is opened and its entries
typed by `iofmt.read_summary` and `iofmt.read_entry`, the readers of a
saved run's summary.txt, and ``[run]`` and ``[trap]`` are converted by
`iofmt.read_species_and_trap`, as a saved run's are; `_typed` converts
the other sections.  Unknown sections or keys are rejected by name.  Any
value can be overridden through the environment as
TWEEZER_ISING__<SECTION>__<KEY>=value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .constants import KHZ, MHZ, SpeciesConstants
from .crystal import TrapConfig
from .errors import InvalidArgumentError, as_seed
from .iofmt import read_entry, read_species_and_trap, read_summary
from .optimizer import SearchSpace
from .targets import TargetSpec, load_target_edges, load_target_matrix

ENV_PREFIX = "TWEEZER_ISING__"

#: every accepted key, per section
SCHEMA = {
    "run": {"species", "seed"},
    "trap": {"omega_x_mhz", "omega_y_mhz", "omega_z_mhz", "n_ions", "geometry"},
    "target": {
        "variant",
        "sign",
        "exponent",
        "rung_sign",
        "leg_sign",
        "matrix_file",
        "edge_file",
        "distance_mode",
        "neighbor_factor",
    },
    "drive": {"axis", "mu_mhz", "g_mhz", "k_eff_per_m", "resonance_guard_khz"},
    "search": {
        "omega_min_mhz",
        "omega_max_mhz",
        "mu_min_mhz",
        "mu_max_mhz",
        "pin_min_mhz",
        "pin_max_mhz",
        "pin_axes",
        "scan_axis",
        "omega_grid",
        "mu_grid",
        "restarts",
        "start_fraction",
        "max_iter",
        "symmetry",
        "final_geometry",
        "allow_anticonfinement",
    },
    "pinning": {"omega_mhz"},
    "misalign": {"scales_nm", "samples", "axes"},
    "experiment": {"power_w", "waist_um", "wavelength_nm", "lines_file", "hyperfine_ghz"},
}

SIGN_WORDS = {"af": 1.0, "antiferro": 1.0, "ferro": -1.0, "+1": 1.0, "-1": -1.0, "1": 1.0}
#: the accepted spellings of a boolean value, in any case
BOOL_WORDS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


@dataclass
class RunConfig:
    species: SpeciesConstants
    seed: int
    trap: TrapConfig
    target: TargetSpec
    drive_axis: object
    mu: Optional[float]
    g: Optional[float]
    k_eff: Optional[float]
    space: SearchSpace
    symmetry: str
    final_geometry: str
    pinning: Optional[np.ndarray]
    misalign_scales: np.ndarray  # meters
    misalign_samples: int
    misalign_axes: Optional[tuple]
    beam_power: float
    beam_waist: float
    beam_wavelength: float
    lines_file: Optional[str]
    hyperfine: float


def _apply_env(values: dict, env) -> dict:
    for name, value in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):]
        try:
            section, key = rest.split("__", 1)
        except ValueError:
            raise InvalidArgumentError(f"malformed override variable {name}") from None
        section, key = section.lower(), key.lower()
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise InvalidArgumentError(f"override {name} names unknown key [{section}] {key}")
        values.setdefault(section, {})[key] = value
    return values


def parse_config(path, env=None, overrides: Optional[dict] = None) -> RunConfig:
    """Load, validate, and type a run configuration."""
    values: dict = {}
    for section, entries in read_summary(path, kind="config").items():
        if section.lower() not in SCHEMA:
            raise InvalidArgumentError(f"unknown config section [{section}]")
        for key, value in entries.items():
            if key not in SCHEMA[section.lower()]:
                raise InvalidArgumentError(f"unknown config key [{section}] {key}")
            values.setdefault(section.lower(), {})[key] = value
    values = _apply_env(values, env if env is not None else os.environ)
    for section, entries in (overrides or {}).items():
        for key, value in entries.items():
            if key not in SCHEMA.get(section, set()):
                raise InvalidArgumentError(f"override names unknown key [{section}] {key}")
            values.setdefault(section, {})[key] = value
    return _typed(values, Path(path).parent)


def _opt(values, section, key, cast=float):
    raw = values.get(section, {}).get(key)
    if raw is None or str(raw).strip() == "":
        return None
    return read_entry(values, section, key, cast=cast)


def _typed(values: dict, base_dir: Path) -> RunConfig:
    species, trap = read_species_and_trap(values, default_species="Yb171")
    seed = as_seed("[run] seed", read_entry(values, "run", "seed", 0, int))
    geometry = read_entry(values, "trap", "geometry", "chain")
    if geometry not in ("chain", "ladder", "triangular"):
        raise InvalidArgumentError(f"unknown geometry {geometry!r} in [trap] geometry")

    kind = read_entry(values, "target", "variant", "nearest_neighbor")
    sign_raw = read_entry(values, "target", "sign", "af").lower()
    if sign_raw not in SIGN_WORDS:
        raise InvalidArgumentError(f"bad [target] sign {sign_raw!r}; use af or ferro")
    matrix = None
    if kind == "explicit":
        matrix_file = _opt(values, "target", "matrix_file", str)
        edge_file = _opt(values, "target", "edge_file", str)
        if matrix_file:
            matrix = load_target_matrix(base_dir / matrix_file)
        elif edge_file:
            matrix = load_target_edges(base_dir / edge_file, trap.n_ions)
        else:
            raise InvalidArgumentError("explicit target needs matrix_file or edge_file")
    target = TargetSpec(
        variant=kind,
        geometry=geometry,
        sign=SIGN_WORDS[sign_raw],
        exponent=read_entry(values, "target", "exponent", 3.0, float),
        rung_sign=read_entry(values, "target", "rung_sign", -1.0, float),
        leg_sign=read_entry(values, "target", "leg_sign", 1.0, float),
        matrix=matrix,
        neighbor_factor=read_entry(values, "target", "neighbor_factor", 1.3, float),
        distance_mode=read_entry(values, "target", "distance_mode", "actual"),
    )

    space = SearchSpace(
        omega_scan=(
            read_entry(values, "search", "omega_min_mhz", cast=float) * MHZ,
            read_entry(values, "search", "omega_max_mhz", cast=float) * MHZ,
        ),
        mu=(
            read_entry(values, "search", "mu_min_mhz", cast=float) * MHZ,
            read_entry(values, "search", "mu_max_mhz", cast=float) * MHZ,
        ),
        pin=(
            read_entry(values, "search", "pin_min_mhz", 0.0, float) * MHZ,
            read_entry(values, "search", "pin_max_mhz", cast=float) * MHZ,
        ),
        pin_axes=tuple(read_entry(values, "search", "pin_axes", "y")),
        scan_axis=read_entry(values, "search", "scan_axis", "z"),
        resonance_guard=read_entry(values, "drive", "resonance_guard_khz", 1.0, float) * KHZ,
        omega_grid=read_entry(values, "search", "omega_grid", 12, int),
        mu_grid=read_entry(values, "search", "mu_grid", 24, int),
        restarts=read_entry(values, "search", "restarts", 8, int),
        start_fraction=read_entry(values, "search", "start_fraction", 0.1, float),
        allow_anticonfinement=read_entry(
            values, "search", "allow_anticonfinement", False, lambda raw: BOOL_WORDS[str(raw).strip().lower()]
        ),
        max_iter=read_entry(values, "search", "max_iter", 2000, int),
    )

    # without an axis line, the pipeline's default drive: `default_drive_axis`
    # is the axis vector of the pinning axes' names
    axis_raw = read_entry(values, "drive", "axis", "".join(space.pin_axes))
    drive_axis = (
        np.array([float(v) for v in axis_raw.split(",")]) if "," in axis_raw else axis_raw
    )

    pinning = None
    pin_raw = _opt(values, "pinning", "omega_mhz", str)
    if pin_raw:
        pinning = np.array([float(v) for v in pin_raw.split(",")]) * MHZ
        if pinning.size != trap.n_ions:
            raise InvalidArgumentError("[pinning] omega_mhz must list one value per ion")

    scales_raw = read_entry(values, "misalign", "scales_nm", "1,3,10,30,100,300")
    scales = np.array([float(v) for v in scales_raw.split(",")]) * 1e-9
    axes_raw = _opt(values, "misalign", "axes", str)

    return RunConfig(
        species=species,
        seed=seed,
        trap=trap,
        target=target,
        drive_axis=drive_axis,
        mu=None if _opt(values, "drive", "mu_mhz") is None else _opt(values, "drive", "mu_mhz") * MHZ,
        g=None if _opt(values, "drive", "g_mhz") is None else _opt(values, "drive", "g_mhz") * MHZ,
        k_eff=_opt(values, "drive", "k_eff_per_m"),
        space=space,
        symmetry=read_entry(values, "search", "symmetry", "none"),
        final_geometry=read_entry(values, "search", "final_geometry", "harmonic"),
        pinning=pinning,
        misalign_scales=scales,
        misalign_samples=read_entry(values, "misalign", "samples", 1000, int),
        misalign_axes=tuple(axes_raw) if axes_raw else None,
        beam_power=read_entry(values, "experiment", "power_w", 1.0, float),
        beam_waist=read_entry(values, "experiment", "waist_um", 1.0, float) * 1e-6,
        beam_wavelength=read_entry(values, "experiment", "wavelength_nm", 1070.0, float) * 1e-9,
        lines_file=_opt(values, "experiment", "lines_file", str),
        hyperfine=read_entry(values, "experiment", "hyperfine_ghz", 12.6428, float) * 2.0 * np.pi * 1e9,
    )
