"""Run configuration: INI files with strict keys and environment overrides.

`KEYS` is the file format: each key's reader, which turns its text into SI
units once (frequencies are given as w / 2pi in MHz or kHz, lengths in
micrometers, misalignments and wavelengths in nanometers), and its default.
Each default has one owner: a key that fills a field of `SearchSpace` or
`TargetSpec`, an argument of `run_pipeline`, or a setting of
`scenarios.misalignment_settings` or `experiment.YB_PLUS_LINES` takes that
default, and only a key with no owner holds a literal.  Entries are typed by
`iofmt.read_entry`, and ``[run] species`` and ``[trap]`` are read by
`iofmt.read_species_and_trap`, as a saved run's are.  The file, the
TWEEZER_ISING__<SECTION>__<KEY> environment variables and the overrides
`parse_config` is handed are checked against `KEYS` in one place.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .constants import KHZ, MHZ, SpeciesConstants
from .crystal import TrapConfig
from .errors import InvalidArgumentError, as_seed
from .experiment import YB_PLUS_LINES
from .iofmt import read_entry, read_species_and_trap, read_summary
from .optimizer import SearchSpace, run_pipeline
from .scenarios import misalignment_settings
from .targets import TargetSpec, load_target_edges, load_target_matrix

ENV_PREFIX = "TWEEZER_ISING__"

SIGN_WORDS = {"af": 1.0, "antiferro": 1.0, "ferro": -1.0, "+1": 1.0, "-1": -1.0, "1": 1.0}
#: the accepted spellings of a boolean value, in any case
BOOL_WORDS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


def _scaled(unit):
    """The reader of one number given in `unit`, in SI units."""
    return lambda raw: float(raw) * unit


def _scaled_list(unit):
    """The reader of comma-separated numbers given in `unit`, as an SI array."""
    return lambda raw: np.array([float(v) for v in raw.split(",")]) * unit


def _optional(reader):
    """`reader`, with a blank entry read as None."""
    return lambda raw: reader(raw) if raw.strip() else None


def _geometry(raw):
    if raw not in ("chain", "ladder", "triangular"):
        raise InvalidArgumentError(f"unknown geometry {raw!r} in [trap] geometry")
    return raw


def _sign(raw):
    word = raw.lower()
    if word not in SIGN_WORDS:
        raise InvalidArgumentError(f"bad [target] sign {word!r}; use af or ferro")
    return SIGN_WORDS[word]


_SPACE = {f.name: f.default for f in fields(SearchSpace)}
_TARGET = {f.name: f.default for f in fields(TargetSpec)}
_PIPELINE = {name: p.default for name, p in inspect.signature(run_pipeline).parameters.items()}
_SCALES, _SAMPLES, _ = misalignment_settings(False)
_MHZ = _scaled(MHZ)

#: section -> key -> (reader, default): every accepted key.  The default is
#: in SI units, MISSING for a required key and None for an optional one.
#: ``[run] species`` and the ``[trap]`` frequencies and ion count have no
#: reader here: `iofmt.read_species_and_trap` reads them.  Key names are
#: unique across sections.
KEYS = {
    "run": {"species": (None, "Yb171"), "seed": (lambda raw: as_seed("[run] seed", int(raw)), _PIPELINE["seed"])},
    "trap": {
        **dict.fromkeys(("omega_x_mhz", "omega_y_mhz", "omega_z_mhz", "n_ions"), (None, MISSING)),
        "geometry": (_geometry, _TARGET["geometry"]),
    },
    "target": {
        "variant": (str, "nearest_neighbor"),
        "sign": (_sign, _TARGET["sign"]),
        **{key: (float, _TARGET[key]) for key in ("exponent", "rung_sign", "leg_sign", "neighbor_factor")},
        **dict.fromkeys(("matrix_file", "edge_file"), (_optional(str), None)),
        "distance_mode": (str, _TARGET["distance_mode"]),
    },
    "drive": {
        # axis names or a 3-vector; without an axis line, the pinning axes'
        # names, the pipeline's default drive (`default_drive_axis`)
        "axis": (lambda raw: np.array([float(v) for v in raw.split(",")]) if "," in raw else raw, None),
        **dict.fromkeys(("mu_mhz", "g_mhz"), (_optional(_MHZ), None)),
        "k_eff_per_m": (_optional(float), None),
        "resonance_guard_khz": (_scaled(KHZ), _SPACE["resonance_guard"]),
    },
    "search": {
        **dict.fromkeys(("omega_min_mhz", "omega_max_mhz", "mu_min_mhz", "mu_max_mhz", "pin_max_mhz"), (_MHZ, MISSING)),
        "pin_min_mhz": (_MHZ, 0.0),
        "pin_axes": (tuple, _SPACE["pin_axes"]),
        "scan_axis": (str, _SPACE["scan_axis"]),
        **{key: (int, _SPACE[key]) for key in ("omega_grid", "mu_grid", "restarts", "max_iter")},
        "start_fraction": (float, _SPACE["start_fraction"]),
        "allow_anticonfinement": (lambda raw: BOOL_WORDS[raw.strip().lower()], _SPACE["allow_anticonfinement"]),
        "symmetry": (str, _PIPELINE["symmetry"]),
        "final_geometry": (str, _PIPELINE["final_geometry"]),
    },
    "pinning": {"omega_mhz": (_optional(_scaled_list(MHZ)), None)},
    "misalign": {
        "scales_nm": (_scaled_list(1e-9), _SCALES),
        "samples": (int, _SAMPLES),
        "axes": (_optional(tuple), None),
    },
    "experiment": {
        "power_w": (float, 1.0),
        "waist_um": (_scaled(1e-6), 1e-6),
        "wavelength_nm": (_scaled(1e-9), 1070.0 * 1e-9),
        "lines_file": (_optional(str), None),
        "hyperfine_ghz": (lambda raw: float(raw) * 2.0 * np.pi * 1e9, YB_PLUS_LINES.hyperfine_splitting),
    },
}


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


def _put(values: dict, section: str, key: str, value, unknown: str) -> None:
    """Set ``values[section][key]``; a key `KEYS` does not hold raises `unknown`."""
    if key not in KEYS.get(section, ()):
        raise InvalidArgumentError(unknown)
    values.setdefault(section, {})[key] = value


def parse_config(path, env=None, overrides: Optional[dict] = None) -> RunConfig:
    """Load, validate, and type a run configuration: the file's entries,
    overridden by the TWEEZER_ISING__ variables of `env` (os.environ by
    default), and those by `overrides`, ``{section: {key: text}}``."""
    values: dict = {}
    for section, entries in read_summary(path, kind="config").items():
        if section.lower() not in KEYS:
            raise InvalidArgumentError(f"unknown config section [{section}]")
        for key, value in entries.items():
            _put(values, section.lower(), key, value, f"unknown config key [{section}] {key}")
    for name, value in (env if env is not None else os.environ).items():
        if name.startswith(ENV_PREFIX):
            section, sep, key = name[len(ENV_PREFIX):].partition("__")
            if not sep:
                raise InvalidArgumentError(f"malformed override variable {name}")
            section, key = section.lower(), key.lower()
            _put(values, section, key, value, f"override {name} names unknown key [{section}] {key}")
    for section, entries in (overrides or {}).items():
        for key, value in entries.items():
            _put(values, section, key, value, f"override names unknown key [{section}] {key}")
    return _typed(values, Path(path).parent)


def _typed(values: dict, base_dir: Path) -> RunConfig:
    species, trap = read_species_and_trap(values, default_species=KEYS["run"]["species"][1])
    # every entry with a reader, by key: read from its text, or its default
    v = {
        key: read_entry(values, section, key, cast=reader)
        if key in values.get(section, {}) or default is MISSING else default
        for section, keys in KEYS.items()
        for key, (reader, default) in keys.items()
        if reader is not None
    }

    matrix = None
    if v["variant"] == "explicit":
        if v["matrix_file"]:
            matrix = load_target_matrix(base_dir / v["matrix_file"])
        elif v["edge_file"]:
            matrix = load_target_edges(base_dir / v["edge_file"], trap.n_ions)
        else:
            raise InvalidArgumentError("explicit target needs matrix_file or edge_file")
    target = TargetSpec(
        variant=v["variant"], geometry=v["geometry"], sign=v["sign"], exponent=v["exponent"],
        rung_sign=v["rung_sign"], leg_sign=v["leg_sign"], matrix=matrix,
        neighbor_factor=v["neighbor_factor"], distance_mode=v["distance_mode"],
    )
    space = SearchSpace(
        omega_scan=(v["omega_min_mhz"], v["omega_max_mhz"]),
        mu=(v["mu_min_mhz"], v["mu_max_mhz"]),
        pin=(v["pin_min_mhz"], v["pin_max_mhz"]),
        pin_axes=v["pin_axes"], scan_axis=v["scan_axis"], resonance_guard=v["resonance_guard_khz"],
        omega_grid=v["omega_grid"], mu_grid=v["mu_grid"], restarts=v["restarts"],
        start_fraction=v["start_fraction"], allow_anticonfinement=v["allow_anticonfinement"],
        max_iter=v["max_iter"],
    )
    if v["omega_mhz"] is not None and v["omega_mhz"].size != trap.n_ions:
        raise InvalidArgumentError("[pinning] omega_mhz must list one value per ion")

    return RunConfig(
        species=species, seed=v["seed"], trap=trap, target=target,
        drive_axis="".join(space.pin_axes) if v["axis"] is None else v["axis"],
        mu=v["mu_mhz"], g=v["g_mhz"], k_eff=v["k_eff_per_m"],
        space=space, symmetry=v["symmetry"], final_geometry=v["final_geometry"], pinning=v["omega_mhz"],
        misalign_scales=v["scales_nm"], misalign_samples=v["samples"], misalign_axes=v["axes"],
        beam_power=v["power_w"], beam_waist=v["waist_um"], beam_wavelength=v["wavelength_nm"],
        lines_file=v["lines_file"], hyperfine=v["hyperfine_ghz"],
    )
