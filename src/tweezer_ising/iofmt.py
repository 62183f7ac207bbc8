"""Plain-text result files: matrices and tables as CSV, summaries as INI.

Floats are written with repr(), the shortest round-trip form, so a rerun
with identical inputs produces byte-identical files and every file
reloads to the exact in-memory values.
"""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import Union

import numpy as np

from .constants import KHZ, MHZ, species_by_name, species_name
from .coupling import CouplingMatrix, realized_coupling
from .crystal import IonCrystal, TrapConfig, _classify_geometry
from .errors import InvalidArgumentError
from .modes import AXIS_INDEX, TweezerPattern
from .optimizer import CellDiagnostics, OptimizationResult


def _fmt(x) -> str:
    return repr(float(x))


def write_matrix_csv(path: Union[str, Path], matrix: np.ndarray, name: str, units: str) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [f"# name = {name}", f"# n = {m.shape[0]}", f"# units = {units}"]
    lines += [",".join(_fmt(v) for v in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_csv(path: Union[str, Path]):
    """A CSV file's `# key = value` header entries and its other non-blank lines."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise InvalidArgumentError(f"cannot read {path}: {err.strerror}") from None
    meta, lines = {}, []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key.strip()] = value.strip()
        elif line:
            lines.append(line)
    return meta, lines


def read_matrix_csv(path: Union[str, Path]):
    meta, lines = _read_csv(path)
    try:
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines])
    except ValueError as err:
        raise InvalidArgumentError(f"{path}: not a matrix of numbers: {err}") from None
    if "n" in meta and matrix.shape[0] != int(meta["n"]):
        raise InvalidArgumentError(f"{path}: row count disagrees with header n = {meta['n']}")
    return matrix, meta


def write_table_csv(path: Union[str, Path], columns: list, rows, meta: dict = None) -> None:
    lines = [f"# {k} = {v}" for k, v in (meta or {}).items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_table_csv(path: Union[str, Path]):
    meta, lines = _read_csv(path)
    rows = [[_cell(v) for v in line.split(",")] for line in lines[1:]]
    return (lines[0].split(",") if lines else []), rows, meta


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _write_modes(out: Path, positions: np.ndarray, spectrum) -> None:
    """positions.csv and spectrum.csv of a crystal and its mode spectrum."""
    write_matrix_csv(out / "positions.csv", positions * 1e6, "positions", "um")
    write_table_csv(
        out / "spectrum.csv",
        ["mode", "frequency_mhz", "weight_x", "weight_y", "weight_z"],
        [(m, spectrum.frequencies[m] / MHZ, *spectrum.direction_weights[m]) for m in range(spectrum.n_modes)],
        {"name": "mode_spectrum"},
    )


def write_summary(path: Union[str, Path], sections: dict) -> None:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for section, entries in sections.items():
        parser[section] = {}
        for key, value in entries.items():
            if isinstance(value, (float, np.floating)):
                parser[section][key] = _fmt(value)
            elif isinstance(value, (list, tuple, np.ndarray)):
                parser[section][key] = ",".join(
                    _fmt(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in value
                )
            else:
                parser[section][key] = str(value)
    with open(path, "w") as fh:
        parser.write(fh)


def read_summary(path: Union[str, Path]) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        if not parser.read(path):
            raise InvalidArgumentError(f"cannot read summary file {path}")
    except configparser.Error as err:
        raise InvalidArgumentError(f"malformed summary file {path}: {err}") from None
    return {section: dict(parser[section]) for section in parser.sections()}


# ---------------------------------------------------------------------------
# optimization result persistence


def save_result(result, outdir: Union[str, Path]) -> None:
    """Write an optimization result as a directory of plain-text files.

    Everything needed to reconstruct the result is stored at full
    precision; wall times go to a separate timings file so the numeric
    files are byte-identical across reruns.  The species is stored by its
    table name (`constants.species_name`); a species not in the table
    raises InvalidArgumentError before anything is written.
    """
    species = species_name(result.crystal.species)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "target_matrix.csv", result.target.matrix, "target_matrix", "normalized")
    write_matrix_csv(out / "realized_matrix.csv", result.realized.matrix, "realized_matrix", "normalized")
    _write_modes(out, result.crystal.positions, result.spectrum)
    write_table_csv(
        out / "tweezer_pattern.csv",
        ["ion", "pin_frequency_mhz"],
        [(i, w / MHZ) for i, w in enumerate(result.pin_frequencies)],
        {"name": "tweezer_pattern", "axes": "".join(result.pin_axes)},
    )
    write_table_csv(
        out / "cells.csv",
        ["omega_scan_mhz", "mu_mhz", "verdict", "margin", "epsilon"],
        [
            (c.omega_scan / MHZ, c.mu / MHZ, c.verdict,
             "" if c.margin is None else _fmt(c.margin),
             "" if c.epsilon is None else _fmt(c.epsilon))
            for c in result.cells
        ],
        {"name": "stage1_cells"},
    )
    trap = result.crystal.trap
    sections = {
        "run": {"species": species},
        "trap": {
            "omega_x_mhz": trap.omega_x / MHZ,
            "omega_y_mhz": trap.omega_y / MHZ,
            "omega_z_mhz": trap.omega_z / MHZ,
            "n_ions": trap.n_ions,
        },
        "result": {
            "epsilon": result.epsilon,
            "omega_scan_mhz": result.omega_scan / MHZ,
            "mu_mhz": result.mu / MHZ,
            "converged": result.converged,
            **{f"epsilon_{k}": v for k, v in sorted(result.stage_epsilons.items()) if v is not None},
        },
        "pinning": {
            "axes": "".join(result.pin_axes),
            "omega_mhz": [w / MHZ for w in result.pin_frequencies],
        },
        "drive": {
            "axis": list(result.drive.drive_axis),
            "resonance_guard_khz": result.drive.resonance_guard / KHZ,
        },
    }
    write_summary(out / "summary.txt", sections)
    (out / "timings.txt").write_text(
        f"wall_time_s = {result.wall_time_s:.3f}\niterations = {result.iterations}\n"
    )


def _entry(path: Path, summary: dict, section: str, key: str, cast=float):
    """``summary[section][key]`` read by `cast`; a missing or malformed
    entry raises InvalidArgumentError naming the file and key."""
    try:
        raw = summary[section][key]
    except KeyError:
        raise InvalidArgumentError(f"{path}: missing [{section}] {key}") from None
    try:
        return cast(raw)
    except ValueError:
        raise InvalidArgumentError(f"{path}: bad value for [{section}] {key}: {raw!r}") from None


def load_result(outdir: Union[str, Path]):
    """Rebuild an OptimizationResult record from a saved run directory.

    The spectrum and realized couplings are recomputed from the stored
    positions, pattern, and drive; the recomputed error must match the
    stored one, which guards against tampered or mismatched files.  A
    missing file, section or key, a value that is not a number, and an
    unknown pinning axis raise InvalidArgumentError naming the file.
    """
    out = Path(outdir)
    summary_file = out / "summary.txt"
    summary = read_summary(summary_file)
    species = species_by_name(_entry(summary_file, summary, "run", "species", str))
    trap = TrapConfig(
        omega_x=_entry(summary_file, summary, "trap", "omega_x_mhz") * MHZ,
        omega_y=_entry(summary_file, summary, "trap", "omega_y_mhz") * MHZ,
        omega_z=_entry(summary_file, summary, "trap", "omega_z_mhz") * MHZ,
        n_ions=_entry(summary_file, summary, "trap", "n_ions", int),
    )
    axis = _entry(
        summary_file, summary, "drive", "axis", lambda text: np.array([float(v) for v in text.split(",")])
    )
    guard = _entry(summary_file, summary, "drive", "resonance_guard_khz") * KHZ
    mu = _entry(summary_file, summary, "result", "mu_mhz") * MHZ
    stored_eps = _entry(summary_file, summary, "result", "epsilon")
    omega_scan = _entry(summary_file, summary, "result", "omega_scan_mhz") * MHZ
    converged = _entry(summary_file, summary, "result", "converged", str) == "True"
    stage_eps = {
        key[len("epsilon_"):]: _entry(summary_file, summary, "result", key)
        for key in summary["result"]
        if key.startswith("epsilon_")
    }
    positions, _ = read_matrix_csv(out / "positions.csv")
    positions = positions / 1e6
    if positions.shape != (trap.n_ions, 3):
        raise InvalidArgumentError(f"{out / 'positions.csv'}: expected {trap.n_ions} rows of 3 coordinates")
    target, _ = read_matrix_csv(out / "target_matrix.csv")
    realized_stored, _ = read_matrix_csv(out / "realized_matrix.csv")
    pattern_file = out / "tweezer_pattern.csv"
    _, pin_rows, pin_meta = read_table_csv(pattern_file)
    if "axes" not in pin_meta:
        raise InvalidArgumentError(f"{pattern_file}: missing # axes")
    pin_axes = tuple(pin_meta["axes"])
    for ax in pin_axes:
        if ax not in AXIS_INDEX:
            raise InvalidArgumentError(f"{pattern_file}: unknown axis {ax!r} in # axes")
    try:
        pin_freqs = np.array([float(row[1]) for row in pin_rows]) * MHZ
    except (IndexError, ValueError):
        raise InvalidArgumentError(f"{pattern_file}: pin_frequency_mhz must be a number in every row") from None
    if pin_freqs.size != trap.n_ions:
        raise InvalidArgumentError(
            f"{pattern_file}: expected {trap.n_ions} pinning frequencies, got {pin_freqs.size}"
        )

    dimensionality, extended = _classify_geometry(positions, trap, species)
    crystal = IonCrystal(trap, species, positions, dimensionality, extended)
    pattern = TweezerPattern.from_frequencies(pin_freqs, axes=pin_axes)
    eps, realized, spectrum, drive = realized_coupling(
        positions, trap, species, pattern.curvatures, mu, axis, guard, target
    )
    if not abs(eps - stored_eps) <= 1e-9 * max(eps, 1e-12):  # a stored nan fails too
        raise InvalidArgumentError(
            f"{outdir}: stored epsilon {summary['result']['epsilon']} does not match recomputed {eps}"
        )
    if realized_stored.shape != realized.matrix.shape or not np.allclose(
        realized.matrix, realized_stored, rtol=1e-9, atol=1e-12
    ):
        raise InvalidArgumentError(f"{outdir}: stored realized matrix disagrees with recomputation")

    cells = []
    cells_file = out / "cells.csv"
    _, cell_rows, _ = read_table_csv(cells_file)
    for row in cell_rows:
        try:
            omega_mhz, mu_mhz, verdict, margin, epsilon = row
            cells.append(
                CellDiagnostics(
                    float(omega_mhz) * MHZ,
                    float(mu_mhz) * MHZ,
                    verdict,
                    None if margin == "" else float(margin),
                    None if epsilon == "" else float(epsilon),
                )
            )
        except ValueError:
            raise InvalidArgumentError(f"{cells_file}: bad stage-1 cell row {row}") from None
    return OptimizationResult(
        omega_scan=omega_scan,
        pin_frequencies=pin_freqs,
        pin_axes=pin_axes,
        epsilon=eps,
        stage_epsilons=stage_eps,
        cells=cells,
        target=CouplingMatrix(target),
        realized=realized,
        spectrum=spectrum,
        crystal=crystal,
        tweezers=pattern,
        drive=drive,
        stage3_counts={},
        wall_time_s=0.0,
        converged=converged,
    )
