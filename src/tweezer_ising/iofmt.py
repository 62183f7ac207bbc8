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

from .constants import KHZ, MHZ, species_by_name
from .coupling import CouplingMatrix, realized_coupling
from .crystal import IonCrystal, TrapConfig, _classify_geometry
from .errors import InvalidArgumentError
from .modes import TweezerPattern
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
    meta, lines = {}, []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key.strip()] = value.strip()
        elif line:
            lines.append(line)
    return meta, lines


def read_matrix_csv(path: Union[str, Path]):
    meta, lines = _read_csv(path)
    matrix = np.array([[float(v) for v in line.split(",")] for line in lines])
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
    if not parser.read(path):
        raise InvalidArgumentError(f"cannot read summary file {path}")
    return {section: dict(parser[section]) for section in parser.sections()}


# ---------------------------------------------------------------------------
# optimization result persistence


def save_result(result, outdir: Union[str, Path], species_name: str = "Yb171") -> None:
    """Write an optimization result as a directory of plain-text files.

    Everything needed to reconstruct the result is stored at full
    precision; wall times go to a separate timings file so the numeric
    files are byte-identical across reruns.
    """
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
        "run": {"species": species_name},
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


def load_result(outdir: Union[str, Path]):
    """Rebuild an OptimizationResult record from a saved run directory.

    The spectrum and realized couplings are recomputed from the stored
    positions, pattern, and drive; the recomputed error must match the
    stored one, which guards against tampered or mismatched files.
    """
    out = Path(outdir)
    summary = read_summary(out / "summary.txt")
    species = species_by_name(summary["run"]["species"])
    trap = TrapConfig(
        omega_x=float(summary["trap"]["omega_x_mhz"]) * MHZ,
        omega_y=float(summary["trap"]["omega_y_mhz"]) * MHZ,
        omega_z=float(summary["trap"]["omega_z_mhz"]) * MHZ,
        n_ions=int(summary["trap"]["n_ions"]),
    )
    positions, _ = read_matrix_csv(out / "positions.csv")
    positions = positions / 1e6
    target, _ = read_matrix_csv(out / "target_matrix.csv")
    realized_stored, _ = read_matrix_csv(out / "realized_matrix.csv")
    _, pin_rows, pin_meta = read_table_csv(out / "tweezer_pattern.csv")
    pin_axes = tuple(pin_meta["axes"])
    pin_freqs = np.array([row[1] for row in pin_rows]) * MHZ
    axis = np.array([float(v) for v in summary["drive"]["axis"].split(",")])
    guard = float(summary["drive"]["resonance_guard_khz"]) * KHZ
    mu = float(summary["result"]["mu_mhz"]) * MHZ

    dimensionality, extended = _classify_geometry(positions, trap, species)
    crystal = IonCrystal(trap, species, positions, dimensionality, extended)
    pattern = TweezerPattern.from_frequencies(pin_freqs, axes=pin_axes)
    eps, realized, spectrum, drive = realized_coupling(
        positions, trap, species, pattern.curvatures, mu, axis, guard, target
    )
    if abs(eps - float(summary["result"]["epsilon"])) > 1e-9 * max(eps, 1e-12):
        raise InvalidArgumentError(
            f"{outdir}: stored epsilon {summary['result']['epsilon']} does not match recomputed {eps}"
        )
    if not np.allclose(realized.matrix, realized_stored, rtol=1e-9, atol=1e-12):
        raise InvalidArgumentError(f"{outdir}: stored realized matrix disagrees with recomputation")

    cells = []
    _, cell_rows, _ = read_table_csv(out / "cells.csv")
    for row in cell_rows:
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
    stage_eps = {
        key[len("epsilon_"):]: float(value)
        for key, value in summary["result"].items()
        if key.startswith("epsilon_")
    }
    return OptimizationResult(
        omega_scan=float(summary["result"]["omega_scan_mhz"]) * MHZ,
        mu=mu,
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
        iterations={},
        wall_time_s=0.0,
        converged=summary["result"]["converged"] == "True",
    )
