"""Command-line front end.

Subcommands: modes, couplings, feasibility, optimize, misalign and
experiment take --config FILE (required), --out DIR, and --seed N,
--pin-axes AXES and --allow-anticonfinement, which override the config
keys [run] seed, [search] pin_axes and [search] allow_anticonfinement;
misalign also takes --in DIR, a saved optimize run to reuse.  reproduce
<fig3|fig4|fig5|fig6|fig7|table1|table2> takes --out DIR and --fast
(reduced grids and samples) and reads no config.
Exit codes: 0 success, 1 validation error, 2 convergence failure; errors
are printed to stderr as `error: <code>: <message>`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config
from .constants import KHZ, MHZ, YB171
from .coupling import DriveConfig, coupling_error, coupling_matrix
from .crystal import solve_equilibrium, triangular_start
from .errors import ConvergenceError, InvalidArgumentError, TweezerIsingError
from .experiment import (
    YB_PLUS_LINES,
    AtomicLines,
    TweezerBeam,
    differential_stark_shift,
    load_atomic_lines,
    misalignment_scan,
    scattering_rate,
    stark_homogenize,
    tweezer_trap_frequency,
)
from .iofmt import _write_modes, load_result, save_result, write_matrix_csv, write_summary, write_table_csv
from .modes import TweezerPattern, build_hessian, mode_spectrum
from .optimizer import PinProblem, run_pipeline, sign_feasibility, untweezed_baseline
from .scenarios import (
    SCENARIO_TOKENS,
    frustrated_ladder_12,
    misalignment_settings,
    nn_chain_12,
    power_law_chain_12,
    power_law_exponents,
    run_scenario,
    triangular_af_19,
)
from .targets import build_target


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2 by default; we keep 1 for usage
        raise InvalidArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tweezer-ising", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("modes", "couplings", "feasibility", "optimize", "misalign", "experiment"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--allow-anticonfinement", action="store_true")
        p.add_argument("--pin-axes", default=None, metavar="x|y|z|yz|...")
        if name == "misalign":
            p.add_argument("--in", dest="in_dir", default=None, help="reuse a saved optimize run")
    p = sub.add_parser("reproduce")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("token", choices=SCENARIO_TOKENS)
    p.add_argument("--fast", action="store_true", help="reduced grids and samples")
    return parser


def _load_config(args) -> RunConfig:
    overrides: dict = {}
    if args.seed is not None:
        overrides.setdefault("run", {})["seed"] = str(args.seed)
    if args.pin_axes is not None:
        overrides.setdefault("search", {})["pin_axes"] = args.pin_axes
    if args.allow_anticonfinement:
        overrides.setdefault("search", {})["allow_anticonfinement"] = "true"
    return parse_config(args.config, overrides=overrides)


def _outdir(args, default: str) -> Path:
    out = Path(args.out if args.out else default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _crystal_from_config(cfg: RunConfig):
    guess = None
    if cfg.target.geometry == "triangular":
        guess, _ = triangular_start(cfg.trap, cfg.species, min(cfg.trap.omegas))
    return solve_equilibrium(cfg.trap, cfg.species, cfg.trap.n_ions, guess)


def _pattern_from_config(cfg: RunConfig):
    if cfg.pinning is None:
        return None
    return TweezerPattern.from_frequencies(cfg.pinning, axes=cfg.space.pin_axes)


def _drive_from_config(cfg: RunConfig) -> DriveConfig:
    if cfg.mu is None:
        raise InvalidArgumentError("this command needs [drive] mu_mhz")
    return DriveConfig(
        mu=cfg.mu,
        drive_axis=cfg.drive_axis,
        g=cfg.g,
        k_eff=cfg.k_eff,
        resonance_guard=cfg.space.resonance_guard,
    )


def _design_from_config(cfg: RunConfig):
    return run_pipeline(
        cfg.target,
        cfg.space,
        cfg.trap,
        cfg.species,
        symmetry=cfg.symmetry,
        drive_axis=cfg.drive_axis,
        final_geometry=cfg.final_geometry,
        seed=cfg.seed,
    )


def _cmd_modes(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, "runs/modes")
    crystal = _crystal_from_config(cfg)
    spectrum = mode_spectrum(build_hessian(crystal, _pattern_from_config(cfg)))
    _write_modes(out, crystal.positions, spectrum)
    write_matrix_csv(out / "eigenvectors.csv", spectrum.eigenvectors, "eigenvectors", "columns_are_modes")
    print(f"wrote spectrum of {crystal.n_ions} ions to {out}")
    return 0


def _cmd_couplings(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, "runs/couplings")
    crystal = _crystal_from_config(cfg)
    spectrum = mode_spectrum(build_hessian(crystal, _pattern_from_config(cfg)))
    drive = _drive_from_config(cfg)
    j = coupling_matrix(spectrum, drive, cfg.species)
    units = "rad/s" if (cfg.g is not None and cfg.k_eff is not None) else "g^2*hbar*k^2/2M = 1"
    write_matrix_csv(out / "couplings.csv", j.matrix, "coupling_matrix", units)
    target = build_target(cfg.target, crystal)
    eps, jtilde = coupling_error(target, j)
    write_matrix_csv(out / "couplings_normalized.csv", jtilde.matrix, "coupling_matrix_normalized", "target_scale")
    write_matrix_csv(out / "target_matrix.csv", target.matrix, "target_matrix", "normalized")
    write_summary(out / "comparison.txt", {"comparison": {"epsilon": eps, "mu_mhz": drive.mu / MHZ}})
    print(f"epsilon = {eps:.6f} at mu/2pi = {drive.mu / MHZ:.4f} MHz; files in {out}")
    return 0


def _cmd_feasibility(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, "runs/feasibility")
    crystal = _crystal_from_config(cfg)
    drive = _drive_from_config(cfg)
    target = build_target(cfg.target, crystal)
    problem = PinProblem(crystal, target, drive.drive_axis, cfg.space.pin_axes)
    system, verdict = sign_feasibility(problem, drive, cfg.species, cfg.space)
    sections = {
        "feasibility": {
            "verdict": "feasible" if verdict.feasible else "infeasible",
            "margin": verdict.margin,
            "rows": system.n_rows,
            "excluded_pairs": len(system.excluded),
            "pinning_sign": cfg.space.pinning_sign,
        }
    }
    if verdict.witness is not None:
        sections["witness"] = {"omega_direction": list(verdict.witness)}
    write_summary(out / "feasibility.txt", sections)
    if system.n_rows:
        write_table_csv(
            out / "constraint_rows.csv",
            ["ion_k", "ion_l", "target_sign"] + [f"grad_ion_{i}" for i in range(crystal.n_ions)],
            [
                (k, l, s, *(system.matrix[r] / np.abs(system.matrix).max()))
                for r, (k, l, s) in enumerate(system.provenance)
            ],
            {"name": "sign_constraints", "scaling": "rows normalized to global max"},
        )
    print(f"{'feasible' if verdict.feasible else 'infeasible'} "
          f"({system.n_rows} rows, margin {verdict.margin:.3e}); files in {out}")
    return 0


def _cmd_optimize(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, "runs/optimize")
    result = _design_from_config(cfg)
    save_result(result, out)
    print(
        f"epsilon = {result.epsilon:.6f} at mu/2pi = {result.mu / MHZ:.4f} MHz, "
        f"max pin = {np.abs(result.pin_frequencies).max() / MHZ:.4f} MHz; files in {out}"
    )
    return 0


def _cmd_misalign(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, "runs/misalign")
    if args.in_dir:
        result = load_result(args.in_dir)
    else:
        result = _design_from_config(cfg)
        save_result(result, out / "aligned")
    scan = misalignment_scan(
        result, cfg.misalign_scales, cfg.misalign_samples, cfg.seed, axes=cfg.misalign_axes
    )
    _write_misalignment(out / "misalignment.csv", scan, cfg.misalign_samples)
    print(
        f"{len(scan.records)} samples ({scan.n_failed} failed), aligned epsilon "
        f"{scan.aligned_epsilon:.6f}; files in {out}"
    )
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, "runs/experiment")
    beam = TweezerBeam(cfg.beam_power, cfg.beam_waist, cfg.beam_wavelength)
    lines: AtomicLines = (
        load_atomic_lines(cfg.lines_file, cfg.hyperfine) if cfg.lines_file else YB_PLUS_LINES
    )
    rate = scattering_rate(beam, lines)
    omega_p = tweezer_trap_frequency(beam, lines, cfg.species)
    stark = differential_stark_shift(beam, lines)
    sections = {
        "beam": {
            "power_w": beam.power,
            "waist_um": beam.waist * 1e6,
            "wavelength_nm": beam.wavelength * 1e9,
        },
        "estimates": {
            "scattering_rate_per_s": rate,
            "tweezer_frequency_khz": omega_p / KHZ,
            "differential_stark_khz": stark / KHZ,
        },
    }
    if cfg.pinning is not None:
        wanted = [w for w in cfg.pinning if w > 0]
        beams = stark_homogenize(wanted, beam, lines, cfg.species)
        write_table_csv(
            out / "homogenized_beams.csv",
            ["pin_frequency_mhz", "power_w", "waist_um"],
            [(w / MHZ, b.power, b.waist * 1e6) for w, b in zip(wanted, beams)],
            {"name": "stark_homogenized_beams"},
        )
    write_summary(out / "estimators.txt", sections)
    print(
        f"scattering {rate:.2f} /s, pinning {omega_p / KHZ:.0f} kHz, "
        f"stark {stark / KHZ:.1f} kHz; files in {out}"
    )
    return 0


def _write_misalignment(path: Path, scan, samples: int) -> None:
    write_table_csv(
        path,
        ["average_misalignment_nm", "epsilon"],
        [(avg * 1e9, eps) for avg, eps in scan.records],
        {
            "name": "misalignment_scan",
            "aligned_epsilon": repr(float(scan.aligned_epsilon)),
            "samples": samples,
            "failed": scan.n_failed,
        },
    )


def _cmd_reproduce(args) -> int:
    token = args.token
    fast = args.fast
    out = _outdir(args, f"runs/{token}")
    if token == "fig4":
        rows = []
        for xi in power_law_exponents(fast):
            entry = [xi]
            for even in (True, False):
                res = run_scenario(power_law_chain_12(xi, even, fast))
                entry.append(res.epsilon)
            sc = power_law_chain_12(xi, even=False, fast=fast)
            base_eps, _, _ = untweezed_baseline(
                sc.target, sc.trap, YB171, sc.space.mu, drive_axis=sc.drive_axis, pin_axes=sc.space.pin_axes
            )
            entry.append(base_eps)
            rows.append(tuple(entry))
        write_table_csv(
            out / "power_law_errors.csv",
            ["exponent", "epsilon_even", "epsilon_uneven", "epsilon_unpinned"],
            rows,
            {"name": "power_law_error_sweep"},
        )
    elif token == "fig7":
        nn = run_scenario(nn_chain_12(fast))
        save_result(nn, out / "nn_chain_12")
        scales, samples, seed = misalignment_settings(fast)
        _write_misalignment(out / "misalignment.csv", misalignment_scan(nn, scales, samples, seed), samples)
    else:
        scenarios = []
        if token in ("fig3", "table1"):
            scenarios.append(nn_chain_12(fast))
        if token == "table1":
            scenarios += [power_law_chain_12(xi, even, fast) for xi in (3.5, 1.5) for even in (True, False)]
        if token in ("fig5", "table2"):
            scenarios.append(frustrated_ladder_12(fast))
        if token in ("fig6", "table2"):
            scenarios.append(triangular_af_19(fast))
        rows = []
        for sc in scenarios:
            res = run_scenario(sc)
            save_result(res, out / sc.name)
            rows.append((sc.name, res.omega_scan / MHZ, res.mu / MHZ,
                         np.abs(res.pin_frequencies).max() / MHZ, res.epsilon))
        write_table_csv(
            out / "summary_table.csv",
            ["scenario", "omega_scan_mhz", "mu_mhz", "max_pin_mhz", "epsilon"],
            rows,
            {"name": token},
        )
    print(f"scenario {token} written to {out}")
    return 0


_COMMANDS = {
    "modes": _cmd_modes,
    "couplings": _cmd_couplings,
    "feasibility": _cmd_feasibility,
    "optimize": _cmd_optimize,
    "misalign": _cmd_misalign,
    "experiment": _cmd_experiment,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConvergenceError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return 2
    except TweezerIsingError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
