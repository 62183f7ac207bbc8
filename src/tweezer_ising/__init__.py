"""Tweezer-engineered phonon spectra for programmable trapped-ion Ising couplings."""

from .constants import YB171, SpeciesConstants, species_by_name
from .coupling import (
    CouplingMatrix,
    DriveConfig,
    coupling_error,
    coupling_matrix,
    ising_phase,
    residual_displacement,
)
from .crystal import (
    IonCrystal,
    TrapConfig,
    equidistant_spacing,
    length_scale,
    make_lattice,
    potential_and_gradient,
    solve_equilibrium,
)
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
from .feasibility import (
    FeasibilityVerdict,
    SignConstraintSystem,
    build_sign_constraints,
    feasibility_test,
)
from .modes import (
    HessianMatrix,
    ModeSpectrum,
    TweezerPattern,
    build_hessian,
    lamb_dicke,
    mode_spectrum,
)
from .optimizer import (
    OptimizationResult,
    SearchSpace,
    SymmetryCells,
    run_pipeline,
    stage1_search,
    stage2_refine,
    stage3_finalize,
    symmetry_orbits,
    untweezed_baseline,
)
from .sensitivity import (
    CouplingGradient,
    coupling_gradient_adjoint,
    coupling_gradient_fd,
    coupling_jacobian_diag,
)
from .targets import TargetSpec, build_target, load_target_edges, load_target_matrix

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
