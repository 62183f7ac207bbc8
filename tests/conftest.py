import numpy as np
import pytest

from tweezer_ising import YB171, TrapConfig
from tweezer_ising.errors import InvalidArgumentError, UnstableCrystalError
from tweezer_ising.modes import TOL_DEGENERACY_REL, TOL_PSD_REL, ModeSpectrum, _canonical_subspace_basis

MHZ = 2 * np.pi * 1e6


@pytest.fixture(scope="session")
def species():
    return YB171


@pytest.fixture
def chain_trap():
    # tight radials, loose axial: a 5-ion linear chain
    return TrapConfig(omega_x=2.0 * MHZ, omega_y=1.7 * MHZ, omega_z=0.2 * MHZ, n_ions=5)


def fd_gradient(f, x, step):
    """Central-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        d = np.zeros_like(x)
        d[i] = step
        g[i] = (f(x + d) - f(x - d)) / (2 * step)
    return g


def lone_spectrum(a, freq_scale, coords=None, n_ions=None):
    """`mode_spectrum(a, freq_scale, coords, n_ions)` written out for one
    matrix with one 2-D `eigh`, as it ran before the stacked `spectra`."""
    scale = np.abs(a).max() or 1.0
    if not np.allclose(a, a.T, rtol=0, atol=1e-10 * scale):
        raise InvalidArgumentError("Hessian must be symmetric")
    a = 0.5 * (a + a.T)
    b = a.shape[0]
    lam, vec = np.linalg.eigh(a)
    floor = TOL_PSD_REL * freq_scale**2
    if lam[0] < -floor:
        raise UnstableCrystalError(
            f"lowest eigenvalue {lam[0]:.6e} below stability floor -{floor:.6e} (rad^2/s^2)"
        )
    tol = TOL_DEGENERACY_REL * freq_scale**2
    start = 0
    while start < b:
        stop = start + 1
        while stop < b and lam[stop] - lam[stop - 1] < tol:
            stop += 1
        if stop - start > 1:
            vec[:, start:stop] = _canonical_subspace_basis(vec[:, start:stop])
        start = stop
    pick = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[pick, np.arange(b)])
    signs[signs == 0] = 1.0
    coords = np.arange(b) if coords is None else np.asarray(coords, dtype=int)
    n_ions = b // 3 if n_ions is None else n_ions
    return ModeSpectrum(np.sqrt(np.clip(lam, 0.0, None)), lam, vec * signs, coords, n_ions, freq_scale)
