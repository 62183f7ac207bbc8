"""Exception types shared across the package, and its integer and seed checks."""

import operator


class TweezerIsingError(Exception):
    """Base class for all package errors."""

    code = "error"


class InvalidArgumentError(TweezerIsingError, ValueError):
    """An input violates a documented precondition."""

    code = "invalid-argument"


class SingularGeometryError(TweezerIsingError):
    """Two or more ions coincide; the Coulomb terms are undefined."""

    code = "singular-geometry"


class ConvergenceError(TweezerIsingError):
    """An iterative solver ran out of iterations.

    Carries the last residual so callers can judge how close it got.
    """

    code = "convergence-failure"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NonPlanarError(TweezerIsingError):
    """A crystal expected to be linear or planar relaxed into 3D."""

    code = "non-planar"


class UnstableCrystalError(TweezerIsingError):
    """The pinned Hessian has an eigenvalue below the stability floor."""

    code = "unstable-crystal"


class ResonanceError(TweezerIsingError):
    """The beatnote sits inside the guard band of an included mode."""

    code = "resonance"


class ZeroFrequencyModeError(TweezerIsingError):
    """A zero-frequency mode couples to the drive; 1/sqrt(omega) diverges."""

    code = "zero-frequency-mode"


class DegenerateSpectrumError(TweezerIsingError):
    """Two eigenvalues are closer than the degeneracy tolerance."""

    code = "degenerate-spectrum"


class UndefinedNormalizationError(TweezerIsingError):
    """A coupling matrix is identically zero and cannot be normalized."""

    code = "undefined-normalization"


class ValidityError(TweezerIsingError):
    """An estimator was evaluated outside its regime of validity."""

    code = "validity"


def as_integer(name: str, value) -> int:
    """``operator.index(value)``: a Python or numpy integer as an int;
    anything else (a float, a string, None) raises InvalidArgumentError
    naming `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None


def as_seed(name: str, value) -> int:
    """`as_integer`, and nonnegative, as numpy's ``SeedSequence`` needs:
    a negative seed raises InvalidArgumentError naming `name`."""
    seed = as_integer(name, value)
    if seed < 0:
        raise InvalidArgumentError(f"{name} must be nonnegative, got {seed}")
    return seed
