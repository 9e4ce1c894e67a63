"""Dense symmetric-matrix kernel: eigendecomposition, definiteness
classification, matrix absolute value / sign, and the principal square root.

Every other module consumes these primitives.  All types are immutable
values; all operations are pure functions of their inputs.  The design
envelope is small dense blocks (d <= 32), so everything routes through
``numpy.linalg.eigh`` with no sparse or iterative machinery.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetryWarning, InvalidMatrix, NotPSD, UnsupportedWeight

#: An eigenvalue lambda counts as zero when |lambda| <= tol * max(1, |lambda|_max).
DEFAULT_TOL = 1e-9

#: Asymmetry above this (relative to the largest entry) triggers AsymmetryWarning.
ASYMMETRY_WARN = 1e-12


class DefinitenessClass(enum.Enum):
    """Spectral sign classification of a symmetric matrix."""

    POSITIVE_DEFINITE = "pd"
    POSITIVE_SEMIDEFINITE = "psd"
    NEGATIVE_DEFINITE = "nd"
    NEGATIVE_SEMIDEFINITE = "nsd"
    INDEFINITE = "indefinite"
    ZERO = "zero"

    @property
    def is_sign_definite(self) -> bool:
        """True for the four classes on which the matrix absolute value exists."""
        return self in (
            DefinitenessClass.POSITIVE_DEFINITE,
            DefinitenessClass.POSITIVE_SEMIDEFINITE,
            DefinitenessClass.NEGATIVE_DEFINITE,
            DefinitenessClass.NEGATIVE_SEMIDEFINITE,
        )


# Short aliases used heavily in tests and table-driven code.
PD = DefinitenessClass.POSITIVE_DEFINITE
PSD = DefinitenessClass.POSITIVE_SEMIDEFINITE
ND = DefinitenessClass.NEGATIVE_DEFINITE
NSD = DefinitenessClass.NEGATIVE_SEMIDEFINITE
INDEFINITE = DefinitenessClass.INDEFINITE
ZERO = DefinitenessClass.ZERO


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """An exactly-symmetric real matrix.

    Construction is total: the input is replaced by ``(M + M^T) / 2`` and the
    largest deviation from symmetry is kept in ``asymmetry``.  A deviation
    above roundoff raises :class:`AsymmetryWarning` (not an error) so that
    sloppy inputs are visible but never fatal at this layer.  File loaders
    that must *reject* asymmetric input check before constructing.
    """

    entries: np.ndarray
    asymmetry: float = field(default=0.0)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidMatrix("matrix has non-finite entries")
        dev = float(np.max(np.abs(arr - arr.T)))
        if dev > ASYMMETRY_WARN * max(1.0, float(np.max(np.abs(arr)))):
            warnings.warn(
                f"input symmetrized; max asymmetry {dev:.3e}", AsymmetryWarning,
                stacklevel=2,
            )
        sym = 0.5 * (arr + arr.T)
        object.__setattr__(self, "entries", _frozen_array(sym))
        object.__setattr__(self, "asymmetry", dev)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is None and not copy:
            return self.entries
        return np.array(self.entries, dtype=dtype)

    @classmethod
    def zero(cls, dim: int) -> "SymMatrix":
        return cls(np.zeros((dim, dim)))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen_array(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _frozen_array(self.eigenvectors))

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, SymMatrix):
        return m.entries
    arr = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrix("matrix has non-finite entries")
    return arr


def sym_eigen(m) -> EigenDecomposition:
    """Full symmetric eigendecomposition with eigenvalues in ascending order."""
    arr = _as_matrix(m)
    vals, vecs = np.linalg.eigh(arr)
    return EigenDecomposition(vals, vecs)


def zero_band(eigenvalues: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Width of the scale-aware band inside which eigenvalues count as zero."""
    lam_max_abs = float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 0.0
    return tol * max(1.0, lam_max_abs)


def classify_definiteness(m, tol: float = DEFAULT_TOL) -> DefinitenessClass:
    """Classify a symmetric matrix by the signs of its eigenvalues.

    An eigenvalue is treated as zero when its magnitude is at most
    ``tol * max(1, |lambda|_max)``; this keeps well-conditioned semidefinite
    matrices out of the indefinite bucket regardless of overall scale.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    vals = sym_eigen(m).eigenvalues
    band = zero_band(vals, tol)
    has_pos = bool(np.any(vals > band))
    has_neg = bool(np.any(vals < -band))
    has_zero = bool(np.any(np.abs(vals) <= band))
    if has_pos and has_neg:
        return INDEFINITE
    if has_pos:
        return PSD if has_zero else PD
    if has_neg:
        return NSD if has_zero else ND
    return ZERO


def matrix_sgn(cls: DefinitenessClass) -> int:
    """Scalar sign attached to a definiteness class: +1, -1 or 0."""
    if cls in (PD, PSD):
        return 1
    if cls in (ND, NSD):
        return -1
    if cls is ZERO:
        return 0
    raise UnsupportedWeight("sign is undefined for indefinite matrices")


def matrix_abs(m, cls: DefinitenessClass) -> SymMatrix:
    """Absolute value of a sign-definite matrix: M itself if nonnegative
    definite, -M if nonpositive definite.  Indefinite input is rejected."""
    arr = _as_matrix(m)
    if cls in (PD, PSD, ZERO):
        return SymMatrix(arr)
    if cls in (ND, NSD):
        return SymMatrix(-arr)
    raise UnsupportedWeight("absolute value is undefined for indefinite matrices")


def spectral_abs(m) -> SymMatrix:
    """Absolute value through the spectrum: Q |Lambda| Q^T.

    Agrees with :func:`matrix_abs` on every sign-definite matrix and extends
    it to arbitrary symmetric input; the eigenvalue magnitudes (hence the
    spectral radius) are preserved exactly.
    """
    dec = sym_eigen(m)
    q = dec.eigenvectors
    return SymMatrix((q * np.abs(dec.eigenvalues)) @ q.T)


def project_to_class(m, cls: DefinitenessClass, tol: float) -> SymMatrix:
    """Snap a nearly-sign-definite matrix exactly onto its declared class.

    Eigenvalues whose sign contradicts ``cls`` must lie inside the zero band
    ``tol * max(1, |lambda|_max)``; they are clamped to exactly zero and the
    matrix is rebuilt.  An out-of-band contradiction raises
    :class:`UnsupportedWeight`.  Used by the graph loader so that weights
    printed at limited precision become exactly semidefinite.
    """
    if not (cls.is_sign_definite or cls is ZERO):
        raise UnsupportedWeight(f"cannot project onto class {cls}")
    dec = sym_eigen(m)
    vals = dec.eigenvalues.copy()
    band = zero_band(vals, tol)
    if cls is ZERO:
        if np.max(np.abs(vals)) > band:
            raise UnsupportedWeight("matrix is not zero within tolerance")
        return SymMatrix.zero(len(vals))
    sign = matrix_sgn(cls)
    off = vals * sign < 0.0
    if np.any(np.abs(vals[off]) > band):
        worst = float(vals[off][np.argmax(np.abs(vals[off]))])
        raise UnsupportedWeight(
            f"eigenvalue {worst:.6g} contradicts declared class {cls.value} "
            f"beyond tolerance band {band:.3g}"
        )
    vals[np.abs(vals) <= band] = 0.0
    q = dec.eigenvectors
    return SymMatrix((q * vals) @ q.T)


def sym_sqrt(m) -> SymMatrix:
    """Principal square root of a PSD matrix.

    Eigenvalues inside the zero band (at ``DEFAULT_TOL``) are clamped to 0
    before the square root; an eigenvalue below ``-band`` raises
    :class:`NotPSD`.
    """
    dec = sym_eigen(m)
    vals = dec.eigenvalues
    band = zero_band(vals)
    if dec.lambda_min < -band:
        raise NotPSD(f"eigenvalue {dec.lambda_min:.6g} below -{band:.3g}")
    clamped = np.where(vals <= band, 0.0, vals)
    q = dec.eigenvectors
    return SymMatrix((q * np.sqrt(clamped)) @ q.T)
