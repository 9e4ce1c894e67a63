"""Dense symmetric-matrix kernel: eigendecomposition, definiteness
classification with each class's sign (:data:`CLASS_SIGN`), the matrix
absolute value, and the principal square root.

Every other module consumes these primitives.  :func:`sym_eigen` is the only
decomposition: it checks its input for finiteness and returns the read-only
``eigh`` pair, which every spectral function here takes, so a caller that
keeps the pair never decomposes a matrix twice.  Every matrix-valued result
goes through :func:`symmetric`, so it is exactly symmetric and read-only.
All operations are pure functions of their inputs.  The design envelope is
small dense blocks (d <= 32), so everything routes through
``numpy.linalg.eigh`` with no sparse or iterative machinery.

:func:`symmetric`, :func:`sym_eigen`, :func:`classify_definiteness`,
:func:`project_to_class` and :func:`sym_sqrt` also take a stack of matrices
(or of spectra) along leading axes, and work on each matrix of it as on one
matrix alone, so that a loader decomposes all of its weights in one call.
A refusal of a stack names its first offending matrix, as it would that
matrix alone, and carries the matrix's flat position in the stack as
``index``.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import InvalidMatrix, NotPSD, UnsupportedWeight

#: An eigenvalue lambda counts as zero when |lambda| <= tol * max(1, |lambda|_max).
DEFAULT_TOL = 1e-9


class DefinitenessClass(enum.Enum):
    """Spectral sign classification of a symmetric matrix."""

    POSITIVE_DEFINITE = "pd"
    POSITIVE_SEMIDEFINITE = "psd"
    NEGATIVE_DEFINITE = "nd"
    NEGATIVE_SEMIDEFINITE = "nsd"
    INDEFINITE = "indefinite"
    ZERO = "zero"

    # Members are singletons, so they hash by identity, in C: a table maps
    # one class per edge through a dict.
    __hash__ = object.__hash__

    @property
    def is_sign_definite(self) -> bool:
        """True for the four classes on which the matrix absolute value exists."""
        return CLASS_SIGN[self] != 0


# Short aliases used heavily in tests and table-driven code.
PD = DefinitenessClass.POSITIVE_DEFINITE
PSD = DefinitenessClass.POSITIVE_SEMIDEFINITE
ND = DefinitenessClass.NEGATIVE_DEFINITE
NSD = DefinitenessClass.NEGATIVE_SEMIDEFINITE
INDEFINITE = DefinitenessClass.INDEFINITE
ZERO = DefinitenessClass.ZERO

#: sgn(A) of each class: +1, -1, or 0 for a class that is not sign-definite.
CLASS_SIGN = {PD: 1, PSD: 1, ND: -1, NSD: -1, ZERO: 0, INDEFINITE: 0}


def _refuse(error: type, bad, message) -> None:
    """Raise ``error(message(k))`` for the first matrix ``k`` that ``bad``
    flags, with its flat position in the stack as ``index`` (0 for one
    matrix); nothing when none is flagged."""
    bad = np.reshape(bad, -1)
    if bad.any():
        k = int(np.argmax(bad))
        exc = error(message(k))
        exc.index = k
        raise exc


def symmetric(m) -> np.ndarray:
    """Read-only ``0.5*M + 0.5*M^T``: exactly symmetric, bit-equal to
    ``0.5*(M + M^T)`` on finite input above the subnormal range (halving is
    exact there), and free of the overflow that form has near the float
    maximum."""
    half = 0.5 * np.asarray(m, dtype=float)
    out = half + half.swapaxes(-1, -2)
    out.setflags(write=False)
    return out


def sym_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """``(eigenvalues, eigenvectors)`` of a symmetric matrix, or of each
    matrix of a stack: eigenvalues ascending, orthonormal eigenvector
    columns, both read-only.  Non-finite entries raise
    :class:`InvalidMatrix`."""
    arr = np.asarray(m, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidMatrix("matrix has non-finite entries")
    vals, vecs = np.linalg.eigh(arr)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


def zero_band(eigenvalues: np.ndarray, tol: float = DEFAULT_TOL):
    """Width of the scale-aware band inside which eigenvalues count as zero,
    one per spectrum of a stack."""
    lam_max_abs = np.abs(eigenvalues).max(axis=-1, initial=0.0)
    return tol * np.maximum(1.0, lam_max_abs)


#: Class by (has positive, has negative, has zero) eigenvalue, indexed by
#: ``4 * has_pos + 2 * has_neg + has_zero``.
_CLASS_OF_SIGNS = np.array([ZERO, ZERO, ND, NSD, PD, PSD, INDEFINITE,
                            INDEFINITE], dtype=object)


def classify_definiteness(vals: np.ndarray):
    """Classify a symmetric matrix by the signs of its eigenvalues ``vals``;
    a stack of spectra gets an object array of classes.

    An eigenvalue is treated as zero when its magnitude is at most
    ``DEFAULT_TOL * max(1, |lambda|_max)``; this keeps well-conditioned
    semidefinite matrices out of the indefinite bucket regardless of overall
    scale.
    """
    band = zero_band(vals)[..., None]
    code = (4 * (vals > band).any(axis=-1) + 2 * (vals < -band).any(axis=-1)
            + (np.abs(vals) <= band).any(axis=-1))
    return _CLASS_OF_SIGNS[code]


def spectral_abs(vals: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Absolute value through the spectrum ``(vals, q)``: Q |Lambda| Q^T.

    On a sign-definite matrix this is ``sgn(M) M``; it extends to arbitrary
    symmetric input, and the eigenvalue magnitudes (hence the spectral
    radius) are preserved exactly.
    """
    return symmetric((q * np.abs(vals)) @ q.T)


def project_to_class(vals: np.ndarray, q: np.ndarray, cls,
                     tol: float) -> np.ndarray:
    """Snap a nearly-sign-definite matrix, given by its spectrum
    ``(vals, q)``, exactly onto its declared sign-definite class ``cls``
    (for a stack, one class or an array of one class per matrix).

    Eigenvalues whose sign contradicts ``cls`` must lie inside the zero band
    ``tol * max(1, |lambda|_max)``; they are clamped to exactly zero and the
    matrix is rebuilt.  An out-of-band contradiction raises
    :class:`UnsupportedWeight`.  Used by the graph loader so that weights
    printed at limited precision become exactly semidefinite.
    """
    flat = vals.reshape(-1, vals.shape[-1])
    classes = np.broadcast_to(np.asarray(cls, dtype=object),
                              vals.shape[:-1]).reshape(-1)
    _refuse(UnsupportedWeight, [not c.is_sign_definite for c in classes],
            lambda k: f"cannot project onto class {classes[k]}")
    band = zero_band(flat, tol)[:, None]
    off = flat * np.array([CLASS_SIGN[c] for c in classes])[:, None] < 0.0

    def contradiction(k: int) -> str:
        v = flat[k][off[k]]
        worst = float(v[np.argmax(np.abs(v))])
        return (f"eigenvalue {worst:.6g} contradicts declared class "
                f"{classes[k].value} beyond tolerance band {band[k, 0]:.3g}")

    _refuse(UnsupportedWeight, np.any(off & (np.abs(flat) > band), axis=1),
            contradiction)
    snapped = np.where(np.abs(flat) <= band, 0.0, flat).reshape(vals.shape)
    return symmetric((q * snapped[..., None, :]) @ q.swapaxes(-1, -2))


def sym_sqrt(vals: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Principal square root of the PSD matrix with spectrum ``(vals, q)``.

    Eigenvalues inside the zero band (at ``DEFAULT_TOL``) are clamped to 0
    before the square root; an eigenvalue below ``-band`` raises
    :class:`NotPSD`.
    """
    band = zero_band(vals)[..., None]
    low, width = np.reshape(vals[..., 0], -1), np.reshape(band, -1)
    _refuse(NotPSD, low < -width,
            lambda k: f"eigenvalue {low[k]:.6g} below -{width[k]:.3g}")
    clamped = np.where(vals <= band, 0.0, vals)
    return symmetric((q * np.sqrt(clamped)[..., None, :]) @ q.swapaxes(-1, -2))
