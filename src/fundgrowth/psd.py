"""Symmetric positive-semidefinite matrix primitives.

Everything downstream (simulation, filtering, shrinkage, backtesting) pushes
covariance-like matrices around: covariance *rates* against an operational
clock and cumulative integrated covariances.  This module fixes the numerical
conventions once: symmetrisation on input, eigenvalue clamping, matrix square
roots, the one positive-definiteness rule, inverses, and inverses restricted to
the span of a fund frame; and the one type rule of a config record's keys,
``config_field``, which builds a ``CovMatrix``.

All values are immutable after construction and all operations are pure, so
they are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConfigError, RankDeficient, SingularC, SingularOnSubspace

# Input gate: relative asymmetry above this rejects the matrix outright.
SYM_RTOL = 1e-12
# Negative eigenvalues no worse than -EIG_DUST_RTOL * lambda_max count as
# round-off dust and are clamped to zero; anything below is a hard failure.
EIG_DUST_RTOL = 1e-10
# Positive definite means lambda_min > PD_RTOL * lambda_max > 0.
PD_RTOL = 1e-12
# Full column rank means sigma_min > RANK_RTOL * sigma_max > 0.
RANK_RTOL = 1e-10
# The scalar kinds of a config key: the types its value may have, and what it must be.
_SCALAR_KINDS = {"count": (numbers.Integral, "an integer"), "real": (numbers.Real, "a real number"),
                 "flag": ((bool, np.bool_), "True or False")}


class CovMatrix:
    """A symmetric positive-semidefinite matrix with cached eigendecomposition.

    Entries are symmetrised as ``m/2 + m.T/2`` on construction (tolerating the
    asymmetric round-off that accumulation produces), eigenvalues are stored
    nonincreasing, and negative dust above ``-1e-10 * lambda_max`` is clamped
    to zero.  A genuinely indefinite input raises ``ValueError``.
    """

    __slots__ = ("entries", "eigenvalues", "eigenvectors")

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        scale = float(np.abs(m).max())
        if scale > 0.0 and float(np.abs(m - m.T).max()) > SYM_RTOL * scale:
            raise ValueError("matrix is not symmetric to 1e-12 relative tolerance")
        m = 0.5 * m + 0.5 * m.T              # m + m.T may overflow
        w, v = np.linalg.eigh(m)
        if not np.isfinite(w).all():
            raise ValueError("matrix eigenvalues overflow double precision")
        lam_max = max(float(w[-1]), 0.0)
        if float(w[0]) < -EIG_DUST_RTOL * lam_max:
            raise ValueError(
                f"matrix is not positive semidefinite (min eigenvalue {float(w[0]):.3e})"
            )
        w = np.clip(w, 0.0, None)
        self.entries = m
        self.eigenvalues = w[::-1].copy()          # nonincreasing
        self.eigenvectors = v[:, ::-1].copy()      # columns match eigenvalues
        for arr in (self.entries, self.eigenvalues, self.eigenvectors):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))

    def __repr__(self) -> str:
        return f"CovMatrix(dim={self.dim}, eigenvalues={self.eigenvalues})"


def sqrt_entries(m: CovMatrix) -> np.ndarray:
    """Entries of the symmetric PSD square root, computed in the cached eigenbasis."""
    root = (m.eigenvectors * np.sqrt(m.eigenvalues)) @ m.eigenvectors.T
    return 0.5 * (root + root.T)


def is_definite(lam_min, lam_max):
    """``lam_min > PD_RTOL * lam_max > 0``: the one positive-definiteness test,
    elementwise on arrays of extreme eigenvalues (NaN is not definite)."""
    return (lam_max > 0.0) & (lam_min > PD_RTOL * lam_max)


def inverse_entries(m: CovMatrix) -> np.ndarray:
    """Raw entries of the inverse in the cached eigenbasis; raises
    ``SingularC`` unless ``m`` passes ``is_definite``."""
    w = m.eigenvalues
    if not is_definite(w[-1], w[0]):
        raise SingularC("matrix is not positive definite")
    return (m.eigenvectors / w) @ m.eigenvectors.T


def is_full_rank(m: np.ndarray) -> bool:
    """``sigma_min > RANK_RTOL * sigma_max > 0`` for the singular values of ``m``:
    the one rank test (NaN is not full rank)."""
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv[0] > 0.0 and sv[-1] > RANK_RTOL * sv[0])


def check_full_rank(f: np.ndarray, what: str) -> None:
    """``RankDeficient`` naming ``what`` unless the frame ``f`` passes ``is_full_rank``."""
    if not is_full_rank(f):
        raise RankDeficient(f"{what} are numerically dependent")


def subspace_pinv(c: CovMatrix, f) -> np.ndarray:
    """Inverse of ``c`` restricted to the span of the ``dim x k`` frame ``f`` (one fund a
    column, ``1 <= k <= dim``), zero on its orthogonal complement: ``q (q' c q)^-1 q'`` for
    the frame's QR basis ``q``, which is ``f (f' c f)^-1 f'``.  Raises ``ValueError`` for
    another shape, ``RankDeficient`` unless ``check_full_rank`` passes, and
    ``SingularOnSubspace`` unless ``q' c q`` passes ``is_definite``.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != c.dim or not 1 <= f.shape[1] <= c.dim:
        raise ValueError(f"expected a {c.dim} x k frame, 1 <= k <= {c.dim}, got shape {f.shape}")
    check_full_rank(f, "frame columns")
    q, _ = np.linalg.qr(f)
    w, v = np.linalg.eigh(q.T @ c.entries @ q)
    if not is_definite(w[0], w[-1]):
        raise SingularOnSubspace(f"c restricted to the span of {f.shape[1]} funds is singular")
    y = q @ v
    return (y / w) @ y.T


def check_lemma_error_reduction(c: CovMatrix, f) -> float:
    """Smallest eigenvalue of ``c - c pinv c``, ``pinv = subspace_pinv(c, f)``.

    Nonnegative up to round-off for every PSD ``c`` and frame ``f``: a
    restricted universe never increases the estimation loss it quantifies.
    """
    pinv = subspace_pinv(c, f)
    diff = c.entries - c.entries @ pinv @ c.entries
    diff = 0.5 * (diff + diff.T)
    return float(np.linalg.eigvalsh(diff)[0])


def interval(lo, hi):
    """``(lo, hi)``, an unset end infinite; None if neither end is set."""
    if lo is None and hi is None:
        return None
    return (-np.inf if lo is None else lo, np.inf if hi is None else hi)


def config_field(kind: str, name: str, value):
    """``value`` of the config key ``name`` of ``kind`` (count, real, flag, text, vector,
    matrix or cov) as its file parser would give it: a float array, or a ``CovMatrix`` for
    cov.  ``ConfigError`` names the key for a ``bool`` as a count or a real, text as any
    kind but text, an array of anything but numbers, or a vector that is not 1-D."""
    if kind in _SCALAR_KINDS:
        types, what = _SCALAR_KINDS[kind]
        if not isinstance(value, types) or kind != "flag" and isinstance(value, bool):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value
    if kind == "text" or kind == "cov" and isinstance(value, CovMatrix):
        return value
    try:
        array = np.asarray(value)
        if array.dtype.kind not in "iuf" or kind == "vector" and array.ndim != 1:
            raise ValueError(f"expected numbers as a {kind}, got {value!r}")
        return CovMatrix(array) if kind == "cov" else np.asarray(array, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None
