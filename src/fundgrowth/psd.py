"""Symmetric positive-semidefinite matrix primitives.

Everything downstream (simulation, filtering, shrinkage, backtesting) pushes
covariance-like matrices around: covariance *rates* against an operational
clock and cumulative integrated covariances.  This module fixes the numerical
conventions once: symmetrisation on input, eigenvalue clamping, matrix square
roots, the one positive-definiteness rule, inverses, orthogonal projections
onto fund spans, and pseudo-inverses restricted to a projection subspace; and the
one type rule of a config record's keys, ``config_field``, which builds a ``CovMatrix``.

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
# Spectral cutoff for the subspace pseudo-inverse, relative to trace.
SUBSPACE_CUTOFF_RTOL = 1e-12
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


class Projection:
    """An orthogonal projection matrix; rank is the trace rounded to integer.

    Construction validates ``p @ p == p`` and ``p.T == p`` to 1e-10 absolute
    tolerance.
    """

    __slots__ = ("entries", "rank")

    def __init__(self, entries):
        p = np.array(entries, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] == 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {p.shape}")
        if float(np.abs(p - p.T).max()) > 1e-10:
            raise ValueError("projection matrix is not symmetric")
        if float(np.abs(p @ p - p).max()) > 1e-10:
            raise ValueError("projection matrix is not idempotent")
        self.entries = 0.5 * (p + p.T)
        self.rank = int(round(float(np.trace(p))))
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "Projection":
        return cls(np.eye(dim))

    def __repr__(self) -> str:
        return f"Projection(dim={self.dim}, rank={self.rank})"


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


def projection_from_frame(f: np.ndarray) -> Projection:
    """Orthogonal projection onto the column span of a full-column-rank frame.

    Raises ``RankDeficient`` unless ``check_full_rank`` passes.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[1] == 0 or f.shape[0] < f.shape[1]:
        raise ValueError(f"expected a tall dim x k frame, got shape {f.shape}")
    check_full_rank(f, "frame columns")
    q, _ = np.linalg.qr(f)
    p = q @ q.T
    return Projection(0.5 * (p + p.T))


def subspace_pinv(c: CovMatrix, p: Projection) -> np.ndarray:
    """Inverse of ``p c p`` viewed as a linear map on the range of ``p``.

    The result vanishes on ``ker(p)``.  Realised by eigendecomposition with a
    spectral cutoff of ``1e-12 * trace(c)`` so the subspace semantics stay
    explicit; raises ``SingularOnSubspace`` when the restriction has fewer
    eigenvalues above the cutoff than ``rank(p)``.
    """
    if c.dim != p.dim:
        raise ValueError(f"dimension mismatch: c is {c.dim}, p is {p.dim}")
    a = p.entries @ c.entries @ p.entries
    a = 0.5 * (a + a.T)
    w, v = np.linalg.eigh(a)
    cutoff = SUBSPACE_CUTOFF_RTOL * max(c.trace, 0.0)
    keep = w > cutoff
    if int(keep.sum()) < p.rank:
        raise SingularOnSubspace(
            f"restriction to the rank-{p.rank} subspace is numerically singular"
        )
    vk = v[:, keep]
    return (vk / w[keep]) @ vk.T


def check_lemma_error_reduction(c: CovMatrix, p: Projection) -> float:
    """Smallest eigenvalue of ``c - c (p c p)^+ c``.

    Nonnegative up to round-off for every PSD ``c`` and projection ``p``: a
    restricted universe never increases the estimation loss it quantifies.
    """
    pinv = subspace_pinv(c, p)
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
