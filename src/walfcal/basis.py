"""Component-term basis sets of the Walfisch-type models, as Φ(d)·M.

Each model variant is rewritten as a plain sum of component terms; the terms
become the expansion (and, in Galerkin fashion, also the testing) functions
of the calibration fit.  A Walfisch-Ikegami variant contributes 13 terms
tagged FSP / RTS / MSD; the Walfisch-Bertoni model contributes 8 terms
tagged CORE / HEIGHT / GEOMETRY / CURVATURE, with the overlapping free-space
constants merged (89.5 = 32.4 + 57.1, 38 log10 d, 21 log10 f).

At fixed terrain each term is a weight times one feature of distance: 1,
log10 d or, for W-BERT only, log10(1 - d^2 / (17 dh_tx)).  So the terms at n
distances are Φ(d)·M, with Φ the n×2 (WI) or n×3 (W-BERT) feature matrix and
M the features×terms weight table built from the (label, group, feature,
weight) rows that models._terms lists and checks for each family.  The
design matrix Φ @ M is therefore rank deficient by construction: rank 2 for
WI, 3 for W-BERT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .models import (
    _CURVATURE,
    _LOG_D,
    _ONE,
    ModelKind,
    Terrain,
    _as_distance,
    _as_floats,
    _check_scalar,
    _check_wb_domain,
    _check_weights,
    _terms,
)

__all__ = [
    "BasisSet",
    "RANK_TOL_DEFAULT",
    "WB_GROUPS",
    "WI_GROUPS",
    "build_basis",
    "effective_rank",
]

WI_GROUPS = ("FSP", "RTS", "MSD")
WB_GROUPS = ("CORE", "HEIGHT", "GEOMETRY", "CURVATURE")
RANK_TOL_DEFAULT = 1e-10
# rows per block of a fit's QR fold
_CHUNK_ROWS = 8192
# the rule of a relative singular-value cutoff: at 0 round-off directions count, and
# at 1 or above no singular value does, where lstsq would silently use machine precision
_RANK_TOL = (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")


@dataclass(frozen=True)
class BasisSet:
    """Component terms of one model variant at fixed terrain.

    terms are (label, group, feature, weight) rows; weights is the
    features×terms table M that holds each term's weight in its feature row.
    """

    kind: ModelKind
    terrain: Terrain
    terms: tuple[tuple[str, str, int, float], ...]
    weights: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def groups(self) -> tuple[str, ...]:
        """Group tags in profile order."""
        return WB_GROUPS if self.kind is ModelKind.W_BERT else WI_GROUPS

    def group_indices(self, group: str) -> tuple[int, ...]:
        """Indices of the terms carrying the given group tag."""
        found = tuple(n for n, row in enumerate(self.terms) if row[1] == group)
        if not found:
            raise DomainError(f"unknown group {group!r} for {self.kind.value}")
        return found

    def features(self, d_km) -> np.ndarray:
        """Φ(d), one row per distance; validates d and the W-BERT domain once."""
        return self._sum(self._checked(d_km), np.eye(len(self.weights))).T

    def _checked(self, d_km) -> np.ndarray:
        """d as a flat float array, once it passed the distance and, for
        W-BERT, the curvature-domain checks that Φ's columns need."""
        d = _as_distance(d_km)[0].ravel()
        if self.kind is ModelKind.W_BERT:
            _check_wb_domain(d, self.terrain.dh_tx_m)
        return d

    def _fill(self, d: np.ndarray, out: np.ndarray) -> None:
        """Write Φ(d) into the first columns of out, a block of d.size rows of
        a QR fold; d must have passed _checked."""
        out[:, _ONE] = 1.0
        out[:, _LOG_D] = np.log10(d)
        if self.kind is ModelKind.W_BERT:
            out[:, _CURVATURE] = self._curvature(d)

    def _curvature(self, d: np.ndarray) -> np.ndarray:
        """The W-BERT feature log10(1 - d^2 / (17 dh_tx)), in one new array."""
        curvature = d * d
        curvature /= 17.0 * self.terrain.dh_tx_m
        return np.log10(np.subtract(1.0, curvature, out=curvature), out=curvature)

    def evaluate(self, d_km, weights):
        """Weighted sum of the terms in dB, Φ(d) @ (M @ weights); a float for a scalar d.

        weights must be a vector of len(self) values whose calibrated term
        weights pass models._check_weights; DomainError otherwise.
        """
        w = _as_floats(weights, "weights")
        if w.shape != (len(self),):
            raise DomainError(f"{self.kind.value} needs {len(self)} weights, got shape {w.shape}")
        _check_weights(self.terms, w.tolist(), lambda n: f"weights[{n}] = {float(w[n])!r}")
        values = self._sum(self._checked(d_km), self.weights @ w)
        shape = np.shape(d_km)
        return float(values[0]) if shape == () else values.reshape(shape)

    def _sum(self, d: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Φ(d)·c for d that passed _checked: c[0] + c[1]·log10 d (+ c[2]·curvature)
        summed for each value alone, so its bits do not depend on the array
        around it.  n values for a features vector c, its products taken in
        place (two n-vectors at most); (Φ(d)·c)ᵀ, m×n, for a features×m table c."""
        vector = c.ndim == 1
        # a table's columns lie along a leading axis, so numpy loops over runs of d
        c = c if vector else c[:, :, None]
        values = np.log10(d)
        values = np.multiply(values, c[_LOG_D], out=values if vector else None)
        values += c[_ONE]
        if self.kind is ModelKind.W_BERT:
            curvature = self._curvature(d)
            values += np.multiply(curvature, c[_CURVATURE], out=curvature if vector else None)
        return values


def build_basis(kind: ModelKind, terrain: Terrain) -> BasisSet:
    """Component terms of one variant at fixed terrain, with their table M.

    13 terms for a Walfisch-Ikegami variant, 8 for Walfisch-Bertoni; their
    sum is the closed form that models' component functions state, at every
    d.  The terrain must pass the weight check of models._terms (DomainError
    naming the terrain fields of the failing term otherwise).
    """
    terms = _terms(kind, terrain)
    weights = np.zeros((1 + max(row[2] for row in terms), len(terms)))
    for n, (_, _, feature, weight) in enumerate(terms):
        weights[feature, n] = weight
    weights.setflags(write=False)
    return BasisSet(kind=kind, terrain=terrain, terms=tuple(terms), weights=weights)


def effective_rank(m, tol: float = RANK_TOL_DEFAULT) -> int:
    """Singular values above tol times the largest one.

    m must be a finite 2-d array, and tol must lie in (0, 1); anything else
    raises DomainError.  This is the numeric stand-in for the symbolic
    linear-independence argument: constants collapse into a single dimension
    no matter how many columns carry them.
    """
    tol = _check_scalar("tol", tol, *_RANK_TOL)
    matrix = _as_floats(m, "m")
    if matrix.ndim != 2 or not np.isfinite(matrix).all():
        raise DomainError(f"rank needs a finite 2-d matrix, got shape {matrix.shape}")
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular.size == 0 or singular[0] == 0.0:
        return 0
    return int(np.count_nonzero(singular > tol * singular[0]))
