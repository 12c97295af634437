"""Least-squares calibration of a model against field measurements.

Component terms of the chosen variant act as expansion and testing functions;
testing against the measurements yields the normal equations of a linear
least-squares problem whose Gram matrix is singular by construction (most
terms are constants in d).  The coefficients are therefore recovered as the
minimum-norm least-squares solution via SVD with a relative cutoff, which
coincides with the Gram-system solve whenever that system is well posed and
leaves the fitted values dependent only on the column space.

The n×k design matrix Φ·M is never formed: after a thin QR Φ = QR, the tiny
system (R·M) α ~ Qᵀp has the same minimum-norm solution and singular values,
as Q has orthonormal columns whatever the rank of Φ.

Consequences worth knowing before comparing runs: coefficient vectors are
unique only modulo the null space, so per-coefficient (and per-group) values
can differ wildly between numerically equal fits; the fitted curve and the
residuals are the stable quantities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import RANK_TOL_DEFAULT, BasisSet, _check_rank_tol, build_basis
from .errors import DomainError
from .models import ModelKind, Terrain

__all__ = [
    "Calibration",
    "MeasurementSet",
    "calibrate",
    "group_losses",
    "minimum_norm_lstsq",
    "predict_calibrated",
]


@dataclass(frozen=True)
class MeasurementSet:
    """Ordered (distance, measured pathloss) samples from one campaign.

    Distances need not be unique or sorted; duplicates act as natural
    weights in the fit.  Pathloss values must be positive and finite.
    """

    distances_km: np.ndarray
    pathloss_db: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.distances_km, dtype=float))
        p = np.atleast_1d(np.asarray(self.pathloss_db, dtype=float))
        if d.ndim != 1 or p.ndim != 1 or d.size != p.size:
            raise DomainError(
                f"distances and pathloss must be 1-d and equal length, got {d.shape} vs {p.shape}"
            )
        if d.size == 0:
            raise DomainError("a measurement set needs at least one sample")
        if not (np.all(np.isfinite(d)) and np.all(d > 0.0)):
            raise DomainError("measurement distances must be positive and finite")
        if not (np.all(np.isfinite(p)) and np.all(p > 0.0)):
            raise DomainError("measured pathloss values must be positive and finite")
        d.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "distances_km", d)
        object.__setattr__(self, "pathloss_db", p)

    def __len__(self) -> int:
        return self.distances_km.size


@dataclass(frozen=True)
class Calibration:
    """Result of one fit: coefficients, rank and fitted values.

    The model kind and terrain are read from the basis.
    """

    basis: BasisSet
    alpha: np.ndarray
    rank: int
    distances_km: np.ndarray
    measured_db: np.ndarray
    fitted_db: np.ndarray

    @property
    def kind(self) -> ModelKind:
        return self.basis.kind

    @property
    def terrain(self) -> Terrain:
        return self.basis.terrain

    @property
    def residual_db(self) -> np.ndarray:
        """Fitted minus measured pathloss, computed on each read."""
        return self.fitted_db - self.measured_db


def minimum_norm_lstsq(matrix: np.ndarray, rhs: np.ndarray, cutoff: float = RANK_TOL_DEFAULT):
    """Minimum-norm least-squares solve of matrix @ x ~ rhs.

    Returns (x, rank) where rank counts singular values above cutoff times
    the largest; cutoff must lie in (0, 1).  Deterministic for given inputs;
    the unique minimizer of ||x|| among all least-squares solutions.
    """
    _check_rank_tol(cutoff, "cutoff")
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.ndim != 2 or rhs.ndim != 1 or matrix.shape[0] != rhs.size:
        raise DomainError(
            f"incompatible system: matrix {matrix.shape}, rhs length {rhs.size}"
        )
    x, _, rank, _ = np.linalg.lstsq(matrix, rhs, rcond=cutoff)
    return x, int(rank)


def _reduced_system(basis: BasisSet, d_km):
    """Φ(d), the Q of its thin QR Φ = QR, and R·M, which has the rank of Φ·M."""
    phi = basis.features(d_km)
    q, r = np.linalg.qr(phi)
    return phi, q, r @ basis.weights


def calibrate(
    kind: ModelKind,
    terrain: Terrain,
    meas: MeasurementSet,
    cutoff: float = RANK_TOL_DEFAULT,
) -> Calibration:
    """Fit one variant's component weights to a measurement set.

    The residual (fitted minus measured) is orthogonal to every design-matrix
    column; in particular its mean is zero because constants lie in the span.
    """
    basis = build_basis(kind, terrain)
    phi, q, reduced = _reduced_system(basis, meas.distances_km)
    alpha, rank = minimum_norm_lstsq(reduced, q.T @ meas.pathloss_db, cutoff)
    fitted = phi @ (basis.weights @ alpha)
    for arr in (alpha, fitted):
        arr.setflags(write=False)
    return Calibration(
        basis=basis,
        alpha=alpha,
        rank=rank,
        distances_km=meas.distances_km,
        measured_db=meas.pathloss_db,
        fitted_db=fitted,
    )


def predict_calibrated(c: Calibration, d_km):
    """Calibrated pathloss: the coefficient-weighted sum of component terms."""
    return c.basis.evaluate(d_km, c.alpha)


def group_losses(c: Calibration, distances_km) -> np.ndarray:
    """Per-group contributions to the basic and the calibrated prediction.

    One row per distance; columns are each group's basic contribution, in
    c.basis.groups order, then their total, then the same for the calibrated
    contributions: the layout of a disagg file after its distance column.
    Each group's column is Φ(d) times a column of the features×groups table C
    of summed term weights (unit weights for basic, α for calibrated).
    """
    basis = c.basis
    basic, calibrated = [], []
    for group in basis.groups:
        idx = list(basis.group_indices(group))
        weights = basis.weights[:, idx]
        basic.append(weights.sum(axis=1))
        calibrated.append(weights @ c.alpha[idx])
    # a zero column of C holds each total's place in the product; a total
    # then adds its side's group columns one by one, in group order
    zero = np.zeros(len(basis.weights))
    values = basis.features(distances_km) @ np.column_stack([*basic, zero, *calibrated, zero])
    g = len(basis.groups)
    for total in (g, 2 * g + 1):
        values[:, total] = functools.reduce(np.add, values[:, total - g : total].T)
    return values
