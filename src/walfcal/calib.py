"""Least-squares calibration of a model against field measurements.

Component terms of the chosen variant act as expansion and testing functions;
testing against the measurements yields the normal equations of a linear
least-squares problem whose Gram matrix is singular by construction (most
terms are constants in d).  The coefficients are therefore recovered as the
minimum-norm least-squares solution via SVD with a relative cutoff, which
coincides with the Gram-system solve whenever that system is well posed and
leaves the fitted values dependent only on the column space.

Neither the design matrix Φ·M nor Φ itself is formed.  The R of a QR of
[Φ | p] is folded one _CHUNK_ROWS block at a time, as in a sequential
tall-skinny QR (Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput.
34(1), 2012): R ← R of [R; Φ(d_c) | p_c].  No Q is formed either.  R's
leading columns, one per feature, are the R of Φ = QR, and its last column
above the diagonal is Qᵀp, so the tiny system (R·M) α ~ Qᵀp has the
minimum-norm solution and the singular values of the full one, as Q has
orthonormal columns whatever the rank of Φ.

Consequences worth knowing before comparing runs: coefficient vectors are
unique only modulo the null space, so per-coefficient (and per-group) values
can differ wildly between numerically equal fits; the fitted curve and the
residuals are the stable quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _CHUNK_ROWS, RANK_TOL_DEFAULT, BasisSet, _check_rank_tol, build_basis
from .errors import DomainError
from .models import ModelKind, Terrain, _as_floats

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
    weights in the fit.  Pathloss values must be positive and finite.  The
    set holds read-only views of the arrays it is given, not copies.
    """

    distances_km: np.ndarray
    pathloss_db: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(_as_floats(self.distances_km, "distances_km"))
        p = np.atleast_1d(_as_floats(self.pathloss_db, "pathloss_db"))
        if d.ndim != 1 or p.ndim != 1 or d.size != p.size:
            raise DomainError(
                f"distances and pathloss must be 1-d and equal length, got {d.shape} vs {p.shape}"
            )
        if d.size == 0:
            raise DomainError("a measurement set needs at least one sample")
        # NaN propagates through min, so two reductions test every value
        if not (d.min() > 0.0 and d.max() < np.inf):
            raise DomainError("measurement distances must be positive and finite")
        if not (p.min() > 0.0 and p.max() < np.inf):
            raise DomainError("measured pathloss values must be positive and finite")
        # read-only views, so the caller's own arrays stay writeable
        d, p = d.view(), p.view()
        d.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "distances_km", d)
        object.__setattr__(self, "pathloss_db", p)

    def __len__(self) -> int:
        return self.distances_km.size


@dataclass(frozen=True)
class Calibration:
    """Result of one fit: coefficients, rank and the fitted samples.

    The model kind and terrain are read from the basis.
    """

    basis: BasisSet
    alpha: np.ndarray
    rank: int
    distances_km: np.ndarray
    measured_db: np.ndarray

    @property
    def kind(self) -> ModelKind:
        return self.basis.kind

    @property
    def terrain(self) -> Terrain:
        return self.basis.terrain

    @property
    def fitted_db(self) -> np.ndarray:
        """Calibrated pathloss at distances_km, computed on each read as predict_calibrated does."""
        return self.basis.evaluate(self.distances_km, self.alpha)

    @property
    def residual_db(self) -> np.ndarray:
        """Fitted minus measured pathloss, computed on each read."""
        return self.fitted_db - self.measured_db


def minimum_norm_lstsq(matrix: np.ndarray, rhs: np.ndarray, cutoff: float = RANK_TOL_DEFAULT):
    """Minimum-norm least-squares solve of matrix @ x ~ rhs.

    Returns (x, rank) where rank counts singular values above cutoff times
    the largest; cutoff must lie in (0, 1), and both arrays must be finite
    (DomainError otherwise).  Deterministic for given inputs;
    the unique minimizer of ||x|| among all least-squares solutions.
    """
    _check_rank_tol(cutoff, "cutoff")
    matrix = _as_floats(matrix, "matrix")
    rhs = _as_floats(rhs, "rhs")
    if matrix.ndim != 2 or rhs.ndim != 1 or matrix.shape[0] != rhs.size:
        raise DomainError(
            f"incompatible system: matrix {matrix.shape}, rhs length {rhs.size}"
        )
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
        raise DomainError("least-squares system has entries that are not finite")
    x, _, rank, _ = np.linalg.lstsq(matrix, rhs, rcond=cutoff)
    return x, int(rank)


def _fold(basis: BasisSet, d_km, p: np.ndarray | None = None) -> np.ndarray:
    """The first min(n, k) rows of the R of a QR of [Φ(d) | p], or of Φ(d)
    when p is None: R·M from its leading k columns, which has the rank and
    singular values of Φ(d)·M, and Qᵀp from its last.

    R is folded one _CHUNK_ROWS block at a time: each block is written under
    the R so far, and R becomes the R of both.  It depends on the basis only
    through Φ, so every Walfisch-Ikegami variant folds the same R.  d and
    the W-BERT domain are checked once over all of d.  The stack is
    column-major, so LAPACK reads each column contiguously; R is bitwise the
    same in either layout.
    """
    d = basis._checked(d_km)
    k = len(basis.weights)
    width = k if p is None else k + 1
    stack = np.empty((width + min(d.size, _CHUNK_ROWS), width), order="F")
    r = stack[:0]
    for start in range(0, d.size, _CHUNK_ROWS):
        chunk = d[start : start + _CHUNK_ROWS]
        top, rows = len(r), len(r) + chunk.size
        stack[:top] = r
        basis._fill(chunk, stack[top:rows])
        if p is not None:
            stack[top:rows, k] = p[start : start + chunk.size]
        r = np.linalg.qr(stack[:rows], mode="r")
    return r[:k]


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
    r = _fold(basis, meas.distances_km, meas.pathloss_db)
    k = len(basis.weights)
    alpha, rank = minimum_norm_lstsq(r[:, :k] @ basis.weights, r[:, k], cutoff)
    alpha.setflags(write=False)
    return Calibration(
        basis=basis,
        alpha=alpha,
        rank=rank,
        distances_km=meas.distances_km,
        measured_db=meas.pathloss_db,
    )


def predict_calibrated(c: Calibration, d_km):
    """Calibrated pathloss: the coefficient-weighted sum of component terms."""
    return c.basis.evaluate(d_km, c.alpha)


def _loss_table(c: Calibration) -> np.ndarray:
    """The features×(2·groups + 2) table C with Φ(d) @ C the value columns of
    a disagg file: each group's summed term weights (unit weights for basic,
    α for calibrated), in c.basis.groups order, then the side's total, basic
    side first.  The totals are M·1 and M·α, the c that BasisSet.evaluate
    forms, so each total is that side's prediction bit for bit."""
    basis = c.basis
    basic, calibrated = [], []
    for group in basis.groups:
        idx = list(basis.group_indices(group))
        weights = basis.weights[:, idx]
        basic.append(weights.sum(axis=1))
        calibrated.append(weights @ c.alpha[idx])
    basic_total = basis.weights @ np.ones(len(basis))
    return np.column_stack([*basic, basic_total, *calibrated, basis.weights @ c.alpha])


def group_losses(c: Calibration, distances_km) -> np.ndarray:
    """Per-group contributions to the basic and the calibrated prediction.

    One row per distance; columns are each group's basic contribution, in
    c.basis.groups order, then their total, then the same for the calibrated
    contributions: the layout of a disagg file after its distance column.
    Each column is Φ(d) times a column of the table C of _loss_table, so the
    totals are c.basis.evaluate(d, ones) and predict_calibrated(c, d).
    """
    return c.basis._sum(c.basis._checked(distances_km), _loss_table(c)).T
