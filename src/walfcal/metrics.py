"""Evaluation statistics: RMSE, mean prediction error, percent improvement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import _as_floats

__all__ = ["MetricsReport", "improvement_pct", "mpe", "rmse"]


def _series(values, name: str) -> np.ndarray:
    return np.atleast_1d(_as_floats(values, name))


def _residual(p: np.ndarray, m: np.ndarray, out=None) -> tuple[np.ndarray, float]:
    """p - m for two _series, which must be 1-d, equal length, nonempty and
    finite, written into out if given, and its mean.

    An inf or NaN in a series makes the mean not finite, so the series are
    scanned only then; finite series whose residual overflows keep their mean.
    """
    if p.ndim != 1 or m.ndim != 1 or p.size != m.size:
        raise DomainError(f"series must be 1-d and equal length, got {p.shape} vs {m.shape}")
    if p.size == 0:
        raise DomainError("series must be nonempty")
    # opposite infinities give NaN without a warning, and the scan rejects them
    with np.errstate(invalid="ignore"):
        diff = np.subtract(p, m, out=out)
        mean = float(np.mean(diff))
    if not math.isfinite(mean) and not (np.isfinite(p).all() and np.isfinite(m).all()):
        raise DomainError("series must be finite")
    return diff, mean


def _rmse(diff: np.ndarray) -> float:
    """sqrt(mean(diff^2)), squaring diff in place."""
    diff *= diff
    return float(np.sqrt(np.mean(diff)))


def rmse(predicted, measured) -> float:
    """Root-mean-square error sqrt(mean((predicted - measured)^2)), dB."""
    return _rmse(_residual(_series(predicted, "predicted"), _series(measured, "measured"))[0])


def mpe(predicted, measured) -> float:
    """Mean prediction error mean(predicted - measured), dB.

    Sign convention: positive when the model over-predicts the measurements.
    """
    return _residual(_series(predicted, "predicted"), _series(measured, "measured"))[1]


def improvement_pct(rmse_basic: float, rmse_calibrated: float) -> float:
    """Percent RMSE reduction of the calibrated model over the basic one."""
    if not (math.isfinite(rmse_basic) and rmse_basic > 0.0):
        raise DomainError(f"rmse_basic must be positive and finite, got {rmse_basic!r}")
    if not (math.isfinite(rmse_calibrated) and rmse_calibrated >= 0.0):
        raise DomainError(
            f"rmse_calibrated must be non-negative and finite, got {rmse_calibrated!r}"
        )
    return 100.0 * (rmse_basic - rmse_calibrated) / rmse_basic


@dataclass(frozen=True)
class MetricsReport:
    """Fit statistics for one model, optionally paired with its basic form.

    rmse_db / mpe_db describe the calibrated predictions.  When the basic
    model's statistics are attached, improvement_pct gives the percent RMSE
    reduction (None when rmse_basic_db is 0, where the ratio is undefined).
    """

    rmse_db: float
    mpe_db: float
    rmse_basic_db: float | None = None
    mpe_basic_db: float | None = None
    improvement_pct: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.rmse_db) and self.rmse_db >= 0.0):
            raise DomainError(f"rmse_db must be non-negative, got {self.rmse_db!r}")
        # mean of residuals can never beat their root mean square, save for
        # rounding, which grows with their size: a few tens of epsilons of
        # rmse for any length numpy sums pairwise, far below the 1e-12 allowed
        if abs(self.mpe_db) > self.rmse_db * (1.0 + 1e-12) + 1e-9:
            raise DomainError(
                f"|mpe_db| = {abs(self.mpe_db)!r} exceeds rmse_db = {self.rmse_db!r}"
            )

    @classmethod
    def from_series(cls, measured, calibrated, basic=None) -> "MetricsReport":
        """Build a report from raw series; basic series is optional.

        Both residuals go through one buffer: its mean is taken first, then
        it is squared in place.
        """
        m = _series(measured, "measured")
        diff, mpe_cal = _residual(_series(calibrated, "calibrated"), m)
        rmse_cal = _rmse(diff)
        if basic is None:
            return cls(rmse_db=rmse_cal, mpe_db=mpe_cal)
        mpe_bas = _residual(_series(basic, "basic"), m, out=diff)[1]
        rmse_bas = _rmse(diff)
        gain = improvement_pct(rmse_bas, rmse_cal) if rmse_bas > 0.0 else None
        return cls(
            rmse_db=rmse_cal,
            mpe_db=mpe_cal,
            rmse_basic_db=rmse_bas,
            mpe_basic_db=mpe_bas,
            improvement_pct=gain,
        )
