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
    scanned only then.  For finite series a mean that is not finite comes
    from a sum past the largest double, which _rescaled then avoids, or from
    a residual that overflowed, which keeps its inf.
    """
    if p.ndim != 1 or m.ndim != 1 or p.size != m.size:
        raise DomainError(f"series must be 1-d and equal length, got {p.shape} vs {m.shape}")
    if p.size == 0:
        raise DomainError("series must be nonempty")
    # opposite infinities give NaN without a warning, and the scan rejects them
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.subtract(p, m, out=out)
        mean = float(np.mean(diff))
        if not math.isfinite(mean):
            if not (np.isfinite(p).all() and np.isfinite(m).all()):
                raise DomainError("series must be finite")
            mean = _rescaled(np.mean, diff)
    return diff, mean


def _rescaled(statistic, x: np.ndarray) -> float:
    """statistic(x), for a mean or a root mean square that overflowed on x
    itself: taken on a copy of x scaled by a power of two to put its largest
    magnitude in [0.5, 1), then scaled back, as a careful 2-norm does (Blue,
    ACM TOMS 4(1), 1978).  Only this rare path pays for the scan and the
    copy, and a result that never overflowed keeps every bit."""
    exponent = int(np.frexp(max(x.max(), -x.min()))[1])
    return float(np.ldexp(statistic(np.ldexp(x, -exponent)), exponent))


def _rmse(diff: np.ndarray, p: np.ndarray, m: np.ndarray) -> float:
    """sqrt(mean(diff^2)) for the diff = p - m of _residual, squaring diff in
    place; when that overflows, p - m is formed again for _rescaled."""
    with np.errstate(over="ignore"):
        diff *= diff
        value = float(np.sqrt(np.mean(diff)))
        if math.isfinite(value):
            return value
        # a residual that overflowed stays inf here, as in _residual
        return _rescaled(lambda x: np.sqrt(np.mean(x * x)), np.subtract(p, m, out=diff))


def rmse(predicted, measured) -> float:
    """Root-mean-square error sqrt(mean((predicted - measured)^2)), dB."""
    p, m = _series(predicted, "predicted"), _series(measured, "measured")
    return _rmse(_residual(p, m)[0], p, m)


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
    gain = 100.0 * (rmse_basic - rmse_calibrated)
    # the product overflows past a 1.8e306 dB gap, where the quotient goes first
    if not math.isfinite(gain):
        return (rmse_basic - rmse_calibrated) / rmse_basic * 100.0
    return gain / rmse_basic


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
        m, cal = _series(measured, "measured"), _series(calibrated, "calibrated")
        diff, mpe_cal = _residual(cal, m)
        rmse_cal = _rmse(diff, cal, m)
        if basic is None:
            return cls(rmse_db=rmse_cal, mpe_db=mpe_cal)
        bas = _series(basic, "basic")
        mpe_bas = _residual(bas, m, out=diff)[1]
        rmse_bas = _rmse(diff, bas, m)
        gain = improvement_pct(rmse_bas, rmse_cal) if rmse_bas > 0.0 else None
        return cls(
            rmse_db=rmse_cal,
            mpe_db=mpe_cal,
            rmse_basic_db=rmse_bas,
            mpe_basic_db=mpe_bas,
            improvement_pct=gain,
        )
