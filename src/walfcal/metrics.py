"""Evaluation statistics: RMSE, mean prediction error, percent improvement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import _NON_NEGATIVE, _POSITIVE, _as_floats, _check_scalar

__all__ = ["MetricsReport", "improvement_pct", "mpe", "rmse"]


def _series(values, name: str) -> np.ndarray:
    return np.atleast_1d(_as_floats(values, name))


def _stats(p: np.ndarray, m: np.ndarray) -> tuple[float, float]:
    """(mean, root mean square) of p - m for two _series, which must be 1-d,
    equal length, nonempty and finite, from one n-long buffer: its mean is
    taken first, then it is squared in place.

    An inf or NaN in a series makes the mean not finite, so the series are
    scanned only then.  For finite series a statistic that is not finite
    comes from a sum or squares past the largest double, which _rescaled then
    avoids, or from a residual that overflowed, which keeps its inf.
    """
    if p.ndim != 1 or m.ndim != 1 or p.size != m.size:
        raise DomainError(f"series must be 1-d and equal length, got {p.shape} vs {m.shape}")
    if p.size == 0:
        raise DomainError("series must be nonempty")
    # opposite infinities give NaN without a warning, and the scan rejects them
    with np.errstate(invalid="ignore", over="ignore"):
        diff = p - m
        mean = float(np.mean(diff))
        if not math.isfinite(mean):
            if not (np.isfinite(p).all() and np.isfinite(m).all()):
                raise DomainError("series must be finite")
            mean = _rescaled(np.mean, diff)
        diff *= diff
        rms = float(np.sqrt(np.mean(diff)))
        if not math.isfinite(rms):
            rms = _rescaled(lambda x: np.sqrt(np.mean(x * x)), np.subtract(p, m, out=diff))
    return mean, rms


def _rescaled(statistic, x: np.ndarray) -> float:
    """statistic(x), for a mean or a root mean square that overflowed on x
    itself: taken on a copy of x scaled by a power of two to put its largest
    magnitude in [0.5, 1), then scaled back, as a careful 2-norm does (Blue,
    ACM TOMS 4(1), 1978).  Only this rare path pays for the scan and the
    copy, and a result that never overflowed keeps every bit."""
    exponent = int(np.frexp(max(x.max(), -x.min()))[1])
    return float(np.ldexp(statistic(np.ldexp(x, -exponent)), exponent))


def rmse(predicted, measured) -> float:
    """Root-mean-square error sqrt(mean((predicted - measured)^2)), dB."""
    return _stats(_series(predicted, "predicted"), _series(measured, "measured"))[1]


def mpe(predicted, measured) -> float:
    """Mean prediction error mean(predicted - measured), dB.

    Sign convention: positive when the model over-predicts the measurements.
    """
    return _stats(_series(predicted, "predicted"), _series(measured, "measured"))[0]


def improvement_pct(rmse_basic: float, rmse_calibrated: float) -> float:
    """Percent RMSE reduction of the calibrated model over the basic one."""
    rmse_basic = _check_scalar("rmse_basic", rmse_basic, *_POSITIVE)
    rmse_calibrated = _check_scalar("rmse_calibrated", rmse_calibrated, *_NON_NEGATIVE)
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
        rmse = _check_scalar("rmse_db", self.rmse_db, _NON_NEGATIVE[0], "must be non-negative")
        object.__setattr__(self, "rmse_db", rmse)
        for name in ("mpe_db", "rmse_basic_db", "mpe_basic_db", "improvement_pct"):
            value = getattr(self, name)
            if value is not None or name == "mpe_db":
                value = _check_scalar(name, value, math.isfinite, "must be finite")
                object.__setattr__(self, name, value)
        # mean of residuals can never beat their root mean square, save for
        # rounding, which grows with their size: a few tens of epsilons of
        # rmse for any length numpy sums pairwise, far below the 1e-12 allowed
        if abs(self.mpe_db) > self.rmse_db * (1.0 + 1e-12) + 1e-9:
            raise DomainError(
                f"|mpe_db| = {abs(self.mpe_db)!r} exceeds rmse_db = {self.rmse_db!r}"
            )

    @classmethod
    def from_series(cls, measured, calibrated, basic=None) -> "MetricsReport":
        """Build a report from raw series; basic series is optional."""
        m = _series(measured, "measured")
        mpe_cal, rmse_cal = _stats(_series(calibrated, "calibrated"), m)
        if basic is None:
            return cls(rmse_db=rmse_cal, mpe_db=mpe_cal)
        mpe_bas, rmse_bas = _stats(_series(basic, "basic"), m)
        gain = improvement_pct(rmse_bas, rmse_cal) if rmse_bas > 0.0 else None
        return cls(
            rmse_db=rmse_cal,
            mpe_db=mpe_cal,
            rmse_basic_db=rmse_bas,
            mpe_basic_db=mpe_bas,
            improvement_pct=gain,
        )
