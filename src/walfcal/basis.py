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
M the features×terms weight table built from one list of (label, group,
feature, weight) rows per family.  The design matrix Φ @ M is therefore rank
deficient by construction: rank 2 for WI, 3 for W-BERT.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .models import (
    RTS_LEAD_COST,
    RTS_LEAD_ITU,
    Family,
    ModelKind,
    Terrain,
    _as_distance,
    _as_floats,
    _check_wb_domain,
    multiscreen_constants,
    street_orientation_term,
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

# feature columns of Φ
_ONE, _LOG_D, _CURVATURE = 0, 1, 2
# the largest term weight, in dB or dB per decade, that build_basis accepts: a
# fit multiplies the weights by R, whose entries reach sqrt(n)·324 at n rows
# (|log10 d| < 324 for any positive double), so 1e300 leaves a factor of 1e8
_WEIGHT_MAX = 1e300
# the Terrain field that each symbol of a term label stands for
_SYMBOLS = {
    "f": "f_mhz", "w": "w_m", "b": "b_m", "phi": "phi_deg", "dh_rx": "dh_rx_m", "dh_tx": "dh_tx_m"
}


def _check_rank_tol(tol: float, name: str) -> float:
    """Return tol if it lies in (0, 1), the domain of every relative
    singular-value cutoff; DomainError naming it otherwise.

    At 0 round-off directions count, and at 1 or above no singular value
    does, where np.linalg.lstsq would silently use machine precision instead.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {tol!r}")
    return tol


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
        """Weighted sum of the terms in dB, Φ(d) @ (M @ weights); a float for a scalar d."""
        d = _as_floats(d_km, "d_km")
        values = self._sum(self._checked(d), self.weights @ weights)
        return float(values[0]) if d.ndim == 0 else values.reshape(d.shape)

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


def _log10(x: float) -> float:
    """log10 x of a term's argument, nan where x is not positive, so that
    build_basis rejects the term."""
    return math.log10(x) if x > 0.0 else math.nan


def _wi_terms(terrain: Terrain, kind: ModelKind) -> list[tuple[str, str, int, float]]:
    family, density = kind.family, kind.density
    lead = RTS_LEAD_ITU if family is Family.ITU else RTS_LEAD_COST
    ka, kf = multiscreen_constants(terrain, density, family)
    log_f = _log10(terrain.f_mhz)
    return [
        ("32.4", "FSP", _ONE, 32.4),
        ("20 log10 d", "FSP", _LOG_D, 20.0),
        ("20 log10 f", "FSP", _ONE, 20.0 * log_f),
        (f"{lead:g}", "RTS", _ONE, lead),
        ("-10 log10 w", "RTS", _ONE, -10.0 * _log10(terrain.w_m)),
        ("10 log10 f", "RTS", _ONE, 10.0 * log_f),
        ("20 log10 dh_rx", "RTS", _ONE, 20.0 * _log10(terrain.dh_rx_m)),
        ("orientation(phi)", "RTS", _ONE, street_orientation_term(terrain.phi_deg)),
        ("-18 log10(1 + dh_tx)", "MSD", _ONE, -18.0 * _log10(1.0 + terrain.dh_tx_m)),
        ("k_a", "MSD", _ONE, ka),
        ("18 log10 d", "MSD", _LOG_D, 18.0),
        ("k_f log10 f", "MSD", _ONE, kf * log_f),
        ("-9 log10 b", "MSD", _ONE, -9.0 * _log10(terrain.b_m)),
    ]


def _wb_terms(terrain: Terrain) -> list[tuple[str, str, int, float]]:
    half_b = terrain.b_m / 2.0
    angle_deg = math.degrees(math.atan(2.0 * terrain.dh_rx_m / terrain.b_m))
    geometry = 5.0 * _log10(half_b * half_b + terrain.dh_rx_m * terrain.dh_rx_m)
    return [
        ("89.5", "CORE", _ONE, 89.5),
        ("38 log10 d", "CORE", _LOG_D, 38.0),
        ("-18 log10 dh_tx", "HEIGHT", _ONE, -18.0 * _log10(terrain.dh_tx_m)),
        ("21 log10 f", "CORE", _ONE, 21.0 * _log10(terrain.f_mhz)),
        ("5 log10((b/2)^2 + dh_rx^2)", "GEOMETRY", _ONE, geometry),
        ("-9 log10 b", "GEOMETRY", _ONE, -9.0 * _log10(terrain.b_m)),
        ("20 log10 atan_deg(2 dh_rx / b)", "GEOMETRY", _ONE, 20.0 * _log10(angle_deg)),
        ("-18 log10(1 - d^2 / (17 dh_tx))", "CURVATURE", _CURVATURE, -18.0),
    ]


def build_basis(kind: ModelKind, terrain: Terrain) -> BasisSet:
    """Component terms of one variant at fixed terrain, with their table M.

    13 terms for a Walfisch-Ikegami variant, 8 for Walfisch-Bertoni; their
    sum equals predict_basic(kind, terrain, d) at every d.  Every weight must
    be finite and within ±_WEIGHT_MAX, which also needs every log10 argument
    positive; DomainError naming the terrain fields of the term otherwise.
    """
    terms = _wb_terms(terrain) if kind is ModelKind.W_BERT else _wi_terms(terrain, kind)
    for label, _, _, weight in terms:
        if not abs(weight) <= _WEIGHT_MAX:
            symbols = set(re.findall(r"[a-z_]+", label))
            at = [f"{f} = {getattr(terrain, f)!r}" for s, f in _SYMBOLS.items() if s in symbols]
            raise DomainError(
                f"term {label!r} has weight {weight!r} at {', '.join(at)}; "
                f"a weight must be finite and within ±{_WEIGHT_MAX:g}"
            )
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
    _check_rank_tol(tol, "tol")
    matrix = _as_floats(m, "m")
    if matrix.ndim != 2 or not np.isfinite(matrix).all():
        raise DomainError(f"rank needs a finite 2-d matrix, got shape {matrix.shape}")
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular.size == 0 or singular[0] == 0.0:
        return 0
    return int(np.count_nonzero(singular > tol * singular[0]))
