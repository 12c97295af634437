"""Basic Walfisch-type pathloss models and their component terms.

Five NLOS variants are covered: the COST231 Walfisch-Ikegami model for
metropolitan and suburban environments (CWI-M / CWI-SU), the ITU-R flavour of
both (ITWI-M / ITWI-SU: roof-top leading constant -8.2 instead of -16.9, plus
substituted multiscreen constants above 2 GHz), and the Walfisch-Bertoni
model (W-BERT).

Units are fixed throughout and never auto-converted: distance in km,
frequency in MHz, street/building geometry in m, losses in dB.  Every
function is pure and accepts scalar or numpy-array distances, so they are
safe to call from any number of workers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CurvatureDomainError, DomainError

__all__ = [
    "Density",
    "Family",
    "ModelKind",
    "Terrain",
    "building_geometry_term",
    "free_space_loss",
    "multiscreen_constants",
    "multiscreen_loss",
    "predict_basic",
    "rooftop_to_street_loss",
    "street_orientation_term",
    "wb_excess_loss",
    "wb_max_distance_km",
]

RTS_LEAD_COST = -16.9
RTS_LEAD_ITU = -8.2

# the features of distance that the component terms weight: 1, log10 d and,
# for W-BERT, log10(1 - d^2 / (17 dh_tx))
_ONE, _LOG_D, _CURVATURE = 0, 1, 2
# the largest term weight, nominal or calibrated, in dB or dB per decade: a
# fit multiplies the weights by R, whose entries reach sqrt(n)·324 at n rows
# (|log10 d| < 324 for any positive double), so 1e300 leaves a factor of 1e8;
# a term's value is its weight times a feature under 324 in magnitude, so no
# sum of terms overflows either
_WEIGHT_MAX = 1e300
# the Terrain field that each symbol of a term label stands for
_SYMBOLS = {
    "f": "f_mhz", "w": "w_m", "b": "b_m", "phi": "phi_deg", "dh_rx": "dh_rx_m", "dh_tx": "dh_tx_m"
}


class Family(Enum):
    """Constant family of a Walfisch-Ikegami variant."""

    COST = "COST"
    ITU = "ITU"


class Density(Enum):
    """Built-up density selecting the multiscreen frequency coefficient."""

    METRO = "METRO"
    SUBURBAN = "SUBURBAN"


class ModelKind(Enum):
    """The five supported model variants, named as in the report tables."""

    CWI_M = "CWI-M"
    CWI_SU = "CWI-SU"
    ITWI_M = "ITWI-M"
    ITWI_SU = "ITWI-SU"
    W_BERT = "W-BERT"

    @classmethod
    def from_label(cls, label: str) -> "ModelKind":
        """Look up a variant by its table label, e.g. ``"CWI-M"``."""
        try:
            return cls(label.strip().upper())
        except ValueError:
            known = ", ".join(kind.value for kind in cls)
            raise DomainError(f"unknown model kind {label!r}; expected one of {known}") from None

    @property
    def family(self) -> Family | None:
        """COST or ITU for Walfisch-Ikegami variants, None for W-BERT."""
        if self is ModelKind.W_BERT:
            return None
        return Family.ITU if self.value.startswith("ITWI") else Family.COST

    @property
    def density(self) -> Density | None:
        """METRO or SUBURBAN for Walfisch-Ikegami variants, None for W-BERT."""
        if self is ModelKind.W_BERT:
            return None
        return Density.SUBURBAN if self.value.endswith("-SU") else Density.METRO


@dataclass(frozen=True)
class Terrain:
    """Fixed per-campaign link and environment parameters.

    Attributes:
        f_mhz:    operating frequency (MHz)
        w_m:      street width (m)
        b_m:      building separation (m)
        phi_deg:  street orientation / incidence angle (degrees, 0..55)
        dh_rx_m:  roof-top height minus mobile-station height (m)
        dh_tx_m:  transmitter antenna height minus roof-top height (m);
                  must be positive (transmitter above the rooftops)
    """

    f_mhz: float
    w_m: float
    b_m: float
    phi_deg: float
    dh_rx_m: float
    dh_tx_m: float

    def __post_init__(self):
        for name in ("f_mhz", "w_m", "b_m", "dh_rx_m", "dh_tx_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
        if not (math.isfinite(self.phi_deg) and 0.0 <= self.phi_deg <= 55.0):
            raise DomainError(
                f"phi_deg must lie in [0, 55] degrees, got {self.phi_deg!r}"
            )


def _as_floats(values, name: str) -> np.ndarray:
    """values as a float array; DomainError naming it where numpy cannot make
    one, as from a ragged or non-numeric sequence."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a rectangular array of numbers: {exc}") from None


def _as_distance(d_km):
    """Validate distances (km, > 0, finite); returns (array of at least one
    dimension, was_scalar)."""
    d = _as_floats(d_km, "d_km")
    if d.size == 0:
        raise DomainError("at least one distance is required")
    # NaN propagates through min, so two reductions test every value
    if not (d.min() > 0.0 and d.max() < math.inf):
        raise DomainError(f"distances must be positive and finite km, got {d_km!r}")
    return np.atleast_1d(d), d.ndim == 0


def wb_max_distance_km(dh_tx_m: float) -> float:
    """Upper distance limit sqrt(17 * dh_tx) of the Walfisch-Bertoni model."""
    return math.sqrt(17.0 * dh_tx_m)


def _inside_wb_limit(d: np.ndarray, dh_tx_m: float) -> np.ndarray:
    """True where d^2 < 17 * dh_tx: the one test of the Walfisch-Bertoni domain."""
    # a d^2 that overflows to inf lies outside, as it should
    with np.errstate(over="ignore"):
        return d * d < 17.0 * dh_tx_m


def _model_distances(kind: ModelKind, terrain: Terrain, d: np.ndarray):
    """The distances a model covers, and a warning if any were dropped.

    All of d, or for W-BERT those inside its curvature limit: on a sorted
    axis a prefix, which holds every measured distance of a fit.
    """
    if kind is not ModelKind.W_BERT:
        return d, None
    kept = d[_inside_wb_limit(d, terrain.dh_tx_m)]
    dropped = d.size - kept.size
    if not dropped:
        return kept, None
    return kept, (
        f"{kind.value}: grid truncated at the curvature limit "
        f"{wb_max_distance_km(terrain.dh_tx_m):.4f} km ({dropped} of {d.size} points dropped)"
    )


def _check_wb_domain(d: np.ndarray, dh_tx_m: float) -> None:
    """Reject distances outside _inside_wb_limit (curvature term undefined).

    d must be positive, so d * d grows with d and its largest value decides.
    """
    if _inside_wb_limit(d.max(), dh_tx_m):
        return
    bad = d[~_inside_wb_limit(d, dh_tx_m)]
    listed = ", ".join(f"{value:g}" for value in bad[:8])
    if bad.size > 8:
        listed += f", ... ({bad.size} total)"
    raise CurvatureDomainError(
        f"distance(s) {listed} km at or beyond the curvature limit "
        f"{wb_max_distance_km(dh_tx_m):.4f} km (requires d^2 < 17 * dh_tx)"
    )


def free_space_loss(d_km, f_mhz: float):
    """Free-space loss: 32.4 + 20 log10(d_km) + 20 log10(f_mhz)."""
    if not (math.isfinite(f_mhz) and f_mhz > 0.0):
        raise DomainError(f"f_mhz must be positive and finite, got {f_mhz!r}")
    d, scalar = _as_distance(d_km)
    loss = _free_space_db(np.log10(d), f_mhz)
    return float(loss[0]) if scalar else loss


def _free_space_db(log_d: np.ndarray, f_mhz: float) -> np.ndarray:
    """free_space_loss from log10(d), written over log_d."""
    # 32.4 + 20 log10(d) + 20 log10(f), in that order
    log_d *= 20.0
    log_d += 32.4
    log_d += 20.0 * np.log10(f_mhz)
    return log_d


def street_orientation_term(phi_deg: float) -> float:
    """Street-orientation correction of the roof-top-to-street loss.

    -10 + 0.354 * phi on [0, 35); 2.5 + 0.075 * (phi - 35) on [35, 55].
    """
    if not (math.isfinite(phi_deg) and 0.0 <= phi_deg <= 55.0):
        raise DomainError(f"phi_deg must lie in [0, 55] degrees, got {phi_deg!r}")
    if phi_deg < 35.0:
        return -10.0 + 0.354 * phi_deg
    return 2.5 + 0.075 * (phi_deg - 35.0)


def rooftop_to_street_loss(terrain: Terrain, family: Family) -> float:
    """Roof-top-to-street diffraction and scatter loss (constant in distance).

    lead - 10 log10(w) + 10 log10(f) + 20 log10(dh_rx) + orientation(phi),
    with lead = -16.9 for the COST family and -8.2 for ITU.
    """
    lead = RTS_LEAD_ITU if family is Family.ITU else RTS_LEAD_COST
    return (
        lead
        - 10.0 * math.log10(terrain.w_m)
        + 10.0 * math.log10(terrain.f_mhz)
        + 20.0 * math.log10(terrain.dh_rx_m)
        + street_orientation_term(terrain.phi_deg)
    )


def multiscreen_constants(terrain: Terrain, density: Density, family: Family):
    """Return the (k_a, k_f) multiscreen constants for one variant.

    k_a = 54 and k_f = (1.5 or 0.7) * (f/925 - 1) - 4 (METRO resp. SUBURBAN);
    the ITU family above 2 GHz substitutes k_a = 71.4 and k_f = -8.
    """
    above_2ghz = family is Family.ITU and terrain.f_mhz > 2000.0
    ka = 71.4 if above_2ghz else 54.0
    if above_2ghz:
        kf = -8.0
    else:
        factor = 1.5 if density is Density.METRO else 0.7
        kf = factor * (terrain.f_mhz / 925.0 - 1.0) - 4.0
    return ka, kf


def multiscreen_loss(terrain: Terrain, d_km, density: Density, family: Family):
    """Multiscreen diffraction loss.

    -18 log10(1 + dh_tx) + k_a + 18 log10(d) + k_f log10(f) - 9 log10(b).
    """
    d, scalar = _as_distance(d_km)
    loss = _multiscreen_db(terrain, np.log10(d), density, family)
    return float(loss[0]) if scalar else loss


def _multiscreen_db(terrain: Terrain, log_d: np.ndarray, density: Density, family: Family):
    """multiscreen_loss from log10(d), written over log_d."""
    ka, kf = multiscreen_constants(terrain, density, family)
    # the terms in the order above, the two leading constants summed first
    log_d *= 18.0
    log_d += -18.0 * math.log10(1.0 + terrain.dh_tx_m) + ka
    log_d += kf * math.log10(terrain.f_mhz)
    log_d -= 9.0 * math.log10(terrain.b_m)
    return log_d


def building_geometry_term(terrain: Terrain) -> float:
    """Building-geometry loss of the Walfisch-Bertoni model.

    A = 5 log10((b/2)^2 + dh_rx^2) - 9 log10(b) + 20 log10(arctan(2 dh_rx / b)),
    the arc tangent expressed in degrees.
    """
    half_b = terrain.b_m / 2.0
    angle_deg = math.degrees(math.atan(2.0 * terrain.dh_rx_m / terrain.b_m))
    return (
        5.0 * math.log10(half_b * half_b + terrain.dh_rx_m * terrain.dh_rx_m)
        - 9.0 * math.log10(terrain.b_m)
        + 20.0 * math.log10(angle_deg)
    )


def wb_excess_loss(terrain: Terrain, d_km):
    """Walfisch-Bertoni excess loss over free space.

    57.1 + log10(f) + 18 log10(d) - 18 log10(dh_tx)
    - 18 log10(1 - d^2 / (17 dh_tx)) + A(terrain),
    defined only while d^2 < 17 * dh_tx.
    """
    d, scalar = _as_distance(d_km)
    _check_wb_domain(d, terrain.dh_tx_m)
    loss = _wb_excess_db(terrain, d)
    return float(loss[0]) if scalar else loss


def _wb_excess_db(terrain: Terrain, d: np.ndarray) -> np.ndarray:
    """wb_excess_loss at d, an array that passed _as_distance and _check_wb_domain."""
    # the terms in the order above, in two arrays: the sum and the curvature
    loss = np.log10(d)
    loss *= 18.0
    loss += 57.1 + math.log10(terrain.f_mhz)
    loss -= 18.0 * math.log10(terrain.dh_tx_m)
    curvature = d * d
    curvature /= 17.0 * terrain.dh_tx_m
    np.subtract(1.0, curvature, out=curvature)
    np.log10(curvature, out=curvature)
    curvature *= 18.0
    loss -= curvature
    del curvature
    loss += building_geometry_term(terrain)
    return loss


def _log10(x: float) -> float:
    """log10 x of a term's argument, nan where x is not positive, so that
    _terms rejects the term."""
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


def _check_weights(labels, weights, at) -> None:
    """DomainError unless every term weight, nominal or calibrated, is finite
    and within ±_WEIGHT_MAX; at(n) names the inputs that gave weight n."""
    for n, (label, weight) in enumerate(zip(labels, weights)):
        if not abs(weight) <= _WEIGHT_MAX:
            raise DomainError(
                f"term {label!r} has weight {float(weight)!r} at {at(n)}; "
                f"a weight must be finite and within ±{_WEIGHT_MAX:g}"
            )


def _terms(kind: ModelKind, terrain: Terrain) -> list[tuple[str, str, int, float]]:
    """The component terms of one variant at fixed terrain, as (label, group,
    feature, weight) rows: 13 for a Walfisch-Ikegami variant, 8 for
    Walfisch-Bertoni, summing to predict_basic at every d.

    Every weight must pass _check_weights, which also needs every log10
    argument positive; DomainError naming the terrain fields of the term
    otherwise.  This is the one terrain check of build_basis and
    predict_basic.
    """
    terms = _wb_terms(terrain) if kind is ModelKind.W_BERT else _wi_terms(terrain, kind)

    def fields(n: int) -> str:
        symbols = set(re.findall(r"[a-z_]+", terms[n][0]))
        at = [f"{f} = {getattr(terrain, f)!r}" for s, f in _SYMBOLS.items() if s in symbols]
        return ", ".join(at)

    _check_weights([row[0] for row in terms], [row[3] for row in terms], fields)
    return terms


def predict_basic(kind: ModelKind, terrain: Terrain, d_km):
    """Nominal (uncalibrated) pathloss of one model variant.

    Walfisch-Ikegami variants sum free-space, roof-top-to-street, and
    multiscreen losses; W-BERT sums free-space and excess losses.  The
    terrain must pass the weight check of _terms, as for build_basis.
    """
    _terms(kind, terrain)
    d, scalar = _as_distance(d_km)
    if kind is ModelKind.W_BERT:
        # free space added into the excess, so two arrays at the most
        _check_wb_domain(d, terrain.dh_tx_m)
        loss = _wb_excess_db(terrain, d)
        loss += _free_space_db(np.log10(d), terrain.f_mhz)
    else:
        # one log10(d) for free space and multiscreen, summed in that order
        loss = np.log10(d)
        multiscreen = _multiscreen_db(terrain, loss.copy(), kind.density, kind.family)
        _free_space_db(loss, terrain.f_mhz)
        loss += rooftop_to_street_loss(terrain, kind.family)
        loss += multiscreen
    return float(loss[0]) if scalar else loss
