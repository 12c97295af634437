"""Basic Walfisch-type pathloss models and their component terms.

Five NLOS variants are covered: the COST231 Walfisch-Ikegami model for
metropolitan and suburban environments (CWI-M / CWI-SU), the ITU-R flavour of
both (ITWI-M / ITWI-SU: roof-top leading constant -8.2 instead of -16.9, plus
substituted multiscreen constants above 2 GHz), and the Walfisch-Bertoni
model (W-BERT).

The component functions below state the closed form as the paper does.
_terms lists the same formulas once more, as the term rows behind
basis.build_basis; predict_basic sums those rows, Φ(d)·(M·1).

Units are fixed throughout and never auto-converted: distance in km,
frequency in MHz, street/building geometry in m, losses in dB.  Every
function is pure and accepts scalar or numpy-array distances, so they are
safe to call from any number of workers.
"""

from __future__ import annotations

import math
import numbers
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
# the rules of scalar inputs, as (test, wording) for _check_scalar; each test rejects nan
_POSITIVE = (lambda v: 0.0 < v < math.inf, "must be positive and finite")
_NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "must be non-negative and finite")
_PHI = (lambda v: 0.0 <= v <= 55.0, "must lie in [0, 55] degrees")


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


def _check_scalar(name: str, value, test, rule: str) -> float:
    """float(value) once test accepts it, the one check of a scalar input;
    DomainError "<name> <rule>, got <value!r>" otherwise.  A bool, a value
    that is not a real number and one past the largest double reach test as
    nan, which every test rejects; a float skips the slower numbers.Real test."""
    real = isinstance(value, (float, numbers.Real)) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:
        number = math.nan
    if not test(number):
        raise DomainError(f"{name} {rule}, got {value!r}")
    return number


def _check_models(models) -> None:
    """DomainError unless models holds at least one ModelKind and none twice."""
    if not models:
        raise DomainError("at least one model kind is required")
    for kind in models:
        if not isinstance(kind, ModelKind):
            raise DomainError(f"model kind must be a ModelKind, got {kind!r}")
    if len(set(models)) < len(models):
        raise DomainError(f"model kinds repeat in {[kind.value for kind in models]}")


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
        for name in ("f_mhz", "w_m", "b_m", "dh_rx_m", "dh_tx_m", "phi_deg"):
            rule = _PHI if name == "phi_deg" else _POSITIVE
            object.__setattr__(self, name, _check_scalar(name, getattr(self, name), *rule))


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
    _check_positive_values(d, "distances must be positive and finite km")
    return np.atleast_1d(d), d.ndim == 0


def _listing(values: np.ndarray) -> str:
    """At most 8 of values as %g, then "... (<n> total)" if there are more."""
    listed = ", ".join(f"{value:g}" for value in values[:8])
    return listed + (f", ... ({values.size} total)" if values.size > 8 else "")


def _check_positive_values(values: np.ndarray, what: str) -> None:
    """DomainError "<what>, got <_listing of the bad values>" unless a nonempty
    float array is positive and finite; NaN propagates, so two reductions decide."""
    if not (values.min() > 0.0 and values.max() < math.inf):
        bad = values[~((values > 0.0) & (values < math.inf))]
        raise DomainError(f"{what}, got {_listing(bad)}")


def wb_max_distance_km(dh_tx_m: float) -> float:
    """Upper distance limit sqrt(17 * dh_tx) of the Walfisch-Bertoni model."""
    return math.sqrt(17.0 * _check_scalar("dh_tx_m", dh_tx_m, *_POSITIVE))


def _inside_wb_limit(d: np.ndarray, dh_tx_m: float) -> np.ndarray:
    """True where d^2 < 17 * dh_tx: the one test of the Walfisch-Bertoni domain."""
    # a d^2 that overflows to inf lies outside, as it should
    with np.errstate(over="ignore"):
        return d * d < 17.0 * dh_tx_m


def _model_distances(kind: ModelKind, terrain: Terrain, d: np.ndarray):
    """How many leading points of sorted d a model covers, and a warning if any are not.

    All of d, or for W-BERT those inside its curvature limit: a prefix,
    which holds every measured distance of a fit.
    """
    if kind is not ModelKind.W_BERT:
        return d.size, None
    end = int(np.count_nonzero(_inside_wb_limit(d, terrain.dh_tx_m)))
    if end == d.size:
        return end, None
    return end, (
        f"{kind.value}: grid truncated at the curvature limit "
        f"{wb_max_distance_km(terrain.dh_tx_m):.4f} km ({d.size - end} of {d.size} points dropped)"
    )


def _check_wb_domain(d: np.ndarray, dh_tx_m: float) -> None:
    """Reject distances outside _inside_wb_limit (curvature term undefined).

    d must be positive, so d * d grows with d and its largest value decides.
    """
    if _inside_wb_limit(d.max(), dh_tx_m):
        return
    raise CurvatureDomainError(
        f"distance(s) {_listing(d[~_inside_wb_limit(d, dh_tx_m)])} km at or beyond the "
        f"curvature limit {wb_max_distance_km(dh_tx_m):.4f} km (requires d^2 < 17 * dh_tx)"
    )


def free_space_loss(d_km, f_mhz: float):
    """Free-space loss: 32.4 + 20 log10(d_km) + 20 log10(f_mhz)."""
    f_mhz = _check_scalar("f_mhz", f_mhz, *_POSITIVE)
    d, scalar = _as_distance(d_km)
    loss = 32.4 + 20.0 * np.log10(d) + 20.0 * np.log10(f_mhz)
    return float(loss[0]) if scalar else loss


def street_orientation_term(phi_deg: float) -> float:
    """Street-orientation correction of the roof-top-to-street loss.

    -10 + 0.354 * phi on [0, 35); 2.5 + 0.075 * (phi - 35) on [35, 55].
    """
    phi_deg = _check_scalar("phi_deg", phi_deg, *_PHI)
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
    The terrain must pass the weight check of its variant's term rows (_check_terms).
    """
    _check_terms(_wi_terms(terrain, family, density), terrain)
    d, scalar = _as_distance(d_km)
    ka, kf = multiscreen_constants(terrain, density, family)
    loss = (
        -18.0 * math.log10(1.0 + terrain.dh_tx_m)
        + ka
        + 18.0 * np.log10(d)
        + kf * math.log10(terrain.f_mhz)
        - 9.0 * math.log10(terrain.b_m)
    )
    return float(loss[0]) if scalar else loss


def building_geometry_term(terrain: Terrain) -> float:
    """Building-geometry loss of the Walfisch-Bertoni model.

    A = 5 log10((b/2)^2 + dh_rx^2) - 9 log10(b) + 20 log10(arctan(2 dh_rx / b)),
    the arc tangent expressed in degrees.  The terrain must pass the weight
    check of the W-BERT term rows (_terms).
    """
    _terms(ModelKind.W_BERT, terrain)
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
    defined only while d^2 < 17 * dh_tx.  The terrain must pass the weight
    check of the W-BERT term rows, as for building_geometry_term.
    """
    geometry = building_geometry_term(terrain)
    d, scalar = _as_distance(d_km)
    _check_wb_domain(d, terrain.dh_tx_m)
    loss = (
        57.1
        + math.log10(terrain.f_mhz)
        + 18.0 * np.log10(d)
        - 18.0 * math.log10(terrain.dh_tx_m)
        - 18.0 * np.log10(1.0 - d * d / (17.0 * terrain.dh_tx_m))
        + geometry
    )
    return float(loss[0]) if scalar else loss


def _log10(x: float) -> float:
    """log10 x of a term's argument, nan where x is not positive, so that
    _terms rejects the term."""
    return math.log10(x) if x > 0.0 else math.nan


def _wi_terms(
    terrain: Terrain, family: Family, density: Density
) -> list[tuple[str, str, int, float]]:
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


def _check_weights(terms, alpha, at) -> None:
    """DomainError unless every calibrated term weight alpha[n]·w_n is finite
    and within ±_WEIGHT_MAX, so that no term value, group or total that alpha
    gives at any d overflows; at(n) names the inputs that gave weight n.  A
    nominal check passes alpha = [1.0] * len(terms), as 1.0·w is w bit for bit."""
    for n, ((label, _, _, w), a) in enumerate(zip(terms, alpha)):
        if not abs(a * w) <= _WEIGHT_MAX:
            raise DomainError(
                f"term {label!r} has weight {float(a * w)!r} at {at(n)}; "
                f"a weight must be finite and within ±{_WEIGHT_MAX:g}"
            )


def _check_terms(terms, terrain: Terrain) -> None:
    """_check_weights over the nominal term rows, with the DomainError naming
    the terrain fields of the failing term."""

    def fields(n: int) -> str:
        symbols = set(re.findall(r"[a-z_]+", terms[n][0]))
        at = [f"{f} = {getattr(terrain, f)!r}" for s, f in _SYMBOLS.items() if s in symbols]
        return ", ".join(at)

    _check_weights(terms, [1.0] * len(terms), fields)


def _terms(kind: ModelKind, terrain: Terrain) -> list[tuple[str, str, int, float]]:
    """The component terms of a ModelKind (_check_models) at fixed terrain, as
    (label, group, feature, weight) rows: 13 for a Walfisch-Ikegami variant,
    8 for Walfisch-Bertoni, summing to predict_basic at every d.

    Every weight must pass _check_weights, which also needs every log10
    argument positive; DomainError naming the terrain fields of the term
    otherwise (_check_terms).  This is the one terrain check of build_basis,
    so of predict_basic, and of building_geometry_term and wb_excess_loss;
    multiscreen_loss checks its own variant's rows the same way.
    """
    _check_models((kind,))
    if kind is ModelKind.W_BERT:
        terms = _wb_terms(terrain)
    else:
        terms = _wi_terms(terrain, kind.family, kind.density)
    _check_terms(terms, terrain)
    return terms


def predict_basic(kind: ModelKind, terrain: Terrain, d_km):
    """Nominal (uncalibrated) pathloss of one model variant, in dB.

    The sum of the variant's component terms, Φ(d)·(M·1): the basic
    prediction of every walfcal report, bit for bit.  A float for a scalar
    d, else an array of d's shape.  The terrain must pass the weight check
    of _terms, as for build_basis.
    """
    from .basis import build_basis

    basis = build_basis(kind, terrain)
    return basis.evaluate(d_km, np.ones(len(basis)))
