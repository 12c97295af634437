"""The input rules, each checked by one helper where the input enters.

A scalar argument is converted to float once it passes its rule, so a numpy
or Fraction scalar gives the result, bit for bit, of the same value as a
Python float; a bool or a value that is not a real number is a DomainError
that names the argument.  A bad value in a positive array is listed by
value, at most 8 of them, wherever it sits.  A model list holds at least one
ModelKind and none twice, and a single kind must be a ModelKind too.
"""

import dataclasses
import numbers
import warnings
from fractions import Fraction

import numpy as np
import pytest

from walfcal import (
    DomainError,
    MeasurementSet,
    MetricsReport,
    ModelKind,
    Terrain,
    build_basis,
    calibrate,
    effective_rank,
    free_space_loss,
    improvement_pct,
    minimum_norm_lstsq,
    predict_basic,
    street_orientation_term,
    wb_max_distance_km,
)
from walfcal.cli import CampaignConfig, prediction_grid

TERRAIN = {
    "f_mhz": 900.1, "w_m": 20.3, "b_m": 30.7, "phi_deg": 30.3, "dh_rx_m": 12.2, "dh_tx_m": 6.1
}
MEAS = MeasurementSet([0.2, 0.5, 1.0, 2.0, 3.0], [82.1, 95.3, 104.6, 113.9, 121.0])
GRID = {"d_min_km": 0.1, "d_max_km": 2.0, "d_step_km": 0.1}
REPORT = {"rmse_db": 2.5, "mpe_db": 0.5, "rmse_basic_db": 3.5, "mpe_basic_db": -0.5,
          "improvement_pct": 28.5}


def _terrain(name, x):
    t = Terrain(**{**TERRAIN, name: x})
    return t, predict_basic(ModelKind.CWI_M, t, 1.0), predict_basic(ModelKind.W_BERT, t, 1.0)


def _config(x):
    return CampaignConfig(Terrain(**TERRAIN), (ModelKind.CWI_M,), **GRID, rank_tol=x)


# argument name -> (a valid value, the call that takes x for it)
ENTRY_POINTS = {
    **{f"Terrain.{name}": (value, lambda x, name=name: _terrain(name, x))
       for name, value in TERRAIN.items()},
    "free_space_loss.f_mhz": (900.1, lambda x: free_space_loss([0.5, 1.0], x)),
    "street_orientation_term.phi_deg": (40.3, street_orientation_term),
    "wb_max_distance_km.dh_tx_m": (6.1, wb_max_distance_km),
    **{f"prediction_grid.{name}": (value, lambda x, name=name: prediction_grid(**{**GRID, name: x}))
       for name, value in GRID.items()},
    "effective_rank.tol": (1e-10, lambda x: effective_rank([[1.0, 1e-11], [1.0, 2.0]], x)),
    "minimum_norm_lstsq.cutoff": (
        1e-10, lambda x: minimum_norm_lstsq(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2), x)
    ),
    "calibrate.cutoff": (1e-10, lambda x: calibrate(ModelKind.W_BERT, Terrain(**TERRAIN), MEAS, x)),
    "CampaignConfig.rank_tol": (1e-10, _config),
    "improvement_pct.rmse_basic": (3.7, lambda x: improvement_pct(x, 2.1)),
    "improvement_pct.rmse_calibrated": (2.1, lambda x: improvement_pct(3.7, x)),
    **{f"MetricsReport.{name}": (value, lambda x, name=name: MetricsReport(**{**REPORT, name: x}))
       for name, value in REPORT.items()},
}

# fields that None leaves out of a report
OPTIONAL = {"MetricsReport.rmse_basic_db", "MetricsReport.mpe_basic_db",
            "MetricsReport.improvement_pct"}


def _values(valid):
    return [True, None, "900", 900j, np.array(valid), np.float32(valid), np.int64(round(valid)),
            Fraction(valid)]


VALUE_IDS = ["True", "None", "str", "complex", "ndarray", "float32", "int64", "Fraction"]


def _bits(result):
    """The type and every bit of a result, through arrays, tuples and dataclasses."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, (tuple, list)):
        return type(result), [_bits(item) for item in result]
    if dataclasses.is_dataclass(result):
        return type(result), [_bits(getattr(result, f.name)) for f in dataclasses.fields(result)]
    if isinstance(result, float):
        return float, result.hex()
    return type(result), repr(result)


def _outcome(call, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(x)
        except DomainError as exc:
            return exc


@pytest.mark.parametrize("index", range(len(VALUE_IDS)), ids=VALUE_IDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_scalar_argument_is_a_float_or_a_domain_error(entry, index):
    valid, call = ENTRY_POINTS[entry]
    value = _values(valid)[index]
    name = entry.rpartition(".")[2]
    got = _outcome(call, value)
    if value is None and entry in OPTIONAL:
        assert getattr(got, name) is None
        return
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    want = _outcome(call, float(value)) if real else None
    if isinstance(want, DomainError) or not real:
        assert isinstance(got, DomainError), got
        assert str(got).startswith(f"{name} ") and str(got).endswith(f", got {value!r}")
    else:
        assert not isinstance(got, DomainError), got
        assert _bits(got) == _bits(want)


def test_a_float32_frequency_predicts_as_its_float():
    f = np.float32(1234.567)
    basic = [predict_basic(ModelKind.CWI_M, Terrain(**{**TERRAIN, "f_mhz": x}), 1.0)
             for x in (f, float(f))]
    assert basic[0] == basic[1]
    assert free_space_loss(1.0, np.float32(900.1)) == free_space_loss(1.0, float(np.float32(900.1)))


def test_wb_max_distance_needs_a_positive_height():
    with pytest.raises(DomainError, match=r"^dh_tx_m must be positive and finite, got -1\.0$"):
        wb_max_distance_km(-1.0)


class TestPositiveValues:
    """Distances and measurement columns list their bad values by value."""

    def test_a_long_list_gives_a_short_message(self):
        d = [1.0] * 200_001
        d[100_000] = -1.0
        with pytest.raises(DomainError) as caught:
            free_space_loss(d, 900.0)
        message = str(caught.value)
        assert message == "distances must be positive and finite km, got -1"
        assert len(message) < 200

    def test_at_most_8_values_are_listed(self):
        d = np.linspace(0.1, 2.0, 1000)
        d[::100] = -np.arange(10.0) - 1.0
        with pytest.raises(DomainError) as caught:
            predict_basic(ModelKind.CWI_M, Terrain(**TERRAIN), d)
        assert str(caught.value) == (
            "distances must be positive and finite km, got -1, -2, -3, -4, -5, -6, -7, -8, "
            "... (10 total)"
        )

    @pytest.mark.parametrize(
        ("column", "message"),
        [
            ("distances_km", "measurement distances must be positive and finite, got nan"),
            ("pathloss_db", "measured pathloss values must be positive and finite, got nan"),
        ],
    )
    def test_a_bad_measurement_mid_array_is_named(self, column, message):
        columns = {
            "distances_km": np.linspace(0.1, 2.0, 200_000), "pathloss_db": np.full(200_000, 100.0)
        }
        columns[column][100_000] = np.nan
        with pytest.raises(DomainError) as caught:
            MeasurementSet(**columns)
        assert str(caught.value) == message


class TestModelKinds:
    @pytest.mark.parametrize(
        "call",
        [
            lambda t: build_basis("CWI-M", t),
            lambda t: predict_basic("CWI-M", t, 1.0),
            lambda t: calibrate("CWI-M", t, MEAS),
        ],
        ids=["build_basis", "predict_basic", "calibrate"],
    )
    def test_a_kind_must_be_a_model_kind(self, call):
        with pytest.raises(DomainError) as caught:
            call(Terrain(**TERRAIN))
        assert str(caught.value) == "model kind must be a ModelKind, got 'CWI-M'"

    @pytest.mark.parametrize(
        ("models", "message"),
        [
            ((), "at least one model kind is required"),
            (("CWI-M",), "model kind must be a ModelKind, got 'CWI-M'"),
            ((ModelKind.W_BERT, "W-BERT"), "model kind must be a ModelKind, got 'W-BERT'"),
            ((ModelKind.W_BERT, ModelKind.W_BERT), "model kinds repeat in ['W-BERT', 'W-BERT']"),
        ],
        ids=["empty", "label", "label after a kind", "repeat"],
    )
    def test_campaign_model_list(self, models, message):
        with pytest.raises(DomainError) as caught:
            CampaignConfig(Terrain(**TERRAIN), models, **GRID)
        assert str(caught.value) == message
