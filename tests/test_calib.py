"""Calibration solves, predictions, and disaggregation."""

import math

import numpy as np
import pytest

from helpers import ALL_KINDS, WI_KINDS, random_campaign, random_distances, random_terrain
from walfcal import (
    Calibration,
    CurvatureDomainError,
    DomainError,
    MeasurementSet,
    ModelKind,
    Terrain,
    build_basis,
    calibrate,
    design_matrix,
    free_space_loss,
    group_losses,
    minimum_norm_lstsq,
    predict_basic,
    predict_calibrated,
    rmse,
)


def make_terrain(**overrides) -> Terrain:
    params = dict(f_mhz=900.0, w_m=20.0, b_m=24.0, phi_deg=30.0, dh_rx_m=12.0, dh_tx_m=10.0)
    params.update(overrides)
    return Terrain(**params)


def brute_force_fit(columns: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Independent oracle: normal equations on explicitly independent columns."""
    gram = columns.T @ columns
    weights = np.linalg.solve(gram, columns.T @ rhs)
    return columns @ weights


class TestMeasurementSet:
    def test_holds_samples_in_order(self):
        m = MeasurementSet([2.0, 0.5, 0.5], [110.0, 90.0, 91.0])
        assert len(m) == 3
        assert m.distances_km == pytest.approx([2.0, 0.5, 0.5])
        assert m.pathloss_db == pytest.approx([110.0, 90.0, 91.0])

    def test_arrays_are_read_only(self):
        m = MeasurementSet([1.0], [100.0])
        with pytest.raises(ValueError):
            m.distances_km[0] = 2.0

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            MeasurementSet([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            MeasurementSet([1.0, 2.0], [100.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_distance(self, bad):
        with pytest.raises(DomainError):
            MeasurementSet([1.0, bad], [100.0, 100.0])

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
    def test_rejects_bad_pathloss(self, bad):
        with pytest.raises(DomainError):
            MeasurementSet([1.0, 2.0], [100.0, bad])


class TestMinimumNormLstsq:
    def test_well_posed_matches_direct_solve(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(6, 3))
        rhs = rng.normal(size=6)
        x, rank = minimum_norm_lstsq(matrix, rhs)
        gram = matrix.T @ matrix
        assert rank == 3
        assert x == pytest.approx(np.linalg.solve(gram, matrix.T @ rhs), abs=1e-10)

    def test_duplicate_columns_share_weight(self):
        # minimum-norm solution splits evenly across identical columns
        x, rank = minimum_norm_lstsq(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert rank == 1
        assert x == pytest.approx([1.0, 1.0])

    def test_fitted_values_invariant_under_column_rescale(self):
        rng = np.random.default_rng(13)
        matrix = np.column_stack([np.ones(20), np.log10(rng.uniform(0.1, 9.0, 20))])
        matrix = np.column_stack([matrix, matrix[:, 0] * 3.0])  # redundant column
        rhs = rng.normal(100.0, 10.0, 20)
        x1, _ = minimum_norm_lstsq(matrix, rhs)
        scaled = matrix.copy()
        scaled[:, 1] *= 7.0
        x2, _ = minimum_norm_lstsq(scaled, rhs)
        assert matrix @ x1 == pytest.approx(scaled @ x2, abs=1e-9)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            minimum_norm_lstsq(np.eye(3), np.ones(2))

    @pytest.mark.parametrize("cutoff", [0.0, 1.0, 2.0, math.inf, math.nan, -1.0])
    def test_rejects_cutoff_outside_unit_interval(self, cutoff):
        # np.linalg.lstsq would swap such an rcond for machine precision
        with pytest.raises(DomainError, match=r"cutoff must lie in \(0, 1\)"):
            minimum_norm_lstsq(np.eye(3), np.ones(3), cutoff)


class TestCalibrate:
    def test_in_span_measurements_fit_exactly(self):
        rng = np.random.default_rng(61)
        t = random_terrain(rng)
        d = random_distances(rng, t, 40)
        for kind in ALL_KINDS:
            meas = MeasurementSet(d, predict_basic(kind, t, d))
            cal = calibrate(kind, t, meas)
            assert rmse(cal.fitted_db, meas.pathloss_db) <= 1e-9
            assert cal.fitted_db == pytest.approx(meas.pathloss_db, abs=1e-9)

    def test_log_trend_recovered_by_wi(self):
        d = np.linspace(0.2, 5.0, 25)
        meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d))
        for kind in WI_KINDS:
            cal = calibrate(kind, make_terrain(), meas)
            assert rmse(cal.fitted_db, meas.pathloss_db) <= 1e-9
            assert predict_calibrated(cal, 2.0) == pytest.approx(109.03089986991944, abs=1e-9)

    def test_rank_recorded(self):
        rng = np.random.default_rng(67)
        t, meas = random_campaign(rng, n_lo=30, n_hi=60)
        for kind in ALL_KINDS:
            expected = 3 if kind is ModelKind.W_BERT else 2
            assert calibrate(kind, t, meas).rank == expected

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            t, meas = random_campaign(rng, n_lo=30, n_hi=80)
            for kind in ALL_KINDS:
                cal = calibrate(kind, t, meas)
                matrix = design_matrix(cal.basis, meas.distances_km).matrix
                res_norm = float(np.linalg.norm(cal.residual_db))
                for column in matrix.T:
                    bound = 1e-6 * float(np.linalg.norm(column)) * res_norm + 1e-9
                    assert abs(float(column @ cal.residual_db)) <= bound

    def test_zero_mean_residual(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            t, meas = random_campaign(rng, n_lo=30, n_hi=120)
            for kind in ALL_KINDS:
                cal = calibrate(kind, t, meas)
                assert abs(float(np.mean(cal.residual_db))) <= 1e-9

    def test_fitted_matches_pivot_column_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(5):
            t, meas = random_campaign(rng, n_lo=30, n_hi=90)
            d = meas.distances_km
            wi_pivots = np.column_stack([np.ones(d.size), np.log10(d)])
            curvature = np.log10(1.0 - d * d / (17.0 * t.dh_tx_m))
            wb_pivots = np.column_stack([wi_pivots, curvature])
            for kind in ALL_KINDS:
                cal = calibrate(kind, t, meas)
                pivots = wb_pivots if kind is ModelKind.W_BERT else wi_pivots
                oracle = brute_force_fit(pivots, meas.pathloss_db)
                assert cal.fitted_db == pytest.approx(oracle, abs=1e-8)

    def test_wi_variants_share_rmse(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            t, meas = random_campaign(rng)
            values = [rmse(calibrate(k, t, meas).fitted_db, meas.pathloss_db) for k in WI_KINDS]
            assert max(values) - min(values) <= 1e-9

    def test_wb_never_worse_than_wi(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            t, meas = random_campaign(rng)
            wb = rmse(calibrate(ModelKind.W_BERT, t, meas).fitted_db, meas.pathloss_db)
            wi = rmse(calibrate(ModelKind.CWI_M, t, meas).fitted_db, meas.pathloss_db)
            assert wb <= wi + 1e-9

    def test_idempotent_on_own_fit(self):
        rng = np.random.default_rng(97)
        t, meas = random_campaign(rng, n_lo=30, n_hi=60)
        for kind in ALL_KINDS:
            first = calibrate(kind, t, meas)
            again = calibrate(kind, t, MeasurementSet(meas.distances_km, first.fitted_db))
            assert rmse(again.fitted_db, first.fitted_db) <= 1e-9

    @pytest.mark.parametrize("cutoff", [0.0, 1.0, 2.0, math.inf, math.nan, -1.0])
    def test_rejects_cutoff_outside_unit_interval(self, cutoff):
        meas = MeasurementSet([0.5, 1.0, 2.0], [95.0, 105.0, 112.0])
        for kind in ALL_KINDS:
            with pytest.raises(DomainError, match="cutoff"):
                calibrate(kind, make_terrain(), meas, cutoff=cutoff)

    def test_residual_is_fitted_minus_measured(self):
        rng = np.random.default_rng(113)
        t, meas = random_campaign(rng, n_lo=20, n_hi=30)
        cal = calibrate(ModelKind.ITWI_SU, t, meas)
        assert np.array_equal(cal.residual_db, cal.fitted_db - meas.pathloss_db)
        assert cal.kind is ModelKind.ITWI_SU and cal.kind is cal.basis.kind
        assert cal.terrain == t and cal.terrain is cal.basis.terrain

    def test_wb_domain_violation_names_distance(self):
        t = make_terrain(dh_tx_m=10.0)
        meas = MeasurementSet([1.0, 13.5], [100.0, 140.0])
        with pytest.raises(CurvatureDomainError, match="13.5"):
            calibrate(ModelKind.W_BERT, t, meas)

    def test_duplicate_distances_act_as_weights(self):
        t = make_terrain()
        # two samples at 1 km pull the fit toward their mean
        meas = MeasurementSet([1.0, 1.0, 3.0], [100.0, 104.0, 120.0])
        cal = calibrate(ModelKind.CWI_M, t, meas)
        assert predict_calibrated(cal, 1.0) == pytest.approx(102.0, abs=1e-9)
        assert predict_calibrated(cal, 3.0) == pytest.approx(120.0, abs=1e-9)


class TestPredictCalibrated:
    def test_matches_stored_fitted_values(self):
        rng = np.random.default_rng(101)
        t, meas = random_campaign(rng, n_lo=30, n_hi=50)
        for kind in ALL_KINDS:
            cal = calibrate(kind, t, meas)
            assert predict_calibrated(cal, meas.distances_km) == pytest.approx(
                cal.fitted_db, abs=1e-9
            )

    def test_unit_weights_reproduce_basic_model(self):
        t = make_terrain()
        d = np.array([0.4, 1.0, 2.7])
        for kind in ALL_KINDS:
            basis = build_basis(kind, t)
            cal = Calibration(
                basis=basis,
                alpha=np.ones(len(basis)),
                rank=len(basis),
                distances_km=d,
                measured_db=np.zeros(3),
                fitted_db=np.zeros(3),
            )
            assert predict_calibrated(cal, d) == pytest.approx(
                predict_basic(kind, t, d), abs=1e-9
            )

    def test_scalar_distance_gives_float(self):
        rng = np.random.default_rng(103)
        t, meas = random_campaign(rng, n_lo=30, n_hi=40)
        cal = calibrate(ModelKind.CWI_SU, t, meas)
        value = predict_calibrated(cal, 1.0)
        assert isinstance(value, float)

    def test_wb_domain_enforced(self):
        t = make_terrain(dh_tx_m=10.0)
        meas = MeasurementSet([1.0, 2.0, 4.0], [100.0, 110.0, 118.0])
        cal = calibrate(ModelKind.W_BERT, t, meas)
        with pytest.raises(CurvatureDomainError):
            predict_calibrated(cal, 14.0)


class TestDisaggregate:
    """group_losses columns: basic per group, basic total, calibrated per
    group, calibrated total."""

    def test_groups_sum_to_net(self):
        rng = np.random.default_rng(107)
        t, meas = random_campaign(rng, n_lo=30, n_hi=60)
        d = random_distances(rng, t, 15)
        for kind in ALL_KINDS:
            cal = calibrate(kind, t, meas)
            values = group_losses(cal, d)
            g = len(cal.basis.groups)
            assert values[:, 2 * g + 1] == pytest.approx(predict_calibrated(cal, d), abs=1e-9)
            assert values[:, g] == pytest.approx(predict_basic(kind, t, d), abs=1e-9)

    def test_basic_free_space_group(self):
        t = make_terrain()
        meas = MeasurementSet([0.5, 1.0, 2.0], [95.0, 105.0, 112.0])
        cal = calibrate(ModelKind.CWI_M, t, meas)
        fsp = group_losses(cal, [1.0])[0, cal.basis.groups.index("FSP")]
        assert fsp == pytest.approx(91.4848501887865, abs=1e-4)
        assert fsp == pytest.approx(free_space_loss(1.0, t.f_mhz), abs=1e-12)

    def test_unit_weights_collapse_profiles(self):
        t = make_terrain()
        d = np.array([0.3, 1.0, 3.0])
        basis = build_basis(ModelKind.W_BERT, t)
        cal = Calibration(
            basis=basis,
            alpha=np.ones(len(basis)),
            rank=len(basis),
            distances_km=d,
            measured_db=np.zeros(3),
            fitted_db=np.zeros(3),
        )
        basic, calibrated = np.hsplit(group_losses(cal, d), 2)
        assert calibrated == pytest.approx(basic, abs=1e-12)

    def test_group_keys_match_basis(self):
        rng = np.random.default_rng(109)
        t, meas = random_campaign(rng, n_lo=30, n_hi=40)
        for kind in (ModelKind.W_BERT, ModelKind.CWI_M):
            cal = calibrate(kind, t, meas)
            values = group_losses(cal, meas.distances_km[:4])
            assert values.shape == (4, 2 * len(cal.basis.groups) + 2)
