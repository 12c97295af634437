"""Calibration solves, predictions, and disaggregation."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    ALL_KINDS,
    FRACTIONS,
    NEAR_LIMIT_GAPS,
    TOL_DB,
    WI_KINDS,
    random_campaign,
    random_distances,
    random_terrain,
    row_major_fold,
    save_measurements,
    term_values,
    traced_peak,
)
from walfcal import (
    RANK_TOL_DEFAULT,
    Calibration,
    CurvatureDomainError,
    DomainError,
    MeasurementSet,
    ModelKind,
    Terrain,
    build_basis,
    calibrate,
    free_space_loss,
    group_losses,
    minimum_norm_lstsq,
    predict_basic,
    predict_calibrated,
    rmse,
    wb_max_distance_km,
)
from walfcal.basis import _CHUNK_ROWS
from walfcal.calib import _fold
from walfcal.cli import CampaignConfig, run_calibration
from walfcal.report import _block_rows


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

    def test_caller_arrays_stay_writeable(self):
        d, p = np.array([0.5, 1.0]), np.array([90.0, 100.0])
        m = MeasurementSet(d, p)
        assert d.flags.writeable and p.flags.writeable
        # held as views, not copies
        assert np.shares_memory(m.distances_km, d) and np.shares_memory(m.pathloss_db, p)
        with pytest.raises(ValueError):
            m.pathloss_db[0] = 1.0

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            MeasurementSet([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            MeasurementSet([1.0, 2.0], [100.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, [2.0], "x"])
    def test_rejects_bad_distance(self, bad):
        with pytest.raises(DomainError):
            MeasurementSet([1.0, bad], [100.0, 100.0])

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf, [2.0], "x"])
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

    @pytest.mark.parametrize(
        "matrix, rhs",
        [([[1.0, math.nan]], [1.0]), ([[1.0, math.inf], [0.0, 1.0]], [1.0, 2.0]),
         ([[1.0, 0.0], [0.0, 1.0]], [1.0, -math.inf]), ([[1.0, 0.0], [1.0]], [1.0, 2.0]),
         ([[1.0, 0.0], [0.0, 1.0]], [1.0, "x"])],
    )
    def test_rejects_entries_that_are_not_finite(self, matrix, rhs, capfd):
        # LAPACK would print a complaint and numpy raise LinAlgError; a
        # ragged or non-numeric argument is no array of floats at all
        try:
            np.asarray(matrix, dtype=float), np.asarray(rhs, dtype=float)
            message = "not finite"
        except ValueError:
            message = "(matrix|rhs) must be a rectangular array of numbers"
        with pytest.raises(DomainError, match=message):
            minimum_norm_lstsq(matrix, rhs)
        assert capfd.readouterr() == ("", "")

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
                matrix = term_values(cal.basis, meas.distances_km)
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

    @pytest.mark.parametrize("kind", WI_KINDS, ids=lambda kind: kind.value)
    def test_rejects_a_fit_whose_term_weights_overflow(self, kind):
        # log10 d is nearly constant at 1e303 km, so a fit to pathloss near
        # 1e306 dB needs a constant term past the largest double, where its
        # fitted values would overflow
        meas = MeasurementSet(np.array([1.0, 2.0, 5.0]) * 1e303, [2e306, 2.5e306, 3e306])
        with pytest.raises(DomainError) as caught:
            calibrate(kind, make_terrain(), meas)
        assert str(caught.value).startswith("term '32.4' has weight -4.")
        assert str(caught.value).endswith(
            " at a fit to measured pathloss up to 3e+306 dB; "
            "a weight must be finite and within ±1e+300"
        )

    def test_duplicate_distances_act_as_weights(self):
        t = make_terrain()
        # two samples at 1 km pull the fit toward their mean
        meas = MeasurementSet([1.0, 1.0, 3.0], [100.0, 104.0, 120.0])
        cal = calibrate(ModelKind.CWI_M, t, meas)
        assert predict_calibrated(cal, 1.0) == pytest.approx(102.0, abs=1e-9)
        assert predict_calibrated(cal, 3.0) == pytest.approx(120.0, abs=1e-9)


class TestChunkedFit:
    """The R-only fold over _CHUNK_ROWS blocks against a full lstsq of Φ·M."""

    @pytest.mark.parametrize(
        "n", [1, 2, 3, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3]
    )
    def test_matches_full_lstsq_across_chunk_edges(self, n):
        rng = np.random.default_rng(n)
        t = random_terrain(rng)
        d = random_distances(rng, t, n)
        p = 110.0 + 35.0 * np.log10(d) + rng.normal(0.0, 4.0, n)
        self.check_against_lstsq(t, MeasurementSet(d, p))

    def test_single_distance_has_rank_one(self):
        meas = MeasurementSet(np.full(7, 0.8), np.linspace(95.0, 101.0, 7))
        ranks = self.check_against_lstsq(make_terrain(), meas)
        assert ranks == [1] * len(ALL_KINDS)

    @staticmethod
    def check_against_lstsq(t, meas):
        ranks = []
        for kind in ALL_KINDS:
            cal = calibrate(kind, t, meas)
            full = term_values(cal.basis, meas.distances_km)
            alpha, _, rank, _ = np.linalg.lstsq(full, meas.pathloss_db, rcond=RANK_TOL_DEFAULT)
            assert cal.rank == rank
            assert np.max(np.abs(cal.fitted_db - full @ alpha)) <= TOL_DB
            assert np.array_equal(cal.fitted_db, predict_calibrated(cal, meas.distances_km))
            ranks.append(cal.rank)
        return ranks

    @pytest.mark.parametrize(
        "n", [1, 2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 5]
    )
    @pytest.mark.parametrize("kind", [ModelKind.CWI_M, ModelKind.W_BERT])
    @pytest.mark.parametrize("with_p", [True, False], ids=["with_p", "without_p"])
    def test_column_major_fold_is_the_row_major_fold_bitwise(self, n, kind, with_p):
        rng = np.random.default_rng(n)
        t = random_terrain(rng)
        d = random_distances(rng, t, n)
        p = 110.0 + 35.0 * np.log10(d) + rng.normal(0.0, 4.0, n) if with_p else None
        self.check_fold_bitwise(build_basis(kind, t), d, p)

    @pytest.mark.parametrize("kind", [ModelKind.CWI_M, ModelKind.W_BERT])
    def test_column_major_fold_near_the_limit_is_the_row_major_fold_bitwise(self, kind):
        # every fraction and near-limit gap of the property tests, tiled past a block edge
        t = make_terrain(dh_tx_m=10.0)
        limit = math.sqrt(17.0 * t.dh_tx_m)
        near = [limit * math.sqrt(1.0 - g) for g in NEAR_LIMIT_GAPS]
        d = np.resize(np.array([f * limit for f in FRACTIONS] + near), _CHUNK_ROWS + 7)
        p = np.resize(np.linspace(60.0, 180.0, 11), d.size)
        for pathloss in (p, None):
            self.check_fold_bitwise(build_basis(kind, t), d, pathloss)

    @staticmethod
    def check_fold_bitwise(basis, d, p):
        r, reference = _fold(basis, d, p), row_major_fold(basis, d, p)
        assert r.shape == reference.shape
        assert r.tobytes() == reference.tobytes()

    def test_wb_sample_beyond_limit_in_last_chunk(self):
        t = make_terrain(dh_tx_m=10.0)
        d = np.linspace(0.1, 12.0, 2 * _CHUNK_ROWS + 3)
        d[-1] = 13.5
        meas = MeasurementSet(d, np.full(d.size, 120.0))
        with pytest.raises(CurvatureDomainError) as caught:
            calibrate(ModelKind.W_BERT, t, meas)
        assert str(caught.value) == (
            "distance(s) 13.5 km at or beyond the curvature limit 13.0384 km "
            "(requires d^2 < 17 * dh_tx)"
        )

    @pytest.mark.parametrize("kind", [ModelKind.CWI_M, ModelKind.W_BERT])
    def test_fit_keeps_no_n_vector(self, kind):
        # neither Φ nor a Q is formed, and fitted_db is evaluated on each read,
        # so a fit keeps no n-long array; the distance and domain checks are
        # reductions, so a fit's peak is its blocks, about a third of one
        rng = np.random.default_rng(211)
        t = make_terrain(dh_tx_m=10.0)
        n = 200_000
        d = rng.uniform(0.05, 12.0, n)
        meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 5.0, n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cal = calibrate(kind, t, meas)
            kept, peak = (traced - base for traced in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * 8
        assert kept < n * 8 // 100
        assert cal.fitted_db.size == n


class TestSharedFold:
    """run_calibration fits each variant as a standalone calibrate does; the
    four WI variants fold the same R, since _fold reads a basis only through Φ."""

    @pytest.mark.parametrize("n", [1, 2, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3, "one distance"])
    def test_fits_equal_standalone_calibrate_bitwise(self, tmp_path, n):
        rng = np.random.default_rng(17)
        t = random_terrain(rng)
        if n == "one distance":
            d = np.full(9, 0.8)
        else:
            d = random_distances(rng, t, n)
        p = 110.0 + 35.0 * np.log10(d) + rng.normal(0.0, 4.0, d.size)
        meas = MeasurementSet(d, p)
        save_measurements(meas, tmp_path / "meas.csv")
        config = CampaignConfig(t, ALL_KINDS, 0.1, 1.0, 0.3)
        result = run_calibration(config, tmp_path / "meas.csv", tmp_path / "out")
        assert result.ok
        for run in result.runs:
            alone = calibrate(run.kind, t, meas)
            shared = run.calibration
            assert shared.rank == alone.rank
            assert np.array_equal(shared.alpha, alone.alpha)
            assert np.array_equal(shared.fitted_db, alone.fitted_db)
        if n == "one distance":
            assert [run.calibration.rank for run in result.runs] == [1] * len(ALL_KINDS)

    def test_one_calibrate_call_per_configured_kind(self, tmp_path, monkeypatch):
        # the benchmark's traced calib.calibrate counts (calls, domain errors)
        # rest on run_calibration fitting every kind through calibrate
        import walfcal.cli

        calls = []

        def recorded(kind, *args, **kwargs):
            try:
                cal = calibrate(kind, *args, **kwargs)
            except Exception as exc:
                calls.append((kind, exc))
                raise
            calls.append((kind, None))
            return cal

        monkeypatch.setattr(walfcal.cli, "calibrate", recorded)
        rng = np.random.default_rng(19)
        t, meas = random_campaign(rng)
        beyond = wb_max_distance_km(t.dh_tx_m) * 1.05
        d = np.append(meas.distances_km, beyond)
        save_measurements(MeasurementSet(d, np.append(meas.pathloss_db, 150.0)), tmp_path / "m.csv")
        kinds = (
            ModelKind.ITWI_SU, ModelKind.W_BERT, ModelKind.CWI_M, ModelKind.ITWI_M, ModelKind.CWI_SU
        )
        assert set(kinds) == set(ALL_KINDS)
        config = CampaignConfig(t, kinds, 0.1, 1.0, 0.3)
        result = run_calibration(config, tmp_path / "m.csv", tmp_path / "out")
        assert [kind for kind, _ in calls] == list(kinds)
        for (kind, exc), run in zip(calls, result.runs):
            assert run.kind is kind
            if kind is ModelKind.W_BERT:
                assert isinstance(exc, CurvatureDomainError)
                assert not run.ok
                assert not list((tmp_path / "out").glob(f"*_{kind.value}.csv"))
            else:
                assert exc is None and run.ok
                for stem in ("coefficients", "disagg", "profile"):
                    assert (tmp_path / "out" / f"{stem}_{kind.value}.csv").is_file()


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

    @pytest.mark.parametrize(
        "kind, d, error",
        [
            (ModelKind.CWI_M, [0.5, 0.0, 2.0], DomainError),
            (ModelKind.CWI_M, [0.5, -1.0, 2.0], DomainError),
            (ModelKind.W_BERT, [1.0, 14.0, 2.0], CurvatureDomainError),
        ],
    )
    def test_fitted_values_of_a_built_calibration_are_checked(self, kind, d, error):
        # a Calibration built directly, not by a fit, has unchecked distances:
        # fitted_db and residual_db check them as predict_calibrated does
        basis = build_basis(kind, make_terrain(dh_tx_m=10.0))
        cal = Calibration(
            basis=basis,
            alpha=np.ones(len(basis)),
            rank=len(basis),
            distances_km=np.array(d),
            measured_db=np.zeros(3),
        )
        with pytest.raises(error):
            cal.fitted_db
        with pytest.raises(error):
            cal.residual_db
        with pytest.raises(error):
            predict_calibrated(cal, d)


    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_each_point_alone_is_its_whole_array_value_bitwise(self, kind):
        # each value is a column sum over its own distance's features, so no
        # block or part edge moves a bit: checked at the _CHUNK_ROWS edges,
        # at the edges of the report walk's parts of five models, and at
        # every 16th point
        rng = np.random.default_rng(113)
        t = make_terrain(dh_tx_m=10.0)
        d = np.sort(rng.uniform(0.02, 13.0, 2 * _CHUNK_ROWS + 5))
        sampled = d[::40]
        noise = rng.normal(0.0, 3.0, sampled.size)
        cal = calibrate(kind, t, MeasurementSet(sampled, 110.0 + 35.0 * np.log10(sampled) + noise))
        part = _block_rows(sum(4 + 2 * len(build_basis(k, t).groups) for k in ALL_KINDS))
        edges = [*range(0, d.size, _CHUNK_ROWS), *range(0, d.size, part)]
        points = sorted({*range(0, d.size, 16)} | {e + s for e in edges for s in (-1, 0, 1)})
        points = [i for i in points if 0 <= i < d.size]
        # compared as bit patterns, so that -0.0 differs from 0.0
        whole = predict_calibrated(cal, d)[points].view(np.int64)
        alone = np.array([predict_calibrated(cal, d[i]) for i in points]).view(np.int64)
        np.testing.assert_array_equal(alone, whole)
        whole = group_losses(cal, d)[points].view(np.int64)
        alone = np.vstack([group_losses(cal, d[i]) for i in points]).view(np.int64)
        np.testing.assert_array_equal(alone, whole)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_peak_memory_at_most_two_vectors(self, kind):
        rng = np.random.default_rng(127)
        t = make_terrain(dh_tx_m=10.0)
        n = 200_000
        meas = MeasurementSet([1.0, 2.0, 4.0, 8.0], [100.0, 110.0, 118.0, 125.0])
        cal = calibrate(kind, t, meas)
        d = rng.uniform(0.05, 13.0, n)
        values, peak = traced_peak(predict_calibrated, cal, d)
        assert values.shape == (n,)
        # two n-long float arrays, plus a few array headers
        assert peak < 2 * n * 8 + 4096


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
