"""RMSE, mean prediction error, and percent improvement."""

import numpy as np
import pytest

from helpers import traced_peak
from walfcal import DomainError, MetricsReport, improvement_pct, mpe, rmse

MISMATCH = "series must be 1-d and equal length, got"
NOT_NUMBERS = "must be a rectangular array of numbers: "


class TestRmse:
    def test_identical_series(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_known_differences(self):
        assert rmse([103.0, 104.0], [100.0, 100.0]) == pytest.approx(
            3.5355339059327378, abs=1e-12
        )

    def test_constant_difference(self):
        measured = np.array([90.0, 100.0, 110.0])
        assert rmse(measured - 2.5, measured) == pytest.approx(2.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        p = rng.normal(100.0, 5.0, 40)
        m = rng.normal(100.0, 5.0, 40)
        order = rng.permutation(40)
        assert rmse(p[order], m[order]) == pytest.approx(rmse(p, m), abs=1e-12)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            rmse([1.0, 2.0], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            rmse([], [])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            rmse([np.nan], [1.0])

    @pytest.mark.parametrize("statistic", [rmse, mpe])
    @pytest.mark.parametrize("bad", [[[1.0, 2.0], [3.0]], [1.0, "x"]], ids=["ragged", "text"])
    def test_rejects_series_that_are_not_an_array_of_numbers(self, statistic, bad):
        with pytest.raises(DomainError, match="predicted must be a rectangular array"):
            statistic(bad, [1.0, 2.0])
        with pytest.raises(DomainError, match="measured must be a rectangular array"):
            statistic([1.0, 2.0], bad)


class TestMpe:
    def test_identical_series(self):
        assert mpe([5.0, 6.0], [5.0, 6.0]) == 0.0

    def test_symmetric_cancellation(self):
        assert mpe([103.0, 97.0], [100.0, 100.0]) == pytest.approx(0.0)

    def test_mean_of_differences(self):
        assert mpe([101.0, 102.0, 103.0], [100.0, 100.0, 100.0]) == pytest.approx(2.0)

    def test_sign_convention_over_prediction_positive(self):
        assert mpe([110.0], [100.0]) > 0.0
        assert mpe([90.0], [100.0]) < 0.0

    def test_rmse_dominates_mpe(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            p = rng.normal(100.0, 10.0, n)
            m = rng.normal(100.0, 10.0, n)
            assert rmse(p, m) >= abs(mpe(p, m)) - 1e-12


class TestImprovementPct:
    def test_reference_case_large_gain(self):
        assert improvement_pct(51.7160, 10.1082) == pytest.approx(80.45, abs=0.01)

    def test_reference_case_moderate_gain(self):
        assert improvement_pct(24.5785, 10.3246) == pytest.approx(57.99, abs=0.1)

    def test_no_improvement(self):
        assert improvement_pct(4.2, 4.2) == 0.0

    def test_perfect_fit(self):
        assert improvement_pct(7.0, 0.0) == 100.0

    def test_antitone_in_calibrated_rmse(self):
        values = [improvement_pct(10.0, x) for x in (0.0, 2.5, 5.0, 9.9, 12.0)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_bad_basic_rmse(self, bad):
        with pytest.raises(DomainError):
            improvement_pct(bad, 1.0)

    def test_rejects_negative_calibrated_rmse(self):
        with pytest.raises(DomainError):
            improvement_pct(5.0, -0.1)


class TestMetricsReport:
    def test_from_series_full(self):
        measured = np.array([100.0, 110.0, 120.0])
        calibrated = measured + np.array([1.0, -1.0, 0.0])
        basic = measured + 10.0
        report = MetricsReport.from_series(measured, calibrated, basic)
        assert report.rmse_db == pytest.approx(rmse(calibrated, measured))
        assert report.mpe_db == pytest.approx(0.0)
        assert report.rmse_basic_db == pytest.approx(10.0)
        assert report.mpe_basic_db == pytest.approx(10.0)
        assert report.improvement_pct == pytest.approx(
            improvement_pct(10.0, rmse(calibrated, measured))
        )

    def test_from_series_without_basic(self):
        report = MetricsReport.from_series([1.0, 2.0], [1.0, 2.0])
        assert report.rmse_db == 0.0
        assert report.rmse_basic_db is None
        assert report.improvement_pct is None

    def test_zero_basic_rmse_leaves_improvement_unset(self):
        measured = np.array([100.0, 110.0])
        report = MetricsReport.from_series(measured, measured + 1.0, measured)
        assert report.rmse_basic_db == 0.0
        assert report.improvement_pct is None

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(DomainError):
            MetricsReport(rmse_db=1.0, mpe_db=2.0)

    def test_accepts_rounding_of_a_large_constant_offset(self):
        # a near-constant residual of 1e7 dB: |mpe| exceeds rmse by rounding
        # alone, by more than a fixed 1e-9 slack allows
        rng = np.random.default_rng(16)
        measured = rng.uniform(50.0, 150.0, 100)
        offset = rng.normal(1e7, 1e-3, 100)
        report = MetricsReport.from_series(measured, measured + offset)
        assert abs(report.mpe_db) > report.rmse_db + 1e-9
        assert report.rmse_db == pytest.approx(1e7)

    def test_rejects_negative_rmse(self):
        with pytest.raises(DomainError):
            MetricsReport(rmse_db=-0.5, mpe_db=0.0)

    def test_from_series_equals_the_standalone_statistics(self):
        rng = np.random.default_rng(5)
        measured, calibrated, basic = rng.normal(100.0, 5.0, (3, 257))
        report = MetricsReport.from_series(measured, calibrated, basic)
        assert report.rmse_db == rmse(calibrated, measured)
        assert report.mpe_db == mpe(calibrated, measured)
        assert report.rmse_basic_db == rmse(basic, measured)
        assert report.mpe_basic_db == mpe(basic, measured)

    @pytest.mark.parametrize("n", [1, 200_000])
    def test_from_series_keeps_read_only_inputs_and_equals_the_statistics_bitwise(self, n):
        rng = np.random.default_rng(n)
        series = rng.normal(100.0, 5.0, (3, n))
        before = series.copy()
        series.setflags(write=False)
        measured, calibrated, basic = series
        report = MetricsReport.from_series(measured, calibrated, basic)
        assert series.tobytes() == before.tobytes()
        got = [report.rmse_db, report.mpe_db, report.rmse_basic_db, report.mpe_basic_db]
        want = [rmse(calibrated, measured), mpe(calibrated, measured)]
        want += [rmse(basic, measured), mpe(basic, measured)]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_from_series_peaks_at_one_residual_buffer(self):
        n = 200_000
        measured, calibrated, basic = np.random.default_rng(43).normal(100.0, 5.0, (3, n))
        _, peak = traced_peak(MetricsReport.from_series, measured, calibrated, basic)
        # one n-long float buffer; no series is scanned while its mean is finite
        assert peak < 1.25 * n * 8

    @pytest.mark.parametrize(
        "measured, calibrated, basic, message",
        [
            ([1.0, 2.0], [1.0], None, f"{MISMATCH} (1,) vs (2,)"),
            ([[1.0, 2.0]], [1.0, 2.0], None, f"{MISMATCH} (2,) vs (1, 2)"),
            ([], [], None, "series must be nonempty"),
            ([1.0, np.inf], [1.0, 2.0], [1.0, 2.0], "series must be finite"),
            ([1.0, 2.0], [1.0, 2.0], [1.0, 2.0, 3.0], f"{MISMATCH} (3,) vs (2,)"),
            ([1.0, 2.0], [1.0, 2.0], [np.nan, 2.0], "series must be finite"),
            ([[1.0], [2.0, 3.0]], [1.0, 2.0], None, f"measured {NOT_NUMBERS}"),
            ([1.0, 2.0], [1.0, "x"], None, f"calibrated {NOT_NUMBERS}"),
            ([1.0, 2.0], [1.0, 2.0], [[1.0], 2.0], f"basic {NOT_NUMBERS}"),
        ],
    )
    def test_from_series_error_texts(self, measured, calibrated, basic, message):
        with pytest.raises(DomainError) as caught:
            MetricsReport.from_series(measured, calibrated, basic)
        text = str(caught.value)
        # numpy's own reason ends the text for a ragged or non-numeric series
        assert text.startswith(message) if message.endswith(NOT_NUMBERS) else text == message


class TestNotFinite:
    """A series is scanned only once a statistic comes out not finite, and
    an inf or NaN anywhere in it still fails with the same text."""

    N = 1001

    def series(self, count):
        return list(np.random.default_rng(47).normal(100.0, 5.0, (count, self.N)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1, 2], ids=["measured", "calibrated", "basic"])
    def test_from_series_rejects_a_value_mid_array(self, where, bad):
        series = self.series(3)
        series[where][self.N // 2] = bad
        with pytest.raises(DomainError, match="^series must be finite$"):
            MetricsReport.from_series(*series)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1, "both"], ids=["predicted", "measured", "both"])
    @pytest.mark.parametrize("statistic", [rmse, mpe])
    def test_statistics_reject_a_value_mid_array(self, statistic, where, bad):
        # both: the same value in both series, where inf - inf is NaN
        series = self.series(2)
        for n in (0, 1) if where == "both" else (where,):
            series[n][self.N // 2] = bad
        with pytest.raises(DomainError, match="^series must be finite$"):
            statistic(*series)

    def test_mpe_rejects_opposite_infinities_in_one_series(self):
        with pytest.raises(DomainError, match="^series must be finite$"):
            mpe([np.inf, 1.0, -np.inf], [1.0, 1.0, 1.0])

    def test_squares_past_the_largest_double_are_rescaled(self):
        # the root mean square of residuals near 1e200 is finite
        assert rmse([3e200, 4e200], [0.0, 0.0]) == pytest.approx(12.5**0.5 * 1e200, rel=1e-15)
        report = MetricsReport.from_series([1.0, 1.0], [3e200, 4e200], [6e200, 8e200])
        assert report.rmse_db == pytest.approx(12.5**0.5 * 1e200, rel=1e-15)
        assert report.rmse_basic_db == pytest.approx(12.5**0.5 * 2e200, rel=1e-15)
        assert report.improvement_pct == pytest.approx(50.0)

    def test_a_sum_past_the_largest_double_is_rescaled(self):
        # each residual is finite, and so is their mean
        assert mpe([1.5e308] * 3, [1.0] * 3) == 1.5e308
        report = MetricsReport.from_series([1.0] * 3, [1.5e308] * 3)
        assert (report.mpe_db, report.rmse_db) == (1.5e308, 1.5e308)

    def test_improvement_past_a_1e306_gap_is_finite(self):
        assert improvement_pct(1e307, 1.0) == pytest.approx(100.0)
        assert improvement_pct(1e308, 5e307) == pytest.approx(50.0)

    def test_a_residual_past_the_largest_double_is_inf_without_a_warning(self):
        assert rmse([1e308, 0.0], [-1e308, 0.0]) == np.inf
        assert mpe([1e308, 0.0], [-1e308, 0.0]) == np.inf

    def test_finite_series_whose_residual_overflows_keep_their_value(self):
        with np.errstate(over="ignore"):
            assert rmse([1e308, 0.0], [-1e308, 0.0]) == np.inf
            assert mpe([1e308, 0.0], [-1e308, 0.0]) == np.inf
            with pytest.raises(DomainError, match="^rmse_db must be non-negative, got inf$"):
                MetricsReport.from_series([-1e308, 0.0], [1e308, 0.0])
