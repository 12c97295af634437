"""Config parsing, measurement IO, report files, and the command line."""

import argparse
import errno
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import WI_KINDS, save_measurements
import walfcal
from walfcal import (
    CurvatureDomainError,
    DomainError,
    MeasurementSet,
    ModelKind,
    ParseError,
    Terrain,
    WalfcalError,
    calibrate,
    predict_basic,
    predict_calibrated,
    rmse,
    wb_max_distance_km,
)
from walfcal.cli import (
    MEASUREMENT_HEADER,
    _read_measurements_by_line,
    _read_measurements_fast,
    CampaignConfig,
    load_coefficients,
    load_config,
    load_measurements,
    main,
    prediction_grid,
    run_calibration,
)

CONFIG_TEXT = """\
# demo campaign, mid-band urban cell
f_mhz = 900
w_m = 20
b_m = 30
phi_deg = 30
dh_rx_m = 12
dh_tx_m = 6

models = {models}
d_min_km = 0.1
d_max_km = {d_max}
d_step_km = 0.1
"""

ALL_LABELS = "CWI-M, CWI-SU, ITWI-M, ITWI-SU, W-BERT"
SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def write_campaign(tmp_path, models=ALL_LABELS, d_max=4.5, seed=42, n=60):
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(CONFIG_TEXT.format(models=models, d_max=d_max))
    rng = np.random.default_rng(seed)
    d = np.round(rng.uniform(0.15, 4.4, n), 3)
    p = np.round(98.0 + 33.0 * np.log10(d) + rng.normal(0.0, 3.0, n), 4)
    meas_path = tmp_path / "meas.csv"
    save_measurements(MeasurementSet(d, p), meas_path)
    return config_path, meas_path


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestLoadMeasurements:
    def test_single_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("distance_km,pathloss_db\n1.0,120.5\n")
        meas = load_measurements(path)
        assert len(meas) == 1
        assert meas.distances_km[0] == 1.0
        assert meas.pathloss_db[0] == 120.5

    def test_header_required(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("d,p\n1.0,120.5\n")
        with pytest.raises(ParseError, match="header"):
            load_measurements(path)

    def test_header_tolerates_padding(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(" distance_km , pathloss_db \n1.0,120.5\n")
        assert len(load_measurements(path)) == 1

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("distance_km,pathloss_db\n1.0,120.5\n2.0,oops\n")
        with pytest.raises(ParseError, match=r":3:"):
            load_measurements(path)

    def test_zero_distance_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("distance_km,pathloss_db\n0.0,100\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_measurements(path)

    def test_negative_pathloss_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("distance_km,pathloss_db\n1.0,-3\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_measurements(path)

    def test_wrong_cell_count(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("distance_km,pathloss_db\n1.0,2.0,3.0\n")
        with pytest.raises(ParseError, match="2 cells"):
            load_measurements(path)

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("distance_km,pathloss_db\n")
        with pytest.raises(ParseError, match="no data"):
            load_measurements(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("distance_km,pathloss_db\n1.0,100\n\n2.0,110\n")
        assert len(load_measurements(path)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_measurements(tmp_path / "absent.csv")

    def test_utf8_bom_header_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbfdistance_km,pathloss_db\n1.0,120.5\n2.0,125.0\n")
        meas = load_measurements(path)
        assert meas.distances_km.tolist() == [1.0, 2.0]
        assert meas.pathloss_db.tolist() == [120.5, 125.0]

    def test_utf8_bom_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbfdistance_km,pathloss_db\n1.0,120.5\n2.0,oops\n")
        with pytest.raises(ParseError, match=r"m\.csv:3:"):
            load_measurements(path)

    def test_undecodable_bytes_are_a_parse_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"distance_km,pathloss_db\n1.0,\xff120.5\n")
        with pytest.raises(ParseError, match="cannot read"):
            load_measurements(path)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        meas = MeasurementSet(rng.uniform(0.01, 20.0, 50), rng.uniform(40.0, 180.0, 50))
        path = tmp_path / "m.csv"
        save_measurements(meas, path)
        back = load_measurements(path)
        assert np.array_equal(back.distances_km, meas.distances_km)
        assert np.array_equal(back.pathloss_db, meas.pathloss_db)


HEADER = b"distance_km,pathloss_db\n"

# measurement files, each with whether numpy alone must read it (True), the
# line parser must (False), or either may (None)
PARSE_CASES = {
    "plain": (HEADER + b"0.5,80\n1.5,95.25\n", True),
    "bom": (b"\xef\xbb\xbf" + HEADER + b"0.5,80\n1.5,95.25\n", True),
    "crlf": (HEADER.replace(b"\n", b"\r\n") + b"0.5,80\r\n1.5,95.25\r\n", True),
    "spaces around cells": (HEADER + b" 0.5 , 80 \n\t1.5,\t95.25 \n", True),
    "blank lines": (HEADER + b"0.5,80\n\n1.5,95.25\n\n", None),
    "whitespace-only lines": (HEADER + b"0.5,80\n  \t \n1.5,95.25\n", None),
    "comment line": (HEADER + b"# drive 2\n0.5,80\n", None),
    "trailing comma": (HEADER + b"0.5,80,\n1.5,95.25,\n", None),
    "three cells": (HEADER + b"0.5,80,3\n1.5,95.25,4\n", None),
    "nan": (HEADER + b"0.5,80\n1.5,nan\n", None),
    "inf": (HEADER + b"inf,80\n1.5,95.25\n", None),
    "negative": (HEADER + b"0.5,80\n1.5,-1\n", None),
    "underscore": (HEADER + b"1_0,80\n1.5,95.25\n", None),
    "fullwidth digit": (HEADER + "\uff11.0,80\n".encode() + b"1.5,95.25\n", None),
    "form feed in a line": (HEADER + b"0.5,\x0c80\n1.5,95.25\n", None),
    "line separator in a line": (HEADER + "0.5,\u2028 80\n".encode() + b"1.5,95.25\n", None),
    # the one-byte marks in an ASCII file, the multi-byte ones in a UTF-8 file
    "vertical tab between rows": (HEADER + b"0.5,80\x0b1.5,95.25\n", False),
    "file separator in a line": (HEADER + b"0.5,\x1c80\n1.5,95.25\n", False),
    "next line in a line": (HEADER + "0.5,\u0085 80\n".encode() + b"1.5,95.25\n", False),
    "paragraph separator in a line": (HEADER + "0.5,\u2029 80\n".encode(), False),
    "header only": (HEADER, None),
}


class TestMeasurementFastPath:
    """numpy reads plain files; on any doubt the line parser decides."""

    @pytest.mark.parametrize("name", PARSE_CASES)
    def test_agrees_with_the_line_parser(self, tmp_path, name):
        data, fast = PARSE_CASES[name]
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        table = _read_measurements_fast(path)
        try:
            distances, losses = _read_measurements_by_line(path)
        except ParseError as exc:
            assert table is None
            with pytest.raises(ParseError) as caught:
                load_measurements(path)
            assert str(caught.value) == str(exc)
            return
        meas = load_measurements(path)
        assert meas.distances_km.tolist() == distances
        assert meas.pathloss_db.tolist() == losses
        if table is not None:
            assert table.tolist() == [list(row) for row in zip(distances, losses)]
        if fast is not None:
            assert (table is not None) == fast

    @pytest.mark.parametrize("name", ["underscore", "fullwidth digit"])
    def test_python_only_spellings_are_rejected(self, tmp_path, name):
        # float() reads 1_0 as 10 and a fullwidth 1 as 1; numpy reads neither
        path = tmp_path / "m.csv"
        path.write_bytes(PARSE_CASES[name][0])
        with pytest.raises(ParseError, match=r"m\.csv:2: non-numeric cell in"):
            load_measurements(path)

    def test_columns_are_contiguous(self, tmp_path):
        # strided columns could take other BLAS kernels in the fit
        path = tmp_path / "m.csv"
        path.write_bytes(PARSE_CASES["plain"][0])
        meas = load_measurements(path)
        assert meas.distances_km.flags.c_contiguous and meas.pathloss_db.flags.c_contiguous


class TestLoadConfig:
    def test_parses_demo_campaign(self, tmp_path):
        config_path, _ = write_campaign(tmp_path)
        config = load_config(config_path)
        assert config.terrain.f_mhz == 900.0
        assert config.terrain.b_m == 30.0
        assert config.models == tuple(ModelKind)
        assert config.d_min_km == 0.1
        assert config.d_max_km == 4.5
        assert config.d_step_km == 0.1
        assert config.rank_tol == 1e-10

    def test_rank_tol_override(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(CONFIG_TEXT.format(models="CWI-M", d_max=2.0) + "rank_tol = 1e-8\n")
        assert load_config(path).rank_tol == 1e-8

    @pytest.mark.parametrize("rank_tol", ["1.5", "1", "0"])
    def test_rank_tol_outside_unit_interval_rejected(self, tmp_path, rank_tol):
        path = tmp_path / "c.cfg"
        path.write_text(CONFIG_TEXT.format(models="CWI-M", d_max=2.0) + f"rank_tol = {rank_tol}\n")
        with pytest.raises(WalfcalError, match=r"rank_tol must lie in \(0, 1\)"):
            load_config(path)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("frequency = 900\n")
        with pytest.raises(ParseError, match=r":1:.*frequency"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(CONFIG_TEXT.format(models="CWI-M", d_max=2.0) + "f_mhz = 1800\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_config(path)

    def test_missing_keys_listed(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("f_mhz = 900\n")
        with pytest.raises(ParseError, match="missing required"):
            load_config(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(CONFIG_TEXT.format(models="CWI-M", d_max=2.0).replace("900", "fast"))
        with pytest.raises(ParseError, match="must be a number"):
            load_config(path)

    @pytest.mark.parametrize("value", ["9_00", "\uff19\uff10\uff10", "900\u0660"])
    def test_python_only_spellings_are_rejected(self, tmp_path, value):
        path = tmp_path / "c.cfg"
        text = CONFIG_TEXT.format(models="CWI-M", d_max=2.0).replace("900", value)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=rf"c\.cfg:2: f_mhz must be a number, got '{value}'"):
            load_config(path)

    def test_unknown_model_label(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(CONFIG_TEXT.format(models="HATA", d_max=2.0))
        with pytest.raises(ParseError, match="HATA"):
            load_config(path)

    def test_repeated_model_names_line_and_label(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(CONFIG_TEXT.format(models="CWI-M, W-BERT, cwi-m", d_max=2.0))
        with pytest.raises(ParseError, match=r"c\.cfg:9: model 'cwi-m' repeats CWI-M"):
            load_config(path)

    def test_repeated_model_stops_calibrate_before_any_file(self, tmp_path, capsys):
        config_path, meas_path = write_campaign(tmp_path, models="CWI-M, cwi-m")
        out_dir = tmp_path / "out"
        argv = ["calibrate", "--config", str(config_path), "--measurements", str(meas_path)]
        assert main([*argv, "--output-dir", str(out_dir)]) == 1
        assert "repeats CWI-M" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("f_mhz 900\n")
        with pytest.raises(ParseError, match="key = value"):
            load_config(path)

    def test_empty_models_list(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(CONFIG_TEXT.format(models=" ", d_max=2.0))
        with pytest.raises(ParseError, match="models"):
            load_config(path)

    def test_undecodable_bytes_are_a_parse_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"f_mhz = 9\xff00\n")
        with pytest.raises(ParseError, match="cannot read config"):
            load_config(path)

    def test_utf8_bom_accepted(self, tmp_path):
        # the sample campaign as a spreadsheet or editor saves it with a BOM
        path = tmp_path / "campaign.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + (SAMPLE / "campaign.cfg").read_bytes())
        assert load_config(path) == load_config(SAMPLE / "campaign.cfg")


class TestPredictionGrid:
    def test_inclusive_endpoints(self):
        grid = prediction_grid(0.1, 4.5, 0.1)
        assert grid.size == 45
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(4.5)

    def test_step_not_dividing_span(self):
        grid = prediction_grid(1.0, 2.0, 0.3)
        assert grid == pytest.approx([1.0, 1.3, 1.6, 1.9])

    def test_single_point(self):
        assert prediction_grid(2.0, 2.0, 0.5) == pytest.approx([2.0])

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            prediction_grid(2.0, 1.0, 0.1)

    @pytest.mark.parametrize("step", [1e-9, 5e-324])
    def test_tiny_step_rejected_before_allocation(self, monkeypatch, step):
        def no_arange(*args, **kwargs):
            raise AssertionError("grid was allocated")

        monkeypatch.setattr(np, "arange", no_arange)
        with pytest.raises(DomainError, match="d_step_km"):
            prediction_grid(0.1, 4.5, step)

    def test_point_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr("walfcal.cli._GRID_POINTS_MAX", 45)
        assert prediction_grid(0.1, 4.5, 0.1).size == 45
        with pytest.raises(DomainError, match="d_step_km"):
            prediction_grid(0.1, 4.6, 0.1)

    def test_step_too_fine_to_move_d_min_is_rejected(self):
        # 1 + k·1e-16 rounds to 1 or to its neighbours: 5 points, 3 distinct
        with pytest.raises(DomainError, match="d_step_km = 1e-16"):
            prediction_grid(1.0, 1.0000000000000004, 1e-16)
        assert prediction_grid(1.0, 1.0000000000000004, 2.220446049250313e-16).size == 3


class TestCampaignConfigValidation:
    def base(self, **overrides):
        params = dict(
            terrain=Terrain(900.0, 20.0, 30.0, 30.0, 12.0, 6.0),
            models=(ModelKind.CWI_M,),
            d_min_km=0.1,
            d_max_km=4.5,
            d_step_km=0.1,
        )
        params.update(overrides)
        return CampaignConfig(**params)

    def test_accepts_valid(self):
        assert self.base().rank_tol == 1e-10

    def test_rejects_empty_models(self):
        with pytest.raises(DomainError):
            self.base(models=())

    def test_rejects_repeated_models(self):
        with pytest.raises(DomainError, match="repeat"):
            self.base(models=(ModelKind.W_BERT, ModelKind.CWI_M, ModelKind.W_BERT))

    def test_rejects_inverted_grid(self):
        with pytest.raises(DomainError):
            self.base(d_min_km=5.0)

    def test_rejects_bad_rank_tol(self):
        with pytest.raises(DomainError):
            self.base(rank_tol=0.0)


def run_campaign(tmp_path, out_name="out", **kwargs):
    config_path, meas_path = write_campaign(tmp_path, **kwargs)
    return run_calibration(load_config(config_path), meas_path, tmp_path / out_name)


class TestRunCalibration:
    def test_writes_all_report_files(self, tmp_path):
        result = run_campaign(tmp_path)
        assert result.ok
        assert len(result.runs) == 5
        out = result.output_dir
        assert (out / "summary.csv").exists()
        for kind in ModelKind:
            assert (out / f"profile_{kind.value}.csv").exists()
            assert (out / f"disagg_{kind.value}.csv").exists()
            assert (out / f"coefficients_{kind.value}.csv").exists()

    def test_summary_layout(self, tmp_path):
        result = run_campaign(tmp_path)
        header, rows = read_rows(result.output_dir / "summary.csv")
        assert header == [
            "model",
            "rmse_basic_db",
            "mpe_basic_db",
            "rmse_calibrated_db",
            "mpe_calibrated_db",
            "improvement_pct",
        ]
        assert [row[0] for row in rows] == [kind.value for kind in ModelKind]

    def test_wi_rows_share_calibrated_rmse(self, tmp_path):
        result = run_campaign(tmp_path)
        _, rows = read_rows(result.output_dir / "summary.csv")
        wi_cells = {row[3] for row in rows if row[0] != "W-BERT"}
        assert len(wi_cells) == 1

    def test_calibrated_mpe_cells_are_zero(self, tmp_path):
        result = run_campaign(tmp_path)
        _, rows = read_rows(result.output_dir / "summary.csv")
        assert {row[4] for row in rows} == {"0.0000"}

    def test_summary_matches_in_memory_metrics(self, tmp_path):
        result = run_campaign(tmp_path)
        meas = result.measurements
        for run in result.runs:
            recomputed = rmse(run.calibration.fitted_db, meas.pathloss_db)
            assert abs(run.metrics.rmse_db - recomputed) <= 1e-9
            basic = predict_basic(run.kind, result.config.terrain, meas.distances_km)
            assert abs(run.metrics.rmse_basic_db - rmse(basic, meas.pathloss_db)) <= 1e-9

    def test_summary_matches_profile_file_within_rounding(self, tmp_path):
        result = run_campaign(tmp_path)
        _, summary_rows = read_rows(result.output_dir / "summary.csv")
        for row in summary_rows:
            _, rows = read_rows(result.output_dir / f"profile_{row[0]}.csv")
            measured = np.array([float(r[1]) for r in rows if r[1] != ""])
            fitted = np.array([float(r[3]) for r in rows if r[1] != ""])
            assert abs(float(row[3]) - rmse(fitted, measured)) <= 2e-4

    def test_profile_grid_rows_have_blank_measured(self, tmp_path):
        result = run_campaign(tmp_path, n=5)
        _, rows = read_rows(result.output_dir / "profile_CWI-M.csv")
        blanks = [r for r in rows if r[1] == ""]
        filled = [r for r in rows if r[1] != ""]
        assert len(filled) == 5
        assert len(blanks) >= 40
        distances = [float(r[0]) for r in rows]
        assert distances == sorted(distances)

    def test_disagg_groups_sum_to_total(self, tmp_path):
        result = run_campaign(tmp_path, n=10)
        header, rows = read_rows(result.output_dir / "disagg_W-BERT.csv")
        assert header[0] == "distance_km"
        basic_cols = [i for i, name in enumerate(header) if name.startswith("basic_")]
        total_idx = header.index("calibrated_total_db")
        group_idx = [
            i
            for i, name in enumerate(header)
            if name.startswith("calibrated_") and name != "calibrated_total_db"
        ]
        assert len(basic_cols) == 5  # four groups plus the total
        for row in rows:
            parts = sum(float(row[i]) for i in group_idx)
            assert parts == pytest.approx(float(row[total_idx]), abs=2e-3)

    def test_in_span_measurements_zero_out_rmse(self, tmp_path):
        config_path, _ = write_campaign(tmp_path)
        config = load_config(config_path)
        d = np.linspace(0.2, 4.0, 30)
        meas = MeasurementSet(d, predict_basic(ModelKind.CWI_M, config.terrain, d))
        meas_path = tmp_path / "span.csv"
        save_measurements(meas, meas_path)
        result = run_calibration(config, meas_path, tmp_path / "out")
        _, rows = read_rows(result.output_dir / "summary.csv")
        assert {row[3] for row in rows} == {"0.0000"}

    def test_byte_identical_reruns(self, tmp_path):
        first = run_campaign(tmp_path, out_name="out1")
        second = run_campaign(tmp_path, out_name="out2")
        names = sorted(p.name for p in first.output_dir.iterdir())
        assert names == sorted(p.name for p in second.output_dir.iterdir())
        for name in names:
            a = (first.output_dir / name).read_bytes()
            b = (second.output_dir / name).read_bytes()
            assert a == b, f"{name} differs between reruns"

    def test_wb_grid_truncated_with_warning(self, tmp_path):
        # curvature limit sqrt(17 * 6) is inside the 12 km grid
        result = run_campaign(tmp_path, d_max=12.0)
        wb_run = next(run for run in result.runs if run.kind is ModelKind.W_BERT)
        assert result.ok
        assert any("truncated" in w for w in wb_run.warnings)
        limit = wb_max_distance_km(6.0)
        _, rows = read_rows(result.output_dir / "profile_W-BERT.csv")
        assert max(float(r[0]) for r in rows) < limit
        _, rows = read_rows(result.output_dir / "profile_CWI-M.csv")
        assert max(float(r[0]) for r in rows) == pytest.approx(12.0, abs=1e-6)

    def test_model_failures_are_isolated(self, tmp_path):
        config_path, _ = write_campaign(tmp_path)
        config = load_config(config_path)
        # 11 km is beyond sqrt(17 * 6) = 10.1 km, so W-BERT cannot calibrate
        meas = MeasurementSet([0.5, 1.0, 2.0, 11.0], [95.0, 105.0, 115.0, 140.0])
        meas_path = tmp_path / "bad.csv"
        save_measurements(meas, meas_path)
        result = run_calibration(config, meas_path, tmp_path / "out")
        assert not result.ok
        by_kind = {run.kind: run for run in result.runs}
        assert by_kind[ModelKind.W_BERT].error is not None
        assert "11" in by_kind[ModelKind.W_BERT].error
        for kind in WI_KINDS:
            assert by_kind[kind].ok
        _, rows = read_rows(result.output_dir / "summary.csv")
        assert [row[0] for row in rows] == [kind.value for kind in WI_KINDS]
        assert not (result.output_dir / "profile_W-BERT.csv").exists()


class TestCoefficientsFile:
    def test_round_trip(self, tmp_path):
        result = run_campaign(tmp_path)
        for run in result.runs:
            kind, alpha = load_coefficients(
                result.output_dir / f"coefficients_{run.kind.value}.csv"
            )
            assert kind is run.kind
            assert np.array_equal(alpha, run.calibration.alpha)

    def test_rejects_gap_in_indices(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("index,label,group,coefficient\n0,a,G,1.0\n2,b,G,2.0\n")
        with pytest.raises(ParseError, match="indices must cover"):
            load_coefficients(path)

    def test_rejects_duplicate_index(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("index,label,group,coefficient\n0,a,G,1.0\n0,b,G,2.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_coefficients(path)

    def test_undecodable_bytes_are_a_parse_error(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"index,label,group,coefficient\n0,a,G,1.\xff0\n")
        with pytest.raises(ParseError, match="cannot read coefficients"):
            load_coefficients(path)

    @pytest.mark.parametrize("first", [0, 1], ids=["with the # line", "without it"])
    def test_utf8_bom_accepted(self, tmp_path, first):
        result = run_campaign(tmp_path, models="CWI-M")
        saved = (result.output_dir / "coefficients_CWI-M.csv").read_text().splitlines()
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + "\n".join(saved[first:]).encode("ascii") + b"\n")
        kind, alpha = load_coefficients(path)
        assert kind is (ModelKind.CWI_M if first == 0 else None)
        assert np.array_equal(alpha, result.runs[0].calibration.alpha)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_coefficient(self, tmp_path, cell):
        path = tmp_path / "c.csv"
        path.write_text(f"index,label,group,coefficient\n0,a,G,1.0\n1,b,G,{cell}\n")
        with pytest.raises(ParseError, match=r"c\.csv:3: coefficient must be finite"):
            load_coefficients(path)

    @pytest.mark.parametrize("row", ["1_0,b,G,2.0", "1,b,G,2_0.5", "\uff11,b,G,2.0"])
    def test_python_only_spellings_are_rejected(self, tmp_path, row):
        path = tmp_path / "c.csv"
        lines = ["index,label,group,coefficient", "0,a,G,1.0", row]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"c\.csv:3: malformed coefficient row"):
            load_coefficients(path)

    def test_unknown_model_in_header_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("# model=XYZ rank=2 n_functions=2\n0,a,G,1.0\n1,b,G,2.0\n")
        with pytest.raises(ParseError, match=r"c\.csv:1: unknown model kind 'XYZ'"):
            load_coefficients(path)
        config_path, _ = write_campaign(tmp_path, models="CWI-M")
        argv = ["predict", "--config", str(config_path), "--model", "CWI-M"]
        assert main([*argv, "--coefficients", str(path)]) == 1
        assert f"error: {path}:1: unknown model kind 'XYZ'" in capsys.readouterr().err

    def test_predict_checks_labels_against_the_model(self, tmp_path, capsys):
        result = run_campaign(tmp_path, models="CWI-M")
        saved = (result.output_dir / "coefficients_CWI-M.csv").read_text().splitlines()
        headerless = tmp_path / "headerless.csv"
        headerless.write_text("\n".join(saved[1:]) + "\n")
        argv = ["predict", "--config", str(tmp_path / "campaign.cfg")]
        argv += ["--coefficients", str(headerless)]
        assert main([*argv, "--model", "CWI-M"]) == 0
        capsys.readouterr()
        assert main([*argv, "--model", "ITWI-M"]) == 1
        err = capsys.readouterr().err
        assert "headerless.csv:5: term 3 reads '-16.9,RTS'" in err
        assert "ITWI-M term 3 is -8.2,RTS" in err


class TestMainCommand:
    def test_calibrate_success(self, tmp_path, capsys):
        config_path, meas_path = write_campaign(tmp_path)
        out_dir = tmp_path / "out"
        code = main(
            [
                "calibrate",
                "--config",
                str(config_path),
                "--measurements",
                str(meas_path),
                "--output-dir",
                str(out_dir),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert (out_dir / "summary.csv").exists()
        assert "W-BERT" in captured.out
        assert "improvement=" in captured.out

    def test_calibrate_reports_partial_failure(self, tmp_path, capsys):
        config_path, _ = write_campaign(tmp_path)
        meas_path = tmp_path / "bad.csv"
        save_measurements(
            MeasurementSet([0.5, 1.0, 11.0], [95.0, 105.0, 140.0]), meas_path
        )
        code = main(
            [
                "calibrate",
                "--config",
                str(config_path),
                "--measurements",
                str(meas_path),
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "W-BERT" in captured.err

    def test_calibrate_where_every_model_fails(self, tmp_path, capsys):
        config_path, _ = write_campaign(tmp_path, models="W-BERT")
        meas_path = tmp_path / "bad.csv"
        save_measurements(MeasurementSet([0.5, 1.0, 11.0], [95.0, 105.0, 140.0]), meas_path)
        out_dir = tmp_path / "out"
        argv = ["calibrate", "--config", str(config_path), "--measurements", str(meas_path)]
        assert main([*argv, "--output-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error: ")] == [
            "error: W-BERT: distance(s) 11 km at or beyond the curvature limit 10.0995 km "
            "(requires d^2 < 17 * dh_tx)"
        ]
        assert sorted(path.name for path in out_dir.iterdir()) == ["summary.csv"]
        assert (out_dir / "summary.csv").read_text() == (
            "model,rmse_basic_db,mpe_basic_db,rmse_calibrated_db,mpe_calibrated_db,improvement_pct\n"
        )

    @pytest.mark.parametrize(
        "field, value, failing",
        [
            ("dh_rx_m", 5e-324, ["W-BERT"]),
            ("f_mhz", 1e308, ["CWI-M", "CWI-SU"]),
            ("b_m", 1e308, ["W-BERT"]),
        ],
    )
    def test_terrain_outside_a_term_domain(self, tmp_path, capsys, field, value, failing):
        # one error line per model whose terms the value puts out of their
        # domain, naming the field; the other models fit, and nominal predict
        # of a failing model exits 1 the same way
        config_path, meas_path = write_campaign(tmp_path)
        text = config_path.read_text().splitlines()
        config_path.write_text(
            "\n".join(f"{field} = {value!r}" if row.startswith(field) else row for row in text)
        )
        out_dir = tmp_path / "out"
        argv = ["calibrate", "--config", str(config_path), "--measurements", str(meas_path)]
        assert main([*argv, "--output-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [row.split(":")[1].strip() for row in err] == failing
        assert all(f"{field} = {value!r}" in row for row in err), err
        fitted = {path.name for path in out_dir.glob("profile_*.csv")}
        assert fitted == {f"profile_{m.value}.csv" for m in ModelKind if m.value not in failing}
        for model in failing:
            assert main(["predict", "--config", str(config_path), "--model", model]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"{field} = {value!r}" in err
            assert err.count("\n") == 1

    def test_predict_basic_to_file(self, tmp_path):
        config_path, _ = write_campaign(tmp_path, models="CWI-M", n=10)
        out = tmp_path / "pred.csv"
        code = main(
            ["predict", "--config", str(config_path), "--model", "CWI-M", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["distance_km", "pathloss_db"]
        assert len(rows) == 45
        config = load_config(config_path)
        for row in rows[:5]:
            expected = predict_basic(ModelKind.CWI_M, config.terrain, float(row[0]))
            assert float(row[1]) == pytest.approx(expected, abs=1e-4)

    def test_predict_basic_to_stdout(self, tmp_path, capsys):
        config_path, _ = write_campaign(tmp_path, models="CWI-M", n=10)
        code = main(["predict", "--config", str(config_path), "--model", "CWI-M"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("distance_km,pathloss_db\n")

    def test_predict_with_saved_coefficients(self, tmp_path):
        result = run_campaign(tmp_path)
        config_path = tmp_path / "campaign.cfg"
        out = tmp_path / "pred.csv"
        code = main(
            [
                "predict",
                "--config",
                str(config_path),
                "--model",
                "W-BERT",
                "--coefficients",
                str(result.output_dir / "coefficients_W-BERT.csv"),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        _, rows = read_rows(out)
        wb_run = next(run for run in result.runs if run.kind is ModelKind.W_BERT)
        for row in rows[::7]:
            expected = predict_calibrated(wb_run.calibration, float(row[0]))
            assert float(row[1]) == pytest.approx(expected, abs=1e-4)

    def test_predict_prints_the_report_predictions(self, tmp_path):
        # on the sample campaign, each model's nominal and replayed predict
        # rows are its profile's basic and calibrated cells, and its disagg
        # totals, at the same distances
        out_dir = tmp_path / "out"
        argv = ["--config", str(SAMPLE / "campaign.cfg")]
        inputs = [*argv, "--measurements", str(SAMPLE / "measurements.csv")]
        assert main(["calibrate", *inputs, "--output-dir", str(out_dir)]) == 0
        for kind in ModelKind:
            model = kind.value
            _, profile = read_rows(out_dir / f"profile_{model}.csv")
            _, disagg = read_rows(out_dir / f"disagg_{model}.csv")
            cells = {row[0]: row[2:] for row in profile}
            totals = {row[0]: [row[len(row) // 2], row[-1]] for row in disagg}
            predicted = []
            for side in ([], ["--coefficients", str(out_dir / f"coefficients_{model}.csv")]):
                out = tmp_path / f"predict_{model}_{len(side)}.csv"
                assert main(["predict", *argv, "--model", model, *side, "--output", str(out)]) == 0
                predicted.append(read_rows(out)[1])
            nominal, replayed = predicted
            assert [row[0] for row in nominal] == [row[0] for row in replayed]
            assert len(nominal) == 45
            for (d, basic), (_, calibrated) in zip(nominal, replayed):
                assert cells[d] == totals[d] == [basic, calibrated]

    def test_predict_rejects_mismatched_coefficients(self, tmp_path, capsys):
        result = run_campaign(tmp_path)
        config_path = tmp_path / "campaign.cfg"
        code = main(
            [
                "predict",
                "--config",
                str(config_path),
                "--model",
                "CWI-M",
                "--coefficients",
                str(result.output_dir / "coefficients_W-BERT.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "W-BERT" in captured.err

    def test_predict_wb_truncates_grid(self, tmp_path, capsys):
        config_path, _ = write_campaign(tmp_path, models="W-BERT", d_max=12.0)
        code = main(["predict", "--config", str(config_path), "--model", "W-BERT"])
        captured = capsys.readouterr()
        assert code == 0
        assert "truncated" in captured.err
        last_row = captured.out.strip().splitlines()[-1]
        assert float(last_row.split(",")[0]) < wb_max_distance_km(6.0)

    def test_rank_over_measurements(self, tmp_path, capsys):
        config_path, meas_path = write_campaign(tmp_path)
        code = main(
            ["rank", "--config", str(config_path), "--measurements", str(meas_path)]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 5
        for line in lines[:4]:
            assert "rank=2" in line
        assert "W-BERT: rank=3" in lines[4]

    def test_rank_over_measurements_past_the_wb_limit_fails_like_calibrate(
        self, tmp_path, capsys
    ):
        config_path, meas_path = write_campaign(tmp_path)
        meas = load_measurements(meas_path)
        beyond = wb_max_distance_km(6.0) + 0.4
        save_measurements(
            MeasurementSet(np.append(meas.distances_km, beyond), np.append(meas.pathloss_db, 130.0)),
            meas_path,
        )
        argv = ["--config", str(config_path), "--measurements", str(meas_path)]
        assert main(["rank", *argv]) == 1
        ranked = capsys.readouterr()
        assert main(["calibrate", *argv, "--output-dir", str(tmp_path / "out")]) == 1
        calibrated = capsys.readouterr()
        wb_errors = [line for line in calibrated.err.splitlines() if line.startswith("error: W-BERT: ")]
        assert len(wb_errors) == 1 and "curvature limit" in wb_errors[0]
        assert ranked.err.splitlines() == wb_errors
        lines = ranked.out.splitlines()
        assert len(lines) == 4 and all("rank=2 (rows=61," in line for line in lines)

    def test_rank_over_a_grid_past_the_wb_limit_truncates_it(self, tmp_path, capsys):
        config_path, _ = write_campaign(tmp_path, d_max=12.0)
        assert main(["rank", "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: W-BERT: grid truncated at the curvature limit 10.0995 km "
            "(20 of 120 points dropped)\n"
        )
        assert "W-BERT: rank=3 (rows=100," in captured.out

    @pytest.mark.parametrize("rank_tol", [None, 0.9])
    def test_config_rank_tol_reaches_the_fit(self, tmp_path, capsys, rank_tol):
        config_path, meas_path = write_campaign(tmp_path)
        if rank_tol is not None:
            with config_path.open("a") as cfg:
                cfg.write(f"rank_tol = {rank_tol}\n")
        out_dir = tmp_path / "out"
        argv = ["--config", str(config_path), "--measurements", str(meas_path)]
        assert main(["calibrate", *argv, "--output-dir", str(out_dir)]) == 0
        assert main(["rank", *argv]) == 0
        printed = capsys.readouterr().out
        ranks = {}
        for kind in ModelKind:
            header = (out_dir / f"coefficients_{kind.value}.csv").read_text().splitlines()[0]
            ranks[kind] = next(t for t in header.split() if t.startswith("rank="))
            assert f"{kind.value}: {ranks[kind]} " in printed
        expected = {"rank=1"} if rank_tol == 0.9 else {"rank=2", "rank=3"}
        assert set(ranks.values()) == expected

    def test_rank_over_grid_with_tol(self, tmp_path, capsys):
        config_path, _ = write_campaign(tmp_path, models="CWI-M")
        code = main(["rank", "--config", str(config_path), "--tol", "1e-6"])
        captured = capsys.readouterr()
        assert code == 0
        assert "rank=2" in captured.out
        assert "tol=1e-06" in captured.out

    @pytest.mark.parametrize("tol", ["0", "1"])
    def test_rank_rejects_tol_outside_unit_interval(self, tmp_path, capsys, tol):
        config_path, _ = write_campaign(tmp_path)
        code = main(["rank", "--config", str(config_path), "--tol", tol])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --tol must lie in (0, 1), got {float(tol)!r}\n"

    @pytest.mark.parametrize("tol", ["1_0e-11", "\uff11e-10", "abc"])
    def test_python_only_spellings_are_rejected(self, tmp_path, capsys, tol):
        # --tol reads numbers as a config does, where each of these is a ParseError
        config_path, _ = write_campaign(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(["rank", "--config", str(config_path), "--tol", tol])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --tol: invalid float value: {tol!r}\n")
        with config_path.open("a", encoding="utf-8") as cfg:
            cfg.write(f"rank_tol = {tol}\n")
        with pytest.raises(ParseError, match="rank_tol must be a number"):
            load_config(config_path)

    def test_calibrate_rejects_rank_tol_outside_unit_interval(self, tmp_path, capsys):
        config_path, meas_path = write_campaign(tmp_path)
        with config_path.open("a") as cfg:
            cfg.write("rank_tol = 1.5\n")
        out_dir = tmp_path / "out"
        argv = ["calibrate", "--config", str(config_path), "--measurements", str(meas_path)]
        assert main([*argv, "--output-dir", str(out_dir)]) == 1
        assert "error: rank_tol must lie in (0, 1), got 1.5" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["calibrate", "predict", "rank"])
    def test_grid_with_repeated_points_fails(self, tmp_path, capsys, command):
        config_path, meas_path = write_campaign(tmp_path, d_max="1.0000000000000004")
        text = config_path.read_text().replace("d_min_km = 0.1", "d_min_km = 1")
        config_path.write_text(text.replace("d_step_km = 0.1", "d_step_km = 1e-16"))
        out_dir = tmp_path / "out"
        argv = {
            "calibrate": ["--measurements", str(meas_path), "--output-dir", str(out_dir)],
            "predict": ["--model", "CWI-M"],
            "rank": [],
        }[command]
        assert main([command, "--config", str(config_path), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: d_step_km = 1e-16 ")
        assert captured.err.count("\n") == 1
        assert not out_dir.exists()

    def test_error_surfaces_as_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "calibrate",
                "--config",
                str(tmp_path / "absent.cfg"),
                "--measurements",
                str(tmp_path / "absent.csv"),
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    @pytest.mark.parametrize("campaign", ["sample", "one distance"])
    def test_rank_matches_the_coefficient_header(self, tmp_path, capsys, campaign):
        if campaign == "sample":
            config_path, meas_path = SAMPLE / "campaign.cfg", SAMPLE / "measurements.csv"
        else:
            config_path, _ = write_campaign(tmp_path)
            meas_path = tmp_path / "one.csv"
            one = MeasurementSet([1.2] * 5, [101.0, 99.5, 100.25, 98.0, 102.0])
            save_measurements(one, meas_path)
        n = len(load_measurements(meas_path))
        out_dir = tmp_path / "out"
        argv = ["--config", str(config_path), "--measurements", str(meas_path)]
        assert main(["calibrate", *argv, "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["rank", *argv]) == 0
        printed = capsys.readouterr().out.splitlines()
        expected = []
        for kind in ModelKind:
            header = (out_dir / f"coefficients_{kind.value}.csv").read_text().splitlines()[0]
            tokens = dict(t.split("=") for t in header.lstrip("# ").split())
            expected.append(
                f"{kind.value}: rank={tokens['rank']} "
                f"(rows={n}, functions={tokens['n_functions']}, tol=1e-10)"
            )
            if campaign == "one distance":
                assert tokens["rank"] == "1"
        assert printed == expected

    def test_repeated_calls_leave_no_parser_garbage(self, capsys):
        argv = ["rank", "--config", str(SAMPLE / "campaign.cfg"), "--tol", "1e-6"]
        assert main(argv) == 0  # the parser may be built here, once

        def parsers():
            return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = parsers()
            for _ in range(20):
                assert main(argv) == 0
            after = parsers()
        finally:
            gc.enable()
        assert after == before


class TestUnwritableOutput:
    """An output path that cannot be written ends the run with one error
    line naming it, and exit status 1."""

    def calibrate(self, out_dir) -> int:
        return main(
            [
                "calibrate",
                "--config",
                str(SAMPLE / "campaign.cfg"),
                "--measurements",
                str(SAMPLE / "measurements.csv"),
                "--output-dir",
                str(out_dir),
            ]
        )

    @staticmethod
    def assert_one_error_line(capsys, path):
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_calibrate_into_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "reports"
        target.write_text("")
        assert self.calibrate(target) == 1
        self.assert_one_error_line(capsys, target)

    def test_calibrate_under_a_file(self, tmp_path, capsys):
        (tmp_path / "reports").write_text("")
        target = tmp_path / "reports" / "run"
        assert self.calibrate(target) == 1
        self.assert_one_error_line(capsys, target)

    def test_calibrate_onto_a_report_file_that_is_a_directory(self, tmp_path, capsys):
        target = tmp_path / "reports"
        (target / "profile_ITWI-M.csv").mkdir(parents=True)
        assert self.calibrate(target) == 1
        self.assert_one_error_line(capsys, target / "profile_ITWI-M.csv")

    def test_predict_into_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "pred.csv"
        argv = ["predict", "--config", str(SAMPLE / "campaign.cfg"), "--model", "CWI-M"]
        assert main([*argv, "--output", str(target)]) == 1
        self.assert_one_error_line(capsys, target)


class TestClosedPipe:
    """predict into a stdout whose reader has gone exits 1 without a
    traceback, its stdout pointed at devnull."""

    def test_stdout_whose_write_raises(self, tmp_path, monkeypatch, capsys):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return fd

        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main(["predict", "--config", str(SAMPLE / "campaign.cfg"), "--model", "CWI-M"])
            after = os.fstat(fd)
        finally:
            os.close(fd)
        assert code == 1
        assert capsys.readouterr().err == ""
        devnull = os.stat(os.devnull)
        assert (after.st_dev, after.st_ino) == (devnull.st_dev, devnull.st_ino)

    def test_reader_that_stops_after_two_lines(self, tmp_path):
        # 44 001 grid rows, far more than a pipe buffers, so predict is still
        # writing when the reader closes its end
        config = tmp_path / "fine.cfg"
        text = (SAMPLE / "campaign.cfg").read_text()
        config.write_text(text.replace("d_step_km = 0.1\n", "d_step_km = 0.0001\n"))
        env = {**os.environ, "PYTHONPATH": str(Path(walfcal.__file__).parents[1])}
        argv = ["predict", "--config", str(config), "--model", "CWI-M"]
        with subprocess.Popen(
            [sys.executable, "-m", "walfcal.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as run:
            head = [run.stdout.readline() for _ in range(2)]
            run.stdout.close()
            err = run.stderr.read()
            code = run.wait(timeout=60)
        assert head == [b"distance_km,pathloss_db\n", b"0.1000,88.8780\n"]
        assert (code, err) == (1, b"")


class TestWbLimitBoundary:
    """d = 2 km with dh_tx = 4/17 m, where 17 * dh_tx == d * d holds exactly:
    the point sits on the curvature limit, outside the W-BERT domain."""

    DH_TX = 4.0 / 17.0

    def write_config(self, tmp_path, models=ALL_LABELS):
        text = CONFIG_TEXT.format(models=models, d_max=2.0)
        text = text.replace("dh_tx_m = 6", f"dh_tx_m = {self.DH_TX!r}")
        text = text.replace("d_min_km = 0.1", "d_min_km = 1.0")
        text = text.replace("d_step_km = 0.1", "d_step_km = 0.5")
        config_path = tmp_path / "edge.cfg"
        config_path.write_text(text)
        return config_path

    def test_limit_is_exact(self, tmp_path):
        config = load_config(self.write_config(tmp_path))
        assert 17.0 * config.terrain.dh_tx_m == 2.0 * 2.0
        assert prediction_grid(config.d_min_km, config.d_max_km, config.d_step_km)[-1] == 2.0

    def test_predict_drops_the_point_with_a_warning(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        assert main(["predict", "--config", str(config_path), "--model", "W-BERT"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: W-BERT: grid truncated at the curvature limit 2.0000 km "
            "(1 of 3 points dropped)\n"
        )
        assert [row.split(",")[0] for row in captured.out.splitlines()[1:]] == ["1.0000", "1.5000"]

    def test_rank_drops_the_point_with_a_warning(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path, models="CWI-M, W-BERT")
        assert main(["rank", "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        assert "W-BERT: grid truncated at the curvature limit 2.0000 km" in captured.err
        assert "CWI-M: rank=2 (rows=3," in captured.out
        assert "W-BERT: rank=2 (rows=2," in captured.out

    def test_calibration_axes_end_before_the_point(self, tmp_path):
        config = load_config(self.write_config(tmp_path))
        d = np.array([0.4, 0.9, 1.3, 1.75, 1.9])
        meas_path = tmp_path / "m.csv"
        save_measurements(MeasurementSet(d, 100.0 + 30.0 * np.log10(d)), meas_path)
        result = run_calibration(config, meas_path, tmp_path / "out")
        assert result.ok
        wb_run = next(run for run in result.runs if run.kind is ModelKind.W_BERT)
        assert wb_run.warnings == (
            "W-BERT: grid truncated at the curvature limit 2.0000 km (1 of 3 points dropped)",
        )
        for name in ("profile", "disagg"):
            _, rows = read_rows(result.output_dir / f"{name}_W-BERT.csv")
            assert rows[-1][0] == "1.9000"
            _, rows = read_rows(result.output_dir / f"{name}_CWI-M.csv")
            assert rows[-1][0] == "2.0000"

    def test_sample_on_the_limit_fails_only_wb(self, tmp_path):
        config = load_config(self.write_config(tmp_path))
        meas = MeasurementSet([0.5, 1.0, 2.0], [95.0, 105.0, 112.0])
        with pytest.raises(CurvatureDomainError, match="requires d\\^2 < 17"):
            calibrate(ModelKind.W_BERT, config.terrain, meas)
        meas_path = tmp_path / "m.csv"
        save_measurements(meas, meas_path)
        result = run_calibration(config, meas_path, tmp_path / "out")
        by_kind = {run.kind: run for run in result.runs}
        assert "at or beyond the curvature limit 2.0000 km" in by_kind[ModelKind.W_BERT].error
        names = {p.name for p in result.output_dir.iterdir()}
        for kind in WI_KINDS:
            assert by_kind[kind].ok
            for stem in ("profile", "disagg", "coefficients"):
                assert f"{stem}_{kind.value}.csv" in names
        assert not any("W-BERT" in name for name in names)
