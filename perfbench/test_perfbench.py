"""Tests of the benchmark's own checks and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import walfcal.calib  # noqa: E402
import walfcal.cli  # noqa: E402

import inputs  # noqa: E402
import verify  # noqa: E402
from tracing import Tracer, layer_stats  # noqa: E402


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    data = tmp_path_factory.mktemp("inputs")
    inputs.generate("campaign_batch", 7, data)
    return data, inputs.load(data)


def _calibrate(data: Path, camp, out: Path):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = walfcal.cli.main(["calibrate", "--config", str(data / f"{camp.name}.cfg"),
                                   "--measurements", str(data / f"{camp.name}.csv"),
                                   "--output-dir", str(out)])
    return status, stdout.getvalue(), stderr.getvalue()


def _first(campaigns, injected: bool):
    return next(c for c in campaigns if c.injected == injected)


def test_generation_is_seeded(tmp_path, batch):
    data, campaigns = batch
    inputs.generate("campaign_batch", 7, tmp_path)
    again = inputs.load(tmp_path)
    assert [c.name for c in again] == [c.name for c in campaigns]
    assert all(np.array_equal(a.d, b.d) and np.array_equal(a.p, b.p)
               for a, b in zip(again, campaigns))
    assert (tmp_path / "c000.csv").read_bytes() == (data / "c000.csv").read_bytes()
    assert sum(c.injected for c in campaigns) == inputs.BATCH_INJECTED


@pytest.mark.parametrize("injected", [False, True])
def test_correct_outputs_pass(tmp_path, batch, injected):
    data, campaigns = batch
    camp = _first(campaigns, injected)
    status, stdout, stderr = _calibrate(data, camp, tmp_path)
    assert verify.check_calibration(tmp_path, camp, status, stdout, stderr) == []
    assert status == (1 if injected else 0)


def test_corrupted_report_cell_is_flagged(tmp_path, batch):
    data, campaigns = batch
    camp = _first(campaigns, False)
    status, stdout, stderr = _calibrate(data, camp, tmp_path)
    profile = tmp_path / "profile_CWI-M.csv"
    lines = profile.read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = f"{float(cells[3]) + 0.001:.4f}"
    lines[5] = ",".join(cells)
    profile.write_text("\n".join(lines) + "\n")
    problems = verify.check_calibration(tmp_path, camp, status, stdout, stderr)
    assert problems and all("profile_CWI-M.csv: calibrated_db off by" in p for p in problems)


def test_missing_report_file_is_flagged(tmp_path, batch):
    data, campaigns = batch
    camp = _first(campaigns, False)
    status, stdout, stderr = _calibrate(data, camp, tmp_path)
    (tmp_path / "disagg_W-BERT.csv").unlink()
    problems = verify.check_calibration(tmp_path, camp, status, stdout, stderr)
    assert problems == ["disagg_W-BERT.csv: missing"]


def test_summary_mpe_and_exit_status_are_checked(tmp_path, batch):
    data, campaigns = batch
    camp = _first(campaigns, False)
    status, stdout, stderr = _calibrate(data, camp, tmp_path)
    summary = tmp_path / "summary.csv"
    text = summary.read_text()
    mpe_cell = text.splitlines()[1].split(",")[4]
    summary.write_text(text.replace(f",{mpe_cell},", ",0.0001,", 1))
    problems = verify.check_calibration(tmp_path, camp, 1, stdout, stderr)
    assert "calibrate exit status 1, expected 0" in problems
    assert "summary.csv: CWI-M calibrated MPE is 0.0001" in problems


def test_tracer_restores_walfcal_and_reports_absent_layers(monkeypatch, batch):
    data, campaigns = batch
    original = walfcal.calib.minimum_norm_lstsq
    monkeypatch.delattr(walfcal.cli, "load_coefficients")
    tracer = Tracer()
    tracer.install()
    try:
        assert walfcal.calib.minimum_norm_lstsq is not original
        assert tracer.absent == ["cli.load_coefficients"]
    finally:
        tracer.uninstall()
    assert walfcal.calib.minimum_norm_lstsq is original


def test_traced_calibration_counts_and_self_times(tmp_path, batch):
    data, campaigns = batch
    camp = _first(campaigns, True)
    tracer = Tracer()
    tracer.op = 1
    tracer.install()
    try:
        _calibrate(data, camp, tmp_path)
    finally:
        tracer.uninstall()
    stats = layer_stats(tracer.spans)
    assert stats["cli.main"]["calls"] == 1
    assert stats["calib.calibrate"]["calls"] == 5
    assert stats["calib.calibrate"]["domain_errors"] == 1
    assert stats["cli.load_measurements"]["rows"] == camp.d.size
    assert stats["basis.design_matrix"]["cells"] == 4 * 13 * camp.d.size
    root = next(span for span in tracer.spans if span[3] == -1)
    total_self = sum(s["self_s"] for s in stats.values())
    assert total_self == pytest.approx(root[2] - root[1], rel=1e-9)
    evaluated, distinct = tracer.basis_rows()
    assert 0 < distinct < evaluated
