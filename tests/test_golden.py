"""Byte-for-byte pins of the sample campaign's report files.

tests/golden/ holds summary.csv, every profile_* and disagg_* file, and the
predict output (nominal and replayed from the run's own coefficients) for
CWI-M and W-BERT.  A change to formatting, rounding, row order or row set
shows up here; a rerun-vs-rerun comparison cannot catch it.  Coefficient
files are not pinned: their last digits depend on the solver.
"""

from pathlib import Path

import pytest

from walfcal.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIG = ROOT / "sample" / "campaign.cfg"
MEASUREMENTS = ROOT / "sample" / "measurements.csv"
PREDICT_MODELS = ("CWI-M", "W-BERT")
REPORT_NAMES = sorted(
    p.name for p in GOLDEN.glob("*.csv") if not p.name.startswith("predict_")
)


@pytest.fixture(scope="module")
def sample_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("golden") / "out"
    argv = ["calibrate", "--config", str(CONFIG), "--measurements", str(MEASUREMENTS)]
    assert main([*argv, "--output-dir", str(out_dir)]) == 0
    return out_dir


def test_golden_set_is_complete():
    assert "summary.csv" in REPORT_NAMES
    for model in ("CWI-M", "CWI-SU", "ITWI-M", "ITWI-SU", "W-BERT"):
        assert f"profile_{model}.csv" in REPORT_NAMES
        assert f"disagg_{model}.csv" in REPORT_NAMES


@pytest.mark.parametrize("name", REPORT_NAMES)
def test_calibrate_report_bytes(sample_run, name):
    assert (sample_run / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("model", PREDICT_MODELS)
def test_predict_basic_stdout_bytes(capsys, model):
    assert main(["predict", "--config", str(CONFIG), "--model", model]) == 0
    golden = (GOLDEN / f"predict_basic_{model}.csv").read_text()
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("model", PREDICT_MODELS)
def test_predict_basic_file_bytes(tmp_path, model):
    out = tmp_path / "pred.csv"
    argv = ["predict", "--config", str(CONFIG), "--model", model, "--output", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"predict_basic_{model}.csv").read_bytes()


@pytest.mark.parametrize("model", PREDICT_MODELS)
def test_predict_replayed_coefficients_bytes(sample_run, tmp_path, model):
    out = tmp_path / "pred.csv"
    coefficients = sample_run / f"coefficients_{model}.csv"
    argv = ["predict", "--config", str(CONFIG), "--model", model]
    assert main([*argv, "--coefficients", str(coefficients), "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"predict_calibrated_{model}.csv").read_bytes()
