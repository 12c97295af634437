"""The public names of the package and its command-line module, sorted and
pinned, so that each addition or removal shows up as a diff of this file,
the boundary of the private report module, and the README's library
example."""

import math
import os
import subprocess
import sys
from pathlib import Path

import walfcal
import walfcal.cli

PACKAGE_NAMES = [
    "BasisSet",
    "Calibration",
    "CurvatureDomainError",
    "Density",
    "DomainError",
    "Family",
    "MeasurementSet",
    "MetricsReport",
    "ModelKind",
    "ParseError",
    "RANK_TOL_DEFAULT",
    "Terrain",
    "WB_GROUPS",
    "WI_GROUPS",
    "WalfcalError",
    "build_basis",
    "building_geometry_term",
    "calibrate",
    "effective_rank",
    "free_space_loss",
    "group_losses",
    "improvement_pct",
    "minimum_norm_lstsq",
    "mpe",
    "multiscreen_constants",
    "multiscreen_loss",
    "predict_basic",
    "predict_calibrated",
    "rmse",
    "rooftop_to_street_loss",
    "street_orientation_term",
    "wb_excess_loss",
    "wb_max_distance_km",
]

CLI_NAMES = [
    "CampaignConfig",
    "CampaignResult",
    "MEASUREMENT_HEADER",
    "ModelRun",
    "load_coefficients",
    "load_config",
    "load_measurements",
    "main",
    "prediction_grid",
    "run_calibration",
]

# removed public names, each with the module that held it
REMOVED = [
    ("walfcal.basis", "DesignMatrix"),
    ("walfcal.basis", "design_matrix"),
    ("walfcal.cli", "save_measurements"),
]


def test_package_exports():
    assert walfcal.__all__ == PACKAGE_NAMES


def test_cli_exports():
    assert sorted(walfcal.cli.__all__) == CLI_NAMES


def test_every_exported_name_resolves():
    for module in (walfcal, walfcal.cli):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__} exports undefined names {missing}"


def test_removed_names_stay_removed():
    for module, name in REMOVED:
        assert not hasattr(sys.modules[module], name), f"{module}.{name}"
        assert not hasattr(walfcal, name), name


LAYERING = """
import sys
import walfcal
assert "walfcal.report" not in sys.modules, "walfcal imports walfcal.report"
import walfcal.report as report
assert "walfcal.cli" not in sys.modules, "walfcal.report imports walfcal.cli"
assert not hasattr(report, "__all__")
own = {n for n, v in vars(report).items() if getattr(v, "__module__", "") == report.__name__}
assert own and not own & set(walfcal.__all__), own & set(walfcal.__all__)
"""


def test_report_module_stays_private_and_below_the_cli():
    # a fresh interpreter, as this one has imported walfcal.cli already
    env = {**os.environ, "PYTHONPATH": str(Path(walfcal.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", LAYERING], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr


def test_readme_library_example(capsys):
    # the first python block of the "Library use" section, run as a reader
    # would paste it, with warnings as errors
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
    rank, loss = capsys.readouterr().out.splitlines()[:2]
    assert rank == "3"
    assert math.isfinite(float(loss))
