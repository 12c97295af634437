"""The public names of the package and its command-line module, sorted and
pinned, so that each addition or removal shows up as a diff of this file."""

import walfcal
import walfcal.cli

PACKAGE_NAMES = [
    "BasisSet",
    "Calibration",
    "CurvatureDomainError",
    "Density",
    "DesignMatrix",
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
    "design_matrix",
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
    "save_measurements",
]


def test_package_exports():
    assert walfcal.__all__ == PACKAGE_NAMES


def test_cli_exports():
    assert sorted(walfcal.cli.__all__) == CLI_NAMES


def test_every_exported_name_resolves():
    for module in (walfcal, walfcal.cli):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__} exports undefined names {missing}"
