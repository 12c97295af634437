"""Checks on walfcal's outputs, and the report-bytes fingerprint.

Every check returns a list of problems; an operation whose list is not empty
counts as failed.  The expected values come from inputs.Campaign, whose
reference fit never touches walfcal.  Report cells carry 4 decimals, so a
printed cell may sit up to ROUNDING from the exact value.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np

from inputs import Campaign, reference_predict

ROUNDING = 5e-5
TOLERANCE_DB = 1e-4
SLACK = 1e-9
WI_GROUPS = ("FSP", "RTS", "MSD")
WB_GROUPS = ("CORE", "HEIGHT", "GEOMETRY", "CURVATURE")
SUMMARY_HEADER = ("model,rmse_basic_db,mpe_basic_db,rmse_calibrated_db,"
                  "mpe_calibrated_db,improvement_pct")
PROFILE_HEADER = "distance_km,measured_db,basic_db,calibrated_db"
PREDICT_HEADER = "distance_km,pathloss_db"
FINGERPRINTED = ("summary", "profile", "disagg", "predict")


def _table(path: Path, header: str, problems: list):
    """Numeric body of a report CSV (blank cells read as nan), or None."""
    try:
        text = path.read_text()
    except OSError:
        problems.append(f"{path.name}: missing")
        return None
    first, _, body = text.partition("\n")
    if first != header:
        problems.append(f"{path.name}: header {first!r}")
        return None
    try:
        return np.loadtxt(io.StringIO(body.replace(",,", ",nan,")), delimiter=",", ndmin=2)
    except ValueError as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def compare(name, what, got, expected, tol, problems) -> None:
    worst = float(np.max(np.abs(np.subtract(got, expected)), initial=0.0))
    if not worst <= tol:
        problems.append(f"{name}: {what} off by {worst:.3g} (tolerance {tol:g})")


def check_values(name: str, what: str, printed_d: np.ndarray, values: np.ndarray,
                 camp: Campaign, model: str, problems: list) -> None:
    """Compare report values with the reference fit at their exact distances.

    A printed distance stands for a measured distance, which has at most 4
    decimals and so prints exactly, or for a grid point, which prints rounded.
    Both readings are tried and the closer one counts.
    """
    beta, grid = camp.beta(model), camp.grid_points(model)
    error = np.where(np.isin(printed_d, camp.d),
                     np.abs(values - reference_predict(beta, printed_d, camp.dh_tx_m)), np.inf)
    if grid.size:
        index = np.clip(np.rint((printed_d - grid[0]) / camp.grid[2]), 0, grid.size - 1)
        nearest = grid[index.astype(int)]
        on_grid = np.abs(nearest - printed_d) <= ROUNDING + SLACK
        error = np.minimum(error, np.where(
            on_grid, np.abs(values - reference_predict(beta, nearest, camp.dh_tx_m)), np.inf))
    stray = int(np.count_nonzero(np.isinf(error)))
    if stray:
        problems.append(f"{name}: {stray} distances are neither measured nor on the grid")
    compare(name, what, error[np.isfinite(error)], 0.0, TOLERANCE_DB, problems)


def check_profile(path: Path, camp: Campaign, model: str, problems: list) -> None:
    data = _table(path, PROFILE_HEADER, problems)
    if data is None:
        return
    grid = camp.grid_points(model)
    measured = ~np.isnan(data[:, 1])
    got = data[measured][:, :2]
    got = got[np.lexsort((got[:, 1], got[:, 0]))]
    want = np.column_stack([camp.d, camp.p])
    want = want[np.lexsort((want[:, 1], want[:, 0]))]
    if got.shape != want.shape or not np.array_equal(got, want):
        problems.append(f"{path.name}: measured rows do not reproduce the measurements")
    grid_only = int(np.count_nonzero(~np.isin(grid, camp.d)))
    if int(np.count_nonzero(~measured)) != grid_only:
        problems.append(f"{path.name}: {int((~measured).sum())} grid rows, expected {grid_only}")
    check_values(path.name, "calibrated_db", data[:, 0], data[:, 3], camp, model, problems)


def check_disagg(path: Path, camp: Campaign, model: str, problems: list) -> None:
    groups = WB_GROUPS if model == "W-BERT" else WI_GROUPS
    header = ",".join(["distance_km", *(f"basic_{g}_db" for g in groups), "basic_total_db",
                       *(f"calibrated_{g}_db" for g in groups), "calibrated_total_db"])
    data = _table(path, header, problems)
    if data is None:
        return
    grid = camp.grid_points(model)
    rows = np.unique(np.concatenate([camp.d, grid])).size
    if data.shape[0] != rows:
        problems.append(f"{path.name}: {data.shape[0]} rows, expected {rows}")
    k = len(groups)
    sum_tol = (k + 1) * ROUNDING + SLACK
    for lo, side in ((1, "basic"), (k + 2, "calibrated")):
        total = data[:, lo + k]
        compare(path.name, f"{side} groups minus total", data[:, lo:lo + k].sum(axis=1),
                total, sum_tol, problems)
    check_values(path.name, "calibrated_total_db", data[:, 0], data[:, -1], camp, model,
                 problems)


def check_coefficients(path: Path, model: str, problems: list) -> None:
    try:
        lines = path.read_text().splitlines()
    except OSError:
        problems.append(f"{path.name}: missing")
        return
    rank, size = (3, 8) if model == "W-BERT" else (2, 13)
    want = f"# model={model} rank={rank} n_functions={size}"
    if not lines or lines[0] != want:
        problems.append(f"{path.name}: header {lines[:1]!r}, expected {want!r}")
    elif len(lines) != size + 2:
        problems.append(f"{path.name}: {len(lines) - 2} coefficient rows, expected {size}")


def check_summary(path: Path, camp: Campaign, problems: list) -> None:
    try:
        lines = path.read_text().splitlines()
    except OSError:
        problems.append(f"{path.name}: missing")
        return
    models = camp.expected_models()
    if not lines or lines[0] != SUMMARY_HEADER:
        problems.append(f"{path.name}: header {lines[:1]!r}")
        return
    rows = [line.split(",") for line in lines[1:]]
    if [row[0] for row in rows] != list(models) or any(len(row) != 6 for row in rows):
        problems.append(f"{path.name}: rows {[row[0] for row in rows]}, expected {list(models)}")
        return
    rmse = {}
    for model, _, _, rmse_cal, mpe_cal, _ in rows:
        if mpe_cal != "0.0000":
            problems.append(f"{path.name}: {model} calibrated MPE is {mpe_cal}")
        rmse[model] = rmse_cal
        compare(path.name, f"{model} calibrated RMSE", float(rmse_cal), camp.rmse(model),
                TOLERANCE_DB, problems)
    check_rmse_order(rmse, path.name, problems)


def check_rmse_order(rmse: dict, name: str, problems: list) -> None:
    """The four WI RMSE cells are identical and W-BERT fits no worse."""
    wi = {rmse[m] for m in rmse if m != "W-BERT"}
    if len(wi) > 1:
        problems.append(f"{name}: WI calibrated RMSE cells differ: {sorted(wi)}")
    if "W-BERT" in rmse and wi and float(rmse["W-BERT"]) > min(float(v) for v in wi):
        problems.append(f"{name}: W-BERT RMSE {rmse['W-BERT']} exceeds WI RMSE {min(wi)}")


def check_predict(path: Path, camp: Campaign, model: str, problems: list) -> None:
    data = _table(path, PREDICT_HEADER, problems)
    if data is None:
        return
    grid = camp.grid_points(model)
    if data.shape[0] != grid.size:
        problems.append(f"{path.name}: {data.shape[0]} rows, expected {grid.size}")
        return
    compare(path.name, "distance_km", data[:, 0], grid, ROUNDING + SLACK, problems)
    expected = reference_predict(camp.beta(model), grid, camp.dh_tx_m)
    compare(path.name, "pathloss_db", data[:, 1], expected, TOLERANCE_DB, problems)


def check_calibration(out: Path, camp: Campaign, status: int, stdout: str,
                      stderr: str) -> list[str]:
    """Check everything one `walfcal calibrate` run of a campaign produced."""
    problems: list[str] = []
    want_status = 1 if camp.injected else 0
    if status != want_status:
        problems.append(f"calibrate exit status {status}, expected {want_status}")
    if camp.injected:
        if "error: W-BERT:" not in stderr:
            problems.append("calibrate did not report the W-BERT domain error")
        stray = [p.name for p in out.glob("*_W-BERT.csv")]
        if stray:
            problems.append(f"failed W-BERT run left files {stray}")
    check_summary(out / "summary.csv", camp, problems)
    printed = {line.split()[0]: line for line in stdout.splitlines() if line.strip()}
    for model in camp.expected_models():
        if "mpe=0.0000" not in printed.get(model, "").split():
            problems.append(f"stdout: {model} calibrated MPE does not print as 0.0000")
        check_profile(out / f"profile_{model}.csv", camp, model, problems)
        check_disagg(out / f"disagg_{model}.csv", camp, model, problems)
        check_coefficients(out / f"coefficients_{model}.csv", model, problems)
    return problems


def fingerprint(out: Path) -> str:
    """sha256 over the report files whose bytes are pinned.

    Coefficient files are left out: their last digits depend on the solver.
    """
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.is_file() and path.name.startswith(FINGERPRINTED):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def emitted(out: Path) -> tuple[int, int, int]:
    """(bytes, data rows, files) of every report file in a directory."""
    size = rows = files = 0
    for path in out.iterdir():
        if path.is_file() and path.suffix == ".csv":
            data = path.read_bytes()
            size += len(data)
            files += 1
            rows += sum(1 for line in data.splitlines()
                        if line and not line.startswith(b"#")) - 1
    return size, rows, files
