"""The chunked report writer against a per-cell f"{v:.4f}" reference."""

import io

import numpy as np
import pytest

from walfcal import MeasurementSet, ModelKind, Terrain, calibrate, predict_basic, predict_calibrated
from walfcal.cli import _CHUNK_ROWS, _write_profile, _write_table

TERRAIN = Terrain(f_mhz=900.0, w_m=20.0, b_m=30.0, phi_deg=30.0, dh_rx_m=12.0, dh_tx_m=6.0)
PROFILE_HEADER = "distance_km,measured_db,basic_db,calibrated_db"


def reference_cell(value) -> str:
    cell = f"{float(value):.4f}"
    return "0.0000" if cell == "-0.0000" else cell


def reference_table(header, columns, present=None) -> str:
    lines = [header]
    for i in range(len(columns[0])):
        cells = [reference_cell(column[i]) for column in columns]
        if present is not None and not present[i]:
            cells[1] = ""
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_profile(kind, cal, meas, grid) -> str:
    """Profile bytes from a set-and-sort merge of measured and grid rows."""
    taken = {float(d) for d in meas.distances_km}
    rows = [(float(d), float(p)) for d, p in zip(meas.distances_km, meas.pathloss_db)]
    rows += [(float(g), None) for g in grid if float(g) not in taken]
    rows.sort(key=lambda row: row[0])
    dists = np.array([row[0] for row in rows])
    basic = predict_basic(kind, TERRAIN, dists)
    fitted = predict_calibrated(cal, dists)
    lines = [PROFILE_HEADER]
    for (d, measured), b, c in zip(rows, basic, fitted):
        cell = "" if measured is None else reference_cell(measured)
        lines.append(f"{reference_cell(d)},{cell},{reference_cell(b)},{reference_cell(c)}")
    return "\n".join(lines) + "\n"


def table(header, columns, present=None) -> str:
    out = io.StringIO()
    _write_table(out, header, columns, present)
    return out.getvalue()


def profile_rows(tmp_path, meas, grid, kind=ModelKind.CWI_M):
    cal = calibrate(kind, TERRAIN, meas)
    path = tmp_path / "profile.csv"
    _write_profile(path, kind, TERRAIN, cal, meas, grid)
    text = path.read_text()
    assert text == reference_profile(kind, cal, meas, grid)
    return [line.split(",") for line in text.splitlines()[1:]]


def test_negative_zero_prints_as_zero():
    values = np.array([-0.0, -0.00004, -0.00006, 0.00004, -1.5, 2.25])
    text = table("v,w", [values, -values])
    lines = text.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [
        "0.0000", "0.0000", "-0.0001", "0.0000", "-1.5000", "2.2500"
    ]
    assert text == reference_table("v,w", [values, -values])


def test_non_finite_cells():
    values = np.array([np.nan, np.inf, -np.inf])
    text = table("a,b", [values, values])
    assert text == "a,b\nnan,nan\ninf,inf\n-inf,-inf\n"
    assert text == reference_table("a,b", [values, values])


@pytest.mark.parametrize("with_mask", [False, True])
def test_chunk_boundaries_match_reference(with_mask):
    rng = np.random.default_rng(11)
    n = 2 * _CHUNK_ROWS + 3
    columns = [rng.normal(0.0, 1e-3, n), rng.uniform(-200.0, 200.0, n), rng.normal(0.0, 1e-4, n)]
    present = rng.random(n) < 0.5 if with_mask else None
    text = table("x,y,z", columns, present)
    assert text.count("\n") == n + 1
    assert text == reference_table("x,y,z", columns, present)


def test_grid_only_rows_have_empty_measured_cell(tmp_path):
    meas = MeasurementSet([0.25, 0.75], [80.0, 95.0])
    rows = profile_rows(tmp_path, meas, np.array([0.5, 1.0]))
    assert [row[0] for row in rows] == ["0.2500", "0.5000", "0.7500", "1.0000"]
    assert [row[1] for row in rows] == ["80.0000", "", "95.0000", ""]


def test_grid_point_at_measured_distance_is_not_repeated(tmp_path):
    meas = MeasurementSet([0.5, 1.5], [88.0, 101.0])
    rows = profile_rows(tmp_path, meas, np.array([0.5, 1.0, 1.5, 2.0]))
    assert [row[0] for row in rows] == ["0.5000", "1.0000", "1.5000", "2.0000"]
    assert [row[1] for row in rows] == ["88.0000", "", "101.0000", ""]


def test_duplicate_measured_distances_keep_input_order(tmp_path):
    meas = MeasurementSet([1.0, 0.5, 1.0, 0.5, 1.0], [93.0, 85.0, 91.0, 87.0, 92.0])
    rows = profile_rows(tmp_path, meas, np.array([0.5, 0.75, 1.0]), kind=ModelKind.W_BERT)
    assert [(row[0], row[1]) for row in rows] == [
        ("0.5000", "85.0000"),
        ("0.5000", "87.0000"),
        ("0.7500", ""),
        ("1.0000", "93.0000"),
        ("1.0000", "91.0000"),
        ("1.0000", "92.0000"),
    ]


def test_profile_across_chunk_boundaries(tmp_path):
    rng = np.random.default_rng(5)
    n = 2 * _CHUNK_ROWS + 3
    d = np.round(rng.uniform(0.1, 3.0, n), 3)
    meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, n))
    rows = profile_rows(tmp_path, meas, 0.1 + 0.05 * np.arange(59))
    assert sum(row[1] != "" for row in rows) == n
