"""The chunked report writers against a per-cell f"{v:.4f}" reference."""

import io

import numpy as np

from walfcal import MeasurementSet, ModelKind, Terrain, calibrate, predict_basic, predict_calibrated
from walfcal.cli import (
    _CHUNK_ROWS,
    CampaignConfig,
    _write_table,
    prediction_grid,
    run_calibration,
    save_measurements,
)

TERRAIN = Terrain(f_mhz=900.0, w_m=20.0, b_m=30.0, phi_deg=30.0, dh_rx_m=12.0, dh_tx_m=6.0)
PROFILE_HEADER = "distance_km,measured_db,basic_db,calibrated_db"


def reference_cell(value) -> str:
    cell = f"{float(value):.4f}"
    return "0.0000" if cell == "-0.0000" else cell


def reference_table(header, columns) -> str:
    lines = [header]
    for i in range(len(columns[0])):
        lines.append(",".join(reference_cell(column[i]) for column in columns))
    return "\n".join(lines) + "\n"


def reference_profile(kind, meas, grid) -> str:
    """Profile bytes from a set-and-sort merge of measured and grid rows."""
    cal = calibrate(kind, TERRAIN, meas)
    if kind is ModelKind.W_BERT:
        grid = grid[grid * grid < 17.0 * TERRAIN.dh_tx_m]
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


def table(header, columns) -> str:
    out = io.StringIO()
    _write_table(out, header, columns)
    return out.getvalue()


def profile_rows(tmp_path, meas, grid, kinds=(ModelKind.CWI_M,)):
    """Run a calibration over the grid (d_min, d_max, d_step), check every
    profile file against the reference, and return the first one's rows."""
    save_measurements(meas, tmp_path / "meas.csv")
    config = CampaignConfig(TERRAIN, tuple(kinds), *grid)
    assert run_calibration(config, tmp_path / "meas.csv", tmp_path / "out").ok
    points = prediction_grid(*grid)
    found = []
    for kind in kinds:
        text = (tmp_path / "out" / f"profile_{kind.value}.csv").read_text()
        assert text == reference_profile(kind, meas, points)
        found.append([line.split(",") for line in text.splitlines()[1:]])
    return found[0]


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


def test_chunk_boundaries_match_reference():
    rng = np.random.default_rng(11)
    n = 2 * _CHUNK_ROWS + 3
    columns = [rng.normal(0.0, 1e-3, n), rng.uniform(-200.0, 200.0, n), rng.normal(0.0, 1e-4, n)]
    text = table("x,y,z", columns)
    assert text.count("\n") == n + 1
    assert text == reference_table("x,y,z", columns)


def test_grid_only_rows_have_empty_measured_cell(tmp_path):
    meas = MeasurementSet([0.25, 0.75], [80.0, 95.0])
    rows = profile_rows(tmp_path, meas, (0.5, 1.0, 0.5))
    assert [row[0] for row in rows] == ["0.2500", "0.5000", "0.7500", "1.0000"]
    assert [row[1] for row in rows] == ["80.0000", "", "95.0000", ""]


def test_grid_point_at_measured_distance_is_not_repeated(tmp_path):
    meas = MeasurementSet([0.5, 1.5], [88.0, 101.0])
    rows = profile_rows(tmp_path, meas, (0.5, 2.0, 0.5))
    assert [row[0] for row in rows] == ["0.5000", "1.0000", "1.5000", "2.0000"]
    assert [row[1] for row in rows] == ["88.0000", "", "101.0000", ""]


def test_duplicate_measured_distances_keep_input_order(tmp_path):
    meas = MeasurementSet([1.0, 0.5, 1.0, 0.5, 1.0], [93.0, 85.0, 91.0, 87.0, 92.0])
    rows = profile_rows(tmp_path, meas, (0.5, 1.0, 0.25), kinds=[ModelKind.W_BERT])
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
    rows = profile_rows(tmp_path, meas, (0.1, 3.0, 0.05), kinds=list(ModelKind))
    assert sum(row[1] != "" for row in rows) == n


def test_duplicate_run_across_a_chunk_boundary(tmp_path):
    # rows: the grid point 0.25, 0.5 x (_CHUNK_ROWS - 3), the grid point 0.75,
    # so the run at 1.0 starts in the last row of the first chunk
    d = np.array([0.5] * (_CHUNK_ROWS - 3) + [1.0] * 10 + [1.5] * 5)
    order = np.random.default_rng(3).permutation(d.size)
    p = 90.0 + 0.001 * np.arange(d.size)
    meas = MeasurementSet(d[order], p[order])
    rows = profile_rows(tmp_path, meas, (0.25, 2.0, 0.25), kinds=list(ModelKind))
    run = [(row[0], row[1]) for row in rows if row[0] == "1.0000" and row[1]]
    assert len(run) == 10
    assert [cell for _, cell in run] == [reference_cell(v) for v in p[order][d[order] == 1.0]]
    assert rows[_CHUNK_ROWS - 1][0] == rows[_CHUNK_ROWS][0] == "1.0000"


def test_wb_profile_loses_grid_rows_past_its_limit(tmp_path):
    # the grid runs to 30 km, far past the W-BERT limit of about 10.1 km; the
    # grid-only rows beyond it fill whole chunks that only the WI files get
    rng = np.random.default_rng(9)
    n = _CHUNK_ROWS + 100
    d = np.round(rng.uniform(0.1, 9.0, n), 3)
    meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, n))
    kinds = [ModelKind.W_BERT, ModelKind.CWI_M, ModelKind.ITWI_SU]
    wb_rows = profile_rows(tmp_path, meas, (0.1, 30.0, 0.002), kinds=kinds)
    wi_rows = (tmp_path / "out" / "profile_CWI-M.csv").read_text().splitlines()[1:]
    # W-BERT stops inside a chunk, and a later chunk is written for WI alone
    assert len(wb_rows) % _CHUNK_ROWS != 0
    assert len(wb_rows) // _CHUNK_ROWS < (len(wi_rows) - 1) // _CHUNK_ROWS
    limit = 17.0 * TERRAIN.dh_tx_m
    assert float(wb_rows[-1][0]) ** 2 < limit < float(wi_rows[-1].split(",")[0]) ** 2


def test_chunk_of_only_grid_rows(tmp_path):
    # three samples past 5 km leave the first chunk to grid points alone
    meas = MeasurementSet([5.5, 6.0, 6.0], [120.0, 121.0, 122.5])
    rows = profile_rows(tmp_path, meas, (0.001, 6.5, 0.0005), kinds=list(ModelKind))
    assert len(rows) > _CHUNK_ROWS
    assert all(row[1] == "" for row in rows[:_CHUNK_ROWS])
    assert [row[1] for row in rows if row[1]] == ["120.0000", "121.0000", "122.5000"]
