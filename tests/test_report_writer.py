"""The chunked report writers against a per-cell f"{v:.4f}" reference, and
the numpy cell encoder against an exact decimal oracle."""

import io
import math
from decimal import ROUND_HALF_EVEN, Context, Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import assert_same_text
from walfcal import (
    MeasurementSet,
    ModelKind,
    Terrain,
    calibrate,
    group_losses,
    predict_basic,
    predict_calibrated,
)
from walfcal.cli import (
    _CHUNK_ROWS,
    CampaignConfig,
    _db,
    _encode,
    _profile_rows,
    _row_bytes,
    _write_disagg,
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
    """_write_table's text for the given columns: the first is the distance
    axis, and the others are served chunk by chunk as the axis reaches them."""
    d = columns[0]
    rest = np.column_stack([*columns[1:], np.empty((d.size, 0))])
    served = 0

    def columns_of(chunk):
        nonlocal served
        np.testing.assert_array_equal(chunk, d[served : served + chunk.size])
        served += chunk.size
        return rest[served - chunk.size : served]

    out = io.StringIO()
    _write_table(out, header, d, columns_of)
    assert served == d.size
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
        assert_same_text(text, reference_profile(kind, meas, points))
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
    assert_same_text(text, reference_table("x,y,z", columns))


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


def encoded(values) -> str | None:
    """One cell per row through the numpy encoder, or None where a cell is too
    long for its slot and the whole block goes cell by cell through _db."""
    cells = _encode(np.asarray(values, dtype=float).reshape(-1, 1))
    return None if cells is None else str(_row_bytes(*cells), "ascii")


EXACT = Context(prec=2000)
# the longest cell text a 16-byte slot holds before its separator
SLOT_TEXT_MAX = 13


def exact_cell(value: float) -> str:
    """The exact binary value of value rounded half to even at 4 decimals."""
    cell = str(Decimal(value).quantize(Decimal("0.0001"), ROUND_HALF_EVEN, EXACT))
    return "0.0000" if cell == "-0.0000" else cell


cell_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-2e7, max_value=2e7),
    st.floats(min_value=-1e-3, max_value=1e-3),
    # exact decimals at 4 places, the values reports mostly hold
    st.integers(-(10**11), 10**11).map(lambda k: k / 1e4),
    # ties: inexact ones at 5 places and dyadic ones at 5 binary places
    st.integers(-(10**11), 10**11).map(lambda k: (k + 0.5) / 1e4),
    st.integers(-(2**40), 2**40).map(lambda k: k / 32),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(cell_values, min_size=1, max_size=40))
@example([1.03125, 0.00005, -0.00005, -0.00004, -0.0, 9999999.99995, -9999999.99997])
@example([1e7, 1e8, math.nan, math.inf, -math.inf])
@example([5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308])
def test_encoder_matches_the_exact_decimal_rounding(values):
    for value in values:
        cell = encoded([value])
        if math.isfinite(value):
            assert _db(value) == exact_cell(value)
        if cell is None:
            assert len(_db(value)) > SLOT_TEXT_MAX
        else:
            assert cell == _db(value) + "\n"
    text = encoded(values)
    if text is None:
        assert any(encoded([value]) is None for value in values)
    else:
        assert text == "".join(_db(value) + "\n" for value in values)


@pytest.mark.parametrize(
    "value, cell",
    [
        (1.03125, "1.0312"),
        (1.09375, "1.0938"),
        (0.00005, "0.0001"),
        (-0.00005, "-0.0001"),
        (-0.00004, "0.0000"),
        (-0.0, "0.0000"),
        (9999999.99995, "9999999.9999"),
        (-9999999.99997, "-10000000.0000"),
        (1e7, "10000000.0000"),
        (1e8, "100000000.0000"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (5e-324, "0.0000"),
        (-5e-324, "0.0000"),
    ],
)
def test_edge_cells(value, cell):
    assert _db(value) == cell
    text = table("v", [np.array([value, 2.5, -3.25])])
    assert text == f"v\n{cell}\n2.5000\n-3.2500\n"
    assert encoded([value]) == (None if len(cell) > SLOT_TEXT_MAX else cell + "\n")


@pytest.mark.parametrize("value", [80.03125, 0.00005, math.nan, -9999999.99997, 1e8])
@pytest.mark.parametrize("row", [0, _CHUNK_ROWS - 1, _CHUNK_ROWS + 5, 2 * _CHUNK_ROWS + 2])
def test_one_fallback_cell_among_encoded_rows(value, row):
    rng = np.random.default_rng(row)
    n = 2 * _CHUNK_ROWS + 3
    columns = [rng.uniform(-300.0, 300.0, n), rng.normal(0.0, 1e-3, n)]
    columns[1][row] = value
    starts = range(0, n, _CHUNK_ROWS)
    blocks = [np.column_stack([c[s : s + _CHUNK_ROWS] for c in columns]) for s in starts]
    # only a cell too long for its slot sends its chunk cell by cell through _db
    too_long = len(_db(value)) > SLOT_TEXT_MAX
    assert [_encode(block) is None for block in blocks] == [
        too_long and s <= row < s + _CHUNK_ROWS for s in starts
    ]
    assert_same_text(table("a,b", columns), reference_table("a,b", columns))


def test_blank_measured_cells_at_chunk_edges(tmp_path):
    # rows: grid 0.1, then _CHUNK_ROWS - 2 samples below 0.2, so the grid
    # points 0.2 and 0.3 end the first chunk and start the second; the last
    # row is the grid point 3.0
    rng = np.random.default_rng(21)
    d = np.concatenate([rng.uniform(0.1001, 0.1999, _CHUNK_ROWS - 2), rng.uniform(0.31, 2.9, 300)])
    meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, d.size))
    rows = profile_rows(tmp_path, meas, (0.1, 3.0, 0.1), kinds=list(ModelKind))
    for index in (0, _CHUNK_ROWS - 1, _CHUNK_ROWS, len(rows) - 1):
        assert rows[index][1] == ""
    assert rows[1][1] != "" and rows[_CHUNK_ROWS + 1][1] != ""


@pytest.mark.parametrize("value", [125.03125, 1e8])
def test_wb_profile_ends_mid_chunk_with_a_fallback_cell(tmp_path, value):
    # the second chunk, where the W-BERT file ends, holds a measured dyadic
    # tie, which takes its slot's text from _db, or a cell too long for a
    # slot, which sends that chunk cell by cell through _db for every model
    rng = np.random.default_rng(17)
    n = _CHUNK_ROWS + 500
    d = np.round(rng.uniform(0.1, 9.5, n), 4)
    p = np.round(100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, n), 3)
    p[np.argmax(d)] = value
    meas = MeasurementSet(d, p)
    kinds = [ModelKind.W_BERT, ModelKind.CWI_M]
    wb_rows = profile_rows(tmp_path, meas, (0.1, 12.0, 0.01), kinds=kinds)
    wi_rows = (tmp_path / "out" / "profile_CWI-M.csv").read_text().splitlines()[1:]
    assert _CHUNK_ROWS < len(wb_rows) < len(wi_rows) < 2 * _CHUNK_ROWS
    assert [row[1] for row in wb_rows].index(_db(value)) >= _CHUNK_ROWS


def reference_profile_rows(axis, meas, grid):
    """Profile rows from a stable sort of the measured and then grid keys."""
    n = len(meas)
    index = np.searchsorted(axis, np.concatenate([meas.distances_km, grid]))
    measured = np.zeros(axis.size, dtype=bool)
    measured[index[:n]] = True
    rows = np.concatenate([index[:n], index[n:][~measured[index[n:]]]])
    order = np.argsort(rows, kind="stable")
    return rows[order], np.where(order < n, order, -1)


@pytest.mark.parametrize("seed", range(6))
def test_profile_rows_match_a_sort_of_all_keys(seed):
    rng = np.random.default_rng(seed)
    d = np.round(rng.uniform(0.1, 2.0, int(rng.integers(1, 400))), int(rng.integers(1, 4)))
    grid = prediction_grid(0.1, 2.0, float(rng.choice([0.05, 0.1, 0.25])))
    if seed == 5:
        # a grid that repeats its points, as a step too fine to move d_min
        # would give if prediction_grid did not reject it
        grid = 1.0 + 1e-16 * np.arange(5)
        assert np.unique(grid).size < grid.size
    meas = MeasurementSet(d, np.full(d.size, 90.0))
    axis = np.unique(np.concatenate([d, grid]))
    rows, sample = _profile_rows(axis, meas, grid)
    expected_rows, expected_sample = reference_profile_rows(axis, meas, grid)
    np.testing.assert_array_equal(rows, expected_rows)
    np.testing.assert_array_equal(sample, expected_sample)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_disagg_chunks_equal_whole_axis_evaluation(tmp_path, kind):
    # group_losses of each chunk equals that of the whole axis bit for bit,
    # so the file reads as the whole-axis values formatted cell by cell
    rng = np.random.default_rng(23)
    t = Terrain(f_mhz=1800.0, w_m=15.0, b_m=40.0, phi_deg=50.0, dh_rx_m=9.0, dh_tx_m=20.0)
    d = np.sort(rng.uniform(0.02, 18.0, 2 * _CHUNK_ROWS + 3))
    sampled = d[::50]
    noise = rng.normal(0.0, 3.0, sampled.size)
    meas = MeasurementSet(sampled, 110.0 + 35.0 * np.log10(sampled) + noise)
    cal = calibrate(kind, t, meas)
    whole = group_losses(cal, d)
    chunks = [group_losses(cal, d[s : s + _CHUNK_ROWS]) for s in range(0, d.size, _CHUNK_ROWS)]
    assert len(chunks) == 3
    assert np.array_equal(np.vstack(chunks), whole)
    _write_disagg(tmp_path / "disagg.csv", cal, d)
    text = (tmp_path / "disagg.csv").read_text()
    header = text.split("\n", 1)[0]
    assert header.count(",") == whole.shape[1]
    assert_same_text(text, reference_table(header, [d, *whole.T]))
