"""The chunked report writers against a per-cell f"{v:.4f}" reference, and
the numpy cell encoder against an exact decimal oracle."""

import io
import math
from decimal import ROUND_HALF_EVEN, Context, Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walfcal.report as report
from helpers import assert_same_text, save_measurements, traced_peak
from walfcal import (
    Calibration,
    MeasurementSet,
    ModelKind,
    Terrain,
    build_basis,
    calibrate,
    group_losses,
    predict_basic,
    predict_calibrated,
)
from walfcal.basis import _CHUNK_ROWS
from walfcal.calib import _loss_table
from walfcal.cli import CampaignConfig, prediction_grid, run_calibration
from walfcal.report import (
    _BLANK,
    _block_rows,
    _db,
    _encode,
    _report_axis,
    _cut,
    _rows,
    _write_axis_files,
    _write_table,
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


def reference_profile(cal, meas, grid) -> str:
    """cal's profile bytes from a set-and-sort merge of measured and grid rows."""
    if cal.kind is ModelKind.W_BERT:
        grid = grid[grid * grid < 17.0 * cal.terrain.dh_tx_m]
    taken = {float(d) for d in meas.distances_km}
    rows = [(float(d), float(p)) for d, p in zip(meas.distances_km, meas.pathloss_db)]
    rows += [(float(g), None) for g in grid if float(g) not in taken]
    rows.sort(key=lambda row: row[0])
    dists = np.array([row[0] for row in rows])
    basic = predict_basic(cal.kind, cal.terrain, dists)
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


def walk_width(kinds) -> int:
    """Cells per axis point of the report walk over the given models: each
    model's distance and 2·groups + 2 disagg values."""
    return sum(3 + 2 * len(build_basis(kind, TERRAIN).groups) for kind in kinds)


def part_step(kinds) -> int:
    """Axis points per encoded part of the report walk."""
    return _block_rows(walk_width(kinds))


# rows per measured-cell chunk of the walk, counted from the first row of a
# walk part
ROW_STEP = _block_rows(4)


def profile_rows(tmp_path, meas, grid, kinds=(ModelKind.CWI_M,)):
    """Run a calibration over the grid (d_min, d_max, d_step), check every
    profile file against the reference, and return the first one's rows."""
    save_measurements(meas, tmp_path / "meas.csv")
    config = CampaignConfig(TERRAIN, tuple(kinds), *grid)
    result = run_calibration(config, tmp_path / "meas.csv", tmp_path / "out")
    assert result.ok
    cals = [run.calibration for run in result.runs]
    return checked_profiles(tmp_path / "out", meas, prediction_grid(*grid), cals)[0]


def checked_profiles(out_dir, meas, grid, cals):
    """The rows of each fit's profile file, checked against the reference."""
    found = []
    for cal in cals:
        text = (out_dir / f"profile_{cal.kind.value}.csv").read_text()
        assert_same_text(text, reference_profile(cal, meas, grid))
        found.append([line.split(",") for line in text.splitlines()[1:]])
    return found


def walked(out_dir, grid, cals, meas=None):
    """_write_axis_files over measured ∪ grid, a grid of any points, with
    every disagg and profile file checked against its reference; the rows of
    each profile file.  Without meas the one sample is 100 dB at grid[0]."""
    meas = MeasurementSet(grid[:1], [100.0]) if meas is None else meas
    axis, rows, sample = _report_axis(meas.distances_km, grid)
    _write_axis_files(out_dir, axis, rows, sample, meas, cals)
    check_disaggs(out_dir, axis, cals)
    return checked_profiles(out_dir, meas, grid, cals)


def written_profiles(tmp_path, meas, grid, kinds):
    """walked over the fits of kinds to meas."""
    return walked(tmp_path, grid, [calibrate(k, TERRAIN, meas) for k in kinds], meas)


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
    n = 2 * _block_rows(3) + 3
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
    # rows: the grid point 0.25, 0.5 x (ROW_STEP - 3), the grid point 0.75,
    # so the run at 1.0 starts in the last row of the first row chunk
    step = ROW_STEP
    d = np.array([0.5] * (step - 3) + [1.0] * 10 + [1.5] * 5)
    order = np.random.default_rng(3).permutation(d.size)
    p = 90.0 + 0.001 * np.arange(d.size)
    meas = MeasurementSet(d[order], p[order])
    rows = profile_rows(tmp_path, meas, (0.25, 2.0, 0.25), kinds=list(ModelKind))
    run = [(row[0], row[1]) for row in rows if row[0] == "1.0000" and row[1]]
    assert len(run) == 10
    assert [cell for _, cell in run] == [reference_cell(v) for v in p[order][d[order] == 1.0]]
    assert rows[step - 1][0] == rows[step][0] == "1.0000"


def test_one_distance_over_several_row_chunks(tmp_path):
    # 2·ROW_STEP + 7 samples at 0.75 km, after the rows 0.25, 0.3 and 0.5:
    # the run fills the rest of the first row chunk, the second, and starts
    # the third, all at one axis point
    n = 2 * ROW_STEP + 7
    d = np.concatenate([np.full(n, 0.75), [0.3, 1.2, 2.0]])
    p = np.round(90.0 + np.random.default_rng(43).uniform(-5.0, 5.0, d.size), 2)
    rows = profile_rows(tmp_path, MeasurementSet(d, p), (0.25, 2.5, 0.25), kinds=list(ModelKind))
    assert [row[1] for row in rows if row[0] == "0.7500"] == [reference_cell(v) for v in p[:n]]
    assert rows[3][0] == rows[ROW_STEP][0] == rows[2 * ROW_STEP][0] == rows[n + 2][0] == "0.7500"


@pytest.mark.parametrize("parts", [1, 2])
def test_part_edge_inside_a_run_of_duplicates(tmp_path, parts):
    # the axis is the grid; its points step - 4 .. step + 3 are each measured
    # three times, so duplicate rows run on both sides of the edge after
    # encoded part 0, or after part 1
    step = parts * part_step(ModelKind)
    spec = (0.001, 0.001 * (step + 200), 0.001)
    grid = prediction_grid(*spec)
    d = np.concatenate([np.repeat(grid[step - 4 : step + 4], 3), grid[::400]])
    rng = np.random.default_rng(45)
    meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, d.size))
    rows = profile_rows(tmp_path, meas, spec, kinds=list(ModelKind))
    # one row per axis point below step - 4, then three per point
    edge = step - 4 + 3 * 4
    assert rows[edge - 3][0] == rows[edge - 1][0] == reference_cell(grid[step - 1])
    assert rows[edge][0] == rows[edge + 2][0] == reference_cell(grid[step])


@pytest.mark.parametrize("past_edge", [0, 1])
@pytest.mark.parametrize("parts", [1, 2])
def test_wb_profile_ends_at_a_part_edge(tmp_path, parts, past_edge):
    # the W-BERT limit is about 10.1 km: its last point is the last of
    # encoded part 0 or 1, or the first of the part after it
    kinds = list(ModelKind)
    step = parts * part_step(kinds)
    inside = np.linspace(0.05, 10.0, step + past_edge)
    grid = np.concatenate([inside, np.linspace(10.2, 30.0, 300)])
    rng = np.random.default_rng(47)
    d = rng.choice(inside, 400)
    meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, d.size))
    wb_rows = written_profiles(tmp_path, meas, grid, kinds)[kinds.index(ModelKind.W_BERT)]
    assert wb_rows[-1][0] == reference_cell(inside[-1])


def test_wb_profile_loses_grid_rows_past_its_limit(tmp_path):
    # the grid runs to 30 km, far past the W-BERT limit of about 10.1 km; the
    # grid points beyond it fill whole walk parts that only the WI files get
    rng = np.random.default_rng(9)
    kinds = [ModelKind.W_BERT, ModelKind.CWI_M, ModelKind.ITWI_SU]
    step = part_step(kinds)
    n = step + 100
    d = np.round(rng.uniform(0.1, 9.0, n), 3)
    meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, n))
    wb_rows = profile_rows(tmp_path, meas, (0.1, 30.0, 0.002), kinds=kinds)
    wi_rows = (tmp_path / "out" / "profile_CWI-M.csv").read_text().splitlines()[1:]
    # W-BERT stops inside a walk part, and a later part is for WI alone
    axis = np.unique(np.concatenate([d, prediction_grid(0.1, 30.0, 0.002)]))
    covered = np.count_nonzero(axis * axis < 17.0 * TERRAIN.dh_tx_m)
    assert covered % step != 0
    assert covered // step < (axis.size - 1) // step
    limit = 17.0 * TERRAIN.dh_tx_m
    assert float(wb_rows[-1][0]) ** 2 < limit < float(wi_rows[-1].split(",")[0]) ** 2


def test_chunk_of_only_grid_rows(tmp_path):
    # three samples past 5 km leave the first walk parts, and so their row
    # chunks, to grid points alone
    meas = MeasurementSet([5.5, 6.0, 6.0], [120.0, 121.0, 122.5])
    rows = profile_rows(tmp_path, meas, (0.001, 6.5, 0.0005), kinds=list(ModelKind))
    step = 2 * part_step(ModelKind)
    assert len(rows) > step
    assert all(row[1] == "" for row in rows[:step])
    assert [row[1] for row in rows if row[1]] == ["120.0000", "121.0000", "122.5000"]


def text_of(rows) -> str:
    """The text of packed rows, as the writers write it: their bytes less NULs."""
    return str(rows.tobytes().replace(b"\0", b""), "ascii")


def packed(slots) -> str:
    """The text of (n, c) cell slots packed into rows as the writers pack them."""
    return text_of(_rows(slots))


def encoded(values) -> str:
    """One cell per row through the numpy encoder."""
    return packed(_encode(np.asarray(values, dtype=float).reshape(-1, 1)))


def slot_width(values) -> int:
    """The slot width of a block of values: 16 bytes, or one more than its
    longest cell text if that is 16 characters or more."""
    return max(SLOT_TEXT_MAX, *(len(_db(v)) for v in np.ravel(values).tolist())) + 1


EXACT = Context(prec=2000)
# the longest cell text a 16-byte slot holds before its separator
SLOT_TEXT_MAX = 15


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
@example([1e11, -1e15, 1.5e300, 2.5])
def test_encoder_matches_the_exact_decimal_rounding(values):
    for value in values:
        if math.isfinite(value):
            assert _db(value) == exact_cell(value)
        assert encoded([value]) == _db(value) + "\n"
        assert _encode(np.array([[value]])).dtype.itemsize == slot_width([value])
    assert encoded(values) == "".join(_db(value) + "\n" for value in values)
    assert _encode(np.array([values])).dtype.itemsize == slot_width(values)


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
        (99999999.99994, "99999999.9999"),
        (-1e11, "-100000000000.0000"),
        (1e15, "1000000000000000.0000"),
    ],
)
def test_edge_cells(value, cell):
    assert _db(value) == cell
    text = table("v", [np.array([value, 2.5, -3.25])])
    assert text == f"v\n{cell}\n2.5000\n-3.2500\n"
    assert encoded([value]) == cell + "\n"
    # a slot holds a text of 15 characters and its separator
    assert _encode(np.array([[value]])).dtype.itemsize == max(16, len(cell) + 1)


def oracle_cell(value: float) -> str:
    return exact_cell(value) if math.isfinite(value) else _db(value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(cell_values, st.none() | cell_values), min_size=1, max_size=40))
@example([(80.03125, 1e7), (1.0, 80.03125), (-9999999.99997, None), (-0.0, 9999999.99995)])
@example([(1e8, 1.0)])
@example([(1e15, None), (2.5, -1e11)])
def test_joined_distance_and_measured_run(cells):
    # a profile row's distance and measured slots, a blank measured cell its
    # separator alone where a slot's "," stands, and the basic cell after
    # them; packed whole, and packed as _write_axis_files packs them, the
    # distance and measured columns apart and the basic one with the newline
    block = np.array([(d, 0.0 if m is None else m, 1.0) for d, m in cells])
    slots = _encode(block)
    assert slots.dtype.itemsize == slot_width(block)
    slots[[m is None for _, m in cells], 1] = _BLANK
    expected = "".join(
        oracle_cell(d) + "," + ("" if m is None else oracle_cell(m)) + ",1.0000\n"
        for d, m in cells
    )
    assert packed(slots) == expected
    parts = [_rows(slots, [(0, 1)], lines=False), _rows(slots, [(1, 2)], lines=False)]
    assert text_of(np.hstack([*parts, _rows(slots, [(2, 3)])])) == expected


packer_cells = st.one_of(
    st.none(),
    st.floats(min_value=-999.0, max_value=999.0),
    st.floats(min_value=-2e7, max_value=2e7),
    st.sampled_from([1.03125, -1.09375, 0.00005, -0.00005, math.nan, math.inf, -math.inf]),
    st.sampled_from([1e7, -1e7, 1e15, -1e15, 1.5e300]),
    st.integers(-(10**11), 10**11).map(lambda k: (k + 0.5) / 1e4),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(packer_cells, min_size=c, max_size=c), min_size=1, max_size=12)
    ),
    st.sampled_from([0, 1, 6, 8, 16]),
)
@example([[None, 1.03125], [-2.5, None]], 0)
@example([[None], [None]], 1)
@example([[1e15, -3.25, math.nan]], 0)
def test_packed_rows_are_the_cells_joined(cells, wider):
    # short, negative, tie, non-finite, 1e7 and longer cells and blank ones
    # (_BLANK, as a profile's measured cell) mix in a block, whose slots are
    # then widened by `wider` bytes; each packed row is its cells' texts
    # joined by "," whatever the slot width
    block = np.array([[0.0 if v is None else v for v in row] for row in cells])
    slots = _encode(block)
    slots[np.array([[v is None for v in row] for row in cells])] = _BLANK
    slots = slots.astype(f"S{slots.dtype.itemsize + wider}")
    expected = "".join(
        ",".join("" if v is None else _db(v) for v in row) + "\n" for row in cells
    )
    assert packed(slots) == expected


def test_columns_are_cut_to_their_longest_cell():
    # numpy's cells are right-aligned before the "," at byte 13, so a column
    # of them keeps the bytes from its longest cell's first one to its ","
    slots = _encode(np.array([[1.5, -20.25, 0.0], [10.0, 3.0, 0.0]]))
    positions, starts = _cut(slots)
    assert np.diff(starts).tolist() == [8, 9, 7]
    assert positions[:8].tolist() == list(range(6, 14))
    rows = _rows(slots)
    assert rows.shape == (2, 24)
    assert text_of(rows) == "1.5000,-20.2500,0.0000\n10.0000,3.0000,0.0000\n"
    # a blank cell's "," is where numpy's cells have theirs: it widens no
    # column, and a column of blanks keeps one byte
    slots[0, 2] = _BLANK
    assert np.diff(_cut(slots)[1]).tolist() == [8, 9, 7]
    slots[1, 2] = _BLANK
    assert np.diff(_cut(slots)[1]).tolist() == [8, 9, 1]
    assert text_of(_rows(slots)) == "1.5000,-20.2500,\n10.0000,3.0000,\n"


# rows per _write_table block of a 4-column table
TABLE_STEP = _block_rows(4)


@pytest.mark.parametrize("value", [80.03125, 0.00005, math.nan, -9999999.99997, 1e8, 1e15])
@pytest.mark.parametrize("row", [0, TABLE_STEP - 1, TABLE_STEP + 5, 2 * TABLE_STEP + 2])
def test_one_fallback_cell_among_encoded_rows(monkeypatch, value, row):
    rng = np.random.default_rng(row)
    n = 2 * TABLE_STEP + 3
    columns = [rng.uniform(-300.0, 300.0, n), rng.normal(0.0, 1e-3, n)]
    columns += [rng.uniform(0.0, 20.0, n), rng.normal(0.0, 1e-4, n)]
    columns[1][row] = value
    # the cell takes its text from _db, and only a text of 16 characters or
    # more widens its block's slots
    widths = counted_widths(monkeypatch)
    text = table("a,b,c,d", columns)
    assert_same_text(text, reference_table("a,b,c,d", columns))
    wide = len(_db(value)) > SLOT_TEXT_MAX
    assert [size for _, size in widths] == [
        len(_db(value)) + 1 if wide and s <= row < s + TABLE_STEP else 16
        for s in range(0, n, TABLE_STEP)
    ]


def test_blank_measured_cells_at_chunk_edges(tmp_path):
    # rows: grid 0.1, then ROW_STEP - 2 samples at 50 distances below 0.2,
    # so the grid points 0.2 and 0.3 end the first row chunk and start the
    # second; the last row is the grid point 3.0, all in one encoded part
    rng = np.random.default_rng(21)
    step = ROW_STEP
    near = rng.choice(np.round(np.linspace(0.1005, 0.1995, 50), 4), step - 2)
    d = np.concatenate([near, rng.uniform(0.31, 2.9, 300)])
    meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, d.size))
    rows = profile_rows(tmp_path, meas, (0.1, 3.0, 0.1), kinds=list(ModelKind))
    assert len({row[0] for row in rows}) < part_step(ModelKind)
    for index in (0, step - 1, step, len(rows) - 1):
        assert rows[index][1] == ""
    assert rows[1][1] != "" and rows[step + 1][1] != ""


def counted_widths(monkeypatch) -> list:
    """The block shape and slot width of each _encode call, each width
    checked against slot_width of its block."""
    calls = []

    def encode(block):
        slots = _encode(block)
        assert slots.dtype.itemsize == slot_width(block)
        calls.append((block.shape, slots.dtype.itemsize))
        return slots

    monkeypatch.setattr(report, "_encode", encode)
    return calls


def widened(calls) -> list:
    """The calls of counted_widths whose slots are wider than 16 bytes."""
    return [call for call in calls if call[1] > 16]


@pytest.mark.parametrize("value", [125.03125, 1e8, 1e15])
def test_wb_profile_ends_mid_chunk_with_a_fallback_cell(tmp_path, monkeypatch, value):
    # the second walk part, where the W-BERT file ends, holds a measured
    # dyadic tie or a cell of 1e8 or more, which take their slot's text from
    # _db; a text too long for 16 bytes widens that row chunk's measured
    # slots, and the rows of both files with them
    rng = np.random.default_rng(17)
    kinds = [ModelKind.W_BERT, ModelKind.CWI_M]
    step = part_step(kinds)
    n = step - 500
    d = np.round(rng.uniform(0.1, 9.5, n), 4)
    p = np.round(100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, n), 3)
    p[np.argmax(d)] = value
    meas = MeasurementSet(d, p)
    widths = counted_widths(monkeypatch)
    wb_rows = profile_rows(tmp_path, meas, (0.1, 12.0, 0.01), kinds=kinds)
    axis = np.unique(np.concatenate([d, prediction_grid(0.1, 12.0, 0.01)]))
    covered = np.count_nonzero(axis * axis < 17.0 * TERRAIN.dh_tx_m)
    assert step < covered < axis.size < 2 * step
    assert np.searchsorted(axis, d.max()) >= step
    assert [row[1] for row in wb_rows].count(_db(value)) == 1
    # of the measured cells, only part 1's, fewer than a row chunk's, widen
    # (a 1e15 sample also widens the parts where its fits print 16 or more
    # characters)
    wide = len(_db(value)) > SLOT_TEXT_MAX
    measured = [size for shape, size in widened(widths) if shape[1] == 1]
    assert measured == ([len(_db(value)) + 1] if wide else [])


@pytest.mark.parametrize("value", [80.03125, 1e8, 1e15])
@pytest.mark.parametrize("at", [ROW_STEP - 1, ROW_STEP])
def test_odd_measured_cell_in_the_joined_run(tmp_path, monkeypatch, value, at):
    # ROW_STEP + 100 samples at 40 distances, the grid after them: the
    # sample in row `at` ends the first row chunk or starts the second.  A
    # tie or a cell of 1e8 takes its text from _db into the run; a text too
    # long for 16 bytes widens the measured slots of that row chunk, and of no
    # other (a 1e15 sample also widens the walk part where its fits print 16
    # or more characters)
    rng = np.random.default_rng(53)
    d = np.sort(rng.choice(np.round(np.linspace(0.2, 3.0, 40), 3), ROW_STEP + 100))
    p = np.round(100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, d.size), 3)
    p[at] = value
    widths = counted_widths(monkeypatch)
    rows = profile_rows(tmp_path, MeasurementSet(d, p), (3.5, 4.0, 0.5), kinds=list(ModelKind))
    assert rows[at] == [reference_cell(d[at]), _db(value), *rows[at][2:]]
    wide = len(_db(value)) > SLOT_TEXT_MAX
    chunk_rows = ROW_STEP if at < ROW_STEP else len(rows) - ROW_STEP
    measured = [call for call in widened(widths) if call[0][1] == 1]
    assert measured == ([((chunk_rows, 1), len(_db(value)) + 1)] if wide else [])


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
    axis, rows, sample = _report_axis(d, grid)
    np.testing.assert_array_equal(axis, np.unique(np.concatenate([d, grid])))
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
    walked(tmp_path, d, [cal])
    text = (tmp_path / f"disagg_{kind.value}.csv").read_text()
    header = text.split("\n", 1)[0]
    assert header.count(",") == whole.shape[1]
    assert_same_text(text, reference_table(header, [d, *whole.T]))


def test_profiles_peak_below_six_axis_vectors(tmp_path):
    # models are evaluated on one walk part at a time: whole-axis
    # basic and calibrated tables of 5 models alone would take 10 vectors
    rng = np.random.default_rng(29)
    d = rng.uniform(0.05, 4.0, 200_000)
    meas = MeasurementSet(d, 110.0 + 35.0 * np.log10(d) + rng.normal(0.0, 3.0, d.size))
    grid = prediction_grid(0.1, 12.0, 0.1)
    axis, rows, sample = _report_axis(d, grid)
    cals = [calibrate(kind, TERRAIN, meas) for kind in ModelKind]
    _, peak = traced_peak(_write_axis_files, tmp_path, axis, rows, sample, meas, cals)
    assert peak < 6 * axis.size * 8
    assert len(list(tmp_path.glob("profile_*.csv"))) == len(cals)
    assert len(list(tmp_path.glob("disagg_*.csv"))) == len(cals)


def test_report_axis_peaks_below_five_key_vectors():
    # the axis, each profile row's axis index and sample, and the build's
    # temporaries, against 8.1 key vectors for np.unique with its inverse and
    # the profile rows taken from them
    d = np.random.default_rng(30).uniform(0.05, 4.0, 200_000)
    grid = prediction_grid(0.1, 12.0, 0.1)
    (axis, rows, sample), peak = traced_peak(_report_axis, d, grid)
    assert axis.size == rows.size == d.size + grid.size
    assert peak < 5 * axis.size * 8


def disagg_header(cal) -> str:
    groups = cal.basis.groups
    return ",".join(
        ["distance_km"]
        + [f"basic_{g}_db" for g in groups]
        + ["basic_total_db"]
        + [f"calibrated_{g}_db" for g in groups]
        + ["calibrated_total_db"]
    )


def reference_disagg(cal, axis) -> str:
    """A disagg file from group_losses of the model's distances, cell by cell."""
    d = axis[axis * axis < 17.0 * cal.terrain.dh_tx_m] if cal.kind is ModelKind.W_BERT else axis
    return reference_table(disagg_header(cal), [d, *group_losses(cal, d).T])


def check_disaggs(out_dir, axis, cals, absent=()):
    for cal in cals:
        text = (out_dir / f"disagg_{cal.kind.value}.csv").read_text()
        assert_same_text(text, reference_disagg(cal, axis))
    for kind in absent:
        assert not (out_dir / f"disagg_{kind.value}.csv").exists()


def five_fits(n=120):
    rng = np.random.default_rng(31)
    d = rng.uniform(0.1, 9.0, n)
    meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, n))
    return [calibrate(kind, TERRAIN, meas) for kind in ModelKind]


# the walk part of all five models, each a distance cell and its loss
# table's columns a point, PART points at a time
WIDTH = sum(1 + _loss_table(cal).shape[1] for cal in five_fits())
PART = _block_rows(WIDTH)


@pytest.mark.parametrize("size", [PART - 1, PART, PART + 1, 2 * PART - 1, 2 * PART, 3 * PART + 3])
def test_walk_at_part_edges(tmp_path, size):
    cals = five_fits()
    assert walk_width(ModelKind) == WIDTH
    walked(tmp_path, np.linspace(0.05, 9.9, size), cals)


@pytest.mark.parametrize(
    "covered", [PART + PART // 2, 2 * PART, PART - 1, 1, PART, PART + 1, 3 * PART + 7]
)
def test_walk_where_wb_coverage_ends(tmp_path, covered):
    # the W-BERT limit is about 10.1 km: W-BERT's files end mid-part, on a
    # part edge, just before or after one, or after their first row
    cals = five_fits()
    axis = np.concatenate([np.linspace(0.05, 10.0, covered), np.linspace(10.2, 30.0, 500)])
    wb_rows = walked(tmp_path, axis, cals)[-1]
    assert len(wb_rows) == covered
    wb_lines = (tmp_path / "disagg_W-BERT.csv").read_text().count("\n")
    assert wb_lines == covered + 1


def test_walk_without_wb_rows_in_later_parts(tmp_path):
    # WI models alone fill the walk parts past W-BERT's last row
    cals = five_fits()
    axis = np.concatenate([np.linspace(0.05, 10.0, 10), np.linspace(10.2, 30.0, 3 * PART + 5)])
    walked(tmp_path, axis, cals)


def test_failed_wb_leaves_the_wi_disagg_files(tmp_path):
    rng = np.random.default_rng(37)
    d = np.append(rng.uniform(0.1, 9.0, 80), 11.0)
    meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, d.size))
    save_measurements(meas, tmp_path / "meas.csv")
    config = CampaignConfig(TERRAIN, tuple(ModelKind), 0.1, 12.0, 0.25)
    result = run_calibration(config, tmp_path / "meas.csv", tmp_path / "out")
    assert [run.ok for run in result.runs] == [True] * 4 + [False]
    axis = np.unique(np.concatenate([d, prediction_grid(0.1, 12.0, 0.25)]))
    cals = [run.calibration for run in result.runs if run.ok]
    check_disaggs(tmp_path / "out", axis, cals, absent=[ModelKind.W_BERT])
    checked_profiles(tmp_path / "out", meas, prediction_grid(0.1, 12.0, 0.25), cals)
    assert not (tmp_path / "out" / "profile_W-BERT.csv").exists()


@pytest.mark.parametrize(
    "kinds, d, grid",
    [
        ((ModelKind.W_BERT,), [0.3, 1.7, 1.7, 4.2], (0.25, 14.0, 0.25)),
        (tuple(ModelKind), [1.0, 1.0], (1.0, 1.0, 0.5)),
    ],
    ids=["W-BERT only", "one axis point"],
)
def test_walk_of_a_run(tmp_path, kinds, d, grid):
    meas = MeasurementSet(d, [100.0 + 10.0 * i for i in range(len(d))])
    save_measurements(meas, tmp_path / "meas.csv")
    config = CampaignConfig(TERRAIN, kinds, *grid)
    result = run_calibration(config, tmp_path / "meas.csv", tmp_path / "out")
    assert result.ok
    axis = np.unique(np.concatenate([meas.distances_km, prediction_grid(*grid)]))
    check_disaggs(tmp_path / "out", axis, [run.calibration for run in result.runs])
    assert len(list((tmp_path / "out").glob("disagg_*.csv"))) == len(kinds)
    assert len(list((tmp_path / "out").glob("profile_*.csv"))) == len(kinds)


def steep_fit(kind):
    """kind's basis with unit weights but for a log10 d weight of -4e9 dB: its
    calibrated cells reach 2e10 at 1e-5 km and -4e9 at 10 km, 16 characters,
    and stay above -1e9 in 1-1.5 km, 15 characters at most."""
    basis = build_basis(kind, TERRAIN)
    alpha = np.ones(len(basis))
    # term 1 is 20 log10 d for WI, 38 log10 d for W-BERT
    alpha[1] = -4e9 / basis.weights[1, 1]
    d = np.array([1.0])
    return Calibration(basis, alpha, len(basis), d, d)


def test_a_part_too_long_to_encode_goes_through_db_alone(tmp_path, monkeypatch):
    # part 0 holds a 2e10 cell in every file and a tie cell (1.03125); part 1
    # holds another tie (1.40625).  Each takes its text from _db, and only
    # part 0, whose 2e10 text is too long for a 16-byte slot, widens its
    # slots, which its profile rows take on; parts 1 and 2 hold -7e8 cells,
    # and their 16-byte slots hold those texts
    cals = [steep_fit(kind) for kind in ModelKind]
    axis = np.unique(np.concatenate([[1e-5, 1.03125, 1.40625], np.linspace(1.0, 1.5, 1400)]))
    assert 2 * PART < axis.size < 3 * PART
    assert list(np.searchsorted(axis, [1.03125, 1.40625]) // PART) == [0, 1]
    widths = counted_widths(monkeypatch)
    walked(tmp_path, axis, cals)
    assert widths[0] == ((PART, WIDTH), 17)
    assert [size for _, size in widths[1:]] == [16] * 5
    text = (tmp_path / "disagg_CWI-M.csv").read_text()
    assert "\n0.0000," in text and "\n1.0312," in text and "\n1.4062," in text
    assert any(len(cell) > SLOT_TEXT_MAX for cell in text.splitlines()[1].split(","))
    assert max(len(cell) for line in text.splitlines()[3:] for cell in line.split(",")) == 15


def test_wb_files_end_inside_a_part_too_long_to_encode(tmp_path, monkeypatch):
    # every model cell past 9.9 km reads -3.9e9 or below, 16 characters, so
    # the one part widens its slots, and the W-BERT files end inside it, at
    # sqrt(17 · 6) = 10.0995 km
    cals = [steep_fit(kind) for kind in ModelKind]
    axis = np.linspace(9.9, 10.3, 41)
    widths = counted_widths(monkeypatch)
    wb_rows = walked(tmp_path, axis, cals)[-1]
    assert len(wb_rows) == 20
    assert widths == [((41, WIDTH), 17), ((41, 1), 16)]


def test_packed_files_at_row_chunk_edges(tmp_path):
    # the first walk part's rows: the grid point 1.0, ROW_STEP - 2 samples at
    # 1.002 km, the grid point 2.5 km, then grid points to 10.3 km.  So both
    # of its row chunks start and end on a blank measured cell, the first
    # chunk's last calibrated cell is a long _db text among short numpy
    # ones, and the W-BERT files end inside the second chunk, at 10.0995 km
    cals = [steep_fit(kind) for kind in ModelKind]
    grid = np.concatenate([[1.0, 2.5], np.linspace(2.6, 10.3, PART - 3), np.linspace(10.4, 12, 50)])
    rng = np.random.default_rng(59)
    p = np.round(rng.uniform(80.0, 140.0, ROW_STEP - 2), 3)
    p[-1] = 1e15
    profiles = walked(tmp_path, grid, cals, MeasurementSet(np.full(p.size, 1.002), p))
    part_rows = ROW_STEP + PART - 3
    rows = profiles[0]
    assert [rows[i][1] for i in (0, ROW_STEP - 1, ROW_STEP, part_rows - 1)] == [""] * 4
    assert rows[ROW_STEP - 2][1] == _db(1e15)
    assert rows[part_rows - 1][0] == "10.3000" and rows[part_rows][0] == "10.4000"
    # numpy encodes a cell under 1e7 in magnitude, _db any longer one
    assert abs(float(rows[ROW_STEP - 2][3])) < 1e7
    assert len(rows[ROW_STEP - 1][3]) > SLOT_TEXT_MAX
    assert ROW_STEP < len(profiles[-1]) < part_rows - 1


def counted_encodes(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(
        report, "_encode", lambda block: calls.append(block.shape) or _encode(block)
    )
    return calls


def test_files_of_a_small_campaign_take_two_encodes(tmp_path, monkeypatch):
    # one for every model's disagg and profile cells at every axis point,
    # one for the measured cells of every row
    rng = np.random.default_rng(41)
    d = np.round(rng.uniform(0.1, 9.0, 150), 2)
    meas = MeasurementSet(d, 100.0 + 30.0 * np.log10(d) + rng.normal(0.0, 2.0, d.size))
    grid = prediction_grid(0.1, 12.0, 0.5)
    cals = [calibrate(kind, TERRAIN, meas) for kind in ModelKind]
    calls = counted_encodes(monkeypatch)
    walked(tmp_path, grid, cals, meas)
    axis = np.unique(np.concatenate([d, grid]))
    rows = d.size + np.setdiff1d(grid, d).size
    assert calls == [(axis.size, WIDTH), (rows, 1)]


def test_walk_encodes_part_by_part(tmp_path, monkeypatch):
    # each walk part, then the measured cells of its rows: one sample at the
    # first of 2·PART + 10 axis points, one row each
    calls = counted_encodes(monkeypatch)
    walked(tmp_path, np.linspace(0.05, 9.9, 2 * PART + 10), five_fits())
    assert calls == [(PART, WIDTH), (PART, 1)] * 2 + [(10, WIDTH), (10, 1)]


def test_walk_encodes_both_predictions_as_the_disagg_totals(tmp_path, monkeypatch):
    # each part's basic and calibrated totals are the nominal and the
    # calibrated prediction of its points bit for bit, the basic one within
    # 1e-12 dB of predict_basic, and the profile's basic and calibrated cells
    # are the disagg's totals in text, over parts that W-BERT's coverage ends
    # inside
    cals = five_fits()
    inside = np.linspace(0.05, 10.0, 2 * PART + 300)
    axis = np.concatenate([inside, np.linspace(10.2, 30.0, 900)])
    parts = []
    monkeypatch.setattr(
        report, "_encode", lambda block: parts.append(block.copy()) or _encode(block)
    )
    walked(tmp_path, axis, cals)
    cells = np.vstack([part for part in parts if part.shape[1] == WIDTH])
    assert cells.shape == (axis.size, WIDTH)
    lo = 0
    for cal in cals:
        groups = len(cal.basis.groups)
        hi = lo + 3 + 2 * groups
        end = inside.size if cal.kind is ModelKind.W_BERT else axis.size
        assert end % PART != 0
        for start in range(0, end, PART):
            points = axis[start : min(start + PART, end)]
            part = cells[start : start + points.size]
            assert np.array_equal(part[:, lo], points)
            assert np.array_equal(part[:, lo + 1 : hi], group_losses(cal, points))
            basic = part[:, lo + 1 + groups]
            assert np.array_equal(basic, cal.basis.evaluate(points, np.ones(len(cal.basis))))
            np.testing.assert_allclose(
                basic, predict_basic(cal.kind, TERRAIN, points), rtol=0.0, atol=1e-12
            )
            assert np.array_equal(part[:, hi - 1], predict_calibrated(cal, points))
        profile = (tmp_path / f"profile_{cal.kind.value}.csv").read_text().splitlines()[1:]
        disagg = (tmp_path / f"disagg_{cal.kind.value}.csv").read_text().splitlines()[1:]
        totals = [[line.split(",")[n] for n in (1 + groups, -1)] for line in disagg]
        assert [line.split(",")[2:] for line in profile] == totals
        lo = hi


def test_ill_conditioned_calibrated_cells_are_predict_calibrated(tmp_path):
    # a W-BERT fit from two samples 1e-8 km apart, near its 8.2462 km limit,
    # has group values of about 6e8 dB, whose sum prints otherwise than
    # predict_calibrated at some points; the profile's calibrated cells and
    # the disagg's calibrated totals are predict_calibrated's
    terrain = Terrain(f_mhz=150.0, w_m=20.0, b_m=30.0, phi_deg=30.0, dh_rx_m=12.0, dh_tx_m=4.0)
    meas = MeasurementSet([8.2, 8.2 + 1e-8], [120.0, 150.0])
    save_measurements(meas, tmp_path / "meas.csv")
    config = CampaignConfig(terrain, (ModelKind.W_BERT,), 0.01, 8.2, 0.001)
    result = run_calibration(config, tmp_path / "meas.csv", tmp_path / "out")
    assert result.ok
    cal = result.runs[0].calibration
    grid = prediction_grid(0.01, 8.2, 0.001)
    rows = checked_profiles(tmp_path / "out", meas, grid, [cal])[0]
    # one row per axis point: the grid holds 8.2 km, and the samples differ
    axis = np.unique(np.concatenate([meas.distances_km, grid]))
    fitted = [_db(v) for v in predict_calibrated(cal, axis).tolist()]
    assert [row[3] for row in rows] == fitted
    disagg = (tmp_path / "out" / "disagg_W-BERT.csv").read_text().splitlines()[1:]
    totals = [line.split(",")[-1] for line in disagg]
    assert max(abs(float(cell)) for line in disagg for cell in line.split(",")) > 1e8
    assert totals == fitted
    # the calibrated group columns, added in group order, print otherwise
    core, height, geometry, curvature = group_losses(cal, axis)[:, 5:9].T
    summed = [_db(v) for v in (((core + height) + geometry) + curvature).tolist()]
    assert summed != fitted


@pytest.mark.parametrize("width", [2, 3, 11])
def test_table_blocks_follow_the_cell_budget(width):
    rng = np.random.default_rng(width)
    step = _block_rows(width)
    n = 2 * step + 3
    columns = [np.sort(rng.uniform(0.1, 20.0, n))]
    columns += [rng.uniform(-300.0, 300.0, n) for _ in range(width - 1)]
    header = ",".join(f"c{i}" for i in range(width))
    text = table(header, columns)
    assert_same_text(text, reference_table(header, columns))
