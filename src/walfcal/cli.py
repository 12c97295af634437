"""Command-line front end: batch calibration runs and report files.

Inputs are a flat key=value campaign config (terrain, model list, prediction
grid, rank tolerance) and a two-column CSV of measurements.  calibrate fits
every configured variant, the four Walfisch-Ikegami ones from one shared
fold, and writes summary.csv plus per-model profile, disaggregation and
coefficient files; one model's failure goes to stderr and the exit status
without stopping the others.  predict evaluates a basic or saved calibrated
model over the grid; rank prints the numeric rank of each design matrix.
Only a grid is truncated at the Walfisch-Bertoni curvature limit, with a
warning; measured distances face calibrate's domain check in rank too.

Report cells use 4 decimals (negative zero prints as 0.0000), and identical
inputs give byte-identical files.  numpy encodes cells a block at a time
into fixed-width byte slots; a cell it cannot round with certainty (not
finite, 1e7 or more, or next to a .5 tie) takes its text from _db, so every
cell reads as f"{v:.4f}" does, and a block with a cell too long for its
slot goes cell by cell through _db.  Blocks are sized by cells, so the
encoder's temporaries stay in cache.  Once every model is fitted, one pass
over blocks of the report axis writes all disagg files and one more all
profile files, each model's cells encoded once per axis point; a profile
row's distance and measured cells pack as one byte run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import (
    RANK_TOL_DEFAULT,
    BasisSet,
    _check_rank_tol,
    build_basis,
    effective_rank,
)
from .calib import (
    Calibration,
    MeasurementSet,
    _fit,
    _fold,
    _group_values,
    _loss_table,
    calibrate,
    predict_calibrated,
)
from .errors import DomainError, ParseError, WalfcalError
from .metrics import MetricsReport
from .models import ModelKind, Terrain, _inside_wb_limit, predict_basic, wb_max_distance_km

__all__ = [
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

MEASUREMENT_HEADER = "distance_km,pathloss_db"

_TERRAIN_KEYS = ("f_mhz", "w_m", "b_m", "phi_deg", "dh_rx_m", "dh_tx_m")
_GRID_KEYS = ("d_min_km", "d_max_km", "d_step_km")
_CONFIG_KEYS = frozenset(_TERRAIN_KEYS) | frozenset(_GRID_KEYS) | {"models", "rank_tol"}
_REQUIRED_KEYS = _CONFIG_KEYS - {"rank_tol"}
_GRID_POINTS_MAX = 10_000_000


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: terrain, variants to fit, prediction grid, tolerances."""

    terrain: Terrain
    models: tuple[ModelKind, ...]
    d_min_km: float
    d_max_km: float
    d_step_km: float
    rank_tol: float = RANK_TOL_DEFAULT

    def __post_init__(self):
        if not self.models:
            raise DomainError("at least one model kind is required")
        for name in ("d_min_km", "d_max_km", "d_step_km"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
        if self.d_max_km < self.d_min_km:
            raise DomainError(
                f"d_max_km ({self.d_max_km!r}) must not be below d_min_km ({self.d_min_km!r})"
            )
        _check_rank_tol(self.rank_tol, "rank_tol")


def load_config(path) -> CampaignConfig:
    """Parse a key = value campaign file.

    Keys: f_mhz, w_m, b_m, phi_deg, dh_rx_m, dh_tx_m, models (comma-separated
    variant labels), d_min_km, d_max_km, d_step_km, rank_tol (optional).
    Blank lines and lines starting with # are ignored.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc

    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            known = ", ".join(sorted(_CONFIG_KEYS))
            raise ParseError(f"{path}:{lineno}: unknown key {key!r} (known: {known})")
        if key in raw:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = (value, lineno)

    missing = sorted(_REQUIRED_KEYS - raw.keys())
    if missing:
        raise ParseError(f"{path}: missing required key(s): {', '.join(missing)}")

    numbers: dict[str, float] = {}
    for key in (*_TERRAIN_KEYS, *_GRID_KEYS, "rank_tol"):
        if key not in raw:
            continue
        value, lineno = raw[key]
        try:
            numbers[key] = float(value)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: {key} must be a number, got {value!r}") from None

    models_value, models_line = raw["models"]
    labels = [token.strip() for token in models_value.split(",") if token.strip()]
    if not labels:
        raise ParseError(f"{path}:{models_line}: models list is empty")
    try:
        kinds = tuple(ModelKind.from_label(label) for label in labels)
    except DomainError as exc:
        raise ParseError(f"{path}:{models_line}: {exc}") from None

    terrain = Terrain(**{key: numbers[key] for key in _TERRAIN_KEYS})
    return CampaignConfig(
        terrain=terrain,
        models=kinds,
        d_min_km=numbers["d_min_km"],
        d_max_km=numbers["d_max_km"],
        d_step_km=numbers["d_step_km"],
        rank_tol=numbers.get("rank_tol", RANK_TOL_DEFAULT),
    )


def load_measurements(path) -> MeasurementSet:
    """Read a UTF-8 distance_km,pathloss_db CSV; errors carry 1-based line numbers.

    A leading byte-order mark, as spreadsheet exports write, is skipped.
    """
    path = Path(path)
    table = _read_measurements_fast(path)
    if table is None:
        distances, losses = _read_measurements_by_line(path)
    else:
        distances, losses = table.T.copy()
    return MeasurementSet(distances, losses)


# Line boundaries of str.splitlines beyond \n and \r, UTF-8 encoded.  numpy
# reads them as whitespace inside a cell, where the line parser splits there.
# The first five are one byte each, the only ones an ASCII file can hold.
_OTHER_LINE_BREAKS = tuple(ch.encode() for ch in "\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _header_ok(line: str) -> bool:
    return ",".join(cell.strip() for cell in line.split(",")) == MEASUREMENT_HEADER


def _read_measurements_fast(path: Path):
    """The n×2 table numpy reads, or None when only the line parser can decide.

    None on any doubt: an unreadable file, a line break numpy does not split
    at, a header or cell numpy rejects, a warning, no rows, or a value that is
    not finite and positive.  The line parser then accepts or rejects the file
    and words the error, so the fast path never accepts what it rejects.
    """
    try:
        data = path.read_bytes()
        if any(mark in data for mark in _OTHER_LINE_BREAKS[: 5 if data.isascii() else None]):
            return None
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as handle:
            if not _header_ok(handle.readline()):
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, Warning):
        return None
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] == 0:
        return None
    if not (np.isfinite(table).all() and (table > 0.0).all()):
        return None
    return table


def _read_measurements_by_line(path: Path) -> tuple[list[float], list[float]]:
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read measurements {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or not _header_ok(lines[0]):
        raise ParseError(f"{path}:1: expected header {MEASUREMENT_HEADER!r}")

    distances: list[float] = []
    losses: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 cells, got {len(cells)}")
        try:
            d = float(cells[0])
            p = float(cells[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric cell in {line!r}") from None
        if not (math.isfinite(d) and d > 0.0):
            raise ParseError(f"{path}:{lineno}: distance must be positive km, got {cells[0]}")
        if not (math.isfinite(p) and p > 0.0):
            raise ParseError(f"{path}:{lineno}: pathloss must be positive dB, got {cells[1]}")
        distances.append(d)
        losses.append(p)
    if not distances:
        raise ParseError(f"{path}: no data rows")
    return distances, losses


def save_measurements(meas: MeasurementSet, path) -> None:
    """Write a measurement set; load_measurements round-trips it exactly."""
    lines = [MEASUREMENT_HEADER]
    for d, p in zip(meas.distances_km, meas.pathloss_db):
        lines.append(f"{float(d)!r},{float(p)!r}")
    _write_text(Path(path), lines)


def prediction_grid(d_min_km: float, d_max_km: float, d_step_km: float) -> np.ndarray:
    """Inclusive arithmetic grid from d_min to d_max in steps of d_step, with no repeated point."""
    if d_step_km <= 0.0 or d_min_km <= 0.0 or d_max_km < d_min_km:
        raise DomainError("grid must satisfy 0 < d_min <= d_max with positive step")
    steps = (d_max_km - d_min_km) / d_step_km + 1e-9
    # checked before floor(), which fails on the inf a subnormal step gives
    if steps >= _GRID_POINTS_MAX:
        raise DomainError(f"d_step_km = {d_step_km!r} gives over {_GRID_POINTS_MAX} grid points")
    grid = d_min_km + d_step_km * np.arange(int(math.floor(steps)) + 1)
    if not (np.diff(grid) > 0.0).all():
        raise DomainError(
            f"d_step_km = {d_step_km!r} is below the spacing of doubles near "
            f"d_min_km = {d_min_km!r}: the grid would repeat points"
        )
    return grid


@dataclass(frozen=True)
class ModelRun:
    """Outcome for one variant: calibration and metrics, or an error."""

    kind: ModelKind
    calibration: Calibration | None
    metrics: MetricsReport | None
    warnings: tuple[str, ...] = ()
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class CampaignResult:
    """All per-model runs of one campaign plus where the files went."""

    config: CampaignConfig
    measurements: MeasurementSet
    runs: tuple[ModelRun, ...]
    output_dir: Path

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)


def _db(value: float) -> str:
    """A report cell: value to 4 decimals, with negative zero as 0.0000."""
    cell = f"{value:.4f}"
    return "0.0000" if cell == "-0.0000" else cell


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", newline="\n")


# A report cell is encoded in a 16-byte slot: integer digits right-aligned at
# bytes 0..7 with the sign in the byte before the leading one, "." at 8, four
# decimals at 9..12 and the separator at _SEP.  The cell's text is the slot
# from its start byte through _SEP; _KEEP[first, last] is the keep mask of a
# slot's bytes first..last.
_SLOT = np.dtype("V16")
_SEP = 13
_BYTE = np.arange(16)
_KEEP = ((_BYTE >= _BYTE[:, None, None]) & (_BYTE <= _BYTE[:, None])).view(_SLOT)[..., 0]
# _MINUS[lead] turns the "0" at byte lead - 1 of a slot's first word into
# "-"; _MINUS[0] changes nothing
_MINUS = np.array([0] + [(ord("0") - ord("-")) << 8 * byte for byte in range(7)], dtype="<u8")
# below this magnitude q = rint(v·1e4) < 1e11: at most 7 integer digits, so a
# minus sign always has a byte in front of them
_SLOT_MAX = 9_999_999.9999
# cells per encoded block: _encode's per-cell cost about doubles once its
# temporaries outgrow a core's L2 cache, as an 8192 × 11 block's do
_BLOCK_CELLS = 32_768


def _block_rows(width: int) -> int:
    """Rows per block of a table width cells wide: at most _BLOCK_CELLS cells, at least 1."""
    return max(1, _BLOCK_CELLS // width)


@functools.cache
def _digit_tables():
    """By 4-digit group k, built on first use: k's ASCII digits as a
    little-endian word, and the digit count of an integer part whose low or
    whose high group k is.

    These are 40 kB and 10 kB.  An 80 kB table, made once the fits had grown
    the heap, raised the peak RSS of a 100 000-row run by 2.5 MB.
    """
    k = np.arange(10_000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    quad = (digits + ord("0")).astype(np.uint8).view("<u4").ravel()
    low_count = (1 + (k >= 10) + (k >= 100) + (k >= 1000)).astype(np.uint8)
    high_count = np.where(k > 0, low_count + 4, 0).astype(np.uint8)
    return quad, low_count, high_count


def _encode(block: np.ndarray):
    """Slots, (n, c) of _SLOT, of an (n, c) float block's cells as _db prints
    them, and each one's text start byte; None if a text is too long for a slot.

    numpy rounds a cell with |v| < _SLOT_MAX whose v·1e4 lies more than a few
    ulp off a .5 tie: v·1e4 is computed to within |v·1e4|·2^-53, so there
    rint rounds it as the exact decimal value of v rounds.  Any other cell
    (a tie, not finite, or larger) takes its text from _db.  Each temporary
    is freed once spent.
    """
    scaled = np.abs(block)
    odd = ~(scaled < _SLOT_MAX)
    if odd.any():
        scaled[odd] = 0.0
    scaled *= 1e4
    q = np.rint(scaled)
    margin = scaled * 2.0**-50
    scaled -= q
    np.abs(scaled, out=scaled)
    scaled += margin
    odd |= scaled >= 0.5
    del scaled, margin
    # a cell that rounds to zero has no sign
    negative = (block < 0.0) & (q > 0.0)
    # q < 1e11 is an integer, so a quotient below is off the next integer
    # by 1e-4 or more and its floor is exact
    whole = q / 1e4
    np.floor(whole, out=whole)
    q -= whole * 1e4
    frac = q.astype(np.intp)
    del q
    high = whole / 1e4
    np.floor(high, out=high)
    whole -= high * 1e4
    hi, lo = high.astype(np.intp), whole.astype(np.intp)
    del whole, high
    quad, low_count, high_count = _digit_tables()
    words = np.empty(block.shape + (2,), dtype="<u8")
    decimals = quad[frac].astype("<u8")
    del frac
    decimals <<= 8
    decimals |= ord(".") | ord(",") << 40
    words[..., 1] = decimals
    del decimals
    halves = words.view("<u4")
    halves[..., 0] = quad[hi]
    halves[..., 1] = quad[lo]
    lead = 8 - np.maximum(high_count[hi], low_count[lo])
    del hi, lo
    words[..., 0] -= _MINUS[lead * negative]
    slots, first = words.view(_SLOT)[..., 0], lead - negative
    if odd.any():
        texts = [_db(v) for v in block[odd].tolist()]
        if max(map(len, texts)) > _SEP:
            return None
        # right-aligned before the separator, whatever the layout of the text
        slots[odd] = np.array([f"{t:>{_SEP}}," for t in texts], dtype="S16").view(_SLOT)
        first[odd] = [_SEP - len(t) for t in texts]
    return slots, first


def _row_bytes(slots: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The kept bytes of (n, c) cell slots, each row ending in a newline."""
    data = slots.view(np.uint8).reshape(*slots.shape, _SLOT.itemsize)
    data[:, -1, _SEP] = ord("\n")
    return data[keep.view(bool).reshape(data.shape)]


def _db_rows(values: np.ndarray) -> str:
    """Rows of values formatted cell by cell through _db."""
    return "".join(",".join(map(_db, row)) + "\n" for row in values.tolist())


def _write_table(out, header: str, d: np.ndarray, columns_of) -> None:
    """Write a header line, then one row per distance in d, its cells as _db
    formats them: the distance, then that row of columns_of(d).

    columns_of is evaluated on one _block_rows block of d at a time, so no
    value array over all of d is built.
    """
    out.write(header + "\n")
    step = _block_rows(header.count(",") + 1)
    for start in range(0, d.size, step):
        chunk = d[start : start + step]
        block = np.column_stack([chunk, columns_of(chunk)])
        cells = _encode(block)
        if cells is None:
            out.write(_db_rows(block))
            continue
        del block  # not needed past the encoder; freed before the rows are packed
        out.write(str(_row_bytes(cells[0], _KEEP[cells[1], _SEP]), "ascii"))


def _model_distances(kind: ModelKind, terrain: Terrain, d: np.ndarray):
    """The distances a model covers, and a warning if any were dropped.

    All of d, or for W-BERT those inside its curvature limit: on a sorted
    axis a prefix, which holds every measured distance of a fit.
    """
    if kind is not ModelKind.W_BERT:
        return d, None
    kept = d[_inside_wb_limit(d, terrain.dh_tx_m)]
    dropped = d.size - kept.size
    if not dropped:
        return kept, None
    return kept, (
        f"{kind.value}: grid truncated at the curvature limit "
        f"{wb_max_distance_km(terrain.dh_tx_m):.4f} km ({dropped} of {d.size} points dropped)"
    )


def _profile_rows(axis: np.ndarray, inverse: np.ndarray, meas: MeasurementSet):
    """Axis index and measured sample (-1 for none) of each profile row.

    Rows are sorted by distance, duplicate measured distances keep their
    input order, and a grid point equal to a measured distance is not
    repeated.  axis and inverse are what np.unique returns, with
    return_inverse, for the measured distances followed by the grid.
    """
    n = len(meas)
    counts = np.bincount(inverse[:n], minlength=axis.size)
    sampled = counts > 0
    # the other axis points are grid points, one row per grid entry
    on_grid = inverse[n:]
    np.add.at(counts, on_grid[~sampled[on_grid]], 1)
    rows = np.repeat(np.arange(axis.size), counts)
    del counts
    # axis index · n + sample is unique, so a plain sort orders the samples
    # by axis index and, within one, by input order
    order = inverse[:n] * n
    order += np.arange(n)
    order.sort()
    np.remainder(order, n, out=order)
    sample = np.full(rows.size, -1)
    sample[sampled[rows]] = order
    return rows, sample


def _joined(d, d_first, m, m_first):
    """Slots and masks, (n, 2), of distance cells d moved to end at byte 15
    and measured cells m moved to start at byte 0, so a row packs as one run
    "d,m,", or "d,," where m_first is _SEP."""
    (d_lo, d_hi), (m_lo, m_hi) = np.stack([d, m])[..., None].view("<u8").transpose(0, 2, 1)
    bits = m_first.astype("<u8") << 3
    # numpy shifts by 64 bits or more to 0, and a count below 0 wraps above 64
    m_lo = m_lo >> bits | m_hi << (64 - bits) | m_hi >> (bits - 64)
    words = np.stack([d_lo << 16, d_hi << 16 | d_lo >> 48, m_lo, m_hi >> bits], axis=1)
    return words.view(_SLOT), np.stack([_KEEP[d_first + 2, 15], _KEEP[0, _SEP - m_first]], axis=1)


def _profile_text(rows, col, p, has) -> bytes:
    """Profile rows through _db: distance, measured p where has, block columns col, col + 1."""
    cells = zip(rows[:, 0].tolist(), p.tolist(), has.tolist(), rows[:, col : col + 2].tolist())
    return "".join(
        f"{_db(d)},{_db(m) if shown else ''},{_db(b)},{_db(c)}\n" for d, m, shown, (b, c) in cells
    ).encode("ascii")


def _write_profiles(
    out_dir: Path, axis: np.ndarray, inverse: np.ndarray, meas: MeasurementSet, cals
) -> None:
    """Write the profile files of the fitted models in one pass over blocks
    of axis, the report axis, with inverse as _profile_rows takes it.

    One _encode takes an axis block, [d | basic, calibrated of model 1 | ...],
    each model evaluated on the points of its _model_distances, and one more
    the measured cells of each chunk of the block's rows.  Rows pack "d,m,"
    as one _joined run; each file takes its basic and calibrated slots and
    masks by axis index in one take.  A chunk with a cell too long for its
    slot goes cell by cell through _db.
    """
    axis_rows, axis_sample = _profile_rows(axis, inverse, meas)
    ends = [_model_distances(cal.kind, cal.terrain, axis)[0].size for cal in cals]
    row_ends = np.searchsorted(axis_rows, ends).tolist()
    total, width = max(ends, default=0), 1 + 2 * len(cals)
    with contextlib.ExitStack() as stack:
        paths = [out_dir / f"profile_{cal.kind.value}.csv" for cal in cals]
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for out in files:
            out.write(b"distance_km,measured_db,basic_db,calibrated_db\n")
        for start in range(0, total, _block_rows(width)):
            d = axis[start : min(start + _block_rows(width), total)]
            # points past a model's end are encoded as zeros, for no file
            block = np.column_stack([d, np.zeros((d.size, width - 1))])
            for m, (cal, end) in enumerate(zip(cals, ends)):
                if covered := min(max(end - start, 0), d.size):
                    block[:covered, 1 + 2 * m] = predict_basic(cal.kind, cal.terrain, d[:covered])
                    block[:covered, 2 + 2 * m] = predict_calibrated(cal, d[:covered])
            cells = _encode(block)
            if cells is not None:
                slots, first = cells
                # model m's basic and calibrated slots, then their masks
                pairs = np.stack([slots[:, 1:], _KEEP[first[:, 1:], _SEP]], axis=1)
                pairs = pairs.reshape(d.size, 2, -1, 2).transpose(2, 1, 0, 3).copy()
            lo_row, hi_row = np.searchsorted(axis_rows, [start, start + d.size]).tolist()
            for a in range(lo_row, hi_row, _block_rows(4)):
                local = axis_rows[a : min(a + _block_rows(4), hi_row)] - start
                has = axis_sample[a : a + local.size] >= 0
                measured = np.where(has, meas.pathloss_db[axis_sample[a : a + local.size]], 0.0)
                counts = [min(max(end - a, 0), local.size) for end in row_ends]
                shown = None if cells is None else _encode(measured[:, None])
                if shown is None:
                    for m, (count, out) in enumerate(zip(counts, files)):
                        out.write(_profile_text(block[local[:count]], 1 + 2 * m, measured, has))
                    continue
                # slots in row[0], masks in row[1]: distance, measured, basic, calibrated
                row = np.empty((2, local.size, 4), dtype=_SLOT)
                d_cells = np.take(slots[:, 0], local), first[local, 0]
                m_first = np.where(has, shown[1][:, 0], _SEP)
                row[:, :, :2] = _joined(*d_cells, shown[0][:, 0], m_first)
                for m, (count, out) in enumerate(zip(counts, files)):
                    row[:, :count, 2:] = np.take(pairs[m], local[:count], axis=1)
                    out.write(_row_bytes(row[0, :count], row[1, :count]))


def _write_disaggs(out_dir: Path, axis: np.ndarray, cals) -> None:
    """Write the disagg files of the fitted models in one pass over blocks of
    the report axis.

    Each model's file covers the rows of its _model_distances.  A block
    evaluates Φ once, each row by the widest basis that covers it, and each
    model's value columns as Φ @ C, with C its _loss_table, as group_losses
    does.  One _encode serves the whole block, laid out as [d | model 1's
    columns | d | model 2's columns | ...], and each file packs its rows from
    its own column range.  A block _encode cannot take goes cell by cell
    through _db, in every file with rows in it.
    """
    if not cals:
        return
    tables = [_loss_table(cal) for cal in cals]
    bounds = np.cumsum([0] + [1 + table.shape[1] for table in tables]).tolist()
    ends = [_model_distances(cal.kind, cal.terrain, axis)[0].size for cal in cals]
    # rows up to the widest basis's end need its features, the rest only the
    # leading ones, which every basis writes alike
    by_width = sorted(range(len(cals)), key=lambda m: len(cals[m].basis.weights))
    narrow, wide = cals[by_width[0]].basis, cals[by_width[-1]].basis
    wide_end = ends[by_width[-1]]
    step = _block_rows(bounds[-1])
    total = max(ends)
    phi = np.empty((min(total, step), len(wide.weights)))
    block = np.empty((len(phi), bounds[-1]))
    with contextlib.ExitStack() as stack:
        files = []
        for cal in cals:
            out = stack.enter_context(open(out_dir / f"disagg_{cal.kind.value}.csv", "wb"))
            groups = cal.basis.groups
            header = ["distance_km", *(f"basic_{g}_db" for g in groups), "basic_total_db"]
            header += [*(f"calibrated_{g}_db" for g in groups), "calibrated_total_db"]
            out.write((",".join(header) + "\n").encode("ascii"))
            files.append(out)
        for start in range(0, total, step):
            chunk = axis[start : min(start + step, total)]
            size = chunk.size
            split = min(max(wide_end - start, 0), size)
            wide._fill(chunk[:split], phi[:split])
            narrow._fill(chunk[split:], phi[split:size])
            counts = [min(max(end - start, 0), size) for end in ends]
            for cal, table, lo, hi, count in zip(cals, tables, bounds, bounds[1:], counts):
                block[:count, lo] = chunk[:count]
                block[:count, lo + 1 : hi] = _group_values(
                    phi[:count, : len(cal.basis.weights)], table
                )
                # rows past a model's end are encoded but written to no file;
                # zeros there keep a stale cell from failing the block's encode
                block[count:size, lo:hi] = 0.0
            cells = _encode(block[:size])
            keep = None if cells is None else _KEEP[cells[1], _SEP]
            for out, lo, hi, count in zip(files, bounds, bounds[1:], counts):
                if not count:
                    continue
                if cells is None:
                    out.write(_db_rows(block[:count, lo:hi]).encode("ascii"))
                else:
                    out.write(_row_bytes(cells[0][:count, lo:hi], keep[:count, lo:hi]))


def _write_coefficients(path, cal) -> None:
    lines = [f"# model={cal.kind.value} rank={cal.rank} n_functions={len(cal.basis)}"]
    lines.append("index,label,group,coefficient")
    for index, ((label, group, _, _), a) in enumerate(zip(cal.basis.terms, cal.alpha)):
        lines.append(f"{index},{label},{group},{float(a)!r}")
    _write_text(path, lines)


def _write_summary(path, runs) -> None:
    lines = ["model,rmse_basic_db,mpe_basic_db,rmse_calibrated_db,mpe_calibrated_db,improvement_pct"]
    for run in runs:
        if not run.ok:
            continue
        m = run.metrics
        gain = "" if m.improvement_pct is None else _db(m.improvement_pct)
        lines.append(
            f"{run.kind.value},{_db(m.rmse_basic_db)},{_db(m.mpe_basic_db)},"
            f"{_db(m.rmse_db)},{_db(m.mpe_db)},{gain}"
        )
    _write_text(path, lines)


def _run_one(kind, config, meas, grid, out_dir, wi_fold) -> ModelRun:
    """Fit one model and write its coefficient file; its profile and disagg
    files are written with the other models' once all are fitted.

    The Walfisch-Ikegami variants share Φ, so wi_fold() returns the one fold
    of [Φ | p] they all solve from.  W-BERT, alone with its Φ, is fitted by
    calibrate.
    """
    try:
        if kind is ModelKind.W_BERT:
            cal = calibrate(kind, config.terrain, meas, cutoff=config.rank_tol)
        else:
            cal = _fit(build_basis(kind, config.terrain), wi_fold(), meas, config.rank_tol)
        basic_at_meas = predict_basic(kind, config.terrain, meas.distances_km)
        report = MetricsReport.from_series(meas.pathloss_db, cal.fitted_db, basic_at_meas)
        _, warning = _model_distances(kind, config.terrain, grid)
        _write_coefficients(out_dir / f"coefficients_{kind.value}.csv", cal)
        return ModelRun(kind, cal, report, (warning,) if warning else ())
    except WalfcalError as exc:
        return ModelRun(kind, None, None, error=f"{kind.value}: {exc}")


def run_calibration(config: CampaignConfig, measurements_path, output_dir) -> CampaignResult:
    """Fit every configured variant to the measurements and write the report
    files into output_dir.

    Models fail independently: a domain violation in one is recorded on its
    ModelRun while the remaining variants still produce their files.
    """
    meas = load_measurements(measurements_path)
    grid = prediction_grid(config.d_min_km, config.d_max_km, config.d_step_km)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the report axis: the sorted distinct distances of measured ∪ grid
    axis, inverse = np.unique(np.concatenate([meas.distances_km, grid]), return_inverse=True)
    # every WI variant has the Φ of CWI-M, so its fold serves all four
    wi_basis = build_basis(ModelKind.CWI_M, config.terrain)
    wi_fold = functools.cache(
        functools.partial(_fold, wi_basis, meas.distances_km, meas.pathloss_db)
    )
    runs = tuple(_run_one(kind, config, meas, grid, out_dir, wi_fold) for kind in config.models)
    cals = [run.calibration for run in runs if run.ok]
    _write_disaggs(out_dir, axis, cals)
    _write_profiles(out_dir, axis, inverse, meas, cals)
    _write_summary(out_dir / "summary.csv", runs)
    return CampaignResult(config=config, measurements=meas, runs=runs, output_dir=out_dir)


def load_coefficients(path, basis: BasisSet | None = None) -> tuple[ModelKind | None, np.ndarray]:
    """Read a coefficients file back; returns (kind or None, alpha by index).

    Coefficients must be finite.  Given the basis they will be used with, the
    file must also match it: same model, one row per term, and each row's
    label and group equal to that term's (DomainError otherwise).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read coefficients {path}: {exc}") from exc
    kind: ModelKind | None = None
    rows: dict[int, tuple[int, tuple[str, ...], float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            for token in stripped[1:].split():
                if token.startswith("model="):
                    try:
                        kind = ModelKind.from_label(token.removeprefix("model="))
                    except DomainError as exc:
                        raise ParseError(f"{path}:{lineno}: {exc}") from None
            continue
        if stripped.startswith("index,"):
            continue
        cells = stripped.split(",")
        if len(cells) < 2:
            raise ParseError(f"{path}:{lineno}: expected index,...,coefficient")
        try:
            index = int(cells[0])
            value = float(cells[-1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: malformed coefficient row {line!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"{path}:{lineno}: coefficient must be finite, got {cells[-1]}")
        if index in rows:
            raise ParseError(f"{path}:{lineno}: duplicate index {index}")
        rows[index] = (lineno, tuple(cells[1:-1]), value)
    if not rows:
        raise ParseError(f"{path}: no coefficient rows")
    if sorted(rows) != list(range(len(rows))):
        raise ParseError(f"{path}: coefficient indices must cover 0..{len(rows) - 1}")
    if basis is not None:
        model = basis.kind.value
        if kind not in (None, basis.kind):
            raise DomainError(f"coefficients were saved for {kind.value}, not {model}")
        if len(rows) != len(basis):
            raise DomainError(f"{model} needs {len(basis)} coefficients, file has {len(rows)}")
        for index, (label, group, _, _) in enumerate(basis.terms):
            lineno, tags, _ = rows[index]
            if tags != (label, group):
                raise DomainError(
                    f"{path}:{lineno}: term {index} reads {','.join(tags)!r}, "
                    f"but {model} term {index} is {label},{group}"
                )
    return kind, np.array([rows[i][2] for i in range(len(rows))])


def _summary_line(run: ModelRun) -> str:
    m = run.metrics
    gain = "n/a" if m.improvement_pct is None else f"{m.improvement_pct:.2f}%"
    return (
        f"{run.kind.value:8s} rmse_basic={_db(m.rmse_basic_db)} "
        f"rmse_calibrated={_db(m.rmse_db)} mpe={_db(m.mpe_db)} improvement={gain}"
    )


def _cmd_calibrate(args) -> int:
    config = load_config(args.config)
    result = run_calibration(config, args.measurements, args.output_dir)
    for run in result.runs:
        for warning in run.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if run.ok:
            print(_summary_line(run))
        else:
            print(f"error: {run.error}", file=sys.stderr)
    print(f"reports written to {result.output_dir}")
    return 0 if result.ok else 1


def _cmd_predict(args) -> int:
    config = load_config(args.config)
    kind = ModelKind.from_label(args.model)
    grid = prediction_grid(config.d_min_km, config.d_max_km, config.d_step_km)
    grid, warning = _model_distances(kind, config.terrain, grid)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    if grid.size == 0:
        raise DomainError(
            f"entire grid lies beyond the curvature limit "
            f"{wb_max_distance_km(config.terrain.dh_tx_m):.4f} km"
        )
    if args.coefficients:
        basis = build_basis(kind, config.terrain)
        _, alpha = load_coefficients(args.coefficients, basis)
        values_of = functools.partial(basis.evaluate, weights=alpha)
    else:
        values_of = functools.partial(predict_basic, kind, config.terrain)
    header = "distance_km,pathloss_db"
    if args.output:
        with open(args.output, "w", newline="\n") as out:
            _write_table(out, header, grid, values_of)
        print(f"predictions written to {args.output}")
    else:
        _write_table(sys.stdout, header, grid, values_of)
    return 0


def _cmd_rank(args) -> int:
    config = load_config(args.config)
    tol = config.rank_tol if args.tol is None else _check_rank_tol(args.tol, "--tol")
    if args.measurements:
        # measured distances face calibrate's domain check; only a grid is truncated
        distances = load_measurements(args.measurements).distances_km
    else:
        distances = prediction_grid(config.d_min_km, config.d_max_km, config.d_step_km)
    failed = False
    for kind in config.models:
        model_d = distances
        if not args.measurements:
            model_d, warning = _model_distances(kind, config.terrain, distances)
            if warning:
                print(f"warning: {warning}", file=sys.stderr)
            if model_d.size == 0:
                print(
                    f"error: {kind.value}: no grid distances inside the curvature domain",
                    file=sys.stderr,
                )
                failed = True
                continue
        basis = build_basis(kind, config.terrain)
        try:
            # R·M has the rank and singular values of Φ·M
            reduced = _fold(basis, model_d) @ basis.weights
        except WalfcalError as exc:
            print(f"error: {kind.value}: {exc}", file=sys.stderr)
            failed = True
            continue
        rank = effective_rank(reduced, tol)
        print(
            f"{kind.value}: rank={rank} (rows={model_d.size}, functions={len(basis)}, tol={tol:g})"
        )
    return 1 if failed else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: each build leaves
    reference cycles that only the cyclic garbage collector frees."""
    parser = argparse.ArgumentParser(
        prog="walfcal",
        description="Calibrate Walfisch-type pathloss models against field measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit every configured model and write report files")
    p.add_argument("--config", required=True, help="campaign key=value file")
    p.add_argument("--measurements", required=True, help="distance_km,pathloss_db CSV")
    p.add_argument("--output-dir", required=True, help="directory for the report files")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("predict", help="evaluate a basic or saved calibrated model on the grid")
    p.add_argument("--config", required=True, help="campaign key=value file")
    p.add_argument("--model", required=True, help="model label, e.g. CWI-M or W-BERT")
    p.add_argument("--coefficients", help="coefficients CSV from a calibrate run")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("rank", help="print the numeric rank of each design matrix")
    p.add_argument("--config", required=True, help="campaign key=value file")
    p.add_argument("--measurements", help="use these distances instead of the grid")
    p.add_argument("--tol", type=float, help="relative singular-value threshold")
    p.set_defaults(handler=_cmd_rank)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except WalfcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
