"""Command-line front end: batch calibration runs and report files.

Inputs are a flat key=value campaign config (terrain, model list, prediction
grid, rank tolerance) and a two-column CSV of measurements.  The calibrate
subcommand fits every configured variant and writes summary.csv plus
per-model profile, disaggregation, and coefficient files into the output
directory; predict evaluates a basic or saved calibrated model over the
grid; rank prints the numeric rank of each design matrix.  Measured
distances face the same domain check in rank as in calibrate; only a grid
is truncated at the Walfisch-Bertoni curvature limit, with a warning.

All numeric report cells use 4 decimals (negative zero prints as 0.0000),
and identical inputs produce byte-identical output files.  Report tables are
encoded (disagg and predict tables also evaluated) by numpy a chunk of rows
at a time, into fixed-width byte slots; a cell numpy cannot round with
certainty (not finite, 1e7 or more, or next to a .5 tie) takes its text from
_db, so every cell reads as f"{v:.4f}" does.
Only a chunk holding a cell too long for its slot (|v| of about 1e7 or more,
at least 14 characters) is formatted cell by cell.  One model's failure
(for example measurement distances beyond the Walfisch-Bertoni curvature
limit) is reported on stderr and reflected in the exit status without
aborting the other models.
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

from .basis import RANK_TOL_DEFAULT, BasisSet, _check_rank_tol, build_basis, effective_rank
from .calib import (
    Calibration,
    MeasurementSet,
    _reduced_system,
    calibrate,
    group_losses,
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
_CHUNK_ROWS = 8192


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
        if any(mark in data for mark in _OTHER_LINE_BREAKS):
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
# from its start byte through _SEP, picked by _KEEP[start]; a blank cell is
# its separator alone.
_SLOT = np.dtype("V16")
_SEP = 13
_KEEP = (np.arange(16) >= np.arange(16)[:, None]) & (np.arange(16) <= _SEP)
_KEEP = _KEEP.view(_SLOT).ravel()
# _MINUS[lead] turns the "0" at byte lead - 1 of a slot's first word into
# "-"; _MINUS[0] changes nothing
_MINUS = np.array([0] + [(ord("0") - ord("-")) << 8 * byte for byte in range(7)], dtype="<u8")
# below this magnitude q = rint(v·1e4) < 1e11: at most 7 integer digits, so a
# minus sign always has a byte in front of them
_SLOT_MAX = 9_999_999.9999


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
    """Slots and keep masks, both (n, c) of _SLOT, of an (n, c) float block's
    cells as _db prints them; None when a cell's text is too long for a slot.

    numpy rounds a cell with |v| < _SLOT_MAX whose v·1e4 lies more than a few
    ulp off a .5 tie: v·1e4 is computed to within |v·1e4|·2^-53, so there
    rint rounds it as the exact decimal value of v rounds.  Any other cell
    (a tie, not finite, or larger) takes its text from _db.  Each temporary
    is freed once spent: a chunk of 8192 × 11 cells takes 0.7 MB per float
    array.
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
    slots, keep = words.view(_SLOT)[..., 0], _KEEP[lead - negative]
    if odd.any():
        texts = [_db(v) for v in block[odd].tolist()]
        if max(map(len, texts)) > _SEP:
            return None
        # right-aligned before the separator, whatever the layout of the text
        slots[odd] = np.array([f"{t:>{_SEP}}," for t in texts], dtype="S16").view(_SLOT)
        keep[odd] = _KEEP[[_SEP - len(t) for t in texts]]
    return slots, keep


def _row_bytes(slots: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The kept bytes of (n, c) cell slots, each row ending in a newline."""
    data = slots.view(np.uint8).reshape(*slots.shape, _SLOT.itemsize)
    data[:, -1, _SEP] = ord("\n")
    return data[keep.view(bool).reshape(data.shape)]


def _write_table(out, header: str, d: np.ndarray, columns_of) -> None:
    """Write a header line, then one row per distance in d, its cells as _db
    formats them: the distance, then that row of columns_of(d).

    columns_of is evaluated on one _CHUNK_ROWS chunk of d at a time, so no
    value array over all of d is built.
    """
    out.write(header + "\n")
    for start in range(0, d.size, _CHUNK_ROWS):
        chunk = d[start : start + _CHUNK_ROWS]
        block = np.column_stack([chunk, columns_of(chunk)])
        cells = _encode(block)
        if cells is None:
            out.write("".join(",".join(map(_db, row)) + "\n" for row in block.tolist()))
            continue
        del block  # not needed past the encoder; freed before the rows are packed
        out.write(str(_row_bytes(*cells), "ascii"))


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


def _profile_rows(axis: np.ndarray, meas: MeasurementSet, grid: np.ndarray):
    """Axis index and measured sample (-1 for none) of each profile row.

    Rows are sorted by distance, duplicate measured distances keep their
    input order, and a grid point equal to a measured distance is not
    repeated.
    """
    order = np.argsort(meas.distances_km, kind="stable")
    counts = np.bincount(np.searchsorted(axis, meas.distances_km[order]), minlength=axis.size)
    sampled = counts > 0
    # the other axis points are grid points, one row per grid entry
    on_grid = np.searchsorted(axis, grid)
    np.add.at(counts, on_grid[~sampled[on_grid]], 1)
    rows = np.repeat(np.arange(axis.size), counts)
    del counts
    sample = np.full(rows.size, -1)
    sample[sampled[rows]] = order
    return rows, sample


def _profile_text(prefix: np.ndarray, has: np.ndarray, values: np.ndarray) -> bytes:
    """Profile rows formatted cell by cell through _db."""
    return "".join(
        f"{_db(d)},{_db(m) if shown else ''},{_db(b)},{_db(c)}\n"
        for (d, m), shown, (b, c) in zip(prefix.tolist(), has.tolist(), values.tolist())
    ).encode("ascii")


def _write_profiles(out_dir: Path, axis: np.ndarray, meas: MeasurementSet, grid, cals) -> None:
    """Write the profile files of the fitted models in one pass over chunks of
    the rows they share.

    axis is the report axis, the sorted distinct distances of measured ∪
    grid.  Each model is evaluated once per point of its _model_distances,
    and its file ends at the last row on it.  Per chunk, the distance and
    measured cells are encoded once for all models, and each model's basic
    and calibrated cells once per axis point of the chunk's window; rows
    gather them by axis index into one chunk buffer.
    """
    tables = []
    for cal in cals:
        d, _ = _model_distances(cal.kind, cal.terrain, axis)
        basic = predict_basic(cal.kind, cal.terrain, d)
        tables.append(np.column_stack([basic, predict_calibrated(cal, d)]))
    axis_rows, axis_sample = _profile_rows(axis, meas, grid)
    ends = [int(np.searchsorted(axis_rows, len(values))) for values in tables]
    with contextlib.ExitStack() as stack:
        files = [
            stack.enter_context(open(out_dir / f"profile_{cal.kind.value}.csv", "wb"))
            for cal in cals
        ]
        for out in files:
            out.write(b"distance_km,measured_db,basic_db,calibrated_db\n")
        for start in range(0, max(ends, default=0), _CHUNK_ROWS):
            rows = axis_rows[start : start + _CHUNK_ROWS]
            sample = axis_sample[start : start + _CHUNK_ROWS]
            has = sample >= 0
            prefix = np.column_stack([axis[rows], np.where(has, meas.pathloss_db[sample], 0.0)])
            shared = _encode(prefix)
            slots = np.empty((rows.size, 4), dtype=_SLOT)
            keep = np.empty_like(slots)
            if shared is not None:
                slots[:, :2], keep[:, :2] = shared
                # a grid row's measured cell is blank
                keep[~has, 1] = _KEEP[_SEP]
            low = int(rows[0])
            for values, end, out in zip(tables, ends, files):
                count = min(end - start, rows.size)
                if count <= 0:
                    continue
                local = rows[:count] - low
                window = values[low : low + int(local[-1]) + 1]
                cells = None if shared is None else _encode(window)
                if cells is None:
                    out.write(_profile_text(prefix[:count], has[:count], window[local]))
                    continue
                slots[:count, 2:] = np.take(cells[0], local, axis=0)
                keep[:count, 2:] = np.take(cells[1], local, axis=0)
                out.write(_row_bytes(slots[:count], keep[:count]))


def _write_disagg(path, cal, distances_km) -> None:
    groups = cal.basis.groups
    header = ["distance_km"]
    header += [f"basic_{g}_db" for g in groups] + ["basic_total_db"]
    header += [f"calibrated_{g}_db" for g in groups] + ["calibrated_total_db"]
    with open(path, "w", newline="\n") as out:
        _write_table(out, ",".join(header), distances_km, lambda d: group_losses(cal, d))


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


def _run_one(kind, config, meas, grid, axis, out_dir) -> ModelRun:
    """Fit one model and write its disagg and coefficient files; its profile
    is written with the other models' once all are fitted."""
    try:
        cal = calibrate(kind, config.terrain, meas, cutoff=config.rank_tol)
        basic_at_meas = predict_basic(kind, config.terrain, meas.distances_km)
        report = MetricsReport.from_series(meas.pathloss_db, cal.fitted_db, basic_at_meas)
        _, warning = _model_distances(kind, config.terrain, grid)
        covered, _ = _model_distances(kind, config.terrain, axis)
        _write_disagg(out_dir / f"disagg_{kind.value}.csv", cal, covered)
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
    axis = np.unique(np.concatenate([meas.distances_km, grid]))
    runs = tuple(_run_one(kind, config, meas, grid, axis, out_dir) for kind in config.models)
    _write_profiles(out_dir, axis, meas, grid, [run.calibration for run in runs if run.ok])
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
            _, _, reduced = _reduced_system(basis, model_d)
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
