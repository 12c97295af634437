"""Command-line front end: batch calibration runs and report files.

Inputs are a flat key=value campaign config (terrain, model list, prediction
grid, rank tolerance) and a two-column CSV of measurements.  The calibrate
subcommand fits every configured variant and writes summary.csv plus
per-model profile, disaggregation, and coefficient files into the output
directory; predict evaluates a basic or saved calibrated model over the
grid; rank prints the numeric rank of each design matrix.

All numeric report cells use 4 decimal places (negative zero prints as
0.0000), and identical inputs produce byte-identical output files.  One
model's failure (for example measurement distances beyond the
Walfisch-Bertoni curvature limit) is reported on stderr and reflected in the
exit status without aborting the other models.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .basis import RANK_TOL_DEFAULT, BasisSet, build_basis, effective_rank
from .calib import (
    Calibration,
    MeasurementSet,
    calibrate,
    disaggregate,
    predict_calibrated,
)
from .errors import DomainError, ParseError, WalfcalError
from .metrics import MetricsReport
from .models import ModelKind, Terrain, predict_basic, wb_max_distance_km

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
    measurements_path: Path | None = None
    output_dir: Path | None = None

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
        if not (math.isfinite(self.rank_tol) and self.rank_tol > 0.0):
            raise DomainError(f"rank_tol must be positive and finite, got {self.rank_tol!r}")


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
    return MeasurementSet(distances, losses, label=path.stem)


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
    """Inclusive arithmetic grid from d_min to d_max in steps of d_step."""
    if d_step_km <= 0.0 or d_min_km <= 0.0 or d_max_km < d_min_km:
        raise DomainError("grid must satisfy 0 < d_min <= d_max with positive step")
    steps = (d_max_km - d_min_km) / d_step_km + 1e-9
    # checked before floor(), which fails on the inf a subnormal step gives
    if steps >= _GRID_POINTS_MAX:
        raise DomainError(f"d_step_km = {d_step_km!r} gives over {_GRID_POINTS_MAX} grid points")
    count = int(math.floor(steps)) + 1
    return d_min_km + d_step_km * np.arange(count)


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
    cell = f"{value:.4f}"
    return "0.0000" if cell == "-0.0000" else cell


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_table(out, header: str, columns) -> None:
    """Write a header line, then rows of %.4f cells as _db formats them.

    columns are equal-length float arrays.  With 4 decimals a minus sign only
    leads a cell, so one replace per chunk fixes exactly the negative zeros.
    """
    row = ",".join(["%.4f"] * len(columns)) + "\n"
    out.write(header + "\n")
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        block = np.column_stack([column[start : start + _CHUNK_ROWS] for column in columns])
        out.write((row * len(block) % tuple(block.ravel().tolist())).replace("-0.0000", "0.0000"))


def _inside_wb_limit(d: np.ndarray, dh_tx_m: float) -> np.ndarray:
    return d * d < 17.0 * dh_tx_m


def _truncate_wb_grid(grid: np.ndarray, dh_tx_m: float):
    keep = grid[_inside_wb_limit(grid, dh_tx_m)]
    dropped = grid.size - keep.size
    if dropped:
        warning = (
            f"grid truncated at the curvature limit {wb_max_distance_km(dh_tx_m):.4f} km "
            f"({dropped} of {grid.size} points dropped)"
        )
        return keep, warning
    return keep, None


def _model_axis(axis: np.ndarray, cal: Calibration) -> np.ndarray:
    """The report axis points a model covers: all of them, or for W-BERT the
    prefix inside its limit, which holds every measured distance of a fit."""
    if cal.kind is ModelKind.W_BERT:
        return axis[_inside_wb_limit(axis, cal.terrain.dh_tx_m)]
    return axis


def _profile_rows(axis: np.ndarray, meas: MeasurementSet, grid: np.ndarray):
    """Axis index and measured sample (-1 for none) of each profile row.

    Rows are sorted by distance, duplicate measured distances keep their
    input order, and a grid point equal to a measured distance is not
    repeated.
    """
    n = len(meas)
    index = np.searchsorted(axis, np.concatenate([meas.distances_km, grid]))
    measured = np.zeros(axis.size, dtype=bool)
    measured[index[:n]] = True
    rows = np.concatenate([index[:n], index[n:][~measured[index[n:]]]])
    order = np.argsort(rows, kind="stable")
    return rows[order], np.where(order < n, order, -1)


def _write_profiles(out_dir: Path, axis: np.ndarray, meas: MeasurementSet, grid, cals) -> None:
    """Write the profile files of the fitted models in one pass over chunks of
    the rows they share.

    axis is the report axis, the sorted distinct distances of measured ∪
    grid.  Each model is evaluated once per point of its _model_axis, and its
    file ends at the last row on it.  Per chunk, the distance and measured
    cells are formatted once for all models, and each model's basic and
    calibrated cells once per distinct distance; rows take their cells by
    axis index.
    """
    header = "distance_km,measured_db,basic_db,calibrated_db\n"
    # measured values are positive, so these cells are never negative zero
    shown, blank = "%.4f,%.4f,", "%.4f,,"
    tables = []
    for cal in cals:
        d = _model_axis(axis, cal)
        basic = predict_basic(cal.kind, cal.terrain, d)
        tables.append(np.column_stack([basic, predict_calibrated(cal, d)]))
    axis_rows, axis_sample = _profile_rows(axis, meas, grid)
    ends = [int(np.searchsorted(axis_rows, len(values))) for values in tables]
    with contextlib.ExitStack() as stack:
        files = [
            stack.enter_context(open(out_dir / f"profile_{cal.kind.value}.csv", "w", newline="\n"))
            for cal in cals
        ]
        for out in files:
            out.write(header)
        for start in range(0, max(ends, default=0), _CHUNK_ROWS):
            rows = axis_rows[start : start + _CHUNK_ROWS]
            sample = axis_sample[start : start + _CHUNK_ROWS]
            has = sample >= 0
            template = "\n".join([shown if row else blank for row in has.tolist()])
            # grid rows (sample -1) pick a measured value that keep drops
            cells = np.column_stack([axis[rows], meas.pathloss_db[sample]])
            keep = np.ones(cells.shape, dtype=bool)
            keep[:, 1] = has
            # even slots: the shared row prefixes; odd slots: one model's cells
            parts = [None] * (2 * len(rows))
            parts[0::2] = (template % tuple(cells[keep].tolist())).split("\n")
            low = int(rows[0])
            for values, end, out in zip(tables, ends, files):
                count = min(end - start, len(rows))
                if count <= 0:
                    continue
                local = rows[:count] - low
                values = values[low : low + int(local[-1]) + 1]
                text = "%.4f,%.4f\n" * len(values) % tuple(values.ravel().tolist())
                text = text.replace("-0.0000", "0.0000")
                cells_at = np.array(text.splitlines(keepends=True), dtype=object)
                parts[1 : 2 * count : 2] = cells_at[local].tolist()
                out.write("".join(parts[: 2 * count]))


def _write_disagg(path, cal, distances_km) -> None:
    profile = disaggregate(cal, distances_km)
    groups = profile.groups
    header = ["distance_km"]
    header += [f"basic_{g}_db" for g in groups] + ["basic_total_db"]
    header += [f"calibrated_{g}_db" for g in groups] + ["calibrated_total_db"]
    columns = [profile.distances_km]
    columns += [profile.basic[g] for g in groups] + [profile.net_basic()]
    columns += [profile.calibrated[g] for g in groups] + [profile.net_calibrated()]
    with open(path, "w", newline="\n") as out:
        _write_table(out, ",".join(header), columns)


def _write_coefficients(path, cal) -> None:
    lines = [f"# model={cal.kind.value} rank={cal.rank} n_functions={len(cal.basis)}"]
    lines.append("index,label,group,coefficient")
    for fn, a in zip(cal.basis.functions, cal.alpha):
        lines.append(f"{fn.index},{fn.label},{fn.group},{float(a)!r}")
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
    warned: list[str] = []
    try:
        cal = calibrate(kind, config.terrain, meas, cutoff=config.rank_tol)
        basic_at_meas = predict_basic(kind, config.terrain, meas.distances_km)
        report = MetricsReport.from_series(meas.pathloss_db, cal.fitted_db, basic_at_meas)
        if kind is ModelKind.W_BERT:
            _, warning = _truncate_wb_grid(grid, config.terrain.dh_tx_m)
            if warning:
                warned.append(f"{kind.value}: {warning}")
        _write_disagg(out_dir / f"disagg_{kind.value}.csv", cal, _model_axis(axis, cal))
        _write_coefficients(out_dir / f"coefficients_{kind.value}.csv", cal)
        return ModelRun(kind, cal, report, tuple(warned))
    except WalfcalError as exc:
        return ModelRun(kind, None, None, tuple(warned), error=f"{kind.value}: {exc}")


def run_calibration(config: CampaignConfig) -> CampaignResult:
    """Fit every configured variant and write the report files.

    Models fail independently: a domain violation in one is recorded on its
    ModelRun while the remaining variants still produce their files.
    """
    if config.measurements_path is None or config.output_dir is None:
        raise DomainError("config needs measurements_path and output_dir for a calibration run")
    meas = load_measurements(config.measurements_path)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = prediction_grid(config.d_min_km, config.d_max_km, config.d_step_km)
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
                    kind = ModelKind.from_label(token.removeprefix("model="))
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
    config = replace(
        config,
        measurements_path=Path(args.measurements),
        output_dir=Path(args.output_dir),
    )
    result = run_calibration(config)
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
    if kind is ModelKind.W_BERT:
        grid, warning = _truncate_wb_grid(grid, config.terrain.dh_tx_m)
        if warning:
            print(f"warning: {kind.value}: {warning}", file=sys.stderr)
        if grid.size == 0:
            raise DomainError(
                f"entire grid lies beyond the curvature limit "
                f"{wb_max_distance_km(config.terrain.dh_tx_m):.4f} km"
            )
    if args.coefficients:
        basis = build_basis(kind, config.terrain)
        _, alpha = load_coefficients(args.coefficients, basis)
        values = basis.evaluate(grid, alpha)
    else:
        values = np.atleast_1d(predict_basic(kind, config.terrain, grid))
    header = "distance_km,pathloss_db"
    if args.output:
        with open(args.output, "w", newline="\n") as out:
            _write_table(out, header, [grid, values])
        print(f"predictions written to {args.output}")
    else:
        _write_table(sys.stdout, header, [grid, values])
    return 0


def _cmd_rank(args) -> int:
    config = load_config(args.config)
    tol = args.tol if args.tol is not None else config.rank_tol
    if args.measurements:
        distances = load_measurements(args.measurements).distances_km
        source = "measurement"
    else:
        distances = prediction_grid(config.d_min_km, config.d_max_km, config.d_step_km)
        source = "grid"
    failed = False
    for kind in config.models:
        model_d = distances
        if kind is ModelKind.W_BERT:
            model_d, warning = _truncate_wb_grid(distances, config.terrain.dh_tx_m)
            if warning:
                print(f"warning: {kind.value}: {warning}", file=sys.stderr)
            if model_d.size == 0:
                print(
                    f"error: {kind.value}: no {source} distances inside the curvature domain",
                    file=sys.stderr,
                )
                failed = True
                continue
        basis = build_basis(kind, config.terrain)
        # Φ = QR: R·M has the singular values of the design matrix Φ·M
        _, r = np.linalg.qr(basis.features(model_d))
        rank = effective_rank(r @ basis.weights, tol)
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
