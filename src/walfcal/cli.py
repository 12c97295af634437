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
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .basis import RANK_TOL_DEFAULT, BasisSet, build_basis, design_matrix, effective_rank
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
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read measurements {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or ",".join(cell.strip() for cell in lines[0].split(",")) != MEASUREMENT_HEADER:
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
    return MeasurementSet(np.array(distances), np.array(losses), label=path.stem)


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


def _write_table(out, header: str, columns, present=None) -> None:
    """Write a header line, then rows of %.4f cells as _db formats them.

    columns are equal-length float arrays; rows where the mask present is
    False leave the second cell empty.  With 4 decimals a minus sign only
    leads a cell, so one replace per chunk fixes exactly the negative zeros.
    """
    full = ",".join(["%.4f"] * len(columns)) + "\n"
    blank = full.replace(",%.4f", ",", 1)
    out.write(header + "\n")
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        block = np.column_stack([column[start : start + _CHUNK_ROWS] for column in columns])
        if present is None:
            template, cells = full * len(block), block.ravel()
        else:
            shown = present[start : start + _CHUNK_ROWS]
            template = "".join([full if row else blank for row in shown.tolist()])
            keep = np.ones(block.shape, dtype=bool)
            keep[:, 1] = shown
            cells = block[keep]
        out.write((template % tuple(cells.tolist())).replace("-0.0000", "0.0000"))


def _truncate_wb_grid(grid: np.ndarray, dh_tx_m: float):
    keep = grid[grid * grid < 17.0 * dh_tx_m]
    dropped = grid.size - keep.size
    if dropped:
        warning = (
            f"grid truncated at the curvature limit {wb_max_distance_km(dh_tx_m):.4f} km "
            f"({dropped} of {grid.size} points dropped)"
        )
        return keep, warning
    return keep, None


def _write_profile(path, kind, terrain, cal, meas, grid) -> None:
    extra = grid[~np.isin(grid, meas.distances_km)]
    dists = np.concatenate([meas.distances_km, extra])
    # stable: duplicate measured distances keep their input order
    order = np.argsort(dists, kind="stable")
    dists = dists[order]
    measured = np.concatenate([meas.pathloss_db, np.zeros(extra.size)])[order]
    basic = np.atleast_1d(predict_basic(kind, terrain, dists))
    fitted = np.atleast_1d(predict_calibrated(cal, dists))
    with open(path, "w", newline="\n") as out:
        _write_table(
            out,
            "distance_km,measured_db,basic_db,calibrated_db",
            [dists, measured, basic, fitted],
            present=order < meas.distances_km.size,
        )


def _write_disagg(path, cal, meas, grid) -> None:
    dists = np.unique(np.concatenate([meas.distances_km, grid]))
    profile = disaggregate(cal, dists)
    groups = profile.groups
    header = ["distance_km"]
    header += [f"basic_{g}_db" for g in groups] + ["basic_total_db"]
    header += [f"calibrated_{g}_db" for g in groups] + ["calibrated_total_db"]
    columns = [dists]
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


def _run_one(kind, config, meas, grid, out_dir) -> ModelRun:
    warnings: list[str] = []
    try:
        cal = calibrate(kind, config.terrain, meas, cutoff=config.rank_tol)
        basic_at_meas = predict_basic(kind, config.terrain, meas.distances_km)
        report = MetricsReport.from_series(meas.pathloss_db, cal.fitted_db, basic_at_meas)
        model_grid = grid
        if kind is ModelKind.W_BERT:
            model_grid, warning = _truncate_wb_grid(grid, config.terrain.dh_tx_m)
            if warning:
                warnings.append(f"{kind.value}: {warning}")
        _write_profile(
            out_dir / f"profile_{kind.value}.csv", kind, config.terrain, cal, meas, model_grid
        )
        _write_disagg(out_dir / f"disagg_{kind.value}.csv", cal, meas, model_grid)
        _write_coefficients(out_dir / f"coefficients_{kind.value}.csv", cal)
        return ModelRun(kind, cal, report, tuple(warnings))
    except WalfcalError as exc:
        return ModelRun(kind, None, None, tuple(warnings), error=f"{kind.value}: {exc}")


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
    runs = tuple(_run_one(kind, config, meas, grid, out_dir) for kind in config.models)
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
        dm = design_matrix(basis, model_d)
        rank = effective_rank(dm, tol)
        print(
            f"{kind.value}: rank={rank} (rows={dm.shape[0]}, functions={dm.shape[1]}, tol={tol:g})"
        )
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
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
