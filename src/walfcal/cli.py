"""Command-line front end: batch calibration runs.

Inputs are a flat key=value campaign config (terrain, model list, prediction
grid, rank tolerance) and a two-column CSV of measurements; each input file
is read once, and _reading words a failed read or decode.  calibrate fits
every configured variant with walfcal.calib.calibrate, then writes
summary.csv plus per-model profile, disaggregation and coefficient files in
one call to walfcal.report.  Every basic or calibrated value a run prints
or writes is one prediction, Φ(d)·(M·w) with unit weights w for the basic
model or the fitted α: predict evaluates it over the grid, with w read from
a saved coefficients file when one is given; rank prints the numeric rank
of each design matrix.  In calibrate and rank each model fails alone: its
error goes to stderr as "error: <model>: ..." and to the exit status, and
the others still run.  Only a grid is truncated at the Walfisch-Bertoni
curvature limit, by _model_grid, with a warning; measured distances face
calibrate's domain check in rank too.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import RANK_TOL_DEFAULT, BasisSet, _check_rank_tol, build_basis, effective_rank
from .calib import Calibration, MeasurementSet, _fold, calibrate
from .errors import DomainError, ParseError, WalfcalError
from .metrics import MetricsReport
from .models import ModelKind, Terrain, _model_distances, wb_max_distance_km
from .report import _db, _write_reports, _write_table

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
        if len(set(self.models)) < len(self.models):
            raise DomainError(f"model kinds repeat in {[kind.value for kind in self.models]}")
        for name in ("d_min_km", "d_max_km", "d_step_km"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
        if self.d_max_km < self.d_min_km:
            raise DomainError(
                f"d_max_km ({self.d_max_km!r}) must not be below d_min_km ({self.d_min_km!r})"
            )
        _check_rank_tol(self.rank_tol, "rank_tol")


def _number(text: str, parse=float):
    """parse(text), but a ValueError for the spellings Python reads and numpy
    does not: an underscore between digits, or a digit outside ASCII."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain number: {text!r}")
    return parse(text)


def _float_arg(text: str) -> float:
    """A command-line number, read as a config reads one (_number)."""
    try:
        return _number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


@contextlib.contextmanager
def _reading(path: Path, what: str):
    """Raise an OSError or UnicodeDecodeError of the block as a ParseError naming
    what and path; an input file is read once and decoded as "utf-8-sig"."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path) -> CampaignConfig:
    """Parse a key = value campaign file.

    Keys: f_mhz, w_m, b_m, phi_deg, dh_rx_m, dh_tx_m, models (comma-separated
    variant labels, none twice), d_min_km, d_max_km, d_step_km, rank_tol (optional).
    Blank lines and lines starting with # are ignored, and so is a leading
    byte-order mark.
    """
    path = Path(path)
    with _reading(path, "config"):
        text = path.read_bytes().decode("utf-8-sig")

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
            numbers[key] = _number(value)
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
    for n, kind in enumerate(kinds):
        if kind in kinds[:n]:
            raise ParseError(f"{path}:{models_line}: model {labels[n]!r} repeats {kind.value}")

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
    with _reading(path, "measurements"):
        data = path.read_bytes()
    table = _read_measurements_fast(data)
    if table is None:
        distances, losses = _read_measurements_by_line(path, data)
    else:
        del data  # freed before the columns are copied out
        distances, losses = table.T.copy()
    return MeasurementSet(distances, losses)


# Line boundaries of str.splitlines beyond \n and \r, UTF-8 encoded.  numpy
# reads them as whitespace inside a cell, where the line parser splits there.
# The first five are one byte each, the only ones an ASCII file can hold.
_OTHER_LINE_BREAKS = tuple(ch.encode() for ch in "\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _header_ok(line: str) -> bool:
    return ",".join(cell.strip() for cell in line.split(",")) == MEASUREMENT_HEADER


def _read_measurements_fast(data: bytes):
    """The n×2 table numpy reads from data, or None when only the line parser can decide.

    None on any doubt: bytes not in UTF-8, a line break numpy does not split
    at, a header or cell numpy rejects, a warning, no rows, or a value that is
    not finite and positive.  The line parser then accepts or rejects the file
    and words the error, so the fast path never accepts what it rejects.
    """
    if any(mark in data for mark in _OTHER_LINE_BREAKS[: 5 if data.isascii() else None]):
        return None
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as handle:
            if not _header_ok(handle.readline()):
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] == 0:
        return None
    if not (table.min() > 0.0 and table.max() < math.inf):
        return None
    return table


def _read_measurements_by_line(path: Path, data: bytes) -> tuple[list[float], list[float]]:
    with _reading(path, "measurements"):
        lines = data.decode("utf-8-sig").splitlines()
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
            d = _number(cells[0])
            p = _number(cells[1])
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


def _run_one(kind, config, meas, grid) -> ModelRun:
    """Fit one model with calibrate; its report files are written with the
    other models' once all are fitted."""
    try:
        cal = calibrate(kind, config.terrain, meas, cutoff=config.rank_tol)
        basic_at_meas = cal.basis.evaluate(meas.distances_km, np.ones(len(cal.basis)))
        report = MetricsReport.from_series(meas.pathloss_db, cal.fitted_db, basic_at_meas)
        _, warning = _model_distances(kind, config.terrain, grid)
        return ModelRun(kind, cal, report, (warning,) if warning else ())
    except WalfcalError as exc:
        return ModelRun(kind, None, None, error=f"{kind.value}: {exc}")


@contextlib.contextmanager
def _writing(path):
    """Raise an OSError of the block as a WalfcalError naming its file, else path."""
    try:
        yield
    except OSError as exc:
        raise WalfcalError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def run_calibration(config: CampaignConfig, measurements_path, output_dir) -> CampaignResult:
    """Fit every configured variant to the measurements and write the report
    files into output_dir.

    Models fail independently: a domain violation in one is recorded on its
    ModelRun while the remaining variants still produce their files.
    """
    meas = load_measurements(measurements_path)
    grid = prediction_grid(config.d_min_km, config.d_max_km, config.d_step_km)
    out_dir = Path(output_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    runs = tuple(_run_one(kind, config, meas, grid) for kind in config.models)
    with _writing(out_dir):
        _write_reports(out_dir, meas, grid, runs)
    return CampaignResult(config=config, measurements=meas, runs=runs, output_dir=out_dir)


def load_coefficients(path, basis: BasisSet | None = None) -> tuple[ModelKind | None, np.ndarray]:
    """Read a coefficients file back; returns (kind or None, alpha by index).

    A leading byte-order mark is skipped, and coefficients must be finite.
    Given the basis they will be used with, the file must also match it: same
    model, one row per term, each row's label and group equal to that term's,
    and each calibrated weight within the bound a fit keeps
    (BasisSet._check_calibrated); DomainError otherwise.
    """
    path = Path(path)
    with _reading(path, "coefficients"):
        text = path.read_bytes().decode("utf-8-sig")
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
            index = _number(cells[0], int)
            value = _number(cells[-1])
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
    alpha = np.array([rows[i][2] for i in range(len(rows))])
    if basis is not None:
        basis._check_calibrated(alpha, lambda n: f"{path}:{rows[n][0]}, coefficient {rows[n][2]!r}")
    return kind, alpha


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


def _model_grid(kind: ModelKind, terrain: Terrain, grid: np.ndarray) -> np.ndarray:
    """The grid points kind covers (_model_distances), once its truncation
    warning is printed; DomainError naming the curvature limit if none is left."""
    grid, warning = _model_distances(kind, terrain, grid)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    if grid.size == 0:
        raise DomainError(
            f"entire grid lies beyond the curvature limit "
            f"{wb_max_distance_km(terrain.dh_tx_m):.4f} km"
        )
    return grid


def _cmd_predict(args) -> int:
    config = load_config(args.config)
    kind = ModelKind.from_label(args.model)
    grid = prediction_grid(config.d_min_km, config.d_max_km, config.d_step_km)
    grid = _model_grid(kind, config.terrain, grid)
    basis = build_basis(kind, config.terrain)
    # the nominal model weights every term by 1
    alpha = np.ones(len(basis))
    if args.coefficients:
        _, alpha = load_coefficients(args.coefficients, basis)
    values_of = functools.partial(basis.evaluate, weights=alpha)
    header = "distance_km,pathloss_db"
    if args.output:
        with _writing(args.output), open(args.output, "w", newline="\n") as out:
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
        try:
            d = distances if args.measurements else _model_grid(kind, config.terrain, distances)
            basis = build_basis(kind, config.terrain)
            # R·M has the rank and singular values of Φ·M
            rank = effective_rank(_fold(basis, d) @ basis.weights, tol)
        except WalfcalError as exc:
            print(f"error: {kind.value}: {exc}", file=sys.stderr)
            failed = True
            continue
        print(f"{kind.value}: rank={rank} (rows={d.size}, functions={len(basis)}, tol={tol:g})")
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
    p.add_argument("--tol", type=_float_arg, help="relative singular-value threshold")
    p.set_defaults(handler=_cmd_rank)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except WalfcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader has gone (`| head`): devnull takes the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
