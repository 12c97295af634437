"""Seeded inputs and the independent reference fit for the walfcal benchmark.

Run as a script to write one workload's inputs into a directory:

    python3 perfbench/inputs.py --workload drive_large --seed 1 --out DIR

The files depend only on the workload and the seed.  Measurements follow
``tests/helpers.random_campaign``: a trend a + b log10 d plus Gaussian noise,
inside the Walfisch-Bertoni domain unless a beyond-limit sample is injected
on purpose.  This module imports numpy but never walfcal, so the expected
results it records come from a plain ``np.linalg.lstsq`` on each model's
feature set: [1, log10 d] for the Walfisch-Ikegami variants, plus
log10(1 - d^2 / (17 dh_tx)) for Walfisch-Bertoni.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODELS = ("CWI-M", "CWI-SU", "ITWI-M", "ITWI-SU", "W-BERT")
WI_MODELS = MODELS[:4]
TERRAIN_KEYS = ("f_mhz", "w_m", "b_m", "phi_deg", "dh_rx_m", "dh_tx_m")
SAMPLE_TERRAIN = {"f_mhz": 900.0, "w_m": 20.0, "b_m": 30.0, "phi_deg": 30.0,
                  "dh_rx_m": 12.0, "dh_tx_m": 6.0}

# Workload sizes.  They are recorded in BENCHMARK.json; change both together.
DRIVE_ROWS = 100_000
SWEEP_CAMPAIGNS = 10
SWEEP_ROWS = 200_000
BATCH_CAMPAIGNS = 300
BATCH_ROWS = (30, 300)
BATCH_INJECTED = BATCH_CAMPAIGNS // 10

WORKLOADS = ("drive_large", "site_sweep", "campaign_batch")


def wb_limit_km(dh_tx_m: float) -> float:
    """Walfisch-Bertoni curvature limit sqrt(17 dh_tx) in km."""
    return math.sqrt(17.0 * dh_tx_m)


def features(d: np.ndarray, dh_tx_m: float, wb: bool) -> np.ndarray:
    """Columns spanning a model's fitted curves at fixed terrain."""
    cols = [np.ones_like(d), np.log10(d)]
    if wb:
        cols.append(np.log10(1.0 - d * d / (17.0 * dh_tx_m)))
    return np.column_stack(cols)


def reference_fit(d: np.ndarray, p: np.ndarray, dh_tx_m: float, wb: bool):
    """Least-squares coefficients on the feature set, and the fit's RMSE."""
    x = features(d, dh_tx_m, wb)
    beta = np.linalg.lstsq(x, p, rcond=None)[0]
    residual = x @ beta - p
    return beta, float(np.sqrt(np.mean(residual * residual)))


def reference_predict(beta, d: np.ndarray, dh_tx_m: float) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    return features(d, dh_tx_m, beta.size == 3) @ beta


def prediction_grid(d_min: float, d_max: float, step: float) -> np.ndarray:
    """The inclusive grid a campaign config asks for (same rule as the CLI docs)."""
    count = int(math.floor((d_max - d_min) / step + 1e-9)) + 1
    return d_min + step * np.arange(count)


def model_grid(grid: np.ndarray, model: str, dh_tx_m: float) -> np.ndarray:
    """Grid points a model reports: W-BERT drops those past its curvature limit."""
    return grid[grid * grid < 17.0 * dh_tx_m] if model == "W-BERT" else grid


@dataclass
class Campaign:
    """One generated campaign with the reference results the checks use."""

    name: str
    terrain: dict
    grid: tuple  # (d_min_km, d_max_km, d_step_km)
    models: tuple
    d: np.ndarray
    p: np.ndarray
    injected: bool
    replay: str
    reference: dict  # model family "WI" / "WB" -> (beta, rmse)

    @property
    def dh_tx_m(self) -> float:
        return self.terrain["dh_tx_m"]

    def beta(self, model: str):
        return self.reference["WB" if model == "W-BERT" else "WI"][0]

    def rmse(self, model: str) -> float:
        return self.reference["WB" if model == "W-BERT" else "WI"][1]

    def grid_points(self, model: str) -> np.ndarray:
        return model_grid(prediction_grid(*self.grid), model, self.dh_tx_m)

    def expected_models(self) -> tuple:
        """Models whose reports must exist: W-BERT fails on an injected sample."""
        return tuple(m for m in self.models if not (self.injected and m == "W-BERT"))


def _random_terrain(rng, f_mhz: float) -> dict:
    return {
        "f_mhz": f_mhz,
        "w_m": rng.uniform(5.0, 40.0),
        "b_m": rng.uniform(10.0, 60.0),
        "phi_deg": rng.uniform(0.0, 55.0),
        "dh_rx_m": rng.uniform(2.0, 20.0),
        "dh_tx_m": rng.uniform(4.0, 40.0),
    }


def _pathloss(rng, d: np.ndarray) -> np.ndarray:
    trend = rng.uniform(100.0, 140.0) + rng.uniform(20.0, 40.0) * np.log10(d)
    return np.maximum(trend + rng.normal(0.0, rng.uniform(0.5, 6.0), d.size), 1.0)


def _as_printed(values: np.ndarray, decimals: int):
    """Round to a fixed number of decimals the way a CSV file holds them."""
    cells = [f"{v:.{decimals}f}" for v in values]
    return cells, np.array(cells, dtype=float)


def _campaign(name, terrain, grid, d, p, injected, replay) -> Campaign:
    reference = {"WI": reference_fit(d, p, terrain["dh_tx_m"], wb=False)}
    if not injected:
        reference["WB"] = reference_fit(d, p, terrain["dh_tx_m"], wb=True)
    return Campaign(name, terrain, grid, MODELS, d, p, injected, replay, reference)


def _drive_large(rng):
    terrain = dict(SAMPLE_TERRAIN)
    d_max = 0.9 * wb_limit_km(terrain["dh_tx_m"])
    d_cells, d = _as_printed(rng.uniform(0.05, d_max, DRIVE_ROWS), 3)
    p_cells, p = _as_printed(_pathloss(rng, d), 2)
    grid = (0.1, round(d_max, 1), 0.1)
    yield _campaign("drive", terrain, grid, d, p, False, ""), (d_cells, p_cells)


def _site_sweep(rng):
    band = (3000.0 - 150.0) / SWEEP_CAMPAIGNS
    for i in range(SWEEP_CAMPAIGNS):
        # one frequency per band, so the ITU high-band branch (> 2000 MHz) always runs
        terrain = _random_terrain(rng, 150.0 + band * (i + rng.uniform()))
        d = rng.uniform(0.1, 0.9 * wb_limit_km(terrain["dh_tx_m"]), SWEEP_ROWS)
        p = _pathloss(rng, d)
        yield _campaign(f"site{i:02d}", terrain, (0.1, 1.0, 0.1), d, p, False, ""), None


def _campaign_batch(rng):
    injected = set(rng.choice(BATCH_CAMPAIGNS, BATCH_INJECTED, replace=False).tolist())
    for i in range(BATCH_CAMPAIGNS):
        terrain = _random_terrain(rng, rng.uniform(150.0, 2000.0))
        limit = wb_limit_km(terrain["dh_tx_m"])
        n = int(rng.integers(BATCH_ROWS[0], BATCH_ROWS[1] + 1))
        raw = rng.uniform(0.1, 0.9 * limit, n)
        if i in injected:
            raw[rng.integers(n)] = math.ceil(limit * rng.uniform(1.01, 1.2) * 1e4) / 1e4
        d_cells, d = _as_printed(raw, 4)
        p_cells, p = _as_printed(_pathloss(rng, d), 2)
        d_max = limit * rng.uniform(1.1, 1.5)
        grid = (0.1, d_max, d_max / int(rng.integers(8, 26)))
        replay = str(rng.choice(WI_MODELS if i in injected else MODELS))
        yield _campaign(f"c{i:03d}", terrain, grid, d, p, i in injected, replay), (d_cells, p_cells)


def generate(workload: str, seed: int, out: Path) -> None:
    """Write a workload's config and measurement files, arrays and meta.json."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, WORKLOADS.index(workload)])
    make = {"drive_large": _drive_large, "site_sweep": _site_sweep,
            "campaign_batch": _campaign_batch}[workload]
    out.mkdir(parents=True, exist_ok=True)
    meta, arrays = [], {}
    for camp, cells in make(rng):
        arrays[f"{camp.name}_d"], arrays[f"{camp.name}_p"] = camp.d, camp.p
        if cells is not None:
            _write_campaign_files(out, camp, *cells)
        meta.append({
            "name": camp.name, "terrain": camp.terrain, "grid": camp.grid,
            "models": camp.models, "injected": camp.injected, "replay": camp.replay,
            "reference": {k: (beta.tolist(), r) for k, (beta, r) in camp.reference.items()},
        })
    np.savez(out / "arrays.npz", **arrays)
    (out / "meta.json").write_text(json.dumps(meta))


def _write_campaign_files(out: Path, camp: Campaign, d_cells, p_cells) -> None:
    config = [f"{key} = {camp.terrain[key]!r}" for key in TERRAIN_KEYS]
    config.append("models = " + ", ".join(camp.models))
    config += [f"{key} = {value!r}" for key, value in
               zip(("d_min_km", "d_max_km", "d_step_km"), camp.grid)]
    (out / f"{camp.name}.cfg").write_text("\n".join(config) + "\n")
    rows = "\n".join(f"{d},{p}" for d, p in zip(d_cells, p_cells))
    (out / f"{camp.name}.csv").write_text("distance_km,pathloss_db\n" + rows + "\n")


def load(out: Path) -> list[Campaign]:
    """Read back what generate() wrote."""
    arrays = np.load(out / "arrays.npz")
    campaigns = []
    for m in json.loads((out / "meta.json").read_text()):
        reference = {k: (np.array(beta), r) for k, (beta, r) in m["reference"].items()}
        campaigns.append(Campaign(
            m["name"], m["terrain"], tuple(m["grid"]), tuple(m["models"]),
            arrays[f"{m['name']}_d"], arrays[f"{m['name']}_p"],
            m["injected"], m["replay"], reference,
        ))
    return campaigns


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
