"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Tolerances are pinned here and must not
be loosened; a FAIL means the package does not meet its contract.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    ALL_KINDS,
    WI_KINDS,
    closed_form,
    random_campaign,
    random_distances,
    random_terrain,
    save_measurements,
    term_values,
)
from walfcal import (
    MeasurementSet,
    ModelKind,
    build_basis,
    calibrate,
    effective_rank,
    free_space_loss,
    improvement_pct,
    mpe,
    multiscreen_loss,
    rmse,
    rooftop_to_street_loss,
    wb_excess_loss,
)
from walfcal.cli import load_config, load_measurements, run_calibration
from walfcal.models import Density, Family, Terrain

N_CAMPAIGNS = 50


def _report(number: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


def test_c1_zero_mean_prediction_error():
    rng = np.random.default_rng(20260819)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(N_CAMPAIGNS):
        terrain, meas = random_campaign(rng, n_lo=30, n_hi=300)
        for kind in ALL_KINDS:
            cal = calibrate(kind, terrain, meas)
            worst = max(worst, abs(mpe(cal.fitted_db, meas.pathloss_db)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(1, "zero mean prediction error", ok)
    assert worst <= 1e-6, f"worst |MPE| = {worst:.3e} dB"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_c2_wi_rmse_equality():
    rng = np.random.default_rng(20260820)
    worst = 0.0
    for _ in range(N_CAMPAIGNS):
        terrain, meas = random_campaign(rng)
        assert terrain.f_mhz <= 2000.0
        values = [rmse(calibrate(k, terrain, meas).fitted_db, meas.pathloss_db) for k in WI_KINDS]
        worst = max(worst, max(values) - min(values))
    ok = worst <= 1e-9
    _report(2, "equal RMSE across the four WI variants", ok)
    assert ok, f"worst pairwise RMSE spread = {worst:.3e} dB"


def test_c3_span_dominance():
    rng = np.random.default_rng(20260821)
    worst = -math.inf
    for _ in range(N_CAMPAIGNS):
        terrain, meas = random_campaign(rng)
        wb = rmse(calibrate(ModelKind.W_BERT, terrain, meas).fitted_db, meas.pathloss_db)
        wi = min(
            rmse(calibrate(k, terrain, meas).fitted_db, meas.pathloss_db) for k in WI_KINDS
        )
        worst = max(worst, wb - wi)
    ok = worst <= 1e-9
    _report(3, "W-BERT RMSE never above WI RMSE", ok)
    assert ok, f"worst RMSE(W-BERT) - RMSE(WI) = {worst:.3e} dB"


def test_c4_exact_recovery():
    rng = np.random.default_rng(20260822)
    terrain = random_terrain(rng)
    limit = math.sqrt(17.0 * terrain.dh_tx_m)
    d = np.linspace(0.2, 0.95 * limit, 40)
    trend = 95.0 + 28.0 * np.log10(d)
    meas_log = MeasurementSet(d, trend)
    wi_exact = all(
        rmse(calibrate(k, terrain, meas_log).fitted_db, trend) <= 1e-9 for k in WI_KINDS
    )
    curvature = -12.0 * np.log10(1.0 - d * d / (17.0 * terrain.dh_tx_m))
    meas_curved = MeasurementSet(d, trend + curvature)
    wb_rmse = rmse(
        calibrate(ModelKind.W_BERT, terrain, meas_curved).fitted_db, meas_curved.pathloss_db
    )
    wi_curved = [
        rmse(calibrate(k, terrain, meas_curved).fitted_db, meas_curved.pathloss_db)
        for k in WI_KINDS
    ]
    wb_exact = wb_rmse <= 1e-9
    wi_cannot = all(value > 1e-6 for value in wi_curved)
    ok = wi_exact and wb_exact and wi_cannot
    _report(4, "exact recovery of in-span trends", ok)
    assert wi_exact, "WI variants failed to recover a c1 + c2 log10 d trend"
    assert wb_exact, f"W-BERT left RMSE {wb_rmse:.3e} on a curvature-augmented trend"
    assert wi_cannot, f"a WI variant fit the curvature term: {wi_curved}"


def test_c5_reconstruction_identity():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(1000):
        kind = ALL_KINDS[rng.integers(len(ALL_KINDS))]
        terrain = random_terrain(rng)
        d = float(random_distances(rng, terrain, 1)[0])
        total = float(term_values(build_basis(kind, terrain), [d])[0].sum())
        worst = max(worst, abs(total - closed_form(kind, terrain, d)))
    ok = worst <= 1e-9
    _report(5, "basis functions sum to the basic model", ok)
    assert ok, f"worst reconstruction gap = {worst:.3e} dB"


def test_c6_effective_rank():
    rng = np.random.default_rng(20260824)
    tolerances = (1e-12, 1e-10, 1e-8, 1e-6)
    ok = True
    for kind in ALL_KINDS:
        expected = 3 if kind is ModelKind.W_BERT else 2
        for _ in range(5):
            terrain = random_terrain(rng)
            distances = np.unique(random_distances(rng, terrain, 15))
            assert distances.size >= 10
            dm = term_values(build_basis(kind, terrain), distances)
            for tol in tolerances:
                ok = ok and effective_rank(dm, tol) == expected
    _report(6, "design-matrix rank 2 (WI) / 3 (W-BERT)", ok)
    assert ok


def test_c7_improvement_formula_anchors():
    wbert = improvement_pct(51.7160, 10.1082)
    itwi = improvement_pct(24.5785, 10.3246)
    ok = abs(wbert - 80.45) <= 0.01 and abs(itwi - 57.99) <= 0.1
    _report(7, "percent-improvement anchors", ok)
    assert wbert == pytest.approx(80.45, abs=0.01)
    assert itwi == pytest.approx(57.99, abs=0.1)


def test_c8_component_oracles():
    checks = []

    checks.append(abs(free_space_loss(1.0, 900.0) - 91.4849) <= 1e-4)
    checks.append(
        abs(free_space_loss(1.0, 900.0) - (32.4 + 20.0 * math.log10(900.0))) <= 1e-4
    )

    t_rts = Terrain(f_mhz=900.0, w_m=20.0, b_m=25.0, phi_deg=30.0, dh_rx_m=12.0, dh_tx_m=4.0)
    rts_oracle = (
        -16.9
        - 10.0 * math.log10(20.0)
        + 10.0 * math.log10(900.0)
        + 20.0 * math.log10(12.0)
        + (-10.0 + 0.354 * 30.0)
    )
    checks.append(abs(rooftop_to_street_loss(t_rts, Family.COST) - rts_oracle) <= 1e-4)

    t_msd = Terrain(f_mhz=925.0, w_m=20.0, b_m=25.0, phi_deg=30.0, dh_rx_m=12.0, dh_tx_m=4.0)
    msd_oracle = (
        -18.0 * math.log10(5.0)
        + 54.0
        + (1.5 * (925.0 / 925.0 - 1.0) - 4.0) * math.log10(925.0)
        - 9.0 * math.log10(25.0)
    )
    checks.append(
        abs(multiscreen_loss(t_msd, 1.0, Density.METRO, Family.COST) - msd_oracle) <= 1e-4
    )

    t_hi = Terrain(f_mhz=3400.0, w_m=20.0, b_m=25.0, phi_deg=30.0, dh_rx_m=12.0, dh_tx_m=4.0)
    hi_oracle = (
        -18.0 * math.log10(5.0) + 71.4 - 8.0 * math.log10(3400.0) - 9.0 * math.log10(25.0)
    )
    checks.append(
        abs(multiscreen_loss(t_hi, 1.0, Density.METRO, Family.ITU) - hi_oracle) <= 1e-4
    )

    t_wb = Terrain(f_mhz=900.0, w_m=20.0, b_m=24.0, phi_deg=30.0, dh_rx_m=12.0, dh_tx_m=10.0)
    geometry = (
        5.0 * math.log10((24.0 / 2.0) ** 2 + 12.0**2)
        - 9.0 * math.log10(24.0)
        + 20.0 * math.log10(45.0)
    )
    wb_oracle = (
        57.1
        + math.log10(900.0)
        + 18.0 * math.log10(1.0)
        - 18.0 * math.log10(10.0)
        - 18.0 * math.log10(1.0 - 1.0 / 170.0)
        + geometry
    )
    checks.append(abs(wb_excess_loss(t_wb, 1.0) - wb_oracle) <= 1e-4)

    ok = all(checks)
    _report(8, "component formulas match direct arithmetic", ok)
    assert ok, f"component check vector: {checks}"


def test_c9_cli_determinism_and_round_trip(tmp_path):
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(
        "f_mhz = 900\n"
        "w_m = 20\n"
        "b_m = 30\n"
        "phi_deg = 30\n"
        "dh_rx_m = 12\n"
        "dh_tx_m = 6\n"
        "models = CWI-M, CWI-SU, ITWI-M, ITWI-SU, W-BERT\n"
        "d_min_km = 0.1\n"
        "d_max_km = 4.5\n"
        "d_step_km = 0.1\n"
    )
    rng = np.random.default_rng(909)
    d = np.round(rng.uniform(0.15, 4.4, 80), 3)
    p = np.round(97.0 + 31.0 * np.log10(d) + rng.normal(0.0, 2.5, 80), 4)
    meas = MeasurementSet(d, p)
    meas_path = tmp_path / "meas.csv"
    save_measurements(meas, meas_path)

    back = load_measurements(meas_path)
    round_trip = np.array_equal(back.distances_km, meas.distances_km) and np.array_equal(
        back.pathloss_db, meas.pathloss_db
    )

    outputs = []
    for name in ("out_a", "out_b"):
        result = run_calibration(load_config(config_path), meas_path, tmp_path / name)
        assert result.ok
        outputs.append(
            {
                path.name: path.read_bytes()
                for path in sorted(result.output_dir.iterdir())
            }
        )
    identical = outputs[0] == outputs[1]
    expected_names = {"summary.csv"}
    for kind in ALL_KINDS:
        expected_names |= {
            f"profile_{kind.value}.csv",
            f"disagg_{kind.value}.csv",
            f"coefficients_{kind.value}.csv",
        }
    complete = set(outputs[0]) == expected_names

    ok = round_trip and identical and complete
    _report(9, "byte-identical CLI outputs and exact measurement round-trip", ok)
    assert round_trip, "measurement save/load round trip was not exact"
    assert identical, "re-running the campaign produced different bytes"
    assert complete, f"unexpected output file set: {sorted(outputs[0])}"
