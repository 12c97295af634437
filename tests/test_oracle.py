"""Every fit against an independent oracle: the Quasi-Moment-Method normal
system in 50-digit decimal arithmetic.

The paper tests each component term against the measurements, so its
coefficients solve the Galerkin system (ΦM)ᵀ(ΦM) α = (ΦM)ᵀ p, singular by
construction.  Its fitted curve is Φβ, with β the solution of the k×k normal
system ΦᵀΦ β = Φᵀp (k = 2 features for a Walfisch-Ikegami variant, 3 for
Walfisch-Bertoni), and its minimum-norm coefficients are α = Mᵀ(MMᵀ)⁻¹β,
as M has full row rank.  Here Φ comes from Decimal.log10 of each distance's
exact binary value, the sums over the samples run at 50 digits, and both
k×k systems are solved by exact elimination in fractions.  The oracle
shares nothing with the fit under test (numpy, LAPACK, the QR fold) but the
weight table M.  Its basic curve is Φ times M's summed term weights; each
summary.csv cell is its statistic from the two curves, and each profile
basic_db cell its basic curve at the row's sample, rounded to 4 places as
the report cells are.
"""

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import WI_KINDS, random_campaign, random_terrain, save_measurements
from walfcal import MeasurementSet, ModelKind, calibrate, mpe
from walfcal.cli import CampaignConfig, load_config, load_measurements, run_calibration

DIGITS = Context(prec=50)
EPS = np.finfo(float).eps
SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def features(d: float, terrain, wb: bool) -> list:
    """One row of Φ: 1, log10 d and, for W-BERT, log10(1 - d² / (17 dh_tx))."""
    x = Decimal(d)
    row = [Decimal(1), x.log10()]
    if wb:
        row.append((1 - x * x / (17 * Decimal(terrain.dh_tx_m))).log10())
    return row


def solve(a: list, b: list) -> list:
    """x with a x = b, a nonsingular, by Gauss-Jordan elimination in fractions."""
    rows = [[Fraction(v) for v in row] + [Fraction(y)] for row, y in zip(a, b)]
    for c in range(len(rows)):
        pivot = next(r for r in range(c, len(rows)) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(len(rows)):
            if r != c:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return [Decimal(row[-1].numerator) / row[-1].denominator for row in rows]


def oracle(terrain, meas: MeasurementSet, wb: bool):
    """Φ, the oracle's β and its fitted curve Φβ."""
    with localcontext(DIGITS):
        phi = [features(d, terrain, wb) for d in meas.distances_km.tolist()]
        p = [Decimal(v) for v in meas.pathloss_db.tolist()]
        k = len(phi[0])
        gram = [[sum(row[i] * row[j] for row in phi) for j in range(k)] for i in range(k)]
        moments = [sum(row[i] * y for row, y in zip(phi, p)) for i in range(k)]
        beta = solve(gram, moments)
        fitted = [sum(b * f for b, f in zip(beta, row)) for row in phi]
    return phi, beta, fitted


def minimum_norm(weights: np.ndarray, beta: list) -> list:
    """The minimum-norm α with M α = β: Mᵀ(MMᵀ)⁻¹β."""
    with localcontext(DIGITS):
        m = [[Decimal(w) for w in row] for row in weights.tolist()]
        k = len(m)
        mmt = [[sum(a * b for a, b in zip(m[i], m[j])) for j in range(k)] for i in range(k)]
        y = solve(mmt, beta)
        return [sum(m[i][t] * y[i] for i in range(k)) for t in range(len(m[0]))]


def deviation(values: np.ndarray, exact: list) -> float:
    """The largest |value - exact| over the entries, each difference taken at 50 digits."""
    with localcontext(DIGITS):
        return max(float(abs(Decimal(v) - e)) for v, e in zip(values.tolist(), exact))


def sample_campaign():
    return load_config(SAMPLE / "campaign.cfg").terrain, load_measurements(
        SAMPLE / "measurements.csv"
    )


def wide_campaign():
    return random_campaign(np.random.default_rng(71), 1500, 2000)


def repeated_distances_campaign():
    # 600 samples at 60 distinct distances, so each distance weighs 10 times
    rng = np.random.default_rng(73)
    terrain = random_terrain(rng)
    d = np.repeat(np.round(rng.uniform(0.05, 3.0, 60), 3), 10)
    p = 120.0 + 35.0 * np.log10(d) + rng.normal(0.0, 4.0, d.size)
    return terrain, MeasurementSet(d, p)


def near_limit_campaign():
    # 300 samples, a third within 1e-4 of the curvature limit in 1 - d² / (17 dh_tx)
    rng = np.random.default_rng(79)
    terrain = random_terrain(rng)
    limit = math.sqrt(17.0 * terrain.dh_tx_m)
    gaps = np.concatenate([rng.uniform(1e-6, 1e-4, 100), rng.uniform(0.02, 0.99, 200)])
    d = limit * np.sqrt(1.0 - gaps)
    p = 125.0 + 30.0 * np.log10(d) + rng.normal(0.0, 3.0, d.size)
    return terrain, MeasurementSet(d, p)


CAMPAIGNS = {
    "sample": sample_campaign,
    "wide": wide_campaign,
    "repeats": repeated_distances_campaign,
    "near_limit": near_limit_campaign,
}


@pytest.fixture(scope="module", params=list(CAMPAIGNS))
def campaign(request):
    """A campaign's terrain, measurements and, by W-BERT or not, its oracle."""
    terrain, meas = CAMPAIGNS[request.param]()
    assert len(meas) <= 2000
    return terrain, meas, {wb: oracle(terrain, meas, wb) for wb in (False, True)}


@pytest.mark.parametrize("wb", [False, True], ids=["WI", "W-BERT"])
def test_fitted_curves_match_the_oracle(campaign, wb):
    terrain, meas, oracles = campaign
    phi, _, fitted = oracles[wb]
    n, scale = len(meas), float(np.abs(meas.pathloss_db).max())
    bound = np.linalg.cond(np.array(phi, dtype=float)) * n * EPS * scale
    with localcontext(DIGITS):
        # the oracle's own residuals sum to zero, as the constant is in Φ's span
        assert abs(sum(f - Decimal(p) for f, p in zip(fitted, meas.pathloss_db.tolist()))) < 1e-30
    # so each of the four WI variants' fitted curves is the oracle's one curve
    for kind in [ModelKind.W_BERT] if wb else WI_KINDS:
        cal = calibrate(kind, terrain, meas)
        assert abs(mpe(cal.fitted_db, meas.pathloss_db)) <= 1e-9
        assert deviation(cal.fitted_db, fitted) <= bound, kind


@pytest.mark.parametrize("kind", list(ModelKind))
def test_coefficients_are_the_oracles_minimum_norm_solution(campaign, kind):
    terrain, meas, oracles = campaign
    cal = calibrate(kind, terrain, meas)
    phi, beta, _ = oracles[kind is ModelKind.W_BERT]
    alpha = minimum_norm(cal.basis.weights, beta)
    # α = M⁺β moves by cond(M) times β's relative change, and β by what the
    # fitted curve's bound allows
    size = max(float(abs(a)) for a in alpha)
    cond_phi = np.linalg.cond(np.array(phi, dtype=float))
    bound = np.linalg.cond(cal.basis.weights) * cond_phi * len(meas) * EPS * size
    assert deviation(cal.alpha, alpha) <= bound


def report_cell(value: Decimal) -> str | None:
    """value rounded half to even at 4 places, as a report cell, or None
    within 1e-9 of a tie, where the float value may round either way."""
    with localcontext(DIGITS):
        tie = (value * 10_000 - Decimal("0.5")).to_integral_value() + Decimal("0.5")
        if abs(value - tie / 10_000) < Decimal("1e-9"):
            return None
        cell = str(value.quantize(Decimal("0.0001"), ROUND_HALF_EVEN))
    return "0.0000" if cell == "-0.0000" else cell


def statistics(curve: list, p: list) -> tuple:
    """RMSE and MPE of curve against p, at 50 digits."""
    with localcontext(DIGITS):
        diff = [c - y for c, y in zip(curve, p)]
        return (sum(e * e for e in diff) / len(diff)).sqrt(), sum(diff) / len(diff)


def calibrated_run(campaign, out_dir):
    """A calibrate run of every model over the campaign, its grid d_min and
    d_max, both measured; the basic curve of each model at every sample."""
    terrain, meas, oracles = campaign
    save_measurements(meas, out_dir / "meas.csv")
    d_min, d_max = float(meas.distances_km.min()), float(meas.distances_km.max())
    config = CampaignConfig(terrain, tuple(ModelKind), d_min, d_max, d_max - d_min)
    result = run_calibration(config, out_dir / "meas.csv", out_dir / "out")
    assert result.ok
    basic = {}
    for run in result.runs:
        phi = oracles[run.kind is ModelKind.W_BERT][0]
        with localcontext(DIGITS):
            # the basic model's weight on each feature: its terms' weights summed
            weights = [sum(map(Decimal, row)) for row in run.calibration.basis.weights.tolist()]
            basic[run.kind] = [sum(w * f for w, f in zip(weights, row)) for row in phi]
    return out_dir / "out", basic


def test_report_cells_match_the_oracle(campaign, tmp_path):
    _, meas, oracles = campaign
    out_dir, basic = calibrated_run(campaign, tmp_path)
    lines = (out_dir / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [kind.value for kind in ModelKind]
    p = [Decimal(v) for v in meas.pathloss_db.tolist()]
    skipped = 0
    for kind, line in zip(ModelKind, lines[1:]):
        fitted = oracles[kind is ModelKind.W_BERT][2]
        with localcontext(DIGITS):
            rmse_basic, mpe_basic = statistics(basic[kind], p)
            rmse_fitted, mpe_fitted = statistics(fitted, p)
            gain = 100 * (rmse_basic - rmse_fitted) / rmse_basic
        expected = [report_cell(v) for v in (rmse_basic, mpe_basic, rmse_fitted, mpe_fitted, gain)]
        for cell, oracle_cell in zip(line.split(",")[1:], expected, strict=True):
            if oracle_cell is None:
                skipped += 1
            else:
                assert cell == oracle_cell, (kind, line)
    assert skipped <= 1


def test_profile_basic_cells_match_the_oracle(campaign, tmp_path):
    # the grid's two points are measured, so the profile rows are the samples
    # sorted by distance, duplicates in input order
    meas = campaign[1]
    out_dir, basic = calibrated_run(campaign, tmp_path)
    order = np.argsort(meas.distances_km, kind="stable").tolist()
    for kind in ModelKind:
        lines = (out_dir / f"profile_{kind.value}.csv").read_text().splitlines()[1:]
        assert len(lines) == len(order)
        expected = [report_cell(basic[kind][i]) for i in order]
        cells = [line.split(",")[2] for line in lines]
        assert sum(e is None for e in expected) <= 1
        assert all(e is None or c == e for c, e in zip(cells, expected)), kind
