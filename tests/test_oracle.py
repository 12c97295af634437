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
summary.csv cell is its statistic from the two curves, each profile basic_db
and calibrated_db cell its basic curve or Φβ at the row's sample, and each
disagg cell Φ times a group's summed term weights (basic) or Φ·M_g·α_g
(calibrated), or a side's sum of those, all rounded to 4 places as the
report cells are.
"""

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import WI_KINDS, random_campaign, random_terrain, save_measurements
from walfcal import MeasurementSet, ModelKind, build_basis, calibrate, mpe
from walfcal.cli import CampaignConfig, load_config, load_measurements, run_calibration

DIGITS = Context(prec=50)
EPS = np.finfo(float).eps
STEP = Decimal("0.0001")
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


def report_cell(value: Decimal, margin: float = 1e-9) -> str | None:
    """value rounded half to even at 4 places, as a report cell, or None
    within margin of a tie, where the float value may round either way."""
    with localcontext(DIGITS):
        rounded = value.quantize(STEP, ROUND_HALF_EVEN)
        # the nearest tie lies half a step from the rounded value, on value's side
        if STEP / 2 - abs(value - rounded) < margin:
            return None
    cell = str(rounded)
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


def disagg_columns(basis, alpha: list) -> list:
    """The oracle's 2·groups columns of C, each a list over the features:
    for each group g of basis, M_g's summed term weights, then M_g·α_g."""
    with localcontext(DIGITS):
        m = [[Decimal(w) for w in row] for row in basis.weights.tolist()]
        return [
            [sum(m[f][t] * weight[t] for t in basis.group_indices(group)) for f in range(len(m))]
            for weight in ([Decimal(1)] * len(alpha), alpha)
            for group in basis.groups
        ]


def disagg_rows(columns: list, phi: list) -> list:
    """The oracle's disagg values at each row of Φ: Φ times each of the
    basic columns, their sum, then the same for the calibrated columns."""
    g = len(columns) // 2
    with localcontext(DIGITS):
        rows = []
        for row in phi:
            values = [sum(f * c for f, c in zip(row, column)) for column in columns]
            rows.append([*values[:g], sum(values[:g]), *values[g:], sum(values[g:])])
    return rows


def margin(terrain, meas: MeasurementSet, phi: list, cells: list, curvature) -> float:
    """How far a report cell's float value may lie from its oracle value:
    cond(Φ)·n·eps·max|cell|, plus, for cells that weigh the W-BERT curvature
    feature by up to |curvature|, that feature's own float error at the
    smallest gap = 1 - d² / (17 dh_tx) of the samples, 2·eps / (ln 10 · gap).
    In the near-limit campaign that gap is about 1.2e-6, so W-BERT's weight
    of 18 adds 2.8e-9 dB to the 5.6e-10 dB of the first term; elsewhere the
    second term is below 1e-13 dB."""
    cond = np.linalg.cond(np.array(phi, dtype=float))
    largest = max(float(abs(cell)) for cell in cells)
    d = meas.distances_km
    gap = float((1.0 - d * d / (17.0 * terrain.dh_tx_m)).min())
    return cond * len(meas) * EPS * largest + float(abs(curvature)) * 2 * EPS / (math.log(10) * gap)


def test_disagg_and_profile_calibrated_cells_match_the_oracle(campaign, tmp_path):
    # the grid's two points are measured, so the disagg rows are the distinct
    # sample distances, sorted, and the profile rows the samples sorted by
    # distance, duplicates in input order
    terrain, meas, oracles = campaign
    out_dir, _ = calibrated_run(campaign, tmp_path)
    first = np.unique(meas.distances_km, return_index=True)[1].tolist()
    order = np.argsort(meas.distances_km, kind="stable").tolist()
    checked = skipped = 0
    for kind in ModelKind:
        wb = kind is ModelKind.W_BERT
        phi, beta, fitted = oracles[wb]
        basis = build_basis(kind, terrain)
        columns = disagg_columns(basis, minimum_norm(basis.weights, beta))
        rows = disagg_rows(columns, [phi[s] for s in first])
        cells = [value for row in rows for value in row]
        curvature = max(abs(column[2]) for column in columns) if wb else 0
        tol = margin(terrain, meas, phi, cells, curvature)
        expected = [report_cell(value, tol) for value in cells]
        lines = (out_dir / f"disagg_{kind.value}.csv").read_text().splitlines()[1:]
        assert len(lines) == len(rows)
        found = [cell for line in lines for cell in line.split(",")[1:]]
        # and the profile's calibrated cells, the oracle's curve Φβ
        tol = margin(terrain, meas, phi, fitted, beta[2] if wb else 0)
        expected += [report_cell(fitted[i], tol) for i in order]
        lines = (out_dir / f"profile_{kind.value}.csv").read_text().splitlines()[1:]
        assert len(lines) == len(order)
        found += [line.split(",")[3] for line in lines]
        assert len(found) == len(expected)
        for cell, oracle_cell in zip(found, expected):
            if oracle_cell is None:
                skipped += 1
            else:
                checked += 1
                assert cell == oracle_cell, kind
    assert checked > 0 and skipped == 0
