"""Property tests: the reduced QR solve against a full lstsq, and the fit invariants.

Campaigns are drawn with hypothesis and include the degenerate layouts: one
sample, two samples, every sample at one distance, and W-BERT distances a
hair inside the curvature limit.  Distances are fractions of that limit, so
one campaign is valid for all five variants.

A draw is kept only when the design matrix's singular values fall clearly on
one side of the rank cutoff (relative size above 1e-4 or below 1e-13).
Between those bounds the rank decision itself is ill posed, and any two
solvers may then disagree by about machine epsilon times the condition
number; exact duplicates, and so rank-deficient layouts, are kept.
The runs are derandomized so that the suite gives the same verdict every time.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (
    ALL_KINDS,
    FRACTIONS,
    NEAR_LIMIT_GAPS,
    TOL_DB,
    WI_KINDS,
    closed_form,
    term_values,
)
from walfcal import (
    RANK_TOL_DEFAULT,
    MeasurementSet,
    ModelKind,
    Terrain,
    build_basis,
    calibrate,
    group_losses,
    mpe,
    predict_calibrated,
    rmse,
)

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)

terrains = st.builds(
    Terrain,
    f_mhz=st.floats(150.0, 3000.0),
    w_m=st.floats(5.0, 40.0),
    b_m=st.floats(10.0, 60.0),
    phi_deg=st.floats(0.0, 55.0),
    dh_rx_m=st.floats(2.0, 20.0),
    dh_tx_m=st.floats(4.0, 40.0),
)

fraction_layouts = st.one_of(
    st.lists(st.sampled_from(FRACTIONS), min_size=1, max_size=2),
    st.tuples(st.sampled_from(FRACTIONS), st.integers(2, 8)).map(lambda t: [t[0]] * t[1]),
    st.lists(st.sampled_from(FRACTIONS), min_size=3, max_size=40),
)


@st.composite
def campaigns(draw):
    terrain = draw(terrains)
    limit = math.sqrt(17.0 * terrain.dh_tx_m)
    # at most two distinct near-limit samples, so that their log10 d values,
    # nearly equal, do not make the fit ill conditioned
    gaps = draw(st.lists(st.sampled_from(NEAR_LIMIT_GAPS), max_size=2, unique=True))
    if gaps:
        fractions = draw(st.lists(st.sampled_from(FRACTIONS), max_size=6))
    else:
        fractions = draw(fraction_layouts)
    d = np.array([f * limit for f in fractions] + [limit * math.sqrt(1.0 - g) for g in gaps])
    assert np.all(d * d < 17.0 * terrain.dh_tx_m)
    p = draw(st.lists(st.floats(60.0, 180.0), min_size=d.size, max_size=d.size))
    return terrain, MeasurementSet(d, np.array(p))


def _clear_rank(matrix: np.ndarray) -> bool:
    s = np.linalg.svd(matrix, compute_uv=False)
    ratio = s / s[0]
    return bool(np.all((ratio > 1e-4) | (ratio < 1e-13)))


def _assume_clear_rank(terrain, meas, kinds) -> None:
    for kind in kinds:
        assume(_clear_rank(term_values(build_basis(kind, terrain), meas.distances_km)))


@PROPERTY_SETTINGS
@given(campaign=campaigns(), kind=st.sampled_from(ALL_KINDS))
def test_reduced_solve_matches_full_lstsq(campaign, kind):
    terrain, meas = campaign
    _assume_clear_rank(terrain, meas, [kind])
    cal = calibrate(kind, terrain, meas)
    full = term_values(cal.basis, meas.distances_km)
    alpha, _, rank, _ = np.linalg.lstsq(full, meas.pathloss_db, rcond=RANK_TOL_DEFAULT)
    assert cal.rank == rank
    assert np.max(np.abs(cal.fitted_db - full @ alpha)) <= TOL_DB
    # both are the minimum-norm solution, not just any least-squares one
    assert np.linalg.norm(cal.alpha - alpha) <= 1e-9 * np.linalg.norm(alpha)


@PROPERTY_SETTINGS
@given(campaign=campaigns())
def test_zero_mpe_and_equal_wi_rmse(campaign):
    terrain, meas = campaign
    _assume_clear_rank(terrain, meas, ALL_KINDS)
    fits = {kind: calibrate(kind, terrain, meas).fitted_db for kind in ALL_KINDS}
    for fitted in fits.values():
        assert abs(mpe(fitted, meas.pathloss_db)) <= TOL_DB
    wi = [rmse(fits[kind], meas.pathloss_db) for kind in WI_KINDS]
    assert max(wi) - min(wi) <= TOL_DB
    assert rmse(fits[ModelKind.W_BERT], meas.pathloss_db) <= min(wi) + TOL_DB


@PROPERTY_SETTINGS
@given(campaign=campaigns(), kind=st.sampled_from(ALL_KINDS))
def test_evaluation_paths_agree(campaign, kind):
    terrain, meas = campaign
    _assume_clear_rank(terrain, meas, [kind])
    d = meas.distances_km
    cal = calibrate(kind, terrain, meas)
    basic = closed_form(kind, terrain, d)
    assert np.max(np.abs(cal.basis.evaluate(d, np.ones(len(cal.basis))) - basic)) <= TOL_DB
    assert np.array_equal(predict_calibrated(cal, d), cal.fitted_db)


@PROPERTY_SETTINGS
@given(campaign=campaigns(), kind=st.sampled_from(ALL_KINDS))
def test_group_losses_add_up_to_both_predictions(campaign, kind):
    terrain, meas = campaign
    _assume_clear_rank(terrain, meas, [kind])
    d = meas.distances_km
    cal = calibrate(kind, terrain, meas)
    values = group_losses(cal, d)
    groups = cal.basis.groups
    g = len(groups)
    assert values.shape == (d.size, 2 * g + 2)
    basic, calibrated = values[:, : g + 1], values[:, g + 1 :]
    for side, net in ((basic, closed_form(kind, terrain, d)), (calibrated, cal.fitted_db)):
        assert np.max(np.abs(side[:, :g].sum(axis=1) - side[:, g])) <= TOL_DB
        assert np.max(np.abs(side[:, g] - net)) <= TOL_DB
    # each total is that side's prediction bit for bit
    assert np.array_equal(basic[:, g], cal.basis.evaluate(d, np.ones(len(cal.basis))))
    assert np.array_equal(calibrated[:, g], cal.fitted_db)
    # each group column is the sum of its terms' design-matrix columns
    terms = term_values(cal.basis, d)
    for n, group in enumerate(groups):
        idx = list(cal.basis.group_indices(group))
        assert np.max(np.abs(basic[:, n] - terms[:, idx].sum(axis=1))) <= TOL_DB
        assert np.max(np.abs(calibrated[:, n] - terms[:, idx] @ cal.alpha[idx])) <= TOL_DB
