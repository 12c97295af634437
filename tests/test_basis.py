"""Basis construction, design matrices, and numeric rank."""

import math

import numpy as np
import pytest

from helpers import (
    ALL_KINDS,
    WI_KINDS,
    closed_form,
    random_distances,
    random_terrain,
    term_values,
)
from walfcal import (
    CurvatureDomainError,
    DomainError,
    ModelKind,
    Terrain,
    WB_GROUPS,
    WI_GROUPS,
    build_basis,
    effective_rank,
)


def make_terrain(**overrides) -> Terrain:
    params = dict(f_mhz=900.0, w_m=20.0, b_m=24.0, phi_deg=30.0, dh_rx_m=12.0, dh_tx_m=10.0)
    params.update(overrides)
    return Terrain(**params)


def brute_force_column_dim(matrix: np.ndarray, tol: float = 1e-8) -> int:
    """Independent rank check: Gram-Schmidt sweep over the columns."""
    kept: list[np.ndarray] = []
    for column in matrix.T:
        residual = column.astype(float).copy()
        for direction in kept:
            residual -= (residual @ direction) * direction
        norm = float(np.linalg.norm(residual))
        if norm > tol * max(1.0, float(np.linalg.norm(column))):
            kept.append(residual / norm)
    return len(kept)


class TestBuildBasis:
    def test_function_counts(self):
        t = make_terrain()
        for kind in WI_KINDS:
            assert len(build_basis(kind, t)) == 13
        assert len(build_basis(ModelKind.W_BERT, t)) == 8

    def test_wi_group_partition(self):
        basis = build_basis(ModelKind.CWI_M, make_terrain())
        assert basis.groups == WI_GROUPS
        assert basis.group_indices("FSP") == (0, 1, 2)
        assert basis.group_indices("RTS") == (3, 4, 5, 6, 7)
        assert basis.group_indices("MSD") == (8, 9, 10, 11, 12)

    def test_wb_group_partition(self):
        basis = build_basis(ModelKind.W_BERT, make_terrain())
        assert basis.groups == WB_GROUPS
        assert basis.group_indices("CORE") == (0, 1, 3)
        assert basis.group_indices("HEIGHT") == (2,)
        assert basis.group_indices("GEOMETRY") == (4, 5, 6)
        assert basis.group_indices("CURVATURE") == (7,)

    def test_groups_cover_every_index(self):
        for kind in ALL_KINDS:
            basis = build_basis(kind, make_terrain())
            covered = sorted(i for g in basis.groups for i in basis.group_indices(g))
            assert covered == list(range(len(basis)))

    def test_unknown_group_rejected(self):
        basis = build_basis(ModelKind.CWI_M, make_terrain())
        with pytest.raises(DomainError):
            basis.group_indices("CORE")

    def test_wb_leading_terms(self):
        t = make_terrain()
        basis = build_basis(ModelKind.W_BERT, t)
        terms = term_values(basis, [1.0, 7.3, 10.0])
        assert terms[0, 0] == pytest.approx(89.5)
        assert terms[1, 0] == pytest.approx(89.5)
        assert terms[2, 1] == pytest.approx(38.0)
        assert terms[0, 2] == pytest.approx(-18.0 * math.log10(t.dh_tx_m))
        assert [row[0] for row in basis.terms[:3]] == ["89.5", "38 log10 d", "-18 log10 dh_tx"]

    def test_wi_frequency_coefficient_includes_offset(self):
        # at the pivot frequency the rate factor is zero, leaving -4 log10 f
        t = make_terrain(f_mhz=925.0)
        basis = build_basis(ModelKind.CWI_M, t)
        kf_term = term_values(basis, [2.0])[0, 11]
        assert kf_term == pytest.approx(-4.0 * math.log10(925.0))

    def test_rts_lead_reflects_family(self):
        t = make_terrain()
        for kind, lead in ((ModelKind.CWI_M, -16.9), (ModelKind.ITWI_M, -8.2)):
            assert term_values(build_basis(kind, t), [1.0])[0, 3] == pytest.approx(lead)

    def test_reconstruction_identity_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            kind = ALL_KINDS[rng.integers(len(ALL_KINDS))]
            t = random_terrain(rng)
            d = float(random_distances(rng, t, 1)[0])
            total = float(term_values(build_basis(kind, t), [d])[0].sum())
            assert total == pytest.approx(closed_form(kind, t, d), abs=1e-9)

    @pytest.mark.parametrize(
        "fields, label, failing",
        [
            # 2 dh_rx / b underflows to 0, whose atan has no log
            ({"dh_rx_m": 5e-324}, "20 log10 atan_deg(2 dh_rx / b)", [ModelKind.W_BERT]),
            # (b/2)^2 + dh_rx^2 underflows to 0
            ({"b_m": 5e-324, "dh_rx_m": 5e-324}, "5 log10((b/2)^2 + dh_rx^2)", [ModelKind.W_BERT]),
            # (b/2)^2 overflows
            ({"b_m": 1e308}, "5 log10((b/2)^2 + dh_rx^2)", [ModelKind.W_BERT]),
            # k_f log10 f is finite, but near 5e307 it leaves a fit no room
            ({"f_mhz": 1e308}, "k_f log10 f", [ModelKind.CWI_M, ModelKind.CWI_SU]),
        ],
    )
    def test_weights_outside_their_domain_name_the_terrain_fields(self, fields, label, failing):
        t = make_terrain(**fields)
        for kind in ModelKind:
            if kind not in failing:
                assert np.isfinite(build_basis(kind, t).weights).all()
                continue
            with pytest.raises(DomainError) as exc:
                build_basis(kind, t)
            message = str(exc.value)
            assert f"term {label!r}" in message
            assert all(f"{name} = {value!r}" in message for name, value in fields.items())

    def test_terrain_snapshot_retained(self):
        t = make_terrain()
        basis = build_basis(ModelKind.CWI_SU, t)
        assert basis.terrain == t
        assert basis.kind is ModelKind.CWI_SU


class TestDesignMatrix:
    def test_entries_match_function_values(self):
        t = make_terrain()
        basis = build_basis(ModelKind.ITWI_SU, t)
        d = np.array([0.3, 1.0, 4.2])
        dm = term_values(basis, d)
        assert dm.shape == (3, 13)
        for n in range(len(basis)):
            term = basis.evaluate(d, np.eye(len(basis))[n])
            assert dm[:, n] == pytest.approx(term)

    def test_distance_log_column_zero_at_one_km(self):
        dm = term_values(build_basis(ModelKind.CWI_M, make_terrain()), [1.0])
        assert dm[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_constant_columns_uniform(self):
        dm = term_values(build_basis(ModelKind.CWI_M, make_terrain()), [0.2, 1.7, 6.0])
        for n in (0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12):
            column = dm[:, n]
            assert np.ptp(column) == pytest.approx(0.0, abs=1e-15)

    def test_wb_domain_enforced(self):
        basis = build_basis(ModelKind.W_BERT, make_terrain(dh_tx_m=10.0))
        with pytest.raises(CurvatureDomainError, match="13.5"):
            term_values(basis, [1.0, 13.5])

    def test_rejects_empty_distances(self):
        with pytest.raises(DomainError):
            term_values(build_basis(ModelKind.CWI_M, make_terrain()), [])

    @pytest.mark.parametrize("kind", [ModelKind.CWI_M, ModelKind.W_BERT])
    @pytest.mark.parametrize("bad", [[[1.0, 2.0], [3.0]], [1.0, "x"]], ids=["ragged", "text"])
    def test_rejects_distances_that_are_not_an_array_of_numbers(self, kind, bad):
        basis = build_basis(kind, make_terrain())
        with pytest.raises(DomainError, match="d_km must be a rectangular array of numbers"):
            basis.features(bad)
        with pytest.raises(DomainError, match="d_km must be a rectangular array of numbers"):
            basis.evaluate(bad, np.ones(len(basis)))

    @pytest.mark.parametrize(
        "weights, message",
        [
            (np.ones(3), r"CWI-M needs 13 weights, got shape \(3,\)"),
            (np.ones(14), r"CWI-M needs 13 weights, got shape \(14,\)"),
            (np.ones((1, 13)), r"CWI-M needs 13 weights, got shape \(1, 13\)"),
            (1.0, r"CWI-M needs 13 weights, got shape \(\)"),
            ([1, [2]], "weights must be a rectangular array of numbers"),
            (np.full(13, np.nan), r"term '32.4' has weight nan at weights\[0\] = nan"),
            (np.r_[np.ones(12), 1e299], r"term '-9 log10 b' has weight -1.24\d*e\+300 at weights"),
        ],
        ids=["short", "long", "2-d", "scalar", "ragged", "nan", "past 1e300"],
    )
    def test_evaluate_rejects_bad_weights(self, weights, message):
        # numpy's matmul error, its sequence error, or a silent nan before
        with pytest.raises(DomainError, match=message):
            build_basis(ModelKind.CWI_M, make_terrain()).evaluate([1.0], weights)

    def test_entries_finite(self):
        rng = np.random.default_rng(37)
        for kind in ALL_KINDS:
            t = random_terrain(rng)
            dm = term_values(build_basis(kind, t), random_distances(rng, t, 25))
            assert np.all(np.isfinite(dm))


class TestEffectiveRank:
    def test_single_distance_rank_one(self):
        for kind in ALL_KINDS:
            dm = term_values(build_basis(kind, make_terrain()), [1.4])
            assert effective_rank(dm) == 1

    def test_wi_rank_two(self):
        rng = np.random.default_rng(41)
        for kind in WI_KINDS:
            t = random_terrain(rng)
            dm = term_values(build_basis(kind, t), random_distances(rng, t, 12))
            for tol in (1e-12, 1e-10, 1e-8, 1e-6):
                assert effective_rank(dm, tol) == 2

    def test_wb_rank_three(self):
        rng = np.random.default_rng(43)
        t = random_terrain(rng)
        dm = term_values(build_basis(ModelKind.W_BERT, t), random_distances(rng, t, 12))
        for tol in (1e-12, 1e-10, 1e-8, 1e-6):
            assert effective_rank(dm, tol) == 3

    def test_matches_brute_force_column_reduction(self):
        rng = np.random.default_rng(47)
        for kind in ALL_KINDS:
            t = random_terrain(rng)
            dm = term_values(build_basis(kind, t), random_distances(rng, t, 30))
            assert effective_rank(dm) == brute_force_column_dim(dm)

    def test_rank_ceiling(self):
        rng = np.random.default_rng(53)
        for kind in ALL_KINDS:
            cap = 3 if kind is ModelKind.W_BERT else 2
            t = random_terrain(rng)
            for k in (1, 2, 3, 8):
                dm = term_values(build_basis(kind, t), random_distances(rng, t, k))
                for tol in (1e-12, 1e-9, 1e-6):
                    assert effective_rank(dm, tol) <= min(k, cap)

    def test_accepts_plain_arrays(self):
        assert effective_rank(np.eye(4)) == 4
        assert effective_rank(np.zeros((3, 3))) == 0

    @pytest.mark.parametrize(
        "matrix",
        [[1.0, 2.0, 3.0], 4.0, np.ones((2, 2, 2)), [[1.0, math.inf], [0.0, 1.0]],
         [[math.nan, 1.0], [0.0, 1.0]], [[-math.inf]], [[1.0, 2.0], [3.0]],
         [[1.0, "x"], [0.0, 1.0]]],
    )
    def test_rejects_matrix_not_finite_and_2d(self, matrix):
        # a ragged or non-numeric matrix is no array of floats at all
        try:
            np.asarray(matrix, dtype=float)
            message = "rank needs a finite 2-d matrix"
        except ValueError:
            message = "m must be a rectangular array of numbers"
        with pytest.raises(DomainError, match=message):
            effective_rank(matrix)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(DomainError):
            effective_rank(np.eye(2), tol=-1e-3)

    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, math.inf, math.nan])
    def test_rejects_tolerance_outside_unit_interval(self, tol):
        with pytest.raises(DomainError, match=r"tol must lie in \(0, 1\)"):
            effective_rank(np.eye(2), tol=tol)
