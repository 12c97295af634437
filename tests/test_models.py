"""Component formulas, domain rules, and composition of the basic models."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import WI_KINDS, random_terrain, traced_peak
from walfcal import (
    CurvatureDomainError,
    Density,
    DomainError,
    Family,
    ModelKind,
    Terrain,
    building_geometry_term,
    free_space_loss,
    multiscreen_constants,
    multiscreen_loss,
    predict_basic,
    rooftop_to_street_loss,
    street_orientation_term,
    wb_excess_loss,
    wb_max_distance_km,
)


def make_terrain(**overrides) -> Terrain:
    params = dict(f_mhz=900.0, w_m=20.0, b_m=24.0, phi_deg=30.0, dh_rx_m=12.0, dh_tx_m=10.0)
    params.update(overrides)
    return Terrain(**params)


class TestTerrain:
    @pytest.mark.parametrize("field", ["f_mhz", "w_m", "b_m", "dh_rx_m", "dh_tx_m"])
    @pytest.mark.parametrize("bad", [0.0, -3.0, math.nan, math.inf])
    def test_rejects_nonpositive_parameters(self, field, bad):
        with pytest.raises(DomainError):
            make_terrain(**{field: bad})

    @pytest.mark.parametrize("bad", [-0.1, 55.1, 90.0, math.nan])
    def test_rejects_out_of_range_orientation(self, bad):
        with pytest.raises(DomainError):
            make_terrain(phi_deg=bad)

    @pytest.mark.parametrize("phi", [0.0, 35.0, 55.0])
    def test_accepts_orientation_bounds(self, phi):
        assert make_terrain(phi_deg=phi).phi_deg == phi

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_terrain().f_mhz = 1800.0


class TestModelKind:
    def test_labels_round_trip(self):
        for kind in ModelKind:
            assert ModelKind.from_label(kind.value) is kind

    def test_label_lookup_is_forgiving_about_case_and_space(self):
        assert ModelKind.from_label(" cwi-m ") is ModelKind.CWI_M

    def test_unknown_label_rejected(self):
        with pytest.raises(DomainError):
            ModelKind.from_label("COST231")

    def test_family_and_density(self):
        assert ModelKind.CWI_M.family is Family.COST
        assert ModelKind.CWI_SU.density is Density.SUBURBAN
        assert ModelKind.ITWI_SU.family is Family.ITU
        assert ModelKind.ITWI_M.density is Density.METRO
        assert ModelKind.W_BERT.family is None
        assert ModelKind.W_BERT.density is None


class TestFreeSpaceLoss:
    def test_both_log_terms_vanish(self):
        assert free_space_loss(1.0, 1.0) == pytest.approx(32.4)

    def test_decade_steps(self):
        assert free_space_loss(10.0, 1000.0) == pytest.approx(112.4)

    def test_reference_value(self):
        assert free_space_loss(1.0, 900.0) == pytest.approx(91.4848501887865, abs=1e-10)

    def test_slope_in_log_distance_is_20(self):
        eps = 1e-7
        up = free_space_loss(2.0 * 10.0**eps, 900.0)
        down = free_space_loss(2.0 * 10.0**-eps, 900.0)
        assert (up - down) / (2.0 * eps) == pytest.approx(20.0, abs=1e-6)

    def test_array_matches_scalars(self):
        d = np.array([0.2, 1.0, 3.7])
        assert free_space_loss(d, 900.0) == pytest.approx(
            [free_space_loss(float(x), 900.0) for x in d]
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, [[1.0], [2.0, 3.0]], "x"])
    def test_rejects_bad_distance(self, bad):
        with pytest.raises(DomainError):
            free_space_loss(bad, 900.0)

    def test_rejects_bad_frequency(self):
        with pytest.raises(DomainError):
            free_space_loss(1.0, 0.0)

    def test_rejects_empty_distance_array(self):
        with pytest.raises(DomainError):
            free_space_loss(np.array([]), 900.0)


class TestStreetOrientation:
    def test_low_branch_at_zero(self):
        assert street_orientation_term(0.0) == pytest.approx(-10.0)

    def test_low_branch_slope(self):
        assert street_orientation_term(20.0) == pytest.approx(-10.0 + 0.354 * 20.0)

    def test_boundary_uses_high_branch(self):
        # branch 1 would give 2.39 here; the boundary belongs to branch 2
        assert street_orientation_term(35.0) == pytest.approx(2.5)

    def test_branch_gap_at_boundary(self):
        below = street_orientation_term(35.0 - 1e-12)
        assert street_orientation_term(35.0) - below == pytest.approx(0.11, abs=1e-9)

    def test_high_branch_end(self):
        assert street_orientation_term(55.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("bad", [-1.0, 55.5, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            street_orientation_term(bad)


class TestRooftopToStreet:
    def test_cost_all_terms_null(self):
        t = Terrain(f_mhz=1.0, w_m=10.0, b_m=24.0, phi_deg=0.0, dh_rx_m=1.0, dh_tx_m=10.0)
        assert rooftop_to_street_loss(t, Family.COST) == pytest.approx(-36.9)

    def test_itu_all_terms_null(self):
        t = Terrain(f_mhz=1.0, w_m=10.0, b_m=24.0, phi_deg=0.0, dh_rx_m=1.0, dh_tx_m=10.0)
        assert rooftop_to_street_loss(t, Family.ITU) == pytest.approx(-28.2)

    def test_reference_value(self):
        t = make_terrain()
        assert rooftop_to_street_loss(t, Family.COST) == pytest.approx(
            21.835750058705933, abs=1e-10
        )

    def test_family_gap_is_constant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_terrain(rng)
            gap = rooftop_to_street_loss(t, Family.ITU) - rooftop_to_street_loss(t, Family.COST)
            assert gap == pytest.approx(8.7, abs=1e-12)


class TestMultiscreen:
    def test_pivot_frequency_nulls_kf_factor(self):
        t = make_terrain(f_mhz=925.0, b_m=25.0, dh_tx_m=4.0)
        ka, kf = multiscreen_constants(t, Density.METRO, Family.COST)
        assert ka == 54.0
        assert kf == pytest.approx(-4.0)
        expected = -18.0 * math.log10(5.0) + 54.0 - 4.0 * math.log10(925.0) - 9.0 * math.log10(25.0)
        assert multiscreen_loss(t, 1.0, Density.METRO, Family.COST) == pytest.approx(expected)

    def test_metro_cost_reference(self):
        t = make_terrain(f_mhz=925.0, b_m=25.0, dh_tx_m=4.0)
        assert multiscreen_loss(t, 1.0, Density.METRO, Family.COST) == pytest.approx(
            16.972512912947195, abs=1e-10
        )

    def test_itu_above_2ghz_substitutions(self):
        t = make_terrain(f_mhz=3400.0, b_m=25.0, dh_tx_m=4.0)
        ka, kf = multiscreen_constants(t, Density.METRO, Family.ITU)
        assert (ka, kf) == (71.4, -8.0)
        assert multiscreen_loss(t, 1.0, Density.METRO, Family.ITU) == pytest.approx(
            17.985248507565288, abs=1e-10
        )

    def test_cost_family_keeps_low_band_constants_above_2ghz(self):
        t = make_terrain(f_mhz=3400.0)
        ka, kf = multiscreen_constants(t, Density.METRO, Family.COST)
        assert ka == 54.0
        assert kf == pytest.approx(1.5 * (3400.0 / 925.0 - 1.0) - 4.0)

    def test_substitution_threshold_is_exclusive(self):
        at = make_terrain(f_mhz=2000.0)
        above = make_terrain(f_mhz=2000.5)
        assert multiscreen_constants(at, Density.SUBURBAN, Family.ITU)[0] == 54.0
        assert multiscreen_constants(above, Density.SUBURBAN, Family.ITU)[0] == 71.4

    def test_suburban_factor(self):
        t = make_terrain(f_mhz=1800.0)
        _, kf = multiscreen_constants(t, Density.SUBURBAN, Family.COST)
        assert kf == pytest.approx(0.7 * (1800.0 / 925.0 - 1.0) - 4.0)

    def test_distance_term_slope(self):
        t = make_terrain()
        one = multiscreen_loss(t, 1.0, Density.METRO, Family.COST)
        ten = multiscreen_loss(t, 10.0, Density.METRO, Family.COST)
        assert ten - one == pytest.approx(18.0)


class TestWalfischBertoni:
    def test_geometry_term_reference(self):
        # b = 2 dh_rx puts the arc tangent at 45 degrees
        t = make_terrain()
        assert building_geometry_term(t) == pytest.approx(32.93931153889857, abs=1e-10)
        angle_part = 20.0 * math.log10(45.0)
        rest = 5.0 * math.log10(288.0) - 9.0 * math.log10(24.0)
        assert building_geometry_term(t) == pytest.approx(angle_part + rest)

    def test_excess_reference(self):
        t = make_terrain()
        assert wb_excess_loss(t, 1.0) == pytest.approx(75.0396739501007, abs=1e-10)

    def test_curvature_term_vanishes_near_origin(self):
        t = make_terrain()
        d = 1e-3
        without_curvature = (
            57.1
            + math.log10(t.f_mhz)
            + 18.0 * math.log10(d)
            - 18.0 * math.log10(t.dh_tx_m)
            + building_geometry_term(t)
        )
        assert wb_excess_loss(t, d) == pytest.approx(without_curvature, abs=1e-6)

    def test_monotonically_increasing(self):
        t = make_terrain()
        d = np.linspace(0.05, 0.99 * wb_max_distance_km(t.dh_tx_m), 200)
        losses = wb_excess_loss(t, d)
        assert np.all(np.diff(losses) > 0.0)

    def test_domain_limit_value(self):
        assert wb_max_distance_km(10.0) == pytest.approx(math.sqrt(170.0))

    def test_rejects_distance_beyond_limit(self):
        t = make_terrain(dh_tx_m=10.0)
        with pytest.raises(CurvatureDomainError, match="13.5"):
            wb_excess_loss(t, 13.5)

    def test_rejects_distance_at_limit(self):
        t = make_terrain(dh_tx_m=10.0)
        with pytest.raises(CurvatureDomainError):
            wb_excess_loss(t, math.sqrt(170.0))

    def test_accepts_distance_just_inside(self):
        t = make_terrain(dh_tx_m=10.0)
        assert math.isfinite(wb_excess_loss(t, 13.0))

    def test_array_domain_check_names_offenders(self):
        t = make_terrain(dh_tx_m=10.0)
        with pytest.raises(CurvatureDomainError, match="14"):
            wb_excess_loss(t, np.array([1.0, 14.0]))


class TestPredictBasic:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("bad", [[[1.0, 2.0], [3.0]], [1.0, "x"]], ids=["ragged", "text"])
    def test_rejects_distances_that_are_not_an_array_of_numbers(self, kind, bad):
        with pytest.raises(DomainError, match="d_km must be a rectangular array of numbers"):
            predict_basic(kind, make_terrain(), bad)

    def test_wi_is_sum_of_components(self):
        t = make_terrain()
        d = np.array([0.4, 1.0, 3.3])
        expected = (
            free_space_loss(d, t.f_mhz)
            + rooftop_to_street_loss(t, Family.COST)
            + multiscreen_loss(t, d, Density.METRO, Family.COST)
        )
        assert predict_basic(ModelKind.CWI_M, t, d) == pytest.approx(expected, abs=1e-12)

    def test_wb_is_sum_of_components(self):
        t = make_terrain()
        assert predict_basic(ModelKind.W_BERT, t, 1.0) == pytest.approx(
            166.52452413888722, abs=1e-9
        )

    def test_family_delta_constant_below_2ghz(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = random_terrain(rng)
            d = float(rng.uniform(0.1, 5.0))
            for metro, suburban in [
                (ModelKind.ITWI_M, ModelKind.CWI_M),
                (ModelKind.ITWI_SU, ModelKind.CWI_SU),
            ]:
                delta = predict_basic(metro, t, d) - predict_basic(suburban, t, d)
                assert delta == pytest.approx(8.7, abs=1e-9)

    def test_density_delta_formula(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            t = random_terrain(rng)
            d = float(rng.uniform(0.1, 5.0))
            expected = 0.8 * (t.f_mhz / 925.0 - 1.0) * math.log10(t.f_mhz)
            delta = predict_basic(ModelKind.CWI_M, t, d) - predict_basic(ModelKind.CWI_SU, t, d)
            assert delta == pytest.approx(expected, abs=1e-9)

    def test_scalar_and_array_agree(self):
        t = make_terrain()
        d = np.array([0.5, 2.0])
        for kind in WI_KINDS + (ModelKind.W_BERT,):
            values = predict_basic(kind, t, d)
            assert values[0] == pytest.approx(predict_basic(kind, t, 0.5))
            assert values[1] == pytest.approx(predict_basic(kind, t, 2.0))

    def test_wb_propagates_domain_error(self):
        t = make_terrain(dh_tx_m=10.0)
        with pytest.raises(CurvatureDomainError):
            predict_basic(ModelKind.W_BERT, t, 13.5)

    @pytest.mark.parametrize("kind", WI_KINDS)
    def test_wi_equals_its_components_bitwise(self, kind):
        # one log10(d) serves both distance terms, summed in the order below
        rng = np.random.default_rng(41)
        t = random_terrain(rng, f_hi=3000.0)
        d = rng.uniform(0.01, 20.0, 1000)

        def components(distances):
            return (
                free_space_loss(distances, t.f_mhz)
                + rooftop_to_street_loss(t, kind.family)
                + multiscreen_loss(t, distances, kind.density, kind.family)
            )

        values = predict_basic(kind, t, d)
        assert values.tobytes() == components(d).tobytes()
        scalar = predict_basic(kind, t, float(d[0]))
        assert type(scalar) is float and scalar == components(float(d[0])) == values[0]

    def test_wb_equals_its_closed_form_bitwise(self):
        # evaluated in place, in the operation order of the closed form
        t = make_terrain(dh_tx_m=10.0)
        d = np.random.default_rng(31).uniform(0.01, 13.0, 1000)
        free_space = 32.4 + 20.0 * np.log10(d) + 20.0 * np.log10(t.f_mhz)
        excess = (
            57.1
            + math.log10(t.f_mhz)
            + 18.0 * np.log10(d)
            - 18.0 * math.log10(t.dh_tx_m)
            - 18.0 * np.log10(1.0 - d * d / (17.0 * t.dh_tx_m))
            + building_geometry_term(t)
        )
        values = predict_basic(ModelKind.W_BERT, t, d)
        assert np.array_equal(values, free_space + excess)
        assert np.array_equal(free_space_loss(d, t.f_mhz), free_space)
        assert np.array_equal(wb_excess_loss(t, d), excess)
        scalar = predict_basic(ModelKind.W_BERT, t, float(d[0]))
        assert type(scalar) is float and scalar == values[0]

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_peak_memory_at_most_two_vectors(self, kind):
        t = make_terrain(dh_tx_m=10.0)
        n = 200_000
        d = np.random.default_rng(37).uniform(0.05, 13.0, n)
        values, peak = traced_peak(predict_basic, kind, t, d)
        assert values.shape == (n,)
        # two n-long float arrays, plus a few array headers
        assert peak < 2 * n * 8 + 4096


class TestDistanceChecksOnLongArrays:
    """The distance and curvature checks run as reductions over all of d, and
    still word every failure as the element-wise checks did."""

    N = 200_000

    def distances(self, value):
        d = np.linspace(0.1, 16.0, self.N)
        d[self.N // 2] = value
        return d

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_bad_distance_mid_array(self, kind, bad):
        d = self.distances(bad)
        with pytest.raises(DomainError) as caught:
            predict_basic(kind, make_terrain(dh_tx_m=17.0), d)
        assert type(caught.value) is DomainError
        assert str(caught.value) == f"distances must be positive and finite km, got {d!r}"

    def test_sample_at_the_limit_mid_array(self):
        # dh_tx = 17 m puts the limit at exactly 17 km: 17 * 17 is exact
        t = make_terrain(dh_tx_m=17.0)
        with pytest.raises(CurvatureDomainError) as caught:
            predict_basic(ModelKind.W_BERT, t, self.distances(17.0))
        assert str(caught.value) == (
            "distance(s) 17 km at or beyond the curvature limit 17.0000 km "
            "(requires d^2 < 17 * dh_tx)"
        )
        inside = predict_basic(ModelKind.W_BERT, t, self.distances(np.nextafter(17.0, 0.0)))
        assert np.isfinite(inside).all()
