"""Ratio formulas per family, integrality reports, rational recovery."""

from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewdist import (
    analyze,
    antipodal_even_ratios,
    antipodal_odd_ratios,
    euclidean_ratios,
    rational_inner_products,
    spherical_ratios,
)
from fewdist.errors import (
    DegenerateValuesError,
    InputError,
    NotAntipodalError,
    NotOnSphereError,
    ParameterError,
)

GOLDEN = (1 + sqrt(5)) / 2


def increasing_tuples(min_size=2, max_size=6):
    return (
        st.lists(
            st.floats(min_value=0.05, max_value=100.0, allow_nan=False),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
        .map(sorted)
        .filter(lambda v: min(b - a for a, b in zip(v, v[1:])) > 1e-3 * v[-1])
    )


class TestEuclidean:
    def test_johnson_values(self):
        assert euclidean_ratios((2.0, 4.0, 6.0)) == pytest.approx((3.0, -3.0, 1.0), abs=1e-12)

    def test_pentagon_value_is_golden(self):
        side2 = 2 - 2 * np.cos(np.deg2rad(72))
        diag2 = 2 - 2 * np.cos(np.deg2rad(144))
        k = euclidean_ratios((side2, diag2))
        assert k[0] == pytest.approx(GOLDEN, abs=1e-12)
        assert k[1] == pytest.approx(1 - GOLDEN, abs=1e-12)

    def test_e8_distance_view(self):
        assert euclidean_ratios((1.0, 2.0, 3.0, 4.0)) == pytest.approx(
            (4.0, -6.0, 4.0, -1.0), abs=1e-12
        )

    @given(increasing_tuples())
    @settings(max_examples=200)
    def test_sum_sign_and_leading_ratio(self, vals):
        k = np.asarray(euclidean_ratios(tuple(vals)))
        assert abs(k.sum() - 1.0) < 1e-8 * max(1.0, np.max(np.abs(k)))
        signs = np.sign(k)
        assert np.array_equal(signs, [(-1.0) ** i for i in range(len(vals))])
        assert k[0] > 1.0 or len(vals) == 1

    @given(increasing_tuples(), st.integers(min_value=-8, max_value=8))
    @settings(max_examples=100)
    def test_scale_invariance_exact_for_powers_of_two(self, vals, m):
        c = 2.0**m
        assert euclidean_ratios(tuple(v * c for v in vals)) == euclidean_ratios(tuple(vals))

    def test_rejects_an_empty_list(self):
        with pytest.raises(ParameterError, match="need at least one value"):
            euclidean_ratios([])

    def test_rejects_non_increasing(self):
        with pytest.raises(DegenerateValuesError):
            euclidean_ratios((4.0, 2.0))
        with pytest.raises(DegenerateValuesError):
            euclidean_ratios((2.0, 2.0 + 1e-15))


class TestSpherical:
    def test_icosahedron_values(self):
        a = 1 / sqrt(5)
        assert spherical_ratios((-1.0, -a, a)) == pytest.approx(
            (1.0, -sqrt(5), sqrt(5)), abs=1e-12
        )

    def test_cross_polytope_values(self):
        assert spherical_ratios((-1.0, 0.0)) == pytest.approx((-1.0, 2.0), abs=1e-15)

    def test_e8_inner_product_view(self):
        assert spherical_ratios((-1.0, -0.5, 0.0, 0.5)) == pytest.approx(
            (-1.0, 4.0, -6.0, 4.0), abs=1e-12
        )

    def test_sum_is_one(self):
        vals = (-0.9, -0.3, 0.2, 0.7)
        assert sum(spherical_ratios(vals)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_value_one(self):
        # beta = 1 is the self inner product, never a class representative.
        with pytest.raises((DegenerateValuesError, ParameterError, InputError)):
            spherical_ratios((-1.0, 1.0))


class TestAntipodal:
    def test_even_e8(self):
        assert antipodal_even_ratios((0.0, 0.5), 1) == pytest.approx((-3.0, 4.0), abs=1e-12)
        assert antipodal_even_ratios((0.0, 0.5), 2) == pytest.approx((2.0,), abs=1e-12)

    def test_even_requires_leading_zero(self):
        with pytest.raises((ParameterError, DegenerateValuesError, InputError)):
            antipodal_even_ratios((0.25, 0.5), 1)

    @pytest.mark.parametrize("ratios", [antipodal_odd_ratios, antipodal_even_ratios])
    @pytest.mark.parametrize("variant", [0, 3])
    def test_variant_must_be_one_or_two(self, ratios, variant):
        with pytest.raises(ParameterError, match=f"variant must be 1 or 2, got {variant}"):
            ratios((0.0, 0.5), variant)

    @pytest.mark.parametrize("beta", [(0.0, 0.5), (-0.5, 0.5), (0.5, 1.0), (0.5, 1.5)])
    def test_odd_values_lie_in_the_open_unit_interval(self, beta):
        with pytest.raises(ParameterError, match=r"must lie strictly in \(0, 1\)"):
            antipodal_odd_ratios(beta, 1)

    @pytest.mark.parametrize("beta", [(0.0, 1.0), (0.0, 0.5, 2.0)])
    def test_even_values_lie_below_one(self, beta):
        with pytest.raises(ParameterError, match="must lie below 1"):
            antipodal_even_ratios(beta, 2)

    def test_odd_synthetic(self):
        v1 = antipodal_odd_ratios((1 / 3, 2 / 3), 1)
        v2 = antipodal_odd_ratios((1 / 3, 2 / 3), 2)
        assert v1 == pytest.approx((-5 / 3, 8 / 3), abs=1e-12)
        assert v2 == pytest.approx((-5.0, 4.0), abs=1e-12)

    def test_odd_variants_differ_by_beta_factor(self):
        beta = (0.21, 0.55, 0.83)
        v1 = antipodal_odd_ratios(beta, 1)
        v2 = antipodal_odd_ratios(beta, 2)
        assert np.allclose(np.asarray(v1) / np.asarray(beta), v2, rtol=1e-12)

    def test_variant_one_sums_to_one_even(self):
        vals = antipodal_even_ratios((0.0, 0.3, 0.8), 1)
        assert sum(vals) == pytest.approx(1.0, abs=1e-12)


class TestRationalRecovery:
    def test_even_recovers_half(self):
        assert rational_inner_products([-3, 4], [2], "even", 1e-6) == [Fraction(1, 2)]

    def test_odd_recovers_fifths(self):
        got = rational_inner_products([-3, 4], [-5, 5], "odd", 1e-6)
        assert got == [Fraction(3, 5), Fraction(4, 5)]

    def test_rejects_non_integral(self):
        with pytest.raises(InputError):
            rational_inner_products([-5 / 3, 8 / 3], [-5, 4], "odd", 1e-6)

    def test_rejects_zero_denominator(self):
        with pytest.raises(InputError):
            rational_inner_products([-3, 4], [0], "even", 1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_ratios(self, bad):
        # round() would raise ValueError on NaN and OverflowError on inf.
        with pytest.raises(InputError, match="must be finite"):
            rational_inner_products([-3, bad], [-5, 5], "odd", 1e-6)
        with pytest.raises(InputError, match="must be finite"):
            rational_inner_products([-3, 4], [bad], "even", 1e-6)

    def test_near_integers_are_rounded(self):
        got = rational_inner_products([-3 + 1e-9, 4 - 1e-9], [2 + 1e-9], "even", 1e-6)
        assert got == [Fraction(1, 2)]


class TestAnalyze:
    def test_johnson_selects_euclidean(self, johnson_10_3):
        rep = analyze(johnson_10_3)
        d = rep.to_dict()
        assert d["selected"] == "euclidean"
        assert d["settings_applicable"] == ["euclidean"]
        (r,) = rep.reports
        assert r.hypothesis_met
        assert r.rounded_k == (3, -3, 1)
        assert all(r.integrality) and all(r.within_bound)
        assert r.context.N == 77 and r.context.ratio_bound == 6

    def test_pentagon_euclidean_not_hypothesis_met(self, pentagon):
        rep = analyze(pentagon, setting="euclidean")
        (r,) = rep.reports
        assert not r.hypothesis_met  # 5 < 8
        assert r.k_values[0] == pytest.approx(GOLDEN, abs=1e-9)
        assert not all(r.integrality)

    def test_pentagon_auto_selects_spherical(self, pentagon):
        rep = analyze(pentagon)
        assert rep.to_dict()["selected"] == "spherical"
        (r,) = rep.reports
        assert not r.hypothesis_met  # 5 < 6
        assert r.k_values[1] == pytest.approx(GOLDEN, abs=1e-9)

    def test_icosahedron_spherical(self, icosahedron):
        rep = analyze(icosahedron)
        d = rep.to_dict()
        # The odd antipodal family needs s >= 5, so s = 3 falls back.
        assert d["selected"] == "spherical"
        (r,) = rep.reports
        assert not r.hypothesis_met  # 12 < 18
        assert r.k_values[2] == pytest.approx(sqrt(5), abs=1e-9)
        assert r.context.cardinality_threshold == 18

    def test_e8_antipodal_with_rational_block(self, e8):
        rep = analyze(e8)
        d = rep.to_dict()
        assert d["selected"] == "antipodal"
        assert [r["setting"] for r in d["reports"]] == [
            "antipodal_even_v1",
            "antipodal_even_v2",
        ]
        assert d["reports"][0]["rounded_k"] == [-3, 4]
        assert d["reports"][1]["rounded_k"] == [2]
        assert all(d["reports"][0]["integrality"])
        rational = d["rational_inner_products"]
        assert rational["applicable"] is True
        assert rational["parity"] == "even"
        assert rational["indices"] == [2]
        assert rational["values"] == ["1/2"]
        assert rational["blanket_threshold"] == 146  # 4 * 36 + 2

    def test_e8_all_settings(self, e8):
        rep = analyze(e8, all_settings=True)
        by_setting = {r.setting: r for r in rep.reports}
        assert set(by_setting) == {
            "euclidean",
            "spherical",
            "antipodal_even_v1",
            "antipodal_even_v2",
        }
        assert by_setting["euclidean"].rounded_k == (4, -6, 4, -1)
        assert by_setting["spherical"].rounded_k == (-1, 4, -6, 4)
        assert not by_setting["euclidean"].hypothesis_met  # 240 < 420
        assert not by_setting["spherical"].hypothesis_met  # 240 < 312
        assert by_setting["antipodal_even_v1"].hypothesis_met  # 240 >= 144

    def test_dimension_override_changes_context(self, johnson_10_3):
        rep = analyze(johnson_10_3, d_override=9)
        (r,) = rep.reports
        assert r.context.d == 9
        assert r.context.N == 65
        assert r.rounded_k == (3, -3, 1)

    def test_spherical_rejected_off_sphere(self, johnson_10_3):
        with pytest.raises(NotOnSphereError):
            analyze(johnson_10_3, setting="spherical")

    def test_antipodal_rejected_without_structure(self, pentagon):
        with pytest.raises(NotAntipodalError):
            analyze(pentagon, setting="antipodal")

    def test_unknown_setting(self, pentagon):
        with pytest.raises(ParameterError):
            analyze(pentagon, setting="projective")

    def test_report_serializes(self, e8):
        import json

        from fewdist.jsonio import dumps

        payload = dumps(analyze(e8).to_dict())
        parsed = json.loads(payload)
        assert parsed["n"] == 240
