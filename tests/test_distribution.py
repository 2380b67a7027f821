"""Quantized outcome distributions, entropy, and consistency categories."""

import math
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpmndiverge.distribution import (
    ConsistencyCategory,
    EmptyInputError,
    OutOfRangeError,
    SingleClassError,
    build_distribution,
    consistency_category,
    normalized_entropy,
    select_representatives,
)
from bpmndiverge.simulation import KpiVector

from oracles import entropy_oracle


def vec(nc: str, hc: str = "0") -> KpiVector:
    return KpiVector((("NC", Decimal(nc)), ("HC", Decimal(hc))))


class TestBuild:
    def test_grouping_and_ordering(self):
        vectors = [vec("1")] * 3 + [vec("2")] * 5 + [vec("3")] * 3
        dist = build_distribution(vectors)
        assert dist.total == 11
        assert [(dict(c.vector.values)["NC"], c.count) for c in dist.combos] == [
            (Decimal("2"), 5),
            (Decimal("1"), 3),
            (Decimal("3"), 3),
        ]
        assert dist.combos[0].probability == 5 / 11

    def test_tie_broken_by_label(self):
        # Counts equal, so the label ordering decides: "NC=1..." < "NC=2...".
        dist = build_distribution([vec("2"), vec("1")])
        assert [dict(c.vector.values)["NC"] for c in dist.combos] == [Decimal("1"), Decimal("2")]

    def test_quantization_merges_nearby_vectors(self):
        a = vec("0.1234564")
        b = vec("0.1234561")
        dist = build_distribution([a, b], round_decimals=6)
        assert len(dist.combos) == 1
        assert dict(dist.combos[0].vector.values)["NC"] == Decimal("0.123456")

    def test_round_half_even(self):
        assert dict(vec("0.1234565").quantized(6).values)["NC"] == Decimal("0.123456")
        assert dict(vec("0.1234575").quantized(6).values)["NC"] == Decimal("0.123458")

    def test_combo_of_records_each_input(self):
        # 1.0000001 rounds to 1 at six decimals, so it joins the larger combo.
        dist = build_distribution([vec("1"), vec("2"), vec("1.0000001")])
        assert [c.count for c in dist.combos] == [2, 1]
        assert dist.combo_of == (0, 1, 0)

    def test_a_value_past_the_decimal_exponent_limit_is_out_of_range(self):
        vector = KpiVector((("NC", Decimal(1)), ("CS", Decimal("1e999999999"))))
        with pytest.raises(OutOfRangeError, match=r"^KPI vector NC=1;CS=1E\+999999999 has too"):
            build_distribution([vec("1"), vector])

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            build_distribution([])

    @pytest.mark.parametrize("bad", [-1, 13])
    def test_round_decimals_range(self, bad):
        with pytest.raises(OutOfRangeError):
            build_distribution([vec("1")], round_decimals=bad)


class TestEntropy:
    def test_single_class_is_zero(self):
        assert normalized_entropy(build_distribution([vec("1")] * 7)) == 0.0

    def test_uniform_is_one(self):
        vectors = [vec("1"), vec("2"), vec("3"), vec("4")] * 25
        assert normalized_entropy(build_distribution(vectors)) == 1.0

    def test_skewed_matches_oracle(self):
        vectors = [vec("1")] * 90 + [vec("2")] * 5 + [vec("3")] * 5
        h = normalized_entropy(build_distribution(vectors))
        assert abs(h - entropy_oracle([90, 5, 5])) <= 1e-12

    def test_two_class_even_split(self):
        h = normalized_entropy(build_distribution([vec("1"), vec("2")]))
        assert h == 1.0


class TestCategories:
    @pytest.mark.parametrize(
        "h,expected",
        [
            (0.0, ConsistencyCategory.VERY_HIGH),
            (0.30, ConsistencyCategory.VERY_HIGH),
            (0.30 + 1e-9, ConsistencyCategory.HIGH),
            (0.50, ConsistencyCategory.HIGH),
            (0.50 + 1e-9, ConsistencyCategory.MODERATE),
            (0.70, ConsistencyCategory.MODERATE),
            (0.70 + 1e-9, ConsistencyCategory.LOW),
            (1.0, ConsistencyCategory.LOW),
        ],
    )
    def test_boundaries(self, h, expected):
        assert consistency_category(h) is expected

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRangeError):
            consistency_category(bad)

    def test_category_values_are_stable_strings(self):
        assert ConsistencyCategory.VERY_HIGH.value == "very_high"
        assert ConsistencyCategory.LOW.value == "low"


class TestRepresentatives:
    def test_min_id_from_each_of_top_two(self):
        assert select_representatives([["m_b", "m_a"], ["m_z"], ["m_0"]]) == ("m_a", "m_z")

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            select_representatives([["m_a", "m_b"]])

    def test_missing_members_rejected(self):
        with pytest.raises(ValueError, match="combo 1"):
            select_representatives([["m_a"], []])


class TestProperties:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=30).map(lambda n: vec(str(n))),
            min_size=1,
            max_size=60,
        ),
        st.randoms(use_true_random=False),
    )
    def test_input_order_is_irrelevant(self, vectors, rng):
        shuffled = list(vectors)
        rng.shuffle(shuffled)
        a = build_distribution(vectors)
        b = build_distribution(shuffled)
        assert a[:3] == b[:3]  # combo_of follows the input order
        assert normalized_entropy(a) == normalized_entropy(b)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=8).map(lambda n: vec(str(n))),
            min_size=1,
            max_size=40,
        )
    )
    def test_entropy_bounds(self, vectors):
        h = normalized_entropy(build_distribution(vectors))
        assert 0.0 <= h <= 1.0
        assert consistency_category(h) in ConsistencyCategory

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12))
    def test_entropy_matches_oracle_on_counts(self, counts):
        vectors = []
        for index, count in enumerate(counts):
            vectors.extend([vec(str(index))] * count)
        h = normalized_entropy(build_distribution(vectors))
        assert math.isclose(h, entropy_oracle(counts), abs_tol=1e-12)
