"""Outcome combos, entropy, and consistency categories."""

import math
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpmndiverge import cli
from bpmndiverge.distribution import (
    ConsistencyCategory,
    SingleClassError,
    build_distribution,
    consistency_category,
    normalized_entropy,
    select_representatives,
)
from bpmndiverge.simulation import KpiVector

from oracles import entropy_oracle


def vec(nc: str, hc: str = "0") -> KpiVector:
    return KpiVector(Decimal(nc), Decimal(hc), Decimal(0), Decimal(0), Decimal(0))


def entries(*vectors: KpiVector) -> list[tuple[str, KpiVector]]:
    """Each vector under the model id ``m<position>``."""
    return [(f"m{index:02}", vector) for index, vector in enumerate(vectors)]


def entropy(vectors) -> float:
    return normalized_entropy([combo.count for combo in build_distribution(entries(*vectors))])


class TestBuild:
    def test_grouping_and_ordering(self):
        vectors = [vec("1")] * 3 + [vec("2")] * 5 + [vec("3")] * 3
        combos = build_distribution(entries(*vectors))
        assert [(c.vector.NC, c.count) for c in combos] == [
            (Decimal("2"), 5),
            (Decimal("1"), 3),
            (Decimal("3"), 3),
        ]

    def test_tie_broken_by_label(self):
        # Counts equal, so the label ordering decides: "NC=1..." < "NC=2...".
        combos = build_distribution(entries(vec("2"), vec("1")))
        assert [c.vector.NC for c in combos] == [Decimal("1"), Decimal("2")]

    def test_each_combo_lists_its_models_sorted(self):
        combos = build_distribution([("m_b", vec("1")), ("m_c", vec("2")), ("m_a", vec("1"))])
        assert [(c.count, c.models) for c in combos] == [(2, ("m_a", "m_b")), (1, ("m_c",))]

    def test_vectors_that_differ_only_in_writing_share_a_combo(self):
        combos = build_distribution(entries(vec("1.50", "-0"), vec("1.5", "0.000")))
        assert [c.count for c in combos] == [2]

    def test_reading_rounds_half_to_even(self):
        def nc(text: str) -> Decimal:
            return cli._parse_kpis({**vec("0")._asdict(), "NC": text}, "kpis.json", 6).NC

        assert nc("0.1234565") == Decimal("0.123456")
        assert nc("0.1234575") == Decimal("0.123458")


class TestEntropy:
    def test_single_class_is_zero(self):
        assert normalized_entropy([7]) == 0.0

    def test_uniform_is_one(self):
        assert normalized_entropy([25, 25, 25, 25]) == 1.0

    def test_skewed_matches_oracle(self):
        assert abs(normalized_entropy([90, 5, 5]) - entropy_oracle([90, 5, 5])) <= 1e-12

    def test_two_class_even_split(self):
        assert entropy([vec("1"), vec("2")]) == 1.0


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

    def test_category_values_are_stable_strings(self):
        assert ConsistencyCategory.VERY_HIGH.value == "very_high"
        assert ConsistencyCategory.LOW.value == "low"


class TestRepresentatives:
    def test_min_id_from_each_of_top_two(self):
        assert select_representatives([["m_b", "m_a"], ["m_z"], ["m_0"]]) == ("m_a", "m_z")

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            select_representatives([["m_a", "m_b"]])


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
        shuffled = entries(*vectors)
        rng.shuffle(shuffled)
        assert build_distribution(entries(*vectors)) == build_distribution(shuffled)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=8).map(lambda n: vec(str(n))),
            min_size=1,
            max_size=40,
        )
    )
    def test_entropy_bounds(self, vectors):
        h = entropy(vectors)
        assert 0.0 <= h <= 1.0
        assert consistency_category(h) in ConsistencyCategory

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12))
    def test_entropy_matches_oracle_on_counts(self, counts):
        vectors = []
        for index, count in enumerate(counts):
            vectors.extend([vec(str(index))] * count)
        assert math.isclose(entropy(vectors), entropy_oracle(counts), abs_tol=1e-12)
