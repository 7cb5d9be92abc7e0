"""The consistency ladder's ordering and parsing."""

import pytest

from repro.txn import ConsistencyLevel

pytestmark = pytest.mark.txn


class TestOrdering:
    def test_ladder_is_totally_ordered(self):
        assert (
            ConsistencyLevel.DELTA
            < ConsistencyLevel.SNAPSHOT
            < ConsistencyLevel.SERIALIZABLE
        )

    def test_rank_matches_order(self):
        ranks = [level.rank for level in ConsistencyLevel]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)

    def test_ge_le_are_consistent(self):
        for a in ConsistencyLevel:
            for b in ConsistencyLevel:
                assert (a >= b) == (not a < b)
                assert (a <= b) == (not a > b)

    def test_comparison_with_non_level_is_rejected(self):
        with pytest.raises(TypeError):
            ConsistencyLevel.DELTA < object()  # noqa: B015


class TestParsing:
    def test_parse_accepts_strings_case_insensitively(self):
        assert (
            ConsistencyLevel.parse("SERIALIZABLE")
            is ConsistencyLevel.SERIALIZABLE
        )
        assert ConsistencyLevel.parse("delta") is ConsistencyLevel.DELTA

    def test_parse_is_idempotent_on_levels(self):
        for level in ConsistencyLevel:
            assert ConsistencyLevel.parse(level) is level

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            ConsistencyLevel.parse("linearizable")
