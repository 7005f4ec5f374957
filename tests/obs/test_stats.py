"""Tests for the shared stats helpers (``repro.obs.stats``)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.obs.stats import escalation_step, nearest_rank, percentile


class TestNearestRank:
    def test_textbook_examples(self):
        assert nearest_rank(10, 50) == 5
        assert nearest_rank(10, 95) == 10
        assert nearest_rank(10, 100) == 10
        assert nearest_rank(1, 1) == 1
        assert nearest_rank(4, 26) == 2

    def test_tiny_percentile_clamps_to_first(self):
        assert nearest_rank(1000, 0.001) == 1

    def test_rejects_empty_sample(self):
        with pytest.raises(InvalidParameterError):
            nearest_rank(0, 50)

    @pytest.mark.parametrize("p", [0, -1, 100.001, 200])
    def test_rejects_out_of_range_percentile(self, p):
        with pytest.raises(InvalidParameterError):
            nearest_rank(10, p)


class TestPercentile:
    def test_median_is_an_observation(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_unsorted_input(self):
        assert percentile([9, 1, 5, 7, 3], 95) == 9

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            percentile([], 50)

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=300
        ),
        st.floats(0.001, 100),
    )
    def test_matches_numpy_inverted_cdf(self, values, p):
        # The nearest-rank definition IS numpy's inverted_cdf method;
        # this pins the obs/service percentile to the reference
        # implementation exactly (no interpolation, no off-by-one).
        assert percentile(values, p) == float(
            np.percentile(values, p, method="inverted_cdf")
        )

    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=50
        ),
        st.floats(0.001, 100),
    )
    def test_result_is_always_an_observation(self, values, p):
        assert percentile(values, p) in values


class TestEscalationStep:
    def test_escalates_at_threshold(self):
        assert escalation_step(
            100.0, 0, threshold=100.0, clear_threshold=75.0, max_level=3
        ) == (0, 1)

    def test_saturates_at_max_level(self):
        assert escalation_step(
            500.0, 3, threshold=100.0, clear_threshold=75.0, max_level=3
        ) is None

    def test_holds_inside_hysteresis_band(self):
        # [clear_threshold, threshold) neither escalates nor de-escalates.
        assert escalation_step(
            80.0, 1, threshold=100.0, clear_threshold=75.0, max_level=3
        ) is None

    def test_deescalates_below_clear(self):
        assert escalation_step(
            74.9, 2, threshold=100.0, clear_threshold=75.0, max_level=3
        ) == (2, 1)

    def test_level_zero_never_deescalates(self):
        assert escalation_step(
            0.0, 0, threshold=100.0, clear_threshold=75.0, max_level=3
        ) is None

    @given(
        st.floats(0, 1000, allow_nan=False),
        st.integers(0, 3),
    )
    def test_steps_are_single_and_in_range(self, value, level):
        change = escalation_step(
            value, level, threshold=100.0, clear_threshold=75.0, max_level=3
        )
        if change is not None:
            old, new = change
            assert old == level
            assert abs(new - old) == 1
            assert 0 <= new <= 3

