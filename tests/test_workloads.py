"""Tests for workload definitions and the evaluation grid."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    ARTICLE_WRITING_WORKLOAD,
    BALANCED_64_64_WORKLOAD,
    CHATBOT_WORKLOAD,
    FIGURE3_WORKLOADS,
    PAPER_INPUT_LENGTHS,
    PAPER_OUTPUT_LENGTHS,
    PAPER_WORKLOAD_GRID,
    Workload,
)


class TestWorkload:
    def test_label_format_matches_paper(self):
        assert Workload(32, 256).label == "[32:256]"

    def test_total_tokens_and_iterations(self):
        workload = Workload(64, 16)
        assert workload.total_tokens == 80
        assert workload.generation_iterations == 15

    def test_single_output_token_means_no_generation_iterations(self):
        assert Workload(128, 1).generation_iterations == 0

    def test_ratio(self):
        assert Workload(64, 16).input_output_ratio == pytest.approx(4.0)

    def test_invalid_workloads_rejected(self):
        with pytest.raises(ConfigurationError):
            Workload(0, 4)
        with pytest.raises(ConfigurationError):
            Workload(4, 0)

    def test_workloads_are_hashable_value_objects(self):
        assert Workload(32, 4) == Workload(32, 4)
        assert len({Workload(32, 4), Workload(32, 4), Workload(32, 8)}) == 2


class TestPaperGrid:
    def test_grid_has_15_points(self):
        assert len(PAPER_WORKLOAD_GRID) == 15

    def test_grid_covers_all_combinations(self):
        labels = {workload.label for workload in PAPER_WORKLOAD_GRID}
        for input_tokens in PAPER_INPUT_LENGTHS:
            for output_tokens in PAPER_OUTPUT_LENGTHS:
                assert f"[{input_tokens}:{output_tokens}]" in labels

    def test_grid_order_is_input_major(self):
        assert PAPER_WORKLOAD_GRID[0] == Workload(32, 1)
        assert PAPER_WORKLOAD_GRID[4] == Workload(32, 256)
        assert PAPER_WORKLOAD_GRID[5] == Workload(64, 1)
        assert PAPER_WORKLOAD_GRID[-1] == Workload(128, 256)

    def test_figure3_sweep_shape(self):
        assert len(FIGURE3_WORKLOADS) == 7
        assert FIGURE3_WORKLOADS[0] == Workload(128, 1)
        assert FIGURE3_WORKLOADS[-1] == Workload(32, 4)


class TestServicePresets:
    def test_chatbot_is_one_to_one(self):
        assert CHATBOT_WORKLOAD.input_output_ratio == pytest.approx(1.0)

    def test_article_writing_generates_more_than_it_reads(self):
        assert ARTICLE_WRITING_WORKLOAD.output_tokens > ARTICLE_WRITING_WORKLOAD.input_tokens

    def test_balanced_preset_is_64_64(self):
        assert BALANCED_64_64_WORKLOAD == Workload(64, 64)
