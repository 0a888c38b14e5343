"""Tests for the grid-search harness."""

from __future__ import annotations

import pytest

from repro.batchml.grid_search import GridSearch, ParameterGrid


class TestParameterGrid:
    def test_cartesian_size(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(grid) == 6

    def test_iteration_covers_all(self):
        grid = ParameterGrid({"a": [1, 2], "b": [3]})
        combos = list(grid)
        assert {"a": 1, "b": 3} in combos
        assert {"a": 2, "b": 3} in combos
        assert len(combos) == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({})

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({"a": []})


class TestGridSearch:
    def test_finds_best(self):
        search = GridSearch(
            evaluate=lambda p: -((p["x"] - 3) ** 2),
            grid={"x": [0, 1, 2, 3, 4, 5]},
        )
        best = search.run()
        assert best.params == {"x": 3}
        assert best.score == 0

    def test_records_all_results(self):
        search = GridSearch(
            evaluate=lambda p: p["x"],
            grid={"x": [1, 2], "y": [0, 0]},
        )
        search.run()
        assert len(search.results) == 4

    def test_best_before_run(self):
        search = GridSearch(evaluate=lambda p: 0.0, grid={"x": [1]})
        with pytest.raises(RuntimeError):
            _ = search.best

    def test_table1_streaming_grid(self):
        """Exercise the actual Table I HT grid on a tiny stream."""
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import run_pipeline
        from repro.data.synthetic import AbusiveDatasetGenerator

        tweets = AbusiveDatasetGenerator(n_tweets=400, seed=2).generate_list()

        def evaluate(params):
            config = PipelineConfig(
                n_classes=2, model="ht", model_params=params
            )
            return run_pipeline(tweets, config).metrics["f1"]

        search = GridSearch(
            evaluate,
            grid={"split_confidence": [0.01, 0.1], "grace_period": [200]},
        )
        best = search.run()
        assert 0.0 <= best.score <= 1.0
        assert best.params["grace_period"] == 200
