"""Tests for run reports and ASCII charts."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import ascii_chart, render_run_report
from repro.core.config import PipelineConfig
from repro.core.pipeline import run_pipeline


@pytest.fixture(scope="module")
def results(small_stream_module):
    return {
        "HT": run_pipeline(small_stream_module, PipelineConfig(n_classes=2)),
        "SLR": run_pipeline(
            small_stream_module, PipelineConfig(n_classes=2, model="slr")
        ),
    }


@pytest.fixture(scope="module")
def small_stream_module():
    from repro.data.synthetic import AbusiveDatasetGenerator

    return AbusiveDatasetGenerator(n_tweets=1500, seed=8).generate_list()


class TestAsciiChart:
    def test_empty(self):
        assert ascii_chart([]) == ""

    def test_length_capped_at_width(self):
        series = [(i, i / 200) for i in range(200)]
        assert len(ascii_chart(series, width=40)) == 40

    def test_short_series_keeps_length(self):
        series = [(i, 0.5) for i in range(10)]
        assert len(ascii_chart(series, width=40)) == 10

    def test_monotone_series_monotone_blocks(self):
        series = [(i, i / 10) for i in range(11)]
        chart = ascii_chart(series)
        assert chart == "".join(sorted(chart))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            ascii_chart([(0, 0.5)], lo=1.0, hi=0.0)

    def test_clamps_out_of_range(self):
        chart = ascii_chart([(0, -5.0), (1, 5.0)])
        assert len(chart) == 2


class TestRunReport:
    def test_contains_sections(self, results):
        report = render_run_report(results["HT"], title="HT run")
        assert report.startswith("# HT run")
        assert "| f1 |" in report
        assert "```" in report
        assert "HT, p=ON" in report

    def test_metrics_formatted(self, results):
        report = render_run_report(results["HT"])
        f1 = results["HT"].metrics["f1"]
        assert f"{f1:.4f}" in report
