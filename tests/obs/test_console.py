"""Ops console: pure rendering, throttling, broken-pipe resilience."""

from __future__ import annotations

import io

from repro.obs.console import OpsConsole
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLO, SLOTracker


class _BrokenStream(io.StringIO):
    def write(self, _text):
        raise BrokenPipeError("reader went away")


def _registry():
    registry = MetricsRegistry()
    registry.counter("tweets_processed_total").inc(1200)
    registry.counter("tweets_consumed_total").inc(1250)
    registry.counter("overload_shed_total").inc(50)
    registry.gauge("ingest_queue_depth").set(17)
    return registry


class TestRender:
    def test_render_is_pure_and_complete(self):
        frame = OpsConsole.render(
            {
                "throughput": 1234.5,
                "processed": 1200,
                "queue_depth": 17,
                "shed": 50,
                "slos": [
                    {
                        "slo": "shed_fraction",
                        "firing": True,
                        "burn_short": 4.2,
                        "burn_long": 2.1,
                    }
                ],
            }
        )
        assert "repro ops console" in frame
        assert "1234.5" in frame
        assert "shed_fraction" in frame
        assert "FIRING" in frame
        assert frame.endswith("\n")

    def test_missing_and_nan_fields_render_as_dash(self):
        frame = OpsConsole.render({"throughput": float("nan")})
        assert "-" in frame
        assert "nan" not in frame


class TestDraw:
    def test_draw_writes_one_frame_to_stream(self):
        stream = io.StringIO()
        console = OpsConsole(stream=stream, min_interval_s=0.0)
        assert console.draw({"processed": 5}) is True
        assert console.n_frames == 1
        assert "repro ops console" in stream.getvalue()

    def test_non_tty_streams_append_without_ansi(self):
        stream = io.StringIO()
        console = OpsConsole(stream=stream, min_interval_s=0.0)
        assert console.use_ansi is False
        console.draw({"processed": 1})
        assert "\x1b[" not in stream.getvalue()

    def test_throttle_skips_fast_redraws_but_force_wins(self):
        stream = io.StringIO()
        console = OpsConsole(stream=stream, min_interval_s=3600.0)
        assert console.draw({"processed": 1}) is True
        assert console.draw({"processed": 2}) is False
        assert console.draw({"processed": 3}, force=True) is True
        assert console.n_frames == 2

    def test_first_frame_drawn_on_freshly_booted_host(self, monkeypatch):
        """monotonic() may start near 0; the first frame is never throttled."""
        clock = iter([0.5, 1.0, 2.0, 3601.0])
        monkeypatch.setattr(
            "repro.obs.console.time.monotonic", lambda: next(clock)
        )
        console = OpsConsole(stream=io.StringIO(), min_interval_s=3600.0)
        assert console.draw({"processed": 1}) is True
        assert console.draw({"processed": 2}) is False
        assert console.draw({"processed": 3}) is False
        assert console.draw({"processed": 4}) is True
        assert console.n_frames == 2

    def test_broken_pipe_disables_console_permanently(self):
        console = OpsConsole(stream=_BrokenStream(), min_interval_s=0.0)
        assert console.draw({"processed": 1}) is False
        # Disabled, never raises again.
        assert console.draw({"processed": 2}) is False
        console.close()  # also safe
        assert console.n_frames == 0


class TestTick:
    def test_tick_reads_registry_and_slo_status(self):
        stream = io.StringIO()
        console = OpsConsole(stream=stream, min_interval_s=0.0)
        registry = _registry()
        tracker = SLOTracker(
            [
                SLO(
                    name="shed",
                    kind="ratio",
                    budget=0.1,
                    bad=[("overload_shed_total", {})],
                    total=[("tweets_consumed_total", {})],
                )
            ]
        )
        tracker.observe(registry)
        assert console.tick(registry, tracker=tracker) is True
        frame = stream.getvalue()
        assert "1200" in frame  # processed counter
        assert "shed" in frame

    def test_first_frame_throughput_is_unknown_not_zero(self):
        stream = io.StringIO()
        console = OpsConsole(stream=stream, min_interval_s=0.0)
        fields = console.fields_from(_registry())
        import math

        assert math.isnan(fields["throughput"])
        # Second call has an interval to rate over.
        fields = console.fields_from(_registry())
        assert not math.isnan(fields["throughput"])
