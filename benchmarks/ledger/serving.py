"""The serve workloads: train a snapshot, start a real
``python -m repro serve`` process, drive it from this (separate)
process with :mod:`loadgen`, check every answer.

The server is a child of this worker and therefore a grandchild of
the orchestrator, in the same session — the orchestrator's guard ends
it even if this process dies first.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostspeed
import loadgen
from procs import die_with_parent
from spans import SpanLog, median, percentile
from spec import MAX_LATE_MS, pipeline_config

_TICKS = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# Inputs: tweets, two snapshots, expected answers
# ----------------------------------------------------------------------


class ServeInputs:
    """Seeded tweets split into training, hot-swap extra, probe and
    request pools, plus the two snapshot payloads trained on them."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        from repro.core.pipeline import AggressionDetectionPipeline
        from repro.data.synthetic import AbusiveDatasetGenerator
        from repro.serve.model import ServingModel
        from repro.serve.snapshot import payload_from_source

        n_train, n_extra = spec["serve_train"], spec["serve_extra"]
        n_probe, n_requests = spec["n_probe"], spec["n_requests"]
        tweets = AbusiveDatasetGenerator(
            n_tweets=n_train + n_extra + n_probe + n_requests,
            seed=spec["seed"],
        ).generate_list()
        # The generator emits days in order; shuffle the held-out tail
        # so probe and request pools both span it.
        held_out = tweets[n_train + n_extra:]
        random.Random(spec["seed"]).shuffle(held_out)
        self.probe = held_out[:n_probe]
        self.requests = held_out[n_probe:]
        pipeline = AggressionDetectionPipeline(pipeline_config())
        for tweet in tweets[:n_train]:
            pipeline.process(tweet)
        self.payload_v1 = payload_from_source(pipeline)
        for tweet in tweets[n_train:n_train + n_extra]:
            pipeline.process(tweet)
        self.payload_v2 = payload_from_source(pipeline)
        self.labels = set(pipeline.encoder.decode(i) for i in range(3))
        self.encoder = pipeline.encoder
        model = ServingModel(self.payload_v1)
        self.expected = [
            model.classify(tweet)["predicted"] for tweet in self.probe
        ]

    def encoded(
        self, protocol: str, tweets: List[Any], explain_share: float, seed: int
    ) -> List[bytes]:
        rng = random.Random(seed)
        encoded = []
        for tweet in tweets:
            body = tweet.to_json()
            body.pop("label", None)  # clients do not know the answer
            op = "explain" if rng.random() < explain_share else "classify"
            encoded.append(loadgen.encode_request(protocol, op, body))
        return encoded


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class ServerProcess:
    """``python -m repro serve <store> --port 0`` and its /proc view."""

    def __init__(self, store_dir: Path, log_path: Path) -> None:
        self.store_dir = store_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        #: The core the server is pinned to; None on a one-core host.
        self.core: Optional[int] = None

    def start(self) -> None:
        log = open(self.log_path, "wb")
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    str(self.store_dir), "--port", "0",
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                preexec_fn=lambda: die_with_parent(signal.SIGTERM),
            )
        finally:
            log.close()
        self._pin()
        self.address = ("127.0.0.1", self._await_port())
        self._await_ready()

    def _pin(self) -> None:
        """The server on the last core, this process and the load
        threads it starts on the others. The kernel would keep two busy
        processes apart anyway; pinning says which core is whose, so
        each side can be judged by host-speed slices taken on the core
        it ran on."""
        assert self.proc is not None
        cores = sorted(os.sched_getaffinity(0))
        if len(cores) < 2:
            return
        os.sched_setaffinity(self.proc.pid, {cores[-1]})
        os.sched_setaffinity(0, set(cores[:-1]))
        self.core = cores[-1]

    def _await_port(self) -> int:
        deadline = perf_counter() + READY_TIMEOUT_S
        marker = "serving on 127.0.0.1:"
        while perf_counter() < deadline:
            assert self.proc is not None
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited early ({self.proc.returncode}): "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            text = self.log_path.read_text(errors="replace")
            at = text.find(marker)
            if at >= 0:
                tail = text[at + len(marker):]
                digits = tail.split()[0] if tail.split() else ""
                if digits.isdigit() and tail[len(digits):len(digits) + 1]:
                    return int(digits)
            sleep(0.01)
        raise RuntimeError("server never announced its port")

    def _await_ready(self) -> None:
        deadline = perf_counter() + READY_TIMEOUT_S
        while perf_counter() < deadline:
            try:
                status, _ = loadgen.http_get(self.address, "/ready")
            except OSError:
                status = 0
            if status == 200:
                return
            sleep(0.01)
        raise RuntimeError("server never became ready")

    def cpu_seconds(self) -> float:
        """User + system CPU of the server so far: ``schedstat`` counts
        it in nanoseconds per thread; ``stat`` (clock ticks) is the
        fallback on a kernel without it."""
        assert self.proc is not None
        tasks = f"/proc/{self.proc.pid}/task"
        try:
            total_ns = 0
            for tid in os.listdir(tasks):
                with open(f"{tasks}/{tid}/schedstat", "rb") as handle:
                    total_ns += int(handle.read().split()[0])
            return total_ns / 1e9
        except (OSError, ValueError, IndexError):
            pass
        with open(f"/proc/{self.proc.pid}/stat", "rb") as handle:
            stat = handle.read()
        fields = stat[stat.rfind(b")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> Optional[int]:
        """SIGTERM → graceful drain; returns the exit code."""
        if self.proc is None or self.proc.poll() is not None:
            return self.proc.returncode if self.proc else None
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


# ----------------------------------------------------------------------
# One protocol's load: probe, single connection, open loop, closed loop
# ----------------------------------------------------------------------


def _weighted_f1(encoder: Any, truth: List[str], answers: List[Optional[str]]) -> float:
    from repro.core.evaluation import ConfusionMatrix

    matrix = ConfusionMatrix(3)
    for label, answer in zip(truth, answers):
        if answer is not None:
            matrix.add(encoder.encode(label), encoder.encode(answer))
    return matrix.weighted_f1


#: Window length at full size; shorter phases are cut into three.
#: Short on purpose: this host stalls for tens of milliseconds about
#: once a second, and a stall should spoil one window in four, not
#: every window.
WINDOW_S = 0.25
COUNT_KEYS = ("sent", "ok", "shed_429", "errors", "server_5xx", "degraded")


def _windows(duration_s: float) -> Tuple[int, float]:
    """(how many windows, how long each) for a phase."""
    n = int(round(duration_s / WINDOW_S)) if duration_s >= 4.0 * WINDOW_S else 3
    return n, duration_s / n


class SectionRun:
    """One protocol's load against the running server.

    Every measurement window is bracketed by host-speed slices, taken
    while the client threads are parked and the server is idle, and is
    scaled to the reference host by their mean; a phase reports the
    median over its windows. The host here flips between two speeds
    within seconds, each core on its own, so nothing coarser tracks
    it: a bracket is one slice on this process's core and one on the
    server's. What the server alone decides (its CPU, its saturation
    throughput, the offered rate) goes by the server core's speed;
    latency, which both sides add to, by the mean of all four slices.
    A sampler thread running *during* a window would read the load
    generator's own lock traffic as a slow host.
    """

    def __init__(
        self,
        section: Dict[str, Any],
        spec: Dict[str, Any],
        inputs: ServeInputs,
        server: ServerProcess,
        store: Any,
        spans: Optional[SpanLog],
    ) -> None:
        self.section = section
        self.spec = spec
        self.inputs = inputs
        self.server = server
        self.store = store
        self.spans = spans
        self.protocol = section["protocol"]
        assert server.address is not None
        self.address = server.address
        share = spec["explain_share"] if self.protocol == loadgen.HTTP else 0.0
        self.payloads = inputs.encoded(
            self.protocol, inputs.requests, share, spec["seed"]
        )
        self.versions: set = set()
        self.counts = {key: 0 for key in COUNT_KEYS}
        self.span_seconds = 0.0
        self.span_build_seconds = 0.0

    def _bracket(self) -> Tuple[float, float]:
        """One slice on this process's core, one on the server's."""
        own = hostspeed.slice_seconds()
        core = self.server.core
        return own, (own if core is None else hostspeed.slice_on(core))

    def _window(
        self, name: str, run: Callable[[float], loadgen.PhaseResult]
    ) -> Tuple[Dict[str, Any], loadgen.PhaseResult]:
        """Run one window between two brackets and book it: counts,
        versions seen, server CPU, host speeds, spans. ``run`` is told
        the server core's speed just before it starts, for pacing."""
        reference = hostspeed.REFERENCE_SLICE_S
        cpu_before, wall_before = self.server.cpu_seconds(), perf_counter()
        before = self._bracket()
        phase = run(reference / before[1])
        after = self._bracket()
        summary = phase.summary(self.inputs.labels)
        summary["speed"] = reference / ((before[1] + after[1]) / 2.0)
        summary["client_speed"] = reference / ((before[0] + after[0]) / 2.0)
        summary["latency_speed"] = reference / (sum(before + after) / 4.0)
        summary["server_cpu_s"] = self.server.cpu_seconds() - cpu_before
        summary["wall_s"] = perf_counter() - wall_before
        # Server CPU per answered request, at reference speed.
        summary["cpu_ms"] = (
            summary["server_cpu_s"] * summary["speed"] * 1e3
            / max(summary["ok"], 1)
        )
        for key in COUNT_KEYS:
            self.counts[key] += summary[key]
        self.versions.update(summary["versions"])
        if self.spans is not None:
            started = perf_counter()
            root = self.spans.add(name, phase.t0, phase.t0 + phase.duration_s)
            ok = phase.ok_indices(self.inputs.labels)
            sent = [phase.sent[i] for i in ok]
            done = [phase.done[i] for i in ok]
            self.spans.add_many("loadgen.late", [phase.due[i] for i in ok], sent, root)
            self.spans.add_many("request", sent, done, root)
            self.span_seconds += sum(d - s for s, d in zip(sent, done))
            self.span_build_seconds += perf_counter() - started
        return summary, phase

    # -- phases ---------------------------------------------------------

    def probe(self) -> Dict[str, Any]:
        """Each probe tweet once, in order, on one connection."""
        inputs = self.inputs
        payloads = inputs.encoded(self.protocol, inputs.probe, 0.0, 0)
        summary, phase = self._window(
            f"{self.protocol}.probe",
            lambda _speed: loadgen.closed_loop(
                self.address, self.protocol, payloads, n_clients=1,
                duration_s=float("inf"), max_requests=len(payloads),
            ),
        )
        return {
            "sent": summary["sent"],
            "ok": summary["ok"],
            "mismatches": sum(
                1 for got, want in zip(phase.predicted, inputs.expected)
                if got != want
            ) + abs(len(phase.predicted) - len(inputs.expected)),
            "f1": _weighted_f1(
                inputs.encoder,
                [tweet.label for tweet in inputs.probe],
                phase.predicted,
            ),
        }

    def single(self) -> float:
        """Median request time with one client and nothing queued."""
        classify_only = self.inputs.encoded(
            self.protocol, self.inputs.requests, 0.0, 0
        )
        summary, _ = self._window(
            f"{self.protocol}.single",
            lambda _speed: loadgen.closed_loop(
                self.address, self.protocol, classify_only,
                n_clients=1, duration_s=self.section["single_s"],
            ),
        )
        return summary["p50_ms"] * 1e3

    def open_phase(self) -> Dict[str, Any]:
        """Open loop on a Poisson schedule; due-time latency.

        The nominal rate is what the reference host is offered: a host
        running at 0.7x gets 0.7x the rate, so the server sees the same
        utilisation and the queueing share of the latency does not
        swing with the host's mood. Windows in which the sender itself
        ran late are set aside; when more than half of them are, all
        are used and the phase is flagged unresolved.
        """
        section = self.section
        n_windows, window_s = _windows(section["open_s"])
        # Mid-phase at full size; at once when the phase is only three
        # windows long, so the server has time to pick v2 up.
        swap_at = None
        if section.get("swap"):
            swap_at = n_windows // 2 if n_windows > 3 else 0

        def publish_v2() -> None:
            self.store.publish(self.inputs.payload_v2, meta={"ledger": "swap"})

        windows: List[Dict[str, Any]] = []
        late_ms: List[float] = []
        for index in range(n_windows):
            summary, phase = self._window(
                f"{self.protocol}.open",
                lambda speed_now: loadgen.open_loop(
                    self.address, self.protocol, self.payloads,
                    rate_hz=section["rate_hz"] * speed_now,
                    duration_s=window_s,
                    seed=self.spec["seed"] * 1000 + index,
                    n_connections=self.spec["n_connections"],
                    midpoint_hook=publish_v2 if index == swap_at else None,
                ),
            )
            windows.append(summary)
            late_ms.extend((s - d) * 1e3 for s, d in zip(phase.sent, phase.due))
        # A quarter-second window holds ~100-300 requests, so its 99th
        # percentile is its maximum; what decides whether the window's
        # p50/p95 latency can be trusted is its lateness at p95.
        on_time = [w for w in windows if w["late_p95_ms"] <= MAX_LATE_MS]
        unresolved = len(on_time) * 2 < n_windows
        used = windows if unresolved else on_time
        # The server polls the store every 0.25 s, so the swap lands in
        # the second after the publish.
        after_swap = (
            windows[swap_at:swap_at + max(1, int(round(1.0 / window_s)))]
            if swap_at is not None else []
        )
        return {
            "p50_ms": median(w["p50_ms"] * w["latency_speed"] for w in used),
            "p95_ms": median(w["p95_ms"] * w["latency_speed"] for w in used),
            "cpu_ms": median(w["cpu_ms"] for w in used),
            "raw_p50_ms": median(w["p50_ms"] for w in used),
            "raw_p95_ms": median(w["p95_ms"] for w in used),
            "p99_ms": median(w["p99_ms"] for w in used),
            "late_p50_ms": percentile(late_ms, 50),
            "late_p99_ms": percentile(late_ms, 99),
            "late_max_ms": max(late_ms),
            "swap_window_p95_ms": max(
                (w["p95_ms"] for w in after_swap), default=float("nan")
            ),
            "busy_frac": (
                sum(w["server_cpu_s"] for w in windows)
                / sum(w["wall_s"] for w in windows)
            ),
            "speed": median(w["speed"] for w in windows),
            "n_windows": n_windows,
            "window_s": window_s,
            "windows_late": n_windows - len(on_time),
            "unresolved": unresolved,
            "windows": [
                {k: w[k] for k in (
                    "p50_ms", "p95_ms", "late_p95_ms", "speed",
                    "client_speed", "latency_speed", "cpu_ms",
                )}
                for w in windows
            ],
            **{key: sum(w[key] for w in windows) for key in COUNT_KEYS},
        }

    def closed_phase(self) -> Dict[str, Any]:
        """As many requests as ``n_connections`` waiting clients can
        complete: the server's capacity."""
        n_windows, window_s = _windows(self.section["closed_s"])
        windows = [
            self._window(
                f"{self.protocol}.closed",
                lambda _speed: loadgen.closed_loop(
                    self.address, self.protocol, self.payloads,
                    n_clients=self.spec["n_connections"], duration_s=window_s,
                ),
            )[0]
            for _ in range(n_windows)
        ]
        # Saturation throughput is what a stall hurts most (no progress
        # at all), and slices cannot see stalls: use the half of the
        # windows in which the host was closest to reference speed.
        quiet = sorted(windows, key=lambda w: w["speed"], reverse=True)
        quiet = quiet[:max(3, n_windows // 2)]
        return {
            "qps": median(w["qps"] / w["speed"] for w in quiet),
            "cpu_ms": median(w["cpu_ms"] for w in windows),
            "raw_qps": median(w["qps"] for w in windows),
            "speed": median(w["speed"] for w in windows),
            "n_windows": n_windows,
            "window_s": window_s,
            "client_seconds": self.spec["n_connections"] * n_windows * window_s,
            "windows": [
                {k: w[k] for k in ("qps", "speed", "client_speed", "cpu_ms")}
                for w in windows
            ],
            **{key: sum(w[key] for w in windows) for key in COUNT_KEYS},
        }

    def run(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"protocol": self.protocol}
        if self.section.get("probe"):
            out["probe"] = self.probe()
        if self.section.get("single_s"):
            out["single_median_us"] = self.single()
        out["open"] = self.open_phase()
        span_seconds_before = self.span_seconds
        out["closed"] = self.closed_phase()
        out["closed_span_seconds"] = self.span_seconds - span_seconds_before
        out["span_build_seconds"] = self.span_build_seconds
        out["versions"] = sorted(self.versions)
        out["counts"] = self.counts
        return out


# ----------------------------------------------------------------------
# Serve-side layers, timed in this process through public functions
# ----------------------------------------------------------------------


def serve_layer_probes(
    spec: Dict[str, Any],
    inputs: ServeInputs,
    server: ServerProcess,
    scratch: Path,
) -> Dict[str, float]:
    from repro.core.features import DegradeTier
    from repro.serve.admission import AdmissionController
    from repro.serve.model import ServingModel
    from repro.serve.snapshot import SnapshotStore

    out: Dict[str, float] = {}
    store = SnapshotStore(scratch / "probe-store")
    t0 = perf_counter()
    info = store.publish(inputs.payload_v1)
    t1 = perf_counter()
    _, payload = store.load_verified(info.version)
    t2 = perf_counter()
    model = ServingModel(payload)
    t3 = perf_counter()
    out["snapshot.publish_ms"] = (t1 - t0) * 1e3
    out["snapshot.load_verified_ms"] = (t2 - t1) * 1e3
    out["snapshot.model_build_ms"] = (t3 - t2) * 1e3
    out["snapshot.payload_bytes"] = info.n_bytes

    tweets = inputs.requests[: min(1000, len(inputs.requests))]

    def timed(call: Any, sample: List[Any]) -> float:
        costs = []
        for tweet in sample:
            start = perf_counter()
            call(tweet)
            costs.append(perf_counter() - start)
        return median(costs) * 1e6

    out["model.classify_us"] = timed(model.classify, tweets)
    out["model.classify_no_pos_us"] = timed(
        lambda t: model.classify(t, tier=DegradeTier.NO_POS), tweets
    )
    out["model.classify_text_only_us"] = timed(
        lambda t: model.classify(t, tier=DegradeTier.TEXT_ONLY), tweets
    )
    out["model.explain_us"] = timed(model.explain, tweets[:300])

    n_admit = 20000

    async def admit() -> float:
        controller = AdmissionController()
        start = perf_counter()
        for _ in range(n_admit):
            await controller.acquire("classify")
            controller.release()
        return perf_counter() - start

    out["admission.acquire_release_us"] = asyncio.run(admit()) / n_admit * 1e6

    address = server.address
    assert address is not None

    def get_cost(path: str, repeats: int) -> float:
        costs = []
        for _ in range(repeats):
            start = perf_counter()
            status, _ = loadgen.http_get(address, path)
            costs.append(perf_counter() - start)
            if status != 200:
                raise RuntimeError(f"GET {path} answered {status}")
        return median(costs)

    out["server.health_us"] = get_cost("/health", 50) * 1e6
    out["server.metrics_ms"] = get_cost("/metrics", 20) * 1e3
    return out


# ----------------------------------------------------------------------
# Task
# ----------------------------------------------------------------------


def task_serve(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set up (inputs → snapshot v1 → server ready), then run the
    sections the spec lists; ``sections == []`` is a set-up-only run."""
    from repro.serve.snapshot import SnapshotStore

    work = Path(spec["dir"])
    work.mkdir(parents=True, exist_ok=True)
    server = ServerProcess(work / "store", work / "server.log")
    out: Dict[str, Any] = {"sections": {}}
    exit_code: Optional[int] = None
    try:
        slices = hostspeed.sample(5)
        inputs = ServeInputs(spec)
        slices += hostspeed.sample(5)
        store = SnapshotStore(work / "store")
        store.publish(inputs.payload_v1, meta={"ledger": "v1"})
        server.start()
        ready = perf_counter()
        out["setup_s"] = ready - spec["spawned_at"] - sum(slices)
        out["setup_speed"] = hostspeed.speed(slices + hostspeed.sample(5))
        spans = SpanLog(spec["workload"]) if spec.get("traced") else None
        for section in spec["sections"]:
            out["sections"][section["protocol"]] = SectionRun(
                section, spec, inputs, server, store, spans
            ).run()
        if spec.get("layer_probes"):
            out["layers"] = serve_layer_probes(spec, inputs, server, work)
        out["server_peak_rss_mb"] = server.peak_rss_mb()
        if spans is not None and spec.get("spans_path"):
            with open(spec["spans_path"], "w", encoding="utf-8") as handle:
                json.dump(spans.to_json(), handle)
    finally:
        exit_code = server.stop()
    out["server_exit_code"] = exit_code
    return out
