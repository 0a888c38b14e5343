"""Command-line interface.

Subcommands:

* ``generate`` — write a synthetic dataset to a JSONL file;
* ``run`` — drive the sequential or micro-batch engine over a JSONL
  stream under a :class:`~repro.reliability.supervisor.StreamSupervisor`
  (ingest validation always; checkpoints, retries, overload control on
  request) and report prequential metrics (optionally saving the
  trained model);
* ``classify`` — classify a JSONL stream with a saved model, writing
  one prediction per line;
* ``simulate`` — project execution time/throughput for the paper's
  cluster configurations with the calibrated cost model;
* ``serve`` — answer ``classify``/``explain`` requests over HTTP and
  JSONL from a snapshot store, hot-swapping models as training
  publishes new versions;
* ``snapshot`` — publish to / inspect a serving snapshot store.

Invoke as ``python -m repro <subcommand> ...``.

Human-readable reporting goes through the ``repro`` logger tree
(``--log-level``/``--log-json`` control verbosity and format; the
default output is byte-identical to the historical ``print`` output).
Data output — ``classify`` predictions — is written straight to stdout
so it stays pipeable regardless of log configuration. ``run`` accepts
``--metrics-out FILE`` to export the run's telemetry: JSONL events
(periodic + final metric snapshots) to FILE and a Prometheus text
exposition to ``FILE.prom``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.core.config import PipelineConfig
from repro.data.loader import read_jsonl, write_jsonl
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.cluster import PAPER_SPECS, CostModel, SimulatedCluster
from repro.obs.export import TelemetrySink, write_exposition
from repro.obs.logconfig import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.reliability.overload import SHED_POLICIES
from repro.streamml.serialize import load_model, save_model

logger = get_logger("cli")


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return parsed


def _non_negative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _rate(value: str) -> float:
    parsed = float(value)
    if not 0.0 <= parsed <= 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1]")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    """The full CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Real-time aggression detection on social media "
        "(ICDE 2021 reproduction)",
    )
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="minimum log level (default info)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as JSON lines instead of "
                        "plain messages")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic labeled dataset as JSONL"
    )
    generate.add_argument("output", help="output JSONL path")
    generate.add_argument("--tweets", type=int, default=10_000,
                          help="number of tweets (default 10000)")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--user-pool", type=int, default=None,
                          help="size of a recurring-author pool")

    run = commands.add_parser(
        "run", help="run the streaming pipeline over a JSONL stream"
    )
    run.add_argument("input", help="input JSONL path")
    run.add_argument("--classes", type=int, choices=(2, 3), default=2)
    run.add_argument("--model", default="ht",
                     choices=("ht", "arf", "slr", "gnb", "majority"))
    run.add_argument("--no-adaptive-bow", action="store_true")
    run.add_argument("--normalization", default="minmax_no_outliers",
                     choices=("minmax", "minmax_no_outliers", "zscore",
                              "none"))
    run.add_argument("--engine", default="sequential",
                     choices=("sequential", "microbatch"),
                     help="sequential (MOA-like) or micro-batch (Fig. 2) "
                     "execution")
    run.add_argument("--partitions", type=_positive_int, default=4,
                     help="micro-batch partitions per batch (default 4)")
    run.add_argument("--batch-size", type=_positive_int, default=5000,
                     help="tweets per micro-batch (default 5000)")
    run.add_argument("--runner", default="serial",
                     choices=("serial", "processes"),
                     help="micro-batch partition executor (default serial)")
    run.add_argument("--workers", type=_positive_int, default=None,
                     help="worker processes for --runner processes "
                     "(default: --partitions)")
    run.add_argument("--pipeline", action="store_true",
                     help="double-buffer micro-batches: overlap the "
                     "driver's merge/drain of batch k with batch k+1's "
                     "partition execution (microbatch engine; results "
                     "are bit-exact with the synchronous path; on "
                     "--resume the checkpoint keeps its own mode)")
    run.add_argument("--save-model", default=None,
                     help="write the trained model to this JSON path")
    run.add_argument("--report", default=None,
                     help="write a markdown run report to this path "
                     "(sequential engine, not with --resume)")
    run.add_argument("--retries", type=int, default=None, metavar="N",
                     help="retry transient partition failures up to N "
                     "times with exponential backoff (microbatch engine)")
    run.add_argument("--checkpoint-every", type=_positive_int, default=10,
                     metavar="N",
                     help="checkpoint after every N chunks when "
                     "--checkpoint-dir is set (default 10)")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="periodically checkpoint engine state to DIR "
                     "(atomic writes)")
    run.add_argument("--resume", action="store_true",
                     help="resume from the last checkpoint in "
                     "--checkpoint-dir, replaying only unprocessed tweets")
    run.add_argument("--max-poison-rate", type=_rate, default=None,
                     metavar="RATE",
                     help="quarantine malformed tweets instead of crashing, "
                     "but abort once their fraction exceeds RATE "
                     "(e.g. 0.05)")
    run.add_argument("--queue-capacity", type=_positive_int, default=None,
                     metavar="N",
                     help="bound the ingest queue at N tweets and shed "
                     "excess load by --shed-policy instead of buffering "
                     "without limit")
    run.add_argument("--shed-policy", default="drop-oldest",
                     choices=SHED_POLICIES,
                     help="what to evict when the ingest queue is full "
                     "(default drop-oldest; labeled tweets are never shed)")
    run.add_argument("--batch-deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="soft per-batch deadline; repeated misses shrink "
                     "the batch size and then degrade the feature pipeline "
                     "(FULL -> NO_POS -> TEXT_ONLY), recovering when load "
                     "subsides")
    run.add_argument("--partition-deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="per-partition execution deadline (microbatch "
                     "engine, --runner processes): partitions are "
                     "independent fault domains "
                     "— stragglers time out, lost workers trigger a "
                     "pool-only rebuild, and failed partitions retry "
                     "alone before being quarantined")
    run.add_argument("--arrival-rate", type=float, default=None,
                     metavar="HZ",
                     help="replay the stream closed-loop at this mean "
                     "arrival rate through the bounded ingest queue, so "
                     "bursts above capacity genuinely build backlog "
                     "(requires/implies --queue-capacity)")
    run.add_argument("--burst-factor", type=float, default=1.0,
                     metavar="X",
                     help="with --arrival-rate: peak-to-mean rate ratio; "
                     "1.0 keeps plain Poisson arrivals, >1 adds periodic "
                     "bursts at X times the mean (default 1.0)")
    run.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="export run telemetry: JSONL snapshot/event "
                     "stream to FILE plus a Prometheus text exposition "
                     "to FILE.prom")
    run.add_argument("--console", action="store_true",
                     help="redraw a one-screen ops console on stderr "
                     "after each chunk/batch: throughput, queue depth, "
                     "degrade tier, partition count, SLO burn rates")
    run.add_argument("--flight-recorder", default=None, metavar="DIR",
                     help="keep a bounded in-memory ring of recent "
                     "telemetry and dump it to DIR as JSONL on "
                     "incidents (quarantine, pool rebuild, crash)")
    run.add_argument("--publish-snapshot", default=None, metavar="DIR",
                     help="publish a verified serving snapshot to the "
                     "store at DIR on every checkpoint, so a live "
                     "'repro serve' hot-swaps models while this run "
                     "trains")

    serve = commands.add_parser(
        "serve", help="serve classifications over HTTP/JSONL from a "
        "snapshot store, hot-swapping on publish"
    )
    serve.add_argument("store", help="snapshot store directory (fed by "
                       "'run --publish-snapshot' or 'snapshot publish')")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8423,
                       help="listen port; 0 picks a free one "
                       "(default 8423)")
    serve.add_argument("--queue-capacity", type=_non_negative_int,
                       default=64,
                       help="admission waiting-room size; beyond it the "
                       "shed policy decides (default 64)")
    serve.add_argument("--shed-policy", default="drop-newest",
                       choices=SHED_POLICIES,
                       help="who is shed when the waiting room is full "
                       "(default drop-newest; shed requests get 429 + "
                       "Retry-After)")
    serve.add_argument("--poll-interval", type=float, default=0.25,
                       metavar="SECONDS",
                       help="snapshot-store poll cadence for hot swaps "
                       "(default 0.25)")
    serve.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="export serving telemetry: JSONL events to "
                       "FILE plus a Prometheus exposition to FILE.prom "
                       "on exit (live scrapes: GET /metrics)")
    serve.add_argument("--flight-recorder", default=None, metavar="DIR",
                       help="dump the telemetry ring to DIR on "
                       "incidents (snapshot rejected, handler errors)")

    snapshot = commands.add_parser(
        "snapshot", help="manage serving snapshot stores"
    )
    snapshot_commands = snapshot.add_subparsers(
        dest="snapshot_command", required=True
    )
    publish = snapshot_commands.add_parser(
        "publish", help="publish a verified snapshot from a checkpoint"
    )
    publish.add_argument("store", help="snapshot store directory "
                         "(created if missing)")
    publish.add_argument("--from-checkpoint", required=True,
                         metavar="PATH",
                         help="supervisor checkpoint directory or a "
                         "checkpoint/pipeline JSON file to publish from")
    snapshot_list = snapshot_commands.add_parser(
        "list", help="list the verified versions in a store"
    )
    snapshot_list.add_argument("store")

    classify = commands.add_parser(
        "classify", help="classify a JSONL stream with a saved model"
    )
    classify.add_argument("model", help="model JSON path (from 'run')")
    classify.add_argument("input", help="input JSONL path")
    classify.add_argument("--classes", type=int, choices=(2, 3), default=2)

    simulate = commands.add_parser(
        "simulate", help="project cluster execution time / throughput"
    )
    simulate.add_argument("--tweets", type=int, default=2_000_000)
    simulate.add_argument("--measured-throughput", type=float, default=None,
                          help="calibrate per-tweet cost from a measured "
                          "single-thread tweets/s")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = AbusiveDatasetGenerator(
        n_tweets=args.tweets,
        seed=args.seed,
        user_pool_size=args.user_pool,
    )
    count = write_jsonl(generator.generate(), args.output)
    counts = dict(zip(("normal", "abusive", "hateful"),
                      generator.class_counts))
    logger.info("wrote %d tweets to %s (%s)", count, args.output, counts)
    return 0


def _open_telemetry(
    args: argparse.Namespace,
) -> Optional[TelemetrySink]:
    if args.metrics_out is None:
        return None
    return TelemetrySink(args.metrics_out)


def _finalize_telemetry(
    sink: Optional[TelemetrySink],
    registry: MetricsRegistry,
    args: argparse.Namespace,
) -> None:
    """Write the exposition sibling and close the JSONL sink."""
    if sink is None:
        return
    prom_path = f"{args.metrics_out}.prom"
    write_exposition(registry, prom_path)
    sink.close()
    logger.info("telemetry      : %s (+ %s)", args.metrics_out, prom_path)


def _run_flag_error(args: argparse.Namespace) -> Optional[str]:
    """The first invalid ``run`` flag combination, if any."""
    if args.resume and args.checkpoint_dir is None:
        return "--resume requires --checkpoint-dir"
    if args.arrival_rate is not None and args.arrival_rate <= 0:
        return "--arrival-rate must be positive"
    if args.batch_deadline is not None and args.batch_deadline <= 0:
        return "--batch-deadline must be positive"
    if args.partition_deadline is not None and args.partition_deadline <= 0:
        return "--partition-deadline must be positive"
    if args.partition_deadline is not None and args.engine != "microbatch":
        return "--partition-deadline requires --engine microbatch"
    if args.partition_deadline is not None and args.runner != "processes":
        return "--partition-deadline requires --runner processes"
    if args.pipeline and args.engine != "microbatch":
        return "--pipeline requires --engine microbatch"
    if args.report is not None and (args.engine != "sequential" or args.resume):
        return "--report requires --engine sequential without --resume"
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    """Drive the chosen engine over the stream under a supervisor.

    Every run is supervised: ingest validation and quarantine always;
    retries, checkpoints, the bounded queue, the overload controller
    and snapshot publishing when their flags ask for them.
    """
    error = _run_flag_error(args)
    if error is not None:
        logger.error("error: %s", error)
        return 2
    from repro.engine.microbatch import MicroBatchEngine
    from repro.engine.sequential import SequentialEngine
    from repro.obs.console import OpsConsole
    from repro.obs.recorder import FlightRecorder
    from repro.obs.slo import SLOTracker, default_slos
    from repro.reliability import (
        BoundedIngestQueue,
        DeadLetterQueue,
        OverloadController,
        RetryPolicy,
        StreamSupervisor,
    )

    retry_policy = (
        RetryPolicy(max_retries=args.retries)
        if args.retries is not None
        else None
    )
    dead_letters = DeadLetterQueue()
    sink = _open_telemetry(args)
    recorder = (
        FlightRecorder(dump_dir=args.flight_recorder)
        if args.flight_recorder is not None
        else None
    )
    console = OpsConsole() if args.console else None
    snapshot_store = None
    if args.publish_snapshot is not None:
        from repro.serve.snapshot import SnapshotStore

        snapshot_store = SnapshotStore(args.publish_snapshot)
    options = dict(
        checkpoint_every=args.checkpoint_every,
        dead_letters=dead_letters,
        max_poison_rate=args.max_poison_rate,
        telemetry=sink,
        console=console,
        recorder=recorder,
        snapshot_store=snapshot_store,
    )
    if args.resume:
        # The checkpoint decides the engine (and its pipelined mode);
        # the flags only re-wire its execution.
        supervisor = StreamSupervisor.resume(
            args.checkpoint_dir,
            runner=args.runner,
            n_workers=args.workers,
            retry_policy=retry_policy,
            partition_deadline_s=args.partition_deadline,
            **options,
        )
    else:
        config = PipelineConfig(
            n_classes=args.classes,
            model=args.model,
            adaptive_bow=not args.no_adaptive_bow,
            normalization=args.normalization,
        )
        if args.engine == "microbatch":
            engine = MicroBatchEngine(
                config,
                n_partitions=args.partitions,
                batch_size=args.batch_size,
                runner=args.runner,
                n_workers=args.workers,
                retry_policy=retry_policy,
                dead_letters=dead_letters,
                partition_deadline_s=args.partition_deadline,
                recorder=recorder,
                pipelined=args.pipeline,
            )
        else:
            engine = SequentialEngine(config, dead_letters=dead_letters)
        ingest_queue = None
        if (
            args.queue_capacity is not None
            or args.batch_deadline is not None
            or args.arrival_rate is not None
        ):
            # Closed-loop replay and the controller both need the
            # bounded queue; default its capacity to a few batches.
            ingest_queue = BoundedIngestQueue(
                capacity=args.queue_capacity or 4 * args.batch_size,
                policy=args.shed_policy,
                metrics=engine.metrics,
                telemetry=sink,
            )
            if args.batch_deadline is not None:
                engine.controller = OverloadController(
                    batch_deadline_s=args.batch_deadline,
                    batch_size=args.batch_size,
                    queue=ingest_queue,
                    metrics=engine.metrics,
                    telemetry=sink,
                    engine_label=engine.kind,
                )
        supervisor = StreamSupervisor(
            engine,
            checkpoint_dir=args.checkpoint_dir,
            ingest_queue=ingest_queue,
            slos=SLOTracker(
                default_slos(),
                sinks=[s for s in (sink, recorder) if s is not None],
            ),
            **options,
        )
    engine = supervisor.engine
    # SIGTERM/SIGINT drain gracefully: stop drawing tweets, flush the
    # buffered work through the engine, write a final checkpoint (and
    # snapshot), exit 0. A second signal falls through to the previous
    # handler for a hard kill; the previous handlers are back in place
    # once the run returns.
    import signal as _signal

    previous_handlers = {}

    def _graceful_stop(signum: int, frame: object) -> None:
        supervisor.request_stop()
        _signal.signal(signum, previous_handlers.get(
            signum, _signal.SIG_DFL
        ))

    for _sig in (_signal.SIGTERM, _signal.SIGINT):
        try:
            previous_handlers[_sig] = _signal.signal(_sig, _graceful_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    if sink is not None:
        sink.event(
            "run_start",
            engine=engine.kind,
            input=args.input,
            resumed=args.resume,
        )
    try:
        stream = read_jsonl(args.input, metrics=supervisor.metrics)
        if args.arrival_rate is not None:
            from repro.data.firehose import ArrivalSchedule

            if args.burst_factor > 1.0:
                schedule = ArrivalSchedule(
                    rate_hz=args.arrival_rate,
                    shape="bursty",
                    burst_factor=args.burst_factor,
                )
            else:
                schedule = ArrivalSchedule(
                    rate_hz=args.arrival_rate, shape="poisson"
                )
            run = supervisor.run_timed(schedule.assign(stream))
        else:
            run = supervisor.run(stream)
    finally:
        engine.close()
        if console is not None:
            console.close()
        for _sig, handler in previous_handlers.items():
            _signal.signal(_sig, handler)
    result = run.result
    health = run.health
    registry = supervisor.metrics
    logger.info("configuration : %s", engine.config.describe())
    logger.info("engine        : %s, supervised%s",
                engine.describe(), ", resumed" if args.resume else "")
    logger.info("processed     : %d tweets (%d labeled)",
                health.n_processed, registry.total("tweets_labeled_total"))
    for name, value in result.metrics.items():
        logger.info("  %-10s %.4f", name, value)
    logger.info("throughput    : %s tweets/s",
                format(result.throughput, ",.0f"))
    for title, stages in result.timing_sections():
        logger.info("%-14s:", title)
        for stage, seconds in stages.items():
            logger.info("  %-18s %9.3f s", stage, seconds)
    logger.info("alerts        : %d", registry.total("alerts_total"))
    logger.info("quarantined   : %d tweets (%.2f%% of %d consumed)",
                health.n_quarantined, 100.0 * health.poison_rate,
                health.n_consumed)
    if health.dead_letters_by_stage:
        for stage, count in sorted(health.dead_letters_by_stage.items()):
            logger.info("  %-18s %d", stage, count)
    logger.info("retries       : %d", health.n_retries)
    queue = supervisor.ingest_queue
    if queue is not None:
        counters = queue.as_counters()
        logger.info("overload      : %d/%d shed (%s, max depth %d/%d)",
                    counters["n_shed"], counters["n_offered"],
                    queue.policy, counters["max_depth"], queue.capacity)
        if counters["n_over_capacity"]:
            logger.info("  labeled tweets soft-admitted past the bound: %d "
                        "(labeled traffic is never shed)",
                        counters["n_over_capacity"])
    controller = supervisor.controller
    if controller is not None:
        logger.info("degradation   : %d deadline misses, %d degrades, "
                    "%d recovers, final tier %s (worst %s)",
                    controller.n_deadline_misses, controller.n_degrades,
                    controller.n_recovers, controller.tier.name,
                    controller.max_tier_reached.name)
    if args.partition_deadline is not None:
        logger.info("parallelism   : %d partition timeouts, "
                    "%d pool rebuilds",
                    health.n_partition_timeouts,
                    registry.total("pool_rebuilds_total"))
    if run.stopped:
        logger.info("stopped       : graceful drain at cursor %d; "
                    "re-run with --resume to continue",
                    supervisor._cursor)
    if args.checkpoint_dir:
        logger.info("checkpoints   : %d written to %s",
                    health.n_checkpoints, args.checkpoint_dir)
    if snapshot_store is not None:
        latest = snapshot_store.latest_version()
        logger.info("snapshots     : latest v%s published to %s",
                    latest if latest is not None else "-",
                    args.publish_snapshot)
    tracker = supervisor.slo_tracker
    if tracker is not None:
        logger.info("slo burn      : (short/long, 1.0 = at budget)")
        for entry in tracker.status():
            logger.info("  %-18s %6.2f / %6.2f%s",
                        entry["slo"], entry["burn_short"],
                        entry["burn_long"],
                        "  FIRING" if entry["firing"] else "")
        card = supervisor.scorecard()
        logger.info("scorecard     : f1=%.3f p99=%.3fs shed=%.4f "
                    "quarantine=%.4f availability=%.4f alerts=%d",
                    card.f1, card.p99_batch_seconds, card.shed_fraction,
                    card.quarantine_rate, card.availability,
                    card.alerts_fired)
    if recorder is not None and recorder.n_dumps:
        logger.info("flight dumps  : %d written to %s",
                    recorder.n_dumps, args.flight_recorder)
    if args.save_model:
        size = save_model(engine.model, args.save_model)
        logger.info("model saved   : %s (%d bytes)", args.save_model, size)
    if args.report:
        from repro.analysis.reporting import render_run_report

        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(render_run_report(result.pipeline_result))
        logger.info("report saved  : %s", args.report)
    _finalize_telemetry(sink, registry, args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve classifications from a snapshot store until SIGTERM."""
    import asyncio

    from repro.obs.recorder import FlightRecorder
    from repro.serve.server import AggressionServer
    from repro.serve.snapshot import SnapshotStore

    sink = _open_telemetry(args)
    recorder = (
        FlightRecorder(dump_dir=args.flight_recorder)
        if args.flight_recorder is not None
        else None
    )
    store = SnapshotStore(args.store)
    server = AggressionServer(
        store,
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        shed_policy=args.shed_policy,
        poll_interval_s=args.poll_interval,
        telemetry=sink,
        recorder=recorder,
    )
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    logger.info("served        : %d requests (%d swaps, %d rejected "
                "snapshots, %d shed)",
                server.n_requests, server.n_swaps,
                store.n_rejected, server.admission.n_shed)
    _finalize_telemetry(sink, server.metrics, args)
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.serve.snapshot import (
        SnapshotIntegrityError,
        SnapshotStore,
        payload_from_checkpoint,
    )

    if args.snapshot_command == "publish":
        from pathlib import Path

        source = Path(args.from_checkpoint)
        if source.is_dir():
            source = source / "checkpoint.json"
        if not source.exists():
            logger.error("error: checkpoint not found: %s", source)
            return 2
        try:
            payload = payload_from_checkpoint(source)
        except SnapshotIntegrityError as exc:
            logger.error("error: %s", exc)
            return 2
        store = SnapshotStore(args.store)
        info = store.publish(payload, meta={"source": str(source)})
        logger.info("published     : v%d (%d bytes, sha256 %s...) to %s",
                    info.version, info.n_bytes, info.sha256[:12],
                    args.store)
        return 0
    store = SnapshotStore(args.store)
    versions = store.versions()
    if not versions:
        logger.info("store %s is empty", args.store)
        return 0
    latest = store.latest_version()
    for version in versions:
        info = store.info(version)
        marker = " (latest)" if version == latest else ""
        logger.info("v%-6d %10d bytes  sha256 %s...  %s%s",
                    version, info.n_bytes, info.sha256[:12],
                    json.dumps(info.meta, separators=(",", ":")),
                    marker)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.core.features import FeatureExtractor, LabelEncoder

    model = load_model(args.model)
    encoder = LabelEncoder(args.classes)
    extractor = FeatureExtractor(encoder=encoder)
    # Predictions are data output, not logging: write them directly so
    # they stay pipeable under any --log-level / --log-json setting.
    out = sys.stdout
    try:
        for record in read_jsonl(args.input):
            tweet = record.parse()
            instance = extractor.extract(tweet, update_bow=False)
            predicted = model.predict_one(instance.x)
            out.write(json.dumps({
                "id_str": tweet.tweet_id,
                "predicted": encoder.decode(predicted),
            }, separators=(",", ":")))
            out.write("\n")
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; exit
        # quietly like any well-behaved filter. Swap in a devnull
        # stdout so interpreter shutdown doesn't re-raise on flush.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.measured_throughput:
        cost_model = CostModel.calibrated(args.measured_throughput)
    else:
        cost_model = CostModel()
    logger.info("%-13s%12s%12s", "config", "time (s)", "tweets/s")
    for spec in PAPER_SPECS:
        cluster = SimulatedCluster(spec, cost_model)
        result = cluster.simulate(args.tweets)
        logger.info("%-13s%12.1f%s", spec.name, result.execution_time_s,
                    format(result.throughput, ">12,.0f"))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "classify": _cmd_classify,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "snapshot": _cmd_snapshot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_output=args.log_json)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
