"""Traced passes over the train path: spans recorded here, around
calls into each layer's public functions, over the same generated
inputs the untraced workloads read.

Two tasks, one child each:

* ``trace_core`` — the sequential path. A traced replica of
  ``SequentialEngine.run`` (spans around ``read_jsonl``'s iterator and
  ``pipeline.process``) gives ``trace.coverage``; a second pass calls
  the layers one by one (``extract`` → ``transform_instance`` →
  ``predict_proba_one`` → ``learn_one`` / alerting) for the per-tweet
  costs; the end state feeds the checkpoint and model-size records.
* ``trace_mb`` — the micro-batch path: timed ``process_batch`` calls,
  the public ``stage_seconds`` split, the serial / pipelined /
  telemetry-off variants, and the transport primitives in
  ``engine.runners``.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

import hostspeed
from spans import SpanLog, median, percentile
from spec import pipeline_config
from worker import close_engine, cpu_and_rss, engine_outcome, make_engine


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def _write_spans(spans: SpanLog, spec: Dict[str, Any]) -> None:
    if spec.get("spans_path"):
        with open(spec["spans_path"], "w", encoding="utf-8") as handle:
            json.dump(spans.to_json(), handle)


# ----------------------------------------------------------------------
# Sequential path
# ----------------------------------------------------------------------


def _traced_sequential_pass(
    spec: Dict[str, Any], spans: SpanLog
) -> Dict[str, Any]:
    """``SequentialEngine.run`` unrolled with a span around each
    iterator step and each ``pipeline.process`` call."""
    from repro.data.loader import read_jsonl

    engine = make_engine({"engine": "seq"})
    process = engine.pipeline.process
    chunk = spec["chunk"]
    read_start: List[float] = []
    read_end: List[float] = []
    process_end: List[float] = []
    slices: List[float] = []
    start = perf_counter()
    tweets = iter(read_jsonl(spec["path"]))
    while True:
        if len(read_start) % chunk == 0:
            # Between spans, so neither covered nor counted as wall.
            slices.append(hostspeed.slice_seconds())
        a = perf_counter()
        try:
            tweet = next(tweets)
        except StopIteration:
            break
        b = perf_counter()
        process(tweet)
        read_start.append(a)
        read_end.append(b)
        process_end.append(perf_counter())
    end = perf_counter()
    root = spans.add("sequential.run", start, end)
    spans.add_many("data.read_jsonl", read_start, read_end, root)
    spans.add_many("pipeline.process", read_end, process_end, root)
    result = engine.result()
    # The pipeline's own per-stage totals (public stage_seconds) become
    # aggregate children of the process spans in the written trace.
    stage_totals = dict(result.stage_seconds)
    return {
        "engine": engine,
        "wall_s": end - start - sum(slices),
        "slices": slices,
        "n": len(read_start),
        "read_us": [(b - a) * 1e6 for a, b in zip(read_start, read_end)],
        "process_us": [
            (c - b) * 1e6 for b, c in zip(read_end, process_end)
        ],
        # Σ self time of everything under the root: what the layer
        # spans account for, as opposed to loop bookkeeping.
        "covered_s": sum(
            seconds for name, seconds in spans.self_seconds().items()
            if name != "sequential.run"
        ),
        "stage_totals": stage_totals,
        "f1": result.metrics["f1"],
    }


def _layer_pass(
    tweets: List[Any], spans: SpanLog
) -> Tuple[Dict[str, List[float]], Any, List[Any]]:
    """Call each layer's public function in pipeline order on a fresh
    pipeline's components. Returns per-tweet costs in µs by layer, the
    pipeline in its end state, and the raw feature vectors."""
    from repro.core.pipeline import AggressionDetectionPipeline
    from repro.streamml.instance import ClassifiedInstance

    pipeline = AggressionDetectionPipeline(pipeline_config())
    extract = pipeline.extractor.extract
    normalize = pipeline.normalizer.transform_instance
    predict = pipeline.model.predict_proba_one
    learn = pipeline.model.learn_one
    alert = pipeline.alert_manager.process
    costs: Dict[str, List[float]] = {
        "extract": [], "normalize": [], "predict": [], "learn": [], "alert": [],
    }
    raw_vectors = []
    start = perf_counter()
    for tweet in tweets:
        t0 = perf_counter()
        instance = extract(tweet)
        t1 = perf_counter()
        normalized = normalize(instance)
        t2 = perf_counter()
        proba = predict(normalized.x)
        t3 = perf_counter()
        if normalized.is_labeled:
            learn(normalized)
            costs["learn"].append((perf_counter() - t3) * 1e6)
        else:
            predicted = max(range(len(proba)), key=proba.__getitem__)
            alert(
                ClassifiedInstance(
                    instance=normalized, predicted=predicted, proba=proba
                ),
                user_id=tweet.user.user_id,
            )
            costs["alert"].append((perf_counter() - t3) * 1e6)
        costs["extract"].append((t1 - t0) * 1e6)
        costs["normalize"].append((t2 - t1) * 1e6)
        costs["predict"].append((t3 - t2) * 1e6)
        raw_vectors.append(instance.x)
    root = spans.add("layers.pass", start, perf_counter())
    for name, values in costs.items():
        # Aggregate child per layer: the per-tweet rows would triple
        # the trace file for no extra information.
        spans.add(f"layers.{name}", start, start + sum(values) / 1e6, root)
    return costs, pipeline, raw_vectors


def _text_costs(tweets: List[Any]) -> Dict[str, float]:
    from repro.core.preprocessing import preprocess_tokens
    from repro.text.analysis import analyze
    from repro.text.tokenizer import tokenize

    tokenize_us, analyze_us = [], []
    for tweet in tweets:
        t0 = perf_counter()
        raw = tokenize(tweet.text)
        t1 = perf_counter()
        word_view = preprocess_tokens(raw)
        t2 = perf_counter()
        analyze(tweet.text, raw, word_view)
        t3 = perf_counter()
        tokenize_us.append((t1 - t0) * 1e6)
        analyze_us.append((t3 - t2) * 1e6)
    return {
        "text.tokenize_us": median(tokenize_us),
        "text.analyze_us": median(analyze_us),
    }


def _normalizer_costs(pipeline: Any, raw_vectors: List[Any]) -> Dict[str, float]:
    transform = pipeline.normalizer.transform
    transform_us = []
    for x in raw_vectors[:3000]:
        t0 = perf_counter()
        transform(x)
        transform_us.append((perf_counter() - t0) * 1e6)
    # What the micro-batch driver does per partition per batch: fold a
    # fresh() partition normalizer that observed 500 rows.
    part = pipeline.normalizer.fresh()
    part.observe_many(raw_vectors[:500])
    merge_us = []
    for _ in range(20):
        target = pipeline.normalizer.fresh()
        t0 = perf_counter()
        target.merge(part)
        merge_us.append((perf_counter() - t0) * 1e6)
    return {
        "normalization.transform_us": median(transform_us),
        "normalization.merge_us": median(merge_us),
    }


def _model_costs(pipeline: Any, tweets: List[Any]) -> Dict[str, float]:
    """Model size and the cost of merging a partition-trained local
    model back — run last: the merge mutates the model."""
    from repro.streamml.serialize import model_to_dict

    model = pipeline.model
    out = {
        "streamml.model_bytes": float(
            len(json.dumps(model_to_dict(model), separators=(",", ":")))
        )
    }
    local = (
        model.structure_copy() if hasattr(model, "structure_copy")
        else model.clone()
    )
    labeled = []
    for tweet in tweets:
        if tweet.label is not None:
            instance = pipeline.extractor.extract(tweet, update_bow=False)
            labeled.append(
                instance.with_features(pipeline.normalizer.transform(instance.x))
            )
        if len(labeled) >= 500:
            break
    local.learn_many(labeled)
    t0 = perf_counter()
    model.merge(local)
    out["streamml.merge_ms"] = (perf_counter() - t0) * 1e3
    return out


def task_trace_core(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.checkpoint import save_pipeline
    from repro.data.loader import read_jsonl

    spans = SpanLog(spec["workload"])
    traced = _traced_sequential_pass(spec, spans)
    engine = traced.pop("engine")
    n_layer = spec["n_layer"]
    tweets = list(itertools.islice(read_jsonl(spec["path"]), n_layer))
    costs, pipeline, raw_vectors = _layer_pass(tweets, spans)

    metrics: Dict[str, float] = {}
    metrics["data.read_jsonl_us"] = median(traced["read_us"])
    metrics["data.input_bytes"] = float(os.path.getsize(spec["path"]))
    metrics.update(_text_costs(tweets[:3000]))
    metrics["features.extract_us"] = median(costs["extract"])
    metrics["features.extract_self_us"] = (
        metrics["features.extract_us"]
        - metrics["text.tokenize_us"] - metrics["text.analyze_us"]
    )
    metrics["features.bow_size"] = float(len(engine.pipeline.bag_of_words))
    metrics["normalization.transform_instance_us"] = median(costs["normalize"])
    metrics.update(_normalizer_costs(pipeline, raw_vectors))
    metrics["streamml.predict_us"] = median(costs["predict"])
    metrics["streamml.learn_us"] = median(costs["learn"])
    metrics["alerting.process_us"] = median(costs["alert"])
    metrics["pipeline.process_us"] = median(traced["process_us"])
    # Means, not medians: the parts must add up to the whole.
    n_tail = len(costs["learn"]) + len(costs["alert"])
    metrics["pipeline.overhead_us"] = (
        _mean(traced["process_us"][:n_layer])
        - _mean(costs["extract"]) - _mean(costs["normalize"])
        - _mean(costs["predict"])
        - (sum(costs["learn"]) + sum(costs["alert"])) / max(n_tail, 1)
    )
    checkpoint_path = Path(spec["dir"]) / "checkpoint.json"
    t0 = perf_counter()
    n_bytes = save_pipeline(engine.pipeline, checkpoint_path)
    metrics["reliability.checkpoint_ms"] = (perf_counter() - t0) * 1e3
    metrics["reliability.checkpoint_bytes"] = float(n_bytes)
    metrics.update(_model_costs(pipeline, tweets))
    _write_spans(spans, spec)
    return {
        "metrics": metrics,
        "traced_wall_s": traced["wall_s"],
        "covered_s": traced["covered_s"],
        "slices": traced["slices"],
        "n_processed": traced["n"],
        "stage_totals": traced["stage_totals"],
        "f1": traced["f1"],
    }


# ----------------------------------------------------------------------
# Micro-batch path
# ----------------------------------------------------------------------


def _noop() -> int:
    return 0


def _traced_microbatch_pass(
    spec: Dict[str, Any], spans: SpanLog
) -> Dict[str, Any]:
    """``MicroBatchEngine.run`` unrolled: a span around reading each
    batch and one around each ``process_batch`` call."""
    from repro.data.loader import read_jsonl

    engine = make_engine(dict(spec, engine="mb"))
    batch_ms: List[float] = []
    slices: List[float] = []
    try:
        start = perf_counter()
        root_rows = []
        tweets = iter(read_jsonl(spec["path"]))
        last_batch: List[Any] = []
        paused_s = 0.0
        while True:
            # Same yardstick as the untraced repetition: every core.
            paused_at = perf_counter()
            slices.append(hostspeed.slice_every_core())
            a = perf_counter()
            paused_s += a - paused_at
            batch = list(itertools.islice(tweets, spec["batch_size"]))
            b = perf_counter()
            if not batch:
                break
            engine.process_batch(batch)
            c = perf_counter()
            root_rows.append((a, b, c))
            batch_ms.append((c - b) * 1e3)
            last_batch = batch
        end = perf_counter()
        result = engine.result(elapsed_seconds=end - start)
        outcome = engine_outcome(engine, result)
        stages = result.stage_seconds
        root = spans.add("microbatch.run", start, end)
        for a, b, c in root_rows:
            spans.add("data.read_jsonl", a, b, root)
            spans.add("microbatch.process_batch", b, c, root)
        transport = _transport_costs(engine, last_batch, spec)
    finally:
        close_engine(engine)
    outcome.update(
        wall_s=end - start - paused_s,
        slices=slices,
        covered_s=sum(
            seconds for name, seconds in spans.self_seconds().items()
            if name != "microbatch.run"
        ),
        batch_ms=batch_ms,
        partition_execute_s=stages.partition_execute,
        driver_merge_s=stages.driver_seconds,
        transport=transport,
    )
    return outcome


def _transport_costs(
    engine: Any, batch: List[Any], spec: Dict[str, Any]
) -> Dict[str, float]:
    """The ``engine.runners`` primitives on one real batch and the
    engine's end state: tweet block encode/decode, broadcast size, and
    an empty round trip through the process pool."""
    from repro.engine.runners import (
        ProcessPoolRunner,
        SegmentPool,
        StateBroadcast,
        TweetBlock,
    )
    from repro.text.lexicons import SWEAR_WORDS

    n_partitions = spec["n_partitions"]
    partitions = [batch[i::n_partitions] for i in range(n_partitions)]
    pool = SegmentPool()
    encode_ms, decode_ms, n_bytes = [], [], 0
    try:
        for _ in range(5):
            t0 = perf_counter()
            block = TweetBlock.encode(partitions, pool)
            t1 = perf_counter()
            # A worker receives the pickled descriptor and resolves it.
            slices = pickle.loads(pickle.dumps(block.slices))
            t2 = perf_counter()
            for piece in slices:
                piece.resolve()
            t3 = perf_counter()
            encode_ms.append((t1 - t0) * 1e3)
            decode_ms.append((t3 - t2) * 1e3)
            n_bytes = block.n_bytes
            block.close()
    finally:
        pool.close()
    words = frozenset(engine.bag_of_words.words)
    broadcast = StateBroadcast(
        key="ledger-probe",
        version=1,
        value=(
            engine.model, engine.normalizer,
            words - SWEAR_WORDS, SWEAR_WORDS - words,
        ),
    )
    try:
        pickle.dumps(broadcast)
        broadcast_bytes = broadcast.payload_bytes or 0
    finally:
        broadcast.release()
    runner = ProcessPoolRunner(n_processes=spec["n_workers"])
    try:
        tasks = [_noop] * n_partitions
        runner.run(tasks)  # starts the pool
        roundtrip_ms = []
        for _ in range(30):
            t0 = perf_counter()
            runner.run(tasks)
            roundtrip_ms.append((perf_counter() - t0) * 1e3)
    finally:
        runner.close()
    return {
        "runners.tweetblock_encode_ms": median(encode_ms),
        "runners.tweetblock_decode_ms": median(decode_ms),
        "runners.tweetblock_bytes": float(n_bytes),
        "runners.broadcast_bytes": float(broadcast_bytes),
        "runners.pool_roundtrip_ms": median(roundtrip_ms),
    }


def _variant_run(spec: Dict[str, Any], **variant: Any) -> Dict[str, Any]:
    """One untraced ``run()`` over the first ``n_variant`` tweets."""
    from repro.data.loader import read_jsonl

    engine = make_engine(dict(spec, engine="mb", **variant))
    try:
        tweets = itertools.islice(read_jsonl(spec["path"]), spec["n_variant"])
        start = perf_counter()
        result = engine.run(tweets)
        wall = perf_counter() - start
        outcome = engine_outcome(engine, result)
    finally:
        close_engine(engine)
    outcome["wall_s"] = wall
    outcome["tweets_per_s"] = outcome["n_processed"] / wall
    return outcome


def task_trace_mb(spec: Dict[str, Any]) -> Dict[str, Any]:
    spans = SpanLog(spec["workload"])
    traced = _traced_microbatch_pass(spec, spans)
    # Telemetry on/off interleaved (on, off, off, on) so drift in the
    # host's speed cancels instead of landing on one arm.
    on_a = _variant_run(spec)
    off_a = _variant_run(spec, worker_telemetry=False)
    serial = _variant_run(spec, runner="serial")
    pipelined = _variant_run(spec, pipelined=True)
    off_b = _variant_run(spec, worker_telemetry=False)
    on_b = _variant_run(spec)
    on_wall = (on_a["wall_s"] + on_b["wall_s"]) / 2.0
    off_wall = (off_a["wall_s"] + off_b["wall_s"]) / 2.0
    on_tps = spec["n_variant"] / on_wall

    metrics: Dict[str, float] = dict(traced.pop("transport"))
    metrics["microbatch.batch_p50_ms"] = percentile(traced["batch_ms"], 50)
    metrics["microbatch.batch_p90_ms"] = percentile(traced["batch_ms"], 90)
    metrics["microbatch.partition_execute_s"] = traced["partition_execute_s"]
    metrics["microbatch.driver_merge_s"] = traced["driver_merge_s"]
    metrics["microbatch.serial_tweets_per_s"] = serial["tweets_per_s"]
    metrics["microbatch.pipelined_tweets_per_s"] = pipelined["tweets_per_s"]
    metrics["microbatch.parallel_efficiency"] = on_tps / (
        spec["n_workers"] * serial["tweets_per_s"]
    )
    metrics["obs.telemetry_overhead_frac"] = on_wall / off_wall - 1.0
    _write_spans(spans, spec)
    usage = cpu_and_rss()
    return {
        "metrics": metrics,
        "traced_wall_s": traced["wall_s"],
        "covered_s": traced["covered_s"],
        "slices": traced["slices"],
        "n_processed": traced["n_processed"],
        "digest": traced["digest"],
        "f1": traced["f1"],
        "variant_digests": {
            "processes": on_a["digest"],
            "serial": serial["digest"],
            "pipelined": pipelined["digest"],
            "telemetry_off": off_a["digest"],
        },
        "cpu_s": usage["cpu_s"],
    }
