"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.reliability.overload import SHED_POLICIES


class TestGenerate:
    def test_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        assert main(["generate", str(path), "--tweets", "200"]) == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 200
        payload = json.loads(lines[0])
        assert "text" in payload and "label" in payload
        assert "wrote 200 tweets" in capsys.readouterr().out

    def test_user_pool(self, tmp_path):
        path = tmp_path / "data.jsonl"
        main(["generate", str(path), "--tweets", "300", "--user-pool", "20"])
        users = {
            json.loads(line)["user"]["id_str"]
            for line in path.read_text().strip().splitlines()
        }
        assert len(users) <= 25


class TestRunAndClassify:
    @pytest.fixture()
    def dataset(self, tmp_path):
        path = tmp_path / "data.jsonl"
        main(["generate", str(path), "--tweets", "800", "--seed", "3"])
        return path

    def test_run_reports_metrics(self, dataset, capsys):
        assert main(["run", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "f1" in out
        assert "processed     : 800 tweets" in out

    def test_run_with_flags(self, dataset, capsys):
        assert main([
            "run", str(dataset), "--classes", "3", "--model", "slr",
            "--no-adaptive-bow", "--normalization", "zscore",
        ]) == 0
        out = capsys.readouterr().out
        assert "SLR" in out
        assert "ad=OFF" in out

    def test_run_microbatch_engine_reports_stage_timings(
        self, dataset, capsys
    ):
        assert main([
            "run", str(dataset), "--engine", "microbatch",
            "--partitions", "2", "--batch-size", "400",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine        : microbatch (2 partitions x 400 tweets" in out
        assert "stage timings" in out
        assert "partition_execute" in out
        assert "normalizer_merge" in out
        assert "driver total" in out
        assert "f1" in out

    def test_run_microbatch_save_model(self, dataset, tmp_path, capsys):
        model_path = tmp_path / "mb_model.json"
        assert main([
            "run", str(dataset), "--engine", "microbatch",
            "--runner", "processes", "--workers", "2",
            "--save-model", str(model_path),
        ]) == 0
        assert model_path.exists()
        assert "model saved" in capsys.readouterr().out

    def test_thread_runner_is_a_usage_error(self, dataset, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", str(dataset), "--engine", "microbatch",
                "--runner", "threads",
            ])
        assert excinfo.value.code == 2
        assert "invalid choice: 'threads'" in capsys.readouterr().err
        run = build_parser()._subparsers._group_actions[0].choices["run"]
        options = {a.dest: a for a in run._actions}
        assert options["runner"].choices == ("serial", "processes")
        assert "thread" not in options["workers"].help

    def test_save_and_classify(self, dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["run", str(dataset), "--save-model", str(model_path)])
        assert model_path.exists()
        capsys.readouterr()
        assert main(["classify", str(model_path), str(dataset)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 800
        record = json.loads(lines[0])
        assert record["predicted"] in ("normal", "aggressive")

    def test_classify_three_classes(self, dataset, tmp_path, capsys):
        model_path = tmp_path / "model3.json"
        assert main(["run", str(dataset), "--classes", "3",
                     "--save-model", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["classify", str(model_path), str(dataset),
                     "--classes", "3"]) == 0
        predicted = {
            json.loads(line)["predicted"]
            for line in capsys.readouterr().out.splitlines()
        }
        assert predicted <= {"normal", "abusive", "hateful"}
        assert predicted - {"normal"}


class TestSimulate:
    def test_default_projection(self, capsys):
        assert main(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "SparkCluster" in out
        assert "MOA" in out

    def test_calibrated_projection(self, capsys):
        assert main(["simulate", "--measured-throughput", "3000",
                     "--tweets", "500000"]) == 0
        assert "SparkLocal" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv, error", [
        (["run", "in.jsonl", "--max-poison-rate", "1.5"],
         "argument --max-poison-rate: must be in [0, 1]"),
        (["run", "in.jsonl", "--max-poison-rate", "-0.01"],
         "argument --max-poison-rate: must be in [0, 1]"),
        (["serve", "snaps", "--queue-capacity", "-1"],
         "argument --queue-capacity: must be >= 0"),
        # Refused by ``run`` itself, before the input is opened.
        (["run", "in.jsonl", "--partition-deadline", "1"],
         "error: --partition-deadline requires --engine microbatch"),
        (["run", "in.jsonl", "--engine", "microbatch",
          "--partition-deadline", "1"],
         "error: --partition-deadline requires --runner processes"),
    ])
    def test_bad_value_exits_2_with_one_line(self, argv, error, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(error)
        assert "Traceback" not in err

    def test_edge_values_parse(self):
        parser = build_parser()
        for rate in ("0", "1"):
            args = parser.parse_args(
                ["run", "in.jsonl", "--max-poison-rate", rate]
            )
            assert args.max_poison_rate == float(rate)
        args = parser.parse_args(["serve", "snaps", "--queue-capacity", "0"])
        assert args.queue_capacity == 0

    @pytest.mark.parametrize(
        "command", [["run", "in.jsonl"], ["serve", "snaps"]]
    )
    def test_shed_policy_choices_are_the_shared_names(self, command):
        parser = build_parser()
        for policy in SHED_POLICIES:
            args = parser.parse_args(command + ["--shed-policy", policy])
            assert args.shed_policy == policy
        with pytest.raises(SystemExit):
            parser.parse_args(command + ["--shed-policy", "drop-random"])


class TestServe:
    def test_admission_flags_reach_the_server(
        self, tmp_path, monkeypatch
    ):
        from repro.serve.server import AggressionServer

        seen = {}

        async def serve_forever(server):
            admission = server.admission
            seen.update(capacity=admission.queue_capacity,
                        policy=admission.policy)

        monkeypatch.setattr(AggressionServer, "serve_forever", serve_forever)
        assert main(["serve", str(tmp_path / "snaps"), "--port", "0",
                     "--queue-capacity", "3",
                     "--shed-policy", "drop-oldest"]) == 0
        assert seen == {"capacity": 3, "policy": "drop-oldest"}


class TestReport:
    def test_run_writes_markdown_report(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        main(["generate", str(data), "--tweets", "400"])
        report = tmp_path / "report.md"
        assert main(["run", str(data), "--report", str(report)]) == 0
        text = report.read_text()
        assert text.startswith("# Run report")
        assert "| f1 |" in text


class TestSupervisedRun:
    @pytest.fixture()
    def dataset(self, tmp_path):
        path = tmp_path / "data.jsonl"
        main(["generate", str(path), "--tweets", "400", "--seed", "5"])
        return path

    def test_reliability_flags_enable_supervised_path(self, dataset, tmp_path,
                                                      capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["run", str(dataset), "--engine", "microbatch",
                     "--batch-size", "50", "--retries", "2",
                     "--checkpoint-dir", str(ckpt),
                     "--checkpoint-every", "2",
                     "--max-poison-rate", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "supervised" in out
        assert "quarantined" in out
        assert (ckpt / "checkpoint.json").exists()

    def test_resume_smoke_matches_uninterrupted(self, dataset, tmp_path,
                                                capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["run", str(dataset), "--batch-size", "50",
                     "--checkpoint-dir", str(ckpt),
                     "--checkpoint-every", "2"]) == 0
        first = capsys.readouterr().out
        # Resuming a completed run replays nothing and reproduces the
        # exact metrics of the finished run.
        assert main(["run", str(dataset),
                     "--checkpoint-dir", str(ckpt), "--resume"]) == 0
        second = capsys.readouterr().out
        metrics_first = [l for l in first.splitlines() if l.startswith("  ")]
        metrics_second = [l for l in second.splitlines() if l.startswith("  ")]
        assert metrics_first == metrics_second
        assert "resumed" in second

    def test_resume_requires_checkpoint_dir(self, dataset, capsys):
        assert main(["run", str(dataset), "--resume"]) == 2
        assert "requires --checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("engine_args", [
        [],
        ["--engine", "microbatch", "--batch-size", "100"],
    ], ids=["sequential", "microbatch"])
    def test_invalid_record_is_quarantined_at_ingest(
        self, dataset, capsys, engine_args
    ):
        """A record that parses but fails validation (an absurd
        timestamp) is quarantined and reported on every run."""
        lines = dataset.read_text().splitlines()
        poison = json.loads(lines[7])
        poison["created_at"] = 1e300
        lines[7] = json.dumps(poison)
        dataset.write_text("\n".join(lines) + "\n")
        assert main(["run", str(dataset)] + engine_args) == 0
        out = capsys.readouterr().out
        assert "quarantined   : 1 tweets" in out
        assert "processed     : 399 tweets" in out


class TestPartitionFaultDomains:
    """``--partition-deadline`` and ``--flight-recorder`` on the CLI: a
    1 µs deadline times every partition out, and each timed-out batch
    is an incident the flight recorder dumps."""

    @pytest.fixture()
    def dataset(self, tmp_path):
        path = tmp_path / "data.jsonl"
        main(["generate", str(path), "--tweets", "600", "--seed", "3"])
        return path

    def test_partition_deadline_times_out_every_partition(
        self, dataset, capsys
    ):
        assert main([
            "run", str(dataset), "--engine", "microbatch",
            "--partitions", "2", "--batch-size", "200",
            "--runner", "processes", "--workers", "2",
            "--partition-deadline", "0.000001",
        ]) == 0
        out = capsys.readouterr().out
        assert "parallelism   : 6 partition timeouts" in out
        assert "quarantined   : 600 tweets" in out

    def test_flight_recorder_dumps_each_incident(
        self, dataset, tmp_path, capsys
    ):
        dumps = tmp_path / "flight"
        assert main([
            "run", str(dataset), "--engine", "microbatch",
            "--partitions", "2", "--batch-size", "200",
            "--runner", "processes", "--workers", "2",
            "--partition-deadline", "0.000001",
            "--flight-recorder", str(dumps),
        ]) == 0
        out = capsys.readouterr().out
        written = sorted(p.name for p in dumps.glob("flight-*.jsonl"))
        assert written
        assert {name.split("-", 2)[2] for name in written} >= {
            "quarantine.jsonl"
        }
        assert f"flight dumps  : {len(written)} written to {dumps}" in out
        assert all(
            json.loads(line)
            for line in (dumps / written[0]).read_text().splitlines()
        )


class TestSnapshot:
    @pytest.fixture()
    def checkpoint_dir(self, tmp_path):
        data = tmp_path / "data.jsonl"
        main(["generate", str(data), "--tweets", "300", "--seed", "4"])
        ckpt = tmp_path / "ckpt"
        main(["run", str(data), "--checkpoint-dir", str(ckpt)])
        return ckpt

    def test_publish_from_checkpoint_dir_then_list(
        self, checkpoint_dir, tmp_path, capsys
    ):
        store = tmp_path / "snaps"
        capsys.readouterr()
        for version in (1, 2):
            assert main(["snapshot", "publish", str(store),
                         "--from-checkpoint", str(checkpoint_dir)]) == 0
            assert f"published     : v{version} (" in capsys.readouterr().out
        assert main(["snapshot", "list", str(store)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["v1", "v2"]
        assert lines[-1].endswith("(latest)")
        assert "(latest)" not in lines[0]
        assert str(checkpoint_dir / "checkpoint.json") in lines[0]

    def test_list_of_an_empty_store(self, tmp_path, capsys):
        assert main(["snapshot", "list", str(tmp_path / "none")]) == 0
        assert "is empty" in capsys.readouterr().out

    def _refused(self, tmp_path, capsys, source):
        store = tmp_path / "snaps"
        assert main(["snapshot", "publish", str(store),
                     "--from-checkpoint", str(source)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not store.exists()
        return err

    def test_missing_checkpoint_is_refused(self, tmp_path, capsys):
        err = self._refused(tmp_path, capsys, tmp_path / "nowhere")
        assert "checkpoint not found" in err

    @pytest.mark.parametrize("text, error", [
        ("not json {", "is not JSON"),
        ("[1, 2]", "is not a JSON object"),
        ('{"something": "else"}', "has no pipeline state"),
    ])
    def test_bad_checkpoint_file_is_refused_in_one_line(
        self, tmp_path, capsys, text, error
    ):
        source = tmp_path / "checkpoint.json"
        source.write_text(text)
        assert error in self._refused(tmp_path, capsys, source)

    def test_flat_layout_is_refused_in_one_line(
        self, checkpoint_dir, tmp_path, capsys
    ):
        checkpoint = json.loads(
            (checkpoint_dir / "checkpoint.json").read_text()
        )
        engine = checkpoint["engine"]
        engine.update(engine.pop("pipeline"))
        source = tmp_path / "flat.json"
        source.write_text(json.dumps(checkpoint))
        capsys.readouterr()
        err = self._refused(tmp_path, capsys, source)
        assert "flat micro-batch checkpoint layout" in err


class TestTelemetry:
    @pytest.fixture()
    def dataset(self, tmp_path):
        path = tmp_path / "data.jsonl"
        main(["generate", str(path), "--tweets", "400", "--seed", "7"])
        return path

    @pytest.mark.parametrize("engine_args", [
        [],
        ["--engine", "microbatch", "--batch-size", "100"],
        ["--batch-size", "100", "--checkpoint-every", "2"],
    ], ids=["sequential", "microbatch", "supervised"])
    def test_metrics_out_writes_jsonl_and_exposition(
        self, dataset, tmp_path, capsys, engine_args
    ):
        events_path = tmp_path / "events.jsonl"
        args = ["run", str(dataset), "--metrics-out", str(events_path)]
        if "--checkpoint-every" in engine_args:
            args += ["--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(args + engine_args) == 0
        assert "telemetry" in capsys.readouterr().out

        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        final = [e for e in events if e["event"] == "snapshot"][-1]
        names = {c["name"] for c in final["metrics"]["counters"]}
        assert "tweets_processed_total" in names
        hist_names = {h["name"] for h in final["metrics"]["histograms"]}
        assert "tweet_stage_seconds" in hist_names

        exposition = (tmp_path / "events.jsonl.prom").read_text()
        assert "# TYPE repro_tweets_processed_total counter" in exposition
        assert 'quantile="0.95"' in exposition
        # The families every run exports, whichever engine drove it.
        names |= hist_names | {g["name"] for g in final["metrics"]["gauges"]}
        required = {
            "tweets_ingested_total", "tweets_processed_total",
            "alerts_total", "bow_size", "stage_seconds",
            "tweet_stage_seconds", "batch_seconds",
        }
        assert required <= names, required - names
        for name in required:
            assert f"repro_{name}" in exposition, name

    def test_log_json_emits_parseable_lines(self, dataset, capsys):
        assert main(["--log-json", "run", str(dataset)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert all(r["level"] == "info" for r in records)
        assert any("accuracy" in r["message"] for r in records)

    def test_log_level_error_silences_run_output(self, dataset, capsys):
        assert main(["--log-level", "error", "run", str(dataset)]) == 0
        assert capsys.readouterr().out == ""
