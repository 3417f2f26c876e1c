"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main

from ..conftest import PAPER_DOC


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(PAPER_DOC)
    return str(path)


class TestQueryCommand:
    def test_matches_printed(self, doc_file, capsys):
        assert main(["query", "_*.a[b].c", doc_file]) == 0
        out = capsys.readouterr().out
        assert "<c></c>" in out
        assert "1 match(es)" in out

    def test_count_mode(self, doc_file, capsys):
        assert main(["query", "--count", "_*._", doc_file]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            type("S", (), {"buffer": io.BytesIO(PAPER_DOC.encode())})(),
        )
        assert main(["query", "--count", "a.c"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bad_query_reports_error(self, doc_file, capsys):
        assert main(["query", "a..b", doc_file]) == 1
        assert "error:" in capsys.readouterr().err


class TestXPathCommand:
    def test_translation_and_evaluation(self, doc_file, capsys):
        assert main(["xpath", "--count", "//a[b]/c", doc_file]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_unsupported_axis_reported(self, doc_file, capsys):
        assert main(["xpath", "//a/parent::b", doc_file]) == 1
        assert "error:" in capsys.readouterr().err


class TestCqCommand:
    def test_bindings_reported(self, doc_file, capsys):
        cq = "q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3"
        assert main(["cq", cq, doc_file]) == 0
        out = capsys.readouterr().out
        assert "X3: 1 binding(s)" in out


class TestExplainCommand:
    def test_network_printed(self, capsys):
        assert main(["explain", "_*.a[b].c"]) == 0
        out = capsys.readouterr().out
        assert "VC(q0)" in out and "network degree" in out


class TestStatsCommand:
    def test_stream_statistics(self, doc_file, capsys):
        assert main(["stats", doc_file]) == 0
        out = capsys.readouterr().out
        assert "elements        : 5" in out
        assert "max depth       : 3" in out


class TestRetiredCommands:
    def test_bench_is_a_usage_error(self, capsys):
        # benchmarks/e2e/run.py is the only benchmark entry point
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestTraceCommand:
    def test_table_printed(self, doc_file, capsys):
        assert main(["trace", "a.c", doc_file]) == 0
        out = capsys.readouterr().out
        assert "CH(a)" in out and "OU" in out
        assert "<$>" in out  # header column per stream message


class TestStatsFlag:
    def test_engine_statistics_printed(self, doc_file, capsys):
        assert main(["query", "--stats", "_*.a[b].c", doc_file]) == 0
        out = capsys.readouterr().out
        assert "engine statistics" in out
        assert "peak stack height" in out


class TestCheckpointFlags:
    def test_supervised_run_writes_checkpoint_and_summary(
        self, doc_file, tmp_path, capsys
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        assert (
            main(
                [
                    "query",
                    "_*.a[b].c",
                    doc_file,
                    "--checkpoint-dir",
                    checkpoint_dir,
                    "--checkpoint-every",
                    "4",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "1 match(es)" in captured.out
        assert "-- recovery:" in captured.err
        assert "checkpoint(s) written" in captured.err
        import os

        assert os.path.exists(os.path.join(checkpoint_dir, "checkpoint.json"))

    def test_resume_from_checkpoint(self, doc_file, tmp_path, capsys):
        checkpoint_dir = str(tmp_path / "ckpt")
        assert (
            main(
                [
                    "query",
                    "_*.a[b].c",
                    doc_file,
                    "--checkpoint-dir",
                    checkpoint_dir,
                ]
            )
            == 0
        )
        capsys.readouterr()
        # the final checkpoint is at end-of-stream; resuming completes
        # instantly with zero duplicate matches
        assert (
            main(
                [
                    "query",
                    "_*.a[b].c",
                    doc_file,
                    "--checkpoint-dir",
                    checkpoint_dir,
                    "--resume",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "0 match(es)" in captured.out
        assert "restore(s)" in captured.err

    def test_checkpoint_requires_file(self, capsys):
        assert main(["query", "a", "--checkpoint-dir", "/tmp/x"]) == 2
        assert "FILE" in capsys.readouterr().err

    def test_checkpoint_requires_strict(self, doc_file, capsys):
        assert (
            main(
                [
                    "query",
                    "a",
                    doc_file,
                    "--checkpoint-dir",
                    "/tmp/x",
                    "--on-error",
                    "skip",
                ]
            )
            == 2
        )
        assert "strict" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, doc_file, capsys):
        assert main(["query", "a", doc_file, "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_every_requires_checkpoint_dir(self, doc_file, capsys):
        assert main(["query", "a", doc_file, "--checkpoint-every", "4"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_clean_query_exits_zero(self, capsys):
        assert main(["analyze", "_*.a[b].c"]) == 0
        out = capsys.readouterr().out
        assert "COST000" in out
        assert "1/1" in out

    def test_error_diagnostics_exit_nonzero(self, capsys):
        assert (
            main(
                [
                    "analyze",
                    "_*.a[_*.b]",
                    "--max-depth",
                    "50",
                    "--max-formula-size",
                    "10",
                ]
            )
            == 1
        )
        assert "COST002" in capsys.readouterr().out

    def test_json_output_is_stable_across_runs(self, capsys):
        import json

        assert main(["analyze", "_*.a[b]", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "_*.a[b]", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["query"]["ok"] is True

    def test_list_codes(self, capsys):
        assert main(["analyze", "--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in ("RPQ001", "NET007", "COST002"):
            assert code in out

    def test_requires_query_or_workloads(self, capsys):
        assert main(["analyze"]) == 2
        assert "QUERY" in capsys.readouterr().err

    def test_workload_corpus_is_clean(self, capsys):
        from repro.workloads import query_corpus

        total = len(query_corpus())
        assert main(["analyze", "--workloads"]) == 0
        assert f"{total}/{total}" in capsys.readouterr().out

    def test_plan_shows_the_residual_and_the_gate_selectivity(self, tmp_path, capsys):
        sample = tmp_path / "sample.xml"
        sample.write_text("<r><a><x><y/></x><b/><c/></a><a><x/></a></r>")
        assert main(["analyze", "r.a[b].c", "--plan"]) == 0
        out = capsys.readouterr().out
        assert "prefix=r.a" in out and "residual=ε[b].c" in out
        assert "gate:" not in out
        assert main(["analyze", "r.a[b].c", "--plan", "--sample", str(sample)]) == 0
        assert "gate: fed=10 parked=8" in capsys.readouterr().out
        assert (
            main(["analyze", "r.a[b].c", "--plan", "--json", "--sample", str(sample)])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"]["gate"] == {"fed": 10, "parked": 8}
        assert payload["query"]["plan"]["residual"] == "ε[b].c"

    def test_sample_requires_plan(self, capsys):
        assert main(["analyze", "a.b", "--sample", "x.xml"]) == 2
        assert "--sample requires --plan" in capsys.readouterr().err

    def test_check_lanes_requires_plan(self, capsys):
        assert main(["analyze", "a.b", "--check-lanes"]) == 2
        assert "--check-lanes requires --plan" in capsys.readouterr().err

    def test_check_lanes_passes_on_the_workload_corpus(self, capsys):
        assert (
            main(
                [
                    "analyze", "--plan", "--rewrite", "--workloads",
                    "--json", "--check-lanes",
                ]
            )
            == 0
        )
        assert capsys.readouterr().err == ""

    def test_check_lanes_flags_missing_lane_coverage(self, capsys):
        # a single dfa-lane query can never exercise all three lanes
        assert main(["analyze", "a.b", "--plan", "--check-lanes"]) == 1
        assert "does not exercise every lane" in capsys.readouterr().err

    def test_network_findings_surface(self, monkeypatch, capsys):
        """A compiler fault shows in ``spex analyze``, which compiles the
        query; pre-flight, which builds no network, never meets it."""
        from repro.analysis import preflight
        from repro.core import compiler
        from repro.core.flow_transducers import JoinTransducer

        compile_network = compiler.compile_network
        calls = []

        def unbalanced(*args, **kwargs):
            calls.append(args)
            network, store = compile_network(*args, **kwargs)
            join = next(n for n in network.nodes if isinstance(n, JoinTransducer))
            left = network._predecessors[id(join)][0]
            network._predecessors[id(join)] = [left, left]
            return network, store

        monkeypatch.setattr(compiler, "compile_network", unbalanced)
        assert preflight("a?").ok and not calls
        assert main(["analyze", "a?"]) == 1
        assert "NET007" in capsys.readouterr().out and calls

    def test_dtd_findings_surface(self, tmp_path, capsys):
        dtd = tmp_path / "doc.dtd"
        dtd.write_text("<!ELEMENT a (b*)>\n<!ELEMENT b EMPTY>")
        assert main(["analyze", "a.c", "--dtd", str(dtd)]) == 1
        out = capsys.readouterr().out
        assert "RPQ010" in out and "RPQ012" in out


class TestServeCommand:
    def test_multi_query_counts(self, doc_file, capsys):
        assert main(["serve", "--count", "b=_*.b", "c=_*.c", "--file", doc_file]) == 0
        out = capsys.readouterr().out
        assert "b\t1" in out and "c\t2" in out

    def test_auto_ids(self, doc_file, capsys):
        assert main(["serve", "--count", "_*.b", "--file", doc_file]) == 0
        assert "q1\t1" in capsys.readouterr().out

    def test_duplicate_ids_rejected(self, doc_file, capsys):
        assert main(["serve", "x=a", "x=b", "--file", doc_file]) == 2
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", [[], ["--shards", "2"]], ids=["one", "sharded"])
    def test_strict_serving_fails_on_a_malformed_file_among_several(
        self, tmp_path, doc_file, capsys, shards
    ):
        # the same exit as with that file alone: nothing files the error
        truncated = tmp_path / "truncated.xml"
        truncated.write_text("<a><b>")
        argv = ["serve", "--count", "--on-error", "strict", "q=_*.b", *shards]
        code = main([*argv, "--file", doc_file, "--file", str(truncated)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: malformed XML")

    def test_poisoned_file_among_healthy_ones(self, tmp_path, doc_file, capsys):
        from repro.workloads import billion_laughs

        bomb = tmp_path / "bomb.xml"
        bomb.write_text(billion_laughs())
        code = main(
            [
                "serve",
                "--count",
                "q=_*.b",
                "--harden",
                "--on-error",
                "skip",
                "--file",
                doc_file,
                "--file",
                str(bomb),
                "--file",
                doc_file,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "q\t2" in captured.out  # both healthy documents served
        assert "recovered:" in captured.err

    @pytest.mark.parametrize(
        "policy, counts",
        [("repair", ["3", "3", "2"]), ("skip", ["1", "1", "0"]), ("strict", None)],
    )
    def test_a_cut_file_ends_closed_wherever_it_stands(
        self, tmp_path, capsys, policy, counts
    ):
        # a finite --file list ends closed: the last file cut short is a
        # truncation, exactly as the same file elsewhere in the list; the
        # shard workers read the same source, strictly (--on-error ignored)
        good = tmp_path / "good.xml"
        good.write_text("<r><a/></r>")
        cut = tmp_path / "cut.xml"
        cut.write_text("<r><a/><a/>")
        orders = [[good, cut], [cut, good], [cut]]
        outs = []
        for files in orders:
            argv = ["serve", "--count", "--on-error", policy, "q=_*.a"]
            for path in files:
                argv += ["--file", str(path)]
            code = main(argv)
            outs.append(capsys.readouterr().out)
            assert code == (1 if counts is None else 0)
            assert main([*argv, "--shards", "2"]) == 1
            assert "no element found" in capsys.readouterr().err
        if counts is not None:
            assert outs == [f"q\t{count}\n" for count in counts]

    def test_admission_rejection_sets_exit_code(self, doc_file, capsys):
        code = main(
            [
                "serve",
                "--count",
                "big=_*.a[_*.b]",
                "small=_*.b",
                "--admission",
                "4",
                "--max-depth",
                "64",
                "--file",
                doc_file,
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "big\t0" in captured.out and "small\t1" in captured.out
        assert "ADMIT003" in captured.err

    def test_deadline_flag_accepted(self, doc_file, capsys):
        assert (
            main(
                [
                    "serve",
                    "--count",
                    "q=_*.b",
                    "--deadline-ms",
                    "60000",
                    "--file",
                    doc_file,
                ]
            )
            == 0
        )

    def test_bad_priority_rejected(self, doc_file, capsys):
        assert main(["serve", "q=a", "--priority", "zz=1", "--file", doc_file]) == 2
        assert "--priority" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["q=abc", "q="])
    def test_non_integer_priority_is_a_usage_error(self, doc_file, capsys, spec):
        assert main(["serve", "q=a", "--priority", spec, "--file", doc_file]) == 2
        assert "--priority" in capsys.readouterr().err

    def test_sharded_counts_match_single_process(self, doc_file, capsys):
        assert (
            main(["serve", "--count", "b=_*.b", "c=_*.c", "--file", doc_file])
            == 0
        )
        single = capsys.readouterr().out
        assert (
            main(
                [
                    "serve",
                    "--count",
                    "b=_*.b",
                    "c=_*.c",
                    "--shards",
                    "2",
                    "--file",
                    doc_file,
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out == single
        assert "2 shard(s)" in captured.err

    def test_sharded_match_output(self, doc_file, capsys):
        assert (
            main(["serve", "c=_*.c", "--shards", "2", "--file", doc_file])
            == 0
        )
        out = capsys.readouterr().out
        assert "<c></c>" in out
        assert "2 match(es)" in out

    def test_sharded_warns_on_non_strict(self, doc_file, capsys):
        assert (
            main(
                [
                    "serve",
                    "--count",
                    "q=_*.b",
                    "--shards",
                    "2",
                    "--on-error",
                    "skip",
                    "--file",
                    doc_file,
                ]
            )
            == 0
        )
        assert "ignored" in capsys.readouterr().err

    def test_shards_must_be_positive(self, doc_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "q=a", "--shards", "0", "--file", doc_file])
        assert excinfo.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_a_heartbeat_within_the_interval_is_a_usage_error(self, doc_file, capsys):
        argv = ["serve", "q=a", "--shards", "2", "--heartbeat-ms", "50"]
        assert main([*argv, "--file", doc_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: heartbeat_timeout must exceed")
        assert "Traceback" not in err


class TestServeListen:
    """``spex serve --listen``: usage guards and the real subprocess."""

    def test_requires_queries_without_listen(self, capsys):
        assert main(["serve"]) == 2
        assert "at least one QUERY" in capsys.readouterr().err

    def test_listen_rejects_argv_queries(self, capsys):
        assert main(["serve", "q=a", "--listen", "127.0.0.1:0"]) == 2
        assert "over the wire" in capsys.readouterr().err

    def test_listen_excludes_shards_and_files(self, doc_file, capsys):
        assert main(["serve", "--listen", "127.0.0.1:0", "--shards", "2"]) == 2
        assert "exclusive" in capsys.readouterr().err
        assert (
            main(["serve", "--listen", "127.0.0.1:0", "--file", doc_file]) == 2
        )
        assert "producer connections" in capsys.readouterr().err

    @pytest.mark.parametrize("address", ["nope", "host:", ":0", "h:99999"])
    def test_listen_rejects_bad_addresses(self, address, capsys):
        assert main(["serve", "--listen", address]) == 2
        assert "bad --listen address" in capsys.readouterr().err

    def test_sigterm_drains_and_exits_clean(self, tmp_path):
        import asyncio
        import os
        import signal
        import subprocess
        import sys

        from repro.service.client import ProducerClient, SubscriberClient
        from repro.xmlstream.events import (
            EndDocument,
            EndElement,
            StartDocument,
            StartElement,
        )

        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        checkpoint = tmp_path / "drain.ckpt"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--checkpoint-file",
                str(checkpoint),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on" in banner
            _host_port = banner.rsplit(" ", 1)[-1].strip()
            host, _, port_text = _host_port.rpartition(":")
            port = int(port_text)

            async def roundtrip() -> list:
                subscriber = await SubscriberClient.connect(host, port)
                verdict = await subscriber.subscribe("q", "_*.a")
                assert verdict["type"] == "subscribed"
                producer = await ProducerClient.connect(host, port)
                await producer.send_events(
                    [
                        StartDocument(),
                        StartElement("r"),
                        StartElement("a"),
                        EndElement("a"),
                        EndElement("r"),
                        EndDocument(),
                    ]
                )
                await producer.close()
                frame = await asyncio.wait_for(subscriber.conn.recv(), 10)
                # SIGTERM while the subscriber is still connected: drain
                # must flush and bye, not cut the connection
                process.send_signal(signal.SIGTERM)
                tail = [frame]
                async for later in subscriber.frames():
                    tail.append(later)
                await subscriber.close()
                return tail

            frames = asyncio.run(asyncio.wait_for(roundtrip(), 20))
            out, err = process.communicate(timeout=20)
        except BaseException:
            process.kill()
            process.communicate()
            raise
        assert process.returncode == 0, err
        kinds = [frame.get("type") for frame in frames]
        assert "match" in kinds
        assert kinds[-1] == "bye"
        assert checkpoint.exists()
        assert "-- serving:" in err
        assert "-- service:" in err
