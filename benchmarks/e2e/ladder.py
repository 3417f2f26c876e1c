"""The layer ladder: every per-layer metric, from outside the layers.

    python ladder.py --seed N --scratch DIR --rung-seconds S [--spans FILE]

Each layer's public functions are called directly, from this file, on
the generated input of the workload that stresses the layer, and timed
with spans.  Every rung of one layer runs on the same input, so the
difference between two rungs is the cost of what was switched.  One
definition per metric: the numbers do not depend on which workload's
traced run asked for them.

Counts marked exact in the README (events, bytes, messages, stack and
formula sizes, emit delays, ...) depend only on ``--seed`` and must
repeat bit for bit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from typing import Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path.insert(0, SRC)

from repro import SpexEngine  # noqa: E402
from repro.analysis.planner import plan_query  # noqa: E402
from repro.analysis.preflight import preflight  # noqa: E402
from repro.core.compiler import compile_network  # noqa: E402
from repro.core.multiquery import MultiQueryEngine  # noqa: E402
from repro.core.optimize import OptimizationFlags  # noqa: E402
from repro.core.shards import ShardConfig, ShardCoordinator  # noqa: E402
from repro.rpeq.parser import parse  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    decode_frame,
    encode_frame,
    events_frame,
    events_from_frame,
    match_frame,
    match_to_obj,
)
from repro.service.wal import WriteAheadLog  # noqa: E402
from repro.xmlstream.events import StartElement  # noqa: E402
from repro.xmlstream.parser import iter_documents, parse_file  # noqa: E402

import measure  # noqa: E402
from catalog import PER_LAYER  # noqa: E402
from service_driver import LoadGenerator, ServerProcess  # noqa: E402
from worker import WARM_UP, cpu_seconds  # noqa: E402
from workloads import (  # noqa: E402
    LATENCY_LIMIT_MS,
    RATE_LADDER,
    WORKLOADS,
    Inputs,
    generate,
)

#: Input reduction per ladder input, by workload name.  The fast lanes
#: get the whole document; the slow layers get half so the whole ladder
#: stays near half a minute.
LADDER_INPUTS = {
    "filter-fastlane": 1,
    "filter-network": 2,
    "filter-deep": 2,
    "serve-sharded": 2,
    "service-paced": 1,
}


class Ladder:
    def __init__(self, seed: int, scratch: str, rung_seconds: float) -> None:
        self.seed = seed
        self.scratch = scratch
        self.rung_seconds = rung_seconds
        self.recorder = measure.SpanRecorder()
        #: ``name -> (value, unit)``
        self.metrics: dict[str, tuple[float, str]] = {}

    def put(self, name: str, value: float) -> None:
        unit, _ = PER_LAYER[name]
        self.metrics[name] = (value, unit)

    def inputs(self, workload: str) -> Inputs:
        """The named workload's input at the ladder's size, generated now."""
        return generate(
            WORKLOADS[workload],
            self.seed,
            os.path.join(self.scratch, workload),
            LADDER_INPUTS[workload],
        )

    def timed(self, name: str, work) -> tuple[float, object]:
        """Run ``work()`` inside a span; returns ``(seconds, result)``."""
        with self.recorder.span(name) as index:
            result = work()
        _, start, end, *_ = self.recorder.spans[index]
        return end - start, result

    def engine_pass(
        self,
        name: str,
        queries: dict[str, str],
        events: list,
        **engine_options,
    ) -> tuple[float, list, MultiQueryEngine]:
        """One ``MultiQueryEngine.run`` over pre-parsed events."""
        engine = MultiQueryEngine(queries, **engine_options)
        seconds, matches = self.timed(name, lambda: list(engine.run(events)))
        return seconds, matches, engine

    # ------------------------------------------------------------------

    def parser_and_fastlane(self) -> None:
        workload = WORKLOADS["filter-fastlane"]
        inputs = self.inputs(workload.name)
        seconds, events = self.timed(
            "xmlstream.parser", lambda: list(parse_file(inputs.paths[0]))
        )
        self.put("xmlstream.parser.ev_s", len(events) / seconds)
        self.put("xmlstream.parser.busy_s", seconds)
        self.put("xmlstream.parser.events", len(events))
        self.put("xmlstream.parser.bytes", inputs.bytes)

        states = saturated = demotions = 0
        for lane in ("dfa", "hybrid"):
            queries = {s.id: s.query for s in workload.subscriptions if s.lane == lane}
            seconds, _, engine = self.engine_pass(
                f"core.fastlane.{lane}", queries, events
            )
            self.put(f"core.fastlane.{lane}.ev_s", len(events) / seconds)
            stats = engine.stats
            states += stats.fastlane_states
            saturated += stats.fastlane_saturated_steps
            demotions += stats.fastlane_demotions
        self.put("core.fastlane.states", states)
        self.put("core.fastlane.saturated_steps", saturated)
        self.put("core.fastlane.demotions", demotions)

    def setup_layers(self) -> None:
        """parse / plan / pre-flight / compile, once per distinct subscription."""
        queries = sorted(
            {(s.query, w.collect_events) for w in WORKLOADS.values() for s in w.subscriptions}
        )
        busy = dict.fromkeys(
            ("rpeq.parser", "analysis.planner", "analysis.preflight", "core.compiler"), 0.0
        )
        for text, collect in queries:
            seconds, expr = self.timed("rpeq.parser", lambda: parse(text))
            busy["rpeq.parser"] += seconds
            busy["analysis.planner"] += self.timed(
                "analysis.planner", lambda: plan_query(expr)
            )[0]
            busy["analysis.preflight"] += self.timed(
                "analysis.preflight", lambda: preflight(expr, collect_events=collect)
            )[0]
            busy["core.compiler"] += self.timed(
                "core.compiler", lambda: compile_network(expr, collect_events=collect)
            )[0]
        for layer, seconds in busy.items():
            self.put(f"{layer}.busy_s", seconds)

    def network(self) -> None:
        workload = WORKLOADS["filter-network"]
        events = list(parse_file(self.inputs(workload.name).paths[0]))
        gated = {s.id: s.query for s in workload.subscriptions if s.lane == "gated"}
        plain = {s.id: s.query for s in workload.subscriptions if s.lane == "network"}

        gated_s, _, engine = self.engine_pass("core.network.gated", gated, events)
        assert set(engine.lane_executions.values()) == {"gated"}, engine.lane_executions
        ungated_s, _, _ = self.engine_pass(
            "core.network.gate-off", gated, events,
            optimize=OptimizationFlags(hybrid_gate=False),
        )
        plain_s, _, _ = self.engine_pass("core.network.plain", plain, events)
        # The literal Fig. 11 translation is slow: an eighth of the stream.
        prefix = events[: len(events) // 8]
        reference_s, _, _ = self.engine_pass(
            "core.network.reference", workload.queries, prefix, optimize=False
        )
        self.put("core.network.gated.ev_s", len(events) / gated_s)
        self.put("core.network.plain.ev_s", len(events) / plain_s)
        self.put("core.network.reference.ev_s", len(prefix) / reference_s)
        self.put("core.network.gate_gain_ratio", ungated_s / gated_s)

        # Work counts, one engine per subscription: noise-free, so a
        # network-lane change is judged on these before any timing.
        messages = max_stack = max_formula = 0
        with self.recorder.span("core.network.counts"):
            for sub in workload.subscriptions:
                single = SpexEngine(sub.query, collect_events=False)
                for _ in single.run(events):
                    pass
                stats = single.stats.network
                messages += stats.messages
                max_stack = max(max_stack, stats.max_stack)
                max_formula = max(max_formula, stats.max_formula_size)
        self.put("core.network.messages", messages)
        self.put("core.network.max_stack", max_stack)
        self.put("core.network.max_formula_size", max_formula)

    def output(self) -> None:
        workload = WORKLOADS["filter-deep"]
        events = list(parse_file(self.inputs(workload.name).paths[0]))
        # event index of the n-th start tag: ``Match.position`` counts
        # elements, the delay is counted in events
        start_index = [0] + [
            index for index, event in enumerate(events, 1)
            if isinstance(event, StartElement)
        ]
        pulled = 0

        def counting() -> Iterator:
            nonlocal pulled
            for event in events:
                pulled += 1
                yield event

        engine = MultiQueryEngine(workload.queries, collect_events=True)
        delays: list[int] = []
        matches = []

        def collect() -> None:
            for _, match in engine.run(counting()):
                delays.append(pulled - start_index[match.position])
                matches.append(match)

        collect_s, _ = self.timed("core.output_tx.collect", collect)
        notify_s, _, _ = self.engine_pass(
            "core.output_tx.notify", workload.queries, events, collect_events=False
        )
        delays.sort()
        self.put("core.output_tx.emit_delay_events_p50", measure.percentile(delays, 50))
        self.put("core.output_tx.emit_delay_events_max", delays[-1])
        self.put("core.output_tx.collect_cost_ratio", collect_s / notify_s)

        seconds, fragments = self.timed(
            "xmlstream.serializer", lambda: [match.to_xml() for match in matches]
        )
        size = sum(len(fragment.encode("utf-8")) for fragment in fragments)
        self.put("core.output_tx.fragment_bytes", size)
        self.put("xmlstream.serializer.mb_s", size / 1e6 / seconds)

    def drivers_shards_protocol_wal(self) -> None:
        workload = WORKLOADS["serve-sharded"]
        paths = self.inputs(workload.name).paths
        documents = [list(parse_file(path)) for path in paths]
        events = [event for document in documents for event in document]
        queries = workload.queries

        run_s, run_matches, _ = self.engine_pass("core.multiquery.run", queries, events)
        engine = MultiQueryEngine(queries)
        serve_s, served = self.timed(
            "core.multiquery.serve", lambda: list(engine.serve(events))
        )
        engine = MultiQueryEngine(queries)

        def pump_all() -> list:
            pump = engine.start_pump()
            out = []
            for event in events:
                out.extend(pump.feed(event))
            return out

        pump_s, pumped = self.timed("core.multiquery.pump", pump_all)
        assert len(run_matches) == len(served) == len(pumped)
        self.put("core.multiquery.run.ev_s", len(events) / run_s)
        self.put("core.multiquery.serve.ev_s", len(events) / serve_s)
        self.put("core.multiquery.pump.ev_s", len(events) / pump_s)
        self.put("core.multiquery.matches", len(run_matches))

        config = ShardConfig(shards=2)
        spawn_s, _ = self.timed(
            "core.shards.spawn", lambda: ShardCoordinator(queries, config).run(WARM_UP)
        )
        coordinator = ShardCoordinator(queries, config)
        shards_s, result = self.timed(
            "core.shards.run", lambda: coordinator.run(iter_documents(paths))
        )
        self.put("core.shards.ev_s", len(events) / shards_s)
        self.put("core.shards.overhead_ratio", shards_s / serve_s)
        self.put("core.shards.spawn_s", spawn_s)
        self.put("core.shards.restarts", result.restarts)

        # service.protocol: the producer's real frames in, the real matches out
        frames = [encode_frame(events_frame(document)) for document in documents]
        seconds, decoded = self.timed(
            "service.protocol.decode",
            lambda: sum(len(events_from_frame(decode_frame(f))) for f in frames),
        )
        assert decoded == len(events)
        self.put("service.protocol.decode_ev_s", decoded / seconds)
        self.put("service.protocol.bytes_in", sum(map(len, frames)))

        # document index of every match: the pump saw the events in order
        by_document: list[list] = []
        engine = MultiQueryEngine(queries)
        pump = engine.start_pump()
        for document in documents:
            matched = []
            for event in document:
                matched.extend(pump.feed(event))
            by_document.append(matched)
        seconds, encoded = self.timed(
            "service.protocol.encode",
            lambda: [
                encode_frame(match_frame(query_id, match, index, seq))
                for index, matched in enumerate(by_document)
                for seq, (query_id, match) in enumerate(matched, 1)
            ],
        )
        self.put("service.protocol.encode_us_per_match", seconds / len(encoded) * 1e6)
        self.put("service.protocol.bytes_out", sum(map(len, encoded)))

        # service.wal: what the durable path adds per match and per document
        wal, _ = WriteAheadLog.open(os.path.join(self.scratch, "ladder-wal.ndjson"))
        append_s = 0.0
        fsync_ms: list[float] = []
        seqs: dict[str, int] = {}
        events_read = 0
        try:
            with self.recorder.span("service.wal"):
                for index, matched in enumerate(by_document):
                    begin = time.perf_counter()
                    for query_id, match in matched:
                        seqs[query_id] = seqs.get(query_id, 0) + 1
                        wal.append_match(query_id, seqs[query_id], index, match_to_obj(match))
                    middle = time.perf_counter()
                    events_read += len(documents[index])
                    wal.append_document(index + 1, events_read)  # fsyncs: cadence 1
                    fsync_ms.append((time.perf_counter() - middle) * 1000.0)
                    append_s += middle - begin
                    for query_id, seq in seqs.items():
                        wal.acknowledge(query_id, seq)
            size = wal.size_bytes
        finally:
            wal.close()
        fsync_ms.sort()
        self.put("service.wal.append_us_per_match", append_s / len(encoded) * 1e6)
        self.put("service.wal.fsync_ms_p50", measure.percentile(fsync_ms, 50))
        self.put("service.wal.bytes_per_match", size / len(encoded))

    def server(self) -> None:
        """Fixed-rate rungs against one durable server: where latency breaks."""
        workload = WORKLOADS["service-paced"]
        paths = self.inputs(workload.name).paths
        frames = [encode_frame(events_frame(parse_file(path))) for path in paths]
        server = ServerProcess(
            SRC,
            log_path=os.path.join(self.scratch, "ladder-server.log"),
            wal_path=os.path.join(self.scratch, "ladder-server-wal.ndjson"),
        )
        rungs: dict[int, dict] = {}
        try:
            generator = LoadGenerator(server.wait_listening(), workload.queries, True)

            async def climb() -> None:
                await generator.connect()
                for rate in RATE_LADDER:
                    count = max(1, round(rate * self.rung_seconds))
                    batch = [frames[i % len(frames)] for i in range(count)]
                    own_before = cpu_seconds(resource.RUSAGE_SELF)
                    server_before = server.cpu_seconds()
                    begin = time.perf_counter()
                    load = await generator.run(batch, float(rate), timeout=15.0)
                    latencies = sorted(load.latencies_ms)
                    tail = measure.percentile(latencies, 90) if latencies else float("inf")
                    self.recorder.add(f"service.server.rate{rate}", begin, time.perf_counter())
                    rungs[rate] = {
                        "p90": tail,
                        "load": load,
                        "server_cpu": server.cpu_seconds() - server_before,
                        "own_cpu": cpu_seconds(resource.RUSAGE_SELF) - own_before,
                        # Little's law: at most rate x limit documents can
                        # be in flight if each is delivered within the limit
                        "sustainable": load.unfinished == 0
                        and tail <= LATENCY_LIMIT_MS
                        and load.backlog_end <= max(1.0, rate * LATENCY_LIMIT_MS / 1000.0),
                    }
                    # rate40 and rate60 are reported whatever happens; past
                    # them, a rung is only worth its time if the last one held
                    if not rungs[rate]["sustainable"] and rate >= 60:
                        break
                await generator.close()

            asyncio.run(climb())
        finally:
            exit_code = server.stop()

        base = rungs[RATE_LADDER[0]]
        load = base["load"]
        sustainable = 0
        for rate in RATE_LADDER:
            if rate not in rungs or not rungs[rate]["sustainable"]:
                break
            sustainable = rate
        self.put("service.server.ingest_ack_ms_p50", measure.percentile(sorted(load.ack_ms), 50))
        self.put("service.server.backlog_docs_max", load.backlog_max)
        self.put("service.server.cpu_s", base["server_cpu"])
        self.put("service.server.exit_code", exit_code)
        self.put("service.server.rate40.delivery_p90_ms", rungs[40]["p90"])
        self.put("service.server.rate60.delivery_p90_ms", rungs[60]["p90"])
        self.put("service.server.sustainable_docs_s", sustainable)
        self.put("loadgen.late_ms_p99", measure.percentile(sorted(load.late_ms), 99))
        self.put("loadgen.cpu_s", base["own_cpu"])

    def climb(self) -> None:
        self.parser_and_fastlane()
        self.setup_layers()
        self.network()
        self.output()
        self.drivers_shards_protocol_wal()
        self.server()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--scratch", required=True, help="directory for inputs, WAL and logs"
    )
    parser.add_argument("--rung-seconds", type=float, required=True)
    parser.add_argument("--spans", help="write the ladder's spans here")
    args = parser.parse_args(argv)
    ladder = Ladder(args.seed, args.scratch, args.rung_seconds)
    ladder.climb()
    if args.spans:
        with open(args.spans, "w") as out:
            json.dump(ladder.recorder.to_obj("ladder"), out)
    print(json.dumps({name: list(pair) for name, pair in ladder.metrics.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
