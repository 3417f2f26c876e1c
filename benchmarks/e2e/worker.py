"""One repeat of one workload, in a process of its own.

    python worker.py <workload> --inputs DIR --sink FILE --spawned T [--spans FILE]

``run.py`` starts a fresh worker per repeat, so import cost, allocator
state and lazily built automata never carry from one repeat to the next.
The worker sets the system up, runs the generated input through it once,
writes every delivered match as one line to the sink, and prints its
measurements as one JSON object on the last line of stdout.

With ``--spans`` the run is traced: spans are recorded around each call
into a layer's public functions, from here, and written out at the end.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from itertools import islice
from typing import Iterable, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path.insert(0, SRC)

from repro.core.multiquery import MultiQueryEngine  # noqa: E402
from repro.core.shards import ShardConfig, ShardCoordinator  # noqa: E402
from repro.service.protocol import encode_frame, events_frame  # noqa: E402
from repro.xmlstream.parser import iter_documents, parse_file  # noqa: E402

import measure  # noqa: E402
from measure import match_line  # noqa: E402
from service_driver import LoadGenerator, ServerProcess  # noqa: E402
from workloads import (  # noqa: E402
    DELIVERY_DEADLINE_MS,
    WORKLOADS,
    Inputs,
    Workload,
    load_inputs,
)

#: A document that matches no subscription: running it through a freshly
#: built engine compiles every subscription's network or lane, which is
#: the last step of set-up.
WARM_UP = "<warm-up/>"

#: Events per traced parser span.  ``parse_file`` produces events in
#: bursts of one 64 KiB read, so staging them in batches of about that
#: many keeps a span per read rather than per event.
PARSER_BATCH = 8192

#: Seconds the service may take to deliver after the last frame.
DELIVERY_TIMEOUT = 30.0


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``.

    Not ``ru_maxrss``: across ``exec`` the kernel folds the *parent's*
    high-water mark into the child's, so a worker started by a large
    parent would report the parent's memory.  ``VmHWM`` belongs to the
    address space the process has now.
    """
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def machine_ticks() -> tuple[int, int]:
    """``(stolen, total)`` CPU ticks of the whole machine so far.

    On a shared box the hypervisor takes CPU away in bursts; the share
    stolen while a repeat ran says whether its timings mean anything.
    """
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def staged(
    events: Iterator, recorder: measure.SpanRecorder, name: str
) -> Iterator:
    """Pull ``events`` in batches inside spans, then hand them on.

    The consumer's own span then excludes the producer's time, which is
    how a pull pipeline is split into layers from outside.
    """
    while True:
        with recorder.span(name):
            batch = list(islice(events, PARSER_BATCH))
        if not batch:
            return
        yield from batch


# ----------------------------------------------------------------------
# filter-*: one document through MultiQueryEngine.run


def run_filter(
    workload: Workload,
    inputs: Inputs,
    sink_path: str,
    recorder: measure.SpanRecorder | None,
) -> dict:
    collect = workload.collect_events
    engine = MultiQueryEngine(workload.queries, collect_events=collect)
    for _ in engine.run(WARM_UP):
        pass
    ready = time.monotonic()

    stamps: list[float] = []
    source: Iterable = parse_file(inputs.paths[0])
    cpu_before = cpu_seconds(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with open(sink_path, "w", encoding="utf-8") as sink:
        if recorder is None:
            for query_id, match in engine.run(source):
                fragment = match.to_xml() if collect else None
                sink.write(match_line(query_id, match.position, match.label, fragment) + "\n")
                stamps.append(time.perf_counter())
        else:
            source = staged(source, recorder, "xmlstream.parser")
            with recorder.span("core.multiquery.run"):
                for query_id, match in engine.run(source):
                    fragment = None
                    if collect:
                        with recorder.span("xmlstream.serializer"):
                            fragment = match.to_xml()
                    with recorder.span("sink"):
                        sink.write(
                            match_line(query_id, match.position, match.label, fragment) + "\n"
                        )
                    stamps.append(time.perf_counter())
    end = time.perf_counter()
    return {
        "ready": ready,
        "wall_s": end - start,
        "cpu_s": cpu_seconds(resource.RUSAGE_SELF) - cpu_before,
        "peak_rss_mb": peak_rss_mb(),
        "latencies_ms": [(stamp - start) * 1000.0 for stamp in stamps],
        "lanes": dict(engine.lane_executions),
    }


# ----------------------------------------------------------------------
# serve-sharded: a document stream through ShardCoordinator.run


def run_sharded(
    workload: Workload,
    inputs: Inputs,
    sink_path: str,
    recorder: measure.SpanRecorder | None,
) -> dict:
    config = ShardConfig(shards=2)
    # Spawning and reaping both workers once is part of set-up; the
    # coordinator that serves the stream is a fresh one.
    ShardCoordinator(workload.queries, config).run(WARM_UP)
    coordinator = ShardCoordinator(workload.queries, config)
    ready = time.monotonic()

    source: Iterator = iter_documents(inputs.paths)
    cpu_before = cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(
        resource.RUSAGE_CHILDREN
    )
    start = time.perf_counter()
    if recorder is None:
        result = coordinator.run(source)
    else:
        with recorder.span("core.shards.run"):
            result = coordinator.run(staged(source, recorder, "xmlstream.parser"))
    with open(sink_path, "w", encoding="utf-8") as sink:
        for query_id, matches in result.matches.items():
            for match in matches:
                sink.write(match_line(query_id, match.position, match.label) + "\n")
    end = time.perf_counter()
    cpu_after = cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(
        resource.RUSAGE_CHILDREN
    )
    delivered = sum(len(matches) for matches in result.matches.values())
    return {
        "ready": ready,
        "wall_s": end - start,
        "cpu_s": cpu_after - cpu_before,
        # RUSAGE_CHILDREN reports the largest reaped worker, not their
        # sum: coordinator + largest worker (forked, never exec'ed, so
        # ru_maxrss is their own)
        "peak_rss_mb": peak_rss_mb()
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        # the coordinator returns the merged result at the end, so every
        # match is delivered when run() returns
        "latencies_ms": [(end - start) * 1000.0] * delivered,
        "restarts": result.restarts,
    }


# ----------------------------------------------------------------------
# service-*: the TCP service as a subprocess, this process the only load


def run_service(
    workload: Workload,
    inputs: Inputs,
    sink_path: str,
    recorder: measure.SpanRecorder | None,
) -> dict:
    # Load-generator preparation, not system set-up: frames are encoded
    # before the server exists.
    frames = [
        encode_frame(events_frame(parse_file(path))) for path in inputs.paths
    ]
    durable = workload.rate is not None
    scratch = os.path.dirname(sink_path)
    started = time.monotonic()
    server = ServerProcess(
        SRC,
        log_path=sink_path + ".server.log",
        wal_path=os.path.join(scratch, f"wal-{os.getpid()}.ndjson") if durable else None,
    )
    try:
        generator = LoadGenerator(server.wait_listening(), workload.queries, durable)

        async def session():
            await generator.connect()
            ready = time.monotonic()
            cpu_before = server.cpu_seconds()
            load = await generator.run(frames, workload.rate, DELIVERY_TIMEOUT)
            cpu_after = server.cpu_seconds()
            await generator.close()
            return ready, cpu_after - cpu_before, load, peak_rss_mb(server.process.pid)

        own_cpu_before = cpu_seconds(resource.RUSAGE_SELF)
        ready, server_cpu, load, server_rss = asyncio.run(session())
        own_cpu = cpu_seconds(resource.RUSAGE_SELF) - own_cpu_before
    finally:
        exit_code = server.stop()

    with open(sink_path, "w", encoding="utf-8") as sink:
        sink.writelines(line + "\n" for line in load.lines)
    wall = load.last_receive - load.first_send
    late_matches = 0
    if workload.rate is not None:
        late_matches = sum(ms > DELIVERY_DEADLINE_MS for ms in load.latencies_ms)
    if recorder is not None:
        root = recorder.add("service.load", load.first_send, load.last_receive)
        for index, (due, sent, ingested, done) in enumerate(load.timeline):
            if sent is None or done is None:
                continue
            span = recorder.add("service.document", due, done, root, index)
            recorder.add("loadgen.late", due, sent, span, index)
            if ingested is not None:
                recorder.add("service.server.ingest_ack", sent, ingested, span, index)
    return {
        "spawned": started,
        "ready": ready,
        "wall_s": wall,
        "cpu_s": server_cpu,
        "peak_rss_mb": server_rss,
        "latencies_ms": load.latencies_ms,
        "unfinished_documents": load.unfinished,
        "late_matches": late_matches,
        "late_frames": load.late_frames,
        "server_exit_code": exit_code,
        "loadgen_late_ms_p99": (
            measure.percentile(sorted(load.late_ms), 99) if load.late_ms else 0.0
        ),
        "loadgen_cpu_s": own_cpu,
    }


RUNNERS = {"filter": run_filter, "sharded": run_sharded, "service": run_service}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, help="directory from generate()")
    parser.add_argument("--sink", required=True, help="file the matches go to")
    parser.add_argument(
        "--spawned", type=float, required=True,
        help="time.monotonic() in the parent just before this process was started",
    )
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = load_inputs(args.inputs)
    recorder = measure.SpanRecorder() if args.spans else None
    stolen_before, ticks_before = machine_ticks()
    outcome = RUNNERS[workload.kind](workload, inputs, args.sink, recorder)
    stolen, ticks = machine_ticks()

    # Everything below is bookkeeping outside the timed region.
    with open(args.sink, encoding="utf-8") as sink:
        lines = sink.read().splitlines()
    latencies = sorted(outcome.pop("latencies_ms"))
    # A document's matches arrive together, so on the service the
    # independent latency samples are documents, not matches.
    samples = inputs.documents if workload.kind == "service" else len(latencies)
    wall = outcome["wall_s"]
    outcome.update(
        workload=workload.name,
        setup_s=outcome.pop("ready") - outcome.pop("spawned", args.spawned),
        events=inputs.events,
        documents=inputs.documents,
        steal_share=(stolen - stolen_before) / max(1, ticks - ticks_before),
        throughput_ev_s=inputs.events / wall,
        cpu_s_per_mev=outcome["cpu_s"] / inputs.events * 1e6,
        samples=samples,
        reportable_percentile=measure.highest_percentile(samples),
        delivery_p50_ms=measure.percentile(latencies, 50) if latencies else None,
        delivery_p90_ms=measure.percentile(latencies, 90) if latencies else None,
        digest=measure.digest(lines),
        queries=measure.query_digests(lines),
    )
    if recorder is not None:
        with open(args.spans, "w") as out:
            json.dump(recorder.to_obj(workload.name), out)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
