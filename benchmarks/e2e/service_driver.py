"""Server subprocess and single-process load generator for ``service-*``.

Written against ``repro.service.client`` / ``repro.service.protocol``
directly: the generator reads every acknowledgement, finishes only when
the last document's sentinel match (and, with a WAL, its ``ingested``
frame) has arrived, and bounds every wait, so a service that loses
documents fails the run instead of hanging it or passing it.

One process, two connections (a producer and one subscriber holding all
subscriptions), which is ``nproc`` on the reference box.
"""

from __future__ import annotations

import asyncio
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.service.client import ProducerClient, SubscriberClient

from measure import match_line
from workloads import LATE_FRAME_LIMIT_S, SENTINEL, WINDOW

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """``python -m repro serve --listen 127.0.0.1:0`` under measurement."""

    def __init__(self, src_dir: str, log_path: str, wal_path: str | None = None):
        command = [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0"]
        if wal_path is not None:
            command += ["--wal-file", wal_path]
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        self.address: tuple[str, int] | None = None

    def wait_listening(self, timeout: float = 30.0) -> tuple[str, int]:
        """Read the announced ephemeral address off the server's stdout."""
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], timeout)
        banner = stdout.readline().decode() if ready else ""
        if "listening on" not in banner:
            self.stop()
            raise RuntimeError(f"server did not announce an address: {banner!r}")
        host, _, port = banner.strip().rpartition(" ")[2].rpartition(":")
        self.address = (host, int(port))
        return self.address

    def cpu_seconds(self) -> float:
        """user+sys CPU the server has used so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self, timeout: float = 20.0) -> int:
        """SIGTERM drain; returns the exit code.

        A server that does not drain within ``timeout`` is killed, which
        shows as a negative exit code.
        """
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        self._log.close()
        return process.returncode


@dataclass
class LoadResult:
    """What one stretch of load observed, all client-side."""

    #: delivered matches in arrival order, as sink lines
    lines: list[str] = field(default_factory=list)
    #: per match: receipt minus the moment its document's frame was due
    #: (open loop) or written (closed loop), in ms
    latencies_ms: list[float] = field(default_factory=list)
    #: per document: frame written -> ``ingested`` received (WAL only), ms
    ack_ms: list[float] = field(default_factory=list)
    #: open loop, per frame: written minus due, ms
    late_ms: list[float] = field(default_factory=list)
    late_frames: int = 0
    unfinished: int = 0
    backlog_max: int = 0
    #: documents in flight when the last frame was written
    backlog_end: int = 0
    first_send: float = 0.0
    last_receive: float = 0.0
    #: per document ``(due, sent, ingested or None, done or None)``
    timeline: list[tuple] = field(default_factory=list)


class LoadGenerator:
    """One producer and one subscriber connection, driven from one loop."""

    def __init__(self, address: tuple[str, int], queries: dict[str, str], durable: bool):
        self.address = address
        self.queries = queries
        self.durable = durable
        #: documents pushed on this connection so far: the server numbers
        #: documents globally, so a second stretch starts at this offset
        self.documents_sent = 0

    async def connect(self) -> None:
        host, port = self.address
        self.subscriber = await SubscriberClient.connect(
            host, port, durable=self.durable
        )
        verdicts = await self.subscriber.subscribe_all(list(self.queries.items()))
        refused = [v for v in verdicts if v.get("type") != "subscribed"]
        if refused:
            raise RuntimeError(f"subscription refused: {refused}")
        self.producer = await ProducerClient.connect(host, port)

    async def close(self) -> None:
        await self.producer.close()
        await self.subscriber.close()

    async def run(
        self, frames: list[bytes], rate: float | None, timeout: float
    ) -> LoadResult:
        """Push ``frames`` (one encoded document each) and await delivery.

        ``rate=None`` is the closed loop (``WINDOW`` documents in
        flight); otherwise frame ``i`` is due at ``start + i / rate``
        whatever the service does.  Waits at most ``timeout`` seconds
        past the last frame; documents still incomplete then are counted
        in ``unfinished``.
        """
        count = len(frames)
        base = self.documents_sent
        self.documents_sent += count
        result = LoadResult()
        due = [0.0] * count
        sent: list[float | None] = [None] * count
        ingested: list[float | None] = [None] * count
        done: list[float | None] = [None] * count
        arrivals: list[tuple[int, float]] = []
        window = asyncio.Semaphore(WINDOW)
        finished = asyncio.Event()
        state = {"completed": 0, "acked": 0}

        def check_finished() -> None:
            if state["completed"] == count and (
                not self.durable or state["acked"] == count
            ):
                finished.set()

        async def receive() -> None:
            last_seq: dict[str, int] = {}
            async for frame in self.subscriber.frames():
                if frame.get("type") != "match":
                    continue
                now = time.perf_counter()
                index = frame["document"] - base
                if index < 0:
                    continue  # straggler of an earlier, abandoned stretch
                query_id = frame["query_id"]
                match = frame["match"]
                result.lines.append(
                    match_line(query_id, match["position"], match["label"])
                )
                arrivals.append((index, now))
                if "seq" in frame:
                    last_seq[query_id] = frame["seq"]
                if query_id == SENTINEL:
                    done[index] = now
                    state["completed"] += 1
                    window.release()
                    for acked_query, seq in last_seq.items():
                        await self.subscriber.ack(acked_query, seq)
                    last_seq.clear()
                    check_finished()

        async def read_acks() -> None:
            while True:
                frame = await self.producer.conn.recv()
                if frame is None:
                    return
                if frame.get("type") == "ingested":
                    index = frame["documents"] - 1 - base
                    ingested[index] = time.perf_counter()
                    state["acked"] = max(state["acked"], index + 1)
                    check_finished()

        async def send() -> None:
            writer = self.producer.conn.writer
            start = time.perf_counter()
            for index, frame in enumerate(frames):
                if rate is None:
                    await window.acquire()
                    due[index] = time.perf_counter()
                else:
                    due[index] = start + index / rate
                    delay = due[index] - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                sent[index] = time.perf_counter()
                writer.write(frame)
                await writer.drain()
                backlog = index + 1 - state["completed"]
                result.backlog_max = max(result.backlog_max, backlog)
            result.backlog_end = count - state["completed"]

        # The stretch ends when everything is delivered; a reader that
        # stops first (EOF, protocol error) or the deadline ends it early
        # and leaves the remaining documents unfinished.
        async def complete() -> None:
            await send()
            await finished.wait()

        tasks = [
            asyncio.create_task(complete()),
            asyncio.create_task(receive()),
            asyncio.create_task(read_acks()),
        ]
        budget = timeout + (count / rate if rate is not None else 0.0)
        await asyncio.wait(
            tasks, timeout=budget, return_when=asyncio.FIRST_COMPLETED
        )
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

        result.unfinished = count - state["completed"]
        reference = due if rate is not None else sent
        result.latencies_ms = [
            (now - reference[index]) * 1000.0 for index, now in arrivals
        ]
        result.ack_ms = [
            (ack - start) * 1000.0
            for start, ack in zip(sent, ingested)
            if start is not None and ack is not None
        ]
        if rate is not None:
            lateness = [
                at - due_at for at, due_at in zip(sent, due) if at is not None
            ]
            result.late_ms = [late * 1000.0 for late in lateness]
            result.late_frames = sum(late > LATE_FRAME_LIMIT_S for late in lateness)
        result.first_send = sent[0] if sent[0] is not None else time.perf_counter()
        result.last_receive = max((now for _, now in arrivals), default=result.first_send)
        result.timeline = list(zip(due, sent, ingested, done))
        return result
