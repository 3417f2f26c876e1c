"""Checkpointing a long-running stream and resuming it losslessly.

The paper's complexity bounds (Theorems IV.2/V.2) are what make this
cheap: a run's entire evaluation state is the per-transducer stacks, the
condition store and the undecided-candidate buffer — kilobytes tagged
with a stream position, not the stream read so far.  This example shows
the full durability story in three acts:

1. run with a ``StreamCursor``, interrupt mid-stream, and write an
   atomic, checksummed ``Checkpoint`` to disk;
2. in a "fresh process" (a new engine built *from* the checkpoint),
   resume and prove the concatenated matches equal an uninterrupted run
   — zero duplicated, zero dropped;
3. hand the whole loop to ``repro.Supervisor``, which turns a flaky
   source's transient errors and stalls into retries around the same
   checkpoint boundary.

Run with::

    python examples/checkpoint_resume.py
"""

import itertools
import tempfile
from pathlib import Path

import repro
from repro.workloads import mondial
from repro.xmlstream import FlakySource

QUERY = "_*.country[province].name"
EVENTS = list(mondial(seed=42, countries=20))
CUT = len(EVENTS) // 3


def fingerprints(matches):
    return [(match.position, match.to_xml()) for match in matches]


def main() -> None:
    print(f"query: {QUERY}")
    print(f"stream: MONDIAL-like, {len(EVENTS)} events")

    # The ground truth: one uninterrupted run.
    baseline = fingerprints(repro.SpexEngine(QUERY).run(iter(EVENTS)))
    print(f"uninterrupted run: {len(baseline)} matches\n")

    # --- Act 1: interrupt mid-stream, checkpoint to disk -------------
    engine = repro.SpexEngine(QUERY)
    cursor = repro.StreamCursor()
    prefix = itertools.islice(iter(EVENTS), CUT)
    before = fingerprints(engine.run(prefix, cursor=cursor))
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "checkpoint.json"
        engine.checkpoint().save(path)
        size = path.stat().st_size
        print(
            f"interrupted after event {CUT}: {len(before)} matches so far, "
            f"checkpoint is {size} bytes on disk"
        )

        # --- Act 2: a fresh engine resumes from the file -------------
        checkpoint = repro.Checkpoint.load(path)  # checksum-verified
        fresh = repro.SpexEngine.from_checkpoint(checkpoint)
        after = fingerprints(fresh.resume(checkpoint, iter(EVENTS)))
        print(f"resumed fresh engine: {len(after)} further matches")
        assert before + after == baseline
        print("before + after == uninterrupted: lossless\n")

    # --- Act 3: supervised run against a flaky source ----------------
    # Connection 1 drops after 100 events, connection 2 goes silent
    # after 300; the supervisor reconnects from its last checkpoint each
    # time, so the output is still exactly the baseline.
    source = FlakySource(
        EVENTS,
        script=[("error", 100), ("stall", 300)],
        stall_seconds=60.0,
    )
    engine = repro.SpexEngine(QUERY)
    supervisor = repro.Supervisor(
        engine,
        source,
        repro.SupervisorConfig(
            max_retries=5,
            backoff_initial=0.01,
            jitter=0.0,
            heartbeat_timeout=0.25,       # stall watchdog
            checkpoint_every_events=200,  # periodic cadence
        ),
    )
    supervised = fingerprints(supervisor.run())
    assert supervised == baseline
    report = supervisor.report
    print(
        f"supervised flaky run: {len(supervised)} matches "
        f"(== uninterrupted), {report.connects} connects, "
        f"{report.retries} retr{'y' if report.retries == 1 else 'ies'}, "
        f"{report.stalls} stall(s), "
        f"{report.checkpoints_written} checkpoint(s) taken"
    )
    print()
    print(engine.stats.summary())


if __name__ == "__main__":
    main()
