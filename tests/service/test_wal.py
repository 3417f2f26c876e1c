"""Write-ahead match log: recovery, commit rule, compaction, idempotence.

The property test at the bottom is the heart of the durability story: a
simulated run writes matches and document markers, the file is cut at an
*arbitrary byte offset* (a crash is not polite enough to tear on record
boundaries), and the recovery + deterministic-regeneration protocol the
server implements must hand the client every sequence number exactly
once — no duplicates, no gaps — for every cut point and every client
ack floor.
"""

import json
import os
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.wal import (
    WriteAheadLog,
    _canonical,
)

EID = "sess-000001.q"


def _write_run(path, match_counts, acked=0):
    """Simulate one server run: session, matches, markers; return total."""
    wal, _ = WriteAheadLog.open(str(path))
    wal.append_session(
        {"op": "open", "sid": "sess-000001", "tenant": "t", "doc": 0}
    )
    wal.append_session(
        {
            "op": "sub",
            "sid": "sess-000001",
            "qid": "q",
            "eid": EID,
            "query": "_*.a",
            "doc": 0,
        }
    )
    seq = 0
    events = 0
    for index, count in enumerate(match_counts):
        for _ in range(count):
            seq += 1
            wal.append_match(EID, seq, index, {"position": seq, "label": "a"})
        events += count + 2
        wal.append_document(index + 1, events)
    if acked:
        wal.append_session(
            {"op": "ack", "sid": "sess-000001", "qid": "q", "seq": acked}
        )
    wal.close()
    return seq


class TestRecovery:
    def test_empty_log_recovers_empty(self, tmp_path):
        wal, recovery = WriteAheadLog.open(str(tmp_path / "w.wal"))
        assert recovery.committed_documents == 0
        assert recovery.sessions == {}
        assert recovery.matches == {}
        wal.close()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "w.wal"
        total = _write_run(path, [2, 3, 1])
        wal, recovery = WriteAheadLog.open(str(path))
        assert recovery.committed_documents == 3
        assert recovery.seqs == {EID: total}
        session = recovery.sessions["sess-000001"]
        assert session.engine_id("q") == EID
        # nothing acked: the whole committed tail is replayable
        assert [t[0] for t in recovery.matches[EID]] == list(
            range(1, total + 1)
        )
        wal.close()

    def test_uncommitted_matches_dropped(self, tmp_path):
        """Matches after the last document marker are not durable."""
        path = tmp_path / "w.wal"
        _write_run(path, [2, 2])
        wal, _ = WriteAheadLog.open(str(path))
        wal.append_match(EID, 5, 2, {"position": 5, "label": "a"})
        wal.append_match(EID, 6, 2, {"position": 6, "label": "a"})
        wal.close()  # close syncs, but no marker for document 3 exists
        wal, recovery = WriteAheadLog.open(str(path))
        assert recovery.committed_documents == 2
        assert recovery.seqs == {EID: 4}, "uncommitted seqs must not count"
        assert [t[0] for t in recovery.matches[EID]] == [1, 2, 3, 4]
        wal.close()

    def test_ack_floor_prunes_replay_tail(self, tmp_path):
        path = tmp_path / "w.wal"
        total = _write_run(path, [3, 3], acked=4)
        wal, recovery = WriteAheadLog.open(str(path))
        assert [t[0] for t in recovery.matches[EID]] == list(
            range(5, total + 1)
        )
        assert recovery.sessions["sess-000001"].acked == {"q": 4}
        wal.close()

    def test_ownerless_tails_are_dropped(self, tmp_path):
        """Matches of an engine id no session subscribes to are garbage."""
        path = tmp_path / "w.wal"
        wal, _ = WriteAheadLog.open(str(path))
        wal.append_match("ghost.q", 1, 0, {"position": 1, "label": "a"})
        wal.append_document(1, 4)
        wal.close()
        wal, recovery = WriteAheadLog.open(str(path))
        assert recovery.matches == {}
        assert recovery.seqs == {}, "a counter no session owns is dropped"
        wal.close()


class TestTornTail:
    def test_torn_final_line_truncated(self, tmp_path):
        path = tmp_path / "w.wal"
        _write_run(path, [2, 2])
        intact = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b'{"t":"m","q":"x","s":9')  # no newline, no CRC
        wal, recovery = WriteAheadLog.open(str(path))
        assert recovery.truncated_bytes > 0
        assert recovery.committed_documents == 2
        assert os.path.getsize(path) == intact, "tail physically removed"
        wal.close()

    def test_corrupt_record_stops_the_scan(self, tmp_path):
        """A flipped byte mid-file invalidates everything after it."""
        path = tmp_path / "w.wal"
        _write_run(path, [1, 1, 1])
        raw = open(path, "rb").read()
        lines = raw.split(b"\n")
        # corrupt the marker of document 2 (line index: sess, sess, m, d, m, d...)
        target = next(
            i for i, ln in enumerate(lines) if b'"n":2' in ln
        )
        lines[target] = lines[target][:-5] + b"XXXXX"
        open(path, "wb").write(b"\n".join(lines))
        wal, recovery = WriteAheadLog.open(str(path))
        assert recovery.committed_documents == 1
        assert recovery.seqs == {EID: 1}
        wal.close()

    def test_crc_catches_semantic_corruption(self, tmp_path):
        """Valid JSON with altered content still fails its CRC."""
        path = tmp_path / "w.wal"
        _write_run(path, [2])
        raw = open(path, "rb").read()
        tampered = raw.replace(b'"s":1', b'"s":7', 1)
        assert tampered != raw
        open(path, "wb").write(tampered)
        wal, recovery = WriteAheadLog.open(str(path))
        # the tampered match record is where trust ends
        assert recovery.seqs.get(EID) is None
        wal.close()


class TestCompaction:
    def test_compaction_preserves_recovery(self, tmp_path):
        path = tmp_path / "w.wal"
        total = _write_run(path, [3, 2, 4], acked=2)
        wal, before = WriteAheadLog.open(str(path))
        size_before = wal.size_bytes
        wal.compact(before.sessions, committed_events=100)
        assert wal.compactions == 1
        assert wal.size_bytes < size_before
        wal.close()
        wal, after = WriteAheadLog.open(str(path))
        assert after.committed_documents == before.committed_documents
        assert after.seqs == {EID: total}
        assert after.sessions["sess-000001"].acked == {"q": 2}
        assert [t[0] for t in after.matches[EID]] == [
            t[0] for t in before.matches[EID]
        ]
        wal.close()

    def test_appends_continue_after_compaction(self, tmp_path):
        path = tmp_path / "w.wal"
        total = _write_run(path, [2, 2])
        wal, before = WriteAheadLog.open(str(path))
        wal.compact(before.sessions, committed_events=50)
        wal.append_match(EID, total + 1, 2, {"position": 9, "label": "a"})
        wal.append_document(3, 60)
        wal.close()
        wal, after = WriteAheadLog.open(str(path))
        assert after.committed_documents == 3
        assert after.seqs == {EID: total + 1}
        wal.close()


class TestFsyncBatching:
    def test_marker_fsync_cadence(self, tmp_path):
        wal, _ = WriteAheadLog.open(str(tmp_path / "w.wal"), 3)
        assert wal.append_document(1, 10) is False
        assert wal.append_document(2, 20) is False
        assert wal.append_document(3, 30) is True, "third marker syncs"
        assert wal.durable_documents == 3
        assert wal.append_document(4, 40) is False
        wal.close()
        assert wal.durable_documents == 4, "close syncs the stragglers"


# ----------------------------------------------------------------------
# the exactly-once property


def _regenerate(recovery, match_counts, floor):
    """The server's resume protocol, distilled to its WAL arithmetic.

    Returns the seqs the reconnecting client observes after the crash:
    the replayed tail above its floor, then regenerated live delivery
    for documents past the committed cut (identical seqs by engine
    determinism), suppressed at or below the floor.
    """
    committed = recovery.committed_documents
    observed = [t[0] for t in recovery.matches.get(EID, []) if t[0] > floor]
    seq = 0
    for index, count in enumerate(match_counts):
        for _ in range(count):
            seq += 1
            if index + 1 <= committed:
                continue  # rebuilt silently: already in the log
            if seq <= floor:
                continue  # the client saw it before the crash
            observed.append(seq)
    return observed


@settings(max_examples=60, deadline=None)
@given(
    match_counts=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8),
    cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    floor_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_any_cut_any_floor_is_exactly_once(
    tmp_path_factory, match_counts, cut_fraction, floor_fraction
):
    """SIGKILL at any byte offset + resume from any floor ⇒ each seq once.

    The crash may tear mid-record (the scan truncates), lose recently
    appended-but-unsynced suffixes (modelled by the cut itself), and the
    client may have observed any prefix of what was generated.  After
    recovery + producer replay, the union of pre-crash observations (up
    to the floor) and post-crash delivery must be exactly 1..total, each
    once, in order.
    """
    tmp_path = tmp_path_factory.mktemp("wal-prop")
    path = tmp_path / "w.wal"
    total = _write_run(path, match_counts)
    raw = open(path, "rb").read()
    cut = int(len(raw) * cut_fraction)
    open(path, "wb").write(raw[:cut])

    wal, recovery = WriteAheadLog.open(str(path))
    wal.close()
    committed = recovery.committed_documents
    committed_seqs = sum(match_counts[:committed])
    # The client can only have observed seqs that were generated before
    # the crash; any of them may be its floor (it never has to ack).
    floor = int(total * floor_fraction)
    # ...but a floor above what recovery retains models a client that
    # observed uncommitted matches: legal, the regeneration covers it.
    observed_after = _regenerate(recovery, match_counts, floor)
    full = list(range(floor + 1, total + 1))
    assert observed_after == full, (
        f"cut={cut}/{len(raw)} committed={committed} "
        f"committed_seqs={committed_seqs} floor={floor}"
    )
    # replay prefix property: recovering the same file twice is a no-op
    wal2, recovery2 = WriteAheadLog.open(str(path))
    wal2.close()
    assert recovery2.committed_documents == committed
    assert recovery2.seqs == recovery.seqs
    assert recovery2.matches == recovery.matches


def test_canonical_encoding_is_stable():
    """CRC inputs must not depend on dict insertion order."""
    a = _canonical({"b": 1, "a": 2})
    b = _canonical({"a": 2, "b": 1})
    assert a == b
    record = json.loads(a)
    assert zlib.crc32(_canonical(record)) == zlib.crc32(a)
