"""Unit tests for the checkpoint layer.

Covers the :class:`~repro.core.checkpoint.Checkpoint` container (format,
integrity, atomic persistence), the source-position primitives
(:class:`~repro.xmlstream.StreamCursor`, :func:`~repro.xmlstream.skip_events`)
and the engine-level ``checkpoint()``/``resume()`` contract including its
failure modes.  The lossless round-trip property across *every* cut point
is exercised end to end in ``tests/integration/test_checkpoint_resume.py``.
"""

import json
import os

import pytest

from repro import (
    Checkpoint,
    CheckpointError,
    SpexEngine,
    StreamCursor,
    StreamError,
)
from repro.core.checkpoint import CHECKPOINT_VERSION
from repro.core.multiquery import MultiQueryEngine
from repro.core.optimize import NO_OPTIMIZATIONS, OptimizationFlags
from repro.errors import EngineError
from repro.xmlstream import iter_events, skip_events

DOC = "<a><a><c/></a><b/><c/><d><b><c/></b></d></a>"


def run_with_cursor(engine, source, prefix_events):
    """Drive a cursor-tracked strict run over the first ``prefix_events``."""
    import itertools

    cursor = StreamCursor()
    prefix = list(itertools.islice(iter_events(source), prefix_events))
    matches = list(engine.run(iter(prefix), cursor=cursor, require_end=False))
    return cursor, matches


# ----------------------------------------------------------------------
# Checkpoint container


class TestCheckpointContainer:
    def make(self):
        engine = SpexEngine("_*.a")
        run_with_cursor(engine, DOC, 5)
        return engine.checkpoint()

    def test_dict_round_trip(self):
        checkpoint = self.make()
        data = checkpoint.to_dict()
        again = Checkpoint.from_dict(json.loads(json.dumps(data)))
        assert again.kind == checkpoint.kind
        assert again.payload == checkpoint.payload
        assert again.version == CHECKPOINT_VERSION

    def test_position_reads_cursor(self):
        assert self.make().position == 5

    def test_checksum_detects_tampering(self):
        data = self.make().to_dict()
        data["payload"]["cursor"]["events_read"] = 1
        with pytest.raises(CheckpointError, match="integrity"):
            Checkpoint.from_dict(data)

    def test_version_skew_rejected(self):
        data = self.make().to_dict()
        data["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint.from_dict(data)

    def test_malformed_dict_rejected(self):
        with pytest.raises(CheckpointError, match="malformed"):
            Checkpoint.from_dict({"kind": "spex"})
        with pytest.raises(CheckpointError, match="malformed"):
            Checkpoint.from_dict(None)

    def test_save_load_round_trip(self, tmp_path):
        checkpoint = self.make()
        path = tmp_path / "checkpoint.json"
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.payload == checkpoint.payload
        # no temp files left behind
        assert os.listdir(tmp_path) == ["checkpoint.json"]

    def test_save_replaces_atomically(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        first = self.make()
        first.save(path)
        engine = SpexEngine("_*.a")
        run_with_cursor(engine, DOC, 9)
        engine.checkpoint().save(path)
        assert Checkpoint.load(path).position == 9

    def test_concurrent_writers_never_tear(self, tmp_path):
        # The sharded engine runs one checkpoint writer per worker
        # process against a shared directory; hammer one target path
        # from many threads and require every intermediate read to be a
        # complete, loadable checkpoint (temp-name collisions between
        # writers would surface here as torn or vanished files).
        import threading

        path = tmp_path / "checkpoint.json"
        checkpoints = []
        for prefix in range(4, 12):
            engine = SpexEngine("_*.a")
            run_with_cursor(engine, DOC, prefix)
            checkpoints.append(engine.checkpoint())
        positions = {checkpoint.position for checkpoint in checkpoints}
        errors = []

        def hammer(checkpoint):
            try:
                for _ in range(25):
                    checkpoint.save(path)
                    assert Checkpoint.load(path).position in positions
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(checkpoint,))
            for checkpoint in checkpoints
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # The survivor is one coherent write; no temp litter remains.
        assert Checkpoint.load(path).position in positions
        assert os.listdir(tmp_path) == ["checkpoint.json"]

    def test_load_missing_or_garbage(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.load(tmp_path / "nope.json")
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        self.make().save(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)

    def test_require_kind(self):
        checkpoint = self.make()
        assert checkpoint.require("multiquery") is checkpoint.payload
        with pytest.raises(CheckpointError, match="'multiquery' engine"):
            checkpoint.require("spex")


# ----------------------------------------------------------------------
# cursor and skip primitives


class TestStreamCursor:
    def test_counts_and_envelope(self):
        cursor = StreamCursor()
        events = list(cursor.attach(iter_events(DOC)))
        assert cursor.events_read == len(events)
        assert cursor.open_labels == []
        assert not cursor.in_document
        assert cursor.documents_seen == 1

    def test_advances_before_yield(self):
        cursor = StreamCursor()
        stream = cursor.attach(iter_events(DOC))
        next(stream)  # <$>
        assert cursor.events_read == 1
        next(stream)  # <a>
        assert cursor.events_read == 2
        assert cursor.open_labels == ["a"]
        assert cursor.in_document

    def test_state_round_trip(self):
        cursor = StreamCursor()
        stream = cursor.attach(iter_events(DOC))
        for _ in range(4):
            next(stream)
        again = StreamCursor.from_state(
            json.loads(json.dumps(cursor.state()))
        )
        assert again.state() == cursor.state()


class TestSkipEvents:
    def test_skips_exact_prefix(self):
        full = list(iter_events(DOC))
        assert list(skip_events(iter_events(DOC), 4)) == full[4:]

    def test_short_source_raises(self):
        with pytest.raises(StreamError, match="cannot resume"):
            list(skip_events(iter_events("<a/>"), 100))


# ----------------------------------------------------------------------
# engine-level contract


class TestEngineCheckpointContract:
    def test_checkpoint_without_run_raises(self):
        with pytest.raises(CheckpointError, match="nothing to checkpoint"):
            SpexEngine("_*.a").checkpoint()

    def test_checkpoint_without_cursor_raises(self):
        engine = SpexEngine("_*.a")
        list(engine.run(DOC))  # no cursor -> not checkpointable
        with pytest.raises(CheckpointError):
            engine.checkpoint()

    def test_cursor_rejected_under_recovery_policies(self):
        engine = SpexEngine("_*.a")
        with pytest.raises(EngineError, match="strict"):
            list(engine.run(DOC, on_error="skip", cursor=StreamCursor()))

    def test_resume_checks_query(self):
        engine = SpexEngine("_*.a")
        run_with_cursor(engine, DOC, 5)
        checkpoint = engine.checkpoint()
        other = SpexEngine("_*.b")
        with pytest.raises(CheckpointError, match="query"):
            other.resume(checkpoint, DOC)

    def test_resume_checks_options(self):
        engine = SpexEngine("_*.a", collect_events=True)
        run_with_cursor(engine, DOC, 5)
        checkpoint = engine.checkpoint()
        mismatched = SpexEngine("_*.a", collect_events=False)
        with pytest.raises(CheckpointError, match="collect_events"):
            mismatched.resume(checkpoint, DOC)

    def test_resume_checks_kind(self):
        """A checkpoint of the retired ``"spex"`` kind is refused by name."""
        engine = SpexEngine("_*.a")
        run_with_cursor(engine, DOC, 5)
        old = Checkpoint(kind="spex", payload=engine.checkpoint().payload)
        for door in (
            SpexEngine.from_checkpoint,
            lambda checkpoint: SpexEngine("_*.a").resume(checkpoint, DOC),
        ):
            with pytest.raises(CheckpointError, match="'spex' engine"):
                door(old)

    def test_resume_takes_one_subscription(self):
        multi = MultiQueryEngine({"q": "_*.a", "r": "_*.b"})
        list(multi.run(DOC, cursor=StreamCursor()))
        checkpoint = multi.checkpoint()
        with pytest.raises(CheckpointError, match="2 subscriptions"):
            SpexEngine.from_checkpoint(checkpoint)
        with pytest.raises(CheckpointError, match="query set"):
            SpexEngine("_*.a").resume(checkpoint, DOC)

    def test_resume_verification_is_eager(self):
        engine = SpexEngine("_*.a")
        run_with_cursor(engine, DOC, 5)
        checkpoint = engine.checkpoint()
        with pytest.raises(CheckpointError):
            # note: no iteration — the mismatch must surface at call time
            SpexEngine("_*.b").resume(checkpoint, DOC)

    def test_resume_rejects_short_source(self):
        engine = SpexEngine("_*.a")
        run_with_cursor(engine, DOC, 5)
        checkpoint = engine.checkpoint()
        with pytest.raises(StreamError, match="cannot resume"):
            list(engine.resume(checkpoint, "<a/>"))

    def test_from_checkpoint_matches_settings(self):
        engine = SpexEngine("_*.a[b].c", collect_events=False, optimize=False)
        run_with_cursor(engine, DOC, 5)
        checkpoint = engine.checkpoint()
        rebuilt = SpexEngine.from_checkpoint(checkpoint)
        assert rebuilt.collect_events is False
        assert rebuilt.optimize == NO_OPTIMIZATIONS
        # and therefore resume is accepted
        list(rebuilt.resume(checkpoint, DOC))

    def test_resume_rejects_the_other_network_topology(self):
        """The production and the reference network name their nodes
        differently (fused DS vs. split/closure/join); the lanes do not
        matter to a single-query engine."""
        engine = SpexEngine("a*.b", optimize=False)
        run_with_cursor(engine, DOC, 5)
        checkpoint = engine.checkpoint()
        with pytest.raises(CheckpointError, match="production_network"):
            SpexEngine("a*.b", optimize=True).resume(checkpoint, DOC)
        lanes_only = OptimizationFlags(production_network=False)
        list(SpexEngine("a*.b", optimize=lanes_only).resume(checkpoint, DOC))

    def test_counters_and_summary(self):
        engine = SpexEngine("_*.a")
        run_with_cursor(engine, DOC, 5)
        checkpoint = engine.checkpoint()
        list(engine.resume(checkpoint, DOC))
        stats = engine.stats
        assert stats.checkpoints_written == 1
        assert stats.restores == 1
        summary = stats.summary()
        assert "checkpoints written   : 1" in summary
        assert "restores              : 1" in summary
        assert "retries               : 0" in summary
        assert "stalls detected       : 0" in summary

    def test_resume_completes_resumed_run(self):
        baseline = [m.position for m in SpexEngine("_*.a[b].c").run(DOC)]
        engine = SpexEngine("_*.a[b].c")
        cursor, matches = run_with_cursor(engine, DOC, 7)
        checkpoint = engine.checkpoint()
        positions = [m.position for m in matches]
        positions += [
            m.position for m in engine.resume(checkpoint, DOC)
        ]
        assert positions == baseline


class TestMultiQueryCheckpointContract:
    QUERIES = {"plain": "_*.a", "qualified": "_*.a[b].c"}

    def test_round_trip_through_disk(self, tmp_path):
        import itertools

        baseline = [
            (query_id, match.position)
            for query_id, match in MultiQueryEngine(self.QUERIES).run(DOC)
        ]
        engine = MultiQueryEngine(self.QUERIES)
        cursor = StreamCursor()
        prefix = list(itertools.islice(iter_events(DOC), 6))
        got = [
            (query_id, match.position)
            for query_id, match in engine.run(iter(prefix), cursor=cursor)
        ]
        path = tmp_path / "checkpoint.json"
        engine.checkpoint().save(path)
        loaded = Checkpoint.load(path)
        fresh = MultiQueryEngine.from_checkpoint(loaded)
        got += [
            (query_id, match.position)
            for query_id, match in fresh.resume(loaded, DOC)
        ]
        assert got == baseline

    def test_resume_checks_subscription_set(self):
        engine = MultiQueryEngine(self.QUERIES)
        cursor = StreamCursor()
        list(engine.run(DOC, cursor=cursor))
        checkpoint = engine.checkpoint()
        other = MultiQueryEngine({"plain": "_*.a"})
        with pytest.raises(CheckpointError, match="subscription"):
            other.resume(checkpoint, DOC)
        reordered = MultiQueryEngine(dict(reversed(self.QUERIES.items())))
        with pytest.raises(CheckpointError, match="registration order"):
            reordered.resume(checkpoint, DOC)

    #: registered in an order that is not key order: what a sorted-key
    #: file turned a format-2 ``"queries"`` dict into
    UNSORTED = {"z": "_*.a", "m": "_*.a[c]", "a": "_*.a"}

    @pytest.mark.parametrize("door", ["resume", "resume_pump"])
    @pytest.mark.parametrize("cut", [3, 4, 9])
    def test_registration_order_survives_a_file(self, tmp_path, cut, door):
        """Regression: same-event matches come out in registration
        order, and a checkpoint that went through ``save``/``load``
        re-registered the queries in key order — the resumed tail then
        interleaved them differently from the uninterrupted pass."""
        events = list(iter_events(DOC))

        def indexed(pump, events, base=0):
            return [
                (base + index, query_id, match.position)
                for index, event in enumerate(events)
                for query_id, match in pump.feed(event)
            ]

        baseline = indexed(MultiQueryEngine(self.UNSORTED).start_pump(), events)
        crowded = [index for index, _, _ in baseline]
        assert len(set(crowded)) < len(crowded)  # several queries per event
        engine = MultiQueryEngine(self.UNSORTED)
        got = indexed(engine.start_pump(cursor=StreamCursor()), events[:cut])
        path = tmp_path / "checkpoint.json"
        engine.checkpoint().save(path)
        loaded = Checkpoint.load(path)
        fresh = MultiQueryEngine.from_checkpoint(loaded)
        assert list(fresh.queries) == list(self.UNSORTED)
        if door == "resume_pump":
            got += indexed(fresh.resume_pump(loaded), events[cut:], cut)
        else:
            pulled = [0]

            def counting():
                for event in events:
                    pulled[0] += 1
                    yield event

            got += [
                (pulled[0] - 1, query_id, match.position)
                for query_id, match in fresh.resume(loaded, counting())
            ]
        assert got == baseline


class TestCutBetweenMatchesOfOneEvent:
    """Regression: an event that decides several matches is behind a
    pulled pass once its *last* match is consumed.  A checkpoint taken
    between two of them was accepted, and as the cursor had already
    counted the event, the resumed pass never delivered the rest.  Now
    that cut is refused, naming how many are still out, and the cut
    after the event's last match stays exact."""

    @staticmethod
    def cut_after_each_match(engine, run, resume):
        """Checkpoint (through its dict form) after every match ``run``
        yields: per match, the refusal or what the pass so far plus a
        resume from the cut delivers."""
        got, results = [], []
        for match in run:
            got.append(match)
            try:
                checkpoint = Checkpoint.from_dict(engine.checkpoint().to_dict())
            except CheckpointError as refusal:
                results.append(str(refusal))
            else:
                results.append(got + list(resume(checkpoint)))
        return got, results

    def test_multiquery_engine(self):
        doc = "<r><a><b/></a><a/></r>"
        queries = {"q1": "_*.a", "q2": "_*.a"}
        engine = MultiQueryEngine(queries)
        got, results = self.cut_after_each_match(
            engine,
            ((q, m.position) for q, m in engine.run(doc, cursor=StreamCursor())),
            lambda checkpoint: (
                (q, m.position)
                for q, m in MultiQueryEngine.from_checkpoint(checkpoint).resume(
                    checkpoint, doc
                )
            ),
        )
        assert got == [("q1", 2), ("q2", 2), ("q1", 4), ("q2", 4)]
        assert results[1] == results[3] == got
        for refused in (results[0], results[2]):
            assert "1 match(es)" in refused and "checkpoint after its last" in refused

    def test_spex_engine(self):
        doc = "<r><a><a/></a></r>"
        engine = SpexEngine("_*.a")
        got, results = self.cut_after_each_match(
            engine,
            (m.position for m in engine.run(doc, cursor=StreamCursor())),
            lambda checkpoint: (
                m.position
                for m in SpexEngine.from_checkpoint(checkpoint).resume(checkpoint, doc)
            ),
        )
        assert got == [2, 3]  # both at the outer </a>
        assert "1 match(es)" in results[0]
        assert results[1] == got

    def test_an_abandoned_pass_leaves_its_cut_refused(self):
        """A consumer that stops between two matches of one event has
        lost the rest; no checkpoint may pretend otherwise."""
        engine = MultiQueryEngine({"q1": "_*.a", "q2": "_*.a", "q3": "_*.a"})
        run = engine.run("<a/>", cursor=StreamCursor())
        next(run)
        run.close()
        with pytest.raises(CheckpointError, match="2 match"):
            engine.checkpoint()


class TestGatedSnapshot:
    """The gated lane's snapshot: a residual network plus how many open
    elements are parked — the open path itself is the cursor's, once per
    checkpoint, and the DFA stack is replayed from it on restore."""

    QUERY = {"q": "_*.a[b].c"}
    GATED_DOC = "<r><a><x><y/></x><b/><c/><x><a><y/><c/></a></x></a></r>"

    def cut(self, events):
        """Run the first ``events`` events; return (engine, snapshot, matches)."""
        import itertools

        engine = MultiQueryEngine(self.QUERY)
        prefix = list(itertools.islice(iter_events(self.GATED_DOC), events))
        got = [
            (query_id, match.position)
            for query_id, match in engine.run(iter(prefix), cursor=StreamCursor())
        ]
        checkpoint = engine.checkpoint()
        assert engine.lane_executions == {"q": "gated"}
        assert checkpoint.payload["subscriptions"] == [["q", "_*.a[b].c", "gated"]]
        snapshot = checkpoint.payload["runners"]["q"]["fastlane"]
        return checkpoint, snapshot, got

    def resumed(self, checkpoint, got):
        restored = Checkpoint.from_dict(json.loads(json.dumps(checkpoint.to_dict())))
        fresh = MultiQueryEngine.from_checkpoint(restored)
        got = got + [
            (query_id, match.position)
            for query_id, match in fresh.resume(restored, self.GATED_DOC)
        ]
        assert got == [
            (query_id, match.position)
            for query_id, match in MultiQueryEngine(
                self.QUERY, optimize=False
            ).run(self.GATED_DOC)
        ]
        assert got
        return fresh

    def test_cut_while_every_open_element_is_parked(self):
        # <$> <r> <a> <x> <y> — nothing needed yet, and the parked <a>
        # has fired: the restored runner must arm the source for it when
        # <b> flushes the ancestors.
        checkpoint, snapshot, got = self.cut(5)
        assert checkpoint.payload["cursor"]["open_labels"] == ["r", "a", "x", "y"]
        assert not {"path", "ecount", "starts"} & set(snapshot)
        assert snapshot["parked"] == 4
        ou = checkpoint.payload["runners"]["q"]["network"]["nodes"]["OU"]["extra"]
        assert ou["element_count"] == 0  # nothing fed yet
        assert "skip" not in snapshot
        self.resumed(checkpoint, got)

    def test_cut_with_fed_ancestors_and_parked_descendants(self):
        # ... <b/> <c/> <x> <a> <y> — r and the outer a are fed, x, the
        # inner (fired) a and y are parked.
        checkpoint, snapshot, got = self.cut(14)
        cursor = checkpoint.payload["cursor"]
        assert cursor["open_labels"] == ["r", "a", "x", "a", "y"]
        assert snapshot["parked"] == 3
        assert cursor["open_starts"] == [1, 2, 7, 8, 9]
        assert got == [("q", 6)]
        fresh = self.resumed(checkpoint, got)
        fed, parked = fresh.gate_counts["q"]
        assert fed + parked == len(list(iter_events(self.GATED_DOC)))

    def test_residual_network_is_what_is_snapshotted(self):
        checkpoint, _, _ = self.cut(5)
        nodes = checkpoint.payload["runners"]["q"]["network"]["nodes"]
        assert "DS(_*)" not in nodes and "CH(a)" not in nodes
        assert "VC(q0)" in nodes

    def test_pre_headed_checkpoint_names_its_version(self):
        """Formats 1 (full network behind the gate), 2 (``"queries"``
        dict, ``network``/``store``/``allocator`` triples) and 3 (the
        open path in every fast-lane runner, depth and event count in
        every network) must be refused by version, at every door a
        checkpoint comes in by — not by a ``KeyError`` deep inside."""
        checkpoint, _, _ = self.cut(5)
        for version in (1, 2, 3):
            data = checkpoint.to_dict()
            data["version"] = version
            with pytest.raises(CheckpointError, match=f"version {version}"):
                Checkpoint.from_dict(data)
            old = Checkpoint(
                kind="multiquery", payload=checkpoint.payload, version=version
            )
            with pytest.raises(CheckpointError, match=f"version {version}"):
                MultiQueryEngine.from_checkpoint(old)
            with pytest.raises(CheckpointError, match=f"version {version}"):
                MultiQueryEngine(self.QUERY).resume(old, self.GATED_DOC)
            with pytest.raises(CheckpointError, match=f"version {version}"):
                MultiQueryEngine(self.QUERY).resume_pump(old)

    def test_a_seven_key_optimize_entry_is_refused_by_name(self):
        checkpoint, _, _ = self.cut(5)
        checkpoint.payload["optimize"] = {
            **dict.fromkeys(("star_fusion", "routing", "fused_network"), True),
            **checkpoint.payload["optimize"],
        }
        restored = Checkpoint.from_dict(checkpoint.to_dict())
        for door in (
            MultiQueryEngine.from_checkpoint,
            lambda c: MultiQueryEngine(self.QUERY).resume(c, self.GATED_DOC),
        ):
            with pytest.raises(ValueError, match="unknown optimization flag") as refusal:
                door(restored)
            assert "star_fusion" in str(refusal.value)


class TestResumeInsideQualifierScope:
    """A cut inside an open qualifier instance — ``VC`` holds a variable
    on its stack, ``OU`` a parked candidate watching it — restored into a
    freshly compiled production network.  The generated end pass holds
    each path node's stack list itself, so ``restore`` must fill the
    lists in place: a rebound list would leave the pass popping the
    empty one it captured at ``finalize``."""

    SCOPED_DOC = "<r><a><c/><x><c/></x><b/><c/></a><a><c/></a></r>"
    #: <$> <r> <a> <c> </c> <x> <c> — two levels below the open a whose
    #: [b] is undetermined, the first c parked behind it
    CUT = 7

    def counting(self, pulled):
        for event in iter_events(self.SCOPED_DOC):
            pulled[0] += 1
            yield event

    def test_spex_engine(self):
        pulled = [0]
        baseline = [
            (pulled[0], match.position, match.label)
            for match in SpexEngine("_*.a[b].c").run(self.counting(pulled))
        ]
        assert [position for _, position, _ in baseline] == [3, 7]
        engine = SpexEngine("_*.a[b].c")
        _, early = run_with_cursor(engine, self.SCOPED_DOC, self.CUT)
        assert early == []
        checkpoint = engine.checkpoint()
        nodes = checkpoint.payload["runners"][SpexEngine.name]["nodes"]
        assert nodes["VC(q0)"]["stack"][-3] is not None  # the open a
        assert len(nodes["OU"]["extra"]["queue"]) == 1
        pulled = [0]
        fresh = SpexEngine.from_checkpoint(checkpoint)
        resumed = [
            (pulled[0], match.position, match.label)
            for match in fresh.resume(checkpoint, self.counting(pulled))
        ]
        assert resumed == baseline

    def test_multiquery_network_and_gated_lanes(self):
        queries = {"gated": "_*.a[b].c", "plain": "_*[b].c"}

        def run(engine_run):
            pulled = [0]
            return [
                (pulled[0], query_id, match.position, match.label)
                for query_id, match in engine_run(self.counting(pulled))
            ]

        baseline = run(MultiQueryEngine(queries).run)
        assert {query_id for _, query_id, _, _ in baseline} == set(queries)
        engine = MultiQueryEngine(queries)
        prefix = list(iter_events(self.SCOPED_DOC))[: self.CUT]
        assert list(engine.run(iter(prefix), cursor=StreamCursor())) == []
        assert engine.lane_executions == {"gated": "gated", "plain": "network"}
        checkpoint = Checkpoint.from_dict(
            json.loads(json.dumps(engine.checkpoint().to_dict()))
        )
        fresh = MultiQueryEngine.from_checkpoint(checkpoint)
        assert run(lambda source: fresh.resume(checkpoint, source)) == baseline


class TestRotation:
    """keep-N generation rotation and the corruption fallback chain."""

    @staticmethod
    def snap(query: str) -> Checkpoint:
        import itertools

        engine = MultiQueryEngine({"q": query})
        cursor = StreamCursor()
        prefix = list(itertools.islice(iter_events(DOC), 6))
        list(engine.run(iter(prefix), cursor=cursor))
        return engine.checkpoint()

    def test_keep_shifts_generations(self, tmp_path):
        path = tmp_path / "ck.json"
        generations = [self.snap(q) for q in ("_*.a", "_*.b", "_*.c")]
        for checkpoint in generations:
            checkpoint.save(path, keep=3)
        assert Checkpoint.load(path).to_dict() == generations[2].to_dict()
        assert (
            Checkpoint._load_one(f"{path}.1").to_dict()
            == generations[1].to_dict()
        )
        assert (
            Checkpoint._load_one(f"{path}.2").to_dict()
            == generations[0].to_dict()
        )
        assert not os.path.exists(f"{path}.3")

    def test_keep_bounds_generation_count(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = self.snap("_*.a")
        for _ in range(5):
            checkpoint.save(path, keep=2)
        assert os.path.exists(f"{path}.1")
        assert not os.path.exists(f"{path}.2"), "oldest must drop"

    def test_keep_one_rotates_nothing(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = self.snap("_*.a")
        checkpoint.save(path)
        checkpoint.save(path)
        assert not os.path.exists(f"{path}.1")

    def test_torn_primary_falls_back_one_generation(self, tmp_path):
        """A crash mid-write of the newest file must not lose the run."""
        path = tmp_path / "ck.json"
        old, new = self.snap("_*.a"), self.snap("_*.b")
        old.save(path, keep=3)
        new.save(path, keep=3)
        raw = open(path, "r", encoding="utf-8").read()
        open(path, "w", encoding="utf-8").write(raw[: len(raw) // 2])
        assert Checkpoint.load(path).to_dict() == old.to_dict()

    def test_corrupt_chain_falls_to_oldest_good_generation(self, tmp_path):
        path = tmp_path / "ck.json"
        generations = [self.snap(q) for q in ("_*.a", "_*.b", "_*.c")]
        for checkpoint in generations:
            checkpoint.save(path, keep=3)
        open(path, "w", encoding="utf-8").write("not json")
        open(f"{path}.1", "w", encoding="utf-8").write("{}")
        assert Checkpoint.load(path).to_dict() == generations[0].to_dict()

    def test_every_generation_bad_raises_the_primary_error(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = self.snap("_*.a")
        checkpoint.save(path, keep=2)
        checkpoint.save(path, keep=2)
        open(path, "w", encoding="utf-8").write("junk")
        open(f"{path}.1", "w", encoding="utf-8").write("junk")
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.load(path)
