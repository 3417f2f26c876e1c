"""Write-ahead match log: the durability half of the streaming service.

The paper's d·σ bound is what makes a *match* log the right durability
unit: the engine's in-flight state is small enough to checkpoint
cheaply (:mod:`repro.core.checkpoint`), but a checkpoint alone cannot
give a reconnecting subscriber the matches it was owed between the last
cut and a crash.  The WAL closes that gap.  It records, append-only:

* every match delivered (or owed) to a **durable session**, stamped
  with its per-subscription monotone sequence number;
* a **document-boundary marker** after each fully ingested document —
  the commit points of the log.  Matches are *committed* once a marker
  for their document is durable; matches after the last marker belong
  to a document the engine never finished and are dropped on recovery
  (the producer replays that document and the engine regenerates them,
  deterministically, with the *same* sequence numbers);
* **session records** (open / subscribe / unsubscribe / ack) so the
  subscription set and each client's delivery floor survive the
  process.

Format: newline-delimited JSON, one record per line, each carrying a
CRC-32 over its canonical encoding.  Recovery tolerates a torn tail —
the file is scanned to the last fully valid record and truncated there,
exactly the rule a crash mid-``write`` requires.  ``fsync`` is batched
by document (``fsync_every_documents``), except session records, which
are rare and synced eagerly so a freshly opened session survives an
immediate crash.

The log stays small by construction: only durable sessions' matches are
logged (their count is bounded by the per-tenant d·σ admission budget
of the serving layer), acknowledged matches are pruned from the replay
index, and :meth:`WriteAheadLog.compact` rewrites the file from the
retained state once it crosses a size threshold.

Commit-ordering invariant (enforced by the server, relied on here):
the WAL's document marker is fsynced **before** the engine checkpoint
covering that document is saved.  A checkpoint may therefore lag the
log (recovery replays the difference) but never lead it — the
configuration under which a crash could lose matches silently.

:class:`SessionStore` is the one owner of durable-session state in a
running service: the sessions (one :class:`Session` each, holding its
subscriptions, sequence counters and ack floors), the expired tokens
and the rebuild replay of a resume.  The log's replay tail is keyed by
engine id, and an engine id names its session (``<token>.<query id>``),
so nothing maps one to the other by hand.  A session's counters, floors
and tail end with it: compaction and recovery keep counters of live
sessions only.
"""

from __future__ import annotations

import json
import os
import secrets
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Any, Container, Iterator

from ..core.output_tx import Match
from ..errors import ReproError
from .protocol import (
    SVC_SESSION_EXPIRED,
    SVC_SESSION_UNKNOWN,
    ProtocolError,
    match_to_obj,
)

#: One retained match: ``(seq, document_index, match_obj)``.
Triple = tuple[int, int, dict[str, Any]]


class WalError(ReproError):
    """The write-ahead log is unusable (I/O failure, malformed base)."""


def _canonical(record: dict[str, Any]) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _crc(record: dict[str, Any]) -> int:
    return zlib.crc32(_canonical(record)) & 0xFFFFFFFF


def _encode(record: dict[str, Any]) -> bytes:
    return _canonical({**record, "c": _crc(record)}) + b"\n"


def _decode(line: bytes) -> dict[str, Any] | None:
    """One line → record dict, or ``None`` if torn/corrupt."""
    try:
        record = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    stored = record.pop("c", None)
    if stored != _crc(record):
        return None
    return record


@dataclass
class Session:
    """One durable subscriber session; it outlives its connections.

    The session is the durability unit of the wire protocol: its
    subscriptions keep running (and their matches keep accruing in the
    log) while no connection is attached, and a client presenting the
    token reattaches with a ``resume`` frame carrying its observed
    per-query sequence floors.

    Attributes:
        token: the wire session token, the only credential a resume
            presents.
        tenant: the tenant the session opened under (budget accounting).
        subscriptions: ``query_id -> (query, attach_doc)`` — the live
            queries, with the document count at which each one joined
            the pass (the query is active from document
            ``attach_doc + 1`` on).
        acked: ``query_id -> seq`` — the client's observed floor;
            matches at or below it are never delivered again.
        seqs: ``query_id -> seq`` — the last sequence number assigned.
            A counter outlives an unsubscribe, so a re-subscribe under
            the same id continues monotonically.
        opened_doc: document count when the session opened.
        last_doc: document count of the session's last activity.
        conn: the attached connection (``None`` while awaiting a resume).
    """

    token: str
    tenant: str = "default"
    subscriptions: dict[str, tuple[str, int]] = field(default_factory=dict)
    acked: dict[str, int] = field(default_factory=dict)
    seqs: dict[str, int] = field(default_factory=dict)
    opened_doc: int = 0
    last_doc: int = 0
    conn: Any = None

    def engine_id(self, query_id: str) -> str:
        """The engine-side id of one of this session's queries."""
        return f"{self.token}.{query_id}"

    def records(self) -> Iterator[dict[str, Any]]:
        """The ``sess`` records that rebuild this session (compaction)."""
        sid, doc = self.token, self.last_doc
        yield {"op": "open", "sid": sid, "tenant": self.tenant, "doc": self.opened_doc}
        for qid in sorted(self.subscriptions):
            query, attach_doc = self.subscriptions[qid]
            eid = self.engine_id(qid)
            yield {"op": "sub", "sid": sid, "qid": qid, "eid": eid, "query": query,
                   "attach_doc": attach_doc, "doc": doc}
        for qid in sorted(self.acked):
            yield {"op": "ack", "sid": sid, "qid": qid, "seq": self.acked[qid], "doc": doc}


def _seq_table(sessions: dict[str, Session]) -> dict[str, int]:
    """Every live session's counters, by engine id."""
    return {
        session.engine_id(qid): seq
        for session in sessions.values()
        for qid, seq in session.seqs.items()
    }


def _owner(sessions: dict[str, Session], engine_id: str) -> tuple[Session, str] | None:
    """The session and query id an engine id names, while subscribed."""
    token, _, qid = engine_id.partition(".")
    session = sessions.get(token)
    if session is None or qid not in session.subscriptions:
        return None
    return session, qid


@dataclass
class WalRecovery:
    """Everything :meth:`WriteAheadLog.open` reconstructed from disk.

    Attributes:
        committed_documents: count of fully committed documents — the
            resume position of the *stream* (the engine checkpoint may
            trail it; the producer replays the difference).
        committed_events: events read at the last document marker.
        sessions: durable sessions by token, counters included (as of
            the committed cut).
        matches: per-engine-id replay tail — committed, not-yet-acked
            matches as ``(seq, document_index, match_obj)`` triples.
        truncated_bytes: torn-tail bytes dropped during recovery.
        records: valid records scanned.
    """

    committed_documents: int = 0
    committed_events: int = 0
    sessions: dict[str, Session] = field(default_factory=dict)
    matches: dict[str, list[Triple]] = field(default_factory=dict)
    truncated_bytes: int = 0
    records: int = 0

    @property
    def seqs(self) -> dict[str, int]:
        """Per-engine-id sequence counters of the recovered sessions (the
        next match of engine id ``q`` gets ``seqs[q] + 1``)."""
        return _seq_table(self.sessions)


def _apply_session(sessions: dict[str, Session], record: dict[str, Any]) -> None:
    """Fold one ``sess`` record into the recovery state (idempotent)."""
    op = record.get("op")
    token = str(record.get("sid", ""))
    doc = int(record.get("doc", 0))
    if not token:
        return
    if op == "open":
        if token not in sessions:
            sessions[token] = Session(
                token=token,
                tenant=str(record.get("tenant", "default")),
                opened_doc=doc,
                last_doc=doc,
            )
        return
    session = sessions.get(token)
    if session is None:
        return  # subscribe/ack for a session whose open was compacted away
    session.last_doc = max(session.last_doc, doc)
    qid = str(record.get("qid", ""))
    if op == "sub":
        query = str(record.get("query", ""))
        session.subscriptions[qid] = (query, int(record.get("attach_doc", doc)))
    elif op == "unsub":
        session.subscriptions.pop(qid, None)
    elif op == "ack":
        seq = int(record.get("seq", 0))
        session.acked[qid] = max(session.acked.get(qid, 0), seq)
    elif op == "expire":
        sessions.pop(token, None)


class WriteAheadLog:
    """Append-only match log with document-boundary commit markers.

    Use :meth:`open` (it recovers an existing file's tail); the
    constructor alone never touches disk.
    """

    def __init__(self, path: str, fsync_every_documents: int = 1) -> None:
        if fsync_every_documents < 1:
            raise ValueError("fsync_every_documents must be at least 1")
        self.path = path
        self.fsync_every_documents = fsync_every_documents
        #: committed document count (last durable-or-pending ``d`` marker).
        self.documents = 0
        #: document count covered by the last fsync.
        self.durable_documents = 0
        #: per-engine-id replay tail: (seq, document, match_obj), ordered.
        self.matches: dict[str, list[Triple]] = {}
        self.size_bytes = 0
        self.appended_records = 0
        self.compactions = 0
        self._handle: Any = None

    # ------------------------------------------------------------------
    # open / recover

    @classmethod
    def open(
        cls, path: str, fsync_every_documents: int = 1
    ) -> tuple["WriteAheadLog", WalRecovery]:
        """Open (creating if absent) and recover the log at ``path``.

        Scans the file to the last fully valid record, truncates any
        torn tail, and returns the log (positioned for appends) together
        with the :class:`WalRecovery` describing the committed state.
        """
        wal = cls(path, fsync_every_documents)
        recovery = WalRecovery()
        raw = b""
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise WalError(f"cannot read WAL {path!r}: {exc}") from exc
        valid_bytes, records = cls._scan(raw)
        recovery.truncated_bytes = len(raw) - valid_bytes
        recovery.records = len(records)
        seqs: dict[str, int] = {}
        matches: dict[str, list[Triple]] = {}
        for record in records:
            kind = record.get("t")
            if kind == "base":
                recovery.committed_documents = int(record.get("doc", 0))
                recovery.committed_events = int(record.get("ev", 0))
                base = record.get("seqs")
                if isinstance(base, dict):
                    seqs = {str(eid): int(seq) for eid, seq in base.items()}
            elif kind == "m":
                eid = str(record.get("q", ""))
                matches.setdefault(eid, []).append(
                    (
                        int(record.get("s", 0)),
                        int(record.get("d", 0)),
                        dict(record.get("m", {})),
                    )
                )
            elif kind == "d":
                recovery.committed_documents = max(
                    recovery.committed_documents, int(record.get("n", 0))
                )
                recovery.committed_events = int(record.get("ev", 0))
            elif kind == "sess":
                _apply_session(recovery.sessions, record)
        committed = recovery.committed_documents
        # Commit rule: a match is durable iff its document's marker is.
        # Matches of the in-flight document are dropped here — the
        # producer replays that document and the engine regenerates them
        # with identical sequence numbers.
        for eid, triples in matches.items():
            kept = [t for t in triples if t[1] < committed]
            for seq, _doc, _obj in kept:
                seqs[eid] = max(seqs.get(eid, 0), seq)
            # Prune the replay tail below its session's ack floor; an
            # engine id no live session subscribes to has no possible
            # replayer, and its tail is dropped outright.
            owner = _owner(recovery.sessions, eid)
            if owner is not None:
                session, qid = owner
                floor = session.acked.get(qid, 0)
                tail = [t for t in kept if t[0] > floor]
                if tail:
                    recovery.matches[eid] = tail
        # Counters go to their sessions; those of expired sessions (which
        # no token can ever resume) are dropped with them.
        for eid, seq in seqs.items():
            token, _, qid = eid.partition(".")
            if token in recovery.sessions:
                recovery.sessions[token].seqs[qid] = seq
        # Truncate the torn tail before reopening for append.
        if recovery.truncated_bytes:
            with open(path, "rb+") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        wal._handle = open(path, "ab")
        wal.size_bytes = valid_bytes
        wal.documents = recovery.committed_documents
        wal.durable_documents = recovery.committed_documents
        wal.matches = {eid: list(t) for eid, t in recovery.matches.items()}
        return wal, recovery

    @staticmethod
    def _scan(raw: bytes) -> tuple[int, list[dict[str, Any]]]:
        """Valid prefix length and its records (stops at the first tear)."""
        records: list[dict[str, Any]] = []
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                break  # unterminated final line: torn write
            record = _decode(raw[offset:newline])
            if record is None:
                break  # corrupt record: everything after it is suspect
            records.append(record)
            offset = newline + 1
        return offset, records

    # ------------------------------------------------------------------
    # append side

    def append_match(
        self, engine_id: str, seq: int, document: int, match_obj: dict[str, Any]
    ) -> None:
        """Log one durable match (not yet committed — see marker)."""
        self._append({"t": "m", "q": engine_id, "s": seq, "d": document, "m": match_obj})
        self.matches.setdefault(engine_id, []).append((seq, document, match_obj))

    def append_document(self, count: int, events_read: int) -> bool:
        """Log the commit marker for document ``count`` (1-based count).

        Returns ``True`` when this marker was fsynced (the batching
        cadence fired), ``False`` when it merely reached the OS buffer.
        """
        self._append({"t": "d", "n": count, "ev": events_read})
        self.documents = count
        if count - self.durable_documents >= self.fsync_every_documents:
            self.sync()
            return True
        return False

    def append_session(self, record: dict[str, Any], durable: bool = True) -> None:
        """Log one session record (``op``/``sid``/... fields; see module doc).

        Session records default to an eager fsync: they are rare, and a
        session that vanishes because its ``open`` never hit the platter
        would violate the resume contract the token represents.
        """
        self._append({"t": "sess", **record})
        if durable:
            self.sync()

    def acknowledge(self, engine_id: str, seq: int) -> None:
        """Drop replay-tail matches at or below the client's floor."""
        triples = self.matches.get(engine_id)
        if not triples:
            return
        kept = [t for t in triples if t[0] > seq]
        if kept:
            self.matches[engine_id] = kept
        else:
            self.matches.pop(engine_id, None)

    def release(self, engine_id: str) -> None:
        """Forget an engine id's replay tail (unsubscribed / expired)."""
        self.matches.pop(engine_id, None)

    def sync(self) -> None:
        """Flush and fsync everything appended so far."""
        if self._handle is None:
            raise WalError("write-ahead log is closed")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.durable_documents = self.documents

    def close(self) -> None:
        if self._handle is not None:
            try:
                self.sync()
            finally:
                self._handle.close()
                self._handle = None

    def _append(self, record: dict[str, Any]) -> None:
        if self._handle is None:
            raise WalError("write-ahead log is closed")
        data = _encode(record)
        self._handle.write(data)
        self.size_bytes += len(data)
        self.appended_records += 1

    # ------------------------------------------------------------------
    # compaction

    def compact(self, sessions: dict[str, Session], committed_events: int) -> None:
        """Atomically rewrite the log from the retained in-memory state.

        The new file holds: a ``base`` record pinning the committed
        document count and the live sessions' counters; the current session
        set (re-emitted as ``open``/``sub``/``ack`` records); the
        unacked replay tails; and a final document marker.  Everything
        acked, unsubscribed or superseded is gone.  The rewrite is
        atomic (temp file + fsync + ``os.replace``), so a crash during
        compaction leaves the previous log intact.
        """
        if self._handle is None:
            raise WalError("write-ahead log is closed")
        committed = self.documents
        directory = os.path.dirname(self.path) or "."
        descriptor, temp_path = tempfile.mkstemp(
            prefix=f".wal-{os.getpid()}-", suffix=".tmp", dir=directory
        )
        size = 0
        try:
            with os.fdopen(descriptor, "wb") as handle:
                def emit(record: dict[str, Any]) -> None:
                    nonlocal size
                    data = _encode(record)
                    handle.write(data)
                    size += len(data)

                seqs = dict(sorted(_seq_table(sessions).items()))
                emit({"t": "base", "doc": committed, "ev": committed_events, "seqs": seqs})
                for token in sorted(sessions):
                    for record in sessions[token].records():
                        emit({"t": "sess", **record})
                for eid in sorted(self.matches):
                    for seq, doc, obj in self.matches[eid]:
                        emit({"t": "m", "q": eid, "s": seq, "d": doc, "m": obj})
                emit({"t": "d", "n": committed, "ev": committed_events})
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            self._handle = None
            os.replace(temp_path, self.path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            if self._handle is None:
                self._handle = open(self.path, "ab")
            raise
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:
            dir_fd = -1
        if dir_fd >= 0:
            try:
                os.fsync(dir_fd)
            except OSError:
                pass
            finally:
                os.close(dir_fd)
        self._handle = open(self.path, "ab")
        self.size_bytes = size
        self.durable_documents = committed
        self.compactions += 1


class SessionStore:
    """The one owner of durable-session state, beside the log that persists it.

    A service builds one only when it has a write-ahead log.  It holds
    the live :class:`Session` objects, the tokens of expired ones, and
    the rebuild replay of a resume; the server asks it which sequence
    number a match gets and whether to deliver it (:meth:`stamp`), and
    ends every subscription through :meth:`end`.
    """

    def __init__(
        self,
        path: str,
        fsync_every_documents: int = 1,
        resume: bool = False,
        retention: int = 1024,
    ) -> None:
        if not resume and os.path.exists(path):
            os.unlink(path)  # a stale log from an old run
        self.wal, recovery = WriteAheadLog.open(path, fsync_every_documents)
        self.sessions = recovery.sessions
        #: a disconnected session idle for more documents than this expires
        self.retention = retention
        #: tokens aged out by retention: a resume gets SVC011, not SVC010
        self.expired: set[str] = set()
        #: replayed documents at or below this count rebuild engine state
        #: silently: their matches are already in the log, so delivery and
        #: logging are suppressed for the engine ids that existed at the
        #: crash (fresh subscriptions still see them live).
        self.rebuild_until = 0
        self._rebuilding: set[str] = set()
        #: (attach_doc, engine_id, query, tenant) — recovered subscriptions
        #: younger than the checkpoint, re-attached when the rebuild replay
        #: reaches their original join point.
        self._deferred: list[tuple[int, str, str, str]] = []

    @property
    def seqs(self) -> dict[str, int]:
        """Every live session's sequence counters, by engine id."""
        return _seq_table(self.sessions)

    def owns(self, engine_id: str) -> bool:
        """Whether a live session subscribes under ``engine_id``."""
        return _owner(self.sessions, engine_id) is not None

    # ------------------------------------------------------------------
    # resume

    def resume(self, engine_documents: int, registered: Container[str]) -> int:
        """Arm the rebuild replay of a resume; returns the committed count.

        The engine, restored from the checkpoint, may trail the log by up
        to one checkpoint interval: the producer re-sends from the
        engine's position, documents up to the committed count rebuild
        state silently, and a subscription not in ``registered`` (younger
        than the checkpoint) re-attaches at its join point (:meth:`due`).
        """
        committed = max(self.wal.documents, engine_documents)
        self.wal.documents = committed
        self.rebuild_until = committed
        deferred = []
        for token in sorted(self.sessions):
            session = self.sessions[token]
            for qid, (query, attach_doc) in session.subscriptions.items():
                engine_id = session.engine_id(qid)
                self._rebuilding.add(engine_id)
                if engine_id not in registered:
                    join = max(attach_doc, engine_documents)
                    deferred.append((join, engine_id, query, session.tenant))
        self._deferred = sorted(deferred, key=lambda item: item[0])
        return committed

    def tenants(self) -> list[str]:
        """One tenant per live subscription (budget accounting)."""
        return [s.tenant for s in self.sessions.values() for _ in s.subscriptions]

    def due(self, documents_seen: int) -> list[tuple[str, str, str]]:
        """``(engine_id, query, tenant)`` of the deferred subscriptions
        whose join point the pump's position has reached.

        A subscription recorded at document count ``k`` joined the pass
        at document ``k + 1``; during the rebuild replay it must join at
        exactly that boundary again, or its regenerated matches (and
        every later sequence number) would diverge from the log.
        """
        due = []
        while self._deferred and self._deferred[0][0] <= documents_seen:
            due.append(self._deferred.pop(0)[1:])
        return due

    # ------------------------------------------------------------------
    # sessions and their subscriptions

    def open_session(self, tenant: str, document: int) -> Session:
        """Mint and log a session for a fresh ``durable`` hello.

        The token is the *only* credential a resume presents, so it is
        unguessable (``secrets``): a sequential one could be hijacked, or
        re-minted after a crash and hand an old client's matches to a
        new one.
        """
        token = f"sess-{secrets.token_urlsafe(12)}"
        while token in self.sessions or token in self.expired:
            token = f"sess-{secrets.token_urlsafe(12)}"  # pragma: no cover
        session = Session(token, tenant, opened_doc=document, last_doc=document)
        self.sessions[token] = session
        self.wal.append_session(
            {"op": "open", "sid": token, "tenant": tenant, "doc": document}
        )
        return session

    def find(self, token: str) -> Session:
        """The detached session a resuming hello names.

        Raises :class:`~repro.service.protocol.ProtocolError`: SVC011 for
        an expired token, SVC010 for an unknown one, SVC002 for a session
        attached on another connection.
        """
        session = self.sessions.get(token)
        if session is None:
            if token in self.expired:
                raise ProtocolError(
                    f"session {token!r} expired past the retention window "
                    f"of {self.retention} document(s)",
                    SVC_SESSION_EXPIRED,
                )
            raise ProtocolError(f"unknown session {token!r}", SVC_SESSION_UNKNOWN)
        if session.conn is not None and not session.conn.closed:
            raise ProtocolError(f"session {token!r} is attached on another connection")
        return session

    def attach(self, session: Session, conn: Any) -> dict[str, str]:
        """Bind a connection; returns its routes, query id → engine id."""
        session.conn = conn
        return {qid: session.engine_id(qid) for qid in session.subscriptions}

    def detach(self, session: Session, document: int) -> None:
        """Unbind the connection; the retention clock starts at ``document``."""
        session.conn = None
        session.last_doc = max(session.last_doc, document)

    def subscribe(
        self, session: Session, qid: str, query: str, attach_doc: int
    ) -> None:
        """Record and log a subscription joining at ``attach_doc + 1``."""
        session.subscriptions[qid] = (query, attach_doc)
        self.wal.append_session(
            {
                "op": "sub",
                "sid": session.token,
                "qid": qid,
                "eid": session.engine_id(qid),
                "query": query,
                "doc": attach_doc,
            }
        )

    def end(
        self, engine_id: str, flushed: list[Match], documents_seen: int
    ) -> list[tuple[int | None, Match]]:
        """Every ending subscription passes here: unsubscribe, expiry, a
        crash orphan, a refused re-attach, a departed connection.

        The query's undelivered ``flushed`` matches are stamped like any
        other (:meth:`stamp`) and returned for delivery.  Then its replay
        tail, rebuild entry and floor go, and, while its session lives,
        an ``unsub`` record is logged; the session keeps the counter.
        """
        out = []
        for match in flushed:
            seq, deliver = self.stamp(engine_id, documents_seen, match)
            if deliver:
                out.append((seq, match))
        self._rebuilding.discard(engine_id)
        self.wal.release(engine_id)
        owner = _owner(self.sessions, engine_id)
        if owner is not None:
            session, qid = owner
            del session.subscriptions[qid]
            session.acked.pop(qid, None)
            self.wal.append_session({"op": "unsub", "sid": session.token, "qid": qid})
        return out

    def expire(self, document: int) -> list[tuple[str, list[str]]]:
        """Drop disconnected sessions idle past the retention window.

        Returns ``(tenant, engine_ids)`` per expired session, for the
        caller to end each query (:meth:`end`).  The session's counters
        and floors leave with it; only the token stays, to tell SVC011
        from SVC010.
        """
        out = []
        for token in list(self.sessions):
            session = self.sessions[token]
            if session.conn is not None or document - session.last_doc <= self.retention:
                continue
            del self.sessions[token]
            self.expired.add(token)
            self.wal.append_session(
                {"op": "expire", "sid": token, "doc": document}, durable=False
            )
            out.append(
                (session.tenant, [session.engine_id(qid) for qid in session.subscriptions])
            )
        return out

    # ------------------------------------------------------------------
    # delivery

    def stamp(
        self, engine_id: str, documents_seen: int, match: Match
    ) -> tuple[int | None, bool]:
        """``(seq, deliver)`` for one match of ``engine_id``.

        A query no session owns gets ``(None, True)``.  An owned one is
        silent while the rebuild replay regenerates what the log already
        holds; otherwise it takes the next sequence number, is logged,
        and is delivered unless the client observed it before a crash.
        """
        owner = _owner(self.sessions, engine_id)
        if owner is None:
            return None, True
        if documents_seen <= self.rebuild_until and engine_id in self._rebuilding:
            return None, False
        session, qid = owner
        seq = session.seqs.get(qid, 0) + 1
        session.seqs[qid] = seq
        self.wal.append_match(engine_id, seq, documents_seen - 1, match_to_obj(match))
        return seq, seq > session.acked.get(qid, 0)

    def _lift(self, session: Session, qid: str, seq: int) -> int:
        """Raise a floor toward ``seq`` and prune the tail; returns the floor.

        The claim is clamped to the highest assigned sequence number: a
        floor above the counter would suppress every future delivery and
        prune the log under it.
        """
        floor = max(session.acked.get(qid, 0), min(seq, session.seqs.get(qid, 0)))
        session.acked[qid] = floor
        self.wal.acknowledge(session.engine_id(qid), floor)
        return floor

    def ack(self, session: Session, qid: str, seq: int) -> None:
        """A client's cumulative ack: lift the floor, prune the tail."""
        if qid not in session.subscriptions:
            return
        before = session.acked.get(qid, 0)
        floor = self._lift(session, qid, seq)
        if floor > before:
            # Ack records trim the tail a *future* recovery replays;
            # losing the latest one merely re-replays a few acked
            # matches, which the client's own floor filter drops.
            self.wal.append_session(
                {"op": "ack", "sid": session.token, "qid": qid, "seq": floor},
                durable=False,
            )

    def replay(
        self, session: Session, acked: dict[str, int], document: int
    ) -> list[tuple[str, int, int, dict[str, Any]]]:
        """Lift the floors a resuming client claims; returns the retained
        tail above them as ``(qid, seq, document, match_obj)``, query by
        query, taken before any of it is sent."""
        tail = []
        for qid in sorted(session.subscriptions):
            self._lift(session, qid, acked.get(qid, 0))  # prunes the tail
            for seq, doc, obj in self.wal.matches.get(session.engine_id(qid), ()):
                tail.append((qid, seq, doc, obj))
        session.last_doc = document
        return tail

    def counters(self, session: Session) -> dict[str, int]:
        """Highest assigned sequence number per subscribed query."""
        return {qid: session.seqs.get(qid, 0) for qid in sorted(session.subscriptions)}
