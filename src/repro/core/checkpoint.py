"""Durable, verifiable snapshots of in-flight streaming runs.

The paper's complexity results are what make this layer cheap: per
Theorems IV.2/VI.1 a SPEX run's state is a set of per-transducer stacks
bounded by stream depth times formula size, plus the output transducer's
candidate buffer — kilobytes for realistic queries, not the stream read
so far.  A :class:`Checkpoint` captures exactly that state (every
transducer stack, the condition store, the output candidates) together
with the source position it corresponds to, so a crashed or deliberately
stopped run can continue from the cut instead of re-reading from byte
zero.

Format: a single JSON document::

    {
      "version": 4,            # format version, checked on load
      "kind": "multiquery",    # which engine wrote it (the one kind left)
      "payload": {...},        # engine-specific state (stable dict forms)
      "checksum": "sha256:..." # over the canonical encoding of the rest
    }

The checksum makes corruption (truncated writes, disk errors, manual
edits) a loud :class:`~repro.errors.CheckpointError` instead of silently
wrong matches after resume.  :meth:`Checkpoint.save` writes atomically —
temp file in the target directory, flush+fsync, ``os.replace`` — so a
crash *during* checkpointing leaves the previous checkpoint intact, never
a half-written one.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field

from ..errors import CheckpointError

#: Current checkpoint format version.  Bump on any payload shape change;
#: loading a different version raises (no silent cross-version reads).
#: Version 3: a multi-query payload lists its ``"subscriptions"`` as
#: ``[query_id, query_text, lane]`` triples in registration order (the
#: version-2 ``"queries"`` dict lost that order through a file) and holds
#: one ``snapshot()`` per runner under ``"runners"``; a network's
#: snapshot includes its condition store and allocator; ``"optimize"``
#: is always the three-key dict.  Version 4: stream position is the
#: ``"cursor"``'s alone; no runner snapshot repeats the open path, the
#: element count or the document's event count.
CHECKPOINT_VERSION = 4


def _canonical(body: dict) -> bytes:
    """Deterministic encoding the checksum is computed over."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(body: dict) -> str:
    return "sha256:" + hashlib.sha256(_canonical(body)).hexdigest()


def _require_version(version: object) -> None:
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )


@dataclass(frozen=True)
class Checkpoint:
    """One resumable cut of a streaming run.

    Attributes:
        kind: the engine family that wrote it: ``"multiquery"``, for
            :class:`~repro.core.multiquery.MultiQueryEngine` and the
            :class:`~repro.core.engine.SpexEngine` facade over one (a
            retired ``"spex"`` checkpoint is refused by this name).
        payload: engine-specific state in stable dict form.  Always
            contains a ``"cursor"`` entry with the source position.
    """

    kind: str
    payload: dict = field(repr=False)
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------------
    # convenience accessors

    @property
    def position(self) -> int:
        """Number of source events the checkpointed run had consumed."""
        return int(self.payload["cursor"]["events_read"])

    def require(self, kind: str) -> dict:
        """Payload, after asserting the checkpoint came from ``kind``
        and carries the payload shapes this build restores."""
        _require_version(self.version)
        if self.kind != kind:
            raise CheckpointError(
                f"checkpoint was written by a {self.kind!r} engine, "
                f"cannot resume it with a {kind!r} engine"
            )
        return self.payload

    # ------------------------------------------------------------------
    # (de)serialization

    def to_dict(self) -> dict:
        """Stable dict form, with the integrity checksum filled in."""
        body = {"version": self.version, "kind": self.kind, "payload": self.payload}
        return {**body, "checksum": _checksum(body)}

    @classmethod
    def from_dict(cls, data: dict) -> Checkpoint:
        """Decode and verify a checkpoint dict.

        Raises:
            CheckpointError: missing fields, unsupported version, or a
                checksum mismatch (the bytes were altered since
                :meth:`to_dict`).
        """
        try:
            version = data["version"]
            kind = data["kind"]
            payload = data["payload"]
            checksum = data["checksum"]
        except (TypeError, KeyError) as exc:
            raise CheckpointError(f"malformed checkpoint: missing {exc}") from None
        _require_version(version)
        body = {"version": version, "kind": kind, "payload": payload}
        expected = _checksum(body)
        if checksum != expected:
            raise CheckpointError(
                "checkpoint integrity check failed: stored checksum "
                f"{checksum!r} != computed {expected!r}"
            )
        return cls(kind=kind, payload=payload, version=version)

    def save(self, path: str | os.PathLike[str], keep: int = 1) -> None:
        """Write the checkpoint to ``path`` atomically.

        The bytes land in a temp file in the same directory and are
        fsynced before an ``os.replace`` — so the file at ``path`` is
        always either the previous checkpoint or this one, never a
        torn write.  Safe under concurrent writers sharing one
        checkpoint directory (the sharded engine runs one writer per
        worker process): temp names embed the writer's pid on top of
        ``mkstemp``'s own randomness, and the directory entry is fsynced
        after the rename so a crashed host cannot resurrect a stale
        name→inode mapping.

        Args:
            keep: how many generations to retain.  With ``keep > 1`` the
                previous snapshots are shifted to ``path.1``, ``path.2``,
                ... before the replace, so :meth:`load` can fall back to
                an older generation if the newest one is damaged on
                disk.  Rotation renames are not safe under *concurrent*
                writers sharing one path (the sharded engine), so the
                default stays ``keep=1`` — a single live file, exactly
                the pre-rotation behaviour.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        data = json.dumps(self.to_dict(), sort_keys=True, indent=1)
        if keep > 1:
            _rotate(path, keep)
        descriptor, temp_path = tempfile.mkstemp(
            prefix=f".checkpoint-{os.getpid()}-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds: rename is still atomic
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> Checkpoint:
        """Read and verify a checkpoint file written by :meth:`save`.

        If the file at ``path`` is torn, truncated, or fails its
        checksum, older rotated generations (``path.1``, ``path.2``,
        ...) written by :meth:`save` with ``keep > 1`` are tried in
        order; the newest one that verifies wins.  Only when every
        generation is unreadable does the *newest* failure propagate —
        falling back silently to stale state without saying so would be
        worse than the original corruption.
        """
        try:
            return cls._load_one(path)
        except CheckpointError as exc:
            primary_error = exc
        base = os.fspath(path)
        generation = 1
        while os.path.exists(f"{base}.{generation}"):
            try:
                return cls._load_one(f"{base}.{generation}")
            except CheckpointError:
                generation += 1
                continue
        raise primary_error

    @classmethod
    def _load_one(cls, path: str | os.PathLike[str]) -> Checkpoint:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        return cls.from_dict(data)


def _rotate(path: str, keep: int) -> None:
    """Shift ``path`` → ``path.1`` → ... → ``path.keep-1`` (oldest drops).

    Renames happen oldest-first so each generation moves exactly one
    slot; a crash mid-rotation leaves every snapshot intact under *some*
    name that :meth:`Checkpoint.load` still probes.
    """
    for generation in range(keep - 1, 0, -1):
        source = path if generation == 1 else f"{path}.{generation - 1}"
        if os.path.exists(source):
            try:
                os.replace(source, f"{path}.{generation}")
            except OSError:
                pass  # rotation is best-effort; the new save still lands
