"""Stream-flow transducers: split, join, union (Secs. III.6–III.7).

The network evaluates its DAG in topological order once per stream event
(one message in the network at a time, guaranteed by the input
transducer), so:

* **split** is an identity transducer whose output list is handed to both
  successors by the network;
* **join** synchronizes its two predecessors: both branches forward each
  document message exactly once, so the join emits the non-document
  messages of both branches (deduplicated — both branches replicate
  whatever entered before the split) followed by the single document
  message.  This realizes the AND-gate behaviour of Fig. 9 and the
  duplicate elimination Sec. III.7 attributes to the join;
* **union** ``UN`` merges the at-most-two activation messages preceding a
  document message into one disjunction (Fig. 10).
"""

from __future__ import annotations

from ..errors import EngineError
from .messages import Activation, Doc, Message
from .transducer import FORWARDS, Transducer


class SplitTransducer(Transducer):
    """``SP`` — copies its input to both output tapes (Fig. 8).

    Fan-out is performed by the network; the transducer itself is the
    identity and exists to keep network diagrams aligned with the paper.
    """

    kind = "SP"

    start = end = text = FORWARDS

    def feed(self, messages) -> list[Message]:
        batch = messages if messages.__class__ is list else list(messages)
        self.stats.messages += len(batch)
        return batch


class JoinTransducer(Transducer):
    """``JO`` — synchronizes two branches (Fig. 9).

    Not fed through :meth:`feed`; the network calls :meth:`feed2` with
    the message lists of the left and right predecessor.

    Duplicate elimination (Sec. III.7 assigns it to the join) works by
    object identity: a message replicated by the upstream split arrives
    as the *same object* on both inputs and is forwarded once.  Distinct
    activation objects for the same tag are all forwarded — downstream
    transducers merge them by disjunction, so equality-level dedup would
    only shrink formulas the normalization shrinks anyway.
    """

    kind = "JO"

    def __init__(self, name: str | None = None, dedup: bool = True) -> None:
        super().__init__(name)
        #: identity-dedup toggle, exposed for the E10 ablation
        self.dedup = dedup

    def feed(self, messages) -> list[Message]:  # pragma: no cover - guard
        raise EngineError("join transducers take two inputs; use feed2()")

    def feed2(self, left: list[Message], right: list[Message]) -> list[Message]:
        """Merge the per-event output of both branches.

        Document messages must agree — both branches forward the same
        stream event exactly once per event.
        """
        self.stats.messages += len(left) + len(right)
        if left is right and self.dedup:
            # Both branches forwarded the identical batch object (the
            # steady-state case with pass-through branches): every
            # non-document message is its own duplicate, so the merged
            # output is the batch itself — docs agree trivially and the
            # doc-last invariant keeps the order exact.
            return left
        if left and right and left[-1] is right[-1] and left[-1].__class__ is Doc:
            # Both branches end in the one document message of this
            # event (the drivers pass a single object through the whole
            # network, and no batch holds a message twice): whatever
            # else the two sides carry goes in front of it.
            if len(right) == 1:
                return left
            if len(left) == 1:
                return right
            merged = left[:-1]
            if self.dedup:
                seen = set(map(id, merged))
                merged.extend(m for m in right if id(m) not in seen)
            else:
                merged.extend(right)
            return merged
        left_docs = [m for m in left if m.__class__ is Doc]
        right_docs = [m for m in right if m.__class__ is Doc]
        if [m.event for m in left_docs] != [m.event for m in right_docs]:
            raise EngineError(
                f"{self.name}: branches disagree on document messages "
                f"({left_docs} vs {right_docs})"
            )
        merged: list[Message] = []
        seen: set[int] = set()
        for message in left + right:
            if message.__class__ is Doc:
                continue
            if not self.dedup or id(message) not in seen:
                seen.add(id(message))
                merged.append(message)
        merged.extend(left_docs)
        return merged


class UnionTransducer(Transducer):
    """``UN`` — disjunction of the activations before one tag (Fig. 10)."""

    kind = "UN"

    def start(self, batch: list[Message]) -> list[Message]:
        self.stats.messages += len(batch)
        head = self._absorb(batch) if len(batch) > 1 else None
        emit, self.pending = self.pending, None
        if emit is None and head is None:
            return batch
        return self._emit(head, emit, batch[-1])

    end = text = FORWARDS

    def on_activation(self, message: Activation) -> list[Message]:
        self.absorb_activation(message.formula)  # absorb merges via disj()
        return []

    def on_start(self, message: Doc, event) -> list[Message] | None:
        pending = self.take_pending()
        if pending is not None:
            return [Activation(pending), message]
        return None
