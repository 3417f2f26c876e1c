"""Lazy-DFA fast lanes — the execution half of the lane planner.

The planner (:mod:`repro.analysis.planner`) classifies every query into
``dfa``/``hybrid``/``network``; this module makes the classification pay
at runtime.  The design follows the DFA line of related work (X-Scan,
Green et al.'s lazy DFA, YFilter's shared automaton): all fast-lane
queries of an engine are compiled into **one shared product NFA** and
determinized *lazily* — DFA states are interned on demand, keyed by the
subset of live ``(slot, nfa_state)`` pairs, with transitions memoized per
state.  The memo is bounded: past ``max_states`` interned states the
subset construction keeps running *uncached* (correct, bounded memory,
counted in :attr:`FastLaneCore.saturated_steps`), and a query whose NFA
alone exceeds the budget is demoted to the network lane at compile time
(``PLAN005``) rather than risking a state explosion mid-stream.

Three execution shapes hang off the shared core:

* :class:`FastLaneAdapter` (``dfa`` lane) — qualifier-free queries run
  entirely on the DFA.  Match candidates open when the query's slot
  accepts at a start tag and are emitted with the exact FIFO/front-
  blocking discipline of :class:`~repro.core.output_tx.OutputTransducer`,
  so positions and emission events are bit-identical to the network.
* :class:`HybridAdapter` (``hybrid`` lane, final-step qualifier) — the
  qualifier-free spine runs on the DFA; an undetermined candidate is an
  *obligation* ``(candidate, condition-DFA state)`` held per open
  element, derived at each start tag from the parent element's and
  forgotten with it, so a condition advances only along paths where it
  is still live.  A witness accept determines the candidate ``true`` at
  the witness's start tag, an undetermined candidate drops at its end
  tag — the same determination times the ``VC``/``VD`` machinery
  exhibits for this query class.
* :class:`GatedNetworkAdapter` (other ``hybrid`` shapes) — a **DFA-headed
  residual network**.  The query is split ``P.R`` at the planner's
  prefix (:func:`repro.analysis.planner.split_at_prefix`); ``P`` runs in
  the shared DFA, only ``R`` is compiled into a transducer network, and
  that network's source activates when ``P`` accepts an element instead
  of at ``<$>``.  The slot's automaton is ``P.gate_expr(R)`` with two
  flags per DFA state: *fire* (``P`` accepts here) and *needed* (a state
  inside ``gate_expr(R)`` is live, so some transducer of the residual
  network would act on this element).  The network is fed on demand — a
  start tag that is not needed stays parked until a needed descendant
  flushes it, and is never fed at all otherwise — with match positions
  kept stream-global through the sink's position counter.

The core has no per-event method: the one loop of
:class:`~repro.core.multiquery.ServePump` steps it inline.  Every adapter
is a *runner* — ``flush``, ``buffered_events``, ``deactivate``,
``snapshot``/``restore``, and ``process_event`` on the gated one: the
protocol the pump drives a plain :class:`~repro.core.network.Network`
through as well (``docs/architecture.md``) — so checkpoint/resume,
shards and durable service sessions keep their exactly-once guarantees
without knowing which lane a query runs on.  Stream position — depth,
the open labels, element ordinals — is the pass's
:class:`~repro.xmlstream.offsets.StreamCursor`'s alone: the core reads
it, and a checkpoint holds it once, in the cursor.  Restore replays the
cursor's open path through the subset construction and, below each
pending hybrid candidate, through its condition DFA, so automaton state
— obligations included — is never serialized, and a runner snapshot
holds only candidates and counters.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from ..analysis.planner import pure, split_at_prefix
from ..errors import UnsupportedFeatureError
from ..limits import DROP_OLDEST, ResourceLimits
from ..rpeq.ast import (
    Concat,
    Empty,
    Following,
    OptionalExpr,
    Preceding,
    Qualifier,
    Rpeq,
    Union,
)
from ..rpeq.nfa import HeadedNfa, Nfa, compile_headed_nfa, compile_nfa
from ..xmlstream.events import (
    DOCUMENT_LABEL,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
    start_tag,
)
from .output_tx import Match

if TYPE_CHECKING:
    from ..analysis.planner import QueryPlan
    from ..xmlstream.offsets import StreamCursor
    from .multiquery import Runner
    from .network import Network
    from .optimize import OptimizationFlags

#: Interned-state budget of the shared lazy DFA (and of each per-slot
#: condition DFA).  Generous for real query sets — the mondial/xmark
#: corpus stays under a few dozen states — while keeping an adversarial
#: union-of-closures query from growing the memo without bound.
DEFAULT_MAX_STATES = 4096

#: Shared empty result: adapters return it for the (vast majority of)
#: events that decide nothing, so the hot path allocates no list.
_NO_MATCHES: list[Match] = []

#: Lanes whose runners need no per-event call from the driver: the
#: pump's loop steps the core over each event once for all of them and
#: :meth:`FastLaneCore.drain_matches` collects their matches.
CORE_DRIVEN_LANES = frozenset({"dfa", "hybrid"})

KIND_DFA = 1
KIND_HYBRID = 2
KIND_GATE = 3

_PENDING = 0
_READY = 1
_DROPPED = 2

_STATE_NAMES = {_PENDING: "pending", _READY: "ready", _DROPPED: "dropped"}
_STATE_CODES = {name: code for code, name in _STATE_NAMES.items()}


class FastLaneUnsupported(Exception):
    """A query cannot run on the fast lane (compile-time demotion)."""


# ----------------------------------------------------------------------
# query-shape analysis


def native_hybrid_split(expr: Rpeq) -> tuple[Rpeq, Rpeq] | None:
    """Split ``spine[condition]`` queries whose qualifier is final.

    Returns ``(spine, condition)`` when the query is a qualifier-free
    spine whose **last** step carries the only qualifier and the
    condition itself is pure — residual exactly ``ε[condition]``, the
    class the native hybrid evaluator handles without any network.
    ``None`` otherwise.
    """
    spine, residual = split_at_prefix(expr)
    if (
        isinstance(residual, Qualifier)
        and isinstance(residual.base, Empty)
        and pure(residual.condition)
    ):
        return spine, residual.condition
    return None


def gate_expr(expr: Rpeq) -> Rpeq:
    """The gate's sound over-approximation of ``expr``.

    Qualifier guards are erased (the gate may never withhold an element
    the network would act on, so guards only *add* live runs) and each
    condition becomes an optional continuation branch at its guard
    point — its states stay live exactly where the network's witness
    search would still be walking the subtree.  Accepting more paths
    than the query is fine: the gate reads liveness, not accepts.
    """
    if isinstance(expr, Qualifier):
        return Concat(
            gate_expr(expr.base), OptionalExpr(gate_expr(expr.condition))
        )
    if isinstance(expr, Concat):
        return Concat(gate_expr(expr.left), gate_expr(expr.right))
    if isinstance(expr, Union):
        return Union(gate_expr(expr.left), gate_expr(expr.right))
    if isinstance(expr, OptionalExpr):
        return OptionalExpr(gate_expr(expr.inner))
    if isinstance(expr, (Following, Preceding)):
        raise FastLaneUnsupported(
            "axis steps are not path-regular; the gate automaton covers "
            "the core rpeq language only"
        )
    # Label / Plus / Star / Empty carry no nested conditions.
    return expr


# ----------------------------------------------------------------------
# the shared lazy product DFA


class _Candidate:
    """One potential match: an element the query's spine accepted."""

    __slots__ = ("pos", "label", "depth", "state", "done")

    def __init__(self, pos: int, label: str, depth: int, state: int) -> None:
        self.pos = pos
        self.label = label
        self.depth = depth
        self.state = state
        self.done = False


class _DfaState:
    """One interned subset-construction state of the shared product."""

    __slots__ = ("key", "trans", "accepts", "fire", "needed", "interned")

    def __init__(
        self,
        key: frozenset[tuple[int, int]],
        accepts: tuple[int, ...],
        fire: frozenset[int],
        needed: frozenset[int],
        interned: bool,
    ) -> None:
        self.key = key
        self.trans: dict[str, "_DfaState"] = {}
        #: dfa/hybrid slots whose query accepts here (candidates open)
        self.accepts = accepts
        #: headed slots whose prefix accepts here (the source activates)
        self.fire = fire
        #: headed slots with a live state inside their residual
        self.needed = needed
        self.interned = interned


class _CondState:
    """One interned state of a per-slot condition DFA."""

    __slots__ = ("key", "trans", "accept", "dead", "interned")

    def __init__(self, key: frozenset[int], accept: bool, interned: bool) -> None:
        self.key = key
        self.trans: dict[str, "_CondState"] = {}
        self.accept = accept
        #: no NFA state left: nothing below can witness any more
        self.dead = not key
        self.interned = interned


def _closures(nfa: Nfa) -> dict[int, frozenset[int]]:
    """ε-closure of every state (fast-lane NFAs carry no guarded edges)."""
    states = {nfa.start, nfa.accept}
    states.update(nfa.transitions)
    states.update(t for edges in nfa.transitions.values() for _, t in edges)
    states.update(nfa.epsilon)
    states.update(t for targets in nfa.epsilon.values() for t in targets)
    out: dict[int, frozenset[int]] = {}
    for state in states:
        seen = {state}
        frontier = [state]
        while frontier:
            current = frontier.pop()
            for target in nfa.epsilon.get(current, ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        out[state] = frozenset(seen)
    return out


class _Slot:
    """One query's compartment in the shared core."""

    __slots__ = (
        "index",
        "query_id",
        "kind",
        "accept",
        "edges",
        "start_pairs",
        "cond_edges",
        "cond_states",
        "cond_init",
        "cond_accept",
        "head_accept",
        "tail_inner",
        "fed_events",
        "parked_events",
        "active",
        "offset",
        "queue",
        "out",
        "dirty",
    )

    def __init__(self, index: int, query_id: str, kind: int, nfa: Nfa) -> None:
        self.index = index
        self.query_id = query_id
        self.kind = kind
        self.accept = nfa.accept
        closures = _closures(nfa)
        # Pre-paired transition tables: state -> ((label, wildcard?,
        # ((slot, state), ...) target closure), ...) — the subset move
        # then runs on tuples alone, no attribute or method calls.
        self.edges: dict[int, tuple[tuple[str, bool, tuple[tuple[int, int], ...]], ...]] = {
            state: tuple(
                (
                    test.name,
                    test.is_wildcard,
                    tuple((index, t) for t in closures[target]),
                )
                for test, target in edges
            )
            for state, edges in nfa.transitions.items()
        }
        self.start_pairs = tuple((index, s) for s in closures[nfa.start])
        self.cond_edges: dict[int, tuple[tuple[str, bool, tuple[int, ...]], ...]] | None = None
        self.cond_states: dict[frozenset[int], _CondState] | None = None
        self.cond_init: _CondState | None = None
        self.cond_accept = -1
        #: the seam of a headed slot (see :class:`~repro.rpeq.nfa.HeadedNfa`)
        self.head_accept = -1
        self.tail_inner: frozenset[int] = frozenset()
        #: events a headed slot's residual network was fed / never saw,
        #: over the whole pass (kept across re-admission)
        self.fed_events = 0
        self.parked_events = 0
        self.active = True
        self.offset = 0
        self.queue: deque[_Candidate] = deque()
        #: undelivered matches
        self.out: deque[Match] = deque()
        self.dirty = False

    def attach_condition(self, cond: Nfa) -> None:
        closures = _closures(cond)
        self.cond_accept = cond.accept
        self.cond_edges = {
            state: tuple(
                (test.name, test.is_wildcard, tuple(closures[target]))
                for test, target in edges
            )
            for state, edges in cond.transitions.items()
        }
        self.cond_states = {}
        init_key = closures[cond.start]
        self.cond_init = _CondState(init_key, cond.accept in init_key, True)
        self.cond_states[init_key] = self.cond_init

    def reset(self, offset: int) -> None:
        self.offset = offset
        self.active = True
        self.drop_queue()
        self.out.clear()

    def drop_queue(self) -> None:
        """Drop every queued candidate: the core's frames may still hold
        them, as openers and obligations, but a dropped one is inert."""
        for cand in self.queue:
            cand.state = _DROPPED
        self.queue.clear()


class FastLaneCore:
    """The shared lazily-determinized product automaton of one pass.

    The pump's loop steps it once per stream event, right after
    ``cursor`` has counted it (:meth:`_step`, :meth:`_descend`,
    :meth:`_open` and :meth:`_close` at tags); depth, labels and element
    ordinals are read from the cursor, never kept here.  All registered
    slots share one DFA stack along the open-element path, and two
    frames per open element beside it: the candidates opened at the
    element (closed at its end tag) and the live hybrid obligations
    there (derived from the parent's at its start tag).  Per-event cost
    is one transition lookup plus per-slot work only where candidates
    open or close and where a condition is still live.
    """

    def __init__(
        self, cursor: "StreamCursor", max_states: int = DEFAULT_MAX_STATES
    ) -> None:
        #: the pass's stream position, which the core reads and never moves
        self.cursor = cursor
        self.max_states = max_states
        #: live and not-yet-dropped slots by index; an index is never
        #: reused, so a pair ``(index, nfa_state)`` names one slot forever
        self._slots: dict[int, _Slot] = {}
        self._next_index = 0
        self._by_query: dict[str, _Slot] = {}
        #: slots withdrawn for good, dropped at the next ``<$>``
        self._retired: list[_Slot] = []
        self._interned: dict[frozenset[tuple[int, int]], _DfaState] = {}
        self._init: _DfaState | None = None
        #: per open element, the DFA state reached on its root path
        #: (index 0 is ``$``, index ``d`` the element at cursor depth ``d``)
        self._stack: list[_DfaState] = []
        #: per open element, parallel to ``_stack``:
        #: the candidates opened at it, closed at its end tag ...
        self._opened: list[list[tuple[_Slot, _Candidate]] | tuple[()]] = []
        #: ... and the obligations of the pending hybrid candidates at or
        #: above it: the condition state reached on the labels from the
        #: candidate down to it, never a dead one
        self._obligs: list[list[tuple[_Slot, _Candidate, _CondState]] | tuple[()]] = []
        #: slots that emitted since the last :meth:`drain_matches` —
        #: the driver's one truth test per event
        self._dirty: list[_Slot] = []
        #: uncached subset-construction steps past the memo bound
        self.saturated_steps = 0

    # ------------------------------------------------------------------
    # registration

    @property
    def states_interned(self) -> int:
        return len(self._interned)

    def register(
        self,
        query_id: str,
        kind: int,
        nfa: Nfa | HeadedNfa,
        cond: Nfa | None = None,
    ) -> _Slot:
        """Add (or re-admit) one query's automaton to the product.

        A headed (``KIND_GATE``) slot registers the
        :class:`~repro.rpeq.nfa.HeadedNfa` of ``prefix.gate_expr(residual)``
        so the seam between the two is known to :meth:`_make`.

        Re-registration under the same ``query_id``/kind reuses the
        existing slot — its automaton part is identical, so every
        interned product state stays valid — and resets its runtime
        state with the position offset a freshly compiled network would
        start from.  A new slot drops the memo, as a retired one does
        (:meth:`start_document`): the states interned without it would
        stay correct — the slot is simply dead in them — but nothing
        reaches them from the new initial state, and a service that only
        ever gains subscribers would fill the memo with them.
        """
        existing = self._by_query.get(query_id)
        if existing is not None and existing.kind == kind:
            existing.reset(self.cursor.elements_seen)
            return existing
        headed = nfa if isinstance(nfa, HeadedNfa) else None
        if headed is not None:
            nfa = headed.nfa
        if nfa.size > self.max_states:
            raise FastLaneUnsupported(
                f"query automaton has {nfa.size} states, over the "
                f"determinization budget of {self.max_states}"
            )
        if cond is not None and cond.size > self.max_states:
            raise FastLaneUnsupported(
                f"condition automaton has {cond.size} states, over the "
                f"determinization budget of {self.max_states}"
            )
        slot = _Slot(self._next_index, query_id, kind, nfa)
        self._next_index += 1
        if cond is not None:
            slot.attach_condition(cond)
        if headed is not None:
            slot.head_accept = headed.head_accept
            slot.tail_inner = headed.tail_inner
        slot.offset = self.cursor.elements_seen
        self._slots[slot.index] = slot
        self._by_query[query_id] = slot
        # The initial state must include the new slot's start closure.
        self._interned.clear()
        self._init = None
        return slot

    def retire(self, query_id: str) -> None:
        """Withdraw a query for good (a departed subscriber).

        Unlike a detach, which keeps the slot for re-admission, the slot
        leaves the product: at the next ``<$>``, where no frame and no
        DFA stack entry can still refer to it.  Until then it runs
        dead, like a detached one.
        """
        slot = self._by_query.pop(query_id, None)
        if slot is not None:
            slot.active = False
            self._retired.append(slot)

    # ------------------------------------------------------------------
    # subset construction

    def _initial(self) -> _DfaState:
        init = self._init
        if init is None:
            pairs: set[tuple[int, int]] = set()
            for slot in self._slots.values():
                pairs.update(slot.start_pairs)
            key = frozenset(pairs)
            init = self._interned.get(key)
            if init is None:
                init = self._make(key)
            self._init = init
        return init

    def _step(self, state: _DfaState, label: str) -> _DfaState:
        pairs: set[tuple[int, int]] = set()
        slots = self._slots
        for si, ns in state.key:
            edges = slots[si].edges.get(ns)
            if edges:
                for name, wild, closure in edges:
                    if wild or name == label:
                        pairs.update(closure)
        key = frozenset(pairs)
        nxt = self._interned.get(key)
        if nxt is None:
            nxt = self._make(key)
        if nxt.interned and state.interned:
            state.trans[label] = nxt
        return nxt

    def _make(self, key: frozenset[tuple[int, int]]) -> _DfaState:
        slots = self._slots
        accepts: list[int] = []
        fire: list[int] = []
        needed: list[int] = []
        for si, ns in key:
            slot = slots[si]
            if slot.kind != KIND_GATE:
                if ns == slot.accept:
                    accepts.append(si)
                continue
            if ns == slot.head_accept:
                fire.append(si)
            if ns in slot.tail_inner:
                needed.append(si)
        interned = len(self._interned) < self.max_states
        state = _DfaState(
            key,
            tuple(sorted(accepts)),
            frozenset(fire),
            frozenset(needed),
            interned,
        )
        if interned:
            self._interned[key] = state
        else:
            self.saturated_steps += 1
        return state

    def _cond_step(self, slot: _Slot, state: _CondState, label: str) -> _CondState:
        targets: set[int] = set()
        edges_map = slot.cond_edges
        assert edges_map is not None and slot.cond_states is not None
        for ns in state.key:
            edges = edges_map.get(ns)
            if edges:
                for name, wild, closure in edges:
                    if wild or name == label:
                        targets.update(closure)
        key = frozenset(targets)
        nxt = slot.cond_states.get(key)
        if nxt is None:
            interned = len(slot.cond_states) < self.max_states
            nxt = _CondState(key, slot.cond_accept in key, interned)
            if interned:
                slot.cond_states[key] = nxt
            else:
                self.saturated_steps += 1
        if nxt.interned and state.interned:
            state.trans[label] = nxt
        return nxt

    # ------------------------------------------------------------------
    # the per-event transition, stepped by the pump's loop

    def _descend(
        self,
        parent: list[tuple[_Slot, _Candidate, _CondState]] | tuple[()],
        label: str,
    ) -> list[tuple[_Slot, _Candidate, _CondState]] | tuple[()]:
        """A child element's obligations, stepped from its parent's.

        A witness determines its candidate true here — at its start tag,
        exactly when the network's CH chain would fire its Contribute —
        and a dead state is forgotten, so a subtree where no condition is
        live costs nothing.  An obligation of a candidate determined (or
        dropped) meanwhile in an earlier sibling's subtree is skipped.
        """
        child: list[tuple[_Slot, _Candidate, _CondState]] = []
        for slot, cand, state in parent:
            if cand.state != _PENDING:
                continue
            nxt = state.trans.get(label)
            if nxt is None:
                nxt = self._cond_step(slot, state, label)
            if nxt.accept:
                cand.state = _READY
            elif not nxt.dead:
                child.append((slot, cand, nxt))
        return child or ()

    def _open(
        self,
        accepts: tuple[int, ...],
        label: str,
        depth: int,
        obligs: list[tuple[_Slot, _Candidate, _CondState]] | tuple[()],
    ) -> None:
        """Open a candidate per active accepting slot at the element just
        pushed (``$`` at depth 0) and push the element's two frames."""
        opened: list[tuple[_Slot, _Candidate]] = []
        born: list[tuple[_Slot, _Candidate, _CondState]] = []
        ordinal = self.cursor.elements_seen
        for si in accepts:
            slot = self._slots[si]
            if not slot.active:
                continue
            pos = ordinal - slot.offset if depth else 0
            init = slot.cond_init
            if init is None or init.accept:
                # dfa lane, or an ε-accepting condition ([b?], [a*]):
                # determined at birth.
                cand = _Candidate(pos, label, depth, _READY)
            else:
                cand = _Candidate(pos, label, depth, _PENDING)
                born.append((slot, cand, init))
            slot.queue.append(cand)
            opened.append((slot, cand))
        self._opened.append(opened or ())
        self._obligs.append([*obligs, *born] if born else obligs)

    def _close(self, opened: list[tuple[_Slot, _Candidate]] | tuple[()]) -> None:
        """An end tag closes exactly the candidates opened at its element."""
        for slot, cand in opened:
            if cand.state == _DROPPED:
                continue  # withdrawn with its slot
            cand.done = True
            if cand.state == _PENDING:
                # Scope closed without a witness: determined false — the
                # VD transducer's Close at the same end tag.
                cand.state = _DROPPED
            self._flush(slot)

    def _flush(self, slot: _Slot) -> None:
        """The OU emission rule: pop dropped fronts, emit ready+complete
        fronts, block on the first open or undetermined candidate."""
        queue = slot.queue
        out = slot.out
        emitted = False
        while queue:
            head = queue[0]
            state = head.state
            if state == _DROPPED:
                queue.popleft()
                continue
            if state == _READY and head.done:
                queue.popleft()
                out.append(Match(head.pos, head.label, None))
                emitted = True
                continue
            break
        if emitted and not slot.dirty:
            slot.dirty = True
            self._dirty.append(slot)

    def start_document(self) -> None:
        """``<$>``: the initial state, fresh frames, the root candidates."""
        if self._retired:
            # Every interned state may carry pairs of a retired slot, and
            # the initial state carries all of them: drop the memo whole.
            # The DFA is lazy; it regrows on demand without them.
            for slot in self._retired:
                del self._slots[slot.index]
            self._retired.clear()
            self._interned.clear()
            self._init = None
        for slot in self._slots.values():
            if slot.queue:
                slot.queue.clear()
        init = self._initial()
        self._stack.clear()
        self._stack.append(init)
        self._opened.clear()
        self._obligs.clear()
        # A query that accepts ε has the virtual root $ as a candidate at
        # position 0, completing at </$> — OU's document-root rule.
        self._open(init.accepts, DOCUMENT_LABEL, 0, ())

    def end_document(self) -> None:
        """``</$>``: close the candidates opened at ``$``."""
        frames = self._opened
        if frames and frames[0]:
            root, frames[0] = frames[0], ()
            self._close(root)

    def drain_matches(self) -> list[tuple[str, Match]]:
        """Bulk-drain every slot that emitted (the driver's one drain)."""
        dirty = self._dirty
        out: list[tuple[str, Match]] = []
        for slot in dirty:
            slot.dirty = False
            pending = slot.out
            if pending:
                query_id = slot.query_id
                while pending:
                    out.append((query_id, pending.popleft()))
        dirty.clear()
        return out

    def gate_counts(self) -> dict[str, tuple[int, int]]:
        """Per headed query: ``(events fed, events never fed)`` so far."""
        return {
            slot.query_id: (slot.fed_events, slot.parked_events)
            for slot in self._slots.values()
            if slot.kind == KIND_GATE
        }

    # ------------------------------------------------------------------
    # checkpointing

    def restore_path(self) -> None:
        """Rebuild the DFA stack by replaying the cursor's open path.

        Called once on resume: after the cursor is restored and every
        runner's slot registered, before any runner restores.  Replay is
        side-effect free: the frames start empty, and each adapter puts
        its open candidates and their obligations back itself.  The lists
        are refilled in place, as the pump's loop holds them.
        """
        state = self._initial()
        stack = [state]
        for label in self.cursor.open_labels:
            nxt = state.trans.get(label)
            if nxt is None:
                nxt = self._step(state, label)
            stack.append(nxt)
            state = nxt
        self._stack[:] = stack
        self._opened[:] = [[] for _ in stack]
        self._obligs[:] = [[] for _ in stack]


# ----------------------------------------------------------------------
# adapters: the runner protocol over a core slot


class _AdapterBase:
    """The runner of a query that lives entirely in the shared core.

    No per-event call: the driver steps the core and drains the slot's
    ``out`` deque (:meth:`FastLaneCore.drain_matches`).  Nothing is ever
    buffered — a fast-lane query carries positions, not events.
    """

    buffered_events = 0

    def __init__(self, core: FastLaneCore, slot: _Slot, query: Rpeq) -> None:
        self._core = core
        self._slot = slot
        self.query = query

    def flush(self) -> list[Match]:
        out = self._slot.out
        matches = list(out)
        out.clear()
        return matches

    def deactivate(self) -> None:
        """Detach: stop opening candidates and drop in-flight state."""
        slot = self._slot
        slot.active = False
        slot.drop_queue()

    # -- checkpointing --------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        slot = self._slot
        return {
            "fastlane": {
                "offset": slot.offset,
                "candidates": [
                    [c.pos, c.label, c.depth, _STATE_NAMES[c.state], c.done]
                    for c in slot.queue
                ],
                "pending_out": [[m.position, m.label] for m in slot.out],
            }
        }

    def restore(self, snap: dict[str, Any]) -> None:
        """Queue the snapshot's candidates, put the open ones back into
        the frames of the elements they opened at, and rebuild a pending
        one's obligations by replaying the cursor's path below it
        through the condition DFA — obligations are a pure function of
        the labels.  :meth:`FastLaneCore.restore_path` has run."""
        payload = snap["fastlane"]
        core = self._core
        slot = self._slot
        slot.reset(int(payload["offset"]))
        opened, obligs, path = core._opened, core._obligs, core.cursor.open_labels
        for pos, label, depth, state_name, done in payload["candidates"]:
            depth = int(depth)
            state_code = _STATE_CODES[str(state_name)]
            cand = _Candidate(int(pos), str(label), depth, state_code)
            cand.done = bool(done)
            slot.queue.append(cand)
            if cand.done:
                continue
            opened[depth] = [*opened[depth], (slot, cand)]
            state = slot.cond_init
            if cand.state != _PENDING or state is None:
                continue
            obligs[depth] = [*obligs[depth], (slot, cand, state)]
            for below in path[depth:]:
                state = state.trans.get(below) or core._cond_step(slot, state, below)
                if state.dead:
                    break
                depth += 1
                obligs[depth] = [*obligs[depth], (slot, cand, state)]
        for pos, label in payload["pending_out"]:
            slot.out.append(Match(int(pos), str(label), None))
        if slot.out and not slot.dirty:
            slot.dirty = True
            core._dirty.append(slot)


class FastLaneAdapter(_AdapterBase):
    """dfa-lane runner: the query lives entirely in the shared DFA."""


class HybridAdapter(_AdapterBase):
    """Native hybrid runner: DFA spine + condition-DFA obligations kept
    per open element in the core's frames."""


class GatedNetworkAdapter:
    """A residual transducer network behind a DFA head, fed on demand.

    The slot's DFA state says, per element, whether the prefix accepts
    it (*fire*: the residual's source must activate in front of its
    start tag) and whether the residual network would act on it
    (*needed*).  Feeding rule:

    * a start tag that is not needed is **parked** — nothing is fed.
      Parked elements are always the innermost open ones, so the fed
      elements form a prefix of the open path and one depth counter
      (``_fed``) describes both;
    * a needed start tag first flushes its parked ancestors in document
      order (labels and true positions from the cursor's open path, fire
      bits from the core's DFA stack), then is fed itself;
    * an end tag is fed iff its start tag was; text iff the innermost
      open element was; document boundaries always.

    Deferring an unneeded start tag cannot change an emission event: no
    residual state is live on it, so every transducer would only have
    pushed an inert stack entry for it, and by the time anything can
    observe that entry — a needed descendant — it has been pushed.
    Elements never fed contribute nothing but their position, which the
    sink receives through
    :meth:`~repro.core.output_tx.OutputTransducer.skip_to` right before
    the next fed start tag.
    """

    def __init__(
        self, core: FastLaneCore, slot: _Slot, network: "Network", query: Rpeq
    ) -> None:
        self._core = core
        self._cursor = core.cursor
        self._slot = slot
        self._index = slot.index
        self._network = network
        self._process = network.process_event
        self._source = network.source
        self._sinks = network.sinks
        self.query = query
        #: the residual network's half of the runner protocol
        self.flush = network.flush
        self.deactivate = network.deactivate
        #: depth of the innermost *fed* open element
        self._fed = 0

    @property
    def buffered_events(self) -> int:
        return self._network.buffered_events

    @property
    def parked(self) -> int:
        """Open elements whose start tag has not been fed (≤ depth)."""
        return len(self._cursor.open_labels) - self._fed

    def process_event(self, event: Event) -> list[Match]:
        """Feed ``event`` on demand; the cursor has counted it and the
        core advanced over it."""
        cls = event.__class__
        if cls is StartElement:
            if self._index not in self._core._stack[-1].needed:
                return _NO_MATCHES
            return self._feed_start(event)
        if cls is EndElement:
            # the cursor already popped: the closing element sat one
            # level below the open path
            if self._fed <= len(self._cursor.open_labels):
                self._slot.parked_events += 2  # its start tag and this
                return _NO_MATCHES
            self._fed -= 1
        elif cls is Text:
            if self._fed < len(self._cursor.open_labels):
                self._slot.parked_events += 1
                return _NO_MATCHES
        elif cls is StartDocument:
            self._fed = 0
            if self._index in self._core._stack[0].fire:
                # The prefix accepts ε: the root $ is a context node.
                self._source.arm()
        self._slot.fed_events += 1
        return self._process(event)

    def _feed_start(self, event: Event) -> list[Match]:
        """Feed a needed start tag, parked ancestors first."""
        index = self._index
        stack = self._core._stack
        labels = self._cursor.open_labels
        starts = self._cursor.open_starts
        depth = len(starts)
        out = _NO_MATCHES
        for level in range(self._fed + 1, depth):
            matches = self._feed_at(
                start_tag(labels[level - 1]),
                starts[level - 1],
                index in stack[level].fire,
            )
            if matches:  # pragma: no cover - unneeded tags decide nothing
                out = out + matches
        self._fed = depth
        matches = self._feed_at(event, starts[-1], index in stack[-1].fire)
        return out + matches if out else matches

    def _feed_at(self, event: Event, ordinal: int, fire: bool) -> list[Match]:
        """Feed one start tag under its stream-global position."""
        slot = self._slot
        for sink in self._sinks:
            sink.skip_to(ordinal - slot.offset)
        if fire:
            self._source.arm()
        slot.fed_events += 1
        return self._process(event)

    def snapshot(self) -> dict[str, object]:
        slot = self._slot
        return {
            "fastlane": {
                "offset": slot.offset,
                "parked": self.parked,
                "fed_events": slot.fed_events,
                "parked_events": slot.parked_events,
            },
            "network": self._network.snapshot(),
        }

    def restore(self, snap: dict[str, Any]) -> None:
        payload = snap["fastlane"]
        slot = self._slot
        slot.offset = int(payload["offset"])
        # Which open elements are parked is all the snapshot says; their
        # labels and ordinals come from the cursor, their fire bits from
        # the replayed DFA stack.
        self._fed = len(self._cursor.open_labels) - int(payload["parked"])
        slot.fed_events = int(payload["fed_events"])
        slot.parked_events = int(payload["parked_events"])
        self._network.restore(snap["network"])


# ----------------------------------------------------------------------
# routing


def build_lane_runner(
    core: FastLaneCore,
    query_id: str,
    expr: Rpeq,
    plan: "QueryPlan | None",
    flags: "OptimizationFlags",
    network_factory: Callable[[Rpeq], "Network"],
    limits: ResourceLimits | None = None,
) -> tuple["Runner | None", str, str | None]:
    """Compile one query onto its planned execution lane.

    ``network_factory(residual)`` compiles the residual network of a
    gated query: ``residual`` behind a
    :class:`~repro.core.path_transducers.DemandInputTransducer`.
    ``limits`` are the query's own: of them only
    ``max_pending_candidates`` can refuse a fast lane.

    Returns ``(runner, lane, demotion_reason)``: ``runner`` is ``None``
    when the query must run on the plain network (lane ``"network"``),
    and ``demotion_reason`` is set when the *plan* wanted a fast lane
    but compilation demoted it (surfaced as a ``PLAN005`` diagnostic).
    """
    if plan is None:
        return None, "network", None
    lane = plan.lane
    try:
        if lane == "dfa" and flags.dfa_lane:
            _refuse_pending_ceiling(limits, gated=False)
            nfa = compile_nfa(expr, allow_qualifiers=False)
            slot = core.register(query_id, KIND_DFA, nfa)
            return FastLaneAdapter(core, slot, expr), "dfa", None
        if lane == "hybrid" and flags.hybrid_gate:
            native = native_hybrid_split(expr)
            _refuse_pending_ceiling(limits, gated=native is None)
            if native is not None:
                spine, condition = native
                nfa = compile_nfa(spine, allow_qualifiers=False)
                cond = compile_nfa(condition, allow_qualifiers=False)
                slot = core.register(query_id, KIND_HYBRID, nfa, cond)
                return HybridAdapter(core, slot, expr), "hybrid", None
            prefix, residual = split_at_prefix(expr)
            headed = compile_headed_nfa(prefix, gate_expr(residual))
            slot = core.register(query_id, KIND_GATE, headed)
            network = network_factory(residual)
            return GatedNetworkAdapter(core, slot, network, expr), "gated", None
    except (FastLaneUnsupported, UnsupportedFeatureError) as exc:
        return None, "network", str(exc)
    return None, "network", None


def _refuse_pending_ceiling(limits: ResourceLimits | None, gated: bool) -> None:
    """The one limit a fast lane cannot keep as the network does (a
    gated query's residual network raises at the network's events)."""
    if limits is None or limits.max_pending_candidates is None:
        return
    ceiling = limits.max_pending_candidates
    if not gated:
        raise FastLaneUnsupported(
            f"max_pending_candidates={ceiling} is enforced by an output "
            f"transducer, which the dfa and hybrid lanes do not have"
        )
    if limits.on_buffer_overflow == DROP_OLDEST:
        raise FastLaneUnsupported(
            f"max_pending_candidates={ceiling} under drop_oldest: behind the "
            f"gate an eviction's matches wait for the next end tag the "
            f"residual network is fed, not the next one in the stream"
        )
