"""Differential tests for the hot-path optimization knobs.

Every knob in :class:`repro.core.optimize.OptimizationFlags` must be
invisible in the answers: for any query/document pair, every knob
combination from :func:`all_knob_combinations` has to produce exactly
the positions and fragments of the literal Fig. 11 evaluation
(``optimize=False``).  The seeded corpus below covers the query classes
of Sec. VI (closure prefixes, unions, nested qualifiers) plus the axes;
hypothesis adds adversarial shrunken cases on top.

The :class:`~repro.conditions.formula.FormulaMemo` unit tests live here
too — the memo is the one knob with internal state of its own (bounded
identity-keyed table), so its mechanics get direct coverage.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro import SpexEngine
from repro.conditions.formula import And, FormulaMemo, Var, conj, disj
from repro.core.optimize import (
    ALL_OPTIMIZATIONS,
    NO_OPTIMIZATIONS,
    OptimizationFlags,
    all_knob_combinations,
    as_flags,
)
from repro.errors import CheckpointError

from ..conftest import event_streams, make_random_events, rpeq_queries

# ----------------------------------------------------------------------
# knob plumbing


def test_all_knob_combinations_cover_endpoints_and_single_knobs():
    combos = all_knob_combinations()
    assert ALL_OPTIMIZATIONS in combos
    assert NO_OPTIMIZATIONS in combos
    # the whole 2^3 cube — which contains the one-off and one-on
    # variant of every knob — without duplicates
    assert len(combos) == len(set(combos)) == 8
    assert [f.name for f in dataclasses.fields(OptimizationFlags)] == [
        "production_network",
        "dfa_lane",
        "hybrid_gate",
    ]


def test_as_flags_round_trips_checkpoint_encoding():
    for flags in all_knob_combinations():
        assert as_flags(flags.to_obj()) == flags
    assert as_flags(True) is ALL_OPTIMIZATIONS
    assert as_flags(False) is NO_OPTIMIZATIONS


def test_as_flags_rejects_unknown_knob():
    with pytest.raises(ValueError, match="unknown optimization flag"):
        as_flags({"vectorize": True})
    with pytest.raises(ValueError, match="vectorize"):
        as_flags({**_seven_keys(), "vectorize": True})


#: the five network knobs of checkpoint format 2, now ``production_network``
FOLDED = ("star_fusion", "routing", "formula_memo", "message_pool", "fused_network")


def _seven_keys(network=True, dfa_lane=True, hybrid_gate=True, **override):
    """The dict a pre-fold checkpoint carries in its ``optimize`` entry."""
    encoding = dict.fromkeys(FOLDED, network)
    encoding.update(dfa_lane=dfa_lane, hybrid_gate=hybrid_gate, **override)
    return encoding


@pytest.mark.parametrize("lanes", [(True, False), (False, True), (False, False)])
def test_seven_key_encoding_with_the_network_knobs_all_on(lanes):
    dfa_lane, hybrid_gate = lanes
    assert as_flags(_seven_keys(True, dfa_lane, hybrid_gate)) == OptimizationFlags(
        production_network=True, dfa_lane=dfa_lane, hybrid_gate=hybrid_gate
    )


@pytest.mark.parametrize("lanes", [(True, True), (True, False), (False, True)])
def test_seven_key_encoding_with_the_network_knobs_all_off(lanes):
    dfa_lane, hybrid_gate = lanes
    assert as_flags(_seven_keys(False, dfa_lane, hybrid_gate)) == OptimizationFlags(
        production_network=False, dfa_lane=dfa_lane, hybrid_gate=hybrid_gate
    )


@pytest.mark.parametrize("lone", FOLDED)
@pytest.mark.parametrize("rest", [True, False])
def test_seven_key_encoding_mixing_the_network_knobs_is_refused(lone, rest):
    """One network knob against the other four: a topology that can no
    longer be compiled, refused by naming the keys on each side."""
    with pytest.raises(CheckpointError) as refusal:
        as_flags(_seven_keys(rest, **{lone: not rest}))
    assert lone in str(refusal.value)
    assert all(name in str(refusal.value) for name in FOLDED)


# ----------------------------------------------------------------------
# FormulaMemo mechanics


def test_memo_hit_replays_without_renormalizing():
    memo = FormulaMemo()
    a, b = Var(1, "q"), Var(2, "q")
    first = memo.disj(a, b)
    assert (memo.hits, memo.misses) == (0, 1)
    assert memo.disj(a, b) is first
    assert (memo.hits, memo.misses) == (1, 1)
    # conj of the same operands is a distinct key
    assert isinstance(memo.conj(a, b), And)
    assert (memo.hits, memo.misses) == (1, 2)


def test_memo_matches_unmemoized_normalization():
    memo = FormulaMemo()
    a, b = Var(1, "q"), Var(2, "q")
    assert memo.conj(a, b) == conj(a, b)
    assert memo.disj(a, b) == disj(a, b)


def test_memo_keys_by_identity_not_equality():
    """Two equal-but-distinct operand objects occupy separate entries.

    Identity keying trades a few duplicate entries for skipping
    structural hashing; both entries must still yield correct (equal)
    results.
    """
    memo = FormulaMemo()
    base = Var(1, "q")
    twin_a = conj(base, Var(2, "q"))
    twin_b = conj(base, Var(2, "q"))
    assert twin_a == twin_b and twin_a is not twin_b
    out_a = memo.disj(twin_a, base)
    out_b = memo.disj(twin_b, base)
    assert memo.misses == 2 and memo.hits == 0
    assert out_a == out_b
    assert len(memo) == 2


def test_memo_fifo_eviction_at_capacity():
    memo = FormulaMemo(capacity=4)
    operands = [Var(n, "q") for n in range(6)]
    keep_alive = [memo.disj(operands[n], operands[n + 1]) for n in range(5)]
    assert keep_alive
    assert len(memo) == 4
    assert memo.evictions == 1
    # the oldest pair was evicted: re-merging it misses again
    memo.disj(operands[0], operands[1])
    assert memo.misses == 6
    # the newest pair is still cached
    memo.disj(operands[4], operands[5])
    assert memo.hits == 1


def test_memo_rejects_nonpositive_capacity():
    with pytest.raises(ValueError, match="capacity"):
        FormulaMemo(capacity=0)


# ----------------------------------------------------------------------
# answers are knob-invariant


def _answers(query, events, optimize):
    engine = SpexEngine(query, optimize=optimize)
    return [
        (match.position, match.label, match.events)
        for match in engine.run(iter(events))
    ]


#: fixed queries spanning the paper's Sec. VI query classes and the axes
CORPUS_QUERIES = [
    "a",
    "_*.c",
    "a._.c|a.b",
    "_*.a[c]",
    "a[b.c].(b|c)",
    "_*[b]._*.c",
    "a.following::b",
    "_*.c[preceding::a]",
]


@pytest.mark.parametrize("query", CORPUS_QUERIES)
def test_knob_combinations_agree_on_seeded_corpus(query):
    rng = random.Random(0xC0FFEE)
    streams = [make_random_events(rng) for _ in range(5)]
    for events in streams:
        reference = _answers(query, events, NO_OPTIMIZATIONS)
        for flags in all_knob_combinations():
            assert _answers(query, events, flags) == reference, (
                f"knobs {flags.describe()} diverged on {query!r}"
            )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rpeq_queries(), event_streams())
def test_random_queries_agree_across_knobs(query, events):
    reference = _answers(query, events, NO_OPTIMIZATIONS)
    for flags in all_knob_combinations():
        if flags == NO_OPTIMIZATIONS:
            continue
        assert _answers(query, events, flags) == reference
