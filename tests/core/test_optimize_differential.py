"""Differential tests for the hot-path optimization knobs.

Every knob in :class:`repro.core.optimize.OptimizationFlags` must be
invisible in the answers: for any query/document pair, every knob
combination from :func:`all_knob_combinations` has to produce exactly
the positions and fragments of the literal Fig. 11 evaluation
(``optimize=False``).  The seeded corpus below covers the query classes
of Sec. VI (closure prefixes, unions, nested qualifiers) plus the axes;
hypothesis adds adversarial shrunken cases on top.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro import SpexEngine
from repro.core.optimize import (
    ALL_OPTIMIZATIONS,
    NO_OPTIMIZATIONS,
    OptimizationFlags,
    all_knob_combinations,
    as_flags,
)

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
        assert sorted(flags.to_obj()) == ["dfa_lane", "hybrid_gate", "production_network"]
    assert as_flags(True) is ALL_OPTIMIZATIONS
    assert as_flags(False) is NO_OPTIMIZATIONS


def test_as_flags_rejects_unknown_knob():
    with pytest.raises(ValueError, match="unknown optimization flag"):
        as_flags({"vectorize": True})
    with pytest.raises(ValueError, match="vectorize"):
        as_flags({**ALL_OPTIMIZATIONS.to_obj(), "vectorize": True})


#: the five network knobs checkpoint format 2 spelled; one knob,
#: ``production_network``, since — and not decoded any more
FOLDED = ("star_fusion", "routing", "formula_memo", "message_pool", "fused_network")


def _seven_keys(network, **override):
    """The ``optimize`` entry a format-2 checkpoint carried."""
    return dict.fromkeys(FOLDED, network) | {"dfa_lane": True, "hybrid_gate": True} | override


@pytest.mark.parametrize("network", [True, False])
def test_seven_key_encoding_is_refused_by_naming_the_keys(network):
    with pytest.raises(ValueError, match="unknown optimization flag") as refusal:
        as_flags(_seven_keys(network))
    assert all(name in str(refusal.value) for name in FOLDED)


@pytest.mark.parametrize("lone", FOLDED)
@pytest.mark.parametrize("rest", [True, False])
def test_seven_key_encoding_mixing_the_network_knobs_is_refused(lone, rest):
    """No special case for the split topologies either: the same error."""
    with pytest.raises(ValueError, match="unknown optimization flag") as refusal:
        as_flags(_seven_keys(rest, **{lone: not rest}))
    assert all(name in str(refusal.value) for name in FOLDED)


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
