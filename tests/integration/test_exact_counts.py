"""Exact work counts of the network lane, pinned.

The benchmark ladder judges a network change on noise-free counts read
from ``SpexEngine(q, collect_events=False).stats``: messages, stack
height, formula size (σ) and condition variables.  A change that makes
the network cheaper — lazy condition-variable state, skipped sink work
— must leave every one of them, and the answers, exactly where they
were.  The queries are the ``filter-network`` benchmark workload's eight.
"""

import pytest

from repro import SpexEngine
from repro.workloads import xmark

#: the eight ``filter-network`` subscriptions
QUERIES = {
    "midpath": "_*.item[mailbox].name",
    "nested": "_*.item[mailbox[mail[from]]].name",
    "anybidder": "_*[bidder].current",
    "anymailbox": "_*[mailbox].location",
    "never": "_*.item[price].name",
    "following": "site.regions.following::person.name",
    "auction": "_*.open_auction[bidder].itemref",
    "watcher": "_*.person[watches].name",
}

#: over ``xmark(7, scale=25)``: matches, network.messages, max_stack,
#: max_formula_size, condition_variables, peak_live_variables
COUNTS = {
    "midpath": (11, 6946, 8, 1, 24, 1),
    "nested": (11, 16987, 8, 3, 54, 3),
    "anybidder": (11, 8540, 8, 1, 518, 8),
    "anymailbox": (11, 8387, 8, 1, 518, 7),
    "never": (0, 6891, 8, 1, 24, 1),
    "following": (12, 3658, 8, 1, 0, 0),
    "auction": (11, 7039, 8, 1, 12, 1),
    "watcher": (8, 6859, 8, 1, 12, 1),
}

#: candidates created and dropped, per query
CANDIDATES = {
    "midpath": (24, 13),
    "nested": (24, 13),
    "anybidder": (12, 1),
    "anymailbox": (24, 13),
    "never": (24, 24),
    "following": (12, 0),
    "auction": (12, 1),
    "watcher": (12, 4),
}


@pytest.fixture(scope="module")
def events():
    return list(xmark(7, scale=25))


@pytest.mark.parametrize("query_id", list(QUERIES))
def test_network_counts_are_pinned(events, query_id):
    engine = SpexEngine(QUERIES[query_id], collect_events=False)
    matches = sum(1 for _ in engine.run(events))
    stats = engine.stats
    assert (
        matches,
        stats.network.messages,
        stats.network.max_stack,
        stats.network.max_formula_size,
        stats.condition_variables,
        stats.peak_live_variables,
    ) == COUNTS[query_id]
    output = stats.output
    assert (output.candidates_created, output.candidates_dropped) == CANDIDATES[
        query_id
    ]
    # every instance is decided and released by the end of the document
    assert engine._last_store.live_variables == 0
    assert len(engine._last_store._states) == 0
