"""E9 — many queries over one stream (the SDI scenario, Sec. I / VIII).

The XFilter/YFilter line of related work evaluates large subscription
sets per document; the paper's conclusion names multi-query processing
as SPEX's natural extension.  We measure the shared-pass multi-query
engine as the subscription count grows, plus the first-match
short-circuit of the boolean filtering mode.
"""

import random

import pytest

from repro.core.multiquery import MultiQueryEngine
from repro.workloads import mondial

QUERY_COUNTS = [4, 16, 64]


@pytest.fixture(scope="module")
def events():
    return list(mondial(seed=7, countries=40))


@pytest.fixture(scope="module")
def reference_totals(events):
    """Memoized per-subscription-count reference answers.

    The independent-network engine is the agreement oracle for the
    shared-network benchmark; computing it once per count keeps the
    oracle out of repeated per-variant setup cost.
    """
    cache: dict[int, int] = {}

    def total(count: int) -> int:
        if count not in cache:
            results = MultiQueryEngine(_subscriptions(count)).evaluate(iter(events))
            cache[count] = sum(len(v) for v in results.values())
        return cache[count]

    return total


def _subscriptions(count: int) -> dict[str, str]:
    """A deterministic family of distinct subscription queries."""
    rng = random.Random(99)
    labels = ["country", "province", "city", "name", "population", "religions"]
    queries = {}
    for index in range(count):
        a, b = rng.choice(labels), rng.choice(labels)
        queries[f"s{index}"] = f"_*.{a}.{b}" if index % 2 else f"_*.{a}[{b}]"
    return queries


@pytest.mark.parametrize("count", QUERY_COUNTS)
def test_full_evaluation(benchmark, events, count):
    engine = MultiQueryEngine(_subscriptions(count))

    def evaluate():
        return sum(len(v) for v in engine.evaluate(iter(events)).values())

    matches = benchmark.pedantic(evaluate, rounds=2, iterations=1)
    benchmark.extra_info["queries"] = count
    benchmark.extra_info["total_matches"] = matches


@pytest.mark.parametrize("count", QUERY_COUNTS)
def test_shared_network(benchmark, events, reference_totals, count):
    """The paper's multi-query future work: one network, shared prefixes.

    The subscription family shares the ``_*.<label>`` prefixes heavily,
    so the shared network is much smaller than N independent ones.
    """
    from repro.baselines.shared_network import SharedNetworkEngine

    engine = SharedNetworkEngine(_subscriptions(count))

    def evaluate():
        return sum(len(v) for v in engine.evaluate(iter(events)).values())

    matches = benchmark.pedantic(evaluate, rounds=2, iterations=1)
    benchmark.extra_info["queries"] = count
    benchmark.extra_info["total_matches"] = matches
    benchmark.extra_info["shared_degree"] = engine.network_degree()
    # Answers agree with the independent-network engine.
    assert matches == reference_totals(count)


@pytest.mark.parametrize("count", QUERY_COUNTS)
def test_boolean_filtering(benchmark, events, count):
    engine = MultiQueryEngine(_subscriptions(count))

    def filter_run():
        return sum(engine.filter_documents(iter(events)).values())

    matched = benchmark.pedantic(filter_run, rounds=2, iterations=1)
    benchmark.extra_info["queries"] = count
    benchmark.extra_info["matched_subscriptions"] = matched


def test_cost_scales_linearly_in_queries(benchmark):
    """Shared pass: N queries cost ~N single-query network passes."""
    import time

    events = list(mondial(seed=7, countries=30))

    def factor():
        times = []
        for count in (4, 16):
            engine = MultiQueryEngine(_subscriptions(count))
            engine.evaluate(iter(events))  # warm-up
            start = time.perf_counter()
            engine.evaluate(iter(events))
            times.append(time.perf_counter() - start)
        return times[1] / times[0]

    growth = benchmark.pedantic(factor, rounds=1, iterations=1)
    benchmark.extra_info["growth_for_4x_queries"] = round(growth, 2)
    assert growth < 8  # linear-ish in query count, not quadratic
