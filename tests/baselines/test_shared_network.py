"""The prefix-shared multi-query network (Sec. IX, experiment E9)."""

from repro.baselines.shared_network import SharedNetworkEngine
from repro.core.compiler import compile_network
from repro.core.multiquery import MultiQueryEngine
from repro.core.qualifier_transducers import VariableCreator
from repro.rpeq import GeneratorConfig, random_rpeq
from repro.xmlstream.parser import parse_string

from ..conftest import PAPER_DOC, make_random_events


class TestSharedNetworkEngine:
    def test_results_match_independent_engines(self):
        queries = {"q1": "_*.a.c", "q2": "_*.a.b", "q3": "_*.a[b].c", "q4": "a.c"}
        shared = SharedNetworkEngine(queries).evaluate(PAPER_DOC)
        plain = MultiQueryEngine(queries).evaluate(PAPER_DOC)
        assert {k: [m.position for m in v] for k, v in shared.items()} == {
            k: [m.position for m in v] for k, v in plain.items()
        }

    def test_prefix_sharing_reduces_degree(self):
        queries = {
            "names": "_*.country.name",
            "pops": "_*.country.population",
            "cities": "_*.country.province.city",
        }
        engine = SharedNetworkEngine(queries)
        independent = sum(
            compile_network(expr, collect_events=False)[0].degree
            for expr in engine.queries.values()
        )
        assert engine.network_degree() < independent

    def test_shared_qualifier_prefix(self):
        """Two sinks downstream of ONE variable-creator: exercises the
        store's broadcast/retain/deferred-release protocol."""
        queries = {"q1": "_*.a[b].c", "q2": "_*.a[b].b"}
        shared = SharedNetworkEngine(queries).evaluate(PAPER_DOC)
        plain = MultiQueryEngine(queries).evaluate(PAPER_DOC)
        assert {k: [m.position for m in v] for k, v in shared.items()} == {
            k: [m.position for m in v] for k, v in plain.items()
        }
        # The qualified prefix is compiled once: only one VC in the net.
        network, _sinks = SharedNetworkEngine(queries).compile()
        creators = [n for n in network.nodes if isinstance(n, VariableCreator)]
        assert len(creators) == 1

    def test_randomized_equivalence(self, rng):
        config = GeneratorConfig(max_depth=3)
        for _ in range(15):
            queries = {
                f"q{i}": random_rpeq(rng, config) for i in range(4)
            }
            events = make_random_events(rng)
            shared = SharedNetworkEngine(queries).evaluate(iter(events))
            plain = MultiQueryEngine(queries).evaluate(iter(events))
            assert {k: [m.position for m in v] for k, v in shared.items()} == {
                k: [m.position for m in v] for k, v in plain.items()
            }

    def test_twin_queries_share_all_but_sinks(self):
        engine = SharedNetworkEngine({"a": "_*.c", "b": "_*.c"})
        network, sinks = engine.compile()
        # IN + DS + CH + two sinks.
        assert network.degree == 5
        results = engine.evaluate(PAPER_DOC)
        assert [m.position for m in results["a"]] == [3, 5]
        assert [m.position for m in results["b"]] == [3, 5]

    def test_store_released_after_run(self):
        engine = SharedNetworkEngine({"q1": "_*.a[b].c", "q2": "_*.a[c]"})
        network, sinks = engine.compile()
        for event in parse_string(PAPER_DOC):
            network.process_event(event)
        assert len(network.condition_store._states) == 0
