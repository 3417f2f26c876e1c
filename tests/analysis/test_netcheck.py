"""Unit tests for the transducer-network verifier (NET0xx diagnostics).

The corruption tests mutate a compiled network's internals on purpose —
the verifier exists to catch exactly the inconsistencies a buggy
compiler change could introduce, so the tests plant those
inconsistencies by hand and assert the coded findings.
"""

import random

import pytest

from repro.analysis import split_at_prefix, verify_network
from repro.core.compiler import compile_network, translation_degree
from repro.core.flow_transducers import JoinTransducer
from repro.core.path_transducers import DemandInputTransducer
from repro.core.qualifier_transducers import VariableDeterminant
from repro.rpeq.generate import random_rpeq
from repro.rpeq.parser import parse
from repro.workloads import query_corpus

from ..integration.doors import CORPUS


def compiled(query, **kwargs):
    network, _store = compile_network(parse(query), **kwargs)
    return network


class TestCleanNetworks:
    @pytest.mark.parametrize(
        "query",
        [
            "a",
            "_*.a[b].c",
            "a[b].c[d]",
            "(a|b).c?",
            "_*.country[province].name",
            "a*.b+",
            "following::a[b]",
            "_*.a[preceding::b]",
        ],
    )
    def test_verifier_accepts(self, query):
        report = verify_network(compiled(query))
        assert report.ok, report.render()

    @pytest.mark.parametrize("optimize", [True, False])
    def test_both_compilers_verify(self, optimize):
        report = verify_network(compiled("_*.a[b]", optimize=optimize))
        assert report.ok, report.render()

    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize(
        "query",
        ["_*.a[b].c", "a[b][c].d", "a.(b[c]|d).e", "_*.a[b].c?", "_*.a[_*.b[c]]._*.d"],
    )
    def test_residual_networks_verify(self, query, optimize):
        """What the gated lane actually runs: the residual of the split
        behind a demand-activated source is a well-formed network too."""
        _prefix, residual = split_at_prefix(parse(query))
        network, _store = compile_network(
            residual,
            collect_events=False,
            optimize=optimize,
            source=DemandInputTransducer(),
        )
        assert isinstance(network.source, DemandInputTransducer)
        report = verify_network(network)
        assert report.ok, report.render()


#: the shapes the compiler is checked on: the queries the doors run,
#: the workload corpus, and a seeded batch of generated ones
SHAPES = {
    "doors": [parse(text) for text in CORPUS.values()],
    "workloads": [parse(text) for text in query_corpus().values()],
    "random": [random_rpeq(random.Random(seed)) for seed in range(240)],
}


@pytest.mark.parametrize("production", [True, False])
@pytest.mark.parametrize("shapes", SHAPES)
def test_every_compiled_network_verifies(shapes, production):
    """The compiler's structure, checked here rather than on every
    subscribe: each query compiles to a verified network, whole and as
    the residual the gated lane runs behind a demand-activated source,
    and its degree is the one pre-flight counts on the AST."""
    for expr in SHAPES[shapes]:
        residual = split_at_prefix(expr)[1]
        for collect in (True, False):
            for shape, source in ((expr, None), (residual, DemandInputTransducer())):
                network, _store = compile_network(
                    shape, collect_events=collect, optimize=production, source=source
                )
                report = verify_network(network)
                assert report.ok, f"{shape}: {report.render()}"
                assert network.degree == translation_degree(shape, production), shape


class TestCorruptedNetworks:
    def test_unfinalized_network_rejected(self):
        from repro.conditions.store import ConditionStore
        from repro.core.network import Network
        from repro.core.output_tx import OutputTransducer
        from repro.core.path_transducers import InputTransducer

        store = ConditionStore()
        network = Network(InputTransducer("IN"))
        network.sink = network.add(OutputTransducer(store), network.source)
        report = verify_network(network)
        assert report.codes() == {"NET001"}

    def test_unbalanced_join_detected(self):
        network = compiled("a?")
        join = next(n for n in network._nodes if isinstance(n, JoinTransducer))
        preds = network._predecessors[id(join)]
        network._predecessors[id(join)] = [preds[0], preds[0]]
        report = verify_network(network)
        assert not report.ok
        assert "NET007" in report.codes()
        assert any(
            diag.details.get("node") == join.name
            for diag in report.by_code("NET007")
        )

    def test_out_of_scope_condition_variable_detected(self):
        network = compiled("a[b].c[d]")
        determinants = [
            n for n in network._nodes if isinstance(n, VariableDeterminant)
        ]
        assert len(determinants) == 2
        # Point both determinants at the same qualifier id: q1's VD now
        # determines a variable whose creator is not among its ancestors.
        determinants[0].qualifier = determinants[1].qualifier
        report = verify_network(network)
        assert not report.ok
        assert "NET008" in report.codes()
        assert "NET009" in report.codes()

    def test_diagnostics_are_deterministic(self):
        def corrupt():
            network = compiled("a[b].c[d]")
            determinants = [
                n for n in network._nodes if isinstance(n, VariableDeterminant)
            ]
            determinants[0].qualifier = determinants[1].qualifier
            return verify_network(network)

        assert corrupt().to_json() == corrupt().to_json()

    def test_foreign_store_detected(self):
        from repro.conditions.store import ConditionStore

        network = compiled("a[b]")
        network.condition_store = ConditionStore()
        report = verify_network(network)
        assert "NET009" in report.codes()
