"""Unit tests for the transducer-network verifier (NET0xx diagnostics).

The corruption tests mutate a compiled network's internals on purpose —
the verifier exists to catch exactly the inconsistencies a buggy
compiler change could introduce, so the tests plant those
inconsistencies by hand and assert the coded findings.
"""

import pytest

from repro.analysis import verify_network
from repro.core.compiler import compile_network
from repro.core.flow_transducers import JoinTransducer
from repro.core.qualifier_transducers import VariableDeterminant
from repro.rpeq.parser import parse


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
        from repro.analysis import split_at_prefix
        from repro.core.path_transducers import DemandInputTransducer

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

    def test_workload_corpus_passes(self):
        from repro.workloads import query_corpus

        for name, text in query_corpus().items():
            report = verify_network(compiled(text))
            assert report.ok, f"{name}: {report.render()}"


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
