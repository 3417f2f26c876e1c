"""BENCHMARK.json, the metric catalog and the workload list agree."""

import json
import os
import re

import catalog
import workloads
from conftest import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    CONTRACT = json.load(handle)


def _declared(section):
    return {m["name"]: (m["unit"], m["better"]) for m in CONTRACT[section]}


def test_every_metric_is_declared_with_its_unit_and_direction():
    assert _declared("end_to_end") == catalog.END_TO_END
    assert _declared("per_layer") == catalog.PER_LAYER
    assert catalog.EXACT <= set(catalog.PER_LAYER)


def test_every_workload_is_declared_with_its_reason():
    declared = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
    assert declared == {w.name: w.why for w in workloads.WORKLOADS.values()}


def test_names_units_and_bounds_fit_the_contract():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for section in ("end_to_end", "per_layer"):
        for metric in CONTRACT[section]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all("bound" not in m for m in CONTRACT["per_layer"])


def test_the_command_and_paths_name_only_the_benchmark():
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= CONTRACT["run_seconds"] <= 60


def test_pinned_lanes_are_lanes():
    for workload in workloads.WORKLOADS.values():
        assert set(workload.executed_lanes.values()) <= {"dfa", "hybrid", "gated", "network"}
        assert len(workload.queries) == len(workload.subscriptions)
