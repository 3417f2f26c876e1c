"""Inputs are a function of the seed, and the sentinel stays unique."""

import os

import pytest

from repro.xmlstream.events import StartElement
from workloads import ORACLE_DIVISOR, SENTINEL, WORKLOADS, document, generate


def _contents(inputs):
    blobs = []
    for path in inputs.paths:
        with open(path, "rb") as handle:
            blobs.append(handle.read())
    return blobs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    workload = WORKLOADS[name]
    first = generate(workload, 7, str(tmp_path / "a"), ORACLE_DIVISOR)
    again = generate(workload, 7, str(tmp_path / "b"), ORACLE_DIVISOR)
    other = generate(workload, 8, str(tmp_path / "c"), ORACLE_DIVISOR)
    assert _contents(first) == _contents(again)
    assert (first.events, first.bytes) == (again.events, again.bytes)
    assert _contents(first) != _contents(other)


def test_manifest_carries_exact_sizes(tmp_path):
    inputs = generate(WORKLOADS["serve-sharded"], 7, str(tmp_path), ORACLE_DIVISOR)
    assert inputs.documents == WORKLOADS["serve-sharded"].size // ORACLE_DIVISOR
    assert inputs.bytes == sum(os.path.getsize(path) for path in inputs.paths)


def test_sentinel_is_the_root_and_nothing_else():
    """A sentinel label the generator also emits inside documents would
    match several times per document and end closed-loop runs early."""
    labels = [e.label for e in document(12345) if isinstance(e, StartElement)]
    assert labels[0] == SENTINEL
    assert SENTINEL not in labels[1:]
    assert len(labels) == 401
