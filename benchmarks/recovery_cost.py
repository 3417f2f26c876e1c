"""What a recovery policy costs against a strict pass: speed and memory.

    PYTHONPATH=src python benchmarks/recovery_cost.py [--rounds N] [--scale S]

Prints one JSON object with three figures per policy (``strict``,
``skip``, ``repair``):

* ``throughput_ev_s`` — ``MultiQueryEngine.run`` over 300 ``random_tree``
  documents of 100 elements each, queried with ``_*.a`` and
  ``_*.a[b].c``: the median of ``N`` rounds, in which the policies take
  turns, the events built before the clock starts, and the ratio of each
  policy's median to strict's;
* ``peak_traced_mb`` — the ``tracemalloc`` peak of one such run over the
  160,002-event document ``random_tree(7, elements=80000)``, streamed,
  with that query pair and with the never-matching ``_*.zz`` and
  ``_*.a[zz].c``;
* ``first_match_event`` — in the run with the matching pair, how many
  events of the document had been read when the first match left:
  strict's is the paper's earliest, skip's the document's end (it
  withholds a document until its ``</$>``), and repair, which withdraws
  no document without a limit armed, must deliver where strict does;
* ``peak_rss_mb`` — the peak resident set (``VmHWM``, which the child
  reads from ``/proc/self/status`` as it exits: a forked child's
  ``ru_maxrss`` starts at its parent's) of
  ``spex serve --count --on-error POLICY --file`` over
  ``xmark(7, scale=S)`` written to a temporary file, one child process
  per policy.

and, for the strict ``filter_stream``, which runs on the same loop,
``filter_stream_s``: the median seconds of ``N`` passes over the 300
documents (``small``), over the 160,002-event document with the matching
pair, whose verdicts are all in early (``large_early``), and over it
with ``_*.a`` and ``_*.zz``, one of which never matches
(``large_one_never``).

Run it with ``PYTHONPATH`` pointing at another checkout's ``src`` to
measure that tree with the same script (the ``spex serve`` child
inherits it), alternating the two to compare them.

It exits 1, after printing, when repair's first match leaves later than
strict's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

from repro.core.multiquery import MultiQueryEngine
from repro.workloads import random_tree, xmark
from repro.xmlstream import write_events

POLICIES = ("strict", "skip", "repair")
MATCHING = {"a": "_*.a", "abc": "_*.a[b].c"}
NEVER = {"zz": "_*.zz", "azzc": "_*.a[zz].c"}
SERVED = ("q1=_*.item.name", "q2=_*.item[mailbox].name")
#: ``python -m repro`` that prints its own peak resident set last
SPEX = """
import atexit, runpy, sys

def peak():
    with open("/proc/self/status") as status:
        print(next(line for line in status if line.startswith("VmHWM")), file=sys.stderr)

atexit.register(peak)
sys.argv[0] = "spex"
runpy.run_module("repro", run_name="__main__")
"""


def throughput(events: list, rounds: int) -> dict[str, float]:
    """Median events/s per policy, the policies taking turns each round."""
    samples: dict[str, list[float]] = {policy: [] for policy in POLICIES}
    for _ in range(rounds):
        for policy in POLICIES:
            engine = MultiQueryEngine(MATCHING)
            start = time.perf_counter()
            for _pair in engine.run(events, on_error=policy):
                pass
            samples[policy].append(len(events) / (time.perf_counter() - start))
    return {policy: statistics.median(rates) for policy, rates in samples.items()}


def traced_pass(queries: dict[str, str], policy: str) -> tuple[float, int | None]:
    """The traced peak in MB of one streamed pass, and the number of
    events read when its first match left (``None``: no match)."""
    engine = MultiQueryEngine(queries)
    read = 0
    first: int | None = None

    def source():
        nonlocal read
        for read, event in enumerate(random_tree(7, elements=80_000), 1):
            yield event

    tracemalloc.start()
    try:
        for _pair in engine.run(source(), on_error=policy):
            if first is None:
                first = read
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6, first


def filter_stream_s(queries: dict[str, str], events: list, rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        engine = MultiQueryEngine(queries)
        start = time.perf_counter()
        for _verdicts in engine.filter_stream(events):
            pass
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def peak_rss_mb(path: str, policy: str) -> float:
    command = [sys.executable, "-c", SPEX, "serve", "--count"]
    command += ["--on-error", policy, *SERVED, "--file", path]
    done = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise SystemExit(f"spex serve --on-error {policy} exited {done.returncode}")
    return int(done.stderr.split()[-2]) / 1024  # "VmHWM: N kB"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--scale", type=int, default=64_000)
    args = parser.parse_args()
    documents = [e for seed in range(300) for e in random_tree(seed, elements=100)]
    rates = throughput(documents, args.rounds)
    passes = {
        (name, policy): traced_pass(queries, policy)
        for name, queries in (("matching", MATCHING), ("never", NEVER))
        for policy in POLICIES
    }
    result: dict[str, dict] = {
        "throughput_ev_s": rates,
        "throughput_vs_strict": {p: rate / rates["strict"] for p, rate in rates.items()},
        "peak_traced_mb": {
            name: {policy: passes[name, policy][0] for policy in POLICIES}
            for name in ("matching", "never")
        },
        "first_match_event": {
            policy: passes["matching", policy][1] for policy in POLICIES
        },
    }
    large = list(random_tree(7, elements=80_000))
    result["filter_stream_s"] = {
        "small": filter_stream_s(MATCHING, documents, args.rounds),
        "large_early": filter_stream_s(MATCHING, large, args.rounds),
        "large_one_never": filter_stream_s(
            {"a": "_*.a", "zz": "_*.zz"}, large, args.rounds
        ),
    }
    del large
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "xmark.xml")
        with open(path, "w", encoding="utf-8") as out:
            write_events(xmark(7, scale=args.scale), out)
        result["xmark_mb"] = os.path.getsize(path) / 1e6
        result["peak_rss_mb"] = {policy: peak_rss_mb(path, policy) for policy in POLICIES}
    print(json.dumps(result, sort_keys=True))
    first = result["first_match_event"]
    if first["repair"] != first["strict"]:
        raise SystemExit(
            f"repair's first match left after event {first['repair']}, "
            f"strict's after event {first['strict']}"
        )


if __name__ == "__main__":
    main()
