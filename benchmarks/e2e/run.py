"""Bench v2: XML bytes in, delivered matches out, measured end to end.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 7] [--seconds 10]
                                  [--trace 0|1] [--repeats N]
                                  [--workdir DIR] [--out FILE]

Generates the inputs from ``--seed``, checks the answers against a DOM
oracle at reduced scale, runs each workload's repeats in fresh worker
processes (round-robin across workloads), and prints every metric by
name with unit, median, quartiles and sample count.  With ``--trace 1``
a separate traced pass produces the per-layer metrics instead.  Without
``--workload`` all six workloads run.

The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# In a directory without the program under test these imports fail,
# which is the intended outcome there: a non-zero exit and no result.
import measure  # noqa: E402
from catalog import END_TO_END, PER_LAYER  # noqa: E402
from oracle import expected_matches  # noqa: E402
from repro.core.multiquery import MultiQueryEngine  # noqa: E402
from repro.xmlstream.parser import iter_documents  # noqa: E402
from workloads import ORACLE_DIVISOR, WORKLOADS, Workload, generate  # noqa: E402

#: Fewest timed repeats per workload, however long each takes.
MIN_REPEATS = 3

#: Seconds one child process may take before the run is abandoned.
CHILD_TIMEOUT = 150.0


class BenchmarkError(Exception):
    """The benchmark cannot measure what it says (not a failed operation)."""


def run_child(script: str, arguments: list[str]) -> dict:
    """Run one of the benchmark's scripts; its last stdout line is JSON."""
    command = [sys.executable, os.path.join(HERE, script), *arguments]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{script} {arguments[0]} hung: {exc}") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{script} {arguments[0]} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


@dataclass
class WorkloadRun:
    """One workload's inputs, expectations and collected repeats."""

    workload: Workload
    directory: str
    #: per query ``[count, digest]`` every repeat must reproduce
    expected: dict | None = None
    #: digest of the whole ordered stream, set by the first repeat
    expected_order: str | None = None
    #: where the expected lines can be read back from, if digests differ
    expected_sink: str | None = None
    repeats: list[dict] = field(default_factory=list)
    traced: dict | None = None
    attempted: int = 0
    failed: int = 0

    @property
    def name(self) -> str:
        return self.workload.name

    def worker(self, tag: str, inputs: str | None = None, spans: str | None = None):
        """One fresh worker process; returns ``(outcome, sink path)``."""
        sink = os.path.join(self.directory, f"sink-{tag}.txt")
        arguments = [
            self.name,
            "--inputs", inputs or os.path.join(self.directory, "inputs"),
            "--sink", sink,
            "--spawned", repr(time.monotonic()),
        ]
        if spans:
            arguments += ["--spans", spans]
        return run_child("worker.py", arguments), sink

    # ------------------------------------------------------------------

    def prepare(self, seed: int) -> None:
        """Inputs, the reduced-scale oracle check, and the full-scale reference."""
        workload = self.workload
        small = os.path.join(self.directory, "oracle-inputs")
        small_inputs = generate(workload, seed, small, ORACLE_DIVISOR)
        outcome, sink = self.worker("oracle", inputs=small)
        want = expected_matches(workload, small_inputs.paths)
        self.check_lanes(outcome.get("lanes"))
        self.attempted += sum(map(len, want.values())) + small_inputs.documents
        self.failed += measure.stream_failures(
            want, measure.split_by_query(read_lines(sink))
        ) + outcome.get("unfinished_documents", 0)

        inputs = generate(workload, seed, os.path.join(self.directory, "inputs"))
        if workload.kind != "filter":
            # Sharded and served streams must agree, per query, with one
            # in-process pass over the same documents.
            engine = MultiQueryEngine(workload.queries)
            lines = [
                measure.match_line(query_id, match.position, match.label)
                for query_id, match in engine.run(iter_documents(inputs.paths))
            ]
            self.check_lanes(engine.lane_executions)
            self.expected = measure.query_digests(lines)
            self.expected_sink = os.path.join(self.directory, "sink-reference.txt")
            with open(self.expected_sink, "w", encoding="utf-8") as out:
                out.writelines(line + "\n" for line in lines)

    def check_lanes(self, lanes: dict | None) -> None:
        """``lanes`` is ``None`` where the engine runs out of reach (the server)."""
        if lanes is not None and lanes != self.workload.executed_lanes:
            raise BenchmarkError(
                f"{self.name}: subscriptions ran on {lanes}, "
                f"pinned {self.workload.executed_lanes}"
            )

    def repeat(self, spans: str | None = None) -> None:
        """One repeat in a fresh process, checked against the expectation."""
        tag = "traced" if spans else str(len(self.repeats))
        outcome, sink = self.worker(tag, spans=spans)
        self.check_lanes(outcome.get("lanes"))
        if (outcome["reportable_percentile"] or 0) < 90:
            raise BenchmarkError(
                f"{self.name}: {outcome['samples']} samples cannot carry a p90"
            )
        if outcome.get("loadgen_cpu_s", 0.0) > 0.5 * outcome["wall_s"]:
            raise BenchmarkError(
                f"{self.name}: the load generator used "
                f"{outcome['loadgen_cpu_s']:.2f} s CPU in {outcome['wall_s']:.2f} s; "
                "it, not the service, is the bottleneck"
            )
        if self.expected is None:
            # filter-*: the first repeat sets the expectation (its path
            # was checked against the oracle at reduced scale)
            self.expected, self.expected_sink = outcome["queries"], sink
        failed = (
            outcome.get("unfinished_documents", 0)
            + outcome.get("late_matches", 0)
            + outcome.get("late_frames", 0)
            + outcome.get("restarts", 0)
            + (outcome.get("server_exit_code", 0) != 0)
        )
        if outcome["queries"] != self.expected:
            failed += measure.stream_failures(
                measure.split_by_query(read_lines(self.expected_sink)),
                measure.split_by_query(read_lines(sink)),
            )
        elif outcome["digest"] != self.expected_order:
            # every query's matches are right, but queries interleaved
            # differently than in the first repeat
            if self.expected_order is not None:
                failed += 1
            self.expected_order = outcome["digest"]
        if sink != self.expected_sink:
            os.remove(sink)
        self.attempted += (
            sum(count for count, _ in self.expected.values()) + outcome["documents"]
        )
        self.failed += failed
        if spans:
            self.traced = outcome
        else:
            self.repeats.append(outcome)

    def wants_repeat(self, seconds: float, repeats: int | None) -> bool:
        done = len(self.repeats)
        if repeats is not None:
            return done < repeats
        if done < MIN_REPEATS:
            return True
        # one more only if it brings the measured time closer to --seconds
        measured = sum(repeat["wall_s"] for repeat in self.repeats)
        return measured + measured / done / 2 < seconds

    def end_to_end(self) -> dict[str, dict]:
        return {
            name: measure.summarize([repeat[name] for repeat in self.repeats])
            for name in END_TO_END
        }


def load_spans(path: str, report: dict) -> list[tuple]:
    """Append a span file to the report; returns its spans as tuples.

    Parents index into the file they were recorded in, so they are
    shifted to keep pointing at the same span in the merged list.
    """
    with open(path) as handle:
        loaded = json.load(handle)
    spans = [(s["name"], s["start"], s["end"], s["parent"]) for s in loaded]
    offset = len(report["spans"])
    for span in loaded:
        if span["parent"] is not None:
            span["parent"] += offset
    report["spans"] += loaded
    return spans


def trace_metrics(run: WorkloadRun, spans: list[tuple]) -> tuple[dict, dict]:
    """The traced repeat's two metrics, and self time per span name."""
    untraced = statistics.median(r["throughput_ev_s"] for r in run.repeats)
    return {
        # base = the traced run; above 1, tracing slowed the workload
        "trace.overhead_ratio": untraced / run.traced["throughput_ev_s"],
        # share of the traced run's wall time inside at least one span
        "trace.attributed_share": measure.covered(spans) / run.traced["wall_s"],
    }, measure.self_times(spans)


def ladder_metrics(seed: int, scratch: str, seconds: float) -> dict:
    root = os.path.join(scratch, "ladder")
    os.makedirs(root)
    return run_child(
        "ladder.py",
        [
            "--seed", str(seed),
            "--scratch", root,
            "--rung-seconds", repr(seconds / 5.0),
            "--spans", os.path.join(root, "spans.json"),
        ],
    )


def print_table(title: str, rows: dict[str, dict], units: dict) -> None:
    print(f"\n{title}")
    print(f"  {'metric':42s} {'unit':9s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'min':>14s} {'max':>14s} {'n':>3s}")
    for name, s in rows.items():
        print(f"  {name:42s} {units[name][0]:9s} {s['median']:14.4f} {s['q1']:14.4f} "
              f"{s['q3']:14.4f} {s['min']:14.4f} {s['max']:14.4f} {s['n']:3d}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=list(WORKLOADS), help="one workload (default: all six)"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="time to measure per workload, split over fresh-process repeats",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeats", type=int,
        help="fixed number of timed repeats per workload, instead of --seconds",
    )
    parser.add_argument(
        "--workdir", default=os.path.join(HERE, ".work"),
        help="where inputs, sinks, WAL and logs go (removed afterwards)",
    )
    parser.add_argument("--out", help="write the full report, with spans, here")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    # Cross-process timestamps (set-up time) use CLOCK_MONOTONIC, which
    # Linux shares between processes; /proc gives the server's CPU time.
    if not sys.platform.startswith("linux"):
        print("error: the benchmark needs Linux", file=sys.stderr)
        return 2

    os.makedirs(args.workdir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=args.workdir)
    try:
        return measure_all(args, names, scratch)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_all(args: argparse.Namespace, names: list[str], scratch: str) -> int:
    runs = [
        WorkloadRun(WORKLOADS[name], os.path.join(scratch, name)) for name in names
    ]
    for run in runs:
        os.makedirs(run.directory)
        run.prepare(args.seed)

    # Timed repeats, interleaved so slow drift of the machine lands on
    # every workload alike.  Unless told otherwise, a traced invocation
    # makes one per workload only, as the base of the tracing overhead.
    repeats = args.repeats if args.repeats is not None else (1 if args.trace else None)
    pending = list(runs)
    while pending:
        pending = [run for run in pending if run.wants_repeat(args.seconds, repeats)]
        for run in pending:
            run.repeat()

    report: dict = {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "workloads": {},
        "per_layer": {},
        "spans": [],
    }
    for run in runs:
        summary = report["workloads"][run.name] = run.end_to_end()
        print_table(f"{run.name}  ({run.workload.why})", summary, END_TO_END)
        stolen = max(repeat["steal_share"] for repeat in run.repeats)
        print(f"  validity: the hypervisor took up to {stolen:.1%} of the machine's CPU")
        if run.workload.kind == "service":
            busy = max(r["loadgen_cpu_s"] / r["wall_s"] for r in run.repeats)
            late = max(r["loadgen_late_ms_p99"] for r in run.repeats)
            print(f"  validity: the load generator used up to {busy:.0%} of one CPU "
                  f"and sent frames up to {late:.1f} ms late (p99)")
    if args.trace:
        traced_pass(args, runs, scratch, report)

    # The last line: end-to-end medians, or with --trace 1 the per-layer
    # metrics; names carry the workload only when several ran.
    metrics: dict[str, dict] = {}
    for run in runs:
        prefix = "" if args.workload else run.name + "/"
        if args.trace:
            for name, (value, unit) in report["per_layer"][run.name].items():
                metrics[prefix + name] = {"value": value, "unit": unit}
        else:
            for name, stats in report["workloads"][run.name].items():
                metrics[prefix + name] = {
                    "value": stats["median"], "unit": END_TO_END[name][0]
                }
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    report.update(attempted=attempted, failed=failed)
    if args.out:
        with open(args.out, "w") as out:
            json.dump(report, out)
    print(f"\nops attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def traced_pass(
    args: argparse.Namespace, runs: list[WorkloadRun], scratch: str, report: dict
) -> None:
    """One traced repeat of each workload, then the layer ladder once."""
    # Traced repeats first, next to the timed ones they are compared with.
    for run in runs:
        run.repeat(spans=os.path.join(run.directory, "spans.json"))
    layers = ladder_metrics(args.seed, scratch, args.seconds)
    load_spans(os.path.join(scratch, "ladder", "spans.json"), report)
    print("\nper-layer metrics (the layer ladder)")
    for name, (value, unit) in layers.items():
        print(f"  {name:42s} {unit:9s} {value:14.4f}")
    for run in runs:
        spans = load_spans(os.path.join(run.directory, "spans.json"), report)
        traced, own = trace_metrics(run, spans)
        print(f"\n{run.name}: traced pass, self time by span")
        for span_name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {span_name:42s} {'s':9s} {seconds:14.4f}")
        per_layer = dict(layers)
        for name, value in traced.items():
            print(f"  {name:42s} {'ratio':9s} {value:14.4f}")
            per_layer[name] = [value, PER_LAYER[name][0]]
        if set(per_layer) != set(PER_LAYER):
            raise BenchmarkError(
                f"per-layer metrics differ from the catalog: "
                f"{sorted(set(per_layer) ^ set(PER_LAYER))}"
            )
        report["per_layer"][run.name] = per_layer


if __name__ == "__main__":
    sys.exit(main())
