"""A corrupted match stream ends up in ops_failed, through the real accounting."""

import measure
import run
from workloads import WORKLOADS

GOOD = ["doc\t1\tdoc", "ab\t3\tb", "ab\t7\tb", "doc\t9\tdoc"]


def _outcome(lines, **extra):
    return {
        "queries": measure.query_digests(lines),
        "digest": measure.digest(lines),
        "documents": 2,
        "wall_s": 1.0,
        "samples": 1000,
        "reportable_percentile": 99.0,
        **extra,
    }


def _run_with(tmp_path, monkeypatch, delivered, **extra):
    reference = tmp_path / "sink-reference.txt"
    reference.write_text("".join(line + "\n" for line in GOOD))
    bench = run.WorkloadRun(
        WORKLOADS["service-saturate"],
        str(tmp_path),
        expected=measure.query_digests(GOOD),
        expected_sink=str(reference),
    )

    def fake_worker(self, tag, inputs=None, spans=None):
        sink = tmp_path / f"sink-{tag}.txt"
        sink.write_text("".join(line + "\n" for line in delivered))
        return _outcome(delivered, **extra), str(sink)

    monkeypatch.setattr(run.WorkloadRun, "worker", fake_worker)
    bench.repeat()
    return bench


def test_clean_stream_fails_nothing(tmp_path, monkeypatch):
    bench = _run_with(tmp_path, monkeypatch, GOOD)
    assert (bench.attempted, bench.failed) == (len(GOOD) + 2, 0)


def test_corrupted_stream_is_counted(tmp_path, monkeypatch):
    # "ab" delivered out of order (2 out of place), "doc" delivered twice (1)
    corrupted = [GOOD[0], GOOD[2], GOOD[1], GOOD[3], GOOD[3]]
    bench = _run_with(tmp_path, monkeypatch, corrupted)
    assert bench.failed == 3
    dropped = _run_with(tmp_path, monkeypatch, GOOD[:2])
    assert dropped.failed == 2


def test_unfinished_documents_and_a_degraded_server_are_failed_ops(tmp_path, monkeypatch):
    bench = _run_with(
        tmp_path, monkeypatch, GOOD, unfinished_documents=3, server_exit_code=3
    )
    assert bench.failed == 4


def test_a_changed_interleaving_across_queries_is_one_failed_op(tmp_path, monkeypatch):
    bench = _run_with(tmp_path, monkeypatch, GOOD)
    swapped = [GOOD[1], GOOD[0], GOOD[2], GOOD[3]]  # per query unchanged

    def fake_worker(self, tag, inputs=None, spans=None):
        sink = tmp_path / f"sink-{tag}.txt"
        sink.write_text("".join(line + "\n" for line in swapped))
        return _outcome(swapped), str(sink)

    monkeypatch.setattr(run.WorkloadRun, "worker", fake_worker)
    bench.repeat()
    assert bench.failed == 1
