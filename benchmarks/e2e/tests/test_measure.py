"""Percentile rule, span arithmetic and failure counting."""

import pytest

import measure


# -- percentiles -------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [
        (9, None),       # not even a median
        (20, 50.0),      # 10 beyond the median
        (99, 50.0),      # 9.9 beyond p90
        (100, 90.0),     # exactly 10 beyond p90
        (999, 90.0),
        (1000, 99.0),    # exactly 10 beyond p99
        (3000, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_needs_ten_samples_beyond(samples, expected):
    assert measure.highest_percentile(samples) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile(values, 99) == 99
    assert measure.percentile([5.0], 99) == 5.0


def test_summarize_matches_statistics_quantiles():
    summary = measure.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert summary["median"] == 3.0
    assert (summary["q1"], summary["q3"]) == (1.5, 4.5)
    assert (summary["min"], summary["max"], summary["n"]) == (1.0, 5.0, 5)
    assert measure.summarize([2.5])["q1"] == 2.5


# -- spans -------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    spans = [
        ("run", 0.0, 10.0, None),
        ("parser", 1.0, 3.0, 0),
        ("parser", 5.0, 6.0, 0),
        ("sink", 7.0, 7.5, 0),
        ("flush", 7.1, 7.3, 3),
    ]
    own = measure.self_times(spans)
    assert own["run"] == pytest.approx(10.0 - 2.0 - 1.0 - 0.5)
    assert own["parser"] == pytest.approx(3.0)
    assert own["sink"] == pytest.approx(0.3)
    assert own["flush"] == pytest.approx(0.2)
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    """Documents in flight at once overlap; the parent's self time is
    what no child covers, and children are clipped to the parent."""
    spans = [
        ("load", 0.0, 10.0, None),
        ("document", 1.0, 5.0, 0),
        ("document", 3.0, 7.0, 0),
        ("document", 9.0, 12.0, 0),
    ]
    assert measure.self_times(spans)["load"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_by_call_structure():
    recorder = measure.SpanRecorder()
    with recorder.span("outer") as outer:
        with recorder.span("inner"):
            pass
        added = recorder.add("measured-elsewhere", 1.0, 2.0, request=3)
    assert recorder.spans[1][3] == outer
    assert recorder.spans[added][3] == outer
    obj = recorder.to_obj("w")
    assert obj[0]["parent"] is None and obj[0]["workload"] == "w"
    assert obj[added]["request"] == 3
    assert all(span["end"] >= span["start"] for span in obj[:2])


# -- match streams -----------------------------------------------------

EXPECTED = ["1\ta", "4\tb", "9\ta", "12\tc"]


@pytest.mark.parametrize(
    "got, failures",
    [
        (EXPECTED, 0),
        (EXPECTED[:-1], 1),                       # missing
        (EXPECTED + [EXPECTED[1]], 1),            # duplicated
        (["1\ta", "4\tX", "9\ta", "12\tc"], 2),   # wrong: one missing, one extra
        (["4\tb", "1\ta", "9\ta", "12\tc"], 2),   # reordered
        ([], 4),
    ],
)
def test_count_failures(got, failures):
    assert measure.count_failures(EXPECTED, got) == failures


def test_stream_failures_sums_over_queries_including_unexpected_ones():
    expected = {"q1": EXPECTED, "q2": ["2\tx"]}
    got = {"q1": EXPECTED[1:], "q3": ["7\ty"]}
    assert measure.stream_failures(expected, got) == 1 + 1 + 1


def test_digests_are_order_sensitive():
    lines = ["q1\t1\ta", "q2\t2\tb", "q1\t3\ta"]
    assert measure.digest(lines) != measure.digest(lines[::-1])
    by_query = measure.query_digests(lines)
    assert by_query["q1"][0] == 2 and by_query["q2"][0] == 1
    assert measure.split_by_query(lines)["q1"] == ["1\ta", "3\ta"]


def test_covered_is_the_union_of_all_spans():
    spans = [
        ("load", 0.0, 4.0, None),
        ("document", 1.0, 3.0, 0),
        ("document", 2.0, 5.0, 0),
        ("elsewhere", 7.0, 8.0, None),
    ]
    assert measure.covered(spans) == pytest.approx(5.0 + 1.0)
    assert measure.covered([]) == 0.0
