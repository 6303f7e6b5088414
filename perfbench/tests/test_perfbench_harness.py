"""Unit tests for the benchmark's measurement helpers.

Run with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import datasets  # noqa: E402
import layers  # noqa: E402
from harness import (  # noqa: E402
    REFERENCE_PROBE_S,
    ZipfSampler,
    covered,
    outermost,
    pace,
    paced,
    percentile,
    probe,
    ratio,
    rss_mb,
    self_time,
    stream_digest,
    tail_percentile,
    unattributed_share,
    window_figures,
)


# -- percentile chooser -----------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(list(reversed(values)), 90) == 90
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("count, expected_pct, expected_beyond", [
    (1000, 99.0, 10),     # exactly ten samples beyond p99
    (999, 95.0, 49),      # p99 would leave only nine
    (20000, 99.9, 20),
    (40, 75.0, 10),
    (20, 50.0, 10),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected_pct, expected_beyond):
    values = [float(i) for i in range(count)]
    pct, value, over = tail_percentile(values)
    assert (pct, over) == (expected_pct, expected_beyond)
    assert value == percentile(values, pct)
    assert sum(1 for v in values if v > value) == over


def test_tail_percentile_unsupported_for_tiny_samples():
    assert tail_percentile([1.0] * 19) is None


def test_window_figures_are_rate_mean_and_p90():
    latencies = [0.010] * 90 + [0.050] * 10
    rate, mean, p90 = window_figures(latencies, 2.0)
    assert rate == 50.0
    assert mean == pytest.approx(0.014)
    assert p90 == 0.010
    assert window_figures(latencies + [0.050], 2.0)[2] == 0.050
    with pytest.raises(ValueError):
        window_figures([], 1.0)


def test_pace_is_the_median_probe_over_the_reference():
    probes = [REFERENCE_PROBE_S * f for f in (1.0, 1.5, 3.0)]
    assert pace(probes) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        pace([])


def test_paced_figures_read_as_at_the_reference_pace():
    # A run at half speed: half the rate, twice the latencies.
    assert paced((50.0, 0.020, 0.040), 2.0) == (100.0, 0.010, 0.020)
    assert paced((50.0, 0.020, 0.040), 1.0) == (50.0, 0.020, 0.040)


def test_probe_times_its_loop():
    assert 0.0 < probe() < 10.0


def test_rss_mb_reads_a_live_process():
    assert 1.0 < rss_mb() < 1e6
    assert rss_mb(os.getpid()) > 1.0


# -- spans ------------------------------------------------------------------

def test_covered_merges_overlaps_and_clips_to_window():
    assert covered(0, 10, [(1, 3), (2, 5), (8, 20), (-5, 0)]) == 4 + 2
    assert covered(0, 10, []) == 0


def test_self_time_subtracts_child_coverage_once():
    assert self_time(0, 100, [(10, 30), (20, 40), (90, 120)]) == 100 - 30 - 10
    assert self_time(5, 9, []) == 4


def test_unattributed_share_is_uncovered_over_total_wall():
    operations = [("a", 0, 100), ("b", 200, 300)]
    children = {"a": [(0, 50)], "b": [(200, 300)], "c": [(0, 1000)]}
    assert unattributed_share(operations, children) == pytest.approx(50 / 200)
    assert unattributed_share([], children) == 0.0


def test_outermost_drops_spans_nested_in_the_same_name():
    spans = [
        (1, None, "op", "storage.index_lookup", 0, 10),
        (2, 1, "op", "other", 1, 9),
        (3, 2, "op", "storage.index_lookup", 2, 8),  # re-entrant: inside 1
        (4, None, "op", "other", 20, 30),
    ]
    assert [span[0] for span in outermost(spans)] == [1, 2, 4]


# -- ratios -------------------------------------------------------------------

def test_ratio_reports_its_base():
    assert ratio(3, 4) == (0.75, 4)
    assert ratio(0, 0) == (0.0, 0)


def test_benchmark_json_lists_what_the_command_reports():
    import run

    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(metric) for metric in layers.METRICS]
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)


def test_counter_diff_and_error_factor_from_scrapes():
    name = "repro_plan_estimate_error_ratio_bucket"

    def scrape(counts):
        series = {("repro_plan_cache_total", (("event", "hit"),)): counts[0],
                  ("repro_plan_cache_total", (("event", "miss"),)): 1.0}
        for bound, seen in zip(("0.5", "1.0", "2.0", "+Inf"), counts[1:]):
            series[(name, (("le", bound),))] = seen
        return series

    before = scrape([2.0, 0, 0, 0, 0])
    after = scrape([7.0, 1, 1, 4, 5])  # new: one ≤0.5, three in (1, 2], one > 2
    assert layers.counter_diff(before, after, "repro_plan_cache_total", event="hit") == 5
    assert layers.counter_diff(before, after, "repro_plan_cache_total") == 5
    factor, count = layers.error_factor_median(before, after,
                                               "repro_plan_estimate_error_ratio")
    assert count == 5
    assert factor == pytest.approx(2 ** 0.5)


# -- seeded generation ----------------------------------------------------------

def test_zipf_sampler_is_deterministic_and_skewed():
    first = ZipfSampler(1000, 1.1, seed=7).take(5000)
    assert ZipfSampler(1000, 1.1, seed=7).take(5000) == first
    assert ZipfSampler(1000, 1.1, seed=8).take(5000) != first
    assert all(0 <= key < 1000 for key in first)
    hottest = max(set(first), key=first.count)
    assert first.count(hottest) > 20 * 5000 / 1000


def test_stream_digest_identifies_the_stream():
    assert stream_digest([1, 2, 3]) == stream_digest([1, 2, 3])
    assert stream_digest([1, 2, 3]) != stream_digest([1, 3, 2])


def test_txn_stream_is_deterministic_and_rolls_back_one_in_ten():
    rows = datasets.acct_rows(400, seed=3)
    stream = datasets.txn_stream(3, 0, rows, count=200)
    assert [repr(t) for t in datasets.txn_stream(3, 0, rows, count=200)] == \
        [repr(t) for t in stream]
    for block in range(0, 200, datasets.ROLLBACK_BLOCK):
        assert sum(t.rollback for t in stream[block:block + datasets.ROLLBACK_BLOCK]) == 1
    assert sum(t.delete is not None for t in stream) == 200 // datasets.DELETE_EVERY


def test_txn_reads_expect_the_committed_state():
    rows = datasets.acct_rows(400, seed=5)
    streams = [datasets.txn_stream(5, c, rows, count=120)
               for c in range(datasets.CONNECTIONS)]
    for connection, stream in enumerate(streams):
        for index, txn in enumerate(stream):
            executed = [0] * datasets.CONNECTIONS
            executed[connection] = index
            state = datasets.apply_committed(rows, streams, executed)
            _g, v, w = state[txn.read_key]
            assert (v, w) == txn.read_expect


def test_scan_eq_and_reduce_references_match_the_tuple_oracle():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import workloads

    tables = datasets.analytic_tables(4, wide_rows=600, join_rows=0)
    database = workloads.build_analytic(tables)
    for shape, params, reference in (
        ("scan_eq", {"x": 3}, datasets.scan_eq_reference(tables, 3)),
        ("reduce", {"k": 40}, datasets.reduce_reference(tables, 40)),
        ("reduce", {"k": 600}, datasets.reduce_reference(tables, 600)),
    ):
        oracle = database.query(datasets.SHAPES[shape], params, strategy="tuple")
        assert {row.items() for row in oracle.rows} == reference


def test_join3_reference_matches_a_nested_loop():
    tables = datasets.analytic_tables(2, wide_rows=0, join_rows=60)
    _, r_rows = tables["R"]
    _, s_rows = tables["S"]
    _, t_rows = tables["T"]
    expected = {
        (a, q, d)
        for a, b, p in r_rows for sb, c, q in s_rows for tc, d in t_rows
        if a == 3 and b == sb and c == tc and p is not None and q is not None
        and p <= q and d < 40
    }
    assert datasets.join3_reference(tables, 3, 40) == expected
