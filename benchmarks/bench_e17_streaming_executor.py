"""E17 — the streaming operator-tree executor: first page vs full drain.

Batch-at-a-time pipelining pays off on *selective multi-join
pipelines*: the streaming executor pulls tuple blocks through the
operator tree and materialises exactly once, at the end, so the first
answers leave the pipeline long before the last are computed.

Two measured operations per size, both on a selective 3-way join
(pushed filters on the first and last range, a non-pushable residual
conjunct cutting the joined stream):

* ``full_drain`` — complete evaluation to the canonical answer.
* ``first_page`` — time until the same pipeline has produced its first
  PAGE_ROWS answer rows (``Pipeline.iter_rows``).  This is *the*
  streaming capability — first rows without materializing any
  intermediate — and the ≥ 3× gate (first page against full drain of
  the same pipeline) asserted by the full sweep: an executor that
  cannot stream pays its full drain before the first row, so this
  ratio is the streaming capability itself.

Every measurement asserts that the streamed first page is a subset of
the canonical answer, and that the drained trace carries per-node
actuals.

Run styles:

* under pytest (quick sizes, used by CI as a smoke test):
  ``PYTHONPATH=src python -m pytest benchmarks/bench_e17_streaming_executor.py -q``
* standalone (full sweep at 10k–100k, writes results.json, asserts the
  ≥ 3× first-page gate):
  ``PYTHONPATH=src python benchmarks/bench_e17_streaming_executor.py``
  (pass ``--quick`` for the small sweep).
"""

from __future__ import annotations

import os
import random
import sys
import time
from itertools import islice
from typing import Callable, List, Tuple

from repro.quel.evaluator import compile_query
from repro.quel.planner import Plan
from repro.storage.database import Database

FULL_SIZES = (10_000, 100_000)
QUICK_SIZES = (500, 1_500)
#: Answer rows the first-page workload waits for.
PAGE_ROWS = 10
#: Nulls per payload cell — intermediates carry dominated rows.
NULL_RATE = 0.25

#: Selective on both ends: ``r.A = 1`` keeps ~1/7 of R, ``t.D < n/100``
#: keeps ~1/100 of T, and the residual ``r.P <= s.Q`` cuts the joined
#: stream in flight — the {limit} is the per-size selectivity knob.
QUERY_TEMPLATE = (
    "range of r is R range of s is S range of t is T "
    "retrieve (r.A, s.Q, t.D) "
    "where r.B = s.B and s.C = t.C and r.A = 1 and r.P <= s.Q "
    "and t.D < {limit}"
)


def query_for(database: Database, size: int):
    text = QUERY_TEMPLATE.format(limit=max(size // 100, 10))
    return compile_query(text, database).query


def build_database(size: int, seed: int) -> Database:
    """R –B– S –C– T with a selective pushed filter on R (``r.A = 1``
    keeps ~1/7) and a residual conjunct ``r.P <= s.Q`` the planner can
    only apply after the first join — the shape where a pipeline that
    materialised every step would keep building intermediates the
    residual then discards."""
    rng = random.Random(seed)
    link_domain = max(size // 20, 2)

    def payload(hi: int):
        return None if rng.random() < NULL_RATE else rng.randrange(hi)

    database = Database("e17")
    r = database.create_table("R", ["A", "B", "P"])
    s = database.create_table("S", ["B", "C", "Q"])
    t = database.create_table("T", ["C", "D"])
    r.insert_many([
        (i % 7, rng.randrange(link_domain), payload(100)) for i in range(size)
    ])
    s.insert_many([
        (rng.randrange(link_domain), rng.randrange(link_domain), payload(100))
        for i in range(size)
    ])
    t.insert_many([(rng.randrange(link_domain), i) for i in range(size)])
    return database


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------

def _time(fn: Callable[[], object], repeat: int = 3) -> Tuple[float, object]:
    """Wall time of *fn* — best of *repeat* runs."""
    best = float("inf")
    value = None
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def run_experiments(sizes=FULL_SIZES, metric=None, line=None, assert_gate=False):
    """Measure both workloads at every size, asserting the first page
    is part of the answer.

    With *assert_gate* (the standalone full sweep) the first page being
    ≥ 3× faster than the full drain at every measured size is asserted,
    not just recorded.
    """

    def emit(op, variant, rows, seconds, **extra):
        if metric is not None:
            metric(op, seconds, variant=variant, rows=rows, **extra)

    for size in sizes:
        database = build_database(size, seed=size)
        query = query_for(database, size)
        repeat = 3 if size < 50_000 else 2

        # -- (a) full drain: the canonical answer ----------------------------
        drain_seconds, answer = _time(
            lambda: Plan(query, database).execute(), repeat
        )
        emit("selective_3way_full_drain", "streaming", size, drain_seconds)

        # -- (b) first page: PAGE_ROWS answer rows off the lazy pipeline ------
        def first_page():
            pipeline = Plan(query, database).compile()
            return list(islice(pipeline.iter_rows(), PAGE_ROWS))

        page_seconds, page = _time(first_page, repeat)
        assert page and set(page) <= set(answer.rows())
        speedup = round(drain_seconds / page_seconds, 2)
        emit("selective_3way_first_page", "streaming", size, page_seconds,
             page_rows=PAGE_ROWS, speedup=speedup)
        if assert_gate:
            assert speedup >= 3.0, (
                f"first page only {speedup}x ahead of the full drain at "
                f"{size} rows: below the 3x gate"
            )

        # The streaming plan really did stream: the trace carries the
        # operator actuals and the tree renders with per-node timings.
        plan = Plan(query, database)
        plan.execute()
        assert any("join" in step for step in plan.steps)
        analyzed = plan.pipeline.explain(analyze=True)
        assert "actual rows=" in analyzed and "time=" in analyzed

        if line is not None:
            line(
                f"n={size}: first {PAGE_ROWS} rows {speedup}x ahead of the "
                f"full drain (metrics in results.json)"
            )


# ---------------------------------------------------------------------------
# pytest entry point (quick smoke + agreement assertions)
# ---------------------------------------------------------------------------

def test_first_page_vs_full_drain_quick(record):
    """Quick-mode sweep: asserts the first page is part of the answer,
    records metrics."""
    run_experiments(sizes=QUICK_SIZES, metric=record.metric, line=record.line)


# ---------------------------------------------------------------------------
# Standalone entry point (full sweep, writes benchmarks/results.json)
# ---------------------------------------------------------------------------

def main(argv: List[str]) -> int:
    quick = "--quick" in argv
    sizes = QUICK_SIZES if quick else FULL_SIZES

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import conftest  # the benchmark harness recorder/writer

    recorder = conftest.ExperimentRecorder("e17_streaming_executor")
    run_experiments(
        sizes=sizes, metric=recorder.metric, line=recorder.line,
        assert_gate=not quick,
    )

    results_path = os.path.join(here, "results.json")
    conftest.write_results_json(results_path)

    metrics = conftest._METRICS["e17_streaming_executor"]
    by_key = {(m["op"], m["rows"]): m for m in metrics}
    print(f"{'rows':>7} {'drain s':>10} {'page s':>10} {'speedup':>8}")
    for size in sizes:
        drain = by_key.get(("selective_3way_full_drain", size))
        page = by_key.get(("selective_3way_first_page", size))
        if drain and page:
            print(
                f"{size:>7} {drain['seconds']:>10.4f} "
                f"{page['seconds']:>10.4f} {page['speedup']:>7.1f}x"
            )
    print(f"\nwrote {results_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
