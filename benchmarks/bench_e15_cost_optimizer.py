"""E15 — the cost-based optimizer: join reordering and index reuse.

Two workloads:

* **join reordering** — on a 3-range chain query whose last-declared
  range is highly selective, the cost order starts from the selective
  range and walks the chain outward, so the intermediate results stay
  near the final answer's size instead of building the large
  BIG1 ⋈ BIG2 intermediate first.  The plan shape (the first join
  involves ``sel``) is asserted and the absolute time recorded.
* **persistent-index reuse** — on a repeated-query workload joining a
  small range against a large indexed table, the optimizer emits an
  index-nested-loop join probing the table's live
  :class:`~repro.storage.index.HashIndex`; the same planner with
  ``use_indexes=False`` renames and re-buckets all of the large table on
  every query.  The two answers must be information-wise identical
  (``XRelation`` equality), so the row doubles as a differential check.

Run styles:

* under pytest (quick sizes, used by CI as a smoke test):
  ``PYTHONPATH=src python -m pytest benchmarks/bench_e15_cost_optimizer.py -q``
* standalone (full sweep, writes results.json):
  ``PYTHONPATH=src python benchmarks/bench_e15_cost_optimizer.py``
  (pass ``--quick`` for the small sweep).
"""

from __future__ import annotations

import os
import random
import sys
import time
from typing import Callable, List, Tuple

from repro.quel.evaluator import compile_query
from repro.quel.planner import Plan
from repro.storage.database import Database

FULL_SIZES = (1_000, 10_000)
QUICK_SIZES = (200, 500)
#: Queries per measurement of the repeated-query (index-reuse) workload.
REPEATS = 5

CHAIN_QUERY = (
    "range of b1 is BIG1 range of b2 is BIG2 range of sel is SEL "
    "retrieve (b1.X, sel.C) "
    "where b1.A = b2.A and b2.B = sel.B and sel.C = 1"
)

INDEX_QUERY = (
    "range of s is SMALL range of b is BIG "
    "retrieve (s.K, b.B) where s.A = b.A"
)


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------

def chain_database(size: int, seed: int) -> Database:
    """BIG1 –A– BIG2 –B– SEL: the selective filter sits on the last range.

    ``A`` has ~size/10 distinct values, ``B`` ~size/100, and ``SEL.C``
    ranges over ~size values so ``sel.C = 1`` keeps a handful of rows —
    the shape where join order dominates the cost.
    """
    rng = random.Random(seed)
    a_domain = max(size // 10, 2)
    b_domain = max(size // 100, 2)
    c_domain = max(size, 2)
    database = Database("e15-chain")
    big1 = database.create_table("BIG1", ["A", "X"])
    big2 = database.create_table("BIG2", ["A", "B"])
    sel = database.create_table("SEL", ["B", "C"])
    big1.insert_many([(rng.randrange(a_domain), i) for i in range(size)])
    big2.insert_many([(rng.randrange(a_domain), rng.randrange(b_domain)) for _ in range(size)])
    sel.insert_many([(rng.randrange(b_domain), rng.randrange(c_domain)) for _ in range(size)])
    # Guarantee the filter matches something at every size.
    sel.insert((0, 1))
    return database


def indexed_database(size: int, seed: int) -> Database:
    """A small probe table against a big table indexed on the join key."""
    rng = random.Random(seed)
    a_domain = max(size // 2, 2)
    database = Database("e15-index")
    small = database.create_table("SMALL", ["K", "A"])
    big = database.create_table("BIG", ["A", "B"])
    small.insert_many([(i, rng.randrange(a_domain)) for i in range(64)])
    big.insert_many([(rng.randrange(a_domain), i) for i in range(size)])
    big.create_index(["A"], name="big_a")
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


def _no_index(query, database):
    return Plan(query, database, use_indexes=False).execute()


def _optimized(query, database):
    return Plan(query, database).execute()


def run_experiments(sizes=FULL_SIZES, metric=None, line=None):
    """Measure both workloads at every size, asserting plan shapes and
    index/no-index agreement."""

    def emit(op, variant, rows, seconds, **extra):
        if metric is not None:
            metric(op, seconds, variant=variant, rows=rows, **extra)

    for size in sizes:
        # -- (a) 3-range join reordering -------------------------------------
        database = chain_database(size, seed=size)
        query = compile_query(CHAIN_QUERY, database).query
        engine_seconds, _ = _time(lambda: _optimized(query, database))
        emit("join_reorder_3way", "engine", size, engine_seconds)

        # The optimizer really did start from the selective range.
        plan = Plan(query, database)
        plan.execute()
        joins = [step for step in plan.steps if "join with" in step]
        assert "sel." in joins[0], plan.explain()

        # -- (b) repeated queries reusing a persistent index ------------------
        database = indexed_database(size, seed=size + 1)
        query = compile_query(INDEX_QUERY, database).query

        def repeat_no_index():
            answers = [_no_index(query, database) for _ in range(REPEATS)]
            return answers[-1]

        def repeat_optimized():
            answers = [_optimized(query, database) for _ in range(REPEATS)]
            return answers[-1]

        hash_seconds, hash_answer = _time(repeat_no_index)
        engine_seconds, engine_answer = _time(repeat_optimized)
        assert engine_answer == hash_answer
        emit("index_reuse_repeated", "no_index", size, hash_seconds, repeats=REPEATS)
        emit("index_reuse_repeated", "engine", size, engine_seconds, repeats=REPEATS,
             speedup=round(hash_seconds / engine_seconds, 2))

        # The optimized plan probes the live index instead of re-bucketing.
        plan = Plan(query, database)
        plan.execute()
        assert any("index-nested-loop join" in step and "big_a" in step
                   for step in plan.steps), plan.explain()

        if line is not None:
            line(f"n={size}: reorder plan starts at sel; index/no-index "
                 f"answers identical (metrics in results.json)")


# ---------------------------------------------------------------------------
# pytest entry point (quick smoke + agreement assertions)
# ---------------------------------------------------------------------------

def test_optimizer_vs_baseline_quick(record):
    """Quick-mode sweep: asserts plan shapes and agreement, records metrics."""
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

    recorder = conftest.ExperimentRecorder("e15_cost_optimizer")
    run_experiments(sizes=sizes, metric=recorder.metric, line=recorder.line)

    results_path = os.path.join(here, "results.json")
    conftest.write_results_json(results_path)

    metrics = conftest._METRICS["e15_cost_optimizer"]
    by_key = {(m["op"], m["variant"], m["rows"]): m for m in metrics}
    print(f"{'op':<22} {'rows':>6} {'no-index s':>10} {'engine s':>10} {'speedup':>8}")
    for op in ("join_reorder_3way", "index_reuse_repeated"):
        for size in sizes:
            engine = by_key.get((op, "engine", size))
            if engine is None:
                continue
            no_index = by_key.get((op, "no_index", size))
            if no_index is None:
                print(f"{op:<22} {size:>6} {'-':>10} {engine['seconds']:>10.4f}")
            else:
                print(
                    f"{op:<22} {size:>6} {no_index['seconds']:>10.4f} "
                    f"{engine['seconds']:>10.4f} "
                    f"{no_index['seconds'] / engine['seconds']:>7.1f}x"
                )
    print(f"\nwrote {results_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
