"""E20 — durability: WAL overhead, checkpointing, and recovery replay.

The write-ahead-log PR makes every bulk entry point log a replayable
record before applying.  This benchmark quantifies what that costs and
what recovery buys:

* **bulk load overhead** — the same keyed bulk load against three
  configurations: no WAL attached (the in-memory baseline),
  ``sync="none"`` (log buffered, flushed by the OS / checkpoints) and
  ``sync="commit"`` (fsync at every autocommit boundary).  The logical
  log appends one record per *statement* — a 10k-row ``insert_many`` is
  one frame — so the ``sync="none"`` overhead is essentially the pickle
  + CRC of the row batch and must stay small (the full sweep asserts
  ≤ 30%);
* **checkpoint** — serialising the whole database (rows + index defs +
  statistics) into ``checkpoint.bin`` and truncating the log;
* **recovery replay** — ``Database.open`` on a crash-copy of the
  directory (log only, no final checkpoint): read + checksum + replay of
  the whole logical log.  Every recovery measurement first asserts the
  recovered rows, index specs and statistics equal the live oracle's;
* **rollback vs size** — the begin + rollback time of a one-row
  transaction (the append between them is not timed) on an indexed,
  unkeyed table of growing size, in memory and durable
  (``sync="commit"``), with the log bytes each rollback appends.
  Rollback replays the group's undo log, so its cost follows what the
  group wrote, not what the table holds: the full sweep asserts the
  time at the largest size is at most 3× the time at the smallest, and
  every sweep asserts a rollback appends under 2 KB of log.

Run styles:

* under pytest (quick sizes, used by CI as a smoke test):
  ``PYTHONPATH=src python -m pytest benchmarks/bench_e20_durability.py -q``
* standalone (full sweep, writes results.json):
  ``PYTHONPATH=src python benchmarks/bench_e20_durability.py``
  (pass ``--quick`` for the small sweep).
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import tempfile
import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.constraints.keys import KeyConstraint
from repro.storage.database import Database

FULL_SIZES = (1_000, 10_000)
QUICK_SIZES = (200, 500)
DOMAIN_SIZE = 64
#: The full sweep enforces the PR's overhead budget for the buffered log.
MAX_SYNC_NONE_OVERHEAD = 0.30
FULL_COMMIT_THREADS = (8, 50)   # (threads, commits per thread)
QUICK_COMMIT_THREADS = (4, 15)
FULL_ROLLBACK_SIZES = (1_000, 10_000, 50_000)
QUICK_ROLLBACK_SIZES = (1_000, 5_000)
ROLLBACK_REPEATS = 30
#: Rollback time at the largest size over the smallest (full sweep).
MAX_ROLLBACK_GROWTH = 3.0
#: Log bytes one one-row rollback may append (begin + append + its
#: compensating remove + abort).
MAX_ROLLBACK_WAL_BYTES = 2048


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------

def keyed_rows(count: int, seed: int) -> List[Tuple]:
    rng = random.Random(seed)
    return [
        (i, rng.randrange(DOMAIN_SIZE), rng.randrange(DOMAIN_SIZE))
        for i in range(count)
    ]


def make_database(directory: Optional[str], sync: str = "none") -> Database:
    """A KEYED table (key on K, index on A), durable when *directory* set."""
    database = Database.open(directory, sync=sync) if directory else Database("e20")
    database.create_table(
        "KEYED", ["K", "A", "B"], constraints=[KeyConstraint(["K"])]
    )
    database.table("KEYED").create_index(["A"])
    return database


def crash_copy(source: str, target: str) -> None:
    """The durable files exactly as a crash would leave them."""
    if os.path.exists(target):
        shutil.rmtree(target)
    shutil.copytree(source, target)


def oracle_state(database: Database):
    table = database.table("KEYED")
    return (
        frozenset(table.rows()),
        dict(table.index_specs()),
        table.statistics.copy(),
    )


def assert_recovered(recovered: Database, oracle) -> None:
    rows, indexes, statistics = oracle
    table = recovered.table("KEYED")
    assert frozenset(table.rows()) == rows
    assert dict(table.index_specs()) == indexes
    assert table.statistics == statistics


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------

def _time(fn: Callable[[], object]) -> Tuple[float, object]:
    """Best of three wall-clock runs."""
    best = float("inf")
    value = None
    for _ in range(3):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def run_experiments(sizes=FULL_SIZES, metric=None, line=None,
                    enforce_overhead=False):
    """Measure load/checkpoint/recovery at every size, verifying recovery
    against the live oracle each time."""

    def emit(op, variant, rows, seconds, **extra):
        if metric is not None:
            metric(op, seconds, variant=variant, rows=rows, **extra)

    root = tempfile.mkdtemp(prefix="bench-e20-")
    try:
        for size in sizes:
            rows = keyed_rows(size, seed=size)

            # -- bulk load: baseline vs WAL sync modes ----------------------
            def durable_dir(tag):
                path = os.path.join(root, f"{tag}-{size}")
                if os.path.exists(path):
                    shutil.rmtree(path)
                return path

            def timed_load(factory):
                """Database construction and teardown stay off the clock —
                the metric is the incremental cost of logging the load."""
                best = float("inf")
                for _ in range(3):
                    database = factory()
                    start = time.perf_counter()
                    database.insert_many("KEYED", rows)
                    best = min(best, time.perf_counter() - start)
                    if database.wal is not None:
                        database.wal.close()
                return best

            baseline_seconds = timed_load(lambda: make_database(None))
            none_seconds = timed_load(
                lambda: make_database(durable_dir("none"), "none")
            )
            commit_seconds = timed_load(
                lambda: make_database(durable_dir("commit"), "commit")
            )
            overhead = none_seconds / baseline_seconds - 1.0
            emit("bulk_load", "baseline", size, baseline_seconds)
            emit("bulk_load", "wal_none", size, none_seconds,
                 overhead=round(overhead, 3))
            emit("bulk_load", "wal_commit", size, commit_seconds,
                 overhead=round(commit_seconds / baseline_seconds - 1.0, 3))
            if enforce_overhead:
                assert overhead <= MAX_SYNC_NONE_OVERHEAD, (
                    f"sync='none' bulk-load overhead {overhead:.1%} exceeds "
                    f"the {MAX_SYNC_NONE_OVERHEAD:.0%} budget at n={size}"
                )
            if line is not None:
                line(
                    f"n={size}: bulk load {baseline_seconds * 1000:.1f}ms bare, "
                    f"+{overhead:.1%} with buffered WAL, "
                    f"+{commit_seconds / baseline_seconds - 1.0:.1%} with fsync-per-commit"
                )

            # -- checkpoint ------------------------------------------------
            source = durable_dir("replay")
            database = make_database(source, sync="none")
            database.insert_many("KEYED", rows)
            database.delete_many("KEYED", [{"K": k} for k in range(0, size, 7)])
            database.table("KEYED").analyze()
            database.wal.flush()
            oracle = oracle_state(database)
            checkpoint_dir = durable_dir("ckpt")
            ckpt = make_database(checkpoint_dir, sync="none")
            ckpt.insert_many("KEYED", rows)
            ckpt_seconds, _ = _time(lambda: ckpt.wal.checkpoint(ckpt))
            emit("checkpoint", "full", size, ckpt_seconds)
            ckpt.close()

            # -- recovery replay of the whole logical log --------------------
            def recover():
                target = os.path.join(root, f"recover-{size}")
                crash_copy(source, target)
                return Database.open(target, name="recovered")

            recover_seconds, recovered = _time(recover)
            assert_recovered(recovered, oracle)
            recovered.close()
            database.close()
            emit("recovery_replay", "log_tail", size, recover_seconds,
                 statements=3)
            if line is not None:
                line(
                    f"n={size}: checkpoint {ckpt_seconds * 1000:.1f}ms, "
                    f"log-replay recovery {recover_seconds * 1000:.1f}ms "
                    f"(recovered state verified against the live oracle)"
                )
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# Group commit (concurrent-network-service PR delta)
# ---------------------------------------------------------------------------

def run_group_commit(shape=FULL_COMMIT_THREADS, metric=None, line=None,
                     enforce=False):
    """Concurrent autocommit writers against ``sync="commit"``, with and
    without group commit.

    Without it every depth-0 commit fsyncs inline under the WAL lock —
    exactly one fsync per commit.  With it the fsync moves outside the
    append+apply critical section, so a commit whose records were already
    covered by a neighbour's fsync coalesces instead of issuing its own.
    Each variant's log is recovered afterwards and checked against the
    live row set, so the cheaper fsync schedule is shown to lose nothing.
    """
    thread_count, commits_each = shape
    commits = thread_count * commits_each
    root = tempfile.mkdtemp(prefix="bench-e20-gc-")
    try:
        for variant, group_commit in (("group", True), ("inline", False)):
            path = os.path.join(root, variant)
            database = Database.open(
                path, sync="commit", group_commit=group_commit
            )
            database.create_table("GC", ["K", "V"])
            wal = database.wal
            base_fsyncs = wal.fsyncs_issued
            base_coalesced = wal.commits_coalesced
            barrier = threading.Barrier(thread_count)

            def worker(tid: int) -> None:
                barrier.wait()
                for n in range(commits_each):
                    database.insert_many(
                        "GC", [(tid * commits_each + n, tid)]
                    )

            threads = [
                threading.Thread(target=worker, args=(tid,))
                for tid in range(thread_count)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start

            fsyncs = wal.fsyncs_issued - base_fsyncs
            coalesced = wal.commits_coalesced - base_coalesced
            live_rows = frozenset(database.table("GC").rows())
            database.close()

            # every commit either issued an fsync or rode a neighbour's
            assert fsyncs + coalesced == commits, (variant, fsyncs, coalesced)
            target = os.path.join(root, f"recover-{variant}")
            crash_copy(path, target)
            recovered = Database.open(target, name="recovered")
            assert frozenset(recovered.table("GC").rows()) == live_rows
            assert len(live_rows) == commits
            recovered.close()

            per_commit = fsyncs / commits
            if metric is not None:
                metric(
                    "group_commit", elapsed, variant=variant, rows=commits,
                    threads=thread_count, fsyncs=fsyncs,
                    coalesced=coalesced,
                    fsync_per_commit=round(per_commit, 3),
                )
            if line is not None:
                line(
                    f"{commits} commits on {thread_count} threads "
                    f"[{variant}]: {fsyncs} fsyncs "
                    f"({per_commit:.2f}/commit, {coalesced} coalesced) "
                    f"in {elapsed * 1000:.1f}ms; recovery verified"
                )
            if enforce:
                if group_commit:
                    assert coalesced > 0 and per_commit < 1.0, (
                        f"group commit coalesced nothing across "
                        f"{commits} concurrent commits"
                    )
                else:
                    assert fsyncs == commits, (
                        f"inline mode issued {fsyncs} fsyncs "
                        f"for {commits} commits"
                    )
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# Rollback cost against table size
# ---------------------------------------------------------------------------

def run_rollback_vs_size(sizes=FULL_ROLLBACK_SIZES, metric=None, line=None,
                         enforce=False):
    """Median begin + rollback time of a one-row transaction, per table
    size, in memory and durable; durable runs also record the log bytes
    per rollback, and the table must be unchanged afterwards."""
    from repro.api.session import connect

    root = tempfile.mkdtemp(prefix="bench-e20-rb-")
    try:
        seconds_by_variant = {}
        for size in sizes:
            rows = keyed_rows(size, seed=size)
            for variant in ("memory", "durable"):
                # The txn_write shape: K indexed, no key constraint.  A
                # KEYED append checks its key against every stored row,
                # and that O(n) pass (off the clock) would leave the
                # caches cold for the timed rollback after it.
                database = (
                    Database.open(os.path.join(root, f"{variant}-{size}"))
                    if variant == "durable" else Database("e20")
                )
                table = database.create_table("ACCT", ["K", "A", "B"])
                table.create_index(["K"])
                database.insert_many("ACCT", rows)
                before = frozenset(table.rows())
                session = connect(database)
                append = session.prepare("append to ACCT (K = $k, A = 1, B = 1)")
                wal = database.wal
                start_bytes = wal.position() if wal is not None else 0
                samples = []
                for repeat in range(ROLLBACK_REPEATS):
                    # The append is the statement's cost, not the
                    # transaction's: it stays off the clock.
                    start = time.perf_counter()
                    txn = session.transaction().begin()
                    begun = time.perf_counter()
                    append.execute({"k": size + repeat})
                    appended = time.perf_counter()
                    txn.rollback()
                    samples.append(begun - start + time.perf_counter() - appended)
                wal_bytes = (
                    (wal.position() - start_bytes) / ROLLBACK_REPEATS
                    if wal is not None else 0.0
                )
                assert frozenset(table.rows()) == before, (variant, size)
                if wal is not None:
                    wal.close()
                samples.sort()
                median = samples[len(samples) // 2]
                seconds_by_variant.setdefault(variant, []).append(median)
                if metric is not None:
                    metric("rollback_vs_size", median, variant=variant,
                           rows=size, wal_bytes=round(wal_bytes, 1))
                if line is not None:
                    line(
                        f"n={size} [{variant}]: one-row transaction begin+rollback "
                        f"{median * 1000:.3f}ms median of {ROLLBACK_REPEATS}"
                        + (f", {wal_bytes:.0f} WAL bytes" if wal is not None else "")
                    )
                assert wal_bytes < MAX_ROLLBACK_WAL_BYTES, (
                    f"a one-row rollback appended {wal_bytes:.0f} log bytes "
                    f"at n={size}"
                )
        if enforce:
            for variant, medians in seconds_by_variant.items():
                growth = medians[-1] / medians[0]
                assert growth <= MAX_ROLLBACK_GROWTH, (
                    f"[{variant}] rollback at n={sizes[-1]} is {growth:.1f}x "
                    f"its time at n={sizes[0]} (budget {MAX_ROLLBACK_GROWTH}x)"
                )
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# pytest entry point (quick smoke + recovery verification)
# ---------------------------------------------------------------------------

def test_durability_quick(record):
    """Quick-mode sweep: verifies every recovery, records metrics.

    Timing budgets are only enforced on the standalone full sweep — CI
    shared runners are too noisy to gate on a 30% ratio."""
    run_experiments(sizes=QUICK_SIZES, metric=record.metric, line=record.line)


def test_group_commit_quick(record):
    """Quick concurrent-commit sweep; the coalescing floor is only
    enforced on the full sweep (4 threads × 15 commits may legitimately
    never overlap on a fast fsync)."""
    run_group_commit(
        shape=QUICK_COMMIT_THREADS, metric=record.metric, line=record.line
    )


def test_rollback_vs_size_quick(record):
    """Quick rollback sweep: the log-bytes bound holds at every size; the
    flat-cost ratio is only enforced on the full sweep."""
    run_rollback_vs_size(
        sizes=QUICK_ROLLBACK_SIZES, metric=record.metric, line=record.line
    )


# ---------------------------------------------------------------------------
# Standalone entry point (full sweep, writes benchmarks/results.json)
# ---------------------------------------------------------------------------

def main(argv: List[str]) -> int:
    quick = "--quick" in argv
    sizes = QUICK_SIZES if quick else FULL_SIZES

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import conftest  # the benchmark harness recorder/writer

    recorder = conftest.ExperimentRecorder("e20_durability")
    run_experiments(
        sizes=sizes,
        metric=recorder.metric,
        line=recorder.line,
        enforce_overhead=not quick,
    )
    run_group_commit(
        shape=QUICK_COMMIT_THREADS if quick else FULL_COMMIT_THREADS,
        metric=recorder.metric,
        line=recorder.line,
        enforce=not quick,
    )
    run_rollback_vs_size(
        sizes=QUICK_ROLLBACK_SIZES if quick else FULL_ROLLBACK_SIZES,
        metric=recorder.metric,
        line=recorder.line,
        enforce=not quick,
    )

    results_path = os.path.join(here, "results.json")
    conftest.write_results_json(results_path)

    metrics = conftest._METRICS["e20_durability"]
    by_key = {(m["op"], m["variant"], m["rows"]): m for m in metrics}
    print(f"{'op':<16} {'variant':<11} {'rows':>6} {'seconds':>10} {'overhead':>9}")
    for op in ("bulk_load", "checkpoint", "recovery_replay"):
        for size in sizes:
            for variant in ("baseline", "wal_none", "wal_commit", "full", "log_tail"):
                entry = by_key.get((op, variant, size))
                if entry is None:
                    continue
                overhead = entry.get("overhead")
                suffix = f"{overhead:>8.1%}" if overhead is not None else f"{'—':>8}"
                print(
                    f"{op:<16} {variant:<11} {size:>6} "
                    f"{entry['seconds']:>10.4f} {suffix}"
                )
    for entry in metrics:
        if entry["op"] != "group_commit":
            continue
        print(
            f"{'group_commit':<16} {entry['variant']:<11} {entry['rows']:>6} "
            f"{entry['seconds']:>10.4f} "
            f"{entry['fsync_per_commit']:>6.2f}fs/c"
        )
    for entry in metrics:
        if entry["op"] != "rollback_vs_size":
            continue
        print(
            f"{'rollback':<16} {entry['variant']:<11} {entry['rows']:>6} "
            f"{entry['seconds']:>10.5f} {entry['wal_bytes']:>7.0f}B"
        )
    print(f"\nwrote {results_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
