"""The three workloads: point_read, analytic and txn_write.

Each is a closed loop: every caller waits for its reply before it sends
the next operation.  ``run_<workload>(seed, seconds, trace, scratch,
children)`` returns a :class:`Outcome` with the metrics :mod:`run`
prints; *scratch* is the run's private directory and *children* tracks
the server processes it starts.

Untraced runs set the workload up :data:`SETUPS` times (the median is
``setup_s``), warm up, and measure for *seconds*; inside the measured
window every caller times the pace probe of :mod:`harness` between its
operations, at most every ``PROBE_EVERY_S``.  A traced run measures
twice for *seconds*/2 each: once untraced, then with the layer wrappers
of :mod:`tracing` installed in the process that holds the database; the
second phase gives the per-layer metrics and the ratio of the two
throughputs gives ``trace.overhead_frac``.
"""

from __future__ import annotations

import gc
import json
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import datasets
import layers
import tracing
from harness import (PROBE_EVERY_S, Sample, pace, paced, peak_rss_mb, percentile, probe,
                     rss_mb, stream_digest, tail_percentile, window_figures)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: Seconds of load before the measured window opens (caches fill).
WARMUP_S = 1.0
CHILD_READY_TIMEOUT_S = 120.0
CHILD_REPLY_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 60.0


class Outcome:
    """What one run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: name → (value, unit, sample count or None)
        self.metrics: Dict[str, Tuple[float, str, Optional[int]]] = {}
        #: Workload-specific end-to-end figures that are printed, not gated.
        self.extra: Dict[str, Tuple[float, str, Optional[int]]] = {}
        self.notes: List[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# Server child processes
# ---------------------------------------------------------------------------

class ServerChild:
    """A server process (see ``server_child.py``); ``setup_s`` is the wall
    time from spawning it to its ready line."""

    def __init__(self, workload: str, seed: int, directory: Optional[str] = None,
                 trace: bool = False):
        command = [sys.executable, str(HERE / "server_child.py"), workload, str(seed)]
        if directory is not None:
            command += ["--dir", directory]
        if trace:
            command.append("--trace")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            ready = self._read(CHILD_READY_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.port = ready["port"]

    def _read(self, timeout: float) -> Dict[str, Any]:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError(
                f"server child exited or stalled (exit code {self.proc.poll()})"
            )
        return json.loads(line)

    def ask(self, command: str) -> Dict[str, Any]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read(CHILD_REPLY_TIMEOUT_S)

    def stop(self) -> None:
        """End of input makes the child stop its server and exit."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Children:
    """Every child this run started, so :mod:`run` can reap them all."""

    def __init__(self):
        self.live: List[ServerChild] = []

    def start(self, *args, **kwargs) -> ServerChild:
        child = ServerChild(*args, **kwargs)
        self.live.append(child)
        return child

    def reap(self) -> None:
        while self.live:
            self.live.pop().kill()


def scrape(port: int) -> Dict[Tuple[str, tuple], float]:
    from repro.obs import parse_prometheus
    from repro.server import ServerClient

    with ServerClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S) as client:
        return parse_prometheus(client.metrics())


# ---------------------------------------------------------------------------
# The closed loop over HTTP
# ---------------------------------------------------------------------------

class LoopResult:
    def __init__(self):
        #: The operations inside the measured window.
        self.samples: List[Sample] = []
        #: When the measured window opened.
        self.t0_ns = 0
        #: (op id, start ns, end ns, kind) of every operation.
        self.ops: List[Tuple[Optional[str], int, int, str]] = []
        #: Operations each caller completed, in stream order.
        self.executed: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.requests = 0
        self.rows_out = 0
        self.problems: List[str] = []
        self.errors: List[BaseException] = []
        #: Pace probes timed inside the measured window, and the resident
        #: set size (MiB) of the process holding the database at each.
        self.probes: List[float] = []
        self.rss: List[float] = []

    def note(self, problem: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(problem)


def http_loop(port: int, pid: int, streams: Sequence[Sequence[Any]], operation: Callable,
              warmup: float, seconds: float, tag_ops: bool) -> LoopResult:
    """One closed-loop caller per stream, each on its own connection to
    the server process *pid*.
    ``operation(client, item, op id or None, tally)`` performs one
    operation, adds its requests, rows and problems to the caller's
    *tally* (a :class:`LoopResult`), and returns ``(kind, ok)``."""
    from repro.server import ServerClient

    result = LoopResult()
    result.executed = [0] * len(streams)
    tallies = [LoopResult() for _ in streams]
    barrier = threading.Barrier(len(streams) + 1)
    window = {}

    def caller(index: int, stream: Sequence[Any]) -> None:
        tally = tallies[index]
        try:
            with ServerClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S) as client:
                barrier.wait()
                t0_ns, deadline_ns = window["t0"], window["deadline"]
                probed_ns = 0
                for position, item in enumerate(stream):
                    now = time.perf_counter_ns()
                    if now >= deadline_ns:
                        break
                    if now >= t0_ns and now - probed_ns >= PROBE_EVERY_S * 1e9:
                        tally.probes.append(probe())
                        tally.rss.append(rss_mb(pid))
                        probed_ns = now
                    op_id = f"{index}-{position}" if tag_ops else None
                    start = time.perf_counter_ns()
                    kind, ok = operation(client, item, op_id, tally)
                    end = time.perf_counter_ns()
                    result.executed[index] = position + 1
                    tally.ops.append((op_id, start, end, kind))
                    tally.failed += not ok
                    if start >= t0_ns and end <= deadline_ns:
                        tally.samples.append(
                            Sample(kind, (end - start) / 1e9, end, index, position))
                else:
                    raise RuntimeError("operation stream exhausted before the deadline")
        except Exception as error:  # reported with the run's problems
            tally.errors.append(error)

    threads = [threading.Thread(target=caller, args=(i, s), daemon=True)
               for i, s in enumerate(streams)]
    for thread in threads:
        thread.start()
    begin = time.perf_counter_ns()
    window["t0"] = begin + int(warmup * 1e9)
    window["deadline"] = window["t0"] + int(seconds * 1e9)
    result.t0_ns = window["t0"]
    barrier.wait(timeout=CLIENT_TIMEOUT_S)
    for thread in threads:
        thread.join(timeout=warmup + seconds + 2 * CLIENT_TIMEOUT_S)
        if thread.is_alive():
            result.errors.append(RuntimeError("a client thread did not finish"))
    for tally in tallies:
        for field in ("samples", "ops", "problems", "errors", "probes", "rss"):
            getattr(result, field).extend(getattr(tally, field))
        result.failed += tally.failed
        result.requests += tally.requests
        result.rows_out += tally.rows_out
    result.attempted = len(result.ops)
    return result


class Phase:
    """One measured phase against a server child."""

    def __init__(self, child: "ServerChild", streams, operation: Callable,
                 length: float, tagged: bool, scratch: Path):
        counts_before = child.ask("counts") if tagged else {}
        self.before = scrape(child.port)
        self.loop = http_loop(child.port, child.proc.pid, streams, operation, WARMUP_S,
                              length, tagged)
        self.after = scrape(child.port)
        self.rss = child.ask("rss")["rss_mb"]
        self.spans: list = []
        self.counts: Dict[str, int] = {}
        if tagged:
            counts = child.ask("counts")
            self.counts = {name: value - counts_before.get(name, 0)
                           for name, value in counts.items()}
            path = scratch / f"spans-{child.proc.pid}.json"
            child.ask(f"dump {path}")
            with open(path, encoding="utf-8") as handle:
                self.spans = json.load(handle)
            path.unlink()


def post(client, body: Dict[str, Any], op_id: Optional[str], path: str = "/statements"):
    if op_id is not None:
        body["op"] = op_id
    return client.request("POST", path, body)


def expected_point_rows(value) -> List[Dict[str, Any]]:
    v, w = value
    return [] if v is None and w is None else [{"a_V": v, "a_W": w}]


# ---------------------------------------------------------------------------
# point_read
# ---------------------------------------------------------------------------

def run_point_read(seed: int, seconds: float, trace: bool, scratch: Path,
                   children: Children) -> Outcome:
    outcome = Outcome()
    model = {k: (v, w) for k, _g, v, w in datasets.acct_rows(datasets.POINT_ROWS, seed)}
    streams = [datasets.point_keys(seed, c) for c in range(datasets.CONNECTIONS)]
    outcome.notes.append(f"stream digest {stream_digest(k for s in streams for k in s)}")

    def operation(client, key, op_id, tally):
        status, payload = post(client, {"statement": datasets.POINT_TEXT,
                                        "params": {"k": key}}, op_id)
        tally.requests += 1
        ok = status == 200 and payload["rows"] == expected_point_rows(model[key])
        if ok:
            tally.rows_out += len(payload["rows"])
        else:
            tally.note(f"k={key}: HTTP {status} {payload!r:.200}")
        return "read", ok

    if not trace:
        setups = []
        for index in range(SETUPS):
            child = children.start("point_read", seed)
            setups.append(child.setup_s)
            if index < SETUPS - 1:
                child.stop()
        run = Phase(child, streams, operation, seconds, False, scratch)
        child.stop()
        absorb(outcome, run.loop)
        end_to_end(outcome, setups, run.loop, run.rss)
        report_latency(outcome.extra, "p99_ms",
                       [sample.seconds for sample in run.loop.samples], 99.0)
        hits = layers.counter_diff(run.before, run.after, "repro_result_cache_total",
                                   event="hit")
        lookups = hits + layers.counter_diff(run.before, run.after,
                                             "repro_result_cache_total", event="miss")
        outcome.notes.append(f"result cache hits {hits:.0f}/{lookups:.0f} lookups")
        return outcome

    child = children.start("point_read", seed)
    plain = Phase(child, streams, operation, seconds / 2, False, scratch)
    child.stop()
    child = children.start("point_read", seed, trace=True)
    traced = Phase(child, streams, operation, seconds / 2, True, scratch)
    child.stop()
    absorb(outcome, plain.loop)
    absorb(outcome, traced.loop)
    outcome.metrics.update(layers.per_layer(
        spans=traced.spans, loop=traced.loop, before=traced.before, after=traced.after,
        counts=traced.counts, overhead_frac=overhead(plain.loop, traced.loop),
    ))
    return outcome


# ---------------------------------------------------------------------------
# txn_write
# ---------------------------------------------------------------------------

def run_txn_write(seed: int, seconds: float, trace: bool, scratch: Path,
                  children: Children) -> Outcome:
    outcome = Outcome()
    rows = datasets.acct_rows(datasets.TXN_ROWS, seed)
    streams = [datasets.txn_stream(seed, c, rows) for c in range(datasets.CONNECTIONS)]
    outcome.notes.append(f"stream digest {stream_digest(t for s in streams for t in s)}")

    def operation(client, txn, op_id, tally):
        kind = "rollback" if txn.rollback else "commit"
        problems = []

        def call(body, path="/statements", affected=None):
            status, payload = post(client, body, op_id, path)
            tally.requests += 1
            if status != 200 or (affected is not None
                                 and payload.get("rows_affected") != affected):
                problems.append(f"{body}: HTTP {status} {payload!r:.200}")
            return payload

        call({"action": "begin"}, "/transactions")
        payload = call({"statement": datasets.POINT_TEXT, "params": {"k": txn.read_key}})
        if payload.get("rows") != expected_point_rows(txn.read_expect):
            problems.append(f"read k={txn.read_key}: {payload!r:.200}")
        else:
            tally.rows_out += len(payload["rows"])
        key, value = txn.replace
        call({"statement": datasets.REPLACE_TEXT, "params": {"k": key, "v": value}},
             affected=1)
        k, g, v, w = txn.append
        call({"statement": datasets.APPEND_TEXT,
              "params": {"k": k, "g": g, "v": v, "w": w}}, affected=1)
        if txn.delete is not None:
            call({"statement": datasets.DELETE_TEXT, "params": {"k": txn.delete}},
                 affected=1)
        call({"action": kind}, "/transactions")
        if problems:
            tally.note(f"txn {txn.index}: {problems[0]}")
        return kind, not problems

    def phase(length: float, tagged: bool, label: str):
        """Set up, run, SIGKILL the server, then recover and check."""
        directory = scratch / f"txn-{label}"
        child = children.start("txn_write", seed, directory=str(directory), trace=tagged)
        try:
            run = Phase(child, streams, operation, length, tagged, scratch)
        finally:
            child.kill()  # recovery sees only what the server flushed
        run.setup_s = child.setup_s
        run.recovery_s, run.recovered = recover_and_check(
            directory, rows, streams, run.loop, outcome)
        shutil.rmtree(directory, ignore_errors=True)
        return run

    if not trace:
        setups = []
        for index in range(SETUPS - 1):
            directory = scratch / f"txn-setup{index}"
            child = children.start("txn_write", seed, directory=str(directory))
            setups.append(child.setup_s)
            child.stop()
            shutil.rmtree(directory, ignore_errors=True)
        run = phase(seconds, False, "run")
        setups.append(run.setup_s)
        loop = run.loop
        absorb(outcome, loop)
        end_to_end(outcome, setups, loop, run.rss)
        for kind in ("commit", "rollback"):
            report_latency(outcome.extra, f"{kind}_p50_ms",
                           [s.seconds for s in loop.samples if s.kind == kind], 50.0)
        report_latency(outcome.extra, "commit_p90_ms",
                       [s.seconds for s in loop.samples if s.kind == "commit"], 90.0)
        wal_bytes = layers.counter_diff(run.before, run.after, "repro_wal_bytes_total")
        outcome.extra["wal_bytes_per_txn"] = (
            wal_bytes / max(1, len(loop.ops)), "bytes", len(loop.ops))
        outcome.extra["recovery_s"] = (run.recovery_s, "s", run.recovered)
        return outcome

    plain = phase(seconds / 2, False, "plain")
    traced = phase(seconds / 2, True, "traced")
    absorb(outcome, plain.loop)
    absorb(outcome, traced.loop)
    outcome.metrics.update(layers.per_layer(
        spans=traced.spans, loop=traced.loop, before=traced.before, after=traced.after,
        counts=traced.counts,
        overhead_frac=overhead(plain.loop, traced.loop),
        recovered_records=traced.recovered,
    ))
    return outcome


def recover_and_check(directory: Path, rows, streams, loop: LoopResult,
                      outcome: Outcome) -> Tuple[float, int]:
    """Time ``Database.open`` on the killed server's directory and compare
    the recovered ACCT with the model of the committed transactions.
    Returns (seconds, records replayed)."""
    from repro.core.nulls import is_ni
    from repro.obs import get_registry, parse_prometheus
    from repro.storage.database import Database

    before = parse_prometheus(get_registry().render_prometheus())
    started = time.perf_counter()
    database = Database.open(str(directory), "recovered", sync="commit", group_commit=True)
    recovery_s = time.perf_counter() - started
    try:
        replayed = layers.counter_diff(
            before, parse_prometheus(database.metrics.render_prometheus()),
            "repro_wal_recovered_records_total")
        expected = datasets.apply_committed(rows, streams, loop.executed)
        recovered = {
            row["K"]: tuple(None if is_ni(row.get(a)) else row.get(a)
                            for a in ("G", "V", "W"))
            for row in database.table("ACCT").rows()
        }
        if recovered != expected:
            missing = len(set(expected) - set(recovered))
            extra = len(set(recovered) - set(expected))
            changed = sum(1 for k in set(expected) & set(recovered)
                          if expected[k] != recovered[k])
            outcome.fail(f"recovered state differs: {missing} missing, "
                         f"{extra} extra, {changed} changed rows")
    finally:
        database.wal.close()
    return recovery_s, int(replayed)


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

def build_analytic(tables, registry=None):
    from repro.storage.database import Database

    database = Database("analytic", metrics=registry)
    for name, (attributes, rows) in tables.items():
        database.create_table(name, list(attributes)).insert_many(rows)
    database.analyze()
    return database


def run_analytic(seed: int, seconds: float, trace: bool, scratch: Path,
                 children: Children) -> Outcome:
    import repro
    from repro.obs import MetricsRegistry, parse_prometheus

    outcome = Outcome()
    tables = datasets.analytic_tables(seed)
    stream = datasets.analytic_stream(seed)
    outcome.notes.append(f"stream digest {stream_digest(stream)}")
    remaining = iter(enumerate(stream))

    def phase(database, length: float, tracer: Optional[tracing.Tracer]):
        """Warm up on one statement of each shape, then run the stream
        for *length* seconds.  Answers are kept for checking afterwards."""
        session = repro.connect(database)
        loop = LoopResult()
        answers = []
        before = parse_prometheus(database.metrics.render_prometheus())
        counts_before = tracer.counts() if tracer is not None else {}
        warmup = len(datasets.SHAPES)
        deadline_ns = None
        probed_ns = 0
        for position, (shape, params) in remaining:
            if warmup == 0:
                now = time.perf_counter_ns()
                if deadline_ns is None:
                    loop.t0_ns, deadline_ns = now, now + int(length * 1e9)
                elif now >= deadline_ns:
                    break
                if now - probed_ns >= PROBE_EVERY_S * 1e9:
                    loop.probes.append(probe())
                    loop.rss.append(rss_mb())
                    probed_ns = now
            op_id = f"0-{position}" if tracer is not None else None
            token = tracer.begin_op(op_id) if tracer is not None else None
            start = time.perf_counter_ns()
            try:
                rows = session.execute(datasets.SHAPES[shape], params).rows
            finally:
                end = time.perf_counter_ns()
                if token is not None:
                    tracer.end_op(token)
            loop.ops.append((op_id, start, end, shape))
            loop.rows_out += len(rows)
            answers.append((shape, params, Answer(rows)))
            rows = None
            if warmup:
                warmup -= 1
            elif end <= deadline_ns:
                loop.samples.append(Sample(shape, (end - start) / 1e9, end, 0, position))
        else:
            outcome.fail("analytic stream exhausted before the deadline")
        loop.attempted = loop.requests = len(loop.ops)
        after = parse_prometheus(database.metrics.render_prometheus())
        counts = tracer.counts() if tracer is not None else {}
        counts = {name: counts[name] - counts_before.get(name, 0) for name in counts}
        rss = peak_rss_mb()
        session.close()
        return loop, answers, before, after, counts, rss

    if not trace:
        setups = []
        database = None
        for _ in range(SETUPS):
            database = None
            gc.collect()
            started = time.perf_counter()
            database = build_analytic(tables, MetricsRegistry())
            setups.append(time.perf_counter() - started)
        loop, answers, _, _, _, rss = phase(database, seconds, None)
        absorb(outcome, loop)
        end_to_end(outcome, setups, loop, rss)
        for shape in datasets.SHAPES:
            report_latency(outcome.extra, f"{shape}_p50_ms",
                           [s.seconds for s in loop.samples if s.kind == shape], 50.0)
        check_analytic(database, tables, answers, outcome)
    else:
        database = build_analytic(tables, MetricsRegistry())
        loop_a, answers, _, _, _, _ = phase(database, seconds / 2, None)
        check_analytic(database, tables, answers, outcome)
        database = answers = None
        gc.collect()
        tracer = tracing.Tracer()
        tracing.install_layer_spans(tracer)
        database = build_analytic(tables, MetricsRegistry())
        loop_b, answers, before, after, counts, _ = phase(database, seconds / 2, tracer)
        absorb(outcome, loop_a)
        absorb(outcome, loop_b)
        outcome.metrics.update(layers.per_layer(
            spans=tracer.spans, loop=loop_b, before=before, after=after,
            counts=counts, overhead_frac=overhead(loop_a, loop_b),
        ))
        check_analytic(database, tables, answers, outcome)
    check_join3_small(seed, stream, outcome)
    return outcome


def item_set(rows) -> set:
    return {row.items() for row in rows}


class Answer:
    """A statement's answer kept for checking after the run: its size and
    a hash of its rows, so the run does not hold every answer's rows (the
    peak memory it reports is the database's, not the checker's)."""

    __slots__ = ("size", "digest")

    def __init__(self, rows):
        self.size = len(rows)
        self.digest = hash(frozenset(row.items() for row in rows))

    def matches(self, expected: set) -> bool:
        return self.size == len(expected) and self.digest == hash(frozenset(expected))


def check_analytic(database, tables, answers, outcome: Outcome) -> None:
    """Every answer against the benchmark's own reference for its shape.
    The reference for the first scan_eq and reduce statement is checked in
    turn against the tuple-at-a-time oracle (which takes longer than the
    statement, so it is not run on every one)."""
    references = {
        "scan_eq": lambda p: datasets.scan_eq_reference(tables, p["x"]),
        "reduce": lambda p: datasets.reduce_reference(tables, p["k"]),
        "join3": lambda p: {(("r_A", a), ("s_Q", q), ("t_D", d))
                            for a, q, d in datasets.join3_reference(tables, **p)},
    }
    unchecked = {"scan_eq", "reduce"}
    for shape, params, answer in answers:
        expected = references[shape](params)
        if shape in unchecked:
            unchecked.discard(shape)
            oracle = item_set(database.query(datasets.SHAPES[shape], params,
                                             strategy="tuple").rows)
            if oracle != expected:
                outcome.fail(f"{shape} {params}: the oracle has {len(oracle)} rows, "
                             f"the reference {len(expected)}")
        if not answer.matches(expected):
            outcome.failed += 1
            outcome.fail(f"{shape} {params}: {answer.size} rows, expected {len(expected)}")


def check_join3_small(seed: int, stream, outcome: Outcome) -> None:
    """join3 on a 60-row instance: planner, oracle and the reference agree."""
    import repro

    tables = datasets.analytic_tables(seed, wide_rows=0, join_rows=60)
    database = build_analytic(tables)
    params = next(p for shape, p in stream if shape == "join3")
    text = datasets.SHAPES["join3"]
    planned = item_set(repro.connect(database).execute(text, params).rows)
    oracle = item_set(database.query(text, params, strategy="tuple").rows)
    reference = {(("r_A", a), ("s_Q", q), ("t_D", d))
                 for a, q, d in datasets.join3_reference(tables, **params)}
    if not planned == oracle == reference:
        outcome.fail(f"join3 small instance {params}: planner {len(planned)}, "
                     f"oracle {len(oracle)}, reference {len(reference)} rows")


# ---------------------------------------------------------------------------
# Shared reporting
# ---------------------------------------------------------------------------

def absorb(outcome: Outcome, loop: LoopResult) -> None:
    outcome.attempted += loop.attempted
    outcome.failed += loop.failed
    for problem in loop.problems:
        outcome.fail(problem)
    for error in loop.errors:
        outcome.failed += 1
        outcome.fail(f"client error: {error!r}")


def figures(loop: LoopResult) -> Tuple[float, float, float]:
    """``(ops/s, mean, p90)`` over every operation of the measured window;
    the rate is over the time from the first of them starting to the last
    ending."""
    first = min(sample.end_ns - sample.seconds * 1e9 for sample in loop.samples)
    last = max(sample.end_ns for sample in loop.samples)
    return window_figures([sample.seconds for sample in loop.samples], (last - first) / 1e9)


def overhead(plain: LoopResult, traced: LoopResult) -> float:
    """The share of paced throughput the tracing costs."""
    return 1.0 - (paced(figures(traced), pace(traced.probes))[0]
                  / paced(figures(plain), pace(plain.probes))[0])


def report_latency(into: Dict, name: str, latencies: Sequence[float], pct: float) -> None:
    if latencies:
        into[name] = (percentile(latencies, pct) * 1000.0, "ms", len(latencies))


def end_to_end(outcome: Outcome, setups: Sequence[float], loop: LoopResult,
               rss: float) -> None:
    """The gated end-to-end metrics, with the window's timings paced (see
    :func:`harness.paced`); the figures as measured, the median, the pace
    and the peak resident set size (*rss*) are reported beside them.

    Memory is gated as the 90th percentile of the resident set size
    sampled at every probe: the txn_write server's peak read about a fifth
    higher in three runs of ten than in the rest, in a spike that sampling
    every quarter second did not see, so the peak is reported only."""
    if not loop.samples or not loop.probes:
        outcome.fail("no operation or probe completed in the measured window")
        return
    measured = figures(loop)
    factor = pace(loop.probes)
    ops, mean, p90 = paced(measured, factor)
    latencies = [sample.seconds for sample in loop.samples]
    metrics = outcome.metrics
    metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
    metrics["paced_ops_per_s"] = (ops, "1/s", len(latencies))
    metrics["paced_mean_ms"] = (mean * 1000.0, "ms", len(latencies))
    metrics["paced_p90_ms"] = (p90 * 1000.0, "ms", len(latencies))
    metrics["rss_p90_mb"] = (percentile(loop.rss, 90.0), "MiB", len(loop.rss))
    extra = outcome.extra
    extra["peak_rss_mb"] = (rss, "MiB", None)
    extra["pace"] = (factor, "ratio", len(loop.probes))
    extra["ops_per_s"] = (measured[0], "1/s", len(latencies))
    extra["mean_ms"] = (measured[1] * 1000.0, "ms", len(latencies))
    report_latency(extra, "p50_ms", latencies, 50.0)
    extra["p90_ms"] = (measured[2] * 1000.0, "ms", len(latencies))
    tail = tail_percentile(latencies)
    if tail is not None:
        pct, value, over = tail
        outcome.notes.append(
            f"tail: p{pct:g} = {value * 1000:.3f} ms over {len(latencies)} samples "
            f"({over} beyond it)")


RUNNERS = {
    "point_read": run_point_read,
    "analytic": run_analytic,
    "txn_write": run_txn_write,
}
