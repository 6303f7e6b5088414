"""The concurrent network service (PR 9).

Covers the tentpole surface end to end — statements with parameters,
server-side prepared handles, cursor-paged streaming, transactions over
the pinned statement gate, the error-taxonomy → HTTP mapping, overload
rejection, the ``/metrics`` scrape — plus the concurrency guarantees:
N client threads of mixed DML/retrieve are equivalent to the serial
order of their ``seq`` stamps, and a torn connection mid-cursor or
mid-transaction leaves nothing behind.
"""

import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.errors import StaleResultError
from repro.obs import MetricsRegistry, parse_prometheus, set_registry
from repro.server import (
    ReproServer,
    ServerClient,
    ServerError,
    StatementGate,
    serve,
    status_for,
)
from repro.server.http import ProtocolError
from repro.storage import Database


def wait_until(predicate, timeout=5.0, interval=0.02):
    """Poll *predicate* until true (the server notices disconnects
    asynchronously); fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


@pytest.fixture
def db():
    database = Database("served", metrics=MetricsRegistry())
    table = database.create_table("T", ["A", "B"])
    table.insert_many([(i, i % 7) for i in range(300)])
    return database


@pytest.fixture
def handle(db):
    running = serve(db)
    yield running
    running.stop()


@pytest.fixture
def client(handle):
    with ServerClient.for_handle(handle) as c:
        yield c


def server_gauges(handle):
    series = parse_prometheus(handle.server.registry.render_prometheus())
    return {
        "cursors": series.get(("repro_server_open_cursors", ()), 0),
        "connections": series.get(("repro_server_connections_open", ()), 0),
    }


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class TestStatements:
    def test_parameterized_retrieve(self, client):
        rows = client.rows(
            "range of t is T retrieve (t.B) where t.A = $a", {"a": 12}
        )
        assert rows == [{"t_B": 12 % 7}]

    def test_write_returns_rows_affected_and_seq(self, client):
        first = client.execute("append to T (A = 9001, B = 1)")
        second = client.execute("append to T (A = 9002, B = 2)")
        assert first["rows_affected"] == 1
        assert second["seq"] == first["seq"] + 1

    def test_null_param_crosses_as_ni(self, client):
        client.execute("append to T (A = $a)", {"a": 9100})
        rows = client.rows(
            "range of t is T retrieve (t.A, t.B) where t.A = 9100"
        )
        # B was never bound: the wire shows JSON null for NI.
        assert rows == [{"t_A": 9100, "t_B": None}]

    def test_negative_literals_cross_the_wire(self, client):
        client.execute("append to T (A = -1, B = -0.5)")
        expected = [{"t_A": -1, "t_B": -0.5}]
        assert client.rows(
            "range of t is T retrieve (t.A, t.B) where t.A > -5 and t.A < 0"
        ) == expected
        # The same value bound as a JSON parameter finds the same row.
        assert client.rows(
            "range of t is T retrieve (t.A, t.B) where t.A = $a", {"a": -1}
        ) == expected

    def test_retrieve_into_is_a_write(self, client):
        result = client.execute(
            "range of t is T retrieve into COPY (t.A, t.B) where t.B = 0"
        )
        assert "seq" in result  # took the exclusive path
        assert any(t["name"] == "COPY" for t in client.schema()["tables"])

    def test_missing_statement_field(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._checked("POST", "/statements", {"nope": 1})
        assert excinfo.value.status == 400


# ---------------------------------------------------------------------------
# Prepared handles
# ---------------------------------------------------------------------------

class TestPrepared:
    def test_prepare_and_execute(self, client):
        handle = client.prepare(
            "range of t is T retrieve (t.B) where t.A = $a"
        )
        assert handle.parameters == ("a",)
        assert handle.kind == "retrieve"
        assert handle.execute({"a": 3})["rows"] == [{"t_B": 3}]
        assert handle.execute({"a": 4})["rows"] == [{"t_B": 4}]

    def test_unknown_handle_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.execute_prepared("ps-nope-1")
        assert excinfo.value.status == 404

    def test_handles_are_per_connection(self, handle, client):
        prepared = client.prepare("range of t is T retrieve (t.A)")
        with ServerClient.for_handle(handle) as other:
            with pytest.raises(ServerError) as excinfo:
                other.execute_prepared(prepared.id)
            assert excinfo.value.status == 404

    def test_prepared_survives_ddl_epoch_bump(self, client):
        prepared = client.prepare(
            "range of t is T retrieve (t.B) where t.A = $a"
        )
        client.execute("append to T (A = 7777, B = 5)")  # bump stats
        assert prepared.execute({"a": 7777})["rows"] == [{"t_B": 5}]


# ---------------------------------------------------------------------------
# Cursors
# ---------------------------------------------------------------------------

class TestCursors:
    def test_paged_drain_matches_full_retrieve(self, client):
        full = client.rows("range of t is T retrieve (t.A, t.B)")
        paged = []
        for page in client.iter_pages(
            "range of t is T retrieve (t.A, t.B)", max_rows=37
        ):
            paged.extend(page.rows)
        key = lambda row: (row["t_A"], row["t_B"])
        assert sorted(paged, key=key) == sorted(full, key=key)

    def test_first_page_before_full_drain(self, client):
        page = client.open_cursor(
            "range of t is T retrieve (t.A)", max_rows=10
        )
        assert len(page.rows) == 10
        assert not page.done and page.cursor
        client.close_cursor(page.cursor)

    def test_small_result_closes_inline(self, client):
        page = client.open_cursor(
            "range of t is T retrieve (t.A) where t.A = 1", max_rows=10
        )
        assert page.done and page.cursor is None

    def test_explicit_close_then_fetch_404(self, client):
        page = client.open_cursor(
            "range of t is T retrieve (t.A)", max_rows=5
        )
        closed = client.close_cursor(page.cursor)
        assert closed["rows_served"] == 5
        with pytest.raises(ServerError) as excinfo:
            client.fetch(page.cursor)
        assert excinfo.value.status == 404

    def test_stale_cursor_is_409_retriable(self, handle, db, client):
        # An index-nested-loop join probes the inner table's live index;
        # a write between pages makes the next fetch a retriable 409.
        db.table("T").create_index(["A"], name="t_a")
        dept = db.create_table("D", ["K", "REF"])
        dept.insert_many([(i, i) for i in range(50)])
        page = client.open_cursor(
            "range of d is D range of t is T "
            "retrieve (d.K, t.B) where d.REF = t.A",
            max_rows=2,
        )
        assert not page.done
        with ServerClient.for_handle(handle) as writer:
            writer.execute("append to T (A = 8888, B = 3)")
        with pytest.raises(ServerError) as excinfo:
            client.fetch(page.cursor)
        assert excinfo.value.status == 409
        assert excinfo.value.retriable
        assert excinfo.value.error_type == "StaleResultError"


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

class TestTransactions:
    def test_commit_keeps_rollback_undoes(self, client):
        client.begin()
        client.execute("append to T (A = 5001, B = 1)")
        client.commit()
        assert client.rows("range of t is T retrieve (t.A) where t.A = 5001")
        client.begin()
        client.execute("range of t is T delete t where t.A = 5001")
        client.rollback()
        assert client.rows("range of t is T retrieve (t.A) where t.A = 5001")

    def test_double_begin_conflicts(self, client):
        client.begin()
        with pytest.raises(ServerError) as excinfo:
            client.begin()
        assert excinfo.value.status == 409
        client.rollback()

    def test_commit_without_begin_conflicts(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.commit()
        assert excinfo.value.status == 409

    def test_open_transaction_queues_other_writers(self, handle, client):
        client.begin()
        client.execute("append to T (A = 6001, B = 1)")
        outcome = {}

        def other_writer():
            with ServerClient.for_handle(handle) as other:
                outcome["seq"] = other.execute(
                    "append to T (A = 6002, B = 2)"
                )["seq"]
                outcome["done_at"] = time.monotonic()

        thread = threading.Thread(target=other_writer)
        thread.start()
        time.sleep(0.15)  # the other writer must be parked on the gate
        assert "seq" not in outcome
        committed_at = time.monotonic()
        client.commit()
        thread.join(timeout=5)
        assert outcome["done_at"] >= committed_at
        rows = client.rows(
            "range of t is T retrieve (t.A) where t.A = 6002"
        )
        assert rows == [{"t_A": 6002}]


# ---------------------------------------------------------------------------
# Error mapping and protocol robustness
# ---------------------------------------------------------------------------

class TestErrors:
    def test_status_taxonomy(self):
        from repro.core.errors import (
            ConstraintViolation,
            QuelParseError,
            SessionClosedError,
            WalError,
        )
        assert status_for(QuelParseError("x")) == (400, False)
        assert status_for(ConstraintViolation("x")) == (409, False)
        assert status_for(StaleResultError("x")) == (409, True)
        assert status_for(SessionClosedError("x")) == (410, False)
        assert status_for(WalError("x")) == (500, False)
        assert status_for(RuntimeError("x")) == (500, False)

    def test_parse_error_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.execute("retrieve ((")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "QuelParseError"

    def test_constraint_violation_409(self, db, client):
        # Key constraints come from the storage API, not QUEL DDL — build
        # the keyed table directly and violate it over the wire.
        from repro.constraints.keys import KeyConstraint

        db.create_table("KEYED", ["X", "Y"], constraints=[KeyConstraint(["X"])])
        client.execute("append to KEYED (X = 1, Y = 1)")
        with pytest.raises(ServerError) as excinfo:
            client.execute("append to KEYED (X = 1, Y = 2)")
        assert excinfo.value.status == 409
        assert not excinfo.value.retriable

    def test_unknown_endpoint_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404

    def test_overload_503(self, db):
        running = ReproServer(db, max_in_flight=0).start_in_thread()
        try:
            with ServerClient.for_handle(running) as c:
                with pytest.raises(ServerError) as excinfo:
                    c.execute("range of t is T retrieve (t.A)")
                assert excinfo.value.status == 503
                assert excinfo.value.retriable
            series = parse_prometheus(
                running.server.registry.render_prometheus()
            )
            assert series[("repro_server_rejected_overload_total", ())] >= 1
        finally:
            running.stop()

    def test_garbage_request_line_gets_400(self, handle):
        with socket.create_connection((handle.host, handle.port), timeout=5) as s:
            s.sendall(b"NOT A REQUEST\r\n\r\n")
            response = s.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_bad_json_body_400(self, handle):
        with socket.create_connection((handle.host, handle.port), timeout=5) as s:
            body = b"{not json"
            s.sendall(
                b"POST /statements HTTP/1.1\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"\r\n" + body
            )
            response = s.recv(65536)
        assert b" 400 " in response.split(b"\r\n", 1)[0]


# ---------------------------------------------------------------------------
# Torn connections
# ---------------------------------------------------------------------------

class TestTornConnections:
    def test_mid_cursor_disconnect_cleans_up(self, handle, db):
        client = ServerClient.for_handle(handle)
        page = client.open_cursor(
            "range of t is T retrieve (t.A)", max_rows=5
        )
        assert not page.done
        assert server_gauges(handle)["cursors"] == 1
        client.close()  # tear the socket with the cursor still open
        wait_until(lambda: server_gauges(handle)["cursors"] == 0)
        wait_until(lambda: server_gauges(handle)["connections"] == 0)

    def test_mid_transaction_disconnect_rolls_back_and_unpins(self, handle, db):
        client = ServerClient.for_handle(handle)
        client.begin()
        client.execute("append to T (A = 7101, B = 1)")
        client.close()  # vanish mid-group
        # The gate must unpin and the append must be rolled back; a
        # fresh writer would hang forever if the pin leaked.
        wait_until(lambda: server_gauges(handle)["connections"] == 0)
        with ServerClient.for_handle(handle) as fresh:
            fresh.execute("append to T (A = 7102, B = 2)")
            assert not fresh.rows(
                "range of t is T retrieve (t.A) where t.A = 7101"
            )
            assert fresh.rows(
                "range of t is T retrieve (t.A) where t.A = 7102"
            )


# ---------------------------------------------------------------------------
# Metrics and traces
# ---------------------------------------------------------------------------

class TestObservability:
    def test_metrics_round_trip_includes_server_families(self, client):
        client.execute("range of t is T retrieve (t.A) where t.A = 1")
        page = client.open_cursor("range of t is T retrieve (t.A)", max_rows=3)
        series = parse_prometheus(client.metrics())
        names = {name for name, _ in series}
        assert "repro_server_requests_total" in names
        assert "repro_server_request_seconds_bucket" in names
        assert "repro_server_request_seconds_count" in names
        assert "repro_server_in_flight_requests" in names
        assert "repro_server_open_cursors" in names
        assert "repro_server_connections_open" in names
        # The engine's own families render through the same scrape.
        assert "repro_statements_total" in names
        assert series[("repro_server_open_cursors", ())] == 1
        assert (
            series[
                (
                    "repro_server_requests_total",
                    (("endpoint", "/statements"), ("status", "200")),
                )
            ]
            >= 2
        )
        client.close_cursor(page.cursor)

    def test_traces_carry_client_and_request_tags(self, handle, client):
        client.execute("range of t is T retrieve (t.A) where t.A = 2")
        (connection, _writer), = handle.server._connections
        trace = connection.session.recent_traces()[-1]
        assert trace.tags["client"] == connection.id
        assert trace.tags["request"].startswith("r")


# ---------------------------------------------------------------------------
# The statement gate itself
# ---------------------------------------------------------------------------

class TestStatementGate:
    def test_readers_overlap_writers_exclude(self):
        import asyncio

        async def scenario():
            gate = StatementGate()
            log = []

            async def reader(name):
                async with gate.shared(name):
                    log.append(f"{name}-in")
                    await asyncio.sleep(0.02)
                    log.append(f"{name}-out")

            async def writer(name):
                async with gate.exclusive(name):
                    log.append(f"{name}-in")
                    await asyncio.sleep(0.01)
                    log.append(f"{name}-out")

            await asyncio.gather(reader("r1"), reader("r2"), writer("w"))
            return log

        log = __import__("asyncio").run(scenario())
        # Both readers entered before either left (they overlapped) …
        assert log.index("r2-in") < log.index("r1-out")
        # … and the writer's span overlaps no one.
        w_in, w_out = log.index("w-in"), log.index("w-out")
        assert w_out == w_in + 1

    def test_pinned_owner_passes_unpinned_wait(self):
        import asyncio

        async def scenario():
            gate = StatementGate()
            owner, other = object(), object()
            await gate.pin(owner)
            # The pinning owner's own statements pass straight through.
            async with gate.exclusive(owner):
                pass
            async with gate.shared(owner):
                pass
            # Another connection's writer parks until unpin.
            entered = asyncio.Event()

            async def blocked():
                async with gate.exclusive(other):
                    entered.set()

            task = asyncio.create_task(blocked())
            await asyncio.sleep(0.02)
            assert not entered.is_set()
            await gate.unpin(owner)
            await asyncio.wait_for(task, timeout=2)
            assert entered.is_set()

        __import__("asyncio").run(scenario())


# ---------------------------------------------------------------------------
# Concurrent clients ≡ a serial order (the seq stamps)
# ---------------------------------------------------------------------------

def run_mixed_workload(handle, schedules):
    """Run one client thread per schedule; collect every write with the
    ``seq`` the server stamped on it."""
    writes = []
    lock = threading.Lock()
    errors = []

    def client_thread(schedule, base):
        try:
            with ServerClient.for_handle(handle) as c:
                for step, op in enumerate(schedule):
                    key = base + step
                    if op == "append":
                        out = c.execute(
                            "append to W (A = $a, B = $b)",
                            {"a": key, "b": key % 5},
                        )
                        with lock:
                            writes.append((out["seq"], "append", key))
                    elif op == "delete":
                        out = c.execute(
                            "range of w is W delete w where w.A = $a",
                            {"a": key - 1},
                        )
                        with lock:
                            writes.append((out["seq"], "delete", key - 1))
                    else:
                        c.rows(
                            "range of w is W retrieve (w.A) where w.B = $b",
                            {"b": key % 5},
                        )
        except Exception as error:  # surface thread failures in the test
            errors.append(error)

    threads = [
        threading.Thread(target=client_thread, args=(schedule, 1000 * (i + 1)))
        for i, schedule in enumerate(schedules)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors
    return writes


def replay_serially(writes):
    """Apply the writes in seq order to a twin database; its final rows
    are the serial-equivalence oracle."""
    twin = Database("twin", metrics=MetricsRegistry())
    twin.create_table("W", ["A", "B"])
    session = repro.connect(twin)
    for _seq, op, key in sorted(writes):
        if op == "append":
            session.execute(
                "append to W (A = $a, B = $b)", {"a": key, "b": key % 5}
            )
        else:
            session.execute(
                "range of w is W delete w where w.A = $a", {"a": key}
            )
    return {tuple(sorted(row.items())) for row in twin.catalog.table("W").rows()}


class TestConcurrentClients:
    def test_seqs_are_unique_and_dense(self, db):
        running = serve(db)
        try:
            db.create_table("W", ["A", "B"])
            writes = run_mixed_workload(
                running, [["append"] * 10] * 4
            )
            seqs = sorted(seq for seq, _op, _key in writes)
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        finally:
            running.stop()

    def test_mixed_workload_equals_serial_replay(self, db):
        running = serve(db)
        try:
            db.create_table("W", ["A", "B"])
            schedules = [
                ["append", "retrieve", "append", "delete", "retrieve", "append"],
                ["append", "append", "retrieve", "delete", "append"],
                ["retrieve", "append", "append", "retrieve", "delete"],
                ["append", "delete", "append", "retrieve", "append"],
            ]
            writes = run_mixed_workload(running, schedules)
            final = {
                tuple(sorted(row.items()))
                for row in db.catalog.table("W").rows()
            }
            assert final == replay_serially(writes)
        finally:
            running.stop()

    @settings(max_examples=5, deadline=None)
    @given(
        schedules=st.lists(
            st.lists(
                st.sampled_from(["append", "delete", "retrieve"]),
                min_size=1,
                max_size=6,
            ),
            min_size=2,
            max_size=3,
        )
    )
    def test_hypothesis_interleavings_replay_serially(self, schedules):
        database = Database("fuzz", metrics=MetricsRegistry())
        database.create_table("W", ["A", "B"])
        running = serve(database)
        try:
            writes = run_mixed_workload(running, schedules)
            final = {
                tuple(sorted(row.items()))
                for row in database.catalog.table("W").rows()
            }
            assert final == replay_serially(writes)
        finally:
            running.stop()


# ---------------------------------------------------------------------------
# HTTP layer units
# ---------------------------------------------------------------------------

class TestHttpLayer:
    def _parse(self, raw: bytes):
        import asyncio
        from repro.server.http import read_request

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_request(reader)

        return __import__("asyncio").run(scenario())

    def test_request_round_trip(self):
        body = json.dumps({"statement": "x"}).encode()
        request = self._parse(
            b"POST /statements?x=1&y=two HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        assert request.method == "POST"
        assert request.path == "/statements"
        assert request.query == {"x": "1", "y": "two"}
        assert request.json() == {"statement": "x"}
        assert request.keep_alive

    def test_eof_between_requests_is_none(self):
        assert self._parse(b"") is None

    def test_truncated_body_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            self._parse(
                b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
            )

    def test_header_flood_is_protocol_error(self):
        flood = b"".join(
            b"X-H%d: v\r\n" % i for i in range(100)
        )
        with pytest.raises(ProtocolError):
            self._parse(b"GET / HTTP/1.1\r\n" + flood + b"\r\n")
