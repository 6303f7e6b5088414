"""Span and count recording around calls into the repro layers.

The benchmark does not instrument the program's own code: it rebinds
public functions and methods of each layer to timing wrappers from here,
in the process that holds the database, and only in the traced run.

A span is ``(span id, parent id, op id, name, start ns, end ns, value)``.
The parent and the operation id travel in a context variable, so spans
nest correctly across threads that copy the context (the server's
engine executor does, through :func:`install_server_spans`).  Spans
stay in one in-memory list until the run ends.  Per-row hooks only
count calls; they never read the clock.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One recorded call.
Span = Tuple[int, Optional[int], Any, str, int, int, float]

#: ``(current span id, current op id)`` for the running code.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)


class Tracer:
    """Collects spans and call counts in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._counts: Dict[str, Any] = {}

    # -- recording -----------------------------------------------------------
    def begin_op(self, op: Any) -> contextvars.Token:
        """Mark the code that follows, in this context, as working for *op*."""
        return _CURRENT.set((None, op))

    def end_op(self, token: contextvars.Token) -> None:
        _CURRENT.reset(token)

    def record(self, name: str, start: int, end: int, parent: Optional[int],
               op: Any) -> None:
        self.spans.append((next(self._ids), parent, op, name, start, end, 0.0))

    def timed(self, fn: Callable, name: str, value: Optional[Callable] = None) -> Callable:
        """*fn* wrapped so every call records a span named *name*; with
        *value*, ``value(result)`` is stored on the span."""
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, op = _CURRENT.get()
            span_id = next(ids)
            token = _CURRENT.set((span_id, op))
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                _CURRENT.reset(token)
                spans.append((
                    span_id, parent, op, name, start, end,
                    value(result) if value is not None and result is not None else 0.0,
                ))

        return wrapper

    def timed_async(self, fn: Callable, name: str) -> Callable:
        """A coroutine function wrapped like :meth:`timed`."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent, op = _CURRENT.get()
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.record(name, start, time.perf_counter_ns(), parent, op)

        return wrapper

    def timed_enter(self, fn: Callable, name: str) -> Callable:
        """An async-context-manager factory wrapped so the span runs from
        the call to the end of ``__aenter__`` — the wait to acquire."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedEnter(tracer, name, fn(*args, **kwargs))

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """*fn* wrapped to count its calls (no clock reads)."""
        counter = self._counts.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def counts(self) -> Dict[str, int]:
        """Calls counted so far, by name.  An ``itertools.count`` is
        advanced atomically under the interpreter lock; its ``repr``
        (``count(n)``) reads it without advancing it."""
        return {name: int(repr(counter)[6:-1])
                for name, counter in self._counts.items()}


class _TimedEnter:
    def __init__(self, tracer: Tracer, name: str, manager: Any):
        self._tracer = tracer
        self._name = name
        self._manager = manager
        self._start = time.perf_counter_ns()

    async def __aenter__(self):
        result = await self._manager.__aenter__()
        parent, op = _CURRENT.get()
        self._tracer.record(self._name, self._start, time.perf_counter_ns(), parent, op)
        return result

    async def __aexit__(self, *exc_info):
        return await self._manager.__aexit__(*exc_info)


def rebind(original: Callable, replacement: Callable) -> None:
    """Point every module-level name in the repro package bound to
    *original* at *replacement* (functions are imported by name into
    several modules)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attribute, value in list(namespace.items()):
            if value is original:
                setattr(module, attribute, replacement)


def _wrap_method(owner: type, attribute: str, wrap: Callable) -> None:
    original = owner.__dict__[attribute]
    if isinstance(original, property):
        setattr(owner, attribute, property(wrap(original.fget)))
    else:
        setattr(owner, attribute, wrap(original))


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (names are the span
    names the report aggregates)."""
    from repro.api.results import ResultSet
    from repro.api.session import Session, Transaction
    from repro.core import threevalued
    from repro.core.engine import dominance, joins
    from repro.core.tuples import XTuple
    from repro.exec.pipeline import Pipeline
    from repro.quel import parser
    from repro.quel.planner import Plan
    from repro.storage import wal as wal_module
    from repro.storage.database import Database
    from repro.storage.index import HashIndex
    from repro.storage.table import Table

    timed = tracer.timed
    for owner, attribute, name in (
        (Session, "execute", "api.execute"),
        (Session, "execute_prepared", "api.execute"),
        (Transaction, "begin", "api.txn_begin"),
        (Transaction, "commit", "api.txn_commit"),
        (Transaction, "rollback", "api.txn_rollback"),
        (ResultSet, "rows", "api.rows"),
        (Plan, "logical_plan", "quel.plan"),
        (Plan, "compile", "quel.plan"),
        (Pipeline, "run", "exec.drain"),
        (Database, "analyze", "stats.analyze"),
        (Database, "snapshot", "storage.snapshot"),
        (Database, "restore", "storage.restore"),
        (Table, "lookup", "storage.index_lookup"),
        (HashIndex, "lookup", "storage.index_lookup"),
        (Table, "insert_many", "storage.bulk_mutation"),
        (Table, "delete_many", "storage.bulk_mutation"),
        (Table, "update_many", "storage.bulk_mutation"),
        (wal_module.WriteAheadLog, "append", "storage.wal_append"),
    ):
        _wrap_method(owner, attribute, functools.partial(timed, name=name))

    for module, attribute, name, value in (
        (parser, "parse_statement", "quel.parse", None),
        (dominance, "bulk_reduce", "core.bulk_reduce", None),
        (joins, "build_join_buckets", "core.join_kernel", None),
        (joins, "probe_join_block", "core.join_kernel", None),
        (wal_module, "encode_frame", "storage.wal_frame", len),
    ):
        original = getattr(module, attribute)
        rebind(original, timed(original, name, value=value))

    os.fsync = timed(os.fsync, "storage.fsync")

    XTuple.__init__ = tracer.counted(XTuple.__init__, "core.xtuple_new")
    rebind(threevalued.compare, tracer.counted(threevalued.compare, "core.compare"))


def install_server_spans(tracer: Tracer) -> None:
    """Wrap the server layer: the gate (wait until acquired), the codec,
    and the response encoder; read each request's op id from its body;
    and run engine work on the executor inside the request's context so
    spans there nest under it."""
    from repro.server import app, codec, http
    from repro.server.gate import StatementGate

    for attribute in ("shared", "exclusive"):
        setattr(StatementGate, attribute,
                tracer.timed_enter(getattr(StatementGate, attribute),
                                   "server.gate_wait"))
    StatementGate.pin = tracer.timed_async(StatementGate.pin, "server.gate_wait")

    for original in (codec.decode_params, codec.rows_to_json, http.encode_response):
        rebind(original, tracer.timed(original, "server.codec"))

    original_json = http.HttpRequest.json

    def json_with_op(self):
        payload = original_json(self)
        if isinstance(payload, dict) and "op" in payload:
            _CURRENT.set((None, payload["op"]))
        return payload

    http.HttpRequest.json = json_with_op

    original_call = app.ReproServer._call

    async def call_in_context(self, fn, *args):
        return await original_call(self, contextvars.copy_context().run, fn, *args)

    app.ReproServer._call = call_in_context
