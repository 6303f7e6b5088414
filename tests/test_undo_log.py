"""Transactions roll back through the undo log, exactly and cheaply.

A rollback applies the inverse of every change its group made, newest
first (:mod:`repro.storage.undo`).  The oracle here lives only in the
tests: the state a group must return to is ``Database.snapshot()`` taken
at the group's ``begin`` plus each table's staleness tracker
(``mutations_since_analyze``), adaptive ``correction`` and histograms,
the table set and the foreign keys.  Committed work is pinned by a twin
database that runs the same program with every aborted group left out.

Pinned here:

* random programs of DML and DDL (index create/drop, ANALYZE,
  ``retrieve into``, drop table, foreign-key addition, truncate, load)
  in nested groups with random commit/abort — each rollback returns to
  its oracle state and the end state equals the twin's;
* the same programs on a durable database recover (checkpoint + log
  replay, aborted groups included) to the live state;
* a one-row rollback on a 5k-row durable table appends under 1 KB of
  log, and its ``begin`` copies no rows;
* a REPLACE that fails its post-state foreign-key check is undone
  through its delta, staleness tracker included.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.constraints.referential import ForeignKeyConstraint
from repro.core.errors import ReferentialViolation, ReproError
from repro.core.tuples import XTuple
from repro.storage import Database
from repro.storage.table import Table
from repro.storage.wal import read_frames


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

def state(database: Database, exact: bool = True):
    """What a rollback must restore.  ``exact`` adds what only the same
    database can reproduce: histogram objects and correction factors."""
    tables = {}
    for name in database.catalog.table_names():
        statistics = database.table(name).statistics
        counters = [statistics.mutations_since_analyze]
        if exact:
            counters.append(statistics.correction)
            counters.append(sorted(
                (attribute, id(histogram))
                for attribute, histogram in statistics._histograms.items()
            ))
        tables[name] = counters
    foreign_keys = sorted(
        (owner, fk.name, fk.attributes, fk.referenced_relation, fk.referenced_attributes)
        for owner, fk in database.catalog.foreign_key_entries()
    )
    return database.snapshot(), tables, foreign_keys


def build(database=None, with_fk: bool = False) -> Database:
    """R(A, B) indexed on A and analyzed, S(A); with *with_fk*, S.A
    references R.A, so deletes and replaces on R can be refused."""
    database = database if database is not None else Database("undo")
    r = database.create_table("R", ["A", "B"])
    r.insert_many([(a, a % 3) for a in range(6)] + [{"A": 9}])
    r.create_index(["A"], name="r_a")
    r.analyze()
    s = database.create_table("S", ["A"])
    s.insert_many([(1,), (2,), (5,)])
    if with_fk:
        database.add_foreign_key(
            "S", ForeignKeyConstraint(["A"], "R", ["A"], name="s_r")
        )
    return database


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------

_KEY = st.integers(0, 9)
_VALUE = st.one_of(st.none(), st.integers(0, 3))

_OPS = st.one_of(
    st.tuples(st.just("append"), _KEY, _VALUE),
    st.tuples(st.just("delete"), _KEY),
    st.tuples(st.just("replace"), _KEY, st.integers(0, 3)),
    st.tuples(st.just("insert_s"), _KEY),
    st.tuples(st.just("delete_s"), _KEY),
    st.tuples(st.just("index"), st.sampled_from(["R", "S"])),
    st.tuples(st.just("analyze"), st.sampled_from(["R", "S"])),
    st.tuples(st.just("into"), st.integers(0, 2)),
    st.tuples(st.just("drop"), st.sampled_from(["S", "OUT_0", "OUT_1", "OUT_2"])),
    st.tuples(st.just("fk"), st.booleans()),
    st.tuples(st.just("truncate"), st.sampled_from(["R", "S"])),
    st.tuples(st.just("load"), st.lists(_KEY, max_size=4)),
    st.tuples(st.just("retrieve"), st.integers(0, 3)),
)

_PROGRAMS = st.recursive(
    st.lists(_OPS, min_size=1, max_size=4),
    lambda body: st.lists(
        # A step is a nested group or an operation, half and half
        # (a plain one_of would flatten _OPS and make groups rare).
        st.booleans().flatmap(
            lambda group: st.tuples(st.just("group"), body, st.booleans())
            if group else _OPS
        ),
        min_size=1,
        max_size=5,
    ),
    max_leaves=20,
)


def apply_op(session, op) -> None:
    """Run one operation; an operation the current state rejects raises a
    ReproError before changing anything, which the caller ignores."""
    database = session.database
    kind = op[0]
    if kind == "append":
        _, key, value = op
        if value is None:
            session.execute("append to R (A = $a)", {"a": key})
        else:
            session.execute("append to R (A = $a, B = $b)", {"a": key, "b": value})
    elif kind == "delete":
        session.execute("range of r is R delete r where r.A = $k", {"k": op[1]})
    elif kind == "replace":
        session.execute(
            "range of r is R replace r (B = $v) where r.A = $k",
            {"v": op[2], "k": op[1]},
        )
    elif kind == "insert_s":
        database.insert_many("S", [(op[1],)])
    elif kind == "delete_s":
        database.delete_many("S", [(op[1],)])
    elif kind == "index":
        table = database.table(op[1])
        attributes = ["B"] if op[1] == "R" else ["A"]
        if table.find_index(attributes) is None:
            table.create_index(attributes)
        else:
            table.drop_index(attributes)
    elif kind == "analyze":
        database.table(op[1]).analyze()
    elif kind == "into":
        name = f"OUT_{op[1]}"
        if name not in database:
            session.execute(f"range of r is R retrieve into {name} (r.A, r.B)")
    elif kind == "drop":
        database.drop_table(op[1])
    elif kind == "fk":
        # S.A -> R.A, or R.A -> S.A: either direction may fail validation.
        owner, referenced = ("S", "R") if op[1] else ("R", "S")
        database.add_foreign_key(
            owner, ForeignKeyConstraint(["A"], referenced, ["A"], name=f"fk_{owner}")
        )
    elif kind == "truncate":
        database.table(op[1]).truncate()
    elif kind == "load":
        database.table("S").load([(key,) for key in op[1]])
    elif kind == "retrieve":
        # Draining a planned (not fast-path) retrieve folds its
        # actual/estimate ratios into R's adaptive correction factor — a
        # change no row mutation makes.
        session.execute(
            "range of r is R range of t is R retrieve (r.A) "
            "where r.A = t.B and r.B = $v",
            {"v": op[1]},
        ).rows
    else:  # pragma: no cover - strategy and dispatcher out of step
        raise AssertionError(op)


def run_program(session, steps, strict: bool = False) -> None:
    """Run *steps*; every group checks its own rollback against the
    oracle state taken at its begin.  ``strict`` lets a rejected
    operation fail the test instead of skipping it."""
    for step in steps:
        if step[0] == "group":
            _, body, commit = step
            before = state(session.database)
            txn = session.transaction().begin()
            run_program(session, body, strict)
            if commit:
                txn.commit()
            else:
                txn.rollback()
                assert state(session.database) == before
        else:
            try:
                apply_op(session, step)
            except ReproError:
                if strict:
                    raise


def run_committed_only(session, steps) -> None:
    """The twin: the same program with every aborted group left out and
    no transactions at all."""
    for step in steps:
        if step[0] == "group":
            _, body, commit = step
            if commit:
                run_committed_only(session, body)
        else:
            try:
                apply_op(session, step)
            except ReproError:
                pass


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_PROGRAMS, st.booleans(), st.booleans())
def test_random_programs_roll_back_to_the_oracle(program, commit, with_fk):
    database = build(with_fk=with_fk)
    session = repro.connect(database, result_cache_size=0)
    before = state(database)
    txn = session.transaction().begin()
    run_program(session, program)
    if commit:
        txn.commit()
    else:
        txn.rollback()
        assert state(database) == before
    assert len(database.catalog.undo) == 0

    twin = build(with_fk=with_fk)
    run_committed_only(repro.connect(twin, result_cache_size=0),
                       program if commit else [])
    assert state(database, exact=False) == state(twin, exact=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_PROGRAMS, st.booleans())
def test_recovery_of_aborted_groups_equals_the_live_state(program, with_fk):
    directory = tempfile.mkdtemp(prefix="undo-")
    try:
        database = build(
            Database.open(f"{directory}/db", sync="none"), with_fk=with_fk
        )
        session = repro.connect(database, result_cache_size=0)
        txn = session.transaction().begin()
        run_program(session, program)
        txn.rollback()
        run_program(session, program)
        database.wal.flush()
        shutil.copytree(f"{directory}/db", f"{directory}/copy")
        recovered = Database.open(f"{directory}/copy", name="recovered")
        assert state(recovered, exact=False) == state(database, exact=False)
        recovered.close()
        database.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# Deterministic pins
# ---------------------------------------------------------------------------

#: One aborted group holding every kind of change, each of which must
#: succeed: it pins every inverse whatever the random programs draw.
_EVERY_CHANGE = [
    ("fk", True),  # S.A -> R.A, held by S
    ("group", [
        ("append", 7, 1),
        ("replace", 1, 2),
        ("delete", 9),
        ("insert_s", 3),
        ("delete_s", 5),
        ("index", "R"),
        ("index", "S"),
        ("analyze", "R"),
        ("retrieve", 3),
        ("into", 0),
        ("truncate", "S"),
        ("load", [1, 4]),
        ("analyze", "S"),
        ("drop", "OUT_0"),
        ("drop", "S"),
    ], False),
]


def test_every_change_rolls_back_exactly():
    database = build()
    session = repro.connect(database, result_cache_size=0)
    run_program(session, _EVERY_CHANGE, strict=True)
    assert [fk.name for fk in database.catalog.foreign_keys_of("S")] == ["fk_S"]
    assert database.table("S").find_index(["A"]) is None


def test_every_change_recovers_to_the_live_state(tmp_path):
    database = build(Database.open(str(tmp_path / "db"), sync="none"))
    session = repro.connect(database, result_cache_size=0)
    run_program(session, _EVERY_CHANGE, strict=True)
    with session.transaction():  # and a committed group after it
        apply_op(session, ("append", 8, 0))
    database.wal.flush()
    shutil.copytree(tmp_path / "db", tmp_path / "copy")
    recovered = Database.open(str(tmp_path / "copy"), name="recovered")
    assert state(recovered, exact=False) == state(database, exact=False)
    recovered.close()
    database.close()


def test_rollback_restores_the_correction_factor():
    database = build()
    session = repro.connect(database, result_cache_size=0)
    statistics = database.table("R").statistics
    before = statistics.correction
    with session.transaction() as txn:
        apply_op(session, ("retrieve", 3))
        assert statistics.correction != before
        txn.rollback()
    assert statistics.correction == before


class _Abort(Exception):
    pass


def _durable_table(tmp_path, rows: int) -> Database:
    database = Database.open(str(tmp_path / "db"))
    table = database.create_table("T", ["K", "V"])
    table.insert_many([(k, k % 7) for k in range(rows)])
    table.create_index(["K"])
    database.analyze()
    database.checkpoint()
    return database


@pytest.mark.parametrize("statement, params", [
    ("append to T (K = $k, V = 1)", {"k": 10_000}),
    ("range of t is T replace t (V = 99) where t.K = $k", {"k": 17}),
    ("range of t is T delete t where t.K = $k", {"k": 17}),
])
def test_one_row_rollback_appends_under_a_kilobyte(tmp_path, statement, params):
    database = _durable_table(tmp_path, 5_000)
    session = repro.connect(database)
    before = state(database)
    start = database.wal.position()
    with pytest.raises(_Abort):
        with session.transaction():
            assert session.execute(statement, params).rows_affected == 1
            raise _Abort()
    written = database.wal.position() - start
    assert written < 1024, written
    assert state(database) == before
    records, _, _ = read_frames(database.wal.log_path)
    assert "load" not in {record["op"] for record in records}
    database.close()


def test_begin_copies_no_rows(monkeypatch):
    database = build()
    session = repro.connect(database)
    calls = []
    monkeypatch.setattr(
        Database, "snapshot", lambda self: calls.append(self) or {}
    )
    with session.transaction() as txn:
        session.execute("append to R (A = 42)")
        txn.rollback()
    with session.transaction():
        session.execute("append to R (A = 43)")
    assert calls == []
    assert XTuple({"A": 43}) in database["R"].tuples()
    assert XTuple({"A": 42}) not in database["R"].tuples()


def test_nested_groups_roll_back_to_their_own_mark():
    database = build()
    session = repro.connect(database)
    outer_before = state(database)
    with session.transaction() as outer:
        session.execute("append to R (A = 50)")
        inner_before = state(database)
        with session.transaction() as inner:
            database.drop_table("S")
            database.table("R").analyze()
            inner.rollback()
        assert state(database) == inner_before
        outer.rollback()
    assert state(database) == outer_before


def test_failed_replace_is_undone_through_its_delta(monkeypatch):
    database = build()
    database.add_foreign_key("S", ForeignKeyConstraint(["A"], "R", ["A"]))
    before = state(database)
    reloads = []
    monkeypatch.setattr(Table, "_install_rows", lambda *args: reloads.append(args))
    with pytest.raises(ReferentialViolation):
        # S references R.A = 1; replacing the key would orphan it.
        database.update("R", {"A": 1, "B": 1}, {"A": 100, "B": 1})
    assert reloads == []
    assert state(database) == before
    assert len(database.catalog.undo) == 0
