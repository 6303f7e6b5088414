"""The QUEL DML statements: grammar, semantics, and differential pins.

Every DML statement executed through the Session API must be equivalent
to the corresponding direct :class:`repro.storage.Database` mutation —
``append to`` ≡ ``insert_many``, ``delete`` ≡ ``delete_many`` of the
matching rows (with the (4.8) subsumption closure), ``replace`` ≡
delete-then-insert.  The pins here run each statement and its direct
equivalent on twin databases and assert snapshot equality.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.constraints.keys import KeyConstraint
from repro.core.errors import (
    QuelError,
    QuelParseError,
    QuelSemanticError,
    StorageError,
)
from repro.core.threevalued import compare
from repro.core.tuples import XTuple
from repro.core.xrelation import XRelation
from repro.quel import parse, run_query
from repro.quel.ast_nodes import (
    AppendStatement,
    DeleteStatement,
    Parameter,
    ReplaceStatement,
    normalize_statement,
)
from repro.storage import Database


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

class TestDmlGrammar:
    def test_append_shape(self):
        s = parse('append to EMP (E# = 1, NAME = "SMITH")')
        assert isinstance(s, AppendStatement)
        assert s.relation == "EMP"
        assert [a.attribute for a in s.assignments] == ["E#", "NAME"]
        assert s.where is None and s.ranges == ()

    def test_append_from_query_shape(self):
        s = parse(
            'range of e is EMP append to NAMES (NAME = e.NAME) where e.E# > 1'
        )
        assert isinstance(s, AppendStatement)
        assert len(s.ranges) == 1 and s.where is not None

    def test_append_requires_to(self):
        with pytest.raises(QuelParseError):
            parse('append EMP (E# = 1)')

    def test_delete_shape(self):
        s = parse('range of e is EMP delete e where e.E# = 1')
        assert isinstance(s, DeleteStatement)
        assert s.variable == "e" and s.where is not None

    def test_delete_without_where(self):
        s = parse('range of e is EMP delete e')
        assert s.where is None

    def test_replace_shape(self):
        s = parse('range of e is EMP replace e (NAME = $n) where e.E# = $k')
        assert isinstance(s, ReplaceStatement)
        assert isinstance(s.assignments[0].value, Parameter)

    def test_parameter_operand_in_where(self):
        s = parse('range of e is EMP retrieve (e.NAME) where e.E# = $k')
        assert isinstance(s.where.right, Parameter)
        assert s.where.right.name == "k"

    def test_assignment_requires_equals(self):
        with pytest.raises(QuelParseError):
            parse('append to EMP (E# 1)')

    def test_trailing_tokens_after_dml_rejected(self):
        with pytest.raises(QuelParseError):
            parse('range of e is EMP delete e garbage')

    def test_empty_assignment_list_rejected(self):
        with pytest.raises(QuelParseError):
            parse('append to EMP ()')

    def test_statement_str_round_trips(self):
        for text in (
            'append to EMP (E# = 1, NAME = "SMITH")',
            'range of e is EMP delete e where e.E# = 1',
            'range of e is EMP replace e (NAME = $n) where e.E# = 2',
        ):
            statement = parse(text)
            again = parse(str(statement))
            assert normalize_statement(again) == normalize_statement(statement)

    def test_negative_literals_round_trip_through_normalization(self):
        statement = parse(
            'range of t is EMP replace t (SAL = -0.5) where t.E# > -5'
        )
        normalized = normalize_statement(statement)
        assert normalized[-2] == (("set", "SAL", ("lit", "float", -0.5)),)
        assert normalized[-1] == (
            "cmp", ("col", "t", "E#"), ">", ("lit", "int", -5)
        )
        again = parse(str(statement))
        assert normalize_statement(again) == normalized
        spaced = parse(
            'range of t is EMP  -- say\n replace t (SAL = -0.5)\n'
            ' where t.E# > -5'
        )
        assert normalize_statement(spaced) == normalized

    def test_normalization_ignores_whitespace_and_comments(self):
        a = parse('range of e is EMP delete e where e.E# = 1')
        b = parse('range of e is EMP  -- say\n delete e\n where e.E# = 1')
        assert normalize_statement(a) == normalize_statement(b)

    def test_run_query_rejects_dml_text(self):
        db = Database()
        db.create_table("EMP", ["E#", "NAME"])
        with pytest.raises(QuelError):
            run_query('append to EMP (E# = 1)', db)


# ---------------------------------------------------------------------------
# Semantic errors
# ---------------------------------------------------------------------------

@pytest.fixture
def db():
    database = Database("dml")
    emp = database.create_table("EMP", ["E#", "NAME", "SAL"])
    emp.insert_many([
        (1, "SMITH", 10),
        (2, "JONES", 20),
        (3, "BROWN", None),
    ])
    database.create_table("NAMES", ["NAME"])
    return database


@pytest.fixture
def session(db):
    return repro.connect(db)


class TestDmlSemanticErrors:
    def test_append_unknown_relation(self, session):
        with pytest.raises(QuelSemanticError):
            session.execute('append to NOPE (A = 1)')

    def test_append_unknown_attribute(self, session):
        with pytest.raises(QuelSemanticError):
            session.execute('append to EMP (WAGE = 1)')

    def test_append_duplicate_attribute(self, session):
        with pytest.raises(QuelSemanticError):
            session.execute('append to EMP (E# = 1, E# = 2)')

    def test_append_where_without_ranges(self, session):
        with pytest.raises(QuelSemanticError):
            session.execute('append to EMP (E# = 1) where 1 = 1')

    def test_append_column_ref_without_ranges(self, session):
        with pytest.raises(QuelSemanticError):
            session.execute('append to NAMES (NAME = e.NAME)')

    def test_delete_undeclared_variable(self, session):
        with pytest.raises(QuelSemanticError):
            session.execute('delete e')

    def test_replace_value_from_other_range(self, session):
        with pytest.raises(QuelSemanticError):
            session.execute(
                'range of e is EMP range of m is EMP '
                'replace e (NAME = m.NAME) where e.E# = m.E#'
            )

    def test_missing_parameter_value(self, session):
        with pytest.raises(QuelSemanticError):
            session.execute('append to EMP (E# = $k)')

    def test_case_insensitive_relation_resolution(self, session, db):
        session.execute('append to emp (E# = 9, NAME = "X", SAL = 1)')
        assert XTuple({"E#": 9, "NAME": "X", "SAL": 1}) in db["EMP"].tuples()


# ---------------------------------------------------------------------------
# Execution semantics
# ---------------------------------------------------------------------------

class TestDmlExecution:
    def test_append_literal_row(self, session, db):
        result = session.execute('append to EMP (E# = 4, NAME = "GREEN", SAL = 30)')
        assert result.rows_affected == 1
        assert len(result) == 0 and result.columns == ()
        assert XTuple({"E#": 4, "NAME": "GREEN", "SAL": 30}) in db["EMP"].tuples()

    def test_append_partial_row_leaves_nulls(self, session, db):
        session.execute('append to EMP (E# = 5)')
        assert XTuple({"E#": 5}) in db["EMP"].tuples()

    def test_append_with_parameters(self, session, db):
        session.execute('append to EMP (E# = $e, NAME = $n)', {"e": 6, "n": "WHITE"})
        assert XTuple({"E#": 6, "NAME": "WHITE"}) in db["EMP"].tuples()

    def test_append_from_query(self, session, db):
        result = session.execute(
            'range of e is EMP append to NAMES (NAME = e.NAME) where e.SAL >= 10'
        )
        assert result.rows_affected == 2
        assert {t["NAME"] for t in db["NAMES"].tuples()} == {"SMITH", "JONES"}

    def test_delete_where(self, session, db):
        result = session.execute('range of e is EMP delete e where e.E# = 2')
        assert result.rows_affected == 1
        assert {t["NAME"] for t in db["EMP"].tuples()} == {"SMITH", "BROWN"}

    def test_delete_null_comparison_never_true(self, session, db):
        """BROWN's SAL is null: ``e.SAL < 100`` is ni, never TRUE, so the
        TRUE-only discipline protects the row from the delete."""
        session.execute('range of e is EMP delete e where e.SAL < 100')
        assert {t["NAME"] for t in db["EMP"].tuples()} == {"BROWN"}

    def test_delete_all(self, session, db):
        result = session.execute('range of e is EMP delete e')
        assert result.rows_affected == 3
        assert len(db["EMP"]) == 0

    def test_replace_updates_matching_rows(self, session, db):
        result = session.execute(
            'range of e is EMP replace e (SAL = 99) where e.E# = 1'
        )
        assert result.rows_affected == 1
        assert XTuple({"E#": 1, "NAME": "SMITH", "SAL": 99}) in db["EMP"].tuples()

    def test_replace_value_from_own_row(self, session, db):
        session.execute('range of e is EMP replace e (SAL = e.E#)')
        sals = {t["E#"]: t["SAL"] for t in db["EMP"].tuples()}
        assert sals == {1: 1, 2: 2, 3: 3}

    def test_replace_atomic_on_key_violation(self, db):
        keyed = Database("keyed")
        table = keyed.create_table(
            "R", ["K", "V"], constraints=[KeyConstraint(["K"])]
        )
        table.insert_many([(1, "a"), (2, "b")])
        before = {name: dict(entry, rows=set(entry["rows"]))
                  for name, entry in keyed.snapshot().items()}
        session = repro.connect(keyed)
        with pytest.raises(Exception):
            # Collapsing both keys onto 1 violates the key constraint.
            session.execute('range of r is R replace r (K = 1)')
        assert keyed.snapshot() == before

    def test_retrieve_into_materializes(self, session, db):
        result = session.execute(
            'range of e is EMP retrieve into RICH (e.NAME, e.SAL) where e.SAL >= 20'
        )
        assert result.rows_affected == 1
        assert "RICH" in db
        assert {t["e_NAME"] for t in db["RICH"].tuples()} == {"JONES"}

    def test_retrieve_into_existing_table_rejected(self, session):
        with pytest.raises(StorageError):
            session.execute('range of e is EMP retrieve into NAMES (e.NAME)')

    def test_append_from_query_keeps_bindings_with_all_null_assigned_columns(self):
        """Regression: a qualifying binding whose *assigned* columns are
        all null must still append (its constant columns carry real
        information).  The binding sub-query projects every range
        attribute precisely so minimization cannot collapse such a
        binding into the droppable null tuple."""
        database = Database()
        src = database.create_table("SRC", ["A", "B"])
        src.insert(XTuple({"B": 5}))  # A is null
        database.create_table("DST", ["X", "Y"])
        session = repro.connect(database)
        result = session.execute(
            'range of e is SRC append to DST (X = e.A, Y = 1) where e.B = 5'
        )
        assert result.rows_affected == 1
        assert XTuple({"Y": 1}) in database["DST"].tuples()
        # Same hole for an all-constant assignment list: existence of a
        # TRUE binding is what matters, not its projection.
        result = session.execute(
            'range of e is SRC append to DST (X = 99) where e.B = 5'
        )
        assert result.rows_affected == 1
        assert XTuple({"X": 99}) in database["DST"].tuples()

    def test_append_assignment_from_undeclared_variable_rejected(self):
        database = Database()
        database.create_table("SRC", ["A"])
        database.create_table("DST", ["X"])
        session = repro.connect(database)
        with pytest.raises(QuelSemanticError):
            session.execute('range of e is SRC append to DST (X = z.A)')
        with pytest.raises(QuelSemanticError):
            session.execute('range of e is SRC append to DST (X = e.NOPE)')

    def test_delete_applies_48_subsumption(self):
        """Deleting a row also deletes every less-informative stored row,
        exactly like a direct ``delete_many`` (Section 7 via (4.8))."""
        database = Database()
        table = database.create_table("R", ["A", "B"])
        table.insert_many([(1, 2), (1, None)])
        session = repro.connect(database)
        result = session.execute('range of r is R delete r where r.B = 2')
        assert result.rows_affected == 2
        assert len(database["R"]) == 0


# ---------------------------------------------------------------------------
# Differential pins: QUEL DML ≡ direct Database mutation
# ---------------------------------------------------------------------------

ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),
        st.one_of(st.none(), st.integers(0, 3)),
    ),
    max_size=8,
)


def _twin_databases(rows):
    def build():
        database = Database("twin")
        table = database.create_table("R", ["A", "B"])
        table.insert_many([
            XTuple({a: v for a, v in zip(("A", "B"), values) if v is not None})
            for values in rows
        ])
        return database
    return build(), build()


def _matching(database, attribute, op, constant):
    return [
        t for t in database["R"].tuples()
        if compare(t[attribute], op, constant).is_true()
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ROWS, st.integers(0, 3))
def test_quel_delete_equals_direct_delete_many(rows, constant):
    quel_db, direct_db = _twin_databases(rows)
    session = repro.connect(quel_db)
    result = session.execute(
        'range of r is R delete r where r.A = $k', {"k": constant}
    )
    direct_count = direct_db.delete_many("R", _matching(direct_db, "A", "=", constant))
    assert quel_db["R"].tuples() == direct_db["R"].tuples()
    assert result.rows_affected == direct_count


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ROWS, st.integers(0, 3), st.integers(0, 3))
def test_quel_replace_equals_direct_delete_insert(rows, constant, new_value):
    """REPLACE works on the *minimal form* of the matching rows (its
    matching query answers with an x-relation); the direct equivalent is
    delete-then-insert of that minimal matched set, and the resulting
    states must be information-wise equal."""
    quel_db, direct_db = _twin_databases(rows)
    session = repro.connect(quel_db)
    result = session.execute(
        'range of r is R replace r (B = $v) where r.A = $k',
        {"v": new_value, "k": constant},
    )
    matched = list(XRelation.from_rows(
        ("A", "B"), _matching(direct_db, "A", "=", constant)
    ).rows())
    replacements = [
        XTuple(dict(old.items(), B=new_value)) for old in matched
    ]
    table = direct_db.table("R")
    table.delete_many(matched)
    table.insert_many(replacements)
    assert (
        XRelation(quel_db["R"]) == XRelation(direct_db["R"])
    ), (quel_db["R"].tuples(), direct_db["R"].tuples())
    assert result.rows_affected == len(matched)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ROWS, st.integers(0, 3))
def test_quel_append_from_query_equals_direct_insert_many(rows, constant):
    """APPEND-from-query inserts the minimal form of the source answer;
    inserting the raw matching rows directly yields an information-wise
    equal table."""
    quel_db, direct_db = _twin_databases(rows)
    for database in (quel_db, direct_db):
        database.create_table("OUT", ["A", "B"])
    session = repro.connect(quel_db)
    result = session.execute(
        'range of r is R append to OUT (A = r.A, B = r.B) where r.A = $k',
        {"k": constant},
    )
    minimal = list(XRelation.from_rows(
        ("A", "B"), _matching(direct_db, "A", "=", constant)
    ).rows())
    direct_db.insert_many("OUT", minimal)
    assert XRelation(quel_db["OUT"]) == XRelation(direct_db["OUT"])
    assert result.rows_affected == len(minimal)


def test_quel_append_literal_equals_direct_insert():
    quel_db, direct_db = _twin_databases([(1, 2)])
    repro.connect(quel_db).execute('append to R (A = 3, B = 0)')
    direct_db.insert_many("R", [XTuple({"A": 3, "B": 0})])
    assert quel_db["R"].tuples() == direct_db["R"].tuples()
