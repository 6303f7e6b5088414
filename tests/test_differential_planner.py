"""Differential fuzz harness: the algebraic planner against the Section 5 oracle.

The planner (:mod:`repro.quel.planner`) claims that whatever strategy it
picks — selection pushdown, composite-key hash equi-joins, Cartesian
products, residual selections — the answer is information-wise identical
to the definitional tuple-at-a-time evaluation
:func:`repro.core.query.evaluate_lower_bound`.  This harness generates
random QUEL-level queries (random ranges, conjuncts, disjunctions,
negations, and multi-attribute equality links between ranges) over random
relations with nulls, and asserts ``Plan.execute() ≡ oracle`` on every
one.  Every new planner fast path must keep this green — it is the
information-wise-equivalence oracle the bulk-mutation PR pairs with its
composite-join fast path.

All tests run derandomized (seeded) so CI failures reproduce exactly.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.core.errors import QuelSemanticError
from repro.core.query import (
    And,
    AttributeRef,
    Comparison,
    Not,
    Or,
    Query,
    evaluate_lower_bound,
)
from repro.core.relation import Relation
from repro.core.tuples import XTuple
from repro.quel.evaluator import run_query
from repro.quel.planner import Plan
from repro.storage.database import Database

ATTRIBUTES = ("A", "B", "C")
OPS = ("=", "!=", "<", "<=", ">", ">=")
#: Small domain so equalities actually hit; None becomes a null cell.
VALUES = st.one_of(st.none(), st.integers(min_value=0, max_value=3))


@st.composite
def relations(draw, name: str) -> Relation:
    rows = draw(st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=8))
    relation = Relation(ATTRIBUTES, name=name, validate=False)
    for values in rows:
        relation.add(XTuple(
            {a: v for a, v in zip(ATTRIBUTES, values) if v is not None}
        ))
    return relation


@st.composite
def comparisons(draw, variables):
    """One random conjunct: constant filter, var-var equality, or var-var θ."""
    kind = draw(st.sampled_from(
        # Equality links are over-weighted: they are what the composite-key
        # join fusion consumes, so they deserve the deepest coverage.
        ["var-const", "var-var-eq", "var-var-eq", "var-var-cmp"]
    ))
    left = AttributeRef(draw(st.sampled_from(variables)), draw(st.sampled_from(ATTRIBUTES)))
    if kind == "var-const":
        op = draw(st.sampled_from(OPS))
        constant = draw(st.integers(min_value=0, max_value=3))
        if draw(st.booleans()):
            return Comparison(left, op, constant)
        return Comparison(constant, op, left)
    right = AttributeRef(draw(st.sampled_from(variables)), draw(st.sampled_from(ATTRIBUTES)))
    op = "=" if kind == "var-var-eq" else draw(st.sampled_from(OPS))
    return Comparison(left, op, right)


@st.composite
def predicates(draw, variables):
    conjuncts = draw(st.lists(comparisons(variables), min_size=1, max_size=4))
    shape = draw(st.sampled_from(["and", "and", "or", "not"]))
    if shape == "or":
        return Or(*conjuncts)
    if shape == "not":
        return Not(conjuncts[0]) if len(conjuncts) == 1 else And(Not(conjuncts[0]), *conjuncts[1:])
    return conjuncts[0] if len(conjuncts) == 1 else And(*conjuncts)


@st.composite
def queries(draw) -> Query:
    base = {
        "R1": draw(relations("R1")),
        "R2": draw(relations("R2")),
    }
    count = draw(st.integers(min_value=1, max_value=3))
    variables = [f"v{i}" for i in range(count)]
    ranges = {
        variable: base[draw(st.sampled_from(("R1", "R2")))]
        for variable in variables
    }
    width = draw(st.integers(min_value=1, max_value=2))
    target = [
        (
            f"out{i}",
            AttributeRef(
                draw(st.sampled_from(variables)),
                draw(st.sampled_from(ATTRIBUTES)),
            ),
        )
        for i in range(width)
    ]
    where = draw(st.one_of(st.none(), predicates(variables)))
    return Query(ranges, target, where, name="fuzz")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(queries())
def test_plan_execute_matches_lower_bound_oracle(query):
    """``Plan.execute()`` ≡ ``evaluate_lower_bound`` on arbitrary queries.

    XRelation equality is information-wise equality of the minimal
    representations (Proposition 4.1), exactly the planner's contract.
    """
    assert Plan(query).execute() == evaluate_lower_bound(query)


def _reverse_declaration(query: Query) -> Query:
    """*query* with its ranges and top-level conjuncts declared in reverse."""
    where = query.where
    if isinstance(where, And):
        where = And(*reversed(where.operands))
    ranges = dict(reversed(list(query.ranges.items())))
    return Query(ranges, query.target, where, name=query.name)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(queries())
def test_cost_ordered_and_syntactic_plans_agree_with_oracle(query):
    """The cost-based optimizer's answer does not depend on the query's
    syntax.  Declaration order is the only syntactic input the planner
    still reads (it breaks ties between equal estimates, so reversing it
    changes the chosen join order and the order residual conjuncts are
    applied in); both the greedy and the DP enumeration stay
    information-wise equal to the oracle under either declaration order —
    reordering joins and applying conjuncts early are strategy changes
    only."""
    oracle = evaluate_lower_bound(query)
    reversed_query = _reverse_declaration(query)
    assert evaluate_lower_bound(reversed_query) == oracle
    for enumeration in ("dp", "greedy"):
        assert Plan(query, join_enumeration=enumeration).execute() == oracle
        assert Plan(reversed_query, join_enumeration=enumeration).execute() == oracle


def test_null_constant_comparison_selects_nothing_like_the_oracle():
    """A pushed comparison against a null constant is ni for every row —
    the cost-based plan must answer empty exactly as the oracle does,
    not crash in ``select_constant`` (which rightly refuses null
    constants at the algebra level)."""
    from repro.core.query import Constant

    relation = Relation(ATTRIBUTES, name="R1", validate=False)
    relation.add(XTuple({"A": 1, "B": 2}))
    for op in OPS:
        query = Query(
            {"v0": relation},
            [("out0", AttributeRef("v0", "A"))],
            Comparison(AttributeRef("v0", "A"), op, Constant(None)),
            name="nullconst",
        )
        oracle = evaluate_lower_bound(query)
        assert len(oracle) == 0
        assert Plan(query).execute() == oracle


def test_null_tuple_ranges_contribute_nothing_in_both_evaluations():
    """Regression: a range row binding no attribute (the null tuple) is
    information-free — Definition 4.6 drops it from every minimal form,
    so neither the tuple-at-a-time oracle nor any plan may let it bind.
    Before ``Query.bindings()`` skipped it, the oracle was
    representation-sensitive and diverged from the planner here."""
    v0 = Relation(ATTRIBUTES, name="R1", validate=False)
    v0.add(XTuple({"A": 1}))
    v1 = Relation(ATTRIBUTES, name="R2", validate=False)
    v1.add(XTuple({}))
    query = Query(
        {"v0": v0, "v1": v1}, [("out0", AttributeRef("v0", "A"))], None, name="null"
    )
    oracle = evaluate_lower_bound(query)
    assert len(oracle) == 0
    assert Plan(query).execute() == oracle
    # A real row alongside the null tuple contributes exactly itself.
    v1.add(XTuple({"B": 2}))
    oracle = evaluate_lower_bound(query)
    assert len(oracle) == 1
    assert Plan(query).execute() == oracle


@settings(max_examples=120, deadline=None, derandomize=True)
@given(queries())
def test_plan_explain_never_leaks_fused_equalities(query):
    """Every equality conjunct is either fused into a join or kept residual —
    and the plan still agrees with the oracle when re-executed (steps are
    rebuilt per execution, so explain() reflects the run that produced the
    answer)."""
    plan = Plan(query)
    answer = plan.execute()
    explanation = plan.explain()
    assert len(explanation.splitlines()) == len(plan.steps)
    assert answer == evaluate_lower_bound(query)


# ---------------------------------------------------------------------------
# The same differential property through the full QUEL front end
# ---------------------------------------------------------------------------

@st.composite
def quel_texts(draw):
    """Random QUEL source with conjuncts and multi-attribute equality links."""
    count = draw(st.integers(min_value=1, max_value=3))
    variables = [f"v{i}" for i in range(count)]
    lines = [
        f"range of {variable} is {draw(st.sampled_from(('R1', 'R2')))}"
        for variable in variables
    ]
    width = draw(st.integers(min_value=1, max_value=2))
    outputs = ", ".join(
        f"{draw(st.sampled_from(variables))}.{draw(st.sampled_from(ATTRIBUTES))}"
        for _ in range(width)
    )
    lines.append(f"retrieve ({outputs})")
    clauses = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["const", "eq", "eq", "cmp"]))
        left = f"{draw(st.sampled_from(variables))}.{draw(st.sampled_from(ATTRIBUTES))}"
        if kind == "const":
            clauses.append(f"{left} {draw(st.sampled_from(OPS))} {draw(st.integers(0, 3))}")
        else:
            op = "=" if kind == "eq" else draw(st.sampled_from(OPS))
            right = f"{draw(st.sampled_from(variables))}.{draw(st.sampled_from(ATTRIBUTES))}"
            clauses.append(f"{left} {op} {right}")
    if clauses:
        lines.append("where " + " and ".join(clauses))
    return "\n".join(lines)


@st.composite
def databases(draw) -> Database:
    database = Database("fuzz")
    for name in ("R1", "R2"):
        table = database.create_table(name, ATTRIBUTES)
        table.load(draw(relations(name)).tuples())
    return database


@settings(max_examples=60, deadline=None, derandomize=True)
@given(databases(), quel_texts())
def test_quel_strategies_agree(database, text):
    """parse → analyse → (algebra plan ≡ tuple oracle), end to end."""
    tuple_answer = run_query(text, database, strategy="tuple").answer
    algebra_answer = run_query(text, database, strategy="algebra").answer
    assert tuple_answer == algebra_answer


INDEX_CHOICES = (("A",), ("B",), ("A", "B"), ("B", "C"), ("C", "A", "B"))


@st.composite
def indexed_databases(draw) -> Database:
    """Databases carrying persistent hash indexes the optimizer may probe."""
    database = Database("fuzz-indexed")
    for name in ("R1", "R2"):
        table = database.create_table(name, ATTRIBUTES)
        table.load(draw(relations(name)).tuples())
        for attributes in draw(
            st.lists(st.sampled_from(INDEX_CHOICES), max_size=3, unique=True)
        ):
            table.create_index(attributes)
    return database


@settings(max_examples=60, deadline=None, derandomize=True)
@given(indexed_databases(), quel_texts())
def test_index_backed_plans_agree_with_oracle(database, text):
    """With persistent indexes present the optimizer may emit
    index-nested-loop joins that probe stored (unreduced) rows; the
    answer must stay information-wise identical to the oracle and to the
    same plan with index probing disabled."""
    try:
        tuple_answer = run_query(text, database, strategy="tuple").answer
    except QuelSemanticError:
        # e.g. a duplicate output column — rejected before any strategy runs
        assume(False)
    indexed = run_query(text, database, strategy="algebra")
    assert indexed.answer == tuple_answer
    query = indexed.analyzed.query
    assert Plan(query, database, use_indexes=False).execute() == tuple_answer


# ---------------------------------------------------------------------------
# Streaming operator tree ≡ tuple oracle
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(indexed_databases(), quel_texts(), st.booleans(), st.sampled_from((2, 7, 256)))
def test_streaming_matches_oracle(database, text, analyzed, block_size):
    """The streaming operator-tree executor stays information-wise
    identical to the tuple oracle over random schemas, persistent
    indexes, ANALYZE states and block sizes (tiny blocks force every
    operator across block boundaries)."""
    if analyzed:
        database.analyze()
    try:
        tuple_answer = run_query(text, database, strategy="tuple").answer
    except QuelSemanticError:
        assume(False)
    query = compile_text(text, database)
    assert Plan(query, database, block_size=block_size).execute() == tuple_answer


@st.composite
def total_databases(draw) -> Database:
    """Indexed databases whose rows carry no nulls: there no intermediate
    carries dominated rows, so every plan step's measured row count is
    pinned to the oracle *count for count*."""
    database = Database("fuzz-total")
    values = st.integers(min_value=0, max_value=3)
    for name in ("R1", "R2"):
        table = database.create_table(name, ATTRIBUTES)
        rows = draw(st.lists(st.tuples(values, values, values), max_size=8))
        table.load(rows)
        for attributes in draw(
            st.lists(st.sampled_from(INDEX_CHOICES), max_size=2, unique=True)
        ):
            table.create_index(attributes)
    return database


def compile_text(text, database):
    from repro.quel.evaluator import compile_query

    return compile_query(text, database).query


# ---------------------------------------------------------------------------
# Parallel partitioned execution ≡ serial streaming ≡ oracle
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    indexed_databases(),
    quel_texts(),
    st.sampled_from((1, 2, 3, 4)),
    st.sampled_from((2, 7, 256)),
)
def test_parallel_matches_serial_and_oracle(database, text, partitions, block_size):
    """Partitioned Exchange/Merge execution is a pure strategy change:
    over random schemas, indexes, partition counts 1–4 and block sizes,
    the parallel pipeline must stay information-wise identical to the
    serial streaming tree and the tuple oracle.  Fragments run in inline mode — byte-identical worker code,
    minus the process shipping the dedicated process-mode tests cover —
    so the fuzz loop stays fast."""
    try:
        tuple_answer = run_query(text, database, strategy="tuple").answer
    except QuelSemanticError:
        assume(False)
    query = compile_text(text, database)
    serial = Plan(query, database, block_size=block_size).execute()
    parallel = Plan(
        query, database, block_size=block_size,
        parallelism=partitions, parallel_mode="inline",
    ).execute()
    assert serial == tuple_answer
    assert parallel == tuple_answer


@settings(max_examples=60, deadline=None, derandomize=True)
@given(total_databases(), quel_texts())
def test_streaming_step_counts_match_oracle_on_total_rows(
    assert_steps_match_oracle, database, text
):
    """On null-free data no intermediate carries dominated rows, so each
    step's measured row count must equal the oracle's answer size for
    that step's prefix of the plan — which is exactly what makes
    ``explain(analyze=True)`` a trustworthy audit of the cost
    annotations."""
    try:
        query = compile_text(text, database)
    except QuelSemanticError:
        assume(False)
    plan = Plan(query, database)
    assert plan.execute() == evaluate_lower_bound(query)
    assert_steps_match_oracle(plan)


# ---------------------------------------------------------------------------
# Optimizer v2: DP join enumeration ≡ greedy ≡ oracle; adaptive feedback
# and the semantic result cache never change answers
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(indexed_databases(), quel_texts(), st.booleans())
def test_dp_and_greedy_join_enumeration_agree_with_oracle(
    database, text, analyzed
):
    """Selinger-style DP enumeration is a pure strategy change: whatever
    order it picks over random schemas, indexes and ANALYZE states, the
    answer stays information-wise identical to the greedy enumerator's
    and to the tuple oracle."""
    if analyzed:
        database.analyze()
    try:
        tuple_answer = run_query(text, database, strategy="tuple").answer
    except QuelSemanticError:
        assume(False)
    query = compile_text(text, database)
    assert Plan(query, database, join_enumeration="dp").execute() == tuple_answer
    assert Plan(query, database, join_enumeration="greedy").execute() == tuple_answer


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    indexed_databases(),
    quel_texts(),
    st.lists(
        st.floats(min_value=1.0 / 16.0, max_value=16.0, allow_nan=False),
        min_size=2, max_size=2,
    ),
)
def test_feedback_corrected_plans_agree_with_oracle(database, text, factors):
    """Adaptive correction factors scale estimates — they may flip join
    orders and access paths, but never the answer."""
    for factor, name in zip(factors, ("R1", "R2")):
        database.catalog.table(name).statistics.correction = factor
    try:
        tuple_answer = run_query(text, database, strategy="tuple").answer
    except QuelSemanticError:
        assume(False)
    query = compile_text(text, database)
    assert Plan(query, database).execute() == tuple_answer
    assert Plan(query, database, join_enumeration="greedy").execute() == tuple_answer


@settings(max_examples=30, deadline=None, derandomize=True)
@given(indexed_databases(), quel_texts())
def test_session_feedback_loop_preserves_answers(database, text):
    """Executing through a session folds real actual/estimated ratios
    into the tables' corrections after every drain; forced re-planning
    under those live corrections keeps every repeat identical to the
    oracle."""
    from repro.api.session import Session

    try:
        tuple_answer = run_query(text, database, strategy="tuple").answer
    except QuelSemanticError:
        assume(False)
    session = Session(database, result_cache_size=0)
    for _ in range(3):
        assert session.execute(text).to_relation() == tuple_answer
        session.clear_statement_cache()  # re-plan under folded corrections


@st.composite
def interleaved_mutations(draw):
    """A short program of DML statements and DDL/ANALYZE calls."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(
            ["append", "append", "delete", "replace", "analyze", "index"]
        ))
        table = draw(st.sampled_from(("R1", "R2")))
        attribute = draw(st.sampled_from(ATTRIBUTES))
        value = draw(st.integers(min_value=0, max_value=3))
        if kind == "append":
            a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
            ops.append(("quel", f"append to {table} (A = {a}, B = {b}, C = {c})"))
        elif kind == "delete":
            ops.append((
                "quel",
                f"range of m is {table} delete m where m.{attribute} = {value}",
            ))
        elif kind == "replace":
            ops.append((
                "quel",
                f"range of m is {table} replace m ({attribute} = {value}) "
                f"where m.{attribute} != {value}",
            ))
        elif kind == "analyze":
            ops.append(("analyze",))
        else:
            ops.append(("index", table, draw(st.sampled_from(INDEX_CHOICES))))
    return ops


@settings(max_examples=30, deadline=None, derandomize=True)
@given(indexed_databases(), quel_texts(), interleaved_mutations())
def test_cache_enabled_session_never_serves_stale_answers(
    database, text, mutations
):
    """The stale-hit property: under arbitrary DML / index-DDL / ANALYZE
    interleavings, a cache-enabled session's answer equals a fresh
    oracle evaluation of the *current* table states at every step — a
    repeat (the likely cache hit) included."""
    from repro.api.session import Session

    session = Session(database)
    def check():
        try:
            expected = run_query(text, database, strategy="tuple").answer
        except QuelSemanticError:
            assume(False)
        assert session.execute(text).to_relation() == expected
        assert session.execute(text).to_relation() == expected

    check()
    for op in mutations:
        if op[0] == "quel":
            session.execute(op[1])
        elif op[0] == "analyze":
            database.analyze()
        else:
            _, name, attributes = op
            table = database.catalog.table(name)
            existing = set(map(tuple, table.index_specs().values()))
            if tuple(attributes) not in existing:
                table.create_index(attributes)
        check()
