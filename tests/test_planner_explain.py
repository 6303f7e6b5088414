"""Plan.explain() traces: the composite-key join fusion must be visible.

The planner's contract after the bulk-mutation PR: every equality
conjunct linking two ranges is consumed by *one* fused multi-attribute
hash join — the trace reports ``hash equi-join … on [A = …, B = …]`` and
no residual selection is left behind.  These tests pin the trace shape
(what ``EXPLAIN`` shows users) alongside the answers.
"""

from __future__ import annotations

import re

import pytest

from repro.quel.evaluator import run_query
from repro.quel.planner import Plan
from repro.storage.database import Database


@pytest.fixture
def db() -> Database:
    database = Database("shipments")
    supply = database.create_table("SUPPLY", ["S#", "P#", "QTY"])
    demand = database.create_table("DEMAND", ["S#", "P#", "NEED"])
    supply.insert_many([
        ("s1", "p1", 10),
        ("s1", "p2", 20),
        ("s2", "p1", 30),
        ("s2", None, 5),
    ])
    demand.insert_many([
        ("s1", "p1", 7),
        ("s1", "p3", 2),
        ("s2", "p1", 9),
        (None, "p1", 4),
    ])
    return database


def join_steps(plan):
    return [step for step in plan.steps if "hash equi-join" in step]


def residual_steps(plan):
    # A *separate* residual selection step — a join step carrying a
    # "fused residual" annotation is not one.
    return [step for step in plan.steps if step.startswith("select residual")]


class TestCompositeJoinTraces:
    def test_two_attribute_link_is_one_fused_join(self, db):
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY, d.NEED) where s.S# = d.S# and s.P# = d.P#"
        )
        result = run_query(text, db, strategy="algebra")
        joins = join_steps(result.plan)
        assert len(joins) == 1
        # One fused composite-key join: both pairs inside one bracketed step.
        assert "on [" in joins[0]
        assert "s.S# = d.S#" in joins[0] and "s.P# = d.P#" in joins[0]
        # ... and nothing left over to re-check after the join.
        assert residual_steps(result.plan) == []
        assert "product" not in result.plan.explain()
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_single_attribute_link_keeps_plain_trace(self, db):
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY) where s.S# = d.S#"
        )
        result = run_query(text, db, strategy="algebra")
        joins = join_steps(result.plan)
        assert len(joins) == 1
        assert "on s.S# = d.S#" in joins[0]
        assert "on [" not in joins[0]
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_fused_join_filters_composite_key(self, db):
        """The fused join returns exactly the both-attribute matches — the
        single-key join would have paired (s1,p2) with (s1,p3)."""
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.S#, s.P#) where s.S# = d.S# and s.P# = d.P#"
        )
        answer = run_query(text, db, strategy="algebra").answer
        pairs = {(t["s_S#"], t["s_P#"]) for t in answer.rows()}
        assert pairs == {("s1", "p1"), ("s2", "p1")}

    def test_non_equality_conjunct_fuses_into_join_probe(self, db):
        """The inequality is not a join key, but since the parallel-exec
        PR it rides the join anyway: the probe loop evaluates it on the
        (probe, build) pair before constructing the joined tuple, so the
        trace shows one join with a fused residual and no separate
        residual selection step."""
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY) where s.S# = d.S# and s.QTY > d.NEED"
        )
        result = run_query(text, db, strategy="algebra")
        joins = join_steps(result.plan)
        assert len(joins) == 1
        assert "on s.S# = d.S#" in joins[0] or "on d.S# = s.S#" in joins[0]
        assert "fused residual" in joins[0] and "QTY" in joins[0]
        assert residual_steps(result.plan) == []
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_pushed_selections_precede_join_choice(self, db):
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            'retrieve (s.QTY) where s.S# = d.S# and s.P# = d.P# and d.NEED > 3 and s.QTY > 5'
        )
        result = run_query(text, db, strategy="algebra")
        steps = result.plan.steps
        select_positions = [i for i, s in enumerate(steps) if s.startswith("select") and "residual" not in s]
        join_positions = [i for i, s in enumerate(steps) if "hash equi-join" in s]
        assert select_positions and join_positions
        assert max(select_positions) < min(join_positions)
        assert len(join_positions) == 1 and "on [" in steps[join_positions[0]]
        assert residual_steps(result.plan) == []
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_three_ranges_chain_mixes_fused_and_plain_joins(self, db):
        text = (
            "range of s is SUPPLY range of d is DEMAND range of e is DEMAND "
            "retrieve (s.QTY, e.NEED) "
            "where s.S# = d.S# and s.P# = d.P# and d.P# = e.P#"
        )
        result = run_query(text, db, strategy="algebra")
        joins = join_steps(result.plan)
        assert len(joins) == 2
        fused = [j for j in joins if "on [" in j]
        assert len(fused) == 1  # s–d is composite, d–e is single-attribute
        assert residual_steps(result.plan) == []
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_unlinked_ranges_fall_back_to_product(self, db):
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY, d.NEED)"
        )
        result = run_query(text, db, strategy="algebra")
        assert join_steps(result.plan) == []
        assert any("product" in step for step in result.plan.steps)
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_null_rows_never_join(self, db):
        """Rows null on any fused key attribute are dropped by the join —
        the Section 5 TRUE-only discipline on every conjunct at once."""
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.S#) where s.S# = d.S# and s.P# = d.P#"
        )
        answer = run_query(text, db, strategy="algebra").answer
        # (s2, ni) and (ni, p1) carry a null key component: no contribution.
        assert all(t["s_S#"] in {"s1", "s2"} for t in answer.rows())
        assert len(answer) == 2


class TestCostOptimizerTraces:
    """The statistics PR's contract: joins run in estimated-cost order,
    residual conjuncts are pushed through the joins, persistent indexes
    turn joins into index-nested-loop probes, and every executed step is
    annotated with ``est=…, rows=…``."""

    @pytest.fixture
    def chain_db(self) -> Database:
        """BIG1 –A– BIG2 –B– SEL, with SEL highly selective on C."""
        database = Database("chain")
        big1 = database.create_table("BIG1", ["A", "X"])
        big2 = database.create_table("BIG2", ["A", "B"])
        sel = database.create_table("SEL", ["B", "C"])
        big1.insert_many([(i % 4, i) for i in range(16)])
        big2.insert_many([(i % 4, i % 8) for i in range(16)])
        sel.insert_many([(i % 8, i) for i in range(16)])
        return database

    CHAIN_QUERY = (
        "range of b1 is BIG1 range of b2 is BIG2 range of s is SEL "
        "retrieve (b1.X, s.C) "
        "where b1.A = b2.A and b2.B = s.B and s.C = 3"
    )

    def test_join_reorder_starts_from_selective_range(self, chain_db):
        """The selection on SEL leaves one row, so cost ordering starts
        there and walks the chain SEL → BIG2 → BIG1 — the syntactic order
        would have built BIG1 ⋈ BIG2 first."""
        result = run_query(self.CHAIN_QUERY, chain_db, strategy="algebra")
        joins = join_steps(result.plan)
        assert len(joins) == 2
        assert "with b2" in joins[0] and "s.B = b2.B" in joins[0]
        assert "with b1" in joins[1] and "b2.A = b1.A" in joins[1]
        assert "product" not in result.plan.explain()
        assert result.answer == run_query(self.CHAIN_QUERY, chain_db, strategy="tuple").answer

    def test_steps_carry_estimates_and_actuals(self, chain_db):
        plan = run_query(self.CHAIN_QUERY, chain_db, strategy="algebra").plan
        for step in plan.steps:
            if step.startswith(("select", "hash", "index-nested-loop", "product")):
                assert re.search(r"\[est=\d+, rows=\d+\]$", step), step
        assert re.search(r"\[rows=\d+\]$", plan.steps[-1])

    def test_index_nested_loop_join_trace(self, db):
        """A persistent index covering the fused join key turns the hash
        join into an index-nested-loop probe of the live index."""
        db.table("DEMAND").create_index(["S#", "P#"], name="demand_key")
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.S#, s.P#) where s.S# = d.S# and s.P# = d.P#"
        )
        result = run_query(text, db, strategy="algebra")
        inl = [s for s in result.plan.steps if "index-nested-loop join" in s]
        assert len(inl) == 1
        assert "with d using index demand_key" in inl[0]
        assert "s.S# = d.S#" in inl[0] and "s.P# = d.P#" in inl[0]
        assert join_steps(result.plan) == []  # no bucket-rebuild join ran
        pairs = {(t["s_S#"], t["s_P#"]) for t in result.answer.rows()}
        assert pairs == {("s1", "p1"), ("s2", "p1")}
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_index_matches_attribute_set_in_any_order(self, db):
        db.table("DEMAND").create_index(["P#", "S#"], name="reversed_key")
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY) where s.S# = d.S# and s.P# = d.P#"
        )
        result = run_query(text, db, strategy="algebra")
        assert any("using index reversed_key" in s for s in result.plan.steps)
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_filtered_range_does_not_probe_index(self, db):
        """A pushed selection invalidates the stored index for that range:
        the plan falls back to the hash join over the filtered rows."""
        db.table("DEMAND").create_index(["S#"], name="demand_s")
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY) where s.S# = d.S# and d.NEED > 3"
        )
        result = run_query(text, db, strategy="algebra")
        assert not any("index-nested-loop" in s for s in result.plan.steps)
        assert len(join_steps(result.plan)) == 1
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_use_indexes_flag_disables_probing(self, db):
        db.table("DEMAND").create_index(["S#"], name="demand_s")
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY) where s.S# = d.S#"
        )
        analyzed = run_query(text, db, strategy="algebra").analyzed
        plan = Plan(analyzed.query, db, use_indexes=False)
        answer = plan.execute()
        assert not any("index-nested-loop" in s for s in plan.steps)
        assert len(join_steps(plan)) == 1
        assert answer == run_query(text, db, strategy="tuple").answer

    def test_residual_pushed_through_joins(self, db):
        """A two-variable residual conjunct applies as soon as both its
        ranges are combined — before later joins, not after them."""
        text = (
            "range of s is SUPPLY range of d is DEMAND range of e is DEMAND "
            "retrieve (s.QTY, e.NEED) "
            "where s.S# = d.S# and s.QTY > d.NEED and d.P# = e.P#"
        )
        result = run_query(text, db, strategy="algebra")
        steps = result.plan.steps
        residual_positions = [i for i, s in enumerate(steps) if "residual" in s]
        join_with_e = [i for i, s in enumerate(steps) if "join with e" in s]
        assert len(residual_positions) == 1 and len(join_with_e) == 1
        assert residual_positions[0] < join_with_e[0]
        assert result.answer == run_query(text, db, strategy="tuple").answer
