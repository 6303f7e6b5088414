"""Shared fixtures: the paper's relations and a few synthetic databases."""

from __future__ import annotations

import re

import pytest

from repro import Relation, XRelation, NI
from repro.core.query import (
    And,
    AttributeRef,
    Comparison,
    Constant,
    Query,
    evaluate_lower_bound,
)
from repro.datagen import (
    employee_database,
    parts_suppliers,
    parts_suppliers_database,
    ps_double_prime,
    ps_prime,
    table_one,
    table_two,
)


@pytest.fixture
def emp_table_one() -> Relation:
    """Table I: EMP before the TEL# column exists."""
    return table_one()


@pytest.fixture
def emp_table_two() -> Relation:
    """Table II: EMP after TEL# was added (all nulls)."""
    return table_two()


@pytest.fixture
def ps1() -> Relation:
    """PS' of display (1.1)."""
    return ps_prime()


@pytest.fixture
def ps2() -> Relation:
    """PS'' of display (1.2)."""
    return ps_double_prime()


@pytest.fixture
def ps() -> Relation:
    """The PARTS-SUPPLIERS relation of display (6.6)."""
    return parts_suppliers()


@pytest.fixture
def emp_db():
    """The paper's employee database, including the two managers."""
    return employee_database()


@pytest.fixture
def ps_db():
    """The paper's parts-suppliers database."""
    return parts_suppliers_database()


def _assert_steps_match_oracle(plan) -> None:
    query = plan.query
    selected = {variable: [] for variable in query.ranges}
    included = [plan._start]
    applied = []

    def prefix(variables, conjuncts):
        where = None
        if conjuncts:
            where = conjuncts[0] if len(conjuncts) == 1 else And(*conjuncts)
        targets = [
            AttributeRef(variable, attribute)
            for variable in variables
            for attribute in query.ranges[variable].schema.attributes
        ]
        ranges = {variable: query.ranges[variable] for variable in variables}
        return Query(ranges, targets, where, name="prefix")

    ops = plan.logical_plan()
    assert len(ops) == len(plan.steps)
    for op, line in zip(ops, plan.steps):
        if op.kind == "rename":
            continue
        if op.kind == "index-select":
            selected[op.variable].extend(
                Comparison(AttributeRef(op.variable, attribute), "=", Constant(value))
                for attribute, value in zip(op.index.attributes, op.probe)
            )
            expected = prefix([op.variable], selected[op.variable])
        elif op.kind in ("select", "select-var-residual"):
            selected[op.variable].append(op.conjunct)
            expected = prefix([op.variable], selected[op.variable])
        elif op.kind == "project":
            expected = query
        else:
            if op.kind == "residual":
                applied.append(op.conjunct)
            else:
                included.append(op.variable)
            if op.kind == "join":
                applied.extend(Comparison(old, "=", new) for old, new in op.pairs)
                if op.residual is not None:
                    applied.append(op.residual)
            conjuncts = [c for v in included for c in selected[v]] + applied
            expected = prefix(included, conjuncts)
        match = re.search(r"rows=(\d+|\?)\]$", line)
        assert match, line
        if match.group(1) == "?":
            # The streaming tree proved this operator unnecessary (an
            # empty join side short-circuits the whole probe subtree):
            # the step never ran, so there is no measurement to pin.
            continue
        assert int(match.group(1)) == len(evaluate_lower_bound(expected)), line


@pytest.fixture(scope="session")
def assert_steps_match_oracle():
    """Pin an executed plan's per-step ``rows=`` to the Section 5 oracle.

    Valid on null-free data, where no intermediate carries dominated
    rows: each step's measured count must equal
    ``len(evaluate_lower_bound(prefix))``, where ``prefix`` is the query
    over the ranges combined so far (a pushed selection: just its own
    range) with the conjuncts applied so far and every qualified
    attribute as a target.  The projection step is pinned against the
    query itself.
    """
    return _assert_steps_match_oracle
