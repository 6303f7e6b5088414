"""Running QUEL retrieve queries end to end.

:func:`run_query` is the convenience entry point used by the examples and
benchmarks: parse → analyse against a database → evaluate.  Since the
Session API redesign the **cost-based planner is the default strategy**
— the same path ``repro.connect()`` sessions use — and the strategies
remain selectable for the differential oracles:

* ``"plan"`` / ``"algebra"`` (default) — the calculus-to-algebra
  translation of :mod:`repro.quel.planner`, cost-ordered with index
  reuse, executed through the streaming :mod:`repro.exec` operator tree;
* ``"tuple"`` — the direct tuple-at-a-time evaluation of Section 5
  (:func:`repro.core.query.evaluate_lower_bound`), kept as the
  definitional oracle.

The two agree information-wise on every query; the differential harness
asserts it and benchmark E10 measures their cost difference.  DML text
(APPEND / DELETE / REPLACE) does not run here — open a session with
:func:`repro.connect` for the full statement surface.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..core.errors import QuelError
from ..core.query import evaluate_lower_bound
from ..core.xrelation import XRelation
from .analyzer import AnalyzedQuery, DatabaseLike, analyze
from .ast_nodes import RetrieveStatement
from .parser import parse
from .planner import Plan


class QueryResult:
    """The answer to a QUEL query plus provenance information."""

    def __init__(self, answer: XRelation, analyzed: AnalyzedQuery, strategy: str, plan: Optional[Plan] = None):
        self.answer = answer
        self.analyzed = analyzed
        self.strategy = strategy
        self.plan = plan

    @property
    def rows(self):
        return self.answer.rows()

    def to_table(self) -> str:
        return self.answer.to_table()

    def __len__(self) -> int:
        return len(self.answer)

    def __repr__(self) -> str:
        return f"QueryResult(rows={len(self.answer)}, strategy={self.strategy!r})"


def compile_query(text: str, database: DatabaseLike, name: str = "Q") -> AnalyzedQuery:
    """Parse and analyse QUEL retrieve text without executing it."""
    statement = parse(text)
    if not isinstance(statement, RetrieveStatement):
        raise QuelError(
            f"{type(statement).__name__.replace('Statement', '').lower()} "
            f"statements run through repro.connect() sessions, not run_query()"
        )
    return analyze(statement, database, name=name)


def run_query(
    text: str,
    database: DatabaseLike,
    strategy: Optional[str] = None,
    name: str = "Q",
    params: Optional[Mapping[str, Any]] = None,
) -> QueryResult:
    """Parse, analyse and execute a QUEL retrieve query against *database*.

    Parameters
    ----------
    text:
        The QUEL source, e.g. the paper's Figure 1 query verbatim.
    database:
        A mapping from relation name to relation (``repro.storage.Database``
        satisfies this).
    strategy:
        ``None`` (default) or ``"plan"``/``"algebra"`` for the cost-based
        planner; ``"tuple"`` for the Section 5 tuple-at-a-time oracle.
    params:
        Values for ``$name`` placeholders in the text.
    """
    analyzed = compile_query(text, database, name=name)
    query = analyzed.bind(params)
    if strategy in (None, "plan", "algebra"):
        # Handing the plan the database (when it is a storage Database)
        # gives the optimizer each range's live statistics and persistent
        # indexes; a plain mapping degrades gracefully to ad-hoc stats.
        plan = Plan(query, database)
        answer = plan.execute()
        return QueryResult(answer, analyzed, strategy or "plan", plan=plan)
    if strategy == "tuple":
        answer = evaluate_lower_bound(query)
        return QueryResult(answer, analyzed, strategy)
    raise QuelError(
        f"unknown execution strategy {strategy!r}; use 'plan'/'algebra' or 'tuple'"
    )
