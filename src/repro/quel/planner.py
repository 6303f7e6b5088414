"""A cost-based planner-compiler for QUEL queries.

Section 8 of the paper stresses that the generalised model keeps "the
well-known correspondence between the relational calculus and the
relational algebra", which is what makes query evaluation efficient.  The
planner makes that correspondence concrete — and *chooses between* the
equivalent algebraic strategies with a System-R-style cost model
(:mod:`repro.stats`).  Planning and execution are decoupled:

1. **Planning** (:meth:`Plan.logical_plan`) is a pure phase driven by
   estimates only — rename ranges (lazily), push single-variable
   selections (persistent-index equality probes first), enumerate joins
   in cost order (Selinger-style DP over connected subgraphs, or greedy:
   estimated-smallest range first, then the linked range with the
   smallest estimated join output; all equality conjuncts linking the
   next range fused into one composite key; an index-nested-loop join
   when the next range is an unfiltered stored table carrying a
   :class:`~repro.storage.index.HashIndex` on exactly the fused key;
   Cartesian products, smallest first, last), push residual conjuncts
   through the joins (applied as soon as their ranges are combined),
   project onto the target list.  No rows are touched.
2. **Compilation** (:meth:`Plan.compile`) turns the logical plan into a
   tree of :mod:`repro.exec` physical operators pulling fixed-size tuple
   blocks; non-blocking operators stream rows through without
   constructing any intermediate :class:`~repro.core.xrelation.XRelation`,
   and every node records actual rows and wall time for
   ``explain(analyze=True)``.  One function,
   :func:`build_operator_tree`, builds every tree — the serial pipeline
   and each parallel fragment a worker runs.

Every executed step is annotated with the optimizer's estimated and the
measured row count (``est=…, rows=…``), so ``Plan.explain()`` doubles as
a cost-model audit.

The planner handles every query the front end accepts; the optimisation
changes strategy only, and the produced result is always information-wise
equal to the tuple-at-a-time evaluation of
:func:`repro.core.query.evaluate_lower_bound` — the one definitional
oracle, asserted by the differential harness in
``tests/test_differential_planner.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core import algebra
from ..core.engine.dominance import partition_rows_by_signature
from ..core.query import And, AttributeRef, Comparison, Constant, Predicate, Query
from ..core.relation import Relation
from ..core.threevalued import compare
from ..core.tuples import XTuple
from ..core.xrelation import XRelation
from ..exec.exchange import Exchange, Merge, PlanFragment, partition_rows_by_key
from ..exec.operators import (
    BLOCK_SIZE,
    Filter,
    HashJoin,
    IndexNLJoin,
    IndexProbe,
    PhysicalOperator,
    Product,
    Project,
    Rename,
    TableScan,
)
from ..exec.pipeline import Pipeline, StalenessGuard, TraceStep
from ..obs import registry_for
from ..stats import (
    CostModel,
    DEFAULT_COST_MODEL,
    TableStatistics,
    suggest_parallelism,
)

#: Above this many ranges the Selinger-style DP join enumeration (2^n
#: subset states) yields to the PR 3 greedy order.
DP_JOIN_THRESHOLD = 10


class _RangeContext:
    """Per-range planning state: the range's statistics and the
    optimizer's running cardinality estimate (no rows are touched)."""

    __slots__ = ("variable", "relation", "table", "filtered", "est", "_stats")

    def __init__(self, variable: str, relation: Relation, table) -> None:
        self.variable = variable
        self.relation = relation
        self.table = table
        self.filtered = False
        #: The optimizer's running cardinality estimate for this range.
        self.est: float = float(len(relation))
        self._stats: Optional[TableStatistics] = None

    @property
    def mapping(self) -> Dict[str, str]:
        return {a: f"{self.variable}.{a}" for a in self.relation.schema.attributes}

    def stats(self) -> TableStatistics:
        """The base statistics: the table's live counters when this range
        is a stored table (no per-query scan), a one-off analyze of the
        base rows otherwise."""
        if self._stats is None:
            if self.table is not None:
                self._stats = self.table.statistics
            else:
                self._stats = TableStatistics(self.relation.tuples())
        return self._stats

    def distinct(self, attribute: str) -> float:
        """Distinct non-null values on a (bare) attribute, capped by the
        current cardinality estimate (planning never reads the rows)."""
        count = self.stats().distinct_count(attribute)
        return float(min(count, self.est)) if count else 0.0

    def null_fraction(self, attribute: str) -> float:
        return self.stats().null_fraction(attribute)

    def correction(self) -> float:
        """The table's adaptive estimate-correction factor (1.0 when the
        range is ad hoc, carries no feedback, or the factor is reset)."""
        return getattr(self.stats(), "correction", 1.0)


# ---------------------------------------------------------------------------
# Logical plan operations — what planning produces, what the compiler runs
# ---------------------------------------------------------------------------

class _LogicalOp:
    """One step of the logical plan (kind + everything the compiler needs).

    Plain picklable data apart from ``index`` (a live
    :class:`~repro.storage.index.HashIndex`), which the parallel
    compiler strips with :meth:`without_index` before shipping."""

    __slots__ = (
        "kind", "variable", "conjunct", "attribute", "op", "constant",
        "index", "probe", "described", "pairs", "targets", "est", "residual",
    )

    def __init__(self, kind: str, **fields: Any):
        self.kind = kind
        for slot in self.__slots__:
            if slot != "kind":
                setattr(self, slot, fields.pop(slot, None))
        if fields:
            raise TypeError(f"unknown logical-op fields {sorted(fields)}")

    def __repr__(self) -> str:
        return f"_LogicalOp({self.kind!r}, variable={self.variable!r})"

    def without_index(self) -> "_LogicalOp":
        """This op with no live index — the worker-side form: an
        index-selected range reads its coordinator-resolved bucket from
        the fragment's sources, and a join runs as a hash join."""
        copy = _LogicalOp(
            self.kind, **{slot: getattr(self, slot) for slot in self.__slots__[1:]}
        )
        copy.index = None
        return copy


class Plan:
    """An executable query plan with a readable, cost-annotated trace.

    Parameters
    ----------
    query:
        The analysed core query.
    database:
        Optional database the ranges came from.  When it exposes
        ``table_for_relation`` (``repro.storage.Database`` does), the
        planner reaches each range's live :class:`TableStatistics` and
        persistent indexes through it; with ``None`` (or a plain mapping)
        per-range statistics are computed on the fly.
    use_indexes:
        Whether an unfiltered table range may be joined by probing a
        persistent index covering the fused join key.
    cost_model:
        The :class:`~repro.stats.CostModel` used for the estimates.
    block_size:
        Tuples per exchanged block on the streaming path.
    parallelism:
        The default partition count for :meth:`compile`.  ``None``/``0``
        (the default) and ``1`` compile the plain serial tree; ``N >= 2``
        compiles an :class:`~repro.exec.Exchange`/:class:`~repro.exec.Merge`
        pair running ``N`` per-partition plan fragments in worker
        processes; ``"auto"`` asks
        :func:`repro.stats.suggest_parallelism` — serial below ~50k
        estimated input rows or when :mod:`multiprocessing` is unusable,
        CPU-count-capped otherwise.
    parallel_mode:
        ``"process"`` (default) runs the partitions in a
        :mod:`multiprocessing` pool; ``"inline"`` runs the identical
        fragment code sequentially in this process (the automatic
        fallback on platforms without multiprocessing, and the cheap
        mode for correctness testing).
    join_enumeration:
        ``"dp"`` (default) finds the cheapest left-deep combination
        order by Selinger-style dynamic programming over connected
        subgraphs — Cartesian products considered only for subsets with
        no linked extension — minimising the *total* estimated
        intermediate rows; above :data:`DP_JOIN_THRESHOLD` ranges it
        falls back automatically.  ``"greedy"`` keeps the PR 3
        per-step-minimal order unconditionally.
    """

    def __init__(
        self,
        query: Query,
        database=None,
        *,
        use_indexes: bool = True,
        cost_model: Optional[CostModel] = None,
        block_size: int = BLOCK_SIZE,
        parallelism: Optional[Union[int, str]] = None,
        parallel_mode: str = "process",
        join_enumeration: str = "dp",
    ):
        self.query = query
        self.database = database
        self.use_indexes = use_indexes
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.block_size = block_size
        self.parallelism = parallelism
        self.parallel_mode = parallel_mode
        if join_enumeration not in ("dp", "greedy"):
            raise ValueError(
                f"join_enumeration must be 'dp' or 'greedy', got {join_enumeration!r}"
            )
        self.join_enumeration = join_enumeration
        self.steps: List[str] = []
        #: The last compiled streaming pipeline (set by :meth:`execute`).
        self.pipeline: Optional[Pipeline] = None
        self._ops: Optional[List[_LogicalOp]] = None
        self._start: Optional[str] = None
        self._plan_contexts: Optional[Dict[str, _RangeContext]] = None
        self._metric_handles = None

    def explain(self) -> str:
        return "\n".join(f"{i + 1}. {step}" for i, step in enumerate(self.steps))

    # -- construction --------------------------------------------------------
    @staticmethod
    def _qualify(variable: str, attribute: str) -> str:
        return f"{variable}.{attribute}"

    def _table_of(self, relation: Relation):
        finder = getattr(self.database, "table_for_relation", None)
        if finder is None:
            return None
        return finder(relation)

    def _contexts(self) -> Dict[str, _RangeContext]:
        return {
            variable: _RangeContext(variable, relation, self._table_of(relation))
            for variable, relation in self.query.ranges.items()
        }

    # -- execution -----------------------------------------------------------
    def execute(self) -> XRelation:
        """Plan, compile, drain and return the answer x-relation."""
        pipeline = self.compile()
        answer = pipeline.run()
        self.steps = pipeline.step_lines()
        return answer

    # -- the planning phase (estimate-driven, touches no rows) ---------------
    def logical_plan(self) -> List[_LogicalOp]:
        """The cost-ordered logical plan (cached; pure — no rows read)."""
        if self._ops is None:
            self._ops = self._build_logical_plan()
        return self._ops

    def _build_logical_plan(self) -> List[_LogicalOp]:
        query = self.query
        model = self.cost_model
        ops: List[_LogicalOp] = []

        pushable, residual = _split_conjuncts(query.where)

        # Classify the residual conjuncts: equality links between two
        # ranges feed the join enumeration; single-variable conjuncts are
        # pushed onto their range ahead of any join; the rest is deferred
        # and applied as soon as its variables have all been combined.
        equijoins: List[Comparison] = []
        single_variable: Dict[str, List[Predicate]] = {}
        deferred: List[Predicate] = []
        for conjunct in _flatten(residual):
            if _is_equijoin(conjunct):
                equijoins.append(conjunct)
                continue
            references = conjunct.references()
            if len(references) == 1:
                single_variable.setdefault(references[0], []).append(conjunct)
            else:
                deferred.append(conjunct)

        variables = list(query.ranges)
        declaration = {variable: i for i, variable in enumerate(variables)}
        contexts = self._contexts()
        self._plan_contexts = contexts

        # Step 1: rename each range with a variable prefix (lazy — the
        # step records the logical operation; rows move only at run time).
        for variable, relation in query.ranges.items():
            ops.append(_LogicalOp("rename", variable=variable,
                                  described=relation.name))

        # Step 2: push single-variable selections — constant comparisons
        # first (equality conjuncts served straight from a covering
        # persistent index when one exists), then any residual conjunct
        # confined to one range.
        for variable, conjuncts in pushable.items():
            context = contexts[variable]
            conjuncts = self._plan_index_selection(ops, context, conjuncts)
            for conjunct in conjuncts:
                attribute, op, constant = _constant_parts(conjunct)
                # The constant's value lets a fresh ANALYZE-built
                # histogram replace the 1/3 range guess; the table's
                # adaptive correction folds observed misestimates in.
                estimate = model.estimate_selection(
                    context.stats(), attribute, op, cardinality=context.est,
                    value=constant,
                ) * context.correction()
                context.est = estimate
                context.filtered = True
                ops.append(_LogicalOp(
                    "select", variable=variable, conjunct=conjunct,
                    attribute=attribute, op=op, constant=constant, est=estimate,
                ))
        for variable, conjuncts in single_variable.items():
            context = contexts[variable]
            for conjunct in conjuncts:
                estimate = (
                    context.est * self._residual_factor(conjunct)
                    * context.correction()
                )
                context.est = estimate
                context.filtered = True
                ops.append(_LogicalOp(
                    "select-var-residual", variable=variable,
                    conjunct=conjunct, est=estimate,
                ))

        # Step 3: cost-ordered combination.  The DP enumerator finds the
        # left-deep order minimising the *total* estimated intermediate
        # rows (Selinger-style over connected subgraphs, products
        # deferred); when it declines — greedy mode, a single range, or
        # more than DP_JOIN_THRESHOLD ranges — the PR 3 greedy order is
        # used: estimated-smallest start, then at each step the linked
        # range with the smallest estimated join output, products
        # (smallest first) only when nothing is linked.
        order = self._dp_join_order(variables, declaration, contexts,
                                    equijoins, deferred)
        if order is not None:
            start = order[0]
        else:
            start = min(variables, key=lambda v: (contexts[v].est, declaration[v]))
        self._start = start
        included: Set[str] = {start}
        remaining = [v for v in variables if v != start]
        current = contexts[start].est
        distincts: Dict[str, float] = {}

        current = self._plan_deferred(ops, current, deferred, included, variables)

        while remaining:
            best = None
            if order is not None:
                # Follow the DP-chosen order; whether the next range
                # joins or products falls out of its links as usual.
                candidate = order[len(included)]
                links = _pick_equijoins(equijoins, included, candidate)
                if links:
                    pairs = _orient_links(links, included)
                    estimate = self._join_estimate(
                        current, distincts, contexts, contexts[candidate], pairs
                    )
                    best = (None, candidate, links, pairs, estimate)
            else:
                for variable in remaining:
                    links = _pick_equijoins(equijoins, included, variable)
                    if not links:
                        continue
                    pairs = _orient_links(links, included)
                    estimate = self._join_estimate(
                        current, distincts, contexts, contexts[variable], pairs
                    )
                    key = (estimate, declaration[variable])
                    if best is None or key < best[0]:
                        best = (key, variable, links, pairs, estimate)
            if best is None:
                if order is not None:
                    variable = order[len(included)]
                else:
                    variable = min(
                        remaining, key=lambda v: (contexts[v].est, declaration[v])
                    )
                context = contexts[variable]
                estimate = model.product_cardinality(current, context.est)
                ops.append(_LogicalOp("product", variable=variable, est=estimate))
            else:
                _, variable, links, pairs, estimate = best
                for link in links:
                    equijoins.remove(link)
                context = contexts[variable]
                index = None
                if self.use_indexes and context.table is not None and not context.filtered:
                    index = context.table.find_index(
                        [new.attribute for _, new in pairs]
                    )
                ops.append(_LogicalOp(
                    "join", variable=variable, pairs=pairs, est=estimate,
                    index=index,
                ))
                _fold_join_distincts(distincts, contexts, pairs, estimate)
            included.add(variable)
            remaining.remove(variable)
            current = estimate
            current = self._plan_deferred(ops, current, deferred, included, variables)

        # Safety net: any equality conjunct the enumeration did not
        # consume (not reachable in practice) is applied as a selection.
        for conjunct in equijoins + deferred:
            estimate = current * self._residual_factor(conjunct)
            current = estimate
            ops.append(_LogicalOp("residual", conjunct=conjunct, est=estimate))

        ops.append(_LogicalOp("project", targets=self._qualified_targets()))
        return ops

    def _plan_index_selection(
        self, ops: List[_LogicalOp], context: _RangeContext,
        conjuncts: List[Comparison],
    ) -> List[Comparison]:
        """Plan serving pushed equality conjuncts from a covering
        persistent index (one bucket probe instead of a scan); returns
        the conjuncts the index did not consume."""
        if not self.use_indexes or context.table is None or context.filtered:
            return conjuncts
        by_attr: Dict[str, Tuple[Comparison, Any]] = {}
        for conjunct in conjuncts:
            attribute, op, constant = _constant_parts(conjunct)
            if op in ("=", "==") and attribute not in by_attr:
                by_attr[attribute] = (conjunct, constant)
        if not by_attr:
            return conjuncts
        index, consumed_attrs = context.table.find_equality_index(list(by_attr))
        if index is None:
            return conjuncts
        by_attr = {attribute: by_attr[attribute] for attribute in consumed_attrs}
        consumed = {id(c) for c, _ in by_attr.values()}
        estimate = context.est
        for conjunct, _ in by_attr.values():
            attribute, op, _constant = _constant_parts(conjunct)
            estimate = self.cost_model.estimate_selection(
                context.stats(), attribute, op, cardinality=estimate
            )
        estimate *= context.correction()
        probe = [by_attr[a][1] for a in index.attributes]
        described = " and ".join(
            f"{context.variable}.{a} = {by_attr[a][1]!r}" for a in index.attributes
        )
        context.est = estimate
        context.filtered = True
        ops.append(_LogicalOp(
            "index-select", variable=context.variable, index=index,
            probe=probe, described=described, est=estimate,
        ))
        return [c for c in conjuncts if id(c) not in consumed]

    def _plan_deferred(
        self,
        ops: List[_LogicalOp],
        current: float,
        deferred: List[Predicate],
        included: Set[str],
        variables: Sequence[str],
    ) -> float:
        """Push residual conjuncts through: schedule each as soon as every
        range it mentions has been combined.

        A conjunct that becomes applicable exactly at a join — it
        mentions the just-joined variable — and compiles to a fast
        (probe, build) pair predicate is **fused into the join** instead
        of appended as a separate selection: the probe loop rejects the
        pair before the joined tuple is ever constructed (two dict reads
        instead of a tuple build the very next operator would discard).
        Conjuncts with shapes the pair compiler rejects (Or / Not /
        exotic terms) keep the post-join Filter behaviour."""
        for conjunct in list(deferred):
            references = conjunct.references()
            if references and not set(references) <= included:
                continue
            deferred.remove(conjunct)
            estimate = current * self._residual_factor(conjunct)
            current = estimate
            if ops and ops[-1].kind == "join" and ops[-1].variable in references:
                join_op = ops[-1]
                fused = _conjoin(_flatten(join_op.residual) + [conjunct])
                if _pair_predicate(fused, join_op.variable) is not None:
                    join_op.residual = fused
                    join_op.est = estimate
                    continue
            ops.append(_LogicalOp("residual", conjunct=conjunct, est=estimate))
        return current

    def _residual_factor(self, conjunct: Predicate) -> float:
        if isinstance(conjunct, Comparison):
            return self.cost_model.residual_selectivity([conjunct.op])
        return self.cost_model.theta_selectivity

    def _join_estimate(
        self,
        current: float,
        distincts: Dict[str, float],
        contexts: Dict[str, _RangeContext],
        context: _RangeContext,
        pairs: Sequence[Tuple[AttributeRef, AttributeRef]],
    ) -> float:
        key_distincts = []
        null_fractions = []
        for old_ref, new_ref in pairs:
            old_key = self._qualify(old_ref.variable, old_ref.attribute)
            old_distinct = distincts.get(old_key)
            if old_distinct is None:
                old_distinct = contexts[old_ref.variable].distinct(old_ref.attribute)
                if old_distinct:
                    old_distinct = min(old_distinct, current)
            new_distinct = context.distinct(new_ref.attribute)
            key_distincts.append((old_distinct, new_distinct))
            null_fractions.append((0.0, context.null_fraction(new_ref.attribute)))
        return self.cost_model.join_cardinality(
            current, context.est, key_distincts, null_fractions
        )

    def _dp_join_order(
        self,
        variables: Sequence[str],
        declaration: Dict[str, int],
        contexts: Dict[str, _RangeContext],
        equijoins: List[Comparison],
        deferred: List[Predicate],
    ) -> Optional[List[str]]:
        """The cheapest left-deep combination order, by dynamic
        programming over subsets — or ``None`` for the greedy fallback.

        Selinger-style: one state per subset of ranges, extended only by
        ranges *connected* to it through an unused equality link;
        Cartesian products enter the enumeration only for subsets with no
        linked extension at all ("products deferred").  A state's cost is
        the sum of the estimated rows of every intermediate it built —
        the same per-step estimates the emission loop will recompute
        (``_join_estimate`` plus the deferred-conjunct selectivity folds
        of ``_plan_deferred``), so the order handed back replays to
        exactly the costs that selected it.  Ties break toward
        declaration order, keeping plans deterministic.
        """
        if self.join_enumeration != "dp":
            return None
        count = len(variables)
        if count < 2 or count > DP_JOIN_THRESHOLD:
            return None
        model = self.cost_model

        deferred_refs = [
            (conjunct, frozenset(conjunct.references())) for conjunct in deferred
        ]

        def fold_deferred(estimate, before, after):
            # Mirror _plan_deferred: a deferred conjunct's selectivity
            # applies the moment its variables are all combined.
            for conjunct, refs in deferred_refs:
                if refs and refs <= after and not refs <= before:
                    estimate *= self._residual_factor(conjunct)
            return estimate

        linked: Dict[str, Set[str]] = {v: set() for v in variables}
        for conjunct in equijoins:
            left, right = conjunct.left.variable, conjunct.right.variable
            linked[left].add(right)
            linked[right].add(left)

        def order_rank(order):
            return tuple(declaration[v] for v in order)

        # subset -> (cost, order, current estimate, shared-key distincts)
        states: Dict[frozenset, Tuple[float, Tuple[str, ...], float, Dict[str, float]]] = {}
        for variable in variables:
            subset = frozenset((variable,))
            estimate = fold_deferred(contexts[variable].est, frozenset(), subset)
            states[subset] = (estimate, (variable,), estimate, {})

        for size in range(1, count):
            for subset in [s for s in states if len(s) == size]:
                cost, order, current, distincts = states[subset]
                connected = [
                    v for v in variables if v not in subset and linked[v] & subset
                ]
                candidates = connected or [
                    v for v in variables if v not in subset
                ]
                for variable in candidates:
                    links = _pick_equijoins(equijoins, set(subset), variable)
                    branch_distincts = dict(distincts)
                    if links:
                        pairs = _orient_links(links, set(subset))
                        estimate = self._join_estimate(
                            current, branch_distincts, contexts,
                            contexts[variable], pairs,
                        )
                        _fold_join_distincts(
                            branch_distincts, contexts, pairs, estimate
                        )
                    else:
                        estimate = model.product_cardinality(
                            current, contexts[variable].est
                        )
                    extended = subset | frozenset((variable,))
                    estimate = fold_deferred(estimate, subset, extended)
                    branch = (
                        cost + estimate, order + (variable,),
                        estimate, branch_distincts,
                    )
                    existing = states.get(extended)
                    if existing is None or (
                        (branch[0], order_rank(branch[1]))
                        < (existing[0], order_rank(existing[1]))
                    ):
                        states[extended] = branch
        return list(states[frozenset(variables)][1])

    def _qualified_targets(self) -> List[Tuple[str, str]]:
        return [
            (output, self._qualify(ref.variable, ref.attribute))
            for output, ref in self.query.target
        ]

    # -- step texts -----------------------------------------------------------
    def _step_text(self, op: _LogicalOp) -> str:
        """The logical step line (sans annotations)."""
        if op.kind == "rename":
            return f"rename {op.described} as {op.variable}(…)"
        if op.kind == "index-select":
            return f"index select {op.described} using index {op.index.name}"
        if op.kind == "select":
            return f"select {op.conjunct!r} on {op.variable}"
        if op.kind == "select-var-residual":
            return f"select residual {op.conjunct!r} on {op.variable}"
        if op.kind == "join":
            on = _join_on_text(op.pairs)
            fused = (
                f" with fused residual {op.residual!r}"
                if op.residual is not None else ""
            )
            if op.index is not None:
                return (
                    f"index-nested-loop join with {op.variable} using index "
                    f"{op.index.name} on {on}{fused}"
                )
            return f"hash equi-join with {op.variable} on {on}{fused}"
        if op.kind == "product":
            return f"product with {op.variable}"
        if op.kind == "residual":
            return f"select residual {op.conjunct!r}"
        if op.kind == "project":
            return f"project onto {[o for o, _ in op.targets]}"
        raise ValueError(f"unknown logical op kind {op.kind!r}")

    # -- the streaming compiler (logical plan → physical operator tree) ------
    def compile(
        self,
        parallelism: Optional[Union[int, str]] = None,
        parallel_mode: Optional[str] = None,
    ) -> Pipeline:
        """Compile the logical plan into a fresh streaming pipeline.

        The tree pulls blocks leaf-to-root and builds **no** intermediate
        ``XRelation``: pushed selections are :class:`Filter` nodes over a
        :class:`TableScan` (or an :class:`IndexProbe` bucket), joins
        bucket only the (filtered, unrenamed) build side and rename only
        matched rows, residual conjuncts filter rows in flight, and the
        single materialisation happens when the
        :class:`~repro.exec.pipeline.Pipeline` is drained.  Each call
        returns a new single-use tree; the logical plan is computed once.

        *parallelism* / *parallel_mode* override the constructor
        defaults: with a resolved partition count of 2 or more the same
        logical plan compiles into an
        :class:`~repro.exec.Exchange`/:class:`~repro.exec.Merge` pair
        over per-partition plan fragments instead (``1`` — explicit or
        resolved from ``"auto"`` — returns the plain serial tree, so a
        ``parallelism=1`` run is the serial run, block for block).
        """
        resolved = self._resolve_parallelism(parallelism)
        if resolved <= 1:
            pipeline = self._compile_serial()
        else:
            mode = parallel_mode if parallel_mode is not None else self.parallel_mode
            pipeline = self._compile_parallel(resolved, mode)
        self._record_plan_metrics(resolved)
        return pipeline

    def _record_plan_metrics(self, partitions: int) -> None:
        """Count this compilation and its physical join choices in the
        database's metrics registry (one bump per compiled pipeline).

        A cached prepared statement recompiles its pipeline on every
        execution, so the label children are resolved once per Plan and
        cached — the per-compile cost is a handful of counter adds,
        keeping the prepared fast path inside E21's 5% overhead gate.
        """
        handles = self._metric_handles
        if handles is None:
            registry = registry_for(self.database)
            plans = registry.counter(
                "repro_plans_total",
                "Streaming pipelines compiled by the cost-based planner.",
                ("mode",),
            )
            choices = registry.counter(
                "repro_plan_join_choices_total",
                "Physical strategy chosen per combine step (index-NL vs "
                "hash join vs cartesian product).",
                ("strategy",),
            )
            handles = self._metric_handles = {
                "serial": plans.labels(mode="serial"),
                "parallel": plans.labels(mode="parallel"),
                "index_nl": choices.labels(strategy="index_nl"),
                "hash": choices.labels(strategy="hash"),
                "product": choices.labels(strategy="product"),
            }
        handles["parallel" if partitions > 1 else "serial"].inc()
        for op in self.logical_plan():
            if op.kind == "join":
                handles["index_nl" if op.index is not None else "hash"].inc()
            elif op.kind == "product":
                handles["product"].inc()

    def _resolve_parallelism(
        self, parallelism: Optional[Union[int, str]]
    ) -> int:
        """Turn a ``parallelism`` knob value into a partition count.

        ``None`` defers to the constructor's setting; ``None``/``0``
        there means serial.  ``"auto"`` consults
        :func:`repro.stats.suggest_parallelism` with the sum of the
        per-range statistics row counts — the rows the pipeline will pull
        through its leaves — so the decision touches no rows.
        """
        if parallelism is None:
            parallelism = self.parallelism
        if parallelism is None or parallelism == 0:
            return 1
        if parallelism == "auto":
            self.logical_plan()  # populates the per-range contexts
            contexts = self._plan_contexts or {}
            estimated = float(sum(
                context.stats().row_count for context in contexts.values()
            ))
            return suggest_parallelism(estimated)
        count = int(parallelism)
        if count < 1:
            raise ValueError(f"parallelism must be >= 1, got {count}")
        return count

    def _trace_steps(
        self,
        ops: Sequence[_LogicalOp],
        nodes: Optional[Sequence[Optional[PhysicalOperator]]] = None,
    ) -> List[TraceStep]:
        """One :class:`TraceStep` per logical op.

        With *nodes* (the serial tree) every step reads its node's live
        actuals, and each selection step names the stored table its
        estimate came from, for the adaptive-feedback loop.  Without
        (the parallel trace) the steps wait for the
        :class:`~repro.exec.Exchange` to fill in the per-worker totals.
        """
        contexts = self._plan_contexts
        steps: List[TraceStep] = []
        for i, op in enumerate(ops):
            node = nodes[i] if nodes is not None else None
            text = self._step_text(op)
            if op.kind == "rename":
                steps.append(TraceStep(text))
            elif op.kind == "project":
                steps.append(TraceStep(text, node=node, show_est=False))
            else:
                table = None
                if node is not None and op.kind in (
                    "index-select", "select", "select-var-residual"
                ):
                    table = contexts[op.variable].table
                steps.append(TraceStep(text, est=op.est, node=node, table=table))
        return steps

    def _compile_serial(self) -> Pipeline:
        """The single-process compiler behind :meth:`compile`."""
        ops = self.logical_plan()
        contexts = self._plan_contexts
        block_size = self.block_size

        def leaf(variable: str) -> PhysicalOperator:
            relation = contexts[variable].relation
            return TableScan(
                relation.tuples(),
                label=f"TableScan {relation.name} ({variable})",
                est=float(len(relation)),
                block_size=block_size,
            )

        root, nodes = build_operator_tree(
            ops,
            {variable: contexts[variable].mapping for variable in self.query.ranges},
            self._start, leaf, block_size,
        )
        # One staleness stamp per table the tree probes *live* (the
        # inner side of every index-nested-loop join); every other leaf
        # snapshots its rows at execute time and needs no guard.
        guards = [
            StalenessGuard(contexts[op.variable].table)
            for op in ops
            if op.kind == "join" and op.index is not None
            and contexts[op.variable].table is not None
        ]
        pipeline = Pipeline(
            root, self.query.output_schema(), self._trace_steps(ops, nodes),
            guards=guards,
            database_epoch=getattr(self.database, "epoch", None),
        )
        self.pipeline = pipeline
        return pipeline

    # -- the parallel compiler (logical plan → Exchange/Merge over fragments) -
    def _compile_parallel(self, partitions: int, mode: str) -> Pipeline:
        """Compile the logical plan into *partitions* parallel fragments.

        The coordinator resolves every range's rows up front and ships
        the logical ops with their live indexes stripped
        (:meth:`_LogicalOp.without_index`): workers are shared-nothing —
        they never see a live ``Database`` or index — so an
        index-selected range ships its probed bucket as the range's
        source, and a join that would run index-nested-loop serially
        runs as a hash join over the shipped rows.  Each worker builds
        its tree with the serial compiler's :func:`build_operator_tree`.
        The partition scheme:

        * when the plan's first combining step is an equi-join, both its
          sides are **co-partitioned** on the fused key — start-range
          rows by their key values, the joined range's rows by theirs —
          so every matching pair meets inside one worker, and rows null
          on a key attribute (which the join would drop anyway) are
          never shipped;
        * otherwise (single-range or product-first plans) the start
          range is partitioned by null-pattern **signature**, which
          groups identical rows — maximal local reduction per worker;
        * every other range is broadcast whole.

        Correctness does not depend on the scheme: each serial output
        row derives from exactly one start-range row, so the shard
        outputs cover the serial output, and the final
        :class:`~repro.exec.Merge` reduction restores global minimal
        form for *any* partition function (reduction only removes
        dominated rows; dominance is transitive).
        """
        ops = self.logical_plan()
        contexts = self._plan_contexts
        variables = list(self.query.ranges)
        start = self._start

        resolved: Dict[str, List[XTuple]] = {}
        for op in ops:
            if op.kind == "index-select":
                resolved[op.variable] = list(op.index.lookup(op.probe))
        for variable in variables:
            if variable not in resolved:
                resolved[variable] = list(contexts[variable].relation.tuples())

        first_combine = next(
            (op for op in ops if op.kind in ("join", "product")), None
        )
        sharded: Dict[str, List[List[XTuple]]] = {}
        if first_combine is not None and first_combine.kind == "join":
            # At the plan's first join the combined side is exactly the
            # start range, so every pair's old ref names a bare start
            # attribute — both sides hash the same key values.
            pairs = first_combine.pairs
            start_key = [old.attribute for old, _ in pairs]
            build_key = [new.attribute for _, new in pairs]
            sharded[start] = partition_rows_by_key(
                resolved[start], start_key, partitions
            )
            sharded[first_combine.variable] = partition_rows_by_key(
                resolved[first_combine.variable], build_key, partitions
            )
            scheme = "co-partitioned on " + "+".join(
                f"{start}.{a}" for a in start_key
            )
        else:
            sharded[start] = partition_rows_by_signature(
                resolved[start], partitions
            )
            scheme = "signature-partitioned"

        partition_sources: List[Dict[str, List[XTuple]]] = []
        for i in range(partitions):
            partition_sources.append({
                variable: (
                    sharded[variable][i]
                    if variable in sharded else resolved[variable]
                )
                for variable in variables
            })
        partitioned_rows = [
            sum(len(shards[i]) for shards in sharded.values())
            for i in range(partitions)
        ]

        fragment = PlanFragment(
            tuple(op.without_index() for op in ops),
            {variable: contexts[variable].mapping for variable in variables},
            start,
        )
        trace = self._trace_steps(ops)
        exchange = Exchange(
            fragment, partition_sources,
            partitioned_rows=partitioned_rows, mode=mode,
            trace_steps=trace,
            label=f"Exchange [{partitions} partitions, {mode}, {scheme}]",
            block_size=self.block_size,
        )
        merge = Merge(exchange, block_size=self.block_size)
        trace = trace + [
            TraceStep(
                f"exchange over {partitions} partitions ({scheme}, {mode})",
                node=exchange, show_est=False,
            ),
            TraceStep(
                "merge + reduce the shard frontier", node=merge, show_est=False,
            ),
        ]
        pipeline = Pipeline(merge, self.query.output_schema(), trace)
        self.pipeline = pipeline
        return pipeline


def _join_on_text(pairs: Sequence[Tuple[AttributeRef, AttributeRef]]) -> str:
    described = [
        f"{old.variable}.{old.attribute} = {new.variable}.{new.attribute}"
        for old, new in pairs
    ]
    return described[0] if len(described) == 1 else "[" + ", ".join(described) + "]"


def build_operator_tree(
    ops: Sequence[_LogicalOp],
    mappings: Dict[str, Dict[str, str]],
    start: str,
    leaf: Callable[[str], PhysicalOperator],
    block_size: int,
) -> Tuple[PhysicalOperator, List[Optional[PhysicalOperator]]]:
    """Build the physical operator tree for a logical plan.

    The one tree builder: :meth:`Plan.compile` runs it over the stored
    ranges, and every parallel worker
    (:func:`repro.exec.exchange.execute_fragment`) runs it over its
    partition's rows.  *mappings* holds each range's rename mapping in
    declaration order, *start* names the range the combination begins
    from, and *leaf(variable)* returns a fresh scan over that range's
    rows.  An ``index-select`` op with a live index becomes an
    :class:`IndexProbe`; one without reads the range's leaf, which then
    serves the coordinator-resolved bucket.  Likewise a join with an
    index probes it (:class:`IndexNLJoin`), one without hash-joins.

    Returns the root plus one node per op, ``None`` for the no-op
    ``rename`` steps (renaming is fused into the joins), so per-step
    actuals align by index with the logical plan.
    """
    variables = list(mappings)
    chains: Dict[str, PhysicalOperator] = {}

    def scan(variable: str) -> PhysicalOperator:
        node = chains.get(variable)
        if node is None:
            node = chains[variable] = leaf(variable)
        return node

    def transform_for(variable: str):
        mapping = mappings[variable]
        return lambda row, _mapping=mapping: row.rename(_mapping)

    combined: Optional[PhysicalOperator] = None

    def combined_node() -> PhysicalOperator:
        nonlocal combined
        if combined is None:
            source = scan(start)
            combined = Rename(
                source, mappings[start], label=f"Rename {start}.*",
                est=source.est, block_size=block_size,
            )
        return combined

    nodes: List[Optional[PhysicalOperator]] = []
    for op in ops:
        node: Optional[PhysicalOperator] = None
        if op.kind == "index-select":
            if op.index is not None:
                node = IndexProbe(
                    op.index.lookup, op.probe,
                    label=f"IndexProbe {op.index.name} ({op.variable})",
                    est=op.est, block_size=block_size,
                )
                chains[op.variable] = node
            else:
                node = scan(op.variable)
        elif op.kind == "select":
            node = chains[op.variable] = Filter(
                scan(op.variable),
                algebra.constant_predicate(op.attribute, op.op, op.constant),
                label=f"Filter {op.variable}.{op.attribute} {op.op} {op.constant!r}",
                est=op.est, block_size=block_size,
            )
        elif op.kind == "select-var-residual":
            node = chains[op.variable] = Filter(
                scan(op.variable),
                _single_variable_predicate(op.conjunct, op.variable),
                label=f"Filter {op.conjunct!r} ({op.variable})",
                est=op.est, block_size=block_size,
            )
        elif op.kind == "join":
            on = _join_on_text(op.pairs)
            residual = (
                _pair_predicate(op.residual, op.variable)
                if op.residual is not None else None
            )
            if op.index is not None:
                bare_to_combined = {
                    new.attribute: f"{old.variable}.{old.attribute}"
                    for old, new in op.pairs
                }
                node = IndexNLJoin(
                    combined_node(), op.index.lookup,
                    [bare_to_combined[a] for a in op.index.attributes],
                    transform_for(op.variable),
                    residual=residual,
                    label=f"IndexNLJoin {op.index.name} on {on}",
                    est=op.est, block_size=block_size,
                )
            else:
                node = HashJoin(
                    combined_node(), scan(op.variable),
                    [new.attribute for _, new in op.pairs],
                    [f"{old.variable}.{old.attribute}" for old, _ in op.pairs],
                    transform_for(op.variable),
                    residual=residual,
                    label=f"HashJoin on {on}",
                    est=op.est, block_size=block_size,
                )
        elif op.kind == "product":
            node = Product(
                combined_node(), scan(op.variable), transform_for(op.variable),
                label=f"Product with {op.variable}",
                est=op.est, block_size=block_size,
            )
        elif op.kind == "residual":
            node = Filter(
                combined_node(), _residual_predicate(op.conjunct, variables),
                label=f"Filter {op.conjunct!r}",
                est=op.est, block_size=block_size,
            )
        elif op.kind == "project":
            node = Project(
                combined_node(), op.targets,
                label=f"Project {[o for o, _ in op.targets]}",
                block_size=block_size,
            )
        elif op.kind != "rename":
            raise ValueError(f"unknown logical op kind {op.kind!r}")
        if op.kind in ("join", "product", "residual", "project"):
            combined = node
        nodes.append(node)
    return combined_node(), nodes


# ---------------------------------------------------------------------------
# Predicate compilation for the streaming filters
# ---------------------------------------------------------------------------

def _term_getter(term, variable: Optional[str] = None):
    """A direct row-value getter for a comparison term, or ``None`` when
    the term shape needs the generic evaluation machinery.  With
    *variable* the rows carry bare attribute names (a pre-rename range
    filter); without it they carry ``variable.attribute`` names."""
    if isinstance(term, AttributeRef):
        if variable is not None and term.variable != variable:
            return None
        key = term.attribute if variable is not None else f"{term.variable}.{term.attribute}"
        return lambda row, _k=key: row[_k]
    if isinstance(term, Constant):
        value = term.literal
        return lambda row, _v=value: _v
    return None


def _compile_comparisons(predicate: Predicate, variable: Optional[str] = None):
    """Compile a conjunction of plain comparisons into one fast row
    predicate, or return ``None`` for shapes (Or / Not / exotic terms)
    that must go through the generic three-valued evaluator.  Keeping a
    row iff the conjunction is TRUE is exactly "every comparison TRUE"
    under the Table III AND semantics, so early exit is sound."""
    conjuncts = predicate.operands if isinstance(predicate, And) else (predicate,)
    compiled = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, Comparison):
            return None
        left = _term_getter(conjunct.left, variable)
        right = _term_getter(conjunct.right, variable)
        if left is None or right is None:
            return None
        compiled.append((left, conjunct.op, right))

    def predicate_fn(row: XTuple, _compiled=tuple(compiled)) -> bool:
        for left, op, right in _compiled:
            if not compare(left(row), op, right(row)).is_true():
                return False
        return True

    return predicate_fn


def _single_variable_predicate(conjunct: Predicate, variable: str):
    """The streaming filter for a pushed single-variable residual —
    evaluated over the *unrenamed* base rows."""
    fast = _compile_comparisons(conjunct, variable)
    if fast is not None:
        return fast

    def predicate(row: XTuple, _c=conjunct, _v=variable):
        return _c.evaluate({_v: row})

    return predicate


def _residual_predicate(conjunct: Predicate, variables: Sequence[str]):
    """The streaming filter for a residual conjunct over combined rows
    (attributes carry their ``variable.`` prefixes)."""
    fast = _compile_comparisons(conjunct)
    if fast is not None:
        return fast
    return _bind_residual(conjunct, variables)


def _pair_term_getter(term, new_variable: str):
    """A value getter over a join's ``(probe row, build row)`` pair.

    References to *new_variable* read the **unrenamed build row** under
    the bare attribute name (the probe loop evaluates the residual
    before the build row is renamed or joined — see
    :func:`repro.core.engine.joins.probe_join_block`); references to any
    already-combined variable read the probe row under its qualified
    ``variable.attribute`` name.  Returns ``None`` for term shapes the
    fast path cannot serve.
    """
    if isinstance(term, AttributeRef):
        if term.variable == new_variable:
            key = term.attribute
            return lambda probe, build, _k=key: build[_k]
        key = f"{term.variable}.{term.attribute}"
        return lambda probe, build, _k=key: probe[_k]
    if isinstance(term, Constant):
        value = term.literal
        return lambda probe, build, _v=value: _v
    return None


def _pair_predicate(predicate: Predicate, new_variable: str):
    """Compile a residual conjunct into a fused join pair predicate.

    Returns a ``(probe row, raw build row) -> bool`` function keeping
    exactly the pairs on which the conjunction is TRUE (Table III AND
    semantics: every comparison TRUE, so early exit is sound), or
    ``None`` for shapes (Or / Not / exotic terms) that must stay a
    post-join :class:`~repro.exec.Filter`.  The planner fuses a conjunct
    only when this returns non-``None``.
    """
    conjuncts = predicate.operands if isinstance(predicate, And) else (predicate,)
    compiled = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, Comparison):
            return None
        left = _pair_term_getter(conjunct.left, new_variable)
        right = _pair_term_getter(conjunct.right, new_variable)
        if left is None or right is None:
            return None
        compiled.append((left, conjunct.op, right))

    def pair_fn(probe: XTuple, build: XTuple, _compiled=tuple(compiled)) -> bool:
        for left, op, right in _compiled:
            if not compare(left(probe, build), op, right(probe, build)).is_true():
                return False
        return True

    return pair_fn


# ---------------------------------------------------------------------------
# Conjunct classification helpers (shared by every planning mode)
# ---------------------------------------------------------------------------

def _flatten(predicate: Optional[Predicate]) -> List[Predicate]:
    """Top-level conjuncts of a (possibly None) residual predicate."""
    if predicate is None:
        return []
    if isinstance(predicate, And):
        return list(predicate.operands)
    return [predicate]


def _is_equijoin(conjunct: Predicate) -> bool:
    """True for a top-level ``t.A = m.B`` equality between two ranges."""
    return (
        isinstance(conjunct, Comparison)
        and conjunct.op in ("=", "==")
        and isinstance(conjunct.left, AttributeRef)
        and isinstance(conjunct.right, AttributeRef)
        and conjunct.left.variable != conjunct.right.variable
    )


_FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "==": "==", "!=": "!="}


def _constant_parts(conjunct: Comparison) -> Tuple[str, str, Any]:
    """The (attribute, operator, constant) of a pushable constant
    comparison, normalised so the attribute reads as the left side."""
    if isinstance(conjunct.left, AttributeRef):
        return conjunct.left.attribute, conjunct.op, conjunct.right.literal  # type: ignore[union-attr]
    return (
        conjunct.right.attribute,  # type: ignore[union-attr]
        _FLIPPED_OPS[conjunct.op],
        conjunct.left.literal,  # type: ignore[union-attr]
    )


def _orient_links(
    links: Sequence[Comparison], included: Set[str]
) -> List[Tuple[AttributeRef, AttributeRef]]:
    """Orient each equality as (combined-side ref, new-range-side ref)."""
    pairs: List[Tuple[AttributeRef, AttributeRef]] = []
    for link in links:
        new_ref, old_ref = link.left, link.right
        if old_ref.variable not in included:
            new_ref, old_ref = old_ref, new_ref
        pairs.append((old_ref, new_ref))
    return pairs


def _split_conjuncts(predicate: Predicate) -> Tuple[Dict[str, List[Comparison]], Optional[Predicate]]:
    """Separate pushable single-variable conjuncts from the residual predicate."""
    from ..core.query import TruthConstant

    if isinstance(predicate, TruthConstant):
        return {}, None

    conjuncts: List[Predicate] = list(predicate.operands) if isinstance(predicate, And) else [predicate]
    pushable: Dict[str, List[Comparison]] = {}
    residual: List[Predicate] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, Comparison):
            variables = conjunct.references()
            constant_side = isinstance(conjunct.left, Constant) or isinstance(conjunct.right, Constant)
            if len(variables) == 1 and constant_side:
                pushable.setdefault(variables[0], []).append(conjunct)
                continue
        residual.append(conjunct)
    if not residual:
        return pushable, None
    if len(residual) == 1:
        return pushable, residual[0]
    return pushable, And(*residual)


def _conjoin(predicates: List[Predicate]) -> Optional[Predicate]:
    """Fold a list of conjuncts back into a predicate (None when empty)."""
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return And(*predicates)


def _fold_join_distincts(
    distincts: Dict[str, float],
    contexts: Dict[str, _RangeContext],
    pairs: Sequence[Tuple[AttributeRef, AttributeRef]],
    estimate: float,
) -> None:
    """After a join, both sides of each fused key share one distinct-value
    count (containment of value sets), capped by the join's output
    estimate — recorded under each qualified attribute for the next
    join's estimate.  Shared between the emission loop and the DP
    enumerator so simulated orders replay to identical costs."""
    for old_ref, new_ref in pairs:
        old_key = f"{old_ref.variable}.{old_ref.attribute}"
        new_key = f"{new_ref.variable}.{new_ref.attribute}"
        old_distinct = distincts.get(old_key) or contexts[
            old_ref.variable
        ].distinct(old_ref.attribute)
        new_distinct = contexts[new_ref.variable].distinct(new_ref.attribute)
        shared = max(
            1.0,
            min(old_distinct or estimate, new_distinct or estimate,
                max(estimate, 1.0)),
        )
        distincts[old_key] = distincts[new_key] = shared


def _pick_equijoins(joins: List[Comparison], included: Set[str], variable: str) -> List[Comparison]:
    """Every unused equality linking *variable* to the already-combined ranges.

    All of them are fused into one composite-key hash join; returning only
    the first would leave the rest as residual selections over a larger
    single-key join result.
    """
    picked: List[Comparison] = []
    for conjunct in joins:
        mentioned = {conjunct.left.variable, conjunct.right.variable}
        if variable in mentioned and (mentioned - {variable}) <= included:
            picked.append(conjunct)
    return picked


def _bind_residual(predicate: Predicate, variables: Sequence[str]):
    """Turn the residual predicate into a row predicate over the product schema."""

    def row_predicate(row: XTuple):
        binding = {variable: _RowView(row, variable) for variable in variables}
        return predicate.evaluate(binding)

    return row_predicate


class _RowView:
    """Presents a product row as if it were a row of a single range variable.

    The planner renames every attribute to ``variable.attribute``; this
    adapter lets the original predicate (written against bare attribute
    names) read the prefixed columns.
    """

    __slots__ = ("_row", "_variable")

    def __init__(self, row: XTuple, variable: str):
        self._row = row
        self._variable = variable

    def __getitem__(self, attribute: str):
        return self._row[f"{self._variable}.{attribute}"]


def plan_query(query: Query, database=None, **options) -> Plan:
    """Build a :class:`Plan` for a core query."""
    return Plan(query, database, **options)
