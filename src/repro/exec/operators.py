"""Physical operators: the pull-based, batch-at-a-time executor nodes.

Each operator is one node of a physical plan tree in the style of
Graefe's Volcano iterator model, except that the unit of exchange is a
*block* (a list of :class:`~repro.core.tuples.XTuple`, MonetDB/X100
style) rather than a single row — the per-call overhead of a Python
generator is paid once per block instead of once per tuple.  An operator
pulls blocks from its child(ren) through :meth:`PhysicalOperator.blocks`,
which also instruments the node: every node records the rows it produced
(``actual_rows``), the blocks it emitted and the wall time spent in its
iterator (inclusive of its children, like ``EXPLAIN ANALYZE``), so a
drained tree doubles as a per-operator execution audit.

Non-blocking operators (:class:`Filter`, :class:`Rename`,
:class:`Project`, the probe sides of :class:`HashJoin` /
:class:`IndexNLJoin`, :class:`Product`) stream rows through without ever
building an intermediate :class:`~repro.core.xrelation.XRelation`; the
blocking ones (:class:`Reduce`, :class:`Materialize`, the build sides of
the joins) drain their input first, exactly where a pipeline breaker is
semantically required.  Row-level semantics are shared with the
whole-relation algebra through the kernels in :mod:`repro.core.algebra`
(``select_constant_rows`` / ``select_predicate_rows`` / ``rename_rows``)
and :mod:`repro.core.engine.joins` (``build_join_buckets`` /
``probe_join_block``), so the two cannot drift apart on null handling —
and the differential harness in ``tests/test_differential_planner.py``
pins every compiled tree against the Section 5 tuple oracle.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.algebra import select_predicate_rows
from ..core.engine.dominance import bulk_reduce
from ..core.engine.joins import build_join_buckets, probe_join_block
from ..core.relation import Relation, RelationSchema
from ..core.tuples import XTuple
from ..core.xrelation import XRelation

#: Default number of tuples per exchanged block.
BLOCK_SIZE = 256

Block = List[XTuple]


class PhysicalOperator:
    """Base class: one instrumented node of a physical operator tree.

    Subclasses implement :meth:`_blocks`, a generator of tuple blocks;
    :meth:`blocks` wraps it with the per-node instrumentation.  A node is
    single-use — draining it consumes its input and freezes its
    ``actual_rows`` / ``seconds`` counters; compile a fresh tree to run
    again (tree construction is a few object allocations per node).
    """

    #: Human-readable node label, e.g. ``"HashJoin(s.B = b2.B)"``.
    label: str = "?"

    def __init__(
        self,
        children: Sequence["PhysicalOperator"] = (),
        *,
        label: Optional[str] = None,
        est: Optional[float] = None,
        block_size: int = BLOCK_SIZE,
    ):
        self.children: Tuple[PhysicalOperator, ...] = tuple(children)
        if label is not None:
            self.label = label
        #: The optimizer's estimated output rows (``None`` off the cost path).
        self.est = est
        self.block_size = block_size
        #: Rows actually produced, populated while the tree drains.
        self.actual_rows = 0
        #: Blocks actually emitted.
        self.actual_blocks = 0
        #: Wall seconds spent inside this node's iterator (children included).
        self.seconds = 0.0
        self.started = False
        self.finished = False

    # -- iteration -------------------------------------------------------------
    def _blocks(self) -> Iterator[Block]:
        raise NotImplementedError

    def blocks(self) -> Iterator[Block]:
        """Pull instrumented blocks: counts rows/blocks, accumulates time."""
        self.started = True
        inner = self._blocks()
        while True:
            begin = perf_counter()
            try:
                block = next(inner)
            except StopIteration:
                self.seconds += perf_counter() - begin
                self.finished = True
                return
            self.seconds += perf_counter() - begin
            self.actual_rows += len(block)
            self.actual_blocks += 1
            yield block

    def rows(self) -> Iterator[XTuple]:
        """Row-at-a-time convenience view over :meth:`blocks`."""
        for block in self.blocks():
            yield from block

    # -- helpers ----------------------------------------------------------------
    def _reblock(self, rows: Iterable[XTuple]) -> Iterator[Block]:
        """Chop an iterable of rows into fixed-size blocks."""
        size = self.block_size
        block: Block = []
        for row in rows:
            block.append(row)
            if len(block) >= size:
                yield block
                block = []
        if block:
            yield block

    def describe(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label!r}, rows={self.actual_rows})"


# ---------------------------------------------------------------------------
# Leaf sources
# ---------------------------------------------------------------------------

class TableScan(PhysicalOperator):
    """Stream the stored rows of a range, one block at a time.

    *rows* is the row iterable — typically the live
    ``relation.tuples()`` of a stored table — snapshotted **at
    construction**: operator trees are built when the statement
    executes, so a lazy result set keeps statement-time snapshot
    semantics (the row *references* are captured, not copies), and a
    mutation between execution and iteration can neither crash the drain
    mid-set nor leak post-statement rows into the answer.  Null tuples
    (rows binding nothing) are information-free and skipped, mirroring
    the reduction to minimal form (Definition 4.6) drops them.
    """

    def __init__(self, rows: Iterable[XTuple], **kwargs: Any):
        super().__init__((), **kwargs)
        self.source = list(rows)

    def _blocks(self) -> Iterator[Block]:
        def rows() -> Iterator[XTuple]:
            for row in self.source:
                if not row.is_null_tuple():
                    yield row
            self.source = []  # release the snapshot once fully streamed

        return self._reblock(rows())


class IndexProbe(PhysicalOperator):
    """Serve a pushed equality selection from one persistent-index bucket.

    *lookup* is the bound :meth:`HashIndex.lookup` of the covering index;
    *probe* the value tuple in the index's key order.  The bucket is
    probed at construction (statement-time snapshot, like
    :class:`TableScan` — the live bucket view must not be iterated while
    later mutations resize it).  Rows null on a probed attribute are
    absent from the bucket by the index's own protocol, exactly the
    TRUE-only equality semantics.
    """

    def __init__(
        self,
        lookup: Callable[[Sequence[Any]], Iterable[XTuple]],
        probe: Sequence[Any],
        **kwargs: Any,
    ):
        super().__init__((), **kwargs)
        self.probe = tuple(probe)
        self.bucket = list(lookup(self.probe))

    def _blocks(self) -> Iterator[Block]:
        def rows() -> Iterator[XTuple]:
            yield from self.bucket
            self.bucket = []  # release the snapshot once fully streamed

        return self._reblock(rows())


# ---------------------------------------------------------------------------
# Streaming (non-blocking) operators
# ---------------------------------------------------------------------------

class Filter(PhysicalOperator):
    """Keep the rows on which *predicate* is TRUE — streaming selection.

    *predicate* is a plain row predicate returning a bool or a
    :class:`~repro.core.threevalued.TruthValue`; only TRUE keeps the row
    (the Section 5 lower-bound discipline), via the shared
    :func:`repro.core.algebra.select_predicate_rows` kernel.
    """

    def __init__(self, child: PhysicalOperator, predicate, **kwargs: Any):
        super().__init__((child,), **kwargs)
        self.child = child
        self.predicate = predicate

    def _blocks(self) -> Iterator[Block]:
        predicate = self.predicate
        for block in self.child.blocks():
            kept = select_predicate_rows(block, predicate)
            if kept:
                yield kept


class Rename(PhysicalOperator):
    """Rename every row's attributes through *mapping* — streaming."""

    def __init__(self, child: PhysicalOperator, mapping: Dict[str, str], **kwargs: Any):
        super().__init__((child,), **kwargs)
        self.child = child
        self.mapping = dict(mapping)

    def _blocks(self) -> Iterator[Block]:
        mapping = self.mapping
        for block in self.child.blocks():
            yield [row.rename(mapping) for row in block]


class Project(PhysicalOperator):
    """Project onto the target list with output renaming — streaming.

    *targets* pairs each output column with the (qualified) input column
    it reads.  Exact duplicate output rows are suppressed with a running
    seen-set (a set probe per row — the streaming analogue of projecting
    into a set), so the operator's ``actual_rows`` matches the
    projected relation's row count on duplicate-heavy inputs;
    *dominated* rows are left for the final materialisation
    (:meth:`Pipeline.run <repro.exec.pipeline.Pipeline.run>`, or a
    :class:`Reduce`/:class:`Materialize` sink on a hand-built tree),
    which is where minimal form is restored.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        targets: Sequence[Tuple[str, str]],
        **kwargs: Any,
    ):
        super().__init__((child,), **kwargs)
        self.child = child
        self.targets = tuple(targets)

    def _blocks(self) -> Iterator[Block]:
        targets = self.targets
        seen: set = set()
        for block in self.child.blocks():
            out: Block = []
            for row in block:
                projected = XTuple(
                    (output, row[qualified]) for output, qualified in targets
                )
                # An all-null projection is information-free (Definition
                # 4.6 drops it from every minimal form) — never emit it.
                if projected not in seen and not projected.is_null_tuple():
                    seen.add(projected)
                    out.append(projected)
            if out:
                yield out


class HashJoin(PhysicalOperator):
    """Composite-key hash equi-join: blocking build side, streaming probe.

    The *build* child is drained once into hash buckets keyed on
    *build_attrs* (:func:`repro.core.engine.joins.build_join_buckets` —
    rows null on any key attribute never enter a bucket); then each
    probe-side block streams through :func:`probe_join_block`.  Matched
    build rows pass through *transform* (the planner's late
    ``variable.``-prefix rename), memoised per distinct row across the
    whole join, so the bulk of a big build side is never copied.

    *residual* (optional) is a fused residual predicate over the
    ``(probe row, raw build row)`` pair, checked *before* the joined
    tuple is constructed — the planner attaches one when a deferred
    residual conjunct becomes applicable exactly at this join, so
    non-qualifying pairs never cost a tuple construction.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        build: PhysicalOperator,
        build_attrs: Sequence[str],
        probe_attrs: Sequence[str],
        transform: Callable[[XTuple], XTuple] = lambda row: row,
        residual: Optional[Callable[[XTuple, XTuple], bool]] = None,
        **kwargs: Any,
    ):
        super().__init__((child, build), **kwargs)
        self.child = child
        self.build = build
        self.build_attrs = tuple(build_attrs)
        self.probe_attrs = tuple(probe_attrs)
        self.transform = transform
        self.residual = residual

    def _blocks(self) -> Iterator[Block]:
        buckets = build_join_buckets(self.build.rows(), self.build_attrs)
        if not buckets:
            return
        empty: Tuple[XTuple, ...] = ()
        lookup = lambda key: buckets.get(key, empty)  # noqa: E731
        cache: Dict[XTuple, XTuple] = {}
        for block in self.child.blocks():
            out = probe_join_block(
                block, self.probe_attrs, lookup, self.transform, cache,
                self.residual,
            )
            if out:
                yield out


class IndexNLJoin(PhysicalOperator):
    """Index-nested-loop equi-join probing a *live* persistent index.

    No build side at all: each probe-side row looks its key up in the
    table's own :class:`~repro.storage.index.HashIndex` (*lookup*), so
    the joined range is never scanned, renamed or bucketed — the
    streaming form of :func:`repro.core.engine.joins.index_probe_join_rows`.
    Probing the *live* index is the point of the operator: a pipeline
    left undrained across table mutations reads the index as it stands
    at each pull (drain promptly when statement-time semantics must
    extend across later mutations; the pipeline's staleness guard raises
    otherwise).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        lookup: Callable[[Tuple], Iterable[XTuple]],
        probe_attrs: Sequence[str],
        transform: Callable[[XTuple], XTuple] = lambda row: row,
        residual: Optional[Callable[[XTuple, XTuple], bool]] = None,
        **kwargs: Any,
    ):
        super().__init__((child,), **kwargs)
        self.child = child
        self.lookup = lookup
        self.probe_attrs = tuple(probe_attrs)
        self.transform = transform
        self.residual = residual

    def _blocks(self) -> Iterator[Block]:
        cache: Dict[XTuple, XTuple] = {}
        for block in self.child.blocks():
            out = probe_join_block(
                block, self.probe_attrs, self.lookup, self.transform, cache,
                self.residual,
            )
            if out:
                yield out


class Product(PhysicalOperator):
    """Cartesian product (5.3): blocking right side, streaming left.

    The right child is drained once and transformed (renamed) up front;
    every left row then joins every right row.  Null tuples contribute
    nothing per the definition — the sources already drop them.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        right: PhysicalOperator,
        transform: Callable[[XTuple], XTuple] = lambda row: row,
        **kwargs: Any,
    ):
        super().__init__((child, right), **kwargs)
        self.child = child
        self.right = right
        self.transform = transform

    def _blocks(self) -> Iterator[Block]:
        def joined() -> Iterator[XTuple]:
            # Inside the generator so the blocking right-side drain runs
            # under this node's timing, not the caller's.
            transform = self.transform
            right_rows = [transform(row) for row in self.right.rows()]
            if not right_rows:
                return
            for block in self.child.blocks():
                for left in block:
                    for right in right_rows:
                        yield left.join(right)

        # Re-blocked: one input block fans out |block|·|right| ways, so
        # the output must be chopped back down to bounded blocks.
        return self._reblock(joined())


# ---------------------------------------------------------------------------
# Blocking operators
# ---------------------------------------------------------------------------

class Reduce(PhysicalOperator):
    """Reduction to minimal form (Definition 4.6) — a pipeline breaker.

    Wraps :func:`repro.core.engine.dominance.bulk_reduce`: the input must
    be complete before any dominated row can be ruled out, so the child
    is drained first and the minimal rows are re-emitted in blocks.
    The planner's compiled trees defer all reduction to the single final
    materialisation (:meth:`Pipeline.run`), so this operator serves
    hand-built trees — and is the merge point a sharded (per-partition)
    pipeline will need.
    """

    def __init__(self, child: PhysicalOperator, **kwargs: Any):
        kwargs.setdefault("label", "Reduce")
        super().__init__((child,), **kwargs)
        self.child = child

    def _blocks(self) -> Iterator[Block]:
        def reduced() -> Iterator[XTuple]:
            # Inside the generator so the blocking drain + reduction run
            # under this node's timing, not the caller's.
            staged: List[XTuple] = []
            for block in self.child.blocks():
                staged.extend(block)
            yield from bulk_reduce(staged)

        return self._reblock(reduced())


class Materialize(PhysicalOperator):
    """Drain the pipeline into an :class:`XRelation` — the tree's sink.

    The drained rows are housed under *schema* and reduced to minimal
    form by the x-relation invariant itself; :meth:`relation` caches the
    result, so a drained tree can be asked again for free.  Planner
    pipelines materialise through :meth:`Pipeline.run` (which must also
    support partial lazy consumption); this operator is the equivalent
    sink for hand-built trees.
    """

    def __init__(self, child: PhysicalOperator, schema: RelationSchema, **kwargs: Any):
        kwargs.setdefault("label", f"Materialize {schema.name}")
        super().__init__((child,), **kwargs)
        self.child = child
        self.schema = schema
        self._result: Optional[XRelation] = None

    def _blocks(self) -> Iterator[Block]:
        def materialized() -> Iterator[XTuple]:
            # Inside the generator so the blocking drain runs under this
            # node's timing, not the caller's.
            yield from self.relation().rows()

        return self._reblock(materialized())

    def relation(self) -> XRelation:
        if self._result is None:
            rows: set = set()
            for block in self.child.blocks():
                rows.update(block)
            relation = Relation(self.schema, validate=False)
            relation._rows = rows
            self._result = XRelation(relation)
        return self._result
