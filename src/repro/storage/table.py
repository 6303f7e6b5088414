"""Tables: relations plus constraints, indexes and algebra-defined updates.

Section 7 of the paper defines database updates through the extended
algebra: "the result of adding a set of tuples to a relation is defined as
the union of the set with the relation; likewise deletion is defined by
set difference; a modification can be viewed as a deletion followed by an
addition."  :class:`Table` implements exactly this discipline:

* :meth:`insert` / :meth:`insert_many` — generalised union with the new
  rows, after constraint checks; the batch form is *atomic* (checks run
  up front, nothing is applied on failure) and amortises dominance- and
  hash-index maintenance through the engine's bulk entry points;
* :meth:`delete` / :meth:`delete_many` / :meth:`delete_where` —
  generalised difference; note that, per (4.8), deleting a row also
  removes every *less informative* row it subsumes, which is the
  behaviour the information ordering dictates;
* :meth:`update` — deletion followed by insertion;
* :meth:`load` — atomic checked replacement of the whole table, the bulk
  loader behind the workload builders;
* the Section 1 user expectation — after an insert, the new table
  x-contains the old one — holds by construction and is asserted in the
  tests.

A table may carry key / NOT NULL / FD / row constraints and any number of
hash indexes, which are maintained incrementally.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..core.engine.dominance import DominanceIndex
from ..core.errors import StorageError
from ..core.relation import Relation, RelationSchema, RowLike
from ..core.tuples import XTuple
from ..core.xrelation import XRelation
from ..constraints.keys import KeyConstraint, NotNullConstraint
from ..constraints.functional import FunctionalDependency
from ..constraints.schema_constraints import RowConstraint
from ..stats import TableStatistics
from .index import HashIndex


TableConstraint = Union[KeyConstraint, NotNullConstraint, FunctionalDependency, RowConstraint]


class Table:
    """A named, constrained, indexable relation living in a catalog."""

    def __init__(
        self,
        schema: Union[RelationSchema, Sequence[str]],
        constraints: Sequence[TableConstraint] = (),
        name: Optional[str] = None,
    ):
        if not isinstance(schema, RelationSchema):
            schema = RelationSchema(tuple(schema), name=name or "T")
        elif name is not None:
            schema = RelationSchema(schema.attributes, schema.domains(), name=name)
        self.relation = Relation(schema)
        self.constraints: List[TableConstraint] = list(constraints)
        self.indexes: Dict[str, HashIndex] = {}
        # Live dominance index over the stored rows, maintained by every
        # mutation path; powers x-membership probes and (4.8) deletion
        # without scanning the table.
        self.dominance = DominanceIndex()
        # Live statistics (row/distinct/null counts, signature histogram),
        # maintained through the same mutation paths; the cost-based
        # planner reads them instead of scanning the table per query.
        self.statistics = TableStatistics()
        # Physical-design epoch: bumped by every index change and every
        # explicit ANALYZE.  Sessions key their prepared-plan caches on
        # the database-wide sum, so a stale cached plan transparently
        # re-plans after the physical choices may have changed.
        self.ddl_epoch = 0
        # Write-ahead log, wired by the owning catalog when the database
        # has one attached (None otherwise).  Every mutation entry point
        # appends a logical record *before* applying, holding the log's
        # lock across append + apply so a background checkpoint can never
        # truncate a record whose state change has not landed yet.
        self._wal = None
        # Undo log, wired by the owning catalog (None for a free-standing
        # table).  While a group is open every mutation funnel records
        # its exact inverse there (see :mod:`repro.storage.undo`).
        self._undo = None

    # -- write-ahead logging ------------------------------------------------------
    def _wal_lock(self):
        """The WAL's append-and-apply scope when one is attached, else a
        no-op context.  The scope holds the WAL lock (so the checkpoint
        worker never snapshots between a record and its state change) and
        issues any deferred group-commit fsync on the way out."""
        wal = self._wal
        return wal.commit_scope() if wal is not None else nullcontext()

    def _log(self, op: str, **fields) -> None:
        """Append one logical record for this table (no-op without a WAL,
        and during recovery replay)."""
        wal = self._wal
        if wal is not None and not wal.replaying:
            record = {"op": op, "table": self.name}
            record.update(fields)
            wal.append(record)

    def _recording(self):
        """The catalog's undo log when a group is open, else None."""
        undo = self._undo
        return undo if undo is not None and undo.recording else None

    # -- convenience accessors ----------------------------------------------------
    @property
    def name(self) -> str:
        return self.relation.schema.name

    @property
    def schema(self) -> RelationSchema:
        return self.relation.schema

    @property
    def attributes(self):
        return self.relation.schema.attributes

    def rows(self):
        return self.relation.tuples()

    def __len__(self) -> int:
        return len(self.relation)

    def __iter__(self):
        return iter(self.relation)

    def as_relation(self) -> Relation:
        return self.relation

    def as_xrelation(self) -> XRelation:
        return XRelation(self.relation)

    # -- constraints ----------------------------------------------------------------
    def add_constraint(self, constraint: TableConstraint, validate_existing: bool = True) -> None:
        if validate_existing:
            check = getattr(constraint, "check", None)
            if check is not None:
                check(self.relation)
        self.constraints.append(constraint)
        undo = self._recording()
        if undo is not None:
            undo.record(self.constraints.pop)

    def _check_insert(self, row: XTuple, relation: Optional[Relation] = None) -> None:
        """Run every constraint's per-row insert guard against *relation*
        (default: this table's stored relation)."""
        against = self.relation if relation is None else relation
        for constraint in self.constraints:
            check_insert = getattr(constraint, "check_insert", None)
            if check_insert is not None:
                check_insert(against, row)

    def _check_bulk_insert(self, relation: Relation, candidates: Sequence[XTuple]) -> bool:
        """Run every constraint against a staged batch, before any mutation.

        Returns True when every constraint offered a ``check_bulk_insert``
        batch form (the amortised path, one pass over *relation* per
        constraint).  Returns False when some constraint only knows
        ``check_insert`` — the caller must then fall back to the
        sequential row-at-a-time simulation, which is the only way to give
        such a constraint the grows-as-you-insert view it expects.
        """
        batch_checks = []
        for constraint in self.constraints:
            check_bulk = getattr(constraint, "check_bulk_insert", None)
            if check_bulk is None:
                if getattr(constraint, "check_insert", None) is not None:
                    return False
                continue  # constraint guards nothing on insert
            batch_checks.append(check_bulk)
        for check_bulk in batch_checks:
            check_bulk(relation, candidates)
        return True

    def _constraints_read_rows(self) -> bool:
        """Whether some constraint checks inserts against the stored rows
        (and so needs a staged relation to check against)."""
        return any(
            getattr(c, "check_bulk_insert", None) is not None
            or getattr(c, "check_insert", None) is not None
            for c in self.constraints
        )

    def validate(self) -> None:
        """Re-check every constraint against the whole table."""
        for constraint in self.constraints:
            check = getattr(constraint, "check", None)
            if check is not None:
                check(self.relation)

    # -- indexes -----------------------------------------------------------------------
    def create_index(self, attributes: Sequence[str], name: Optional[str] = None) -> HashIndex:
        self.schema.require(attributes)
        index = HashIndex(attributes, name=name)
        if index.name in self.indexes:
            raise StorageError(f"index {index.name!r} already exists on table {self.name!r}")
        with self._wal_lock():
            self._log("create_index", name=index.name, attributes=index.attributes)
            index.rebuild(self.relation.tuples())
            self.indexes[index.name] = index
            self.ddl_epoch += 1
            undo = self._recording()
            if undo is not None:
                undo.record(self.drop_index, index.name)
        return index

    def _attach_index(self, index: HashIndex) -> None:
        """Re-attach a dropped index object (the inverse of
        :meth:`drop_index`).  Rollback applies it to the same row set the
        index was dropped from, so its buckets are still exact; the log
        gets a ``create_index`` record, which replay rebuilds."""
        with self._wal_lock():
            self._log("create_index", name=index.name, attributes=index.attributes)
            self.indexes[index.name] = index
            self.ddl_epoch += 1

    def drop_index(self, name_or_attributes: Union[str, Sequence[str]]) -> None:
        """Drop an index by name, or by the attribute *set* it covers.

        Dropping by attributes is order-insensitive: an index declared on
        ``("B", "A")`` is found by ``drop_index(["A", "B"])``.
        """
        if isinstance(name_or_attributes, str):
            if name_or_attributes not in self.indexes:
                raise StorageError(
                    f"no index named {name_or_attributes!r} on table {self.name!r}"
                )
            doomed_name = name_or_attributes
        else:
            index = self.find_index(name_or_attributes)
            if index is None:
                raise StorageError(
                    f"no index on attributes {list(name_or_attributes)!r} "
                    f"on table {self.name!r}"
                )
            doomed_name = index.name
        with self._wal_lock():
            self._log("drop_index", name=doomed_name)
            dropped = self.indexes.pop(doomed_name)
            self.ddl_epoch += 1
            undo = self._recording()
            if undo is not None:
                undo.record(self._attach_index, dropped)

    def find_index(self, attributes: Sequence[str]) -> Optional[HashIndex]:
        """The index covering exactly this attribute *set*, if any.

        Matching is order-insensitive — a hash index answers equality
        probes on every permutation of its key, the caller just has to
        permute the probe values into the index's declared order.
        """
        wanted = frozenset(attributes)
        if len(wanted) != len(tuple(attributes)):
            return None
        for index in self.indexes.values():
            if len(index.attributes) == len(wanted) and wanted == frozenset(index.attributes):
                return index
        return None

    def find_equality_index(self, attributes: Sequence[str]):
        """The physical choice for a set of equality-probed attributes.

        Returns ``(index, consumed)``: the :class:`HashIndex` to probe
        and the attribute subset it covers — the index matching the full
        attribute *set* when one exists, otherwise the first
        single-attribute index among them (the remaining equalities stay
        as ordinary filters).  ``(None, ())`` when nothing applies.  Both
        the cost-based planner's pushed selections and the session's
        prepared fast path make this choice through here, so they can
        never diverge on the access path for the same conjuncts.
        """
        wanted = tuple(attributes)
        if not wanted:
            return None, ()
        index = self.find_index(wanted)
        if index is not None:
            return index, wanted
        if len(wanted) > 1:
            for attribute in wanted:
                index = self.find_index([attribute])
                if index is not None:
                    return index, (attribute,)
        return None, ()

    def index_specs(self) -> Dict[str, tuple]:
        """The persistent indexes as ``{name: attribute tuple}`` — what
        snapshots carry so :meth:`Database.restore` can round-trip them."""
        return {name: index.attributes for name, index in self.indexes.items()}

    def lookup(self, attributes: Sequence[str], values: Sequence[Any]) -> List[XTuple]:
        """Equality lookup, via an index when one covers these attributes.

        Index matching is on the attribute *set*: an index declared on
        ``("B", "A")`` serves a lookup on ``("A", "B")``, with the probe
        values permuted into the index's key order.
        """
        wanted = tuple(attributes)
        index = self.find_index(wanted)
        if index is not None:
            bound = dict(zip(wanted, values))
            probe = [bound[a] for a in index.attributes]
            return sorted(index.lookup(probe), key=lambda r: r.items())
        matches = [
            r for r in self.relation.tuples()
            if all(r[a] == v for a, v in zip(wanted, values))
        ]
        return sorted(matches, key=lambda r: r.items())

    # -- updates (algebra-defined) ----------------------------------------------------------
    def insert(self, row: RowLike) -> XTuple:
        """Insert one row (generalised union with a singleton relation)."""
        candidate = self.relation._coerce_row(row)
        self._check_insert(candidate)
        with self._wal_lock():
            self._log("insert", rows=[candidate])
            if candidate not in self.relation.tuples():
                self._apply_bulk_add([candidate])
        return candidate

    def insert_many(self, rows: Iterable[RowLike], *, _coerced: bool = False) -> List[XTuple]:
        """Insert a batch of rows atomically (union with a staged relation).

        The batch is coerced and constraint-checked *up front*; only then
        are the rows applied, with one :meth:`DominanceIndex.bulk_add` /
        :meth:`HashIndex.bulk_add` per structure instead of per-row
        maintenance.  On any constraint failure the table is left exactly
        as it was — all-or-nothing, unlike a loop of :meth:`insert`, which
        would leave the rows preceding the offender behind.

        ``_coerced`` is internal: the :class:`~repro.storage.database.Database`
        facade passes rows it already ran through
        :meth:`Relation._coerce_rows` (for the foreign-key checks), so the
        batch is not coerced and validated twice.
        """
        candidates = list(rows) if _coerced else self.relation._coerce_rows(rows)
        if not candidates:
            return []
        fresh = self._stage_bulk_insert(self.relation.tuples(), candidates)
        with self._wal_lock():
            self._log("insert", rows=fresh)
            self._apply_bulk_add(fresh)
        return candidates

    def _stage_bulk_insert(
        self, stored: set, candidates: Sequence[XTuple]
    ) -> List[XTuple]:
        """Check a batch against *stored* without touching live state.

        Returns the de-duplicated genuinely-new rows to apply.  The batch
        path checks against *stored* in place (read-only).  When some
        constraint only knows ``check_insert``, the batch is simulated
        row-at-a-time against a scratch relation seeded with a *copy* of
        *stored* — the grows-as-you-insert view such a constraint expects
        — so a failure anywhere leaves the table untouched (and, with a
        WAL attached, unlogged)."""
        scratch = Relation(self.schema, validate=False)
        scratch._rows = stored
        if self._check_bulk_insert(scratch, candidates):
            return [c for c in dict.fromkeys(candidates) if c not in stored]
        grown = scratch._rows = set(stored)
        fresh: List[XTuple] = []
        for candidate in candidates:
            self._check_insert(candidate, scratch)
            if candidate not in grown:
                grown.add(candidate)
                fresh.append(candidate)
        return fresh

    def _apply_bulk_add(self, fresh: Sequence[XTuple]) -> None:
        """Add already-checked genuinely-new rows, one bulk update per
        structure — the inverse of :meth:`_apply_bulk_remove`."""
        undo = self._recording()
        if undo is not None and fresh:
            undo.record(
                self._undo_add, fresh, self.statistics.mutations_since_analyze
            )
        self.relation.tuples().update(fresh)
        self.relation._version += 1
        self.dominance.bulk_add(fresh)
        for index in self.indexes.values():
            index.bulk_add(fresh)
        self.statistics.add_rows(fresh)

    def delete_many(
        self,
        rows: Iterable[RowLike],
        *,
        _coerced: bool = False,
        _doomed: Optional[set] = None,
    ) -> int:
        """Delete a batch of rows by generalised difference, in one pass.

        Per (4.8) each given row removes every stored row it subsumes; the
        doomed set is the union over the batch, collected from the live
        dominance index before anything is touched, then removed with one
        bulk update per structure.  Returns the number of rows removed.
        (``_coerced`` as in :meth:`insert_many`; ``_doomed`` lets the
        :class:`~repro.storage.database.Database` facade pass the closure
        it already probed for its foreign-key checks.)
        """
        targets = list(rows) if _coerced else self.relation._coerce_rows(rows)
        doomed = self.dominance.bulk_probe_dominated(targets) if _doomed is None else _doomed
        if not doomed:
            return 0
        with self._wal_lock():
            self._log("remove", rows=list(doomed))
            self._apply_bulk_remove(doomed)
        return len(doomed)

    def load(self, rows: Iterable[RowLike]) -> List[XTuple]:
        """Atomically replace the table's contents with *rows*.

        The bulk-load entry point: rows are coerced and checked against an
        empty table (so the batch only has to be consistent with itself),
        and the stored state — rows, dominance index, hash indexes — is
        swapped in wholesale on success.  On failure the current contents
        are untouched.
        """
        candidates = self.relation._coerce_rows(rows)
        scratch = Relation(self.schema, validate=False)
        if not self._check_bulk_insert(scratch, candidates):
            for candidate in candidates:
                self._check_insert(candidate, scratch)
                scratch._rows.add(candidate)
        self.reset_rows(candidates)
        return candidates

    def _apply_bulk_remove(self, doomed: Iterable[XTuple]) -> None:
        """Drop a set of *stored* rows with one bulk update per structure."""
        undo = self._recording()
        if undo is not None and doomed:
            undo.record(
                self._undo_remove, doomed, self.statistics.mutations_since_analyze
            )
        self.relation.tuples().difference_update(doomed)
        self.relation._version += 1
        self.dominance.bulk_discard(doomed)
        for index in self.indexes.values():
            index.bulk_discard(doomed)
        self.statistics.remove_rows(doomed)

    def delete(self, row: RowLike) -> int:
        """Delete by generalised difference with a singleton relation.

        Following (4.8), every stored row that the given row subsumes is
        removed — deleting ``(p1, s2)`` also removes ``(p1, -)`` if present,
        since the latter carries no information not carried by the former.
        The dominated rows come straight from the live dominance index
        (one probe per stored signature), so nothing is scanned or rebuilt.
        Returns the number of rows removed.
        """
        target = self.relation._coerce_row(row)
        doomed = self.dominance.probe_dominated(target)
        if not doomed:
            return 0
        with self._wal_lock():
            self._log("remove", rows=doomed)
            self._apply_bulk_remove(doomed)
        return len(doomed)

    def delete_where(self, predicate: Callable[[XTuple], bool]) -> int:
        """Delete every row satisfying a Python predicate (a convenience form).

        The matching rows come straight out of the stored set, so unlike
        :meth:`delete` no (4.8) subsumption closure applies; removal goes
        through the same bulk maintenance as :meth:`delete_many`.
        """
        doomed = {r for r in self.relation.tuples() if predicate(r)}
        if not doomed:
            return 0
        with self._wal_lock():
            # The matched row *set* is logged, never the predicate — replay
            # stays closed over plain data even for lambda deletes.
            self._log("remove", rows=list(doomed))
            self._apply_bulk_remove(doomed)
        return len(doomed)

    def update(self, old_row: RowLike, new_row: RowLike) -> XTuple:
        """Modification = deletion followed by addition (Section 7).

        A singleton :meth:`update_many` — one batch-coercion pass, the
        bulk (4.8) delete, the atomic bulk insert, and the post-state
        restore discipline that re-adds the *whole* removed closure on
        failure (not just the named row, which the old hand-rolled path
        would strand)."""
        return self.update_many([(old_row, new_row)])[0]

    def update_many(self, pairs: Iterable[tuple], *, _coerced: bool = False) -> List[XTuple]:
        """Apply a batch of ``(old_row, new_row)`` modifications atomically.

        Rides the same bulk machinery as :meth:`insert_many` /
        :meth:`delete_many`: both sides are batch-coerced up front, every
        old row must be present, and the new rows are constraint-checked
        against the *post-delete* state on a scratch relation — before
        anything (or any WAL record) is written.  Only a fully-validated
        modification is then applied: the (4.8) subsumption closure of
        the old rows comes out and the new rows go in, one bulk update
        per structure, under a single logical ``update`` log record.  On
        any check failure the table is left exactly as it was — no
        rollback pass, because nothing was touched.  Returns the inserted
        rows.  (``_coerced`` as in :meth:`insert_many`: the Database
        facade passes pairs it already coerced, so the batch is not
        validated twice.)
        """
        staged = [(old, new) for old, new in pairs]
        if _coerced:
            olds = [old for old, _ in staged]
            news = [new for _, new in staged]
        else:
            olds = self.relation._coerce_rows([old for old, _ in staged])
            news = self.relation._coerce_rows([new for _, new in staged])
        stored = self.relation.tuples()
        for old in olds:
            if old not in stored:
                raise StorageError(f"row {old!r} not present in table {self.name!r}")
        if not staged:
            return []
        doomed = self.dominance.bulk_probe_dominated(olds)
        if self._constraints_read_rows():
            fresh = self._stage_bulk_insert(stored - doomed, news)
        else:
            # Nothing reads the post-delete state, so it is never built:
            # a new row is fresh unless it survives the deletion.
            fresh = [c for c in dict.fromkeys(news) if c not in stored or c in doomed]
        with self._wal_lock():
            self._log("update", removed=list(doomed), rows=fresh)
            if doomed:
                self._apply_bulk_remove(doomed)
            self._apply_bulk_add(fresh)
        return news

    def truncate(self) -> None:
        with self._wal_lock():
            self._log("truncate")
            undo = self._recording()
            if undo is not None:
                undo.record(
                    self._install_rows, self.relation.tuples(), self.statistics.copy()
                )
            # A fresh set, not clear(): the previous row-set object is
            # what a rollback re-installs.
            self.relation._rows = set()
            self.relation._version += 1
            self.relation._dominance = None
            self.dominance.clear()
            for index in self.indexes.values():
                index.clear()
            self.statistics.clear()

    def reset_rows(
        self,
        rows: Iterable[XTuple],
        *,
        statistics: Optional[TableStatistics] = None,
    ) -> None:
        """Replace the stored rows wholesale and rebuild every index.

        The supported path for snapshot restore — it keeps the hash
        indexes and the live dominance index consistent with the new row
        set, rebuilding each through its bulk entry point (one partition
        pass per structure).  Constraints are *not* re-checked: the rows
        are trusted, coming from a snapshot of this very table.  For a
        checked bulk load from external rows use :meth:`load`.

        When *statistics* is given (a saved :class:`TableStatistics`,
        from a snapshot or checkpoint), the table's live statistics are
        restored from it — planner estimates and the staleness tracker
        round-trip exactly; otherwise they are re-derived from the rows.
        Logged as one logical ``load`` record (statistics included, so
        crash-recovery replay restores the same estimates and staleness
        the live path does).
        """
        self._install_rows(set(rows), statistics)

    def _install_rows(
        self, rows: set, statistics: Optional[TableStatistics] = None
    ) -> None:
        """Adopt the row-set object *rows* as the stored set and rebuild
        every structure over it — :meth:`reset_rows` without the copy,
        and the inverse of ``load`` / ``reset_rows`` / :meth:`truncate`,
        which re-installs the previous set object with its statistics."""
        with self._wal_lock():
            self._log("load", rows=list(rows), statistics=statistics)
            undo = self._recording()
            if undo is not None:
                undo.record(
                    self._install_rows, self.relation.tuples(), self.statistics.copy()
                )
            self.relation._rows = rows
            self.relation._version += 1
            self.relation._dominance = None
            self.dominance.rebuild(rows)
            for index in self.indexes.values():
                index.rebuild(rows)
            if statistics is not None:
                self.statistics.restore_from(statistics)
            else:
                self.statistics.analyze(rows)

    # -- statistics --------------------------------------------------------------------------
    def analyze(self) -> TableStatistics:
        """Full-refresh the table's statistics from the stored rows.

        The incremental maintenance is exact, so this is a no-op on the
        counters when every mutation went through this table's methods;
        it resets the staleness tracker and repairs the statistics after
        any out-of-band mutation of the underlying relation.
        """
        with self._wal_lock():
            self._log("analyze")
            undo = self._recording()
            if undo is not None:
                undo.record(self._install_statistics, self.statistics.copy())
            self.ddl_epoch += 1
            return self.statistics.analyze(self.relation.tuples())

    def _install_statistics(self, statistics: TableStatistics) -> None:
        """Restore saved statistics (the inverse of :meth:`analyze`),
        logged as a ``statistics`` record so replay restores them too.
        Bumps the physical-design epoch, as ANALYZE does: plans built on
        the replaced estimates re-plan."""
        with self._wal_lock():
            self._log("statistics", statistics=statistics)
            self.statistics.restore_from(statistics)
            self.ddl_epoch += 1

    # -- inverses (applied by UndoLog.rollback, newest first) ---------------------
    def _undo_add(self, fresh: Sequence[XTuple], mutations: int) -> None:
        """Remove exactly the rows a bulk add inserted, and put the
        staleness tracker back where it was before the add."""
        with self._wal_lock():
            self._log("remove", rows=fresh, mutations=mutations)
            self._apply_bulk_remove(fresh)
            self.statistics.mutations_since_analyze = mutations

    def _undo_remove(self, doomed: Iterable[XTuple], mutations: int) -> None:
        """Re-add exactly the rows a bulk remove took out."""
        restored = list(doomed)
        with self._wal_lock():
            self._log("insert", rows=restored, mutations=mutations)
            self._apply_bulk_add(restored)
            self.statistics.mutations_since_analyze = mutations

    # -- x-membership ------------------------------------------------------------------------
    def x_contains(self, row: RowLike) -> bool:
        """Proposition 4.2 against the live dominance index: ``t ∈̂ table``."""
        t = row if isinstance(row, XTuple) else self.relation._coerce_row(row)
        return self.dominance.has_dominator(t)

    # -- presentation ------------------------------------------------------------------------------
    def to_table(self) -> str:
        return self.relation.to_table()

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, attributes={list(self.attributes)}, rows={len(self.relation)}, "
            f"constraints={len(self.constraints)}, indexes={list(self.indexes)})"
        )
