"""The undo log: rollback that costs what the rolled-back group wrote.

Section 7 of the paper defines every update through the algebra —
insertion is union, deletion is the (4.8) difference, modification is a
deletion followed by an addition — and the storage layer's bulk funnel
already computes each statement's *exact* delta: the genuinely new rows
an insertion adds and the dominated closure a deletion removes.  The
inverse of every statement is therefore exact and no larger than the
statement itself, and a rollback can replay those inverses instead of
copying the whole database at ``begin`` and rebuilding it at abort.

One :class:`UndoLog` belongs to each :class:`~repro.storage.catalog.Catalog`
and is shared by its tables.  While at least one group is open
(:meth:`UndoLog.begin`), every mutation funnel records one entry — a
bound inverse operation plus the exact data it needs:

* a bulk add (insert, the addition half of an update) records the rows
  it added; a bulk remove (delete, the (4.8) closure of an update)
  records the rows it removed.  Each entry also carries the table's
  ``mutations_since_analyze`` from before the change, so the inverse
  restores the staleness tracker exactly;
* ``load`` / ``reset_rows`` / ``truncate`` record the previous row-set
  object and a copy of the previous statistics;
* ANALYZE records a copy of the statistics it replaced;
* index create/drop, constraint and foreign-key additions and the catalog
  DDL (create/register/drop/rename table) record their inverse DDL — a
  dropped table is *held* (rows, indexes, statistics, constraints and
  its foreign keys) until the outermost group ends, so rollback can
  re-attach it as it was.

:meth:`UndoLog.rollback` applies a group's entries in reverse order.
Each inverse goes through the table's logged paths, so with a
write-ahead log attached the abort group carries small compensating
``insert``/``remove`` records rather than whole-table reloads, and
recovery replays an aborted group to the same pre-group state it left
in memory.  Inverses run with recording suspended.  Beyond the
entries, a group remembers each table's adaptive ``correction`` factor
at ``begin`` (execution feedback moves it without any mutation) and
puts it back after the entries are undone.

A group's ``begin`` touches no rows: it records the current entry count
and the correction factors, nothing else.  Groups nest: a rollback
undoes only the entries recorded since its own mark, and the entries
are discarded once no group is open any more.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List


class UndoMark:
    """An open group: where its entries start, plus the per-table
    correction factors it restores on rollback."""

    __slots__ = ("position", "corrections")

    def __init__(self, position: int, corrections: Dict[Any, float]):
        self.position = position
        self.corrections = corrections


class UndoLog:
    """Inverse operations of every mutation made while a group is open."""

    def __init__(self) -> None:
        self._entries: List[tuple] = []
        self._marks: List[UndoMark] = []
        self._undoing = False

    @property
    def recording(self) -> bool:
        """True while a group is open and no rollback is running — the
        mutation funnels' cue to :meth:`record` their inverse."""
        return bool(self._marks) and not self._undoing

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, inverse: Callable[..., None], *args: Any) -> None:
        """Remember that ``inverse(*args)`` undoes the change being made."""
        self._entries.append((inverse, args))

    def begin(self, tables) -> UndoMark:
        """Open a group over *tables* (the catalog's tables at this
        point); returns the mark to pass to :meth:`rollback` /
        :meth:`release`."""
        mark = UndoMark(
            len(self._entries),
            {table: table.statistics.correction for table in tables},
        )
        self._marks.append(mark)
        return mark

    def release(self, mark: UndoMark) -> None:
        """Close a group, keeping its effects.  Its entries stay while an
        enclosing group may still roll them back; once no group is open
        they are dropped (releasing any table held for re-attachment)."""
        if mark in self._marks:
            self._marks.remove(mark)
        if not self._marks:
            self._entries.clear()

    def rollback(self, mark: UndoMark) -> None:
        """Undo every change recorded since *mark*, newest first, then
        close the group.

        If an inverse raises, the remaining (older) entries are dropped
        unapplied — they were recorded against a state the failed step
        did not reach — and the error propagates; the group is closed
        either way.
        """
        start = min(mark.position, len(self._entries))
        pending = self._entries[start:]
        del self._entries[start:]
        self._undoing = True
        try:
            for inverse, args in reversed(pending):
                inverse(*args)
            for table, correction in mark.corrections.items():
                table.statistics.correction = correction
        finally:
            self._undoing = False
            self.release(mark)
