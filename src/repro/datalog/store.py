"""Interned columnar fact storage (DESIGN.md §8).

Every other layer of the engine -- grounding joins, semi-naive deltas,
circuit construction -- ultimately reads tuples out of a fact store.
Tuple stores (`Database`'s per-predicate Python ``set``s, the
dict-of-rows indexes of a tuple join) pay per-tuple object
overhead on every probe: each row is a tuple of arbitrary Python
constants, each index probe hashes those constants again, and each
relation scan chases one pointer per cell.

This module is the columnar alternative, the standard layout of
high-performance Datalog engines:

* :class:`SymbolTable` -- constants are *interned* once into dense
  integer ids (``Hashable -> int``); every downstream comparison,
  hash and index key is then machine-int work.  One process-wide
  table (:data:`GLOBAL_SYMBOLS`) is shared by default so ids are
  stable across relations, stores and engine runs -- exactly the
  property a partitioned / multi-process fixpoint needs to exchange
  rows without re-encoding them.  The shared table is append-only
  while ids are live, so long-lived processes scope interning per
  workload with :func:`scoped_symbols` (or tear it down with
  :meth:`SymbolTable.clear` between workloads).
* :class:`ColumnarRelation` -- each relation is a struct-of-arrays:
  one append-only ``array('q')`` per argument position, plus a
  row-key dict for O(1) dedup/membership.  The writer is
  arity-checked; rows are integers end to end.
* :class:`_PatternIndex` -- pattern-keyed indexes stored as
  *contiguous sorted-id arrays*: for a tuple of bound argument
  positions, the row ids are kept sorted by their key, and a lookup
  is **one binary search per bound pattern** (``bisect`` range over
  the sorted keys) instead of one dict probe per candidate tuple.
  Rows appended after an index is built land in a small pending tail
  (a dict) that is merged back into the sorted arrays geometrically
  (amortized ``O(1)`` maintenance per appended row), so lookups stay
  ``O(log n)`` while derived facts stream in during semi-naive
  grounding.
* :class:`DeltaView` -- a zero-copy half-open window over a
  relation's append log.  Because relations are append-only,
  ``store.watermark()`` before a round and ``store.deltas_since()``
  after it give the per-relation delta sets semi-naive iteration
  consumes, without ever materializing a second fact set.

Decoding back to Python constants happens only at the boundary
(:meth:`SymbolTable.decode_row`, :meth:`ColumnarStore.facts`);
:class:`~repro.datalog.database.Database` stays the user-facing façade
and materializes a shared :class:`ColumnarStore` lazily.  The grounder
in :mod:`repro.datalog.grounding` runs entirely in id space on top of
these primitives.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .ast import DatalogError, Fact

__all__ = [
    "SymbolTable",
    "GLOBAL_SYMBOLS",
    "default_symbols",
    "scoped_symbols",
    "ColumnarRelation",
    "ColumnarStore",
    "DeltaView",
]

#: Index key: a bare id for single-position patterns (kept in a
#: contiguous ``array('q')``), a tuple of ids otherwise.
PatternKey = Union[int, Tuple[int, ...]]

IdRow = Tuple[int, ...]


class SymbolTable:
    """Bidirectional ``Hashable constant <-> dense int id`` interning.

    Ids are assigned densely in first-intern order, so they double as
    indices into the reverse table (:meth:`decode` is a list index).
    Interning is idempotent; :meth:`get` is the non-inserting probe
    used on lookup paths, where an unknown constant means "no row can
    possibly match" and must not grow the table.
    """

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._values: List[Hashable] = []

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._ids

    def intern(self, value: Hashable) -> int:
        """The id of *value*, assigning the next dense id on first use."""
        sid = self._ids.get(value)
        if sid is None:
            sid = len(self._values)
            self._ids[value] = sid
            self._values.append(value)
        return sid

    def intern_row(self, values: Iterable[Hashable]) -> IdRow:
        intern = self.intern
        return tuple(intern(v) for v in values)

    def get(self, value: Hashable) -> Optional[int]:
        """The id of *value*, or ``None`` if it was never interned."""
        return self._ids.get(value)

    def get_row(self, values: Iterable[Hashable]) -> Optional[IdRow]:
        """Ids of *values*, or ``None`` as soon as any constant is unknown."""
        ids = self._ids
        out: List[int] = []
        for value in values:
            sid = ids.get(value)
            if sid is None:
                return None
            out.append(sid)
        return tuple(out)

    def decode(self, symbol: int) -> Hashable:
        return self._values[symbol]

    def decode_row(self, symbols: Iterable[int]) -> Tuple[Hashable, ...]:
        values = self._values
        return tuple(values[s] for s in symbols)

    def clear(self) -> None:
        """Forget every interning, in place (the table object survives).

        Ids are dense first-intern ordinals, so clearing re-assigns
        them from 0: every id handed out before the clear is invalid
        afterwards.  Only call when no live :class:`ColumnarStore`,
        cached :meth:`~repro.datalog.database.Database.columnar_store`
        snapshot or :class:`ColumnarGroundProgram` still references
        this table -- e.g. between workloads in a long-lived process,
        after the previous workload's databases are discarded.  For
        isolation *without* a teardown obligation, prefer
        :func:`scoped_symbols`.
        """
        self._ids.clear()
        self._values.clear()

    # -- pickling (shard-worker payloads, DESIGN.md §13) -----------------

    def __getstate__(self) -> List[Hashable]:
        # Ids are dense first-intern ordinals, so the value list alone
        # determines the whole table; the forward dict rebuilds on
        # unpickle, halving the worker payload.
        return self._values

    def __setstate__(self, values: List[Hashable]) -> None:
        self._values = list(values)
        self._ids = {value: sid for sid, value in enumerate(self._values)}


#: The process-wide default table: every constant is interned once,
#: whichever database, store or engine run encounters it first.
#:
#: Process-lifetime contract: the table is append-only while anything
#: references its ids, so a long-lived process that churns through
#: many short-lived databases with unique constants grows it without
#: bound.  Such processes should either scope interning per workload
#: (:func:`scoped_symbols`, which tests and benchmarks here use by
#: default) or :meth:`~SymbolTable.clear` it at a point where no store
#: built on it survives.
GLOBAL_SYMBOLS = SymbolTable()

#: Context-local override of the default interning table; ``None``
#: selects :data:`GLOBAL_SYMBOLS`.  Set via :func:`scoped_symbols`.
_SCOPED_SYMBOLS: ContextVar[Optional[SymbolTable]] = ContextVar(
    "repro_scoped_symbols", default=None
)


def default_symbols() -> SymbolTable:
    """The table stores intern into when none is passed explicitly:
    the innermost :func:`scoped_symbols` table, else
    :data:`GLOBAL_SYMBOLS`."""
    table = _SCOPED_SYMBOLS.get()
    return GLOBAL_SYMBOLS if table is None else table


@contextmanager
def scoped_symbols(table: Optional[SymbolTable] = None):
    """Run a block against a private default symbol table.

    Inside the ``with`` block, every store, database materialization
    or grounding run that would have interned into
    :data:`GLOBAL_SYMBOLS` interns into *table* (a fresh
    :class:`SymbolTable` by default) instead, so transient constants
    are reclaimed with the table when the block's objects die -- the
    process-wide table never sees them.  Scopes nest; the previous
    default is restored on exit.  The binding is context-local
    (:mod:`contextvars`), so concurrent tasks cannot leak scopes into
    each other.

    Stores built inside the scope keep their table reference and stay
    fully usable after exit; only *new* default-table lookups revert.
    """
    if table is None:
        table = SymbolTable()
    token = _SCOPED_SYMBOLS.set(table)
    try:
        yield table
    finally:
        _SCOPED_SYMBOLS.reset(token)


class _PatternIndex:
    """Sorted-id index for one tuple of bound argument positions.

    The committed part is a pair of parallel sequences sorted by key:
    ``_keys`` (an ``array('q')`` of ids for single-position patterns,
    a list of id tuples otherwise) and ``_rows`` (``array('q')`` of
    row indices).  A lookup is a ``bisect_left``/``bisect_right``
    range -- one binary search per bound pattern -- plus a dict probe
    on the pending tail of rows appended since the last merge.  The
    tail is merged back (one two-pointer pass over both sorted runs)
    whenever it outgrows a fixed fraction of the committed part, so
    maintenance costs amortized ``O(1)`` comparisons per appended row
    while lookups stay ``O(log n)``.
    """

    __slots__ = ("positions", "_single", "_keys", "_rows", "_tail", "_tail_rows")

    #: Merge the pending tail once it exceeds committed/_MERGE_FRACTION.
    _MERGE_FRACTION = 8

    def __init__(self, relation: "ColumnarRelation", positions: Tuple[int, ...]):
        self.positions = positions
        self._single = len(positions) == 1
        if self._single:
            column = relation.columns[positions[0]]
            order = sorted(range(len(column)), key=column.__getitem__)
            self._keys: Union[array, List[Tuple[int, ...]]] = array(
                "q", (column[i] for i in order)
            )
        else:
            columns = [relation.columns[p] for p in positions]
            keys = [tuple(col[i] for col in columns) for i in range(len(relation))]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            self._keys = [keys[i] for i in order]
        self._rows = array("q", order)
        self._tail: Dict[PatternKey, List[int]] = {}
        self._tail_rows = 0

    def add(self, key: PatternKey, row: int) -> None:
        """Register a freshly appended *row* under *key*."""
        self._tail.setdefault(key, []).append(row)
        self._tail_rows += 1
        if self._tail_rows * self._MERGE_FRACTION > len(self._rows):
            self._merge_tail()

    def _merge_tail(self) -> None:
        if not self._tail:
            return
        pending = sorted(
            (key, row) for key, rows in self._tail.items() for row in rows
        )
        # Two-pointer merge of the committed run with the sorted tail:
        # O(committed + tail) total, and the trigger fires only after
        # committed/_MERGE_FRACTION appends, so maintenance is
        # amortized O(1) comparisons per appended row.
        keys, rows = self._keys, self._rows
        merged: List[Tuple[PatternKey, int]] = []
        at, committed = 0, len(rows)
        for key, row in pending:
            while at < committed and keys[at] <= key:
                merged.append((keys[at], rows[at]))
                at += 1
            merged.append((key, row))
        while at < committed:
            merged.append((keys[at], rows[at]))
            at += 1
        if self._single:
            self._keys = array("q", (k for k, _ in merged))
        else:
            self._keys = [k for k, _ in merged]
        self._rows = array("q", (r for _, r in merged))
        self._tail.clear()
        self._tail_rows = 0

    def lookup(self, key: PatternKey) -> List[int]:
        """Row indices whose key equals *key* (bisect range + tail probe)."""
        keys = self._keys
        lo = bisect_left(keys, key)
        hi = bisect_right(keys, key, lo)
        out = list(self._rows[lo:hi])
        if self._tail_rows:
            out.extend(self._tail.get(key, ()))
        return out


class ColumnarRelation:
    """One relation as parallel append-only ``array('q')`` columns.

    The writer (:meth:`append`) is arity-checked and deduplicating:
    the row-key dict maps each id row to its row index, giving O(1)
    membership (:meth:`__contains__`, :meth:`row_index`) and making
    the append log a set.  Pattern indexes are built lazily per
    position tuple (:meth:`index_for`) and maintained incrementally as
    rows are appended.
    """

    __slots__ = ("predicate", "arity", "columns", "_row_index", "_indexes")

    def __init__(self, predicate: str, arity: int):
        self.predicate = predicate
        self.arity = arity
        self.columns: Tuple[array, ...] = tuple(array("q") for _ in range(arity))
        self._row_index: Dict[IdRow, int] = {}
        self._indexes: Dict[Tuple[int, ...], _PatternIndex] = {}

    def __len__(self) -> int:
        return len(self._row_index)

    def __contains__(self, ids: IdRow) -> bool:
        return ids in self._row_index

    def row_index(self, ids: IdRow) -> Optional[int]:
        return self._row_index.get(ids)

    def append(self, ids: IdRow) -> Optional[int]:
        """Append an id row; its new row index, or ``None`` if resident."""
        if len(ids) != self.arity:
            raise DatalogError(
                f"arity clash on {self.predicate!r}: got {len(ids)} ids, "
                f"relation has arity {self.arity}"
            )
        if ids in self._row_index:
            return None
        row = len(self._row_index)
        self._row_index[ids] = row
        for column, sid in zip(self.columns, ids):
            column.append(sid)
        for positions, index in self._indexes.items():
            if len(positions) == 1:
                index.add(ids[positions[0]], row)
            else:
                index.add(tuple(ids[p] for p in positions), row)
        return row

    def row(self, index: int) -> IdRow:
        return tuple(column[index] for column in self.columns)

    def id_rows(self, start: int = 0, stop: Optional[int] = None) -> Iterator[IdRow]:
        """Iterate id rows ``[start, stop)`` in append order."""
        if stop is None:
            stop = len(self)
        columns = self.columns
        for i in range(start, stop):
            yield tuple(column[i] for column in columns)

    def index_for(self, positions: Tuple[int, ...]) -> _PatternIndex:
        """The sorted-id index for *positions*, built lazily once."""
        index = self._indexes.get(positions)
        if index is None:
            index = _PatternIndex(self, positions)
            self._indexes[positions] = index
        return index

    def lookup(self, positions: Tuple[int, ...], key: PatternKey) -> Sequence[int]:
        """Row indices agreeing with *key* on *positions*.

        An empty *positions* means a full scan (all row indices).
        """
        if not positions:
            return range(len(self))
        return self.index_for(positions).lookup(key)

    def remove(self, ids: IdRow) -> bool:
        """Remove one id row; ``True`` iff it was resident.

        Removal is swap-with-last: the final row moves into the freed
        slot so the columns stay dense, which renumbers that one row.
        Pattern indexes (and their pending tails) are dropped and
        rebuild lazily, and any outstanding :class:`DeltaView` windows
        or :meth:`ColumnarStore.watermark` marks are invalidated --
        the maintenance layer (:mod:`repro.datalog.incremental`) only
        removes rows *between* delta passes for exactly this reason.
        """
        row = self._row_index.pop(ids, None)
        if row is None:
            return False
        last = len(self._row_index)
        if row != last:
            moved = tuple(column[last] for column in self.columns)
            for column in self.columns:
                column[row] = column[last]
            self._row_index[moved] = row
        for column in self.columns:
            column.pop()
        self._indexes.clear()
        return True

    def copy(self) -> "ColumnarRelation":
        """Independent copy of the columns and row keys.

        Pattern indexes are *not* copied -- they rebuild lazily on
        first use, which keeps copies (taken by every grounder run
        before it appends derived facts) proportional to the data,
        not to the index footprint.
        """
        clone = ColumnarRelation(self.predicate, self.arity)
        clone.columns = tuple(array("q", column) for column in self.columns)
        clone._row_index = dict(self._row_index)
        return clone

    def __getstate__(self) -> Tuple:
        # Columns are the ground truth; the row-key dict rebuilds on
        # unpickle and pattern indexes rebuild lazily on first use.
        # The explicit row count disambiguates the nullary relation
        # (whose single row has no columns to witness it).
        return (self.predicate, self.arity, self.columns, len(self._row_index))

    def __setstate__(self, state: Tuple) -> None:
        self.predicate, self.arity, self.columns, count = state
        if self.arity:
            self._row_index = {row: at for at, row in enumerate(zip(*self.columns))}
        else:
            self._row_index = {(): 0} if count else {}
        self._indexes = {}


@dataclass(frozen=True)
class DeltaView:
    """Half-open window ``[start, stop)`` over a relation's append log.

    The unit of semi-naive iteration: because relations are
    append-only and deduplicating, the rows appended between two
    watermarks are exactly the facts *new to the store* in that round
    -- re-derived duplicates never enter a delta.  The view is
    zero-copy; :meth:`id_rows` reads straight from the columns.
    """

    relation: ColumnarRelation
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def predicate(self) -> str:
        return self.relation.predicate

    def id_rows(self) -> Iterator[IdRow]:
        return self.relation.id_rows(self.start, self.stop)

    def facts(self, symbols: SymbolTable) -> Iterator[Fact]:
        predicate = self.relation.predicate
        for ids in self.id_rows():
            yield Fact(predicate, symbols.decode_row(ids))


class ColumnarStore:
    """A set of :class:`ColumnarRelation`\\ s over one symbol table.

    The id-space backend behind grounding: facts go in
    through the interning writers (:meth:`insert_fact`,
    :meth:`insert_ids`), joins read row indices out of the bisect
    indexes (:meth:`ColumnarRelation.lookup`), and semi-naive rounds
    consume :class:`DeltaView` windows between :meth:`watermark`
    calls.  Decoding happens only at the boundary (:meth:`facts`).

    Relations are keyed by ``(predicate, arity)``: a
    :class:`Database` may hold one predicate at several arities
    (programs forbid it, inputs do not), and wrong-arity tuples must
    simply never match an atom -- exactly the behaviour of the
    oracle's tuple join -- rather than clash in one fixed-arity
    column set.
    """

    __slots__ = ("symbols", "_relations")

    def __init__(self, symbols: Optional[SymbolTable] = None):
        self.symbols = default_symbols() if symbols is None else symbols
        self._relations: Dict[Tuple[str, int], ColumnarRelation] = {}

    @classmethod
    def from_facts(
        cls, facts: Iterable[Fact], symbols: Optional[SymbolTable] = None
    ) -> "ColumnarStore":
        store = cls(symbols)
        for fact in facts:
            store.insert_fact(fact)
        return store

    # -- writers ---------------------------------------------------------

    def relation(self, predicate: str, arity: Optional[int] = None) -> Optional[ColumnarRelation]:
        """The relation for ``predicate/arity``.

        With ``arity=None``, the relation is returned only when the
        predicate occurs at exactly one arity (the common case and the
        convenient form for direct store users); joins always pass the
        atom's arity explicitly.
        """
        if arity is not None:
            return self._relations.get((predicate, arity))
        found = [rel for (pred, _), rel in self._relations.items() if pred == predicate]
        return found[0] if len(found) == 1 else None

    def insert_ids(self, predicate: str, ids: IdRow) -> bool:
        """Append an already-interned row; True iff it was new."""
        key = (predicate, len(ids))
        relation = self._relations.get(key)
        if relation is None:
            relation = ColumnarRelation(predicate, len(ids))
            self._relations[key] = relation
        return relation.append(ids) is not None

    def insert_fact(self, fact: Fact) -> bool:
        """Intern and append one fact; True iff it was new."""
        return self.insert_ids(fact.predicate, self.symbols.intern_row(fact.args))

    def remove_ids(self, predicate: str, ids: IdRow) -> bool:
        """Remove one interned row; True iff it was resident.

        See :meth:`ColumnarRelation.remove` for the swap-with-last
        semantics and the delta-window caveat.
        """
        relation = self._relations.get((predicate, len(ids)))
        return relation is not None and relation.remove(ids)

    def remove_fact(self, fact: Fact) -> bool:
        """Remove one fact if its constants are known; True iff removed.

        Symbol interning is append-only, so removal never shrinks the
        symbol table -- only the relation columns.
        """
        ids = self.symbols.get_row(fact.args)
        return ids is not None and self.remove_ids(fact.predicate, ids)

    # -- readers ---------------------------------------------------------

    def predicates(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(pred for pred, _ in self._relations))

    def size(self, predicate: str, arity: Optional[int] = None) -> int:
        if arity is not None:
            relation = self._relations.get((predicate, arity))
            return 0 if relation is None else len(relation)
        return sum(
            len(rel) for (pred, _), rel in self._relations.items() if pred == predicate
        )

    def __len__(self) -> int:
        return sum(len(relation) for relation in self._relations.values())

    def contains_fact(self, fact: Fact) -> bool:
        relation = self._relations.get((fact.predicate, fact.arity))
        if relation is None:
            return False
        ids = self.symbols.get_row(fact.args)
        return ids is not None and ids in relation

    def facts(self, predicate: Optional[str] = None) -> Iterator[Fact]:
        """Decode back to :class:`Fact` objects (boundary use only)."""
        decode_row = self.symbols.decode_row
        for pred, arity in sorted(self._relations):
            if predicate is not None and pred != predicate:
                continue
            for ids in self._relations[(pred, arity)].id_rows():
                yield Fact(pred, decode_row(ids))

    # -- deltas ----------------------------------------------------------

    def watermark(self) -> Dict[Tuple[str, int], int]:
        """Per-relation row counts; pair with :meth:`deltas_since`."""
        return {key: len(rel) for key, rel in self._relations.items()}

    def deltas_since(
        self, watermark: Dict[Tuple[str, int], int]
    ) -> Dict[Tuple[str, int], DeltaView]:
        """Non-empty :class:`DeltaView`\\ s of rows appended after *watermark*,
        keyed by ``(predicate, arity)``."""
        out: Dict[Tuple[str, int], DeltaView] = {}
        for key, relation in self._relations.items():
            start = watermark.get(key, 0)
            stop = len(relation)
            if stop > start:
                out[key] = DeltaView(relation, start, stop)
        return out

    # -- lifecycle -------------------------------------------------------

    def copy(self) -> "ColumnarStore":
        """Independent store sharing the symbol table.

        The cheap way for a grounder to get a mutable store seeded
        with a database's EDB: columns are block-copied arrays, no
        re-interning, no re-hashing of Python constants.
        """
        clone = ColumnarStore(self.symbols)
        clone._relations = {
            pred: relation.copy() for pred, relation in self._relations.items()
        }
        return clone

    def __getstate__(self) -> Tuple:
        # Pickling detaches the store from the process-wide symbol
        # scope: the unpickled twin (a shard-worker payload) owns a
        # private SymbolTable with identical dense ids, which is
        # exactly what makes cross-process shard hashes stable.
        return (self.symbols, self._relations)

    def __setstate__(self, state: Tuple) -> None:
        self.symbols, self._relations = state

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{pred}/{arity}:{len(rel)}"
            for (pred, arity), rel in sorted(self._relations.items())
        )
        return f"ColumnarStore({parts or 'empty'}, symbols={len(self.symbols)})"
