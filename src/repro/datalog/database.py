"""Annotated input databases (the EDB instance ``I``).

Each EDB fact carries an optional *weight* (semiring annotation) and
is itself the provenance *tag* -- the ``x_α`` variable of Section 2.4
that circuits use as input-gate labels.  :meth:`Database.valuation`
turns the stored weights into a circuit-evaluation assignment.

The class is the user-facing façade over two physical layouts: the
historical per-predicate Python sets (direct membership tests, cheap
single-fact writes) and a lazily materialized interned
:class:`~repro.datalog.store.ColumnarStore` (DESIGN.md §8) that the
grounder consumes.  Derived views that
used to rescan every fact on each call -- the sorted fact list, the
active domain, per-semiring valuations and the columnar store -- are
cached and invalidated on mutation, so hot paths (grounding, repeated
evaluation, circuit construction) pay the scan once per database
state, not once per call.

Invalidation is *delta-aware* when a maintainer (a
:class:`~repro.datalog.incremental.MaintainedFixpoint`) is attached:
single-fact insert/retract/reweight then patches the cached domain,
valuations and columnar store in place instead of dropping them, and
the maintainer is notified after the caches are consistent (DESIGN.md
§11).  Without a maintainer the historical wholesale invalidation is
kept -- batch writers pay one rebuild, not per-fact bookkeeping.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

from ..semirings.base import Semiring
from .ast import Fact
from .store import ColumnarStore, SymbolTable

__all__ = ["Database"]


class Database:
    """A set of EDB facts with optional semiring annotations."""

    #: Distinct semirings cached per database state (FIFO eviction).
    _VALUATION_CACHE_SIZE = 8

    def __init__(self, facts: Iterable[Fact] = (), weights: Optional[Mapping[Fact, object]] = None):
        self._relations: Dict[str, set[Tuple[Hashable, ...]]] = {}
        self._weights: Dict[Fact, object] = {}
        # Derived-view caches, all invalidated by _invalidate() when a
        # fact lands.  The valuation cache is keyed by id(semiring)
        # with the semiring kept in the value so the id stays pinned.
        self._facts_cache: Optional[Tuple[Fact, ...]] = None
        self._domain_cache: Optional[FrozenSet[Hashable]] = None
        self._valuation_cache: Dict[int, Tuple[Semiring, Dict[Fact, object]]] = {}
        self._columnar_cache: Optional[ColumnarStore] = None
        # Interning scope for columnar materialization: None = the
        # process-wide GLOBAL_SYMBOLS; set by columnar_store(symbols=...)
        # and sticky across cache invalidations.
        self._columnar_symbols: Optional[SymbolTable] = None
        # Attached MaintainedFixpoint observers (DESIGN.md §11): when
        # non-empty, single-fact mutations patch the caches in place
        # and notify each maintainer instead of wholesale invalidation.
        self._maintainers: list = []
        for fact in facts:
            self.add_fact(fact)
        if weights:
            for fact, weight in weights.items():
                self.add_fact(fact, weight)

    # -- construction ----------------------------------------------------

    def add(self, predicate: str, *args: Hashable, weight: object = None) -> Fact:
        """Insert ``predicate(*args)``; returns the created :class:`Fact`."""
        fact = Fact(predicate, args)
        return self.add_fact(fact, weight)

    def add_fact(self, fact: Fact, weight: object = None) -> Fact:
        relation = self._relations.setdefault(fact.predicate, set())
        new = fact.args not in relation
        if new:
            relation.add(fact.args)
        if weight is not None:
            self._weights[fact] = weight
        if new:
            self._invalidate(fact)
            for maintainer in tuple(self._maintainers):
                maintainer._apply_insert(fact, weight)
        elif weight is not None:
            self._reweight(fact, weight)
            for maintainer in tuple(self._maintainers):
                maintainer._apply_weight(fact, weight)
        return fact

    def retract(self, predicate: str, *args: Hashable) -> Fact:
        """Remove ``predicate(*args)``; returns the removed :class:`Fact`.

        Raises :class:`KeyError` when the fact is not present -- a
        silent no-op would let a streaming client believe an expiry
        landed when it targeted the wrong fact.
        """
        return self.retract_fact(Fact(predicate, args))

    def retract_fact(self, fact: Fact) -> Fact:
        relation = self._relations.get(fact.predicate)
        if relation is None or fact.args not in relation:
            raise KeyError(f"{fact} not in database")
        relation.remove(fact.args)
        self._weights.pop(fact, None)
        self._invalidate(fact, removed=True)
        for maintainer in tuple(self._maintainers):
            maintainer._apply_retract(fact)
        return fact

    def _invalidate(self, fact: Optional[Fact] = None, removed: bool = False) -> None:
        """Drop -- or, with a maintainer attached, patch -- the caches.

        The sorted fact tuple always drops (rebuilding it is one lazy
        pass).  With no maintainer, or for bulk operations (``fact``
        is ``None``), every derived view drops wholesale as before.
        With a maintainer and a single-fact delta, the active domain,
        cached per-semiring valuations and the columnar store are
        updated in place so unrelated state survives the mutation.
        """
        self._facts_cache = None
        if fact is None or not self._maintainers:
            self._domain_cache = None
            self._valuation_cache.clear()
            self._columnar_cache = None
            return
        if removed:
            # Whether the fact's constants still occur elsewhere would
            # take a scan to establish; drop just the domain.
            self._domain_cache = None
            for _, valuation in self._valuation_cache.values():
                valuation.pop(fact, None)
            if self._columnar_cache is not None:
                self._columnar_cache.remove_fact(fact)
        else:
            if self._domain_cache is not None:
                self._domain_cache = self._domain_cache | frozenset(fact.args)
            weight = self._weights.get(fact)
            for semiring, valuation in self._valuation_cache.values():
                valuation[fact] = semiring.one if weight is None else weight
            if self._columnar_cache is not None:
                self._columnar_cache.insert_fact(fact)

    def _reweight(self, fact: Fact, weight: object) -> None:
        if self._maintainers:
            for _, valuation in self._valuation_cache.values():
                valuation[fact] = weight
        else:
            self._valuation_cache.clear()

    # -- maintainers -----------------------------------------------------

    def _attach_maintainer(self, maintainer) -> None:
        if maintainer not in self._maintainers:
            self._maintainers.append(maintainer)

    def _detach_maintainer(self, maintainer) -> None:
        if maintainer in self._maintainers:
            self._maintainers.remove(maintainer)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable]],
        predicate: str = "E",
        weights: Optional[Mapping[Tuple[Hashable, Hashable], object]] = None,
    ) -> "Database":
        """Binary-relation shortcut: a digraph as the EDB ``E``."""
        db = cls()
        weights = weights or {}
        for u, v in edges:
            db.add(predicate, u, v, weight=weights.get((u, v)))
        return db

    @classmethod
    def from_labeled_edges(
        cls,
        edges: Iterable[Tuple[Hashable, str, Hashable]],
        weights: Optional[Mapping[Tuple[Hashable, str, Hashable], object]] = None,
    ) -> "Database":
        """Edge-labeled digraph: label ``a`` becomes binary EDB ``a``."""
        db = cls()
        weights = weights or {}
        for u, label, v in edges:
            db.add(label, u, v, weight=weights.get((u, label, v)))
        return db

    # -- access ------------------------------------------------------------

    def predicates(self) -> FrozenSet[str]:
        return frozenset(self._relations)

    def tuples(self, predicate: str) -> FrozenSet[Tuple[Hashable, ...]]:
        return frozenset(self._relations.get(predicate, ()))

    def facts(self, predicate: Optional[str] = None) -> Iterator[Fact]:
        if predicate is None:
            if self._facts_cache is None:
                self._facts_cache = tuple(
                    Fact(pred, args)
                    for pred in sorted(self._relations)
                    for args in sorted(self._relations.get(pred, ()), key=repr)
                )
            yield from self._facts_cache
            return
        for args in sorted(self._relations.get(predicate, ()), key=repr):
            yield Fact(predicate, args)

    def __contains__(self, fact: Fact) -> bool:
        return fact.args in self._relations.get(fact.predicate, ())

    def __len__(self) -> int:
        """Input size ``m``: total number of EDB facts."""
        return sum(len(tuples) for tuples in self._relations.values())

    @property
    def size(self) -> int:
        return len(self)

    def active_domain(self) -> FrozenSet[Hashable]:
        """``Dom(I)``: all constants occurring in the input.

        Cached per database state -- callers like full grounding and
        the columnar grounder may ask repeatedly between mutations.
        """
        if self._domain_cache is None:
            domain: set[Hashable] = set()
            for tuples in self._relations.values():
                for args in tuples:
                    domain.update(args)
            self._domain_cache = frozenset(domain)
        return self._domain_cache

    # -- columnar materialization ------------------------------------------

    def columnar_store(self, symbols: Optional["SymbolTable"] = None) -> ColumnarStore:
        """The interned columnar snapshot of this database (DESIGN.md §8).

        Materialized lazily on first use against the process-wide
        symbol table and cached until the next mutation.  The returned
        store is shared: consumers that append derived facts (the
        grounder) must take a
        :meth:`~repro.datalog.store.ColumnarStore.copy` first;
        read-only consumers (pattern lookups, scans) may use it
        directly, and any indexes they build stay cached here.

        Pass a private *symbols* table to keep this database's
        constants out of the process-wide table (the global table is
        never pruned, so long-lived processes churning through many
        short-lived databases with unique constants should scope
        interning to the database's lifetime).  The table *sticks*:
        it replaces the cache and every later materialization of this
        database -- including the ones grounding runs trigger
        internally -- interns into it, so the escape
        hatch is one call, not a parameter on every entry point.
        Scope **before** the first columnar use: constants a prior
        no-arg materialization already interned into the global table
        cannot be un-interned.
        """
        if symbols is not None and symbols is not self._columnar_symbols:
            self._columnar_symbols = symbols
            self._columnar_cache = None
        if self._columnar_cache is None:
            self._columnar_cache = ColumnarStore.from_facts(
                self.facts(), self._columnar_symbols
            )
        return self._columnar_cache

    # -- annotations ---------------------------------------------------------

    def weight(self, fact: Fact, default: object = None) -> object:
        return self._weights.get(fact, default)

    def set_weight(self, fact: Fact, weight: object) -> None:
        if fact not in self:
            raise KeyError(f"{fact} not in database")
        self._weights[fact] = weight
        self._reweight(fact, weight)
        for maintainer in tuple(self._maintainers):
            maintainer._apply_weight(fact, weight)

    def valuation(self, semiring: Semiring) -> Dict[Fact, object]:
        """Fact → semiring value; unannotated facts default to ``1``.

        This is the assignment ``x_α ↦ value`` used both by naive
        Datalog evaluation and by circuit evaluation, so the two can
        be cross-checked gate-for-gate.  Computed once per
        ``(database state, semiring)`` and cached; a fresh dict copy
        is returned each call so callers may mutate their view.
        """
        cached = self._valuation_cache.get(id(semiring))
        if cached is None:
            out: Dict[Fact, object] = {}
            one = semiring.one
            weights = self._weights
            for fact in self.facts():
                weight = weights.get(fact)
                out[fact] = one if weight is None else weight
            # Bounded FIFO: callers constructing fresh semiring objects
            # per query must not pin one full valuation (plus the
            # semiring) per call for the life of the database.
            while len(self._valuation_cache) >= self._VALUATION_CACHE_SIZE:
                self._valuation_cache.pop(next(iter(self._valuation_cache)))
            self._valuation_cache[id(semiring)] = (semiring, out)
            return dict(out)
        return dict(cached[1])

    def copy(self) -> "Database":
        clone = Database()
        for pred, tuples in self._relations.items():
            for args in tuples:
                clone.add(pred, *args)
        clone._weights.update(self._weights)
        # The interning scope travels with the data: a clone of a
        # privately-scoped database must not leak its constants into
        # the process-wide table on its first columnar use.
        clone._columnar_symbols = self._columnar_symbols
        return clone

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{pred}:{len(tuples)}" for pred, tuples in sorted(self._relations.items())
        )
        return f"Database({parts or 'empty'})"
