"""Grounding of Datalog programs (Section 2.1).

A *grounding* of a rule instantiates its variables with active-domain
constants.  Two groundings are provided:

* :func:`full_grounding` -- all ``|Dom(I)|^{#vars}`` instantiations
  whose EDB body atoms hold in the input.  This is the paper's
  definition; exponential in rule width, usable only on tiny inputs.

* :func:`relevant_grounding` / :func:`columnar_grounding` -- only
  ground rules all of whose body facts are actually derivable.
  Omitted ground rules would contribute ``0`` to every ICO sum, so
  provenance polynomials (and therefore all circuits built from the
  grounding) are unchanged; this is what makes the Theorem 3.1/6.2
  constructions practical (DESIGN.md §2, ablated in DESIGN.md §6).

One grounder serves both (DESIGN.md §5, §9): a fused, delta-driven
semi-naive pass run entirely in *id space* on the interned columnar
store of :mod:`repro.datalog.store` (DESIGN.md §8).  Rules are
slot-compiled once (:class:`_SlotAtom`), join steps are precompiled
per ``(rule, delta position)`` and read candidate cells straight out
of the store's columns, and emission appends plain ints to a
:class:`ColumnarGroundProgram` -- the form the fixpoint
(:mod:`repro.datalog.seminaive`), the circuit constructions and the
maintainer (:mod:`repro.datalog.incremental`) consume.
:class:`GroundProgram` is its decoded tuple view
(:meth:`ColumnarGroundProgram.to_ground_program`) for the analyzer,
proof trees and anything else that wants :class:`Fact` objects.

The naive reference grounder (Boolean fixpoint, then a from-scratch
nested-loop re-join of every rule) lives in :mod:`repro.testing.oracle`
and is reachable only from tests; it shares the plain tuple join kept
here (:class:`_FactIndex`, :func:`_join`), which the UCQ evaluators
use as well.

Join probes are counted in :class:`GroundingStats` (see
:func:`count_join_probes`), the instrumented counter the benchmarks
(``benchmarks/bench_ablation_grounding.py``,
``benchmarks/bench_columnar_store.py``) and the regression tests read.
"""

from __future__ import annotations

import zlib
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from array import array

from .ast import Atom, Constant, DatalogError, Fact, Program, Variable
from .database import Database
from .store import SymbolTable

__all__ = [
    "GroundRule",
    "GroundProgram",
    "ColumnarGroundProgram",
    "GroundingStats",
    "GROUNDING_STATS",
    "count_join_probes",
    "full_grounding",
    "relevant_grounding",
    "columnar_grounding",
    "derivable_facts",
    "shard_of_fact",
]


def shard_of_fact(predicate: str, ids: Tuple[int, ...], nshards: int) -> int:
    """Stable shard of a ground fact in id space (DESIGN.md §13).

    Mixes the predicate's CRC32 with the symbol ids FNV-style.  Must be
    identical across worker processes, which rules out the builtin
    ``hash`` (``PYTHONHASHSEED`` salts strings per process); symbol ids
    are themselves process-stable because every shard worker starts
    from the same pickled base store.
    """
    h = zlib.crc32(predicate.encode("utf-8"))
    for sid in ids:
        h = (h * 1000003 ^ sid) & 0xFFFFFFFF
    return h % nshards


@dataclass
class GroundingStats:
    """Instrumentation for the grounders.

    * ``probes`` -- candidate rows handed to the matcher: the unit of
      join work the production grounder and the naive oracle share,
      and the metric on which they differ (the production pass's
      pattern lookups return only rows that already agree on every
      bound position, so far fewer rows are ever probed).
    * ``matches`` -- probes that extended the substitution.
    * ``ground_rules`` -- ground-rule instances emitted.

    Grounders write to the *context-local* stats object
    (:func:`count_join_probes` installs a private capture around the
    region it measures, so concurrent or interleaved measurements
    cannot pollute each other's counts).  Outside any capture they
    fall back to the module-level :data:`GROUNDING_STATS`, which
    accumulates across calls; direct use of the global remains
    supported::

        GROUNDING_STATS.reset()
        relevant_grounding(program, db)
        probes = GROUNDING_STATS.probes
    """

    probes: int = 0
    matches: int = 0
    ground_rules: int = 0

    def reset(self) -> None:
        self.probes = 0
        self.matches = 0
        self.ground_rules = 0


#: Module-level join instrumentation (see :class:`GroundingStats`):
#: the default capture target when no :func:`count_join_probes` scope
#: is active.
GROUNDING_STATS = GroundingStats()

#: The context-local capture target.  ``contextvars`` gives every
#: thread / async task its own binding, so interleaved
#: :func:`count_join_probes` regions are isolated from each other and
#: from the global accumulator.
_GROUNDING_STATS_VAR: ContextVar[GroundingStats] = ContextVar(
    "repro_grounding_stats", default=GROUNDING_STATS
)


def _stats() -> GroundingStats:
    """The stats object grounders must write to in the current context."""
    return _GROUNDING_STATS_VAR.get()


def count_join_probes(run):
    """Run ``run()`` against a private stats capture; return
    ``(probes, result)``.

    The one measurement protocol shared by the benchmarks and the
    probe-regression tests, so they cannot drift apart.  The capture
    is context-local: neither a concurrent measurement nor the
    module-level :data:`GROUNDING_STATS` accumulator sees this run's
    counts, and captures nest (an inner capture's counts stay out of
    the outer one).
    """
    capture = GroundingStats()
    token = _GROUNDING_STATS_VAR.set(capture)
    try:
        result = run()
    finally:
        _GROUNDING_STATS_VAR.reset(token)
    return capture.probes, result


@dataclass(frozen=True)
class GroundRule:
    """A grounded rule, body split into IDB and EDB facts.

    The grounded head is derived from ``idb_body ∪ edb_body`` by the
    originating rule; ``rule_index`` back-references the program rule.
    Body tuples preserve the original rule's body-atom order even when
    the join that discovered the instance ran in a different
    (selectivity-chosen) order.
    """

    head: Fact
    idb_body: Tuple[Fact, ...]
    edb_body: Tuple[Fact, ...]
    rule_index: int = -1

    @property
    def body(self) -> Tuple[Fact, ...]:
        return self.idb_body + self.edb_body

    def __repr__(self) -> str:
        body = " ∧ ".join(map(repr, self.body))
        return f"{self.head} :- {body}"



@dataclass
class GroundProgram:
    """The grounded program as tuples: ground rules indexed by head fact.

    The decoded view of a :class:`ColumnarGroundProgram`
    (:meth:`ColumnarGroundProgram.to_ground_program`), for consumers
    that want :class:`Fact` objects -- the analyzer, proof-tree
    enumeration, tests.  The fixpoint and the constructions run on
    the id-space form and lower a tuple grounding they are handed
    (:meth:`ColumnarGroundProgram.from_ground_program`).
    """

    program: Program
    rules: List[GroundRule]
    by_head: Dict[Fact, List[GroundRule]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.by_head:
            for rule in self.rules:
                self.by_head.setdefault(rule.head, []).append(rule)

    def rule_keys(self) -> FrozenSet[Tuple]:
        """The grounding as a set of order-independent rule identities
        ``(rule_index, head, idb_body, edb_body)``.

        Groundings of the same program may list their rules in
        different orders, so this is the identity the oracle
        cross-checks and the benchmarks compare on.
        """
        return frozenset(
            (rule.rule_index, rule.head, rule.idb_body, rule.edb_body)
            for rule in self.rules
        )

    @property
    def idb_facts(self) -> FrozenSet[Fact]:
        return frozenset(self.by_head)

    @property
    def size(self) -> int:
        """``M`` of Theorem 4.3: total atoms over all ground rules."""
        return sum(1 + len(rule.body) for rule in self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def rules_for(self, fact: Fact) -> Sequence[GroundRule]:
        return self.by_head.get(fact, ())

    def target_facts(self) -> List[Fact]:
        return sorted(
            (f for f in self.by_head if f.predicate == self.program.target), key=repr
        )

    def max_body_idbs(self) -> int:
        return max((len(r.idb_body) for r in self.rules), default=0)

    def __repr__(self) -> str:
        return (
            f"GroundProgram(rules={len(self.rules)}, idb_facts={len(self.by_head)}, "
            f"size={self.size})"
        )


class ColumnarGroundProgram:
    """The grounded program in id space: rules as parallel int arrays
    (DESIGN.md §9).

    The production grounding, produced by :func:`columnar_grounding`
    without ever decoding a constant.
    Every distinct ground fact is interned once into a dense *fact
    id* -- an index into the parallel ``fact_preds`` / ``fact_rows``
    tables -- and the ground rules are parallel ``array('q')`` runs:

    * ``rule_head[r]`` -- the head's fact id;
    * ``rule_no[r]`` -- the originating program-rule index;
    * ``idb_indptr`` / ``idb_flat`` -- CSR rows of IDB body fact ids,
      in original body-atom order;
    * ``edb_indptr`` / ``edb_flat`` -- the same for the EDB body.

    The two adjacency indexes the semi-naive fixpoint consumes are
    CSR arrays over fact ids (:meth:`by_body_csr`,
    :meth:`by_head_csr`): one contiguous ``(indptr, data)`` pair
    each, built in two counting passes and probed by plain integer
    indexing -- no :class:`Fact` hashing anywhere on the fixpoint's
    hot path.

    Decoding back to :class:`Fact` / :class:`GroundRule` objects
    happens only at the boundary (:meth:`decode_fact`,
    :meth:`idb_facts`, :meth:`rule_keys`, :meth:`to_ground_program`),
    once per distinct fact.
    """

    __slots__ = (
        "program",
        "symbols",
        "iterations",
        "fact_preds",
        "fact_rows",
        "rule_head",
        "rule_no",
        "idb_indptr",
        "idb_flat",
        "edb_indptr",
        "edb_flat",
        "_fact_ids",
        "_decoded",
        "_by_head",
        "_by_body",
        "_idb_fids",
        "_edb_fids",
    )

    def __init__(self, program: Program, symbols: SymbolTable):
        self.program = program
        self.symbols = symbols
        #: Boolean-fixpoint rounds of the grounding pass (set by
        #: :func:`columnar_grounding`; mirrors ``derivable_facts``).
        self.iterations: Optional[int] = None
        self.fact_preds: List[str] = []
        self.fact_rows: List[Tuple[int, ...]] = []
        self.rule_head = array("q")
        self.rule_no = array("q")
        self.idb_indptr = array("q", (0,))
        self.idb_flat = array("q")
        self.edb_indptr = array("q", (0,))
        self.edb_flat = array("q")
        self._fact_ids: Dict[str, Dict[Tuple[int, ...], int]] = {}
        self._decoded: Dict[int, Fact] = {}
        self._by_head: Optional[Tuple[array, array]] = None
        self._by_body: Optional[Tuple[array, array]] = None
        self._idb_fids: Optional[array] = None
        self._edb_fids: Optional[array] = None

    # -- writers (grounding-time) ----------------------------------------

    def interner(self, predicate: str):
        """A ``row ids -> fact id`` interning closure for one predicate.

        The emission hot path calls one of these per body atom per
        ground rule; binding the per-predicate row dict and the fact
        tables up front keeps that to a single small-tuple dict probe
        (no ``(predicate, ids)`` key allocation, no string hashing).
        """
        table = self._fact_ids.setdefault(predicate, {})
        fact_preds, fact_rows = self.fact_preds, self.fact_rows

        def fact_id_for(ids: Tuple[int, ...]) -> int:
            fid = table.get(ids)
            if fid is None:
                fid = len(fact_preds)
                table[ids] = fid
                fact_preds.append(predicate)
                fact_rows.append(ids)
            return fid

        return fact_id_for

    def fact_id(self, predicate: str, ids: Tuple[int, ...]) -> int:
        """The dense fact id of ``predicate(ids)``, interning on first use."""
        return self.interner(predicate)(ids)

    def append_rule(
        self,
        rule_no: int,
        head_fid: int,
        idb_fids: Sequence[int],
        edb_fids: Sequence[int],
    ) -> None:
        self.rule_head.append(head_fid)
        self.rule_no.append(rule_no)
        self.idb_flat.extend(idb_fids)
        self.idb_indptr.append(len(self.idb_flat))
        self.edb_flat.extend(edb_fids)
        self.edb_indptr.append(len(self.edb_flat))
        self._by_head = self._by_body = None
        self._idb_fids = self._edb_fids = None

    # -- shape -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rule_head)

    @property
    def fact_count(self) -> int:
        return len(self.fact_preds)

    @property
    def size(self) -> int:
        """``M`` of Theorem 4.3: total atoms over all ground rules."""
        return len(self.rule_head) + len(self.idb_flat) + len(self.edb_flat)

    def max_body_idbs(self) -> int:
        indptr = self.idb_indptr
        return max(
            (indptr[r + 1] - indptr[r] for r in range(len(self))), default=0
        )

    def idb_fact_ids(self) -> array:
        """Distinct head fact ids, ascending (the IDB facts)."""
        if self._idb_fids is None:
            mark = bytearray(self.fact_count)
            for fid in self.rule_head:
                mark[fid] = 1
            self._idb_fids = array("q", (i for i, m in enumerate(mark) if m))
        return self._idb_fids

    def edb_fact_ids(self) -> array:
        """Distinct EDB body fact ids, ascending."""
        if self._edb_fids is None:
            mark = bytearray(self.fact_count)
            for fid in self.edb_flat:
                mark[fid] = 1
            self._edb_fids = array("q", (i for i, m in enumerate(mark) if m))
        return self._edb_fids

    def target_fact_ids(self) -> List[int]:
        """Head fact ids of the program's target predicate."""
        target = self.program.target
        preds = self.fact_preds
        return [fid for fid in self.idb_fact_ids() if preds[fid] == target]

    # -- CSR adjacency ---------------------------------------------------

    @staticmethod
    def _csr(
        keys: Sequence[int], payload: Sequence[int], buckets: int
    ) -> Tuple[array, array]:
        """Bucket *payload* by *keys*: ``(indptr, data)`` with bucket
        ``b``'s payload at ``data[indptr[b]:indptr[b + 1]]``, append
        order preserved within a bucket (two counting passes)."""
        indptr = [0] * (buckets + 1)
        for key in keys:
            indptr[key + 1] += 1
        for bucket in range(buckets):
            indptr[bucket + 1] += indptr[bucket]
        data = array("q", bytes(8 * len(payload)))
        fill = indptr[:-1]
        for key, value in zip(keys, payload):
            data[fill[key]] = value
            fill[key] += 1
        return array("q", indptr), data

    def by_head_csr(self) -> Tuple[array, array]:
        """Fact id → positions of the ground rules deriving it (CSR).

        ``data[indptr[fid]:indptr[fid + 1]]`` lists rule positions in
        ascending order; non-head fact ids have empty ranges.
        """
        if self._by_head is None:
            self._by_head = self._csr(
                self.rule_head, range(len(self.rule_head)), self.fact_count
            )
        return self._by_head

    def by_body_csr(self) -> Tuple[array, array]:
        """Fact id → positions of the ground rules with that fact in
        their IDB body (CSR; deduplicated per rule).  When a fact's
        value changes, exactly these rules can produce a different
        ⊗-term."""
        if self._by_body is None:
            keys = array("q")
            payload = array("q")
            indptr, flat = self.idb_indptr, self.idb_flat
            for position in range(len(self)):
                start, stop = indptr[position], indptr[position + 1]
                if stop - start == 1:
                    keys.append(flat[start])
                    payload.append(position)
                elif stop > start:
                    row = flat[start:stop]
                    seen = set()
                    for fid in row:
                        if fid not in seen:
                            seen.add(fid)
                            keys.append(fid)
                            payload.append(position)
            self._by_body = self._csr(keys, payload, self.fact_count)
        return self._by_body

    # -- boundary decoding -----------------------------------------------

    def decode_fact(self, fid: int) -> Fact:
        """The :class:`Fact` behind a fact id, decoded once and cached."""
        fact = self._decoded.get(fid)
        if fact is None:
            fact = Fact(self.fact_preds[fid], self.symbols.decode_row(self.fact_rows[fid]))
            self._decoded[fid] = fact
        return fact

    def find_fact_id(self, fact: Fact) -> Optional[int]:
        """The fact id of *fact*, or ``None`` when it never occurs in
        the grounding (unknown constants short-circuit)."""
        ids = self.symbols.get_row(fact.args)
        if ids is None:
            return None
        return self._fact_ids.get(fact.predicate, {}).get(ids)

    @property
    def idb_facts(self) -> FrozenSet[Fact]:
        return frozenset(self.decode_fact(fid) for fid in self.idb_fact_ids())

    def _decode_rule(self, position: int) -> GroundRule:
        decode = self.decode_fact
        idb = tuple(
            decode(fid)
            for fid in self.idb_flat[
                self.idb_indptr[position] : self.idb_indptr[position + 1]
            ]
        )
        edb = tuple(
            decode(fid)
            for fid in self.edb_flat[
                self.edb_indptr[position] : self.edb_indptr[position + 1]
            ]
        )
        return GroundRule(decode(self.rule_head[position]), idb, edb, self.rule_no[position])

    def rule_keys(self) -> FrozenSet[Tuple]:
        """Same order-independent identity as
        :meth:`GroundProgram.rule_keys`, so the oracle cross-checks
        compare tuple and columnar groundings directly."""
        return frozenset(
            (rule.rule_index, rule.head, rule.idb_body, rule.edb_body)
            for rule in (self._decode_rule(position) for position in range(len(self)))
        )

    def to_ground_program(self) -> GroundProgram:
        """Decode the whole grounding into the tuple form (boundary
        use: the analyzer, proof trees, tests)."""
        return GroundProgram(
            self.program, [self._decode_rule(position) for position in range(len(self))]
        )

    @classmethod
    def from_ground_program(
        cls, ground: GroundProgram, symbols: Optional[SymbolTable] = None
    ) -> "ColumnarGroundProgram":
        """Lower a tuple-space grounding into id space.

        Lets the fixpoint and the constructions run on tuple
        groundings callers hand them (e.g. the test oracle's).
        Interns into a
        private table by default: the lowering is self-contained, so
        it must not grow the shared default table.
        """
        symbols = SymbolTable() if symbols is None else symbols
        out = cls(ground.program, symbols)
        intern_row = symbols.intern_row
        fact_id = out.fact_id
        for rule in ground.rules:
            out.append_rule(
                rule.rule_index,
                fact_id(rule.head.predicate, intern_row(rule.head.args)),
                [fact_id(f.predicate, intern_row(f.args)) for f in rule.idb_body],
                [fact_id(f.predicate, intern_row(f.args)) for f in rule.edb_body],
            )
        return out

    def __repr__(self) -> str:
        return (
            f"ColumnarGroundProgram(rules={len(self)}, facts={self.fact_count}, "
            f"size={self.size})"
        )


Row = Tuple[Hashable, ...]


class _FactIndex:
    """Per-predicate tuple fact store with single-position indexes.

    The plain tuple join behind :func:`_join`: the UCQ evaluators and
    the test oracle use it, the production grounder does not.
    :meth:`candidates` picks the narrowest *single*-position index
    among an atom's bound positions, or scans the whole relation when
    nothing is bound; rows still need a full :func:`_match` because
    only one position was used for filtering.  Indexes are built
    lazily and maintained by :meth:`insert`, so they stay correct as
    derived facts stream in.
    """

    def __init__(self) -> None:
        self._tuples: Dict[str, List[Row]] = {}
        self._seen: Dict[str, Set[Row]] = {}
        # (predicate, position) → {value → rows}
        self._positions: Dict[Tuple[str, int], Dict[Hashable, List[Row]]] = {}
        # predicate → positions with a built index
        self._built: Dict[str, List[int]] = {}

    def insert(self, fact: Fact) -> bool:
        seen = self._seen.setdefault(fact.predicate, set())
        if fact.args in seen:
            return False
        seen.add(fact.args)
        self._tuples.setdefault(fact.predicate, []).append(fact.args)
        for position in self._built.get(fact.predicate, ()):
            if position < len(fact.args):  # mixed-arity inputs
                table = self._positions[(fact.predicate, position)]
                table.setdefault(fact.args[position], []).append(fact.args)
        return True

    def _index(self, predicate: str, position: int) -> Dict[Hashable, List[Row]]:
        key = (predicate, position)
        table = self._positions.get(key)
        if table is None:
            table = {}
            for row in self._tuples.get(predicate, ()):
                if position < len(row):
                    table.setdefault(row[position], []).append(row)
            self._positions[key] = table
            self._built.setdefault(predicate, []).append(position)
        return table

    def candidates(self, atom: Atom, theta: Dict[Variable, Constant]) -> Sequence[Row]:
        """Narrowest single-position index among the bound positions,
        else the whole relation."""
        best: Optional[Sequence[Row]] = None
        for position, term in enumerate(atom.terms):
            value: Optional[Hashable] = None
            if isinstance(term, Constant):
                value = term.value
            elif term in theta:
                value = theta[term].value
            if value is not None:
                rows = self._index(atom.predicate, position).get(value, ())
                if best is None or len(rows) < len(best):
                    best = rows
        if best is None:
            best = self._tuples.get(atom.predicate, ())
        return best


def _match(
    atom: Atom, row: Row, theta: Dict[Variable, Constant]
) -> Optional[Dict[Variable, Constant]]:
    """Try to extend *theta* so that atom θ = row; None on clash.

    A row of the wrong arity can never match: inputs may hold one
    predicate at several arities even though programs cannot, and
    without this check ``zip`` would silently truncate (a 3-tuple
    "matching" a binary atom, or a short row leaving variables
    unbound).
    """
    if len(row) != atom.arity:
        return None
    extension = dict(theta)
    for term, value in zip(atom.terms, row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            bound = extension.get(term)
            if bound is None:
                extension[term] = Constant(value)
            elif bound.value != value:
                return None
    return extension


def _join(
    body: Sequence[Atom], index: _FactIndex, theta: Dict[Variable, Constant]
) -> Iterator[Dict[Variable, Constant]]:
    """All substitutions grounding *body* against *index* (backtracking).

    Atoms are joined in the order given; each candidate row scanned
    counts one probe in the current :class:`GroundingStats`.
    """
    if not body:
        yield theta
        return
    stats = _stats()
    first, rest = body[0], body[1:]
    for row in index.candidates(first, theta):
        stats.probes += 1
        extended = _match(first, row, theta)
        if extended is not None:
            stats.matches += 1
            yield from _join(rest, index, extended)


class _SlotAtom:
    """An atom lowered to id space with *rule-local variable slots*.

    The slot representation is what lets the fused
    :class:`_ColumnarProgramGrounder` join without substitution
    dicts: a rule's variables are numbered ``0..k-1`` (sorted by name,
    so the slot vector doubles as the per-round dedup key), and an
    atom's ``terms`` encode constants as their non-negative interned
    id and variable slot ``s`` as ``-(s + 1)`` -- one int tuple per
    atom, instantiated against a flat ``theta`` list by sign check.

    ``const_items``/``var_items`` pre-split the positions so the join
    never re-inspects term types.  *intern* must be True only for
    atoms that are **instantiated** (rule heads): their constants
    become store rows, so they need real ids.  Lookup-side atoms use
    the non-inserting :meth:`~repro.datalog.store.SymbolTable.get` --
    a constant the table has never seen can match no row, now or in
    any later round (every id a derived fact can carry was interned
    from the EDB or from a head compiled before any join runs), so
    the atom is marked :attr:`impossible` instead of growing the
    shared table.
    """

    __slots__ = ("predicate", "arity", "terms", "const_items", "var_items", "slots", "impossible")

    def __init__(self, atom: Atom, symbols, slot_of: Dict[Variable, int], intern: bool = False):
        self.predicate = atom.predicate
        self.arity = atom.arity
        self.impossible = False
        entries: List[int] = []
        const_items: List[Tuple[int, int]] = []
        var_items: List[Tuple[int, int]] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                sid = symbols.intern(term.value) if intern else symbols.get(term.value)
                if sid is None:
                    self.impossible = True
                    sid = 0  # placeholder; the atom can never match
                entries.append(sid)
                const_items.append((position, sid))
            else:
                slot = slot_of[term]
                entries.append(-(slot + 1))
                var_items.append((position, slot))
        self.terms = tuple(entries)
        self.const_items = tuple(const_items)
        self.var_items = tuple(var_items)
        self.slots = tuple(dict.fromkeys(slot for _, slot in var_items))


def _row_builder(terms: Tuple[int, ...]):
    """A ``theta -> id row`` callable for one slot-encoded atom.

    The all-variable case (every ground atom of a constant-free rule)
    compiles to :func:`operator.itemgetter` -- one C call per emitted
    atom instead of a Python-level loop; atoms mentioning constants
    take the generic sign-check path, and nullary (propositional)
    atoms have the one constant row.
    """
    if not terms:
        return lambda theta: ()
    if all(t < 0 for t in terms):
        slots = tuple(-1 - t for t in terms)
        if len(slots) == 1:
            only = slots[0]
            return lambda theta: (theta[only],)
        return itemgetter(*slots)

    def build(theta, terms=terms):
        return tuple([t if t >= 0 else theta[-1 - t] for t in terms])

    return build


def _order_slot_atoms(
    atoms: Sequence[_SlotAtom], store, bound: Set[int]
) -> List[_SlotAtom]:
    """Greedy selectivity order over slot atoms: most bound term
    positions first, smallest relation breaks ties (DESIGN.md §5).

    ``bound`` seeds the already-bound slots (e.g. those of a delta
    atom joined first); after picking an atom its slots count as
    bound for the rest of the body.  ``O(k²)`` in the body length
    ``k`` -- negligible next to the join itself.
    """
    remaining = list(atoms)
    ordered: List[_SlotAtom] = []
    bound = set(bound)
    while remaining:
        best_at = 0
        best_key: Optional[Tuple[int, int]] = None
        for at, atom in enumerate(remaining):
            bound_terms = len(atom.const_items) + sum(
                1 for _, slot in atom.var_items if slot in bound
            )
            key = (-bound_terms, store.size(atom.predicate, atom.arity))
            if best_key is None or key < best_key:
                best_at, best_key = at, key
        atom = remaining.pop(best_at)
        ordered.append(atom)
        bound.update(atom.slots)
    return ordered


def _compile_slot_plan(
    ordered: Sequence[_SlotAtom], bound: Set[int]
) -> Tuple[Tuple, ...]:
    """Freeze an ordered body into per-atom join steps.

    Which slots are bound when each atom's turn comes is fully
    determined by the order, so the bound-pattern computation happens
    **once** here, not per candidate binding:
    each step carries its lookup position tuple, a key template
    (constant id, or slot to read from ``theta``), and the runtime
    bind-or-check items for still-unbound slots.  Compiled plans are
    cached per ``(rule, delta position)`` across rounds.
    """
    plan: List[Tuple] = []
    bound = set(bound)
    for atom in ordered:
        items: List[Tuple[int, bool, int]] = [
            (position, False, sid) for position, sid in atom.const_items
        ]
        runtime: List[Tuple[int, int]] = []
        for position, slot in atom.var_items:
            if slot in bound:
                items.append((position, True, slot))
            else:
                runtime.append((position, slot))
        items.sort()
        plan.append(
            (
                atom.predicate,
                atom.arity,
                tuple(position for position, _, _ in items),
                tuple(is_slot for _, is_slot, _ in items),
                tuple(value for _, _, value in items),
                tuple(runtime),
                atom.impossible,
            )
        )
        bound.update(atom.slots)
    return tuple(plan)


def _enum_slot_plan(
    plan: Sequence[Tuple], at: int, store, theta: List[int], stats: GroundingStats
) -> Iterator[None]:
    """Backtracking join over a compiled slot plan.

    Yields once per complete binding; *theta* is mutated in place
    (read it at the yield point) and restored via an undo trail on
    backtrack -- no per-match dict copies.  Candidate cells are read
    straight out of the relation's columns, so no row tuple is built
    per probe either.  Probe/match accounting matches :func:`_join`:
    one probe per candidate row, one match per row that extends the
    binding.
    """
    if at == len(plan):
        yield None
        return
    predicate, arity, positions, key_is_slot, key_vals, runtime, impossible = plan[at]
    if impossible:
        return
    relation = store.relation(predicate, arity)
    if relation is None:
        return
    if positions:
        if len(key_vals) == 1:
            key = theta[key_vals[0]] if key_is_slot[0] else key_vals[0]
        else:
            key = tuple(
                theta[value] if is_slot else value
                for is_slot, value in zip(key_is_slot, key_vals)
            )
        rows = relation.index_for(positions).lookup(key)
    else:
        rows = range(len(relation))
    columns = relation.columns
    rest = at + 1
    for row_index in rows:
        stats.probes += 1
        ok = True
        trail: List[int] = []
        for position, slot in runtime:
            sid = columns[position][row_index]
            bound_sid = theta[slot]
            if bound_sid < 0:
                theta[slot] = sid
                trail.append(slot)
            elif bound_sid != sid:
                ok = False
                break
        if ok:
            stats.matches += 1
            yield from _enum_slot_plan(plan, rest, store, theta, stats)
        for slot in trail:
            theta[slot] = -1


class _ColumnarProgramGrounder:
    """The fused semi-naive pass emitting a
    :class:`ColumnarGroundProgram` -- id space end to end.

    Round 0 joins every rule in full against the input database.
    Round ``t ≥ 1`` re-joins only rules with a body atom over a delta
    predicate, seeding the join with each delta row in that position;
    the remaining atoms are selectivity-ordered and joined against the
    full store.  The database's store is :meth:`copied
    <repro.datalog.store.ColumnarStore.copy>` (block array copies, no
    re-interning) so derived facts can be appended without mutating
    the shared EDB snapshot, and the round-``t`` delta is read back as
    :class:`~repro.datalog.store.DeltaView` windows between two store
    watermarks.  Only facts *new to the store* enter a delta (a
    derived head already resident as an input-database fact seeds
    nothing), so a ground instance is discovered exactly in the round
    after its last body fact arrived and never in two rounds; a
    per-round slot-vector key removes the within-round duplicates
    that arise when two body facts are both in the delta.

    * rules are slot-compiled once (:class:`_SlotAtom`): substitutions
      are flat int lists indexed by slot, extended/rolled back through
      an undo trail instead of being copied dicts;
    * join steps are precompiled (:func:`_compile_slot_plan`), cached
      per ``(rule, delta position)`` across rounds, and read candidate
      cells directly from the store's columns;
    * emission appends plain ints to the ground program's parallel
      arrays through per-predicate interning closures -- no
      :class:`Fact` object, no constant decoding, anywhere.
    """

    def __init__(
        self,
        program: Program,
        database: Optional[Database],
        store: Optional["ColumnarStore"] = None,
        shard: Optional[Tuple[int, int]] = None,
    ):
        self.program = program
        idbs = program.idb_predicates
        # A shard worker receives the base store directly (unpickled in
        # the worker, or handed over by the serial fallback); either
        # way the grounder works on a private copy.
        self.store = (store if store is not None else database.columnar_store()).copy()
        #: ``(index, count)`` restricts *emission* to ground rules
        #: whose head hashes to this shard (:func:`shard_of_fact`); the
        #: derivation fixpoint itself stays global so every shard sees
        #: the same rounds and the union of shards is exactly the
        #: serial grounding.
        self.shard = shard
        symbols = self.store.symbols
        self.cground = ColumnarGroundProgram(program, symbols)
        self.slot_counts: List[int] = []
        self.bodies: List[Tuple[_SlotAtom, ...]] = []
        self.emit_plans: List[Tuple] = []
        for rule in program.rules:
            slot_of = {
                var: slot
                for slot, var in enumerate(sorted(rule.variables, key=lambda v: v.name))
            }
            self.slot_counts.append(len(slot_of))
            # Heads first, with interning (see _SlotAtom on why body
            # atoms may use the non-inserting probe).
            head = _SlotAtom(rule.head, symbols, slot_of, intern=True)
            body = tuple(_SlotAtom(atom, symbols, slot_of) for atom in rule.body)
            self.bodies.append(body)
            self.emit_plans.append(
                (
                    head.predicate,
                    _row_builder(head.terms),
                    self.cground.interner(head.predicate),
                    tuple(
                        (
                            _row_builder(atom.terms),
                            atom.predicate in idbs,
                            self.cground.interner(atom.predicate),
                        )
                        for atom in body
                    ),
                )
            )
        self.derived: Set[Tuple[str, Tuple[int, ...]]] = set()
        self.iterations = 0
        self.stats = _stats()
        # Emission writes the ground program's parallel arrays through
        # bound methods: ColumnarGroundProgram.append_rule's per-call
        # cache invalidation is pointless mid-build (the lazy CSR /
        # id-set caches are first read after the run), and the bound
        # appends shave a call per rule off the hottest emit path.
        cground = self.cground
        self._idb_flat = cground.idb_flat
        self._edb_flat = cground.edb_flat
        self._append_head = cground.rule_head.append
        self._append_no = cground.rule_no.append
        self._append_idb_ptr = cground.idb_indptr.append
        self._append_edb_ptr = cground.edb_indptr.append

    def _emit(
        self, rule_index: int, theta: List[int], round_seen: Set[Tuple]
    ) -> Optional[Tuple[str, Tuple[int, ...]]]:
        key = (rule_index, *theta)
        if key in round_seen:
            return None
        round_seen.add(key)
        head_pred, head_build, head_intern, body_plan = self.emit_plans[rule_index]
        head_ids = head_build(theta)
        if self.shard is not None:
            index, count = self.shard
            if shard_of_fact(head_pred, head_ids, count) != index:
                # Foreign shard: skip the emission (another worker owns
                # this head) but still report the head so the global
                # derivation fixpoint advances identically everywhere.
                return (head_pred, head_ids)
        idb_flat, edb_flat = self._idb_flat, self._edb_flat
        for build, is_idb, intern in body_plan:
            fid = intern(build(theta))
            (idb_flat if is_idb else edb_flat).append(fid)
        self._append_head(head_intern(head_ids))
        self._append_no(rule_index)
        self._append_idb_ptr(len(idb_flat))
        self._append_edb_ptr(len(edb_flat))
        return (head_pred, head_ids)

    def run(self) -> "_ColumnarProgramGrounder":
        store = self.store
        stats = self.stats
        derived = self.derived
        emit = self._emit
        fresh: Set[Tuple[str, Tuple[int, ...]]] = set()
        round_seen: Set[Tuple] = set()

        # Round 0: full join of every rule, selectivity-ordered.
        for rule_index, body in enumerate(self.bodies):
            plan = _compile_slot_plan(_order_slot_atoms(body, store, set()), set())
            theta = [-1] * self.slot_counts[rule_index]
            for _ in _enum_slot_plan(plan, 0, store, theta, stats):
                head = emit(rule_index, theta, round_seen)
                if head is not None and head not in derived:
                    fresh.add(head)
        self.iterations = 1

        # Delta plans are compiled on first need and reused across
        # rounds: the bound-slot set depends only on (rule, position),
        # and freezing the atom order at first compilation keeps later
        # rounds free of the O(k²) ordering pass.
        delta_plans: Dict[Tuple[int, int], Tuple] = {}
        while fresh:
            self.iterations += 1
            mark = store.watermark()
            for predicate, ids in sorted(fresh):
                derived.add((predicate, ids))
                store.insert_ids(predicate, ids)
            deltas = store.deltas_since(mark)
            fresh = set()
            round_seen.clear()
            for rule_index, body in enumerate(self.bodies):
                nslots = self.slot_counts[rule_index]
                for position, atom in enumerate(body):
                    view = deltas.get((atom.predicate, atom.arity))
                    if view is None or atom.impossible:
                        continue
                    plan_key = (rule_index, position)
                    plan = delta_plans.get(plan_key)
                    if plan is None:
                        rest = [a for at, a in enumerate(body) if at != position]
                        bound = set(atom.slots)
                        plan = _compile_slot_plan(
                            _order_slot_atoms(rest, store, bound), bound
                        )
                        delta_plans[plan_key] = plan
                    const_items = atom.const_items
                    var_items = atom.var_items
                    for row in view.id_rows():
                        stats.probes += 1
                        ok = True
                        for pos, sid in const_items:
                            if row[pos] != sid:
                                ok = False
                                break
                        if not ok:
                            continue
                        theta = [-1] * nslots
                        for pos, slot in var_items:
                            sid = row[pos]
                            bound_sid = theta[slot]
                            if bound_sid < 0:
                                theta[slot] = sid
                            elif bound_sid != sid:
                                ok = False
                                break
                        if not ok:
                            continue
                        stats.matches += 1
                        for _ in _enum_slot_plan(plan, 0, store, theta, stats):
                            head = emit(rule_index, theta, round_seen)
                            if head is not None and head not in derived:
                                fresh.add(head)
        stats.ground_rules += len(self.cground)
        return self

# ---------------------------------------------------------------------------
# Public groundings.
# ---------------------------------------------------------------------------


def columnar_grounding(
    program: Program, database: Database, workers: Optional[int] = None
) -> ColumnarGroundProgram:
    """Relevant grounding straight into id space (DESIGN.md §9).

    Runs the fused delta-driven pass and emits a
    :class:`ColumnarGroundProgram` -- ground rules as parallel int
    arrays over interned fact ids.  The fixpoint
    (:mod:`repro.datalog.seminaive`) and the circuit constructions
    consume it directly; its
    :meth:`~ColumnarGroundProgram.to_ground_program` /
    :meth:`~ColumnarGroundProgram.rule_keys` recover the tuple form at
    the boundary.  The result's ``iterations`` records the Boolean
    fixpoint rounds of the pass (the :func:`derivable_facts` count).

    ``workers > 1`` shards the pass by hash of head fact across a
    ``multiprocessing`` pool and merges the per-shard programs
    deterministically (DESIGN.md §13): same ``rule_keys()`` and
    ``iterations`` as the serial pass, rule *order* grouped by shard.
    """
    if workers is not None and workers > 1:
        from ..backends.sharding import sharded_columnar_grounding

        return sharded_columnar_grounding(program, database, workers)
    grounder = _ColumnarProgramGrounder(program, database).run()
    cground = grounder.cground
    cground.iterations = grounder.iterations
    return cground


def relevant_grounding(program: Program, database: Database) -> GroundProgram:
    """Ground rules whose body facts are all derivable (see module doc),
    decoded into the tuple view.

    The same pass as :func:`columnar_grounding`; use that one when the
    consumer can work in id space (the fixpoint and the constructions
    do), since decoding every ground rule costs a :class:`Fact` per
    distinct fact and a :class:`GroundRule` per rule.
    """
    return columnar_grounding(program, database).to_ground_program()


def derivable_facts(
    program: Program,
    database: Database,
    ground: Optional[ColumnarGroundProgram] = None,
) -> Tuple[FrozenSet[Fact], int]:
    """Boolean fixpoint: ``(derivable IDB facts, iterations)``.

    The iteration count is the number of rounds until no new fact
    appears -- the Boolean fixpoint iteration of Definition 4.1 used
    by the empirical boundedness probe.  Both answers fall out of the
    grounding pass, so this grounds the program (or reads a
    precomputed :func:`columnar_grounding` result passed as *ground*,
    which records its pass's round count).  A grounding with no
    recorded round count (e.g. one lowered via
    :meth:`ColumnarGroundProgram.from_ground_program`) is rejected
    rather than silently recomputed against the live database.
    """
    if ground is None:
        ground = columnar_grounding(program, database)
    elif ground.iterations is None:
        raise ValueError(
            "ground carries no Boolean round count (only "
            "columnar_grounding results do); drop the argument to "
            "recompute the closure from the database"
        )
    return ground.idb_facts, ground.iterations


def full_grounding(
    program: Program,
    database: Database,
    max_instantiations: int = 2_000_000,
) -> GroundProgram:
    """All groundings over the active domain with EDB body atoms present.

    Ground rules whose EDB atoms are absent from the input are dropped
    (their value is identically ``0``); IDB body facts are kept
    unconstrained, exactly as in the paper's grounded program.

    Each rule's EDB atoms are joined first, in id space over the
    database's store (the slot-compiled plan of the relevant
    grounder), and only the remaining free variables are enumerated
    over the domain.  The guard against *max_instantiations* counts
    the instantiations that would actually be emitted -- a join-cost
    counting pass per rule, before any ground rule is materialized --
    and raises :class:`DatalogError` when it is exceeded.
    """
    store = database.columnar_store()
    symbols = store.symbols
    domain = [symbols.intern(value) for value in sorted(database.active_domain(), key=repr)]
    idbs = program.idb_predicates
    cground = ColumnarGroundProgram(program, symbols)
    stats = _stats()
    for rule_index, rule in enumerate(program.rules):
        slot_of = {
            var: slot for slot, var in enumerate(sorted(rule.variables, key=lambda v: v.name))
        }
        edb_atoms = [
            _SlotAtom(atom, symbols, slot_of) for atom in rule.body if atom.predicate not in idbs
        ]
        plan = _compile_slot_plan(_order_slot_atoms(edb_atoms, store, set()), set())
        bound = {slot for atom in edb_atoms for slot in atom.slots}
        free = [slot for slot in range(len(slot_of)) if slot not in bound]
        theta = [-1] * len(slot_of)
        bindings = sum(1 for _ in _enum_slot_plan(plan, 0, store, theta, GroundingStats()))
        total = bindings * len(domain) ** len(free)
        if total > max_instantiations:
            raise DatalogError(
                f"full grounding of rule {rule} would create {total} "
                f"instantiations (> {max_instantiations}); "
                "use relevant_grounding instead"
            )
        # Instantiated atoms (head, IDB body) may carry constants the
        # store has never seen, so they intern; EDB atoms were matched.
        head = _SlotAtom(rule.head, symbols, slot_of, intern=True)
        head_row, head_id = _row_builder(head.terms), cground.interner(head.predicate)
        body = []
        for atom in rule.body:
            is_idb = atom.predicate in idbs
            slotted = _SlotAtom(atom, symbols, slot_of, intern=is_idb)
            body.append((_row_builder(slotted.terms), is_idb, cground.interner(atom.predicate)))
        for _ in _enum_slot_plan(plan, 0, store, theta, stats):
            for values in product(domain, repeat=len(free)):
                stats.probes += 1
                for slot, sid in zip(free, values):
                    theta[slot] = sid
                idb_fids = [intern(row(theta)) for row, is_idb, intern in body if is_idb]
                edb_fids = [intern(row(theta)) for row, is_idb, intern in body if not is_idb]
                cground.append_rule(rule_index, head_id(head_row(theta)), idb_fids, edb_fids)
                stats.ground_rules += 1
            for slot in free:
                theta[slot] = -1
    return cground.to_ground_program()
