"""Differential maintenance of the columnar fixpoint (DESIGN.md §11).

The batch pipeline is ground → fixpoint → (optionally) circuit; any
:class:`~repro.datalog.database.Database` mutation used to invalidate
all of it.  :class:`MaintainedFixpoint` keeps the id-space artifacts
of one program/database pair alive across single-fact deltas:

* the :class:`~repro.datalog.grounding.ColumnarGroundProgram` is
  *regrounded incrementally* -- an inserted EDB fact seeds the same
  slot-compiled delta joins the columnar grounder runs
  (:func:`~repro.datalog.grounding._enum_slot_plan` over per
  ``(rule, position)`` cached plans), so only ground-rule instances
  that mention the delta are enumerated;
* per-fact *support* (the live ground rules deriving each IDB fact,
  the counting part of counting/DRed maintenance) is kept as
  adjacency dicts over fact ids, and retraction runs DRed proper:
  overdelete the downstream cone, rederive cone facts that keep an
  alternative derivation, prune the ground rules that died;
* per-semiring dense value arrays (the fixpoint state) are repaired
  by a restricted chaotic iteration over the dirty cone -- monotone
  ascent from the old fixpoint for inserts, zero-the-cone +
  recompute-with-fixed-boundary for retractions and reweights.  Both
  converge to exactly the from-scratch least fixpoint because the
  cone is downstream-closed: no clean fact reads a dirty one.

Exactness is testable, not aspirational: :meth:`MaintainedFixpoint.
result` reruns the exec-generated kernel over the *maintained*
grounding, and the Jacobi round structure depends only on the ground
rule **set**, so values, ``iterations``, ``converged`` and
``rule_evaluations`` coincide with a recompute-from-scratch -- the
invariant the stateful stream suite in
``tests/datalog/test_incremental.py`` drives.

A maintainer attaches to its database as an observer: plain
``db.add_fact`` / ``db.retract_fact`` / ``db.set_weight`` calls are
routed here after the database's own caches have been patched
delta-aware (see :meth:`Database._invalidate`), so every existing
entry point -- including :class:`repro.api.Session` and the serving
layer's ``/circuits/<key>/facts`` route -- observes maintained state.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..semirings.base import Semiring
from .ast import DatalogError, Fact, Program
from .database import Database
from .evaluation import DivergenceError, EvaluationResult
from .grounding import (
    ColumnarGroundProgram,
    _compile_slot_plan,
    _enum_slot_plan,
    _order_slot_atoms,
    _row_builder,
    _SlotAtom,
    _stats,
    columnar_grounding,
)
from .seminaive import _columnar_fixpoint

__all__ = ["MaintainedFixpoint", "MaintenanceBudgetExceeded", "MaintenancePolicy"]


class MaintenanceBudgetExceeded(DatalogError):
    """A maintenance pass ran past its :class:`MaintenancePolicy` budget.

    Raised by the watchdogs on :meth:`MaintainedFixpoint._propagate` /
    :meth:`MaintainedFixpoint._refresh`; callers that serve live
    traffic (:class:`repro.api.StreamSession`) treat it as a degrade
    signal -- detach the maintainer, fall back to full recompute --
    rather than an error to surface (DESIGN.md §12).
    """

    def __init__(self, site: str, detail: str):
        super().__init__(f"maintenance budget exceeded at {site}: {detail}")
        self.site = site


@dataclass(frozen=True)
class MaintenancePolicy:
    """Watchdog budgets for a :class:`MaintainedFixpoint`.

    ``None`` disables the corresponding guard (the default: batch
    workloads should not pay watchdog overhead).  A serving stack
    passes finite budgets so a poisoned update -- a delta whose dirty
    cone is pathologically large, or a semiring oscillating inside it
    -- trips :class:`MaintenanceBudgetExceeded` instead of wedging the
    event loop.

    *fault_hook*, when set, is called with a site name at every
    watchdog tick (``"propagate.round"``, ``"refresh"``,
    ``"reground.round"``); the fault-injection harness
    (:mod:`repro.testing.faults`) uses it to crash the maintainer
    mid-stream deterministically.  Whatever the hook raises propagates
    exactly like a budget trip.
    """

    #: Wall-clock budget for one delta's restricted propagation.
    max_propagate_seconds: Optional[float] = None
    #: Round cap for one delta's restricted propagation (tighter than
    #: the divergence self-heal cap, which *refreshes* instead of
    #: raising).
    max_propagate_rounds: Optional[int] = None
    #: Wall-clock budget for one full-kernel refresh (checked after
    #: the kernel run -- the exec-generated loop is uninterruptible --
    #: so a too-slow refresh degrades the *next* maintenance step).
    max_refresh_seconds: Optional[float] = None
    #: Wall-clock budget for one delta's incremental regrounding.
    max_reground_seconds: Optional[float] = None
    #: Fault-injection tap; called at every watchdog tick.
    fault_hook: Optional[Callable[[str], None]] = None

    def tick(self, site: str, started: float, budget: Optional[float]) -> None:
        """One watchdog check: fault tap first, then the clock."""
        if self.fault_hook is not None:
            self.fault_hook(site)
        if budget is not None and time.monotonic() - started > budget:
            raise MaintenanceBudgetExceeded(
                site, f"exceeded {budget:.3f}s wall-clock budget"
            )


def _coerce_fact(fact, args: Tuple) -> Fact:
    if isinstance(fact, Fact):
        if args:
            raise TypeError("pass either a Fact or predicate + args, not both")
        return fact
    return Fact(fact, tuple(args))


class _Tracked:
    """Maintained fixpoint state for one semiring: the dense value
    array (indexed by fact id, exactly :func:`_columnar_fixpoint`'s
    layout) and the per-live-rule cached ⊗-terms the restricted
    iteration refolds heads from."""

    __slots__ = ("semiring", "value", "rule_term", "converged")

    def __init__(self, semiring: Semiring):
        self.semiring = semiring
        self.value: List[object] = []
        self.rule_term: List[object] = []
        self.converged = True


class MaintainedFixpoint:
    """Live ground program + fixpoint state under fact insert/retract.

    Construct once over a program/database pair; the instance attaches
    itself to the database and from then on absorbs single-fact
    mutations differentially::

        m = MaintainedFixpoint(program, db, semirings=(TROPICAL,))
        m.insert("E", 2, 7, weight=1.5)   # delta-joins new ground rules
        m.value(Fact("T", (0, 7)), TROPICAL)
        m.retract("E", 2, 7)              # DRed overdelete/rederive

    ``insert``/``retract`` here are conveniences that route through
    ``db.add_fact`` / ``db.retract_fact``; mutating the database
    directly is equivalent.  Mutating the program's *IDB* predicates
    is rejected -- derived relations are maintained, not stored.

    Fast reads (:meth:`value`, :meth:`values`) come straight from the
    maintained arrays; :meth:`result` reruns the batch kernel over the
    maintained grounding and reproduces a from-scratch
    :class:`~repro.datalog.evaluation.EvaluationResult` bit for bit
    (same values, iterations, converged flag and rule-evaluation
    count).  If a delta propagation ever hits the iteration cap (a
    non-stable semiring diverging inside the cone), the maintainer
    falls back to one full kernel run for that semiring, so its state
    still matches the batch engine's capped state exactly.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        semirings: Iterable[Semiring] = (),
        attach: bool = True,
        policy: Optional[MaintenancePolicy] = None,
    ):
        self.program = program
        self.database = database
        self.policy = policy if policy is not None else MaintenancePolicy()
        self._idbs = program.idb_predicates
        #: The live id-space grounding; starts as the batch grounder's
        #: output and is appended to / pruned in place from then on.
        self.cground: ColumnarGroundProgram = columnar_grounding(program, database)
        self.iterations = self.cground.iterations
        symbols = self.cground.symbols
        # Private working store: EDB snapshot plus every currently
        # derived IDB fact, the join input for future delta rounds.
        self.store = database.columnar_store().copy()
        self._derived: Set[Tuple[str, Tuple[int, ...]]] = set()
        preds, rows = self.cground.fact_preds, self.cground.fact_rows
        for fid in self.cground.idb_fact_ids():
            key = (preds[fid], rows[fid])
            self._derived.add(key)
            self.store.insert_ids(*key)
        # Slot-compiled rules for delta joins.  Unlike the batch
        # grounder, body constants are interned (intern=True): a body
        # constant unseen today may arrive with a future insert, so
        # the "impossible atom" shortcut must not be frozen in.
        self._slot_counts: List[int] = []
        self._bodies: List[Tuple[_SlotAtom, ...]] = []
        self._emit_plans: List[Tuple] = []
        for rule in program.rules:
            slot_of = {
                var: slot
                for slot, var in enumerate(sorted(rule.variables, key=lambda v: v.name))
            }
            self._slot_counts.append(len(slot_of))
            head = _SlotAtom(rule.head, symbols, slot_of, intern=True)
            body = tuple(
                _SlotAtom(atom, symbols, slot_of, intern=True) for atom in rule.body
            )
            self._bodies.append(body)
            self._emit_plans.append(
                (
                    head.predicate,
                    _row_builder(head.terms),
                    self.cground.interner(head.predicate),
                    tuple(
                        (
                            _row_builder(atom.terms),
                            atom.predicate in self._idbs,
                            self.cground.interner(atom.predicate),
                        )
                        for atom in body
                    ),
                )
            )
        self._delta_plans: Dict[Tuple[int, int], Tuple] = {}
        # Support/derivation bookkeeping over the live rules.
        self._rule_tags: List[Tuple] = []
        self._rule_seen: Set[Tuple] = set()
        self._head_rules: Dict[int, List[int]] = {}
        self._body_rules: Dict[int, List[int]] = {}
        self._edb_rules: Dict[int, List[int]] = {}
        self._rebuild_adjacency()
        self._tracked: Dict[int, _Tracked] = {}
        self._results: Dict[int, Tuple[Semiring, EvaluationResult]] = {}
        self._listeners: List[Callable[[str, Fact, object], None]] = []
        for semiring in semirings:
            self.track(semiring)
        if attach:
            database._attach_maintainer(self)

    # -- public API ------------------------------------------------------

    def insert(self, fact, *args, weight: object = None) -> bool:
        """Insert an EDB fact (and maintain); True iff it was new."""
        fact = _coerce_fact(fact, args)
        self._guard_edb(fact)
        new = fact not in self.database
        self.database.add_fact(fact, weight)
        return new

    def retract(self, fact, *args) -> Fact:
        """Retract an EDB fact (and maintain); KeyError if absent."""
        fact = _coerce_fact(fact, args)
        self._guard_edb(fact)
        return self.database.retract_fact(fact)

    def track(self, semiring: Semiring) -> None:
        """Start maintaining dense fixpoint state for *semiring*."""
        key = id(semiring)
        tracked = self._tracked.get(key)
        if tracked is None:
            tracked = _Tracked(semiring)
            self._refresh(tracked)
            self._tracked[key] = tracked

    def value(self, fact: Fact, semiring: Semiring):
        """Maintained least-fixpoint value of one IDB fact (O(1))."""
        tracked = self._tracked_for(semiring)
        fid = self.cground.find_fact_id(fact)
        if fid is None or not self._head_rules.get(fid):
            return semiring.zero
        return tracked.value[fid]

    def values(self, semiring: Semiring) -> Dict[Fact, object]:
        """Maintained values of every derivable IDB fact."""
        tracked = self._tracked_for(semiring)
        decode = self.cground.decode_fact
        value = tracked.value
        return {decode(fid): value[fid] for fid in self.cground.idb_fact_ids()}

    def result(
        self,
        semiring: Semiring,
        max_iterations: Optional[int] = None,
        raise_on_divergence: bool = False,
    ) -> EvaluationResult:
        """A from-scratch-equivalent :class:`EvaluationResult`.

        Runs the batch columnar kernel over the *maintained* ground
        program.  The Jacobi rounds depend only on the ground-rule
        set, which incremental regrounding + DRed pruning keep equal
        to a fresh grounding's, so every field of the result -- not
        just the values -- matches recompute-from-scratch.  Cached
        until the next mutation.
        """
        key = id(semiring)
        if max_iterations is None:
            cached = self._results.get(key)
            if cached is not None and cached[0] is semiring:
                return cached[1]
        cground = self.cground
        head_fids = cground.idb_fact_ids()
        cap = max(len(head_fids), 1) + 2 if max_iterations is None else max_iterations
        value, iterations, converged, rule_evaluations = _columnar_fixpoint(
            cground, semiring, self._edb_valuation(semiring), cap
        )
        if not converged and raise_on_divergence:
            raise DivergenceError(
                f"maintained evaluation over {semiring.name} did not "
                f"converge in {cap} iterations"
            )
        decode = cground.decode_fact
        result = EvaluationResult(
            semiring,
            {decode(fid): value[fid] for fid in head_fids},
            iterations,
            converged,
            rule_evaluations=rule_evaluations,
        )
        if max_iterations is None:
            self._results[key] = (semiring, result)
        return result

    def support_count(self, fact: Fact) -> int:
        """Number of live ground rules deriving *fact* (its support)."""
        fid = self.cground.find_fact_id(fact)
        return 0 if fid is None else len(self._head_rules.get(fid, ()))

    def rule_keys(self):
        """Order-independent identity of the live ground rules."""
        return self.cground.rule_keys()

    def is_converged(self, semiring: Semiring) -> bool:
        return self._tracked_for(semiring).converged

    def add_listener(self, listener: Callable[[str, Fact, object], None]) -> None:
        """Subscribe to applied deltas: ``listener(kind, fact, weight)``
        with kind one of ``"insert"`` | ``"retract"`` | ``"weight"``,
        fired after maintenance for that delta completes."""
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def detach(self) -> None:
        """Stop observing the database (state freezes as-is)."""
        self.database._detach_maintainer(self)

    def __repr__(self) -> str:
        return (
            f"MaintainedFixpoint(rules={len(self.cground)}, "
            f"idb={len(self._head_rules)}, semirings={len(self._tracked)})"
        )

    # -- database observer hooks -----------------------------------------

    def _apply_insert(self, fact: Fact, weight: object) -> None:
        self._guard_edb(fact)
        self._results.clear()
        store = self.store
        mark = store.watermark()
        ids = store.symbols.intern_row(fact.args)
        if not store.insert_ids(fact.predicate, ids):
            # Already resident here (duplicate notification): at most
            # the annotation changed.
            if weight is not None:
                self._apply_weight(fact, weight)
            return
        new_positions: List[int] = []
        self._reground(mark, new_positions)
        fid = self.cground.find_fact_id(fact)
        for tracked in self._tracked.values():
            self._after_insert(tracked, fid, new_positions)
        self._notify("insert", fact, weight)

    def _apply_retract(self, fact: Fact) -> None:
        self._guard_edb(fact)
        self._results.clear()
        store = self.store
        store.remove_fact(fact)
        cground = self.cground
        fid = cground.find_fact_id(fact)
        if fid is None or not self._edb_rules.get(fid):
            # Never referenced by a live ground rule: no IDB fact can
            # change.  (The fact id, if any, keeps a zero slot.)
            for tracked in self._tracked.values():
                if fid is not None and fid < len(tracked.value):
                    tracked.value[fid] = tracked.semiring.zero
            self._notify("retract", fact, None)
            return
        # DRed overdelete: everything downstream of the retracted fact
        # is suspect; rules directly consuming it are dead outright.
        cone = self._downstream(fid)
        dead_rules: Set[int] = set(self._edb_rules.get(fid, ()))
        # Rederive: a cone fact survives iff some non-dead rule derives
        # it from facts outside the cone or themselves rederived.
        alive: Set[int] = set()
        changed = True
        while changed:
            changed = False
            for head in cone:
                if head in alive:
                    continue
                for position in self._head_rules.get(head, ()):
                    if position in dead_rules:
                        continue
                    if all(
                        b not in cone or b in alive for b in self._idb_body(position)
                    ):
                        alive.add(head)
                        changed = True
                        break
        dead_facts = cone - alive
        for dfid in dead_facts:
            dead_rules.update(self._body_rules.get(dfid, ()))
        if dead_rules:
            self._prune_rules(dead_rules)
        preds, rows = cground.fact_preds, cground.fact_rows
        for dfid in dead_facts:
            key = (preds[dfid], rows[dfid])
            self._derived.discard(key)
            store.remove_ids(*key)
        for tracked in self._tracked.values():
            if not tracked.converged:
                self._refresh(tracked)
                continue
            zero = tracked.semiring.zero
            value = tracked.value
            value[fid] = zero
            dirty: Set[int] = set()
            for cfid in cone:
                value[cfid] = zero
                dirty.update(self._head_rules.get(cfid, ()))
            self._propagate(tracked, dirty)
        self._notify("retract", fact, None)

    def _apply_weight(self, fact: Fact, weight: object) -> None:
        self._guard_edb(fact)
        self._results.clear()
        fid = self.cground.find_fact_id(fact)
        if fid is None or not self._edb_rules.get(fid):
            self._notify("weight", fact, weight)
            return
        cone = self._downstream(fid)
        for tracked in self._tracked.values():
            if not tracked.converged:
                self._refresh(tracked)
                continue
            semiring = tracked.semiring
            value = tracked.value
            value[fid] = semiring.one if weight is None else weight
            zero = semiring.zero
            dirty: Set[int] = set(self._edb_rules.get(fid, ()))
            for cfid in cone:
                value[cfid] = zero
                dirty.update(self._head_rules.get(cfid, ()))
            self._propagate(tracked, dirty)
        self._notify("weight", fact, weight)

    # -- incremental regrounding -----------------------------------------

    def _reground(self, mark: Dict, new_positions: List[int]) -> None:
        """Delta-driven grounding rounds seeded by rows appended to the
        working store after *mark* -- the batch grounder's loop, but
        emitting only globally-new ground rules and running until no
        fresh IDB fact appears."""
        store = self.store
        stats = _stats()
        derived = self._derived
        policy = self.policy
        started = time.monotonic()
        while True:
            policy.tick("reground.round", started, policy.max_reground_seconds)
            deltas = store.deltas_since(mark)
            if not deltas:
                return
            mark = store.watermark()
            fresh: Set[Tuple[str, Tuple[int, ...]]] = set()
            for rule_index, body in enumerate(self._bodies):
                nslots = self._slot_counts[rule_index]
                for position, atom in enumerate(body):
                    view = deltas.get((atom.predicate, atom.arity))
                    if view is None:
                        continue
                    plan = self._delta_plans.get((rule_index, position))
                    if plan is None:
                        rest = [a for at, a in enumerate(body) if at != position]
                        bound = set(atom.slots)
                        plan = _compile_slot_plan(
                            _order_slot_atoms(rest, store, bound), bound
                        )
                        self._delta_plans[(rule_index, position)] = plan
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
                            head = self._emit(rule_index, theta, new_positions)
                            if head is not None and head not in derived:
                                fresh.add(head)
            for predicate, ids in sorted(fresh):
                derived.add((predicate, ids))
                store.insert_ids(predicate, ids)

    def _emit(
        self, rule_index: int, theta: List[int], new_positions: List[int]
    ) -> Optional[Tuple[str, Tuple[int, ...]]]:
        head_pred, head_build, head_intern, body_plan = self._emit_plans[rule_index]
        head_ids = head_build(theta)
        head_fid = head_intern(head_ids)
        idb_row: List[int] = []
        edb_row: List[int] = []
        for build, is_idb, intern in body_plan:
            (idb_row if is_idb else edb_row).append(intern(build(theta)))
        tag = (rule_index, head_fid, tuple(idb_row), tuple(edb_row))
        if tag in self._rule_seen:
            return None
        self._rule_seen.add(tag)
        position = len(self.cground)
        self.cground.append_rule(rule_index, head_fid, idb_row, edb_row)
        self._rule_tags.append(tag)
        self._head_rules.setdefault(head_fid, []).append(position)
        for fid in dict.fromkeys(idb_row):
            self._body_rules.setdefault(fid, []).append(position)
        for fid in dict.fromkeys(edb_row):
            self._edb_rules.setdefault(fid, []).append(position)
        new_positions.append(position)
        return (head_pred, head_ids)

    # -- value maintenance -----------------------------------------------

    def _after_insert(
        self, tracked: _Tracked, fid: Optional[int], new_positions: List[int]
    ) -> None:
        semiring = tracked.semiring
        value, rule_term = tracked.value, tracked.rule_term
        cground = self.cground
        zero, one = semiring.zero, semiring.one
        preds = cground.fact_preds
        weight_of = self.database.weight
        old_len = len(value)
        for new_fid in range(old_len, cground.fact_count):
            if preds[new_fid] in self._idbs:
                value.append(zero)
            else:
                weight = weight_of(cground.decode_fact(new_fid))
                value.append(one if weight is None else weight)
        if fid is not None and fid < old_len:
            # Re-inserted fact whose id predates this delta: its slot
            # was zeroed by the retraction.
            weight = weight_of(cground.decode_fact(fid))
            value[fid] = one if weight is None else weight
        while len(rule_term) < len(cground):
            rule_term.append(zero)
        if not tracked.converged:
            # The stored state is the batch engine's *capped* state,
            # not a fixpoint -- incremental ascent from it is unsound.
            self._refresh(tracked)
            return
        self._propagate(tracked, new_positions)

    def _propagate(self, tracked: _Tracked, dirty_positions) -> None:
        """Restricted chaotic iteration: recompute ⊗-terms of dirty
        rules, refold their heads, cascade along the body adjacency.
        Sound because every dirty head is in the downstream-closed
        cone (retract/weight) or ascent starts from the old fixpoint
        (insert); exact on convergence.  Hitting the round cap means
        the semiring diverges on this program -- fall back to one full
        kernel run so the maintained state equals the batch engine's
        capped state."""
        semiring = tracked.semiring
        value, rule_term = tracked.value, tracked.rule_term
        mul, add, eq = semiring.mul, semiring.add, semiring.eq
        zero, one = semiring.zero, semiring.one
        cground = self.cground
        idb_indptr, idb_flat = cground.idb_indptr, cground.idb_flat
        edb_indptr, edb_flat = cground.edb_indptr, cground.edb_flat
        rule_head = cground.rule_head
        head_rules, body_rules = self._head_rules, self._body_rules
        cap = self._round_cap()
        policy = self.policy
        round_cap = policy.max_propagate_rounds
        started = time.monotonic()
        dirty = set(dirty_positions)
        rounds = 0
        while dirty:
            if rounds >= cap:
                self._refresh(tracked)
                return
            policy.tick("propagate.round", started, policy.max_propagate_seconds)
            if round_cap is not None and rounds >= round_cap:
                raise MaintenanceBudgetExceeded(
                    "propagate.round", f"exceeded {round_cap} round budget"
                )
            rounds += 1
            heads = set()
            for position in dirty:
                term = one
                for fid in edb_flat[edb_indptr[position] : edb_indptr[position + 1]]:
                    term = mul(term, value[fid])
                for fid in idb_flat[idb_indptr[position] : idb_indptr[position + 1]]:
                    term = mul(term, value[fid])
                rule_term[position] = term
                heads.add(rule_head[position])
            dirty = set()
            for head in heads:
                total = zero
                for position in head_rules.get(head, ()):
                    total = add(total, rule_term[position])
                if not eq(total, value[head]):
                    value[head] = total
                    dirty.update(body_rules.get(head, ()))
        tracked.converged = True

    def _refresh(self, tracked: _Tracked) -> None:
        """Rebuild one semiring's state with a full kernel run over the
        maintained grounding (initial tracking + divergence fallback).

        The watchdog tick runs *before and after* the kernel: the
        exec-generated loop itself is uninterruptible, so the wall
        clock check after it catches a refresh that blew its budget
        and raises before the (consistent) state is used to serve."""
        policy = self.policy
        started = time.monotonic()
        policy.tick("refresh", started, policy.max_refresh_seconds)
        semiring = tracked.semiring
        cground = self.cground
        value, _, converged, _ = _columnar_fixpoint(
            cground, semiring, self._edb_valuation(semiring), self._round_cap()
        )
        policy.tick("refresh", started, policy.max_refresh_seconds)
        tracked.value = value
        tracked.converged = converged
        mul, one = semiring.mul, semiring.one
        idb_indptr, idb_flat = cground.idb_indptr, cground.idb_flat
        edb_indptr, edb_flat = cground.edb_indptr, cground.edb_flat
        rule_term: List[object] = []
        for position in range(len(cground)):
            term = one
            for fid in edb_flat[edb_indptr[position] : edb_indptr[position + 1]]:
                term = mul(term, value[fid])
            for fid in idb_flat[idb_indptr[position] : idb_indptr[position + 1]]:
                term = mul(term, value[fid])
            rule_term.append(term)
        tracked.rule_term = rule_term

    # -- structural bookkeeping ------------------------------------------

    def _rebuild_adjacency(self) -> None:
        cground = self.cground
        idb_indptr, idb_flat = cground.idb_indptr, cground.idb_flat
        edb_indptr, edb_flat = cground.edb_indptr, cground.edb_flat
        tags: List[Tuple] = []
        seen: Set[Tuple] = set()
        head_rules: Dict[int, List[int]] = {}
        body_rules: Dict[int, List[int]] = {}
        edb_rules: Dict[int, List[int]] = {}
        for position in range(len(cground)):
            head = cground.rule_head[position]
            idb_row = tuple(idb_flat[idb_indptr[position] : idb_indptr[position + 1]])
            edb_row = tuple(edb_flat[edb_indptr[position] : edb_indptr[position + 1]])
            tag = (cground.rule_no[position], head, idb_row, edb_row)
            tags.append(tag)
            seen.add(tag)
            head_rules.setdefault(head, []).append(position)
            for fid in dict.fromkeys(idb_row):
                body_rules.setdefault(fid, []).append(position)
            for fid in dict.fromkeys(edb_row):
                edb_rules.setdefault(fid, []).append(position)
        self._rule_tags = tags
        self._rule_seen = seen
        self._head_rules = head_rules
        self._body_rules = body_rules
        self._edb_rules = edb_rules

    def _prune_rules(self, dead: Set[int]) -> None:
        """Compact the ground program's parallel arrays, dropping the
        rule positions in *dead*; per-semiring cached terms compact in
        lockstep and the adjacency dicts are rebuilt over the new
        positions.  Fact ids are stable -- only rule positions move."""
        cground = self.cground
        keep = [p for p in range(len(cground)) if p not in dead]
        idb_indptr, idb_flat = cground.idb_indptr, cground.idb_flat
        edb_indptr, edb_flat = cground.edb_indptr, cground.edb_flat
        new_head, new_no = array("q"), array("q")
        new_idb_ptr, new_idb = array("q", (0,)), array("q")
        new_edb_ptr, new_edb = array("q", (0,)), array("q")
        for position in keep:
            new_head.append(cground.rule_head[position])
            new_no.append(cground.rule_no[position])
            new_idb.extend(idb_flat[idb_indptr[position] : idb_indptr[position + 1]])
            new_idb_ptr.append(len(new_idb))
            new_edb.extend(edb_flat[edb_indptr[position] : edb_indptr[position + 1]])
            new_edb_ptr.append(len(new_edb))
        cground.rule_head, cground.rule_no = new_head, new_no
        cground.idb_indptr, cground.idb_flat = new_idb_ptr, new_idb
        cground.edb_indptr, cground.edb_flat = new_edb_ptr, new_edb
        cground._by_head = cground._by_body = None
        cground._idb_fids = cground._edb_fids = None
        for tracked in self._tracked.values():
            tracked.rule_term = [tracked.rule_term[position] for position in keep]
        self._rebuild_adjacency()

    def _downstream(self, fid: int) -> Set[int]:
        """All IDB fact ids whose value (transitively) reads *fid* --
        the downstream-closed dirty cone of a delta at that fact."""
        body_rules, edb_rules = self._body_rules, self._edb_rules
        rule_head = self.cground.rule_head
        cone: Set[int] = set()
        seen = {fid}
        frontier = [fid]
        while frontier:
            fact = frontier.pop()
            for position in edb_rules.get(fact, ()):
                head = rule_head[position]
                if head not in seen:
                    seen.add(head)
                    cone.add(head)
                    frontier.append(head)
            for position in body_rules.get(fact, ()):
                head = rule_head[position]
                if head not in seen:
                    seen.add(head)
                    cone.add(head)
                    frontier.append(head)
        return cone

    # -- small helpers ---------------------------------------------------

    def _guard_edb(self, fact: Fact) -> None:
        if fact.predicate in self._idbs:
            raise DatalogError(
                f"cannot mutate {fact}: {fact.predicate!r} is an IDB predicate "
                f"of the maintained program (derived relations are maintained, "
                f"not stored)"
            )

    def _tracked_for(self, semiring: Semiring) -> _Tracked:
        self.track(semiring)
        return self._tracked[id(semiring)]

    def _idb_body(self, position: int) -> Sequence[int]:
        cground = self.cground
        return cground.idb_flat[
            cground.idb_indptr[position] : cground.idb_indptr[position + 1]
        ]

    def _edb_valuation(self, semiring: Semiring) -> Dict[Fact, object]:
        """EDB fact → value for exactly the facts the live grounding
        references (a KeyError here would mean a live rule references
        a fact no longer in the database -- the pruning invariant)."""
        cground = self.cground
        weight_of = self.database.weight
        one = semiring.one
        out: Dict[Fact, object] = {}
        for fid in cground.edb_fact_ids():
            fact = cground.decode_fact(fid)
            weight = weight_of(fact)
            out[fact] = one if weight is None else weight
        return out

    def _round_cap(self) -> int:
        """The engines' default divergence guard over the live IDB."""
        return max(len(self._head_rules), 1) + 2

    def _notify(self, kind: str, fact: Fact, weight: object) -> None:
        for listener in tuple(self._listeners):
            listener(kind, fact, weight)
