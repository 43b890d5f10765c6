"""The ``repro.api`` facade: one front door for the whole pipeline.

Every layer runs one pipeline -- the id-space grounding
(:func:`~repro.datalog.grounding.columnar_grounding`) feeding the
semi-naive fixpoint or a circuit construction -- and this module is
the public API on top of it (DESIGN.md §10):

* :class:`~repro.config.ExecutionConfig` -- one frozen bundle of the
  knobs that still choose something (construction, depth
  optimisation, kernel backend, dead-rule pruning), accepted by every
  layer;
* :func:`solve` -- the one-shot "evaluate this program on this
  database over this semiring" call;
* :class:`Session` -- the compile-once handle: it caches the
  grounding, the per-output-fact circuit constructions and their
  compiled forms, so many queries against one (program, database)
  pair pay interning/grounding/compilation once.  The serving stack
  (:mod:`repro.serving`) holds one ``Session`` per cache entry;
* :func:`program_fingerprint` / :func:`database_fingerprint` -- the
  stable content identities the compiled-circuit cache is keyed on.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Optional, Tuple, Union

from .circuits.runtime import CompiledCircuit, IncrementalEvaluator
from .config import (
    DEFAULT_CONFIG,
    ConfigLike,
    ExecutionConfig,
    coerce_config,
)
from .constructions.auto import ConstructionChoice, provenance_circuit
from .constructions.fringe import fringe_circuit
from .constructions.generic import generic_circuit
from .datalog.analysis import (
    AnalysisReport,
    ProgramValidationError,
    analyze_program,
    prune_unreachable,
)
from .datalog.ast import DatalogError, Fact, Program
from .datalog.database import Database
from .datalog.evaluation import EvaluationResult
from .datalog.grounding import (
    ColumnarGroundProgram,
    GroundProgram,
    columnar_grounding,
)
from .datalog.incremental import MaintainedFixpoint, MaintenancePolicy
from .datalog.seminaive import FixpointEngine
from .semirings import BOOLEAN
from .semirings.base import Semiring

__all__ = [
    "ExecutionConfig",
    "MaintenancePolicy",
    "ProgramValidationError",
    "Session",
    "StreamSession",
    "analyze_program",
    "solve",
    "program_fingerprint",
    "database_fingerprint",
]


def program_fingerprint(program: Program) -> str:
    """A stable content identity for *program* (rules + target).

    Rule ``repr`` is the canonical surface syntax (it round-trips
    through the parser), so two structurally equal programs agree and
    any rule or target change moves the fingerprint.
    """
    digest = hashlib.sha256()
    digest.update(repr(program.target).encode())
    for rule in program.rules:
        digest.update(b"\x00")
        digest.update(repr(rule).encode())
    return digest.hexdigest()[:16]


def database_fingerprint(database: Database) -> str:
    """A stable content identity for *database* (facts + weights).

    Facts are folded in sorted-``repr`` order so insertion order does
    not matter; stored weights participate so a ``set_weight`` call
    moves the fingerprint (a compiled circuit's *structure* only
    depends on the facts, but the server's cached base valuations --
    and therefore correct serving -- depend on the weights too).
    """
    digest = hashlib.sha256()
    for fact in sorted(database.facts(), key=repr):
        digest.update(b"\x00")
        digest.update(repr(fact).encode())
        weight = database.weight(fact)
        if weight is not None:
            digest.update(b"\x01")
            digest.update(repr(weight).encode())
    return digest.hexdigest()[:16]


class Session:
    """A compile-once handle on one (program, database, config) triple.

    The paper's usage pattern is "build once, query many times"; the
    session is that pattern as an object.  Everything expensive is
    computed lazily and cached:

    * :meth:`ground` -- the id-space grounding;
    * :meth:`circuit` -- one :class:`ConstructionChoice` per output
      fact, built by the configured construction (``auto`` runs the
      paper's decision tree); the choice caches its
      :class:`CompiledCircuit`;
    * :meth:`solve` -- the fixpoint over any semiring, reusing the
      cached grounding.

    The session never mutates its database; callers who mutate it
    should start a new session (fingerprints make staleness
    detectable -- the serving layer keys its cache on them).

    ``strict=True`` runs the full static analyzer
    (:func:`repro.datalog.analysis.analyze_program`) at construction
    and raises :class:`~repro.datalog.analysis.ProgramValidationError`
    on any error-severity diagnostic; :meth:`analyze` returns the full
    report (optionally semiring-aware) on demand.  With
    ``config.prune`` set, rules unreachable from the target are
    dropped before grounding (:meth:`plan_program`); reachable facts
    keep exactly their unpruned values.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        config: ConfigLike = None,
        strict: bool = False,
    ):
        self.program = program
        self.database = database
        self.config = coerce_config(config)
        if strict:
            report = analyze_program(program, database)
            if not report.ok:
                raise ProgramValidationError(report.errors())
        self._engine = FixpointEngine(config=self.config.evolve(construction=None))
        self._ground: Optional[ColumnarGroundProgram] = None
        self._plan: Optional[Program] = None
        self._choices: Dict[Fact, ConstructionChoice] = {}
        self._fingerprint: Optional[Tuple[str, str, str]] = None
        self._stream: Optional["StreamSession"] = None

    # -- identity ------------------------------------------------------

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """``(program, database, construction)`` content identity."""
        if self._fingerprint is None:
            self._fingerprint = (
                program_fingerprint(self.program),
                database_fingerprint(self.database),
                self.config.resolved_construction,
            )
        return self._fingerprint

    # -- fixpoint evaluation -------------------------------------------

    @property
    def plan_program(self) -> Program:
        """The program the fixpoint plan runs: dead-rule-pruned when
        ``config.prune`` is set, the full program otherwise."""
        if self._plan is None:
            self._plan = (
                prune_unreachable(self.program) if self.config.prune else self.program
            )
        return self._plan

    def analyze(self, semiring: Optional[Semiring] = None) -> AnalysisReport:
        """The static analyzer's full report for this session's pair.

        Passing a *semiring* arms divergence prediction (DL006), which
        reuses the session's cached grounding when one exists.
        """
        ground = self._ground if self.program is self.plan_program else None
        return analyze_program(
            self.program,
            database=self.database,
            semiring=semiring,
            ground=ground,
        )

    def ground(self) -> ColumnarGroundProgram:
        """The cached id-space grounding of :attr:`plan_program`."""
        if self._ground is None:
            self._ground = columnar_grounding(self.plan_program, self.database)
        return self._ground

    def solve(
        self,
        semiring: Semiring = BOOLEAN,
        weights: Optional[Mapping[Fact, object]] = None,
        max_iterations: Optional[int] = None,
        raise_on_divergence: bool = False,
    ) -> EvaluationResult:
        """Least-fixpoint evaluation over *semiring* (cached grounding)."""
        return self._engine.evaluate(
            self.plan_program,
            self.database,
            semiring,
            weights=weights,
            ground=self.ground(),
            max_iterations=max_iterations,
            raise_on_divergence=raise_on_divergence,
        )

    def value(self, fact: Fact, semiring: Semiring = BOOLEAN, **kwargs):
        """Least-fixpoint value of one *fact* (``0`` if underivable)."""
        return self.solve(semiring, **kwargs).value(fact)

    # -- circuits ------------------------------------------------------

    def circuit(self, fact: Fact) -> ConstructionChoice:
        """The cached :class:`ConstructionChoice` for output *fact*.

        ``config.construction`` picks the builder: ``auto`` (default)
        runs the decision tree of
        :func:`~repro.constructions.auto.provenance_circuit`;
        ``generic``/``fringe`` pin Theorem 3.1 / Theorem 6.2.
        """
        choice = self._choices.get(fact)
        if choice is None:
            construction = self.config.resolved_construction
            if construction == "auto":
                choice = provenance_circuit(self.program, self.database, fact, config=self.config)
            elif construction == "generic":
                choice = ConstructionChoice(
                    generic_circuit(self.program, self.database, fact),
                    construction="generic",
                    theorem="Theorem 3.1",
                    reason="pinned by ExecutionConfig(construction='generic')",
                )
            else:  # "fringe" (the vocabulary is validated by ExecutionConfig)
                choice = ConstructionChoice(
                    fringe_circuit(self.program, self.database, fact),
                    construction="fringe",
                    theorem="Theorem 6.2",
                    reason="pinned by ExecutionConfig(construction='fringe')",
                )
            self._choices[fact] = choice
        return choice

    def compiled(self, fact: Fact) -> CompiledCircuit:
        """The compiled circuit for output *fact* (cached end to end)."""
        return self.circuit(fact).compiled()

    def evaluate_batch(self, fact: Fact, semiring: Semiring, assignments) -> list:
        """Many valuations of *fact*'s circuit, one compile.

        Threads ``config.backend`` (DESIGN.md §13) into the runtime:
        under ``"vectorized"``/``"auto"`` each maximal same-opcode
        instruction stream runs as one NumPy array expression over the
        assignment matrix, falling back to the pure-Python interpreter
        whenever the semiring or the batch values are outside the ufunc
        contract.
        """
        return self.circuit(fact).evaluate_batch(
            semiring, assignments, backend=self.config.backend
        )

    def serve(
        self,
        fact: Fact,
        semiring: Semiring = BOOLEAN,
        assignment: Optional[Mapping[Fact, object]] = None,
    ) -> IncrementalEvaluator:
        """An incremental point-update session on *fact*'s circuit.

        *assignment* defaults to the database's stored valuation over
        *semiring* -- the live-serving seed.
        """
        if assignment is None:
            assignment = self.database.valuation(semiring)
        return self.circuit(fact).serve(semiring, assignment)

    # -- streaming -----------------------------------------------------

    def stream(
        self, *semirings: Semiring, policy: Optional[MaintenancePolicy] = None
    ) -> "StreamSession":
        """The session's live write handle (lazily created, cached).

        Attaches a :class:`~repro.datalog.incremental.MaintainedFixpoint`
        to the database, after which fact inserts/retracts/reweights
        are absorbed differentially instead of invalidating the
        session wholesale: the cached grounding tracks the maintained
        ground program, stale per-output circuit choices are dropped,
        and circuits served through :meth:`StreamSession.serve`
        receive leaf-level pushes.  Pass the semirings to maintain
        dense value state for (more can be tracked later).

        *policy* (first call only) arms the maintenance watchdogs; a
        budget trip degrades the stream to full recompute instead of
        surfacing the error (DESIGN.md §12).
        """
        if self._stream is None:
            self._stream = StreamSession(self, semirings, policy)
        else:
            for semiring in semirings:
                self._stream.track(semiring)
        return self._stream


class ServedStream:
    """A live circuit evaluator pinned to one output fact of a stream.

    Wraps an :class:`~repro.circuits.runtime.IncrementalEvaluator` and
    keeps it consistent across stream mutations:

    * retracting a leaf the circuit references pushes semiring ``0``
      into its gate (a provenance polynomial at ``x = 0`` -- exactly
      what "the fact is gone" means for an already-built circuit);
    * reweighting (or re-inserting) a known leaf pushes the new value;
    * inserting a fact the circuit has *no* gate for is structural:
      new derivations may exist, so the circuit is rebuilt from the
      maintained database state.

    Deltas that touch facts outside the circuit's leaf set are
    ignored -- they cannot change this output.
    """

    def __init__(self, stream: "StreamSession", output: Fact, semiring: Semiring):
        self._stream = stream
        self.output = output
        self.semiring = semiring
        self.rebuilds = 0
        self._build()

    def _build(self) -> None:
        session = self._stream.session
        self.evaluator = session.circuit(self.output).serve(
            self.semiring, self._stream.assignment(self.semiring)
        )

    def _apply(self, kind: str, fact: Fact, weight: object) -> None:
        known = fact in self.evaluator.compiled.var_slots
        if kind == "insert" and not known:
            self.rebuilds += 1
            self._build()
            return
        if not known:
            return
        semiring = self.semiring
        if kind == "retract":
            value = semiring.zero
        else:
            value = semiring.one if weight is None else weight
        self.evaluator.update({fact: value})

    def value(self):
        """The output fact's current circuit value."""
        return self.evaluator.value()

    @property
    def last_cone_size(self) -> int:
        return self.evaluator.last_cone_size


class StreamSession:
    """Differential writes against a :class:`Session` (DESIGN.md §11).

    Obtained from :meth:`Session.stream`.  Inserts/retracts route
    through the database (so any direct ``db.add_fact`` is equivalent)
    into the attached
    :class:`~repro.datalog.incremental.MaintainedFixpoint`; this
    wrapper keeps the *session-level* artifacts consistent too:

    * the session's cached grounding follows the maintained ground
      program;
    * per-output circuit choices are invalidated (they are
      structural), but circuits already served via :meth:`serve` stay
      live through leaf pushes and only rebuild on structural inserts;
    * :meth:`assignment` completes the database valuation with
      semiring zeros for retracted facts that older compiled circuits
      still reference, so binding them never KeyErrors.

    **Degrade-to-recompute** (DESIGN.md §12): if maintenance ever
    fails -- a watchdog budget trips, a non-stable semiring diverges,
    or the maintainer crashes mid-propagation -- the stream *detaches*
    the broken maintainer and degrades: reads fall back to full
    recompute through :meth:`Session.solve` and writes apply straight
    to the database.  Answers stay exactly correct, only slower.  The
    next write attempts one clean rebuild of the maintainer from
    current database state and re-attaches on success.  Degradations
    are counted (``degradations``/``degraded``/``last_degrade_reason``)
    and surfaced in the server's ``/stats``.
    """

    def __init__(
        self,
        session: Session,
        semirings: Tuple[Semiring, ...] = (),
        policy: Optional[MaintenancePolicy] = None,
    ):
        self.session = session
        self.policy = policy
        self._semirings: list[Semiring] = list(semirings)
        self._zeroed: set[Fact] = set()
        self._served: list[ServedStream] = []
        self.fixpoint: Optional[MaintainedFixpoint] = None
        self.degraded = False
        self.degradations = 0
        self.last_degrade_reason: Optional[str] = None
        try:
            self._attach()
        except Exception as exc:
            # Even the initial build degrades instead of failing the
            # stream: reads recompute, the next write retries attach.
            self._degrade(exc)

    # -- maintainer lifecycle ------------------------------------------

    def _attach(self) -> None:
        """One clean build: fresh maintainer over current database state."""
        session = self.session
        self.fixpoint = MaintainedFixpoint(
            session.program,
            session.database,
            semirings=tuple(self._semirings),
            policy=self.policy,
        )
        session._ground = self.fixpoint.cground
        self.fixpoint.add_listener(self._on_delta)
        self.degraded = False

    def _degrade(self, exc: BaseException) -> None:
        """Detach the (possibly inconsistent) maintainer and fall back
        to recompute.  The database itself is never suspect -- its
        mutations land before maintainers are notified -- so dropping
        its delta-patched caches wholesale restores a clean slate."""
        fixpoint = self.fixpoint
        if fixpoint is not None:
            fixpoint.remove_listener(self._on_delta)
            fixpoint.detach()
        self.fixpoint = None
        self.degraded = True
        self.degradations += 1
        self.last_degrade_reason = f"{type(exc).__name__}: {exc}"
        database = self.session.database
        database._invalidate()
        self._invalidate_session()
        for served in tuple(self._served):
            served.rebuilds += 1
            served._build()

    def _invalidate_session(self) -> None:
        session = self.session
        session._fingerprint = None
        session._choices.clear()
        session._ground = None

    def _recover_then(self, kind: str, apply, fact: Fact, weight: object):
        """The degraded write path: try one clean re-attach, then run
        the write -- maintained again on success, plain on failure."""
        try:
            self._attach()
        except Exception as exc:
            self._degrade(exc)
            result = apply()
            self._after_degraded_write(kind, fact, weight)
            return result
        return self._maintained(kind, apply, fact, weight)

    def _maintained(self, kind: str, apply, fact: Fact, weight: object):
        """Run a write through the live maintainer; degrade on failure."""
        try:
            return apply()
        except KeyError:
            raise  # retracting an absent fact is a caller error, not a fault
        except Exception as exc:
            self._degrade(exc)
            self._after_degraded_write(kind, fact, weight)
            # The database mutation landed before maintenance failed
            # (Database notifies observers last), so the write is
            # already durable; report it as applied.
            if kind == "insert":
                return True
            if kind == "retract":
                return fact
            return None

    def _after_degraded_write(self, kind: str, fact: Fact, weight: object) -> None:
        """Keep session artifacts + served circuits consistent for a
        write that bypassed (or killed) the maintainer."""
        self._invalidate_session()
        if kind == "retract":
            self._zeroed.add(fact)
        else:
            self._zeroed.discard(fact)
        for served in tuple(self._served):
            served._apply(kind, fact, weight)

    # -- writes --------------------------------------------------------

    def _guard_idb(self, fact: Fact) -> None:
        """IDB writes are a caller error, never a degrade trigger."""
        if fact.predicate in self.session.program.idb_predicates:
            raise DatalogError(
                f"cannot mutate {fact}: {fact.predicate!r} is an IDB predicate "
                f"of the streamed program (derived relations are maintained, "
                f"not stored)"
            )

    def insert(self, fact, *args, weight: object = None) -> bool:
        """Insert an EDB fact; True iff it was new."""
        coerced = fact if isinstance(fact, Fact) else Fact(fact, tuple(args))
        self._guard_idb(coerced)
        if self.fixpoint is None:
            database = self.session.database
            new = coerced not in database

            def apply():
                database.add_fact(coerced, weight)
                return new

            return self._recover_then("insert", apply, coerced, weight)
        fixpoint = self.fixpoint
        return self._maintained(
            "insert", lambda: fixpoint.insert(coerced, weight=weight), coerced, weight
        )

    def retract(self, fact, *args) -> Fact:
        """Retract an EDB fact; KeyError if absent."""
        coerced = fact if isinstance(fact, Fact) else Fact(fact, tuple(args))
        self._guard_idb(coerced)
        if self.fixpoint is None:
            database = self.session.database
            return self._recover_then(
                "retract", lambda: database.retract_fact(coerced), coerced, None
            )
        fixpoint = self.fixpoint
        return self._maintained(
            "retract", lambda: fixpoint.retract(coerced), coerced, None
        )

    def set_weight(self, fact: Fact, weight: object) -> None:
        """Change one EDB fact's annotation."""
        self._guard_idb(fact)
        database = self.session.database
        if self.fixpoint is None:
            return self._recover_then(
                "weight", lambda: database.set_weight(fact, weight), fact, weight
            )
        return self._maintained(
            "weight", lambda: database.set_weight(fact, weight), fact, weight
        )

    def track(self, semiring: Semiring) -> None:
        """Maintain dense value state for one more semiring."""
        if semiring not in self._semirings:
            self._semirings.append(semiring)
        if self.fixpoint is not None:
            try:
                self.fixpoint.track(semiring)
            except Exception as exc:
                self._degrade(exc)

    # -- reads ---------------------------------------------------------

    def value(self, fact: Fact, semiring: Semiring = BOOLEAN):
        """Maintained value of one IDB fact (O(1) array read when
        maintained; a cached full recompute when degraded)."""
        if self.fixpoint is None:
            return self.session.solve(semiring).value(fact)
        return self.fixpoint.value(fact, semiring)

    def values(self, semiring: Semiring = BOOLEAN) -> Dict[Fact, object]:
        if self.fixpoint is None:
            return dict(self.session.solve(semiring).values)
        return self.fixpoint.values(semiring)

    def result(self, semiring: Semiring = BOOLEAN, **kwargs) -> EvaluationResult:
        """Batch-equivalent :class:`EvaluationResult` (see
        :meth:`MaintainedFixpoint.result`)."""
        if self.fixpoint is None:
            return self.session.solve(semiring, **kwargs)
        return self.fixpoint.result(semiring, **kwargs)

    def assignment(self, semiring: Semiring) -> Dict[Fact, object]:
        """The database valuation, extended with zeros for leaves only
        older compiled circuits still reference."""
        assignment = self.session.database.valuation(semiring)
        zero = semiring.zero
        for fact in self._zeroed:
            assignment.setdefault(fact, zero)
        return assignment

    def serve(self, fact: Fact, semiring: Semiring = BOOLEAN) -> ServedStream:
        """A continuously-maintained circuit evaluator on *fact*."""
        served = ServedStream(self, fact, semiring)
        self._served.append(served)
        return served

    # -- delta plumbing ------------------------------------------------

    def _on_delta(self, kind: str, fact: Fact, weight: object) -> None:
        session = self.session
        session._fingerprint = None
        session._choices.clear()
        session._ground = self.fixpoint.cground
        if kind == "retract":
            self._zeroed.add(fact)
        else:
            self._zeroed.discard(fact)
        for served in tuple(self._served):
            served._apply(kind, fact, weight)


def solve(
    program: Program,
    database: Database,
    semiring: Semiring = BOOLEAN,
    *,
    config: ConfigLike = None,
    weights: Optional[Mapping[Fact, object]] = None,
    ground: Optional[Union[GroundProgram, ColumnarGroundProgram]] = None,
    max_iterations: Optional[int] = None,
    raise_on_divergence: bool = False,
    strict: bool = False,
) -> EvaluationResult:
    """One-shot fixpoint evaluation through the unified facade.

    Equivalent to ``naive_evaluation`` and
    ``FixpointEngine(config).evaluate`` -- the same pipeline -- with
    the knobs carried by one :class:`ExecutionConfig`::

        from repro.api import ExecutionConfig, solve
        result = solve(program, db, TROPICAL,
                       config=ExecutionConfig(backend="auto", prune=True))

    ``strict=True`` runs the full semiring-aware static analyzer
    first and raises
    :class:`~repro.datalog.analysis.ProgramValidationError` on any
    error diagnostic -- including a predicted divergence (DL006), so a
    COUNTING fixpoint over cyclic data fails before a single round
    runs instead of burning the iteration budget.

    For repeated queries against the same pair, build a
    :class:`Session` instead.
    """
    if strict:
        report = analyze_program(program, database=database, semiring=semiring, ground=ground)
        if not report.ok:
            raise ProgramValidationError(report.errors())
    engine = FixpointEngine(config=coerce_config(config).evolve(construction=None))
    return engine.evaluate(
        program,
        database,
        semiring,
        weights=weights,
        ground=ground,
        max_iterations=max_iterations,
        raise_on_divergence=raise_on_divergence,
    )


# Re-exported so `from repro.api import ...` is self-contained.
DEFAULT_CONFIG = DEFAULT_CONFIG
