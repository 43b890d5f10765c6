"""Static program analysis: diagnostics before any fixpoint runs.

The engine historically executed whatever :class:`Program` it was
handed: safety was checked only at construction (bypassable via
``validate=False``), arity clashes against the *database* surfaced deep
in the columnar store, and divergence under a non-stable semiring was
discovered at runtime when the round budget blew up.  This module is
the front-end pass that catches all of it statically -- the same
syntactic analysis style the paper's boundedness results rest on
(Sections 4-5 reason about rule shape, chain structure and dependency
cycles, never about data) -- and doubles as an optimizer: its
reachability facts drive :func:`prune_unreachable`, the dead-rule
pruning pass applied before grounding (DESIGN.md §14).

Entry points
------------

* :func:`analyze_program` -- the full pass battery, returning an
  :class:`AnalysisReport` of structured :class:`Diagnostic`\\ s;
* :func:`require_valid` -- the fast error gate used by
  :class:`~repro.datalog.seminaive.FixpointEngine` at evaluation entry
  (raises :class:`ProgramValidationError` carrying diagnostics);
* :func:`predict_divergence` -- semiring-aware divergence prediction;
* :func:`prune_unreachable` / :func:`dead_rules` -- the pruning pass;
* :func:`dependency_report` -- Tarjan SCCs, recursion classification
  and the stratification report.

Diagnostic codes (stable; see DESIGN.md §14 for the full table)
---------------------------------------------------------------

====== ========= ======================================================
code   severity  meaning
====== ========= ======================================================
DL001  error     unsafe rule (head variable not bound in the body)
DL002  error     predicate used with two different arities (rule pair)
DL003  warning   database fact arity differs from the program's use
DL004  warning   database stores facts for an IDB predicate
DL005  info      dependency / SCC / stratification report
DL006  error     divergence predicted (warning when only data-dependent)
DL007  warning   dead rule: head unreachable from the target
DL008  warning   IDB predicate unreachable from the target
DL009  info      EDB predicate has no facts in the database
====== ========= ======================================================

Soundness notes
---------------

*Divergence* (DL006): the fixpoint over an absorptive (0-stable)
semiring always converges, and so does any program whose *ground*
dependency graph is acyclic (proof trees have bounded height), which
is why a :class:`DivergencePrediction` only answers ``diverges`` when
it has a derivable ground cycle in hand **and** the semiring's
``1 ⊕ 1 ⊕ ...`` chain never stabilizes (probed directly, see
:func:`_plus_chain_unstable`) **and** the semiring is positive with no
zero-weighted EDB fact **and** the database stores no IDB facts (the
grounding's boolean closure counts stored seeds as given but the
fixpoint values them 0, so a seed-supported cycle may carry nothing):
each lap of the cycle then contributes one more nonzero additive
term, so the head's partial sums inherit the instability of the
``⊕``-chain.
Everything in between -- cyclic data over a stable-but-not-absorptive
semiring (negative-weight tropical cycles, capped counting) -- is
honestly ``unknown``.

*Pruning* (DL007): a derivation tree of any fact whose predicate is
reachable from the target only ever applies rules whose head predicate
is itself reachable (reachability is closed under head → body edges),
so dropping unreachable-headed rules preserves the least-fixpoint
value of every reachable-predicate fact exactly, and the pruned
grounding is exactly the reachable-headed subset of the original
(pinned in ``tests/datalog/test_analysis.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..semirings.base import Semiring
from .ast import DatalogError, Fact, Program, Rule, SourceSpan
from .database import Database
from .grounding import ColumnarGroundProgram, GroundProgram, columnar_grounding

__all__ = [
    "SEVERITIES",
    "Diagnostic",
    "DependencyReport",
    "DivergencePrediction",
    "AnalysisReport",
    "ProgramValidationError",
    "tarjan_sccs",
    "dependency_report",
    "reachable_predicates",
    "dead_rules",
    "prune_unreachable",
    "predict_divergence",
    "validation_diagnostics",
    "analyze_program",
    "require_valid",
    "CONVERGES",
    "DIVERGES",
    "UNKNOWN",
]

#: Severity vocabulary, most severe first.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "info")

#: :class:`DivergencePrediction` verdicts.
CONVERGES = "converges"
DIVERGES = "diverges"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding with a stable ``DL``-code.

    ``rule`` / ``predicate`` / ``span`` locate the finding; all three
    are optional (AST-built programs carry no spans).  ``related``
    holds secondary locations -- e.g. the *other* rule of an arity
    clash.
    """

    code: str
    severity: str
    message: str
    rule: Optional[Rule] = None
    predicate: Optional[str] = None
    span: Optional[SourceSpan] = None
    related: Tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}; expected one of {SEVERITIES}")

    def format(self, filename: str = "<program>") -> str:
        """One human line: ``file:line:col: DL001 error: message``."""
        where = filename
        if self.span is not None:
            where = f"{filename}:{self.span.line}:{self.span.column}"
        return f"{where}: {self.code} {self.severity}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        """A JSON-safe dict (the ``/lint`` wire form)."""
        payload: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.rule is not None:
            payload["rule"] = repr(self.rule)
        if self.predicate is not None:
            payload["predicate"] = self.predicate
        if self.span is not None:
            payload["line"] = self.span.line
            payload["column"] = self.span.column
            payload["source_line"] = self.span.source
        if self.related:
            payload["related"] = [repr(rule) for rule in self.related]
        return payload

    def __repr__(self) -> str:
        return self.format()


class ProgramValidationError(DatalogError):
    """A program failed static validation; ``diagnostics`` has the details."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        summary = "; ".join(d.message for d in self.diagnostics[:3])
        if len(self.diagnostics) > 3:
            summary += f" (+{len(self.diagnostics) - 3} more)"
        codes = ",".join(sorted({d.code for d in self.diagnostics}))
        super().__init__(f"{codes}: {summary}")


# ----------------------------------------------------------------------
# Dependency structure: Tarjan SCCs, classification, strata, reachability
# ----------------------------------------------------------------------


def tarjan_sccs(graph: Mapping[str, Iterable[str]]) -> List[Tuple[str, ...]]:
    """Strongly connected components of *graph*, iteratively.

    Nodes are the mapping's keys; edges point at dependencies.  SCCs
    are emitted in reverse topological order of the condensation
    (every SCC after all SCCs it can reach), which is exactly the
    bottom-up evaluation order the stratification report wants.
    Deterministic: nodes and neighbours are visited in sorted order.
    """
    sccs: List[Tuple[str, ...]] = []
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: set = set()
    stack: List[str] = []
    counter = 0
    neighbours = {node: sorted(n for n in graph.get(node, ()) if n in graph) for node in graph}
    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_at = work.pop()
            if child_at == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            descended = False
            children = neighbours[node]
            for position in range(child_at, len(children)):
                child = children[position]
                if child not in index:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    descended = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if descended:
                continue
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(sorted(component)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


@dataclass(frozen=True)
class DependencyReport:
    """The predicate dependency structure of one program.

    ``sccs`` lists the IDB SCCs bottom-up (dependencies first);
    ``classification[i]`` is ``"acyclic"`` | ``"linear"`` |
    ``"nonlinear"`` for ``sccs[i]``; ``stratum[i]`` is its level in
    the condensation (an SCC only reads strata strictly below it,
    plus itself); ``strata`` regroups the SCC predicates by level.
    ``recursion`` is the program-level summary (worst SCC) and
    ``reachable`` the predicates (IDB and EDB) reachable from the
    target via head → body edges.
    """

    sccs: Tuple[Tuple[str, ...], ...]
    classification: Tuple[str, ...]
    stratum: Tuple[int, ...]
    strata: Tuple[Tuple[str, ...], ...]
    recursion: str
    reachable: FrozenSet[str]

    def scc_of(self, predicate: str) -> Tuple[str, ...]:
        for scc in self.sccs:
            if predicate in scc:
                return scc
        raise KeyError(predicate)

    def is_recursive(self) -> bool:
        return self.recursion != "acyclic"

    def to_json(self) -> Dict[str, object]:
        return {
            "recursion": self.recursion,
            "sccs": [
                {
                    "predicates": list(scc),
                    "classification": self.classification[i],
                    "stratum": self.stratum[i],
                }
                for i, scc in enumerate(self.sccs)
            ],
            "strata": [list(group) for group in self.strata],
            "reachable": sorted(self.reachable, key=str),
        }


def _scc_is_cyclic(program: Program, members: FrozenSet[str]) -> bool:
    if len(members) > 1:
        return True
    return any(
        atom.predicate in members
        for rule in program.rules
        if rule.head.predicate in members
        for atom in rule.body
    )


def _classify_scc(program: Program, members: FrozenSet[str]) -> str:
    if not _scc_is_cyclic(program, members):
        return "acyclic"
    for rule in program.rules:
        if rule.head.predicate not in members:
            continue
        in_scc = sum(1 for atom in rule.body if atom.predicate in members)
        if in_scc > 1:
            return "nonlinear"
    return "linear"


def reachable_predicates(program: Program) -> FrozenSet[str]:
    """Predicates (IDB and EDB) reachable from the target via head → body."""
    seen = {program.target}
    frontier = [program.target]
    while frontier:
        predicate = frontier.pop()
        for rule in program.rules_for(predicate):
            for atom in rule.body:
                if atom.predicate not in seen:
                    seen.add(atom.predicate)
                    frontier.append(atom.predicate)
    return frozenset(seen)


def dependency_report(program: Program) -> DependencyReport:
    """Tarjan SCCs + recursion classification + stratification.

    Stratification here is about evaluation order, not negation (this
    Datalog dialect is negation-free, so every program stratifies):
    stratum ``k`` SCCs only read IDBs from strata ``< k`` and
    themselves, so a stratum-by-stratum fixpoint is sound and is what
    the pruned/partitioned execution plans key on.
    """
    graph = program.dependency_graph()
    sccs = tuple(tarjan_sccs(graph))
    scc_index = {p: i for i, scc in enumerate(sccs) for p in scc}
    classification = tuple(_classify_scc(program, frozenset(scc)) for scc in sccs)
    stratum: List[int] = [0] * len(sccs)
    for i, scc in enumerate(sccs):
        for predicate in scc:
            for dependency in graph[predicate]:
                j = scc_index[dependency]
                if j != i:
                    stratum[i] = max(stratum[i], stratum[j] + 1)
    height = max(stratum, default=0) + 1 if sccs else 0
    strata = tuple(
        tuple(p for i, scc in enumerate(sccs) if stratum[i] == level for p in scc)
        for level in range(height)
    )
    worst = "acyclic"
    for kind in classification:
        if kind == "nonlinear":
            worst = "nonlinear"
            break
        if kind == "linear":
            worst = "linear"
    return DependencyReport(
        sccs=sccs,
        classification=classification,
        stratum=tuple(stratum),
        strata=strata,
        recursion=worst,
        reachable=reachable_predicates(program),
    )


def dead_rules(program: Program) -> Tuple[Rule, ...]:
    """Rules whose head predicate no target derivation can ever use."""
    reachable = reachable_predicates(program)
    return tuple(rule for rule in program.rules if rule.head.predicate not in reachable)


def prune_unreachable(program: Program) -> Program:
    """Drop rules whose head is unreachable from the target.

    Sound for the target cone: every derivation of a
    reachable-predicate fact only applies reachable-headed rules (see
    the module docstring), so their least-fixpoint values are
    preserved exactly; only unreachable predicates disappear from the
    result.  Returns *program* itself when nothing is dead, so the
    pass is free on already-lean programs.
    """
    reachable = reachable_predicates(program)
    kept = tuple(rule for rule in program.rules if rule.head.predicate in reachable)
    if len(kept) == len(program.rules):
        return program
    # validate=False: the kept rules passed whatever validation the
    # input program had (the analyzer prunes deliberately-invalid
    # programs too, to report pruned_rule_count alongside the errors).
    return Program(kept, program.target, validate=False)


# ----------------------------------------------------------------------
# Divergence prediction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DivergencePrediction:
    """Verdict of :func:`predict_divergence`.

    ``verdict`` is :data:`CONVERGES` / :data:`DIVERGES` /
    :data:`UNKNOWN`; both definite verdicts are *claims* about the
    runtime ``converged`` flag (property-tested against the production
    fixpoint and the naive oracle), ``unknown`` is compatible with
    either.
    ``witness`` is a fact on a derivable ground cycle when one was
    found.
    """

    verdict: str
    reason: str
    semiring: str
    witness: Optional[Fact] = None

    @property
    def definite(self) -> bool:
        return self.verdict != UNKNOWN

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "verdict": self.verdict,
            "reason": self.reason,
            "semiring": self.semiring,
        }
        if self.witness is not None:
            payload["witness"] = repr(self.witness)
        return payload

    def __repr__(self) -> str:
        return f"DivergencePrediction({self.verdict} over {self.semiring}: {self.reason})"


def _plus_chain_unstable(semiring: Semiring, budget: int = 4096) -> bool:
    """True iff ``1 ⊕ 1 ⊕ ...`` never stabilizes.

    Absorptive and ⊕-idempotent semirings stabilize immediately; for
    the rest the chain is probed directly: two equal consecutive
    partial sums mean it has stabilized (the chain is monotone over a
    naturally ordered carrier, so a plateau never resumes growing),
    and a chain still moving after the budget is treated as unstable.
    The budget is deliberately generous -- ``counting-cap1024``
    stabilizes only at step 1024, well inside 4096 -- so the answer is
    exact for every semiring in the repo.
    """
    if semiring.absorptive or semiring.idempotent_add:
        return False
    value = semiring.one
    for _ in range(budget):
        bumped = semiring.add(value, semiring.one)
        if bumped == value:
            return False
        value = bumped
    return True


def _first_cycle_fact(ground: Union[GroundProgram, ColumnarGroundProgram]) -> Optional[Fact]:
    """A fact on a directed cycle of the ground dependency graph, or None.

    The graph has an edge ``body fact → head fact`` for every ground
    rule; only IDB facts can lie on a cycle (EDB facts have no
    incoming edges).  Runs in id space (a tuple grounding is lowered
    first; no decode except the witness) via an iterative
    white/gray/black DFS.
    """
    if not isinstance(ground, ColumnarGroundProgram):
        ground = ColumnarGroundProgram.from_ground_program(ground)
    indptr, flat = ground.idb_indptr, ground.idb_flat
    adjacency: Dict[object, List[object]] = {}
    for position in range(len(ground)):
        head = ground.rule_head[position]
        for at in range(indptr[position], indptr[position + 1]):
            adjacency.setdefault(flat[at], []).append(head)
    witness = _dfs_cycle(adjacency)
    return ground.decode_fact(witness) if witness is not None else None


_WHITE, _GRAY, _BLACK = 0, 1, 2


def _dfs_cycle(adjacency: Mapping[object, List[object]]) -> Optional[object]:
    colour: Dict[object, int] = {}
    for root in adjacency:
        if colour.get(root, _WHITE) != _WHITE:
            continue
        stack: List[Tuple[object, int]] = [(root, 0)]
        colour[root] = _GRAY
        while stack:
            node, child_at = stack.pop()
            descended = False
            children = adjacency.get(node, ())
            for position in range(child_at, len(children)):
                child = children[position]
                state = colour.get(child, _WHITE)
                if state == _GRAY:
                    return child
                if state == _WHITE and child in adjacency:
                    stack.append((node, position + 1))
                    colour[child] = _GRAY
                    stack.append((child, 0))
                    descended = True
                    break
            if not descended:
                colour[node] = _BLACK
        # A node with no outgoing edges was never coloured; that is fine.
    return None


def _unit_production_cycle(program: Program) -> bool:
    """True iff single-IDB-atom rules form a predicate cycle.

    In grammar terms these are unit productions ``A → B``; a cycle of
    them (``T(X,Y) :- T(X,Y).`` being the one-step case) yields
    infinitely many derivation trees per fact without growing the CFG
    language, so it is the one shape a finite-language certificate
    must separately exclude.
    """
    idbs = program.idb_predicates
    adjacency: Dict[object, List[object]] = {}
    for rule in program.rules:
        if len(rule.body) == 1 and rule.body[0].predicate in idbs:
            adjacency.setdefault(rule.head.predicate, []).append(rule.body[0].predicate)
    return _dfs_cycle(adjacency) is not None


def _chain_boundedness_verdict(
    program: Program,
    report: DependencyReport,
    database: Optional[Database],
    name: str,
) -> Optional[DivergencePrediction]:
    """The Section-5 layer: a finite chain-program CFG, carefully.

    :func:`~repro.boundedness.checker.chain_program_boundedness` is
    exact for *boundedness over absorptive semirings*; to promote its
    finite-CFG certificate to a convergence claim over an arbitrary
    semiring the derivation *count* per fact must be finite too, which
    needs every loophole a finite target language leaves open closed:

    * no unit-production cycle (infinitely many trees, same words);
    * every cyclic SCC reachable from the target (the CFG says nothing
      about predicates the target never reads);
    * no database-stored IDB facts (a stored seed makes an otherwise
      unproductive cycle derivable).

    Under those guards a reachable cyclic SCC that could ever derive a
    fact would pump the language infinite -- so with a finite language
    every cycle is unproductive, grounds empty, and the fixpoint
    converges over any semiring, no grounding required.
    """
    if database is None or not program.is_basic_chain():
        return None
    cyclic_predicates = {
        p
        for i, scc in enumerate(report.sccs)
        if report.classification[i] != "acyclic"
        for p in scc
    }
    if not cyclic_predicates <= report.reachable:
        return None
    if _unit_production_cycle(program):
        return None
    stored = database.predicates()
    if any(p in stored for p in program.idb_predicates):
        return None
    from ..boundedness.checker import chain_program_boundedness

    bounded = chain_program_boundedness(program)
    if not bounded.bounded:
        return None
    return DivergencePrediction(
        CONVERGES,
        f"basic chain program with a finite CFG (bounded, certificate {bounded.certificate}) "
        "and no unit cycles or stored IDB seeds: every reachable cycle is unproductive, "
        "so derivation counts are finite over any semiring",
        name,
    )


def predict_divergence(
    program: Program,
    semiring: Semiring,
    database: Optional[Database] = None,
    ground: Optional[Union[GroundProgram, ColumnarGroundProgram]] = None,
) -> DivergencePrediction:
    """Will the fixpoint of *program* over *semiring* converge?

    Static layers (no database needed): absorptive semirings and
    acyclic dependency graphs always converge.  For basic chain
    programs a finite CFG (via
    :func:`repro.boundedness.checker.chain_program_boundedness`)
    yields a grounding-free ``converges`` verdict under the extra
    guards :func:`_chain_boundedness_verdict` documents.

    Data layer (database or precomputed *ground* supplied): an acyclic
    *ground* dependency graph converges regardless of the semiring; a
    derivable ground cycle over a positive semiring whose ``⊕``-chain
    never stabilizes (and no zero-weighted EDB fact to cut the cycle)
    diverges.  Everything else is ``unknown`` -- never a false
    definite verdict (see the module docstring's soundness note).
    """
    name = semiring.name
    if semiring.absorptive:
        return DivergencePrediction(
            CONVERGES,
            "absorptive (0-stable) semiring: the fixpoint closes in at most one round per fact",
            name,
        )
    report = dependency_report(program)
    if not report.is_recursive():
        return DivergencePrediction(
            CONVERGES,
            "acyclic predicate dependency graph: proof trees have bounded height",
            name,
        )
    chain_verdict = _chain_boundedness_verdict(program, report, database, name)
    if chain_verdict is not None:
        return chain_verdict
    unstable = _plus_chain_unstable(semiring)
    if database is None and ground is None:
        if unstable:
            return DivergencePrediction(
                UNKNOWN,
                f"cyclic IDB recursion over the non-stable ⊕ of {name}: diverges on any database "
                "that realizes the cycle (supply one for a definite verdict)",
                name,
            )
        return DivergencePrediction(
            UNKNOWN,
            "cyclic recursion; convergence depends on the database and its weights",
            name,
        )
    if ground is None:
        ground = columnar_grounding(program, database)
    witness = _first_cycle_fact(ground)
    if witness is None:
        return DivergencePrediction(
            CONVERGES,
            "ground dependency graph is acyclic on this database: bounded proof-tree height",
            name,
        )
    if unstable and semiring.positive:
        if database is None or any(
            p in database.predicates() for p in program.idb_predicates
        ):
            # The grounding's boolean closure counts stored IDB facts
            # as given, but the fixpoint starts every IDB value at 0 --
            # a cycle derivable only through a stored seed carries no
            # value, so a definite verdict needs a seed-free database.
            return DivergencePrediction(
                UNKNOWN,
                f"ground cycle through {witness} over the non-stable ⊕ of {name}, but stored "
                "IDB facts may be its only support and the fixpoint does not value them",
                name,
                witness=witness,
            )
        if any(
            semiring.is_zero(value) for value in database.valuation(semiring).values()
        ):
            return DivergencePrediction(
                UNKNOWN,
                "derivable ground cycle, but a zero-weighted EDB fact may cut it",
                name,
                witness=witness,
            )
        return DivergencePrediction(
            DIVERGES,
            f"derivable ground cycle through {witness} over the non-stable ⊕ of {name}: "
            "every lap adds a fresh nonzero term and the ⊕-chain never stabilizes",
            name,
            witness=witness,
        )
    return DivergencePrediction(
        UNKNOWN,
        f"derivable ground cycle through {witness}, but the ⊕ of {name} is stable; "
        "convergence depends on the cycle weights",
        name,
        witness=witness,
    )


# ----------------------------------------------------------------------
# The pass battery
# ----------------------------------------------------------------------


def _safety_diagnostics(program: Program) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for rule in program.rules:
        if rule.is_safe():
            continue
        body_vars = set()
        for atom in rule.body:
            body_vars.update(atom.variables)
        loose = sorted(v.name for v in set(rule.head.variables) - body_vars)
        out.append(
            Diagnostic(
                "DL001",
                "error",
                f"unsafe rule: head variable{'s' if len(loose) > 1 else ''} "
                f"{', '.join(loose)} not bound in the body: {rule}",
                rule=rule,
                predicate=rule.head.predicate,
                span=rule.span,
            )
        )
    return out


def _arity_diagnostics(program: Program) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    first_use: Dict[str, Tuple[int, Rule]] = {}
    reported: set = set()
    for rule in program.rules:
        for atom in (rule.head, *rule.body):
            known = first_use.get(atom.predicate)
            if known is None:
                first_use[atom.predicate] = (atom.arity, rule)
                continue
            arity, origin = known
            if atom.arity != arity and (atom.predicate, atom.arity) not in reported:
                reported.add((atom.predicate, atom.arity))
                out.append(
                    Diagnostic(
                        "DL002",
                        "error",
                        f"predicate {atom.predicate!r} used with arity {arity} in `{origin}` "
                        f"but arity {atom.arity} in `{rule}`",
                        rule=rule,
                        predicate=atom.predicate,
                        span=atom.span if atom.span is not None else rule.span,
                        related=(origin,) if origin is not rule else (),
                    )
                )
    return out


def _database_diagnostics(program: Program, database: Database) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    idbs = program.idb_predicates
    program_arity = {p: program.arity_of(p) for p in program.predicates}
    for predicate in sorted(database.predicates()):
        arities = sorted({len(args) for args in database.tuples(predicate)})
        if predicate in idbs:
            out.append(
                Diagnostic(
                    "DL004",
                    "warning",
                    f"database stores facts for IDB predicate {predicate!r}; derived relations "
                    "are computed, and stored IDB facts join as extra base derivations",
                    predicate=predicate,
                )
            )
        expected = program_arity.get(predicate)
        if expected is None:
            continue
        mismatched = [a for a in arities if a != expected]
        if mismatched:
            out.append(
                Diagnostic(
                    "DL003",
                    "warning",
                    f"database holds {predicate!r} facts of arity "
                    f"{', '.join(map(str, mismatched))} but the program uses arity {expected}; "
                    "mismatched rows can never match an atom",
                    predicate=predicate,
                )
            )
    db_predicates = database.predicates()
    for predicate in sorted(program.edb_predicates):
        if predicate not in db_predicates:
            out.append(
                Diagnostic(
                    "DL009",
                    "info",
                    f"EDB predicate {predicate!r} has no facts in the database; "
                    "every rule reading it grounds empty",
                    predicate=predicate,
                )
            )
    return out


def validation_diagnostics(
    program: Program, database: Optional[Database] = None
) -> List[Diagnostic]:
    """The cheap validation passes: safety, arity, database consistency.

    ``O(|rules| + |db predicates|)`` -- this is what
    :func:`require_valid` runs on every fixpoint entry, so it stays
    deliberately free of grounding or reachability work.
    """
    out = _safety_diagnostics(program)
    out.extend(_arity_diagnostics(program))
    if database is not None:
        out.extend(_database_diagnostics(program, database))
    return out


def _reachability_diagnostics(program: Program, report: DependencyReport) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    unreachable_idbs = sorted(program.idb_predicates - report.reachable)
    for predicate in unreachable_idbs:
        out.append(
            Diagnostic(
                "DL008",
                "warning",
                f"IDB predicate {predicate!r} is unreachable from target {program.target!r}; "
                "no target derivation can use it",
                predicate=predicate,
            )
        )
    for rule in dead_rules(program):
        out.append(
            Diagnostic(
                "DL007",
                "warning",
                f"dead rule (head {rule.head.predicate!r} unreachable from target "
                f"{program.target!r}): {rule}; prune_unreachable() drops it before grounding",
                rule=rule,
                predicate=rule.head.predicate,
                span=rule.span,
            )
        )
    return out


def _dependency_diagnostic(report: DependencyReport) -> Diagnostic:
    parts = []
    for i, scc in enumerate(report.sccs):
        parts.append(f"[{', '.join(scc)}] {report.classification[i]} (stratum {report.stratum[i]})")
    return Diagnostic(
        "DL005",
        "info",
        f"recursion: {report.recursion}; {len(report.sccs)} SCC"
        f"{'s' if len(report.sccs) != 1 else ''} in {len(report.strata)} "
        f"strat{'a' if len(report.strata) != 1 else 'um'}: " + "; ".join(parts),
    )


def _divergence_diagnostic(
    prediction: DivergencePrediction, program: Program
) -> Optional[Diagnostic]:
    if prediction.verdict == DIVERGES:
        return Diagnostic(
            "DL006",
            "error",
            f"divergence predicted over {prediction.semiring}: {prediction.reason}",
            predicate=program.target,
        )
    if prediction.verdict == UNKNOWN and "non-stable" in prediction.reason:
        return Diagnostic(
            "DL006",
            "warning",
            f"possible divergence over {prediction.semiring}: {prediction.reason}",
            predicate=program.target,
        )
    return None


@dataclass(frozen=True)
class AnalysisReport:
    """Everything :func:`analyze_program` found, structured.

    ``diagnostics`` is ordered errors-first (stable within a
    severity); ``dependencies`` and ``divergence`` carry the raw
    reports the info/error diagnostics summarize.
    """

    program: Program
    diagnostics: Tuple[Diagnostic, ...]
    dependencies: DependencyReport
    divergence: Optional[DivergencePrediction] = None
    pruned_rule_count: int = 0

    @property
    def ok(self) -> bool:
        """True iff no error-severity diagnostic."""
        return not self.errors()

    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")

    def infos(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "info")

    def by_code(self, code: str) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code == code)

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "ok": self.ok,
            "target": self.program.target,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "dependencies": self.dependencies.to_json(),
            "pruned_rule_count": self.pruned_rule_count,
        }
        if self.divergence is not None:
            payload["divergence"] = self.divergence.to_json()
        return payload

    def __repr__(self) -> str:
        counts = {s: 0 for s in SEVERITIES}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity] += 1
        summary = ", ".join(f"{n} {s}{'s' if n != 1 else ''}" for s, n in counts.items())
        return f"AnalysisReport({self.program.target!r}: {summary})"


def analyze_program(
    program: Program,
    database: Optional[Database] = None,
    semiring: Optional[Semiring] = None,
    ground: Optional[Union[GroundProgram, ColumnarGroundProgram]] = None,
) -> AnalysisReport:
    """Run the full pass battery over *program*.

    *database* arms the data-aware passes (DL003/DL004/DL009 and the
    ground-cycle layer of divergence prediction); *semiring* arms
    divergence prediction at all; *ground* short-circuits the
    grounding the prediction would otherwise compute.  Severity
    ordering: errors first, then warnings, then infos, each in pass
    order.
    """
    diagnostics = validation_diagnostics(program, database)
    report = dependency_report(program)
    diagnostics.extend(_reachability_diagnostics(program, report))
    diagnostics.append(_dependency_diagnostic(report))
    prediction: Optional[DivergencePrediction] = None
    if semiring is not None:
        # Divergence prediction grounds the program when a database is
        # supplied; skip it when validation already found errors (the
        # grounding could crash on the very defects being reported).
        clean = not any(d.severity == "error" for d in diagnostics)
        if clean:
            prediction = predict_divergence(
                program, semiring, database=database, ground=ground
            )
            verdict_diagnostic = _divergence_diagnostic(prediction, program)
            if verdict_diagnostic is not None:
                diagnostics.append(verdict_diagnostic)
    rank = {severity: position for position, severity in enumerate(SEVERITIES)}
    ordered = sorted(enumerate(diagnostics), key=lambda pair: (rank[pair[1].severity], pair[0]))
    return AnalysisReport(
        program=program,
        diagnostics=tuple(d for _, d in ordered),
        dependencies=report,
        divergence=prediction,
        pruned_rule_count=len(program.rules) - len(prune_unreachable(program).rules),
    )


def require_valid(program: Program, database: Optional[Database] = None) -> None:
    """Raise :class:`ProgramValidationError` on any error diagnostic.

    The fixpoint entry gate (``FixpointEngine.evaluate(validate=True)``,
    the default): runs only the cheap validation passes, so the cost is
    linear in the rule count -- negligible next to grounding.
    """
    errors = [d for d in validation_diagnostics(program, database) if d.severity == "error"]
    if errors:
        raise ProgramValidationError(errors)
