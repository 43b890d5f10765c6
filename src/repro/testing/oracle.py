"""The naive reference oracle: grounding and fixpoint, the slow way.

The production pipeline (:func:`repro.datalog.grounding.columnar_grounding`
feeding :class:`repro.datalog.seminaive.FixpointEngine`) is the only
path programs run on.  This module is what the tests check it
against: the paper's definitions executed as literally as possible,
with no indexes beyond a single-position filter, no join reordering,
no deltas.

* :func:`naive_derivable_facts` -- the Boolean fixpoint, re-joining
  every rule each round;
* :func:`naive_relevant_grounding` -- that fixpoint, then a
  from-scratch nested-loop re-join of every rule;
* :func:`naive_full_grounding` -- the whole ``|Dom(I)|^{#vars}`` cross
  product per rule, EDB atoms checked against the input;
* :func:`naive_fixpoint` / :func:`oracle_evaluation` -- the literal
  Section 2.3 loop: every round re-evaluates every ground rule and
  re-folds every head (Jacobi order), so its values, iteration count
  and ``converged`` flag are the ones the production fixpoint must
  reproduce round for round.  From the same trajectory it derives the
  ⊗-term recomputations a delta-driven loop must spend
  (:attr:`OracleResult.delta_rule_evaluations`), the count the
  production fixpoint reports.

Nothing in ``repro`` imports this module, and no
:class:`~repro.config.ExecutionConfig` field or wire option reaches
it: it exists for the test suite and the benchmarks that score the
production path against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..datalog.ast import Constant, DatalogError, Fact, Program, Variable
from ..datalog.database import Database
from ..datalog.evaluation import DivergenceError, EvaluationResult
from ..datalog.grounding import GroundProgram, GroundRule, _FactIndex, _join, _stats
from ..semirings.base import Semiring

__all__ = [
    "naive_derivable_facts",
    "naive_relevant_grounding",
    "naive_full_grounding",
    "naive_fixpoint",
    "OracleResult",
    "oracle_evaluation",
]


def _index_of(database: Database) -> _FactIndex:
    index = _FactIndex()
    for fact in database.facts():
        index.insert(fact)
    return index


def naive_derivable_facts(program: Program, database: Database) -> Tuple[FrozenSet[Fact], int]:
    """``(derivable IDB facts, Boolean rounds)``, one full re-join of
    every rule per round."""
    idbs = program.idb_predicates
    index = _index_of(database)
    derived: Set[Fact] = set()
    delta: Set[Fact] = set()
    iterations = 0
    while True:
        fresh: Set[Fact] = set()
        delta_predicates = {fact.predicate for fact in delta}
        for rule in program.rules:
            idb_atoms = rule.idb_atoms(idbs)
            requires_delta = iterations > 0 and bool(idb_atoms)
            if requires_delta and not any(a.predicate in delta_predicates for a in idb_atoms):
                continue
            for theta in _join(rule.body, index, {}):
                head = rule.head.substitute(theta).to_fact()
                if head in derived or head in fresh:
                    continue
                # After round 0 a new head needs a delta fact in its
                # body; anything else was already found.
                if requires_delta and not (
                    {a.substitute(theta).to_fact() for a in idb_atoms} & delta
                ):
                    continue
                fresh.add(head)
        iterations += 1
        if not fresh:
            break
        for fact in fresh:
            derived.add(fact)
            index.insert(fact)
        delta = fresh
    return frozenset(derived), iterations


def _ground_rule(rule_index: int, rule, theta, idbs) -> GroundRule:
    facts = [(a.predicate in idbs, a.substitute(theta).to_fact()) for a in rule.body]
    return GroundRule(
        rule.head.substitute(theta).to_fact(),
        tuple(f for is_idb, f in facts if is_idb),
        tuple(f for is_idb, f in facts if not is_idb),
        rule_index,
    )


def naive_relevant_grounding(program: Program, database: Database) -> GroundProgram:
    """Boolean fixpoint, then a from-scratch re-join of every rule."""
    derived, _ = naive_derivable_facts(program, database)
    idbs = program.idb_predicates
    index = _index_of(database)
    for fact in derived:
        index.insert(fact)
    stats = _stats()
    ground_rules: List[GroundRule] = []
    seen: Set[Tuple] = set()
    for rule_index, rule in enumerate(program.rules):
        for theta in _join(rule.body, index, {}):
            ground = _ground_rule(rule_index, rule, theta, idbs)
            key = (rule_index, ground.head, ground.idb_body, ground.edb_body)
            if key not in seen:
                seen.add(key)
                ground_rules.append(ground)
                stats.ground_rules += 1
    return GroundProgram(program, ground_rules)


def naive_full_grounding(
    program: Program, database: Database, max_instantiations: int = 2_000_000
) -> GroundProgram:
    """Enumerate the whole cross product of every rule's variables."""
    domain = sorted(database.active_domain(), key=repr)
    idbs = program.idb_predicates
    stats = _stats()
    ground_rules: List[GroundRule] = []
    seen: Set[Tuple] = set()
    for rule_index, rule in enumerate(program.rules):
        rule_vars = sorted(rule.variables, key=lambda v: v.name)
        total = len(domain) ** len(rule_vars)
        if total > max_instantiations:
            raise DatalogError(
                f"full grounding would create {total} instantiations; "
                "use relevant_grounding instead"
            )
        assignments: List[Dict[Variable, Constant]] = [{}]
        for var in rule_vars:
            assignments = [
                {**theta, var: Constant(value)} for theta in assignments for value in domain
            ]
        for theta in assignments:
            stats.probes += 1
            ground = _ground_rule(rule_index, rule, theta, idbs)
            if any(fact not in database for fact in ground.edb_body):
                continue
            key = (rule_index, ground.head, ground.idb_body, ground.edb_body)
            if key not in seen:
                seen.add(key)
                ground_rules.append(ground)
                stats.ground_rules += 1
    return GroundProgram(program, ground_rules)


def naive_fixpoint(
    ground: GroundProgram,
    semiring: Semiring,
    edb_value: Mapping[Fact, object],
    idb_facts: List[Fact],
    max_iterations: int,
) -> Tuple[Dict[Fact, object], int, bool, int, int]:
    """The literal Section 2.3 loop: re-evaluate everything each round.

    Returns ``(values, iterations, converged, rule_evaluations,
    delta_rule_evaluations)``: the last counts what a delta-driven
    loop over the same rounds re-evaluates -- every rule in round 1,
    then every rule with an IDB body fact whose value changed in the
    round before.
    """
    rules = ground.rules
    rule_edb_product = [
        semiring.mul_all(edb_value[fact] for fact in rule.edb_body) for rule in rules
    ]
    body_rules: Dict[Fact, Set[int]] = {}
    for position, rule in enumerate(rules):
        for fact in rule.idb_body:
            body_rules.setdefault(fact, set()).add(position)
    values: Dict[Fact, object] = {fact: semiring.zero for fact in idb_facts}
    iterations = 0
    converged = False
    rule_evaluations = 0
    delta_rule_evaluations = 0
    dirty = len(rules)
    for _ in range(max_iterations):
        fresh: Dict[Fact, object] = {fact: semiring.zero for fact in idb_facts}
        for rule, edb_product in zip(rules, rule_edb_product):
            term = edb_product
            for body_fact in rule.idb_body:
                term = semiring.mul(term, values[body_fact])
            fresh[rule.head] = semiring.add(fresh[rule.head], term)
            rule_evaluations += 1
        delta_rule_evaluations += dirty
        iterations += 1
        changed = [fact for fact in idb_facts if not semiring.eq(fresh[fact], values[fact])]
        values = fresh
        if not changed:
            converged = True
            break
        dirty = len(set().union(*(body_rules.get(fact, ()) for fact in changed)))
    return values, iterations, converged, rule_evaluations, delta_rule_evaluations


@dataclass
class OracleResult(EvaluationResult):
    """An :class:`EvaluationResult` of the naive loop, plus the
    ⊗-term recomputations a delta-driven loop over the same rounds
    must spend (see :func:`naive_fixpoint`)."""

    delta_rule_evaluations: int = 0


def oracle_evaluation(
    program: Program,
    database: Database,
    semiring: Semiring,
    weights: Optional[Mapping[Fact, object]] = None,
    ground: Optional[GroundProgram] = None,
    max_iterations: Optional[int] = None,
    raise_on_divergence: bool = False,
) -> OracleResult:
    """The reference answer for ``solve(program, database, semiring)``.

    Same contract as the production fixpoint: *weights* override the
    stored annotations, *ground* reuses a tuple grounding (default:
    :func:`naive_relevant_grounding`), ``max_iterations`` defaults to
    ``max(#IDB facts, 1) + 2``.
    """
    if ground is None:
        ground = naive_relevant_grounding(program, database)
    edb_value = database.valuation(semiring)
    if weights:
        edb_value.update(weights)
    idb_facts = sorted(ground.idb_facts, key=repr)
    if max_iterations is None:
        max_iterations = max(len(idb_facts), 1) + 2
    values, iterations, converged, rule_evaluations, delta = naive_fixpoint(
        ground, semiring, edb_value, idb_facts, max_iterations
    )
    if not converged and raise_on_divergence:
        raise DivergenceError(
            f"oracle evaluation over {semiring.name} did not "
            f"converge in {max_iterations} iterations"
        )
    return OracleResult(
        semiring,
        values,
        iterations,
        converged,
        rule_evaluations=rule_evaluations,
        delta_rule_evaluations=delta,
    )
