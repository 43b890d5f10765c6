"""Datalog semantics over semirings: the ICO and the fixpoint front-end.

Section 2.3: the immediate consequence operator (ICO) maps each IDB
fact ``α`` to the ``⊕``-sum over all grounded rules with head ``α`` of
the ``⊗``-product of the rule's body facts.  Naive evaluation starts
from all-``0`` and applies the ICO until a fixpoint.

One pipeline computes that fixpoint (see :mod:`repro.datalog.seminaive`
for :class:`~repro.datalog.seminaive.FixpointEngine`): the id-space
grounding feeding delta-driven rounds that re-evaluate only rules
whose body changed, round-for-round equivalent to the paper's loop.
That loop itself is kept verbatim as the test oracle
(:func:`repro.testing.oracle.naive_fixpoint`).
:func:`naive_evaluation` keeps its historical name and signature and
delegates to the engine.

Convergence is guaranteed for absorptive (0-stable) semirings -- in at
most ``N`` rounds, where ``N`` is the number of derivable IDB facts,
because a tight proof tree repeats no IDB fact on a root-to-leaf path
and so has height at most ``N``.  Over non-stable semirings (e.g. the
counting semiring on cyclic inputs) evaluation may diverge; the
``max_iterations`` guard reports that instead of spinning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

from ..config import ConfigLike
from ..semirings.base import Semiring
from .ast import Fact, Program
from .database import Database
from .grounding import ColumnarGroundProgram, GroundProgram, derivable_facts

__all__ = [
    "EvaluationResult",
    "DivergenceError",
    "naive_evaluation",
    "evaluate_fact",
    "boolean_iterations",
]


class DivergenceError(RuntimeError):
    """Fixpoint evaluation hit the iteration cap without converging."""


@dataclass
class EvaluationResult:
    """Outcome of a fixpoint evaluation.

    ``values`` holds the least-fixpoint annotation of every derivable
    IDB fact; ``iterations`` is the number of ICO applications until
    the fixpoint was certified (the quantity bounded by Definition
    4.1's ``k`` for bounded programs) and equals the paper's naive
    loop's; ``rule_evaluations`` counts ``⊗``-term recomputations, the
    cost metric on which the delta-driven rounds beat that loop.
    """

    semiring: Semiring
    values: Dict[Fact, object]
    iterations: int
    converged: bool
    rule_evaluations: int = 0

    def value(self, fact: Fact):
        return self.values.get(fact, self.semiring.zero)

    def target_values(self, program: Program) -> Dict[Fact, object]:
        return {
            fact: value
            for fact, value in self.values.items()
            if fact.predicate == program.target
        }


def naive_evaluation(
    program: Program,
    database: Database,
    semiring: Semiring,
    weights: Optional[Mapping[Fact, object]] = None,
    ground: Optional[Union[GroundProgram, ColumnarGroundProgram]] = None,
    max_iterations: Optional[int] = None,
    raise_on_divergence: bool = False,
    config: ConfigLike = None,
    validate: bool = True,
) -> EvaluationResult:
    """Fixpoint evaluation of *program* on *database* over *semiring*.

    *weights* overrides the database's stored annotations (default:
    stored weight, else ``1``).  *ground* lets callers reuse a
    precomputed grounding, id-space or tuple.  ``max_iterations``
    defaults to ``max(#IDB facts, 1) + 2`` extra headroom for
    absorptive semirings and must be set explicitly for non-stable
    ones.

    Despite the historical name this delegates to the
    :class:`~repro.datalog.seminaive.FixpointEngine`, the one
    production fixpoint.

    ``validate=True`` (the default) runs the DL001/DL002 static checks
    before grounding and raises
    :class:`~repro.datalog.analysis.ProgramValidationError` on an
    unsafe or arity-inconsistent program; ``validate=False`` is the
    escape hatch for tests that need to execute such programs anyway.
    """
    from .seminaive import FixpointEngine

    return FixpointEngine(config=config).evaluate(
        program,
        database,
        semiring,
        weights=weights,
        ground=ground,
        max_iterations=max_iterations,
        raise_on_divergence=raise_on_divergence,
        validate=validate,
    )


def evaluate_fact(
    program: Program,
    database: Database,
    semiring: Semiring,
    fact: Fact,
    weights: Optional[Mapping[Fact, object]] = None,
    config: ConfigLike = None,
):
    """Least-fixpoint value of one IDB *fact* (``0`` if underivable)."""
    result = naive_evaluation(program, database, semiring, weights, config=config)
    return result.value(fact)


def boolean_iterations(program: Program, database: Database) -> int:
    """Rounds until the Boolean fixpoint (Definition 4.1 probe)."""
    _, iterations = derivable_facts(program, database)
    return iterations
