"""Automatic construction selection: the paper's decision tree as code.

Given a program/database/fact, pick the best construction the paper
provides for that class:

1. TC-shaped queries on a DAG → the graph-as-circuit (Thm 3.5);
2. a bounded program (exact or certified) → ``k`` layers (Thm 4.3);
3. left-linear chain (regular) programs → magic-set specialization
   (Thm 5.8's device) feeding the generic construction, keeping the
   grounding at ``O(m)``;
4. programs with the polynomial fringe property (linear or chain) →
   the Ullman–Van Gelder circuit (Thm 6.2) when ``optimize_depth`` is
   requested;
5. otherwise → the generic circuit (Thm 3.1).

Returns the circuit plus a :class:`ConstructionChoice` explaining the
decision -- useful both as a user-facing API and as living
documentation of Sections 3--6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..boundedness.checker import chain_program_boundedness, expansion_boundedness_certificate
from ..circuits.circuit import Circuit
from ..circuits.runtime import CompiledCircuit, IncrementalEvaluator, compile_circuit
from ..config import ConfigLike, coerce_config
from ..datalog.ast import Fact, Program
from ..datalog.database import Database
from ..datalog.magic import magic_specialize, specialized_fact
from .bounded import bounded_circuit
from .fringe import fringe_circuit
from .generic import generic_circuit

__all__ = ["ConstructionChoice", "provenance_circuit"]


@dataclass
class ConstructionChoice:
    """The selected construction and the reasoning trail.

    The choice is also the natural serving handle: the paper's usage
    pattern is "build one circuit, answer many valuation queries", so
    the compiled-runtime entry points (DESIGN.md §7) are exposed here
    directly.  All of them share one cached
    :class:`~repro.circuits.runtime.CompiledCircuit`.
    """

    circuit: Circuit
    construction: str
    theorem: str
    reason: str

    def __repr__(self) -> str:
        return f"ConstructionChoice({self.construction}, {self.theorem}: {self.reason})"

    def compiled(self) -> CompiledCircuit:
        """The circuit frozen for repeated evaluation (cached)."""
        return compile_circuit(self.circuit)

    def evaluate(self, semiring, assignment, output=None):
        """One valuation query against the compiled circuit."""
        return self.compiled().evaluate(semiring, assignment, output)

    def evaluate_batch(self, semiring, assignments, output=None, backend=None):
        """Many valuation queries, one compile (see ``evaluate_batch``).

        *backend* threads the DESIGN.md §13 execution backend through to
        the compiled runtime (``"vectorized"`` evaluates each same-opcode
        instruction stream as one NumPy array expression when the
        semiring publishes ufunc specs; any other value keeps the pure
        Python interpreter)."""
        return self.compiled().evaluate_batch(semiring, assignments, output, backend=backend)

    def evaluate_boolean_batch(self, batches, output=None, word_size=64):
        """Bitset-parallel Boolean queries, 64 per pass."""
        return self.compiled().evaluate_boolean_batch(batches, output, word_size)

    def serve(self, semiring, assignment) -> IncrementalEvaluator:
        """An incremental evaluator seeded with *assignment* -- the
        "one EDB weight changed, re-answer the query" scenario."""
        return IncrementalEvaluator(self.compiled(), semiring, assignment)


def provenance_circuit(
    program: Program,
    database: Database,
    fact: Fact,
    optimize_depth: bool = False,
    config: ConfigLike = None,
) -> ConstructionChoice:
    """Build a provenance circuit for *fact*, choosing the construction
    by program class (see module docstring).

    *config* threads the unified execution knobs (DESIGN.md §10):
    ``config.optimize_depth`` is the facade spelling of the
    *optimize_depth* flag (either one requests the fringe construction
    when the program class allows it).
    """
    config = coerce_config(config)
    optimize_depth = optimize_depth or config.optimize_depth
    if fact.predicate != program.target:
        program = program.with_target(fact.predicate)

    # Bounded? (exact for chain programs, certified for linear ones)
    bound: Optional[int] = None
    if program.is_basic_chain():
        report = chain_program_boundedness(program)
        if report.bounded:
            bound = report.certificate
    elif program.is_linear():
        report = expansion_boundedness_certificate(program)
        if report.bounded:
            bound = report.certificate
    if bound is not None:
        circuit = bounded_circuit(program, database, bound=bound, facts=fact)
        return ConstructionChoice(
            circuit,
            construction="bounded",
            theorem="Theorem 4.3",
            reason=f"program is bounded with certificate k={bound}; "
            "k ICO layers give depth O(log |I|)",
        )

    # Left-linear chain with a constant source: magic-set specialization.
    if program.is_left_linear_chain() and len(fact.args) == 2:
        source, other = fact.args
        specialized = magic_specialize(program, source)
        target = specialized_fact(program, source, other)
        circuit = generic_circuit(specialized, database, target)
        return ConstructionChoice(
            circuit,
            construction="magic-generic",
            theorem="Theorem 5.8 (magic-set step)",
            reason=f"left-linear chain program specialized to source {source!r}: "
            "unary IDBs keep the grounding at O(m)",
        )

    if optimize_depth and (program.is_linear() or program.is_basic_chain()):
        circuit = fringe_circuit(program, database, fact)
        return ConstructionChoice(
            circuit,
            construction="ullman-van-gelder",
            theorem="Theorem 6.2",
            reason="polynomial fringe property (linear/chain program): "
            "depth O(log² |I|)",
        )

    circuit = generic_circuit(program, database, fact)
    return ConstructionChoice(
        circuit,
        construction="generic",
        theorem="Theorem 3.1",
        reason="fallback: polynomial-size circuit for any program over an "
        "absorptive semiring",
    )
