"""Circuit evaluation over arbitrary semirings.

Evaluation is a single forward pass over the node arrays (nodes are in
topological order by construction), so it runs in time linear in the
circuit size -- the "compressed data structure" guarantee of the
paper's introduction.

Since ISSUE 3 the public entry points (:func:`evaluate`,
:func:`evaluate_all`, :func:`evaluate_boolean`) are thin wrappers over
the compiled evaluation runtime (:mod:`repro.circuits.runtime`,
DESIGN.md §7): the circuit is compiled once -- typed arrays, a
deduplicated variable table, per-op instruction streams, fused
kernels for the numeric semirings -- and the compiled form is cached
on the (immutable) circuit, so every existing call site transparently
gets the fast path.  The seed interpreters are kept verbatim as
:func:`reference_evaluate_all` / :func:`reference_evaluate_boolean`:
they are the semantics the runtime is property-tested against and the
baseline the ``bench_eval_runtime`` speedup asserts are measured
from.

Evaluating over :class:`~repro.semirings.polynomial.SorpSemiring` with
the identity assignment extracts the circuit's *canonical polynomial*
(Section 2.5's "produces"), already normalized by absorption; see
:mod:`repro.circuits.polynomials`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..semirings.base import Semiring
from .circuit import OP_ADD, OP_CONST0, OP_CONST1, OP_MUL, OP_VAR, Circuit
from .runtime import compile_circuit

__all__ = [
    "evaluate",
    "evaluate_all",
    "evaluate_boolean",
    "reference_evaluate_all",
    "reference_evaluate_boolean",
    "crosscheck_fixpoint",
]


def evaluate(
    circuit: Circuit,
    semiring: Semiring,
    assignment: Mapping[Hashable, object] | Callable[[Hashable], object],
    output: Optional[int] = None,
):
    """Evaluate *circuit* bottom-up over *semiring*.

    *assignment* maps variable tags to semiring values; it may be a
    mapping or a callable.  Returns the value at *output* (default:
    the circuit's sole output; multiple outputs require an explicit
    index or :func:`evaluate_all`).
    """
    return compile_circuit(circuit).evaluate(semiring, assignment, output)


def evaluate_all(
    circuit: Circuit,
    semiring: Semiring,
    assignment: Mapping[Hashable, object] | Callable[[Hashable], object],
) -> List:
    """Evaluate every node; returns the full value array (linear time)."""
    return compile_circuit(circuit).evaluate_all(semiring, assignment)


def evaluate_boolean(
    circuit: Circuit,
    true_variables,
    output: Optional[int] = None,
) -> bool:
    """Fast-path Boolean evaluation: variables in *true_variables* are True.

    Equivalent to evaluating over :data:`repro.semirings.BOOLEAN` with
    the characteristic assignment, but specialized with bitmask
    operations (the Boolean semiring is the workhorse of the transfer
    arguments in Proposition 3.6).  For many assignments at once, use
    :func:`repro.circuits.runtime.evaluate_boolean_batch`, which packs
    up to 64 of them into each pass.
    """
    return compile_circuit(circuit).evaluate_boolean_batch([true_variables], output)[0]


def reference_evaluate_all(
    circuit: Circuit,
    semiring: Semiring,
    assignment: Mapping[Hashable, object] | Callable[[Hashable], object],
) -> List:
    """The seed interpreter: one dispatch loop, one assignment at a time.

    Kept as the executable specification of circuit semantics; the
    compiled runtime must agree with it exactly (see
    ``tests/circuits/test_runtime.py`` and DESIGN.md §7).
    """
    lookup = assignment if callable(assignment) else assignment.__getitem__
    zero, one = semiring.zero, semiring.one
    add, mul = semiring.add, semiring.mul
    ops, lhs, rhs, labels = circuit.ops, circuit.lhs, circuit.rhs, circuit.labels
    values: List = [None] * len(ops)
    for i, op in enumerate(ops):
        if op == OP_ADD:
            values[i] = add(values[lhs[i]], values[rhs[i]])
        elif op == OP_MUL:
            values[i] = mul(values[lhs[i]], values[rhs[i]])
        elif op == OP_VAR:
            values[i] = lookup(labels[i])
        elif op == OP_CONST0:
            values[i] = zero
        elif op == OP_CONST1:
            values[i] = one
        else:
            raise ValueError(f"unknown opcode {op}")
    return values


def reference_evaluate_boolean(
    circuit: Circuit,
    true_variables,
    output: Optional[int] = None,
) -> bool:
    """The seed Boolean interpreter (one assignment per pass).

    Raises on unknown opcodes like :func:`reference_evaluate_all`
    does -- the seed version fell through silently, treating a corrupt
    opcode as ``False``.
    """
    true_set = set(true_variables)
    ops, lhs, rhs, labels = circuit.ops, circuit.lhs, circuit.rhs, circuit.labels
    values = [False] * len(ops)
    for i, op in enumerate(ops):
        if op == OP_ADD:
            values[i] = values[lhs[i]] or values[rhs[i]]
        elif op == OP_MUL:
            values[i] = values[lhs[i]] and values[rhs[i]]
        elif op == OP_VAR:
            values[i] = labels[i] in true_set
        elif op == OP_CONST1:
            values[i] = True
        elif op != OP_CONST0:
            raise ValueError(f"unknown opcode {op}")
    if output is None:
        if len(circuit.outputs) != 1:
            raise ValueError("circuit has multiple outputs; pass output=")
        output = circuit.outputs[0]
    return values[output]


def crosscheck_fixpoint(
    circuit: Circuit,
    facts: Sequence,
    program,
    database,
    semiring: Semiring,
    weights: Optional[Mapping] = None,
    fixpoint: Optional[Callable] = None,
) -> Dict[object, Tuple[object, object]]:
    """Compare circuit outputs against the Datalog fixpoint.

    *facts* pairs the circuit's outputs (positionally) with the IDB
    facts they are meant to compute.  The circuit is evaluated on the
    database valuation (overridden by *weights*) and each output is
    compared -- via ``semiring.eq`` -- with the value *fixpoint*
    computes: a callable with the signature of
    :func:`~repro.datalog.evaluation.naive_evaluation` (the default,
    i.e. the production :class:`~repro.datalog.seminaive.FixpointEngine`;
    tests pass :func:`repro.testing.oracle.oracle_evaluation`).

    Returns ``{fact: (circuit_value, fixpoint_value)}`` for the facts
    that disagree; an empty dict certifies agreement.  This is the
    bridge the construction theorems promise ("the circuit produces
    the provenance"), used by the equivalence tests and benchmarks.
    """
    if fixpoint is None:
        from ..datalog.evaluation import naive_evaluation as fixpoint

    if len(facts) != len(circuit.outputs):
        raise ValueError(
            f"{len(facts)} facts for a circuit with {len(circuit.outputs)} outputs"
        )
    assignment = dict(database.valuation(semiring))
    if weights:
        assignment.update(weights)
    values = evaluate_all(
        circuit, semiring, lambda label: assignment.get(label, semiring.one)
    )
    result = fixpoint(program, database, semiring, weights=weights)
    mismatches: Dict[object, Tuple[object, object]] = {}
    for fact, output in zip(facts, circuit.outputs):
        circuit_value = values[output]
        fixpoint_value = result.value(fact)
        if not semiring.eq(circuit_value, fixpoint_value):
            mismatches[fact] = (circuit_value, fixpoint_value)
    return mismatches
