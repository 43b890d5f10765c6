"""Magic-set specialization for left-linear chain programs (Thm 5.8).

The proof of Theorem 5.8 observes that for a fact ``T(s, t)`` of a
left-linear chain program, a magic-set rewriting yields an equivalent
program with **unary** IDBs: the source constant ``s`` replaces the
leftmost variable of every IDB, so the grounding has size only
``O(m)`` and a constant number of ICO layers gives the linear-size,
logarithmic-depth circuit.

:func:`magic_specialize` performs exactly that rewriting:

* initialization rule ``P(x, y) :- A₁(x, z₁) ∧ ... ∧ Aₖ(zₖ₋₁, y)``
  becomes ``P_s(y) :- A₁(s, z₁) ∧ ... ∧ Aₖ(zₖ₋₁, y)``;
* recursive rule ``P(x, y) :- Q(x, z) ∧ R₁(z, z₁) ∧ ...`` (IDB
  leftmost) becomes ``P_s(y) :- Q_s(z) ∧ R₁(z, z₁) ∧ ...``.

The right-linear mirror (IDB rightmost, sink constant bound) is
provided by :func:`magic_specialize_sink`.

Specialization is a pure program rewrite; its payoff is realized at
grounding time, where the bound constant turns every IDB join into a
selective lookup (the specialized program grounds in ``O(m)`` instead
of ``Θ(n·m)``, DESIGN.md §2).  :func:`magic_grounding` packages the
two steps -- rewrite, then ground in id space -- so callers and
benchmarks can measure the combination directly.
"""

from __future__ import annotations

from typing import Hashable, List

from .ast import Atom, Constant, DatalogError, Fact, Program, Rule
from .database import Database
from .grounding import ColumnarGroundProgram, columnar_grounding

__all__ = [
    "magic_specialize",
    "magic_specialize_sink",
    "magic_grounding",
    "specialized_fact",
]


def _specialized_name(predicate: str, constant: Hashable) -> str:
    return f"{predicate}@{constant}"


def magic_specialize(program: Program, source: Hashable) -> Program:
    """Bind the left argument of every IDB to the constant *source*.

    Requires a left-linear basic chain program (raises
    :class:`DatalogError` otherwise).  The result is a monadic program
    whose fact ``P@s(t)`` has exactly the provenance of ``P(s, t)``
    (rule-for-rule identical derivations).
    """
    if not program.is_left_linear_chain():
        raise DatalogError(
            "magic specialization on the source needs a left-linear chain program"
        )
    return _specialize(program, source, bind_left=True)


def magic_specialize_sink(program: Program, sink: Hashable) -> Program:
    """Mirror of :func:`magic_specialize` for right-linear programs:
    bind the right argument of every IDB to *sink* (``P@t(x) ≙ P(x, t)``)."""
    if not program.is_right_linear_chain():
        raise DatalogError(
            "magic specialization on the sink needs a right-linear chain program"
        )
    return _specialize(program, sink, bind_left=False)


def _specialize(program: Program, constant: Hashable, bind_left: bool) -> Program:
    idbs = program.idb_predicates
    bound = Constant(constant)
    rules: List[Rule] = []
    for rule in program.rules:
        head_x, head_y = rule.head.terms
        bound_var, free_var = (head_x, head_y) if bind_left else (head_y, head_x)
        theta = {bound_var: bound}
        new_head = Atom(_specialized_name(rule.head.predicate, constant), (free_var,))
        body: List[Atom] = []
        for atom in rule.body:
            substituted = atom.substitute(theta)
            if atom.predicate in idbs:
                a_left, a_right = substituted.terms
                kept = a_right if bind_left else a_left
                body.append(Atom(_specialized_name(atom.predicate, constant), (kept,)))
            else:
                body.append(substituted)
        rules.append(Rule(new_head, body))
    return Program(rules, _specialized_name(program.target, constant))


def magic_grounding(
    program: Program, source: Hashable, database: Database
) -> ColumnarGroundProgram:
    """Specialize *program* on *source* and ground the result.

    Equivalent to ``columnar_grounding(magic_specialize(program,
    source), database)``: an id-space
    :class:`~repro.datalog.grounding.ColumnarGroundProgram` ready for
    the fixpoint and the constructions (``to_ground_program()`` gives
    the tuple view).  It has ``O(m)`` rules for a left-linear chain
    program on an ``m``-edge input, versus ``Θ(n·m)`` without
    specialization -- the separation
    ``benchmarks/bench_ablation_grounding.py`` measures.
    """
    return columnar_grounding(magic_specialize(program, source), database)


def specialized_fact(program: Program, source: Hashable, other: Hashable) -> Fact:
    """The specialized fact corresponding to ``target(source, other)``."""
    return Fact(_specialized_name(program.target, source), (other,))
