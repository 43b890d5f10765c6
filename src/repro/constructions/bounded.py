"""Circuits for bounded programs (Theorem 4.3).

A program bounded with constant ``k`` (Definition 4.1) reaches its
fixpoint in ``k`` ICO rounds on every input, so ``k`` layers of the
generic construction suffice: polynomial size and -- because ``k`` is
a constant and each layer's summations are balanced -- depth
``O(log |I|)``.  By Proposition 3.3 this also gives polynomial-size
formulas.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..circuits.circuit import Circuit
from ..datalog.ast import Fact, Program
from ..datalog.database import Database
from ..datalog.grounding import ColumnarGroundProgram, GroundProgram
from .generic import generic_circuit

__all__ = ["bounded_circuit"]


def bounded_circuit(
    program: Program,
    database: Database,
    bound: int,
    facts: Optional[Union[Fact, Sequence[Fact]]] = None,
    ground: Optional[Union[GroundProgram, ColumnarGroundProgram]] = None,
) -> Circuit:
    """The Theorem 4.3 circuit: *bound* ICO layers, balanced sums.

    *bound* is the boundedness constant ``k`` of Definition 4.1 --
    a semantic property of the program/semiring pair that the caller
    must supply (deciding it is undecidable in general; see
    :mod:`repro.boundedness` for certifiers on decidable fragments).
    With too small a *bound* the circuit under-approximates the
    provenance; tests cross-check against tight proof trees.
    """
    if bound < 1:
        raise ValueError("the boundedness constant must be ≥ 1")
    return generic_circuit(program, database, facts, stages=bound, ground=ground)
