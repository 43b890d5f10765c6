"""The generic provenance circuit (Theorem 3.1, Deutch et al. [10]).

For any Datalog program over an absorptive semiring, a circuit of
polynomial size computes every provenance polynomial: layer ``k``
evaluates one application of the grounded ICO, and ``N`` layers
suffice, where ``N`` is the number of derivable IDB facts -- a tight
proof tree repeats no IDB fact along a root-to-leaf path, so its
height is at most ``N``, and monomials of non-tight trees are absorbed
(Proposition 2.4).

Size is ``O(N · M)`` (``M`` = grounding size) and depth ``O(N log n)``
-- polynomial but with the linear-in-``N`` depth the rest of the paper
improves on for special classes.

Gates are hash-consed, so when the symbolic layer values stabilize
early (e.g. bounded programs, acyclic inputs) the construction stops
adding gates and exits.

The stage loop is the *symbolic* twin of the semi-naive fixpoint
(:mod:`repro.datalog.seminaive`), streamed from the same id-space
grounding: per-fact node deltas plus the grounding's body CSR mean
each stage only rebuilds ``⊗``-chains for rules whose body node
actually changed.  Hash-consing
makes this an exact optimization -- an unchanged head re-folds to the
identical gate id -- so the constructed circuit is the same one the
dense loop produced, found with far fewer builder calls.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..circuits.circuit import Circuit, CircuitBuilder
from ..datalog.ast import Fact, Program
from ..datalog.database import Database
from ..datalog.grounding import (
    ColumnarGroundProgram,
    GroundProgram,
    columnar_grounding,
)

__all__ = ["generic_circuit"]


def generic_circuit(
    program: Program,
    database: Database,
    facts: Optional[Union[Fact, Sequence[Fact]]] = None,
    stages: Optional[int] = None,
    ground: Optional[Union[GroundProgram, ColumnarGroundProgram]] = None,
) -> Circuit:
    """Build the Theorem 3.1 circuit for *facts* (default: all target
    facts) of *program* on *database*.

    *stages* defaults to the sound bound ``N`` (number of derivable
    IDB facts); pass a smaller value only with an external guarantee
    (e.g. a boundedness constant -- that case is
    :func:`repro.constructions.bounded.bounded_circuit`).  The program
    is grounded straight into id space
    (:func:`~repro.datalog.grounding.columnar_grounding`) unless a
    precomputed grounding is passed as *ground* (a tuple
    :class:`~repro.datalog.grounding.GroundProgram` is lowered first).

    The stage loop streams from the columnar arrays (DESIGN.md §9):
    node ids live in one dense list indexed by fact id, rules and the
    ``by_body`` / ``by_head`` adjacency are read from the CSR arrays,
    and dirty bookkeeping is ``bytearray`` marks -- the only
    :class:`Fact` objects ever materialized are the EDB input labels
    (once each) and the requested outputs.  The circuit's input labels
    are the EDB :class:`Fact` objects, so
    ``database.valuation(semiring)`` is a ready-made assignment.
    """
    if ground is None:
        cground = columnar_grounding(program, database)
    elif isinstance(ground, ColumnarGroundProgram):
        cground = ground
    else:
        cground = ColumnarGroundProgram.from_ground_program(ground)
    head_fids = cground.idb_fact_ids()
    if stages is None:
        stages = max(len(head_fids), 1)

    builder = CircuitBuilder(share=True)
    nfacts = cground.fact_count
    nrules = len(cground)
    decode = cground.decode_fact
    # Node slot per fact id: const0 for IDB facts, an input gate for
    # EDB facts (a fid outside both sets cannot occur in a relevant
    # grounding; the None placeholder fails fast if it ever does).
    value: List[Optional[int]] = [None] * nfacts
    is_head = bytearray(nfacts)
    const0 = builder.const0()
    for fid in head_fids:
        value[fid] = const0
        is_head[fid] = 1
    for fid in cground.edb_fact_ids():
        if not is_head[fid]:
            value[fid] = builder.var(decode(fid))

    idb_indptr, idb_flat = cground.idb_indptr, cground.idb_flat
    edb_indptr, edb_flat = cground.edb_indptr, cground.edb_flat
    rule_head = cground.rule_head
    by_head_ptr, by_head_rules = cground.by_head_csr()
    by_body_ptr, by_body_rules = cground.by_body_csr()
    idb_rows: List[Sequence[int]] = [
        tuple(idb_flat[idb_indptr[position] : idb_indptr[position + 1]])
        for position in range(nrules)
    ]
    mul, add_all = builder.mul, builder.add_all
    rule_edb_product: List[int] = [
        builder.mul_all(
            [
                value[edb_flat[at]]
                for at in range(edb_indptr[position], edb_indptr[position + 1])
            ]
        )
        for position in range(nrules)
    ]

    rule_node: List[int] = list(rule_edb_product)
    head_mark = bytearray(nfacts)
    dirty: Sequence[int] = range(nrules)
    for _ in range(stages):
        dirty_heads: List[int] = []
        for position in dirty:
            node = rule_edb_product[position]
            for fid in idb_rows[position]:
                node = mul(node, value[fid])
            rule_node[position] = node
            head = rule_head[position]
            if not head_mark[head]:
                head_mark[head] = 1
                dirty_heads.append(head)
        delta_fids: List[int] = []
        delta_nodes: List[int] = []
        for head in dirty_heads:
            head_mark[head] = 0
            fresh = add_all(
                [
                    rule_node[by_head_rules[at]]
                    for at in range(by_head_ptr[head], by_head_ptr[head + 1])
                ]
            )
            if fresh != value[head]:
                delta_fids.append(head)
                delta_nodes.append(fresh)
        if not delta_fids:
            break  # symbolic fixpoint: further layers are no-ops
        for head, node in zip(delta_fids, delta_nodes):
            value[head] = node
        rule_mark = bytearray(nrules)
        next_dirty: List[int] = []
        for head in delta_fids:
            for at in range(by_body_ptr[head], by_body_ptr[head + 1]):
                position = by_body_rules[at]
                if not rule_mark[position]:
                    rule_mark[position] = 1
                    next_dirty.append(position)
        next_dirty.sort()
        dirty = next_dirty

    # Outputs decode at the boundary only: target facts in repr
    # order, or the requested facts in the order given.
    output_nodes: List[int] = []
    if facts is None:
        targets = sorted(
            ((decode(fid), fid) for fid in cground.target_fact_ids()),
            key=lambda pair: repr(pair[0]),
        )
        output_nodes = [value[fid] for _, fid in targets]
    else:
        for fact in [facts] if isinstance(facts, Fact) else facts:
            fid = cground.find_fact_id(fact)
            if fid is not None and is_head[fid]:
                output_nodes.append(value[fid])
            else:
                output_nodes.append(builder.const0())
    return builder.build(output_nodes, prune=True)

