"""Regular Path Queries: product construction and evaluation.

An RPQ over a labeled graph is CFL-reachability with a regular ``L``
(Section 5).  The *product graph* of the input with the DFA of ``L``
is the device of Theorem 5.9's second reduction: a path in the product
from ``(u, q₀)`` to ``(v, f)`` with ``f`` accepting corresponds to a
path ``u → v`` whose labels spell a word of ``L``; provenance-wise,
each product edge inherits the tag of its underlying graph edge.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

from ..config import ConfigLike
from ..datalog.ast import Fact
from ..datalog.database import Database
from ..datalog.evaluation import naive_evaluation
from ..datalog.library import transitive_closure
from ..semirings.base import Semiring
from .regular import DFA

__all__ = ["ProductGraph", "product_graph", "solve_rpq", "rpq_pairs"]

Vertex = Hashable
Edge = Tuple[Vertex, str, Vertex]


class ProductGraph:
    """The product of a labeled graph with a DFA.

    * ``database`` -- unlabeled digraph over vertices ``(v, q)`` with
      edge predicate ``E``.
    * ``edge_origin`` -- product-edge fact → original labeled-edge
      fact, the wiring map used when a TC circuit on the product is
      re-tagged into an RPQ circuit (Theorem 5.9, second direction).
    """

    def __init__(
        self,
        database: Database,
        edge_origin: Dict[Fact, Fact],
        dfa: DFA,
        vertices: frozenset,
    ):
        self.database = database
        self.edge_origin = edge_origin
        self.dfa = dfa
        self.vertices = vertices

    def source_node(self, vertex: Vertex) -> Tuple[Vertex, int]:
        return (vertex, self.dfa.start)

    def accept_nodes(self, vertex: Vertex) -> list:
        return [(vertex, q) for q in sorted(self.dfa.accepts)]

    @property
    def size(self) -> int:
        return len(self.database)


def product_graph(
    edges: Iterable[Edge],
    dfa: DFA,
    edge_predicate: str = "E",
) -> ProductGraph:
    """Build the product: edge ``(u, a, v)`` × transition ``q -a→ q'``
    yields product edge ``(u, q) → (v, q')`` tagged by the original
    edge fact.  Size is ``O(m · |δ|)`` = ``O(m)`` for a fixed DFA."""
    database = Database()
    edge_origin: Dict[Fact, Fact] = {}
    vertices: set = set()
    edge_list = list(edges)
    for u, label, v in edge_list:
        vertices.add(u)
        vertices.add(v)
    for u, label, v in edge_list:
        original = Fact(str(label), (u, v))
        for (state, symbol), nxt in dfa.transitions.items():
            if symbol == label:
                product_fact = database.add(edge_predicate, (u, state), (v, nxt))
                edge_origin[product_fact] = original
    return ProductGraph(database, edge_origin, dfa, frozenset(vertices))


def solve_rpq(
    edges: Iterable[Edge],
    dfa: DFA,
    semiring: Semiring,
    weights: Optional[Mapping[Fact, object]] = None,
    max_iterations: Optional[int] = None,
    config: ConfigLike = None,
) -> Dict[Tuple[Vertex, Vertex], object]:
    """Evaluate the RPQ over *semiring* via TC on the product graph.

    *weights* annotates the **original** labeled-edge facts
    ``Fact(label, (u, v))``; they are transported onto product edges.
    Returns ``(u, v) → ⊕_{accepting f} TC((u,q₀),(v,f))`` restricted
    to nonzero entries.  Words of length 0 (ε ∈ L) are excluded, as in
    the chain-Datalog encoding.
    """
    product = product_graph(edges, dfa)
    weights = weights or {}
    product_weights = {
        fact: weights.get(origin, semiring.one)
        for fact, origin in product.edge_origin.items()
    }
    tc = transitive_closure(edge="E", target="PT")
    result = naive_evaluation(
        tc,
        product.database,
        semiring,
        weights=product_weights,
        max_iterations=max_iterations,
        config=config,
    )
    output: Dict[Tuple[Vertex, Vertex], object] = {}
    for fact, value in result.values.items():
        if semiring.is_zero(value):
            continue
        (u, state_u), (v, state_v) = fact.args
        if state_u == product.dfa.start and state_v in product.dfa.accepts:
            key = (u, v)
            output[key] = semiring.add(output.get(key, semiring.zero), value)
    return output


def rpq_pairs(edges: Iterable[Edge], dfa: DFA) -> frozenset:
    """Boolean RPQ answer: pairs connected by an ``L``-labeled path."""
    from ..semirings.numeric import BOOLEAN

    return frozenset(solve_rpq(edges, dfa, BOOLEAN))
