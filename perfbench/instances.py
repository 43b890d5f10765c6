"""Seeded inputs for the benchmark and the oracles that check answers.

Graph *shapes* come from a fixed list of generator seeds: op ``i``
of a workload whose list has ``cycle`` shapes uses shape
``SHAPE_BASE + i % cycle``, so every run times the same shapes in the
same order.  The run's ``--seed`` draws everything else, per op: a
vertex relabelling, the edge weights and every query, so no two ops
share an instance.  Two runs at one seed get identical inputs; two
seeds get different labels, weights and queries over the same shapes.

Every instance is built from ``(seed, kind, index)`` alone, so the
checking pass after the timed window rebuilds it instead of keeping it
in memory.  The oracles here share no code with the program under
test: the shortest-path oracle is a plain-Python Dijkstra.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Mapping, Tuple

from repro.api import Session
from repro.circuits.metrics import measure
from repro.datalog.ast import Fact
from repro.datalog.database import Database
from repro.workloads import random_digraph
from repro.workloads.labeled import random_bracket_graph

#: Offset of the fixed shape list; warm-up instances use their own range.
SHAPE_BASE = 0
WARMUP_SHAPE_BASE = 1_000_000

#: The transitive-closure program of Example 2.1, as text (the solve op
#: parses it every time).
TC_TEXT = "T(X, Y) :- E(X, Y).\nT(X, Y) :- T(X, Z) ∧ E(Z, Y).\n"

Edge = Tuple[int, int]
Weighted = Dict[Fact, float]


def rng_for(seed: int, kind: str, index: int) -> random.Random:
    """The private random stream of one input (string seeds hash stably)."""
    return random.Random(f"{seed}:{kind}:{index}")


def weight(rng: random.Random) -> float:
    """An integral tropical weight: sums of these are exact in floats."""
    return float(rng.randint(1, 9))


class TcInstance:
    """A weighted, relabelled ``random_digraph(n, 3n)``.

    ``source``/``sink`` are the relabelled ends of the generator's
    backbone path, so ``T(source, sink)`` is always derivable.
    """

    __slots__ = ("n", "edges", "weights", "source", "sink", "backbone")

    def __init__(self, n: int, shape_seed: int, rng: random.Random, relabel: bool = True):
        shape = random_digraph(n, 3 * n, seed=shape_seed)
        perm = list(range(n))
        if relabel:
            rng.shuffle(perm)
        self.n = n
        self.edges: List[Edge] = [
            (perm[f.args[0]], perm[f.args[1]]) for f in sorted(shape.facts(), key=repr)
        ]
        self.weights: Dict[Edge, float] = {edge: weight(rng) for edge in self.edges}
        self.source = perm[0]
        self.sink = perm[n - 1]
        self.backbone = {(perm[i], perm[i + 1]) for i in range(n - 1)}

    def database(self) -> Database:
        return Database.from_edges(self.edges, weights=self.weights)

    def output(self) -> Fact:
        return Fact("T", (self.source, self.sink))


def shape_of(index: int, cycle: int) -> int:
    """The generator seed of op *index*'s shape."""
    return SHAPE_BASE + index % cycle


def tc_instance(n: int, seed: int, kind: str, index: int, shape: int, relabel: bool = True) -> TcInstance:
    return TcInstance(n, shape, rng_for(seed, kind, index), relabel)


class DyckInstance:
    """A weighted, relabelled ``random_bracket_graph`` (Example 6.4)."""

    __slots__ = ("edges", "weights", "source", "sink")

    def __init__(self, n: int, m: int, shape_seed: int, rng: random.Random):
        shape = random_bracket_graph(n, m, seed=shape_seed)
        perm = list(range(n))
        rng.shuffle(perm)
        self.edges = [(perm[u], label, perm[v]) for u, label, v in shape]
        self.weights = {edge: weight(rng) for edge in self.edges}
        # The generator's backbone spells L L R R through vertices 0..4.
        self.source = perm[0]
        self.sink = perm[4]

    def database(self) -> Database:
        return Database.from_labeled_edges(self.edges, weights=self.weights)

    def weighted_facts(self) -> Weighted:
        return {Fact(label, (u, v)): w for (u, label, v), w in self.weights.items()}

    def output(self) -> Fact:
        return Fact("S", (self.source, self.sink))


def dyck_instance(n: int, m: int, seed: int, kind: str, index: int, shape: int) -> DyckInstance:
    return DyckInstance(n, m, shape, rng_for(seed, kind, index))


def circuit_shape(program, database: Database, fact: Fact) -> Tuple[int, int]:
    """Size and depth (``circuits.metrics.measure``) of the provenance
    circuit of *fact* on the default ``auto`` construction."""
    shape = measure(Session(program, database).circuit(fact).circuit)
    return shape.size, shape.depth


# -- oracle -------------------------------------------------------------


def shortest_nonempty_paths(
    n: int, weights: Mapping[Edge, float], source: int
) -> List[float]:
    """Tropical ``T(source, v)`` for every ``v``: the least weight of a
    non-empty path, ``inf`` when there is none (so ``T(s, s)`` is the
    shortest cycle through ``s``)."""
    out: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in weights.items():
        out[u].append((v, w))
    inf = float("inf")
    dist = [inf] * n
    heap: List[Tuple[float, int]] = []
    for v, w in out[source]:
        if w < dist[v]:
            dist[v] = w
            heapq.heappush(heap, (w, v))
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in out[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def all_pairs(n: int, weights: Mapping[Edge, float]) -> List[List[float]]:
    return [shortest_nonempty_paths(n, weights, s) for s in range(n)]
