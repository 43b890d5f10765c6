"""Stream-vs-recompute tests for differential maintenance (DESIGN.md §11).

The contract under test: a :class:`MaintainedFixpoint` fed any
interleaving of single-fact inserts, retracts and reweights is
*indistinguishable* from throwing everything away and recomputing --
not just the values, but the live ground-rule set, the Jacobi
iteration count and the per-round rule-evaluation counter, because the
columnar kernel's trajectory depends only on the ground-rule set that
counting maintenance / DRed pruning keeps exactly equal to a fresh
grounding's.

Three layers:

* a Hypothesis :class:`RuleBasedStateMachine` drives random
  insert/retract/reweight/query streams over a DAG edge universe and
  checks the full equivalence invariant after **every** step, for
  BOOLEAN/COUNTING on an unweighted database and TROPICAL/COUNTING on
  an integer-weighted one (integer weights keep both semirings'
  arithmetic exact, so ``==`` is the right comparison), with a sampled
  query rule checking the production fixpoint and the naive oracle;
* metamorphic insert-then-retract tests: applying a batch of inserts
  and then retracting it (in reverse or shuffled order) must restore
  the *exact* prior state -- values, iterations, rule evaluations,
  ground-rule keys, per-fact support counts, symbol-table length and
  pattern-index row accounting all come back, and the production
  fixpoint sees the restored database identically;
* targeted edge cases: cold start from an empty database, cyclic
  programs whose capped (diverged) state must self-heal through the
  full-kernel refresh path, the IDB-write guard, and listener
  plumbing.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import pytest

from repro.datalog import (
    Database,
    DatalogError,
    Fact,
    FixpointEngine,
    MaintainedFixpoint,
    columnar_grounding,
    default_symbols,
    transitive_closure,
)
from repro.semirings import BOOLEAN, COUNTING, TROPICAL
from repro.testing.oracle import oracle_evaluation

TC = transitive_closure()
COLUMNAR_ENGINE = FixpointEngine()

#: DAG edge universe: u < v over six vertices, so every stream state
#: converges and integer tropical/counting arithmetic stays exact.
VERTICES = 6
EDGE_UNIVERSE = [
    (u, v) for u in range(VERTICES) for v in range(u + 1, VERTICES)
]


def weighted_replay(live):
    return Database.from_edges(live, weights=dict(live))


def plain_replay(live):
    return Database.from_edges(live)


def result_key(result):
    return (result.values, result.iterations, result.converged, result.rule_evaluations)


def nonzero(semiring, values):
    return {f: v for f, v in values.items() if not semiring.is_zero(v)}


class StreamMachine(RuleBasedStateMachine):
    """Random fact streams, crosschecked against recompute each step."""

    def __init__(self):
        super().__init__()
        # Cold start: both maintained fixpoints begin on *empty*
        # databases and must absorb the very first insert.
        self.weighted = Database()
        self.plain = Database()
        self.wfix = MaintainedFixpoint(TC, self.weighted, semirings=(TROPICAL, COUNTING))
        self.pfix = MaintainedFixpoint(TC, self.plain, semirings=(BOOLEAN, COUNTING))
        self.live = {}  # (u, v) → integer weight (as float)

    @rule(
        edge=st.sampled_from(EDGE_UNIVERSE),
        weight=st.integers(min_value=1, max_value=9),
    )
    def insert(self, edge, weight):
        u, v = edge
        fresh = edge not in self.live
        assert self.wfix.insert("E", u, v, weight=float(weight)) is fresh
        assert self.pfix.insert("E", u, v) is fresh
        self.live[edge] = float(weight)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def retract(self, data):
        edge = data.draw(st.sampled_from(sorted(self.live)))
        u, v = edge
        assert self.wfix.retract("E", u, v) == Fact("E", (u, v))
        assert self.pfix.retract(Fact("E", (u, v))) == Fact("E", (u, v))
        del self.live[edge]

    @precondition(lambda self: self.live)
    @rule(data=st.data(), weight=st.integers(min_value=1, max_value=9))
    def reweight(self, data, weight):
        edge = data.draw(st.sampled_from(sorted(self.live)))
        # Routed through the *database*, not the maintainer wrapper:
        # any writer holding the Database handle must be maintained.
        self.weighted.set_weight(Fact("E", edge), float(weight))
        self.live[edge] = float(weight)

    @rule()
    def query_matrix(self):
        """The production fixpoint and the naive oracle agree with the
        maintained state (the derivable set and all three semirings)."""
        wdb, pdb = weighted_replay(self.live), plain_replay(self.live)
        expect_bool = nonzero(BOOLEAN, self.pfix.values(BOOLEAN))
        expect_trop = nonzero(TROPICAL, self.wfix.values(TROPICAL))
        expect_count = nonzero(COUNTING, self.wfix.values(COUNTING))
        for evaluate in (COLUMNAR_ENGINE.evaluate, oracle_evaluation):
            got = evaluate(TC, pdb, BOOLEAN)
            assert nonzero(BOOLEAN, got.values) == expect_bool
            got = evaluate(TC, wdb, TROPICAL)
            assert nonzero(TROPICAL, got.values) == expect_trop
            got = evaluate(TC, wdb, COUNTING)
            assert nonzero(COUNTING, got.values) == expect_count

    @invariant()
    def matches_recompute(self):
        wdb = weighted_replay(self.live)
        for semiring in (TROPICAL, COUNTING):
            fresh = COLUMNAR_ENGINE.evaluate(TC, wdb, semiring)
            assert self.wfix.values(semiring) == fresh.values
            assert result_key(self.wfix.result(semiring)) == result_key(fresh)
        pdb = plain_replay(self.live)
        for semiring in (BOOLEAN, COUNTING):
            fresh = COLUMNAR_ENGINE.evaluate(TC, pdb, semiring)
            assert self.pfix.values(semiring) == fresh.values
            assert result_key(self.pfix.result(semiring)) == result_key(fresh)
        assert self.wfix.rule_keys() == columnar_grounding(TC, wdb).rule_keys()
        assert self.pfix.rule_keys() == columnar_grounding(TC, pdb).rule_keys()


StreamMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=12, deadline=None
)

TestStreamMachine = StreamMachine.TestCase


# -- metamorphic: insert-then-retract leaves no residue --------------------


def dag_database(seed=3, extra=6):
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(VERTICES - 1)]
    pool = [e for e in EDGE_UNIVERSE if e not in set(edges)]
    edges += rng.sample(pool, extra)
    return Database.from_edges(
        edges, weights={e: float(rng.randint(1, 9)) for e in edges}
    )


def state_snapshot(fix, semirings):
    """Everything insert-then-retract must restore, bit for bit."""
    facts = sorted(fix.values(semirings[0]), key=repr)
    return {
        "results": {s.name: result_key(fix.result(s)) for s in semirings},
        "values": {s.name: fix.values(s) for s in semirings},
        "rule_keys": fix.rule_keys(),
        "support": {fact: fix.support_count(fact) for fact in facts},
        "symbols": len(default_symbols()),
        "edb": sorted(fix.database.facts(), key=repr),
    }


def assert_indexes_consistent(fix):
    """Pattern-index accounting: committed rows + pending tail must
    cover the relation exactly (no retracted row lingering in a tail)."""
    for predicate in fix.database.predicates():
        relation = fix.store.relation(predicate)
        if relation is None:
            continue
        for positions in [(0,), (1,)]:
            index = relation.index_for(positions)
            assert len(index._rows) + index._tail_rows == len(relation)
            rows = list(index._rows)
            for tail_rows in index._tail.values():
                rows.extend(tail_rows)
            assert sorted(rows) == list(range(len(relation)))


@pytest.mark.parametrize("order", ["reverse", "shuffled"])
def test_insert_then_retract_restores_state(order):
    database = dag_database()
    fix = MaintainedFixpoint(TC, database, semirings=(TROPICAL, COUNTING))
    before = state_snapshot(fix, (TROPICAL, COUNTING))

    rng = random.Random(11)
    batch = [e for e in EDGE_UNIVERSE if Fact("E", e) not in database][:5]
    for u, v in batch:
        fix.insert("E", u, v, weight=float(rng.randint(1, 9)))
    mutated = state_snapshot(fix, (TROPICAL, COUNTING))
    assert mutated["rule_keys"] != before["rule_keys"]

    undo = list(reversed(batch)) if order == "reverse" else rng.sample(batch, len(batch))
    for u, v in undo:
        fix.retract("E", u, v)

    after = state_snapshot(fix, (TROPICAL, COUNTING))
    assert after == before
    assert_indexes_consistent(fix)

    # A fresh fixpoint and the oracle see the restored database identically.
    for evaluate in (COLUMNAR_ENGINE.evaluate, oracle_evaluation):
        result = evaluate(TC, database, TROPICAL)
        assert result.values == before["values"]["tropical"]


def test_reinsert_after_retract_is_not_a_duplicate():
    """Retract prunes every ground rule touching the fact, so the same
    insert rediscovers exactly the pruned rules -- support counts and
    rule keys must round-trip through retract → insert too."""
    database = dag_database(seed=5)
    fix = MaintainedFixpoint(TC, database, semirings=(COUNTING,))
    before = state_snapshot(fix, (COUNTING,))
    victim = next(iter(database.facts("E")))
    weight = database.weight(victim)

    fix.retract(victim)
    fix.insert(victim, weight=weight)

    assert state_snapshot(fix, (COUNTING,)) == before
    assert_indexes_consistent(fix)


def test_weight_cycle_restores_state():
    database = dag_database(seed=9)
    fix = MaintainedFixpoint(TC, database, semirings=(TROPICAL,))
    victim = next(iter(database.facts("E")))
    weight = database.weight(victim)
    before = state_snapshot(fix, (TROPICAL,))
    database.set_weight(victim, weight + 5.0)
    assert state_snapshot(fix, (TROPICAL,)) != before
    database.set_weight(victim, weight)
    assert state_snapshot(fix, (TROPICAL,)) == before


# -- targeted edge cases ---------------------------------------------------


def test_cold_start_from_empty_database():
    database = Database()
    fix = MaintainedFixpoint(TC, database, semirings=(BOOLEAN,))
    assert fix.values(BOOLEAN) == {}
    assert fix.insert("E", 0, 1)
    assert fix.insert("E", 1, 2)
    assert fix.values(BOOLEAN) == {
        Fact("T", (0, 1)): True,
        Fact("T", (1, 2)): True,
        Fact("T", (0, 2)): True,
    }
    fix.retract("E", 0, 1)
    assert fix.values(BOOLEAN) == {Fact("T", (1, 2)): True}


def test_divergent_counting_self_heals():
    """On a cycle COUNTING never converges; the maintained state must
    track the batch kernel's *capped* trajectory exactly, which the
    incremental paths cannot do -- they must fall back to a full
    refresh whenever the tracked state is not converged."""
    database = Database.from_edges([(0, 1), (1, 2), (2, 0)])
    fix = MaintainedFixpoint(TC, database, semirings=(COUNTING,))
    assert not fix.is_converged(COUNTING)

    rng = random.Random(2)
    live = {(0, 1), (1, 2), (2, 0)}
    pool = [(u, v) for u in range(4) for v in range(4) if u != v]
    for step in range(30):
        if live and rng.random() < 0.4:
            edge = rng.choice(sorted(live))
            fix.retract("E", *edge)
            live.discard(edge)
        else:
            edge = rng.choice(pool)
            if edge in live:
                continue
            fix.insert("E", *edge)
            live.add(edge)
        fresh = COLUMNAR_ENGINE.evaluate(TC, Database.from_edges(sorted(live)), COUNTING)
        assert fix.values(COUNTING) == fresh.values, step
        assert fix.is_converged(COUNTING) is fresh.converged, step


def test_idb_writes_are_rejected():
    database = Database.from_edges([(0, 1)])
    fix = MaintainedFixpoint(TC, database)
    with pytest.raises(DatalogError):
        fix.insert("T", 0, 1)
    with pytest.raises(DatalogError):
        fix.retract("T", 0, 1)
    with pytest.raises(KeyError):
        fix.retract("E", 5, 6)


def test_listeners_observe_applied_deltas():
    database = Database.from_edges([(0, 1)])
    fix = MaintainedFixpoint(TC, database, semirings=(BOOLEAN,))
    seen = []
    fix.add_listener(lambda kind, fact, weight: seen.append((kind, fact, weight)))
    fix.insert("E", 1, 2, weight=2.0)
    database.set_weight(Fact("E", (1, 2)), 3.0)
    fix.retract("E", 1, 2)
    assert seen == [
        ("insert", Fact("E", (1, 2)), 2.0),
        ("weight", Fact("E", (1, 2)), 3.0),
        ("retract", Fact("E", (1, 2)), None),
    ]


def test_detach_freezes_the_maintained_state():
    database = Database.from_edges([(0, 1), (1, 2)])
    fix = MaintainedFixpoint(TC, database, semirings=(BOOLEAN,))
    frozen = fix.values(BOOLEAN)
    fix.detach()
    database.add("E", 2, 3)
    assert fix.values(BOOLEAN) == frozen
