"""The production grounder vs the naive oracle: equivalence and probe regression.

The production grounder (slot-compiled id-space joins over pattern
indexes, selectivity-ordered bodies, one fused semi-naive pass) must
be a pure optimization of the oracle's nested-loop grounder
(:mod:`repro.testing.oracle`): identical :class:`GroundProgram` (as a
set of ground rules), identical derivable facts and Boolean iteration
counts, identical fixpoint values -- with measurably fewer join
probes.  DESIGN.md §5 describes the design; these tests pin its
observable contract.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionConfig
from repro.datalog import (
    GROUNDING_STATS,
    Database,
    FixpointEngine,
    columnar_grounding,
    count_join_probes,
    derivable_facts,
    dyck1,
    full_grounding,
    magic_grounding,
    magic_specialize,
    naive_evaluation,
    relevant_grounding,
    same_generation,
    transitive_closure,
)
from repro.semirings import BOOLEAN, TROPICAL
from repro.testing.oracle import (
    naive_derivable_facts,
    naive_full_grounding,
    naive_relevant_grounding,
    oracle_evaluation,
)
from repro.workloads import random_digraph, random_weights
from tests.oracle_checks import ORACLE_SEMIRINGS, assert_matches_oracle, extreme_weights

TC = transitive_closure()


def random_edge_db(seed: int, n: int, m: int) -> Database:
    rng = random.Random(seed)
    db = Database()
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("E", u, v)
    return db


def rule_set(ground):
    return ground.rule_keys()


def assert_same_ground_program(naive, production):
    # Same rules as a set, no duplicates on either side, same head index.
    assert rule_set(naive) == rule_set(production)
    assert len(naive.rules) == len(production.rules)
    assert naive.idb_facts == production.idb_facts
    for fact in naive.idb_facts:
        assert {
            (r.rule_index, r.idb_body, r.edb_body) for r in naive.rules_for(fact)
        } == {(r.rule_index, r.idb_body, r.edb_body) for r in production.rules_for(fact)}


# -- equivalence properties (seeded random digraphs) ---------------------


@given(
    seed=st.integers(0, 5000),
    n=st.integers(3, 7),
    m=st.integers(3, 14),
    seeded_idbs=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_relevant_grounding_engines_agree_tc(seed, n, m, seeded_idbs):
    # seeded_idbs > 0 puts facts for the IDB predicate directly in the
    # input database: instances over them are discoverable in round 0
    # *and* the facts may be re-derived later -- the fused pass must
    # not re-emit their instances (regression: duplicated GroundRules).
    db = random_edge_db(seed, n, m)
    rng = random.Random(seed + 1)
    for _ in range(seeded_idbs):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("T", u, v)
    assert_same_ground_program(naive_relevant_grounding(TC, db), relevant_grounding(TC, db))


def test_no_duplicate_rules_with_database_idb_facts():
    # Minimal reproducer: T(2,3) is both an input fact and re-derived
    # from E(2,3), so its instance T(2,4) :- T(2,3), E(3,4) is found in
    # round 0 and must not be emitted again when T(2,3) enters a delta.
    db = Database.from_edges([(2, 3), (3, 4)])
    db.add("T", 2, 3)
    naive = naive_relevant_grounding(TC, db)
    production = relevant_grounding(TC, db)
    assert len(production.rules) == len(set(production.rules))
    assert_same_ground_program(naive, production)
    assert naive_derivable_facts(TC, db) == derivable_facts(TC, db)


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_relevant_grounding_engines_agree_dyck(seed, pairs):
    # Non-linear program: rules with two IDB body atoms exercise the
    # within-round duplicate handling of the fused pass.
    rng = random.Random(seed)
    edges = []
    node = 0
    for _ in range(pairs):
        edges.append((node, "L", node + 1))
        edges.append((node + 1, "R", node + 2))
        node += 2
    for _ in range(pairs):
        u, v = rng.randrange(node + 1), rng.randrange(node + 1)
        if u != v:
            edges.append((u, rng.choice(["L", "R"]), v))
    db = Database.from_labeled_edges(edges)
    assert_same_ground_program(
        naive_relevant_grounding(dyck1(), db), relevant_grounding(dyck1(), db)
    )


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=30, deadline=None)
def test_derivable_facts_engines_agree(seed, n, m):
    db = random_edge_db(seed, n, m)
    assert naive_derivable_facts(TC, db) == derivable_facts(TC, db)


@given(seed=st.integers(0, 5000), n=st.integers(3, 5), m=st.integers(3, 7))
@settings(max_examples=20, deadline=None)
def test_full_grounding_engines_agree(seed, n, m):
    db = random_edge_db(seed, n, m)
    assert_same_ground_program(naive_full_grounding(TC, db), full_grounding(TC, db))


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=20, deadline=None)
def test_fixpoint_values_engine_independent(seed, n, m):
    db = random_edge_db(seed, n, m)
    for semiring in ORACLE_SEMIRINGS:
        weights = extreme_weights(semiring, db, seed)
        assert_matches_oracle(TC, db, semiring, weights=weights)


def test_engines_agree_on_same_generation_and_magic():
    # Non-chain linear program with a 3-atom body, plus the specialized
    # magic program (constants inside rule bodies).
    rng = random.Random(7)
    db = Database()
    for _ in range(12):
        db.add(rng.choice(["Up", "Flat", "Down"]), rng.randrange(6), rng.randrange(6))
    assert_same_ground_program(
        naive_relevant_grounding(same_generation(), db),
        relevant_grounding(same_generation(), db),
    )

    graph = random_digraph(14, 24, seed=7)
    assert_same_ground_program(
        naive_relevant_grounding(magic_specialize(TC, 0), graph),
        magic_grounding(TC, 0, graph).to_ground_program(),
    )


# -- instrumentation and regression --------------------------------------


def test_join_probes_drop_on_magic_chain_program():
    """Regression: the production grounder must cut join probes at
    least 2× against the oracle on the magic-set specialized chain
    program (the Theorem 5.8 workload; the probes counter is the
    metric of DESIGN.md §6)."""
    db = random_digraph(30, 60, seed=3)
    magic = magic_specialize(TC, 0)
    naive_probes, _ = count_join_probes(lambda: naive_relevant_grounding(magic, db))
    production_probes, _ = count_join_probes(lambda: relevant_grounding(magic, db))
    assert production_probes > 0
    assert naive_probes >= 2 * production_probes, (naive_probes, production_probes)


def test_join_probes_drop_on_tc():
    db = random_digraph(24, 72, seed=5)
    naive_probes, _ = count_join_probes(lambda: naive_relevant_grounding(TC, db))
    production_probes, _ = count_join_probes(lambda: relevant_grounding(TC, db))
    assert naive_probes >= 2 * production_probes, (naive_probes, production_probes)


def test_grounding_stats_counts_ground_rules():
    db = Database.from_edges([(0, 1), (1, 2)])
    GROUNDING_STATS.reset()
    ground = relevant_grounding(TC, db)
    assert GROUNDING_STATS.ground_rules == len(ground.rules)
    assert GROUNDING_STATS.matches <= GROUNDING_STATS.probes


# -- context-local probe capture (the GROUNDING_STATS satellite) ----------


def test_count_join_probes_does_not_touch_the_global_accumulator():
    """The ISSUE 5 stats-pollution regression: a capture is private --
    neither its counts leak into GROUNDING_STATS nor the global's
    prior counts leak into the capture."""
    db = random_digraph(10, 20, seed=0)
    GROUNDING_STATS.reset()
    GROUNDING_STATS.probes = 123_456  # stale noise a capture must not read
    probes, ground = count_join_probes(lambda: relevant_grounding(TC, db))
    assert 0 < probes < 123_456
    assert len(ground.rules) > 0
    assert GROUNDING_STATS.probes == 123_456  # untouched by the capture
    GROUNDING_STATS.reset()


def test_count_join_probes_nested_captures_stay_separate():
    db = random_digraph(10, 20, seed=1)
    solo_production, _ = count_join_probes(lambda: relevant_grounding(TC, db))
    solo_naive, _ = count_join_probes(lambda: naive_relevant_grounding(TC, db))
    assert solo_naive > solo_production

    def outer():
        inner, _ = count_join_probes(lambda: naive_relevant_grounding(TC, db))
        relevant_grounding(TC, db)
        return inner

    outer_probes, inner_probes = count_join_probes(outer)
    # The nested (naive, larger) capture stays out of the outer count.
    assert outer_probes == solo_production
    assert inner_probes == solo_naive


def test_count_join_probes_concurrent_runs_do_not_pollute_each_other():
    """Interleaved measurements from concurrent threads each see
    exactly their own run's probes (contextvars isolation)."""
    import threading

    small = random_digraph(8, 16, seed=2)
    big = random_digraph(16, 40, seed=3)
    solo_small, _ = count_join_probes(lambda: relevant_grounding(TC, small))
    solo_big, _ = count_join_probes(lambda: relevant_grounding(TC, big))
    assert solo_small != solo_big
    results = {}

    def measure(name, db, repeats):
        counts = [
            count_join_probes(lambda: relevant_grounding(TC, db))[0]
            for _ in range(repeats)
        ]
        results[name] = counts

    threads = [
        threading.Thread(target=measure, args=("small", small, 4)),
        threading.Thread(target=measure, args=("big", big, 4)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results["small"] == [solo_small] * 4
    assert results["big"] == [solo_big] * 4


# -- the removed engine knob ----------------------------------------------


def test_unknown_engine_rejected():
    # There is one grounder: every former engine spelling fails loudly.
    db = Database.from_edges([(0, 1)])
    with pytest.raises(TypeError):
        relevant_grounding(TC, db, engine="btree")
    with pytest.raises(TypeError):
        derivable_facts(TC, db, engine="indexed")
    with pytest.raises(TypeError):
        full_grounding(TC, db, engine="naive")
    with pytest.raises(TypeError):
        FixpointEngine(engine="columnar")
    with pytest.raises(TypeError):
        ExecutionConfig(engine="indexed")


def test_engine_none_resolves_to_default():
    # With no engine to pick, every grounding entry point is the one
    # production pass, and the fixpoint over it matches the oracle.
    db = Database.from_edges([(0, 1), (1, 2)])
    assert_same_ground_program(
        columnar_grounding(TC, db).to_ground_program(), relevant_grounding(TC, db)
    )
    assert naive_evaluation(TC, db, BOOLEAN).values == oracle_evaluation(TC, db, BOOLEAN).values


def test_weighted_evaluation_matches_across_engines_at_scale():
    # The production fixpoint over either grounding -- its own, or the
    # oracle's lowered into id space -- matches the oracle's values.
    database = random_digraph(20, 60, seed=11)
    weights = random_weights(database, seed=11)
    naive_ground = naive_relevant_grounding(TC, database)
    want = oracle_evaluation(TC, database, TROPICAL, weights=weights, ground=naive_ground)
    a = naive_evaluation(TC, database, TROPICAL, weights=weights, ground=naive_ground)
    b = naive_evaluation(TC, database, TROPICAL, weights=weights)
    assert a.values == b.values == want.values
    assert a.rule_evaluations == b.rule_evaluations == want.delta_rule_evaluations
