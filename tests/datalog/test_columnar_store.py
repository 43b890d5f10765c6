"""The interned columnar fact store and the grounder built on it.

Two layers are pinned here (DESIGN.md §8):

* the storage primitives of ``repro.datalog.store`` -- symbol-table
  interning, arity-checked columnar writers, bisect-range pattern
  indexes (hypothesis-checked against a brute-force filter, including
  rows appended *after* an index was built), and delta views;
* the id-space grounder on top of them -- observational equivalence
  with the naive oracle of :mod:`repro.testing.oracle` (identical
  ``GroundProgram`` as a set of ground rules, identical derivable
  facts, iteration counts and fixpoint values) on random digraphs,
  Dyck-1, same-generation and magic-set workloads, plus the probe
  regression the benchmarks assert.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    ColumnarStore,
    Database,
    DatalogError,
    Fact,
    FixpointEngine,
    SymbolTable,
    count_join_probes,
    derivable_facts,
    dyck1,
    full_grounding,
    magic_grounding,
    magic_specialize,
    relevant_grounding,
    same_generation,
    scoped_symbols,
    transitive_closure,
)
from repro.semirings import BOOLEAN
from repro.testing.oracle import (
    naive_derivable_facts,
    naive_full_grounding,
    naive_relevant_grounding,
    oracle_evaluation,
)
from repro.workloads import random_digraph, random_weights
from tests.oracle_checks import ORACLE_SEMIRINGS, assert_matches_oracle, extreme_weights

TC = transitive_closure()


def rule_set(ground):
    return ground.rule_keys()


def assert_grounder_matches_oracle(program, db):
    """The production grounding (decoded view) matches the oracle's."""
    reference = naive_relevant_grounding(program, db)
    ground = relevant_grounding(program, db)
    assert rule_set(ground) == rule_set(reference)
    assert len(ground.rules) == len(set(ground.rules))
    assert ground.idb_facts == reference.idb_facts


# -- symbol table ---------------------------------------------------------


def test_symbol_table_interning_is_idempotent_and_dense():
    table = SymbolTable()
    a = table.intern("a")
    b = table.intern("b")
    assert table.intern("a") == a
    assert (a, b) == (0, 1)
    assert len(table) == 2
    assert table.decode(a) == "a"
    assert table.decode_row((b, a)) == ("b", "a")
    assert "a" in table and "c" not in table


def test_symbol_table_get_does_not_insert():
    table = SymbolTable()
    assert table.get("missing") is None
    assert table.get_row(("missing",)) is None
    assert len(table) == 0
    table.intern("x")
    assert table.get("x") == 0
    assert table.get_row(("x", "y")) is None  # any miss -> None
    assert len(table) == 1


def test_symbol_table_mixed_hashable_constants():
    # NB: 0/False and 1/True are equal as dict keys, so they intern to
    # one id -- the same conflation Python's tuple-sets (the Database
    # layout) already apply; ids must distinguish everything else.
    table = SymbolTable()
    ids = table.intern_row((0, "0", (1, 2), None))
    assert len(set(ids)) == 4  # no value collisions across types
    assert table.decode_row(ids) == (0, "0", (1, 2), None)
    assert table.intern(False) == table.intern(0)


# -- columnar relations and pattern indexes -------------------------------


def test_relation_append_dedups_and_checks_arity():
    store = ColumnarStore(SymbolTable())
    assert store.insert_fact(Fact("E", (1, 2)))
    assert not store.insert_fact(Fact("E", (1, 2)))
    assert store.size("E") == 1
    # Direct relation writers are arity-checked...
    with pytest.raises(DatalogError):
        store.relation("E").append((0, 1, 2))
    # ... but the store keys relations by (predicate, arity), so a
    # database holding one predicate at two arities (legal for inputs,
    # illegal in programs) lands in two relations instead of clashing.
    assert store.insert_fact(Fact("E", (1, 2, 3)))
    assert store.size("E", 2) == 1 and store.size("E", 3) == 1
    assert store.size("E") == 2
    assert store.relation("E") is None  # ambiguous without an arity
    assert store.relation("E", 2) is not None
    assert store.contains_fact(Fact("E", (1, 2)))
    assert store.contains_fact(Fact("E", (1, 2, 3)))
    assert set(store.facts("E")) == {Fact("E", (1, 2)), Fact("E", (1, 2, 3))}


def test_mixed_arity_database_grounds_like_the_other_engines():
    # Wrong-arity tuples of a program predicate must simply never
    # match, not crash the columnar materialization (regression: the
    # store once fixed a predicate's arity at first insert).
    db = Database.from_edges([(1, 2), (2, 3)])
    db.add("E", 7, 8, 9)
    db.add("T", 4)
    assert_grounder_matches_oracle(TC, db)
    assert naive_derivable_facts(TC, db) == derivable_facts(TC, db)


def test_store_contains_and_decode_roundtrip():
    store = ColumnarStore(SymbolTable())
    facts = [Fact("E", (1, 2)), Fact("E", (2, 3)), Fact("A", ("x",))]
    for fact in facts:
        store.insert_fact(fact)
    for fact in facts:
        assert store.contains_fact(fact)
    assert not store.contains_fact(Fact("E", (3, 1)))
    assert not store.contains_fact(Fact("E", (1, "never-interned")))
    assert not store.contains_fact(Fact("missing", (1,)))
    assert set(store.facts()) == set(facts)
    assert set(store.facts("E")) == {Fact("E", (1, 2)), Fact("E", (2, 3))}
    assert len(store) == 3


@given(
    seed=st.integers(0, 10_000),
    arity=st.integers(1, 3),
    rows=st.integers(1, 60),
    extra=st.integers(0, 30),
)
@settings(max_examples=60, deadline=None)
def test_pattern_index_matches_bruteforce_filter(seed, arity, rows, extra):
    """Bisect-range lookups must agree with a full scan, for every
    bound-position pattern, before and after post-build appends."""
    rng = random.Random(seed)
    store = ColumnarStore(SymbolTable())
    domain = range(max(2, rows // 4))

    def random_row():
        return tuple(rng.choice(domain) for _ in range(arity))

    for _ in range(rows):
        store.insert_fact(Fact("R", random_row()))
    relation = store.relation("R")

    positions = tuple(
        sorted(rng.sample(range(arity), rng.randint(1, arity)))
    )
    # Build the index now, then append more rows: the pending-tail path
    # must keep lookups exact.
    relation.index_for(positions)
    for _ in range(extra):
        store.insert_fact(Fact("R", random_row()))

    all_rows = list(relation.id_rows())
    probe = rng.choice(all_rows)
    key = probe[positions[0]] if len(positions) == 1 else tuple(probe[p] for p in positions)
    got = sorted(relation.row(i) for i in relation.lookup(positions, key))
    want = sorted(
        row
        for row in all_rows
        if all(row[p] == (key if len(positions) == 1 else key[at]) for at, p in enumerate(positions))
    )
    assert got == want


@given(
    seed=st.integers(0, 100_000),
    arity=st.integers(1, 3),
    nops=st.integers(1, 120),
)
@settings(max_examples=60, deadline=None)
def test_pattern_index_interleaved_ops_match_reference(seed, arity, nops):
    """Interleaved appends, pattern lookups and delta reads against a
    naive reference model.

    The build path (index constructed over a finished relation) is
    exercised everywhere; this drives the *pending-tail* path instead:
    lookups keep landing between appends, so tails are probed and
    merged at every fill level, interleaved with watermark/delta reads
    over the same append log (the ISSUE 5 pattern-index satellite).
    """
    rng = random.Random(seed)
    store = ColumnarStore(SymbolTable())
    reference: list = []  # deduplicated id rows in append order
    resident = set()
    marks: list = []  # (watermark, reference length when taken)
    relation = None

    def random_row():
        return tuple(store.symbols.intern(rng.randrange(6)) for _ in range(arity))

    for _ in range(nops):
        action = rng.random()
        if action < 0.5 or relation is None:
            row = random_row()
            store.insert_ids("R", row)
            if row not in resident:
                resident.add(row)
                reference.append(row)
            relation = store.relation("R", arity)
        elif action < 0.85:
            positions = tuple(sorted(rng.sample(range(arity), rng.randint(1, arity))))
            if reference and rng.random() < 0.7:
                probe = rng.choice(reference)
                key_values = tuple(probe[p] for p in positions)
            else:
                key_values = tuple(rng.randrange(6) for _ in positions)
            key = key_values[0] if len(positions) == 1 else key_values
            got = sorted(relation.row(i) for i in relation.lookup(positions, key))
            want = sorted(
                row
                for row in reference
                if all(row[p] == kv for p, kv in zip(positions, key_values))
            )
            assert got == want, (positions, key)
        elif action < 0.95:
            marks.append((store.watermark(), len(reference)))
        elif marks:
            mark, at = marks.pop(rng.randrange(len(marks)))
            views = store.deltas_since(mark)
            got = sorted(row for view in views.values() for row in view.id_rows())
            assert got == sorted(reference[at:])

    # Closing sweep: every index the run built must still agree with a
    # full scan on every row's key.
    if relation is not None:
        for positions in list(relation._indexes):
            for row in reference:
                key_values = tuple(row[p] for p in positions)
                key = key_values[0] if len(positions) == 1 else key_values
                got = sorted(relation.row(i) for i in relation.lookup(positions, key))
                want = sorted(
                    r
                    for r in reference
                    if all(r[p] == kv for p, kv in zip(positions, key_values))
                )
                assert got == want


def test_pattern_index_empty_positions_scans_everything():
    store = ColumnarStore(SymbolTable())
    for u, v in [(1, 2), (2, 3), (3, 4)]:
        store.insert_fact(Fact("E", (u, v)))
    relation = store.relation("E")
    assert sorted(relation.lookup((), ())) == [0, 1, 2]


def test_pattern_index_miss_returns_empty():
    store = ColumnarStore(SymbolTable())
    store.insert_fact(Fact("E", (1, 2)))
    relation = store.relation("E")
    sid = store.symbols.intern(99)
    assert relation.lookup((0,), sid) == []


# -- delta views ----------------------------------------------------------


def test_watermark_and_delta_views():
    store = ColumnarStore(SymbolTable())
    store.insert_fact(Fact("E", (1, 2)))
    mark = store.watermark()
    assert store.deltas_since(mark) == {}
    store.insert_fact(Fact("E", (2, 3)))
    store.insert_fact(Fact("E", (1, 2)))  # duplicate: must not enter a delta
    store.insert_fact(Fact("T", (1, 3)))
    deltas = store.deltas_since(mark)
    assert set(deltas) == {("E", 2), ("T", 2)}  # keyed by (predicate, arity)
    assert len(deltas[("E", 2)]) == 1 and len(deltas[("T", 2)]) == 1
    assert list(deltas[("E", 2)].facts(store.symbols)) == [Fact("E", (2, 3))]
    assert deltas[("T", 2)].predicate == "T"


def test_store_copy_is_independent_and_shares_symbols():
    store = ColumnarStore(SymbolTable())
    store.insert_fact(Fact("E", (1, 2)))
    clone = store.copy()
    assert clone.symbols is store.symbols
    clone.insert_fact(Fact("E", (2, 3)))
    assert store.size("E") == 1 and clone.size("E") == 2
    assert store.contains_fact(Fact("E", (1, 2)))
    assert not store.contains_fact(Fact("E", (2, 3)))


# -- the Database façade --------------------------------------------------


def test_database_materializes_columnar_store_lazily():
    db = Database.from_edges([(1, 2), (2, 3)])
    store = db.columnar_store()
    assert store is db.columnar_store()  # cached
    assert store.size("E") == 2
    assert set(store.facts()) == set(db.facts())
    db.add("E", 3, 4)
    fresh = db.columnar_store()
    assert fresh is not store  # invalidated on add
    assert fresh.size("E") == 3


# -- the grounder against the oracle --------------------------------------


def random_edge_db(seed: int, n: int, m: int) -> Database:
    rng = random.Random(seed)
    db = Database()
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("E", u, v)
    return db


@given(
    seed=st.integers(0, 5000),
    n=st.integers(3, 7),
    m=st.integers(3, 14),
    seeded_idbs=st.integers(0, 3),
)
@settings(max_examples=50, deadline=None)
def test_columnar_relevant_grounding_agrees_tc(seed, n, m, seeded_idbs):
    # seeded_idbs > 0 plants IDB-predicate facts in the input database:
    # their instances are found in round 0 and must not be re-emitted
    # when the fact is re-derived (the delta-view dedup guarantee).
    db = random_edge_db(seed, n, m)
    rng = random.Random(seed + 1)
    for _ in range(seeded_idbs):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("T", u, v)
    assert_grounder_matches_oracle(TC, db)


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_columnar_relevant_grounding_agrees_dyck(seed, pairs):
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
    assert_grounder_matches_oracle(dyck1(), db)


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=25, deadline=None)
def test_columnar_derivable_facts_agree(seed, n, m):
    db = random_edge_db(seed, n, m)
    assert naive_derivable_facts(TC, db) == derivable_facts(TC, db)


@given(seed=st.integers(0, 5000), n=st.integers(3, 5), m=st.integers(3, 7))
@settings(max_examples=20, deadline=None)
def test_columnar_full_grounding_agrees(seed, n, m):
    db = random_edge_db(seed, n, m)
    assert rule_set(naive_full_grounding(TC, db)) == rule_set(full_grounding(TC, db))


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=20, deadline=None)
def test_columnar_fixpoint_values_agree(seed, n, m):
    db = random_edge_db(seed, n, m)
    for semiring in ORACLE_SEMIRINGS:
        assert_matches_oracle(TC, db, semiring, weights=extreme_weights(semiring, db, seed))


def test_columnar_agrees_on_same_generation_and_magic():
    rng = random.Random(7)
    db = Database()
    for _ in range(12):
        db.add(rng.choice(["Up", "Flat", "Down"]), rng.randrange(6), rng.randrange(6))
    assert_grounder_matches_oracle(same_generation(), db)

    graph = random_digraph(14, 24, seed=7)
    assert rule_set(naive_relevant_grounding(magic_specialize(TC, 0), graph)) == rule_set(
        magic_grounding(TC, 0, graph)
    )


def test_columnar_boolean_fixpoint_on_weighted_workload():
    database = random_digraph(20, 60, seed=11)
    weights = random_weights(database, seed=11)
    a = FixpointEngine().evaluate(TC, database, BOOLEAN, weights={f: True for f in weights})
    b = oracle_evaluation(TC, database, BOOLEAN, weights={f: True for f in weights})
    assert a.values == b.values


def test_rule_constants_unknown_to_store_never_match_or_intern():
    """A body constant the store has never interned can match no row;
    the grounder must ground identically to the oracle without growing
    the shared symbol table (lookups use the non-inserting
    SymbolTable.get)."""
    from repro.datalog import GLOBAL_SYMBOLS, parse_program

    program = parse_program("T(X, Y) :- E(X, Y), E(Y, 99).", target="T")
    db = Database.from_edges([(1, 2), (2, 3)])
    db.columnar_store()  # materialize first so growth isolates the grounder
    before = len(GLOBAL_SYMBOLS)
    assert len(relevant_grounding(program, db).rules) == 0
    assert len(GLOBAL_SYMBOLS) == before
    assert len(naive_relevant_grounding(program, db).rules) == 0
    assert GLOBAL_SYMBOLS.get(99) is None

    # ... and when the constant is present, grounder and oracle agree.
    db2 = Database.from_edges([(1, 2), (2, 99)])
    assert_grounder_matches_oracle(program, db2)


def test_head_constants_chain_into_body_lookups():
    """A constant introduced only by a rule head must still be
    matchable by other bodies (heads are interned before any join)."""
    from repro.datalog import parse_program

    program = parse_program(
        """
        P(X, 777) :- E(X, Y).
        Q(Z) :- P(Z, 777).
        """,
        target="Q",
    )
    db = Database.from_edges([(1, 2), (2, 3)])
    naive_facts, _ = naive_derivable_facts(program, db)
    columnar_facts, _ = derivable_facts(program, db)
    assert naive_facts == columnar_facts
    assert Fact("Q", (1,)) in columnar_facts


def test_symbol_table_clear_resets_in_place():
    table = SymbolTable()
    ids = table.intern_row(("a", "b", (1, 2)))
    assert len(table) == 3 and len(set(ids)) == 3
    table.clear()
    assert len(table) == 0
    assert table.get("a") is None
    assert "b" not in table
    # Dense ids restart from 0: the table object itself survives.
    assert table.intern("c") == 0


def test_scoped_symbols_keeps_default_table_clean():
    """The GLOBAL_SYMBOLS leak regression (ISSUE 5): a workload run
    inside scoped_symbols() must not intern a single constant into the
    surrounding default table, across every columnar entry point."""
    from repro.datalog import GLOBAL_SYMBOLS, columnar_grounding, default_symbols

    outer = default_symbols()
    outer_before = len(outer)
    global_before = len(GLOBAL_SYMBOLS)
    with scoped_symbols() as table:
        assert default_symbols() is table
        db = Database.from_edges([("scoped-only-u", "scoped-only-v")])
        store = db.columnar_store()
        assert store.symbols is table
        assert len(relevant_grounding(TC, db).rules) == 1
        assert len(columnar_grounding(TC, db)) == 1
        assert len(table) > 0
    assert default_symbols() is outer
    assert len(outer) == outer_before
    assert len(GLOBAL_SYMBOLS) == global_before
    assert GLOBAL_SYMBOLS.get("scoped-only-u") is None
    # Objects built inside the scope stay usable after exit.
    assert store.contains_fact(Fact("E", ("scoped-only-u", "scoped-only-v")))


def test_scoped_symbols_nests_and_accepts_explicit_table():
    from repro.datalog import default_symbols

    mine = SymbolTable()
    with scoped_symbols() as outer:
        assert default_symbols() is outer
        with scoped_symbols(mine) as inner:
            assert inner is mine
            assert default_symbols() is mine
            ColumnarStore().insert_fact(Fact("E", ("nested-constant",)))
        assert default_symbols() is outer
        assert outer.get("nested-constant") is None
    assert mine.get("nested-constant") is not None


def test_columnar_store_private_symbol_table_sticks():
    from repro.datalog import GLOBAL_SYMBOLS

    table = SymbolTable()
    db = Database.from_edges([("private-only-u", "private-only-v")])
    store = db.columnar_store(symbols=table)
    assert store.symbols is table and len(table) == 2
    assert GLOBAL_SYMBOLS.get("private-only-u") is None
    # The table sticks: later no-arg materializations (what the
    # grounder triggers internally) reuse it, across
    # cache invalidations too.
    assert db.columnar_store(symbols=table) is store
    assert db.columnar_store() is store
    db.add("E", "private-only-u", "private-only-w")
    assert db.columnar_store().symbols is table
    assert GLOBAL_SYMBOLS.get("private-only-w") is None
    ground = relevant_grounding(TC, db)
    assert len(ground.rules) > 0
    assert GLOBAL_SYMBOLS.get("private-only-u") is None  # grounding stayed scoped


# -- probe regression -----------------------------------------------------


def test_columnar_probes_halved_vs_naive_on_tc():
    db = random_digraph(24, 72, seed=5)
    naive_probes, _ = count_join_probes(lambda: naive_relevant_grounding(TC, db))
    columnar_probes, _ = count_join_probes(lambda: relevant_grounding(TC, db))
    assert columnar_probes > 0
    assert naive_probes >= 2 * columnar_probes, (naive_probes, columnar_probes)


def test_columnar_probes_match_indexed_on_magic_chain():
    """The id-space grounder keeps the selectivity ordering and
    exact-pattern candidate sets of the tuple-space indexed grounder
    it replaced, so it spends exactly the probes that grounder did on
    this instance (89) -- its win was constant-factor (id-space rows,
    array columns), not probe count.  Both entry points run the same
    pass."""
    db = random_digraph(30, 60, seed=3)
    magic = magic_specialize(TC, 0)
    tuple_view_probes, _ = count_join_probes(lambda: relevant_grounding(magic, db))
    columnar_probes, _ = count_join_probes(lambda: magic_grounding(TC, 0, db))
    assert columnar_probes == tuple_view_probes == 89, (tuple_view_probes, columnar_probes)
