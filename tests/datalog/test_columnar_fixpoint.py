"""The id-space grounding and fixpoint (DESIGN.md §9) against the oracle.

Three layers are pinned here:

* :class:`~repro.datalog.grounding.ColumnarGroundProgram` -- the
  parallel-array grounding produced by
  :func:`~repro.datalog.grounding.columnar_grounding`: rule arrays,
  CSR ``by_head``/``by_body`` adjacency against indexes built by
  brute force from its tuple view, boundary decoding, lowering from
  tuple space;
* the fixpoint -- observational equivalence (values, iterations,
  convergence, rule-evaluation counts) with the naive oracle of
  :mod:`repro.testing.oracle`, over semirings with and without
  closure-compiler kernels, including divergence behaviour;
* the production-vs-oracle workloads -- the production grounding must
  match the oracle's ``rule_keys()`` and the fixpoint its values over
  random digraphs, Dyck-1, same-generation and magic workloads.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    ColumnarGroundProgram,
    Database,
    Fact,
    FixpointEngine,
    columnar_grounding,
    derivable_facts,
    dyck1,
    magic_grounding,
    magic_specialize,
    naive_evaluation,
    relevant_grounding,
    same_generation,
    transitive_closure,
)
from repro.semirings import BOOLEAN, COUNTING, TROPICAL
from repro.semirings.numeric import BooleanSemiring
from repro.testing.oracle import (
    naive_derivable_facts,
    naive_relevant_grounding,
    oracle_evaluation,
)
from repro.workloads import random_digraph
from tests.oracle_checks import assert_matches_oracle, extreme_weights

TC = transitive_closure()
DYCK = dyck1()


class _UncompiledBoolean(BooleanSemiring):
    """Boolean semantics without closure-compiler templates: forces the
    generic bound-method loop, so both kernel paths are exercised."""

    compiled_add_expr = None
    compiled_mul_expr = None


UNCOMPILED_BOOLEAN = _UncompiledBoolean()


def random_edge_db(seed: int, n: int, m: int, seeded_idbs: int = 0) -> Database:
    rng = random.Random(seed)
    db = Database()
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("E", u, v)
    for _ in range(seeded_idbs):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("T", u, v)
    return db


def dyck_db(seed: int, pairs: int) -> Database:
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
    return Database.from_labeled_edges(edges)


# -- the columnar ground program ------------------------------------------


def test_columnar_grounding_matches_tuple_grounding():
    db = random_edge_db(3, 8, 18)
    ground = naive_relevant_grounding(TC, db)
    cground = columnar_grounding(TC, db)
    assert cground.rule_keys() == ground.rule_keys()
    assert cground.idb_facts == ground.idb_facts
    assert len(cground) == len(ground.rules)
    assert cground.size == ground.size
    assert cground.max_body_idbs() == ground.max_body_idbs()
    assert cground.to_ground_program().rule_keys() == ground.rule_keys()
    # The grounding pass records its Boolean round count.
    facts, iterations = derivable_facts(TC, db, ground=cground)
    naive_facts, naive_iterations = naive_derivable_facts(TC, db)
    assert facts == naive_facts
    assert iterations == naive_iterations


def test_csr_adjacency_matches_dict_indexes():
    db = random_edge_db(5, 7, 16)
    cground = columnar_grounding(TC, db)
    ground = cground.to_ground_program()
    by_head_ptr, by_head_rules = cground.by_head_csr()
    by_body_ptr, by_body_rules = cground.by_body_csr()

    def decoded(position):
        rule = ground.rules[position]
        return (rule.rule_index, rule.head, rule.idb_body, rule.edb_body)

    rule_indices_by_head, rules_by_idb_body = {}, {}
    for position, rule in enumerate(ground.rules):
        rule_indices_by_head.setdefault(rule.head, []).append(position)
        for fact in set(rule.idb_body):
            rules_by_idb_body.setdefault(fact, []).append(position)

    for fact, positions in rule_indices_by_head.items():
        fid = cground.find_fact_id(fact)
        got = [by_head_rules[at] for at in range(by_head_ptr[fid], by_head_ptr[fid + 1])]
        assert got == sorted(got)  # ascending rule positions
        assert {decoded(p) for p in got} == {decoded(p) for p in positions}
    for fact, positions in rules_by_idb_body.items():
        fid = cground.find_fact_id(fact)
        got = [by_body_rules[at] for at in range(by_body_ptr[fid], by_body_ptr[fid + 1])]
        assert len(got) == len(set(got))  # deduplicated per rule
        assert {decoded(p) for p in got} == {decoded(p) for p in positions}


def test_from_ground_program_round_trips_and_stays_private():
    from repro.datalog import GLOBAL_SYMBOLS

    db = random_edge_db(9, 6, 12)
    ground = naive_relevant_grounding(TC, db)
    before = len(GLOBAL_SYMBOLS)
    lowered = ColumnarGroundProgram.from_ground_program(ground)
    assert lowered.rule_keys() == ground.rule_keys()
    assert lowered.idb_facts == ground.idb_facts
    assert len(GLOBAL_SYMBOLS) == before  # lowering interns privately
    assert lowered.iterations is None  # no Boolean pass ran


def test_find_fact_id_misses_cleanly():
    db = Database.from_edges([(1, 2), (2, 3)])
    cground = columnar_grounding(TC, db)
    assert cground.find_fact_id(Fact("T", (1, 3))) is not None
    assert cground.find_fact_id(Fact("T", (3, 1))) is None
    assert cground.find_fact_id(Fact("T", ("never-interned", 1))) is None
    assert cground.find_fact_id(Fact("Unknown", (1, 2))) is None


def test_columnar_grounding_handles_rule_constants():
    from repro.datalog import parse_program

    program = parse_program(
        """
        P(X, 777) :- E(X, Y).
        Q(Z) :- P(Z, 777).
        """,
        target="Q",
    )
    db = Database.from_edges([(1, 2), (2, 3)])
    assert columnar_grounding(program, db).rule_keys() == naive_relevant_grounding(
        program, db
    ).rule_keys()
    # Unknown body constants match nothing, as in the oracle.
    impossible = parse_program("T(X, Y) :- E(X, Y), E(Y, 99).", target="T")
    assert len(columnar_grounding(impossible, db)) == 0


def test_columnar_grounding_nullary_atoms():
    """Propositional (zero-arity) atoms must ground and evaluate like
    the oracle (regression: the row-builder once required at least one
    term)."""
    from repro.datalog import Atom, Program, Rule, Variable

    x = Variable("X")
    program = Program(
        [
            Rule(Atom("P", ()), (Atom("Q", ()),)),
            Rule(Atom("T", (x,)), (Atom("E", (x,)), Atom("P", ()))),
        ],
        target="T",
    )
    db = Database()
    db.add("Q")
    db.add("E", 1)
    db.add("E", 2)
    assert_matrix_agrees(program, db, BOOLEAN)
    assert Fact("T", (1,)) in FixpointEngine().evaluate(program, db, BOOLEAN).values


def test_derivable_facts_rejects_ground_without_round_count():
    import pytest

    db = Database.from_edges([(1, 2), (2, 3)])
    lowered = ColumnarGroundProgram.from_ground_program(relevant_grounding(TC, db))
    with pytest.raises(ValueError, match="round count"):
        derivable_facts(TC, db, ground=lowered)


def test_columnar_grounding_repeated_variables():
    from repro.datalog import parse_program

    program = parse_program(
        "S(X) :- E(X, X).\nT2(X, Y) :- S(X), E(X, Y).", target="T2"
    )
    db = Database.from_edges([(1, 1), (1, 2), (2, 2), (2, 3)])
    assert columnar_grounding(program, db).rule_keys() == naive_relevant_grounding(
        program, db
    ).rule_keys()


# -- the fixpoint against the oracle --------------------------------------


@given(seed=st.integers(0, 5000), n=st.integers(3, 7), m=st.integers(3, 14))
@settings(max_examples=40, deadline=None)
def test_columnar_strategy_agrees_boolean_tc(seed, n, m):
    db = random_edge_db(seed, n, m)
    assert_matches_oracle(TC, db, BOOLEAN)


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 12))
@settings(max_examples=30, deadline=None)
def test_columnar_strategy_agrees_tropical_tc(seed, n, m):
    db = random_edge_db(seed, n, m)
    assert_matches_oracle(TC, db, TROPICAL, weights=extreme_weights(TROPICAL, db, seed))


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_columnar_strategy_agrees_dyck(seed, pairs):
    assert_matches_oracle(DYCK, dyck_db(seed, pairs), BOOLEAN)


def test_columnar_strategy_generic_kernel_matches_compiled():
    """The exec-generated kernel and the bound-method fallback must be
    indistinguishable (same loop, ⊗/⊕ inlined vs called)."""
    for seed in range(5):
        db = random_edge_db(seed, 6, 14)
        compiled = FixpointEngine().evaluate(TC, db, BOOLEAN)
        generic = FixpointEngine().evaluate(TC, db, UNCOMPILED_BOOLEAN)
        assert compiled.values == generic.values
        assert compiled.iterations == generic.iterations
        assert compiled.rule_evaluations == generic.rule_evaluations


def test_columnar_strategy_counts_rule_evaluations_like_seminaive():
    # The count is the semi-naive one the oracle derives from its own
    # round-by-round trajectory, strictly below the naive loop's.
    db = random_edge_db(11, 7, 18)
    oracle = oracle_evaluation(TC, db, BOOLEAN)
    result = FixpointEngine().evaluate(TC, db, BOOLEAN)
    assert result.rule_evaluations == oracle.delta_rule_evaluations
    assert 0 < result.rule_evaluations < oracle.rule_evaluations


def test_columnar_strategy_divergence_matches():
    import pytest

    from repro.datalog.evaluation import DivergenceError

    db = Database.from_edges([(1, 2), (2, 1)])
    a = oracle_evaluation(TC, db, COUNTING, max_iterations=6)
    b = FixpointEngine().evaluate(TC, db, COUNTING, max_iterations=6)
    assert not a.converged and not b.converged
    assert a.iterations == b.iterations == 6
    assert a.values == b.values
    assert b.rule_evaluations == a.delta_rule_evaluations
    with pytest.raises(DivergenceError):
        FixpointEngine().evaluate(
            TC, db, COUNTING, max_iterations=6, raise_on_divergence=True
        )


def test_ground_forms_interchange_across_strategies():
    """Any grounding representation feeds the fixpoint: tuple
    groundings (the decoded view, the oracle's) are lowered, id-space
    ones run as they are; the oracle reads the decoded view too."""
    db = random_edge_db(2, 7, 16)
    cground = columnar_grounding(TC, db)
    reference = oracle_evaluation(TC, db, BOOLEAN)
    assert oracle_evaluation(TC, db, BOOLEAN, ground=cground.to_ground_program()).values == (
        reference.values
    )
    for ground_form in (naive_relevant_grounding(TC, db), relevant_grounding(TC, db), cground):
        for evaluate in (FixpointEngine().evaluate, naive_evaluation):
            result = evaluate(TC, db, BOOLEAN, ground=ground_form)
            assert result.values == reference.values, type(ground_form)
            assert result.rule_evaluations == reference.delta_rule_evaluations


# -- production vs oracle across workloads ---------------------------------


def assert_matrix_agrees(program, db, semiring, weights=None):
    """Both grounding entry points match the oracle's rule keys, and
    the fixpoint matches the oracle's values, iterations, convergence
    and rule-evaluation count."""
    reference_keys = naive_relevant_grounding(program, db).rule_keys()
    assert relevant_grounding(program, db).rule_keys() == reference_keys
    result, _ = assert_matches_oracle(program, db, semiring, weights=weights)
    assert result.converged


@given(
    seed=st.integers(0, 5000),
    n=st.integers(3, 6),
    m=st.integers(3, 12),
    seeded_idbs=st.integers(0, 2),
)
@settings(max_examples=15, deadline=None)
def test_matrix_random_digraph(seed, n, m, seeded_idbs):
    # Grounding equality holds with IDB facts seeded into the input;
    # evaluation runs only without them (a seeded IDB body fact that
    # no rule derives has no defined fixpoint value).
    db = random_edge_db(seed, n, m, seeded_idbs)
    if not len(db):
        return
    reference_keys = naive_relevant_grounding(TC, db).rule_keys()
    assert columnar_grounding(TC, db).rule_keys() == reference_keys
    assert relevant_grounding(TC, db).rule_keys() == reference_keys
    if seeded_idbs == 0:
        assert_matrix_agrees(TC, db, BOOLEAN)
        for semiring in (COUNTING, TROPICAL):
            assert_matches_oracle(TC, db, semiring, weights=extreme_weights(semiring, db, seed))


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_matrix_dyck(seed, pairs):
    assert_matrix_agrees(DYCK, dyck_db(seed, pairs), BOOLEAN)


def test_matrix_same_generation():
    rng = random.Random(7)
    db = Database()
    for _ in range(12):
        db.add(rng.choice(["Up", "Flat", "Down"]), rng.randrange(6), rng.randrange(6))
    assert_matrix_agrees(same_generation(), db, BOOLEAN)


def test_matrix_tropical_weights():
    db = random_edge_db(13, 6, 14)
    assert_matrix_agrees(TC, db, TROPICAL, extreme_weights(TROPICAL, db, seed=13))


def test_matrix_magic_workload():
    graph = random_digraph(14, 24, seed=7)
    magic = magic_specialize(TC, 0)
    assert_matrix_agrees(magic, graph, BOOLEAN)


def test_magic_grounding_composes_with_columnar():
    graph = random_digraph(14, 24, seed=9)
    magic = magic_specialize(TC, 0)
    tuple_ground = naive_relevant_grounding(magic, graph)
    cground = magic_grounding(TC, 0, graph)
    assert isinstance(cground, ColumnarGroundProgram)
    assert cground.rule_keys() == tuple_ground.rule_keys()
    a = FixpointEngine().evaluate(magic, graph, BOOLEAN, ground=cground)
    b = oracle_evaluation(magic, graph, BOOLEAN, ground=tuple_ground)
    assert a.values == b.values


# -- circuits stream from the columnar grounding --------------------------


def circuit_outputs(circuit, semiring, assignment):
    from repro.circuits.evaluate import evaluate_all

    values = evaluate_all(
        circuit, semiring, lambda label: assignment.get(label, semiring.one)
    )
    return [values[node] for node in circuit.outputs]


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 12))
@settings(max_examples=10, deadline=None)
def test_generic_circuit_columnar_stream_agrees(seed, n, m):
    from repro.constructions import generic_circuit

    db = random_edge_db(seed, n, m)
    weights = extreme_weights(TROPICAL, db, seed)
    assignment = dict(db.valuation(TROPICAL))
    assignment.update(weights)
    oracle_ground = naive_relevant_grounding(TC, db)
    oracle = oracle_evaluation(TC, db, TROPICAL, weights=weights, ground=oracle_ground)
    expected = [oracle.values[f] for f in oracle_ground.target_facts()]
    assert circuit_outputs(generic_circuit(TC, db), TROPICAL, assignment) == expected
    via_oracle_ground = generic_circuit(TC, db, ground=oracle_ground)
    assert circuit_outputs(via_oracle_ground, TROPICAL, assignment) == expected


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 3))
@settings(max_examples=8, deadline=None)
def test_fringe_circuit_columnar_stream_agrees(seed, pairs):
    from repro.constructions import fringe_circuit

    db = dyck_db(seed, pairs)
    assignment = dict(db.valuation(BOOLEAN))
    oracle_ground = naive_relevant_grounding(DYCK, db)
    oracle = oracle_evaluation(DYCK, db, BOOLEAN, ground=oracle_ground)
    expected = [oracle.values[f] for f in oracle_ground.target_facts()]
    assert circuit_outputs(fringe_circuit(DYCK, db), BOOLEAN, assignment) == expected
    via_oracle_ground = fringe_circuit(DYCK, db, ground=oracle_ground)
    assert circuit_outputs(via_oracle_ground, BOOLEAN, assignment) == expected


def test_circuits_accept_explicit_facts_and_precomputed_ground():
    from repro.constructions import fringe_circuit, generic_circuit

    db = random_edge_db(1, 7, 16)
    assignment = dict(db.valuation(BOOLEAN))
    cground = columnar_grounding(TC, db)
    ground = relevant_grounding(TC, db)
    requested = [Fact("T", (0, 1)), Fact("T", (99, 98)), Fact("E", (0, 1))]
    for build in (generic_circuit, fringe_circuit):
        via_tuple = build(TC, db, facts=requested, ground=ground)
        via_columnar = build(TC, db, facts=requested, ground=cground)
        assert circuit_outputs(via_tuple, BOOLEAN, assignment) == circuit_outputs(
            via_columnar, BOOLEAN, assignment
        ), build.__name__
