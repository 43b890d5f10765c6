"""The semi-naive fixpoint against the naive oracle, and the FixpointEngine API.

The production fixpoint is Jacobi-ordered (round ``t`` reads round
``t − 1`` values), so it must reproduce the paper's naive loop (the
oracle, :mod:`repro.testing.oracle`) *exactly*: same value map, same
iteration count, same ``converged`` flag, same divergence behaviour on
non-stable semirings -- while performing strictly fewer rule
evaluations whenever convergence is non-uniform.  Tests parametrized
over ``"naive"`` / ``"seminaive"`` run once on the oracle and once on
the production fixpoint.
"""

import pytest

from repro.circuits import crosscheck_fixpoint
from repro.config import DEFAULT_CONFIG
from repro.constructions import generic_circuit
from repro.datalog import (
    Database,
    DivergenceError,
    Fact,
    FixpointEngine,
    columnar_grounding,
    dyck1,
    naive_evaluation,
    relevant_grounding,
    transitive_closure,
)
from repro.semirings import BOOLEAN, COUNTING, SORP, TROPICAL, CappedCountingSemiring
from repro.testing.oracle import naive_derivable_facts, oracle_evaluation
from repro.workloads import cycle_graph, dyck_concatenated_path, random_digraph, random_weights

TC = transitive_closure()

#: The two fixpoints: the naive oracle and the production engine.
FIXPOINTS = {"naive": oracle_evaluation, "seminaive": naive_evaluation}


def figure1_graph() -> Database:
    return Database.from_edges(
        [
            ("s", "u1"),
            ("s", "u2"),
            ("u1", "v1"),
            ("u1", "v2"),
            ("u2", "v2"),
            ("v1", "t"),
            ("v2", "t"),
        ]
    )


GRAPHS = {
    "figure1": figure1_graph,
    "cycle": lambda: cycle_graph(6),
    "random": lambda: random_digraph(10, 25, seed=5),
}


def weights_for(semiring, database):
    """A non-trivial EDB valuation per semiring (None = all-one)."""
    if semiring is TROPICAL:
        return random_weights(database, seed=11)
    if semiring is SORP:
        return {fact: SORP.var(fact) for fact in database.facts()}
    return None


def assert_same_fixpoint(naive, semi, semiring):
    assert naive.iterations == semi.iterations
    assert naive.converged == semi.converged
    assert set(naive.values) == set(semi.values)
    for fact, value in naive.values.items():
        assert semiring.eq(value, semi.values[fact]), fact
    assert semi.rule_evaluations == naive.delta_rule_evaluations


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize(
    "semiring",
    [BOOLEAN, TROPICAL, CappedCountingSemiring(32), SORP],
    ids=lambda s: s.name,
)
def test_seminaive_matches_naive_fixpoint(semiring, graph_name):
    database = GRAPHS[graph_name]()
    weights = weights_for(semiring, database)
    # The default cap suits absorptive semirings; capped counting is
    # q-stable and needs ~q rounds to saturate on cycles.
    max_iterations = 400 if isinstance(semiring, CappedCountingSemiring) else None
    naive = oracle_evaluation(
        TC, database, semiring, weights=weights, max_iterations=max_iterations
    )
    semi = naive_evaluation(
        TC, database, semiring, weights=weights, max_iterations=max_iterations
    )
    assert naive.converged and semi.converged
    assert_same_fixpoint(naive, semi, semiring)


def test_seminaive_is_the_default_strategy():
    """Every production entry point runs the semi-naive rounds: each
    spends exactly the delta-driven evaluation count, not the naive
    loop's."""
    database = random_digraph(12, 30, seed=4)
    oracle = oracle_evaluation(TC, database, BOOLEAN)
    assert oracle.delta_rule_evaluations < oracle.rule_evaluations
    for result in (
        naive_evaluation(TC, database, BOOLEAN),
        FixpointEngine().evaluate(TC, database, BOOLEAN),
        FixpointEngine(DEFAULT_CONFIG).evaluate(TC, database, BOOLEAN),
    ):
        assert result.values == oracle.values
        assert result.rule_evaluations == oracle.delta_rule_evaluations


def test_seminaive_dyck1_matches_naive():
    program = dyck1()
    database = Database.from_labeled_edges(dyck_concatenated_path(3))
    naive = oracle_evaluation(program, database, BOOLEAN)
    semi = naive_evaluation(program, database, BOOLEAN)
    assert_same_fixpoint(naive, semi, BOOLEAN)


def test_seminaive_does_strictly_less_work_on_deep_graphs():
    database = random_digraph(24, 72, seed=24)
    ground = relevant_grounding(TC, database)
    naive = oracle_evaluation(TC, database, BOOLEAN, ground=ground)
    semi = naive_evaluation(TC, database, BOOLEAN, ground=ground)
    assert naive.iterations >= 3  # non-trivial depth, else the ratio is vacuous
    assert semi.rule_evaluations * 2 <= naive.rule_evaluations
    assert_same_fixpoint(naive, semi, BOOLEAN)


@pytest.mark.parametrize("strategy", sorted(FIXPOINTS))
def test_divergence_reported_identically(strategy):
    database = Database.from_edges([(0, 1), (1, 0), (0, 2)])
    result = FIXPOINTS[strategy](TC, database, COUNTING, max_iterations=25)
    assert not result.converged
    assert result.iterations == 25


@pytest.mark.parametrize("strategy", sorted(FIXPOINTS))
def test_divergence_raises_identically(strategy):
    database = Database.from_edges([(0, 1), (1, 0)])
    with pytest.raises(DivergenceError):
        FIXPOINTS[strategy](
            TC, database, COUNTING, max_iterations=10, raise_on_divergence=True
        )


def test_diverging_value_maps_agree_round_for_round():
    database = Database.from_edges([(0, 1), (1, 0), (0, 2)])
    for rounds in (1, 2, 7, 20):
        naive = oracle_evaluation(TC, database, COUNTING, max_iterations=rounds)
        semi = naive_evaluation(TC, database, COUNTING, max_iterations=rounds)
        assert naive.values == semi.values, rounds
        assert semi.rule_evaluations == naive.delta_rule_evaluations, rounds


def test_capped_counting_converges_on_cycle():
    semiring = CappedCountingSemiring(8)
    database = Database.from_edges([(0, 1), (1, 0), (0, 2)])
    naive = oracle_evaluation(TC, database, semiring, max_iterations=100)
    semi = naive_evaluation(TC, database, semiring, max_iterations=100)
    assert naive.converged and semi.converged
    assert naive.values == semi.values
    # Cyclic derivations saturate at the cap.
    assert semi.values[Fact("T", (0, 0))] == 8


def test_fixpoint_engine_rejects_unknown_strategy():
    # There is one fixpoint: a strategy name is not a config, and the
    # removed keyword is gone.
    with pytest.raises(TypeError):
        FixpointEngine("gauss-seidel")
    with pytest.raises(TypeError):
        FixpointEngine(strategy="naive")


def test_fixpoint_engine_none_resolves_to_default():
    assert FixpointEngine(None).config == DEFAULT_CONFIG
    assert FixpointEngine().config == DEFAULT_CONFIG


def test_engine_boolean_iterations_matches_module_probe():
    from repro.datalog import boolean_iterations

    database = GRAPHS["random"]()
    rounds = boolean_iterations(TC, database)
    assert FixpointEngine().boolean_iterations(TC, database) == rounds
    assert naive_derivable_facts(TC, database)[1] == rounds


def test_grounding_body_index_is_consistent():
    cground = columnar_grounding(TC, GRAPHS["random"]())
    body_ptr, body_rules = cground.by_body_csr()
    head_ptr, head_rules = cground.by_head_csr()
    for fid in range(cground.fact_count):
        for position in body_rules[body_ptr[fid] : body_ptr[fid + 1]]:
            assert fid in cground.idb_flat[cground.idb_indptr[position] : cground.idb_indptr[position + 1]]
    for position in range(len(cground)):
        row = cground.idb_flat[cground.idb_indptr[position] : cground.idb_indptr[position + 1]]
        for fid in row:
            assert position in body_rules[body_ptr[fid] : body_ptr[fid + 1]]
        head = cground.rule_head[position]
        assert position in head_rules[head_ptr[head] : head_ptr[head + 1]]


@pytest.mark.parametrize("strategy", sorted(FIXPOINTS))
def test_circuit_crosschecks_against_engine(strategy):
    database = figure1_graph()
    weights = random_weights(database, seed=3)
    facts = [Fact("T", ("s", "t")), Fact("T", ("s", "v2"))]
    circuit = generic_circuit(TC, database, facts)
    mismatches = crosscheck_fixpoint(
        circuit, facts, TC, database, TROPICAL, weights=weights, fixpoint=FIXPOINTS[strategy]
    )
    assert mismatches == {}
