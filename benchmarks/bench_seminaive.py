"""Head-to-head: the production fixpoint vs the naive oracle.

The production fixpoint (``repro.datalog.seminaive``, semi-naive
rounds over the id-space grounding) must compute the identical
fixpoint as the paper's naive loop (``repro.testing.oracle``) while
re-evaluating only rules whose body changed.  This bench measures the
*rule evaluation* count -- the cost metric the two differ on -- for
both workloads the paper's Table 1 exercises end-to-end:

* Bellman–Ford: TC over the tropical semiring on random digraphs with
  ``m = 3n`` (shortest-path provenance), the ISSUE's acceptance
  workload: semi-naive must do **≥ 2× fewer** rule evaluations.
* CFG: Dyck-1 reachability on concatenated bracket paths (Boolean).

The grounding each side runs on is itself measured:
``_ground_probe_ratio`` computes the same relevant grounding with the
oracle's nested-loop grounder and the production grounder (DESIGN.md
§5) and reports the join-probe ratio on the instrumented
``GROUNDING_STATS`` counter -- the production grounder must probe
**≥ 2× fewer** rows at every sweep size.

Both tests also re-assert value equality (and the semi-naive
evaluation count the oracle derives from its own trajectory) at every
scale, so the bench doubles as an equivalence test at sizes the unit
tests don't reach.
"""

from repro.datalog import (
    Database,
    columnar_grounding,
    count_join_probes,
    dyck1,
    naive_evaluation,
    transitive_closure,
)
from repro.semirings import BOOLEAN, TROPICAL
from repro.testing.oracle import naive_relevant_grounding, oracle_evaluation
from repro.workloads import dyck_concatenated_path, random_digraph, random_weights

TC = transitive_closure()
DYCK = dyck1()

BF_SWEEP = (8, 16, 24, 32, 48)
BF_REPRESENTATIVE = 32
CFG_SWEEP = (2, 3, 4, 5)


def _head_to_head(program, database, semiring, weights=None, grounds=None):
    """Run the oracle and the production fixpoint, each on its own
    grounding of the program; return both results."""
    naive_ground, ground = grounds
    naive = oracle_evaluation(program, database, semiring, weights=weights, ground=naive_ground)
    semi = naive_evaluation(program, database, semiring, weights=weights, ground=ground)
    assert naive.converged and semi.converged
    assert naive.iterations == semi.iterations
    assert semi.rule_evaluations == naive.delta_rule_evaluations
    for fact, value in naive.values.items():
        assert semiring.eq(value, semi.values[fact]), fact
    return naive, semi


def _ground_probe_ratio(program, database):
    """(oracle probes, production probes, (oracle grounding, production
    grounding)); the groundings are returned for reuse so each sweep
    point grounds once per side."""
    naive_probes, naive_ground = count_join_probes(
        lambda: naive_relevant_grounding(program, database)
    )
    probes, ground = count_join_probes(lambda: columnar_grounding(program, database))
    assert ground.rule_keys() == naive_ground.rule_keys()
    return naive_probes, probes, (naive_ground, ground)


def _print_table(title, rows):
    print(f"\n== {title} ==")
    print(
        f"{'n':>6} {'iters':>6} {'naive evals':>12} {'semi evals':>11} {'ratio':>6}"
        f" {'probe ratio':>12}"
    )
    for row in rows:
        print(
            f"{row['n']:>6} {row['iters']:>6} {row['naive']:>12} "
            f"{row['semi']:>11} {row['ratio']:>6.2f} {row['probe_ratio']:>11.2f}x"
        )


def test_seminaive_vs_naive_bellman_ford(benchmark):
    rows = []
    for n in BF_SWEEP:
        database = random_digraph(n, 3 * n, seed=n)
        weights = random_weights(database, seed=n)
        ground_naive, ground_production, grounds = _ground_probe_ratio(TC, database)
        naive, semi = _head_to_head(TC, database, TROPICAL, weights, grounds=grounds)
        rows.append(
            dict(
                n=n,
                iters=naive.iterations,
                naive=naive.rule_evaluations,
                semi=semi.rule_evaluations,
                ratio=naive.rule_evaluations / max(semi.rule_evaluations, 1),
                probe_ratio=ground_naive / max(ground_production, 1),
            )
        )
    _print_table("production semi-naive vs naive oracle (Bellman–Ford, tropical TC)", rows)
    for row in rows:
        assert row["ratio"] > 1.0, row
        assert row["probe_ratio"] >= 2.0, row
    representative = next(row for row in rows if row["n"] == BF_REPRESENTATIVE)
    assert representative["ratio"] >= 2.0, representative

    database = random_digraph(BF_REPRESENTATIVE, 3 * BF_REPRESENTATIVE, seed=BF_REPRESENTATIVE)
    weights = random_weights(database, seed=BF_REPRESENTATIVE)
    ground = columnar_grounding(TC, database)
    benchmark(naive_evaluation, TC, database, TROPICAL, weights=weights, ground=ground)


def test_seminaive_vs_naive_cfg(benchmark):
    rows = []
    for pairs in CFG_SWEEP:
        database = Database.from_labeled_edges(dyck_concatenated_path(pairs))
        ground_naive, ground_production, grounds = _ground_probe_ratio(DYCK, database)
        naive, semi = _head_to_head(DYCK, database, BOOLEAN, grounds=grounds)
        rows.append(
            dict(
                n=2 * pairs + 1,
                iters=naive.iterations,
                naive=naive.rule_evaluations,
                semi=semi.rule_evaluations,
                ratio=naive.rule_evaluations / max(semi.rule_evaluations, 1),
                probe_ratio=ground_naive / max(ground_production, 1),
            )
        )
    _print_table("production semi-naive vs naive oracle (Dyck-1 CFG, Boolean)", rows)
    for row in rows:
        assert row["ratio"] > 1.0, row
        assert row["probe_ratio"] >= 2.0, row

    database = Database.from_labeled_edges(dyck_concatenated_path(CFG_SWEEP[-1]))
    ground = columnar_grounding(DYCK, database)
    benchmark(naive_evaluation, DYCK, database, BOOLEAN, ground=ground)
