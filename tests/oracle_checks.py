"""Production-vs-oracle properties shared by the test suites.

The production pipeline (``columnar_grounding`` feeding the semi-naive
fixpoint) must agree with the naive oracle of
:mod:`repro.testing.oracle` on everything observable: the ground-rule
set, the value of every IDB fact, the iteration count, the
``converged`` flag, and the ⊗-term recomputations the delta-driven
rounds spend.
"""

from __future__ import annotations

import math
import random

from repro.api import ExecutionConfig, solve
from repro.datalog import columnar_grounding
from repro.semirings import BOOLEAN, COUNTING, TROPICAL
from repro.testing.oracle import naive_relevant_grounding, oracle_evaluation

#: The semirings every oracle property runs over.
ORACLE_SEMIRINGS = (BOOLEAN, COUNTING, TROPICAL)


def extreme_weights(semiring, database, seed=0):
    """A valuation of every EDB fact that includes the semiring's
    boundary values: ``0`` everywhere, and ``inf`` for TROPICAL (its
    additive identity; ``inf`` is outside COUNTING's carrier ℕ, where
    ``inf · 0`` would be NaN)."""
    rng = random.Random(seed)
    if semiring is BOOLEAN:
        pool = [False, True, True]
    elif semiring is COUNTING:
        pool = [0, 1, 1, 2, 3]
    elif semiring is TROPICAL:
        pool = [0.0, math.inf, 1.0, 2.0, 5.0, 9.0]
    else:
        raise ValueError(f"no extreme weights for {semiring.name}")
    return {fact: rng.choice(pool) for fact in sorted(database.facts(), key=repr)}


def assert_matches_oracle(
    program, database, semiring, weights=None, max_iterations=None, backend=None
):
    """Check the production pipeline against the oracle; returns
    ``(production result, oracle result)``."""
    oracle_ground = naive_relevant_grounding(program, database)
    assert columnar_grounding(program, database).rule_keys() == oracle_ground.rule_keys()
    got = solve(
        program,
        database,
        semiring,
        config=ExecutionConfig(backend=backend),
        weights=weights,
        max_iterations=max_iterations,
    )
    want = oracle_evaluation(
        program,
        database,
        semiring,
        weights=weights,
        ground=oracle_ground,
        max_iterations=max_iterations,
    )
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.rule_evaluations == want.delta_rule_evaluations
    assert set(got.values) == set(want.values)
    for fact, value in want.values.items():
        assert semiring.eq(got.values[fact], value), (fact, got.values[fact], value)
    return got, want
