"""Ablations for the design choices called out in DESIGN.md §6.

1. **Relevant vs full grounding** (Thm 3.1's input): full grounding is
   the paper's definition; relevant grounding preserves the provenance
   polynomial while dropping the identically-zero rules.  Measures the
   rule-count gap that makes the constructions practical.
2. **Magic-set specialization** (Thm 5.8's device): for a left-linear
   chain program with a bound source, unary IDBs shrink the grounding
   from Θ(n·m) to O(m) -- measured head-to-head on the same inputs.
3. **Production grounder vs the naive oracle** (DESIGN.md §5): the
   same relevant grounding computed by the id-space grounder and by
   the oracle's nested-loop grounder (``repro.testing.oracle``),
   compared on the instrumented join-probe counter
   (``GROUNDING_STATS``).  The production grounder must probe at
   least 2× fewer rows at every sweep size.
"""

from conftest import run_sweep

from repro.datalog import (
    columnar_grounding,
    count_join_probes,
    full_grounding,
    magic_grounding,
    magic_specialize,
    relevant_grounding,
    transitive_closure,
)
from repro.testing.oracle import naive_relevant_grounding
from repro.workloads import random_digraph

TC = transitive_closure()
SWEEP = (6, 8, 10, 12)
REPRESENTATIVE = 10


def ablation_db(n: int):
    # Sparse graph without a guaranteed backbone: plenty of underivable
    # T(u, v) pairs, so full and relevant grounding genuinely separate.
    db = random_digraph(n, max(n, 4), seed=n, ensure_st_path=False)
    db.add("E", 0, 1)  # keep the magic source non-trivial
    return db


def groundings(n: int):
    db = ablation_db(n)
    full = full_grounding(TC, db)
    relevant = relevant_grounding(TC, db)
    magic = magic_grounding(TC, 0, db)
    return full, relevant, magic


def test_ablation_grounding_strategies(benchmark):
    rows = []
    for n in SWEEP:
        full, relevant, magic = groundings(n)
        assert len(magic) <= len(relevant) <= len(full)
        rows.append(
            dict(
                n=n,
                m=max(n, 4) + 1,
                size=len(relevant),
                depth=len(magic),
                extra=f"full={len(full)} relevant={len(relevant)} magic={len(magic)}",
            )
        )
    run_sweep(
        "Ablation / grounding: full vs relevant vs magic (size=relevant, depth=magic)",
        claimed_size="n^2",
        claimed_depth="n",  # magic grounding is O(m) = O(n) here
        rows=rows,
    )
    # The asymptotic separation: magic stays linear while relevant is
    # quadratic-ish and full is cubic-ish in n on these inputs.
    first_full, first_rel, first_magic = (len(g) for g in groundings(SWEEP[0]))
    last_full, last_rel, last_magic = (len(g) for g in groundings(SWEEP[-1]))
    scale = SWEEP[-1] / SWEEP[0]
    assert last_magic / max(first_magic, 1) <= 2.5 * scale
    assert last_full / max(first_full, 1) >= last_magic / max(first_magic, 1)
    benchmark(groundings, REPRESENTATIVE)


def test_ablation_grounder_vs_oracle(benchmark):
    """The production grounder vs the oracle on identical relevant
    groundings.

    The acceptance bar: ≥ 2× fewer join probes at every sweep size,
    same ground rules either way (the deep equivalence is pinned by
    ``tests/datalog/test_grounding_engines.py``).
    """
    rows = []
    for n in SWEEP:
        db = ablation_db(n)
        naive_probes, naive_ground = count_join_probes(lambda: naive_relevant_grounding(TC, db))
        probes, ground = count_join_probes(lambda: columnar_grounding(TC, db))
        assert ground.rule_keys() == naive_ground.rule_keys()
        rows.append(
            dict(
                n=n,
                m=max(n, 4) + 1,
                size=naive_probes,
                depth=probes,
                extra=f"probe ratio={naive_probes / max(probes, 1):.1f}x",
            )
        )
    run_sweep(
        "Ablation / grounder: naive oracle vs production probes (size=oracle, depth=production)",
        claimed_size="n^2",
        claimed_depth="n^2",
        rows=rows,
    )
    for row in rows:
        assert row["size"] >= 2 * row["depth"], row

    # Magic-set chain program: the bound source makes every IDB join a
    # selective lookup, the pattern indexes' best case.
    db = ablation_db(REPRESENTATIVE)
    magic = magic_specialize(TC, 0)
    naive_probes, _ = count_join_probes(lambda: naive_relevant_grounding(magic, db))
    probes, _ = count_join_probes(lambda: columnar_grounding(magic, db))
    assert naive_probes >= 2 * probes, (naive_probes, probes)

    benchmark(columnar_grounding, TC, db)
