"""Head-to-head: the production id-space grounder vs the naive oracle.

The production grounder (``columnar_grounding``: slot-compiled joins
over the interned columnar store, DESIGN.md §8/§9) must ground the
identical program while probing far fewer candidate rows than the
oracle's nested-loop grounder (``repro.testing.oracle``) and finishing
faster on the wall clock.  Measured on the two Table-1 workloads the
repo benchmarks end to end:

* **Bellman–Ford**: TC over the tropical semiring on random digraphs
  with ``m = 3n``: the production grounder must probe **≥ 2× fewer**
  rows than the oracle at every sweep size (``GROUNDING_STATS`` is
  the shared counter) and win the grounding wall clock.
* **CFG**: Dyck-1 reachability on concatenated bracket paths -- the
  non-linear case (two IDB atoms per recursive rule).

Every sweep point first cross-checks the two for equality -- identical
ground-rule sets and identical tropical/Boolean fixpoint values (the
production fixpoint against the oracle's naive loop) -- so the bench
doubles as an equivalence test at sizes the unit suites don't reach.
Results are appended to ``BENCH_columnar_store.json`` via
``tools/bench_record.py``; CI runs the bench in smoke mode on every PR
and gates the trajectory with ``tools/bench_check.py``.  The default
``solve()`` path end to end (grounding and fixpoint, absolute ms) is
measured by the ``solve`` workload of ``perfbench/``.

Smoke mode (``BENCH_SMOKE=1``, set by CI) shrinks the sweeps but
keeps every assert.
"""

import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.bench_record import append_record  # noqa: E402

from repro.datalog import (  # noqa: E402
    Database,
    columnar_grounding,
    count_join_probes,
    dyck1,
    naive_evaluation,
    transitive_closure,
)
from repro.semirings import BOOLEAN, TROPICAL  # noqa: E402
from repro.testing.oracle import naive_relevant_grounding, oracle_evaluation  # noqa: E402
from repro.workloads import dyck_concatenated_path, random_digraph, random_weights  # noqa: E402

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
ROUNDS = 2 if SMOKE else 4  # best-of repetitions per timing

TC = transitive_closure()
DYCK = dyck1()

BF_SWEEP = (8, 16, 24) if SMOKE else (8, 16, 24, 32, 48)
BF_REPRESENTATIVE = BF_SWEEP[-1]
# Smoke keeps the largest CFG point: the wall-clock assert needs the
# scale where the join dominates fixed overhead (~3 ms naive at
# pairs=8, vs ~0.2 ms at pairs=2 where only overhead is timed).
CFG_SWEEP = (2, 3, 8) if SMOKE else (2, 3, 4, 5, 8)

TRAJECTORY = REPO_ROOT / "BENCH_columnar_store.json"

#: The two sides: the oracle's grounder and the production one.
GROUNDERS = {"naive": naive_relevant_grounding, "columnar": columnar_grounding}


def best_of(fn, rounds=ROUNDS):
    """Best wall-clock over *rounds* runs of *fn*; returns (seconds, result)."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def head_to_head(program, database, semiring, weights=None):
    """Probe counts, grounding wall clock and cross-checked groundings
    for both grounders on one workload instance."""
    probes = {}
    seconds = {}
    grounds = {}
    for side, ground in GROUNDERS.items():
        probes[side], _ = count_join_probes(
            lambda ground=ground: ground(program, database)
        )
        seconds[side], grounds[side] = best_of(lambda ground=ground: ground(program, database))
    assert grounds["columnar"].rule_keys() == grounds["naive"].rule_keys()

    # The production fixpoint must reproduce the oracle's values.
    baseline = oracle_evaluation(
        program, database, semiring, weights=weights, ground=grounds["naive"]
    )
    columnar = naive_evaluation(
        program, database, semiring, weights=weights, ground=grounds["columnar"]
    )
    assert baseline.converged and columnar.converged
    for fact, value in baseline.values.items():
        assert semiring.eq(value, columnar.values[fact]), fact
    return probes, seconds


def print_table(title, rows):
    print(f"\n== {title} ==")
    print(
        f"{'n':>6} {'naive probes':>13} {'columnar':>9} {'ratio':>6} "
        f"{'naive ms':>9} {'columnar ms':>12} {'speedup':>8}"
    )
    for row in rows:
        print(
            f"{row['n']:>6} {row['probes_naive']:>13} {row['probes_columnar']:>9} "
            f"{row['probe_ratio']:>6.2f} {1e3 * row['seconds_naive']:>9.1f} "
            f"{1e3 * row['seconds_columnar']:>12.1f} {row['wall_speedup']:>7.2f}x"
        )


def sweep_rows(workloads, program, semiring, weighted):
    rows = []
    for n, database in workloads:
        weights = random_weights(database, seed=n) if weighted else None
        probes, seconds = head_to_head(program, database, semiring, weights)
        rows.append(
            dict(
                n=n,
                probes_naive=probes["naive"],
                probes_columnar=probes["columnar"],
                probe_ratio=probes["naive"] / max(probes["columnar"], 1),
                seconds_naive=seconds["naive"],
                seconds_columnar=seconds["columnar"],
                wall_speedup=seconds["naive"] / max(seconds["columnar"], 1e-9),
            )
        )
    return rows


def assert_and_record(bench, rows, representative_n):
    for row in rows:
        assert row["probe_ratio"] >= 2.0, row  # the ISSUE's acceptance bar
    # Wall clock: the production grounder must beat the oracle
    # outright at the representative (largest) scale, where the join
    # dominates the fixed interning overhead.  The assert is guarded by a
    # minimum naive duration so it genuinely times the join, never
    # scheduler noise on a sub-millisecond run.
    representative = next(row for row in rows if row["n"] == representative_n)
    if representative["seconds_naive"] >= 2e-3:
        assert representative["seconds_columnar"] < representative["seconds_naive"], representative
    else:  # pragma: no cover - sweep sizes are chosen to avoid this
        print(f"wall-clock assert skipped: naive took {representative['seconds_naive']:.4f}s")
    record = append_record(
        TRAJECTORY,
        bench,
        {
            "smoke": SMOKE,
            "speedup": representative["wall_speedup"],
            "probe_ratio": representative["probe_ratio"],
            "naive_ms": 1e3 * representative["seconds_naive"],
            "columnar_ms": 1e3 * representative["seconds_columnar"],
            "rows": rows,
        },
    )
    print(f"recorded {record['bench']}: speedup {record['speedup']:.2f}x")


def test_columnar_store_bellman_ford(benchmark):
    workloads = [(n, random_digraph(n, 3 * n, seed=n)) for n in BF_SWEEP]
    rows = sweep_rows(workloads, TC, TROPICAL, weighted=True)
    print_table("production grounder vs naive oracle (Bellman–Ford, tropical TC)", rows)
    assert_and_record("columnar_store/bellman_ford", rows, BF_REPRESENTATIVE)

    database = random_digraph(BF_REPRESENTATIVE, 3 * BF_REPRESENTATIVE, seed=BF_REPRESENTATIVE)
    benchmark(columnar_grounding, TC, database)


def test_columnar_store_cfg(benchmark):
    workloads = [
        (2 * pairs + 1, Database.from_labeled_edges(dyck_concatenated_path(pairs)))
        for pairs in CFG_SWEEP
    ]
    rows = sweep_rows(workloads, DYCK, BOOLEAN, weighted=False)
    print_table("production grounder vs naive oracle (Dyck-1 CFG, Boolean)", rows)
    assert_and_record("columnar_store/cfg_dyck", rows, 2 * CFG_SWEEP[-1] + 1)

    database = Database.from_labeled_edges(dyck_concatenated_path(CFG_SWEEP[-1]))
    benchmark(columnar_grounding, DYCK, database)
