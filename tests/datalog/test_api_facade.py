"""The unified ``repro.api`` facade and the one-pipeline contract.

Every execution knob that still chooses something is a field of one
frozen :class:`repro.config.ExecutionConfig`.  This suite pins the
contract:

* ``ExecutionConfig`` holds exactly ``construction``,
  ``optimize_depth``, ``backend`` and ``prune``, and validates them;
* ``repro.api.solve`` and every other fixpoint entry point agree with
  the naive oracle;
* the removed engine/strategy knobs fail loudly wherever they used to
  be accepted, and no public function takes one;
* :class:`repro.api.Session` caches grounding and circuits, and its
  fingerprints track content, not object identity.
"""

import importlib
import inspect
import pkgutil
import warnings
from dataclasses import fields

import pytest

import repro
from repro import api
from repro.config import DEFAULT_CONFIG, ExecutionConfig, coerce_config
from repro.constructions import generic_circuit, provenance_circuit
from repro.datalog import (
    Database,
    Fact,
    FixpointEngine,
    magic_grounding,
    naive_evaluation,
    relevant_grounding,
    transitive_closure,
)
from repro.grammars import CFG, cfl_reachability
from repro.semirings import BOOLEAN, COUNTING
from tests.oracle_checks import ORACLE_SEMIRINGS, assert_matches_oracle, extreme_weights


@pytest.fixture
def diamond():
    db = Database.from_edges([(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)])
    return transitive_closure(), db


# -- ExecutionConfig -------------------------------------------------------


def test_config_validates_vocabularies():
    ExecutionConfig(construction="fringe", backend="python", optimize_depth=True, prune=True)
    with pytest.raises(ValueError):
        ExecutionConfig(construction="magic")
    with pytest.raises(ValueError):
        ExecutionConfig(backend="gpu")


def test_config_is_frozen_and_evolvable():
    config = ExecutionConfig(construction="generic")
    with pytest.raises(Exception):
        config.construction = "fringe"
    evolved = config.evolve(backend="auto")
    assert evolved.construction == "generic"
    assert evolved.backend == "auto"
    assert config.backend is None  # the original is untouched


def test_config_resolution_and_coercion():
    assert [f.name for f in fields(ExecutionConfig)] == [
        "construction",
        "optimize_depth",
        "backend",
        "prune",
    ]
    assert DEFAULT_CONFIG.resolved_construction == "auto"
    assert DEFAULT_CONFIG.resolved_backend == "python"
    from_mapping = coerce_config({"construction": "fringe", "prune": True})
    assert from_mapping == ExecutionConfig(construction="fringe", prune=True)
    assert coerce_config(None) == DEFAULT_CONFIG
    assert coerce_config(from_mapping) is from_mapping


# -- solve() against the oracle --------------------------------------------


@pytest.mark.parametrize("semiring", ORACLE_SEMIRINGS, ids=lambda s: s.name)
def test_solve_matches_oracle_and_entry_points(diamond, semiring):
    program, db = diamond
    weights = extreme_weights(semiring, db, seed=3)
    unified, _ = assert_matches_oracle(program, db, semiring, weights=weights)
    for other in (
        naive_evaluation(program, db, semiring, weights=weights),
        FixpointEngine().evaluate(program, db, semiring, weights=weights),
        api.Session(program, db).solve(semiring, weights=weights),
    ):
        assert other.values == unified.values
        assert other.iterations == unified.iterations
        assert other.rule_evaluations == unified.rule_evaluations


@pytest.mark.parametrize("engine", ("indexed", "naive", "columnar"))
@pytest.mark.parametrize("strategy", ("naive", "seminaive", "columnar"))
def test_solve_matches_legacy_spellings_across_matrix(diamond, engine, strategy):
    """Every cell of the former engine × strategy matrix computed the
    oracle's fixpoint.  ``solve()`` still returns exactly that answer
    over each semiring, and the cell's spellings are now refused
    instead of silently picking a path that no longer exists."""
    program, db = diamond
    for semiring in ORACLE_SEMIRINGS:
        assert_matches_oracle(program, db, semiring)
    with pytest.raises(TypeError):
        ExecutionConfig(engine=engine, strategy=strategy)
    with pytest.raises(TypeError):
        api.solve(program, db, BOOLEAN, config={"engine": engine})
    with pytest.raises(TypeError):
        naive_evaluation(program, db, BOOLEAN, strategy=strategy)
    with pytest.raises(TypeError):
        relevant_grounding(program, db, engine=engine)


def test_session_solve_agrees_with_module_solve(diamond):
    program, db = diamond
    session = api.Session(program, db)
    assert session.solve(COUNTING).values == api.solve(program, db, COUNTING).values
    assert session.value(Fact("T", (0, 4)), COUNTING) == 2  # 0-1-3-4 and 0-2-3-4


# -- the removed knobs ------------------------------------------------------


def _removed_knob(name: str) -> bool:
    return name in ("engine", "strategy", "columnar") or name.endswith(("_engine", "_strategy"))


def test_no_public_function_takes_an_engine_or_strategy():
    offenders = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != info.name:
                continue
            callables = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                callables = [
                    (f"{name}.{attr}", member)
                    for attr, member in vars(obj).items()
                    if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_"))
                ]
            for qualname, function in callables:
                params = inspect.signature(function).parameters
                offenders += [f"{info.name}.{qualname}({p})" for p in params if _removed_knob(p)]
    assert offenders == []


def test_oracle_is_reachable_only_by_name():
    """The naive oracle is for tests: no module of the program imports
    it, so neither a config field nor a wire option can route a
    request through it."""
    import ast
    from pathlib import Path

    root = Path(repro.__file__).parent
    importers = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "oracle.py" and path.parent.name == "testing":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracle" for name in names):
                importers.append(str(path.relative_to(root)))
    assert importers == []


def test_config_spelling_is_warning_free(diamond):
    program, db = diamond
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        api.solve(program, db, BOOLEAN, config=ExecutionConfig(prune=True))
        naive_evaluation(program, db, BOOLEAN, config=ExecutionConfig(backend="python"))
        relevant_grounding(program, db)
        provenance_circuit(program, db, Fact("T", (0, 4)), config=DEFAULT_CONFIG)


def test_conflicting_legacy_and_config_knobs_raise(diamond):
    # The legacy spellings are gone, so they raise with or without a
    # config beside them -- never a silent override.
    program, db = diamond
    with pytest.raises(TypeError):
        naive_evaluation(program, db, BOOLEAN, strategy="naive", config=DEFAULT_CONFIG)
    with pytest.raises(TypeError):
        relevant_grounding(program, db, engine="naive")
    with pytest.raises(TypeError):
        magic_grounding(program, 0, db, columnar=True)
    with pytest.raises(TypeError):
        generic_circuit(program, db, Fact("T", (0, 4)), engine="indexed")
    grammar = CFG(["S"], ["a"], [("S", ("a",)), ("S", ("S", "S"))], "S")
    with pytest.raises(TypeError):
        cfl_reachability(grammar, [(0, "a", 1)], BOOLEAN, strategy="naive")
    with pytest.raises(TypeError):
        api.solve(program, db, BOOLEAN, config={"strategy": "naive"})
    with pytest.raises(TypeError):
        ExecutionConfig(engine="columnar")


def test_fixpoint_engine_accepts_config_and_rejects_contradictions():
    engine = FixpointEngine(config=ExecutionConfig(backend="python", prune=True))
    assert engine.config.prune and engine.config.backend == "python"
    assert FixpointEngine(config={"prune": True}).config == ExecutionConfig(prune=True)
    with pytest.raises(TypeError):
        FixpointEngine("naive")
    with pytest.raises(TypeError):
        FixpointEngine(config={"strategy": "seminaive"})


# -- Session caching and fingerprints --------------------------------------


def test_session_caches_grounding_and_circuits(diamond):
    program, db = diamond
    session = api.Session(program, db)
    assert session.ground() is session.ground()
    fact = Fact("T", (0, 4))
    assert session.circuit(fact) is session.circuit(fact)
    assert session.compiled(fact) is session.compiled(fact)


def test_session_construction_pinning(diamond):
    program, db = diamond
    fact = Fact("T", (0, 4))
    auto = api.Session(program, db).circuit(fact)
    generic = api.Session(program, db, ExecutionConfig(construction="generic")).circuit(fact)
    fringe = api.Session(program, db, ExecutionConfig(construction="fringe")).circuit(fact)
    assert generic.construction == "generic"
    assert fringe.construction == "fringe"
    # All three agree on the Boolean answer, whatever auto picked.
    truth = {Fact("E", edge) for edge in [(0, 1), (1, 3), (3, 4)]}
    answers = {
        choice.compiled().evaluate_boolean_batch([truth])[0]
        for choice in (auto, generic, fringe)
    }
    assert answers == {True}


def test_fingerprints_track_content_not_identity(diamond):
    program, db = diamond
    twin = Database.from_edges([(3, 4), (2, 3), (0, 2), (1, 3), (0, 1)])  # same edges, shuffled
    assert api.database_fingerprint(db) == api.database_fingerprint(twin)
    assert api.program_fingerprint(program) == api.program_fingerprint(transitive_closure())
    twin.set_weight(Fact("E", (0, 1)), 7.0)
    assert api.database_fingerprint(db) != api.database_fingerprint(twin)
    bigger = Database.from_edges([(0, 1), (1, 3), (0, 2), (2, 3), (3, 4), (4, 5)])
    assert api.database_fingerprint(db) != api.database_fingerprint(bigger)


def test_session_fingerprint_includes_construction(diamond):
    program, db = diamond
    auto = api.Session(program, db).fingerprint
    pinned = api.Session(program, db, ExecutionConfig(construction="fringe")).fingerprint
    assert auto[:2] == pinned[:2]
    assert auto[2] == "auto" and pinned[2] == "fringe"
