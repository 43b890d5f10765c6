"""The fixpoint: semi-naive rounds over the id-space grounding.

:func:`repro.testing.oracle.naive_fixpoint` is the paper's Section 2.3
loop, executed literally: every round re-multiplies every ground rule
and re-folds every head, so a run costs
``O(iterations × |ground rules|)`` rule evaluations even when almost
nothing changed between rounds.  :class:`FixpointEngine` computes the
same fixpoint *semi-naively*, on the
:class:`~repro.datalog.grounding.ColumnarGroundProgram` that
:func:`~repro.datalog.grounding.columnar_grounding` emits (DESIGN.md
§4, §9).  Round ``t``:

1. **Delta set** -- the IDB fact ids whose value changed in round
   ``t − 1``.
2. **Dirty rules** -- via the grounding's body CSR
   (:meth:`~repro.datalog.grounding.ColumnarGroundProgram.by_body_csr`),
   exactly the ground rules with a delta fact in their body; only
   their ``⊗``-terms are recomputed (every other rule's cached term is
   still current because none of its body values moved).
3. **Dirty heads** -- heads of dirty rules are re-folded with
   ``semiring.add`` over the cached per-rule terms
   (:meth:`~repro.datalog.grounding.ColumnarGroundProgram.by_head_csr`);
   a head whose new value differs (``semiring.eq``) enters the next
   delta set.
4. **Convergence** is certified by an empty delta set -- no full
   ``eq`` sweep over all facts is ever needed.

Rounds are Jacobi-style (all round-``t`` terms read round-``t − 1``
values), so the per-round value maps -- and therefore the fixpoint,
the iteration count, the ``converged`` flag and the divergence
behaviour on non-stable semirings -- coincide *exactly* with the naive
loop; only the number of rule evaluations shrinks.  The oracle
cross-checks in ``tests/datalog/test_seminaive.py`` pin this.

Per the configured ``backend`` (DESIGN.md §13) the loop runs as the
NumPy kernel of :mod:`repro.backends.vectorized` or as the Python
kernel below: an exec-generated loop with the semiring's ``⊗``/``⊕``
inlined when it declares expression templates, a bound-method loop
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..backends import resolve_backend
from ..config import ExecutionConfig, coerce_config
from ..semirings.base import Semiring
from .analysis import prune_unreachable, require_valid
from .ast import Fact, Program
from .database import Database
from .evaluation import DivergenceError, EvaluationResult
from .grounding import (
    ColumnarGroundProgram,
    GroundProgram,
    columnar_grounding,
    derivable_facts,
)

__all__ = ["FixpointEngine"]


@dataclass(frozen=True)
class FixpointEngine:
    """Datalog fixpoint computation: the one production pipeline.

    ``FixpointEngine()`` uses the default
    :class:`~repro.config.ExecutionConfig`; of its knobs the engine
    reads ``backend`` (which kernel runs the rounds) and ``prune``
    (drop rules unreachable from the target before grounding).  A
    mapping is coerced like everywhere else.

    The engine is stateless and cheap to construct; all per-run state
    (grounding, caches, deltas) lives inside :meth:`evaluate`.
    """

    config: Optional[ExecutionConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", coerce_config(self.config))

    def evaluate(
        self,
        program: Program,
        database: Database,
        semiring: Semiring,
        weights: Optional[Mapping[Fact, object]] = None,
        ground: Optional[Union[GroundProgram, ColumnarGroundProgram]] = None,
        max_iterations: Optional[int] = None,
        raise_on_divergence: bool = False,
        validate: bool = True,
    ) -> EvaluationResult:
        """Least fixpoint of *program* on *database* over *semiring*.

        *weights* overrides stored annotations; *ground* reuses a
        precomputed grounding (an id-space
        :class:`~repro.datalog.grounding.ColumnarGroundProgram`, or a
        tuple :class:`~repro.datalog.grounding.GroundProgram`, which
        is lowered at the boundary); ``max_iterations`` defaults to
        ``max(#IDB facts, 1) + 2`` and guards non-stable semirings.

        ``validate=True`` (the default) re-runs the DL001/DL002 checks
        of :func:`repro.datalog.analysis.require_valid` before any
        grounding, so an unsafe or arity-inconsistent program --
        constructed with ``validate=False`` or mutated after the fact
        -- fails with a :class:`~repro.datalog.analysis
        .ProgramValidationError` instead of a late KeyError or a
        silently wrong answer; ``validate=False`` is the escape hatch.
        With ``config.prune`` set and no precomputed *ground*, rules
        unreachable from the target are dropped
        (:func:`repro.datalog.analysis.prune_unreachable`) before
        grounding; values of reachable facts are preserved exactly.
        """
        if validate:
            require_valid(program)
        if self.config.prune and ground is None:
            program = prune_unreachable(program)
        if ground is None:
            cground = columnar_grounding(program, database)
        elif isinstance(ground, ColumnarGroundProgram):
            cground = ground
        else:
            cground = ColumnarGroundProgram.from_ground_program(ground)
        edb_value = database.valuation(semiring)  # already a fresh copy
        if weights:
            edb_value.update(weights)
        head_fids = cground.idb_fact_ids()
        if max_iterations is None:
            max_iterations = max(len(head_fids), 1) + 2
        # Backend dispatch (DESIGN.md §13): the vectorized kernel may
        # decline (returns None) whenever bit-exact parity with the
        # Python loop is not provable; both are deterministic, so the
        # from-scratch fallback is exact.
        result = None
        if resolve_backend(self.config.backend) == "vectorized":
            from ..backends.vectorized import vectorized_columnar_fixpoint

            result = vectorized_columnar_fixpoint(cground, semiring, edb_value, max_iterations)
        if result is None:
            result = _columnar_fixpoint(cground, semiring, edb_value, max_iterations)
        value, iterations, converged, rule_evaluations = result
        if not converged and raise_on_divergence:
            raise DivergenceError(
                f"evaluation over {semiring.name} did not "
                f"converge in {max_iterations} iterations"
            )
        decode = cground.decode_fact
        values = {decode(fid): value[fid] for fid in head_fids}
        return EvaluationResult(
            semiring, values, iterations, converged, rule_evaluations=rule_evaluations
        )

    def evaluate_fact(
        self,
        program: Program,
        database: Database,
        semiring: Semiring,
        fact: Fact,
        weights: Optional[Mapping[Fact, object]] = None,
    ):
        """Least-fixpoint value of one IDB *fact* (``0`` if underivable)."""
        return self.evaluate(program, database, semiring, weights).value(fact)

    def boolean_iterations(self, program: Program, database: Database) -> int:
        """Rounds until the Boolean fixpoint (Definition 4.1 probe).

        Read off the grounding pass
        (:func:`repro.datalog.grounding.derivable_facts`): the
        semiring rounds take the identical number of rounds, and the
        pass needs no semiring at all.
        """
        _, iterations = derivable_facts(program, database)
        return iterations


#: Compiled fixpoint kernels keyed by ``(add, mul)`` expression
#: templates (shared across semiring instances with equal templates).
_FIXPOINT_KERNELS: Dict[Tuple[str, str], object] = {}

#: The delta loop of :func:`_columnar_fixpoint` with the two semiring
#: operations spliced in as expressions (no method call per ⊗/⊕) --
#: the same closure-compiler technique as the circuit runtime's
#: kernels (DESIGN.md §7).  ``eq`` stays a bound-method call: the
#: expression templates only promise ``add``/``mul`` equivalence, and
#: a semiring may override equality independently.
_KERNEL_SOURCE = """\
def _kernel(value, idb_rows, edb_rows, rule_head,
            by_head_ptr, by_head_rules, by_body_ptr, by_body_rules,
            nfacts, nrules, max_iterations, zero, one, eq):
    edb_product = []
    append_product = edb_product.append
    for position in range(nrules):
        term = one
        for fid in edb_rows[position]:
            other = value[fid]
            term = {mul_expr}
        append_product(term)
    rule_term = [zero] * nrules
    head_mark = bytearray(nfacts)
    dirty_rules = range(nrules)
    iterations = 0
    converged = False
    rule_evaluations = 0
    while iterations < max_iterations:
        dirty_heads = []
        for position in dirty_rules:
            term = edb_product[position]
            for fid in idb_rows[position]:
                other = value[fid]
                term = {mul_expr}
            rule_term[position] = term
            head = rule_head[position]
            if not head_mark[head]:
                head_mark[head] = 1
                dirty_heads.append(head)
        rule_evaluations += len(dirty_rules)
        delta_fids = []
        delta_values = []
        for head in dirty_heads:
            head_mark[head] = 0
            total = zero
            for at in range(by_head_ptr[head], by_head_ptr[head + 1]):
                other = rule_term[by_head_rules[at]]
                total = {add_expr}
            if not eq(total, value[head]):
                delta_fids.append(head)
                delta_values.append(total)
        iterations += 1
        if not delta_fids:
            converged = True
            break
        for at in range(len(delta_fids)):
            value[delta_fids[at]] = delta_values[at]
        rule_mark = bytearray(nrules)
        next_dirty = []
        for head in delta_fids:
            for at in range(by_body_ptr[head], by_body_ptr[head + 1]):
                position = by_body_rules[at]
                if not rule_mark[position]:
                    rule_mark[position] = 1
                    next_dirty.append(position)
        next_dirty.sort()
        dirty_rules = next_dirty
    return iterations, converged, rule_evaluations
"""


def _fixpoint_kernel(add_template: str, mul_template: str):
    """The compiled delta-loop kernel for one pair of operation
    templates, generated once and cached."""
    key = (add_template, mul_template)
    kernel = _FIXPOINT_KERNELS.get(key)
    if kernel is None:
        source = _KERNEL_SOURCE.format(
            add_expr=add_template.format(a="total", b="other"),
            mul_expr=mul_template.format(a="term", b="other"),
        )
        namespace: Dict[str, object] = {}
        exec(source, namespace)  # noqa: S102 - closure compiler, pure templates
        kernel = namespace["_kernel"]
        _FIXPOINT_KERNELS[key] = kernel
    return kernel


def _columnar_fixpoint(
    cground: ColumnarGroundProgram,
    semiring: Semiring,
    edb_value: Mapping[Fact, object],
    max_iterations: int,
) -> Tuple[List[object], int, bool, int]:
    """The delta-driven loop (see the module docstring), run on the
    id-space grounding (DESIGN.md §9).

    Jacobi rounds: every round-``t`` ⊗-term reads round-``t − 1``
    values, and updates land after all dirty heads are re-folded, so
    values, iteration counts, the ``converged`` flag and divergence
    behaviour coincide with the paper's naive loop.  Values live in
    one dense list indexed by fact id (EDB slots filled once from
    *edb_value*, IDB slots starting at ``0``), per-rule cached
    ⊗-terms in a parallel list, and the dirty sets are flat int lists
    deduplicated through
    ``bytearray`` marks over the CSR adjacency
    (:meth:`~repro.datalog.grounding.ColumnarGroundProgram.by_body_csr`
    /
    :meth:`~repro.datalog.grounding.ColumnarGroundProgram.by_head_csr`)
    -- no :class:`Fact` is hashed or decoded anywhere in the loop.
    Semiring ``⊗``/``⊕`` folds stay object-space calls on the dense
    arrays, so every existing semiring works unchanged (the hybrid
    mode).

    Returns ``(value, iterations, converged, rule_evaluations)`` with
    *value* indexed by fact id; the caller decodes the IDB slots.
    """
    nrules = len(cground)
    nfacts = cground.fact_count
    idb_indptr, idb_flat = cground.idb_indptr, cground.idb_flat
    edb_indptr, edb_flat = cground.edb_indptr, cground.edb_flat
    rule_head = cground.rule_head
    by_head_ptr, by_head_rules = cground.by_head_csr()
    by_body_ptr, by_body_rules = cground.by_body_csr()
    mul, add, eq, zero = semiring.mul, semiring.add, semiring.eq, semiring.zero

    # Dense valuation: EDB slots are decoded once per distinct EDB
    # fact; IDB slots start at 0 exactly like the naive loop.
    value: List[object] = [zero] * nfacts
    decode = cground.decode_fact
    for fid in cground.edb_fact_ids():
        value[fid] = edb_value[decode(fid)]

    # Per-rule body rows as small tuples: the ⊗-recomputation re-reads
    # the IDB rows every round a rule is dirty, so one flattening pass
    # beats per-eval CSR range arithmetic.
    idb_rows: List[Tuple[int, ...]] = [
        tuple(idb_flat[idb_indptr[position] : idb_indptr[position + 1]])
        for position in range(nrules)
    ]
    edb_rows: List[Tuple[int, ...]] = [
        tuple(edb_flat[edb_indptr[position] : edb_indptr[position + 1]])
        for position in range(nrules)
    ]
    one = semiring.one

    # Semirings that declare closure-compiler templates (DESIGN.md §7)
    # run the exec-generated kernel -- the identical loop (including
    # the stage-invariant EDB-product pass) with ⊗/⊕ inlined as
    # expressions; everything else takes the generic bound-method loop
    # below.  Both are Jacobi round-for-round.
    if semiring.compiled_add_expr and semiring.compiled_mul_expr:
        kernel = _fixpoint_kernel(semiring.compiled_add_expr, semiring.compiled_mul_expr)
        iterations, converged, rule_evaluations = kernel(
            value,
            idb_rows,
            edb_rows,
            rule_head,
            by_head_ptr,
            by_head_rules,
            by_body_ptr,
            by_body_rules,
            nfacts,
            nrules,
            max_iterations,
            zero,
            one,
            eq,
        )
        return value, iterations, converged, rule_evaluations

    # Stage-invariant EDB products and the per-rule cached term slots.
    edb_product: List[object] = []
    append_product = edb_product.append
    for position in range(nrules):
        term = one
        for fid in edb_rows[position]:
            term = mul(term, value[fid])
        append_product(term)
    rule_term: List[object] = [zero] * nrules

    head_mark = bytearray(nfacts)
    dirty_rules: Iterable[int] = range(nrules)
    iterations = 0
    converged = False
    rule_evaluations = 0
    while iterations < max_iterations:
        dirty_heads: List[int] = []
        for position in dirty_rules:
            term = edb_product[position]
            for fid in idb_rows[position]:
                term = mul(term, value[fid])
            rule_term[position] = term
            rule_evaluations += 1
            head = rule_head[position]
            if not head_mark[head]:
                head_mark[head] = 1
                dirty_heads.append(head)
        # Re-fold dirty heads from cached terms; batch the updates so
        # every term in this round read the previous round's values.
        delta_fids: List[int] = []
        delta_values: List[object] = []
        for head in dirty_heads:
            head_mark[head] = 0
            total = zero
            for at in range(by_head_ptr[head], by_head_ptr[head + 1]):
                total = add(total, rule_term[by_head_rules[at]])
            if not eq(total, value[head]):
                delta_fids.append(head)
                delta_values.append(total)
        iterations += 1
        if not delta_fids:
            converged = True
            break
        for head, total in zip(delta_fids, delta_values):
            value[head] = total
        rule_mark = bytearray(nrules)
        next_dirty: List[int] = []
        for head in delta_fids:
            for at in range(by_body_ptr[head], by_body_ptr[head + 1]):
                position = by_body_rules[at]
                if not rule_mark[position]:
                    rule_mark[position] = 1
                    next_dirty.append(position)
        next_dirty.sort()
        dirty_rules = next_dirty
    return value, iterations, converged, rule_evaluations
