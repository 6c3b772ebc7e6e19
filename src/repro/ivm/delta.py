"""Differentiated BGPs: O(|Δ|) maintenance of join views.

A query whose evaluation tree is one
:class:`~repro.sparql.evaltree.Pipeline` of triple patterns runs as a
join under FILTER conjuncts.  This module *differentiates* that join: a
:class:`DeltaPipeline` over the pipeline's triples and conjuncts
consumes, in :meth:`~DeltaPipeline.apply`, a ±1-weighted batch of triple
changes and emits the exact Z-set of result rows the change adds to /
retracts from the view — without re-running the query.

The maintenance rule is the classical join differentiation (counting
algorithm of Gupta/Mumick, the linear case of DBSP's bilinear-operator
rule).  For a batch ``[(t_1, w_1), …, (t_m, w_m)]`` applied to graph
``G_0`` (so ``G_k = G_{k-1} + w_k·t_k``), the delta of a join
``p_1 ⋈ … ⋈ p_n`` telescopes into one term per change and seed
position::

    ΔQ = Σ_k Σ_i  p_1(G_k) ⋈ … ⋈ p_{i-1}(G_k)
                  ⋈ w_k·δ_i(t_k)
                  ⋈ p_{i+1}(G_{k-1}) ⋈ … ⋈ p_n(G_{k-1})

The listener protocol delivers batches *after* the store mutated, so the
live graph is ``G_m`` and the intermediate states are virtual.  They are
reconstructed with a *corrections overlay* per side of the seed — the
triples a virtual state lacks although the store has them, and those it
has although the store does not (``G_k = G_m − Σ_{j>k} w_j·t_j``) —
consulted on every probe.  Because change capture only fires on effective
transitions, presence under any overlay stays in ``{0, 1}``.

**One join, compiled once, over the encoded store's ids.**  Each seed
position is compiled when the pipeline is built into a chain of step
closures over one register list, with the register layout of the step
compiler (:func:`repro.sparql.idexec.pattern_layout`): per step the
three registers the probe reads (a constant's, a bound variable's, or
the always-``None`` one), the registers a match writes and the
repeated-variable checks; then what is this module's own — the side
whose overlay applies and the FILTER conjuncts that become decidable
there.  The registers hold term ids, probes are ``match_triple_ids`` and
conjuncts the id comparison kernels
(:func:`repro.sparql.kernels.compile_conditions`).  Changed triples are
translated to ids on entry, delta rows accumulate as id tuples, and only
rows with a non-zero net weight are decoded.  Pattern constants resolve
lazily — one that is in no triple yet matches nothing and is looked up
again on the next batch — so a compiled pipeline stays valid for the
life of its graph.

The differentiated join takes the patterns as written, not a physical
plan: joins commute and the telescoped sum is exact for any fixed order
of the factors, so however the query itself is planned (binary or
multiway) the delta is the same, and the probe order per seed is this
module's own (:func:`_probe_order`).  A pipeline with a property-path
pattern is not differentiated: the view layer (:mod:`repro.ivm.views`)
re-evaluates instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import Term, Triple, Variable
from repro.sparql import idexec
from repro.sparql.expressions import Expression, satisfies
from repro.sparql.kernels import (
    FREE,
    HEADER,
    UNRESOLVED,
    Registers,
    Test,
    compile_conditions,
    condition_kernel,
    resolve_constants,
)
from repro.sparql.operators import condition_label
from repro.sparql.plan import attach_conditions
from repro.sparql.solutions import EMPTY_BINDING
from repro.store.encoded import require_encoded
from repro.ivm.zset import ZSet

#: One change-capture batch, as delivered by the store listeners.
DeltaBatch = Sequence[Tuple[Triple, int]]

#: A view delta: result row (terms aligned with the projection) -> weight.
RowDelta = ZSet

IdTriple = Tuple[int, int, int]
Step = Callable[[Registers], None]
#: Per seed position: the conjuncts decidable on the seed alone, then the
#: remaining plan positions in probe order, each with the conjuncts that
#: become decidable there.
ProbeOrder = Tuple[Tuple[Expression, ...], Tuple[Tuple[int, Tuple[Expression, ...]], ...]]

# Register file: the compiled pipeline's header (its always-``None``
# register, the conjunct kernels' term-fallback count), then what one batch
# brings along; constants and variables are allocated behind by the compiler.
_WEIGHT = len(HEADER)  #: weight of the change being joined
_DELTA = _WEIGHT + 1  #: id row -> weight accumulated over the batch
_NEW = _WEIGHT + 2  #: overlay of ``G_k``: absent set here, present dict behind it
_OLD = _WEIGHT + 4  #: overlay of ``G_{k-1}``, same layout


@dataclass
class DeltaStats:
    """Counters of one pipeline's maintenance work since creation."""

    batches: int = 0
    changes: int = 0
    seed_matches: int = 0
    rows: int = 0


def _pattern_variables(pattern: Triple) -> Set[Variable]:
    return {part for part in pattern if isinstance(part, Variable)}


def _probe_order(
    patterns: Sequence[Triple], conditions: Sequence[Expression], seed: int
) -> ProbeOrder:
    """Static evaluation order for one seed position.

    The overlay a factor sees is fixed by its *plan* position relative
    to the seed, but the *evaluation* order is not: joins commute, and
    walking the plan left-to-right would probe positions before the seed
    completely unbound — an O(|G|) scan per change.  Instead the seed
    binds first (O(1) unification against the changed triple), then the
    remaining positions greedily by how many of their components are
    already bound, with every FILTER conjunct re-anchored to the earliest
    point its variables are all bound — the planner's rule,
    :func:`repro.sparql.plan.attach_conditions`.  Per-change work is then
    proportional to the bindings joined through the changed triple, not
    to the graph.
    """
    bound = _pattern_variables(patterns[seed])
    remaining = [i for i in range(len(patterns)) if i != seed]
    probes: List[int] = []
    while remaining:

        def bound_components(position: int) -> Tuple[bool, int]:
            pattern = patterns[position]
            score = sum(
                1 for part in pattern if not isinstance(part, Variable) or part in bound
            )
            return (bool(_pattern_variables(pattern) & bound), score)

        best = max(remaining, key=bound_components)
        remaining.remove(best)
        bound |= _pattern_variables(patterns[best])
        probes.append(best)
    slots = attach_conditions(
        [_pattern_variables(patterns[position]) for position in [seed, *probes]], conditions
    )
    return slots[0] + slots[1], tuple(zip(probes, slots[2:]))


Unifier = Callable[[Registers, IdTriple], bool]


def _unifier(
    reads: Sequence[int], writes: Sequence[Tuple[int, int]], repeats: Sequence[Tuple[int, int]]
) -> Unifier:
    """Match one given id triple against a pattern, binding what it frees.

    ``reads`` are the registers the three positions are compared with
    (the always-``None`` one where the pattern is free), ``writes`` pairs
    a register with the position that fills it, ``repeats`` pairs the
    positions of a variable occurring twice among the free ones.
    """
    checks = tuple(
        (position, register) for position, register in enumerate(reads) if register != FREE
    )

    def unify(registers: Registers, ids: IdTriple) -> bool:
        for position, register in checks:
            if registers[register] != ids[position]:
                return False
        for position, earlier in repeats:
            if ids[position] != ids[earlier]:
                return False
        for target, position in writes:
            registers[target] = ids[position]
        return True

    return unify


def _probe_step(
    next_step: Step,
    match: Callable,
    reads: Sequence[int],
    unify: Unifier,
    test: Optional[Test],
    side: int,
) -> Step:
    """One pattern joined in: probe the store on the ``reads`` registers,
    corrected to the virtual state of ``side``, and run ``next_step`` per
    match ``test`` passes."""
    subject, predicate, obj = reads

    def step(registers: Registers) -> None:
        absent = registers[side]
        # What the store has, then what only the virtual state has.
        for ids in chain(
            match(registers[subject], registers[predicate], registers[obj]), registers[side + 1]
        ):
            if ids not in absent and unify(registers, ids) and (test is None or test(registers)):
                next_step(registers)

    return step


def _shift(registers: Registers, side: int, triple: IdTriple, weight: int) -> None:
    """Move ``triple``'s presence in one virtual state by ``weight`` (±1)."""
    absent, present = registers[side], registers[side + 1]
    if weight > 0:
        if triple in absent:
            absent.remove(triple)
        else:
            present[triple] = None
    elif triple in present:
        del present[triple]
    else:
        absent.add(triple)


class DeltaPipeline:
    """The differentiated form of one BGP of triple patterns under
    FILTER ``conditions``; ``variables`` fixes the projection of the
    emitted row deltas.

    :meth:`apply` maps a change batch to the Z-set of projected result
    rows it adds (positive weights) and retracts (negative weights),
    touching only graph regions joined through the changed triples —
    O(|Δ|) for selective patterns, never a full re-evaluation.
    """

    def __init__(
        self,
        graph,
        patterns: Sequence[Triple],
        conditions: Sequence[Expression],
        variables: Sequence[Variable],
    ) -> None:
        self.patterns = tuple(patterns)
        self.variables = tuple(variables)
        self.stats = DeltaStats()
        require_encoded(graph)
        self.dictionary = graph.dictionary

        # A view outlives an execution: read the probe off the instance per
        # call, where enable_counters() shadows it.
        def match(subject, predicate, obj):
            return graph.match_triple_ids(subject, predicate, obj)

        # Variable-free conjuncts are constant: evaluate once.  A false
        # one makes the view permanently empty, so every delta is ∅.
        self._live = all(satisfies(c, EMPTY_BINDING) for c in conditions if not c.variables())
        conditions = [c for c in conditions if c.variables()]
        self.orders: Tuple[ProbeOrder, ...] = tuple(
            _probe_order(self.patterns, conditions, seed) for seed in range(len(self.patterns))
        )
        # The present halves are dicts for their order: rows must not be
        # found in hash order.
        self._registers: Registers = [*HEADER, 0, None, set(), {}, set(), {}]
        #: ``(register, term)`` of the constants that are in no triple yet.
        self._unresolved: List[Tuple[int, Term]] = []
        self._seeds = self._compile(match)
        self._resolve_constants()

    def _compile(self, match: Callable) -> List[Callable[[Registers, IdTriple], None]]:
        """One seed closure per pattern position over the shared registers,
        probing the store through ``match``."""
        registers = self._registers
        dictionary = self.dictionary
        stats = self.stats

        def allocate(value: object = None) -> int:
            registers.append(value)
            return len(registers) - 1

        register_of: Dict[Variable, int] = {}
        constants: List[Dict[int, int]] = []
        for pattern in self.patterns:
            constant_registers = {}
            for position, part in enumerate(pattern):
                if isinstance(part, Variable):
                    if part not in register_of:
                        register_of[part] = allocate()
                else:
                    constant_registers[position] = allocate(UNRESOLVED)
                    self._unresolved.append((constant_registers[position], part))
            constants.append(constant_registers)

        def layout(position: int, bound: Set[Variable]) -> Tuple[List[int], Unifier]:
            """The registers a probe of one pattern reads and its unifier,
            given the ``bound`` variables — to which the pattern's are added."""
            pattern = self.patterns[position]
            reads, writes, repeats = idexec.pattern_layout(
                pattern, bound, register_of, lambda index, _term: constants[position][index]
            )
            bound |= _pattern_variables(pattern)
            return reads, _unifier(reads, tuple(writes), tuple(repeats))

        projection = tuple(register_of.get(variable, FREE) for variable in self.variables)

        def emit(registers: Registers) -> None:
            stats.rows += 1
            row = tuple([registers[register] for register in projection])
            delta = registers[_DELTA]
            delta[row] = delta.get(row, 0) + registers[_WEIGHT]

        def seed_of(unify: Unifier, test: Optional[Test], first: Step):
            def seed(registers: Registers, ids: IdTriple) -> None:
                if unify(registers, ids) and (test is None or test(registers)):
                    stats.seed_matches += 1
                    first(registers)

            return seed

        seeds = []
        for seed, (seed_conditions, order) in enumerate(self.orders):
            bound: Set[Variable] = set()
            _, unify_seed = layout(seed, bound)
            seed_test = compile_conditions(seed_conditions, dictionary, register_of, bound)
            probes = []
            for position, anchored in order:
                reads, unify = layout(position, bound)
                test = compile_conditions(anchored, dictionary, register_of, bound)
                # Plan positions before the seed join the new state.
                probes.append((reads, unify, test, _NEW if position < seed else _OLD))
            step: Step = emit
            for reads, unify, test, side in reversed(probes):
                step = _probe_step(step, match, reads, unify, test, side)
            seeds.append(seed_of(unify_seed, seed_test, step))
        return seeds

    def _resolve_constants(self) -> None:
        self._unresolved = resolve_constants(self._registers, self._unresolved, self.dictionary)

    def apply(self, batch: DeltaBatch) -> RowDelta:
        """Return the view delta (row -> ±weight) caused by ``batch``.

        The live graph must already reflect the whole batch (the store
        listeners guarantee this: they fire post-mutation).
        """
        stats = self.stats
        stats.batches += 1
        stats.changes += len(batch)
        if not self._live:
            return {}
        if self._unresolved:
            self._resolve_constants()
        registers = self._registers
        id_for = self.dictionary.id_for
        changes = [
            ((id_for(triple.subject), id_for(triple.predicate), id_for(triple.object)), weight)
            for triple, weight in batch
        ]
        delta: Dict[Tuple[int, ...], int] = {}
        registers[_DELTA] = delta
        try:
            # Both sides start at G_0 = live − batch; giving each change's
            # weight back to a side as it is processed walks that side
            # through the virtual states G_1 … G_m.
            for triple, weight in changes:
                _shift(registers, _NEW, triple, -weight)
                _shift(registers, _OLD, triple, -weight)
            for triple, weight in changes:
                _shift(registers, _NEW, triple, weight)  # new side is now G_k
                registers[_WEIGHT] = weight
                for seed in self._seeds:
                    seed(registers, triple)
                _shift(registers, _OLD, triple, weight)  # old side catches up
        finally:
            registers[_DELTA] = None
            for side in (_NEW, _OLD):
                registers[side].clear()
                registers[side + 1].clear()
        decode = self.dictionary.term
        return {
            tuple([None if term_id is None else decode(term_id) for term_id in row]): weight
            for row, weight in delta.items()
            if weight
        }

    def explain(self) -> List[str]:
        """Per seed position, the probe order with every conjunct's anchor."""

        def anchored(conditions: Tuple[Expression, ...]) -> str:
            return "".join(
                f"; Filter {condition_label(c)} kernel={condition_kernel(c)}"
                for c in conditions
            )

        lines = []
        for seed, (seed_conditions, order) in enumerate(self.orders):
            lines.append(f"seed #{seed} {self.patterns[seed]!r}{anchored(seed_conditions)}")
            for position, conditions in order:
                state = "new" if position < seed else "old"
                lines.append(
                    f"  probe #{position} {self.patterns[position]!r} "
                    f"state={state}{anchored(conditions)}"
                )
        return lines
