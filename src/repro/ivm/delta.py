"""Differentiated physical operators: O(|Δ|) maintenance of BGP views.

The physical layer (:mod:`repro.sparql.physical`) executes a BGP as a
``Project ∘ Filter? ∘ IndexNestedLoopJoin`` DAG over ``Scan`` leaves.
This module *differentiates* that DAG: :func:`differentiate` turns an
eligible :class:`~repro.sparql.physical.PhysicalPlan` into a
:class:`DeltaPipeline` whose :meth:`~DeltaPipeline.apply` consumes a
±1-weighted batch of triple changes and emits the exact Z-set of result
rows the change adds to / retracts from the view — without re-running
the query.

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
reconstructed with a *corrections overlay*: a ``Triple -> ±1`` adjustment
dict holding the not-yet-processed suffix of the batch negated
(``G_k = G_m − Σ_{j>k} w_j·t_j``), consulted by :class:`DeltaScan` on
every probe.  Because change capture only fires on effective transitions,
presence under any overlay stays in ``{0, 1}``.

Plans containing a :class:`~repro.sparql.physical.LeapfrogJoin` or
:class:`~repro.sparql.physical.PathExpand` operator are not
differentiated — :func:`differentiate` returns ``None`` and the view
layer (:mod:`repro.ivm.views`) falls back to scoped re-evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.terms import Term, Triple, Variable
from repro.sparql import physical
from repro.sparql.expressions import Expression, satisfies
from repro.sparql.plan import match_triple
from repro.sparql.solutions import Binding, EMPTY_BINDING
from repro.ivm.zset import ZSet, zset_add

#: A corrections overlay: triple -> presence adjustment vs. the live graph
#: (+1 = treat as present although absent, -1 = treat as absent).
Overlay = Dict[Triple, int]

#: One change-capture batch, as delivered by the store listeners.
DeltaBatch = Sequence[Tuple[Triple, int]]

#: A view delta: result row (terms aligned with the projection) -> weight.
RowDelta = ZSet


def _unify(pattern: Triple, triple: Triple, binding: Binding) -> Optional[Binding]:
    """Extend ``binding`` so that ``pattern`` matches exactly ``triple``.

    Returns ``None`` when a constant or an already-bound (or repeated)
    variable disagrees with the corresponding component of ``triple``.
    """
    mapping: Dict[Variable, Term] = {}
    for pattern_part, triple_part in zip(pattern, triple):
        if isinstance(pattern_part, Variable):
            bound = binding.get(pattern_part)
            if bound is None:
                bound = mapping.get(pattern_part)
            if bound is None:
                mapping[pattern_part] = triple_part
            elif bound != triple_part:
                return None
        elif pattern_part != triple_part:
            return None
    return binding.merge(Binding(mapping)) if mapping else binding


def _ground(pattern: Triple, binding: Binding) -> Triple:
    """Substitute ``binding`` into ``pattern`` (every variable bound)."""
    return Triple(
        binding.get(pattern.subject)
        if isinstance(pattern.subject, Variable)
        else pattern.subject,
        binding.get(pattern.predicate)
        if isinstance(pattern.predicate, Variable)
        else pattern.predicate,
        binding.get(pattern.object)
        if isinstance(pattern.object, Variable)
        else pattern.object,
    )


@dataclass
class DeltaStats:
    """Counters of one pipeline's maintenance work since creation."""

    batches: int = 0
    changes: int = 0
    seed_matches: int = 0
    rows: int = 0


class DeltaFilter:
    """Differentiated ``Filter``: the same conjuncts, applied per delta row.

    Selections are linear operators, so the delta of a filter is the
    filter of the delta — the conditions simply run against each candidate
    binding of the differentiated join.
    """

    __slots__ = ("conditions",)

    def __init__(self, conditions: Tuple[Expression, ...]) -> None:
        self.conditions = conditions

    def accepts(self, binding: Binding) -> bool:
        return all(satisfies(condition, binding) for condition in self.conditions)


class DeltaScan:
    """Differentiated ``Scan``: pattern matching under a corrections overlay.

    Two roles, mirroring the two factor kinds of the maintenance rule:
    :meth:`seed` unifies the pattern against the changed triple itself
    (the ``δ_i`` factor), :meth:`matches` probes the live graph adjusted
    by an overlay to act as the virtual old/new state (the ``p_j``
    factors).
    """

    __slots__ = ("pattern", "filter")

    def __init__(self, pattern: Triple, delta_filter: Optional[DeltaFilter]) -> None:
        self.pattern = pattern
        self.filter = delta_filter

    def seed(self, triple: Triple, binding: Binding) -> Optional[Binding]:
        return _unify(self.pattern, triple, binding)

    def matches(
        self, graph, binding: Binding, overlay: Overlay
    ) -> Iterator[Binding]:
        if not overlay:
            yield from match_triple(graph, self.pattern, binding)
            return
        removed = {triple for triple, adjust in overlay.items() if adjust < 0}
        for extended in match_triple(graph, self.pattern, binding):
            if removed and _ground(self.pattern, extended) in removed:
                continue
            yield extended
        for triple, adjust in overlay.items():
            if adjust > 0:
                extended = _unify(self.pattern, triple, binding)
                if extended is not None:
                    yield extended


class DeltaProject:
    """Differentiated ``Project``: bindings to projection-aligned rows.

    Projection is linear too; weights of distinct bindings collapsing to
    one row accumulate in the output Z-set.
    """

    __slots__ = ("variables",)

    def __init__(self, variables: Tuple[Variable, ...]) -> None:
        self.variables = variables

    def row(self, binding: Binding) -> Tuple[Optional[Term], ...]:
        return tuple(binding.get(variable) for variable in self.variables)


class DeltaJoin:
    """Differentiated ``IndexNestedLoopJoin`` over :class:`DeltaScan` steps.

    For one change ``(t, w)`` the join emits, per seed position ``i``, the
    bindings of ``p_{<i}(new) ⋈ δ_i(t) ⋈ p_{>i}(old)``.  The overlay a
    factor sees is fixed by its *plan* position relative to the seed, but
    the *evaluation* order is not: joins commute, and walking the plan
    left-to-right would probe positions before the seed completely
    unbound — an O(|G|) scan per change.  Instead each seed gets a
    statically precomputed order: the seed binds first (O(1) unification
    against the changed triple), then the remaining steps greedily by
    how many of their components are already bound, with every FILTER
    conjunct re-anchored to the earliest point its variables are all
    bound.  Per-change work is then proportional to the bindings joined
    through the changed triple, not to the graph.
    """

    __slots__ = ("steps", "_plans")

    def __init__(self, steps: Sequence[DeltaScan]) -> None:
        self.steps = tuple(steps)
        self._plans = tuple(
            self._order_for(seed) for seed in range(len(self.steps))
        )

    @staticmethod
    def _pattern_variables(pattern: Triple) -> set:
        return {part for part in pattern if isinstance(part, Variable)}

    def _order_for(self, seed: int):
        """Static evaluation order for one seed position.

        Returns ``(seed_conditions, order)`` where ``order`` is a tuple
        of ``(plan_position, conditions)`` pairs: the position to probe
        next and the filter conjuncts that become fully bound there.
        """
        steps = self.steps
        pending = [
            (condition, condition.variables())
            for step in steps
            if step.filter is not None
            for condition in step.filter.conditions
        ]
        bound = set(self._pattern_variables(steps[seed].pattern))

        def take_ready() -> Tuple[Expression, ...]:
            ready = tuple(c for c, vs in pending if vs <= bound)
            pending[:] = [(c, vs) for c, vs in pending if not vs <= bound]
            return ready

        seed_conditions = take_ready()
        remaining = [i for i in range(len(steps)) if i != seed]
        order: List[Tuple[int, Tuple[Expression, ...]]] = []
        while remaining:

            def bound_components(position: int) -> Tuple[bool, int]:
                pattern = steps[position].pattern
                score = sum(
                    1
                    for part in pattern
                    if not isinstance(part, Variable) or part in bound
                )
                connected = bool(self._pattern_variables(pattern) & bound)
                return (connected, score)

            best = max(remaining, key=bound_components)
            remaining.remove(best)
            bound |= self._pattern_variables(steps[best].pattern)
            order.append((best, take_ready()))
        if pending:  # defensive: conjuncts with variables the BGP never binds
            leftovers = tuple(c for c, _ in pending)
            if order:
                position, conditions = order[-1]
                order[-1] = (position, conditions + leftovers)
            else:
                seed_conditions += leftovers
        return seed_conditions, tuple(order)

    def deltas(
        self,
        graph,
        triple: Triple,
        new_overlay: Overlay,
        old_overlay: Overlay,
        stats: DeltaStats,
    ) -> Iterator[Binding]:
        steps = self.steps

        for seed in range(len(steps)):
            seeded = steps[seed].seed(triple, EMPTY_BINDING)
            if seeded is None:
                continue
            seed_conditions, order = self._plans[seed]
            if not all(satisfies(c, seeded) for c in seed_conditions):
                continue
            stats.seed_matches += 1

            def expand(index: int, binding: Binding) -> Iterator[Binding]:
                if index == len(order):
                    yield binding
                    return
                position, conditions = order[index]
                step = steps[position]
                overlay = new_overlay if position < seed else old_overlay
                for extended in step.matches(graph, binding, overlay):
                    if conditions and not all(
                        satisfies(c, extended) for c in conditions
                    ):
                        continue
                    yield from expand(index + 1, extended)

            yield from expand(0, seeded)


class DeltaPipeline:
    """The differentiated form of one physical BGP plan.

    :meth:`apply` maps a change batch to the Z-set of projected result
    rows it adds (positive weights) and retracts (negative weights),
    touching only graph regions joined through the changed triples —
    O(|Δ|) for selective patterns, never a full re-evaluation.
    """

    def __init__(
        self,
        graph,
        join: DeltaJoin,
        project: DeltaProject,
        prefilters: Tuple[Expression, ...] = (),
    ) -> None:
        self.graph = graph
        self.join = join
        self.project = project
        self.stats = DeltaStats()
        # Variable-free conjuncts are constant: evaluate once.  A false
        # prefilter makes the view permanently empty, so every delta is ∅.
        self._live = all(satisfies(c, EMPTY_BINDING) for c in prefilters)

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
        # corrections == live − G_0; adding back each change's weight as
        # it is processed walks the overlay forward through the virtual
        # states G_1 … G_m of the batch.
        corrections: Overlay = {}
        for triple, weight in batch:
            zset_add(corrections, triple, -weight)
        delta: RowDelta = {}
        graph = self.graph
        row_of = self.project.row
        for triple, weight in batch:
            zset_add(corrections, triple, weight)  # new side is now G_k
            old_overlay = dict(corrections)
            zset_add(old_overlay, triple, -weight)  # old side is G_{k-1}
            for binding in self.join.deltas(
                graph, triple, corrections, old_overlay, stats
            ):
                stats.rows += 1
                zset_add(delta, row_of(binding), weight)
        return delta


def differentiate(
    plan: physical.PhysicalPlan,
    graph,
    variables: Sequence[Variable],
) -> Optional[DeltaPipeline]:
    """Differentiate a lowered physical plan, or ``None`` if ineligible.

    Eligible plans are ``Project ∘ Filter? ∘ IndexNestedLoopJoin`` DAGs
    whose every input is a (possibly Filter-wrapped) triple ``Scan`` or
    ``HashProbe`` (differentiated as the scan + equality it stands for) —
    the shape the lowering pass emits for acyclic all-triple BGPs.
    ``LeapfrogJoin`` plans (cyclic BGPs) and plans containing
    ``PathExpand`` (property paths) return ``None``; their views are
    maintained by scoped re-evaluation instead.  ``variables`` fixes the
    projection of the emitted row deltas.
    """
    root = plan.root
    child = root.child
    prefilters: Tuple[Expression, ...] = ()
    if isinstance(child, physical.Filter):
        prefilters = child.conditions
        child = child.child
    if not isinstance(child, physical.IndexNestedLoopJoin):
        return None
    steps: List[DeltaScan] = []
    for input_op in child.inputs:
        conditions: Tuple[Expression, ...] = ()
        leaf = input_op
        if isinstance(leaf, physical.Filter):
            conditions = leaf.conditions
            leaf = leaf.child
        if isinstance(leaf, physical.HashProbe):
            # A delta touches one side of the implicit join at a time:
            # the pattern is scanned like any other, its equality checked.
            conditions += (leaf.condition,)
        elif not isinstance(leaf, physical.Scan):
            return None
        steps.append(
            DeltaScan(
                leaf.node.triple,
                DeltaFilter(conditions) if conditions else None,
            )
        )
    return DeltaPipeline(
        graph,
        DeltaJoin(steps),
        DeltaProject(tuple(variables)),
        prefilters,
    )
