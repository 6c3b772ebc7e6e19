"""Lowering a logical BGP plan to a physical one, and running it.

Logical planning (:mod:`repro.sparql.plan`) stops at an ordered
:class:`~repro.sparql.plan.BGPPlan`; this module turns that into an
explicit *physical* plan — a small DAG of the operator classes of
:mod:`repro.sparql.operators` — and executes it.

* **Lowering** — :func:`lower_plan` builds the operators of a plan over
  the dictionary-encoded store, the one store planned evaluation runs on
  (any other raises :func:`~repro.store.encoded.require_encoded`'s
  ``TypeError``).  FILTER
  conjuncts arrive here and become :class:`~repro.sparql.operators.Filter`
  operators wrapped around the earliest input that binds their variables
  (:func:`repro.sparql.plan.attach_filters`); a GYO-cyclic BGP gets the
  worst-case-optimal :class:`~repro.sparql.operators.LeapfrogJoin`
  (:mod:`repro.sparql.leapfrog`), everything else the binary
  :class:`~repro.sparql.operators.IndexNestedLoopJoin`.  A binary plan
  whose ``Project`` is ``distinct`` may be cut where a variable dies: the
  rest of the join becomes a :class:`~repro.sparql.operators.Factor` that
  runs once per distinct key (:func:`_cut`).

* **Executor** — :func:`execute_rows` is the one entry point for running
  a planned BGP, always as a stream of term tuples aligned with
  :func:`repro.sparql.idexec.row_header`, and reaches one executor:
  whatever the join operator, the plan is compiled once into a chain of
  step closures by :mod:`repro.sparql.idexec` and kept with the plan.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import Variable
from repro.sparql import idexec, leapfrog
from repro.sparql.algebra import PathPattern, TriplePatternNode
from repro.sparql.expressions import Comparison, Expression, VariableExpr
from repro.sparql.kernels import condition_kernel
from repro.sparql.operators import (
    Factor,
    Filter,
    HashProbe,
    IndexNestedLoopJoin,
    OperatorStats,
    PathExpand,
    PhysicalOperator,
    PhysicalPlan,
    Project,
    Scan,
)
from repro.sparql.plan import BGPPlan, attach_filters, plan_bgp
from repro.sparql.solutions import Binding, EMPTY_BINDING
from repro.store.encoded import require_encoded


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
def _implicit_join(
    node, slot: Tuple[Expression, ...], bound: Set[Variable]
) -> Optional[Tuple[Comparison, Variable, Variable]]:
    """The conjunct ``?bound = ?fresh`` that is a step's only link, if any.

    Returns ``(conjunct, probe variable, build variable)`` when the
    pattern shares no variable with the steps before it (``bound``) and
    one of the conjuncts checked right after it equates one of its
    variables with a bound one.  A pattern that *does* share a variable
    is already an index probe on that variable; the rule leaves it alone.
    """
    variables = node.variables()
    if not bound or variables & bound:
        return None
    for condition in slot:
        if (
            isinstance(condition, Comparison)
            and condition.operator == "="
            and isinstance(condition.left, VariableExpr)
            and isinstance(condition.right, VariableExpr)
        ):
            left, right = condition.left.variable, condition.right.variable
            if left in bound and right in variables:
                return condition, left, right
            if right in bound and left in variables:
                return condition, right, left
    return None


def _filtered(child: PhysicalOperator, slot: Tuple[Expression, ...]):
    """``child`` under a :class:`Filter` for ``slot`` (bare when empty)."""
    if not slot:
        return child
    return Filter(child, slot, "+".join(sorted({condition_kernel(c) for c in slot})))


def _emitted(plan: BGPPlan, project: Optional[Tuple[Variable, ...]]) -> Tuple[Variable, ...]:
    """The variables a plan decodes per row, by name: every plan variable
    that is in ``project`` (all of them for ``None``)."""
    variables: Set[Variable] = set()
    for step in plan.steps:
        variables |= step.node.variables()
    if project is not None:
        variables &= set(project)
    return _by_name(variables)


def _by_name(variables: Set[Variable]) -> Tuple[Variable, ...]:
    return tuple(sorted(variables, key=lambda v: v.name))


def _distinct_values(node, variable: Variable, graph) -> Optional[float]:
    """How many distinct values ``variable`` takes in the matches of the
    triple pattern ``node`` (the store's distinct subjects / objects of its
    predicate); ``None`` where the store keeps no such count (a path)."""
    if not isinstance(node, TriplePatternNode):
        return None
    subject, predicate, obj = node.triple
    named = None if isinstance(predicate, Variable) else predicate
    if variable == subject:
        return float(graph.distinct_subjects(named))
    if variable == obj:
        return float(graph.distinct_objects(named))
    return float(graph.distinct_predicates())


def _cut(
    leaves: Sequence[PhysicalOperator],
    slots: Sequence[Tuple[Expression, ...]],
    projected: Set[Variable],
    graph,
) -> Optional[Tuple[int, Factor, Tuple[Expression, ...]]]:
    """Where a DISTINCT pipeline of ``leaves`` (conjuncts: ``slots``,
    decoded variables: ``projected``) is cut into a prefix and a
    :class:`Factor` over the suffix: ``(last prefix position, factor, the
    conjuncts that read across the cut)``, or ``None``.

    One live-variable analysis.  After step ``k`` the prefix has bound
    ``P``; a variable of ``P`` is *live* when a later step reads it, a later
    conjunct does or it is projected, and the cut is possible when some
    variable of ``P`` is dead and the later steps read a strict subset of
    the live ones (the *key*).  The suffix then runs once per distinct key
    instead of once per prefix row; priced in probes from the steps'
    estimates — ``rows`` prefix rows, ``values`` distinct keys (product of
    the store's distinct subjects / objects at each key variable's binding
    position), ``probes`` suffix probes per run, and one memo probe per
    prefix row — a cut saves ``rows * (probes - 1) - values * probes``.
    The cut goes where that is largest, and nowhere when no position saves.
    """
    mentions = [
        leaf.node.variables() | ({leaf.probe} if isinstance(leaf, HashProbe) else set())
        for leaf in leaves
    ]
    per_probe = [leaf.estimate for leaf in leaves]
    best: Optional[Tuple[float, int, Set[Variable], Set[Variable]]] = None
    bound: Set[Variable] = set()
    binder: Dict[Variable, float] = {}
    rows = 1.0
    for k, leaf in enumerate(leaves[:-1]):
        for variable in leaf.node.variables() - bound:
            values = _distinct_values(leaf.node, variable, graph)
            binder[variable] = float("inf") if values is None else values
        bound = bound | leaf.node.variables()
        rows *= per_probe[k]
        later: Set[Variable] = set().union(*mentions[k + 1 :])
        key = bound & later
        read = later | projected
        for slot in slots[k + 1 :]:
            for condition in slot:
                read |= condition.variables()
        live = bound & read
        if live == bound or live == key:
            continue
        values = 1.0
        for variable in key:
            values *= binder[variable]
        probes, reach = 0.0, 1.0
        for estimate in per_probe[k + 1 :]:
            probes += reach
            reach *= estimate
        saved = rows * (probes - 1.0) - values * probes
        if saved > 0 and (best is None or saved > best[0]):
            best = (saved, k, key, bound)
    if best is None:
        return None
    _, k, key, prefix = best
    suffix_inputs: List[PhysicalOperator] = []
    deferred: List[Expression] = []
    read = set(projected)
    for leaf, slot in zip(leaves[k + 1 :], slots[k + 1 :]):
        kept = []
        for condition in slot:
            if condition.variables() & prefix <= key:
                kept.append(condition)
            else:
                deferred.append(condition)
                read |= condition.variables()
        suffix_inputs.append(_filtered(leaf, tuple(kept)))
    suffix: Set[Variable] = set()
    for leaf in leaves[k + 1 :]:
        suffix |= leaf.node.variables()
    keep = (prefix & read) - key
    factor = Factor(
        tuple(suffix_inputs), _by_name(key), _by_name(keep), _by_name((suffix - prefix) & read)
    )
    return k, factor, tuple(deferred)


def lower_plan(
    plan: BGPPlan,
    graph,
    conditions: Sequence[Expression] = (),
    project: Optional[Tuple[Variable, ...]] = None,
    distinct: Optional[Tuple[Variable, ...]] = None,
) -> PhysicalPlan:
    """Lower a logical BGP plan to a physical operator DAG over the encoded store.

    Picks the leapfrog join where :func:`repro.sparql.leapfrog.assessment`
    admits it (a cyclic join graph), :class:`IndexNestedLoopJoin` otherwise.
    FILTER conjuncts (``conditions``) become :class:`Filter` operators at
    the earliest input binding their variables.  A step linked to the steps before it
    only by an equality conjunct becomes a :class:`HashProbe`
    (:func:`_implicit_join`).

    ``project`` names the variables read above the BGP; the plan decodes
    only those at the result boundary (``None``: every plan variable).

    ``distinct`` is the projection (sorted by name) of a query that keeps
    one row per distinct projected row and does nothing else to its rows
    in between (``None``: not such a query).  When the plan emits exactly
    those variables its ``Project`` is ``distinct``: equal rows are equal
    id tuples, dropped at the result boundary before decoding.  Not so
    when the plan emits more (a variable read only by ORDER BY) or less
    (an ``AS`` alias, a projected variable the pattern does not bind).  A
    binary plan with such a ``Project`` is also cut where a variable dies,
    when the estimates say it pays (:func:`_cut`).
    """
    require_encoded(graph)
    step_filters = attach_filters(plan, tuple(conditions))
    prefilters = step_filters[0]
    join: PhysicalOperator
    use_leapfrog, wcoj_fallback = leapfrog.assessment(plan)
    if use_leapfrog:
        join = leapfrog.lower_join(plan, graph, [c for slot in step_filters[1:] for c in slot])
    else:
        leaves: List[PhysicalOperator] = []
        slots: List[Tuple[Expression, ...]] = []
        bound: Set[Variable] = set()
        for position, step in enumerate(plan.steps):
            leaf: PhysicalOperator
            slot = step_filters[position + 1]
            if isinstance(step.node, TriplePatternNode):
                link = _implicit_join(step.node, slot, bound)
                if link is not None:
                    condition, probe, build = link
                    # The plan's estimate is the whole build side; an outer
                    # row meets the share with one value of ?build.
                    values = _distinct_values(step.node, build, graph)
                    leaf = HashProbe(
                        step.node,
                        condition,
                        probe,
                        build,
                        step.estimate,
                        step.estimate / max(1.0, values or 1.0),
                        step.source_index,
                    )
                    slot = tuple(c for c in slot if c is not condition)
                else:
                    shape = idexec.probe_shape(tuple(step.node.triple), bound)
                    leaf = Scan(
                        step.node,
                        step.estimate,
                        step.source_index,
                        f"{shape} {idexec.access_path(shape)}",
                    )
            elif isinstance(step.node, PathPattern):
                leaf = PathExpand(step.node, step.estimate, step.source_index)
            else:  # pragma: no cover - plan_bgp only admits the two kinds above
                raise TypeError(f"unsupported plan node {type(step.node).__name__}")
            leaves.append(leaf)
            slots.append(slot)
            bound |= step.node.variables()
        inputs = [_filtered(leaf, slot) for leaf, slot in zip(leaves, slots)]
        if distinct is not None and _emitted(plan, project) == distinct:
            cut = _cut(leaves, slots, set(distinct), graph)
            if cut is not None:
                position, factor, deferred = cut
                inputs[position + 1 :] = [_filtered(factor, deferred)]
        join = IndexNestedLoopJoin(tuple(inputs))
    child = _filtered(join, prefilters)
    ordered = _emitted(plan, project)
    return PhysicalPlan(
        root=Project(child, ordered, ordered == distinct),
        source=plan,
        wcoj_fallback=wcoj_fallback,
    )


def lower_bgp(
    graph,
    patterns: Sequence,
    conditions: Sequence[Expression] = (),
    project: Optional[Tuple[Variable, ...]] = None,
    distinct: Optional[Tuple[Variable, ...]] = None,
) -> PhysicalPlan:
    """Plan and lower a BGP in one call (convenience for tests/tools)."""
    return lower_plan(plan_bgp(graph, patterns), graph, conditions, project, distinct)


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
def _timed_iter(iterator: Iterator, stats: OperatorStats) -> Iterator:
    """Accumulate an iterator's ``next()`` self-time into ``stats.seconds``.

    Wrapping a *producer* (a store match stream) measures that operator's
    own work; wrapping the *root* stream measures total pipeline time,
    since every downstream operator runs inside the root's ``next()``.
    """
    iterator = iter(iterator)
    while True:
        started = perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            stats.seconds += perf_counter() - started
            return
        stats.seconds += perf_counter() - started
        yield item


def execute_rows(
    plan: PhysicalPlan,
    graph,
    initial: Binding = EMPTY_BINDING,
    timed: bool = False,
    term_fallbacks=None,
) -> Iterator[tuple]:
    """Execute a physical plan, streaming rows: tuples of terms aligned with
    :func:`repro.sparql.idexec.row_header` (the ``Project`` variables, with
    ``initial``'s domain, by name).

    ``initial`` pre-binds variables: every solution extends it, and a
    pre-bound term the graph has never seen simply matches nothing.
    ``term_fallbacks`` is an optional counter (``inc(n)``) of FILTER
    conjunct evaluations the plan had to run on decoded terms.

    Every execution reports its own rows and probes even when the
    physical plan came out of a cache: counters are reset here, and the
    compiled pipeline (:mod:`repro.sparql.idexec`, either join operator)
    counts in registers of the execution and publishes when its stream
    ends or is closed, so nested and interleaved executions of one plan
    do not mix.
    ``timed=True`` additionally measures per-operator self time into
    :attr:`OperatorStats.seconds` (one extra clock read per produced row
    — ``explain_analyze`` turns it on, normal evaluation leaves it off).
    """
    plan.reset_stats()
    stream = idexec.run(plan, graph, initial, _timed_iter if timed else None, term_fallbacks)
    if timed:
        return _timed_iter(stream, plan.root.stats)
    return stream
