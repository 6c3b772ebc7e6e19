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
  :class:`~repro.sparql.operators.IndexNestedLoopJoin`.

* **Executor** — :func:`execute_rows` is the one entry point for running
  a planned BGP, always as a stream of term tuples aligned with
  :func:`repro.sparql.idexec.row_header`, and reaches one executor:
  whatever the join operator, the plan is compiled once into a chain of
  step closures by :mod:`repro.sparql.idexec` and kept with the plan.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import Variable
from repro.sparql import idexec, leapfrog
from repro.sparql.algebra import PathPattern, TriplePatternNode
from repro.sparql.expressions import Comparison, Expression, VariableExpr
from repro.sparql.kernels import condition_kernel
from repro.sparql.operators import (
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
    (an ``AS`` alias, a projected variable the pattern does not bind).
    """
    require_encoded(graph)
    step_filters = attach_filters(plan, tuple(conditions))
    prefilters = step_filters[0]
    join: PhysicalOperator
    use_leapfrog, wcoj_fallback = leapfrog.assessment(plan)
    if use_leapfrog:
        join = leapfrog.lower_join(plan, graph, [c for slot in step_filters[1:] for c in slot])
    else:
        inputs: List[PhysicalOperator] = []
        bound: Set[Variable] = set()
        for position, step in enumerate(plan.steps):
            leaf: PhysicalOperator
            slot = step_filters[position + 1]
            if isinstance(step.node, TriplePatternNode):
                link = _implicit_join(step.node, slot, bound)
                if link is not None:
                    leaf = HashProbe(step.node, *link, step.estimate, step.source_index)
                    slot = tuple(c for c in slot if c is not link[0])
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
            inputs.append(_filtered(leaf, slot))
            bound |= step.node.variables()
        join = IndexNestedLoopJoin(tuple(inputs))
    child = _filtered(join, prefilters)
    result_variables: Set[Variable] = set()
    for step in plan.steps:
        result_variables |= step.node.variables()
    if project is not None:
        result_variables &= set(project)
    ordered = tuple(sorted(result_variables, key=lambda v: v.name))
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
