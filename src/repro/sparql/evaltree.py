"""Algebra -> evaluation tree: what runs as one pipeline, where each FILTER goes.

:func:`prepare_query` is the one place these decisions are taken.  It
rewrites a query's pattern into an *evaluation tree* — the same frozen
algebra nodes plus :class:`Pipeline` — which
:class:`~repro.sparql.evaluator.SparqlEvaluator` walks without deciding
anything, ``explain`` renders and live views differentiate.  The pass is
pure in (query, profile) and idempotent, so an engine keeps its result per
query text.

==========================================  ==================================
pattern, under the conjuncts above it       becomes
==========================================  ==================================
``FILTER``                                  nothing: its conjuncts join those
                                            travelling down, outermost first
BGP of triple / path patterns               ``Pipeline(bgp, conjuncts)``
lone triple / path pattern, conjuncts       ``Pipeline`` of the singleton BGP
lone triple pattern at the root, none       ``Pipeline`` of the singleton BGP
lone path pattern, or nested triple         itself: the id path engine, a
pattern, none                               direct index probe
``MINUS``                                   the conjuncts go to its left side
``OPTIONAL``, right side one of the three   condition conjuncts whose
rows above (under its own FILTERs)          variables that BGP binds go into
                                            it, before the FILTERs' own; the
                                            rest stay the condition
anything else                               its children placed, under one
                                            ``FILTER`` per conjunct
==========================================  ==================================

MINUS only selects rows of its left side and leaves them as they are, so
``FILTER(MINUS(L, R), c)`` = ``MINUS(FILTER(L, c), R)``.  A condition
conjunct of an OPTIONAL whose variables the right-hand BGP all binds has
the same verdict on the bare right row as on any merged row: merge
compatibility forces shared values equal.  Conjunct by conjunct is
faithful to the conjunction everywhere: an errored conjunct reads as
unsatisfied either way (:func:`repro.sparql.expressions.conjuncts`).

A bare lone triple pattern at the root is a one-step plan: its rows are
then the root pipeline's id tuples, decoded once for the projected
variables only.  Plans and their compiled steps
outlive store versions while the statistics they were planned on hold
(:mod:`repro.sparql.plancache`), so a write no longer makes that plan
cost a re-plan.  A lone *path* root already emits tuples
(``IdPathEngine.rows``) without a plan, and stays off the pipeline for
the cost per row: a one-step plan writes each end pair into registers and
hands it through a step frame to the result boundary, where
``IdPathEngine.rows`` decodes the pair set in one loop.  Routed through a
singleton ``Pipeline``, ``bench/run.py --workload gmark_native`` (49 of
its 50 queries are bare root paths) kept its median query time and went
from 3 142-3 409 to 1 732-1 783 ``ops_per_s`` and from 0.82-0.91 to
1.75-1.96 ``op_p90_ms`` (three alternating 5 s pairs on a 2-core Xeon).
A bare pattern *nested* under
UNION / OPTIONAL / MINUS stays a direct index probe: an engine that
evaluates many texts once each would pay a cold plan for every such
promotion (ROADMAP item 2).

With ``use_planner`` off the pass is the identity: the textual-order
oracle shares nothing with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.rdf.terms import Variable
from repro.sparql.algebra import (
    BGP,
    Bind,
    Filter,
    GraphGraphPattern,
    GraphPatternNode,
    Join,
    LeftJoin,
    Minus,
    PathPattern,
    Query,
    SelectQuery,
    TriplePatternNode,
    Union,
)
from repro.sparql.expressions import Aggregate, And, Expression, conjuncts
from repro.sparql.profile import ExecutionProfile

_LEAVES = (TriplePatternNode, PathPattern)
Conjuncts = Tuple[Expression, ...]


@dataclass(frozen=True)
class Pipeline(GraphPatternNode):
    """A BGP of triple / path patterns planned, lowered and run as one
    compiled pipeline, under the FILTER conjuncts placed into it."""

    bgp: BGP
    conditions: Conjuncts = ()

    def variables(self) -> set:
        return self.bgp.variables()

    def children(self) -> Sequence[GraphPatternNode]:
        return (self.bgp,)


class PreparedQuery(NamedTuple):
    """A parsed query with its evaluation tree (:func:`prepare_query`)."""

    query: Query
    #: What the evaluator walks.
    tree: GraphPatternNode
    #: The whole pattern as one pipeline, if it is one — what ``explain``
    #: renders and a live view differentiates: a root :class:`Pipeline` or
    #: the singleton of a lone pattern; ``None`` otherwise and without the
    #: planner.
    pipeline: Optional[Pipeline]
    #: With a ``pipeline``, what goes down with it (``lower_plan(project=,
    #: distinct=)``): :func:`_variables_read` and :func:`_distinct_projection`.
    project: Optional[Tuple[Variable, ...]]
    distinct: Optional[Tuple[Variable, ...]]


def prepare_query(query: Query, profile: ExecutionProfile) -> PreparedQuery:
    """The evaluation tree of ``query`` under ``profile`` (module docstring)."""
    if not profile.use_planner:
        return PreparedQuery(query, query.pattern, None, None, None)
    tree = core = _place(query.pattern, ())
    if type(core) in _LEAVES:
        core = Pipeline(BGP((core,)))
        if type(tree) is TriplePatternNode:
            tree = core
    if type(core) is not Pipeline:
        return PreparedQuery(query, tree, None, None, None)
    return PreparedQuery(query, tree, core, _variables_read(query), _distinct_projection(query))


def _place(node: GraphPatternNode, outer: Conjuncts) -> GraphPatternNode:
    """``node`` placed, under the conjuncts ``outer`` (outermost first)."""
    kind = type(node)
    if kind is Filter:
        return _place(node.pattern, outer + tuple(conjuncts(node.condition)))
    if kind in _LEAVES:
        return Pipeline(BGP((node,)), outer) if outer else node
    if kind is Pipeline:  # a tree, placed again
        return Pipeline(node.bgp, outer + node.conditions) if outer else node
    if kind is Minus:
        return Minus(_place(node.left, outer), _place(node.right, ()))
    if kind is BGP:
        if all(type(pattern) in _LEAVES for pattern in node.patterns):
            return Pipeline(node, outer)
        # Built by hand with something else inside: joined one by one.
        placed = BGP(tuple(_place(pattern, ()) for pattern in node.patterns))
    elif kind is LeftJoin:
        placed = _place_optional(node)
    elif kind in (Join, Union):
        placed = kind(_place(node.left, ()), _place(node.right, ()))
    elif kind is GraphGraphPattern:
        placed = GraphGraphPattern(node.graph, _place(node.pattern, ()))
    elif kind is Bind:
        placed = Bind(_place(node.pattern, ()), node.variable, node.expression)
    else:
        placed = node
    for condition in reversed(outer):
        placed = Filter(placed, condition)
    return placed


def _place_optional(node: LeftJoin) -> LeftJoin:
    right = _place(node.right, ())
    condition = node.condition
    if condition is not None and (type(right) is Pipeline or type(right) in _LEAVES):
        bound = right.variables()
        pushed: List[Expression] = []
        kept: List[Expression] = []
        for conjunct in conjuncts(condition):
            variables = conjunct.variables()
            (pushed if variables and variables <= bound else kept).append(conjunct)
        if pushed:
            right = _place(right, tuple(pushed))
            condition = reduce(And, kept) if kept else None
    return LeftJoin(_place(node.left, ()), right, condition)


def _variables_read(query: Query) -> Optional[Tuple[Variable, ...]]:
    """The variables a query form reads from its pattern's rows, sorted by
    name, so a plan decodes nothing else.

    For a SELECT: projection ∪ projection/aggregate expressions ∪ GROUP BY
    ∪ HAVING ∪ ORDER BY, or ``None`` for ``SELECT *`` and
    ``COUNT(DISTINCT *)``, which read them all.  An ASK reads none.
    """
    if not isinstance(query, SelectQuery):
        return ()
    if query.select_all or any(
        isinstance(item.expression, Aggregate)
        and item.expression.argument is None
        and item.expression.distinct
        for item in query.projection
    ):
        return None
    read = set()
    for item in query.projection:
        read.add(item.variable)
        if item.expression is not None:
            read |= item.expression.variables()
    for expression in query.group_by:
        read |= expression.variables()
    if query.having is not None:
        read |= query.having.variables()
    for condition in query.order_by:
        read |= condition.expression.variables()
    return tuple(sorted(read, key=lambda variable: variable.name))


def _distinct_projection(query: Query) -> Optional[Tuple[Variable, ...]]:
    """The projection (sorted by name) of a SELECT DISTINCT / REDUCED with no
    grouping, aggregate or HAVING between its pattern's rows and the
    ORDER BY / slice, else ``None``: what the lowering pass compares with
    the variables a plan emits."""
    if (
        isinstance(query, SelectQuery)
        and (query.distinct or query.reduced)
        and not query.has_aggregates()
        and query.having is None
    ):
        return tuple(sorted(query.projected_variables(), key=lambda variable: variable.name))
    return None
