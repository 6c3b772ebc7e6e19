"""Cost-based planning of basic graph patterns.

The reference evaluator used to execute BGPs in textual order, fully
materialising every triple pattern's extension before joining — the
join-order blindness that the worst-case-optimal-join literature shows can
be asymptotically catastrophic.  This module replaces that with a small,
explicit planning pipeline:

1. **Cost model** — :func:`estimate_cardinality` prices a triple or path
   pattern against the exact incremental statistics kept by
   :class:`repro.store.encoded.EncodedGraph` (per-predicate cardinalities, distinct
   subject/object counts).  Patterns whose variables are already bound by
   earlier plan steps are priced with the classic ``card / distinct``
   selectivity division.

2. **Greedy ordering** — :func:`plan_bgp` repeatedly picks the cheapest
   remaining pattern given the variables bound so far, preferring patterns
   connected to the bound set so Cartesian products are only taken when
   unavoidable.  The result is a :class:`BGPPlan`: an ordered tuple of
   :class:`PlanStep` values, i.e. *plans as data* that can be inspected,
   logged and (in later work) cached or shipped to shards.

3. **FILTER attachment and the direct probe** — :func:`attach_filters`
   assigns each FILTER conjunct to the earliest step binding its
   variables; :func:`match_triple` answers one lone triple pattern from
   a single SPO/POS/OSP index probe.

4. **Validity across writes** — a plan records the leaf counts it was
   chosen on (:func:`leaf_statistics`); a cached plan is kept after a
   write while :func:`statistics_hold` (each count within a factor 2,
   none crossing zero): the inputs its order was priced on have not
   moved enough to reorder it.

A plan is run by lowering it (:func:`repro.sparql.physical.lower_plan`)
and executing the result (:func:`repro.sparql.physical.execute_rows`); the
greedy ordering loop is :func:`repro.sparql.ordering.greedy_order`,
shared with the Datalog engine's body ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Triple, Variable
from repro.sparql.algebra import GraphPatternNode, PathPattern, TriplePatternNode
from repro.sparql.expressions import Expression
from repro.sparql.ordering import greedy_order
from repro.sparql.paths import (
    AlternativePath,
    InversePath,
    LinkPath,
    NegatedPropertySet,
    OneOrMorePath,
    PropertyPath,
    RepeatPath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
    matches_zero_length as _matches_zero_length,
)
from repro.store.encoded import require_encoded

#: Per-step FILTER attachment produced by :func:`attach_filters`: slot 0
#: holds conditions checked against the initial binding, slot ``i + 1``
#: those checked right after plan step ``i`` extends a row.
StepFilters = Tuple[Tuple[Expression, ...], ...]

#: Cost multiplier for closure path operators (``+``, ``*``, ``?``): they
#: expand transitively, so a closure step is priced above the plain link
#: cardinality to push it behind selective patterns.
_CLOSURE_COST_FACTOR = 4.0


@dataclass(frozen=True)
class PlanStep:
    """One step of a BGP plan: a pattern plus its estimated cardinality."""

    node: GraphPatternNode
    estimate: float
    source_index: int

    def __repr__(self) -> str:
        return f"PlanStep({self.node!r}, est={self.estimate:g})"


#: A store count a plan was chosen on: a constants-only triple pattern
#: (``None`` for a free position) and how many triples matched it then.
Statistic = Tuple[Tuple[Optional[Term], Optional[Term], Optional[Term]], int]


@dataclass(frozen=True)
class BGPPlan:
    """An ordered join plan for a basic graph pattern."""

    steps: Tuple[PlanStep, ...]
    #: The leaf cardinalities the order was chosen on (:func:`leaf_statistics`):
    #: the plan stays a good one while :func:`statistics_hold`.
    statistics: Tuple[Statistic, ...] = ()

    def order(self) -> List[int]:
        """Return the source indexes of the patterns in execution order."""
        return [step.source_index for step in self.steps]

    def explain(self) -> str:
        """Human-readable one-line-per-step rendering of the plan."""
        lines = []
        for position, step in enumerate(self.steps):
            lines.append(
                f"{position}: est={step.estimate:g} "
                f"src={step.source_index} {step.node!r}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
def _component(part: Union[Term, Variable]) -> Optional[Term]:
    """Map a pattern component to an index probe key (variables → None)."""
    return None if isinstance(part, Variable) else part


def estimate_triple_pattern(
    graph: Graph, triple: Triple, bound: Set[Variable]
) -> float:
    """Estimate the number of matches for ``triple`` given bound variables.

    Components that are ground terms are priced exactly via
    :meth:`EncodedGraph.pattern_cardinality`; variable components already in
    ``bound`` (value unknown at plan time) divide the estimate by the
    number of distinct terms in that position.
    """
    subject = _component(triple.subject)
    predicate = _component(triple.predicate)
    obj = _component(triple.object)
    estimate = float(graph.pattern_cardinality(subject, predicate, obj))
    if estimate == 0.0:
        return 0.0
    if subject is None and triple.subject in bound:
        estimate /= max(1, graph.distinct_subjects(predicate))
    if predicate is None and triple.predicate in bound:
        estimate /= max(1, graph.distinct_predicates())
    if obj is None and triple.object in bound:
        estimate /= max(1, graph.distinct_objects(predicate))
    return estimate


def _path_base_cardinality(graph: Graph, path: PropertyPath) -> float:
    """Rough extension size of a property path, from predicate statistics."""
    if isinstance(path, LinkPath):
        return float(graph.predicate_cardinality(path.iri))
    if isinstance(path, InversePath):
        return _path_base_cardinality(graph, path.path)
    if isinstance(path, AlternativePath):
        return _path_base_cardinality(graph, path.left) + _path_base_cardinality(
            graph, path.right
        )
    if isinstance(path, SequencePath):
        # A sequence joins on the middle node; its size is bounded above by
        # the product but is typically closer to the larger side.
        left = _path_base_cardinality(graph, path.left)
        right = _path_base_cardinality(graph, path.right)
        return max(left, right)
    if isinstance(path, (OneOrMorePath, ZeroOrMorePath, ZeroOrOnePath)):
        return _path_base_cardinality(graph, path.path) * _CLOSURE_COST_FACTOR
    if isinstance(path, RepeatPath):
        return _path_base_cardinality(graph, path.path) * _CLOSURE_COST_FACTOR
    if isinstance(path, NegatedPropertySet):
        # A negated set scans every triple except the forbidden predicates
        # (twice when both forward and inverse members are present).
        scans = (1 if path.forward or not path.inverse else 0) + (
            1 if path.inverse else 0
        )
        forbidden = sum(
            graph.predicate_cardinality(iri) for iri in path.forward + path.inverse
        )
        return max(0.0, float(len(graph) * scans - forbidden))
    return float(len(graph))


def estimate_path_pattern(
    graph: Graph, node: PathPattern, bound: Set[Variable]
) -> float:
    """Estimate the result size of a path pattern given bound variables."""
    estimate = _path_base_cardinality(graph, node.path)
    if _matches_zero_length(node.path):
        # Zero-length semantics pair every graph node with itself, so these
        # paths are never free even when the underlying predicate is absent.
        estimate = max(estimate, float(len(graph)))
    elif estimate == 0.0:
        return 0.0
    subject_bound = not isinstance(node.subject, Variable) or node.subject in bound
    object_bound = not isinstance(node.object, Variable) or node.object in bound
    if node.path.is_recursive() and not subject_bound and not object_bound:
        # A recursive path with two free endpoints expands from every node
        # (ALP) or every node with an inner edge (id engine): price the
        # per-start expansion so the planner binds an endpoint first
        # whenever any other pattern can provide one.  Square root keeps the penalty comparable to
        # the join-selectivity divisions rather than dwarfing them.
        estimate *= max(1.0, float(graph.distinct_subjects())) ** 0.5
    if subject_bound:
        estimate /= max(1, graph.distinct_subjects())
    if object_bound:
        estimate /= max(1, graph.distinct_objects())
    return estimate


def estimate_cardinality(
    graph: Graph, node: GraphPatternNode, bound: Set[Variable]
) -> float:
    """Estimate the cardinality of a plannable pattern node."""
    if isinstance(node, TriplePatternNode):
        return estimate_triple_pattern(graph, node.triple, bound)
    if isinstance(node, PathPattern):
        return estimate_path_pattern(graph, node, bound)
    raise TypeError(f"cannot estimate {type(node).__name__}")


# ----------------------------------------------------------------------
# greedy join ordering
# ----------------------------------------------------------------------
def plan_bgp(graph: Graph, patterns: Sequence[GraphPatternNode]) -> BGPPlan:
    """Greedily order ``patterns`` by estimated cardinality.

    At each step the cheapest pattern among those sharing a variable with
    the already-bound set is chosen (all patterns qualify at the first
    step or when nothing is bound yet); a disconnected pattern — i.e. a
    Cartesian product — is only chosen when no connected pattern remains.
    Ties fall back to source order, keeping planning deterministic.  The
    statistics are the encoded store's; any other store raises a ``TypeError``.
    """
    require_encoded(graph)
    ordered = greedy_order(
        patterns,
        lambda node: node.variables(),
        lambda node, bound: estimate_cardinality(graph, node, bound),
    )
    return BGPPlan(
        tuple(PlanStep(node, estimate, index) for index, node, estimate in ordered),
        leaf_statistics(graph, patterns),
    )


# ----------------------------------------------------------------------
# plan validity across store versions
# ----------------------------------------------------------------------
_WHOLE_GRAPH = (None, None, None)


def _path_iris(path: PropertyPath) -> Iterator[Term]:
    """Every predicate IRI a property path names."""
    if isinstance(path, LinkPath):
        yield path.iri
    elif isinstance(path, NegatedPropertySet):
        yield from path.forward + path.inverse
    elif isinstance(path, (SequencePath, AlternativePath)):
        yield from _path_iris(path.left)
        yield from _path_iris(path.right)
    else:  # inverse, closures, ``?`` and repetitions wrap one path
        yield from _path_iris(path.path)


def leaf_statistics(graph: Graph, patterns: Sequence[GraphPatternNode]) -> Tuple[Statistic, ...]:
    """The O(1) store counts a plan of ``patterns`` is chosen on, read now.

    Per triple leaf its constants-only pattern count, and ``len(graph)``
    where its predicate is a variable; per path leaf the count of every
    predicate it names, and ``len(graph)``, which zero-length, negated and
    two-free-endpoint closure estimates read.
    """
    keys: Dict[Tuple[Optional[Term], ...], None] = {}
    for node in patterns:
        if isinstance(node, TriplePatternNode):
            key = tuple(map(_component, node.triple))
            keys[key] = None
            if key[1] is None:
                keys[_WHOLE_GRAPH] = None
        else:
            for iri in _path_iris(node.path):
                keys[(None, iri, None)] = None
            keys[_WHOLE_GRAPH] = None
    return tuple((key, graph.pattern_cardinality(*key)) for key in keys)


def statistics_hold(graph: Graph, statistics: Sequence[Statistic]) -> bool:
    """Whether a plan chosen on ``statistics`` still fits ``graph``: every
    count is within a factor 2 of the one recorded, and none went from or
    to zero.  The one validity check of a plan kept across writes."""
    count = graph.pattern_cardinality
    for pattern, planned in statistics:
        now = count(*pattern)
        if now != planned and (not now or not planned or now > 2 * planned or planned > 2 * now):
            return False
    return True


# ----------------------------------------------------------------------
# FILTER pushdown
# ----------------------------------------------------------------------
def attach_filters(
    plan: BGPPlan, conditions: Sequence[Expression]
) -> StepFilters:
    """Assign each FILTER conjunct to the earliest step binding its variables
    (:func:`attach_conditions` over what each plan step binds)."""
    return attach_conditions([step.node.variables() for step in plan.steps], conditions)


def attach_conditions(
    binds: Sequence[Set[Variable]], conditions: Sequence[Expression]
) -> StepFilters:
    """Assign each conjunct to the earliest of the steps — ``binds`` says
    what each one binds — after which its variables are all bound.

    Once every variable a condition mentions is bound, later steps can
    only *extend* a row with other variables — they never rebind existing
    ones — so the condition's verdict is final and checking it early
    prunes the row before the remaining joins multiply it.  Conditions
    with no variables land in slot 0 (checked once, before any probing);
    conditions mentioning a variable no step binds land after the
    last step, where they evaluate exactly as a post-filter would (the
    unbound variable raises, and the error counts as "not satisfied").
    """
    slots: List[List[Expression]] = [[] for _ in range(len(binds) + 1)]
    bound_after: List[Set[Variable]] = []
    bound: Set[Variable] = set()
    for variables in binds:
        bound = bound | variables
        bound_after.append(bound)
    for condition in conditions:
        variables = condition.variables()
        target = len(binds)
        if not variables:
            target = 0
        else:
            for position, available in enumerate(bound_after):
                if variables <= available:
                    target = position + 1
                    break
        slots[target].append(condition)
    return tuple(tuple(slot) for slot in slots)


# ----------------------------------------------------------------------
# direct probe: a lone triple pattern
# ----------------------------------------------------------------------
def match_triple(
    graph: Graph, pattern: Triple
) -> Tuple[Tuple[Variable, ...], Iterator[Tuple[Term, ...]]]:
    """The solutions of one triple pattern from a single index probe:
    ``(header, rows)``, the pattern's variables in name order and a stream
    of term tuples aligned with them.  What the evaluator runs for a bare
    triple pattern below the root and for every pattern of the unplanned
    evaluation; anything else runs on the compiled pipeline."""
    free: Dict[Variable, int] = {}
    repeats: List[Tuple[int, int]] = []
    for position, part in enumerate(pattern):
        if isinstance(part, Variable) and free.setdefault(part, position) != position:
            repeats.append((free[part], position))
    # Which triple position fills which column: fixed here, not per triple.
    slots = sorted(free.items(), key=lambda slot: slot[0].name)
    positions = [position for _, position in slots]
    rows = (
        tuple([values[position] for position in positions])
        for values in map(tuple, graph.triples(*map(_component, pattern)))
        if not repeats or all(values[first] == values[again] for first, again in repeats)
    )
    return tuple(variable for variable, _ in slots), rows
