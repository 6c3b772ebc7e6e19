"""Physical-operator execution layer: plan IR, lowering pass, executors.

Logical planning (:mod:`repro.sparql.plan`) stops at an ordered
:class:`~repro.sparql.plan.BGPPlan`; this module turns that logical plan
into an explicit *physical* plan — a small DAG of operator dataclasses —
and executes it.  The split gives every execution strategy one home:

* **IR** — :class:`Scan`, :class:`HashProbe`,
  :class:`IndexNestedLoopJoin`, :class:`LeapfrogJoin`, :class:`Filter`,
  :class:`PathExpand` and :class:`Project` describe *how* a BGP runs.  Operators carry the
  estimates the lowering pass used plus mutable :class:`OperatorStats`
  row/probe counters filled in during execution, and the whole tree
  renders through :meth:`PhysicalPlan.explain`.

* **Lowering** — :func:`lower_plan` chooses term-space vs. id-space
  operators per *backend capability* (duck-typed store surfaces): an
  id-capable graph gets ids in the registers, everything else the terms
  themselves (``plan.space``, the one selector of the key space).  The
  :class:`~repro.sparql.profile.ExecutionProfile` it is handed can only
  *disable* a capability (to recover the differential reference
  configurations), never force an unsupported one.  FILTER conjuncts
  arrive here and become :class:`Filter` operators wrapped around the
  earliest input that binds their variables
  (:func:`repro.sparql.plan.attach_filters`).

* **Executor** — :func:`execute` is the one entry point for running a
  planned BGP, always as a stream, and dispatches on the join operator
  alone: an index-nested-loop plan of either space is compiled once
  into a chain of step closures by :mod:`repro.sparql.idexec` and cached
  on the plan; the leapfrog triejoin interprets its DAG here.

* **Worst-case-optimal join** — :class:`LeapfrogJoin` implements the
  leapfrog-triejoin of Veldhuizen over the encoded store's sorted id
  runs.  Binary join plans are provably suboptimal on cyclic join graphs
  (triangles, k-cliques blow up the best binary order to Θ(N²) on skewed
  data — "Skew Strikes Back", Ngo/Ré/Rudra 2013); the lowering pass
  detects cyclicity with a GYO ear-removal reduction and switches those
  BGPs to the multiway intersection, which enumerates one global variable
  order and intersects, per variable, the sorted candidate runs of every
  pattern containing it.  Acyclic BGPs keep the binary pipeline.

The greedy ordering machinery (:func:`greedy_order`,
:func:`select_cheapest`) lives here too and serves both
:func:`repro.sparql.plan.plan_bgp` and the Datalog engine's body-atom
ordering, so join ordering is no longer forked per engine.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import Variable
from repro.sparql.algebra import PathPattern, TriplePatternNode
from repro.sparql.expressions import (
    Comparison,
    Expression,
    FunctionCall,
    TermExpr,
    VariableExpr,
)
from repro.sparql import idexec
from repro.sparql.idexec import supports_id_execution
from repro.sparql.idpaths import IdPathEngine, supports_id_paths
from repro.sparql.plan import (
    BGPPlan,
    PathEvaluator,
    StepFilters,
    attach_filters,
    plan_bgp,
)
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import Binding, EMPTY_BINDING

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# shared greedy ordering (BGP planning and Datalog body ordering)
# ----------------------------------------------------------------------
def select_cheapest(items: Sequence, estimate: Callable, tie_key: Callable):
    """Return the item minimising ``(estimate(item), tie_key(item))``.

    The single tie-break rule shared by the BGP planner and the Datalog
    engine's body ordering: cost first, source position second, keeping
    both orderings deterministic.
    """
    best_item = None
    best_key = None
    for item in items:
        key = (estimate(item), tie_key(item))
        if best_key is None or key < best_key:
            best_key, best_item = key, item
    return best_item


def greedy_order(
    items: Sequence,
    variables_of: Callable[[object], Set],
    estimate: Callable[[object, Set], float],
) -> List[Tuple[int, object, float]]:
    """Greedily order ``items`` by estimated cardinality given bound variables.

    At each step the cheapest item among those sharing a variable with
    the already-bound set is chosen (all items qualify at the first step
    or when nothing is bound yet); a disconnected item — a Cartesian
    product — is only chosen when no connected item remains.  Ties fall
    back to source order.  Returns ``(source_index, item, estimate)``
    triples in execution order.  This is the ordering loop behind
    :func:`repro.sparql.plan.plan_bgp` and (through
    :func:`select_cheapest`) the Datalog engine's atom ordering.
    """
    remaining: List[Tuple[int, object]] = list(enumerate(items))
    bound: Set = set()
    ordered: List[Tuple[int, object, float]] = []
    while remaining:
        candidates = [
            (index, item)
            for index, item in remaining
            if not bound or not variables_of(item) or variables_of(item) & bound
        ]
        if not candidates:
            candidates = remaining
        best_index, best_item, best_estimate = None, None, None
        for index, item in candidates:
            cost = estimate(item, bound)
            if best_estimate is None or cost < best_estimate:
                best_index, best_item, best_estimate = index, item, cost
        ordered.append((best_index, best_item, best_estimate))
        bound |= variables_of(best_item)
        remaining = [(i, it) for i, it in remaining if i != best_index]
    return ordered


# ----------------------------------------------------------------------
# join-graph cyclicity (GYO ear-removal reduction)
# ----------------------------------------------------------------------
def is_cyclic(variable_sets: Iterable[Iterable[Variable]]) -> bool:
    """True when the join hypergraph of ``variable_sets`` is alpha-cyclic.

    GYO reduction: repeatedly (a) drop *ear* variables occurring in
    exactly one hyperedge and (b) drop hyperedges contained in another
    edge.  An acyclic hypergraph reduces to at most one edge; getting
    stuck with two or more means a cycle — a triangle
    ``{x,y} {y,z} {z,x}`` is the minimal stuck state.
    """
    edges = [set(edge) for edge in variable_sets if edge]
    if len(edges) <= 1:
        return False
    changed = True
    while changed:
        changed = False
        counts: Dict[Variable, int] = {}
        for edge in edges:
            for variable in edge:
                counts[variable] = counts.get(variable, 0) + 1
        for edge in edges:
            ears = {variable for variable in edge if counts[variable] == 1}
            if ears:
                edge -= ears
                changed = True
        for index, edge in enumerate(edges):
            if any(
                other_index != index and edge <= other
                for other_index, other in enumerate(edges)
            ):
                # Only one edge per pass: duplicate edges are subsets of
                # each other, and removing both at once would be wrong.
                edges.pop(index)
                changed = True
                break
        if len(edges) <= 1:
            return False
    return True


# ----------------------------------------------------------------------
# operator IR
# ----------------------------------------------------------------------
@dataclass(slots=True)
class OperatorStats:
    """Mutable per-operator counters for the most recent execution.

    ``probes`` counts index/engine lookups issued by the operator (or
    rows tested, for filters); ``rows`` counts rows the operator passed
    downstream; ``seconds`` is wall time measured only under
    ``execute(..., timed=True)`` (self time for leaf and intersection
    operators, total pipeline time on the ``Project`` root).  Counters
    are reset at the start of every :func:`execute` call and written when
    an execution's stream ends or is closed, from counts it kept to itself
    — cached plans therefore report the numbers of exactly one run, never
    an accumulation across reuses or a mixture of two runs in flight.
    Surfaced through :meth:`PhysicalPlan.counters`
    for the bench metrics hooks and ``explain(counters=True)``.
    """

    rows: int = 0
    probes: int = 0
    seconds: float = 0.0

    def reset(self) -> None:
        self.rows = 0
        self.probes = 0
        self.seconds = 0.0


class PhysicalOperator:
    """Base class of physical plan operators."""

    def children(self) -> Tuple["PhysicalOperator", ...]:
        return ()

    def describe(self) -> str:  # pragma: no cover - every subclass overrides
        raise NotImplementedError


def _condition_label(expression: Expression) -> str:
    """Compact, stable rendering of a FILTER conjunct for explain output."""
    if isinstance(expression, Comparison):
        return (
            f"({_condition_label(expression.left)} {expression.operator} "
            f"{_condition_label(expression.right)})"
        )
    if isinstance(expression, VariableExpr):
        return repr(expression.variable)
    if isinstance(expression, TermExpr):
        return repr(expression.term)
    if isinstance(expression, FunctionCall):
        arguments = ", ".join(_condition_label(a) for a in expression.arguments)
        return f"{expression.name}({arguments})"
    return repr(expression)


@dataclass(eq=False)
class Scan(PhysicalOperator):
    """Index probes of one triple pattern (bound components substituted)."""

    node: TriplePatternNode
    estimate: float
    source_index: int
    #: The access path of a binary pipeline's scan when nothing is
    #: pre-bound — probe shape and how the store is read
    #: (:func:`repro.sparql.idexec.access_path`), e.g. ``"SP? entry"``.
    #: ``None`` under a :class:`LeapfrogJoin`, which reads sorted runs.
    access: Optional[str] = None
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def describe(self) -> str:
        label = f"Scan {self.node!r} est={self.estimate:g}"
        return label if self.access is None else f"{label} probe={self.access}"


@dataclass(eq=False)
class PathExpand(PhysicalOperator):
    """Property-path expansion; ``mode`` records the chosen machinery.

    ``"id"`` runs the id-native :class:`~repro.sparql.idpaths.IdPathEngine`;
    ``"term"`` runs the evaluator's term-level ALP procedure (on a term
    backend, or as the decode/re-intern bridge inside an id pipeline).
    """

    node: PathPattern
    estimate: float
    source_index: int
    mode: str = "term"
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def describe(self) -> str:
        return f"PathExpand[{self.mode}] {self.node!r} est={self.estimate:g}"


@dataclass(eq=False)
class HashProbe(PhysicalOperator):
    """An implicit equality join: a pattern linked to the rows above it
    only by a FILTER conjunct ``?probe = ?build``.

    The pattern's matches do not depend on the outer row, so they are
    built once per execution into a table keyed by the equality key of
    ``?build`` and probed with the key of ``?probe`` per outer row — the
    join the conjunct spells out, instead of a cross product filtered
    afterwards.  ``probes`` counts outer rows, ``rows`` the pairs kept.
    """

    node: TriplePatternNode
    condition: Comparison
    probe: Variable
    build: Variable
    build_estimate: float
    source_index: int
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def describe(self) -> str:
        return (
            f"HashProbe {self.node!r} on {_condition_label(self.condition)} "
            f"build_est={self.build_estimate:g}"
        )


@dataclass(eq=False)
class Filter(PhysicalOperator):
    """FILTER conjuncts checked against each row of the wrapped input."""

    child: PhysicalOperator
    conditions: Tuple[Expression, ...]
    #: Where the conjuncts are decided: ``"id"`` (id-space comparison
    #: kernels), ``"term"`` (decoded, term-level semantics — always so in
    #: a term-space plan) or ``"id+term"`` for a mixed slot.
    kernel: str = "term"
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        rendered = " && ".join(_condition_label(c) for c in self.conditions)
        return f"Filter {rendered} kernel={self.kernel}"


@dataclass(eq=False)
class IndexNestedLoopJoin(PhysicalOperator):
    """Binary pipeline: each input extends the rows of the previous ones."""

    inputs: Tuple[PhysicalOperator, ...]
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return self.inputs

    def describe(self) -> str:
        return f"IndexNestedLoopJoin steps={len(self.inputs)}"


@dataclass(eq=False)
class LeapfrogJoin(PhysicalOperator):
    """Leapfrog-triejoin: multiway sorted intersection per variable level.

    ``var_order`` is the global variable elimination order;
    ``level_conditions`` holds the FILTER conjuncts checked as soon as
    the level binding their last variable completes (final slot: after
    all levels, matching a post-filter).
    """

    scans: Tuple[Scan, ...]
    var_order: Tuple[Variable, ...]
    level_conditions: Tuple[Tuple[Expression, ...], ...]
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return self.scans

    def describe(self) -> str:
        order = ", ".join(repr(v) for v in self.var_order)
        label = f"LeapfrogJoin order=[{order}]"
        attached = [
            f"{_condition_label(c)}@{self.var_order[level]!r}"
            if level < len(self.var_order)
            else f"{_condition_label(c)}@end"
            for level, slot in enumerate(self.level_conditions)
            for c in slot
        ]
        if attached:
            label += " filters=[" + ", ".join(attached) + "]"
        return label


@dataclass(eq=False)
class Project(PhysicalOperator):
    """Result boundary: decodes ids / fixes the output variable order.

    ``variables`` is what an id-space plan decodes per result row: every
    plan variable, or the subset the query reads above the BGP.
    ``distinct`` plans emit each row once: a repeated id tuple is dropped
    before anything is decoded (``rows`` counts the rows that were not).
    """

    child: PhysicalOperator
    variables: Tuple[Variable, ...]
    decode: str
    distinct: bool = False
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        rendered = ", ".join(repr(v) for v in self.variables)
        return f"Project [{rendered}] {'distinct ' if self.distinct else ''}decode={self.decode}"


@dataclass(eq=False)
class PhysicalPlan:
    """A lowered BGP: the operator DAG plus the space it executes in."""

    root: Project
    space: str
    source: BGPPlan
    #: Why a GYO-cyclic BGP was *not* given the leapfrog operator (e.g.
    #: ``"variable predicate"``); ``None`` for acyclic plans and for
    #: cyclic plans that did get it.  Surfaced as a warning log, an
    #: evaluator counter and a trace annotation so WCOJ fallbacks are
    #: never silent.
    wcoj_fallback: Optional[str] = None
    _operator_cache: Optional[List[PhysicalOperator]] = field(
        default=None, repr=False
    )
    #: Compiled pipelines by (domain of the initial binding, ``root.distinct``)
    #: (:func:`repro.sparql.idexec.run` fills and validates it).
    _compiled: Dict[Tuple[Tuple[Variable, ...], bool], object] = field(
        default_factory=dict, repr=False
    )

    def operators(self) -> List[PhysicalOperator]:
        """Every operator of the DAG in depth-first pre-order.

        The DAG is immutable after lowering, so the walk is memoised —
        cached plans reset their counters on every reuse and must not
        pay a fresh traversal each time.
        """
        if self._operator_cache is None:
            result: List[PhysicalOperator] = []
            stack: List[PhysicalOperator] = [self.root]
            while stack:
                operator = stack.pop()
                result.append(operator)
                stack.extend(reversed(operator.children()))
            self._operator_cache = result
        return self._operator_cache

    def reset_stats(self) -> None:
        for operator in self.operators():
            operator.stats.reset()

    def counters(self) -> List[Dict[str, object]]:
        """Per-operator row/probe/time counters for the bench metrics hooks."""
        return [
            {
                "operator": type(operator).__name__,
                "describe": operator.describe(),
                "rows": operator.stats.rows,
                "probes": operator.stats.probes,
                "seconds": operator.stats.seconds,
            }
            for operator in self.operators()
        ]

    def explain(self, counters: bool = False) -> str:
        """Tree rendering of the physical plan (golden-testable).

        With ``counters=True`` each line carries the accumulated
        row/probe counts of its operator.
        """
        lines: List[str] = []

        def render(operator: PhysicalOperator, prefix: str, is_last: bool, top: bool):
            label = operator.describe()
            if counters:
                label += f" rows={operator.stats.rows} probes={operator.stats.probes}"
            if top:
                lines.append(label)
                child_prefix = ""
            else:
                lines.append(prefix + ("└─ " if is_last else "├─ ") + label)
                child_prefix = prefix + ("   " if is_last else "│  ")
            kids = operator.children()
            for index, kid in enumerate(kids):
                render(kid, child_prefix, index == len(kids) - 1, False)

        render(self.root, "", True, True)
        return "\n".join(lines)

    def analysis(self) -> List[Dict[str, object]]:
        """Structured per-operator analysis (pre-order, like ``counters``).

        Adds the planner's estimate and the estimation error to every
        operator that carries an estimate: ``actual`` is the mean rows
        produced per probe (the planner's estimates are per-probe
        expectations), ``est_error`` is ``estimate / actual`` and
        ``flagged`` marks errors beyond 10x in either direction.
        """
        entries = self.counters()
        for operator, entry in zip(self.operators(), entries):
            estimate = getattr(operator, "estimate", None)
            if estimate is None:
                continue
            entry["estimate"] = estimate
            rows, probes = entry["rows"], entry["probes"]
            if probes:
                actual = rows / probes
                entry["actual_per_probe"] = actual
                ratio = _estimation_error(estimate, actual)
                if ratio is not None:
                    entry["est_error"] = ratio
                    entry["flagged"] = not 0.1 <= ratio <= 10.0
        return entries

    def explain_analyze(self, total_seconds: Optional[float] = None) -> str:
        """Tree rendering annotated with wall time and estimation errors.

        Every line carries the measured time (self time for leaves and
        the leapfrog intersection, total pipeline time on ``Project``,
        zero for operators not separately measured), the actual
        row/probe counters, and — on estimate-carrying operators — the
        per-probe actual cardinality with the est/actual error, marked
        ``!`` beyond 10x either way.  Meaningful after
        ``execute(..., timed=True)``; :meth:`SparqlEvaluator.explain_analyze
        <repro.sparql.evaluator.SparqlEvaluator.explain_analyze>` wraps
        execution and rendering in one call.
        """
        analysis = {
            id(operator): entry
            for operator, entry in zip(self.operators(), self.analysis())
        }
        lines: List[str] = []
        if total_seconds is not None:
            lines.append(
                f"EXPLAIN ANALYZE ({self.space} space) "
                f"total={total_seconds * 1e3:.2f}ms"
            )

        def annotate(operator: PhysicalOperator) -> str:
            entry = analysis[id(operator)]
            label = (
                f"{operator.describe()}"
                f" | time={entry['seconds'] * 1e3:.2f}ms"
                f" rows={entry['rows']} probes={entry['probes']}"
            )
            if "estimate" in entry:
                if "actual_per_probe" in entry:
                    label += f" actual={entry['actual_per_probe']:g}/probe"
                    ratio = entry.get("est_error")
                    if ratio is None:
                        label += " err=n/a"
                    else:
                        rendered = "inf" if ratio == float("inf") else f"{ratio:.2g}"
                        label += f" err={rendered}x"
                        if entry["flagged"]:
                            label += " !"
                else:
                    label += " err=n/a"
            return label

        def render(operator: PhysicalOperator, prefix: str, is_last: bool, top: bool):
            label = annotate(operator)
            if top:
                lines.append(label)
                child_prefix = ""
            else:
                lines.append(prefix + ("└─ " if is_last else "├─ ") + label)
                child_prefix = prefix + ("   " if is_last else "│  ")
            kids = operator.children()
            for index, kid in enumerate(kids):
                render(kid, child_prefix, index == len(kids) - 1, False)

        render(self.root, "", True, not lines)
        if self.wcoj_fallback is not None:
            lines.append(f"-- wcoj fallback: {self.wcoj_fallback}")
        return "\n".join(lines)


def _estimation_error(estimate: float, actual: float) -> Optional[float]:
    """``estimate / actual`` with honest edge cases.

    ``actual == 0`` with a substantial estimate (>= 1 expected row) is
    an infinite overestimate; a sub-row estimate finding nothing is not
    an estimation error at all (``None`` — rendered ``n/a``).
    """
    if actual > 0:
        return estimate / actual
    return float("inf") if estimate >= 1.0 else None


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
#: The sorted-run/seek surface the leapfrog operator needs from a store.
LEAPFROG_SURFACE = (
    "sorted_subjects_for_predicate",
    "sorted_objects_for_predicate",
    "sorted_objects_for_subject_predicate",
    "sorted_subjects_for_predicate_object",
)


def supports_leapfrog(graph: object) -> bool:
    """True when ``graph`` exposes sorted id runs (duck-typed, like id exec)."""
    return all(hasattr(graph, name) for name in LEAPFROG_SURFACE)


def _leapfrog_assessment(plan: BGPPlan, graph) -> Tuple[bool, Optional[str]]:
    """Can (and should) this plan run as a leapfrog triejoin — and if a
    *cyclic* plan can't, why not?

    Eligibility requires the sorted-run surface, at least three pure
    triple patterns with constant predicates and no repeated variable
    inside one pattern, and — the actual trigger — a cyclic join
    hypergraph, where every binary join order is worst-case suboptimal.
    Acyclic plans stay on the binary pipeline, which GYO-reduces to the
    optimal shape anyway, so rejecting them is not a fallback and yields
    no reason.  For a cyclic plan a structural rejection *is* a genuine
    WCOJ fallback (the binary pipeline may be worst-case suboptimal
    there), so the second element names the first blocking reason.
    """
    if len(plan.steps) < 3:
        return False, None
    reason: Optional[str] = None
    if not supports_leapfrog(graph):
        reason = "store exposes no sorted id runs"
    edges = []
    for step in plan.steps:
        node = step.node
        if not isinstance(node, TriplePatternNode):
            reason = reason or "property-path pattern in BGP"
        else:
            triple = node.triple
            if isinstance(triple.predicate, Variable):
                reason = reason or "variable predicate"
            elif (
                isinstance(triple.subject, Variable)
                and isinstance(triple.object, Variable)
                and triple.subject == triple.object
            ):
                reason = reason or "repeated variable within one pattern"
        variables = node.variables()
        if variables:
            edges.append(frozenset(variables))
    if not is_cyclic(edges):
        return False, None
    return (True, None) if reason is None else (False, reason)


def _leapfrog_variable_order(plan: BGPPlan, graph) -> Tuple[Variable, ...]:
    """Global variable order: smallest candidate run first, stay connected.

    A variable's root-level candidate run is exact (the projection of a
    predicate's extension onto that position), so its size comes straight
    from the store statistics.  Connectivity preference mirrors the
    binary planner's Cartesian-product avoidance.
    """
    sizes: Dict[Variable, float] = {}
    adjacency: Dict[Variable, Set[Variable]] = {}
    for step in plan.steps:
        triple = step.node.triple
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        if isinstance(subject, Variable):
            size = (
                float(graph.distinct_subjects(predicate))
                if isinstance(obj, Variable)
                else float(graph.pattern_cardinality(None, predicate, obj))
            )
            sizes[subject] = min(sizes.get(subject, float("inf")), size)
            adjacency.setdefault(subject, set())
        if isinstance(obj, Variable):
            size = (
                float(graph.distinct_objects(predicate))
                if isinstance(subject, Variable)
                else float(graph.pattern_cardinality(subject, predicate, None))
            )
            sizes[obj] = min(sizes.get(obj, float("inf")), size)
            adjacency.setdefault(obj, set())
        if isinstance(subject, Variable) and isinstance(obj, Variable):
            adjacency[subject].add(obj)
            adjacency[obj].add(subject)
    order: List[Variable] = []
    chosen: Set[Variable] = set()
    while len(order) < len(sizes):
        candidates = [
            variable
            for variable in sizes
            if variable not in chosen
            and (not order or adjacency[variable] & chosen)
        ]
        if not candidates:
            candidates = [v for v in sizes if v not in chosen]
        best = min(candidates, key=lambda v: (sizes[v], v.name))
        order.append(best)
        chosen.add(best)
    return tuple(order)


def _attach_level_conditions(
    var_order: Tuple[Variable, ...], conditions: Sequence[Expression]
) -> Tuple[Tuple[Expression, ...], ...]:
    """Assign conjuncts to the earliest leapfrog level binding their variables.

    Slot ``l`` is checked right after ``var_order[l]`` binds; the final
    slot runs after all levels (conditions over never-bound variables
    evaluate there exactly as a post-filter: unbound → error → false).
    """
    slots: List[List[Expression]] = [[] for _ in range(len(var_order) + 1)]
    for condition in conditions:
        variables = condition.variables()
        target = len(var_order)
        bound: Set[Variable] = set()
        for level, variable in enumerate(var_order):
            bound.add(variable)
            if variables <= bound:
                target = level
                break
        slots[target].append(condition)
    return tuple(tuple(slot) for slot in slots)


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


def _filtered(child: PhysicalOperator, slot: Tuple[Expression, ...], id_space: bool):
    """``child`` under a :class:`Filter` for ``slot`` (bare when empty)."""
    if not slot:
        return child
    kernels = {idexec.condition_kernel(c) for c in slot} if id_space else {"term"}
    return Filter(child, slot, "+".join(sorted(kernels)))


def lower_plan(
    plan: BGPPlan,
    graph,
    conditions: Sequence[Expression] = (),
    profile: ExecutionProfile = ExecutionProfile.FULL,
    project: Optional[Tuple[Variable, ...]] = None,
    distinct: Optional[Tuple[Variable, ...]] = None,
) -> PhysicalPlan:
    """Lower a logical BGP plan to a physical operator DAG.

    Chooses the execution space from the backend's capabilities
    (``supports_id_execution`` → id pipeline) intersected with what
    ``profile`` allows; picks :class:`LeapfrogJoin` for cyclic join
    graphs on a sorted-run-capable store, :class:`IndexNestedLoopJoin`
    otherwise.  FILTER conjuncts (``conditions``) become :class:`Filter`
    operators at the earliest input binding their variables; with
    ``profile.use_filter_pushdown`` off they all run at the final slot,
    i.e. as a plain post-filter.  In id space a step linked to the steps
    before it only by an equality conjunct becomes a :class:`HashProbe`
    (:func:`_implicit_join`).

    ``project`` names the variables read above the BGP; an id-space plan
    decodes only those at the result boundary (``None``: every plan
    variable).  A term-space plan has nothing to decode and ignores it.

    ``distinct`` is the projection (sorted by name) of a query that keeps
    one row per distinct projected row and does nothing else to its rows
    in between (``None``: not such a query).  When an id-space plan emits
    exactly those variables its ``Project`` is ``distinct``: equal rows
    are equal id tuples, dropped at the result boundary before decoding.
    Not so when the plan emits more (a variable read only by ORDER BY) or
    less (an ``AS`` alias, a projected variable the pattern does not
    bind), nor in term space, where there is no decode to save.
    """
    id_space = profile.use_id_execution and supports_id_execution(graph)
    space = "id" if id_space else "term"
    step_filters: StepFilters
    if conditions and profile.use_filter_pushdown:
        step_filters = attach_filters(plan, tuple(conditions))
    else:
        step_filters = ((),) * len(plan.steps) + (tuple(conditions),)
    flat_conditions = [c for slot in step_filters for c in slot]
    prefilters = tuple(c for c in flat_conditions if not c.variables())
    join: PhysicalOperator
    use_leapfrog = False
    wcoj_fallback: Optional[str] = None
    if id_space and profile.use_wcoj:
        use_leapfrog, wcoj_fallback = _leapfrog_assessment(plan, graph)
        if wcoj_fallback is not None:
            logger.warning(
                "WCOJ selection rejected for GYO-cyclic BGP (%s); "
                "falling back to binary index-nested-loop join",
                wcoj_fallback,
            )
    if use_leapfrog:
        var_order = _leapfrog_variable_order(plan, graph)
        level_conditions = _attach_level_conditions(
            var_order, [c for c in flat_conditions if c.variables()]
        )
        scans = tuple(
            Scan(step.node, step.estimate, step.source_index) for step in plan.steps
        )
        join = LeapfrogJoin(scans, var_order, level_conditions)
    else:
        path_mode = (
            "id"
            if id_space and profile.use_id_paths and supports_id_paths(graph)
            else "term"
        )
        inputs: List[PhysicalOperator] = []
        bound: Set[Variable] = set()
        for position, step in enumerate(plan.steps):
            leaf: PhysicalOperator
            slot = step_filters[position + 1]
            if isinstance(step.node, TriplePatternNode):
                link = _implicit_join(step.node, slot, bound) if id_space else None
                if link is not None:
                    leaf = HashProbe(step.node, *link, step.estimate, step.source_index)
                    slot = tuple(c for c in slot if c is not link[0])
                else:
                    shape = idexec.probe_shape(tuple(step.node.triple), bound)
                    leaf = Scan(
                        step.node,
                        step.estimate,
                        step.source_index,
                        f"{shape} {idexec.access_path(shape, space)}",
                    )
            elif isinstance(step.node, PathPattern):
                leaf = PathExpand(step.node, step.estimate, step.source_index, path_mode)
            else:  # pragma: no cover - plan_bgp only admits the two kinds above
                raise TypeError(f"unsupported plan node {type(step.node).__name__}")
            inputs.append(_filtered(leaf, slot, id_space))
            bound |= step.node.variables()
        join = IndexNestedLoopJoin(tuple(inputs))
        prefilters = step_filters[0]
    child = _filtered(join, prefilters, id_space)
    result_variables: Set[Variable] = set()
    for step in plan.steps:
        result_variables |= step.node.variables()
    if id_space and project is not None:
        result_variables &= set(project)
    ordered = tuple(sorted(result_variables, key=lambda v: v.name))
    return PhysicalPlan(
        root=Project(child, ordered, space, id_space and ordered == distinct),
        space=space,
        source=plan,
        wcoj_fallback=wcoj_fallback,
    )


def lower_bgp(
    graph,
    patterns: Sequence,
    conditions: Sequence[Expression] = (),
    profile: ExecutionProfile = ExecutionProfile.FULL,
    project: Optional[Tuple[Variable, ...]] = None,
    distinct: Optional[Tuple[Variable, ...]] = None,
) -> PhysicalPlan:
    """Plan and lower a BGP in one call (convenience for tests/tools)."""
    return lower_plan(plan_bgp(graph, patterns), graph, conditions, profile, project, distinct)


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
def _unwrap_root(plan: PhysicalPlan):
    """Split the root chain into (prefilter Filter or None, join operator)."""
    child = plan.root.child
    if isinstance(child, Filter):
        return child, child.child
    return None, child


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


def execute(
    plan: PhysicalPlan,
    graph,
    path_evaluator: Optional[PathEvaluator] = None,
    path_engine: Optional[IdPathEngine] = None,
    initial: Binding = EMPTY_BINDING,
    timed: bool = False,
    term_fallbacks=None,
) -> Iterator[Binding]:
    """Execute a physical plan, streaming bindings.

    ``path_evaluator`` backs term-mode :class:`PathExpand` operators (and
    the bridge inside id pipelines); ``path_engine`` is an optional
    pre-built :class:`IdPathEngine` (the evaluator passes its cached one).
    ``initial`` pre-binds variables: every solution extends it, and a
    pre-bound term the graph has never seen simply matches nothing.
    ``term_fallbacks`` is an optional counter (``inc(n)``) of FILTER
    conjunct evaluations an id-space plan had to run on decoded terms.

    Every execution reports its own rows and probes even when the
    physical plan came out of a cache: counters are reset here, and both
    executors — the compiled pipeline (:mod:`repro.sparql.idexec`, either
    key space) and the leapfrog triejoin — count in registers of the
    execution and publish when its stream ends or is closed
    (:func:`repro.sparql.idexec.publish`), so nested and interleaved
    executions of one plan do not mix.
    ``timed=True`` additionally measures per-operator self time into
    :attr:`OperatorStats.seconds` (one extra clock read per produced row
    — ``explain_analyze`` turns it on, normal evaluation leaves it off).
    """
    plan.reset_stats()
    prefilter_op, join = _unwrap_root(plan)
    if isinstance(join, LeapfrogJoin):
        stream = _execute_leapfrog(
            plan, graph, prefilter_op, join, initial, timed, term_fallbacks
        )
    else:
        stream = idexec.run(
            plan,
            graph,
            path_evaluator,
            path_engine,
            initial,
            _timed_iter if timed else None,
            term_fallbacks,
        )
    if timed:
        return _timed_iter(stream, plan.root.stats)
    return stream


# ----------------------------------------------------------------------
# leapfrog triejoin
# ----------------------------------------------------------------------
def _leapfrog_intersect(arrays: Sequence[Sequence[int]]) -> Iterator[int]:
    """Yield the sorted intersection of sorted int arrays (leapfrog search).

    Each iterator keeps a cursor; the largest value seen so far is sought
    in the next array with a galloping ``bisect_left`` from that cursor,
    so the cost is O(total seeks · log) and skew (one tiny array against
    a huge one) costs the tiny array's length, not the huge one's.
    """
    k = len(arrays)
    if k == 0:
        return
    if k == 1:
        yield from arrays[0]
        return
    for array in arrays:
        if not array:
            return
    positions = [0] * k
    value = arrays[0][0]
    matched = 1
    index = 1
    while True:
        array = arrays[index]
        position = bisect_left(array, value, positions[index])
        if position == len(array):
            return
        positions[index] = position
        current = array[position]
        if current == value:
            matched += 1
            if matched == k:
                yield value
                position += 1
                if position == len(array):
                    return
                positions[index] = position
                value = array[position]
                matched = 1
        else:
            value = current
            matched = 1
        index += 1
        if index == k:
            index = 0


def _execute_leapfrog(
    plan: PhysicalPlan,
    graph,
    prefilter_op: Optional[Filter],
    join: LeapfrogJoin,
    initial: Binding,
    timed: bool,
    term_fallbacks,
) -> Iterator[Binding]:
    """Run a :class:`LeapfrogJoin`: one sorted intersection per variable.

    Every level's candidate runs are *exact* projections of the
    participating patterns onto the level variable (given the bindings
    above it), so each total assignment is enumerated at most once —
    multiset-identical to the binary pipeline on pure-triple BGPs, where
    every pattern admits multiplicity one per assignment.

    The partial solution lives in a register list behind the id
    executor's header — one register per variable (``None`` while
    unbound) and per pattern constant — so FILTER conjuncts compile to
    the same kernels as in the binary pipeline, and so do the counts:
    every operator's rows and probes are registers of this execution,
    published to the plan's :class:`OperatorStats` when the stream ends
    or is closed (:func:`repro.sparql.idexec.publish`).
    """
    dictionary = graph.dictionary
    var_order = join.var_order
    levels = len(var_order)
    registers: List[object] = list(idexec.HEADER)
    counters: List[Tuple[OperatorStats, int, int]] = []

    def allocate(value: object = None) -> int:
        registers.append(value)
        return len(registers) - 1

    def counted(stats: OperatorStats) -> Tuple[int, int]:
        """The rows and probes registers of an operator."""
        rows, probes = allocate(0), allocate(0)
        counters.append((stats, rows, probes))
        return rows, probes

    counters.append((plan.root.stats, idexec._RESULTS, allocate(0)))
    joined, _ = counted(join.stats)
    register_of: Dict[Variable, int] = {}
    for variable in (*initial, *var_order):
        if variable not in register_of:
            register_of[variable] = allocate()
    bound = set(initial)
    try:
        # encode (not id_for): an initial term outside the graph gets a
        # fresh id that simply never matches a probe.
        for variable, term in initial.items():
            registers[register_of[variable]] = dictionary.encode(term)
        if prefilter_op is not None:
            gate_rows, gate_probes = counted(prefilter_op.stats)
            registers[gate_probes] += 1
            gate = idexec.compile_conditions(
                prefilter_op.conditions, dictionary, register_of, bound
            )
            if not gate(registers):
                return
            registers[gate_rows] += 1
        # (subject register, predicate id, object register, rows register,
        # probes register, stats): a constant gets a pre-filled register, so
        # "the other end" of a pattern reads the same way whether it is a
        # constant, a bound variable or (None) a variable of a deeper level.
        occurrences: List[List[Tuple[Tuple, int]]] = [[] for _ in range(levels)]
        level_of = {variable: level for level, variable in enumerate(var_order)}
        for scan in join.scans:
            triple = scan.node.triple
            predicate_id = dictionary.id_for(triple.predicate)
            if predicate_id is None:
                return
            ends = []
            for part in (triple.subject, triple.object):
                if isinstance(part, Variable):
                    ends.append(register_of[part])
                else:
                    term_id = dictionary.id_for(part)
                    if term_id is None:
                        return
                    ends.append(allocate(term_id))
            scan_rows, scan_probes = counted(scan.stats)
            entry = (ends[0], predicate_id, ends[1], scan_rows, scan_probes, scan.stats)
            if isinstance(triple.subject, Variable):
                occurrences[level_of[triple.subject]].append((entry, 0))
            if isinstance(triple.object, Variable):
                occurrences[level_of[triple.object]].append((entry, 1))
            if not scan.node.variables():
                # Fully ground: constrains no variable, one membership check.
                registers[scan_probes] += 1
                if not graph.pattern_cardinality_ids(
                    registers[ends[0]], predicate_id, registers[ends[1]]
                ):
                    return
                registers[scan_rows] += 1
        level_tests = []
        for level, slot in enumerate(join.level_conditions):
            if level < levels:
                bound.add(var_order[level])
            level_tests.append(
                idexec.compile_conditions(slot, dictionary, register_of, bound)
            )
        sorted_sp = graph.sorted_subjects_for_predicate
        sorted_op = graph.sorted_objects_for_predicate
        sorted_spo = graph.sorted_objects_for_subject_predicate
        sorted_pos = graph.sorted_subjects_for_predicate_object

        def candidates(entry: Tuple, position: int) -> Sequence[int]:
            """Sorted candidate run of one pattern at one level.

            ``rows`` counts the candidate ids each run contributes — the
            scan-level "rows produced" of the leapfrog pipeline, and the
            actual the per-probe cardinality estimates are compared against.
            """
            subject, predicate_id, obj, rows, probes, stats = entry
            registers[probes] += 1
            if timed:
                started = perf_counter()
                run = _candidate_run(subject, predicate_id, obj, position)
                stats.seconds += perf_counter() - started
            else:
                run = _candidate_run(subject, predicate_id, obj, position)
            registers[rows] += len(run)
            return run

        def _candidate_run(
            subject: int, predicate_id: int, obj: int, position: int
        ) -> Sequence[int]:
            if position == 0:  # level variable sits at the subject
                other = registers[obj]
                if other is None:
                    return sorted_sp(predicate_id)
                return sorted_pos(predicate_id, other)
            other = registers[subject]  # level variable sits at the object
            if other is None:
                return sorted_op(predicate_id)
            return sorted_spo(other, predicate_id)

        emit_row = idexec.emit_step(
            tuple(
                (variable, register_of[variable])
                for variable in sorted(
                    set(plan.root.variables) | set(initial), key=lambda v: v.name
                )
            ),
            dictionary.term,
            allocate(set()) if plan.root.distinct else None,
        )
        final_test = level_tests[levels]

        def emit() -> Iterable[Binding]:
            """The result row in the registers (none if a post-filter rejects it)."""
            if final_test is not None and not final_test(registers):
                return ()
            registers[joined] += 1
            return emit_row(registers)

        def recurse(level: int) -> Iterator[Binding]:
            test = level_tests[level]
            last = level + 1 == levels
            register = register_of[var_order[level]]
            arrays = [candidates(entry, position) for entry, position in occurrences[level]]
            prebound = registers[register]
            if prebound is not None:
                # Initial-binding variable: membership probe into every run.
                for array in arrays:
                    position = bisect_left(array, prebound)
                    if position == len(array) or array[position] != prebound:
                        return
                if test is None or test(registers):
                    yield from emit() if last else recurse(level + 1)
                return
            intersection = _leapfrog_intersect(arrays)
            if timed:
                # The galloping search is the join's own work; its time lands
                # on the LeapfrogJoin operator, the run construction above on
                # the scans that produced each array.
                intersection = _timed_iter(intersection, join.stats)
            for value in intersection:
                registers[register] = value
                if test is None or test(registers):
                    yield from emit() if last else recurse(level + 1)
            registers[register] = None

        yield from recurse(0) if levels else emit()
    finally:
        idexec.publish(counters, registers, term_fallbacks)
