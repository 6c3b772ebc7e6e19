"""Reference SPARQL 1.1 evaluator with bag semantics.

The evaluator implements the W3C SPARQL algebra directly over a
:class:`repro.rdf.Dataset`.  It serves two roles in the reproduction:

* it is the standard-compliant "Jena Fuseki"-style baseline used in the
  compliance and performance experiments, and
* it provides the ground truth against which the SparqLog translation is
  differentially tested.

What runs as one pipeline and where each FILTER conjunct goes is decided
once per query, before evaluation, by :mod:`repro.sparql.evaltree`; the
evaluator walks the tree that pass leaves and decides nothing.  A
pipeline's triple and path patterns are reordered by estimated
cardinality (:mod:`repro.sparql.plan`), lowered to a physical operator
DAG over the encoded store's ids (:mod:`repro.sparql.physical`: a
leapfrog triejoin for cyclic BGPs), cached per graph while the
statistics it was planned on hold (:mod:`repro.sparql.plancache`) and
executed as a stream, so ASK and
plain LIMIT queries short-circuit instead of materialising the full join.

A solution has one shape from the executor to the result: a tuple of
terms aligned with a header of variables (``None`` for unbound); every
node of the walk yields ``(header, rows)`` (:meth:`SparqlEvaluator._eval`).

Execution is configured by one value, an
:class:`repro.sparql.profile.ExecutionProfile` (``profile=`` — presets
``FULL`` and ``NAIVE``).  Planned evaluation (``FULL``) runs on
:class:`~repro.store.encoded.EncodedGraph` only: every graph of a
query's dataset is checked before any work, and another store raises a
``TypeError``.  ``NAIVE`` recovers the textual-order evaluation used as
the differential-testing baseline; it reads only the term surface (index
probes through ``triples``, property paths by the term-level ALP
procedure of :mod:`repro.sparql.alp`), so it runs on either store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Variable
from repro.sparql.algebra import (
    AskQuery,
    BGP,
    Bind,
    EmptyPattern,
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
    Union as UnionNode,
    ValuesPattern,
)
from repro.sparql.alp import EvaluationError, eval_path_pattern_terms
from repro.sparql.evaltree import Pipeline, PreparedQuery, prepare_query
from repro.sparql.expressions import (
    Expression,
    compile_condition,
    compile_expression,
    positional,
)
from repro.sparql.functions import ExpressionError
from repro.sparql import physical
from repro.sparql.idpaths import IdPathEngine
from repro.sparql.modifiers import (
    apply_grouping,
    apply_modifiers,
    apply_projection_expressions,
    result_header,
)
from repro.sparql.operators import PhysicalPlan, Project
from repro.sparql.parser import parse_query
from repro.sparql.plan import match_triple, plan_bgp, statistics_hold
from repro.sparql.plancache import PlanCache
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import (
    CompatIndex,
    Row,
    SolutionSequence,
    realign_rows,
)
from repro.store.encoded import require_encoded
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_SPAN, Tracer

#: What one node of the walk evaluates to: a header and the rows aligned with it.
Rows = Tuple[Tuple[Variable, ...], Iterable[Row]]


@dataclass
class ExplainAnalyzeReport:
    """Result of :meth:`SparqlEvaluator.explain_analyze`.

    ``text`` is the rendered operator tree (what ``str(report)`` gives);
    ``plan`` keeps the executed :class:`~repro.sparql.operators.PhysicalPlan`
    so callers can inspect :meth:`~repro.sparql.operators.PhysicalPlan.analysis`
    programmatically.
    """

    text: str
    plan: PhysicalPlan = field(repr=False)
    total_seconds: float = 0.0
    rows: int = 0

    def __str__(self) -> str:
        return self.text


class SparqlEvaluator:
    """Direct algebra evaluator over an RDF dataset."""

    def __init__(
        self,
        dataset: Dataset,
        tracer: Optional[Tracer] = None,
        profile: Optional[ExecutionProfile] = None,
    ) -> None:
        self.dataset = dataset
        #: The execution profile — the one configuration value, handed as is
        #: to the evaluation-tree pass.
        self.profile = profile if profile is not None else ExecutionProfile.FULL
        # The most recent physical plan produced by lowering — inspection
        # hook for tests, benchmarks and explain()-style tooling.
        self.last_physical_plan: Optional[PhysicalPlan] = None
        # Optional span tracer: plan / lower / execute phase spans, and
        # per-operator summaries sampled at stream exhaustion.
        self.tracer = tracer
        # Cache traffic counts as plain slotted-counter increments, live
        # sizes as collection-time callbacks; :meth:`metrics` snapshots it.
        registry = self.metrics_registry = MetricsRegistry()
        lowered_hits = registry.counter(
            "sparql_physical_cache_hits_total", "Lowered physical plan cache hits"
        )
        revalidations = registry.counter(
            "sparql_physical_cache_revalidations_total",
            "Physical plan cache hits kept across a store version (statistics within band)",
        )
        lowered_misses = registry.counter(
            "sparql_physical_cache_misses_total",
            "Physical plans lowered fresh (cache misses)",
        )
        evictions = registry.counter(
            "sparql_plan_cache_evictions_total",
            "Physical plan cache entries evicted (bound overflow or dead graph)",
        )
        self._wcoj_fallbacks = registry.counter(
            "sparql_wcoj_fallback_total",
            "GYO-cyclic BGPs where WCOJ selection was structurally rejected",
        )
        self._term_fallbacks = registry.counter(
            "sparql_filter_term_fallbacks_total",
            "FILTER conjunct evaluations a plan ran on decoded terms",
        )
        self._index_builds = registry.counter(
            "sparql_compat_index_builds_total",
            "Compatibility indexes built (one per MINUS / OPTIONAL / join / GRAPH ?g evaluation)",
        )
        self._index_probes = registry.counter(
            "sparql_compat_index_probes_total",
            "Hash lookups of left rows in a compatibility index",
        )
        #: Lowered physical plans, ``lowered_plans.get(graph, patterns,
        #: conditions[, project[, distinct]])`` — a hit skips
        #: planning, operator construction and eligibility analysis alike,
        #: and a plan outlives writes that leave its statistics in band.
        self.lowered_plans = PlanCache(
            self._lower_fresh,
            lambda graph, plan: statistics_hold(graph, plan.source.statistics),
            lowered_hits,
            revalidations,
            lowered_misses,
            evictions,
        )
        registry.gauge(
            "sparql_physical_cache_size",
            "Live physical plan cache entries",
            callback=lambda: len(self.lowered_plans),
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """Snapshot every registered metric (cache traffic, sizes, ...).

        Plain dict keyed by metric name; store-level counters appear here
        too once bound via
        :func:`repro.obs.metrics.bind_store_metrics`.
        """
        return self.metrics_registry.snapshot()

    def _span(self, name: str):
        """A phase span of the attached tracer; a no-op one without it."""
        tracer = self.tracer
        return tracer.span(name) if tracer is not None else NULL_SPAN

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def prepare(self, query: Union[Query, PreparedQuery]) -> PreparedQuery:
        """``query`` with its evaluation tree under this evaluator's profile
        (:func:`repro.sparql.evaltree.prepare_query`); a prepared one as it is.

        :meth:`evaluate`, :meth:`explain` and :meth:`explain_analyze` take
        either; whoever runs one query many times prepares it once.
        """
        if isinstance(query, PreparedQuery):
            return query
        return prepare_query(query, self.profile)

    def evaluate(self, query: Union[Query, PreparedQuery]) -> Union[SolutionSequence, bool]:
        """Evaluate a parsed (or prepared) query.

        SELECT queries return a :class:`SolutionSequence`; ASK queries
        return a boolean.  With a :attr:`tracer` attached, the whole
        evaluation runs inside a ``query``-category span; the plan /
        lower / execute phase spans nest under it.
        """
        prepared = self.prepare(query)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("evaluate", category="query", form=type(prepared.query).__name__):
                return self._evaluate(prepared)
        return self._evaluate(prepared)

    def _evaluate(self, prepared: PreparedQuery) -> Union[SolutionSequence, bool]:
        query = prepared.query
        if isinstance(query, AskQuery):
            return bool(_take(self._query_stream(prepared)[1], 1))
        if not isinstance(query, SelectQuery):
            raise EvaluationError(f"unsupported query form {type(query).__name__}")
        # A query whose only solution modifiers are LIMIT/OFFSET consumes
        # exactly ``offset + limit`` solutions from the stream; ordering,
        # grouping or DISTINCT need the full multiset.
        sliced_only = (
            query.limit is not None
            and not query.order_by
            and not query.distinct
            and not query.reduced
            and not query.has_aggregates()
            and query.having is None
        )
        layout, stream, project = self._query_stream(prepared)
        rows = _take(stream, (query.offset or 0) + query.limit if sliced_only else None)
        if query.has_aggregates():
            layout, rows = apply_grouping(query, layout, rows)
        else:
            layout, rows = apply_projection_expressions(query, layout, rows)
        header = result_header(query)
        rows = realign_rows(rows, layout, header)
        rows = apply_modifiers(
            query,
            header,
            rows if type(rows) is list else list(rows),
            # A distinct ``Project`` has dropped the duplicates already, as
            # id tuples, keeping the same first occurrences.
            deduplicated=project is not None and project.distinct,
        )
        return SolutionSequence(query.projected_variables(), rows)

    def _query_stream(
        self, prepared: PreparedQuery
    ) -> Tuple[Tuple[Variable, ...], Iterator[Row], Optional[Project]]:
        """Stream a query form's pattern: ``(layout, rows, project)``, the
        rows tuples of terms aligned with ``layout``.

        When the tree is one :class:`~repro.sparql.evaltree.Pipeline` the
        variables the query form reads from its rows go down as the
        projection, so the plan decodes nothing else, and DISTINCT goes
        down with them: ``layout`` is the plan's ``Project`` variables and
        ``project`` that ``Project``, whose ``distinct`` says that no row
        comes twice.  A lone path pattern under the planner is evaluated by
        the id path engine into tuples of the endpoint variables the query
        reads (by name, like a ``Project``).  Any other tree is walked
        (:meth:`_eval`), with ``project`` ``None``.
        """
        dataset = self._active(prepared.query)
        graph = dataset.default_graph
        tree = prepared.tree
        if type(tree) is Pipeline:
            layout, stream = self._run(
                tree, graph, project=prepared.project, distinct=prepared.distinct
            )
            return layout, stream, self.last_physical_plan.root
        if type(tree) is PathPattern:
            layout, rows = self._eval_path_pattern(tree, graph, prepared.project)
        else:
            layout, rows = self._eval(tree, graph, dataset)
        return layout, iter(rows), None

    def _active(self, query: Query) -> Dataset:
        """The dataset ``query``'s FROM / FROM NAMED clauses describe; under
        the planner each of its graphs must be the encoded store, checked
        here, before any work (:func:`~repro.store.encoded.require_encoded`)."""
        dataset = self.dataset.active(query.dataset_clauses)
        if self.profile.use_planner:
            require_encoded(dataset.default_graph)
            for graph in dataset.named_graphs.values():
                require_encoded(graph)
        return dataset

    # ------------------------------------------------------------------
    # the walk
    # ------------------------------------------------------------------
    def _eval(self, node: GraphPatternNode, active_graph: Graph, dataset: Dataset) -> Rows:
        """The rows of one node of an evaluation tree: ``(header, rows)``,
        each row a tuple of terms aligned with ``header`` (variables matched
        by name, ``None`` for unbound).

        The one walk: it dispatches on the node's type and decides nothing
        (:mod:`repro.sparql.evaltree` did); each operator fixes its header
        once per evaluation.  A pipeline, a lone pattern, FILTER, UNION,
        BIND and the left side of MINUS stream, so ASK and LIMIT-only
        queries stop early; join, OPTIONAL, the right side of MINUS and
        ``GRAPH ?g`` materialise what they pair.
        """
        try:
            rows_of = self._WALK[type(node)]
        except KeyError:
            raise EvaluationError(f"unsupported pattern node {type(node).__name__}") from None
        return rows_of(self, node, active_graph, dataset)

    def _rows(
        self, node: GraphPatternNode, active_graph: Graph, dataset: Dataset
    ) -> Tuple[Tuple[Variable, ...], List[Row]]:
        header, rows = self._eval(node, active_graph, dataset)
        return header, rows if type(rows) is list else list(rows)

    def _eval_filter(self, node: Filter, active_graph: Graph, dataset: Dataset) -> Rows:
        header, rows = self._eval(node.pattern, active_graph, dataset)
        condition = compile_condition(node.condition, positional(header))
        return header, (row for row in rows if condition(row))

    def _eval_unplanned_bgp(self, node: BGP, active_graph: Graph, dataset: Dataset) -> Rows:
        """Textual order, pattern by pattern: what runs without the planner."""
        header, rows = (), [()]
        for pattern in node.patterns:
            header, rows = self._join(header, rows, *self._rows(pattern, active_graph, dataset))
            if not rows:
                break
        return header, rows

    def _eval_join(self, node: Join, active_graph: Graph, dataset: Dataset) -> Rows:
        header, left = self._rows(node.left, active_graph, dataset)
        if not left:
            return header, left
        return self._join(header, left, *self._rows(node.right, active_graph, dataset))

    def _eval_union(self, node: UnionNode, active_graph: Graph, dataset: Dataset) -> Rows:
        """Left rows, then right rows, both under one header: the left's,
        then the other variables the right side may bind.  The right side
        is evaluated only once the left one is exhausted."""
        left_header, left = self._eval(node.left, active_graph, dataset)
        header = _widened(left_header, node.right)
        pad = (None,) * (len(header) - len(left_header))
        left = (row + pad for row in left) if pad else left
        return header, self._union_rows(left, node.right, active_graph, dataset, header)

    def _union_rows(self, left, right, active_graph, dataset, header):
        yield from left
        right_header, rows = self._eval(right, active_graph, dataset)
        yield from realign_rows(rows, right_header, header)

    def _eval_minus(self, node: Minus, active_graph: Graph, dataset: Dataset) -> Rows:
        header, left = self._eval(node.left, active_graph, dataset)
        return header, self._minus_rows(node.right, active_graph, dataset, header, left)

    def _minus_rows(self, right, active_graph, dataset, header, left):
        """``left MINUS right``, streaming the left rows.

        The right side is evaluated lazily, on the first left row, so an
        empty (or fully filtered) left side never pays for the right
        pattern.
        """
        index: Optional[CompatIndex] = None
        try:
            for row in left:
                if index is None:
                    index = self._compat_index(header, *self._rows(right, active_graph, dataset))
                if not index.excludes(row):
                    yield row
        finally:
            if index is not None:
                self._index_probes.inc(index.probes)

    def _compat_index(self, left_header, right_header, rows: List[Row]) -> CompatIndex:
        """Index the right-hand rows of one operator evaluation (counted)."""
        self._index_builds.inc()
        return CompatIndex(left_header, right_header, rows)

    def _join(self, left_header, left: List[Row], right_header, right: List[Row]) -> Rows:
        """Bag join of two solution multisets on compatible mappings."""
        if not left or not right:
            return left_header, []
        index = self._compat_index(left_header, right_header, right)
        results: List[Row] = []
        for row in left:
            results.extend(index.merged(row))
        self._index_probes.inc(index.probes)
        return index.header, results

    def _eval_left_join(self, node: LeftJoin, active_graph: Graph, dataset: Dataset) -> Rows:
        header, left = self._rows(node.left, active_graph, dataset)
        if not left:
            return header, left
        index = self._compat_index(header, *self._rows(node.right, active_graph, dataset))
        condition = node.condition
        if condition is not None:
            condition = compile_condition(condition, positional(index.header))
        pad = (None,) * (len(index.header) - len(header))
        results: List[Row] = []
        for row in left:
            extended = index.merged(row)
            if condition is not None:
                extended = [merged for merged in extended if condition(merged)]
            if extended:
                results.extend(extended)
            else:
                results.append(row + pad)
        self._index_probes.inc(index.probes)
        return index.header, results

    def _eval_graph(self, node: GraphGraphPattern, active_graph: Graph, dataset: Dataset) -> Rows:
        if isinstance(node.graph, Variable):
            header, rows = _widened((node.graph,), node.pattern), []
            for name, graph in dataset.named_graphs.items():
                index = self._compat_index((node.graph,), *self._rows(node.pattern, graph, dataset))
                rows.extend(realign_rows(index.merged((name,)), index.header, header))
                self._index_probes.inc(index.probes)
            return header, rows
        graph = dataset.named_graphs.get(node.graph)
        if graph is None:
            return (), []
        return self._eval(node.pattern, graph, dataset)

    def _eval_bind(self, node: Bind, active_graph: Graph, dataset: Dataset) -> Rows:
        header, rows = self._eval(node.pattern, active_graph, dataset)
        names = [variable.name for variable in header]
        target = names.index(node.variable.name) if node.variable.name in names else None
        extended = header if target is not None else header + (node.variable,)
        return extended, _bind_rows(node.expression, header, rows, target)

    def _eval_values(self, node: ValuesPattern, active_graph: Graph, dataset: Dataset) -> Rows:
        return node.variables_list, list(node.rows)

    def _eval_path_pattern(self, node: PathPattern, graph: Graph, read=None) -> Rows:
        """Evaluate a path pattern into tuples of its endpoint variables:
        under the planner through the id engine (:mod:`repro.sparql.idpaths`
        — integer frontiers, decode only at the result boundary, and only
        the endpoints in ``read`` when it is given), without it by the
        spec's term-level ALP procedure (:mod:`repro.sparql.alp`)."""
        slots = node.endpoint_slots()
        if not self.profile.use_planner:
            return tuple(variable for variable, _ in slots), eval_path_pattern_terms(node, graph)
        header = tuple(variable for variable, _ in slots if read is None or variable in read)
        return header, IdPathEngine(graph).rows(node, header)

    _WALK = {
        Pipeline: lambda self, node, graph, dataset: self._run(node, graph),
        TriplePatternNode: lambda self, node, graph, dataset: match_triple(graph, node.triple),
        PathPattern: lambda self, node, graph, dataset: self._eval_path_pattern(node, graph),
        EmptyPattern: lambda self, node, graph, dataset: ((), [()]),
        BGP: _eval_unplanned_bgp,
        Filter: _eval_filter,
        Join: _eval_join,
        LeftJoin: _eval_left_join,
        UnionNode: _eval_union,
        Minus: _eval_minus,
        GraphGraphPattern: _eval_graph,
        Bind: _eval_bind,
        ValuesPattern: _eval_values,
    }

    # ------------------------------------------------------------------
    # pipelines: lowering, execution, explain
    # ------------------------------------------------------------------
    def _lower_fresh(
        self,
        graph: Graph,
        patterns: Tuple[GraphPatternNode, ...],
        conditions: Tuple[Expression, ...],
        project: Optional[Tuple[Variable, ...]] = None,
        distinct: Optional[Tuple[Variable, ...]] = None,
    ) -> PhysicalPlan:
        """Plan + lower a BGP — what :attr:`lowered_plans` builds on a miss.

        Both steps are pure in the pattern tuple, the FILTER conjuncts, the
        projection, the DISTINCT projection — the cache key —
        and the graph statistics, which the plan records and the cache
        re-checks after a write.  With a tracer attached they run under
        ``plan`` / ``lower`` spans.
        """
        with self._span("plan"):
            plan = plan_bgp(graph, patterns)
        with self._span("lower") as span:
            physical_plan = physical.lower_plan(plan, graph, conditions, project, distinct)
            if physical_plan.wcoj_fallback is not None:
                span.annotate(wcoj_fallback=physical_plan.wcoj_fallback)
                # Counted per fresh lowering, not per execution: the cache
                # replays the same decision without re-analysing it.
                self._wcoj_fallbacks.inc()
        return physical_plan

    def _lower(
        self,
        pipeline: Pipeline,
        active_graph: Graph,
        project: Optional[Tuple[Variable, ...]] = None,
        distinct: Optional[Tuple[Variable, ...]] = None,
    ) -> PhysicalPlan:
        """The (cached) physical plan of a pipeline.

        Cached plans share their ``OperatorStats`` objects, but every
        execution reports its own counters (see ``physical.execute_rows``).
        """
        physical_plan = self.last_physical_plan = self.lowered_plans.get(
            active_graph, pipeline.bgp.patterns, pipeline.conditions, project, distinct
        )
        return physical_plan

    def _run(
        self,
        pipeline: Pipeline,
        active_graph: Graph,
        timed: bool = False,
        project: Optional[Tuple[Variable, ...]] = None,
        distinct: Optional[Tuple[Variable, ...]] = None,
    ) -> Tuple[Tuple[Variable, ...], Iterator[tuple]]:
        """Plan, lower and stream a pipeline through the physical executor:
        ``(layout, rows)``, tuples of terms aligned with its ``Project`` variables.

        The lowering pass attaches each FILTER conjunct to the earliest
        operator binding its variables and chooses the leapfrog triejoin
        for cyclic BGPs.  ``timed`` turns
        on per-operator self time (for :meth:`explain_analyze`);
        ``project`` and ``distinct`` are
        :class:`~repro.sparql.evaltree.PreparedQuery`'s.
        """
        physical_plan = self._lower(pipeline, active_graph, project, distinct)
        layout = physical_plan.root.variables
        stream = physical.execute_rows(
            physical_plan, active_graph, timed=timed, term_fallbacks=self._term_fallbacks
        )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return layout, self._traced_execution(physical_plan, stream, tracer)
        return layout, stream

    def _traced_execution(
        self,
        physical_plan: PhysicalPlan,
        stream: Iterator[tuple],
        tracer: Tracer,
    ) -> Iterator[tuple]:
        """Wrap a BGP execution stream in an ``execute`` span.

        The span covers first ``next()`` to exhaustion (or close: LIMIT /
        ASK short-circuits still finish it, via ``GeneratorExit``), and
        per-operator summaries are sampled once at stream exit as
        zero-duration events from the counters the batched flush points
        just populated — a handful of span records per query, never one
        per row.
        """
        with tracer.span("execute") as span:
            rows = 0
            try:
                for row in stream:
                    rows += 1
                    yield row
            finally:
                # An abandoned stream (LIMIT / ASK) publishes its batched
                # counters when closed: do that before sampling them.
                close = getattr(stream, "close", None)
                if close is not None:
                    close()
                span.annotate(rows=rows)
                if physical_plan.wcoj_fallback is not None:
                    span.annotate(wcoj_fallback=physical_plan.wcoj_fallback)
                # Sample raw stats directly — describe() renders pattern
                # strings, far too costly for a per-execution hook.
                for operator in physical_plan.operators():
                    stats = operator.stats
                    tracer.event(
                        type(operator).__name__,
                        category="operator",
                        duration=stats.seconds,
                        rows=stats.rows,
                        probes=stats.probes,
                    )

    def _explainable(self, query: Union[Query, PreparedQuery], caller: str) -> tuple:
        """The pipeline of ``query`` that ``caller`` renders
        (:attr:`~repro.sparql.evaltree.PreparedQuery.pipeline`), as the
        arguments of :meth:`_lower` — what evaluation hands to :meth:`_run`,
        so the plan shown is the plan run."""
        prepared = self.prepare(query)
        if prepared.pipeline is None:
            raise EvaluationError(
                f"{caller} supports planned BGPs (optionally FILTER-wrapped); "
                f"got {type(prepared.query.pattern).__name__}"
            )
        graph = self._active(prepared.query).default_graph
        return prepared.pipeline, graph, prepared.project, prepared.distinct

    def explain(self, query: Union[Query, PreparedQuery]) -> str:
        """Render the physical operator plan for a query's pattern.

        Supports queries whose pattern is a planned BGP — or a lone
        triple/path pattern, rendered as the singleton BGP it is —
        optionally wrapped in FILTER nodes (the conjuncts show up as
        ``Filter`` operators or leapfrog level filters).  The lowered
        plan is also left in :attr:`last_physical_plan` so callers can
        execute-then-inspect per-operator counters.
        """
        return self._lower(*self._explainable(query, "explain()")).explain()

    def explain_analyze(self, query: Union[str, Query, PreparedQuery]) -> ExplainAnalyzeReport:
        """Execute a query's planned BGP and render the measured plan.

        Accepts a query string (parsed here, under a ``parse`` span when
        a tracer is attached) or a parsed query; supports the same shapes
        as :meth:`explain`.  The plan executes with per-operator timing
        enabled (``execute_rows(..., timed=True)``) and the stream is drained
        fully, so the report shows wall time, actual rows/probes, and the
        estimated-vs-actual cardinality error per operator — errors
        beyond 10x in either direction are flagged ``!``.  ``str()`` of
        the report is the rendered tree; the executed plan rides along
        for programmatic inspection.
        """
        if isinstance(query, str):
            with self._span("parse"):
                query = parse_query(query)
        pipeline, graph, project, distinct = self._explainable(query, "explain_analyze()")
        _, stream = self._run(pipeline, graph, timed=True, project=project, distinct=distinct)
        physical_plan = self.last_physical_plan
        started = perf_counter()
        rows = sum(1 for _ in stream)
        total_seconds = perf_counter() - started
        return ExplainAnalyzeReport(
            text=physical_plan.explain_analyze(total_seconds=total_seconds),
            plan=physical_plan,
            total_seconds=total_seconds,
            rows=rows,
        )


def _widened(header: Tuple[Variable, ...], node: GraphPatternNode) -> Tuple[Variable, ...]:
    """``header``, then the other variables ``node`` may bind, by name: one
    header for rows of either (UNION, and ``GRAPH ?g`` over every graph)."""
    names = {variable.name for variable in header}
    extra = [variable for variable in node.variables() if variable.name not in names]
    return header + tuple(sorted(extra, key=lambda variable: variable.name))


def _bind_rows(
    expression: Expression, header: Tuple[Variable, ...], rows: Iterable[Row], target: Optional[int]
) -> Iterator[Row]:
    """BIND over ``rows``: the value goes to column ``target``, or a new
    last column when ``target`` is ``None``.  An expression error leaves the
    variable unbound; a row that binds it already to another value is dropped."""
    value_of = compile_expression(expression, positional(header))
    for row in rows:
        try:
            value = value_of(row)
        except ExpressionError:
            yield row if target is not None else row + (None,)
            continue
        if target is None:
            yield row + (value,)
        elif row[target] is None:
            yield row[:target] + (value,) + row[target + 1:]
        elif row[target] == value:
            yield row


def _take(stream: Iterator, count: Optional[int]) -> list:
    """The first ``count`` rows of ``stream`` (``None``: all of them).

    The abandoned tail is closed now, not at garbage collection: the
    pipeline's ``finally`` blocks flush their batched counters and any
    open trace span finishes.
    """
    if count is None:
        return list(stream)
    try:
        return list(islice(stream, count))
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()
