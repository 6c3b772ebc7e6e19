"""Reference SPARQL 1.1 evaluator with bag semantics.

The evaluator implements the W3C SPARQL algebra directly over a
:class:`repro.rdf.Dataset`.  It serves two roles in the reproduction:

* it is the standard-compliant "Jena Fuseki"-style baseline used in the
  compliance and performance experiments, and
* it provides the ground truth against which the SparqLog translation is
  differentially tested.

Property paths run through the id-native engine
(:mod:`repro.sparql.idpaths`) where the graph and the profile allow it
and through the spec's term-level ALP procedure (:mod:`repro.sparql.alp`)
otherwise.

Basic graph patterns are evaluated through the cost-based planner in
:mod:`repro.sparql.plan` and the physical operator layer in
:mod:`repro.sparql.physical`: triple and path patterns are greedily
reordered by estimated cardinality, lowered to a physical operator DAG
(term- or id-space per backend capability, with a leapfrog-triejoin
operator for cyclic BGPs) and executed as a streaming pipeline, so ASK
and plain LIMIT queries short-circuit instead of materialising the full
join.  Both steps are cached per graph state (:mod:`repro.sparql.plancache`).
A lone triple or path pattern is not a BGP to the parser: it runs as the
singleton pipeline it is when a FILTER is pushed into it, and a *bare*
one by a direct index probe (``SparqlEvaluator._pipeline`` has the rule
and the measurement behind it).

Execution is configured by one value, an
:class:`repro.sparql.profile.ExecutionProfile` (``profile=`` — presets
``FULL`` / ``ID_NATIVE`` / ``BASELINE``, see that module for what each
field switches); a profile with the planner off recovers the naive
textual-order evaluation used as the differential-testing baseline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Triple, Variable
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
    peel_filters,
)
from repro.sparql.alp import EvaluationError, eval_path_pattern_terms
from repro.sparql.expressions import (
    Expression,
    conjuncts,
    evaluate as evaluate_expression,
    satisfies,
)
from repro.sparql.functions import ExpressionError
from repro.sparql import physical
from repro.sparql.idpaths import IdPathEngine, supports_id_paths
from repro.sparql.modifiers import apply_grouping, apply_modifiers, apply_projection_expressions
from repro.sparql.operators import PhysicalPlan, Project
from repro.sparql.parser import parse_query
from repro.sparql.plan import match_triple, plan_bgp
from repro.sparql.plancache import PlanCache
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import (
    Binding,
    CompatIndex,
    EMPTY_BINDING,
    SolutionSequence,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_SPAN, Tracer


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
        #: The execution profile — the one configuration value, read
        #: field by field where a decision is taken and handed as is to
        #: the lowering pass and the plan-cache key.
        self.profile = profile if profile is not None else ExecutionProfile.FULL
        # The most recent physical plan produced by lowering — inspection
        # hook for tests, benchmarks and explain()-style tooling.
        self.last_physical_plan: Optional[PhysicalPlan] = None
        # Small LRU of IdPathEngine per graph so repeated path steps —
        # including ones alternating across GRAPH clauses — share each
        # graph's node-set cache instead of rebuilding it per pattern.
        # Strong references on purpose: the engine itself holds the
        # graph, so an entry pins exactly the graphs recently queried
        # (usually ones the dataset owns anyway), bounded by the LRU
        # size; id() keys stay valid precisely because the values keep
        # their graphs alive.
        self._path_engine_cache: "OrderedDict[int, IdPathEngine]" = OrderedDict()
        # Optional span tracer: when attached (and enabled) the evaluator
        # opens plan / lower / execute phase spans and samples per-operator
        # summaries at stream exhaustion.  ``None`` keeps the hot paths on
        # a single identity check.
        self.tracer = tracer
        # Metrics registry: cache traffic counts as plain slotted-counter
        # increments, live sizes as collection-time callbacks.  Exposed
        # for store binding (bind_store_metrics) and Prometheus rendering;
        # :meth:`metrics` snapshots it.
        registry = self.metrics_registry = MetricsRegistry()
        logical_hits = registry.counter(
            "sparql_plan_cache_hits_total", "Logical BGP plan cache hits"
        )
        logical_misses = registry.counter(
            "sparql_plan_cache_misses_total",
            "Logical BGP plans built fresh (cache misses)",
        )
        lowered_hits = registry.counter(
            "sparql_physical_cache_hits_total", "Lowered physical plan cache hits"
        )
        lowered_misses = registry.counter(
            "sparql_physical_cache_misses_total",
            "Physical plans lowered fresh (cache misses)",
        )
        evictions = registry.counter(
            "sparql_plan_cache_evictions_total",
            "Plan/physical cache entries evicted (bound overflow or dead graph)",
        )
        self._wcoj_fallbacks = registry.counter(
            "sparql_wcoj_fallback_total",
            "GYO-cyclic BGPs where WCOJ selection was structurally rejected",
        )
        self._term_fallbacks = registry.counter(
            "sparql_filter_term_fallbacks_total",
            "FILTER conjunct evaluations an id-space plan ran on decoded terms",
        )
        self._index_builds = registry.counter(
            "sparql_compat_index_builds_total",
            "Compatibility indexes built (one per MINUS / OPTIONAL / join / GRAPH ?g evaluation)",
        )
        self._index_probes = registry.counter(
            "sparql_compat_index_probes_total",
            "Hash lookups of left rows in a compatibility index",
        )
        #: Logical BGP plans, ``logical_plans.get(graph, patterns)``.
        self.logical_plans = PlanCache(plan_bgp, logical_hits, logical_misses, evictions)
        #: Lowered physical plans, ``lowered_plans.get(graph, patterns,
        #: conditions, profile[, project])`` — a hit skips planning, operator
        #: construction and eligibility analysis alike.  The public way
        #: to a physical plan for code outside the evaluator (live views).
        self.lowered_plans = PlanCache(
            self._lower_fresh, lowered_hits, lowered_misses, evictions
        )
        registry.gauge(
            "sparql_plan_cache_size",
            "Live logical plan cache entries",
            callback=lambda: len(self.logical_plans),
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
    def evaluate(self, query: Query) -> Union[SolutionSequence, bool]:
        """Evaluate a parsed query.

        SELECT queries return a :class:`SolutionSequence`; ASK queries
        return a boolean.  With a :attr:`tracer` attached, the whole
        evaluation runs inside a ``query``-category span; the plan /
        lower / execute phase spans nest under it.
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("evaluate", category="query", form=type(query).__name__):
                return self._dispatch(query)
        return self._dispatch(query)

    def _dispatch(self, query: Query) -> Union[SolutionSequence, bool]:
        if isinstance(query, SelectQuery):
            return self._evaluate_select(query)
        if isinstance(query, AskQuery):
            return self._evaluate_ask(query)
        raise EvaluationError(f"unsupported query form {type(query).__name__}")

    # ------------------------------------------------------------------
    # query forms
    # ------------------------------------------------------------------
    def _evaluate_select(self, query: SelectQuery) -> SolutionSequence:
        dataset = self.dataset.active(query.dataset_clauses)
        bindings, project = self._eval_select_pattern(query, dataset)
        if query.has_aggregates():
            bindings = apply_grouping(query, bindings)
        else:
            bindings = apply_projection_expressions(query, bindings)
        if query.having is not None and not query.group_by and not query.has_aggregates():
            bindings = [b for b in bindings if satisfies(query.having, b)]
        variables = query.projected_variables()
        # Nothing to project when the rows are still the pipeline's (no
        # grouping; an AS alias would be in one set only) and their
        # domain is the projection.
        projected = (
            project is not None
            and set(project.variables) == set(variables)
            and not query.has_aggregates()
        )
        rows = apply_modifiers(
            query,
            bindings,
            wanted=None if projected else frozenset(variables),
            # A distinct ``Project`` has dropped the duplicates already, as
            # id tuples, keeping the same first occurrences.
            deduplicated=project is not None and project.distinct,
        )
        return SolutionSequence(variables, rows)

    def _query_stream(
        self, query: Query, dataset: Dataset
    ) -> Tuple[Iterator[Binding], Optional[Project]]:
        """Stream a query form's pattern; say what its rows are.

        When the whole pattern is one planned pipeline
        (:meth:`_pipeline`) the variables the query form reads from
        its rows (:func:`_variables_read`) go down as the projection, so
        an id-space plan decodes nothing else, and DISTINCT
        (:func:`_distinct_projection`) goes down with them; the second
        element is the plan's ``Project``, whose ``variables`` are exactly
        the domain of every row and whose ``distinct`` says that no row
        comes twice.  It is ``None`` for any other pattern, which streams
        as :meth:`_eval_pattern_stream` does.
        """
        graph = dataset.default_graph
        pipeline = self._pipeline(query.pattern)
        if pipeline is None or (pipeline[1] and not self.profile.use_filter_pushdown):
            return self._eval_pattern_stream(query.pattern, graph, dataset), None
        bgp, conditions = pipeline
        stream = self._eval_bgp_stream(
            bgp,
            graph,
            conditions,
            project=_variables_read(query),
            distinct=_distinct_projection(query),
        )
        return stream, self.last_physical_plan.root

    def _eval_select_pattern(
        self, query: SelectQuery, dataset: Dataset
    ) -> Tuple[List[Binding], Optional[Project]]:
        """Evaluate a SELECT query's pattern, short-circuiting when safe.

        A query whose only solution modifiers are LIMIT/OFFSET consumes
        exactly ``offset + limit`` solutions from the streaming pipeline;
        anything involving ordering, grouping or DISTINCT needs the full
        multiset.  Returns the rows and :meth:`_query_stream`'s word on
        what they are.
        """
        stream, project = self._query_stream(query, dataset)
        can_short_circuit = (
            query.limit is not None
            and not query.order_by
            and not query.distinct
            and not query.reduced
            and not query.has_aggregates()
            and query.having is None
        )
        if can_short_circuit:
            results = list(islice(stream, (query.offset or 0) + query.limit))
            # Close the abandoned tail deterministically: the pipeline's
            # finally blocks flush their batched counters (and any open
            # trace span finishes) now, not at garbage collection.
            close = getattr(stream, "close", None)
            if close is not None:
                close()
            return results, project
        return list(stream), project

    def _evaluate_ask(self, query: AskQuery) -> bool:
        dataset = self.dataset.active(query.dataset_clauses)
        stream, _ = self._query_stream(query, dataset)
        try:
            return next(iter(stream), None) is not None
        finally:
            # As in the LIMIT short-circuit: flush the pipeline's batched
            # counters by closing the stream instead of waiting for GC.
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------
    # graph pattern evaluation
    # ------------------------------------------------------------------
    def _eval_pattern(
        self,
        node: GraphPatternNode,
        active_graph: Graph,
        dataset: Dataset,
    ) -> List[Binding]:
        if isinstance(node, EmptyPattern):
            return [EMPTY_BINDING]
        if isinstance(node, TriplePatternNode):
            return self._eval_triple_pattern(node.triple, active_graph)
        if isinstance(node, PathPattern):
            return self._eval_path_pattern(node, active_graph)
        if isinstance(node, BGP):
            if self._pipeline(node) is not None:
                return list(self._eval_bgp_stream(node, active_graph))
            results = [EMPTY_BINDING]
            for pattern in node.patterns:
                partial = self._eval_pattern(pattern, active_graph, dataset)
                results = self._join(results, partial)
                if not results:
                    return []
            return results
        if isinstance(node, Join):
            left = self._eval_pattern(node.left, active_graph, dataset)
            if not left:
                return []
            right = self._eval_pattern(node.right, active_graph, dataset)
            return self._join(left, right)
        if isinstance(node, LeftJoin):
            return self._eval_left_join(node, active_graph, dataset)
        if isinstance(node, UnionNode):
            left = self._eval_pattern(node.left, active_graph, dataset)
            right = self._eval_pattern(node.right, active_graph, dataset)
            return left + right
        if isinstance(node, Minus):
            left = self._eval_pattern(node.left, active_graph, dataset)
            return list(self._minus(left, node.right, active_graph, dataset))
        if isinstance(node, Filter):
            return list(self._eval_pattern_stream(node, active_graph, dataset))
        if isinstance(node, GraphGraphPattern):
            return self._eval_graph(node, dataset)
        if isinstance(node, Bind):
            return self._eval_bind(node, active_graph, dataset)
        if isinstance(node, ValuesPattern):
            return self._eval_values(node)
        raise EvaluationError(f"unsupported pattern node {type(node).__name__}")

    def _pipeline(
        self, node: GraphPatternNode, pushing: bool = False
    ) -> Optional[Tuple[BGP, Tuple[Expression, ...]]]:
        """``(BGP, FILTER conjuncts)`` when ``node`` is one planned pipeline, else ``None``.

        The one definition, for evaluation, ``explain`` and live views
        alike: with the planner on, FILTER* (conjuncts outermost first)
        over a BGP built only of triple/path patterns.  A lone pattern —
        the parser emits a bare node for a one-pattern group — counts as
        the singleton BGP it is when something is pushed into it: FILTER
        conjuncts of its own, or the caller's (``pushing``: an outer
        FILTER through MINUS, OPTIONAL condition conjuncts, ``explain``,
        view differentiation), which then run in the compiled pipeline
        (id kernels on the encoded store) instead of per decoded match.

        A *bare* lone pattern is not one: it keeps the direct index probe
        (:meth:`_eval_triple_pattern`, :meth:`_eval_path_pattern`).
        Promoting it is correct and measured faster on warm caches
        (``gmark_native`` 825 -> 967 ops/s), but a plan-cache miss costs
        ``plan_bgp`` 5.7 + ``lower_plan`` 7.1 + ``idexec._compile`` 12.7 µs
        plus key hashing, ~65 µs against a 6 µs probe, and a re-evaluated
        live view misses once per store version: ``ivm_churn``
        ``op_geomean_ms`` 0.218 -> 0.289.  It waits for compiled plans
        that stay valid across versions (ROADMAP item 5a).

        Whether conjuncts may be pushed at all
        (``profile.use_filter_pushdown``) is the calling route's test.
        """
        conditions: List[Expression] = []
        core = peel_filters(node, conditions)
        if isinstance(core, (TriplePatternNode, PathPattern)) and (conditions or pushing):
            core = BGP((core,))
        if (
            isinstance(core, BGP)
            and self.profile.use_planner
            and all(isinstance(p, (TriplePatternNode, PathPattern)) for p in core.patterns)
        ):
            return core, tuple(conditions)
        return None

    def _minus(
        self,
        left: Iterable[Binding],
        right_node: GraphPatternNode,
        active_graph: Graph,
        dataset: Dataset,
    ) -> Iterator[Binding]:
        """Stream ``left MINUS right_node`` over any source of left rows.

        The right side is evaluated lazily, on the first left row, so an
        empty (or fully filtered) left side never pays for the right
        pattern.
        """
        index: Optional[CompatIndex] = None
        try:
            for left_binding in left:
                if index is None:
                    index = self._compat_index(
                        self._eval_pattern(right_node, active_graph, dataset)
                    )
                if not index.excludes(left_binding):
                    yield left_binding
        finally:
            if index is not None:
                self._index_probes.inc(index.probes)

    def _compat_index(self, rows: List[Binding]) -> CompatIndex:
        """Index the right-hand rows of one operator evaluation (counted)."""
        self._index_builds.inc()
        return CompatIndex(rows)

    def _lower_fresh(
        self,
        graph: Graph,
        patterns: Tuple[GraphPatternNode, ...],
        conditions: Tuple[Expression, ...],
        profile: ExecutionProfile,
        project: Optional[Tuple[Variable, ...]] = None,
        distinct: Optional[Tuple[Variable, ...]] = None,
    ) -> PhysicalPlan:
        """Plan + lower a BGP — what :attr:`lowered_plans` builds on a miss.

        Lowering (operator construction, WCOJ eligibility analysis) is
        pure in the pattern tuple, the FILTER conjuncts, the profile, the
        projection, the DISTINCT projection and the graph statistics,
        which is exactly the cache key.  The
        logical plan comes through :attr:`logical_plans`, so one BGP
        under different FILTER conjuncts is ordered once.  With a tracer
        attached the two steps run under ``plan`` / ``lower`` spans.
        """
        with self._span("plan"):
            plan = self.logical_plans.get(graph, patterns)
        with self._span("lower") as span:
            physical_plan = physical.lower_plan(
                plan, graph, conditions, profile, project, distinct
            )
            span.annotate(space=physical_plan.space)
            if physical_plan.wcoj_fallback is not None:
                span.annotate(wcoj_fallback=physical_plan.wcoj_fallback)
                # Counted per fresh lowering, not per execution: the cache
                # replays the same decision without re-analysing it.
                self._wcoj_fallbacks.inc()
        return physical_plan

    def _lower(
        self,
        node: BGP,
        active_graph: Graph,
        conditions: Tuple[Expression, ...] = (),
        project: Optional[Tuple[Variable, ...]] = None,
        distinct: Optional[Tuple[Variable, ...]] = None,
    ) -> PhysicalPlan:
        """The (cached) physical plan of a BGP under FILTER ``conditions``.

        Cached plans share their ``OperatorStats`` objects, but every
        execution reports its own counters (see ``physical.execute``).
        """
        key = (node.patterns, conditions, self.profile)
        if distinct is not None:
            key += (project, distinct)
        elif project is not None:
            # Without either, the key every other caller (live views) looks up.
            key += (project,)
        physical_plan = self.lowered_plans.get(active_graph, *key)
        self.last_physical_plan = physical_plan
        return physical_plan

    def _eval_bgp_stream(
        self,
        node: BGP,
        active_graph: Graph,
        conditions: Tuple[Expression, ...] = (),
        timed: bool = False,
        project: Optional[Tuple[Variable, ...]] = None,
        distinct: Optional[Tuple[Variable, ...]] = None,
    ) -> Iterator[Binding]:
        """Plan, lower and stream a BGP through the physical executor.

        ``conditions`` are FILTER conjuncts scoped over the BGP; the
        lowering pass attaches each to the earliest operator binding its
        variables so non-qualifying rows die before later joins multiply
        them.  The choice of term-space vs id-space operators — and of
        the leapfrog-triejoin operator for cyclic BGPs — is made by the
        lowering pass per backend capability, within what the profile
        allows.  ``timed`` turns on per-operator self time (for
        :meth:`explain_analyze`).  ``project`` names the variables the
        caller reads from the rows (sorted by name; ``None``: all of
        them) — an id-space plan decodes no others — and ``distinct`` the
        projection of a DISTINCT query (:func:`_distinct_projection`).
        """
        physical_plan = self._lower(node, active_graph, conditions, project, distinct)
        engine = (
            self._id_path_engine(active_graph)
            if physical_plan.space == "id" and self.profile.use_id_paths
            else None
        )
        stream = physical.execute(
            physical_plan,
            active_graph,
            path_evaluator=self._eval_path_pattern,
            path_engine=engine,
            timed=timed,
            term_fallbacks=self._term_fallbacks,
        )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return self._traced_execution(physical_plan, stream, tracer)
        return stream

    def _traced_execution(
        self,
        physical_plan: PhysicalPlan,
        stream: Iterator[Binding],
        tracer: Tracer,
    ) -> Iterator[Binding]:
        """Wrap a BGP execution stream in an ``execute`` span.

        The span covers first ``next()`` to exhaustion (or close: LIMIT /
        ASK short-circuits still finish it, via ``GeneratorExit``), and
        per-operator summaries are sampled once at stream exit as
        zero-duration events from the counters the batched flush points
        just populated — a handful of span records per query, never one
        per row.
        """
        with tracer.span("execute", space=physical_plan.space) as span:
            rows = 0
            try:
                for binding in stream:
                    rows += 1
                    yield binding
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

    def _explainable(
        self, query: Query, caller: str
    ) -> Tuple[
        BGP,
        Graph,
        Tuple[Expression, ...],
        Optional[Tuple[Variable, ...]],
        Optional[Tuple[Variable, ...]],
    ]:
        """The planned pipeline of ``query`` that ``caller`` renders, as
        :meth:`_lower` takes it.

        Returns the BGP (a lone triple/path pattern is promoted to one:
        :meth:`_pipeline` with the rendering as what is pushed), the graph
        it runs on, the FILTER conjuncts scoped over it, the variables the
        query form reads from its rows and its DISTINCT projection — what
        evaluation hands to :meth:`_eval_bgp_stream`, so the plan shown is
        the plan run.
        """
        pipeline = self._pipeline(query.pattern, pushing=True)
        if pipeline is None:
            raise EvaluationError(
                f"{caller} supports planned BGPs (optionally FILTER-wrapped); "
                f"got {type(query.pattern).__name__}"
            )
        bgp, conditions = pipeline
        graph = self.dataset.active(query.dataset_clauses).default_graph
        return bgp, graph, conditions, _variables_read(query), _distinct_projection(query)

    def explain(self, query: Query) -> str:
        """Render the physical operator plan for a query's pattern.

        Supports queries whose pattern is a planned BGP — or a lone
        triple/path pattern, rendered as the singleton BGP it is —
        optionally wrapped in FILTER nodes (the conjuncts show up as
        ``Filter`` operators or leapfrog level filters).  The lowered
        plan is also left in :attr:`last_physical_plan` so callers can
        execute-then-inspect per-operator counters.
        """
        return self._lower(*self._explainable(query, "explain()")).explain()

    def explain_analyze(self, query: Union[str, Query]) -> ExplainAnalyzeReport:
        """Execute a query's planned BGP and render the measured plan.

        Accepts a query string (parsed here, under a ``parse`` span when
        a tracer is attached) or a parsed query; supports the same shapes
        as :meth:`explain`.  The plan executes with per-operator timing
        enabled (``execute(..., timed=True)``) and the stream is drained
        fully, so the report shows wall time, actual rows/probes, and the
        estimated-vs-actual cardinality error per operator — errors
        beyond 10x in either direction are flagged ``!``.  ``str()`` of
        the report is the rendered tree; the executed plan rides along
        for programmatic inspection.
        """
        if isinstance(query, str):
            with self._span("parse"):
                query = parse_query(query)
        pattern, graph, conditions, project, distinct = self._explainable(
            query, "explain_analyze()"
        )
        stream = self._eval_bgp_stream(
            pattern, graph, conditions, timed=True, project=project, distinct=distinct
        )
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

    def _eval_pattern_stream(
        self,
        node: GraphPatternNode,
        active_graph: Graph,
        dataset: Dataset,
        outer: Tuple[Expression, ...] = (),
    ) -> Iterator[Binding]:
        """Lazily evaluate ``node`` under the conjuncts ``outer``, where streaming helps.

        A planned pipeline (:meth:`_pipeline`) streams with its FILTER
        conjuncts attached to the earliest physical operator binding
        their variables; every other node falls back to the materialising
        :meth:`_eval_pattern`.  Used by ASK and by LIMIT-only SELECTs so
        they stop as soon as enough solutions exist.

        ``outer`` is how a FILTER stack over something else travels when
        the profile pushes filters: its conjuncts (outermost first) go
        down to the pattern the stack scopes over.  A MINUS whose *left*
        side is a pipeline takes them into it — sound because MINUS is a
        per-row selection on the left multiset that leaves bindings
        untouched, so ``FILTER(MINUS(L, R), c)`` ≡ ``MINUS(FILTER(L, c),
        R)``; anything else is evaluated and its rows tested.
        Per-conjunct application is faithful to the conjunction: an
        errored conjunct reads as unsatisfied either way.
        """
        pushdown = self.profile.use_filter_pushdown
        pipeline = self._pipeline(node, pushing=bool(outer))
        if pipeline is not None and (pushdown or not pipeline[1]):
            bgp, conditions = pipeline
            return self._eval_bgp_stream(bgp, active_graph, outer + conditions)
        if isinstance(node, Filter):
            if pushdown:
                outer += tuple(conjuncts(node.condition))
                return self._eval_pattern_stream(node.pattern, active_graph, dataset, outer)
            inner = self._eval_pattern_stream(node.pattern, active_graph, dataset)
            return (binding for binding in inner if satisfies(node.condition, binding))
        if outer and isinstance(node, Minus) and self._pipeline(node.left, pushing=True):
            left = self._eval_pattern_stream(node.left, active_graph, dataset, outer)
            return self._minus(left, node.right, active_graph, dataset)
        rows = iter(self._eval_pattern(node, active_graph, dataset))
        if outer:
            return (row for row in rows if all(satisfies(c, row) for c in outer))
        return rows

    def _eval_triple_pattern(self, pattern: Triple, graph: Graph) -> List[Binding]:
        return list(match_triple(graph, pattern))

    def _join(self, left: List[Binding], right: List[Binding]) -> List[Binding]:
        """Bag join of two solution multisets on compatible mappings."""
        if not left or not right:
            return []
        index = self._compat_index(right)
        results: List[Binding] = []
        for left_binding in left:
            results.extend(index.merged(left_binding))
        self._index_probes.inc(index.probes)
        return results

    def _eval_left_join(
        self, node: LeftJoin, active_graph: Graph, dataset: Dataset
    ) -> List[Binding]:
        left = self._eval_pattern(node.left, active_graph, dataset)
        if not left:
            return []
        right, residual = self._eval_optional_right(node, active_graph, dataset)
        index = self._compat_index(right)
        results: List[Binding] = []
        for left_binding in left:
            extended = index.merged(left_binding)
            if residual:
                extended = [
                    merged
                    for merged in extended
                    if all(satisfies(c, merged) for c in residual)
                ]
            if extended:
                results.extend(extended)
            else:
                results.append(left_binding)
        self._index_probes.inc(index.probes)
        return results

    def _eval_optional_right(
        self, node: LeftJoin, active_graph: Graph, dataset: Dataset
    ) -> Tuple[List[Binding], Tuple[Expression, ...]]:
        """Evaluate an OPTIONAL's right side, pushing eligible conjuncts.

        A conjunct of the OPTIONAL condition whose variables are all
        bound by the right-side BGP has the same verdict on the bare
        right row as on any merged row: the BGP binds every one of its
        variables, and merge compatibility forces shared values equal.
        Such conjuncts are pushed into the right pipeline (composing
        with FILTER wrappers already inside the OPTIONAL); the rest stay
        as residual conditions applied per merged pair.  Per-conjunct
        application is faithful to the conjunction: an errored conjunct
        reads as unsatisfied either way.
        """
        condition_conjuncts: Tuple[Expression, ...] = (
            tuple(conjuncts(node.condition)) if node.condition is not None else ()
        )
        if condition_conjuncts and self.profile.use_filter_pushdown:
            pipeline = self._pipeline(node.right, pushing=True)
            if pipeline is not None:
                core, inner_conditions = pipeline
                core_variables = core.variables()
                pushed: List[Expression] = []
                kept: List[Expression] = []
                for conjunct in condition_conjuncts:
                    variables = conjunct.variables()
                    if variables and variables <= core_variables:
                        pushed.append(conjunct)
                    else:
                        kept.append(conjunct)
                if pushed:
                    rows = list(
                        self._eval_bgp_stream(
                            core,
                            active_graph,
                            inner_conditions + tuple(pushed),
                        )
                    )
                    return rows, tuple(kept)
        right = self._eval_pattern(node.right, active_graph, dataset)
        return right, condition_conjuncts

    def _eval_graph(self, node: GraphGraphPattern, dataset: Dataset) -> List[Binding]:
        if isinstance(node.graph, Variable):
            results: List[Binding] = []
            for name, graph in dataset.named_graphs.items():
                index = self._compat_index(self._eval_pattern(node.pattern, graph, dataset))
                results.extend(index.merged(Binding({node.graph: name})))
                self._index_probes.inc(index.probes)
            return results
        graph = dataset.named_graphs.get(node.graph)
        if graph is None:
            return []
        return self._eval_pattern(node.pattern, graph, dataset)

    def _eval_bind(
        self, node: Bind, active_graph: Graph, dataset: Dataset
    ) -> List[Binding]:
        inner = self._eval_pattern(node.pattern, active_graph, dataset)
        results: List[Binding] = []
        for binding in inner:
            try:
                value = evaluate_expression(node.expression, binding)
            except ExpressionError:
                results.append(binding)
                continue
            if node.variable in binding and binding[node.variable] != value:
                continue
            results.append(binding.extend(node.variable, value))
        return results

    def _eval_values(self, node: ValuesPattern) -> List[Binding]:
        results: List[Binding] = []
        for row in node.rows:
            mapping = {
                variable: value
                for variable, value in zip(node.variables_list, row)
                if value is not None
            }
            results.append(Binding(mapping))
        return results

    # ------------------------------------------------------------------
    # property paths
    # ------------------------------------------------------------------
    def _eval_path_pattern(self, node: PathPattern, graph: Graph) -> List[Binding]:
        """Evaluate a path pattern, preferring the id-native engine.

        On an id-capable graph (the encoded store) paths run through
        :class:`repro.sparql.idpaths.IdPathEngine` — integer frontier
        sets, statistics-driven expansion direction, decode only at the
        result boundary.  A profile with id paths off (or a term-only
        backend) recovers the spec's term-level ALP procedure
        (:mod:`repro.sparql.alp`).
        """
        if self.profile.use_id_paths:
            engine = self._id_path_engine(graph)
            if engine is not None:
                return engine.evaluate(node)
        return eval_path_pattern_terms(node, graph)

    #: Upper bound on cached per-graph path engines.
    PATH_ENGINE_CACHE_SIZE = 8

    def _id_path_engine(self, graph: Graph) -> Optional[IdPathEngine]:
        """Return the (cached) id path engine for ``graph``, or ``None``."""
        cache = self._path_engine_cache
        engine = cache.get(id(graph))
        if engine is not None and engine.graph is graph:
            cache.move_to_end(id(graph))
            return engine
        if not supports_id_paths(graph):
            return None
        engine = IdPathEngine(graph)
        cache[id(graph)] = engine
        if len(cache) > self.PATH_ENGINE_CACHE_SIZE:
            cache.popitem(last=False)
        return engine


def _variables_read(query: Query) -> Optional[Tuple[Variable, ...]]:
    """The variables a query form reads from its pattern's rows, sorted by name.

    For a SELECT: projection ∪ projection/aggregate expressions ∪ GROUP BY
    ∪ HAVING ∪ ORDER BY, or ``None`` for ``SELECT *``, which reads them
    all.  An ASK reads none.
    """
    if not isinstance(query, SelectQuery):
        return ()
    if query.select_all:
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
    """The projection (sorted by name) of a SELECT DISTINCT / REDUCED that
    only orders and slices its pattern's rows — no grouping, aggregate or
    HAVING in between — else ``None``.  What the lowering pass compares
    with the variables a plan emits (``lower_plan(distinct=)``)."""
    if (
        isinstance(query, SelectQuery)
        and (query.distinct or query.reduced)
        and not query.has_aggregates()
        and query.having is None
    ):
        return tuple(sorted(query.projected_variables(), key=lambda variable: variable.name))
    return None

