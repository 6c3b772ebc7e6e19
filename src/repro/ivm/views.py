"""Materialized views with live change subscriptions.

:class:`ViewRegistry` turns SELECT queries into continuously-maintained
:class:`MaterializedView` objects over the engine's default graph.  The
registry installs one change-capture listener on that graph while a view
is open (the hook added to ``Graph.add/remove`` and ``EncodedGraph``'s
insert/remove paths) and routes every ±1-weighted triple batch to the
views:

* **Delta maintenance** — queries whose evaluation tree is one pipeline
  of triple patterns (an all-triple BGP plus FILTER, see
  :mod:`repro.ivm.delta`) are updated in O(|Δ|) through a
  :class:`~repro.ivm.delta.DeltaPipeline`.

* **Scoped re-evaluation** — every other supported query (property
  paths, UNION/OPTIONAL/MINUS, solution modifiers) falls
  back to re-running the query and diffing the result Z-set, *scoped* by
  a relevant-predicate gate: batches that touch none of the query's
  constant predicates are skipped without re-evaluating, and views with
  no subscribers defer the re-evaluation until the next read instead of
  paying it per mutation.

View state is a Z-set of projected result rows, so bag semantics and
multiplicities survive maintenance exactly; DISTINCT/REDUCED queries keep
full multiplicities internally (deletions need the counting algorithm)
and present the support.  Beside the Z-set a view keeps its distinct rows
as a list in presentation order, and every delta places exactly the rows
it makes appear or vanish, so a read is a list copy and a write costs
what it changed.  Every view also self-heals: reads compare the
graph's version stamp against the last synchronised one and fall back to
a full refresh when they diverge, so a view can never silently serve
stale rows even across bulk loads that defer their version bump.

Subscriber callbacks run inside the mutating call.  One that raises does
not cost the other subscribers or views their delta: everything is served
first, then the first exception propagates from ``add`` / ``remove`` /
``update`` (the store keeps the mutation).  One that mutates the watched
graph gets a ``RuntimeError`` from the store instead.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import replace
from typing import Callable, Iterable, List, Optional, Set, Tuple, Union

from repro.rdf.terms import IRI, Term, Variable, term_sort_key
from repro.sparql.algebra import (
    GraphGraphPattern,
    GraphPatternNode,
    PathPattern,
    Query,
    SelectQuery,
    TriplePatternNode,
    walk,
)
from repro.sparql.parser import parse_query
from repro.sparql.solutions import SolutionSequence
from repro.sparql.evaltree import PreparedQuery
from repro.ivm.delta import DeltaBatch, DeltaPipeline, RowDelta
from repro.ivm.zset import ZSet, zset_diff, zset_from_rows

#: A view row: terms aligned with the view's projected variables.
Row = Tuple[Optional[Term], ...]

#: A change event delivered to subscribers: ``(row, weight)`` — for bag
#: views the multiplicity change, for DISTINCT views ±1 on support
#: transitions (row appeared / disappeared) only.
ChangeEvent = Tuple[Row, int]

ChangeCallback = Callable[[List[ChangeEvent]], None]


def _call_all(callables: Iterable[Callable], argument) -> None:
    """Call every callable with ``argument``, then let the first failure out.

    One subscriber that raises must not cost the subscribers and views
    behind it their delta: a view left a batch short is only repaired by
    the self-healing refresh of its next read, and its subscribers never
    see what it missed.
    """
    failure: Optional[Exception] = None
    for call in callables:
        try:
            call(argument)
        except Exception as error:
            if failure is None:
                failure = error
    if failure is not None:
        raise failure


def _row_sort_key(row: Row):
    """Deterministic, ``None``-safe ordering of view rows."""
    return tuple(
        [(0, ()) if term is None else (1, term_sort_key(term)) for term in row]
    )


class MaterializedView:
    """A continuously-maintained query result over the engine's default graph.

    Views are created through :meth:`ViewRegistry.materialize` (or the
    engine facade's ``materialize``).  :meth:`rows` reads the current
    result, :meth:`on_change` subscribes to deltas, :meth:`close`
    detaches the view from change capture.
    """

    def __init__(
        self,
        registry: "ViewRegistry",
        query: SelectQuery,
        state_query: PreparedQuery,
        graph,
        pipeline: Optional[DeltaPipeline],
        distinct: bool,
        relevant_predicates: Optional[Set[IRI]],
        reeval_reason: Optional[str],
    ) -> None:
        self._registry = registry
        self.query = query
        self._state_query = state_query
        self.graph = graph
        self._pipeline = pipeline
        self.distinct = distinct
        self._relevant_predicates = relevant_predicates
        self._reeval_reason = reeval_reason
        self.variables: Tuple[Variable, ...] = tuple(query.projected_variables())
        self.closed = False
        self._callbacks: List[ChangeCallback] = []
        self._state: ZSet = {}
        #: The rows of ``_state`` in ``_row_sort_key`` order (rows with
        #: equal keys in the order they arrived), and the size of the bag.
        self._order: List[Row] = []
        self._total = 0
        #: Graph version the state was last synchronised against; ``None``
        #: marks the state dirty (next read refreshes).
        self._synced_version: Optional[int] = None
        self.refresh()

    # -- introspection -------------------------------------------------
    @property
    def maintenance(self) -> str:
        """``"delta"`` (differentiated join) or ``"reeval"`` (fallback)."""
        return "delta" if self._pipeline is not None else "reeval"

    @property
    def delta_stats(self):
        """Counters of the delta pipeline (``None`` for re-eval views)."""
        return self._pipeline.stats if self._pipeline is not None else None

    def explain(self) -> str:
        """How this view is maintained.

        A delta view: per seed position — the pattern a changed triple is unified with
        — the order the other patterns are probed in, the virtual state
        each reads (``new`` = with the change, ``old`` = without) and
        every FILTER conjunct at the step that decides it, with the
        kernel it runs on.  A re-evaluated view: why it is not
        differentiated, and which batches the predicate gate lets through.
        """
        if self._pipeline is not None:
            lines = ["MaterializedView maintenance=delta"]
            lines += [f"  {line}" for line in self._pipeline.explain()]
            return "\n".join(lines)
        if self._relevant_predicates is None:
            gate = "every batch"
        else:
            gate = "batches touching " + ", ".join(
                sorted(repr(predicate) for predicate in self._relevant_predicates)
            )
        return (
            "MaterializedView maintenance=reeval\n"
            f"  reason: {self._reeval_reason}\n"
            f"  re-evaluated after: {gate}"
        )

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{len(self._order)} distinct rows"
        return f"MaterializedView({self.maintenance}, {state})"

    # -- reads ---------------------------------------------------------
    def rows(self, distinct: Optional[bool] = None) -> List[Row]:
        """Current result rows, deterministically sorted.

        Bag views return multiplicities; DISTINCT/REDUCED queries (or an
        explicit ``distinct=True``) return the support.  Reads self-heal:
        a version mismatch against the graph triggers a full refresh
        first, so a stale answer is impossible.
        """
        if self.closed:
            raise RuntimeError("view is closed")
        self._ensure_fresh()
        order = self._order
        use_distinct = self.distinct if distinct is None else distinct
        if use_distinct or self._total == len(order):
            return order.copy()
        state = self._state
        return [row for row in order for _ in range(state[row])]

    def __len__(self) -> int:
        if self.closed:
            raise RuntimeError("view is closed")
        self._ensure_fresh()
        return len(self._order) if self.distinct else self._total

    def _ensure_fresh(self) -> None:
        if self._synced_version != getattr(self.graph, "version", None):
            self.refresh()

    # -- subscriptions ---------------------------------------------------
    def on_change(self, callback: ChangeCallback) -> Callable[[], None]:
        """Subscribe ``callback`` to this view's deltas.

        The callback receives a non-empty list of ``(row, weight)``
        events after every mutation batch that changed the result (for
        DISTINCT views: only support transitions).  Returns an
        unsubscribe function.  Note that subscribing switches a re-eval
        view from read-time to mutation-time maintenance, since deltas
        must be observed eagerly.
        """
        if self.closed:
            raise RuntimeError("view is closed")
        self._callbacks.append(callback)

        def unsubscribe() -> None:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Detach from change capture; further reads raise."""
        if not self.closed:
            self.closed = True
            self._callbacks.clear()
            self._registry._detach(self)

    # -- maintenance -----------------------------------------------------
    def refresh(self) -> None:
        """Re-evaluate the query and replace the state (diff-notifying)."""
        # Stamp before evaluating: a mutation racing the evaluation would
        # bump the version past this and force another (correct) refresh.
        self._synced_version = getattr(self.graph, "version", None)
        fresh = self._evaluate_state()
        delta = zset_diff(fresh, self._state)
        self._registry._refreshes.inc()
        if delta:
            self._commit(delta)

    def _evaluate_state(self) -> ZSet:
        result = self._registry.evaluator.evaluate(self._state_query)
        assert isinstance(result, SolutionSequence)
        return zset_from_rows(tuple(row) for row in result.rows())

    def _apply_batch(self, batch: DeltaBatch) -> None:
        """Route one change-capture batch into the view."""
        if self.closed:
            return
        if self._pipeline is not None:
            delta = self._pipeline.apply(batch)
            self._synced_version = getattr(self.graph, "version", None)
            if delta:
                self._registry._delta_rows.inc(len(delta))
                self._commit(delta)
            return
        if self._relevant_predicates is not None and not any(
            triple.predicate in self._relevant_predicates for triple, _ in batch
        ):
            # The batch cannot affect the result: stay synchronised (but a
            # dirty view stays dirty) and skip the re-evaluation outright.
            self._registry._skipped.inc()
            if self._synced_version is not None:
                self._synced_version = getattr(self.graph, "version", None)
        elif self._callbacks:
            self.refresh()
        else:
            # No subscriber needs the delta now: defer the re-evaluation
            # to the next read instead of paying it per mutation.
            self._synced_version = None

    def _commit(self, delta: RowDelta) -> None:
        """Merge ``delta`` into the state, keep the order, tell subscribers."""
        state = self._state
        distinct = self.distinct
        subscribed = bool(self._callbacks)
        events: List[ChangeEvent] = []
        appeared: List[Row] = []
        vanished: List[Row] = []
        for row, weight in delta.items():
            before = state.get(row, 0)
            after = before + weight
            if after:
                state[row] = after
                if not before:
                    appeared.append(row)
            else:
                del state[row]
                vanished.append(row)
            if not subscribed:
                continue
            if not distinct:
                events.append((row, weight))
            elif before <= 0 < after:
                events.append((row, 1))
            elif after <= 0 < before:
                events.append((row, -1))
        self._total += sum(delta.values())
        self._place(appeared, vanished)
        if events:
            events.sort(key=lambda event: _row_sort_key(event[0]))
            _call_all(list(self._callbacks), events)

    def _place(self, appeared: List[Row], vanished: List[Row]) -> None:
        """Bring ``_order`` in line with a state that gained and lost rows."""
        order = self._order
        key = self._registry._sort_key
        size = len(self._state)
        if (len(appeared) + len(vanished)) * size.bit_length() >= size:
            # |state| / log2 |state| rows or more move: one sort is cheaper.
            self._order = sorted(self._state, key=key)
            return
        for row in vanished:
            try:
                del order[order.index(row, bisect_left(order, key(row), key=key))]
            except ValueError:
                # NaN keys do not order totally, so the bisect can land
                # behind the row: look everywhere.
                order.remove(row)
        for row in appeared:
            insort(order, row, key=key)


def _relevant_predicates(pattern: GraphPatternNode) -> Optional[Set[IRI]]:
    """Constant predicates a pattern can match, or ``None`` for "any".

    A triple whose predicate is outside this set cannot change any
    pattern match, so batches disjoint from it are skipped.  Variable
    predicates and property paths (whose link set is path-structure
    dependent) disable the gate.
    """
    predicates: Set[IRI] = set()
    for node in walk(pattern):
        if isinstance(node, TriplePatternNode):
            if isinstance(node.triple.predicate, Variable):
                return None
            predicates.add(node.triple.predicate)
        elif isinstance(node, PathPattern):
            return None
    return predicates


class ViewRegistry:
    """Creates materialized views and feeds them from change capture.

    One listener is installed on the default graph with the first view and
    removed when the last view closes, so an idle engine leaves no trace
    on its graph.  All IVM metrics live on the evaluator's
    metrics registry: ``ivm_delta_batches_total``, ``ivm_delta_rows_total``,
    ``ivm_view_refreshes_total``, ``ivm_skipped_batches_total``,
    ``ivm_view_sort_keys_total`` and the ``ivm_views_active`` gauge.
    """

    def __init__(self, evaluator, tracer=None) -> None:
        self.evaluator = evaluator
        self.tracer = tracer if tracer is not None else evaluator.tracer
        self._views: List[MaterializedView] = []
        #: The graph :meth:`_dispatch` listens to while a view is open.
        self._watched = None
        registry = evaluator.metrics_registry
        self._batches = registry.counter(
            "ivm_delta_batches_total", "Change-capture batches routed to views"
        )
        self._delta_rows = registry.counter(
            "ivm_delta_rows_total", "Result-row deltas emitted by delta pipelines"
        )
        self._refreshes = registry.counter(
            "ivm_view_refreshes_total", "Full view re-evaluations (init + fallback)"
        )
        self._skipped = registry.counter(
            "ivm_skipped_batches_total",
            "Batches skipped by the relevant-predicate gate",
        )
        sort_keys = registry.counter(
            "ivm_view_sort_keys_total",
            "Rows keyed to place them in a view's order",
        )

        def sort_key(row: Row):
            sort_keys.value += 1
            return _row_sort_key(row)

        #: ``_row_sort_key``, counted: what views order their rows by.
        self._sort_key = sort_key
        registry.gauge(
            "ivm_views_active",
            "Materialized views currently open",
            callback=lambda: len(self._views),
        )

    # -- view creation ---------------------------------------------------
    def materialize(self, query: Union[str, Query]) -> MaterializedView:
        """Create a continuously-maintained view of a SELECT query over the
        evaluator's default graph.

        The graph must support change capture (both stores do); under the
        planner it must be the encoded store, or no view is made
        (``TypeError``).  Queries with FROM clauses or GRAPH patterns are
        rejected — change capture is per-graph, and those shapes read
        beyond the watched graph.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, SelectQuery):
            raise ValueError(
                "only SELECT queries can be materialized "
                f"(got {type(query).__name__})"
            )
        if query.dataset_clauses:
            raise ValueError("queries with FROM clauses cannot be materialized")
        if any(
            isinstance(node, GraphGraphPattern) for node in walk(query.pattern)
        ):
            raise ValueError("queries with GRAPH patterns cannot be materialized")
        graph = self.evaluator.dataset.default_graph
        if not hasattr(graph, "add_change_listener"):
            raise TypeError(
                f"{type(graph).__name__} does not support change capture"
            )
        pipeline, reason, state_query, distinct = self._build_maintenance(query, graph)
        relevant = (
            _relevant_predicates(query.pattern) if pipeline is None else None
        )
        view = MaterializedView(
            self, query, state_query, graph, pipeline, distinct, relevant, reason
        )
        self._views.append(view)
        self._attach(graph)
        return view

    def _build_maintenance(
        self, query: SelectQuery, graph
    ) -> Tuple[Optional[DeltaPipeline], Optional[str], PreparedQuery, bool]:
        """Choose delta vs. re-eval maintenance for ``query``.

        Returns ``(pipeline, reason, prepared state query, distinct)``: a
        delta pipeline, or ``None`` and why not.  Delta eligibility: no
        solution modifiers beyond DISTINCT/REDUCED, plain-variable
        projection, and an evaluation tree that is one pipeline of triple
        patterns (:attr:`~repro.sparql.evaltree.PreparedQuery.pipeline`),
        however the query itself is planned.  DISTINCT is handled by
        maintaining the un-DISTINCT state (multiplicities are required to
        know when a deletion empties a row) and presenting the support.
        """
        prepared = self.evaluator.prepare(query)
        distinct = query.distinct or query.reduced
        if (
            query.order_by
            or query.limit is not None
            or query.offset
            or query.group_by
            or query.having is not None
            or query.has_aggregates()
            or any(item.expression is not None for item in query.projection)
        ):
            return None, "solution modifiers, aggregates or select expressions", prepared, False
        planned = prepared.pipeline
        if (
            planned is None
            or not planned.bgp.patterns
            or not all(isinstance(p, TriplePatternNode) for p in planned.bgp.patterns)
        ):
            reason = "the pattern is not a FILTER-wrapped BGP of triple patterns"
            return None, reason, prepared, False
        pipeline = DeltaPipeline(
            graph,
            [node.triple for node in planned.bgp.patterns],
            planned.conditions,
            query.projected_variables(),
        )
        if distinct:
            prepared = self.evaluator.prepare(replace(query, distinct=False, reduced=False))
        return pipeline, None, prepared, distinct

    # -- change capture --------------------------------------------------
    def _attach(self, graph) -> None:
        if self._watched is None:
            graph.add_change_listener(self._dispatch)
            self._watched = graph

    def _detach(self, view: MaterializedView) -> None:
        if view in self._views:
            self._views.remove(view)
        if not self._views and self._watched is not None:
            self._watched.remove_change_listener(self._dispatch)
            self._watched = None

    def _dispatch(self, batch: DeltaBatch) -> None:
        self._batches.inc()
        tracer = self.tracer
        views = list(self._views)
        calls = [view._apply_batch for view in views]
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "ivm.apply", category="ivm", changes=len(batch), views=len(views)
            ) as span:
                rows = self._delta_rows.value
                seed_matches = self._seed_matches(views)
                try:
                    _call_all(calls, batch)
                finally:
                    span.annotate(
                        rows=self._delta_rows.value - rows,
                        seed_matches=self._seed_matches(views) - seed_matches,
                    )
        else:
            _call_all(calls, batch)

    @staticmethod
    def _seed_matches(views: List[MaterializedView]) -> int:
        return sum(
            view._pipeline.stats.seed_matches
            for view in views
            if view._pipeline is not None
        )

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Close every view and remove all installed listeners."""
        for view in list(self._views):
            view.close()

    @property
    def views(self) -> List[MaterializedView]:
        """The currently-open views (snapshot list)."""
        return list(self._views)
