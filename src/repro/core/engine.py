"""The SparqLog engine façade.

Ties the three translation methods together with the Datalog± engine.
Every artefact is rebuilt only when its input changes, which gives three
lifetimes:

**Per dataset state** (on first use, and again after any graph of the
dataset or the ontology has changed): T_D turns the dataset into facts and
the auxiliary rules (``term``, ``comp``, ``subjectOrObject``), ontology
axioms (if any) are added as Datalog± rules, and the Datalog engine closes
that program into a :class:`~repro.datalog.engine.Materialisation` — the
only copy of the data the engine keeps, with the hash indexes the queries
build on it and its value table: every relation holds id tuples.

**Per query text, for good** (T_Q never reads the data): the parsed
algebra, the T_Q translation and its
:class:`~repro.datalog.engine.PreparedProgram` — the rules unfolded into
the few joins they describe, the components and their rule groups.  Kept
in one bounded map ``text -> prepared`` (:data:`PREPARED_TEXTS` entries,
the oldest inserted evicted first).

**Per query text and materialisation**: the ordered rule bodies and the
compiled step chains, built by the first run of the text on the
materialisation and dropped the moment the materialisation is replaced;
the text's constants, interned into the materialisation's value table
when the text is first run on it, live as long as the table.
Reusing them is exact: program and base being fixed, evaluation is
deterministic, so a later run would order every body on the sizes the
first one saw.

**Per run**, then, only the fixpoint itself — empty relations for what the
query derives, the deadline and the fact count, both limits checked where
they always were — and T_S, which decodes the answer relation's id rows
into a SPARQL solution sequence.  The ids the run interned (tuple IDs,
labelled nulls, aggregate results) are dropped with its rows when the
query returns.

A query with FROM / FROM NAMED clauses assembles its own active dataset
and materialises it for that call alone: its text level is reused, its
base level is not.  A parsed ``Query`` argument is prepared, run and
dropped.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.data_translation import DataTranslator
from repro.core.ontology import Ontology
from repro.core.query_translation import QueryTranslator, TranslationResult
from repro.core.solution_translation import SolutionTranslator
from repro.datalog.engine import DatalogEngine, Materialisation, PreparedProgram
from repro.datalog.rules import Program
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.rdf.graph import Dataset, Graph
from repro.sparql.algebra import DatasetClause, Query
from repro.sparql.parser import parse_query
from repro.sparql.plancache import BoundedMap
from repro.sparql.solutions import SolutionSequence

#: How many query texts an engine keeps prepared.
PREPARED_TEXTS = 256

_COUNTERS = (
    ("base_hits", "Queries answered on the kept materialisation"),
    ("base_rebuilds", "Times T_D + ontology were closed, per-query FROM datasets included"),
    ("prepared_rebinds", "Kept texts re-ordered and re-compiled because the base changed"),
)


class _PreparedQuery:
    """What one query text comes to: its translation and the prepared rules."""

    __slots__ = ("translation", "clauses", "program")

    def __init__(self, translation: TranslationResult, program: PreparedProgram) -> None:
        self.translation = translation
        self.clauses: Sequence[DatasetClause] = getattr(
            translation.query, "dataset_clauses", ()
        )
        self.program = program


class SparqLogEngine:
    """Evaluate SPARQL 1.1 queries by translation to Warded Datalog±."""

    def __init__(
        self,
        dataset: Dataset,
        ontology: Optional[Ontology] = None,
        timeout_seconds: Optional[float] = None,
        max_facts: int = 5_000_000,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.dataset = dataset
        self.ontology = ontology
        self.timeout_seconds = timeout_seconds
        self.max_facts = max_facts
        #: Optional span tracer: ``datalog.base`` when the materialisation
        #: is (re)built, ``datalog.unfold`` when a text is prepared and one
        #: ``datalog.stratum`` per evaluated component for every query.
        self.tracer = tracer
        self._data_translator = DataTranslator()
        self._solution_translator = SolutionTranslator()
        # One Datalog engine for good: compiled rules count facts and read
        # the clock through it.  Limits and tracer are copied in per run.
        self._datalog = DatalogEngine()
        # The dataset's closed T_D + ontology program, keyed on the state it
        # was built from: every graph's (id, version) and the axioms.  The
        # graphs are held so that no other graph can take over their ids.
        self._base: Optional[Materialisation] = None
        self._base_key: Tuple = ()
        self._base_graphs: List[Graph] = []
        self._prepared = BoundedMap(PREPARED_TEXTS)
        self._metrics: Optional[MetricsRegistry] = None
        #: Semi-naive delta rounds of the most recent query's fixpoint.
        self.last_fixpoint_iterations = 0
        #: Queries answered on the kept materialisation / times it was
        #: (re)built, per-query FROM datasets included.
        self.base_hits = 0
        self.base_rebuilds = 0
        #: Kept texts whose bodies were ordered and compiled again because
        #: the materialisation they ran on last is gone.
        self.prepared_rebinds = 0

    @property
    def prepared_hits(self) -> int:
        """Queries whose text was found prepared."""
        return self._prepared.hits

    @property
    def prepared_misses(self) -> int:
        """Query texts parsed, translated and unfolded from scratch."""
        return self._prepared.misses

    @property
    def prepared_evictions(self) -> int:
        """Prepared texts dropped because the map was full."""
        return self._prepared.evictions

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def load(self, dataset: Dataset) -> None:
        """Replace the dataset (its materialisation is rebuilt on next use)."""
        self.dataset = dataset

    def query(self, query: Union[str, Query]) -> Union[SolutionSequence, bool]:
        """Evaluate a SPARQL query; a text seen before only runs its fixpoint."""
        prepared, reused = self._prepare(query)
        translation = prepared.translation
        try:
            result = self._run(prepared, reused)
            return self._solution_translator.translate_rows(
                result.rows(translation.answer_predicate), translation, result.table
            )
        finally:
            self._done(prepared)

    def translate(self, query: Union[str, Query]) -> Tuple[Program, TranslationResult]:
        """Return the full Datalog± program (data + ontology + query rules)."""
        parsed = parse_query(query) if isinstance(query, str) else query
        program = self._data_program(getattr(parsed, "dataset_clauses", ()))
        translation = QueryTranslator().translate(parsed)
        program.extend(translation.program)
        return program, translation

    def query_program(self, query: Union[str, Query]) -> Program:
        """Return only the rules generated by the query translation T_Q."""
        parsed = parse_query(query) if isinstance(query, str) else query
        return QueryTranslator().translate(parsed).program

    def explain(self, query: Union[str, Query]) -> str:
        """Render what is evaluated for ``query`` — not T_Q as written.

        The query is run and its prepared form rendered: how many T_Q
        rules were left after unfolding and which predicates went; what
        trimming did to tuple IDs, if anything (an ``ids:`` line: the
        columns nothing read, as ``predicate:position``, the assignments
        nothing read and the Skolem chains fused into one term); then
        every evaluated component in order with its ``recursive`` flag,
        the semi-naive rounds and derived tuples of this run, and each of
        its rules with the body in the order it runs in; ``[est n]`` after
        a positive atom is the row estimate it was chosen on.  When the
        text was prepared before, a leading ``prepared:`` line says what
        was reused; without it everything shown was built for this call.
        """
        prepared, reused = self._prepare(query)
        rebinds = self.prepared_rebinds
        lines: List[str] = []
        try:
            self._run(prepared, reused)
            if reused and self.prepared_rebinds == rebinds:
                lines.append("prepared: reused (parse, T_Q, unfold, body orders, compiled rules)")
            elif reused:
                lines.append("prepared: reused (parse, T_Q, unfold); ordered and compiled anew")
            unfolding = prepared.program.unfolding
            if unfolding is not None:
                lines.append(
                    f"unfold: {unfolding['rules_before']} rules -> {unfolding['rules_after']}"
                    f" (unfolded: {', '.join(unfolding['unfolded']) or 'none'})"
                )
                columns = unfolding["columns_dropped"]
                if columns or unfolding["assignments_dropped"] or unfolding["chains_fused"]:
                    lines.append(
                        f"ids: {len(columns)} columns dropped"
                        + (f" ({', '.join(columns)})" if columns else "")
                        + f", {unfolding['assignments_dropped']} assignments dropped"
                        f", {unfolding['chains_fused']} chains fused"
                    )
            for component in prepared.program.evaluated():
                lines.append(
                    f"component {', '.join(component['predicates'])}:"
                    f" recursive={component['recursive']} rounds={component['rounds']}"
                    f" derived={component['derived']}"
                )
                for plan in component["plans"]:
                    lines.append(f"  {plan['head']} :-")
                    for element, estimate in plan["body"]:
                        suffix = "" if estimate is None else f"  [est {estimate:.4g}]"
                        lines.append(f"    {element}{suffix}")
        finally:
            self._done(prepared)
        return "\n".join(lines)

    def metrics(self) -> Dict[str, object]:
        """Snapshot the engine's counters (``sparqlog_*``) as a plain dict."""
        return self.metrics_registry.snapshot()

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The counters as callback instruments (made on first use)."""
        registry = self._metrics
        if registry is None:
            registry = self._metrics = MetricsRegistry()
            self._prepared.bind_metrics(registry, "sparqlog_prepared", "Prepared query texts")
            for name, description in _COUNTERS:
                registry.counter(
                    f"sparqlog_{name}_total", description, callback=partial(getattr, self, name)
                )
            registry.gauge(
                "sparqlog_prepared_texts",
                "Query texts kept prepared",
                callback=lambda: len(self._prepared),
            )
            registry.gauge(
                "sparqlog_last_fixpoint_iterations",
                "Semi-naive delta rounds of the most recent query",
                callback=lambda: self.last_fixpoint_iterations,
            )
        return registry

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------
    def _prepare(self, query: Union[str, Query]) -> Tuple[_PreparedQuery, bool]:
        """The prepared form of ``query`` and whether it was there already."""
        if not isinstance(query, str):
            return self._prepare_parsed(query), False
        prepared = self._prepared
        misses = prepared.misses
        return prepared.get(query, self._prepare_text), prepared.misses == misses

    def _prepare_text(self, text: str) -> _PreparedQuery:
        return self._prepare_parsed(parse_query(text))

    def _prepare_parsed(self, parsed: Query) -> _PreparedQuery:
        translation = QueryTranslator().translate(parsed)
        program = self._datalog_engine().prepare(translation.program)
        # T_S reads the answer's layout off the translation, never the rules:
        # T_Q as written — a fifth of what a kept text weighs — is let go.
        translation.program = Program()
        return _PreparedQuery(translation, program)

    def _run(self, prepared: _PreparedQuery, reused: bool) -> Materialisation:
        """Run the prepared rules on the materialisation their dataset needs."""
        base = self._base_for(prepared.clauses)
        datalog = self._datalog_engine()
        if reused and not prepared.program.bound_to(base):
            self.prepared_rebinds += 1
        result = datalog.run(prepared.program, base)
        self.last_fixpoint_iterations = datalog.fixpoint_iterations
        return result

    @staticmethod
    def _done(prepared: _PreparedQuery) -> None:
        """Leave no derived tuple behind — and no per-query FROM dataset."""
        if prepared.clauses:
            prepared.program.unbind()
        else:
            prepared.program.release()

    def _datalog_engine(self) -> DatalogEngine:
        """The one Datalog engine, under the limits and tracer set right now."""
        datalog = self._datalog
        datalog.max_facts = self.max_facts
        datalog.timeout_seconds = self.timeout_seconds
        datalog.tracer = self.tracer
        return datalog

    def _data_program(self, clauses: Sequence[DatasetClause]) -> Program:
        """T_D of the active dataset plus the ontology rules (a fresh program)."""
        program = self._data_translator.translate(self.dataset.active(clauses))
        if self.ontology is not None and len(self.ontology):
            program.extend(self.ontology.to_rules())
        return program

    def _base_for(self, clauses: Sequence[DatasetClause]) -> Materialisation:
        """The closed data program the query's rules run on."""
        if clauses:
            return self._build_base(clauses)
        dataset = self.dataset
        graphs = [dataset.default_graph, *dataset.named_graphs.values()]
        key = (
            tuple(dataset.named_graphs),
            tuple((id(graph), graph.version) for graph in graphs),
            tuple(self.ontology.axioms) if self.ontology is not None else (),
        )
        if self._base is None or key != self._base_key:
            # Whatever was compiled on the old materialisation goes with it.
            for prepared in self._prepared.values():
                prepared.program.unbind()
            self._base = self._build_base(())
            self._base_key = key
            self._base_graphs = graphs
        else:
            self.base_hits += 1
        return self._base

    def _build_base(self, clauses: Sequence[DatasetClause]) -> Materialisation:
        """Translate the active dataset (T_D + ontology rules) and close it."""
        self.base_rebuilds += 1
        tracer = self.tracer
        span = tracer.span("datalog.base", "datalog") if tracer is not None else NULL_SPAN
        with span:
            program = self._data_program(clauses)
            base = self._datalog_engine().materialise(program)
            span.annotate(
                facts=len(program.facts), rules=len(program.rules), closure=base.fact_count
            )
        return base

