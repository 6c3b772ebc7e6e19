"""The SparqLog engine façade.

Ties the three translation methods together with the Datalog± engine.

Once per dataset state (on first use, and again after any graph of the
dataset has changed):

1. T_D turns the dataset into facts and the auxiliary rules (``term``,
   ``comp``, ``subjectOrObject``), ontology axioms (if any) are added as
   Datalog± rules, and the Datalog engine closes that program into a
   :class:`~repro.datalog.engine.Materialisation` — the only copy of the
   data the engine keeps, with the hash indexes the queries build on it.

Per query:

2. T_Q translates the parsed query into rules,
3. the Datalog engine evaluates only those rules — unfolded into the few
   joins they describe, see :meth:`SparqLogEngine.explain` — on top of
   the materialisation (which it reads and indexes but never writes),
4. T_S converts the answer relation into a SPARQL solution sequence.

A query with FROM / FROM NAMED clauses assembles its own active dataset
and materialises it for that query alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.data_translation import DataTranslator
from repro.core.ontology import Ontology
from repro.core.query_translation import QueryTranslator, TranslationResult
from repro.core.solution_translation import SolutionTranslator
from repro.datalog.engine import DatalogEngine, Materialisation
from repro.datalog.rules import Program
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI
from repro.sparql.algebra import DatasetClause, Query
from repro.sparql.parser import parse_query
from repro.sparql.solutions import SolutionSequence


def resolve_dataset_clauses(
    dataset: Dataset, clauses: Sequence[DatasetClause]
) -> Dataset:
    """Build the active dataset described by FROM / FROM NAMED clauses."""
    if not clauses:
        return dataset
    default = Graph()
    named: Dict[IRI, Graph] = {}
    for clause in clauses:
        graph = dataset.named_graphs.get(clause.graph)
        if graph is None:
            # Conventionally, FROM over an unknown IRI falls back to the
            # default graph so self-contained examples keep working.
            graph = dataset.default_graph
        if clause.named:
            named[clause.graph] = graph
        else:
            default.update(graph)
    return Dataset(default, named)


class SparqLogEngine:
    """Evaluate SPARQL 1.1 queries by translation to Warded Datalog±."""

    name = "SparqLog"

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
        #: is (re)built, ``datalog.unfold`` and one ``datalog.stratum`` per
        #: evaluated component for every query.
        self.tracer = tracer
        self._data_translator = DataTranslator()
        self._solution_translator = SolutionTranslator()
        # The dataset's closed T_D + ontology program, keyed on the state it
        # was built from: every graph's (id, version) and the axioms.  The
        # graphs are held so that no other graph can take over their ids.
        self._base: Optional[Materialisation] = None
        self._base_key: Tuple = ()
        self._base_graphs: List[Graph] = []
        #: Semi-naive delta rounds of the most recent query's fixpoint.
        self.last_fixpoint_iterations = 0
        #: Queries answered on the kept materialisation / times it was
        #: (re)built, per-query FROM datasets included.
        self.base_hits = 0
        self.base_rebuilds = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def load(self, dataset: Dataset) -> None:
        """Replace the dataset (its materialisation is rebuilt on next use)."""
        self.dataset = dataset

    def query(self, query: Union[str, Query]) -> Union[SolutionSequence, bool]:
        """Parse (if needed), translate and evaluate a SPARQL query."""
        parsed = parse_query(query) if isinstance(query, str) else query
        translation = QueryTranslator().translate(parsed)
        base = self._base_for(getattr(parsed, "dataset_clauses", ()))
        engine = self._datalog_engine()
        relations = engine.evaluate(translation.program, base)
        self.last_fixpoint_iterations = engine.fixpoint_iterations
        return self._solution_translator.translate(relations, translation)

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

        The query is evaluated with a tracer of its own and the spans are
        rendered: how many T_Q rules were left after unfolding and which
        predicates went, then every evaluated component in order with its
        ``recursive`` flag, semi-naive rounds and derived tuples, and each
        of its rules with the body in the order it ran in; ``[est n]``
        after a positive atom is the row estimate it was chosen on.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        program = QueryTranslator().translate(parsed).program
        base = self._base_for(getattr(parsed, "dataset_clauses", ()))
        tracer = Tracer("explain")
        DatalogEngine(
            max_facts=self.max_facts, timeout_seconds=self.timeout_seconds, tracer=tracer
        ).materialise(program, base)
        lines: List[str] = []
        for span in tracer.spans:
            args = span.args
            if span.name == "datalog.unfold":
                lines.append(
                    f"unfold: {args['rules_before']} rules -> {args['rules_after']}"
                    f" (unfolded: {', '.join(args['unfolded']) or 'none'})"
                )
            elif span.name == "datalog.stratum":
                lines.append(
                    f"component {', '.join(args['predicates'])}:"
                    f" recursive={args['recursive']} rounds={args['rounds']}"
                    f" derived={args['derived']}"
                )
                for plan in args["plans"]:
                    lines.append(f"  {plan['head']} :-")
                    for element, estimate in plan["body"]:
                        suffix = "" if estimate is None else f"  [est {estimate:.4g}]"
                        lines.append(f"    {element}{suffix}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------
    def _datalog_engine(self) -> DatalogEngine:
        return DatalogEngine(
            max_facts=self.max_facts,
            timeout_seconds=self.timeout_seconds,
            tracer=self.tracer,
        )

    def _data_program(self, clauses: Sequence[DatasetClause]) -> Program:
        """T_D of the active dataset plus the ontology rules (a fresh program)."""
        program = self._data_translator.translate(
            resolve_dataset_clauses(self.dataset, clauses)
        )
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

