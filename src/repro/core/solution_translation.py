"""Solution translation T_S: Datalog± answers → SPARQL solution sequences.

The SparqLog engine hands over the answer predicate's rows as the
fixpoint stores them — tuples of value-table ids — together with the
table (:mod:`repro.datalog.values`); each row is decoded straight into its
solution tuple.  The decoded sets of ``DatalogEngine.evaluate`` are taken
as well (:meth:`SolutionTranslator.translate`).  The solution translation
drops the tuple-ID column (whose only purpose is duplicate preservation),
maps the ``"null"`` constant back to an unbound variable, converts
labelled nulls (Skolem ids or terms produced by existential ontology
rules) to blank nodes, one per distinct null, and applies the solution
modifiers recorded as ``@post`` directives: ORDER BY, DISTINCT, LIMIT and
OFFSET.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Optional, Set, Tuple, Union

from repro.core.query_translation import TranslationResult
from repro.datalog.terms import SkolemTerm
from repro.datalog.values import SkolemKey, ValueTable
from repro.rdf.terms import BlankNode, Literal, Term as RdfTerm
from repro.sparql.algebra import SelectQuery
from repro.sparql.modifiers import apply_modifiers, result_header
from repro.sparql.solutions import SolutionSequence


class SolutionTranslator:
    """Convert Datalog answer relations into SPARQL results."""

    def translate(
        self,
        relations: Dict[str, Set[Tuple]],
        translation: TranslationResult,
    ) -> Union[SolutionSequence, bool]:
        """Translate the answer relation of decoded ``relations``
        (what :meth:`~repro.datalog.engine.DatalogEngine.evaluate` returns)."""
        return self.translate_rows(relations.get(translation.answer_predicate, ()), translation)

    def translate_rows(
        self,
        rows: Iterable[Tuple],
        translation: TranslationResult,
        table: Optional[ValueTable] = None,
    ) -> Union[SolutionSequence, bool]:
        """Translate the answer relation's ``rows`` according to the query
        form.  With ``table`` the rows are id rows, decoded value by value
        straight into the solution tuples."""
        value = table.values.__getitem__ if table is not None else _same
        if translation.form == "ASK":
            return self._translate_ask(rows, value)
        return self._translate_select(rows, translation, value)

    # ------------------------------------------------------------------
    # ASK
    # ------------------------------------------------------------------
    @staticmethod
    def _translate_ask(rows: Iterable[Tuple], value: Callable[[object], object]) -> bool:
        for row in rows:
            first = value(row[0])
            if isinstance(first, Literal) and first.lexical == "true":
                return True
        return False

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _translate_select(
        self,
        rows: Iterable[Tuple],
        translation: TranslationResult,
        value: Callable[[object], object],
    ) -> SolutionSequence:
        query = translation.query
        assert isinstance(query, SelectQuery)
        offset = 1 if translation.has_id_column else 0
        # The row layout — which column fills which header position — is
        # the translation's: fixed here, not per row.  A header variable
        # the answer relation lacks stays unbound.
        header = result_header(query)
        column_of = {
            variable: offset + position
            for position, variable in enumerate(translation.answer_variables)
        }
        columns = [column_of.get(variable) for variable in header]
        to_term = self._to_rdf_term
        nulls: Dict[Hashable, BlankNode] = {}
        solutions = [
            tuple(
                [
                    None if column is None else to_term(value(row[column]), nulls)
                    for column in columns
                ]
            )
            for row in rows
        ]
        # The native evaluator's tail, so both engines order alike.
        return SolutionSequence(
            query.projected_variables(), apply_modifiers(query, header, solutions)
        )

    @staticmethod
    def _to_rdf_term(value: object, nulls: Dict[Hashable, BlankNode]) -> Optional[RdfTerm]:
        """Convert a Datalog ground value back to an RDF term (or None)."""
        if isinstance(value, RdfTerm):
            return value
        if isinstance(value, (SkolemKey, SkolemTerm)):
            # Labelled nulls from existential rules behave like blank nodes:
            # one per distinct null of this result, numbered as they come.
            return nulls.setdefault(value, BlankNode(f"null{len(nulls)}"))
        if value == "null" or value is None:
            return None
        if isinstance(value, str):
            return Literal(value)
        if isinstance(value, (int, float, bool)):
            return Literal.from_python(value)
        return None


def _same(value: object) -> object:
    return value
