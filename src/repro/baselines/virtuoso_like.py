"""A baseline reproducing Virtuoso's documented non-standard behaviours.

The paper's compliance study (Section 6.2, Table 3; Appendix D.2.3) and
the BeSEPPI paper it builds on attribute the following deviations to
OpenLink Virtuoso:

* recursive property paths (``?``, ``+``, ``*``) with **two variable
  endpoints** are rejected with a "transitive start not given" error —
  the feature was apparently left out because the relational backend would
  need huge joins;
* ``+`` (one-or-more) paths over cyclic data can miss the start node,
  suggesting the implementation computes ``*`` and removes the start node;
* alternative property paths drop duplicate solutions;
* some queries mishandle duplicates around DISTINCT / UNION (FEASIBLE
  findings: wrongly emitting or omitting duplicates).

This engine wraps the standard-compliant evaluator and then *re-applies*
those deviations, so the compliance experiments regenerate the paper's
error taxonomy from an explicit, documented failure model rather than
from hard-coded result tables.
"""

from __future__ import annotations

from typing import List, Union

from repro.baselines.interface import EngineError, SparqlEngine
from repro.rdf.graph import Dataset
from repro.rdf.terms import Variable
from repro.sparql.algebra import PathPattern, Query, SelectQuery, walk
from repro.sparql.evaluator import EvaluationError, SparqlEvaluator
from repro.sparql.parser import SparqlSyntaxError, parse_query
from repro.sparql.paths import (
    AlternativePath,
    OneOrMorePath,
    PropertyPath,
    ZeroOrMorePath,
    ZeroOrOnePath,
)
from repro.sparql.solutions import SolutionSequence


def _contains_recursive_modifier(path: PropertyPath) -> bool:
    """Does the path contain ?, + or * anywhere?"""
    stack = [path]
    while stack:
        current = stack.pop()
        if isinstance(current, (OneOrMorePath, ZeroOrMorePath, ZeroOrOnePath)):
            return True
        for attribute in ("path", "left", "right"):
            child = getattr(current, attribute, None)
            if child is not None:
                stack.append(child)
    return False


def _contains_alternative(path: PropertyPath) -> bool:
    stack = [path]
    while stack:
        current = stack.pop()
        if isinstance(current, AlternativePath):
            return True
        for attribute in ("path", "left", "right"):
            child = getattr(current, attribute, None)
            if child is not None:
                stack.append(child)
    return False


class VirtuosoLikeEngine(SparqlEngine):
    """Standard evaluator plus Virtuoso's documented deviations."""

    name = "VirtuosoLike"

    def query(self, query_text: str) -> Union[SolutionSequence, bool]:
        try:
            parsed = parse_query(query_text)
        except SparqlSyntaxError as error:
            raise EngineError(f"parse error: {error}") from error

        path_nodes: List[PathPattern] = [
            node for node in walk(self._pattern_of(parsed)) if isinstance(node, PathPattern)
        ]
        # Deviation 1: recursive paths with two variable endpoints error out.
        for node in path_nodes:
            if (
                _contains_recursive_modifier(node.path)
                and isinstance(node.subject, Variable)
                and isinstance(node.object, Variable)
            ):
                raise EngineError(
                    "Virtuoso 22023 Error TR...: transitive start not given"
                )

        evaluator = SparqlEvaluator(self.dataset)
        try:
            result = evaluator.evaluate(parsed)
        except EvaluationError as error:
            raise EngineError(str(error)) from error
        if isinstance(result, bool):
            return result

        # Deviation 2: one-or-more paths may drop the start node on cycles.
        for node in path_nodes:
            if isinstance(node.path, OneOrMorePath):
                result = self._drop_cyclic_start_nodes(result, node)
        # Deviation 3: alternative paths lose duplicate solutions.
        if any(_contains_alternative(node.path) for node in path_nodes):
            result = result.distinct()
        # Deviation 4: duplicate mishandling around UNION in non-DISTINCT
        # queries (the FEASIBLE finding of omitted duplicates).
        if isinstance(parsed, SelectQuery) and not parsed.distinct:
            from repro.sparql.algebra import Union as UnionNode

            if any(isinstance(node, UnionNode) for node in walk(parsed.pattern)):
                result = result.distinct()
        return result

    @staticmethod
    def _pattern_of(query: Query):
        return query.pattern  # SelectQuery and AskQuery both expose .pattern

    def _drop_cyclic_start_nodes(
        self, result: SolutionSequence, node: PathPattern
    ) -> SolutionSequence:
        """Remove (x, x) rows of ``+`` paths — the cycle start-node bug."""
        position = {variable.name: p for p, variable in enumerate(result.variables)}

        def value(row, part):
            """An endpoint's term in ``row``: a constant itself, a variable's
            column (``None`` when unbound or not projected)."""
            if not isinstance(part, Variable):
                return part
            p = position.get(part.name)
            return None if p is None else row[p]

        kept = []
        for row in result.rows():
            subject_value = value(row, node.subject)
            if subject_value is not None and subject_value == value(row, node.object):
                continue
            kept.append(row)
        return SolutionSequence(result.variables, kept)
