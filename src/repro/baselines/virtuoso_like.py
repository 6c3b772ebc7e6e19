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

This engine answers on one standard-compliant :class:`~repro.engine.Engine`
over its dataset and then *re-applies* those deviations, so the compliance
experiments regenerate the paper's error taxonomy from an explicit,
documented failure model rather than from hard-coded result tables.
"""

from __future__ import annotations

from typing import List, Union

from repro.engine import Engine
from repro.rdf.graph import Dataset
from repro.rdf.terms import Variable
from repro.sparql.algebra import PathPattern, SelectQuery, Union as UnionNode, walk
from repro.sparql.parser import parse_query
from repro.sparql.paths import (
    AlternativePath,
    OneOrMorePath,
    PropertyPath,
    ZeroOrMorePath,
    ZeroOrOnePath,
)
from repro.sparql.solutions import SolutionSequence


class EngineError(RuntimeError):
    """A query Virtuoso refuses to evaluate; the compliance runner records
    it, like any other exception, as the "Error" outcome of Table 3."""


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


class VirtuosoLikeEngine:
    """Standard evaluation plus Virtuoso's documented deviations."""

    def __init__(self, dataset: Dataset) -> None:
        self.engine = Engine(dataset)

    def query(self, query_text: str) -> Union[SolutionSequence, bool]:
        parsed = parse_query(query_text)
        path_nodes: List[PathPattern] = [
            node for node in walk(parsed.pattern) if isinstance(node, PathPattern)
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

        result = self.engine.query(parsed)
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
            if any(isinstance(node, UnionNode) for node in walk(parsed.pattern)):
                result = result.distinct()
        return result

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
