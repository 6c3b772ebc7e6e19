"""SPARQL algebra: graph pattern nodes and query forms.

The parser produces a tree of these nodes; both the reference evaluator and
the SparqLog translator walk the same tree.  The node set follows the
structure used in the paper (Section 5 / Appendix A): triple patterns,
property path patterns, joins, OPTIONAL (left join), UNION, MINUS, FILTER,
GRAPH, BIND, VALUES, grouping, and the SELECT / ASK query forms with their
solution modifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.rdf.terms import IRI, Term, Triple, Variable
from repro.sparql.expressions import Aggregate, Expression, conjuncts
from repro.sparql.paths import PropertyPath


class GraphPatternNode:
    """Base class for graph pattern algebra nodes."""

    __slots__ = ()

    def variables(self) -> set:
        """Return the set of variables that may be bound by this pattern."""
        raise NotImplementedError

    def children(self) -> Sequence["GraphPatternNode"]:
        """Return sub-patterns (for generic tree traversals)."""
        return ()


@dataclass(frozen=True)
class TriplePatternNode(GraphPatternNode):
    """A single triple pattern."""

    triple: Triple

    def variables(self) -> set:
        return self.triple.variables()

    def __repr__(self) -> str:
        return f"TP{self.triple!r}"


@dataclass(frozen=True)
class PathPattern(GraphPatternNode):
    """A property path pattern ``subject path object``."""

    subject: Union[Term, Variable]
    path: PropertyPath
    object: Union[Term, Variable]

    def variables(self) -> set:
        return {part for part in (self.subject, self.object) if isinstance(part, Variable)}

    def endpoint_slots(self) -> List[Tuple[Variable, int]]:
        """``(variable, side)`` per distinct endpoint variable, in name order.

        ``side`` indexes a ``(start, end)`` pair.  A path evaluator fixes
        the layout of its result rows with this once per pattern; for
        ``?x path ?x`` the one slot reads either side of a ``start == end``
        pair.
        """
        slots = {
            part: side
            for side, part in enumerate((self.subject, self.object))
            if isinstance(part, Variable)
        }
        return sorted(slots.items(), key=lambda slot: slot[0].name)

    def __repr__(self) -> str:
        return f"Path({self.subject!r} {self.path!r} {self.object!r})"


@dataclass(frozen=True)
class BGP(GraphPatternNode):
    """A basic graph pattern: a conjunction of triple / path patterns."""

    patterns: Tuple[GraphPatternNode, ...]

    def variables(self) -> set:
        result = set()
        for pattern in self.patterns:
            result |= pattern.variables()
        return result

    def children(self) -> Sequence[GraphPatternNode]:
        return self.patterns

    def __repr__(self) -> str:
        return f"BGP({', '.join(map(repr, self.patterns))})"


@dataclass(frozen=True)
class Join(GraphPatternNode):
    """Join of two graph patterns (``P1 . P2`` at group level)."""

    left: GraphPatternNode
    right: GraphPatternNode

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()

    def children(self) -> Sequence[GraphPatternNode]:
        return (self.left, self.right)


@dataclass(frozen=True)
class LeftJoin(GraphPatternNode):
    """OPTIONAL: ``left OPTIONAL { right FILTER condition }``.

    ``condition`` is ``None`` when the optional part has no embedded filter
    that must be scoped to the left join (the "Optional Filter" special
    case of Definition A.9).
    """

    left: GraphPatternNode
    right: GraphPatternNode
    condition: Optional[Expression] = None

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()

    def children(self) -> Sequence[GraphPatternNode]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Union(GraphPatternNode):
    """UNION of two graph patterns (bag union)."""

    left: GraphPatternNode
    right: GraphPatternNode

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()

    def children(self) -> Sequence[GraphPatternNode]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Minus(GraphPatternNode):
    """MINUS: remove mappings compatible (and domain-overlapping) with right."""

    left: GraphPatternNode
    right: GraphPatternNode

    def variables(self) -> set:
        return self.left.variables()

    def children(self) -> Sequence[GraphPatternNode]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Filter(GraphPatternNode):
    """FILTER: keep only mappings satisfying the constraint."""

    pattern: GraphPatternNode
    condition: Expression

    def variables(self) -> set:
        return self.pattern.variables()

    def children(self) -> Sequence[GraphPatternNode]:
        return (self.pattern,)


@dataclass(frozen=True)
class GraphGraphPattern(GraphPatternNode):
    """GRAPH g { P }: evaluate P against a named graph (IRI or variable)."""

    graph: Union[IRI, Variable]
    pattern: GraphPatternNode

    def variables(self) -> set:
        result = set(self.pattern.variables())
        if isinstance(self.graph, Variable):
            result.add(self.graph)
        return result

    def children(self) -> Sequence[GraphPatternNode]:
        return (self.pattern,)


@dataclass(frozen=True)
class Bind(GraphPatternNode):
    """BIND(expr AS ?var) appended to a group."""

    pattern: GraphPatternNode
    variable: Variable
    expression: Expression

    def variables(self) -> set:
        return self.pattern.variables() | {self.variable}

    def children(self) -> Sequence[GraphPatternNode]:
        return (self.pattern,)


@dataclass(frozen=True)
class ValuesPattern(GraphPatternNode):
    """Inline VALUES data block."""

    variables_list: Tuple[Variable, ...]
    rows: Tuple[Tuple[Optional[Term], ...], ...]

    def variables(self) -> set:
        return set(self.variables_list)


@dataclass(frozen=True)
class EmptyPattern(GraphPatternNode):
    """The empty group pattern ``{}`` (yields the single empty mapping)."""

    def variables(self) -> set:
        return set()


# ----------------------------------------------------------------------
# query forms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OrderCondition:
    """One ORDER BY key: an expression plus sort direction."""

    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class ProjectionItem:
    """One SELECT item: a plain variable or ``(expr AS ?var)``."""

    variable: Variable
    expression: Optional[Expression] = None


@dataclass(frozen=True)
class DatasetClause:
    """A FROM or FROM NAMED clause."""

    graph: IRI
    named: bool = False


class Query:
    """Base class for parsed queries."""

    __slots__ = ()


@dataclass(frozen=True)
class SelectQuery(Query):
    """A SELECT query with its solution modifiers."""

    projection: Tuple[ProjectionItem, ...]
    pattern: GraphPatternNode
    distinct: bool = False
    reduced: bool = False
    select_all: bool = False
    dataset_clauses: Tuple[DatasetClause, ...] = ()
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderCondition, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None

    def projected_variables(self) -> List[Variable]:
        """Return the output variables in projection order."""
        if self.select_all:
            return sorted(self.pattern.variables(), key=lambda v: v.name)
        return [item.variable for item in self.projection]

    def has_aggregates(self) -> bool:
        """Return True when the query groups or aggregates."""
        if self.group_by:
            return True
        return any(
            isinstance(item.expression, Aggregate)
            for item in self.projection
            if item.expression is not None
        )


@dataclass(frozen=True)
class AskQuery(Query):
    """An ASK query: does the pattern have at least one solution?"""

    pattern: GraphPatternNode
    dataset_clauses: Tuple[DatasetClause, ...] = ()


def walk(node: GraphPatternNode):
    """Yield every node of a graph pattern tree (pre-order)."""
    yield node
    for child in node.children():
        yield from walk(child)


def peel_filters(
    node: GraphPatternNode, conditions: List[Expression]
) -> GraphPatternNode:
    """Strip nested FILTER wrappers, collecting their conjuncts.

    Returns the pattern the FILTER stack scopes over; the conjuncts are
    appended to ``conditions``, outermost FILTER first.
    """
    while isinstance(node, Filter):
        conditions.extend(conjuncts(node.condition))
        node = node.pattern
    return node


def pattern_features(query: Query) -> set:
    """Return the set of SPARQL feature names used by a parsed query.

    Used by the benchmark feature analysis (Table 2) and the capability
    checks of the engines.
    """
    features = set()
    if isinstance(query, SelectQuery):
        features.add("SELECT")
        if query.distinct:
            features.add("DISTINCT")
        if query.order_by:
            features.add("ORDER BY")
        if query.limit is not None:
            features.add("LIMIT")
        if query.offset is not None:
            features.add("OFFSET")
        if query.group_by or query.has_aggregates():
            features.add("GROUP BY")
        if query.having is not None:
            features.add("HAVING")
        pattern = query.pattern
    elif isinstance(query, AskQuery):
        features.add("ASK")
        pattern = query.pattern
    else:
        return features

    from repro.sparql.paths import (
        AlternativePath,
        InversePath,
        NegatedPropertySet,
        OneOrMorePath,
        SequencePath,
        ZeroOrMorePath,
        ZeroOrOnePath,
    )

    def path_features(path) -> set:
        result = set()
        stack = [path]
        while stack:
            current = stack.pop()
            if isinstance(current, SequencePath):
                result.add("PathSequence")
                stack += [current.left, current.right]
            elif isinstance(current, AlternativePath):
                result.add("PathAlternative")
                stack += [current.left, current.right]
            elif isinstance(current, InversePath):
                result.add("PathInverse")
                stack.append(current.path)
            elif isinstance(current, OneOrMorePath):
                result.add("PathOneOrMore")
                stack.append(current.path)
            elif isinstance(current, ZeroOrMorePath):
                result.add("PathZeroOrMore")
                stack.append(current.path)
            elif isinstance(current, ZeroOrOnePath):
                result.add("PathZeroOrOne")
                stack.append(current.path)
            elif isinstance(current, NegatedPropertySet):
                result.add("PathNegated")
        return result

    for node in walk(pattern):
        if isinstance(node, LeftJoin):
            features.add("OPTIONAL")
        elif isinstance(node, Union):
            features.add("UNION")
        elif isinstance(node, Minus):
            features.add("MINUS")
        elif isinstance(node, Filter):
            features.add("FILTER")
            for subexpr in _walk_expression(node.condition):
                from repro.sparql.expressions import FunctionCall

                if isinstance(subexpr, FunctionCall) and subexpr.name.upper() == "REGEX":
                    features.add("REGEX")
        elif isinstance(node, GraphGraphPattern):
            features.add("GRAPH")
        elif isinstance(node, Bind):
            features.add("BIND")
        elif isinstance(node, ValuesPattern):
            features.add("VALUES")
        elif isinstance(node, PathPattern):
            features.add("PropertyPath")
            features |= path_features(node.path)
        elif isinstance(node, (TriplePatternNode, BGP, Join)):
            features.add("BGP")
    return features


def _walk_expression(expression: Expression):
    """Yield every sub-expression of an expression tree."""
    from repro.sparql.expressions import (
        And,
        Arithmetic,
        Comparison,
        FunctionCall,
        InExpr,
        Not,
        Or,
        UnaryMinus,
    )

    yield expression
    if isinstance(expression, (And, Or, Comparison, Arithmetic)):
        yield from _walk_expression(expression.left)
        yield from _walk_expression(expression.right)
    elif isinstance(expression, (Not, UnaryMinus)):
        yield from _walk_expression(expression.operand)
    elif isinstance(expression, FunctionCall):
        for argument in expression.arguments:
            yield from _walk_expression(argument)
    elif isinstance(expression, InExpr):
        yield from _walk_expression(expression.operand)
        for option in expression.options:
            yield from _walk_expression(option)
