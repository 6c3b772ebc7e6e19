"""Solution modifiers: what a SELECT does to the rows of its pattern.

Pure functions of the query and the rows: projection expressions,
grouping, and the ORDER BY → DISTINCT → OFFSET → LIMIT tail
(:func:`apply_modifiers`) that the native evaluator and the solution
translation T_S (:mod:`repro.core.solution_translation`) share.  What an
aggregate computes is :func:`repro.sparql.functions.aggregate`, the one
implementation the Datalog engine's aggregate rules call too; grouping
only collects each group's argument values for it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.rdf.terms import Term, Variable, term_sort_key
from repro.sparql.algebra import OrderCondition, SelectQuery
from repro.sparql.expressions import (
    Aggregate,
    Value,
    VariableExpr,
    compile_condition,
    compile_expression,
    positional,
)
from repro.sparql.functions import ExpressionError, aggregate
from repro.sparql.solutions import Row, distinct_rows


Header = Tuple[Variable, ...]


def apply_projection_expressions(
    query: SelectQuery, header: Header, rows: List[Row]
) -> Tuple[Header, List[Row]]:
    """The ``(expr AS ?var)`` items of a query without grouping, then its
    HAVING, over tuples aligned with ``header``: ``(header, rows)`` with a
    column for every new variable.  An item sees the ones before it; an
    error leaves its variable as it was."""
    items = [item for item in query.projection if item.expression is not None]
    if items:
        slot = {variable.name: position for position, variable in enumerate(header)}
        extended = list(header)
        for item in items:
            if slot.setdefault(item.variable.name, len(extended)) == len(extended):
                extended.append(item.variable)
        pad = [None] * (len(extended) - len(header))
        header = tuple(extended)
        reader = positional(header)
        # Each item reads the row being extended, so it sees the ones before it.
        targets = [
            (compile_expression(item.expression, reader), slot[item.variable.name]) for item in items
        ]
        results: List[Row] = []
        for row in rows:
            values = list(row) + pad
            for value_of, target in targets:
                try:
                    values[target] = value_of(values)
                except ExpressionError:
                    continue
            results.append(tuple(values))
        rows = results
    if query.having is not None:
        having = compile_condition(query.having, positional(header))
        rows = [row for row in rows if having(row)]
    return header, rows


def apply_grouping(
    query: SelectQuery, header: Header, rows: List[Row]
) -> Tuple[Header, List[Row]]:
    """GROUP BY, the projection's aggregates and HAVING over tuples aligned
    with ``header``: ``(header, rows)``, one row per group kept, under the
    group-key variables and the projected ones.  Without GROUP BY the rows
    are one group, also when there are none (§18.5)."""
    group_keys = query.group_by
    reader = positional(header)
    key_values = [compile_expression(key, reader) for key in group_keys]
    groups: Dict[Tuple, List[Row]] = defaultdict(list)
    for row in rows:
        key_parts = []
        for value_of in key_values:
            try:
                key_parts.append(value_of(row))
            except ExpressionError:
                key_parts.append(None)
        groups[tuple(key_parts)].append(row)
    if not group_keys:
        groups = {(): rows}

    keys = [key.variable for key in group_keys if isinstance(key, VariableExpr)]
    names: Dict[str, Variable] = {}
    for variable in keys + [item.variable for item in query.projection]:
        names.setdefault(variable.name, variable)
    grouped = tuple(names.values())
    slot = {name: position for position, name in enumerate(names)}
    # Per item: (slot, Aggregate or None, what it reads of a row).
    items = []
    for item in query.projection:
        expression = item.expression
        if expression is None:
            items.append((slot[item.variable.name], None, reader(item.variable)))
        elif isinstance(expression, Aggregate):
            argument = expression.argument
            value_of = None if argument is None else compile_expression(argument, reader)
            items.append((slot[item.variable.name], expression, value_of))
        else:
            items.append((slot[item.variable.name], None, compile_expression(expression, reader)))
    having = None if query.having is None else compile_condition(query.having, positional(grouped))
    results: List[Row] = []
    for key_parts, group in groups.items():
        values: List[Optional[Term]] = [None] * len(grouped)
        for key_expression, value in zip(group_keys, key_parts):
            if isinstance(key_expression, VariableExpr) and value is not None:
                values[slot[key_expression.variable.name]] = value
        for target, spec, value_of in items:
            if spec is not None:
                value = aggregate(spec.operation, _arguments(value_of, group), spec.distinct)
            else:
                try:
                    value = value_of(group[0]) if group else None
                except ExpressionError:
                    value = None
            if value is not None:
                values[target] = value
        row = tuple(values)
        if having is not None and not having(row):
            continue
        results.append(row)
    return grouped, results


def _arguments(argument: Optional[Value], group: List[Row]) -> List[Term]:
    """An aggregate's argument over the rows of one group, an error left
    out; ``argument`` is ``None`` for ``COUNT(*)``: the rows themselves,
    so that DISTINCT tells solutions apart by every variable."""
    if argument is None:
        return group
    values: List[Term] = []
    for row in group:
        try:
            values.append(argument(row))
        except ExpressionError:
            continue
    return values


def result_header(query: SelectQuery) -> Tuple[Variable, ...]:
    """The row layout the modifier tail takes for ``query``: the projection,
    then the other variables ORDER BY reads, by name."""
    projected = query.projected_variables()
    extra = set()
    for condition in query.order_by:
        extra |= condition.expression.variables()
    extra.difference_update(projected)
    return tuple(projected) + tuple(sorted(extra, key=lambda variable: variable.name))


def apply_modifiers(
    query: SelectQuery,
    header: Sequence[Variable],
    rows: List[Row],
    deduplicated: bool = False,
) -> List[Row]:
    """ORDER BY, then the projection, then DISTINCT / REDUCED (unless the
    rows come ``deduplicated``), OFFSET and LIMIT — in the order the spec
    applies them — over tuples aligned with ``header``
    (:func:`result_header`): the projection is its leading columns.
    """
    if query.order_by:
        rows = apply_order_by(query.order_by, header, rows)
    width = len(query.projected_variables())
    if width < len(header):
        rows = [row[:width] for row in rows]
    if (query.distinct or query.reduced) and not deduplicated:
        rows = distinct_rows(rows)
    if query.offset:
        rows = rows[query.offset:]
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def apply_order_by(
    conditions: Sequence[OrderCondition], header: Sequence[Variable], rows: List[Row]
) -> List[Row]:
    """Sort tuples aligned with ``header`` by the ORDER BY conditions.

    SPARQL ranks an unbound (or errored) key lowest, and DESC reverses
    the whole ordering — so unbound rows sort strictly *first* under ASC
    and strictly *last* under DESC, matching the reference engines (Jena
    ARQ, Virtuoso).  The bound/unbound flag therefore participates in the
    direction: ASC keeps ``(0, unbound) < (1, bound)`` while DESC flips
    the flag and wraps the bound part in the comparison inverter, giving
    ``(0, bound-descending) < (1, unbound)``.  Within one flag value the
    compared shapes are always identical (both unbound, or both wrapped
    the same way).  Shared by the reference evaluator and the
    translated-solution engine so both stay order-consistent.  Each key
    is compiled once, then read per row.
    """
    reader = positional(header)
    keys = [
        (compile_expression(condition.expression, reader), condition.ascending)
        for condition in conditions
    ]

    def sort_key(row: Row):
        key = []
        for value_of, ascending in keys:
            try:
                value = value_of(row)
            except ExpressionError:
                value = None
            if value is None:
                key.append((0, ()) if ascending else (1, ()))
            else:
                part = term_sort_key(value)
                key.append((1, part) if ascending else (0, _Reversed(part)))
        return key

    return sorted(rows, key=sort_key)


class _Reversed:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed"):
        if not isinstance(other, _Reversed):
            return NotImplemented
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value
