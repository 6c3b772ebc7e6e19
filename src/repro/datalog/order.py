"""The body order of a rule: which element runs when, and what each atom probes on.

:func:`order_body` is the greedy sideways-information-passing order
:class:`repro.datalog.engine.DatalogEngine` compiles a rule's body in.
Selections run as soon as their variables are bound; atoms are chosen by
estimated candidate count.  An atom whose variable a FILTER equates with a
variable bound before it, or with a constant (:func:`filter_equalities`),
is priced as if that position were bound and comes out as a
:class:`~repro.datalog.steps.KeyedAtom`, which the scan step probes by the
value-equality key — the translation path's hash join on ``=``, as the
native planner's ``HashProbe`` is.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.datalog.rules import Assignment, Atom, BodyElement, FilterCondition
from repro.datalog.steps import KeyedAtom, Relation, getter
from repro.datalog.terms import Const, Var, ground_value
from repro.datalog.values import ValueTable
from repro.sparql import expressions
from repro.sparql.kernels import kernel_operands
from repro.sparql.ordering import select_cheapest

#: ``(variable, operand, by_value, text)``: see :func:`filter_equalities`.
Equality = Tuple[Var, object, bool, str]


def filter_equalities(condition: FilterCondition) -> List[Equality]:
    """What the top-level conjuncts of ``condition`` can key a scan by.

    A conjunct ``a = b`` or ``sameTerm(a, b)`` between a variable and a
    variable or constant gives one entry per variable side: the Datalog
    variable, what it equals (a Datalog variable or a :class:`Const`),
    whether by value (``=``) or by id (``sameTerm``), and the conjunct as
    ``explain`` prints it.  ``!=`` and the orderings key nothing.
    """
    datalog = dict(condition.variable_map)
    found: List[Equality] = []
    for conjunct in expressions.conjuncts(condition.expression):
        operands = kernel_operands(conjunct)
        by_value = isinstance(conjunct, expressions.Comparison)
        if operands is None or (by_value and conjunct.operator != "="):
            continue
        left, right = operands
        text = f"{left!r} = {right!r}" if by_value else f"sameTerm({left!r}, {right!r})"
        sides = [
            Const(operand.term) if isinstance(operand, expressions.TermExpr)
            else datalog.get(operand.variable)
            for operand in operands
        ]
        if None not in sides:
            for variable, other in (sides, sides[::-1]):
                if isinstance(variable, Var):
                    found.append((variable, other, by_value, text))
    return found


def order_body(
    body: Sequence[BodyElement],
    relations: Dict[str, Relation],
    table: ValueTable,
    volatile: Sequence[str] = (),
) -> Tuple[List[BodyElement], List[Optional[float]]]:
    """Greedy sideways-information-passing order for body evaluation.

    Returns the ordered body and, for every positive atom in it, the
    estimate it was chosen on (``None`` for the other elements).

    Negations, comparisons, assignments and filters are placed as soon
    as their input variables are bound — before the next atom is
    chosen, so a selection never waits behind a join.  Among those
    ready at once, an assignment whose variable only the head reads
    (a tuple ID) comes after the others, so it is built only for the
    rows that the comparisons, filters and negations let through.
    Positive atoms are then ordered by estimated candidate count: the
    rows agreeing with the atom's constants (:func:`_matching_rows`),
    divided by the distinct count of every position a bound variable
    fixes — the independence model of the SPARQL BGP planner.  A
    position whose variable a filter equality ties to a bound variable
    or a constant counts as fixed too, and the atom is placed as a
    :class:`~repro.datalog.steps.KeyedAtom` probing on it; the filter
    follows it.  Predicates in
    ``volatile`` (the heads of a recursive component, whose extensions
    grow during the fixpoint) are priced pessimistically so stable
    atoms bind variables first.  Ties are broken by source position,
    keeping ordering deterministic.
    """
    pending = list(body)
    ordered: List[BodyElement] = []
    estimates: List[Optional[float]] = []
    bound: Set[Var] = set()
    # Per stable atom the rows agreeing with its constants; what the
    # variables bound so far leave of them is worked out per choice.
    matching = {
        id(element): _matching_rows(element, relations[element.predicate], table)
        for element in pending
        if isinstance(element, Atom) and element.predicate not in volatile
    }
    # A recursive predicate's extension grows during the fixpoint, so
    # it is priced above every stable relation.
    ceiling = sum(len(relation) for relation in relations.values()) + 1.0 if volatile else 0.0
    # Per variable what the filters equate it with.
    equated: Dict[Var, List[Equality]] = defaultdict(list)
    for element in pending:
        if isinstance(element, FilterCondition):
            for equality in filter_equalities(element):
                equated[equality[0]].append(equality)

    def keys_of(atom: Atom) -> List[Tuple[int, Equality]]:
        """Per first position of a variable the atom binds, the first
        equality tying it to something bound already."""
        keys: List[Tuple[int, Equality]] = []
        seen: Set[Var] = set()
        for position, argument in enumerate(atom.arguments):
            if isinstance(argument, Var) and argument not in bound and argument not in seen:
                seen.add(argument)
                for equality in equated.get(argument, ()):
                    operand = equality[1]
                    if not isinstance(operand, Var) or operand in bound:
                        keys.append((position, equality))
                        break
        return keys

    def estimate(atom: Atom) -> float:
        rows = matching.get(id(atom))
        if rows is None:
            return ceiling
        if rows:
            relation = relations[atom.predicate]
            fixed = [
                position
                for position, argument in enumerate(atom.arguments)
                if isinstance(argument, Var) and argument in bound
            ]
            for position in fixed + [position for position, _ in keys_of(atom)]:
                rows /= max(1, relation.distinct_count(position))
        return rows

    # An assignment whose variable only the head reads (a tuple ID) can
    # reject nothing: it waits for every ready step that can.
    mentions = Counter(
        variable for element in pending for variable in element.variables()
    )
    head_only = {
        id(element)
        for element in pending
        if isinstance(element, Assignment) and mentions[element.variable] == 1
    }

    while pending:
        while True:
            chosen: Optional[BodyElement] = None
            waiting: Optional[BodyElement] = None
            for element in pending:
                if isinstance(element, Atom):
                    continue
                if isinstance(element, Assignment):
                    required = element.input_variables()
                else:
                    required = element.variables()
                if required <= bound:
                    if id(element) not in head_only:
                        chosen = element
                        break
                    waiting = waiting or element
            chosen = chosen or waiting
            if chosen is None:
                break
            ordered.append(chosen)
            estimates.append(None)
            if isinstance(chosen, Assignment):
                bound.add(chosen.variable)
            pending.remove(chosen)
        atoms = [element for element in pending if isinstance(element, Atom)]
        if not atoms:
            # What is left waits for a variable nothing binds: it runs
            # on whatever bindings exist (unbound comparisons fail,
            # matching safe-rule expectations).
            ordered.extend(pending)
            estimates.extend([None] * len(pending))
            break
        # Atom choice goes through the shared greedy-ordering helper of
        # the physical layer — the same cost-first, source-position-tie
        # rule the BGP planner lowers with.
        costs = [estimate(atom) for atom in atoms]
        position, best = select_cheapest(
            list(enumerate(atoms)), lambda item: costs[item[0]], itemgetter(0)
        )
        keys = keys_of(best)
        ordered.append(
            KeyedAtom(
                best.predicate,
                best.arguments,
                tuple((at, operand, by_value) for at, (_, operand, by_value, _) in keys),
                " && ".join(text for _, (_, _, _, text) in keys),
            )
            if keys
            else best
        )
        estimates.append(costs[position])
        bound |= best.variables()
        pending.remove(best)
    return ordered, estimates


def _matching_rows(atom: Atom, relation: Relation, table: ValueTable) -> float:
    """How many rows of ``relation`` agree with the constants of ``atom``.

    Counted, not estimated: the size of the constants' bucket in the index
    on their positions.  Constants such as ``rdf:type`` and a class
    correlate, so dividing by distinct counts can be off by orders of
    magnitude.
    """
    positions = tuple(
        position
        for position, argument in enumerate(atom.arguments)
        if not isinstance(argument, Var)
    )
    if not positions:
        return float(len(relation))
    key = getter(positions)(
        [
            None if isinstance(argument, Var) else table.intern(ground_value(argument))
            for argument in atom.arguments
        ]
    )
    return float(len(relation.index(positions).get(key, ())))
