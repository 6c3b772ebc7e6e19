"""Stratification of Datalog programs with negation and aggregation.

A program is stratifiable when no predicate depends on itself through
negation (or through an aggregate).  The stratification assigns every
predicate to a stratum such that positive dependencies stay within or
below the stratum and negative/aggregate dependencies point strictly
below.

Everything here comes from one Tarjan pass over the predicate dependency
graph (:func:`components`): the strongly connected components in
topological order — the finest stratification, which is what the engine
evaluates and what the unfolding rewrite walks —, whether each is
recursive, the negation-through-recursion check and the stratum numbers.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Set, Tuple

from repro.datalog.rules import Atom, Negation, Program


class StratificationError(ValueError):
    """Raised when a program uses negation/aggregation through recursion."""


class Component(NamedTuple):
    """One strongly connected component of the dependency graph."""

    predicates: Tuple[str, ...]
    #: More than one predicate, or one that reads itself.
    recursive: bool
    #: Longest chain of negative/aggregate dependencies below it.
    stratum: int


def dependencies(program: Program) -> Dict[str, Dict[str, bool]]:
    """Predicate -> the predicates its rules read -> read negatively?

    Reads under negation and every read of an aggregate rule are negative.
    Every predicate of the program is a key, in order of first mention
    (rules, aggregate rules, then facts), so what is derived from the graph
    does not depend on string hashing.
    """
    graph: Dict[str, Dict[str, bool]] = {}
    for rule in program.rules:
        reads = graph.setdefault(rule.head.predicate, {})
        for element in rule.body:
            if isinstance(element, Atom):
                reads.setdefault(element.predicate, False)
            elif isinstance(element, Negation):
                reads[element.atom.predicate] = True
    for aggregate_rule in program.aggregate_rules:
        reads = graph.setdefault(aggregate_rule.head.predicate, {})
        for predicate in aggregate_rule.body_predicates():
            reads[predicate] = True
    for reads in list(graph.values()):
        for predicate in reads:
            graph.setdefault(predicate, {})
    for fact in program.facts:
        graph.setdefault(fact.predicate, {})
    return graph


def components(program: Program) -> List[Component]:
    """The strongly connected components, every one after those it reads.

    Raises :class:`StratificationError` when a negative dependency lies
    inside a component (negation through recursion).
    """
    graph = dependencies(program)
    # Tarjan's algorithm with an explicit stack; following read edges, a
    # component is complete only after everything it reads.
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stratum_of: Dict[str, int] = {}  # assigned when the component is complete
    stack: List[str] = []
    found: List[Component] = []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, reads = work[-1]
            for read in reads:
                if read not in index:
                    index[read] = low[read] = len(index)
                    stack.append(read)
                    work.append((read, iter(graph[read])))
                    break
                if read not in stratum_of and index[read] < low[node]:
                    low[node] = index[read]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    members = [stack.pop()]
                    while members[-1] != node:
                        members.append(stack.pop())
                    found.append(_component(members[::-1], graph, stratum_of))
    return found


def _component(
    members: List[str], graph: Dict[str, Dict[str, bool]], stratum_of: Dict[str, int]
) -> Component:
    inside = set(members)
    stratum = 0
    recursive = len(members) > 1
    for member in members:
        for read, negative in graph[member].items():
            if read not in inside:
                stratum = max(stratum, stratum_of[read] + negative)
            elif negative:
                raise StratificationError(
                    f"negation through recursion between {read!r} and {member!r}"
                )
            else:
                recursive = True
    for member in members:
        stratum_of[member] = stratum
    return Component(tuple(members), recursive, stratum)


def stratify(program: Program) -> List[Set[str]]:
    """Compute a stratification of the program's predicates.

    Returns a list of predicate sets, lowest stratum first.  Raises
    :class:`StratificationError` when a negative edge occurs inside a
    strongly connected component (negation through recursion).
    """
    strata: List[Set[str]] = [set()]
    for component in components(program):
        while len(strata) <= component.stratum:
            strata.append(set())
        strata[component.stratum].update(component.predicates)
    return strata


def recursive_predicates(program: Program) -> Set[str]:
    """Return the predicates involved in a dependency cycle."""
    return {
        predicate
        for component in components(program)
        if component.recursive
        for predicate in component.predicates
    }
