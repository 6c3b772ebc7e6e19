"""Greedy ordering and join-graph cyclicity: what every planner here shares.

:func:`greedy_order` is the loop behind :func:`repro.sparql.plan.plan_bgp`,
:func:`select_cheapest` the tie-break rule the Datalog engine's body
ordering uses too, :func:`is_cyclic` the GYO test the lowering pass selects
the worst-case-optimal join on.  Imports nothing of the SPARQL layer.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.rdf.terms import Variable


# ----------------------------------------------------------------------
# shared greedy ordering (BGP planning and Datalog body ordering)
# ----------------------------------------------------------------------
def select_cheapest(items: Sequence, estimate: Callable, tie_key: Callable):
    """Return the item minimising ``(estimate(item), tie_key(item))``.

    The single tie-break rule shared by the BGP planner and the Datalog
    engine's body ordering: cost first, source position second, keeping
    both orderings deterministic.
    """
    return min(items, key=lambda item: (estimate(item), tie_key(item)), default=None)


def greedy_order(
    items: Sequence,
    variables_of: Callable[[object], Set],
    estimate: Callable[[object, Set], float],
) -> List[Tuple[int, object, float]]:
    """Greedily order ``items`` by estimated cardinality given bound variables.

    At each step the cheapest item among those sharing a variable with
    the already-bound set is chosen (all items qualify at the first step
    or when nothing is bound yet); a disconnected item — a Cartesian
    product — is only chosen when no connected item remains.  Ties fall
    back to source order.  Returns ``(source_index, item, estimate)``
    triples in execution order.  This is the ordering loop behind
    :func:`repro.sparql.plan.plan_bgp` and (through
    :func:`select_cheapest`) the Datalog engine's atom ordering.
    """
    remaining: List[Tuple[int, object]] = list(enumerate(items))
    bound: Set = set()
    ordered: List[Tuple[int, object, float]] = []
    while remaining:
        candidates = [
            (index, item)
            for index, item in remaining
            if not bound or not variables_of(item) or variables_of(item) & bound
        ]
        if not candidates:
            candidates = remaining
        best_index, best_item, best_estimate = None, None, None
        for index, item in candidates:
            cost = estimate(item, bound)
            if best_estimate is None or cost < best_estimate:
                best_index, best_item, best_estimate = index, item, cost
        ordered.append((best_index, best_item, best_estimate))
        bound |= variables_of(best_item)
        remaining = [(i, it) for i, it in remaining if i != best_index]
    return ordered


# ----------------------------------------------------------------------
# join-graph cyclicity (GYO ear-removal reduction)
# ----------------------------------------------------------------------
def is_cyclic(variable_sets: Iterable[Iterable[Variable]]) -> bool:
    """True when the join hypergraph of ``variable_sets`` is alpha-cyclic.

    GYO reduction: repeatedly (a) drop *ear* variables occurring in
    exactly one hyperedge and (b) drop hyperedges contained in another
    edge.  An acyclic hypergraph reduces to at most one edge; getting
    stuck with two or more means a cycle — a triangle
    ``{x,y} {y,z} {z,x}`` is the minimal stuck state.
    """
    edges = [set(edge) for edge in variable_sets if edge]
    if len(edges) <= 1:
        return False
    changed = True
    while changed:
        changed = False
        counts: Dict[Variable, int] = {}
        for edge in edges:
            for variable in edge:
                counts[variable] = counts.get(variable, 0) + 1
        for edge in edges:
            ears = {variable for variable in edge if counts[variable] == 1}
            if ears:
                edge -= ears
                changed = True
        for index, edge in enumerate(edges):
            if any(
                other_index != index and edge <= other
                for other_index, other in enumerate(edges)
            ):
                # Only one edge per pass: duplicate edges are subsets of
                # each other, and removing both at once would be wrong.
                edges.pop(index)
                changed = True
                break
        if len(edges) <= 1:
            return False
    return True
