"""Term-level property-path evaluation: the spec's ALP procedure.

Closure operators (``?``, ``*``, ``+``) are evaluated per start node with
set semantics, every other path operator preserves duplicates.  Like
Jena's ARQ engine, a recursive path with two unbound endpoints runs the
per-node expansion from every node of the active graph — this is what
makes term-level evaluation slow on the gMark workloads, matching the
performance shape reported in the paper.

This is the differential oracle for the id-native path engine
(:mod:`repro.sparql.idpaths`): the unplanned evaluation runs it on any
store's term surface, planned evaluation runs the id engine
(:class:`~repro.sparql.evaluator.SparqlEvaluator` picks by profile).
:func:`eval_path_pattern_terms` is the entry point.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Variable
from repro.sparql.algebra import PathPattern
from repro.sparql.paths import (
    AlternativePath,
    InversePath,
    LinkPath,
    NegatedPropertySet,
    OneOrMorePath,
    PropertyPath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
    matches_zero_length,
    normalize_path,
)
from repro.sparql.solutions import Binding


class EvaluationError(RuntimeError):
    """Raised when a query cannot be evaluated (re-exported by the evaluator)."""


def eval_path_pattern_terms(node: PathPattern, graph: Graph) -> List[Binding]:
    path = normalize_path(node.path)
    subject, obj = node.subject, node.object
    slots = node.endpoint_slots()
    subject_free = isinstance(subject, Variable)
    object_free = isinstance(obj, Variable)
    same_variable = subject_free and subject == obj
    results: List[Binding] = []
    for pair in path_pairs(path, graph, subject, obj):
        start, end = pair
        if (
            (same_variable and start != end)
            or not (subject_free or subject == start)
            or not (object_free or obj == end)
        ):
            continue
        results.append(
            Binding.from_sorted_items(
                tuple([(variable, pair[side]) for variable, side in slots])
            )
        )
    return results


def path_pairs(
    path: PropertyPath,
    graph: Graph,
    subject: Union[Term, Variable],
    obj: Union[Term, Variable],
) -> List[Tuple[Term, Term]]:
    """Return the (start, end) pairs matched by a path expression.

    Non-closure operators preserve duplicates; the closure operators
    return distinct pairs, following the SPARQL property-path
    semantics.
    """
    if isinstance(path, LinkPath):
        return [
            (triple.subject, triple.object)
            for triple in graph.triples(None, path.iri, None)
        ]
    if isinstance(path, InversePath):
        return [
            (end, start)
            for start, end in path_pairs(path.path, graph, obj, subject)
        ]
    if isinstance(path, AlternativePath):
        return path_pairs(path.left, graph, subject, obj) + path_pairs(
            path.right, graph, subject, obj
        )
    if isinstance(path, SequencePath):
        left_pairs = path_pairs(path.left, graph, subject, None)
        right_pairs = path_pairs(path.right, graph, None, obj)
        by_start: Dict[Term, List[Term]] = defaultdict(list)
        for start, end in right_pairs:
            by_start[start].append(end)
        if matches_zero_length(path.left):
            # A bound endpoint outside the graph self-pairs through a
            # zero-length left half, but the left extension only
            # self-pairs graph nodes; graft the missing pair so the
            # join can reach it (mirrors the id engine's per-middle
            # evaluation, which gets this for free).  When the middle
            # *is* the bound subject, the left extension already
            # contains the self-pair (the bound-endpoint zero rule) —
            # grafting again would double the solution.
            for middle in list(by_start):
                if _is_ground(subject) and subject == middle:
                    continue
                if not _is_graph_node(graph, middle):
                    left_pairs.append((middle, middle))
        right_zero = matches_zero_length(path.right)
        results: List[Tuple[Term, Term]] = []
        for start, middle in left_pairs:
            ends = by_start.get(middle)
            if ends is None:
                # Symmetric graft: a non-node middle (a zero-length
                # self-pair of a bound subject) matches a zero-length
                # right half even though the right extension never
                # mentions it.
                if right_zero and not _is_graph_node(graph, middle):
                    ends = (middle,)
                else:
                    continue
            for end in ends:  # bag semantics
                results.append((start, end))
        return results
    if isinstance(path, NegatedPropertySet):
        return _negated_pairs(path, graph)
    if isinstance(path, ZeroOrOnePath):
        return _zero_or_one_pairs(path, graph, subject, obj)
    if isinstance(path, OneOrMorePath):
        return _closure_pairs(path.path, graph, subject, obj, include_zero=False)
    if isinstance(path, ZeroOrMorePath):
        return _closure_pairs(path.path, graph, subject, obj, include_zero=True)
    raise EvaluationError(f"unsupported property path {path!r}")


def _negated_pairs(
    path: NegatedPropertySet, graph: Graph
) -> List[Tuple[Term, Term]]:
    forbidden_forward = set(path.forward)
    forbidden_inverse = set(path.inverse)
    results: List[Tuple[Term, Term]] = []
    if path.forward or not path.inverse:
        for triple in graph:
            if triple.predicate not in forbidden_forward:
                results.append((triple.subject, triple.object))
    if path.inverse:
        for triple in graph:
            if triple.predicate not in forbidden_inverse:
                results.append((triple.object, triple.subject))
    return results


def _is_graph_node(graph: Graph, term: Term) -> bool:
    """True when ``term`` occurs in subject or object position."""
    return (
        next(graph.triples(term, None, None), None) is not None
        or next(graph.triples(None, None, term), None) is not None
    )


def _is_ground(part: Union[Term, Variable, None]) -> bool:
    """True for a bound term endpoint (``None`` marks a free position).

    ``path_pairs`` threads endpoint *hints* down the operator tree;
    a sequence hands its halves ``None`` for the shared middle, which
    must read as "free", never as a bindable term.
    """
    return part is not None and not isinstance(part, Variable)


def _zero_pairs(
    graph: Graph,
    subject: Union[Term, Variable, None],
    obj: Union[Term, Variable, None],
) -> Set[Tuple[Term, Term]]:
    """Zero-length path pairs, including bound endpoints not in the graph."""
    pairs: Set[Tuple[Term, Term]] = {(node, node) for node in graph.nodes()}
    subject_is_term = _is_ground(subject)
    object_is_term = _is_ground(obj)
    if subject_is_term and not object_is_term:
        pairs.add((subject, subject))
    if object_is_term and not subject_is_term:
        pairs.add((obj, obj))
    if subject_is_term and object_is_term and subject == obj:
        pairs.add((subject, subject))
    return pairs


def _zero_or_one_pairs(
    path: ZeroOrOnePath,
    graph: Graph,
    subject: Union[Term, Variable],
    obj: Union[Term, Variable],
) -> List[Tuple[Term, Term]]:
    pairs = set(_zero_pairs(graph, subject, obj))
    pairs.update(path_pairs(path.path, graph, subject, obj))
    return list(pairs)


def _closure_pairs(
    inner: PropertyPath,
    graph: Graph,
    subject: Union[Term, Variable, None],
    obj: Union[Term, Variable, None],
    include_zero: bool,
) -> List[Tuple[Term, Term]]:
    """Evaluate ``inner+`` / ``inner*`` with set semantics.

    Per-node breadth-first expansion in the style of the spec's ALP
    procedure.  When the subject is bound we expand only from it —
    and when the object is *also* bound, the expansion stops at the
    first sighting of the target instead of materialising the full
    reachable set.  When only the object is bound we expand
    backwards; otherwise we expand from every node in the graph (the
    expensive two-variable case).  ``None`` endpoints (sequence
    middles) count as free, exactly like fresh variables.
    """
    successors = _single_step_function(inner, graph)
    pairs: Set[Tuple[Term, Term]] = set()

    def expand(start: Term, target: Optional[Term] = None) -> Set[Term]:
        reached: Set[Term] = set()
        frontier = deque(successors(start))
        while frontier:
            current = frontier.popleft()
            if current in reached:
                continue
            reached.add(current)
            if target is not None and current == target:
                # The caller only asks whether ``target`` is
                # reachable: the rest of the closure is never needed.
                return reached
            frontier.extend(successors(current))
        return reached

    if _is_ground(subject):
        if _is_ground(obj):
            if include_zero and subject == obj:
                return [(subject, obj)]
            reachable = expand(subject, target=obj)
            return [(subject, obj)] if obj in reachable else []
        reachable = expand(subject)
        if include_zero:
            reachable = reachable | {subject}
        return [(subject, end) for end in reachable]

    if _is_ground(obj):
        inverse = InversePath(inner)
        inverted = _closure_pairs(inverse, graph, obj, subject, include_zero)
        return [(end, start) for start, end in inverted]

    # Two unbound endpoints: expand from every node of the graph.
    start_nodes = graph.nodes()
    for start in start_nodes:
        reachable = expand(start)
        if include_zero:
            reachable = reachable | {start}
        for end in reachable:
            pairs.add((start, end))
    if include_zero:
        pairs.update(_zero_pairs(graph, subject, obj))
    return list(pairs)


def _single_step_function(path: PropertyPath, graph: Graph):
    """Return a function mapping a node to its one-step path successors."""
    if isinstance(path, LinkPath):
        predicate = path.iri

        def link_step(node: Term) -> List[Term]:
            return [t.object for t in graph.triples(node, predicate, None)]

        return link_step

    if isinstance(path, InversePath) and isinstance(path.path, LinkPath):
        predicate = path.path.iri

        def inverse_step(node: Term) -> List[Term]:
            return [t.subject for t in graph.triples(None, predicate, node)]

        return inverse_step

    def generic_step(node: Term) -> List[Term]:
        return [
            end
            for start, end in path_pairs(path, graph, node, None)
            if start == node
        ]

    return generic_step
