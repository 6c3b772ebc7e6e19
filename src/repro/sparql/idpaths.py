"""Id-native, cardinality-aware property-path evaluation.

The term-level ALP procedure in :mod:`repro.sparql.alp` expands
closures over boxed :class:`~repro.rdf.terms.Term` objects: every step
hashes terms, every compound inner path re-materialises its full
extension, and every result crossing the planner boundary is re-interned.
On the dictionary-encoded store none of that is necessary — the SPO / POS
/ OSP indexes already join over integer ids.  :class:`IdPathEngine`
evaluates property paths directly over that id surface:

* frontiers and visited sets are plain ``set`` objects over ints,
* one-step expansion probes :meth:`EncodedGraph.objects_for_ids` /
  :meth:`~repro.store.encoded.EncodedGraph.subjects_for_ids` (and the
  edge iterators for negated sets) without constructing a single term,
* terms are decoded exactly once, at the result boundary.

Direction selection
-------------------
Closure operators pick their expansion direction from the store's
statistics (:meth:`pattern_cardinality_ids` and the per-predicate
distinct-subject/object counts), in the spirit of the frontier-size
arguments of the worst-case-optimal-join literature:

* **bound subject** — forward breadth-first expansion from it,
* **bound object** — the path is reversed down to its leaves
  (:func:`repro.sparql.paths.reverse_path`) and expanded forward from the
  object, probing POS directly,
* **both endpoints bound** — bidirectional meet-in-the-middle: the two
  frontiers grow alternately, always expanding the one whose
  ``len(frontier) * estimated-branching`` is smaller, and the search
  stops at the first meeting node,
* **both endpoints free** — per-start expansion (the inherently
  quadratic case) runs from whichever side has fewer distinct start
  nodes.

Sequences bind their middle variable from the cheaper side: the side with
the smaller estimated extension is materialised (restricted by any bound
endpoint) and the other side is evaluated once per *distinct* middle
node, preserving bag multiplicities by multiplication.

Semantics
---------
Results are multiset-identical to the (fixed) term-level ALP fallback:
closure and ``?`` operators are set-semantics, all other operators
preserve duplicates, a bound endpoint of a zero-length-admitting path
matches itself even when it does not occur in the graph, and negated
property sets evaluate their forward and inverse parts independently.
The hypothesis differential suite in ``tests/test_idpaths.py`` holds the
two implementations to the same multisets on random paths and graphs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import Variable
from repro.sparql.algebra import PathPattern
from repro.sparql.paths import (
    AlternativePath,
    InversePath,
    LinkPath,
    NegatedPropertySet,
    OneOrMorePath,
    PropertyPath,
    RepeatPath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
    matches_zero_length,
    normalize_path,
    reverse_path,
)
from repro.sparql.solutions import Binding

#: An id pair (start, end) matched by a path.
IdPair = Tuple[int, int]
#: One-step successor function over ids.
StepFn = Callable[[int], Iterable[int]]

#: Cost multiplier for closure operators in the direction heuristics,
#: mirroring the planner's ``_CLOSURE_COST_FACTOR``.
_CLOSURE_FACTOR = 4.0

#: Sentinel for a constant endpoint that is neither interned nor able to
#: match syntactically: the pattern can have no solutions.
ABSENT = object()


class IdPathEngine:
    """Evaluates property paths over the encoded store.

    Stateless beyond the graph it reads: building one costs nothing, and
    the node-id set it consults is the store's (``node_ids()``, kept per
    version stamp there).
    """

    __slots__ = ("_graph", "_dict")

    def __init__(self, graph) -> None:
        self._graph = graph
        self._dict = graph.dictionary

    @property
    def graph(self):
        """The encoded graph this engine evaluates over."""
        return self._graph

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    def evaluate(self, node: PathPattern) -> List[Binding]:
        """:meth:`rows` of every endpoint variable, each as the
        :class:`Binding` it is (the evaluator itself reads :meth:`rows`)."""
        header = [variable for variable, _ in node.endpoint_slots()]
        row = Binding.from_sorted_items
        return [row(tuple(zip(header, values))) for values in self.rows(node, header)]

    def rows(self, node: PathPattern, header: Sequence[Variable]) -> List[tuple]:
        """Evaluate a path pattern into tuples aligned with ``header``, some
        of its endpoint variables: terms are decoded exactly once, at this
        result boundary, and only for the endpoints ``header`` names."""
        side_of = dict(node.endpoint_slots())
        sides = [side_of[variable] for variable in header]
        pairs = self._endpoint_pairs(node)
        decode = self._dict.term
        if len(sides) == 2:
            first, second = sides
            return [(decode(pair[first]), decode(pair[second])) for pair in pairs]
        return [tuple([decode(pair[side]) for side in sides]) for pair in pairs]

    def _endpoint_pairs(self, node: PathPattern) -> Iterable[IdPair]:
        """The ``(start, end)`` id pairs that solve ``node``: none when a
        constant endpoint cannot match, only ``(a, a)`` for ``?x path ?x``."""
        path = normalize_path(node.path)
        subject, obj = node.subject, node.object
        subject_id = self.endpoint_id(subject, path)
        object_id = self.endpoint_id(obj, path)
        if subject_id is ABSENT or object_id is ABSENT:
            return ()
        pairs = self.pair_ids(path, subject_id, object_id)
        if isinstance(subject, Variable) and subject == obj:
            return (pair for pair in pairs if pair[0] == pair[1])
        return pairs

    def is_node(self, term_id: int) -> bool:
        """True when the id occurs in subject or object position."""
        return term_id in self._graph.node_ids()

    def endpoint_id(self, part, path: PropertyPath):
        """Resolve a syntactic endpoint to an id without growing the store.

        Variables resolve to ``None`` (free).  A constant already in the
        dictionary resolves to its id.  An *unknown* constant can only
        ever match syntactically — via a zero-length path — so it is
        interned (append-only, bounded by such queries) only when the
        path admits zero length; otherwise the sentinel ``ABSENT``
        marks the whole pattern as empty, mirroring the unknown-constant
        bail-out of the triple-pattern pipeline.  Note the zero-admitting
        intern does mutate shared store state: the term lands in the
        dictionary for good and will be carried by snapshots — the price
        of keeping every downstream comparison a plain int.

        Public because the physical executor pre-resolves path-step
        endpoints through the same rule.
        """
        if isinstance(part, Variable):
            return None
        term_id = self._dict.id_for(part)
        if term_id is not None:
            return term_id
        if matches_zero_length(path):
            return self._dict.encode(part)
        return ABSENT

    def pair_ids(
        self,
        path: PropertyPath,
        subject: Optional[int],
        obj: Optional[int],
    ) -> Iterator[IdPair]:
        """Yield the ``(start, end)`` id pairs matched by ``path``.

        ``subject`` / ``obj`` are bound endpoint ids (``None`` = free);
        the yielded pairs are exactly the extension of the path restricted
        to those endpoints, with the term-level duplicate semantics
        (closures and ``?`` distinct, everything else a bag).  A bound
        endpoint behaves syntactically: a zero-length-admitting path
        matches a bound id even when it is not a node of the graph.
        """
        if isinstance(path, LinkPath):
            pid = self._dict.id_for(path.iri)
            if pid is None:
                return
            for sid, _pid, oid in self._graph.match_triple_ids(subject, pid, obj):
                yield sid, oid
            return
        if isinstance(path, InversePath):
            for end, start in self.pair_ids(path.path, obj, subject):
                yield start, end
            return
        if isinstance(path, AlternativePath):
            yield from self.pair_ids(path.left, subject, obj)
            yield from self.pair_ids(path.right, subject, obj)
            return
        if isinstance(path, SequencePath):
            yield from self._sequence_pairs(path, subject, obj)
            return
        if isinstance(path, NegatedPropertySet):
            yield from self._negated_pairs(path, subject, obj)
            return
        if isinstance(path, ZeroOrOnePath):
            pairs = self._zero_pairs(subject, obj)
            pairs.update(self.pair_ids(path.path, subject, obj))
            yield from pairs
            return
        if isinstance(path, OneOrMorePath):
            yield from self._closure_pairs(path.path, subject, obj, include_zero=False)
            return
        if isinstance(path, ZeroOrMorePath):
            yield from self._closure_pairs(path.path, subject, obj, include_zero=True)
            return
        if isinstance(path, RepeatPath):  # defensive: normalize_path removes these
            yield from self.pair_ids(normalize_path(path), subject, obj)
            return
        raise TypeError(f"unsupported property path {path!r}")

    # ------------------------------------------------------------------
    # cardinality heuristics
    # ------------------------------------------------------------------
    def relation_stats(self, path: PropertyPath) -> Tuple[float, float, float]:
        """Estimate ``(edges, distinct sources, distinct targets)`` of a path.

        Composed from the store's exact per-predicate statistics; only the
        *relative* magnitudes matter — they steer sequence join order and
        closure expansion direction.
        """
        graph = self._graph
        if isinstance(path, LinkPath):
            pid = self._dict.id_for(path.iri)
            if pid is None:
                return 0.0, 0.0, 0.0
            return (
                float(graph.pattern_cardinality_ids(None, pid, None)),
                float(graph.distinct_subjects_ids(pid)),
                float(graph.distinct_objects_ids(pid)),
            )
        if isinstance(path, InversePath):
            edges, sources, targets = self.relation_stats(path.path)
            return edges, targets, sources
        if isinstance(path, AlternativePath):
            left = self.relation_stats(path.left)
            right = self.relation_stats(path.right)
            return tuple(a + b for a, b in zip(left, right))
        if isinstance(path, SequencePath):
            left = self.relation_stats(path.left)
            right = self.relation_stats(path.right)
            return max(left[0], right[0]), left[1], right[2]
        if isinstance(path, (ZeroOrOnePath, OneOrMorePath, ZeroOrMorePath)):
            edges, sources, targets = self.relation_stats(path.path)
            return edges * _CLOSURE_FACTOR, sources, targets
        if isinstance(path, RepeatPath):
            edges, sources, targets = self.relation_stats(path.path)
            return edges * _CLOSURE_FACTOR, sources, targets
        # Negated property set: a full scan minus the forbidden predicates.
        total = float(len(self._graph))
        spread = float(max(1, self._graph.distinct_predicates()))
        forbidden = 0.0
        for iri in getattr(path, "forward", ()) + getattr(path, "inverse", ()):
            pid = self._dict.id_for(iri)
            if pid is not None:
                forbidden += self._graph.pattern_cardinality_ids(None, pid, None)
        edges = max(1.0, total - forbidden)
        return edges, total / spread, total / spread

    # ------------------------------------------------------------------
    # non-closure operators
    # ------------------------------------------------------------------
    def _sequence_pairs(
        self, path: SequencePath, subject: Optional[int], obj: Optional[int]
    ) -> Iterator[IdPair]:
        """Bag join of a sequence, binding the middle from the cheaper side.

        One side is materialised (with its outer endpoint restriction
        applied) and the other is evaluated once per distinct middle id
        with that middle *bound*, so closures on the unmaterialised side
        expand from single nodes instead of the whole graph.
        """
        if subject is not None:
            left_first = True
        elif obj is not None:
            left_first = False
        else:
            left_edges = self.relation_stats(path.left)[0]
            right_edges = self.relation_stats(path.right)[0]
            left_first = left_edges <= right_edges
        if left_first:
            cache: Dict[int, List[int]] = {}
            for start, middle in self.pair_ids(path.left, subject, None):
                ends = cache.get(middle)
                if ends is None:
                    ends = cache[middle] = [
                        end for _, end in self.pair_ids(path.right, middle, obj)
                    ]
                for end in ends:
                    yield start, end
        else:
            cache = {}
            for middle, end in self.pair_ids(path.right, None, obj):
                starts = cache.get(middle)
                if starts is None:
                    starts = cache[middle] = [
                        start for start, _ in self.pair_ids(path.left, subject, middle)
                    ]
                for start in starts:
                    yield start, end

    def _negated_pairs(
        self, path: NegatedPropertySet, subject: Optional[int], obj: Optional[int]
    ) -> Iterator[IdPair]:
        """Negated-set pairs with bound endpoints pushed into the indexes."""
        graph = self._graph
        id_for = self._dict.id_for
        forward = {pid for pid in map(id_for, path.forward) if pid is not None}
        inverse = {pid for pid in map(id_for, path.inverse) if pid is not None}
        if path.forward or not path.inverse:
            # Forward part: any triple (s, p, o) with p outside the set.
            if subject is not None:
                for pid, oid in graph.out_edges_ids(subject):
                    if pid not in forward and (obj is None or oid == obj):
                        yield subject, oid
            elif obj is not None:
                for pid, sid in graph.in_edges_ids(obj):
                    if pid not in forward:
                        yield sid, obj
            else:
                for pid in graph.predicate_ids():
                    if pid in forward:
                        continue
                    for sid, _pid, oid in graph.match_triple_ids(None, pid, None):
                        yield sid, oid
        if path.inverse:
            # Inverse part: pairs (x, y) for triples (y, p, x), p outside.
            if subject is not None:
                for pid, sid in graph.in_edges_ids(subject):
                    if pid not in inverse and (obj is None or sid == obj):
                        yield subject, sid
            elif obj is not None:
                for pid, oid in graph.out_edges_ids(obj):
                    if pid not in inverse:
                        yield oid, obj
            else:
                for pid in graph.predicate_ids():
                    if pid in inverse:
                        continue
                    for sid, _pid, oid in graph.match_triple_ids(None, pid, None):
                        yield oid, sid

    def _zero_pairs(self, subject: Optional[int], obj: Optional[int]) -> Set[IdPair]:
        """Zero-length pairs under the endpoint restriction.

        Mirrors the term-level rule set: free-free pairs every graph node
        with itself; a bound endpoint matches itself syntactically (even
        outside the graph); two distinct bound endpoints never match.
        """
        if subject is not None and obj is not None:
            return {(subject, subject)} if subject == obj else set()
        if subject is not None:
            return {(subject, subject)}
        if obj is not None:
            return {(obj, obj)}
        return {(node, node) for node in self._graph.node_ids()}

    # ------------------------------------------------------------------
    # closure expansion
    # ------------------------------------------------------------------
    def _closure_pairs(
        self,
        inner: PropertyPath,
        subject: Optional[int],
        obj: Optional[int],
        include_zero: bool,
    ) -> Iterator[IdPair]:
        """``inner+`` / ``inner*`` with set semantics, direction-selected."""
        if subject is not None and obj is not None:
            if include_zero and subject == obj:
                yield subject, obj
                return
            if self._reachable(inner, subject, obj):
                yield subject, obj
            return
        if subject is not None:
            reached = self._expand(self._forward_step(inner), subject)
            if include_zero:
                reached.add(subject)
            for end in reached:
                yield subject, end
            return
        if obj is not None:
            reached = self._expand(self._backward_step(inner), obj)
            if include_zero:
                reached.add(obj)
            for start in reached:
                yield start, obj
            return
        # Two free endpoints: per-start expansion from the smaller side.
        _, sources, targets = self.relation_stats(inner)
        nodes = self._graph.node_ids()
        pairs: Set[IdPair] = set()
        if sources <= targets:
            step = self._forward_step(inner)
            for start in nodes:
                for end in self._expand(step, start):
                    pairs.add((start, end))
        else:
            step = self._backward_step(inner)
            for end in nodes:
                for start in self._expand(step, end):
                    pairs.add((start, end))
        if include_zero:
            for node in nodes:
                pairs.add((node, node))
        yield from pairs

    def _expand(self, step: StepFn, start: int) -> Set[int]:
        """Nodes reachable from ``start`` in one or more ``step`` hops."""
        reached: Set[int] = set()
        frontier = deque(step(start))
        while frontier:
            current = frontier.popleft()
            if current in reached:
                continue
            reached.add(current)
            frontier.extend(step(current))
        return reached

    def _reachable(self, inner: PropertyPath, subject: int, obj: int) -> bool:
        """Bidirectional meet-in-the-middle: is ``obj`` >=1 steps from ``subject``?

        Both frontiers expand alternately — always the one whose
        ``len(frontier) * estimated branching`` is smaller — and the
        search stops at the first node reached from both sides.  The
        forward visited set covers ">=1 step from subject", the backward
        one ">=0 steps to obj", so a meet is exactly a path of length
        >= 1 (the ``p+`` semantics; ``p*`` zero-length is handled by the
        caller).
        """
        edges, sources, targets = self.relation_stats(inner)
        forward_branch = edges / max(sources, 1.0)
        backward_branch = edges / max(targets, 1.0)
        forward = self._forward_step(inner)
        backward = self._backward_step(inner)
        forward_seen: Set[int] = set(forward(subject))
        if obj in forward_seen:
            return True
        backward_seen: Set[int] = {obj}
        forward_frontier = set(forward_seen)
        backward_frontier = {obj}
        while forward_frontier and backward_frontier:
            forward_cost = len(forward_frontier) * forward_branch
            backward_cost = len(backward_frontier) * backward_branch
            if forward_cost <= backward_cost:
                fresh: Set[int] = set()
                for node in forward_frontier:
                    for successor in forward(node):
                        if successor in backward_seen:
                            return True
                        if successor not in forward_seen:
                            forward_seen.add(successor)
                            fresh.add(successor)
                forward_frontier = fresh
            else:
                fresh = set()
                for node in backward_frontier:
                    for predecessor in backward(node):
                        if predecessor in forward_seen:
                            return True
                        if predecessor not in backward_seen:
                            backward_seen.add(predecessor)
                            fresh.add(predecessor)
                backward_frontier = fresh
        if not forward_frontier:
            # Forward reach is complete and never met the backward set.
            return False
        # Backward reach is complete: a >=1-step path exists exactly when
        # the subject itself reaches obj (subject != obj here, so any
        # >=0-step path is >=1 steps) ...
        if subject != obj:
            return subject in backward_seen
        # ... except for the cycle question (subject == obj), which only
        # the remaining forward expansion can answer.
        while forward_frontier:
            fresh = set()
            for node in forward_frontier:
                for successor in forward(node):
                    if successor in backward_seen:
                        return True
                    if successor not in forward_seen:
                        forward_seen.add(successor)
                        fresh.add(successor)
            forward_frontier = fresh
        return False

    # ------------------------------------------------------------------
    # one-step successor functions
    # ------------------------------------------------------------------
    def _forward_step(self, path: PropertyPath) -> StepFn:
        """Compile a path into a node -> successors function over ids."""
        graph = self._graph
        if isinstance(path, LinkPath):
            pid = self._dict.id_for(path.iri)
            if pid is None:
                return lambda node: ()
            objects_for = graph.objects_for_ids
            return lambda node: objects_for(node, pid)
        if isinstance(path, InversePath):
            return self._backward_step(path.path)
        if isinstance(path, AlternativePath):
            left = self._forward_step(path.left)
            right = self._forward_step(path.right)

            def alternative_step(node: int) -> Iterator[int]:
                yield from left(node)
                yield from right(node)

            return alternative_step
        if isinstance(path, SequencePath):
            left = self._forward_step(path.left)
            right = self._forward_step(path.right)

            def sequence_step(node: int) -> Iterator[int]:
                seen: Set[int] = set()
                for middle in left(node):
                    if middle in seen:
                        continue
                    seen.add(middle)
                    yield from right(middle)

            return sequence_step
        if isinstance(path, ZeroOrOnePath):
            inner = self._forward_step(path.path)

            def zero_or_one_step(node: int) -> Iterator[int]:
                yield node
                yield from inner(node)

            return zero_or_one_step
        if isinstance(path, OneOrMorePath):
            inner = self._forward_step(path.path)
            return lambda node: self._expand(inner, node)
        if isinstance(path, ZeroOrMorePath):
            inner = self._forward_step(path.path)

            def zero_or_more_step(node: int) -> Iterator[int]:
                yield node
                yield from self._expand(inner, node)

            return zero_or_more_step
        if isinstance(path, NegatedPropertySet):
            id_for = self._dict.id_for
            forward = {p for p in map(id_for, path.forward) if p is not None}
            inverse = {p for p in map(id_for, path.inverse) if p is not None}
            scan_forward = bool(path.forward or not path.inverse)
            scan_inverse = bool(path.inverse)

            def negated_step(node: int) -> Iterator[int]:
                if scan_forward:
                    for pid, oid in graph.out_edges_ids(node):
                        if pid not in forward:
                            yield oid
                if scan_inverse:
                    for pid, sid in graph.in_edges_ids(node):
                        if pid not in inverse:
                            yield sid
            return negated_step
        if isinstance(path, RepeatPath):  # defensive: normalized away upstream
            return self._forward_step(normalize_path(path))
        raise TypeError(f"unsupported property path {path!r}")

    def _backward_step(self, path: PropertyPath) -> StepFn:
        """Successor function of the reversed path (predecessors)."""
        if isinstance(path, LinkPath):
            pid = self._dict.id_for(path.iri)
            if pid is None:
                return lambda node: ()
            subjects_for = self._graph.subjects_for_ids
            return lambda node: subjects_for(pid, node)
        return self._forward_step(reverse_path(path))
