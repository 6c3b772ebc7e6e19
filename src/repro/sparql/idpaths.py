"""Id-native, cardinality-aware property-path evaluation.

The term-level ALP procedure in :mod:`repro.sparql.alp` expands
closures over boxed :class:`~repro.rdf.terms.Term` objects: every step
hashes terms, every compound inner path re-materialises its full
extension, and every result crossing the planner boundary is re-interned.
On the dictionary-encoded store none of that is necessary — the SPO / POS
/ OSP indexes already join over integer ids.  :class:`IdPathEngine`
evaluates property paths directly over that id surface, set-at-a-time:

* :meth:`IdPathEngine.pair_ids` returns an operator's *whole* extension
  as one collection of ``(start, end)`` id pairs — a ``list`` for the bag
  operators (link, inverse, alternative, sequence, negated set), a
  ``set`` for closures and ``?`` — built from its operands' collections,
  so no pair is resumed through a chain of generators,
* a link reads one index entry when an end is bound
  (:meth:`~repro.store.encoded.EncodedGraph.object_entry_ids` /
  ``subject_entry_ids``) and one pass over the predicate's entries when
  both are free (``pairs_for_ids``), without constructing a single term,
* frontiers and visited sets are plain ``set`` objects over ints,
* terms are decoded exactly once, at the result boundary.

Direction selection
-------------------
Closure operators pick their expansion direction from the store's
statistics (:meth:`pattern_cardinality_ids` and the per-predicate
distinct-subject/object counts), in the spirit of the frontier-size
arguments of the worst-case-optimal-join literature:

* **bound subject** — forward expansion from it,
* **bound object** — backward expansion from it: each hop is the inner
  path with its *object* bound, so a link probes POS directly,
* **both endpoints bound** — bidirectional meet-in-the-middle: the two
  frontiers grow alternately, always expanding the one whose
  ``len(frontier) * estimated-branching`` is smaller, and the search
  stops at the first meeting node,
* **both endpoints free** — the inner path's extension is built once as
  an adjacency dict, keyed by whichever side has fewer distinct nodes,
  and expanded from its keys only: a node without an inner edge is never
  a start.  ``*`` then adds the zero-length pair of every graph node.

A closure expands over a successor memo that lives for one
:meth:`~IdPathEngine.pair_ids` call: a node's inner successors are
computed once, however many starts reach it — the keys of a two-free
closure, or the middles a sequence resolves through a closure (a link's
successors are one index read and need no memo).  Nothing outlives the
call.

Sequences bind their middle variable from the cheaper side: the side with
the smaller estimated extension is materialised (restricted by any bound
endpoint), the other side is resolved once per *distinct* middle node
into a ``middle -> ends`` dict, and each materialised pair emits the ends
of its middle, preserving bag multiplicities.

Semantics
---------
Results are multiset-identical to the (fixed) term-level ALP fallback:
closure and ``?`` operators are set-semantics, all other operators
preserve duplicates, a bound endpoint of a zero-length-admitting path
matches itself even when it does not occur in the graph, and negated
property sets evaluate their forward and inverse parts independently.
The hypothesis differential suite in ``tests/test_idpaths.py`` holds the
two implementations to the same multisets on random paths and graphs,
as lone patterns and as path steps inside a pipeline.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Collection, List, Optional, Sequence, Set, Tuple

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
)
from repro.sparql.solutions import Binding

#: An id pair (start, end) matched by a path.
IdPair = Tuple[int, int]
#: One hop of a path from a node: its successors (or predecessors).
StepFn = Callable[[int], Collection[int]]

#: Cost multiplier for closure operators in the direction heuristics,
#: mirroring the planner's ``_CLOSURE_COST_FACTOR``.
_CLOSURE_FACTOR = 4.0

#: Sentinel for a constant endpoint that is neither interned nor able to
#: match syntactically: the pattern can have no solutions.
ABSENT = object()


class _Successors(dict):
    """A closure's successor memo, ``node -> successors``: a missing node's
    are computed once by ``hop``, however many starts reach it.  Built
    inside one :meth:`IdPathEngine.pair_ids` call and dropped with it."""

    __slots__ = ("_hop",)

    def __init__(self, hop: StepFn) -> None:
        self._hop = hop

    def __missing__(self, node: int) -> Collection[int]:
        successors = self[node] = self._hop(node)
        return successors


def _ids(entry) -> Tuple[int, ...]:
    """A store index entry — ``None``, one id or an id set — as a sequence."""
    if type(entry) is set:
        return tuple(entry)
    return () if entry is None else (entry,)


def _expand(hop: StepFn, start: int, zero: bool) -> Set[int]:
    """Nodes reachable from ``start`` in one or more ``hop``s, and ``start``
    itself when ``zero`` (zero or more hops)."""
    reached: Set[int] = {start} if zero else set()
    stack = list(hop(start))
    while stack:
        node = stack.pop()
        if node not in reached:
            reached.add(node)
            stack += hop(node)
    return reached


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

    def _endpoint_pairs(self, node: PathPattern) -> Collection[IdPair]:
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
            return [pair for pair in pairs if pair[0] == pair[1]]
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
    ) -> Collection[IdPair]:
        """The ``(start, end)`` id pairs matched by ``path``, as one collection.

        ``subject`` / ``obj`` are bound endpoint ids (``None`` = free); the
        pairs are exactly the extension of the path restricted to those
        endpoints, with the term-level duplicate semantics: a ``list`` (a
        bag) for links, inverses, alternatives, sequences and negated sets,
        a ``set`` for closures and ``?``.  A bound endpoint behaves
        syntactically: a zero-length-admitting path matches a bound id even
        when it is not a node of the graph.  The caller owns the result.
        """
        if isinstance(path, LinkPath):
            return self._link_pairs(path, subject, obj)
        if isinstance(path, SequencePath):
            return self._sequence_pairs(path, subject, obj)
        if isinstance(path, InversePath):
            return [(start, end) for end, start in self.pair_ids(path.path, obj, subject)]
        if isinstance(path, AlternativePath):
            return [*self.pair_ids(path.left, subject, obj), *self.pair_ids(path.right, subject, obj)]
        if isinstance(path, (OneOrMorePath, ZeroOrMorePath)):
            return self._closure_pairs(path, subject, obj)
        if isinstance(path, ZeroOrOnePath):
            pairs = self._zero_pairs(subject, obj)
            pairs.update(self.pair_ids(path.path, subject, obj))
            return pairs
        if isinstance(path, NegatedPropertySet):
            return self._negated_pairs(path, subject, obj)
        if isinstance(path, RepeatPath):  # defensive: normalize_path removes these
            return self.pair_ids(normalize_path(path), subject, obj)
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
    def _link_pairs(
        self, path: LinkPath, subject: Optional[int], obj: Optional[int]
    ) -> List[IdPair]:
        """One index entry when an end is bound, one pass over the
        predicate's entries when both are free."""
        pid = self._dict.id_for(path.iri)
        if pid is None:
            return []
        graph = self._graph
        if subject is not None:
            if obj is not None:
                return [(subject, obj)] if graph.contains_ids(subject, pid, obj) else []
            entry = graph.object_entry_ids(subject, pid)
            if type(entry) is set:
                return list(zip(repeat(subject), entry))
            return [] if entry is None else [(subject, entry)]
        if obj is not None:
            entry = graph.subject_entry_ids(pid, obj)
            if type(entry) is set:
                return list(zip(entry, repeat(obj)))
            return [] if entry is None else [(entry, obj)]
        return graph.pairs_for_ids(pid)

    def _sequence_pairs(
        self, path: SequencePath, subject: Optional[int], obj: Optional[int]
    ) -> List[IdPair]:
        """Bag join of a sequence, binding the middle from the cheaper side.

        One side is materialised (with its outer endpoint restriction
        applied) and the other is resolved once per distinct middle id with
        that middle *bound*, so closures on the unmaterialised side expand
        from single nodes instead of the whole graph.
        """
        if subject is not None:
            left_first = True
        elif obj is not None:
            left_first = False
        else:
            left_edges = self.relation_stats(path.left)[0]
            right_edges = self.relation_stats(path.right)[0]
            left_first = left_edges <= right_edges
        pairs: List[IdPair] = []
        if left_first:
            hop, ends_of = self._step(path.right, True, obj), {}
            for start, middle in self.pair_ids(path.left, subject, None):
                ends = ends_of.get(middle)
                if ends is None:
                    ends = ends_of[middle] = hop(middle)
                if ends:
                    pairs += zip(repeat(start), ends)
        else:
            hop, starts_of = self._step(path.left, False, subject), {}
            for middle, end in self.pair_ids(path.right, None, obj):
                starts = starts_of.get(middle)
                if starts is None:
                    starts = starts_of[middle] = hop(middle)
                if starts:
                    pairs += zip(starts, repeat(end))
        return pairs

    def _negated_pairs(
        self, path: NegatedPropertySet, subject: Optional[int], obj: Optional[int]
    ) -> List[IdPair]:
        """Negated-set pairs: the forward part, then the inverse part read
        as the forward one with the endpoints swapped."""
        id_for = self._dict.id_for
        pairs: List[IdPair] = []
        if path.forward or not path.inverse:
            forward = {pid for pid in map(id_for, path.forward) if pid is not None}
            pairs += self._outside(forward, subject, obj)
        if path.inverse:
            inverse = {pid for pid in map(id_for, path.inverse) if pid is not None}
            pairs += [(start, end) for end, start in self._outside(inverse, obj, subject)]
        return pairs

    def _outside(
        self, forbidden: Set[int], subject: Optional[int], obj: Optional[int]
    ) -> List[IdPair]:
        """``(s, o)`` of the triples whose predicate is not ``forbidden``,
        with bound endpoints pushed into the indexes."""
        graph = self._graph
        if subject is not None:
            return [
                (subject, oid)
                for pid, oid in graph.out_edges_ids(subject)
                if pid not in forbidden and (obj is None or oid == obj)
            ]
        if obj is not None:
            return [(sid, obj) for pid, sid in graph.in_edges_ids(obj) if pid not in forbidden]
        pairs: List[IdPair] = []
        for pid in graph.predicate_ids():
            if pid not in forbidden:
                pairs += graph.pairs_for_ids(pid)
        return pairs

    def _zero_pairs(self, subject: Optional[int], obj: Optional[int]) -> Set[IdPair]:
        """Zero-length pairs under the endpoint restriction, as a new set.

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
        nodes = self._graph.node_ids()
        return set(zip(nodes, nodes))

    # ------------------------------------------------------------------
    # closure expansion
    # ------------------------------------------------------------------
    def _closure_pairs(
        self, path: PropertyPath, subject: Optional[int], obj: Optional[int]
    ) -> Set[IdPair]:
        """``inner+`` / ``inner*`` with set semantics, direction-selected."""
        inner, include_zero = path.path, isinstance(path, ZeroOrMorePath)
        if subject is not None and obj is not None:
            if (include_zero and subject == obj) or self._reachable(inner, subject, obj):
                return {(subject, obj)}
            return set()
        if subject is not None:
            reached = _expand(self._successors(inner, True), subject, include_zero)
            return set(zip(repeat(subject), reached))
        if obj is not None:
            reached = _expand(self._successors(inner, False), obj, include_zero)
            return set(zip(reached, repeat(obj)))
        # Two free endpoints: the inner extension once, as the memo keyed
        # by the side with fewer distinct nodes, expanded from its keys.
        _, sources, targets = self.relation_stats(inner)
        forward = sources <= targets
        successors = _Successors(lambda node: [])
        for start, end in self.pair_ids(inner, None, None):
            if forward:
                successors[start].append(end)
            else:
                successors[end].append(start)
        pairs: Set[IdPair] = set()
        for key in list(successors):
            reached = _expand(successors.__getitem__, key, False)
            pairs.update(zip(repeat(key), reached) if forward else zip(reached, repeat(key)))
        if include_zero:
            nodes = self._graph.node_ids()
            pairs.update(zip(nodes, nodes))
        return pairs

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
        forward = self._successors(inner, True)
        backward = self._successors(inner, False)
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

    def _successors(self, inner: PropertyPath, forward: bool) -> StepFn:
        """A closure's hop over ``inner``: an index read for a (possibly
        inverted) link, otherwise memoised for the life of the hop."""
        hop, leaf = self._step(inner, forward), inner
        while isinstance(leaf, InversePath):
            leaf = leaf.path
        return hop if isinstance(leaf, LinkPath) else _Successors(hop).__getitem__

    def _step(self, inner: PropertyPath, forward: bool, far: Optional[int] = None) -> StepFn:
        """One hop of ``inner`` from a node: its ends (``forward``) or its
        starts, restricted to the bound far endpoint ``far``.  With ``far``
        free, a (possibly inverted) link hop is one index entry, and a
        closure hop expands over one successor memo for every node the
        step is called on."""
        while isinstance(inner, InversePath):
            inner, forward = inner.path, not forward
        if far is None and isinstance(inner, LinkPath):
            pid = self._dict.id_for(inner.iri)
            if pid is None:
                return lambda node: ()
            if forward:
                objects_of = self._graph.object_entry_ids
                return lambda node: _ids(objects_of(node, pid))
            subjects_of = self._graph.subject_entry_ids
            return lambda node: _ids(subjects_of(pid, node))
        if far is None and isinstance(inner, (OneOrMorePath, ZeroOrMorePath)):
            hop, zero = self._successors(inner.path, forward), isinstance(inner, ZeroOrMorePath)
            return lambda node: _expand(hop, node, zero)
        if forward:
            return lambda node: [end for _, end in self.pair_ids(inner, node, far)]
        return lambda node: [start for start, _ in self.pair_ids(inner, far, node)]

