"""RDF graphs and datasets with pattern-matching indexes.

A :class:`Graph` stores a *set* of triples and maintains three hash
indexes (SPO, POS, OSP) so that any triple pattern with at least one bound
component can be answered without a full scan.  A :class:`Dataset` holds a
default graph plus zero or more named graphs, mirroring the structure that
SPARQL's ``FROM`` / ``FROM NAMED`` / ``GRAPH`` constructs operate on.

The graph also maintains cheap incremental statistics — per-term occurrence
counts and per-predicate distinct subject counts — kept up to date on every
``add`` / ``remove``.  Together with the three indexes they make every
triple-pattern cardinality (:meth:`Graph.pattern_cardinality`) an exact
O(1) lookup, which is what the BGP join planner
(:mod:`repro.sparql.plan`) builds its cost model on.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import IRI, Term, Triple

#: A change-capture batch: ``(triple, weight)`` pairs with weight ``+1``
#: for an insert and ``-1`` for a delete.  Every batch describes an
#: *effective* transition — idempotent adds and missing removes never
#: notify — so consumers can treat the graph as a Z-set whose per-triple
#: multiplicity stays in {0, 1}.
DeltaBatch = Sequence[Tuple[Triple, int]]


class ChangeCapture:
    """The change-listener half of a graph backend.

    Shared by :class:`Graph` and :class:`repro.store.encoded.EncodedGraph`,
    whose mutation paths call :meth:`_notify_delta` after every effective
    change and check :attr:`_notifying` before making one.
    """

    def __init__(self) -> None:
        # Called with a DeltaBatch after every effective mutation
        # (post-mutation, so listeners observe the new state).  Copies of
        # a graph never inherit listeners.
        self._delta_listeners: List[Callable[[DeltaBatch], None]] = []
        # True while listeners run: a mutation from inside one is refused.
        self._notifying = False
        # The batch a _one_batch() block is collecting, None outside one.
        self._coalescing: Optional[List[Tuple[Triple, int]]] = None

    def add_change_listener(self, listener: Callable[[DeltaBatch], None]) -> None:
        """Register ``listener`` to receive every effective mutation.

        The listener is called *after* the mutation is applied, on every
        mutation path of the backend, with a batch of ``(triple, ±1)``
        deltas: one change per ``add`` / ``remove``, one batch per
        :meth:`update` call or bulk load.  It must not mutate the graph
        re-entrantly — every mutation path raises ``RuntimeError`` while
        listeners run, before touching the graph.  Materialized views
        (:mod:`repro.ivm`) use this to stay consistent in O(|delta|).
        """
        if listener not in self._delta_listeners:
            self._delta_listeners.append(listener)

    def remove_change_listener(self, listener: Callable[[DeltaBatch], None]) -> None:
        """Unregister a change listener (missing listeners are ignored)."""
        try:
            self._delta_listeners.remove(listener)
        except ValueError:
            pass

    def update(self, triples: Iterable[Triple]) -> None:
        """Add every triple from ``triples``.

        Change listeners receive the effective additions as one batch
        when the call ends (also when it ends in an exception).
        """
        with self._one_batch():
            for triple in triples:
                self.add(triple)

    @contextmanager
    def _one_batch(self) -> Iterator[None]:
        """Deliver the effective changes made inside the block to the
        listeners as one batch, when it ends — also when it ends in an
        exception.  Nested blocks join the outermost one."""
        if not self._delta_listeners or self._coalescing is not None:
            yield
            return
        if self._notifying:
            self._refuse_reentrant_mutation()
        batch = self._coalescing = []
        try:
            yield
        finally:
            self._coalescing = None
            if batch:
                self._notify_delta(batch)

    def _notify_delta(self, batch: DeltaBatch) -> None:
        if self._coalescing is not None:
            self._coalescing.extend(batch)
            return
        self._notifying = True
        try:
            for listener in list(self._delta_listeners):
                listener(batch)
        finally:
            self._notifying = False

    def _refuse_reentrant_mutation(self) -> None:
        raise RuntimeError(
            "graph mutated from inside a change listener: the views being "
            "notified have not seen the current batch yet"
        )


class Graph(ChangeCapture):
    """A set of RDF triples with SPO / POS / OSP indexes.

    The graph behaves like a collection: ``len``, ``in`` and iteration are
    supported.  Pattern matching is done through :meth:`triples` where
    ``None`` acts as a wildcard.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None) -> None:
        ChangeCapture.__init__(self)
        self._triples: Set[Triple] = set()
        self._spo: Dict[Term, Dict[Term, Set[Term]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._pos: Dict[Term, Dict[Term, Set[Term]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._osp: Dict[Term, Dict[Term, Set[Term]]] = defaultdict(
            lambda: defaultdict(set)
        )
        # Incremental statistics: occurrence counts per term position and
        # per-predicate distinct-subject counts (the POS index already gives
        # per-predicate distinct objects as len(self._pos[p])).
        self._subject_counts: Counter = Counter()
        self._predicate_counts: Counter = Counter()
        self._object_counts: Counter = Counter()
        self._pred_subject_counts: Dict[Term, Counter] = defaultdict(Counter)
        self._version = 0
        if triples:
            for triple in triples:
                self.add(triple)

    @property
    def version(self) -> int:
        """Monotonically increasing mutation stamp.

        Incremented on every *effective* mutation (a new triple added or an
        existing one removed), so any consumer caching work derived from
        the graph's contents — e.g. the evaluator's BGP plan cache — can
        key on ``(id(graph), graph.version)`` and invalidate exactly when
        the contents change.
        """
        return self._version

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> None:
        """Add a ground triple to the graph (idempotent)."""
        if self._notifying:
            self._refuse_reentrant_mutation()
        if not triple.is_ground():
            raise ValueError(f"cannot add non-ground triple: {triple!r}")
        if triple in self._triples:
            return
        self._triples.add(triple)
        subject, predicate, obj = triple
        self._spo[subject][predicate].add(obj)
        self._pos[predicate][obj].add(subject)
        self._osp[obj][subject].add(predicate)
        self._subject_counts[subject] += 1
        self._predicate_counts[predicate] += 1
        self._object_counts[obj] += 1
        self._pred_subject_counts[predicate][subject] += 1
        self._version += 1
        if self._delta_listeners:
            self._notify_delta(((triple, 1),))

    def add_triple(self, subject: Term, predicate: Term, obj: Term) -> None:
        """Convenience wrapper to add a triple from its components."""
        self.add(Triple(subject, predicate, obj))

    def remove(self, triple: Triple) -> None:
        """Remove a triple; missing triples are ignored.

        Emptied index entries are pruned so that the index keys stay exactly
        the set of terms still occurring in some triple — the statistics API
        and :meth:`subjects` / :meth:`predicates` / :meth:`objects` rely on
        this, and it keeps memory bounded under add/remove churn.
        """
        if self._notifying:
            self._refuse_reentrant_mutation()
        if triple not in self._triples:
            return
        self._triples.discard(triple)
        subject, predicate, obj = triple
        self._prune_index(self._spo, subject, predicate, obj)
        self._prune_index(self._pos, predicate, obj, subject)
        self._prune_index(self._osp, obj, subject, predicate)
        self._decrement(self._subject_counts, subject)
        self._decrement(self._predicate_counts, predicate)
        self._decrement(self._object_counts, obj)
        per_subject = self._pred_subject_counts[predicate]
        self._decrement(per_subject, subject)
        if not per_subject:
            del self._pred_subject_counts[predicate]
        self._version += 1
        if self._delta_listeners:
            self._notify_delta(((triple, -1),))

    @staticmethod
    def _prune_index(
        index: Dict[Term, Dict[Term, Set[Term]]],
        first: Term,
        second: Term,
        third: Term,
    ) -> None:
        """Discard ``third`` from ``index[first][second]``, pruning empties."""
        inner = index[first]
        values = inner[second]
        values.discard(third)
        if not values:
            del inner[second]
            if not inner:
                del index[first]

    @staticmethod
    def _decrement(counts: Counter, key: Term) -> None:
        counts[key] -= 1
        if counts[key] <= 0:
            del counts[key]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples)"

    def copy(self) -> "Graph":
        """Return a new graph containing the same triples."""
        return Graph(self._triples)

    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield all triples matching the pattern.

        ``None`` components are wildcards.  The most selective available
        index is chosen based on which components are bound.
        """
        if subject is not None and predicate is not None and obj is not None:
            candidate = Triple(subject, predicate, obj)
            if candidate in self._triples:
                yield candidate
            return
        if subject is not None:
            by_predicate = self._spo.get(subject)
            if not by_predicate:
                return
            if predicate is not None:
                for matched_obj in by_predicate.get(predicate, ()):  # S P ?
                    yield Triple(subject, predicate, matched_obj)
            else:
                for pred, objects in by_predicate.items():  # S ? ? / S ? O
                    for matched_obj in objects:
                        if obj is None or matched_obj == obj:
                            yield Triple(subject, pred, matched_obj)
            return
        if predicate is not None:
            by_object = self._pos.get(predicate)
            if not by_object:
                return
            if obj is not None:
                for matched_subject in by_object.get(obj, ()):  # ? P O
                    yield Triple(matched_subject, predicate, obj)
            else:
                for matched_obj, subjects in by_object.items():  # ? P ?
                    for matched_subject in subjects:
                        yield Triple(matched_subject, predicate, matched_obj)
            return
        if obj is not None:
            by_subject = self._osp.get(obj)
            if not by_subject:
                return
            for matched_subject, predicates in by_subject.items():  # ? ? O
                for pred in predicates:
                    yield Triple(matched_subject, pred, obj)
            return
        yield from self._triples

    def subjects(self) -> Set[Term]:
        """Return the set of all subjects."""
        return set(self._spo)

    def predicates(self) -> Set[Term]:
        """Return the set of all predicates."""
        return set(self._pos)

    def objects(self) -> Set[Term]:
        """Return the set of all objects."""
        return set(self._osp)

    def terms(self) -> Set[Term]:
        """Return every term occurring anywhere in the graph."""
        return set(self._spo) | set(self._pos) | set(self._osp)

    def nodes(self) -> Set[Term]:
        """Return every term occurring in subject or object position."""
        return set(self._spo) | set(self._osp)

    # ------------------------------------------------------------------
    # statistics (incremental, exact)
    # ------------------------------------------------------------------
    def subject_cardinality(self, subject: Term) -> int:
        """Number of triples with the given subject."""
        return self._subject_counts.get(subject, 0)

    def predicate_cardinality(self, predicate: Term) -> int:
        """Number of triples with the given predicate."""
        return self._predicate_counts.get(predicate, 0)

    def object_cardinality(self, obj: Term) -> int:
        """Number of triples with the given object."""
        return self._object_counts.get(obj, 0)

    def distinct_subjects(self, predicate: Optional[Term] = None) -> int:
        """Number of distinct subjects (optionally restricted to a predicate)."""
        if predicate is None:
            return len(self._spo)
        return len(self._pred_subject_counts.get(predicate, ()))

    def distinct_predicates(self) -> int:
        """Number of distinct predicates."""
        return len(self._pos)

    def distinct_objects(self, predicate: Optional[Term] = None) -> int:
        """Number of distinct objects (optionally restricted to a predicate)."""
        if predicate is None:
            return len(self._osp)
        return len(self._pos.get(predicate, ()))

    def pattern_cardinality(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Exact number of triples matching the pattern (``None`` = wildcard).

        Every combination of bound components is answered in O(1) from the
        indexes and the incremental counters; this is the ground truth the
        BGP planner's cost model uses.
        """
        if subject is not None and predicate is not None and obj is not None:
            return 1 if Triple(subject, predicate, obj) in self._triples else 0
        if subject is not None:
            if predicate is not None:
                return len(self._spo.get(subject, {}).get(predicate, ()))
            if obj is not None:
                return len(self._osp.get(obj, {}).get(subject, ()))
            return self._subject_counts.get(subject, 0)
        if predicate is not None:
            if obj is not None:
                return len(self._pos.get(predicate, {}).get(obj, ()))
            return self._predicate_counts.get(predicate, 0)
        if obj is not None:
            return self._object_counts.get(obj, 0)
        return len(self._triples)

    def objects_for(self, subject: Term, predicate: Term) -> Set[Term]:
        """Return the set of objects for a fixed subject and predicate."""
        return set(self._spo.get(subject, {}).get(predicate, ()))

    def subjects_for(self, predicate: Term, obj: Term) -> Set[Term]:
        """Return the set of subjects for a fixed predicate and object."""
        return set(self._pos.get(predicate, {}).get(obj, ()))


class Dataset:
    """An RDF dataset: a default graph plus named graphs.

    Named graphs are keyed by their IRI.  The dataset is the unit of input
    to both the reference SPARQL evaluator and the SparqLog data
    translation.
    """

    def __init__(
        self,
        default_graph: Optional[Graph] = None,
        named_graphs: Optional[Dict[IRI, Graph]] = None,
    ) -> None:
        self.default_graph = default_graph if default_graph is not None else Graph()
        self.named_graphs: Dict[IRI, Graph] = dict(named_graphs or {})

    def __repr__(self) -> str:
        return (
            f"Dataset(default={len(self.default_graph)} triples, "
            f"{len(self.named_graphs)} named graphs)"
        )

    def __len__(self) -> int:
        return len(self.default_graph) + sum(
            len(graph) for graph in self.named_graphs.values()
        )

    def add_named_graph(self, name: IRI, graph: Graph) -> None:
        """Register ``graph`` under ``name`` (replacing any previous one)."""
        self.named_graphs[name] = graph

    def graph(self, name: Optional[IRI] = None) -> Graph:
        """Return the named graph for ``name`` or the default graph.

        A missing named graph is returned as an empty graph of the default
        graph's store, matching the SPARQL semantics of evaluating
        ``GRAPH <iri>`` against an unknown graph.
        """
        if name is None:
            return self.default_graph
        graph = self.named_graphs.get(name)
        return type(self.default_graph)() if graph is None else graph

    def active(self, clauses: Sequence) -> "Dataset":
        """The dataset a query's FROM / FROM NAMED clauses describe (``self`` without any).

        FROM graphs are merged into a fresh default graph of the default
        graph's store, FROM NAMED ones keep their name; conventionally an
        unknown IRI stands for the default graph, so self-contained
        examples keep working.
        """
        if not clauses:
            return self
        default = type(self.default_graph)()
        named: Dict[IRI, Graph] = {}
        for clause in clauses:
            graph = self.named_graphs.get(clause.graph, self.default_graph)
            if clause.named:
                named[clause.graph] = graph
            else:
                default.update(graph)
        return Dataset(default, named)

    def names(self) -> Set[IRI]:
        """Return the IRIs of all named graphs."""
        return set(self.named_graphs.keys())

    def quads(self) -> Iterator[Tuple[Triple, Optional[IRI]]]:
        """Yield (triple, graph-name) pairs; the default graph uses ``None``."""
        for triple in self.default_graph:
            yield triple, None
        for name, graph in self.named_graphs.items():
            for triple in graph:
                yield triple, name

    def copy(self) -> "Dataset":
        """Return a deep copy of the dataset."""
        return Dataset(
            self.default_graph.copy(),
            {name: graph.copy() for name, graph in self.named_graphs.items()},
        )

    @staticmethod
    def from_graph(graph: Graph) -> "Dataset":
        """Wrap a single graph as the default graph of a new dataset."""
        return Dataset(default_graph=graph)
