"""Dictionary-encoded triple store: the one store planned evaluation runs on.

:class:`EncodedGraph` implements the full :class:`repro.rdf.graph.Graph`
surface, so the unplanned evaluator and the Datalog translation read it
as they read any graph, and beside it the id surface the native engine
executes on (:data:`PROBE_SURFACE`, id navigation, sorted id runs;
:func:`require_encoded` is the one check of it).  Internally every term
is interned to an integer id by a :class:`~repro.store.dictionary.TermDictionary`
and the three pattern-matching indexes (SPO / POS / OSP) are nested dicts
over those ids, so the per-triple footprint is a few machine words instead
of boxed ``Term`` / ``Triple`` objects.  Terms are decoded lazily at the
API boundary — ``triples()`` yields ordinary :class:`Triple` values.

Index representation
--------------------
The innermost level of each index is a *hybrid* entry: a bare ``int`` id
while the fan-out is exactly one (by far the common case in RDF data) that
is upgraded to a ``set`` of ids on the second element.  This halves the
resident size of the store compared to always-``set`` inner levels —
a singleton Python set costs >200 bytes.

Exact, incrementally-maintained statistics (per-position occurrence counts,
per-predicate distinct subjects) are kept beside the indexes, so
:meth:`pattern_cardinality` stays O(1) for the cost-based planner; the hash
graph keeps none.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.rdf.graph import ChangeCapture
from repro.rdf.terms import Term, Triple, Variable
from repro.store.dictionary import TermDictionary

#: A hybrid innermost index entry: one id, or a set of ids.
Entry = Union[int, Set[int]]
#: A two-level id index: first component -> second component -> Entry.
IdIndex = Dict[int, Dict[int, Entry]]

#: Shared empty inner level for miss-free two-level probes.
_EMPTY: Dict[int, Entry] = {}

#: The id probe surface: what the id-native join pipeline
#: (:mod:`repro.sparql.idexec`) asks a store.  ``match_triple_ids`` answers
#: every probe shape with a stream of id triples; the other four answer the
#: shapes with at most one free position by a dict lookup — a verdict, or the
#: index *entry* itself (``None``, one id, or the id set: not to be mutated).
#: One call of any of them is one index probe (:class:`StoreCounters`).
PROBE_SURFACE = (
    "match_triple_ids",
    "contains_ids",
    "object_entry_ids",
    "subject_entry_ids",
    "predicate_entry_ids",
)


# ----------------------------------------------------------------------
# hybrid entry helpers
# ----------------------------------------------------------------------
def _entry_add(inner: Dict[int, Entry], key: int, value: int) -> bool:
    """Add ``value`` under ``key``; return True when it was not present."""
    current = inner.get(key)
    if current is None:
        inner[key] = value
        return True
    if type(current) is set:
        if value in current:
            return False
        current.add(value)
        return True
    if current == value:
        return False
    inner[key] = {current, value}
    return True


def _entry_discard(inner: Dict[int, Entry], key: int, value: int) -> None:
    """Remove ``value`` from ``inner[key]``, pruning emptied entries."""
    current = inner.get(key)
    if current is None:
        return
    if type(current) is set:
        current.discard(value)
        if len(current) == 1:
            inner[key] = next(iter(current))
        elif not current:
            del inner[key]
    elif current == value:
        del inner[key]


def _entry_len(entry: Optional[Entry]) -> int:
    if entry is None:
        return 0
    if type(entry) is set:
        return len(entry)
    return 1


def _entry_iter(entry: Entry) -> Iterator[int]:
    if type(entry) is set:
        return iter(entry)
    return iter((entry,))


class StoreCounters:
    """Optional store-level observability counters.

    Created by :meth:`EncodedGraph.enable_counters`; until then the store
    pays nothing for them.  Plain ints, incremented in place — the
    metrics registry reads them through callbacks at collection time
    (:func:`repro.obs.metrics.bind_store_metrics`).
    """

    __slots__ = ("index_probes", "sorted_run_builds", "sorted_run_invalidations")

    def __init__(self) -> None:
        #: Calls of the id probe surface (:data:`PROBE_SURFACE`): one per
        #: index probe of the id executor, whichever accessor served it.
        self.index_probes = 0
        #: Sorted id runs materialised for the leapfrog operator.
        self.sorted_run_builds = 0
        #: Sorted-run cache flushes forced by a version-stamp change.
        self.sorted_run_invalidations = 0


class EncodedGraph(ChangeCapture):
    """A set of RDF triples stored as dictionary-encoded integer ids.

    Implements the same collection protocol and pattern matching as
    :class:`repro.rdf.graph.Graph` (see that class for the semantics of
    those methods), plus the statistics the cost-based planner reads.
    """

    def __init__(
        self,
        triples: Optional[Iterable[Triple]] = None,
        dictionary: Optional[TermDictionary] = None,
    ) -> None:
        # Listeners get decoded (triple, ±1) batches after every effective
        # mutation, including the stats-deferred bulk-load inserts, so a
        # materialized view can never miss a loader path.
        ChangeCapture.__init__(self)
        self._dict = dictionary if dictionary is not None else TermDictionary()
        self._spo: IdIndex = {}
        self._pos: IdIndex = {}
        self._osp: IdIndex = {}
        self._len = 0
        self._version = 0
        # Exact incremental statistics over ids, read by the planner.
        self._subject_counts: Dict[int, int] = {}
        self._predicate_counts: Dict[int, int] = {}
        self._object_counts: Dict[int, int] = {}
        self._pred_subject_counts: Dict[int, Dict[int, int]] = {}
        # Sorted id runs for the leapfrog-triejoin operator, keyed by
        # (kind, ids...) and valid for exactly one version stamp; any
        # mutation invalidates the whole cache lazily on next access.
        self._sorted_runs: Dict[Tuple, List[int]] = {}
        self._sorted_runs_version = -1
        # The node-id set of the path engine, valid for one version stamp too.
        self._node_ids: Optional[Set[int]] = None
        self._node_ids_version = -1
        # Observability counters, absent until enable_counters(): the
        # sorted-run sites below guard on None, probe counting happens in
        # instance-attribute wrappers installed on demand.
        self._counters: Optional[StoreCounters] = None
        if triples:
            for triple in triples:
                self.add(triple)

    @property
    def dictionary(self) -> TermDictionary:
        """The term dictionary backing this graph (shared by copies)."""
        return self._dict

    def enable_counters(self) -> StoreCounters:
        """Switch on store-level counters (idempotent) and return them.

        A disabled store pays nothing: one counting wrapper per method of
        the id probe surface (:data:`PROBE_SURFACE`) is installed here as
        an instance attribute shadowing the class method — a call-time
        increment is all it adds — and the sorted-run sites are a
        ``None``-checked ``+=``.  Counters are per instance; ``copy()``
        clones start disabled.
        """
        if self._counters is None:
            counters = self._counters = StoreCounters()

            def counting(unwrapped):
                def counted(*ids, **named):
                    counters.index_probes += 1
                    return unwrapped(self, *ids, **named)

                return counted

            for name in PROBE_SURFACE:
                setattr(self, name, counting(getattr(type(self), name)))
        return self._counters

    @property
    def version(self) -> int:
        """Monotonically increasing mutation stamp (see ``Graph.version``)."""
        return self._version

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> None:
        """Add a ground triple to the graph (idempotent)."""
        if not triple.is_ground():
            raise ValueError(f"cannot add non-ground triple: {triple!r}")
        encode = self._dict.encode
        self._add_ids(
            encode(triple.subject), encode(triple.predicate), encode(triple.object)
        )

    def add_triple(self, subject: Term, predicate: Term, obj: Term) -> None:
        """Add a triple from its components without building a ``Triple``."""
        if (
            isinstance(subject, Variable)
            or isinstance(predicate, Variable)
            or isinstance(obj, Variable)
        ):
            raise ValueError(
                f"cannot add non-ground triple: ({subject!r} {predicate!r} {obj!r})"
            )
        encode = self._dict.encode
        self._add_ids(encode(subject), encode(predicate), encode(obj))

    def _add_ids(self, sid: int, pid: int, oid: int, stats: bool = True) -> bool:
        """Insert an id triple into the indexes; return True when new.

        With ``stats=False`` the incremental counters are left untouched —
        the bulk loader and snapshot loader use this and rebuild the
        statistics in one pass at the end (:meth:`_rebuild_statistics`).
        """
        if self._notifying:
            self._refuse_reentrant_mutation()
        by_predicate = self._spo.get(sid)
        if by_predicate is None:
            by_predicate = self._spo[sid] = {}
        if not _entry_add(by_predicate, pid, oid):
            return False
        by_object = self._pos.get(pid)
        if by_object is None:
            by_object = self._pos[pid] = {}
        _entry_add(by_object, oid, sid)
        by_subject = self._osp.get(oid)
        if by_subject is None:
            by_subject = self._osp[oid] = {}
        _entry_add(by_subject, sid, pid)
        self._len += 1
        if stats:
            self._subject_counts[sid] = self._subject_counts.get(sid, 0) + 1
            self._predicate_counts[pid] = self._predicate_counts.get(pid, 0) + 1
            self._object_counts[oid] = self._object_counts.get(oid, 0) + 1
            per_subject = self._pred_subject_counts.get(pid)
            if per_subject is None:
                per_subject = self._pred_subject_counts[pid] = {}
            per_subject[sid] = per_subject.get(sid, 0) + 1
            self._version += 1
        if self._delta_listeners:
            decode = self._dict.term
            self._notify_delta(
                ((Triple(decode(sid), decode(pid), decode(oid)), 1),)
            )
        return True

    def _bulk_insert_ids(self, ids) -> None:
        """Insert a flat ``[s, p, o, s, p, o, ...]`` id stream (no stats).

        The snapshot loader's hot path: one tight loop with the three
        index roots and the entry-add helper hoisted to locals, instead
        of a :meth:`_add_ids` call per triple.  Statistics are rebuilt
        by the caller (:meth:`_rebuild_statistics`); duplicates collapse
        exactly as in :meth:`_add_ids` (the caller detects them through
        ``len(self)``).  Never notifies change listeners — it only runs
        on freshly constructed graphs that cannot have any.
        """
        spo, pos, osp = self._spo, self._pos, self._osp
        entry_add = _entry_add
        added = 0
        stream = iter(ids)
        for sid, pid, oid in zip(stream, stream, stream):
            by_predicate = spo.get(sid)
            if by_predicate is None:
                by_predicate = spo[sid] = {}
            if not entry_add(by_predicate, pid, oid):
                continue
            by_object = pos.get(pid)
            if by_object is None:
                by_object = pos[pid] = {}
            entry_add(by_object, oid, sid)
            by_subject = osp.get(oid)
            if by_subject is None:
                by_subject = osp[oid] = {}
            entry_add(by_subject, sid, pid)
            added += 1
        self._len += added

    def _rebuild_statistics(self) -> None:
        """Recompute every counter from the indexes (post bulk/snapshot load)."""
        subject_counts: Dict[int, int] = {}
        pred_subject_counts: Dict[int, Dict[int, int]] = {}
        for sid, by_predicate in self._spo.items():
            total = 0
            for pid, entry in by_predicate.items():
                fan = _entry_len(entry)
                total += fan
                per_subject = pred_subject_counts.get(pid)
                if per_subject is None:
                    per_subject = pred_subject_counts[pid] = {}
                per_subject[sid] = fan
            subject_counts[sid] = total
        self._subject_counts = subject_counts
        self._pred_subject_counts = pred_subject_counts
        self._predicate_counts = {
            pid: sum(_entry_len(entry) for entry in by_object.values())
            for pid, by_object in self._pos.items()
        }
        self._object_counts = {
            oid: sum(_entry_len(entry) for entry in by_subject.values())
            for oid, by_subject in self._osp.items()
        }

    def remove(self, triple: Triple) -> None:
        """Remove a triple; missing triples are ignored."""
        if self._notifying:
            self._refuse_reentrant_mutation()
        lookup = self._dict.id_for
        sid = lookup(triple.subject)
        pid = lookup(triple.predicate)
        oid = lookup(triple.object)
        if sid is None or pid is None or oid is None:
            return
        if not type(self).contains_ids(self, sid, pid, oid):
            return
        by_predicate = self._spo[sid]
        _entry_discard(by_predicate, pid, oid)
        if not by_predicate:
            del self._spo[sid]
        by_object = self._pos[pid]
        _entry_discard(by_object, oid, sid)
        if not by_object:
            del self._pos[pid]
        by_subject = self._osp[oid]
        _entry_discard(by_subject, sid, pid)
        if not by_subject:
            del self._osp[oid]
        self._len -= 1
        self._version += 1
        self._decrement(self._subject_counts, sid)
        self._decrement(self._predicate_counts, pid)
        self._decrement(self._object_counts, oid)
        per_subject = self._pred_subject_counts.get(pid)
        if per_subject is not None:
            self._decrement(per_subject, sid)
            if not per_subject:
                del self._pred_subject_counts[pid]
        if self._delta_listeners:
            decode = self._dict.term
            self._notify_delta(
                ((Triple(decode(sid), decode(pid), decode(oid)), -1),)
            )

    @staticmethod
    def _decrement(counts: Dict[int, int], key: int) -> None:
        remaining = counts.get(key, 0) - 1
        if remaining <= 0:
            counts.pop(key, None)
        else:
            counts[key] = remaining

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Triple]:
        decode = self._dict.term
        for sid, by_predicate in self._spo.items():
            subject = decode(sid)
            for pid, entry in by_predicate.items():
                predicate = decode(pid)
                for oid in _entry_iter(entry):
                    yield Triple(subject, predicate, decode(oid))

    def __contains__(self, triple: Triple) -> bool:
        lookup = self._dict.id_for
        sid = lookup(triple.subject)
        pid = lookup(triple.predicate)
        oid = lookup(triple.object)
        if sid is None or pid is None or oid is None:
            return False
        return type(self).contains_ids(self, sid, pid, oid)

    def __repr__(self) -> str:
        return f"EncodedGraph({self._len} triples, {len(self._dict)} dictionary terms)"

    def copy(self) -> "EncodedGraph":
        """Return a new graph with the same triples, sharing the dictionary."""
        clone = EncodedGraph(dictionary=self._dict)
        clone._spo = self._copy_index(self._spo)
        clone._pos = self._copy_index(self._pos)
        clone._osp = self._copy_index(self._osp)
        clone._len = self._len
        clone._subject_counts = dict(self._subject_counts)
        clone._predicate_counts = dict(self._predicate_counts)
        clone._object_counts = dict(self._object_counts)
        clone._pred_subject_counts = {
            pid: dict(per_subject)
            for pid, per_subject in self._pred_subject_counts.items()
        }
        return clone

    @staticmethod
    def _copy_index(index: IdIndex) -> IdIndex:
        return {
            first: {
                second: (set(entry) if type(entry) is set else entry)
                for second, entry in inner.items()
            }
            for first, inner in index.items()
        }

    # ------------------------------------------------------------------
    # pattern matching
    # ------------------------------------------------------------------
    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield all triples matching the pattern (``None`` = wildcard).

        Delegates the per-shape index walk to :meth:`match_triple_ids`
        (the single copy of the SPO/POS/OSP dispatch) and decodes at the
        boundary; decoding is a memoised list lookup, and bound pattern
        components decode back to terms equal to the ones passed in.
        """
        lookup = self._dict.id_for
        sid = pid = oid = None
        if subject is not None:
            sid = lookup(subject)
            if sid is None:
                return
        if predicate is not None:
            pid = lookup(predicate)
            if pid is None:
                return
        if obj is not None:
            oid = lookup(obj)
            if oid is None:
                return
        decode = self._dict.term
        for matched_sid, matched_pid, matched_oid in self.match_triple_ids(
            sid, pid, oid
        ):
            yield Triple(decode(matched_sid), decode(matched_pid), decode(matched_oid))

    def subjects(self) -> Set[Term]:
        """Return the set of all subjects."""
        decode = self._dict.term
        return {decode(sid) for sid in self._spo}

    def predicates(self) -> Set[Term]:
        """Return the set of all predicates."""
        decode = self._dict.term
        return {decode(pid) for pid in self._pos}

    def objects(self) -> Set[Term]:
        """Return the set of all objects."""
        decode = self._dict.term
        return {decode(oid) for oid in self._osp}

    def terms(self) -> Set[Term]:
        """Return every term occurring anywhere in the graph."""
        decode = self._dict.term
        return {decode(tid) for tid in set(self._spo) | set(self._pos) | set(self._osp)}

    def nodes(self) -> Set[Term]:
        """Return every term occurring in subject or object position."""
        decode = self._dict.term
        return {decode(tid) for tid in set(self._spo) | set(self._osp)}

    # ------------------------------------------------------------------
    # statistics (incremental, exact)
    # ------------------------------------------------------------------
    def subject_cardinality(self, subject: Term) -> int:
        sid = self._dict.id_for(subject)
        return self._subject_counts.get(sid, 0) if sid is not None else 0

    def predicate_cardinality(self, predicate: Term) -> int:
        pid = self._dict.id_for(predicate)
        return self._predicate_counts.get(pid, 0) if pid is not None else 0

    def object_cardinality(self, obj: Term) -> int:
        oid = self._dict.id_for(obj)
        return self._object_counts.get(oid, 0) if oid is not None else 0

    def distinct_subjects(self, predicate: Optional[Term] = None) -> int:
        if predicate is None:
            return len(self._spo)
        pid = self._dict.id_for(predicate)
        if pid is None:
            return 0
        return len(self._pred_subject_counts.get(pid, ()))

    def distinct_predicates(self) -> int:
        return len(self._pos)

    def distinct_objects(self, predicate: Optional[Term] = None) -> int:
        if predicate is None:
            return len(self._osp)
        pid = self._dict.id_for(predicate)
        if pid is None:
            return 0
        return len(self._pos.get(pid, ()))

    def pattern_cardinality(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Exact number of triples matching the pattern (``None`` = wildcard)."""
        lookup = self._dict.id_for
        sid = pid = oid = None
        if subject is not None:
            sid = lookup(subject)
            if sid is None:
                return 0
        if predicate is not None:
            pid = lookup(predicate)
            if pid is None:
                return 0
        if obj is not None:
            oid = lookup(obj)
            if oid is None:
                return 0
        return self.pattern_cardinality_ids(sid, pid, oid)

    def objects_for(self, subject: Term, predicate: Term) -> Set[Term]:
        """Return the set of objects for a fixed subject and predicate."""
        lookup = self._dict.id_for
        sid = lookup(subject)
        pid = lookup(predicate)
        if sid is None or pid is None:
            return set()
        entry = self._spo.get(sid, {}).get(pid)
        if entry is None:
            return set()
        decode = self._dict.term
        return {decode(oid) for oid in _entry_iter(entry)}

    def subjects_for(self, predicate: Term, obj: Term) -> Set[Term]:
        """Return the set of subjects for a fixed predicate and object."""
        lookup = self._dict.id_for
        pid = lookup(predicate)
        oid = lookup(obj)
        if pid is None or oid is None:
            return set()
        entry = self._pos.get(pid, {}).get(oid)
        if entry is None:
            return set()
        decode = self._dict.term
        return {decode(sid) for sid in _entry_iter(entry)}

    # ------------------------------------------------------------------
    # id-level pattern matching (used by the id-native BGP executor)
    # ------------------------------------------------------------------
    def contains_ids(self, sid: int, pid: int, oid: int) -> bool:
        """True when the id triple is in the graph: the S P O membership test."""
        entry = self._spo.get(sid, _EMPTY).get(pid)
        if type(entry) is set:
            return oid in entry
        return entry == oid

    def object_entry_ids(self, sid: int, pid: int) -> Optional[Entry]:
        """The index entry of ``(sid, pid, ?)``: ``None``, one id or the id set."""
        return self._spo.get(sid, _EMPTY).get(pid)

    def subject_entry_ids(self, pid: int, oid: int) -> Optional[Entry]:
        """The index entry of ``(?, pid, oid)``: ``None``, one id or the id set."""
        return self._pos.get(pid, _EMPTY).get(oid)

    def predicate_entry_ids(self, sid: int, oid: int) -> Optional[Entry]:
        """The index entry of ``(sid, ?, oid)``: ``None``, one id or the id set."""
        return self._osp.get(oid, _EMPTY).get(sid)

    def match_triple_ids(
        self,
        sid: Optional[int] = None,
        pid: Optional[int] = None,
        oid: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield matching triples as ``(sid, pid, oid)`` id tuples.

        The id-space counterpart of :meth:`triples`: ``None`` components
        are wildcards, the most selective index for the probe shape is
        used, and no term is ever decoded.  The general member of the id
        probe surface (:data:`PROBE_SURFACE`): every shape, one generator
        and one tuple per match.
        """
        if sid is not None:
            if pid is not None:
                if oid is not None:  # S P O — membership probe
                    # The class's, not the instance's: counted once, here.
                    if type(self).contains_ids(self, sid, pid, oid):
                        yield sid, pid, oid
                    return
                entry = self._spo.get(sid, {}).get(pid)  # S P ?
                if entry is not None:
                    for matched_oid in _entry_iter(entry):
                        yield sid, pid, matched_oid
                return
            if oid is not None:  # S ? O — probe OSP directly
                entry = self._osp.get(oid, {}).get(sid)
                if entry is not None:
                    for matched_pid in _entry_iter(entry):
                        yield sid, matched_pid, oid
                return
            by_predicate = self._spo.get(sid)  # S ? ?
            if by_predicate is not None:
                for matched_pid, entry in by_predicate.items():
                    for matched_oid in _entry_iter(entry):
                        yield sid, matched_pid, matched_oid
            return
        if pid is not None:
            by_object = self._pos.get(pid)
            if by_object is None:
                return
            if oid is not None:  # ? P O
                entry = by_object.get(oid)
                if entry is not None:
                    for matched_sid in _entry_iter(entry):
                        yield matched_sid, pid, oid
                return
            for matched_oid, entry in by_object.items():  # ? P ?
                for matched_sid in _entry_iter(entry):
                    yield matched_sid, pid, matched_oid
            return
        if oid is not None:  # ? ? O
            by_subject = self._osp.get(oid)
            if by_subject is not None:
                for matched_sid, entry in by_subject.items():
                    for matched_pid in _entry_iter(entry):
                        yield matched_sid, matched_pid, oid
            return
        yield from self.id_triples()  # ? ? ?

    def pattern_cardinality_ids(
        self,
        sid: Optional[int] = None,
        pid: Optional[int] = None,
        oid: Optional[int] = None,
    ) -> int:
        """Exact number of triples matching an id pattern (``None`` = wildcard)."""
        if sid is not None and pid is not None and oid is not None:
            return int(type(self).contains_ids(self, sid, pid, oid))
        if sid is not None:
            if pid is not None:
                return _entry_len(self._spo.get(sid, {}).get(pid))
            if oid is not None:
                return _entry_len(self._osp.get(oid, {}).get(sid))
            return self._subject_counts.get(sid, 0)
        if pid is not None:
            if oid is not None:
                return _entry_len(self._pos.get(pid, {}).get(oid))
            return self._predicate_counts.get(pid, 0)
        if oid is not None:
            return self._object_counts.get(oid, 0)
        return self._len

    # ------------------------------------------------------------------
    # id-level navigation (used by the id-native path engine)
    # ------------------------------------------------------------------
    def node_ids(self) -> Set[int]:
        """Ids of every term in subject or object position (graph nodes).

        Built once per version stamp and shared: not to be mutated.
        """
        if self._node_ids is None or self._node_ids_version != self._version:
            self._node_ids = set(self._spo) | set(self._osp)
            self._node_ids_version = self._version
        return self._node_ids

    def predicate_ids(self) -> Iterator[int]:
        """Ids of every predicate with at least one triple."""
        return iter(self._pos)

    def objects_for_ids(self, sid: int, pid: int) -> Iterator[int]:
        """Yield object ids of triples ``(sid, pid, ?)`` — forward step."""
        entry = self._spo.get(sid, _EMPTY).get(pid)
        if entry is not None:
            return _entry_iter(entry)
        return iter(())

    def subjects_for_ids(self, pid: int, oid: int) -> Iterator[int]:
        """Yield subject ids of triples ``(?, pid, oid)`` — backward step."""
        entry = self._pos.get(pid, _EMPTY).get(oid)
        if entry is not None:
            return _entry_iter(entry)
        return iter(())

    def out_edges_ids(self, sid: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(pid, oid)`` for every triple with subject ``sid``."""
        by_predicate = self._spo.get(sid)
        if by_predicate is not None:
            for pid, entry in by_predicate.items():
                for oid in _entry_iter(entry):
                    yield pid, oid

    def in_edges_ids(self, oid: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(pid, sid)`` for every triple with object ``oid``."""
        by_subject = self._osp.get(oid)
        if by_subject is not None:
            for sid, entry in by_subject.items():
                for pid in _entry_iter(entry):
                    yield pid, sid

    def distinct_subjects_ids(self, pid: int) -> int:
        """Distinct subject count of a predicate id (O(1), no decode)."""
        return len(self._pred_subject_counts.get(pid, ()))

    def distinct_objects_ids(self, pid: int) -> int:
        """Distinct object count of a predicate id (O(1), no decode)."""
        return len(self._pos.get(pid, ()))

    # ------------------------------------------------------------------
    # sorted-run surface (used by the leapfrog-triejoin operator)
    # ------------------------------------------------------------------
    def _sorted_run(self, key: Tuple, source: Iterable[int]) -> List[int]:
        """Return (caching per version stamp) ``sorted(source)``.

        ``copy()`` clones never share this cache — each clone starts with
        the empty one from ``__init__`` — so runs can alias index
        internals without outliving a mutation.
        """
        counters = self._counters
        if self._sorted_runs_version != self._version:
            if counters is not None and self._sorted_runs:
                # Version sync on a still-empty cache is not an invalidation.
                counters.sorted_run_invalidations += 1
            self._sorted_runs.clear()
            self._sorted_runs_version = self._version
        run = self._sorted_runs.get(key)
        if run is None:
            if counters is not None:
                counters.sorted_run_builds += 1
            run = self._sorted_runs[key] = sorted(source)
        return run

    def sorted_subjects_for_predicate(self, pid: int) -> List[int]:
        """Sorted distinct subject ids of predicate ``pid`` (exact π_s)."""
        return self._sorted_run(("ps", pid), self._pred_subject_counts.get(pid, ()))

    def sorted_objects_for_predicate(self, pid: int) -> List[int]:
        """Sorted distinct object ids of predicate ``pid`` (exact π_o)."""
        return self._sorted_run(("po", pid), self._pos.get(pid, ()))

    def sorted_objects_for_subject_predicate(self, sid: int, pid: int) -> List[int]:
        """Sorted object ids of triples ``(sid, pid, ?)`` — forward run."""
        entry = self._spo.get(sid, _EMPTY).get(pid)
        if entry is None:
            return []
        if type(entry) is not set:
            return [entry]
        return self._sorted_run(("spo", sid, pid), entry)

    def sorted_subjects_for_predicate_object(self, pid: int, oid: int) -> List[int]:
        """Sorted subject ids of triples ``(?, pid, oid)`` — backward run."""
        entry = self._pos.get(pid, _EMPTY).get(oid)
        if entry is None:
            return []
        if type(entry) is not set:
            return [entry]
        return self._sorted_run(("pos", pid, oid), entry)

    # ------------------------------------------------------------------
    # id-level access (used by the bulk loader and snapshots)
    # ------------------------------------------------------------------
    def id_triples(self) -> Iterator[Tuple[int, int, int]]:
        """Yield every triple as an (sid, pid, oid) id tuple."""
        for sid, by_predicate in self._spo.items():
            for pid, entry in by_predicate.items():
                for oid in _entry_iter(entry):
                    yield sid, pid, oid


def require_encoded(graph: object) -> None:
    """The one check of planned evaluation: it runs on :class:`EncodedGraph`
    only — the store with the id probe surface, id navigation and sorted
    id runs its pipelines, path engine and leapfrog join read.  Any other
    graph raises ``TypeError``."""
    if not isinstance(graph, EncodedGraph):
        raise TypeError(
            f"planned evaluation runs on an EncodedGraph, not {type(graph).__name__}: "
            "build the graph with repro.open_graph() / create_graph(), or evaluate "
            "it unplanned (ExecutionProfile.NAIVE)"
        )
