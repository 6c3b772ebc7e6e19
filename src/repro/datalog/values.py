"""The value table: the small ints the Datalog fixpoint stores instead of values.

Every value a run stores — a fact's RDF term or plain string, a rule
constant, a tuple ID or labelled null — is stored as its id in one
:class:`ValueTable`, so relation inserts, index probes and joins hash and
compare ints.  The table is keyed by the value itself: two values share an
id exactly when a set of value tuples would have merged them.  A Skolem
term is keyed by its functor and the ids of its arguments and held as a
:class:`SkolemKey`; a :class:`~repro.datalog.terms.SkolemTerm` is built
only when such an id is decoded (:meth:`ValueTable.value`).  Id 0 is
``None``: register 0 of a compiled rule holds it, so a variable no body
atom binds reads as unbound, and an aggregate over nothing stores it.

Two lifetimes.  What :meth:`ValueTable.intern` adds is kept for the life of
the table: the base's facts and closure, and the constants of the programs
bound to it.  What a run adds beyond that — the tuple IDs and nulls of
:meth:`ValueTable.skolem`, aggregate results through :meth:`ValueTable.add`
— belongs to the run: :meth:`ValueTable.begin` marks where it starts and
:meth:`ValueTable.end` drops it, so a table shared by a long-lived base
does not grow with every query run on it.

:meth:`ValueTable.equality_key` is the key a FILTER ``=`` probes an index
by: :func:`repro.sparql.kernels.equality_key`, the native engine's key
rule, cached per id with the id's lifetime.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.datalog.terms import SkolemTerm
from repro.sparql.kernels import equality_key


class SkolemKey(tuple):
    """A Skolem term as the table holds it: ``(functor, argument ids)``.

    No RDF term, so a filter reads it as unbound and T_S as a labelled null.
    """

    __slots__ = ()


class ValueTable:
    """``intern(value) -> id`` and ``value(id)`` for one base and its runs."""

    __slots__ = ("values", "_ids", "_skolems", "_keys", "_keyed_run", "_kept", "_run", "_mark")

    def __init__(self) -> None:
        #: id -> value (a :class:`SkolemKey` for a Skolem id); read by
        #: position in the steps that decode, and only ever cut in place.
        self.values: List[object] = [None]
        self._ids: Dict[Hashable, int] = {None: 0}
        self._skolems: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        # id -> its equality key, filled as keys are asked for; whether an
        # id end() may drop has one.
        self._keys: Dict[int, object] = {}
        self._keyed_run = False
        # Ids below this are kept by every end(): something interned them.
        self._kept = 1
        # The latest run and where it started (None once it ended).
        self._run = 0
        self._mark: Optional[int] = None

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: Hashable) -> int:
        """The id of ``value``, kept for the life of the table."""
        ident = self.add(value)
        if ident >= self._kept:
            self._kept = ident + 1
        return ident

    def intern_rows(self, rows: Iterable[Sequence[Hashable]]) -> List[Tuple[int, ...]]:
        """:meth:`intern` over every value of ``rows``: one id row per row."""
        get, intern = self._ids.get, self.intern
        interned = []
        for row in rows:
            ids = tuple(map(get, row))
            if None in ids:
                ids = tuple(
                    [intern(value) if ident is None else ident for ident, value in zip(ids, row)]
                )
            interned.append(ids)
        if self._mark is not None:
            # A run is open, and an id found may be one of its own: keep all.
            self._kept = len(self.values)
        return interned

    def add(self, value: Hashable) -> int:
        """The id of a value a run computed: it goes when the run ends."""
        if value.__class__ is SkolemTerm:
            return self.skolem(value.functor, tuple([self.add(a) for a in value.arguments]))
        ident = self._ids.get(value)
        if ident is None:
            ident = self._ids[value] = len(self.values)
            self.values.append(value)
        return ident

    def skolem(self, functor: str, arguments: Tuple[int, ...]) -> int:
        """The id of the Skolem term ``functor(arguments)`` over argument ids."""
        key = (functor, arguments)
        ident = self._skolems.get(key)
        if ident is None:
            ident = self._skolems[key] = len(self.values)
            self.values.append(SkolemKey(key))
        return ident

    def value(self, ident: int) -> object:
        """The value of ``ident``; a Skolem id is built into a Skolem term."""
        value = self.values[ident]
        if value.__class__ is SkolemKey:
            functor, arguments = value
            return SkolemTerm(functor, tuple([self.value(a) for a in arguments]))
        return value

    def equality_key(self, ident: int) -> object:
        """A key two ids share when their values may be SPARQL ``=``: a
        literal's value key, any other value's own id
        (:func:`repro.sparql.kernels.equality_key`)."""
        try:
            return self._keys[ident]
        except KeyError:
            key = self._keys[ident] = equality_key(self.values[ident], ident)
            if ident >= self._kept:
                self._keyed_run = True
            return key

    def decoded(self) -> List[object]:
        """id -> value for every id, Skolem ids built into Skolem terms: the
        lookup list of a bulk decode (``tuple(map(decoded.__getitem__, row))``).
        The argument ids of a Skolem id are smaller than it, so one pass in
        id order builds every term from terms already built."""
        decoded = list(self.values)
        if self._skolems:
            for ident in self._skolems.values():
                functor, arguments = decoded[ident]
                decoded[ident] = SkolemTerm(functor, tuple([decoded[a] for a in arguments]))
        return decoded

    def begin(self) -> int:
        """A run starts: what is added from here on is its own.  Returns the
        token :meth:`end` takes."""
        self._run += 1
        self._mark = len(self.values)
        return self._run

    def end(self, run: int) -> None:
        """Drop what run ``run`` added — unless a later run has begun, whose
        rows may hold those ids, or it ended already.  What was interned
        meanwhile, and every id below it, is kept."""
        if run != self._run or self._mark is None:
            return
        mark = max(self._mark, self._kept)
        self._mark = None
        values = self.values
        if self._keyed_run:
            self._keyed_run = False
            keys = self._keys
            for ident in range(mark, len(values)):
                keys.pop(ident, None)
        for value in values[mark:]:
            if value.__class__ is SkolemKey:
                del self._skolems[value]
            else:
                del self._ids[value]
        del values[mark:]
