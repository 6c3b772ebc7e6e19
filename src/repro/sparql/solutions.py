"""Solution mappings and solution sequences.

A *solution mapping* assigns RDF terms to a subset of the query
variables.  The result of evaluating a graph pattern is a *multiset* of
solution mappings; after solution modifiers are applied it becomes a
sequence.  The native engine holds a solution in one shape from the
executor to the result: a tuple of terms aligned with a header of
variables, ``None`` where a variable is unbound.  The walk's operators
pair such rows through :class:`CompatIndex` and compiled expressions read
them by position (:func:`repro.sparql.expressions.positional`); a result,
:class:`SolutionSequence`, is a header plus those tuples.  :class:`Binding` — an immutable, hashable
mapping — is what a caller gets from :attr:`SolutionSequence.bindings`,
built only on request.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.terms import Term, Variable, term_sort_key


class Binding:
    """An immutable solution mapping from variables to RDF terms.

    Unbound variables are simply absent.  It is the public per-row view
    of a result (:attr:`SolutionSequence.bindings`,
    :meth:`SolutionSequence.counter`) and the definition of compatibility
    the tests check the engine's :class:`CompatIndex` against
    (:meth:`is_compatible`).  The items are kept sorted by variable name,
    which is what equality and hashing rely on; the hash is computed on
    first use, so a row that is never counted or deduplicated never pays
    for it.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping: Optional[Dict[Variable, Term]] = None) -> None:
        self._items: Tuple[Tuple[Variable, Term], ...] = (
            tuple(sorted(mapping.items(), key=_item_name)) if mapping else ()
        )
        self._hash: Optional[int] = None

    @classmethod
    def from_sorted_items(
        cls, items: Tuple[Tuple[Variable, Term], ...]
    ) -> "Binding":
        """Build a binding from pairs already sorted by variable name.

        Skips the per-construction sort of ``__init__`` — a producer that
        fixes its variable order once (:attr:`SolutionSequence.bindings`)
        builds every row through here.  The caller guarantees sortedness
        and distinct variables; equality/hashing rely on it.
        """
        binding = object.__new__(cls)
        binding._items = items
        binding._hash = None
        return binding

    # -- mapping protocol ----------------------------------------------
    # Producers hand out the query's own Variable objects, so identity
    # settles nearly every lookup before the dataclass ``__eq__`` runs.
    def __getitem__(self, variable: Variable) -> Term:
        for var, term in self._items:
            if var is variable or var == variable:
                return term
        raise KeyError(variable)

    def get(self, variable: Variable, default: Optional[Term] = None) -> Optional[Term]:
        for var, term in self._items:
            if var is variable or var == variable:
                return term
        return default

    def __contains__(self, variable: Variable) -> bool:
        for var, _ in self._items:
            if var is variable or var == variable:
                return True
        return False

    def __iter__(self) -> Iterator[Variable]:
        return (var for var, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> Tuple[Tuple[Variable, Term], ...]:
        return self._items

    def variables(self) -> set:
        """Return the domain of the mapping."""
        return {var for var, _ in self._items}

    def as_dict(self) -> Dict[Variable, Term]:
        return dict(self._items)

    # -- value semantics -------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Binding) and other._items == self._items

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._items)
        return value

    def __repr__(self) -> str:
        inner = ", ".join(f"{var}={term!r}" for var, term in self._items)
        return f"{{{inner}}}"

    # -- SPARQL operations -------------------------------------------------
    def is_compatible(self, other: "Binding") -> bool:
        """Two mappings are compatible when they agree on shared variables."""
        if len(self._items) > len(other._items):
            return other.is_compatible(self)
        for var, term in self._items:
            other_term = other.get(var)
            if other_term is not None and other_term != term:
                return False
        return True


def _item_name(item: Tuple[Variable, Term]) -> str:
    return item[0].name


EMPTY_BINDING = Binding()


#: A solution as a plain tuple of terms aligned with a header (``None``: unbound).
Row = Tuple[Optional[Term], ...]


class CompatIndex:
    """Right-hand rows of a join-like operator, indexed for compatibility probes.

    A left and a right row are compatible iff they agree on the variables
    both bind.  The right rows are partitioned by which of their slots are
    bound, so for left rows with one bound set the shared variables are a
    constant per partition, every row of it binds them all, and
    "compatible" is exactly "equal on them": one hash lookup, the table
    built lazily per (partition, shared set).  A partition sharing nothing
    is compatible wholesale, so no mix of bound sets (UNION- or
    OPTIONAL-fed) needs a pairwise fallback.

    Both sides are tuples under headers fixed for one operator evaluation
    (matched by name); a merged row is the left row, its unbound shared
    slots filled from the right, then the right-only columns: aligned with
    :attr:`header`.  Join / OPTIONAL / GRAPH take :meth:`merged`, MINUS
    :meth:`excludes`; ``probes`` counts hash lookups.
    """

    __slots__ = ("header", "_shared", "_extra", "_partitions", "_plans", "probes")

    def __init__(
        self, left_header: Sequence[Variable], right_header: Sequence[Variable], rows: Iterable[Row]
    ) -> None:
        left_slot = {variable.name: position for position, variable in enumerate(left_header)}
        #: (left position, right position) of every variable both headers name.
        self._shared: List[Tuple[int, int]] = []
        extra: List[int] = []
        for position, variable in enumerate(right_header):
            left = left_slot.get(variable.name)
            if left is None:
                extra.append(position)
            else:
                self._shared.append((left, position))
        #: The merged rows' variables: the left header, then the right-only ones.
        self.header: Tuple[Variable, ...] = tuple(left_header) + tuple(
            right_header[position] for position in extra
        )
        self._extra = _columns(extra)
        full = tuple(range(len(right_header)))
        partitions: Dict[Tuple[int, ...], List[Tuple[int, Row]]] = {}
        mask: Optional[Tuple[int, ...]] = None
        members: List[Tuple[int, Row]] = []
        for member in enumerate(rows):
            row_mask = full if None not in member[1] else _bound(member[1])
            if row_mask != mask:
                mask = row_mask
                members = partitions.setdefault(mask, [])
            members.append(member)
        #: Per bound set: the (position, row) members in right-hand order and
        #: the hash tables built so far, keyed by the positions hashed.
        self._partitions = [(mask, members, {}) for mask, members in partitions.items()]
        self._plans: Dict[Optional[Tuple[int, ...]], list] = {}
        self.probes = 0

    def _plan(self, left: Row) -> list:
        """Per partition, how a left row with this bound set probes it.

        One ``(key_of, table, fills)`` per partition: ``key_of`` reads the
        shared values off the left row and ``table`` maps them to the
        partition's members — or ``None`` and all the members when nothing
        is shared; ``fills`` are the (left, right) positions of a variable
        the left row leaves unbound and the partition binds.
        """
        mask = None if None not in left else _bound(left)
        plan = self._plans.get(mask)
        if plan is None:
            bound = set(range(len(left))) if mask is None else set(mask)
            plan = self._plans[mask] = [
                self._probe_plan(bound, *partition) for partition in self._partitions
            ]
        return plan

    def _probe_plan(self, left_bound, right_bound, members, tables):
        """One entry of :meth:`_plan`; builds the hash table it needs."""
        right_bound = set(right_bound)
        shared = [(l, r) for l, r in self._shared if l in left_bound and r in right_bound]
        fills = [(l, r) for l, r in self._shared if l not in left_bound and r in right_bound]
        if not shared:
            return None, members, fills
        right_positions = tuple([r for _, r in shared])
        table = tables.get(right_positions)
        if table is None:
            table = tables[right_positions] = {}
            key_of = itemgetter(*right_positions)
            for member in members:
                table.setdefault(key_of(member[1]), []).append(member)
        return itemgetter(*[l for l, _ in shared]), table, fills

    def excludes(self, left: Row) -> bool:
        """MINUS: some row is compatible with ``left`` *and* shares a variable."""
        for key_of, table, _ in self._plan(left):
            if key_of is not None:
                self.probes += 1
                if key_of(left) in table:
                    return True
        return False

    def merged(self, left: Row) -> List[Row]:
        """``left`` merged with each compatible row, in right-hand order."""
        found = []
        for key_of, table, fills in self._plan(left):
            if key_of is None:
                members = table
            else:
                self.probes += 1
                members = table.get(key_of(left))
                if members is None:
                    continue
            found.append((members, fills))
        extra = self._extra
        if len(found) == 1:
            members, fills = found[0]
            return [(_filled(left, r, fills) if fills else left) + extra(r) for _, r in members]
        ordered = sorted(
            [(position, row, fills) for members, fills in found for position, row in members],
            key=_position,
        )
        return [
            (_filled(left, row, fills) if fills else left) + extra(row)
            for _, row, fills in ordered
        ]


_position = itemgetter(0)


def _bound(row: Row) -> Tuple[int, ...]:
    """The positions ``row`` binds."""
    return tuple([position for position, term in enumerate(row) if term is not None])


def _filled(left: Row, right: Row, fills: List[Tuple[int, int]]) -> Row:
    """``left`` with the ``(left, right)`` positions of ``fills`` copied from ``right``."""
    row = list(left)
    for position, source in fills:
        row[position] = right[source]
    return tuple(row)


def _columns(positions: Sequence[int]):
    """A function from a row to the tuple of its ``positions``."""
    if len(positions) == 1:
        return lambda row, position=positions[0]: (row[position],)
    return itemgetter(*positions) if positions else lambda row: ()


def distinct_rows(rows: Iterable) -> list:
    """The rows with duplicates removed, first occurrence kept (DISTINCT / REDUCED)."""
    return list(dict.fromkeys(rows))


def realign_rows(
    rows: Iterable[Row], layout: Sequence[Variable], header: Sequence[Variable]
) -> Iterable[Row]:
    """Tuples aligned with ``layout`` re-aligned with ``header`` by name
    (``None`` for a header variable ``layout`` lacks), lazily; ``rows``
    itself when the two agree."""
    if tuple(layout) == tuple(header):
        return rows
    slot = {variable.name: position for position, variable in enumerate(layout)}
    columns = [slot.get(variable.name) for variable in header]
    if None not in columns:
        return map(_columns(columns), rows)
    return (tuple([None if c is None else row[c] for c in columns]) for row in rows)


class SolutionSequence:
    """A header of variables plus the solutions as plain tuples aligned with it.

    The class is the common result type of every engine in this repository
    so the compliance framework can compare answers across systems.  The
    header (:attr:`variables`) is fixed once; every row is a tuple of terms
    in header order, ``None`` where the variable is unbound.  :meth:`rows`,
    ``len``, equality, :meth:`distinct` and :meth:`to_set` read the tuples;
    :attr:`bindings` (and iteration) builds one :class:`Binding` per row
    the first time a caller asks, and keeps them.
    """

    __slots__ = ("variables", "_rows", "_bindings")

    def __init__(self, variables: Iterable[Variable], rows: Iterable[Row]) -> None:
        """The sequence of ``rows``, tuples aligned with ``variables`` (a
        list is kept as it is: the caller hands it over)."""
        self.variables: List[Variable] = list(variables)
        self._rows: List[Row] = rows if type(rows) is list else list(rows)
        self._bindings: Optional[List[Binding]] = None

    @property
    def bindings(self) -> List[Binding]:
        """One :class:`Binding` per row, built on first use; unbound
        variables are absent from it."""
        if self._bindings is None:
            # One (variable, position) per name, in name order: no row sorts.
            first: Dict[str, Tuple[Variable, int]] = {}
            for position, variable in enumerate(self.variables):
                first.setdefault(variable.name, (variable, position))
            pairs = [first[name] for name in sorted(first)]
            from_sorted = Binding.from_sorted_items
            self._bindings = [
                from_sorted(
                    tuple([(variable, row[p]) for variable, p in pairs if row[p] is not None])
                )
                for row in self._rows
            ]
        return self._bindings

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.bindings)

    def __repr__(self) -> str:
        return f"SolutionSequence({len(self._rows)} rows, vars={self.variables})"

    def __eq__(self, other: object) -> bool:
        """Bag equality: the same header up to order and the same multiset of
        rows, aligned by variable name (row order is ignored)."""
        if not isinstance(other, SolutionSequence):
            return NotImplemented
        names = sorted(variable.name for variable in self.variables)
        if names != sorted(variable.name for variable in other.variables):
            return False
        theirs = realign_rows(other._rows, other.variables, self.variables)
        return Counter(self._rows) == Counter(theirs)

    def counter(self) -> Counter:
        """Return the multiset view of the rows, as bindings."""
        return Counter(self.bindings)

    def distinct(self) -> "SolutionSequence":
        """Return a copy with duplicate rows removed (first occurrence kept)."""
        return SolutionSequence(self.variables, distinct_rows(self._rows))

    def rows(self) -> List[Row]:
        """Return rows as tuples aligned with ``self.variables``."""
        return list(self._rows)

    def sorted_rows(self) -> List[Tuple[Optional[Term], ...]]:
        """Rows in a deterministic order (useful for tests and reports)."""
        return sorted(self._rows, key=lambda row: [term_sort_key(t) for t in row])

    def to_set(self) -> set:
        """Return the set of rows (ignoring duplicates)."""
        return set(self._rows)
