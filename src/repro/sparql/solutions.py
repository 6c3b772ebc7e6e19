"""Solution mappings and solution sequences.

A *solution mapping* (binding) assigns RDF terms to a subset of the query
variables.  The result of evaluating a graph pattern is a *multiset* of
solution mappings; after solution modifiers are applied it becomes a
sequence.  :class:`Binding` is an immutable, hashable mapping so bindings
can be counted, deduplicated and compared across engines; the walk's
operators pair them.  A result, :class:`SolutionSequence`, is a header
plus plain term tuples: a ``Binding`` per row is built only on request.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.terms import Term, Variable, term_sort_key


class Binding:
    """An immutable solution mapping from variables to RDF terms.

    Unbound variables are simply absent; the SPARQL compatibility relation
    and OPTIONAL semantics are expressed in terms of the *domain* of the
    mapping.  The items are kept sorted by variable name, which is what
    equality and hashing rely on; the hash is computed on first use, so a
    row that is never counted or deduplicated never pays for it.
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
        fixes its variable order once per pattern (the executors, the path
        engines, the compatibility index) builds every row through here.
        The caller guarantees sortedness and distinct variables;
        equality/hashing rely on it.
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

    def merge(self, other: "Binding") -> "Binding":
        """Union of two compatible mappings (``self`` wins a shared variable)."""
        mine, theirs = self._items, other._items
        if not theirs:
            return self
        if not mine:
            return other
        if mine[-1][0].name < theirs[0][0].name:
            return Binding.from_sorted_items(mine + theirs)
        if theirs[-1][0].name < mine[0][0].name:
            return Binding.from_sorted_items(theirs + mine)
        merged: List[Tuple[Variable, Term]] = []
        position, end = 0, len(theirs)
        for item in mine:
            name = item[0].name
            while position < end and theirs[position][0].name < name:
                merged.append(theirs[position])
                position += 1
            if position < end and theirs[position][0].name == name:
                position += 1
            merged.append(item)
        merged.extend(theirs[position:])
        return Binding.from_sorted_items(tuple(merged))

    def extend(self, variable: Variable, term: Term) -> "Binding":
        """Return a new mapping with one extra (or replaced) assignment."""
        items = self._items
        name = variable.name
        position = 0
        for var, _ in items:
            if var.name >= name:
                break
            position += 1
        replaced = position < len(items) and items[position][0].name == name
        return Binding.from_sorted_items(
            items[:position] + ((variable, term),) + items[position + replaced:]
        )


def _item_name(item: Tuple[Variable, Term]) -> str:
    return item[0].name


EMPTY_BINDING = Binding()


class CompatIndex:
    """Right-hand rows of a join-like operator, indexed for compatibility probes.

    SPARQL pairs solution multisets by *compatibility*: a left row ``l``
    and a right row ``r`` are compatible iff they agree on ``dom(l) ∩
    dom(r)`` (an unbound variable constrains nothing).  The rows are
    partitioned by their domain, so against left rows of one domain the
    shared set is a constant per partition, every row of the partition
    binds all of it, and "compatible" is exactly "equal on the shared
    variables": one hash lookup, built lazily per (partition, shared set)
    the first time a left row of that domain arrives.  A partition that
    shares nothing with the left row is compatible wholesale.  That holds
    for any mix of domains on either side (UNION- or OPTIONAL-fed), so
    there is no pairwise fallback.

    The three operators read it differently: join / OPTIONAL / GRAPH take
    :meth:`merged`, MINUS takes :meth:`excludes`.  ``probes`` counts hash
    lookups.  An index serves one operator evaluation and is dropped.
    """

    __slots__ = ("_partitions", "_plans", "_last_domain", "_last_plan", "probes")

    def __init__(self, rows: Iterable[Binding]) -> None:
        partitions: Dict[Tuple[Variable, ...], List[Tuple[int, Binding]]] = {}
        domain: Optional[Tuple[Variable, ...]] = None
        members: List[Tuple[int, Binding]] = []
        for member in enumerate(rows):
            row_domain = tuple([var for var, _ in member[1]._items])
            # Consecutive rows mostly come from one producer and carry the
            # same Variable objects: the comparison is settled by identity.
            if row_domain != domain:
                domain = row_domain
                members = partitions.setdefault(domain, [])
            members.append(member)
        #: Per domain: the (position, row) members in right-hand order and
        #: the hash tables built so far, keyed by the positions hashed.
        self._partitions = [
            (domain, members, {}) for domain, members in partitions.items()
        ]
        self._plans: Dict[Tuple[Variable, ...], list] = {}
        self._last_domain: Optional[Tuple[Variable, ...]] = None
        self._last_plan: list = []
        self.probes = 0

    def _plan(self, items: Tuple[Tuple[Variable, Term], ...]) -> list:
        """Per partition, how a left row with these items probes it.

        One ``(key_positions, table)`` per partition: ``key_positions``
        index the left items holding the shared variables and ``table``
        maps their values to the partition's members — or ``None`` and
        all the members when nothing is shared.
        """
        domain = tuple([var for var, _ in items])
        if domain == self._last_domain:
            return self._last_plan
        plan = self._plans.get(domain)
        if plan is None:
            plan = self._plans[domain] = [
                _probe_plan(domain, *partition) for partition in self._partitions
            ]
        self._last_domain, self._last_plan = domain, plan
        return plan

    def excludes(self, left: Binding) -> bool:
        """MINUS: some row is compatible with ``left`` *and* shares a variable."""
        items = left._items
        for key_positions, table in self._plan(items):
            if key_positions is not None:
                self.probes += 1
                if tuple([items[position][1] for position in key_positions]) in table:
                    return True
        return False

    def merged(self, left: Binding) -> List[Binding]:
        """``left`` merged with each compatible row, in right-hand order."""
        items = left._items
        found: List[Tuple[int, Binding]] = []
        hits = 0
        for key_positions, table in self._plan(items):
            if key_positions is None:
                members = table
            else:
                self.probes += 1
                members = table.get(
                    tuple([items[position][1] for position in key_positions])
                )
                if members is None:
                    continue
            hits += 1
            found.extend(members)
        if hits > 1:
            found.sort(key=_position)
        return [left.merge(row) for _, row in found]


_position = itemgetter(0)


def _probe_plan(
    left_domain: Tuple[Variable, ...],
    right_domain: Tuple[Variable, ...],
    members: List[Tuple[int, Binding]],
    tables: Dict[Tuple[int, ...], Dict[Tuple[Term, ...], List[Tuple[int, Binding]]]],
):
    """One entry of :meth:`CompatIndex._plan`; builds the hash table it needs."""
    shared = [var for var in left_domain if var in right_domain]
    if not shared:
        return None, members
    right_positions = tuple([right_domain.index(var) for var in shared])
    table = tables.get(right_positions)
    if table is None:
        table = tables[right_positions] = {}
        for member in members:
            row_items = member[1]._items
            key = tuple([row_items[position][1] for position in right_positions])
            table.setdefault(key, []).append(member)
    return tuple([left_domain.index(var) for var in shared]), table


def distinct_rows(rows: Iterable) -> list:
    """The rows with duplicates removed, first occurrence kept (DISTINCT / REDUCED)."""
    return list(dict.fromkeys(rows))


#: A solution as a plain tuple of terms aligned with a header (``None``: unbound).
Row = Tuple[Optional[Term], ...]


def project_rows(header: Sequence[Variable], bindings: Iterable[Binding]) -> List[Row]:
    """``bindings`` projected onto ``header``, one tuple each.

    Variables are matched by name, so no row hashes a :class:`Variable`.
    """
    slot = {variable.name: position for position, variable in enumerate(header)}
    blank = [None] * len(header)
    rows: List[Row] = []
    for binding in bindings:
        row = blank.copy()
        for variable, term in binding._items:
            position = slot.get(variable.name)
            if position is not None:
                row[position] = term
        rows.append(tuple(row))
    return rows


def realign_rows(
    rows: List[Row], layout: Sequence[Variable], header: Sequence[Variable]
) -> List[Row]:
    """Tuples aligned with ``layout`` re-aligned with ``header`` (``None``
    for a header variable ``layout`` lacks); ``rows`` itself when the two agree."""
    if tuple(layout) == tuple(header):
        return rows
    slot = {variable.name: position for position, variable in enumerate(layout)}
    columns = [slot.get(variable.name) for variable in header]
    if len(columns) > 1 and None not in columns:
        return list(map(itemgetter(*columns), rows))
    return [tuple([None if c is None else row[c] for c in columns]) for row in rows]


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

    def __init__(
        self,
        variables: Iterable[Variable],
        bindings: Iterable[Binding],
    ) -> None:
        self.variables: List[Variable] = list(variables)
        self._rows: List[Row] = project_rows(self.variables, bindings)
        self._bindings: Optional[List[Binding]] = None

    @classmethod
    def from_rows(cls, variables: Iterable[Variable], rows: List[Row]) -> "SolutionSequence":
        """The sequence of ``rows``, tuples already aligned with ``variables``
        (kept as they are: the caller hands the list over)."""
        sequence = object.__new__(cls)
        sequence.variables = list(variables)
        sequence._rows = rows
        sequence._bindings = None
        return sequence

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
        return SolutionSequence.from_rows(self.variables, distinct_rows(self._rows))

    def rows(self) -> List[Row]:
        """Return rows as tuples aligned with ``self.variables``."""
        return list(self._rows)

    def sorted_rows(self) -> List[Tuple[Optional[Term], ...]]:
        """Rows in a deterministic order (useful for tests and reports)."""
        return sorted(self._rows, key=lambda row: [term_sort_key(t) for t in row])

    def to_set(self) -> set:
        """Return the set of rows (ignoring duplicates)."""
        return set(self._rows)
