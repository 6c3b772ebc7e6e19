"""Compiled rule bodies: the register file and the steps a rule is lowered to.

:class:`repro.datalog.engine.DatalogEngine` orders a rule's body and then
lowers it here: variables become indexes into one register file (a plain
list), constants registers pre-filled with their ids in the base's
:class:`~repro.datalog.values.ValueTable`, and every body element one
*step* — a function that runs on the register file and calls the next step
once per solution it finds; the last step appends the head row to the
rule's batch (:func:`derive`), which the engine merges into the head
relation in one pass (:meth:`Relation.merge`).  Registers and
relation rows hold ids only: a tuple ID or labelled null is interned from
its functor and argument ids, and a value is decoded only by a filter's
register reader, a comparison and (in the engine) an aggregate's argument.
The value rules are not here: a filter compiles through
:mod:`repro.sparql.expressions`, a comparison of terms is
:func:`repro.sparql.functions.term_compare`, and the engine's aggregate
rules call :func:`repro.sparql.functions.aggregate`.  An index
key, the values an atom binds and the head tuple are all built by
``operator.itemgetter``, so the per-row work is tuple indexing over ints,
never a substitution dictionary.

A scan probes the index on the positions bound when it runs.  The body
ordering (:mod:`repro.datalog.order`) may also hand it a
:class:`KeyedAtom`: a FILTER in the body equates a variable the atom binds
with one bound before it (or a constant), and the same scan step then
probes on one more column — that value's
:meth:`~repro.datalog.values.ValueTable.equality_key` for ``=``, its id
for ``sameTerm`` —, against an index :class:`Relation` keeps like any
other.  The filter step after it still decides every row found.

Compiled rules are kept for as long as the base they were compiled on
(:class:`repro.datalog.engine.PreparedProgram`), so their size matters: a
step is a ``functools.partial`` over a module-level function — its
constants in one tuple — rather than a closure with a cell per constant,
and the getters thousands of steps share are made once.  What the scan
steps read is here too: a :class:`Relation`, whose index dictionaries a
compiled rule holds on to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datalog.rules import (
    Assignment,
    Atom,
    Comparison,
    FilterCondition,
    SkolemExpr,
)
from repro.datalog.terms import Var, ground_value
from repro.datalog.values import ValueTable
from repro.rdf.terms import Term as RdfTerm
from repro.sparql.expressions import compile_test
from repro.sparql.functions import ExpressionError, term_compare

Registers = List[object]
#: One compiled body element (or the head): runs on the register file and
#: calls the next step once per solution it finds.
Step = Callable[[Registers], None]
StepMaker = Callable[[Step], Step]
#: A compiled rule: calling it enumerates the body and derives the heads.
Plan = Callable[[], None]

#: The deadline is read once per this many body-atom probes (and once per
#: merged batch), never per row.
CLOCK_CADENCE = 4096

#: A rule's batch is merged when the rule run ends or holds this many rows,
#: so it never holds more; as ``max_facts`` is checked per merge, a run that
#: exceeds it has added at most this many facts beyond it when it raises.
BATCH = 4096


def getter(positions: Sequence[int]) -> Callable:
    """``itemgetter`` over ``positions``: a scalar for one, a tuple for more."""
    return _cached_getter(tuple(positions))


@lru_cache(maxsize=4096)
def _cached_getter(positions: Tuple[int, ...]) -> Callable:
    # Compiled rules are kept, and thousands of them take the same few columns.
    if not positions:
        return lambda _sequence: ()
    return itemgetter(*positions)


def tuple_getter(positions: Sequence[int]) -> Callable:
    """Like :func:`getter` but a 1-tuple for a single position."""
    if len(positions) == 1:
        return _cached_single(positions[0])
    return getter(positions)


@lru_cache(maxsize=4096)
def _cached_single(position: int) -> Callable:
    return lambda sequence: (sequence[position],)


def keyed_key(plain: Callable, keyed: Tuple[int, ...], key: Callable, sequence) -> tuple:
    """The values ``plain`` takes of ``sequence`` (a tuple), then ``key`` of
    the value at each of the ``keyed`` positions: the index key of a keyed
    scan, made alike from a row and from the register file."""
    return plain(sequence) + tuple([key(sequence[position]) for position in keyed])


GroundTuple = Tuple[object, ...]


class Relation:
    """The extension of one predicate: a set of id tuples plus indexes.

    The engine stores rows of value-table ids, so inserts and probes hash
    ints; the class itself takes any hashable rows.
    """

    __slots__ = ("tuples", "_indexes", "_distinct_cache")

    def __init__(self) -> None:
        self.tuples: Set[GroundTuple] = set()
        # positions -> (key getter, key -> rows); one position keys by the
        # bare value, several by the tuple of values.
        self._indexes: Dict[Tuple[int, ...], Tuple[Callable, Dict[object, List[GroundTuple]]]] = {}
        # position -> (relation size when computed, distinct count)
        self._distinct_cache: Dict[int, Tuple[int, int]] = {}

    def merge(self, rows: Sequence[GroundTuple], new: Optional[List[GroundTuple]] = None) -> int:
        """Insert a batch of rows; returns how many were new.

        ``new``, if given, gets the new rows, each once, in the order they
        came.  With no index to update and no ``new`` to fill, the batch
        goes in as one set update; otherwise one loop over it finds the new
        rows and one loop per index files them.
        """
        tuples = self.tuples
        size = len(tuples)
        if new is None and not self._indexes:
            tuples.update(rows)
            return len(tuples) - size
        fresh: List[GroundTuple] = []
        for row in rows:
            if row not in tuples:
                tuples.add(row)
                fresh.append(row)
        for key_of, index in self._indexes.values():
            for row in fresh:
                key = key_of(row)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
        if new is not None:
            new += fresh
        return len(fresh)

    def replace(self, rows: Iterable[GroundTuple]) -> None:
        """Make ``rows`` the whole extension, keeping the index objects.

        The semi-naive loop refills one delta relation per predicate every
        round; compiled rules hold on to its index dictionaries, so those
        are emptied and rebuilt in place.
        """
        tuples = set(rows)
        self._distinct_cache.clear()
        for key_of, index in self._indexes.values():
            index.clear()
            for row in tuples:
                index.setdefault(key_of(row), []).append(row)
        # Last: interrupted half-way (a timeout signal), the relation still
        # counts as filled and the next run empties it again.
        self.tuples = tuples

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[GroundTuple]:
        return iter(self.tuples)

    def index(
        self,
        positions: Tuple[int, ...],
        keyed: Tuple[int, ...] = (),
        key: Optional[Callable[[object], object]] = None,
    ) -> Dict[object, List[GroundTuple]]:
        """Return (building lazily) a hash index on the given positions.

        ``positions`` and ``keyed`` are ascending, and not both empty.  A
        row is keyed by its values at ``positions`` — the bare value for
        one position, their tuple for more — or, with ``keyed`` positions,
        by the tuple of those values followed by ``key`` of the value at
        each keyed position (:func:`keyed_key`; the engine's ``key`` is
        :meth:`ValueTable.equality_key
        <repro.datalog.values.ValueTable.equality_key>`).  The dictionary
        stays the same object for the life of the relation and is kept up
        to date by :meth:`merge`; no bucket is ever empty.
        """
        spec = (positions, keyed) if keyed else positions
        existing = self._indexes.get(spec)
        if existing is not None:
            return existing[1]
        if keyed:
            key_of = partial(keyed_key, tuple_getter(positions), keyed, key)
        else:
            key_of = getter(positions)
        index: Dict[object, List[GroundTuple]] = {}
        for row in self.tuples:
            index.setdefault(key_of(row), []).append(row)
        self._indexes[spec] = (key_of, index)
        return index

    def distinct_count(self, position: int) -> int:
        """Number of distinct values at ``position`` (cached per size).

        Used by the body-ordering cost model; the cache is invalidated by
        growth so estimates stay honest without rescanning on every call.
        """
        cached = self._distinct_cache.get(position)
        size = len(self.tuples)
        if cached is not None and cached[0] == size:
            return cached[1]
        count = len({row[position] for row in self.tuples if position < len(row)})
        self._distinct_cache[position] = (size, count)
        return count


class RegisterFile:
    """Compile-time register allocation for one rule.

    ``values`` is the register file the compiled steps run on, and every
    register holds an id of ``table``: register 0 holds the id of ``None``
    and stands for any variable that is never bound, every constant
    occurrence gets a register pre-filled with the constant's id, and a
    variable gets the next free register where the body first binds it.
    """

    __slots__ = ("values", "slots", "table")

    def __init__(self, table: ValueTable) -> None:
        self.values: Registers = [0]
        self.slots: Dict[Var, int] = {}
        self.table = table

    def bind(self, variable: Var) -> int:
        """Allocate the register of a variable bound from here on."""
        self.slots[variable] = slot = len(self.values)
        self.values.append(0)
        return slot

    def operand(self, term: object) -> int:
        """The register to read ``term`` from."""
        if isinstance(term, Var):
            return self.slots.get(term, 0)
        self.values.append(self.table.intern(ground_value(term)))
        return len(self.values) - 1


def step(function: Callable, *constants: object) -> StepMaker:
    """The maker of a step that is ``function(*constants, next_step, regs)``."""
    return partial(partial, function, *constants)


def link(makers: Sequence[StepMaker], last: Step, registers: RegisterFile) -> Plan:
    """Chain the steps back to front; the plan runs them on the register file."""
    chain = last
    for make in reversed(makers):
        chain = make(chain)
    return partial(chain, registers.values)


def derive(head: Callable, append: Callable, rows: List, flush: Callable, regs: Registers) -> None:
    """The last step of a rule: append the head row to the rule's batch
    (``rows``), merged by ``flush`` once it holds :data:`BATCH` rows."""
    append(head(regs))
    if len(rows) >= BATCH:
        flush()


@dataclass(frozen=True)
class KeyedAtom(Atom):
    """A positive atom of an ordered body that FILTER equalities key.

    Per entry of ``keys``, ``(position, operand, by_value)``: a top-level
    conjunct of a filter in the body says that the variable the atom binds
    at ``position`` equals ``operand`` — a variable bound before the atom,
    or a constant.  The scan then probes on that too: by
    :meth:`ValueTable.equality_key
    <repro.datalog.values.ValueTable.equality_key>` for SPARQL ``=``
    (``by_value``), by id for ``sameTerm``.  The filter still runs after
    the scan on every row it finds.  ``probe`` names the conjuncts.
    """

    keys: Tuple[Tuple[int, object, bool], ...] = ()
    probe: str = ""

    def __repr__(self) -> str:
        return f"{Atom.__repr__(self)}  probe[{self.probe}]"


def scan_step(
    atom: Atom,
    relation: Relation,
    registers: RegisterFile,
    snapshot: bool,
    tick: Callable[[], int],
    check_clock: Callable[[], None],
) -> StepMaker:
    """A positive atom: probe the index on its bound positions, bind the rest.

    A :class:`KeyedAtom` probes on its keyed positions too, and still binds
    their variables from the rows found: a ``sameTerm`` key is one more
    bound position, an ``=`` key a column of equality keys behind the
    bound positions' ids (:func:`keyed_key`).  ``snapshot``: a full batch
    may be merged into the very relation the scan walks.  ``tick`` counts
    probes; every :data:`CLOCK_CADENCE` of them ``check_clock`` runs.
    """
    bound: List[Tuple[int, int]] = []  # (position, register of its key)
    free_positions: List[int] = []
    free_variables: List[Var] = []
    # (position, earlier position) pairs of one variable within the atom.
    repeats: List[Tuple[int, int]] = []
    for position, argument in enumerate(atom.arguments):
        if not isinstance(argument, Var) or argument in registers.slots:
            bound.append((position, registers.operand(argument)))
        elif argument in free_variables:
            repeats.append((position, free_positions[free_variables.index(argument)]))
        else:
            free_positions.append(position)
            free_variables.append(argument)
    keyed: List[Tuple[int, int]] = []
    for position, operand, by_value in atom.keys if isinstance(atom, KeyedAtom) else ():
        (keyed if by_value else bound).append((position, registers.operand(operand)))
    bound.sort()
    bound_positions = tuple(position for position, _ in bound)
    key_slots = [slot for _, slot in bound]
    # The atom's new variables get adjacent registers: one slice write.
    low = len(registers.values)
    for variable in free_variables:
        registers.bind(variable)
    high = len(registers.values)
    # The index is asked for when the step first runs: most steps of a
    # rule that finds nothing are never reached.
    if keyed:
        keyed_positions = tuple(position for position, _ in keyed)
        key = registers.table.equality_key
        source = [None, relation, bound_positions, snapshot, keyed_positions, key]
        key_of = partial(
            keyed_key, tuple_getter(key_slots), tuple(slot for _, slot in keyed), key
        )
    else:
        source = [None, relation, bound_positions, snapshot, (), None]
        key_of = getter(key_slots)
    common = (source, key_of, tick, check_clock)
    if repeats:
        return step(_scan_repeats, *common, repeats, low, high, tuple_getter(free_positions))
    if not free_positions:
        return step(_scan_member, *common)
    if len(free_positions) == 1:
        return step(_scan_one, *common, low, free_positions[0])
    return step(_scan_many, *common, low, high, tuple_getter(free_positions))


def _lookup(source: List) -> Callable:
    """``key -> candidate rows`` (falsy when there are none) of a scan.

    ``source`` is ``[lookup or None, relation, positions, snapshot, keyed
    positions, key]`` (:meth:`Relation.index`); the lookup is made — the
    index built — on first use and kept in place.
    """
    _, relation, positions, snapshot, keyed, key = source
    if positions or keyed:
        lookup = relation.index(positions, keyed, key).get
    elif snapshot:
        # A full batch may be merged into the set while it is walked.
        def lookup(_key):
            return tuple(relation.tuples)
    else:
        def lookup(_key):
            return relation.tuples
    source[0] = lookup
    return lookup


def _scan_repeats(
    source, key_of, tick, check_clock, repeats, low, high, take, next_step, regs
) -> None:
    """A positive atom with a variable at several free positions."""
    lookup = source[0] or _lookup(source)
    if not tick() % CLOCK_CADENCE:
        check_clock()
    for row in lookup(key_of(regs)) or ():
        for position, earlier in repeats:
            if row[position] != row[earlier]:
                break
        else:
            regs[low:high] = take(row)
            next_step(regs)


def _scan_member(source, key_of, tick, check_clock, next_step, regs) -> None:
    """A positive atom that binds nothing: is there such a row?"""
    lookup = source[0] or _lookup(source)
    if not tick() % CLOCK_CADENCE:
        check_clock()
    if lookup(key_of(regs)):
        next_step(regs)


def _scan_one(source, key_of, tick, check_clock, low, only, next_step, regs) -> None:
    """A positive atom with one free position."""
    lookup = source[0] or _lookup(source)
    if not tick() % CLOCK_CADENCE:
        check_clock()
    rows = lookup(key_of(regs))
    if rows:
        for row in rows:
            regs[low] = row[only]
            next_step(regs)


def _scan_many(source, key_of, tick, check_clock, low, high, take, next_step, regs) -> None:
    """A positive atom with several free positions: adjacent registers, one slice write."""
    lookup = source[0] or _lookup(source)
    if not tick() % CLOCK_CADENCE:
        check_clock()
    rows = lookup(key_of(regs))
    if rows:
        for row in rows:
            regs[low:high] = take(row)
            next_step(regs)


def negation_step(atom: Atom, relation: Relation, registers: RegisterFile) -> StepMaker:
    """``not atom``: no row agrees on the bound positions (others are existential)."""
    positions: List[int] = []
    key_slots: List[int] = []
    for position, argument in enumerate(atom.arguments):
        if not isinstance(argument, Var) or argument in registers.slots:
            positions.append(position)
            key_slots.append(registers.operand(argument))
    return step(
        _scan_absent, [None, relation, tuple(positions), False, (), None], getter(key_slots)
    )


def _scan_absent(source, key_of, next_step, regs) -> None:
    lookup = source[0] or _lookup(source)
    if not lookup(key_of(regs)):
        next_step(regs)


def comparison_step(comparison: Comparison, registers: RegisterFile) -> StepMaker:
    return step(
        _compare,
        registers.table.value,
        comparison.operator,
        registers.operand(comparison.left),
        registers.operand(comparison.right),
    )


def _compare(
    value: Callable, operator: str, left: int, right: int, next_step: Step, regs: Registers
) -> None:
    first, second = value(regs[left]), value(regs[right])
    # None is an unbound variable: the comparison fails.
    if first is not None and second is not None and compare_values(operator, first, second):
        next_step(regs)


def skolem_step(
    table: ValueTable, functor: str, argument_slots: Sequence[int], target: int
) -> StepMaker:
    """``target := functor(arguments)`` for a variable not bound before."""
    return step(_bind_skolem, table.skolem, functor, tuple_getter(argument_slots), target)


def _bind_skolem(
    skolem: Callable,
    functor: str,
    arguments: Callable,
    target: int,
    next_step: Step,
    regs: Registers,
) -> None:
    regs[target] = skolem(functor, arguments(regs))
    next_step(regs)


def assignment_step(assignment: Assignment, registers: RegisterFile) -> StepMaker:
    expression = assignment.expression
    bound = assignment.variable in registers.slots
    if isinstance(expression, SkolemExpr):
        slots = [registers.operand(argument) for argument in expression.arguments]
        if not bound:
            return skolem_step(
                registers.table, expression.functor, slots, registers.bind(assignment.variable)
            )
        value_of = partial(
            _skolem_of, registers.table.skolem, expression.functor, tuple_getter(slots)
        )
    else:
        value_of = getter([registers.operand(expression)])
    if bound:
        return step(_check_value, registers.slots[assignment.variable], value_of)
    return step(_bind_value, registers.bind(assignment.variable), value_of)


def _skolem_of(skolem: Callable, functor: str, arguments: Callable, regs: Registers) -> int:
    return skolem(functor, arguments(regs))


def _check_value(target: int, value_of: Callable, next_step: Step, regs: Registers) -> None:
    if regs[target] == value_of(regs):
        next_step(regs)


def _bind_value(target: int, value_of: Callable, next_step: Step, regs: Registers) -> None:
    regs[target] = value_of(regs)
    next_step(regs)


def filter_step(condition: FilterCondition, registers: RegisterFile) -> StepMaker:
    """An embedded SPARQL filter, compiled once over the register file.  A
    variable reads the value of its register's id; the expression compiler
    takes a value that is no RDF term (a tuple ID or labelled null, a
    variable never bound in the body: register 0) as unbound."""
    slot_of = {
        variable: registers.slots[datalog_variable]
        for variable, datalog_variable in condition.variable_map
        if datalog_variable in registers.slots
    }
    values = registers.table.values

    def reader(variable) -> Callable[[Registers], object]:
        slot = slot_of.get(variable, 0)
        return lambda regs: values[regs[slot]]

    return step(_filter, compile_test(condition.expression, reader))


def _filter(test: Callable[[Registers], bool], next_step: Step, regs: Registers) -> None:
    try:
        passed = test(regs)
    except ExpressionError:  # FILTER reads an error as false
        return
    if passed:
        next_step(regs)


def compare_values(operator: str, left: object, right: object) -> bool:
    """Compare two ground Datalog values with SPARQL-aware semantics."""
    if isinstance(left, RdfTerm) and isinstance(right, RdfTerm):
        try:
            return term_compare(operator, left, right)
        except ExpressionError:
            return False
    if operator == "=":
        return left == right
    if operator == "!=":
        return left != right
    try:
        if operator == "<":
            return left < right
        if operator == "<=":
            return left <= right
        if operator == ">":
            return left > right
        if operator == ">=":
            return left >= right
    except TypeError:
        return False
    raise ValueError(f"unknown comparison operator {operator!r}")
