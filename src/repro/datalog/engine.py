"""Bottom-up evaluation of Datalog± programs, semi-naive where recursive.

The engine materialises the extension of every predicate, one strongly
connected component of the dependency graph after the other (the finest
stratification).  A component without recursion runs each of its rules
exactly once; a recursive one is evaluated with the semi-naive (delta)
technique.  Negated atoms, comparisons, assignments and embedded filter
conditions are evaluated as soon as their variables are bound.  A program
that declares ``@output`` predicates — T_Q always does — is first
rewritten by :func:`repro.datalog.optimise.unfold`, so that what is
evaluated is a few multi-atom joins rather than one materialised relation
per algebra operator.

Rules are *compiled once per component*: after :meth:`DatalogEngine._order_body`
has fixed the body order from the live relation sizes, every rule is
lowered to a chain of closures over one register file (a plain list).
Variables become register indexes and constants pre-filled registers, so
an index key, the values an atom binds and the head tuple are all built
by ``operator.itemgetter`` — the per-row work is tuple indexing, never a
substitution dictionary.

The evaluated state is a :class:`Materialisation` (relations with their
lazily built hash indexes, plus the fact count).  A program can be
evaluated *on top of* a materialisation: the base relations are shared,
never written, and keep their indexes between evaluations — which is how
the SparqLog engine closes a dataset's T_D program once and then runs
only the query rules per query.

Existential head variables are instantiated with Skolem terms over the
frontier variables, which is exactly the abstraction the paper adopts for
its duplicate-preservation model (labelled nulls represented as Skolem
terms, Appendix C).
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datalog.rules import (
    AggregateRule,
    AggregateSpec,
    Assignment,
    Atom,
    BodyElement,
    Comparison,
    FilterCondition,
    Negation,
    Program,
    Rule,
    SkolemExpr,
)
from repro.datalog.optimise import unfold
from repro.datalog.stratify import components
from repro.datalog.terms import SkolemTerm, Var, ground_value
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.rdf.terms import Literal, Term as RdfTerm, term_sort_key
from repro.sparql.expressions import (
    Comparison as FilterComparison,
    TermExpr,
    VariableExpr,
    satisfies,
)
from repro.sparql.functions import ExpressionError, term_compare
from repro.sparql.physical import select_cheapest
from repro.sparql.solutions import Binding


class EvaluationLimitExceeded(RuntimeError):
    """Raised when the fact limit or the wall-clock timeout is exceeded."""


GroundTuple = Tuple[object, ...]
Registers = List[object]
#: One compiled body element (or the head): runs on the register file and
#: calls the next step once per solution it finds.
Step = Callable[[Registers], None]
StepMaker = Callable[[Step], Step]
#: A compiled rule: calling it enumerates the body and derives the heads.
Plan = Callable[[], None]

#: The deadline is read once per this many body-atom probes (and once per
#: this many derived facts), never per row.
_CLOCK_CADENCE = 4096


def _getter(positions: Sequence[int]) -> Callable:
    """``itemgetter`` over ``positions``: a scalar for one, a tuple for more."""
    if not positions:
        return lambda _sequence: ()
    return itemgetter(*positions)


def _tuple_getter(positions: Sequence[int]) -> Callable:
    """Like :func:`_getter` but a 1-tuple for a single position."""
    if len(positions) == 1:
        (position,) = positions
        return lambda sequence: (sequence[position],)
    return _getter(positions)


class Relation:
    """The extension of one predicate: a set of ground tuples plus indexes."""

    __slots__ = ("tuples", "_indexes", "_distinct_cache")

    def __init__(self) -> None:
        self.tuples: Set[GroundTuple] = set()
        # positions -> (key getter, key -> rows); one position keys by the
        # bare value, several by the tuple of values.
        self._indexes: Dict[Tuple[int, ...], Tuple[Callable, Dict[object, List[GroundTuple]]]] = {}
        # position -> (relation size when computed, distinct count)
        self._distinct_cache: Dict[int, Tuple[int, int]] = {}

    def add(self, row: GroundTuple) -> bool:
        """Insert a row; returns True when the row is new."""
        tuples = self.tuples
        size = len(tuples)
        tuples.add(row)
        if len(tuples) == size:
            return False
        for key_of, index in self._indexes.values():
            key = key_of(row)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
        return True

    def replace(self, rows: Iterable[GroundTuple]) -> None:
        """Make ``rows`` the whole extension, keeping the index objects.

        The semi-naive loop refills one delta relation per predicate every
        round; compiled rules hold on to its index dictionaries, so those
        are emptied and rebuilt in place.
        """
        self.tuples = tuples = set(rows)
        self._distinct_cache.clear()
        for key_of, index in self._indexes.values():
            index.clear()
            for row in tuples:
                index.setdefault(key_of(row), []).append(row)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[GroundTuple]:
        return iter(self.tuples)

    def index(self, positions: Tuple[int, ...]) -> Dict[object, List[GroundTuple]]:
        """Return (building lazily) a hash index on the given positions.

        ``positions`` is non-empty and ascending.  The dictionary stays the
        same object for the life of the relation and is kept up to date by
        :meth:`add`; no bucket is ever empty.
        """
        existing = self._indexes.get(positions)
        if existing is not None:
            return existing[1]
        key_of = _getter(positions)
        index: Dict[object, List[GroundTuple]] = {}
        for row in self.tuples:
            index.setdefault(key_of(row), []).append(row)
        self._indexes[positions] = (key_of, index)
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


class Materialisation:
    """An evaluated program: its relations and how many facts they hold.

    ``relations`` has an entry for every predicate the evaluated program
    mentions (defined or only read).  Used as the ``base`` of a further
    evaluation, the relations are shared — read, indexed, never written —
    and ``fact_count`` carries over, so ``max_facts`` bounds base plus
    overlay exactly as it bounds one program evaluated in one go.
    """

    __slots__ = ("relations", "fact_count")

    def __init__(self, relations: Dict[str, Relation], fact_count: int) -> None:
        self.relations = relations
        self.fact_count = fact_count

    def tuples(self) -> Dict[str, Set[GroundTuple]]:
        """Predicate -> set of ground tuples (the sets are live, not copies)."""
        return {predicate: relation.tuples for predicate, relation in self.relations.items()}


_EMPTY = Materialisation({}, 0)


class DatalogEngine:
    """Evaluator producing the full materialisation of a program."""

    def __init__(
        self,
        max_facts: int = 5_000_000,
        timeout_seconds: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.max_facts = max_facts
        self.timeout_seconds = timeout_seconds
        #: Optional span tracer: one ``datalog.unfold`` span per rewritten
        #: program, one ``datalog.stratum`` span per evaluated component.
        self.tracer = tracer
        self._deadline: Optional[float] = None
        self._fact_count = 0
        self._probe_tick: Callable[[], int] = itertools.count(1).__next__
        #: Semi-naive delta rounds executed across every recursive component
        #: of the last evaluation — an observability counter (the metrics
        #: registry reads it through a callback), not a limit.
        self.fixpoint_iterations = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(
        self, program: Program, base: Materialisation = _EMPTY
    ) -> Dict[str, Set[GroundTuple]]:
        """Evaluate the program and return predicate -> set of ground tuples.

        With ``base``, the program runs on top of that materialisation and
        the result covers both.
        """
        return self.materialise(program, base).tuples()

    def materialise(self, program: Program, base: Materialisation = _EMPTY) -> Materialisation:
        """Evaluate ``program`` on top of ``base`` and keep the evaluated state.

        The program may read the base's predicates but not define them
        (``ValueError``): the base is closed under its own rules, and a new
        fact below them would leave it stale.

        A program with ``@output`` directives has named its answer, so it
        is unfolded first (:func:`repro.datalog.optimise.unfold`): the
        output predicates come out tuple for tuple as written, predicates
        the rewrite replaced by their bodies are not materialised at all.
        A program without directives is evaluated exactly as written.
        """
        self._deadline = (
            time.monotonic() + self.timeout_seconds
            if self.timeout_seconds is not None
            else None
        )
        self._fact_count = base.fact_count
        self.fixpoint_iterations = 0
        tracer = self.tracer

        defined = {fact.predicate for fact in program.facts}
        defined.update(rule.head.predicate for rule in program.rules)
        defined.update(rule.head.predicate for rule in program.aggregate_rules)
        clash = defined & base.relations.keys()
        if clash:
            raise ValueError(
                f"program defines predicates of its base materialisation: {sorted(clash)}"
            )

        keep = program.output_predicates()
        if keep:
            # The program says which predicates are its answer: the others
            # need not exist, and chains of them are evaluated as one join.
            span = tracer.span("datalog.unfold", "datalog") if tracer is not None else NULL_SPAN
            with span:
                written, program = program, unfold(program, keep)
                if tracer is not None:
                    remaining = {rule.head.predicate for rule in program.rules}
                    heads = dict.fromkeys(rule.head.predicate for rule in written.rules)
                    span.annotate(
                        rules_before=len(written.rules),
                        rules_after=len(program.rules),
                        unfolded=[head for head in heads if head not in remaining],
                    )

        rules_by_head: Dict[str, List[Rule]] = defaultdict(list)
        for rule in program.rules:
            rules_by_head[rule.head.predicate].append(rule)
        aggregates_by_head: Dict[str, List[AggregateRule]] = defaultdict(list)
        for aggregate_rule in program.aggregate_rules:
            aggregates_by_head[aggregate_rule.head.predicate].append(aggregate_rule)

        relations: Dict[str, Relation] = dict(base.relations)
        # An output predicate whose every rule the rewrite found unsatisfiable
        # is mentioned nowhere any more; it is empty, not absent.
        for predicate in (*program.predicates(), *keep):
            if predicate not in relations:
                relations[predicate] = Relation()
        for fact in program.facts:
            values = tuple(ground_value(argument) for argument in fact.arguments)
            if relations[fact.predicate].add(values):
                self._count_fact()

        for component in components(program):
            rules = [
                rule
                for predicate in component.predicates
                for rule in rules_by_head.get(predicate, ())
            ]
            aggregates = [
                aggregate_rule
                for predicate in component.predicates
                for aggregate_rule in aggregates_by_head.get(predicate, ())
            ]
            if not rules and not aggregates:
                continue
            span = tracer.span("datalog.stratum", "datalog") if tracer is not None else NULL_SPAN
            with span:
                self._check_limits()
                rounds, facts = self.fixpoint_iterations, self._fact_count
                # Everything read from outside the component is complete, so
                # every body is ordered before anything runs.  Aggregate
                # rules read strictly below their component.
                volatile = component.predicates if component.recursive else ()
                aggregate_bodies = [self._order_body(rule.body, relations) for rule in aggregates]
                bodies = [self._order_body(rule.body, relations, volatile) for rule in rules]
                for aggregate_rule, (body, _) in zip(aggregates, aggregate_bodies):
                    self._evaluate_aggregate_rule(aggregate_rule, body, relations)
                ordered = [(rule, body) for rule, (body, _) in zip(rules, bodies)]
                if component.recursive:
                    self._fixpoint(ordered, relations)
                else:
                    # No rule reads what another derives here: one pass each.
                    for rule, body in ordered:
                        self._compile_rule(rule, body, relations)()
                if tracer is not None:
                    span.annotate(
                        predicates=sorted(component.predicates),
                        recursive=component.recursive,
                        rules=len(aggregates) + len(rules),
                        rounds=self.fixpoint_iterations - rounds,
                        derived=self._fact_count - facts,
                        plans=[
                            {
                                "head": repr(rule.head),
                                "body": [list(pair) for pair in zip(map(repr, body), estimates)],
                            }
                            for rule, (body, estimates) in zip(
                                (*aggregates, *rules), (*aggregate_bodies, *bodies)
                            )
                        ],
                    )
        return Materialisation(relations, self._fact_count)

    # ------------------------------------------------------------------
    # fixpoint computation
    # ------------------------------------------------------------------
    def _fixpoint(
        self,
        rules: Sequence[Tuple[Rule, List[BodyElement]]],
        relations: Dict[str, Relation],
    ) -> None:
        """Semi-naive evaluation of a recursive component's ordered rules."""
        # Per head predicate the rows derived in the running round; per
        # recursive predicate the previous round's rows as a relation of
        # their own, refilled in place so each delta plan is compiled once
        # (when its delta is first non-empty: most never are).
        fresh: Dict[str, List[GroundTuple]] = {rule.head.predicate: [] for rule, _ in rules}
        deltas: Dict[str, Relation] = defaultdict(Relation)
        plans: List[Plan] = []
        delta_plans: List[Tuple[Relation, Plan]] = []

        def compiled_on_first_run(*arguments) -> Plan:
            plan: Optional[Plan] = None

            def run() -> None:
                nonlocal plan
                if plan is None:
                    plan = self._compile_rule(*arguments)
                plan()

            return run

        for rule, body in rules:
            derived = fresh[rule.head.predicate]
            plans.append(self._compile_rule(rule, body, relations, fresh, derived))
            for position, element in enumerate(body):
                if isinstance(element, Atom) and element.predicate in fresh:
                    delta = deltas[element.predicate]
                    plan = compiled_on_first_run(
                        rule, body, relations, fresh, derived, position, delta
                    )
                    delta_plans.append((delta, plan))

        # Initial round: evaluate every rule against the full relations.
        for plan in plans:
            plan()
        while any(fresh.values()):
            self.fixpoint_iterations += 1
            self._check_limits()
            for predicate, rows in fresh.items():
                if predicate in deltas:
                    deltas[predicate].replace(rows)
                rows.clear()
            for delta, plan in delta_plans:
                if delta.tuples:
                    plan()

    def _order_body(
        self,
        body: Sequence[BodyElement],
        relations: Dict[str, Relation],
        volatile: Sequence[str] = (),
    ) -> Tuple[List[BodyElement], List[Optional[float]]]:
        """Greedy sideways-information-passing order for body evaluation.

        Returns the ordered body and, for every positive atom in it, the
        estimate it was chosen on (``None`` for the other elements).

        Negations, comparisons, assignments and filters are placed as soon
        as their input variables are bound — before the next atom is
        chosen, so a selection never waits behind a join.  Positive atoms
        are then ordered by estimated candidate count: the rows agreeing
        with the atom's constants (:func:`_matching_rows`), divided by the
        distinct count of every position a bound variable fixes — the
        independence model of the SPARQL BGP planner.  Predicates in
        ``volatile`` (the heads of a recursive component, whose extensions
        grow during the fixpoint) are priced pessimistically so stable
        atoms bind variables first.  Ties are broken by source position,
        keeping ordering deterministic.
        """
        pending = list(body)
        ordered: List[BodyElement] = []
        estimates: List[Optional[float]] = []
        bound: Set[Var] = set()
        # Per stable atom the rows agreeing with its constants; what the
        # variables bound so far leave of them is worked out per choice.
        matching = {
            id(element): _matching_rows(element, relations[element.predicate])
            for element in pending
            if isinstance(element, Atom) and element.predicate not in volatile
        }
        # A recursive predicate's extension grows during the fixpoint, so
        # it is priced above every stable relation.
        ceiling = sum(len(relation) for relation in relations.values()) + 1.0 if volatile else 0.0

        def estimate(atom: Atom) -> float:
            rows = matching.get(id(atom))
            if rows is None:
                return ceiling
            if rows:
                relation = relations[atom.predicate]
                for position, argument in enumerate(atom.arguments):
                    if isinstance(argument, Var) and argument in bound:
                        rows /= max(1, relation.distinct_count(position))
            return rows

        while pending:
            placed = True
            while placed:
                placed = False
                for element in pending:
                    if isinstance(element, Atom):
                        continue
                    if isinstance(element, Assignment):
                        required = element.input_variables()
                    else:
                        required = element.variables()
                    if required <= bound:
                        ordered.append(element)
                        estimates.append(None)
                        if isinstance(element, Assignment):
                            bound.add(element.variable)
                        pending.remove(element)
                        placed = True
                        break
            atoms = [element for element in pending if isinstance(element, Atom)]
            if not atoms:
                # What is left waits for a variable nothing binds: it runs
                # on whatever bindings exist (unbound comparisons fail,
                # matching safe-rule expectations).
                ordered.extend(pending)
                estimates.extend([None] * len(pending))
                break
            # Atom choice goes through the shared greedy-ordering helper of
            # the physical layer — the same cost-first, source-position-tie
            # rule the BGP planner lowers with.
            costs = [estimate(atom) for atom in atoms]
            position, best = select_cheapest(
                list(enumerate(atoms)), lambda item: costs[item[0]], itemgetter(0)
            )
            ordered.append(best)
            estimates.append(costs[position])
            bound |= best.variables()
            pending.remove(best)
        return ordered, estimates

    # ------------------------------------------------------------------
    # rule compilation
    # ------------------------------------------------------------------
    def _compile_rule(
        self,
        rule: Rule,
        body: Sequence[BodyElement],
        relations: Dict[str, Relation],
        growing: Iterable[str] = (),
        derived: Optional[List[GroundTuple]] = None,
        delta_position: int = -1,
        delta: Optional[Relation] = None,
    ) -> Plan:
        """Lower ``rule`` with its ordered ``body`` to a callable plan.

        Calling the plan enumerates the body depth-first — the atom at
        ``delta_position`` over ``delta``, every other atom over its full,
        live relation — and adds each new head tuple to the head relation.
        In a recursive component the new tuples are also appended to
        ``derived`` (the next round's delta) and ``growing`` names the
        predicates the component's plans derive into meanwhile.
        """
        registers = _RegisterFile()
        makers = self._lower_body(body, registers, relations, growing, delta_position, delta)

        frontier: Optional[List[int]] = None
        for argument in rule.head.arguments:
            if not isinstance(argument, Var) or argument in registers.slots:
                continue
            if argument not in rule.existential_variables:
                def unbound(regs: Registers, argument: Var = argument) -> None:
                    raise ValueError(f"unbound head variable {argument!r} in rule {rule!r}")

                return _link(makers, unbound, registers)
            # An existential head variable: a Skolem term over the frontier,
            # whose order is fixed here rather than per derived row.
            if frontier is None:
                frontier = [
                    registers.slots[variable]
                    for variable in sorted(rule.frontier_variables(), key=lambda v: v.name)
                    if variable in registers.slots
                ]
            functor = f"∃{rule.label or rule.head.predicate}:{argument.name}"
            makers.append(_skolem_step(functor, frontier, registers.bind(argument)))

        head = _tuple_getter([registers.operand(argument) for argument in rule.head.arguments])
        add = relations[rule.head.predicate].add
        count_fact = self._count_fact

        if derived is None:
            def emit(regs: Registers) -> None:
                if add(head(regs)):
                    count_fact()
        else:
            keep = derived.append

            def emit(regs: Registers) -> None:
                row = head(regs)
                if add(row):
                    count_fact()
                    keep(row)

        return _link(makers, emit, registers)

    def _lower_body(
        self,
        body: Sequence[BodyElement],
        registers: "_RegisterFile",
        relations: Dict[str, Relation],
        growing: Iterable[str] = (),
        delta_position: int = -1,
        delta: Optional[Relation] = None,
    ) -> List[StepMaker]:
        """One step maker per body element, allocating registers in body order."""
        makers: List[StepMaker] = []
        for position, element in enumerate(body):
            if isinstance(element, Atom):
                source = delta if position == delta_position else relations[element.predicate]
                # A rule may add to the very relation it is scanning.
                snapshot = source is not delta and element.predicate in growing
                makers.append(self._atom_step(element, source, registers, snapshot))
            elif isinstance(element, Negation):
                makers.append(
                    _negation_step(element.atom, relations[element.atom.predicate], registers)
                )
            elif isinstance(element, Comparison):
                makers.append(_comparison_step(element, registers))
            elif isinstance(element, Assignment):
                makers.append(_assignment_step(element, registers))
            elif isinstance(element, FilterCondition):
                makers.append(_filter_step(element, registers))
            else:
                raise TypeError(f"unsupported body element {element!r}")
        return makers

    def _atom_step(
        self, atom: Atom, relation: Relation, registers: "_RegisterFile", snapshot: bool
    ) -> StepMaker:
        """A positive atom: probe the index on its bound positions, bind the rest."""
        bound_positions: List[int] = []
        key_slots: List[int] = []
        free_positions: List[int] = []
        free_variables: List[Var] = []
        # (position, earlier position) pairs of one variable within the atom.
        repeats: List[Tuple[int, int]] = []
        for position, argument in enumerate(atom.arguments):
            if not isinstance(argument, Var) or argument in registers.slots:
                bound_positions.append(position)
                key_slots.append(registers.operand(argument))
            elif argument in free_variables:
                repeats.append((position, free_positions[free_variables.index(argument)]))
            else:
                free_positions.append(position)
                free_variables.append(argument)
        # The atom's new variables get adjacent registers: one slice write.
        low = len(registers.values)
        for variable in free_variables:
            registers.bind(variable)
        high = len(registers.values)
        positions = tuple(bound_positions)
        key_of = _getter(key_slots)
        take = _tuple_getter(free_positions)
        tick, check_clock = self._probe_tick, self._check_limits

        def make(next_step: Step) -> Step:
            lookup = None

            if repeats:
                def step(regs: Registers) -> None:
                    nonlocal lookup
                    if lookup is None:
                        lookup = _lookup(relation, positions, snapshot)
                    if not tick() % _CLOCK_CADENCE:
                        check_clock()
                    for row in lookup(key_of(regs)) or ():
                        for position, earlier in repeats:
                            if row[position] != row[earlier]:
                                break
                        else:
                            regs[low:high] = take(row)
                            next_step(regs)
            elif not free_positions:
                def step(regs: Registers) -> None:
                    nonlocal lookup
                    if lookup is None:
                        lookup = _lookup(relation, positions, snapshot)
                    if not tick() % _CLOCK_CADENCE:
                        check_clock()
                    if lookup(key_of(regs)):
                        next_step(regs)
            elif len(free_positions) == 1:
                (only,) = free_positions

                def step(regs: Registers) -> None:
                    nonlocal lookup
                    if lookup is None:
                        lookup = _lookup(relation, positions, snapshot)
                    if not tick() % _CLOCK_CADENCE:
                        check_clock()
                    rows = lookup(key_of(regs))
                    if rows:
                        for row in rows:
                            regs[low] = row[only]
                            next_step(regs)
            else:
                def step(regs: Registers) -> None:
                    nonlocal lookup
                    if lookup is None:
                        lookup = _lookup(relation, positions, snapshot)
                    if not tick() % _CLOCK_CADENCE:
                        check_clock()
                    rows = lookup(key_of(regs))
                    if rows:
                        for row in rows:
                            regs[low:high] = take(row)
                            next_step(regs)
            return step

        return make

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _evaluate_aggregate_rule(
        self,
        aggregate_rule: AggregateRule,
        body: Sequence[BodyElement],
        relations: Dict[str, Relation],
    ) -> None:
        registers = _RegisterFile()
        makers = self._lower_body(body, registers, relations)
        # Every body solution, as a copy of the whole register file.
        members: List[Registers] = []
        _link(makers, lambda regs: members.append(regs[:]), registers)()

        group_variables = aggregate_rule.group_variables
        group_of = _tuple_getter([registers.operand(variable) for variable in group_variables])
        groups: Dict[Tuple, List[Registers]] = defaultdict(list)
        for member in members:
            groups[group_of(member)].append(member)
        relation = relations[aggregate_rule.head.predicate]
        for key, group in groups.items():
            values_by_target: Dict[Var, object] = {}
            for spec in aggregate_rule.aggregates:
                if spec.argument is None:
                    values: List[object] = [1] * len(group)
                else:
                    slot = registers.operand(spec.argument)
                    values = [member[slot] for member in group if member[slot] is not None]
                values_by_target[spec.target] = _aggregate(spec, values)
            row: List[object] = []
            for argument in aggregate_rule.head.arguments:
                if not isinstance(argument, Var):
                    row.append(ground_value(argument))
                elif argument in group_variables:
                    row.append(key[group_variables.index(argument)])
                elif argument in values_by_target:
                    row.append(values_by_target[argument])
                else:
                    row.append(group[0][registers.operand(argument)])
            if relation.add(tuple(row)):
                self._count_fact()

    # ------------------------------------------------------------------
    # limits
    # ------------------------------------------------------------------
    def _count_fact(self) -> None:
        self._fact_count += 1
        if self._fact_count > self.max_facts:
            raise EvaluationLimitExceeded(
                f"derived more than {self.max_facts} facts"
            )
        if self._fact_count % _CLOCK_CADENCE == 0:
            self._check_limits()

    def _check_limits(self) -> None:
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise EvaluationLimitExceeded("evaluation timeout exceeded")


# ----------------------------------------------------------------------
# compiled rule bodies
# ----------------------------------------------------------------------
class _RegisterFile:
    """Compile-time register allocation for one rule.

    ``values`` is the register file the compiled steps run on: register 0
    stays ``None`` and stands for any variable that is never bound, every
    constant occurrence gets a pre-filled register, and a variable gets
    the next free register where the body first binds it.
    """

    __slots__ = ("values", "slots")

    def __init__(self) -> None:
        self.values: Registers = [None]
        self.slots: Dict[Var, int] = {}

    def bind(self, variable: Var) -> int:
        """Allocate the register of a variable bound from here on."""
        self.slots[variable] = slot = len(self.values)
        self.values.append(None)
        return slot

    def operand(self, term: object) -> int:
        """The register to read ``term`` from."""
        if isinstance(term, Var):
            return self.slots.get(term, 0)
        self.values.append(ground_value(term))
        return len(self.values) - 1


def _link(makers: Sequence[StepMaker], last: Step, registers: _RegisterFile) -> Plan:
    """Chain the steps back to front; the plan runs them on the register file."""
    step = last
    for make in reversed(makers):
        step = make(step)
    values = registers.values
    return lambda: step(values)


def _matching_rows(atom: Atom, relation: Relation) -> float:
    """How many rows of ``relation`` agree with the constants of ``atom``.

    Counted, not estimated: the size of the constants' bucket in the index
    on their positions.  Constants such as ``rdf:type`` and a class
    correlate, so dividing by distinct counts can be off by orders of
    magnitude.
    """
    positions = tuple(
        position
        for position, argument in enumerate(atom.arguments)
        if not isinstance(argument, Var)
    )
    if not positions:
        return float(len(relation))
    key = _getter(positions)([ground_value(argument) for argument in atom.arguments])
    return float(len(relation.index(positions).get(key, ())))


def _lookup(relation: Relation, positions: Tuple[int, ...], snapshot: bool = False) -> Callable:
    """``key -> candidate rows`` (falsy when there are none) on ``positions``."""
    if positions:
        return relation.index(positions).get
    if snapshot:
        return lambda _key: tuple(relation.tuples)
    return lambda _key: relation.tuples


def _negation_step(atom: Atom, relation: Relation, registers: _RegisterFile) -> StepMaker:
    """``not atom``: no row agrees on the bound positions (others are existential)."""
    positions: List[int] = []
    key_slots: List[int] = []
    for position, argument in enumerate(atom.arguments):
        if not isinstance(argument, Var) or argument in registers.slots:
            positions.append(position)
            key_slots.append(registers.operand(argument))
    key_of = _getter(key_slots)

    def make(next_step: Step) -> Step:
        lookup = None

        def step(regs: Registers) -> None:
            nonlocal lookup
            if lookup is None:
                lookup = _lookup(relation, tuple(positions))
            if not lookup(key_of(regs)):
                next_step(regs)

        return step

    return make


def _comparison_step(comparison: Comparison, registers: _RegisterFile) -> StepMaker:
    operator = comparison.operator
    left, right = registers.operand(comparison.left), registers.operand(comparison.right)

    def make(next_step: Step) -> Step:
        def step(regs: Registers) -> None:
            first, second = regs[left], regs[right]
            # None is an unbound variable: the comparison fails.
            if first is not None and second is not None and compare_values(operator, first, second):
                next_step(regs)

        return step

    return make


def _skolem_step(functor: str, argument_slots: Sequence[int], target: int) -> StepMaker:
    """``target := functor(arguments)`` for a variable not bound before."""
    arguments = _tuple_getter(argument_slots)

    def make(next_step: Step) -> Step:
        def step(regs: Registers) -> None:
            regs[target] = SkolemTerm(functor, arguments(regs))
            next_step(regs)

        return step

    return make


def _assignment_step(assignment: Assignment, registers: _RegisterFile) -> StepMaker:
    expression = assignment.expression
    bound = assignment.variable in registers.slots
    if isinstance(expression, SkolemExpr):
        slots = [registers.operand(argument) for argument in expression.arguments]
        if not bound:
            return _skolem_step(expression.functor, slots, registers.bind(assignment.variable))
        functor, arguments = expression.functor, _tuple_getter(slots)

        def value_of(regs: Registers) -> object:
            return SkolemTerm(functor, arguments(regs))
    else:
        value_of = itemgetter(registers.operand(expression))
    target = registers.slots[assignment.variable] if bound else registers.bind(assignment.variable)

    def make(next_step: Step) -> Step:
        if bound:
            def step(regs: Registers) -> None:
                if regs[target] == value_of(regs):
                    next_step(regs)
        else:
            def step(regs: Registers) -> None:
                regs[target] = value_of(regs)
                next_step(regs)
        return step

    return make


def _filter_step(condition: FilterCondition, registers: _RegisterFile) -> StepMaker:
    """An embedded SPARQL filter over the bound variables carrying RDF terms."""
    expression = condition.expression
    slot_of = {
        variable: registers.slots[datalog_variable]
        for variable, datalog_variable in condition.variable_map
        if datalog_variable in registers.slots
    }
    if isinstance(expression, FilterComparison) and all(
        isinstance(side, (VariableExpr, TermExpr)) for side in (expression.left, expression.right)
    ):
        # One comparison of variables / constants: no Binding, no interpreter.
        # An unbound or non-RDF operand and a type error reject the row,
        # as ``satisfies`` does.
        operator = expression.operator
        left, right = (
            registers.operand(side.term)
            if isinstance(side, TermExpr)
            else slot_of.get(side.variable, 0)
            for side in (expression.left, expression.right)
        )

        def make_comparison(next_step: Step) -> Step:
            def step(regs: Registers) -> None:
                first, second = regs[left], regs[right]
                if isinstance(first, RdfTerm) and isinstance(second, RdfTerm):
                    try:
                        passed = term_compare(operator, first, second)
                    except ExpressionError:
                        return
                    if passed:
                        next_step(regs)

            return step

        return make_comparison

    pairs = sorted(slot_of.items(), key=lambda pair: pair[0].name)

    def make(next_step: Step) -> Step:
        def step(regs: Registers) -> None:
            items = tuple(
                (variable, regs[slot]) for variable, slot in pairs if isinstance(regs[slot], RdfTerm)
            )
            if satisfies(expression, Binding.from_sorted_items(items)):
                next_step(regs)

        return step

    return make


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


def _aggregate(spec: AggregateSpec, raw_values: List[object]):
    """Compute one aggregate over a group's bound argument values."""
    operation = spec.operation.upper()
    if spec.distinct:
        raw_values = list(dict.fromkeys(raw_values))
    if operation == "COUNT":
        return Literal.from_python(len(raw_values))

    numeric: List[float] = []
    for value in raw_values:
        if isinstance(value, Literal):
            value = value.as_python()
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            numeric.append(value)
    if operation in ("MIN", "MAX"):
        if not raw_values:
            return None
        ordered = sorted(
            raw_values,
            key=lambda value: term_sort_key(value) if isinstance(value, RdfTerm) else (0, str(value)),
        )
        return ordered[0] if operation == "MIN" else ordered[-1]
    if not numeric:
        return None
    if operation == "SUM":
        total = sum(numeric)
        return Literal.from_python(int(total) if float(total).is_integer() else total)
    if operation == "AVG":
        return Literal.from_python(sum(numeric) / len(numeric))
    raise ValueError(f"unsupported aggregate operation {operation!r}")
